//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|market_cold|market_hot|edit_stream|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process, builds its inputs from the
//! seed, measures for `--seconds`, checks every output against an
//! independent reference, and prints its metrics — one `name value
//! unit` line each — followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload
//! untraced and then traced, and reports the per-layer metrics plus the
//! gap between the two runs as the tracing overhead. `--workload all`
//! runs every workload, each in a child process. See README.md for the
//! workloads, the metrics and which layer each metric belongs to.

mod check;
mod daemon;
mod gen;
mod hot;
mod spans;
mod stats;
mod sweep;

use minijson::Json;
use spans::Acc;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each one. (`latency_ms_p99`
/// is measured and printed too, but not gated; see README.md.)
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("max_rps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload bypasses
/// reads zero there.
pub const LAYERS: [(&str, &str); 39] = [
    ("jsparser.parse_ms", "ms"),
    ("jsparser.nodes_per_ms", "1/ms"),
    ("jsir.lower_ms", "ms"),
    ("jsir.ir_stmts", "count"),
    ("jsanalysis.p1_ms", "ms"),
    ("jsanalysis.steps", "count"),
    ("jsanalysis.steps_per_ms", "1/ms"),
    ("jspdg.p2_ms", "ms"),
    ("jspdg.edges", "count"),
    ("jspdg.skip_share", "ratio"),
    ("jssig.p3_ms", "ms"),
    ("jssig.flows", "count"),
    ("pipeline.unattributed_ms", "ms"),
    ("ladder.tier0_resolved_share", "ratio"),
    ("ladder.tier0_ms", "ms"),
    ("ladder.full_ms", "ms"),
    ("ladder.wasted_tier0_ms", "ms"),
    ("summary.loads", "count"),
    ("summary.load_us", "us"),
    ("summary.saves", "count"),
    ("summary.save_us", "us"),
    ("summary.saved_kb", "kB"),
    ("summary.hit_share", "ratio"),
    ("summary.reanalyzed_share", "ratio"),
    ("sigserve.engine_ms", "ms"),
    ("sigserve.queue_wait_ms", "ms"),
    ("sigserve.server_residual_ms", "ms"),
    ("sigserve.decode_us", "us"),
    ("sigserve.key_us", "us"),
    ("sigserve.cache_get_us", "us"),
    ("sigserve.encode_us", "us"),
    ("sigserve.loop_residual_us", "us"),
    ("sigserve.cache_hit_share", "ratio"),
    ("sigtrace.record_ns_1t", "ns"),
    ("sigtrace.record_ns_2t", "ns"),
    ("sigobs.records_per_job", "count"),
    ("sigobs.bytes_per_job", "B"),
    ("gen.lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 4] = ["sweep", "market_cold", "market_hot", "edit_stream"];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (or pipeline runs) issued.
    pub attempted: u64,
    /// Error, timeout, overloaded and backpressure answers, and I/O
    /// failures.
    pub failed: u64,
    /// Outputs that disagreed with their reference (the first few).
    pub mismatches: Vec<String>,
    pub mismatch_count: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    /// Sets the pipeline-stage metrics from a traced run's sums, per
    /// completed job.
    pub fn set_pipeline_layers(&mut self, acc: &Acc, jobs: f64) {
        let per_job = |k| stats::ratio(acc.get(k), jobs);
        self.set("jsparser.parse_ms", per_job("parse_ms"));
        self.set(
            "jsparser.nodes_per_ms",
            stats::ratio(acc.get("nodes"), acc.get("parse_ms")),
        );
        self.set("jsir.lower_ms", per_job("lower_ms"));
        self.set("jsir.ir_stmts", per_job("ir_stmts"));
        self.set("jsanalysis.p1_ms", per_job("p1_ms"));
        self.set("jsanalysis.steps", per_job("steps"));
        self.set(
            "jsanalysis.steps_per_ms",
            stats::ratio(acc.get("steps"), acc.get("p1_ms")),
        );
        self.set("jspdg.p2_ms", per_job("p2_ms"));
        self.set("jspdg.edges", per_job("edges"));
        self.set(
            "jspdg.skip_share",
            stats::ratio(acc.get("p2_skipped"), acc.get("attempts")),
        );
        self.set("jssig.p3_ms", per_job("p3_ms"));
        self.set("jssig.flows", per_job("flows"));
        self.set("pipeline.unattributed_ms", per_job("unattributed_ms"));
    }

    /// Sets the tracing overhead: how much slower the traced run's
    /// headline rate was than the untraced run's, in percent.
    pub fn set_overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        self.set(
            "trace.overhead_pct",
            (stats::ratio(untraced_rate, traced_rate) - 1.0) * 100.0,
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set so far, from `/proc/self/status`.
/// Workloads read it right after their measured window, before the
/// output checks allocate.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut m = Json::obj();
    for (name, value, unit) in metrics {
        let mut v = Json::obj();
        v.set("value", Json::from(*value));
        v.set("unit", Json::from(*unit));
        m.set(name, v);
    }
    let mut o = Json::obj();
    o.set("correct", Json::Bool(correct));
    o.set("attempted", Json::from(attempted as f64));
    o.set("failed", Json::from(failed as f64));
    o.set("metrics", m);
    o.to_string_compact()
}

fn run_one(args: &Args) -> ExitCode {
    let mut out = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "market_cold" => daemon::run_cold(args.seed, args.seconds, args.trace),
        "edit_stream" => daemon::run_edit(args.seed, args.seconds, args.trace),
        "market_hot" => hot::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are validated"),
    };
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    let wanted: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = out.metrics.get(name).copied();
        // A per-layer metric a workload never touches reads zero; an
        // end-to-end metric must always be measured.
        let value = match (value, args.trace) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => panic!("{} did not measure {name}", args.workload),
        };
        metrics.push((name.to_string(), value, *unit));
    }
    for (name, value) in &out.metrics {
        if !wanted.iter().any(|(n, _)| n == name) {
            println!("# {name} {value:.6}");
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value:.6} {unit}");
    }
    let failed_share = stats::ratio(out.failed as f64, out.attempted as f64);
    println!("failed_share {failed_share:.6} ratio");
    for m in &out.mismatches {
        eprintln!("MISMATCH {}: {m}", args.workload);
    }
    // A failed request (error, shed, lost answer) fails the run too:
    // a correct run has `failed_share` = 0.
    if out.failed > 0 {
        eprintln!(
            "FAILED {}: {} of {} requests",
            args.workload, out.failed, out.attempted
        );
    }
    let correct = out.mismatch_count == 0 && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in its own child process, so set-up
/// time and peak memory stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload child");
        let text = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{w}.{l}");
        }
        let Ok(doc) = Json::parse(last) else {
            eprintln!("{w}: no result line");
            return ExitCode::FAILURE;
        };
        correct &= child.status.success() && doc["correct"] == Json::Bool(true);
        attempted += doc["attempted"].as_f64().unwrap_or(0.0) as u64;
        failed += doc["failed"].as_f64().unwrap_or(0.0) as u64;
        if let Json::Obj(entries) = &doc["metrics"] {
            for (name, v) in entries {
                let unit = if args.trace { &LAYERS[..] } else { &E2E[..] }
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| u);
                metrics.push((
                    format!("{w}.{name}"),
                    v["value"].as_f64().unwrap_or(0.0),
                    unit,
                ));
            }
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(out: &Outcome, name: &str) -> f64 {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "{name} is a layer metric"
        );
        out.metrics.get(name).copied().unwrap_or(0.0)
    }

    #[test]
    fn sweep_bypasses_the_daemon_layers() {
        // One pass per window: too few jobs for the p95 rule, which the
        // run reports; nothing else may disagree.
        let out = sweep::run_sized(1, 0.1, true, 15);
        assert!(
            out.mismatches.iter().all(|m| m.contains("too few")),
            "{:?}",
            out.mismatches
        );
        assert!(layer(&out, "jsanalysis.p1_ms") > 0.0);
        assert!(layer(&out, "jspdg.edges") > 0.0);
        for (name, _) in LAYERS {
            if ["sigserve.", "summary.", "ladder.", "sigobs.", "gen."]
                .iter()
                .any(|p| name.starts_with(p))
            {
                assert_eq!(layer(&out, name), 0.0, "{name} on sweep");
            }
        }
    }

    #[test]
    fn market_hot_bypasses_the_analysis_layers() {
        let out = hot::run(1, 1.0, true);
        assert_eq!(out.mismatch_count, 0, "{:?}", out.mismatches);
        for name in [
            "jsparser.parse_ms",
            "jsir.lower_ms",
            "jsanalysis.p1_ms",
            "jsanalysis.steps",
            "jspdg.p2_ms",
            "jssig.p3_ms",
            "pipeline.unattributed_ms",
        ] {
            assert_eq!(layer(&out, name), 0.0, "{name} on market_hot");
        }
        assert!(layer(&out, "sigserve.decode_us") > 0.0);
        assert!(layer(&out, "sigserve.key_us") > 0.0);
        assert_eq!(layer(&out, "sigserve.cache_hit_share"), 1.0);
    }
}
