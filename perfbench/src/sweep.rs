//! `sweep`: the corpus and the attack gallery through the in-process
//! pipeline at full sensitivity, one job at a time, pass after pass. No
//! daemon, cache, ladder or summary store is involved.

use crate::check::Known;
use crate::gen::Rng;
use crate::spans::{fold_pipeline, Acc, SpanTree};
use crate::{stats, Outcome};
use addon_sig::Pipeline;
use sigtrace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up (input load plus one warm-up pass) is repeated this often and
/// reported as its median.
const SETUP_REPS: usize = 3;

struct Pass {
    latencies_ms: Vec<f64>,
    busy: Duration,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    run_sized(seed, seconds, trace, stats::samples_needed(0.95))
}

/// [`run`], measuring at least `need` jobs per window.
pub fn run_sized(seed: u64, seconds: f64, trace: bool, need: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        jobs = Known::all();
        for job in &jobs {
            let _ = black_box(Pipeline::new().run(black_box(job.source())));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", stats::median(&setups));

    let base = measure(&jobs, seed, seconds, need, None, &mut out);
    let rate = base.latencies_ms.len() as f64 / base.busy.as_secs_f64();
    let mut lat = base.latencies_ms;
    stats::sort(&mut lat);
    out.set("jobs_per_s", rate);
    // A closed loop of one is saturated by construction: its sustained
    // rate is its throughput.
    out.set("max_rps", rate);
    out.set("latency_ms_p50", stats::quantile(&lat, 0.5));
    let p95 = crate::daemon::tail(&mut out, &lat, 0.95);
    out.set("latency_ms_p95", p95);
    out.set("latency_ms_p99", stats::quantile(&lat, 0.99));
    out.set("samples", lat.len() as f64);
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if trace {
        let mut acc = Acc::default();
        let traced = measure(&jobs, seed, seconds, need, Some(&mut acc), &mut out);
        let n = traced.latencies_ms.len() as f64;
        out.set_pipeline_layers(&acc, n);
        out.set_overhead(rate, n / traced.busy.as_secs_f64());
    }
    out
}

/// Runs passes over `jobs` (each pass in a seeded order) for at least
/// `seconds` and at least `need` jobs (capped at four times `seconds`).
fn measure(
    jobs: &[Known],
    seed: u64,
    seconds: f64,
    need: usize,
    mut acc: Option<&mut Acc>,
    out: &mut Outcome,
) -> Pass {
    let nodes: Vec<f64> = jobs
        .iter()
        .map(|j| jsparser::parse(j.source()).map_or(0, |p| jsparser::count_nodes(&p)) as f64)
        .collect();
    let mut rng = Rng::stream(seed, 1);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        busy: Duration::ZERO,
    };
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    while start.elapsed() < deadline
        || (pass.latencies_ms.len() < need && start.elapsed() < 4 * deadline)
    {
        rng.shuffle(&mut order);
        for &i in &order {
            let job = &jobs[i];
            out.attempted += 1;
            let mut tree = SpanTree::new();
            let t0 = Instant::now();
            let result = match acc {
                Some(_) => {
                    tree.span_start("job");
                    let r = Pipeline::new().tracer(&mut tree).run(job.source());
                    tree.span_end("job");
                    r
                }
                None => Pipeline::new().run(job.source()),
            };
            let dt = t0.elapsed();
            pass.busy += dt;
            pass.latencies_ms.push(dt.as_secs_f64() * 1e3);
            match result {
                Ok(report) => {
                    if let Err(e) = job.check(&report.signature) {
                        out.mismatch(e);
                    }
                    if let Some(acc) = acc.as_deref_mut() {
                        fold_pipeline(acc, &tree, "job");
                        acc.add("nodes", nodes[i]);
                        acc.add("ir_stmts", report.lowered.program.stmt_count() as f64);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("{}: {e}", job.name()));
                }
            }
        }
    }
    pass
}
