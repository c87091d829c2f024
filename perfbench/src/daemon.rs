//! The daemon configuration the three daemon workloads share, the
//! closed-loop load loop, and the `market_cold` and `edit_stream`
//! workloads.
//!
//! The daemon is `vet serve --ladder --summary-dir` with the store kept
//! in memory: an in-process `Server::builder()` with 2 workers,
//! `LadderSpec::standard()`, the default result cache, an Info-level
//! in-memory event log, and `service_engine_incremental` over a
//! `MemorySummaryStore`. In a traced run the benchmark wraps the engine
//! and the store in its own timing code; nothing inside the program
//! changes.

use crate::check::Known;
use crate::gen::{self, EditKind, Rng, Shape};
use crate::spans::{fold_pipeline, Acc, SpanTree};
use crate::{stats, Outcome};
use jsanalysis::{LadderSpec, MemorySummaryStore, SummaryStore};
use minijson::Json;
use sigserve::{Client, EventLog, Level, ServeConfig, Server, VetOutcome};
use sigtrace::{Trace, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Analysis workers (the box has 2 cores).
pub const WORKERS: usize = 2;
/// Client connections of the closed-loop workloads.
pub const CONNECTIONS: usize = 2;
/// Summary-store capacity (`vet serve`'s on-disk default).
const STORE_CAP: usize = 4096;
/// Event-log ring capacity: large enough to keep a whole run, so the
/// replay check sees every record.
const LOG_CAP: usize = 1 << 22;
/// Daemon set-up is repeated this often and reported as its median.
pub const SETUP_REPS: usize = 5;
/// Warm-up requests per connection in each set-up: a fixed amount of
/// analysis work, so set-up time is not just a few thread spawns.
const WARMUP: usize = 8;
/// `peak_rss_mb` of a closed-loop window is read when this many answers
/// have arrived (the p95 rule's minimum), so it covers a fixed amount
/// of work whatever the window's throughput.
const RSS_AT: u64 = 200;

pub fn lock<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("benchmark state lock poisoned by a panicking thread")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn source_key(src: &str) -> u64 {
    let mut h = DefaultHasher::new();
    src.hash(&mut h);
    h.finish()
}

/// A timing decorator over the summary store.
struct TimedStore {
    inner: MemorySummaryStore,
    loads: AtomicU64,
    load_hits: AtomicU64,
    load_ns: AtomicU64,
    saves: AtomicU64,
    save_ns: AtomicU64,
    saved_bytes: AtomicU64,
}

impl SummaryStore for TimedStore {
    fn load(&self, key: u64) -> Option<String> {
        let t0 = Instant::now();
        let doc = self.inner.load(key);
        let ns = t0.elapsed().as_nanos() as u64;
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.load_ns.fetch_add(ns, Ordering::Relaxed);
        if doc.is_some() {
            self.load_hits.fetch_add(1, Ordering::Relaxed);
        }
        doc
    }

    fn save(&self, key: u64, doc: &str) {
        let t0 = Instant::now();
        self.inner.save(key, doc);
        let ns = t0.elapsed().as_nanos() as u64;
        self.saves.fetch_add(1, Ordering::Relaxed);
        self.save_ns.fetch_add(ns, Ordering::Relaxed);
        self.saved_bytes
            .fetch_add(doc.len() as u64, Ordering::Relaxed);
    }
}

/// Submit, engine-start and engine time of one job, keyed by source.
#[derive(Default)]
struct JobClock {
    sent: Option<Instant>,
    first_start: Option<Instant>,
    engine: Duration,
}

/// The traced run's measurement state, shared by the engine wrapper,
/// the store decorator and the clients.
#[derive(Default)]
pub struct Probe {
    acc: Mutex<Acc>,
    clocks: Mutex<HashMap<u64, JobClock>>,
    /// Every analyzed source, for node and IR-statement counts taken
    /// after the window.
    sources: Mutex<Vec<String>>,
}

impl Probe {
    fn engine(
        &self,
        src: &str,
        tier0: bool,
        run: impl FnOnce(Trace<'_>) -> VetOutcome,
    ) -> VetOutcome {
        let key = source_key(src);
        let start = Instant::now();
        if let Some(c) = lock(&self.clocks).get_mut(&key) {
            c.first_start.get_or_insert(start);
        }
        let mut tree = SpanTree::new();
        tree.start_at("engine", start);
        let outcome = run(Trace::On(&mut tree));
        tree.span_end("engine");
        let dur = tree.inclusive("engine");
        if let Some(c) = lock(&self.clocks).get_mut(&key) {
            c.engine += dur;
        }
        let escalates = tier0
            && match &outcome {
                VetOutcome::Report { signature_json, .. } => {
                    sigserve::signature_has_flows(signature_json)
                }
                o => matches!(o, VetOutcome::Timeout { .. }),
            };
        {
            let mut acc = lock(&self.acc);
            fold_pipeline(&mut acc, &tree, "engine");
            acc.add("engine_ms", ms(dur));
            if tier0 {
                acc.add("tier0_attempts", 1.0);
                acc.add("tier0_ms", ms(dur));
                if escalates {
                    acc.add("tier0_escalated", 1.0);
                    acc.add("wasted_tier0_ms", ms(dur));
                }
            } else {
                acc.add("full_ms", ms(dur));
            }
        }
        lock(&self.sources).push(src.to_owned());
        outcome
    }

    /// The engine work folded in so far.
    pub fn work(&self) -> Acc {
        lock(&self.acc).clone()
    }

    fn sent(&self, src: &str) {
        let clock = JobClock {
            sent: Some(Instant::now()),
            ..JobClock::default()
        };
        lock(&self.clocks).insert(source_key(src), clock);
    }

    fn answered(&self, src: &str, round_trip: Duration) {
        let Some(c) = lock(&self.clocks).remove(&source_key(src)) else {
            return;
        };
        let (Some(sent), Some(start)) = (c.sent, c.first_start) else {
            return;
        };
        let wait = start.saturating_duration_since(sent);
        let mut acc = lock(&self.acc);
        acc.add("timed_jobs", 1.0);
        acc.add("queue_wait_ms", ms(wait));
        acc.add(
            "server_residual_ms",
            ms(round_trip.saturating_sub(wait + c.engine)),
        );
    }
}

/// A running daemon with its log and (traced runs) its probe.
pub struct Daemon {
    pub server: Server,
    pub log: Arc<EventLog>,
    store: Option<Arc<TimedStore>>,
    pub probe: Option<Arc<Probe>>,
}

/// Hands heap memory that is free again (a shut-down daemon's) back to
/// the OS. Each daemon starts new worker threads, and which allocator
/// arenas they reuse varies between runs; without this, the peak RSS of
/// the measured daemon would depend on what earlier set-up repetitions
/// left in those arenas.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers; it only returns
        // free heap pages to the OS.
        unsafe {
            malloc_trim(0);
        }
    }
}

pub fn boot(traced: bool) -> Daemon {
    let log = Arc::new(EventLog::in_memory(Level::Info).with_tail_cap(LOG_CAP));
    let config = ServeConfig {
        workers: WORKERS,
        ladder: Some(LadderSpec::standard()),
        log: Some(Arc::clone(&log)),
        ..ServeConfig::default()
    };
    let builder = Server::builder().config(config).addr("127.0.0.1:0");
    let engine_log = Arc::clone(&log);
    let (builder, store, probe) = if traced {
        let timed = Arc::new(TimedStore {
            inner: MemorySummaryStore::new(STORE_CAP),
            loads: AtomicU64::new(0),
            load_hits: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            save_ns: AtomicU64::new(0),
            saved_bytes: AtomicU64::new(0),
        });
        let store: Arc<dyn SummaryStore> = timed.clone();
        let probe = Arc::new(Probe::default());
        let p = Arc::clone(&probe);
        let b = builder.analyze_traced(move |src, cfg, metrics, _trace| {
            p.engine(src, cfg.triage, |t| {
                addon_sig::service_engine_incremental(
                    src,
                    cfg,
                    metrics,
                    &store,
                    Some(&engine_log),
                    t,
                )
            })
        });
        (b, Some(timed), Some(probe))
    } else {
        let store: Arc<dyn SummaryStore> = Arc::new(MemorySummaryStore::new(STORE_CAP));
        let b = builder.analyze_traced(move |src, cfg, metrics, trace| {
            addon_sig::service_engine_incremental(
                src,
                cfg,
                metrics,
                &store,
                Some(&engine_log),
                trace,
            )
        });
        (b, None, None)
    };
    let server = builder
        .start()
        .expect("start the daemon on an ephemeral port");
    Daemon {
        server,
        log,
        store,
        probe,
    }
}

impl Daemon {
    pub fn counter(&self, name: &str) -> u64 {
        self.server
            .metrics_snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn shutdown(self) -> Arc<EventLog> {
        self.server.stop();
        self.server.join();
        release_freed_memory();
        self.log
    }

    /// Forgets what the traced engine and store saw so far (the set-up's
    /// warm-up jobs), so the layer metrics cover the window only.
    pub fn reset_probe(&self) {
        if let Some(p) = &self.probe {
            *lock(&p.acc) = Acc::default();
            lock(&p.clocks).clear();
            lock(&p.sources).clear();
        }
        if let Some(s) = &self.store {
            for a in [
                &s.loads,
                &s.load_hits,
                &s.load_ns,
                &s.saves,
                &s.save_ns,
                &s.saved_bytes,
            ] {
                a.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Folds the summary-store decorator's tallies into `out`, per job.
    fn set_store_layers(&self, out: &mut Outcome, jobs: f64) {
        let Some(s) = &self.store else { return };
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let loads = get(&s.loads);
        let saves = get(&s.saves);
        out.set("summary.loads", stats::ratio(loads, jobs));
        out.set(
            "summary.load_us",
            stats::ratio(get(&s.load_ns) / 1e3, loads),
        );
        out.set("summary.saves", stats::ratio(saves, jobs));
        out.set(
            "summary.save_us",
            stats::ratio(get(&s.save_ns) / 1e3, saves),
        );
        out.set(
            "summary.saved_kb",
            stats::ratio(get(&s.saved_bytes) / 1024.0, jobs),
        );
        out.set("summary.hit_share", stats::ratio(get(&s.load_hits), loads));
    }
}

/// One set-up: boots the daemon, connects `conns` clients and sends
/// `WARMUP` fixed-shape benign addons on every connection. Returns the
/// daemon, its warmed clients and the seconds it took.
pub fn setup(traced: bool, conns: usize, rep: usize) -> (Daemon, Vec<Client>, f64) {
    let t0 = Instant::now();
    let d = boot(traced);
    let addr = d.server.local_addr();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for n in 0..WARMUP {
                        let warm = gen::benign_addon(
                            900_000 + ((rep * conns + c) * WARMUP + n) as u64,
                            Shape {
                                chains: 6,
                                depth: 2,
                                work: 2,
                            },
                        );
                        let resp = client.vet_source(None, &warm).expect("warm-up request");
                        assert!(resp["verdict"] == "ok", "warm-up answered {resp:?}");
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    (d, clients, t0.elapsed().as_secs_f64())
}

/// Set-ups that are timed and thrown away, `SETUP_REPS` before the
/// measured one and as many after the window: the reported `setup_s` is
/// the median of all of them, so one slow stretch of the run cannot make
/// it up alone.
pub fn spare_setups(traced: bool, conns: usize, first_rep: usize, times: &mut Vec<f64>) {
    for rep in first_rep..first_rep + SETUP_REPS {
        let (d, clients, t) = setup(traced, conns, rep);
        drop(clients);
        d.shutdown();
        times.push(t);
    }
}

/// One item of a closed-loop stream.
pub struct Item {
    pub source: String,
    /// Index into the known corpus/attack list, for reference checks.
    pub known: Option<usize>,
}

/// A closed-loop request stream shared by the client connections.
pub trait Stream: Send {
    fn next_item(&mut self) -> Item;
    /// True once every item the workload must include has been handed
    /// out.
    fn complete(&self) -> bool;
}

/// One answered request: only what the checks need, so the window's
/// own memory does not grow with the answers' size.
pub struct Answer {
    /// Position of the request in its stream; a fresh stream of the same
    /// seed regenerates its source.
    pub seq: u64,
    pub known: Option<usize>,
    pub latency_ms: f64,
    pub ok: bool,
    /// `source_key` of the compact signature text.
    pub signature: u64,
    pub flows_empty: bool,
}

pub struct Window {
    pub answers: Vec<Answer>,
    pub wall: Duration,
    /// Peak RSS when the `RSS_AT`-th answer arrived.
    pub rss_mb: Option<f64>,
}

/// The sources of `w`'s answers, in answer order, regenerated from a
/// fresh copy of the stream that produced them.
pub fn sources_of(w: &Window, stream: &mut dyn Stream) -> Vec<String> {
    let last = w.answers.iter().map(|a| a.seq).max().unwrap_or(0);
    let mut wanted: HashMap<u64, String> =
        w.answers.iter().map(|a| (a.seq, String::new())).collect();
    for seq in 0..=last {
        let item = stream.next_item();
        if let Some(slot) = wanted.get_mut(&seq) {
            *slot = item.source;
        }
    }
    w.answers.iter().map(|a| wanted[&a.seq].clone()).collect()
}

/// The compact signature text of an in-process run, as the daemon
/// encodes it.
pub fn signature_text(sig: &jssig::Signature) -> String {
    Json::parse(&sig.to_json())
        .map(|j| j.to_string_compact())
        .unwrap_or_default()
}

/// Runs `clients` closed loops (one request outstanding each) over a
/// shared stream until `seconds` have passed, the stream is complete,
/// and the p95 has enough samples beyond it (capped at four times
/// `seconds`).
pub fn closed_loop(
    clients: &mut [Client],
    stream: &Mutex<dyn Stream>,
    seconds: f64,
    probe: Option<&Probe>,
    out: &mut Outcome,
) -> Window {
    let deadline = Duration::from_secs_f64(seconds);
    let attempted = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let handed_out = AtomicU64::new(0);
    let rss_mb = Mutex::new(None);
    let need = stats::samples_needed(0.95) as u64;
    let start = Instant::now();
    let answers: Vec<Answer> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (attempted, failed, answered) = (&attempted, &failed, &answered);
                let (handed_out, rss_mb) = (&handed_out, &rss_mb);
                s.spawn(move || {
                    let mut answers = Vec::new();
                    loop {
                        let (seq, item) = {
                            let mut st = lock(stream);
                            let elapsed = start.elapsed();
                            let sized =
                                answered.load(Ordering::Relaxed) >= need || elapsed >= 4 * deadline;
                            if elapsed >= deadline && st.complete() && sized {
                                break;
                            }
                            (handed_out.fetch_add(1, Ordering::Relaxed), st.next_item())
                        };
                        let line =
                            sigserve::protocol::vet_request(None, &item.source).to_string_compact();
                        attempted.fetch_add(1, Ordering::Relaxed);
                        if let Some(p) = probe {
                            p.sent(&item.source);
                        }
                        let t0 = Instant::now();
                        let resp = client.raw_line(&line);
                        let rt = t0.elapsed();
                        if let Some(p) = probe {
                            p.answered(&item.source, rt);
                        }
                        let Ok(resp) = resp else {
                            failed.fetch_add(1, Ordering::Relaxed);
                            break;
                        };
                        if answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
                            *lock(rss_mb) = Some(crate::peak_rss_mb());
                        }
                        let ok = resp["kind"] == "vet_result" && resp["verdict"] == "ok";
                        if !ok {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        answers.push(Answer {
                            seq,
                            known: item.known,
                            latency_ms: ms(rt),
                            ok,
                            signature: source_key(&resp["signature"].to_string_compact()),
                            flows_empty: resp["signature"]["flows"]
                                .as_array()
                                .is_some_and(Vec::is_empty),
                        });
                    }
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    out.attempted += attempted.into_inner();
    out.failed += failed.into_inner();
    Window {
        answers,
        wall,
        rss_mb: rss_mb.into_inner().expect("rss lock"),
    }
}

/// Latency and throughput metrics of a closed-loop window.
pub fn set_closed_loop_e2e(out: &mut Outcome, w: &Window) {
    let mut lat: Vec<f64> = w.answers.iter().map(|a| a.latency_ms).collect();
    stats::sort(&mut lat);
    let rate = lat.len() as f64 / w.wall.as_secs_f64();
    out.set("jobs_per_s", rate);
    // Every connection always has a request outstanding, so the loop
    // runs at the daemon's saturated rate.
    out.set("max_rps", rate);
    out.set("latency_ms_p50", stats::quantile(&lat, 0.5));
    let p95 = tail(out, &lat, 0.95);
    out.set("latency_ms_p95", p95);
    out.set("latency_ms_p99", stats::quantile(&lat, 0.99));
    out.set("samples", lat.len() as f64);
}

/// A tail quantile under the percentile rule; a window too short for it
/// is a failed run, not a quietly wrong number.
pub fn tail(out: &mut Outcome, sorted: &[f64], q: f64) -> f64 {
    stats::percentile(sorted, q).unwrap_or_else(|| {
        out.mismatch(format!(
            "{} samples are too few for a p{} with {} beyond it",
            sorted.len(),
            q * 100.0,
            stats::MIN_BEYOND
        ));
        stats::quantile(sorted, q)
    })
}

/// The replay check every daemon workload ends with: the whole event
/// log must reconstruct into valid job lifecycles. Returns the log's
/// lines for per-window accounting.
pub fn check_log(log: &EventLog, out: &mut Outcome) -> Vec<String> {
    let lines = log.tail_lines();
    if lines.len() as u64 != log.records_written() {
        out.mismatch(format!(
            "event log ring dropped records ({} kept of {})",
            lines.len(),
            log.records_written()
        ));
    }
    if let Err(e) = sigobs::replay::replay_log(&lines.join("\n")) {
        out.mismatch(format!("event log replay: {e}"));
    }
    lines
}

/// Per-job log volume over the window's records.
pub fn set_log_layers(out: &mut Outcome, window_lines: &[String], jobs: f64) {
    let bytes: usize = window_lines.iter().map(|l| l.len() + 1).sum();
    out.set(
        "sigobs.records_per_job",
        stats::ratio(window_lines.len() as f64, jobs),
    );
    out.set("sigobs.bytes_per_job", stats::ratio(bytes as f64, jobs));
}

/// `ns` per `MetricsRegistry::record` call, on 1 and on 2 threads.
pub fn set_record_cost(out: &mut Outcome) {
    const CALLS: u64 = 200_000;
    let registry = sigtrace::MetricsRegistry::new();
    let per_call = |threads: u64| {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let registry = &registry;
                s.spawn(move || {
                    for i in 0..CALLS {
                        registry.record("serve_vet_us_tier0", std::hint::black_box(i ^ t));
                    }
                });
            }
        });
        t0.elapsed().as_nanos() as f64 / CALLS as f64
    };
    out.set("sigtrace.record_ns_1t", per_call(1));
    out.set("sigtrace.record_ns_2t", per_call(2));
}

/// The traced window's per-layer metrics shared by the analysis-bound
/// daemon workloads.
fn set_traced_layers(out: &mut Outcome, d: &Daemon, w: &Window, window_lines: &[String]) {
    let probe = d.probe.as_ref().expect("traced daemon has a probe");
    let jobs = w.answers.len() as f64;
    let mut acc = lock(&probe.acc).clone();
    for src in lock(&probe.sources).iter() {
        if let Ok(ast) = jsparser::parse(src) {
            acc.add("nodes", jsparser::count_nodes(&ast) as f64);
            acc.add("ir_stmts", jsir::lower(&ast).program.stmt_count() as f64);
        }
    }
    out.set_pipeline_layers(&acc, jobs);
    let per_job = |k| stats::ratio(acc.get(k), jobs);
    let tier0 = acc.get("tier0_attempts");
    out.set(
        "ladder.tier0_resolved_share",
        stats::ratio(tier0 - acc.get("tier0_escalated"), tier0),
    );
    out.set("ladder.tier0_ms", per_job("tier0_ms"));
    out.set("ladder.full_ms", per_job("full_ms"));
    out.set("ladder.wasted_tier0_ms", per_job("wasted_tier0_ms"));
    out.set("sigserve.engine_ms", per_job("engine_ms"));
    let timed = acc.get("timed_jobs");
    out.set(
        "sigserve.queue_wait_ms",
        stats::ratio(acc.get("queue_wait_ms"), timed),
    );
    out.set(
        "sigserve.server_residual_ms",
        stats::ratio(acc.get("server_residual_ms"), timed),
    );
    d.set_store_layers(out, jobs);
    let (mut reanalyzed, mut total) = (0.0, 0.0);
    for line in window_lines {
        if let Ok(r) = Json::parse(line) {
            if r["event"] == "summary_lookup" {
                reanalyzed += r["reanalyzed"].as_f64().unwrap_or(0.0);
                total += r["total"].as_f64().unwrap_or(0.0);
            }
        }
    }
    out.set("summary.reanalyzed_share", stats::ratio(reanalyzed, total));
    set_log_layers(out, window_lines, jobs);
    set_record_cost(out);
}

/// Runs one measured closed-loop window on a fresh daemon and checks
/// its log. `traced` selects the instrumented daemon.
fn daemon_window(
    traced: bool,
    stream: &Mutex<dyn Stream>,
    seconds: f64,
    out: &mut Outcome,
) -> (Window, Vec<String>, f64) {
    // The reported set-up time is the untraced run's; the traced run
    // sets up once.
    let mut setup_times = Vec::new();
    if !traced {
        spare_setups(false, CONNECTIONS, 0, &mut setup_times);
    }
    let (d, mut clients, t) = setup(traced, CONNECTIONS, SETUP_REPS);
    setup_times.push(t);
    d.reset_probe();
    let hits0 = d.counter("serve_cache_hits");
    let lines0 = d.log.records_written() as usize;
    let w = closed_loop(&mut clients, stream, seconds, d.probe.as_deref(), out);
    if !traced {
        // Too short a window is already a failed run (the p95 rule).
        let rss = w.rss_mb.unwrap_or_else(crate::peak_rss_mb);
        out.set("peak_rss_mb", rss);
    }
    let hits = (d.counter("serve_cache_hits") - hits0) as f64;
    drop(clients);
    let lines = check_log(&d.log, out);
    let window_lines = lines[lines0.min(lines.len())..].to_vec();
    if traced {
        set_traced_layers(out, &d, &w, &window_lines);
    }
    Daemon::shutdown(d);
    if !traced {
        spare_setups(false, CONNECTIONS, SETUP_REPS + 1, &mut setup_times);
        out.set("setup_s", stats::median(&setup_times));
    }
    (w, window_lines, hits)
}

// ---------------------------------------------------------------------
// market_cold
// ---------------------------------------------------------------------

/// Every block of `BLOCK` stream positions holds `KNOWN_PER_BLOCK`
/// known items at seeded positions: BENCH_ladder.json's benign-heavy
/// cold mix of 80 benign synthetics to 15 known items (10 corpus addons,
/// 5 attacks), kept at the same share over the whole window.
const BLOCK: usize = 19;
const KNOWN_PER_BLOCK: usize = 3;

/// The `market_cold` stream. Item `i` is a pure function of the seed and
/// `i`. The seed places the known items in each block and names the
/// synthetics; what the stream costs is the same for every seed:
/// synthetic shapes follow `Shape::nth`, and known items cycle through a
/// fixed order that alternates the largest and the smallest remaining
/// source, so any stretch of a pass mixes heavy and light ones. From the
/// second pass on each repeat carries a unique top-level `var`
/// (edit_stream's top-level edit), so no source repeats and every
/// request misses the cache.
struct ColdStream {
    seed: u64,
    next: usize,
    known: Arc<Vec<Known>>,
    order: Vec<usize>,
}

impl ColdStream {
    fn new(seed: u64, known: &Arc<Vec<Known>>) -> ColdStream {
        let mut by_size: Vec<usize> = (0..known.len()).collect();
        by_size.sort_by_key(|&k| known[k].source().len());
        let mut order = Vec::with_capacity(by_size.len());
        let (mut lo, mut hi) = (0, by_size.len());
        while lo < hi {
            hi -= 1;
            order.push(by_size[hi]);
            if lo < hi {
                order.push(by_size[lo]);
                lo += 1;
            }
        }
        ColdStream {
            seed,
            next: 0,
            known: Arc::clone(known),
            order,
        }
    }

    /// The ordinal among known items of position `i`, if it holds one.
    fn known_ordinal(&self, i: usize) -> Option<usize> {
        let (block, at) = (i / BLOCK, i % BLOCK);
        let mut slots: Vec<usize> = (0..BLOCK).collect();
        Rng::stream(self.seed, 10_000 + block as u64).shuffle(&mut slots);
        let mut mine = slots[..KNOWN_PER_BLOCK].to_vec();
        mine.sort_unstable();
        let rank = mine.iter().position(|&s| s == at)?;
        Some(block * KNOWN_PER_BLOCK + rank)
    }

    fn known_item(&self, ordinal: usize) -> Item {
        let n = self.known.len();
        let pass = ordinal / n;
        let k = self.order[ordinal % n];
        let original = self.known[k].source();
        let source = if pass == 0 {
            original.to_owned()
        } else {
            gen::apply_edit(original, EditKind::TopLevel, ordinal as u64, 0)
        };
        Item {
            source,
            known: Some(k),
        }
    }
}

impl Stream for ColdStream {
    fn next_item(&mut self) -> Item {
        let i = self.next;
        self.next += 1;
        if let Some(ordinal) = self.known_ordinal(i) {
            return self.known_item(ordinal);
        }
        let id = 1_000_000 * (1 + self.seed % 1000) + i as u64;
        Item {
            source: gen::benign_addon(id, Shape::nth(i)),
            known: None,
        }
    }

    fn complete(&self) -> bool {
        // Every known item has been sent at least once.
        self.next >= BLOCK * self.known.len().div_ceil(KNOWN_PER_BLOCK)
    }
}

/// Checks every answer. Known items must be byte-equal to an in-process
/// full-sensitivity `Pipeline` run of the same source, and that run must
/// keep its Table 2 verdict (addons) or its documented evidence
/// (attacks); benign synthetics must answer `ok` with no flows. The
/// references run here, after the window, on the benchmark's 2 threads.
fn check_cold(w: &Window, seed: u64, known: &Arc<Vec<Known>>, out: &mut Outcome) {
    let sources = sources_of(w, &mut ColdStream::new(seed, known));
    let mut seen = vec![0usize; known.len()];
    let mut todo = Vec::new();
    for (a, src) in w.answers.iter().zip(&sources) {
        match a.known {
            Some(k) => {
                seen[k] += 1;
                todo.push((k, a.signature, src.as_str()));
            }
            None if !a.ok || !a.flows_empty => {
                out.mismatch("benign synthetic answered with an error or flows".to_owned());
            }
            None => {}
        }
    }
    let bad: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let todo = &todo;
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for &(k, got, src) in todo.iter().skip(t).step_by(WORKERS) {
                        match addon_sig::Pipeline::new().run(src) {
                            Ok(report) => {
                                if let Err(e) = known[k].check(&report.signature) {
                                    bad.push(format!("reference {e}"));
                                }
                                if source_key(&signature_text(&report.signature)) != got {
                                    bad.push(format!(
                                        "{}: daemon signature differs from Pipeline",
                                        known[k].name()
                                    ));
                                }
                            }
                            Err(e) => bad.push(format!("reference {}: {e}", known[k].name())),
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for b in bad {
        out.mismatch(b);
    }
    if seen.contains(&0) {
        out.mismatch(format!(
            "every known addon must be sent at least once: {seen:?}"
        ));
    }
}

pub fn run_cold(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let known = Arc::new(Known::all());
    let stream = Mutex::new(ColdStream::new(seed, &known));
    let (w, _, _) = daemon_window(false, &stream, seconds, &mut out);
    check_cold(&w, seed, &known, &mut out);
    set_closed_loop_e2e(&mut out, &w);
    if trace {
        let stream = Mutex::new(ColdStream::new(seed, &known));
        let (tw, _, hits) = daemon_window(true, &stream, seconds, &mut out);
        check_cold(&tw, seed, &known, &mut out);
        out.set(
            "sigserve.cache_hit_share",
            stats::ratio(hits, tw.answers.len() as f64),
        );
        let rate = |w: &Window| w.answers.len() as f64 / w.wall.as_secs_f64();
        out.set_overhead(rate(&w), rate(&tw));
    }
    out
}

// ---------------------------------------------------------------------
// edit_stream
// ---------------------------------------------------------------------

/// Multi-function synthetic bases next to the corpus. With 30 bases a
/// round, the two slowest corpus addons are the top 6.7% of versions, so
/// the p95 lands inside a block instead of on a boundary between two.
const SYNTHETIC_BASES: usize = 20;

struct EditStream {
    rng: Rng,
    /// Current version of every base.
    versions: Vec<String>,
    /// Per-base offset into the edit pattern.
    offsets: Vec<usize>,
    pattern: [EditKind; 20],
    /// Bases left in the current round, in seeded order.
    round: Vec<usize>,
    rounds: usize,
    edits: u64,
}

impl EditStream {
    fn new(seed: u64) -> EditStream {
        let mut rng = Rng::stream(seed, 3);
        let mut versions: Vec<String> = corpus::addons()
            .iter()
            .map(|a| a.source.to_owned())
            .collect();
        // Fixed shapes (4-10 chains, 2-4 deep, 1-4 statements), so every
        // seed edits the same mix of sizes; the seed picks the names.
        for b in 0..SYNTHETIC_BASES {
            let shape = Shape {
                chains: 4 + b % 7,
                depth: 2 + b % 3,
                work: 1 + (b / 3) % 4,
            };
            let id = 1_000_000 * (1 + rng.below(1000) as u64) + b as u64;
            versions.push(gen::benign_addon(id, shape));
        }
        // Fixed offsets, 7 apart, so every round edits the bases with
        // close to the pattern's shares of each kind.
        let offsets = (0..versions.len()).map(|b| b * 7 % 20).collect();
        let pattern = gen::edit_pattern();
        EditStream {
            rng,
            versions,
            offsets,
            pattern,
            round: Vec::new(),
            rounds: 0,
            edits: 0,
        }
    }
}

impl Stream for EditStream {
    fn next_item(&mut self) -> Item {
        if self.round.is_empty() {
            self.round = (0..self.versions.len()).collect();
            self.rng.shuffle(&mut self.round);
            self.rounds += 1;
        }
        let b = self.round.pop().expect("round refilled above");
        // Round 1 sends the originals; later rounds one new version each.
        if self.rounds > 1 {
            let kind = self.pattern[(self.offsets[b] + self.rounds) % 20];
            self.edits += 1;
            // The edited function rotates with the round, the same way
            // for every seed, so the re-analysis work does not vary
            // with it.
            let pick = self.rounds * 7 + b;
            self.versions[b] = gen::apply_edit(&self.versions[b], kind, self.edits, pick);
        }
        Item {
            source: self.versions[b].clone(),
            known: None,
        }
    }

    fn complete(&self) -> bool {
        // The originals and at least one full round of edits.
        self.rounds > 2 || (self.rounds == 2 && self.round.is_empty())
    }
}

/// Every response must be byte-equal to a cold in-process ladder run of
/// that version; the versions are regenerated from the seed and the
/// references computed here, outside the timed window, on the
/// benchmark's 2 threads.
fn check_edit(w: &Window, seed: u64, out: &mut Outcome) {
    let sources = sources_of(w, &mut EditStream::new(seed));
    let ladder = LadderSpec::standard();
    let bad: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (ladder, sources) = (&ladder, &sources);
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for (a, src) in w.answers.iter().zip(sources).skip(t).step_by(WORKERS) {
                        let cold = addon_sig::ladder::vet_ladder(src, ladder);
                        let want = match cold.result {
                            Ok(r) => signature_text(&r.signature),
                            Err(e) => format!("error: {e}"),
                        };
                        if a.signature != source_key(&want) {
                            bad.push(format!(
                                "edited version ({} bytes) differs from a cold run",
                                src.len()
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for b in bad {
        out.mismatch(b);
    }
}

pub fn run_edit(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let stream = Mutex::new(EditStream::new(seed));
    let (w, _, _) = daemon_window(false, &stream, seconds, &mut out);
    check_edit(&w, seed, &mut out);
    set_closed_loop_e2e(&mut out, &w);
    if trace {
        let stream = Mutex::new(EditStream::new(seed));
        let (tw, _, hits) = daemon_window(true, &stream, seconds, &mut out);
        check_edit(&tw, seed, &mut out);
        out.set(
            "sigserve.cache_hit_share",
            stats::ratio(hits, tw.answers.len() as f64),
        );
        let rate = |w: &Window| w.answers.len() as f64 / w.wall.as_secs_f64();
        out.set_overhead(rate(&w), rate(&tw));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn first(stream: &mut dyn Stream, n: usize) -> Vec<String> {
        (0..n).map(|_| stream.next_item().source).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let known = Arc::new(Known::all());
        let cold = |seed| first(&mut ColdStream::new(seed, &known), 40);
        assert_eq!(cold(1), cold(1));
        assert_ne!(cold(1), cold(2));
        let edit = |seed| first(&mut EditStream::new(seed), 70);
        assert_eq!(edit(1), edit(1));
        assert_ne!(edit(1), edit(2));
    }

    #[test]
    fn cold_stream_keeps_the_ladder_mix_over_the_whole_window() {
        let known = Arc::new(Known::all());
        let mut stream = ColdStream::new(3, &known);
        let items: Vec<Item> = (0..BLOCK * 12).map(|_| stream.next_item()).collect();
        for block in items.chunks(BLOCK) {
            let known_items = block.iter().filter(|i| i.known.is_some()).count();
            assert_eq!(known_items, KNOWN_PER_BLOCK);
        }
        let distinct: HashSet<&str> = items.iter().map(|i| i.source.as_str()).collect();
        assert_eq!(distinct.len(), items.len(), "no source repeats");
        assert!(stream.complete());
    }
}
