//! `market_hot`: re-vets of known addons, answered from the result
//! cache on the daemon's event loop. The working set is analyzed during
//! set-up; the measured traffic is an open loop of skewed-popularity
//! resubmissions, pipelined on one connection at a fixed offered rate,
//! followed by a search for the highest rate that still meets the
//! latency limit.

use crate::daemon::{self, Daemon};
use crate::gen::{self, Rng, Zipf};
use crate::spans::Acc;
use crate::{stats, Outcome};
use minijson::Json;
use sigserve::protocol::{parse_request, vet_request, vet_response, Request, Source};
use sigserve::SigCache;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Distinct addons in the working set (the cache holds 1024).
const WORKING_SET: usize = 200;
/// Zipf exponent of resubmission popularity.
const ZIPF_S: f64 = 1.0;
/// The fixed offered rate latencies are reported at.
const FIXED_RATE: f64 = 8000.0;
/// Share of the run spent at the fixed rate; the rest searches for
/// `max_rps`.
const FIXED_SHARE: f64 = 0.5;
/// Fresh-connection episodes the fixed-rate share is split into.
const EPISODES: usize = 10;
/// The latency limit `max_rps` must meet at its p99.
const P99_LIMIT_MS: f64 = 10.0;
/// Length of one trial of the `max_rps` search.
const TRIAL: Duration = Duration::from_millis(300);
/// Requests timed per hit-path layer in the traced run.
const DECOMPOSE: usize = 2000;

struct WorkingSet {
    /// Request line (newline-terminated) per addon.
    lines: Vec<Vec<u8>>,
    sources: Vec<String>,
    /// The prefill response after its `micros` field: what every later
    /// (cached) answer must repeat byte for byte.
    expected: Vec<String>,
    /// The prefill responses, for the traced run's own cache.
    cores: Vec<Json>,
}

/// The response text after the `micros` value (provenance fields come
/// first; the cached core follows).
fn core_suffix(line: &str) -> Option<&str> {
    let at = line.find("\"micros\":")? + "\"micros\":".len();
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    Some(&rest[end..])
}

/// The working set, in popularity order. Rank `r` takes the corpus
/// size at sorted position `(7 + 4r) mod 15`: the hottest addon is the
/// median-sized one on every seed, and every 15 ranks cover each corpus
/// size once. The seed varies the content and a ±10% size jitter.
fn build_working_set(seed: u64) -> (Vec<String>, Vec<Vec<u8>>) {
    let mut sizes: Vec<usize> = crate::check::Known::all()
        .iter()
        .map(|k| k.source().len())
        .collect();
    sizes.sort_unstable();
    let mut rng = Rng::stream(seed, 4);
    let sources: Vec<String> = (0..WORKING_SET)
        .map(|r| {
            let base = sizes[(sizes.len() / 2 + 4 * r) % sizes.len()] as f64;
            let bytes = (base * (0.9 + 0.2 * rng.unit())) as usize;
            gen::benign_addon_of_size(200_000 + r as u64, bytes, &mut rng)
        })
        .collect();
    let lines = sources
        .iter()
        .map(|s| {
            let mut l = vet_request(None, s).to_string_compact().into_bytes();
            l.push(b'\n');
            l
        })
        .collect();
    (sources, lines)
}

/// Set-ups timed and thrown away before the measured one, and again
/// after the window; `setup_s` is the median of all of them.
const SPARE_SETUPS: usize = 2;

/// Boots the daemon and analyzes the working set into its cache on 2
/// connections. Returns the daemon, the working set with its prefill
/// answers, and the seconds it took.
fn setup(seed: u64, traced: bool, out: &mut Outcome) -> (Daemon, WorkingSet, f64) {
    let t0 = Instant::now();
    let (sources, lines) = build_working_set(seed);
    let d = daemon::boot(traced);
    let addr = d.server.local_addr();
    let mut answers: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..daemon::CONNECTIONS)
            .map(|c| {
                let lines = &lines;
                s.spawn(move || {
                    let mut writer = TcpStream::connect(addr).expect("connect");
                    writer.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(writer.try_clone().expect("clone socket"));
                    let mut got = Vec::new();
                    for i in (c..lines.len()).step_by(daemon::CONNECTIONS) {
                        writer.write_all(&lines[i]).expect("prefill request");
                        let mut resp = String::new();
                        reader.read_line(&mut resp).expect("prefill response");
                        got.push((i, resp.trim_end().to_owned()));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("prefill client"))
            .collect()
    });
    let took = t0.elapsed().as_secs_f64();
    answers.sort_by_key(|(i, _)| *i);
    let mut ws = WorkingSet {
        lines,
        sources,
        expected: Vec::new(),
        cores: Vec::new(),
    };
    for (_, resp) in answers {
        let doc = Json::parse(&resp).expect("prefill response is JSON");
        if doc["verdict"] != "ok" {
            out.mismatch(format!(
                "prefill answered {}",
                doc["verdict"].to_string_compact()
            ));
        }
        let mut core = Json::obj();
        if let Json::Obj(entries) = &doc {
            for (k, v) in entries {
                if !matches!(k.as_str(), "kind" | "job" | "cached" | "micros") {
                    core.set(k, v.clone());
                }
            }
        }
        ws.expected
            .push(core_suffix(&resp).unwrap_or_default().to_owned());
        ws.cores.push(core);
    }
    (d, ws, took)
}

/// Times `SPARE_SETUPS` set-ups whose daemons are shut down at once.
fn spare_setups(seed: u64, out: &mut Outcome, times: &mut Vec<f64>) {
    for _ in 0..SPARE_SETUPS {
        let (d, _, t) = setup(seed, false, out);
        d.shutdown();
        times.push(t);
    }
}

/// One open-loop trial.
#[derive(Default)]
struct Trial {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    sent: u64,
    received: u64,
    /// Requests still unanswered when the send schedule ended.
    backlog: u64,
    failed: u64,
    shed: u64,
    wrong: u64,
    first_wrong: Option<String>,
    elapsed: Duration,
}

impl Trial {
    /// Checks one answer: a `vet_result` must repeat the prefill bytes;
    /// anything else (an `overloaded` shed) is a failure.
    fn check(&mut self, line: &str, expected: &str) {
        if !line.starts_with("{\"kind\":\"vet_result\"") {
            self.shed += 1;
        } else if !line.contains("\"cached\":true") || core_suffix(line) != Some(expected) {
            self.wrong += 1;
            self.first_wrong
                .get_or_insert_with(|| line.chars().take(160).collect());
        }
    }

    /// A latency quantile, as the median over chunks just large enough
    /// for the p99 rule, so one scheduler stall moves one chunk only.
    fn quantile(&self, q: f64) -> f64 {
        stats::chunked_quantile(&self.latencies_ms, stats::samples_needed(0.99), q)
    }

    /// Meets the latency limit with no growing backlog and no failures.
    fn sustained(&self, rate: f64) -> bool {
        let allowed_backlog = (rate * P99_LIMIT_MS / 1e3).ceil() as u64 + 1;
        self.failed == 0 && self.backlog <= allowed_backlog && self.quantile(0.99) <= P99_LIMIT_MS
    }
}

/// Sends the seeded popularity stream at `rate` for `dur` on a fresh
/// pipelined connection, on schedule regardless of replies; every
/// latency is timed from the request's due time. One thread polls a
/// nonblocking socket for both directions, so the generator occupies
/// one core and the daemon's event loop the other, and neither a
/// sleeping sender nor a sleeping reader adds wake-up delay to the
/// timings.
fn open_loop(
    addr: SocketAddr,
    ws: &WorkingSet,
    rng: &mut Rng,
    zipf: &Zipf,
    rate: f64,
    dur: Duration,
) -> Trial {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_nonblocking(true).expect("nonblocking socket");
    let draws: Vec<usize> = (0..(rate * dur.as_secs_f64()).ceil() as usize)
        .map(|_| zipf.draw(rng))
        .collect();
    let mut t = Trial::default();
    let mut lags = Vec::with_capacity(draws.len());
    // Requests written (or queued to write) and not yet answered.
    let mut pending: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut outbuf: Vec<u8> = Vec::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut sched_end = None;
    let mut last_progress = Instant::now();
    let t0 = Instant::now();
    loop {
        let now = Instant::now();
        while next < draws.len() && t0 + Duration::from_secs_f64(next as f64 / rate) <= now {
            let due = t0 + Duration::from_secs_f64(next as f64 / rate);
            lags.push((now - due).as_secs_f64() * 1e3);
            outbuf.extend_from_slice(&ws.lines[draws[next]]);
            pending.push_back((due, draws[next]));
            next += 1;
        }
        if next == draws.len() && sched_end.is_none() {
            sched_end = Some(now);
        }
        if !outbuf.is_empty() {
            match sock.write(&outbuf) {
                Ok(n) => {
                    outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                inbuf.extend_from_slice(&chunk[..n]);
                let now = Instant::now();
                last_progress = now;
                let mut start = 0;
                while let Some(nl) = inbuf[start..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&inbuf[start..start + nl]);
                    start += nl + 1;
                    let Some((due, idx)) = pending.pop_front() else {
                        break;
                    };
                    t.latencies_ms.push((now - due).as_secs_f64() * 1e3);
                    t.received += 1;
                    t.check(&line, &ws.expected[idx]);
                }
                inbuf.drain(..start);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if next == draws.len() && pending.is_empty() {
                    break;
                }
                if pending.is_empty() || last_progress.elapsed() < Duration::from_secs(5) {
                    std::hint::spin_loop();
                } else {
                    break; // the daemon stopped answering
                }
            }
            Err(_) => break,
        }
    }
    let sent = next as u64;
    t.elapsed = sched_end.unwrap_or_else(Instant::now) - t0;
    t.sent = sent;
    t.backlog = backlog_at(&t, rate, t.elapsed);
    t.failed = sent - t.received.min(sent) + t.shed;
    t.lags_ms = lags;
    t
}

/// Requests due before `end` whose answers arrived after it.
fn backlog_at(t: &Trial, rate: f64, end: Duration) -> u64 {
    let end_ms = end.as_secs_f64() * 1e3;
    t.latencies_ms
        .iter()
        .enumerate()
        .filter(|(k, lat)| {
            let due_ms = *k as f64 / rate * 1e3;
            due_ms + **lat > end_ms
        })
        .count() as u64
}

struct Phase {
    /// The fixed-rate episodes, each on a fresh connection.
    fixed: Vec<Trial>,
    max_rps: f64,
}

impl Phase {
    /// The median over episodes of each episode's latency quantile.
    fn latency(&self, q: f64) -> f64 {
        stats::median(&self.fixed.iter().map(|t| t.quantile(q)).collect::<Vec<_>>())
    }
}

/// The fixed-rate phase, then a doubling-then-bisecting search for the
/// highest sustained rate. Checks every answer.
fn measure(d: &Daemon, ws: &WorkingSet, seed: u64, seconds: f64, out: &mut Outcome) -> Phase {
    let addr = d.server.local_addr();
    let mut rng = Rng::stream(seed, 5);
    let zipf = Zipf::new(WORKING_SET, ZIPF_S);
    let episode = Duration::from_secs_f64(seconds * FIXED_SHARE / EPISODES as f64);
    let fixed: Vec<Trial> = (0..EPISODES)
        .map(|_| open_loop(addr, ws, &mut rng, &zipf, FIXED_RATE, episode))
        .collect();
    // Every answer is checked. The measured traffic is the fixed-rate
    // stream; sheds during the search are how an unsustainable rate
    // shows, so they mark the trial failed instead of the run.
    let account = |t: &Trial, out: &mut Outcome| {
        if t.wrong > 0 {
            out.mismatch(format!(
                "{} hot answers were not the cached prefill bytes, e.g. {}",
                t.wrong,
                t.first_wrong.as_deref().unwrap_or("")
            ));
        }
    };
    for t in &fixed {
        out.attempted += t.sent;
        out.failed += t.failed;
        account(t, out);
    }
    // Peak memory of the fixed-rate traffic; the search's volume varies
    // with the rate it reaches.
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", crate::peak_rss_mb());
    }
    let mut search_shed = 0;

    let search_end = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - FIXED_SHARE));
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let mut best = 0.0f64;
    let mut rate = 2.0 * FIXED_RATE;
    while Instant::now() + 2 * TRIAL < search_end {
        // A rate fails only if two trials in a row miss it, so one
        // scheduler stall does not end the climb.
        let mut passed = None;
        for _ in 0..2 {
            let t = open_loop(addr, ws, &mut rng, &zipf, rate, TRIAL);
            account(&t, out);
            search_shed += t.failed;
            if t.sustained(rate) {
                passed = Some(t.received as f64 / t.elapsed.as_secs_f64());
                break;
            }
        }
        match passed {
            Some(achieved) => {
                lo = rate;
                best = best.max(achieved);
            }
            None => hi = rate,
        }
        rate = if hi.is_finite() {
            (lo + hi) / 2.0
        } else {
            rate * 2.0
        };
    }
    out.set("search_failed", search_shed as f64);
    Phase {
        fixed,
        max_rps: best,
    }
}

fn set_fixed_e2e(out: &mut Outcome, p: &Phase) {
    let received: u64 = p.fixed.iter().map(|t| t.received).sum();
    let elapsed: f64 = p.fixed.iter().map(|t| t.elapsed.as_secs_f64()).sum();
    out.set("jobs_per_s", received as f64 / elapsed);
    out.set("max_rps", p.max_rps);
    out.set("latency_ms_p50", p.latency(0.5));
    out.set("latency_ms_p95", p.latency(0.95));
    out.set("latency_ms_p99", p.latency(0.99));
    out.set("samples", received as f64);
    let mut lags: Vec<f64> = p
        .fixed
        .iter()
        .flat_map(|t| t.lags_ms.iter().copied())
        .collect();
    stats::sort(&mut lags);
    out.set("gen.lag_ms_p99", stats::quantile(&lags, 0.99));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    spare_setups(seed, &mut out, &mut setup_times);
    let (d, ws, t) = setup(seed, false, &mut out);
    setup_times.push(t);
    let base = measure(&d, &ws, seed, seconds, &mut out);
    set_fixed_e2e(&mut out, &base);
    daemon::check_log(&d.shutdown(), &mut out);
    spare_setups(seed, &mut out, &mut setup_times);
    out.set("setup_s", stats::median(&setup_times));
    if trace {
        let mut scratch = Outcome::default();
        let (d, ws, _) = setup(seed, true, &mut scratch);
        let probe = d.probe.clone().expect("traced daemon has a probe");
        let before = probe.work();
        let (hits0, misses0) = (
            d.counter("serve_cache_hits"),
            d.counter("serve_cache_misses"),
        );
        let lines0 = d.log.records_written() as usize;
        let traced = measure(&d, &ws, seed, seconds, &mut out);
        let hits = (d.counter("serve_cache_hits") - hits0) as f64;
        let misses = (d.counter("serve_cache_misses") - misses0) as f64;
        let work = probe.work().minus(&before);
        let log = d.shutdown();
        let lines = daemon::check_log(&log, &mut out);
        let jobs: f64 = traced.fixed.iter().map(|t| t.received as f64).sum();
        let window: Vec<String> = lines[lines0.min(lines.len())..].to_vec();
        let all_jobs = hits + misses;
        // Analysis layers: whatever the window made the engine do (the
        // prediction is nothing).
        out.set_pipeline_layers(&work, jobs.max(1.0));
        out.set("sigserve.cache_hit_share", stats::ratio(hits, all_jobs));
        daemon::set_log_layers(&mut out, &window, all_jobs);
        daemon::set_record_cost(&mut out);
        decompose_hit_path(&ws, seed, traced.latency(0.5), &mut out);
        out.set_overhead(1.0 / base.latency(0.5), 1.0 / traced.latency(0.5));
    }
    out
}

/// Times the hit path's layers, call by call, on the workload's own
/// request lines: decode, cache key, cache get, encode. What the
/// measured hit round trip spends beyond them is the event loop's
/// residual (socket I/O, logging, metrics, scheduling).
fn decompose_hit_path(ws: &WorkingSet, seed: u64, round_trip_ms: f64, out: &mut Outcome) {
    let canon = jsanalysis::LadderSpec::standard().canonical_string();
    let mut cache = SigCache::new(1024);
    for (src, core) in ws.sources.iter().zip(&ws.cores) {
        cache.insert(sigserve::cache_key(src, &canon), core.clone(), "j-0");
    }
    let mut rng = Rng::stream(seed, 6);
    let zipf = Zipf::new(WORKING_SET, ZIPF_S);
    let mut acc = Acc::default();
    for _ in 0..DECOMPOSE {
        let idx = zipf.draw(&mut rng);
        let line = std::str::from_utf8(&ws.lines[idx]).expect("utf-8 request");
        let t0 = Instant::now();
        let req = parse_request(line);
        let t1 = Instant::now();
        let Ok(Request::Vet(item)) = req else {
            out.mismatch("a hot request line did not decode as vet".to_owned());
            continue;
        };
        let Source::Inline(src) = &item.source else {
            continue;
        };
        let t2 = Instant::now();
        let key = std::hint::black_box(sigserve::cache_key(src, &canon));
        let t3 = Instant::now();
        let hit = cache.get(key);
        let t4 = Instant::now();
        let Some((core, producer)) = hit else {
            out.mismatch("hot key missing from the cache".to_owned());
            continue;
        };
        let t5 = Instant::now();
        let text = vet_response(&core, None, Some(&producer), true, 50).to_string_compact();
        let t6 = Instant::now();
        std::hint::black_box(text);
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        acc.add("decode", us(t0, t1));
        acc.add("key", us(t2, t3));
        acc.add("get", us(t3, t4));
        acc.add("encode", us(t5, t6));
    }
    let n = DECOMPOSE as f64;
    let parts = ["decode", "key", "get", "encode"]
        .iter()
        .map(|k| acc.get(k))
        .sum::<f64>()
        / n;
    out.set("sigserve.decode_us", acc.get("decode") / n);
    out.set("sigserve.key_us", acc.get("key") / n);
    out.set("sigserve.cache_get_us", acc.get("get") / n);
    out.set("sigserve.encode_us", acc.get("encode") / n);
    out.set("sigserve.loop_residual_us", round_trip_ms * 1e3 - parts);
}
