//! The benchmark's own tracing: a [`Tracer`] that keeps spans in memory
//! and computes each span's self time (its duration minus the part of it
//! that child spans cover), plus a named accumulator that per-layer
//! metrics are folded into.

use sigtrace::{Counter, Counters, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub dur: Duration,
    /// `dur` minus the time covered by direct children.
    pub self_time: Duration,
}

struct Open {
    name: String,
    start: Instant,
    child_cover: Duration,
}

/// Records nested spans and pipeline counters for one job.
#[derive(Default)]
pub struct SpanTree {
    open: Vec<Open>,
    pub spans: Vec<Span>,
    pub counters: Counters,
}

impl SpanTree {
    pub fn new() -> SpanTree {
        SpanTree::default()
    }

    pub fn start_at(&mut self, name: &str, at: Instant) {
        self.open.push(Open {
            name: name.to_owned(),
            start: at,
            child_cover: Duration::ZERO,
        });
    }

    pub fn end_at(&mut self, name: &str, at: Instant) {
        let Some(pos) = self.open.iter().rposition(|o| o.name == name) else {
            return;
        };
        // Spans nest strictly; anything opened after `name` and never
        // closed is dropped rather than mis-attributed.
        self.open.truncate(pos + 1);
        let o = self.open.pop().expect("position is in range");
        let dur = at.saturating_duration_since(o.start);
        if let Some(parent) = self.open.last_mut() {
            parent.child_cover += dur;
        }
        self.spans.push(Span {
            name: o.name,
            dur,
            self_time: dur.saturating_sub(o.child_cover),
        });
    }

    /// Total duration of every span named `name`.
    pub fn inclusive(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }

    /// Total self time of every span named `name`.
    pub fn self_time(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_time)
            .sum()
    }

    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }
}

impl Tracer for SpanTree {
    fn span_start(&mut self, name: &str) {
        self.start_at(name, Instant::now());
    }

    fn span_end(&mut self, name: &str) {
        self.end_at(name, Instant::now());
    }

    fn add(&mut self, counter: Counter, delta: u64) {
        self.counters.add(counter, delta);
    }
}

/// Named sums that per-layer metrics are computed from.
#[derive(Debug, Default, Clone)]
pub struct Acc(BTreeMap<&'static str, f64>);

impl Acc {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// What was added since `earlier`, a snapshot of this accumulator.
    pub fn minus(&self, earlier: &Acc) -> Acc {
        let mut out = self.clone();
        for (k, v) in &earlier.0 {
            out.add(k, -v);
        }
        out
    }
}

const PDG_EDGES: [Counter; 6] = [
    Counter::PdgDataStrongEdges,
    Counter::PdgDataWeakEdges,
    Counter::PdgCtrlLocalEdges,
    Counter::PdgCtrlNonLocExpEdges,
    Counter::PdgCtrlNonLocImpEdges,
    Counter::PdgCtrlAmplifiedEdges,
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Folds one pipeline run, traced under a benchmark root span named
/// `root`, into the accumulator: per-phase time, work counts, and the
/// root's self time — the part of the job no pipeline stage accounts
/// for.
pub fn fold_pipeline(acc: &mut Acc, tree: &SpanTree, root: &str) {
    acc.add("attempts", 1.0);
    acc.add("parse_ms", ms(tree.inclusive("parse")));
    acc.add("lower_ms", ms(tree.inclusive("lower")));
    acc.add("p1_ms", ms(tree.inclusive("phase1")));
    acc.add("p2_ms", ms(tree.inclusive("phase2")));
    acc.add("p3_ms", ms(tree.inclusive("phase3")));
    acc.add("unattributed_ms", ms(tree.self_time(root)));
    if tree.has("phase1") && !tree.has("phase2") {
        acc.add("p2_skipped", 1.0);
    }
    let c = &tree.counters;
    acc.add("steps", c.get(Counter::WorklistSteps) as f64);
    acc.add(
        "edges",
        PDG_EDGES.iter().map(|&e| c.get(e)).sum::<u64>() as f64,
    );
    acc.add("flows", c.get(Counter::SignatureFlows) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tree = SpanTree::new();
        tree.start_at("job", at(0));
        tree.start_at("parse", at(1));
        tree.end_at("parse", at(4));
        tree.start_at("phase1", at(5));
        tree.start_at("fixpoint", at(6));
        tree.end_at("fixpoint", at(9));
        tree.end_at("phase1", at(10));
        tree.end_at("job", at(12));
        let d = Duration::from_millis;
        assert_eq!(tree.inclusive("job"), d(12));
        assert_eq!(
            tree.self_time("job"),
            d(12 - 3 - 5),
            "children cover 3ms + 5ms"
        );
        assert_eq!(tree.self_time("phase1"), d(2), "fixpoint covers 3 of 5ms");
        assert_eq!(
            tree.self_time("parse"),
            d(3),
            "a leaf's self time is its duration"
        );
    }

    #[test]
    fn unattributed_time_comes_from_the_root_span() {
        let mut tree = SpanTree::new();
        tree.span_start("job");
        let report = addon_sig::Pipeline::new()
            .tracer(&mut tree)
            .run("var u = content.location.href; var r = XHRWrapper('http://x.com'); r.send(u);")
            .expect("pipeline");
        tree.span_end("job");
        let mut acc = Acc::default();
        fold_pipeline(&mut acc, &tree, "job");
        let phases: f64 = ["parse_ms", "lower_ms", "p1_ms", "p2_ms", "p3_ms"]
            .iter()
            .map(|k| acc.get(k))
            .sum();
        let job = tree.inclusive("job").as_secs_f64() * 1e3;
        assert!((phases + acc.get("unattributed_ms") - job).abs() < 1e-6);
        assert_eq!(acc.get("flows"), report.signature.flows.len() as f64);
        assert!(acc.get("steps") > 0.0 && acc.get("edges") > 0.0);
        assert_eq!(acc.get("p2_skipped"), 0.0);
    }
}
