//! Seeded input generation: synthetic benign addons of varied size,
//! edit sequences over real and synthetic addons, and skewed popularity
//! draws. Everything is a pure function of the seed, so one seed gives
//! byte-identical inputs and another seed gives different ones.

/// SplitMix64: small, fast, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this generator's seed and a
    /// label, so adding draws to one stream never shifts another.
    pub fn stream(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Shape of one synthetic benign addon.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Helper chains; each chain is `depth` functions calling down.
    pub chains: usize,
    /// Functions per chain.
    pub depth: usize,
    /// String-building statements per function.
    pub work: usize,
}

impl Shape {
    /// The `i`-th shape of a fixed sequence over the range the corpus
    /// spans (2-12 chains, so 4 to ~48 functions; call chains 1-4 deep;
    /// 1-4 statements): every 176 consecutive items take each of the 176
    /// shapes once, in a scattered order.
    pub fn nth(i: usize) -> Shape {
        const CHAINS: usize = 11;
        const DEPTHS: usize = 4;
        let combo = (i * 97) % (CHAINS * DEPTHS * 4);
        Shape {
            chains: 2 + combo % CHAINS,
            depth: 1 + (combo / CHAINS) % DEPTHS,
            work: 1 + combo / (CHAINS * DEPTHS),
        }
    }
}

/// A flow-free synthetic addon: chains of helpers doing branching
/// string work over literals and small objects, with no
/// security-relevant API anywhere. `id` is woven into every
/// identifier and literal, so distinct ids give distinct sources.
pub fn benign_addon(id: u64, shape: Shape) -> String {
    let mut src = format!("var Cfg{id} = {{ label: 'addon-{id}', count: 0, mode: 'fast' }};\n");
    for c in 0..shape.chains {
        push_chain(&mut src, id, c, shape);
    }
    for c in 0..shape.chains {
        src.push_str(&format!(
            "var out{id}_{c} = h{id}_{c}_0('t{c}', {});\nCfg{id}.count = Cfg{id}.count + 1;\n",
            c % 2
        ));
    }
    src
}

fn push_chain(src: &mut String, id: u64, c: usize, shape: Shape) {
    for d in 0..shape.depth {
        src.push_str(&format!("function h{id}_{c}_{d}(tag, n) {{\n"));
        src.push_str(&format!("  var s = 'v{id}.{c}.{d}:' + tag;\n"));
        for w in 0..shape.work {
            match w % 4 {
                0 => src.push_str(&format!(
                    "  if (n) {{ s = s + '#hot{w}'; }} else {{ s = s + '#cold{w}'; }}\n"
                )),
                1 => src.push_str(&format!(
                    "  var o{w} = {{ a: s, b: Cfg{id}.mode }};\n  s = o{w}.a + '/' + o{w}.b;\n"
                )),
                2 => src.push_str(&format!("  s = s.substring(0, 40) + '@{w}';\n")),
                _ => src.push_str(&format!(
                    "  var parts{w} = s.split('/');\n  s = parts{w}.join('-') + '{w}';\n"
                )),
            }
        }
        if d + 1 < shape.depth {
            src.push_str(&format!("  return h{id}_{c}_{}(s, n);\n}}\n", d + 1));
        } else {
            src.push_str(&format!("  return s + Cfg{id}.label;\n}}\n"));
        }
    }
}

/// A benign addon grown (chain by chain) to at least `bytes` long, for
/// working sets whose sizes follow the corpus.
pub fn benign_addon_of_size(id: u64, bytes: usize, rng: &mut Rng) -> String {
    let mut shape = Shape {
        chains: 1,
        depth: rng.range(1, 4),
        work: rng.range(1, 4),
    };
    loop {
        let src = benign_addon(id, shape);
        if src.len() >= bytes {
            return src;
        }
        shape.chains += 1;
    }
}

/// One kind of developer update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Changes the body of one existing function (a summary-store hit
    /// for every other function).
    SingleFunction,
    /// Changes top-level code (a store miss for the top level).
    TopLevel,
    /// Adds a new function (a store miss).
    NewFunction,
}

/// The fixed edit mix: out of every 20 versions, 14 single-function
/// edits, 3 top-level edits and 3 added functions, spread evenly. The
/// kinds are BENCH_incremental.json's (a dead literal in one function,
/// a top-level edit, a new function); their 70/15/15 shares are an
/// assumption, not a measured market mix. The pattern is the same for
/// every seed, so the share of store misses does not vary with it.
pub fn edit_pattern() -> [EditKind; 20] {
    let mut p = [EditKind::SingleFunction; 20];
    for at in [3, 10, 16] {
        p[at] = EditKind::TopLevel;
    }
    for at in [6, 13, 19] {
        p[at] = EditKind::NewFunction;
    }
    p
}

/// Byte offsets just past the `{` opening each function body, found with
/// the repository's own lexer (so strings and comments never match).
pub fn function_bodies(src: &str) -> Vec<usize> {
    use jsparser::token::{Keyword, Punct, TokenKind};
    let Ok(tokens) = jsparser::lex(src) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.kind.is_keyword(Keyword::Function) {
            continue;
        }
        // `function name? ( params ) {`
        let mut j = i + 1;
        if matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Ident(_))) {
            j += 1;
        }
        while j < tokens.len() && !tokens[j].kind.is_punct(Punct::RParen) {
            j += 1;
        }
        if let Some(brace) = tokens.get(j + 1) {
            if brace.kind.is_punct(Punct::LBrace) {
                out.push(brace.span.end as usize);
            }
        }
    }
    out
}

/// Applies one edit to `src`. `n` is a globally unique version number
/// woven into the edit, so no two versions of any addon coincide; a
/// single-function edit goes into function body `pick` (modulo the
/// number of bodies).
pub fn apply_edit(src: &str, kind: EditKind, n: u64, pick: usize) -> String {
    match kind {
        EditKind::SingleFunction => {
            let bodies = function_bodies(src);
            if bodies.is_empty() {
                return apply_edit(src, EditKind::TopLevel, n, pick);
            }
            let at = bodies[pick % bodies.len()];
            format!("{}\n  var rev{n} = 'r{n}';{}", &src[..at], &src[at..])
        }
        EditKind::TopLevel => format!("{src}\nvar build{n} = 'b{n}';\n"),
        EditKind::NewFunction => {
            format!("{src}\nfunction added{n}(a) {{\n  return a + '{n}';\n}}\n")
        }
    }
}

/// Zipf-distributed draws over `n` items (exponent `s`): item `k` is
/// the `k+1`-th most popular. Callers fix what each rank holds, so the
/// hottest item's cost does not change with the seed.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Vec<String> {
        let mut rng = Rng::stream(seed, 0);
        let mut out = Vec::new();
        for id in 0..5 {
            out.push(benign_addon(id, Shape::nth(rng.below(1000))));
        }
        out.push(benign_addon_of_size(9, 3000, &mut rng));
        let base = corpus::addons()[0].source.to_owned();
        let pattern = edit_pattern();
        let mut v = base;
        for (n, kind) in pattern.iter().enumerate() {
            v = apply_edit(&v, *kind, n as u64, rng.below(8));
        }
        out.push(v);
        let zipf = Zipf::new(50, 1.0);
        out.push(format!(
            "{:?}",
            (0..40).map(|_| zipf.draw(&mut rng)).collect::<Vec<_>>()
        ));
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    #[test]
    fn synthetic_addons_parse_and_carry_no_flows() {
        let mut rng = Rng::stream(3, 0);
        for id in 0..6 {
            let src = benign_addon(id, Shape::nth(rng.below(1000)));
            let report = addon_sig::analyze_addon(&src).expect("synthetic addon analyzes");
            assert!(report.signature.flows.is_empty(), "{src}");
        }
    }

    #[test]
    fn edits_keep_addons_parseable_and_distinct() {
        let mut rng = Rng::stream(11, 0);
        for addon in corpus::addons() {
            let bodies = function_bodies(addon.source);
            assert!(!bodies.is_empty(), "{} has functions", addon.name);
            let mut seen = std::collections::HashSet::new();
            seen.insert(addon.source.to_owned());
            let mut v = addon.source.to_owned();
            for (n, kind) in [
                EditKind::SingleFunction,
                EditKind::TopLevel,
                EditKind::NewFunction,
            ]
            .into_iter()
            .enumerate()
            {
                v = apply_edit(&v, kind, n as u64, rng.below(8));
                jsparser::parse(&v).unwrap_or_else(|e| panic!("{}: {e}", addon.name));
                assert!(seen.insert(v.clone()));
            }
        }
    }

    #[test]
    fn edit_pattern_has_fixed_shares() {
        let p = edit_pattern();
        let count = |k| p.iter().filter(|&&e| e == k).count();
        assert_eq!(count(EditKind::SingleFunction), 14);
        assert_eq!(count(EditKind::TopLevel), 3);
        assert_eq!(count(EditKind::NewFunction), 3);
    }

    #[test]
    fn shapes_cover_the_range_once_per_cycle() {
        let shapes: std::collections::HashSet<(usize, usize, usize)> = (0..176)
            .map(|i| {
                let s = Shape::nth(i);
                (s.chains, s.depth, s.work)
            })
            .collect();
        assert_eq!(shapes.len(), 176);
        assert!(shapes.iter().all(|&(c, d, w)| (2..=12).contains(&c)
            && (1..=4).contains(&d)
            && (1..=4).contains(&w)));
    }

    #[test]
    fn sized_addons_reach_their_size() {
        let mut rng = Rng::stream(5, 0);
        for bytes in [400, 1500, 7000] {
            assert!(benign_addon_of_size(1, bytes, &mut rng).len() >= bytes);
        }
    }
}
