//! Summary statistics with the benchmark's percentile rule: a
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many samples lie beyond the nearest-rank `q` quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The smallest sample count whose `q` quantile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("q < 1")
}

/// Nearest-rank quantile of `sorted` (ascending), or `None` when the
/// sample is too small for the percentile rule.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), q)])
}

/// Nearest-rank quantile without the sample-size rule (medians, and
/// tails the caller reports with their sample count).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), q)]
    }
}

/// The median, over consecutive chunks of `chunk` samples (in arrival
/// order), of each chunk's `q` quantile; a short tail chunk is folded
/// into the previous one. One stall then moves one chunk's tail, not the
/// run's.
pub fn chunked_quantile(samples: &[f64], chunk: usize, q: f64) -> f64 {
    let chunks = (samples.len() / chunk).max(1);
    let per_chunk: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                samples.len()
            } else {
                (c + 1) * chunk
            };
            let mut v = samples[c * chunk..end].to_vec();
            sort(&mut v);
            quantile(&v, q)
        })
        .collect();
    median(&per_chunk)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.99), 1000);
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), None, "9 beyond is not enough");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(v.len(), 0.95), 10);
        assert_eq!(percentile(&v, 0.95), Some(190.0));
    }

    #[test]
    fn chunked_quantiles_shrug_off_one_stalled_chunk() {
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        // One stall: a burst of slow answers inside a single chunk.
        for x in &mut v[1200..1260] {
            *x = 1e6;
        }
        assert_eq!(chunked_quantile(&v, 1000, 0.99), 98.0);
        let mut sorted = v.clone();
        sort(&mut sorted);
        assert_eq!(quantile(&sorted, 0.99), 1e6, "the pooled p99 is the stall");
        assert_eq!(
            chunked_quantile(&v[..10], 1000, 0.5),
            4.0,
            "short runs are one chunk"
        );
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
