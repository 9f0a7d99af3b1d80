//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is read from the sorted samples
//! themselves (linear interpolation between the two closest ranks, the
//! same rule as Python's `statistics.quantiles(method="inclusive")` and
//! NumPy's default), never from a bucketed histogram: log2 buckets
//! quantise a tail to its bucket edge.

/// Samples that must lie beyond the reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, which must be ascending
/// and non-empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples not sorted");
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Number of samples strictly greater than `value`.
pub fn count_beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// Median of unsorted samples (`NaN` when there are none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Median and p95 of one latency series, with the counts that make the
/// tail meaningful.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    /// Samples strictly beyond `p95`.
    pub beyond_p95: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return Summary { n: 0, p50: f64::NAN, p95: f64::NAN, beyond_p95: 0 };
        }
        let p95 = percentile(&v, 0.95);
        Summary { n: v.len(), p50: percentile(&v, 0.5), p95, beyond_p95: count_beyond(&v, p95) }
    }

    /// Whether enough samples lie beyond p95 for it to be reported.
    pub fn tail_ok(&self) -> bool {
        self.beyond_p95 >= MIN_TAIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_known_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.25) - 1.75).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.95) - 95.05).abs() < 1e-9);
        assert!((percentile(&hundred, 0.5) - 50.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn percentile_is_not_bucketed() {
        // Three series whose medians share one log2 bucket [16, 32) must
        // still report three different medians.
        let a = [20.0, 21.0, 22.0];
        let b = [24.0, 25.0, 26.0];
        let c = [28.0, 29.0, 30.0];
        let m: Vec<f64> = [a, b, c].iter().map(|s| percentile(s, 0.5)).collect();
        assert_eq!(m, vec![21.0, 25.0, 29.0]);
    }

    #[test]
    fn summary_counts_the_tail() {
        let v: Vec<f64> = (1..=201).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 201);
        assert_eq!(s.p50, 101.0);
        assert_eq!(s.p95, 191.0);
        assert_eq!(s.beyond_p95, 10);
        assert!(s.tail_ok());
        // For distinct samples, n - 1 - floor(0.95 (n - 1)) lie beyond p95:
        // 182 is the smallest n with ten.
        assert!(Summary::of(&v[..182]).tail_ok());
        assert!(!Summary::of(&v[..181]).tail_ok());
        // Ties at the tail shrink the beyond-count: the check is on the
        // samples, not on their number.
        let mut tied = vec![1.0; 190];
        tied.extend(std::iter::repeat_n(5.0, 11));
        assert!(!Summary::of(&tied).tail_ok());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
