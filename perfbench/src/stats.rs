//! Percentiles and small aggregates.

/// Samples needed beyond a reported percentile (the percentile rule).
pub const BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted` at `q` in `(0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quantile the percentile rule allows for `n` samples when `cap` is
/// wanted: the highest `q <= cap` that leaves at least [`BEYOND`] samples
/// above the reported one, and the median when even that is impossible.
pub fn tail_q(n: usize, cap: f64) -> f64 {
    if n <= 2 * BEYOND {
        return 0.5;
    }
    let allowed = (n - BEYOND) as f64 / n as f64;
    cap.min(allowed).max(0.5)
}

/// A latency summary of one operation class.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value at [`Summary::tail_q`].
    pub tail: f64,
    /// The quantile the tail was taken at (see [`tail_q`]).
    pub tail_q: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes `values` with the tail capped at `cap`.
pub fn summarize(values: &[f64], cap: f64) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = tail_q(n, cap);
    Summary {
        n,
        p50: quantile(&sorted, 0.5),
        tail: quantile(&sorted, q),
        tail_q: q,
        mean: mean(&sorted),
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_q(1000, 0.99), 0.99);
        let q = tail_q(500, 0.99);
        assert!((q - 0.98).abs() < 1e-12, "500 samples support p98, got {q}");
        assert_eq!(tail_q(100, 0.90), 0.90);
        assert!(tail_q(99, 0.90) < 0.90);
        assert_eq!(tail_q(15, 0.99), 0.5);
    }

    #[test]
    fn reported_tail_leaves_ten_samples_beyond() {
        for n in [21usize, 50, 99, 100, 101, 999, 1000, 1001, 4321] {
            let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            for cap in [0.9, 0.99] {
                let s = summarize(&values, cap);
                let beyond = values.iter().filter(|&&v| v > s.tail).count();
                assert!(
                    beyond >= BEYOND,
                    "n={n} cap={cap}: {beyond} beyond {}",
                    s.tail
                );
                if s.tail_q == cap {
                    // At the cap the rank is the plain nearest rank.
                    assert_eq!(s.tail, (cap * n as f64).ceil());
                }
            }
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
