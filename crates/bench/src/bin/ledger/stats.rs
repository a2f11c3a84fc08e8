//! Order statistics shared by the run reports and `compare`.

/// Percentiles the ledger reports, in per-mille (p50, p90, p99, p99.9).
const LADDER: [u32; 4] = [500, 900, 990, 999];

/// Nearest-rank percentile `per_mille / 10` of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() * per_mille as usize).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile.
fn beyond(n: usize, per_mille: u32) -> usize {
    n - (n * per_mille as usize).div_ceil(1000)
}

/// The highest ladder percentile (per-mille) with at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    LADDER.into_iter().rev().find(|&p| beyond(n, p) >= 10)
}

/// Median (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spread matches what
/// external tooling computes from the same runs.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Ascending copy; NaN-free input is a precondition of every caller.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(9999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        for n in [20, 100, 1000, 10_000, 123_456] {
            let p = tail_per_mille(n).expect("enough samples");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 999), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
