//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank and given in basis points (9900 = p99)
//! so that ranks are exact integer arithmetic.

/// Percentiles the tail rule may pick from, highest first.
const TAIL_LADDER_BP: [u64; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 7_500];

/// Samples a reported percentile must leave beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of unsorted values (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `bp` among `n > 0` samples.
fn rank(n: usize, bp: u64) -> usize {
    let n64 = n as u64;
    (bp * n64).div_ceil(10_000).clamp(1, n64) as usize
}

/// Samples beyond percentile `bp` among `n > 0`.
pub fn beyond(n: usize, bp: u64) -> usize {
    n - rank(n, bp)
}

/// Nearest-rank percentile `bp` of `sorted`; `None` when empty.
fn percentile(sorted: &[f64], bp: u64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), bp) - 1])
}

/// The highest ladder percentile (in basis points) that leaves at
/// least [`TAIL_MIN_BEYOND`] of `n` samples beyond it.
fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_LADDER_BP
        .iter()
        .copied()
        .find(|&bp| n > 0 && beyond(n, bp) >= TAIL_MIN_BEYOND)
}

/// A sorted sample set with the summary the benchmark reports.
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut values: Vec<f64>) -> Summary {
        values.sort_by(f64::total_cmp);
        Summary { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50(&self) -> Option<f64> {
        percentile(&self.sorted, 5_000)
    }

    /// `(percentile in basis points, value)` by the tail rule.
    pub fn tail(&self) -> Option<(u64, f64)> {
        let bp = tail_percentile(self.count())?;
        Some((bp, percentile(&self.sorted, bp)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(100_000), Some(9_999));
        assert_eq!(tail_percentile(99_999), Some(9_990));
        assert_eq!(tail_percentile(1_000), Some(9_900));
        assert_eq!(tail_percentile(999), Some(9_500));
        assert_eq!(tail_percentile(200), Some(9_500));
        assert_eq!(tail_percentile(100), Some(9_000));
        assert_eq!(tail_percentile(40), Some(7_500));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
        for n in 40..5_000 {
            let bp = tail_percentile(n).expect("ladder reaches p75 from 40 samples");
            assert!(n - rank(n, bp) >= TAIL_MIN_BEYOND, "n={n} bp={bp}");
            let higher = TAIL_LADDER_BP.iter().filter(|&&h| h > bp);
            for &h in higher {
                assert!(
                    n - rank(n, h) < TAIL_MIN_BEYOND,
                    "n={n}: p{h} also qualifies"
                );
            }
        }
    }

    #[test]
    fn tail_value_leaves_exactly_the_counted_samples_beyond() {
        let s = Summary::new((1..=1_000).map(f64::from).rev().collect());
        assert_eq!(s.tail(), Some((9_900, 990.0)));
        assert_eq!(s.p50(), Some(500.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
