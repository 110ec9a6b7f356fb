//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed per-run values with the standard library.

/// Percentiles considered for the tail figure, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Summary of one metric's samples.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least ten samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none or any is not
    /// finite.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (median, median)
        } else {
            (
                exclusive_quartile(&sorted, 1),
                exclusive_quartile(&sorted, 3),
            )
        };
        let tail = TAIL_LADDER.iter().find_map(|&p| {
            let rank = nearest_rank(n, p);
            (n - rank >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1]))
        });
        Some(Summary {
            n,
            median,
            q1,
            q3,
            tail,
        })
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile (1 or 3) of sorted data, `n >= 2`, by the
/// exclusive method: position `i * (n + 1) / 4`, linearly interpolated
/// and extrapolated past the ends like Python's.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product that is whole in exact arithmetic (99.9% of
/// 10,000) from rounding up past it.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from `statistics.quantiles(d, n=4)`.
        let cases: [(&[f64], f64, f64, f64); 4] = [
            (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], 2.75, 5.5, 8.25),
            (&[3.5, 1.25, 9.0, 4.75, 2.0], 1.625, 3.5, 6.875),
            (&[10., 20.], 7.5, 15.0, 22.5),
            (&[5., 1., 4., 2., 3., 9., 8.], 2.0, 4.0, 8.0),
        ];
        for (data, q1, median, q3) in cases {
            let s = Summary::of(data).expect("finite samples");
            assert_eq!(s.n, data.len());
            assert!(close(s.q1, q1), "{data:?}: q1 {} != {q1}", s.q1);
            assert!(close(s.median, median), "{data:?}: median");
            assert!(close(s.q3, q3), "{data:?}: q3 {} != {q3}", s.q3);
        }
    }

    #[test]
    fn single_sample_collapses_to_itself() {
        let s = Summary::of(&[4.0]).expect("one sample");
        assert_eq!(
            (s.n, s.median, s.q1, s.q3, s.tail),
            (1, 4.0, 4.0, 4.0, None)
        );
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn empty_or_non_finite_input_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(Summary::of(&ramp(19)).expect("ramp").tail, None);
        assert_eq!(
            Summary::of(&ramp(20)).expect("ramp").tail,
            Some((50.0, 10.0))
        );
        assert_eq!(
            Summary::of(&ramp(40)).expect("ramp").tail,
            Some((75.0, 30.0))
        );
        assert_eq!(
            Summary::of(&ramp(100)).expect("ramp").tail,
            Some((90.0, 90.0))
        );
        assert_eq!(
            Summary::of(&ramp(1000)).expect("ramp").tail,
            Some((99.0, 990.0))
        );
        assert_eq!(
            Summary::of(&ramp(10_000)).expect("ramp").tail,
            Some((99.9, 9990.0))
        );
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let s = Summary::of(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).expect("ramp");
        assert!(close(s.relative_spread(), (8.25 - 2.75) / 5.5));
    }
}
