//! Order statistics over a handful of samples, and the comparison of
//! two runs against a metric's bound.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarises `samples`; `None` when there are none. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// so a spread computed here equals the one the driver computes. With a
/// single sample every statistic is that sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (&min, &max) = (s.first()?, s.last()?);
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    let quartile = |i: usize| {
        if n < 2 {
            return s[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        min,
        q1: quartile(1),
        median,
        q3: quartile(3),
        max,
    })
}

/// Whether two runs of the same code agree on one metric. `bound` is a
/// share of the first value; a bound of 0 demands equality, which is
/// what simulated metrics and counts get. A metric neither run
/// produced agrees; one only a single run produced does not.
pub fn agrees(a: Option<f64>, b: Option<f64>, bound: f64) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => (b - a).abs() <= bound * a.abs(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_count() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }

    #[test]
    fn even_sample_count() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn three_samples_the_fewest_a_workload_takes() {
        let s = summarize(&[6.3, 6.1, 6.9]).unwrap();
        assert_eq!((s.n, s.median), (3, 6.3));
        // statistics.quantiles([6.1, 6.3, 6.9], n=4) == [6.1, 6.3, 6.9]
        assert_eq!((s.q1, s.q3), (6.1, 6.9));
    }

    #[test]
    fn one_sample_and_none() {
        let s = summarize(&[2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 2.0, 2.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn bound_comparison() {
        assert!(agrees(Some(10.0), Some(10.9), 0.1));
        assert!(agrees(Some(10.0), Some(9.1), 0.1));
        assert!(!agrees(Some(10.0), Some(11.1), 0.1));
        assert!(!agrees(Some(10.0), Some(8.9), 0.1));
    }

    #[test]
    fn a_zero_bound_demands_equality() {
        assert!(agrees(Some(38_276.0), Some(38_276.0), 0.0));
        assert!(!agrees(Some(38_276.0), Some(38_277.0), 0.0));
        assert!(agrees(Some(0.0), Some(0.0), 0.0));
    }

    #[test]
    fn omitted_metrics() {
        assert!(agrees(None, None, 0.0));
        assert!(!agrees(Some(1.0), None, 0.1));
        assert!(!agrees(None, Some(1.0), 0.1));
    }
}
