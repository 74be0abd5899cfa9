//! Measurement primitives shared by every experiment: [`Histogram`],
//! a sample distribution with percentiles (latency, jitter, skew).

/// A sample histogram with exact storage of every sample.
///
/// Experiments collect at most a few million samples, so exact storage is
/// affordable and keeps percentile computation simple and precise.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The `p`-th percentile (0.0–100.0) using nearest-rank, or `None`
    /// when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, self.samples.len()) - 1;
        Some(self.samples[idx])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Peak-to-peak jitter: `max - min`.
    pub fn jitter(&self) -> Option<u64> {
        Some(self.max()? - self.min()?)
    }

    /// Absorbs every sample of `other` into `self`.
    ///
    /// Scenario reports merge per-session histograms into per-class
    /// distributions this way; the merge is order-insensitive as far as
    /// any percentile or moment is concerned.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// The jitter view of the distribution: every sample's excess over
    /// the smallest sample.
    ///
    /// For a latency histogram of one stream, the minimum is the fixed
    /// transport delay and the excess is the queueing-induced variation,
    /// so percentiles of this view are per-stream jitter percentiles.
    pub fn jitter_histogram(&self) -> Histogram {
        let base = self.min().unwrap_or(0);
        Histogram {
            samples: self.samples.iter().map(|&v| v - base).collect(),
            sorted: self.sorted,
        }
    }

    /// Captures the distribution as a plain [`Summary`] (all zeros when
    /// empty), for embedding in serialized reports.
    pub fn summarize(&mut self) -> Summary {
        if self.samples.is_empty() {
            return Summary::default();
        }
        Summary {
            n: self.count() as u64,
            min: self.min().unwrap(),
            p50: self.percentile(50.0).unwrap(),
            p90: self.percentile(90.0).unwrap(),
            p99: self.percentile(99.0).unwrap(),
            max: self.max().unwrap(),
            mean: self.mean().unwrap(),
        }
    }

    /// One-line summary suitable for experiment tables.
    pub fn summary(&mut self) -> String {
        if self.samples.is_empty() {
            return "n=0".to_string();
        }
        format!(
            "n={} min={} p50={} p99={} max={} mean={:.1}",
            self.count(),
            self.min().unwrap(),
            self.percentile(50.0).unwrap(),
            self.percentile(99.0).unwrap(),
            self.max().unwrap(),
            self.mean().unwrap(),
        )
    }
}

/// A value-typed snapshot of a [`Histogram`]: the fields every report
/// table needs, detached from the sample storage.
///
/// `Histogram::summarize` produces one; scenario reports serialize them.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Smallest sample.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty_is_none() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.jitter(), None);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5));
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.median(), Some(3));
        assert_eq!(h.jitter(), Some(4));
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), Some(1));
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
    }

    #[test]
    fn histogram_percentile_after_more_records_resorts() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.percentile(50.0), Some(10));
        h.record(1);
        assert_eq!(h.percentile(50.0), Some(1));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 3, 5] {
            a.record(v);
        }
        for v in [2u64, 4] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.median(), Some(3));
        assert_eq!(a.max(), Some(5));
    }

    #[test]
    fn jitter_histogram_subtracts_the_floor() {
        let mut h = Histogram::new();
        for v in [100u64, 105, 130] {
            h.record(v);
        }
        let mut j = h.jitter_histogram();
        assert_eq!(j.min(), Some(0));
        assert_eq!(j.max(), Some(30));
        assert_eq!(j.percentile(50.0), Some(5));
    }

    #[test]
    fn summarize_matches_accessors() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(Histogram::new().summarize(), Summary::default());
    }
}
