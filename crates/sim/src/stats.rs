//! Measurement primitives shared by every experiment: [`Histogram`],
//! a sample distribution with percentiles (latency, jitter, skew), and
//! [`summarize_union`], the summary of many histograms' samples taken
//! where they lie.

/// A sample histogram with exact storage of every sample.
///
/// Experiments collect at most a few million samples, so exact storage is
/// affordable and keeps percentile computation simple and precise. A
/// class of sessions is summarised from its sessions' own histograms by
/// [`summarize_union`]; no histogram is ever copied into another.
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
        let rank = nearest_rank(p, self.samples.len() as u64);
        Some(self.sorted()[rank as usize - 1])
    }

    /// The samples in ascending order, sorted in place on first need.
    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        &self.samples
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Peak-to-peak jitter: `max - min`.
    pub fn jitter(&self) -> Option<u64> {
        Some(self.max()? - self.min()?)
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

/// The 1-based nearest rank of percentile `p` (0.0–100.0) among `n > 0`
/// samples, clamped to `1..=n`.
fn nearest_rank(p: f64, n: u64) -> u64 {
    (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Summarises the union of `parts`' samples where they lie, with no
/// merged copy: the [`Summary`] a histogram holding all of them would
/// give.
///
/// Each part is paired with whether it feeds the jitter view. With
/// `jitter` false every part is read as recorded; with it true only the
/// flagged parts are read, each sample as its excess over its own
/// part's smallest — for one stream's latency, the fixed transport
/// delay — so streams with different path delays never read that
/// difference as jitter.
///
/// Each part is sorted in place. Every percentile is found by a binary
/// search over values, counting the samples at or below one in each
/// part, so the nearest rank is exact. `mean` is the exact integer sum
/// over `n`: while the sum is below 2^53 every partial sum of a
/// histogram's own `f64` loop is exact too, so the two agree bit for
/// bit.
pub fn summarize_union(parts: &mut [(Histogram, bool)], jitter: bool) -> Summary {
    // Each part read: its samples in order and the floor its view takes off.
    let views: Vec<(&[u64], u64)> = parts
        .iter_mut()
        .filter(|(h, feeds)| (*feeds || !jitter) && !h.is_empty())
        .map(|(h, _)| {
            let s = h.sorted();
            (s, if jitter { s[0] } else { 0 })
        })
        .collect();
    let n: u64 = views.iter().map(|(s, _)| s.len() as u64).sum();
    if n == 0 {
        return Summary::default();
    }
    let min = views.iter().map(|&(s, f)| s[0] - f).min().unwrap_or(0);
    let max = views
        .iter()
        .map(|&(s, f)| s[s.len() - 1] - f)
        .max()
        .unwrap_or(0);
    let sum: u128 = views
        .iter()
        .flat_map(|&(s, f)| s.iter().map(move |&v| u128::from(v - f)))
        .sum();
    let at_or_below = |x: u64| -> u64 {
        views
            .iter()
            .map(|&(s, f)| s.partition_point(|&v| v - f <= x) as u64)
            .sum()
    };
    // The smallest value with at least the rank's count at or below it.
    let percentile = |p: f64| {
        let rank = nearest_rank(p, n);
        let (mut lo, mut hi) = (min, max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at_or_below(mid) >= rank {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    Summary {
        n,
        min,
        p50: percentile(50.0),
        p90: percentile(90.0),
        p99: percentile(99.0),
        max,
        mean: sum as f64 / n as f64,
    }
}

/// A value-typed snapshot of a [`Histogram`]: the fields every report
/// table needs, detached from the sample storage.
///
/// [`Histogram::summarize`] produces one, and [`summarize_union`] one
/// for the union of many; scenario reports serialize them.
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
        let mut parts = [(Histogram::new(), true), (Histogram::new(), true)];
        for v in [1u64, 3, 5] {
            parts[0].0.record(v);
        }
        for v in [2u64, 4] {
            parts[1].0.record(v);
        }
        let s = summarize_union(&mut parts, false);
        assert_eq!((s.n, s.p50, s.max), (5, 3, 5));
    }

    #[test]
    fn jitter_histogram_subtracts_the_floor() {
        // Each part's floor is its own: 100 and 1000 both read as 0.
        let mut parts = [(Histogram::new(), true), (Histogram::new(), true)];
        for v in [100u64, 105, 130] {
            parts[0].0.record(v);
        }
        parts[1].0.record(1000);
        let s = summarize_union(&mut parts, true);
        assert_eq!((s.min, s.p50, s.max), (0, 0, 30));
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
