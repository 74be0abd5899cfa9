//! Edge-case coverage for the measurement primitives every scenario
//! report is built from: summaries of a union of histograms at the
//! empty/single-sample extremes, the jitter view at bucket boundaries,
//! and percentile behaviour at the saturation points (p = 0, p = 100,
//! `u64::MAX` samples). The golden-report gate depends on all of this
//! being exact. The referee for the union is a merged copy, sorted,
//! written here: [`merged_copy`].

use pegasus_sim::stats::{summarize_union, Histogram, Summary};
use proptest::prelude::*;

fn hist(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Parts that all feed the jitter view, from their samples.
fn parts(of: &[&[u64]]) -> Vec<(Histogram, bool)> {
    of.iter().map(|s| (hist(s), true)).collect()
}

/// The union summarised the plain way: every part read (for jitter,
/// only the flagged ones, less each one's own floor) into one copy,
/// sorted, then nearest ranks and the mean summed in sorted order.
fn merged_copy(parts: &[(Vec<u64>, bool)], jitter: bool) -> Summary {
    let mut all = Vec::new();
    for (samples, _) in parts.iter().filter(|(_, feeds)| *feeds || !jitter) {
        let floor = match jitter {
            true => samples.iter().copied().min().unwrap_or(0),
            false => 0,
        };
        all.extend(samples.iter().map(|&v| v - floor));
    }
    if all.is_empty() {
        return Summary::default();
    }
    all.sort_unstable();
    let n = all.len();
    let at = |p: f64| all[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
    Summary {
        n: n as u64,
        min: all[0],
        p50: at(50.0),
        p90: at(90.0),
        p99: at(99.0),
        max: all[n - 1],
        mean: all.iter().map(|&v| v as f64).sum::<f64>() / n as f64,
    }
}

// ---- Summary of a union: empty and single-sample parts. ----

#[test]
fn merge_two_empty_histograms_summarizes_to_default() {
    let mut p = parts(&[&[], &[]]);
    assert_eq!(summarize_union(&mut p, false), Summary::default());
    assert_eq!(summarize_union(&mut p, true), Summary::default());
    assert_eq!(summarize_union(&mut [], false), Summary::default());
}

#[test]
fn merge_empty_into_populated_is_identity() {
    let mut p = parts(&[&[3, 1, 2], &[]]);
    assert_eq!(summarize_union(&mut p, false), hist(&[3, 1, 2]).summarize());
    assert_eq!(summarize_union(&mut p, true), hist(&[2, 0, 1]).summarize());
}

#[test]
fn merge_populated_into_empty_adopts_the_samples() {
    let s = summarize_union(&mut parts(&[&[], &[5, 9]]), false);
    assert_eq!((s.n, s.min, s.max), (2, 5, 9));
    assert_eq!(s.mean, 7.0);
}

#[test]
fn merge_single_sample_histograms() {
    // Two one-sample parts: every percentile of the union is one of the
    // two samples, the summary is exact.
    let s = summarize_union(&mut parts(&[&[10], &[20]]), false);
    assert_eq!(s.n, 2);
    assert_eq!(s.min, 10);
    assert_eq!(s.p50, 10, "nearest-rank median of two is the lower");
    assert_eq!(s.p90, 20);
    assert_eq!(s.p99, 20);
    assert_eq!(s.max, 20);
    assert_eq!(s.mean, 15.0);
}

#[test]
fn single_sample_summary_is_that_sample_everywhere() {
    let s = hist(&[42]).summarize();
    assert_eq!(
        s,
        Summary {
            n: 1,
            min: 42,
            p50: 42,
            p90: 42,
            p99: 42,
            max: 42,
            mean: 42.0,
        }
    );
    assert_eq!(summarize_union(&mut parts(&[&[42]]), false), s);
}

#[test]
fn merge_is_order_insensitive_for_summaries() {
    let (x, y): (&[u64], &[u64]) = (&[1, 100, 7], &[3, 3, 50]);
    for jitter in [false, true] {
        assert_eq!(
            summarize_union(&mut parts(&[x, y]), jitter),
            summarize_union(&mut parts(&[y, x]), jitter),
        );
    }
}

#[test]
fn merge_after_percentile_resorts() {
    // A percentile call sorts a part and caches that; a sample recorded
    // afterwards must invalidate the cache before the union reads it.
    let mut a = hist(&[10, 30]);
    assert_eq!(a.percentile(50.0), Some(10));
    a.record(1);
    let s = summarize_union(&mut [(a, true)], false);
    assert_eq!((s.min, s.p50, s.max), (1, 10, 30));
}

// ---- The jitter view at bucket boundaries. ----

#[test]
fn jitter_of_empty_histogram_is_empty() {
    let s = summarize_union(&mut parts(&[&[]]), true);
    assert_eq!(s, Summary::default());
}

#[test]
fn jitter_of_single_sample_is_exactly_zero() {
    let s = summarize_union(&mut parts(&[&[123_456]]), true);
    assert_eq!((s.min, s.max, s.p99), (0, 0, 0));
}

#[test]
fn jitter_of_identical_samples_is_all_zero() {
    // Every sample sits exactly on the floor: the boundary bucket.
    let s = summarize_union(&mut parts(&[&[777, 777, 777, 777]]), true);
    assert_eq!(s.n, 4);
    assert_eq!(s.max, 0);
    assert_eq!(s.mean, 0.0);
}

#[test]
fn jitter_boundary_values_floor_and_ceiling() {
    // Floor sample maps to 0, ceiling to max - min, interior exact.
    let s = summarize_union(&mut parts(&[&[100, 101, 150]]), true);
    assert_eq!((s.min, s.max, s.p50), (0, 50, 1));
}

#[test]
fn jitter_at_u64_extremes_does_not_overflow() {
    // min = 0 keeps v - floor = v even for u64::MAX.
    let s = summarize_union(&mut parts(&[&[0, u64::MAX]]), true);
    assert_eq!((s.min, s.max), (0, u64::MAX));
    // And with a nonzero floor the subtraction stays in range.
    let s = summarize_union(&mut parts(&[&[u64::MAX - 5, u64::MAX]]), true);
    assert_eq!((s.min, s.p50, s.max), (0, 0, 5));
}

#[test]
fn jitter_histogram_preserves_sample_count() {
    // Every sample of a flagged part counts; an unflagged part's none.
    let mut p = vec![
        (hist(&[4, 8, 15, 16, 23, 42]), true),
        (hist(&[9, 9]), false),
    ];
    assert_eq!(summarize_union(&mut p, true).n, 6);
    assert_eq!(summarize_union(&mut p, false).n, 8);
}

// ---- Percentile behaviour at saturation. ----

#[test]
fn percentile_zero_clamps_to_minimum() {
    let mut h = hist(&[10, 20, 30]);
    // Nearest-rank at p=0 computes rank 0; the clamp must land on the
    // smallest sample, not panic or underflow.
    assert_eq!(h.percentile(0.0), Some(10));
}

#[test]
fn percentile_hundred_is_the_maximum() {
    let mut h = hist(&[10, 20, 30]);
    assert_eq!(h.percentile(100.0), Some(30));
    assert_eq!(h.percentile(100.0), h.max());
}

#[test]
fn percentile_above_hundred_saturates_at_maximum() {
    let mut h = hist(&[10, 20, 30]);
    assert_eq!(h.percentile(150.0), Some(30), "rank clamps to n");
}

#[test]
fn percentiles_with_saturated_samples() {
    // All samples at the type's ceiling: every percentile is the
    // ceiling and the summary holds it exactly.
    let mut h = hist(&[u64::MAX, u64::MAX, u64::MAX]);
    assert_eq!(h.percentile(50.0), Some(u64::MAX));
    let s = h.summarize();
    assert_eq!(s.min, u64::MAX);
    assert_eq!(s.p99, u64::MAX);
    assert_eq!(s.max, u64::MAX);
    let s = summarize_union(&mut parts(&[&[u64::MAX], &[u64::MAX, u64::MAX]]), false);
    assert_eq!(
        (s.min, s.p50, s.p99, s.max),
        (u64::MAX, u64::MAX, u64::MAX, u64::MAX)
    );
}

#[test]
fn percentile_grid_never_decreases() {
    // Percentiles are monotone in p — including the saturation ends.
    let mut h = hist(&[9, 1, 5, 3, 7, 2, 8, 4, 6, 0]);
    let mut last = 0;
    for p in 0..=100 {
        let v = h.percentile(p as f64).unwrap();
        assert!(v >= last, "p{p}: {v} < {last}");
        last = v;
    }
    assert_eq!(last, 9);
}

// ---- The union against a merged copy. ----

/// One sample: mostly from a narrow band, so parts share values, else
/// near `u64::MAX`, else anywhere.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 1_000u64..1_016,
        1 => (0u64..16).prop_map(|d| u64::MAX - d),
        1 => any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Empty parts, single samples, duplicates across parts, mixed
    /// jitter flags and floors near `u64::MAX`: both views agree with a
    /// merged copy, the mean bit for bit while its sum stays below 2^53
    /// and as the exact sum over `n` above.
    #[test]
    fn union_matches_a_merged_copy(
        raw in proptest::collection::vec(
            (proptest::collection::vec(sample(), 0..12), any::<bool>()),
            0..6,
        ),
    ) {
        let mut union: Vec<(Histogram, bool)> =
            raw.iter().map(|(s, feeds)| (hist(s), *feeds)).collect();
        for jitter in [false, true] {
            let got = summarize_union(&mut union, jitter);
            let want = merged_copy(&raw, jitter);
            prop_assert_eq!(
                (got.n, got.min, got.p50, got.p90, got.p99, got.max),
                (want.n, want.min, want.p50, want.p90, want.p99, want.max)
            );
            let exact: u128 = raw
                .iter()
                .filter(|(_, feeds)| *feeds || !jitter)
                .map(|(s, _)| {
                    let floor = if jitter { s.iter().copied().min().unwrap_or(0) } else { 0 };
                    s.iter().map(|&v| u128::from(v - floor)).sum::<u128>()
                })
                .sum();
            if exact < 1 << 53 {
                prop_assert_eq!(got.mean.to_bits(), want.mean.to_bits());
            } else {
                prop_assert_eq!(got.mean, exact as f64 / got.n as f64);
            }
        }
    }
}
