//! Baker-style file workload generation.
//!
//! Baker et al. (1991) "showed that 70% of files are deleted or
//! overwritten within 30 seconds" — the empirical fact behind the
//! write-behind design. [`generate`] makes the one deterministic trace
//! with that lifetime mix: file creations arrive as a Poisson process,
//! one every `MEAN_INTERARRIVAL` (0.5 s); a file is short-lived with
//! probability `SHORT_FRACTION` (0.7) and then lives `SHORT_MEAN` (8 s)
//! on average, otherwise `LONG_MEAN` (an hour); sizes are Pareto with
//! shape `SIZE_ALPHA` (1.3) between `MIN_SIZE` (2 KiB) and `MAX_SIZE`
//! (4 MiB); the generator is seeded with `SEED` (1991).

use pegasus_sim::rng::{exponential, heavy_tailed, seeded};
use pegasus_sim::time::{Ns, SEC};
use rand::Rng;

/// One event of the generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Create a file of `size` bytes (the create carries its write).
    Create {
        /// Trace-local file handle.
        handle: u64,
        /// Bytes written at creation.
        size: u64,
    },
    /// Delete the file.
    Delete {
        /// Trace-local file handle.
        handle: u64,
    },
}

/// Mean time between file creations: 0.5 s.
const MEAN_INTERARRIVAL: Ns = SEC / 2;

/// Probability a file is short-lived: 70 %, Baker's figure.
const SHORT_FRACTION: f64 = 0.7;

/// Mean lifetime of short-lived files: 8 s, so that with 70 % of files
/// short-lived ~68 % of all files die within 30 s.
const SHORT_MEAN: Ns = 8 * SEC;

/// Mean lifetime of long-lived files: an hour.
const LONG_MEAN: Ns = 3_600 * SEC;

/// Minimum file size in bytes.
const MIN_SIZE: u64 = 2_048;

/// Pareto shape for sizes (lower = heavier tail).
const SIZE_ALPHA: f64 = 1.3;

/// Maximum file size: 4 MiB.
const MAX_SIZE: u64 = 4 << 20;

/// RNG seed of the one trace.
const SEED: u64 = 1991;

/// Generates the `(time, op)` trace for `duration` of activity. Events
/// are returned sorted by time; deletes scheduled past the horizon are
/// omitted (the file outlives the trace).
pub fn generate(duration: Ns) -> Vec<(Ns, Op)> {
    let mut rng = seeded(SEED);
    let mut events: Vec<(Ns, Op)> = Vec::new();
    let mut t: Ns = 0;
    let mut handle = 0u64;
    loop {
        t += exponential(&mut rng, MEAN_INTERARRIVAL as f64) as Ns;
        if t >= duration {
            break;
        }
        let size = heavy_tailed(&mut rng, MIN_SIZE as f64, SIZE_ALPHA, MAX_SIZE as f64) as u64;
        events.push((t, Op::Create { handle, size }));
        let mean = if rng.gen_bool(SHORT_FRACTION) {
            SHORT_MEAN
        } else {
            LONG_MEAN
        };
        let death = t + exponential(&mut rng, mean as f64) as Ns;
        if death < duration {
            events.push((death, Op::Delete { handle }));
        }
        handle += 1;
    }
    events.sort_by_key(|&(t, op)| (t, matches!(op, Op::Delete { .. })));
    events
}

/// Summary facts about a trace (used to validate it matches Baker).
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceSummary {
    /// Files created.
    pub creates: u64,
    /// Files deleted within the trace.
    pub deletes: u64,
    /// Files whose lifetime was under 30 seconds.
    pub dead_within_30s: u64,
    /// Total bytes created.
    pub bytes: u64,
}

/// Computes summary statistics of a trace.
pub fn summarize(events: &[(Ns, Op)]) -> TraceSummary {
    use std::collections::HashMap;
    let mut created_at: HashMap<u64, Ns> = HashMap::new();
    let mut s = TraceSummary::default();
    for &(t, op) in events {
        match op {
            Op::Create { handle, size } => {
                created_at.insert(handle, t);
                s.creates += 1;
                s.bytes += size;
            }
            Op::Delete { handle } => {
                s.deletes += 1;
                if let Some(&c) = created_at.get(&handle) {
                    if t - c <= 30 * SEC {
                        s.dead_within_30s += 1;
                    }
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let a = generate(100 * SEC);
        let b = generate(100 * SEC);
        assert_eq!(a, b);
    }

    #[test]
    fn events_sorted_and_well_formed() {
        let events = generate(500 * SEC);
        let mut last = 0;
        let mut live = std::collections::HashSet::new();
        for &(t, op) in &events {
            assert!(t >= last);
            last = t;
            match op {
                Op::Create { handle, size } => {
                    assert!(live.insert(handle), "duplicate create");
                    assert!(size >= MIN_SIZE);
                    assert!(size <= MAX_SIZE);
                }
                Op::Delete { handle } => {
                    assert!(live.remove(&handle), "delete of unknown file");
                }
            }
        }
    }

    #[test]
    fn baker_lifetime_mix_holds() {
        // Long trace: the share of created files dead within 30 s should
        // sit near 0.7 (short fraction 0.7 × P[exp(8s) < 30s] ≈ 0.68,
        // plus a sliver of lucky long-lived files).
        let events = generate(5_000 * SEC);
        let s = summarize(&events);
        assert!(s.creates > 5_000, "creates={}", s.creates);
        let frac = s.dead_within_30s as f64 / s.creates as f64;
        assert!(
            (0.60..0.78).contains(&frac),
            "30-second death fraction {frac:.3} out of Baker range"
        );
    }

    #[test]
    fn sizes_heavy_tailed() {
        let events = generate(2_000 * SEC);
        let sizes: Vec<u64> = events
            .iter()
            .filter_map(|&(_, op)| match op {
                Op::Create { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        let median = {
            let mut s = sizes.clone();
            s.sort_unstable();
            s[s.len() / 2] as f64
        };
        assert!(mean > 2.0 * median, "mean {mean:.0} vs median {median:.0}");
    }

    #[test]
    fn empty_horizon_empty_trace() {
        assert!(generate(0).is_empty());
    }
}
