//! Hostile-input hardening: a deterministic, seed-driven structured
//! mutation engine for the repo's three trust seams.
//!
//! PR 5's zero-copy receive path deliberately trusts the arena (stitched
//! views are not re-CRC'd), and LogFs recovery trusts its on-disk image.
//! This crate puts sustained adversarial pressure on both, plus the
//! signalling control plane, without any external fuzzer: every input is
//! derived from a 64-bit seed through [`pegasus_sim::rng::seeded`], so a
//! failure reproduces from the one-line `(seed, front, step)` triple the
//! assertion prints — see `docs/HARDENING.md` for the full protocol.
//!
//! Three fronts:
//!
//! * [`wire`] — a [`wire::CellMutator`] flips, drops, duplicates,
//!   reorders, truncates and splices AAL5 cell streams into
//!   [`pegasus_atm::aal5::Reassembler`], with a copying-path mirror as
//!   the verdict oracle; plus a random-walk fuzz of the signalling state
//!   machine (open/close/open-set/switch-death/re-route).
//! * [`disk`] — an [`disk::ImageMutator`] over checkpoint blobs, and a
//!   crash-point sweep that cuts simulated power at *every* operation
//!   boundary of a write-heavy LogFs run, recovers, and verifies no
//!   acknowledged record is lost and no torn record replayed.
//! * [`storm`] — the `nemesis-storm` scenario preset (link flaps, a
//!   switch death with signalling repair, a disk failure with a live
//!   RAID rebuild) rerun and compared byte-for-byte.
//! * [`control`] — random walks over the QoS feedback loop (admit,
//!   congest, renegotiate down, recover, renegotiate up) against the
//!   real broker, credit windows and hysteresis controller.
//!
//! Each front runs under plain `cargo test` with a small budget; the
//! `fuzz-gauntlet` binary (`scripts/fuzz_gauntlet.sh`) runs the CI-sized
//! budgets.

pub mod control;
pub mod disk;
pub mod storm;
pub mod wire;

/// Which mutation engine produced a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// Cell-stream and signalling mutations.
    Wire,
    /// Checkpoint-image mutations and crash-point injection.
    Disk,
    /// The golden-gated scenario storm.
    Storm,
    /// The QoS feedback loop: backpressure, hysteresis, renegotiation.
    Control,
}

impl std::fmt::Display for Front {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Front::Wire => write!(f, "wire"),
            Front::Disk => write!(f, "disk"),
            Front::Storm => write!(f, "storm"),
            Front::Control => write!(f, "control"),
        }
    }
}

/// The one-line reproduction coordinate every assertion prints: re-run
/// the named front with the same base seed and it fails at the same
/// step, because each step's RNG is derived from `(seed, step)` alone.
#[derive(Debug, Clone, Copy)]
pub struct Repro {
    /// Base seed of the run.
    pub seed: u64,
    /// Mutation engine.
    pub front: Front,
    /// Zero-based step within the run.
    pub step: u64,
}

impl std::fmt::Display for Repro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(seed={}, front={}, step={})",
            self.seed, self.front, self.step
        )
    }
}

impl Repro {
    /// The step's own RNG seed: a splitmix-style mix of `(seed, step)`,
    /// so step N's inputs never depend on steps 0..N and a single step
    /// replays in isolation.
    pub fn step_seed(&self) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(self.step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Asserts `cond`, panicking with the reproducing triple otherwise.
    #[track_caller]
    pub fn check(&self, cond: bool, what: &str) {
        if !cond {
            panic!("hostile failure {self}: {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_prints_one_line() {
        let r = Repro {
            seed: 42,
            front: Front::Wire,
            step: 17,
        };
        assert_eq!(r.to_string(), "(seed=42, front=wire, step=17)");
    }

    #[test]
    fn step_seeds_differ_and_reproduce() {
        let a = Repro {
            seed: 1,
            front: Front::Disk,
            step: 0,
        };
        let b = Repro {
            seed: 1,
            front: Front::Disk,
            step: 1,
        };
        assert_ne!(a.step_seed(), b.step_seed());
        assert_eq!(a.step_seed(), a.step_seed());
    }

    #[test]
    #[should_panic(expected = "hostile failure (seed=3, front=storm, step=9)")]
    fn check_panics_with_triple() {
        let r = Repro {
            seed: 3,
            front: Front::Storm,
            step: 9,
        };
        r.check(false, "example");
    }
}
