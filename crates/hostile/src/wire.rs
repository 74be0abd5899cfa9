//! The wire front: structured mutation of AAL5 cell streams.
//!
//! # Cell mutation
//!
//! Each step builds a frame, segments it on a randomly chosen lane
//! (copying or zero-copy arena views), applies one structured mutation
//! to the cell stream, and drives it into a [`Reassembler`]. The oracle
//! is threefold:
//!
//! 1. **No panic** — any panic is a finding, and carries the triple.
//! 2. **Nothing corrupt accepted** — every delivered frame must be
//!    byte-for-byte a prefix of a frame that was actually sent (the
//!    documented trust boundary allows a tampered trailer to truncate,
//!    never to fabricate).
//! 3. **Classified fallback** — a mirror reassembler fed the same
//!    stream with every payload materialised (the copying+CRC path)
//!    must reach the same verdict, except where the fast path's trusted
//!    trailer bytes allow a prefix acceptance the CRC rejects; the fast
//!    path must never *lose* a frame the copying path accepts.
//!
//! After every mutated stream, clean probe frames assert the
//! reassembler's state fully reset — a corrupted frame never poisons
//! its successors.

use pegasus_atm::aal5::{Aal5Error, FrameLease, Reassembler, Segmenter};
use pegasus_atm::cell::{Cell, Vci, HEADER_SIZE, PAYLOAD_SIZE};
use pegasus_sim::arena::Arena;
use pegasus_sim::rng::seeded;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{Front, Repro};

/// The circuit every fuzzed frame rides.
const VCI: Vci = 77;

/// The structured corruptions [`CellMutator`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip one bit of one cell's payload (copy-on-write materialises a
    /// view cell, forcing the CRC fallback).
    PayloadFlip,
    /// Flip one bit of a cell's 5-byte header on the wire; the receiving
    /// NIC's HEC check discards undecodable cells.
    HeaderCorrupt,
    /// Lose one cell in the fabric.
    Drop,
    /// Deliver one cell twice.
    Dup,
    /// Swap two cells (a misbehaving priority queue).
    Reorder,
    /// Cut the stream short (a flapping line mid-frame).
    Truncate,
    /// Re-label one cell onto another circuit; the per-VC reassembler
    /// never sees it.
    VciSwap,
    /// Toggle an end-of-frame marker (early termination or a lost one).
    LastFlip,
    /// Flip a byte in the final cell's trailer region (length/CRC/UU).
    TrailerTamper,
    /// Splice a second frame's cells into the middle of the stream.
    Splice,
}

const MUTATIONS: [Mutation; 10] = [
    Mutation::PayloadFlip,
    Mutation::HeaderCorrupt,
    Mutation::Drop,
    Mutation::Dup,
    Mutation::Reorder,
    Mutation::Truncate,
    Mutation::VciSwap,
    Mutation::LastFlip,
    Mutation::TrailerTamper,
    Mutation::Splice,
];

/// Seed-driven structured corruption of AAL5 cell streams.
pub struct CellMutator {
    rng: SmallRng,
}

impl CellMutator {
    /// A mutator drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        CellMutator { rng: seeded(seed) }
    }

    /// Applies one randomly chosen mutation to `cells` (donor cells feed
    /// splices). Returns what was done. The stream may end up without an
    /// end-of-frame marker; drivers must follow with clean probes.
    pub(crate) fn mutate(&mut self, cells: &mut Vec<Cell>, donor: &[Cell]) -> Mutation {
        let m = MUTATIONS[self.rng.gen_range(0..MUTATIONS.len())];
        if cells.is_empty() {
            return m;
        }
        let idx = self.rng.gen_range(0..cells.len());
        match m {
            Mutation::PayloadFlip => {
                let byte = self.rng.gen_range(0..PAYLOAD_SIZE);
                let bit = self.rng.gen_range(0..8u8);
                cells[idx].payload_mut()[byte] ^= 1 << bit;
            }
            Mutation::HeaderCorrupt => {
                let mut bytes = cells[idx].to_bytes();
                let byte = self.rng.gen_range(0..HEADER_SIZE);
                bytes[byte] ^= 1 << self.rng.gen_range(0..8u8);
                match Cell::from_bytes(&bytes) {
                    // A flip the HEC misses (e.g. in the HEC byte's own
                    // coset) still decodes; keep the decoded cell.
                    Some(c) => cells[idx] = c,
                    // The NIC drops cells failing the header checksum.
                    None => {
                        cells.remove(idx);
                    }
                }
            }
            Mutation::Drop => {
                cells.remove(idx);
            }
            Mutation::Dup => {
                let c = cells[idx].clone();
                cells.insert(idx, c);
            }
            Mutation::Reorder => {
                let jdx = self.rng.gen_range(0..cells.len());
                cells.swap(idx, jdx);
            }
            Mutation::Truncate => {
                cells.truncate(idx);
            }
            Mutation::VciSwap => {
                cells[idx].set_vci(VCI + 1);
            }
            Mutation::LastFlip => {
                let was = cells[idx].is_last();
                cells[idx].set_last(!was);
            }
            Mutation::TrailerTamper => {
                let last = cells.len() - 1;
                let byte = PAYLOAD_SIZE - 1 - self.rng.gen_range(0..8usize);
                cells[last].payload_mut()[byte] ^= 1 << self.rng.gen_range(0..8u8);
            }
            Mutation::Splice => {
                let mut spliced: Vec<Cell> = Vec::with_capacity(cells.len() + donor.len());
                spliced.extend_from_slice(&cells[..idx]);
                spliced.extend_from_slice(donor);
                spliced.extend_from_slice(&cells[idx..]);
                *cells = spliced;
            }
        }
        m
    }
}

/// Counters from a wire-front run.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireStats {
    /// Mutated streams driven.
    pub steps: u64,
    /// Frames the reassembler delivered (all verified prefix-intact).
    pub delivered: u64,
    /// Frames rejected with a classified error.
    pub rejected: u64,
    /// Deliveries accepted through the trusted-trailer fast path that
    /// the copying path would have rejected (always prefix-exact).
    pub trust_accepts: u64,
}

fn random_frame(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// Segments `frame` on the chosen lane. The arena keeps view payloads
/// alive for the returned cells.
fn segment(frame: &[u8], arena: &Arena, zero_copy: bool) -> Vec<Cell> {
    let seg = Segmenter::new(VCI);
    if zero_copy {
        let buf = arena.frame_from(frame);
        let mut cells = Vec::new();
        seg.segment_frame(&buf.view_all(), &mut cells)
            .expect("frame under AAL5 maximum");
        cells
    } else {
        seg.segment(frame).expect("frame under AAL5 maximum")
    }
}

/// Drives `cells` through `r` (honouring per-VC demux) and collects the
/// end-of-frame verdicts.
fn drive(r: &mut Reassembler, cells: &[Cell]) -> Vec<Result<FrameLease, Aal5Error>> {
    let mut verdicts = Vec::new();
    for c in cells {
        if c.vci() != VCI {
            continue; // demuxed to another circuit's reassembler
        }
        if let Some(v) = r.push_frame(c) {
            verdicts.push(v);
        }
    }
    verdicts
}

/// The copying-path mirror of `cells`: every payload materialised, so
/// the mirror reassembler validates with the full CRC on every frame.
fn materialise(cells: &[Cell]) -> Vec<Cell> {
    cells
        .iter()
        .map(|c| {
            let mut m = Cell::with_payload(c.vci(), c.payload());
            m.set_last(c.is_last());
            m
        })
        .collect()
}

fn is_prefix_of(candidate: &[u8], of: &[u8]) -> bool {
    candidate.len() <= of.len() && candidate == &of[..candidate.len()]
}

/// Runs `steps` cell-mutation steps from `seed`. Panics with a
/// reproducing triple on any oracle violation.
pub fn run_wire(seed: u64, steps: u64) -> WireStats {
    let mut stats = WireStats::default();
    for step in 0..steps {
        let repro = Repro {
            seed,
            front: Front::Wire,
            step,
        };
        let mut rng = seeded(repro.step_seed());
        let arena = Arena::new();

        let frame = random_frame(&mut rng, 1800);
        let donor_frame = random_frame(&mut rng, 400);
        let zero_copy = rng.gen_range(0..2u32) == 0;
        let mut cells = segment(&frame, &arena, zero_copy);
        let donor = segment(&donor_frame, &arena, zero_copy);

        let mut mutator = CellMutator::new(repro.step_seed() ^ 0xDEAD_BEEF);
        let n_mut = rng.gen_range(1..4u32);
        for _ in 0..n_mut {
            mutator.mutate(&mut cells, &donor);
        }

        let mut fast = Reassembler::new();
        let mut mirror = Reassembler::new();
        let fast_verdicts = drive(&mut fast, &cells);
        let mirror_verdicts = drive(&mut mirror, &materialise(&cells));

        // End-of-frame markers sit at identical stream positions, so the
        // two lanes must produce pairwise-comparable verdicts.
        repro.check(
            fast_verdicts.len() == mirror_verdicts.len(),
            "fast and copying paths saw different frame boundaries",
        );
        for (f, m) in fast_verdicts.iter().zip(&mirror_verdicts) {
            match (f, m) {
                (Ok(a), Ok(b)) => {
                    repro.check(a == b, "fast and copying paths delivered different bytes");
                    repro.check(
                        is_prefix_of(a, &frame) || is_prefix_of(a, &donor_frame),
                        "copying path accepted bytes never sent",
                    );
                    stats.delivered += 1;
                }
                (Ok(a), Err(_)) => {
                    // The trusted-trailer acceptance: legal only as an
                    // exact prefix of a frame that was actually sent.
                    repro.check(
                        is_prefix_of(a, &frame) || is_prefix_of(a, &donor_frame),
                        "fast path accepted corrupt bytes",
                    );
                    stats.delivered += 1;
                    stats.trust_accepts += 1;
                }
                (Err(ea), Err(eb)) => {
                    repro.check(
                        ea == eb,
                        "fast and copying paths classified the anomaly differently",
                    );
                    stats.rejected += 1;
                }
                (Err(_), Ok(_)) => {
                    repro.check(false, "fast path lost a frame the copying path accepted");
                }
            }
        }

        // State-reset probes: the first clean frame flushes any partial
        // state left by the mutated stream; the second must always
        // deliver intact.
        let probe1 = segment(b"state-reset probe one", &arena, false);
        let probe2 = segment(b"state-reset probe two", &arena, zero_copy);
        let v1 = drive(&mut fast, &probe1);
        repro.check(v1.len() == 1, "clean probe produced no verdict");
        let p1_ok = matches!(&v1[0], Ok(l) if l.as_ref() == b"state-reset probe one");
        let v2 = drive(&mut fast, &probe2);
        repro.check(v2.len() == 1, "second clean probe produced no verdict");
        match &v2[0] {
            Ok(l) => repro.check(
                l.as_ref() == b"state-reset probe two",
                "reassembler state leaked across frames",
            ),
            Err(_) => repro.check(
                false,
                "a corrupted frame poisoned its successor past one boundary",
            ),
        }
        if !p1_ok {
            // Partial mutated state merged into probe 1 and was
            // correctly rejected; that is the classified-fallback
            // contract, not a finding.
            stats.rejected += 1;
        }
        stats.steps += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_smoke_budget_holds_all_oracles() {
        let s = run_wire(0xA11CE, 300);
        assert_eq!(s.steps, 300);
        assert!(s.rejected > 0, "mutations must provoke rejections");
        assert!(s.delivered + s.rejected > 0);
    }

    #[test]
    fn wire_is_deterministic_in_seed() {
        let a = run_wire(7, 50);
        let b = run_wire(7, 50);
        assert_eq!(
            (a.delivered, a.rejected, a.trust_accepts),
            (b.delivered, b.rejected, b.trust_accepts)
        );
    }

    #[test]
    fn mutator_is_deterministic() {
        let frame: Vec<u8> = (0..500).map(|i| i as u8).collect();
        let arena = Arena::new();
        let build = || {
            let mut cells = segment(&frame, &arena, false);
            let mut m = CellMutator::new(99);
            let kind = m.mutate(&mut cells, &[]);
            (kind, cells)
        };
        let (ka, ca) = build();
        let (kb, cb) = build();
        assert_eq!(ka, kb);
        assert_eq!(ca.len(), cb.len());
        for (a, b) in ca.iter().zip(&cb) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }
}
