//! The wire front: structured mutation of AAL5 cell streams and a
//! random walk over the signalling state machine.
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
//!
//! # Signalling
//!
//! [`run_signalling`] random-walks open/close/flow-set/switch-death/
//! re-route against invariants: reservations never exceed the
//! reservable fraction, the ledger map audits clean after every step, a
//! flow set — some of its ends not attached yet — leaves nothing behind
//! when refused and attaches exactly those ends when not, a re-route pins the
//! endpoint VCIs and avoids the corpse, a dead switch admits nothing,
//! and closing every circuit returns every ledger to its initial
//! headroom.

use pegasus_atm::aal5::{Aal5Error, FrameLease, Reassembler, Segmenter};
use pegasus_atm::cell::{Cell, Vci, HEADER_SIZE, PAYLOAD_SIZE};
use pegasus_atm::link::CaptureSink;
use pegasus_atm::network::{
    EndpointId, LedgerDrift, LinkConfig, Network, PendingEnd, SwitchId, TopologyShape, VcHandle,
    RESERVABLE_FRACTION,
};
use pegasus_atm::signalling::QosSpec;
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
    pub fn mutate(&mut self, cells: &mut Vec<Cell>, donor: &[Cell]) -> Mutation {
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

/// What a caller can see of a network's endpoints, ports and ledgers.
pub(crate) fn observe(
    net: &Network,
    fabric: &[SwitchId],
) -> (usize, Vec<usize>, u64, Result<(), LedgerDrift>) {
    let ports = fabric
        .iter()
        .map(|&sw| net.switch(sw).borrow().ports())
        .collect();
    (
        net.endpoint_count(),
        ports,
        net.max_reservation_utilization().to_bits(),
        net.audit_reservations(),
    )
}

/// Counters from a signalling-front run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SignallingStats {
    /// Random-walk steps (one network each).
    pub steps: u64,
    /// Circuits opened.
    pub opened: u64,
    /// Circuits re-routed around a dead switch.
    pub rerouted: u64,
    /// Circuits stranded by a death.
    pub stranded: u64,
    /// Admission refusals observed.
    pub refused: u64,
    /// Refused flow sets with ends not attached yet.
    pub pending_refused: u64,
    /// Ends attached by admitted calls to them.
    pub pending_attached: u64,
}

/// Random-walks the signalling state machine: `steps` fresh networks,
/// each subjected to a burst of opens (single circuits, and multi-flow
/// sets to ends attached and not yet attached), closes, switch deaths
/// and re-routes, with ledger and VCI-pinning invariants checked
/// throughout and the ledger audit after every step. Panics with a
/// reproducing triple on violation.
pub fn run_signalling(seed: u64, steps: u64) -> SignallingStats {
    let mut stats = SignallingStats::default();
    for step in 0..steps {
        let repro = Repro {
            seed,
            front: Front::Wire,
            step,
        };
        let mut rng = seeded(repro.step_seed() ^ 0x5167_0A11);
        let shape = [
            TopologyShape::Star,
            TopologyShape::Ring,
            TopologyShape::FullMesh,
        ][rng.gen_range(0..3usize)];
        let n_switches = rng.gen_range(2..6usize);
        let cfg = LinkConfig::pegasus_default();
        let mut net = Network::new();
        let fabric = net.build_topology(shape, n_switches, "fz", 6, 0, cfg);
        let n_eps = rng.gen_range(4..9usize);
        let eps: Vec<EndpointId> = (0..n_eps)
            .map(|i| net.add_endpoint_auto(fabric[i % fabric.len()], cfg, CaptureSink::shared()))
            .collect();
        let initial: Vec<u64> = eps.iter().map(|&e| net.endpoint_tx_available(e)).collect();

        let mut held: Vec<VcHandle> = Vec::new();
        let mut dead: Vec<SwitchId> = Vec::new();
        for _ in 0..rng.gen_range(10..40u32) {
            match rng.gen_range(0..11u32) {
                // Open a circuit between random endpoints.
                0..=4 => {
                    let a = eps[rng.gen_range(0..eps.len())];
                    let b = eps[rng.gen_range(0..eps.len())];
                    let qos = if rng.gen_range(0..4u32) == 0 {
                        QosSpec::best_effort(1_000_000)
                    } else {
                        QosSpec::guaranteed(rng.gen_range(1..40u64) * 1_000_000)
                    };
                    match net.open_vc(a, b, qos) {
                        Ok(vc) => {
                            stats.opened += 1;
                            held.push(vc);
                        }
                        Err(_) => stats.refused += 1,
                    }
                }
                // Close a random held circuit.
                5..=6 => {
                    if !held.is_empty() {
                        let i = rng.gen_range(0..held.len());
                        let vc = held.swap_remove(i);
                        net.close_vc(vc);
                    }
                }
                // A flow set as one call setup, between any attached
                // ends and ends not attached yet — the first flow calls
                // the first of those, if any — decided before any of them
                // is. A refusal leaves no trace; an admission attaches
                // exactly the pending ends, with the ids the flows named
                // them by, and opens the whole set.
                7..=8 => {
                    let attached = net.endpoint_count();
                    let pending: Vec<PendingEnd> = (0..rng.gen_range(0..4usize))
                        .map(|_| (fabric[rng.gen_range(0..fabric.len())], cfg))
                        .collect();
                    let ends = attached + pending.len();
                    let mut flows: Vec<_> = (0..rng.gen_range(1..4usize))
                        .map(|_| {
                            let a = EndpointId(rng.gen_range(0..ends));
                            let b = EndpointId(rng.gen_range(0..ends));
                            (
                                a,
                                b,
                                QosSpec::guaranteed(rng.gen_range(1..100u64) * 1_000_000),
                            )
                        })
                        .collect();
                    if !pending.is_empty() {
                        flows[0].1 = EndpointId(attached);
                    }
                    let before = observe(&net, &fabric);
                    match net.check_vcs(&pending, &flows) {
                        Err(_) => {
                            stats.refused += 1;
                            stats.pending_refused += u64::from(!pending.is_empty());
                            repro.check(
                                observe(&net, &fabric) == before,
                                "a refused flow set left the network changed",
                            );
                        }
                        Ok(plan) => {
                            let sinks =
                                pending.iter().map(|_| CaptureSink::shared() as _).collect();
                            let vcs = net.commit_vcs(plan, sinks);
                            repro.check(
                                net.endpoint_count() == attached + pending.len()
                                    && (0..pending.len()).all(|k| {
                                        net.endpoint_switch(EndpointId(attached + k))
                                            == pending[k].0
                                    })
                                    && vcs.len() == flows.len(),
                                "a commit attached other ends than the check placed",
                            );
                            stats.opened += vcs.len() as u64;
                            stats.pending_attached += pending.len() as u64;
                            held.extend(vcs);
                        }
                    }
                }
                // Kill a switch and repair the survivors via signalling.
                _ => {
                    if dead.len() + 1 >= fabric.len() {
                        continue; // leave at least one switch alive
                    }
                    let sw = fabric[rng.gen_range(0..fabric.len())];
                    if net.switch_is_dead(sw) {
                        continue;
                    }
                    net.fail_switch(sw);
                    dead.push(sw);
                    let walk = std::mem::take(&mut held);
                    for vc in walk {
                        if !vc.crosses_switch(sw) {
                            held.push(vc);
                            continue;
                        }
                        let (src_vci, dst_vci) = (vc.src_vci, vc.dst_vci);
                        match net.reroute_vc(vc) {
                            Ok(repaired) => {
                                repro.check(
                                    repaired.src_vci == src_vci && repaired.dst_vci == dst_vci,
                                    "re-route failed to pin the endpoint VCIs",
                                );
                                repro.check(
                                    !repaired.crosses_switch(sw),
                                    "re-route routed through the dead switch",
                                );
                                stats.rerouted += 1;
                                held.push(repaired);
                            }
                            Err(_) => stats.stranded += 1,
                        }
                    }
                }
            }
            repro.check(
                net.max_reservation_utilization() <= RESERVABLE_FRACTION + 1e-9,
                "admission let a ledger exceed the reservable fraction",
            );
            repro.check(
                net.audit_reservations().is_ok(),
                "a signalling step left the ledgers out of step with the links",
            );
        }

        // A dead switch admits nothing, even same-switch pairs.
        if let Some(&sw) = dead.first() {
            let on_dead: Vec<EndpointId> = eps
                .iter()
                .copied()
                .filter(|&e| net.endpoint_switch(e) == sw)
                .collect();
            for &e in &on_dead {
                repro.check(
                    net.open_vc(e, eps[0], QosSpec::best_effort(0)).is_err(),
                    "a dead switch admitted a new circuit",
                );
            }
        }

        // Tear everything down: every ledger must return to its initial
        // headroom — the leak check.
        for vc in held.drain(..) {
            net.close_vc(vc);
        }
        for (i, &e) in eps.iter().enumerate() {
            repro.check(
                net.endpoint_tx_available(e) == initial[i],
                "closing every circuit did not restore an endpoint ledger",
            );
        }
        repro.check(
            net.max_reservation_utilization() < 1e-12,
            "reservations leaked after closing every circuit",
        );
        repro.check(
            net.audit_reservations().is_ok(),
            "teardown left the remembered maximum out of step with the ledgers",
        );
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
    fn signalling_walk_holds_invariants() {
        let s = run_signalling(0xBEE, 40);
        assert_eq!(s.steps, 40);
        assert!(s.opened > 0, "the walk must open circuits");
        assert!(
            s.pending_refused > 0,
            "the walk must refuse calls to pending ends"
        );
        assert!(s.pending_attached > 0, "the walk must attach pending ends");
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
