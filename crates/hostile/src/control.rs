//! The control-plane front: random walks over the QoS feedback loop —
//! admit, congest, renegotiate down, recover, renegotiate up — with the
//! real broker, real credit windows and the real hysteresis controller,
//! checking the invariants that make overload *bounded and reversible*:
//!
//! * **Credit conservation.** Whatever mix of traffic, drops and
//!   renegotiation an epoch applies, every window still satisfies
//!   `consumed == in_flight + returned + reclaimed`.
//! * **Contract clamp.** A live session's quality never exceeds its
//!   originally admitted contract, and the CPU ledger tracks the sum of
//!   the granted vectors exactly after every verdict.
//! * **Monotone hysteresis.** `Down` fires only at the end of
//!   `down_after` consecutive pressured epochs, `Up` only after
//!   `up_after` consecutive clear ones, and the two strictly alternate
//!   — the controller can never flap.
//! * **Admission is a verdict.** Every `decide` returns one — also for
//!   endpoints on a switch that died before the walk — before the
//!   session's receiving end is attached. A refusal leaves the CPU,
//!   slot and bandwidth ledgers, the endpoints and the ports exactly as
//!   found; an admission attaches exactly that receiver, with the id
//!   the request named it by.
//! * **Ledger restoration.** Releasing every session at the end of the
//!   walk returns the CPU, slot and bandwidth ledgers to empty.
//!
//! Every step builds a fresh fabric and broker from `(seed, step)`
//! alone, so a failure replays in isolation from its printed triple.

use pegasus::broker::{FlowRequest, QosBroker, SessionClass, SessionGrant, SessionRequest};
use pegasus::congestion::{CongestionController, CongestionSignal, Verdict};
use pegasus_atm::credit::{CreditRef, CreditWindow};
use pegasus_atm::link::CaptureSink;
use pegasus_atm::network::{
    EndpointId, LedgerDrift, LinkConfig, Network, SwitchId, TopologyShape, RESERVABLE_FRACTION,
};
use pegasus_sim::rng::seeded;
use rand::Rng;

use crate::{Front, Repro};

/// Aggregate outcome of a control-front run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ControlStats {
    /// Walks completed.
    pub steps: u64,
    /// Sessions admitted across all walks.
    pub admitted: u64,
    /// Admission refusals (the broker said no; that is a valid verdict,
    /// not a failure).
    pub refused: u64,
    /// Down verdicts applied.
    pub downs: u64,
    /// Up verdicts applied.
    pub ups: u64,
    /// Credit stalls provoked.
    pub stalls: u64,
}

/// What a caller can see of a network's endpoints, ports and ledgers.
fn observe(
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

/// Fills a window with single-cell acquires until it stalls, then adds
/// `extra` more failed attempts: deterministic pressure with at least
/// one stall per call.
fn pressure_window(w: &CreditRef, extra: u64) {
    let mut w = w.borrow_mut();
    while w.try_acquire(1) {}
    let over = w.window() + 1;
    for _ in 0..extra {
        let refused = !w.try_acquire(over);
        debug_assert!(refused, "an over-window acquire can never succeed");
    }
}

/// Random-walks the admit → congest → down → recover → up loop.
pub fn run_control(seed: u64, steps: u64) -> ControlStats {
    let mut stats = ControlStats::default();
    for step in 0..steps {
        let repro = Repro {
            seed,
            front: Front::Control,
            step,
        };
        let mut rng = seeded(repro.step_seed() ^ 0x0C04_7201);

        // A fresh fabric and broker per step.
        let shape = [
            TopologyShape::Star,
            TopologyShape::Ring,
            TopologyShape::FullMesh,
        ][rng.gen_range(0..3usize)];
        let n_switches = rng.gen_range(2..5usize);
        let cfg = LinkConfig::pegasus_default();
        let mut net = Network::new();
        let fabric = net.build_topology(shape, n_switches, "ctl", 6, 0, cfg);
        let eps: Vec<EndpointId> = (0..rng.gen_range(4..8usize))
            .map(|i| net.add_endpoint_auto(fabric[i % fabric.len()], cfg, CaptureSink::shared()))
            .collect();
        let rung = [500u64, 600, 700, 800][rng.gen_range(0..4usize)];
        let mut broker = QosBroker::new(
            rng.gen_range(5_000..20_000u64),
            1,
            rng.gen_range(1..4usize),
            rung,
        );
        // One walk in three loses a switch before anyone asks: sessions
        // with an endpoint on the corpse — same-switch pairs, which
        // need no hop, included — must be refused, not panic.
        if rng.gen_range(0..3u32) == 0 {
            net.fail_switch(fabric[rng.gen_range(0..fabric.len())]);
        }

        // Admit a handful of sessions, each with its own credit window.
        // Every decision is a verdict, and a refusal charges nothing.
        let ledgers = |broker: &QosBroker, net: &Network| {
            let cpu = (broker.cpu.reserved_micro(), broker.pfs_headroom_slots());
            (cpu, observe(net, &fabric))
        };
        let mut live: Vec<(SessionGrant, CreditRef)> = Vec::new();
        for _ in 0..rng.gen_range(2..6u32) {
            // As a scenario does: the session's receiving end is named by
            // the id it will get, and attached only if admitted.
            let receiver = EndpointId(net.endpoint_count());
            let pending = [(fabric[rng.gen_range(0..fabric.len())], cfg)];
            let mut flows: Vec<FlowRequest> = (0..rng.gen_range(1..3usize))
                .map(|_| FlowRequest {
                    src: eps[rng.gen_range(0..eps.len())],
                    dst: eps[rng.gen_range(0..eps.len())],
                    bps: rng.gen_range(1..20u64) * 1_000_000,
                })
                .collect();
            flows[0].dst = receiver;
            let req = SessionRequest {
                class: SessionClass::Videophone,
                media_flows: flows,
                fixed_flows: Vec::new(),
                cpu_micro: rng.gen_range(100..2_000u64),
                pfs_server: (rng.gen_range(0..3u32) == 0).then_some(0),
            };
            let before = ledgers(&broker, &net);
            let verdict = broker.decide(&net, &req, &pending);
            let grant = broker.commit(&mut net, &req, verdict, vec![CaptureSink::shared()]);
            if grant.is_admitted() {
                stats.admitted += 1;
                repro.check(
                    net.endpoint_count() == receiver.0 + 1
                        && net.endpoint_switch(receiver) == pending[0].0,
                    "an admission attached other than its pending receiver",
                );
                let w = CreditWindow::shared(rng.gen_range(8..64u64));
                live.push((grant, w));
            } else {
                stats.refused += 1;
                repro.check(
                    ledgers(&broker, &net) == before,
                    "a refused session left a ledger charged or an end attached",
                );
            }
            repro.check(
                net.audit_reservations().is_ok(),
                "admit left the remembered maximum out of step with the ledgers",
            );
        }

        let ledger_ok = |broker: &QosBroker, live: &[(SessionGrant, CreditRef)]| {
            let sum: u64 = live.iter().map(|(g, _)| g.granted.cpu_micro).sum();
            broker.cpu.reserved_micro() == sum
        };
        repro.check(
            ledger_ok(&broker, &live),
            "CPU ledger disagrees with the granted contracts after admission",
        );

        let mut ctrl = CongestionController::new(
            rng.gen_range(1..4u32),
            rng.gen_range(1..4u32),
            rng.gen_range(1..6u64),
            rng.gen_range(16..128u64),
        );
        let headroom = ctrl.headroom_cells;

        // The walk: each epoch is pressured or calm, the controller
        // watches the real stall counters, verdicts drive the real
        // renegotiation path.
        let mut last_shift = None::<Verdict>;
        let mut clear_streak = 0u32;
        let mut pressured_streak = 0u32;
        for epoch in 0..rng.gen_range(10..40u64) {
            let pressured = rng.gen_range(0..2u32) == 0;
            let mut sig = CongestionSignal::default();
            if pressured {
                for (_, w) in &live {
                    pressure_window(w, rng.gen_range(1..4u64));
                }
                sig.peak_queue_cells = rng.gen_range(0..4 * headroom.max(1));
                sig.cm_slot_pressure = rng.gen_range(0..8u32) == 0;
            } else {
                sig.peak_queue_cells = rng.gen_range(0..=headroom);
            }
            // Traffic settles: some in-flight cells deliver, a few drop
            // in an outage and their credits come back via reclaim.
            for (_, w) in &live {
                let mut w = w.borrow_mut();
                let delivered = rng.gen_range(0..=w.in_flight());
                w.release(delivered);
                let dropped = rng.gen_range(0..=w.in_flight());
                w.reclaim(dropped);
            }
            for (_, w) in &live {
                sig.credit_stalls += w.borrow_mut().take_epoch_stalls();
            }
            stats.stalls += sig.credit_stalls;

            // Book-keep the streaks the controller is supposed to obey.
            let counts_pressured = sig.credit_stalls >= ctrl.stall_threshold
                || (sig.cm_slot_pressure && sig.credit_stalls > 0);
            let counts_clear =
                sig.credit_stalls == 0 && sig.peak_queue_cells <= ctrl.headroom_cells;
            pressured_streak = if counts_pressured {
                pressured_streak + 1
            } else {
                0
            };
            clear_streak = if counts_clear { clear_streak + 1 } else { 0 };

            let verdict = ctrl.observe(&sig);
            match verdict {
                Verdict::Down => {
                    repro.check(
                        pressured_streak >= ctrl.down_after,
                        "Down before down_after consecutive pressured epochs",
                    );
                    repro.check(
                        last_shift != Some(Verdict::Down),
                        "two Downs without an intervening Up",
                    );
                    last_shift = Some(Verdict::Down);
                    stats.downs += 1;
                    for (g, _) in &mut live {
                        let target = (g.quality_milli * rung / 1000).max(1);
                        broker
                            .renegotiate_live(&mut net, g, target, epoch)
                            .expect("a downward move always fits");
                    }
                }
                Verdict::Up => {
                    repro.check(
                        clear_streak >= ctrl.up_after,
                        "Up before up_after consecutive clear epochs",
                    );
                    repro.check(
                        last_shift == Some(Verdict::Down),
                        "Up without a preceding Down",
                    );
                    last_shift = Some(Verdict::Up);
                    stats.ups += 1;
                    for (g, _) in &mut live {
                        let restored = broker
                            .renegotiate_live(&mut net, g, g.admitted_milli, epoch)
                            .is_ok();
                        repro.check(restored, "restoring to admitted failed with free capacity");
                    }
                }
                Verdict::Hold => {}
            }

            for (g, w) in &live {
                repro.check(
                    g.quality_milli <= g.admitted_milli,
                    "live quality above the admitted contract",
                );
                repro.check(
                    w.borrow().conserved(),
                    "credit conservation broken by the epoch's traffic",
                );
            }
            repro.check(
                ledger_ok(&broker, &live),
                "CPU ledger drifted from the granted contracts",
            );
            repro.check(
                net.max_reservation_utilization() <= RESERVABLE_FRACTION + 1e-9,
                "renegotiation pushed a link past the reservable fraction",
            );
            repro.check(
                net.audit_reservations().is_ok(),
                "renegotiation left the remembered maximum out of step with the ledgers",
            );
        }

        // Tear down: every ledger must return to empty.
        for (g, _) in live.drain(..) {
            broker.release(&mut net, g);
        }
        repro.check(
            broker.cpu.reserved_micro() == 0 && broker.pfs[0].used() == 0,
            "CPU or slot ledger not restored after releasing every session",
        );
        repro.check(
            net.max_reservation_utilization() < 1e-12,
            "bandwidth reservations leaked after releasing every session",
        );
        repro.check(
            net.audit_reservations().is_ok(),
            "release left the remembered maximum out of step with the ledgers",
        );
        stats.steps += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_walk_holds_invariants() {
        let s = run_control(0xC0B, 40);
        assert_eq!(s.steps, 40);
        assert!(s.admitted > 0, "the walk must admit sessions");
        assert!(s.stalls > 0, "pressured epochs must provoke stalls");
        assert!(s.downs > 0, "sustained pressure must degrade someone");
        assert!(s.ups > 0, "sustained clearance must restore someone");
    }

    #[test]
    fn control_walk_is_deterministic_in_seed() {
        let a = run_control(11, 20);
        let b = run_control(11, 20);
        assert_eq!(
            (a.admitted, a.refused, a.downs, a.ups, a.stalls),
            (b.admitted, b.refused, b.downs, b.ups, b.stalls)
        );
    }
}
