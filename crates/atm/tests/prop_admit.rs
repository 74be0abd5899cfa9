//! Property tests for deciding a call before attaching its ends.
//!
//! [`Network::check_vcs`] decides a flow set whose ends may not be
//! attached yet and changes nothing; [`Network::commit_vcs`] then
//! attaches those pending ends and opens the set. Two networks take the
//! same random walk of attaches, opens, closes and switch deaths.
//!
//! (a) Any check one of them makes — attached and pending ends mixed,
//! ends on dead switches, unknown ids, joint sets, best-effort flows —
//! leaves it observably equal to the twin that never asked: endpoint
//! count, every switch's port count, the fullest link to the bit, a
//! clean audit, and the id and port the next attachment on each switch
//! gets.
//!
//! (b) A check decides as the twin does by attaching the same ends
//! first and then checking and committing the set with no pending end:
//! both admit, or both refuse for the same reason. An admitted check
//! committed with its pending ends equals the twin in endpoint ids and
//! ports, VCIs, connection ids, every endpoint's transmit headroom, the
//! fullest link and the audit. That is why a scenario's report cannot
//! tell the two orders apart.

use proptest::prelude::*;

use pegasus_atm::cell::Vci;
use pegasus_atm::link::CaptureSink;
use pegasus_atm::network::{
    EndpointId, LedgerDrift, LinkConfig, Network, PendingEnd, SwitchId, TopologyShape, VcHandle,
};
use pegasus_atm::signalling::QosSpec;

const MBIT: u64 = 1_000_000;

fn pick<T: Copy>(items: &[T], i: u64) -> T {
    items[i as usize % items.len()]
}

/// One walk step: `(kind, a, b, mbit)`.
type Op = (u8, u64, u64, u64);

/// A flow set over ends still to be placed: a switch pick per pending
/// end, and per flow `(src pick, dst pick, mbit, best effort)`.
type Set = (Vec<u64>, Vec<(u64, u64, u64, bool)>);

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, any::<u64>(), any::<u64>(), 1u64..96)
}

fn set() -> impl Strategy<Value = Set> {
    (
        prop::collection::vec(any::<u64>(), 0..4),
        prop::collection::vec((any::<u64>(), any::<u64>(), 1u64..96, any::<bool>()), 1..4),
    )
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

/// What a caller can see of an open circuit.
fn handle(vc: &VcHandle) -> (u64, EndpointId, EndpointId, QosSpec, Vec<Vci>) {
    (vc.id, vc.src, vc.dst, vc.qos, vc.vcis().collect())
}

/// A network and its twin, walked in step.
struct Twins {
    net: Network,
    twin: Network,
    fabric: Vec<SwitchId>,
    eps: Vec<EndpointId>,
    held: Vec<(VcHandle, VcHandle)>,
}

impl Twins {
    fn new(shape: u8, switches: usize) -> Twins {
        let cfg = LinkConfig::pegasus_default();
        let shape = [
            TopologyShape::Star,
            TopologyShape::Ring,
            TopologyShape::FullMesh,
        ][shape as usize];
        let build = || {
            let mut net = Network::new();
            let fabric = net.build_topology(shape, switches, "f", 2, 0, cfg);
            (net, fabric)
        };
        let ((net, fabric), (twin, _)) = (build(), build());
        let mut t = Twins {
            net,
            twin,
            fabric,
            eps: Vec::new(),
            held: Vec::new(),
        };
        for i in 0..switches {
            t.step((0, i as u64, 0, 0));
        }
        t
    }

    /// Applies one walk step to both networks.
    fn step(&mut self, (kind, a, b, mbit): Op) {
        let cfg = LinkConfig::pegasus_default();
        match kind {
            0..=1 => {
                let sw = pick(&self.fabric, a);
                let ep = self.net.add_endpoint_auto(sw, cfg, CaptureSink::shared());
                self.twin.add_endpoint_auto(sw, cfg, CaptureSink::shared());
                self.eps.push(ep);
            }
            2..=4 => {
                let qos = if kind == 4 {
                    QosSpec::best_effort(0)
                } else {
                    QosSpec::guaranteed(mbit * MBIT)
                };
                let (x, y) = (pick(&self.eps, a), pick(&self.eps, b));
                if let (Ok(v), Ok(w)) = (self.net.open_vc(x, y, qos), self.twin.open_vc(x, y, qos))
                {
                    self.held.push((v, w));
                }
            }
            5..=6 if !self.held.is_empty() => {
                let (v, w) = self.held.swap_remove(a as usize % self.held.len());
                self.net.close_vc(v);
                self.twin.close_vc(w);
            }
            7 => {
                let sw = pick(&self.fabric, a);
                let alive = self
                    .fabric
                    .iter()
                    .filter(|&&s| !self.net.switch_is_dead(s))
                    .count();
                if alive > 1 && !self.net.switch_is_dead(sw) {
                    self.net.fail_switch(sw);
                    self.twin.fail_switch(sw);
                    for (v, w) in std::mem::take(&mut self.held) {
                        if !v.crosses_switch(sw) {
                            self.held.push((v, w));
                        } else if let (Ok(v), Ok(w)) =
                            (self.net.reroute_vc(v), self.twin.reroute_vc(w))
                        {
                            self.held.push((v, w));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Places a [`Set`] on the network: its pending ends (dead switches
    /// included) and its flows, whose ends are attached endpoints,
    /// pending ones by the ids they will get, and — when `unknown` —
    /// the first id past both.
    fn place(
        &self,
        (ends, flows): &Set,
        unknown: bool,
    ) -> (Vec<PendingEnd>, Vec<(EndpointId, EndpointId, QosSpec)>) {
        let cfg = LinkConfig::pegasus_default();
        let pending: Vec<PendingEnd> = ends.iter().map(|&e| (pick(&self.fabric, e), cfg)).collect();
        let ids = self.net.endpoint_count() + pending.len() + usize::from(unknown);
        let end = |i: u64| EndpointId(i as usize % ids);
        let flows = flows
            .iter()
            .map(|&(s, d, mbit, be)| {
                let qos = if be {
                    QosSpec::best_effort(0)
                } else {
                    QosSpec::guaranteed(mbit * MBIT)
                };
                (end(s), end(d), qos)
            })
            .collect();
        (pending, flows)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_refused_check_leaves_the_network_as_its_twin(
        shape in 0u8..3,
        switches in 1usize..5,
        walk in prop::collection::vec(op(), 0..40),
        sets in prop::collection::vec(set(), 1..8),
    ) {
        let mut t = Twins::new(shape, switches);
        for &o in &walk {
            t.step(o);
        }
        let cfg = LinkConfig::pegasus_default();
        for s in &sets {
            let (pending, flows) = t.place(s, true);
            let verdict = t.net.check_vcs(&pending, &flows);
            prop_assert_eq!(observe(&t.net, &t.fabric), observe(&t.twin, &t.fabric), "{:?}", verdict);
        }
        prop_assert_eq!(t.net.audit_reservations(), Ok(()));
        for &sw in &t.fabric {
            let next = t.net.add_endpoint_auto(sw, cfg, CaptureSink::shared());
            let twin_next = t.twin.add_endpoint_auto(sw, cfg, CaptureSink::shared());
            prop_assert_eq!(next, twin_next);
            prop_assert_eq!(t.net.endpoint_port(next), t.twin.endpoint_port(twin_next));
        }
        prop_assert_eq!(observe(&t.net, &t.fabric), observe(&t.twin, &t.fabric));
    }

    #[test]
    fn an_admitted_commit_equals_attaching_first(
        shape in 0u8..3,
        switches in 1usize..5,
        walk in prop::collection::vec((op(), any::<bool>(), set()), 1..40),
    ) {
        let mut t = Twins::new(shape, switches);
        for (o, ask, s) in &walk {
            t.step(*o);
            if !ask {
                continue;
            }
            let (pending, flows) = t.place(s, false);
            let first = t.net.endpoint_count();
            let verdict = t.net.check_vcs(&pending, &flows);
            for &(sw, cfg) in &pending {
                t.twin.add_endpoint_auto(sw, cfg, CaptureSink::shared());
            }
            let twin = t.twin.check_vcs(&[], &flows);
            let twin = twin.map(|plan| t.twin.commit_vcs(plan, Vec::new()));
            let vcs = match (verdict, twin) {
                (Ok(plan), Ok(twin_vcs)) => {
                    let sinks = pending.iter().map(|_| CaptureSink::shared() as _).collect();
                    let vcs = t.net.commit_vcs(plan, sinks);
                    prop_assert_eq!(vcs.iter().map(handle).collect::<Vec<_>>(), twin_vcs.iter().map(handle).collect::<Vec<_>>());
                    vcs.into_iter().zip(twin_vcs).collect()
                }
                // Refused alike, for the same reason; the ends are then
                // attached bare, to keep the two in step.
                (Err(e), Err(twin_e)) => {
                    prop_assert_eq!(e, twin_e);
                    for &(sw, cfg) in &pending {
                        t.net.add_endpoint_auto(sw, cfg, CaptureSink::shared());
                    }
                    Vec::new()
                }
                (verdict, twin) => {
                    prop_assert!(false, "check {:?} but attaching first {:?}", verdict.err(), twin.err());
                    Vec::new()
                }
            };
            let n = t.net.endpoint_count();
            prop_assert_eq!(n, first + pending.len());
            for ep in (0..n).map(EndpointId) {
                prop_assert_eq!(t.net.endpoint_port(ep), t.twin.endpoint_port(ep));
                prop_assert_eq!(t.net.endpoint_tx_available(ep), t.twin.endpoint_tx_available(ep));
            }
            prop_assert_eq!(observe(&t.net, &t.fabric), observe(&t.twin, &t.fabric));
            t.eps.extend((first..n).map(EndpointId));
            t.held.extend(vcs);
        }
        for (v, w) in t.held.drain(..) {
            t.net.close_vc(v);
            t.twin.close_vc(w);
        }
        prop_assert_eq!(t.net.max_reservation_utilization().to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(observe(&t.net, &t.fabric), observe(&t.twin, &t.fabric));
    }
}
