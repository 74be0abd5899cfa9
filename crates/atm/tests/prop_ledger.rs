//! Property test for the network's bandwidth ledger.
//!
//! [`Network::max_reservation_utilization`] answers from a maximum the
//! network carries along with every reservation; its definition is
//! still a fold over every link. A random walk over everything that
//! touches a reservation — attach, open (guaranteed and best-effort,
//! including opens refused on the last hop after the earlier hops were
//! reserved), resize up and down (including resizes refused and
//! restored), close, multi-flow sets opened or refused whole, switch
//! death with re-route — must leave
//! [`Network::audit_reservations`] `Ok` after every step, and closing
//! everything must bring the figure back to exactly `0.0`.

use proptest::prelude::*;

use pegasus_atm::link::CaptureSink;
use pegasus_atm::network::{EndpointId, LinkConfig, Network, SwitchId, TopologyShape, VcHandle};
use pegasus_atm::signalling::QosSpec;

const MBIT: u64 = 1_000_000;

fn pick<T: Copy>(items: &[T], i: u64) -> T {
    items[i as usize % items.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn running_maximum_equals_the_fold_after_every_step(
        shape in 0u8..3,
        switches in 2usize..6,
        ops in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>(), 1u64..96), 1..120),
    ) {
        let cfg = LinkConfig::pegasus_default();
        let shape = [TopologyShape::Star, TopologyShape::Ring, TopologyShape::FullMesh][shape as usize];
        let mut net = Network::new();
        let fabric: Vec<SwitchId> = net.build_topology(shape, switches, "f", 4, 0, cfg);
        // Few endpoints, rates up to the reservable 95 Mbit/s: delivery
        // links fill quickly, so opens and resizes are refused often —
        // and refused late, after the transmit link and trunks took the
        // reservation that the rollback then releases.
        let mut eps: Vec<EndpointId> = fabric
            .iter()
            .map(|&sw| net.add_endpoint_auto(sw, cfg, CaptureSink::shared()))
            .collect();
        let mut held: Vec<VcHandle> = Vec::new();
        let mut dead = 0;

        for (kind, a, b, mbit) in ops {
            match kind {
                0 => eps.push(net.add_endpoint_auto(pick(&fabric, a), cfg, CaptureSink::shared())),
                1..=4 => {
                    let qos = if kind == 4 {
                        QosSpec::best_effort(mbit * MBIT)
                    } else {
                        QosSpec::guaranteed(mbit * MBIT)
                    };
                    if let Ok(vc) = net.open_vc(pick(&eps, a), pick(&eps, b), qos) {
                        held.push(vc);
                    }
                }
                5..=6 if !held.is_empty() => {
                    let i = a as usize % held.len();
                    let before = held[i].qos.peak_bps;
                    if net.resize_vc(&mut held[i], mbit * MBIT).is_err() {
                        prop_assert_eq!(held[i].qos.peak_bps, before);
                    }
                }
                7..=8 if !held.is_empty() => {
                    let vc = held.swap_remove(a as usize % held.len());
                    net.close_vc(vc);
                }
                // A three-flow set, opened whole or refused whole: the
                // first two flows share every link in one direction,
                // so the second is often what a set is refused on —
                // after the first was reserved in full.
                9 => {
                    let before = net.max_reservation_utilization();
                    let qos = QosSpec::guaranteed(mbit * MBIT);
                    let (x, y) = (pick(&eps, a), pick(&eps, b));
                    match net.open_vcs(&[(x, y, qos), (x, y, qos), (y, x, qos)]) {
                        Ok(vcs) => held.extend(vcs),
                        Err(_) => {
                            prop_assert_eq!(net.audit_reservations(), Ok(()));
                            let after = net.max_reservation_utilization();
                            prop_assert_eq!(after.to_bits(), before.to_bits());
                        }
                    }
                }
                10 if dead + 2 < fabric.len() => {
                    let sw = pick(&fabric, a);
                    if !net.switch_is_dead(sw) {
                        net.fail_switch(sw);
                        dead += 1;
                        for vc in std::mem::take(&mut held) {
                            if !vc.crosses_switch(sw) {
                                held.push(vc);
                            } else if let Ok(repaired) = net.reroute_vc(vc) {
                                held.push(repaired);
                            }
                        }
                    }
                }
                _ => {}
            }
            // Audit first: it must hold whether or not a query has
            // refreshed the remembered value since the last release.
            prop_assert_eq!(net.audit_reservations(), Ok(()));
            let u = net.max_reservation_utilization();
            prop_assert!(u <= net.reservable_fraction, "utilization {u} past the reservable fraction");
            prop_assert_eq!(net.audit_reservations(), Ok(()));
        }

        for vc in held {
            net.close_vc(vc);
            prop_assert_eq!(net.audit_reservations(), Ok(()));
        }
        prop_assert_eq!(net.max_reservation_utilization().to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(net.audit_reservations(), Ok(()));
    }
}
