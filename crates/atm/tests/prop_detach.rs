//! Property test for giving endpoints back.
//!
//! [`Network::detach_endpoints_from`] promises that the network looks
//! as if the detached endpoints had never been attached. Two networks
//! take the same random walk of attaches, opens (guaranteed, best
//! effort, refused) and closes; then one of them takes a mark and walks
//! on — more endpoints, circuits to and from them and to the old ones,
//! refusals, closes — closes every circuit of its own and detaches back
//! to the mark. Its twin never saw any of it. Both must then agree on
//! everything the network lets a caller observe of its endpoints and
//! ports: the endpoint count, every switch's port count, the id and
//! port the next attachment on each switch gets, the fullest link, and
//! a clean audit. Every device sink the detached endpoints fed must be
//! freed, and a detach tried while one of their circuits is open must
//! be refused without detaching anything.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use proptest::prelude::*;

use pegasus_atm::link::CaptureSink;
use pegasus_atm::network::{
    DetachError, EndpointId, LinkConfig, Network, SwitchId, TopologyShape, VcHandle,
};
use pegasus_atm::signalling::QosSpec;

const MBIT: u64 = 1_000_000;

fn pick<T: Copy>(items: &[T], i: u64) -> T {
    items[i as usize % items.len()]
}

/// One walk step: `(kind, a, b, mbit)`.
type Op = (u8, u64, u64, u64);

/// Applies one step; returns the sink of an endpoint it attached.
fn step(
    net: &mut Network,
    fabric: &[SwitchId],
    eps: &mut Vec<EndpointId>,
    held: &mut Vec<VcHandle>,
    (kind, a, b, mbit): Op,
) -> Option<Rc<RefCell<CaptureSink>>> {
    let cfg = LinkConfig::pegasus_default();
    match kind {
        0..=2 => {
            let sink = CaptureSink::shared();
            eps.push(net.add_endpoint_auto(pick(fabric, a), cfg, sink.clone()));
            return Some(sink);
        }
        3..=6 if !eps.is_empty() => {
            let qos = if kind == 6 {
                QosSpec::best_effort(0)
            } else {
                QosSpec::guaranteed(mbit * MBIT)
            };
            if let Ok(vc) = net.open_vc(pick(eps, a), pick(eps, b), qos) {
                held.push(vc);
            }
        }
        7 if !held.is_empty() => {
            let vc = held.swap_remove(a as usize % held.len());
            net.close_vc(vc);
        }
        _ => {}
    }
    None
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, any::<u64>(), any::<u64>(), 1u64..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_detached_walk_leaves_the_network_as_its_twin(
        shape in 0u8..3,
        switches in 1usize..5,
        built_ports in 1usize..6,
        before in prop::collection::vec(op(), 0..40),
        after in prop::collection::vec(op(), 1..40),
    ) {
        let cfg = LinkConfig::pegasus_default();
        let shape = [TopologyShape::Star, TopologyShape::Ring, TopologyShape::FullMesh][shape as usize];
        let build = || {
            let mut net = Network::new();
            let fabric = net.build_topology(shape, switches, "f", built_ports, 0, cfg);
            (net, fabric)
        };
        let (mut net, fabric) = build();
        let (mut twin, _) = build();
        let (mut eps, mut held) = (Vec::new(), Vec::new());
        let (mut twin_eps, mut twin_held) = (Vec::new(), Vec::new());
        for &o in &before {
            step(&mut net, &fabric, &mut eps, &mut held, o);
            step(&mut twin, &fabric, &mut twin_eps, &mut twin_held, o);
        }

        let mark = net.endpoint_mark();
        let (old_eps, old_held) = (eps.len(), held.len());
        let mut sinks: Vec<Weak<RefCell<CaptureSink>>> = Vec::new();
        for &o in &after {
            // The walk on from the mark closes only its own circuits.
            if o.0 == 7 {
                if held.len() > old_held {
                    let i = old_held + o.1 as usize % (held.len() - old_held);
                    net.close_vc(held.swap_remove(i));
                }
                continue;
            }
            if let Some(sink) = step(&mut net, &fabric, &mut eps, &mut held, o) {
                sinks.push(Rc::downgrade(&sink));
            }
        }
        let new_eps = &eps[old_eps..];
        let busy = held[old_held..]
            .iter()
            .any(|vc| new_eps.contains(&vc.src) || new_eps.contains(&vc.dst));
        if busy {
            let count = net.endpoint_count();
            prop_assert!(matches!(net.detach_endpoints_from(mark), Err(DetachError::InUse(_))));
            prop_assert_eq!(net.endpoint_count(), count);
        }
        for vc in held.drain(old_held..) {
            net.close_vc(vc);
        }
        prop_assert_eq!(net.detach_endpoints_from(mark), Ok(()));
        prop_assert!(sinks.iter().all(|s| s.upgrade().is_none()), "a detached sink outlived its line");

        let observe = |net: &Network| {
            let ports: Vec<usize> = fabric.iter().map(|&sw| net.switch(sw).borrow().ports()).collect();
            (net.endpoint_count(), ports, net.max_reservation_utilization().to_bits(), net.audit_reservations())
        };
        prop_assert_eq!(observe(&net), observe(&twin));
        prop_assert_eq!(net.audit_reservations(), Ok(()));
        for &sw in &fabric {
            let next = net.add_endpoint_auto(sw, cfg, CaptureSink::shared());
            let twin_next = twin.add_endpoint_auto(sw, cfg, CaptureSink::shared());
            prop_assert_eq!(next, twin_next);
            prop_assert_eq!(net.endpoint_port(next), twin.endpoint_port(twin_next));
        }
        prop_assert_eq!(observe(&net), observe(&twin));
    }
}
