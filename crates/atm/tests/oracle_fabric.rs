//! The oracle fabric: the slow, obviously right data path, kept as a
//! test.
//!
//! [`Oracle`] is the cell path with nothing clever in it: no trains, no
//! arena, no fused events. Every cell costs one engine event per link
//! (scheduled with `schedule_at_on` when the line accepts it) *and* one
//! per fabric crossing (scheduled when the cell reaches the input
//! port). It models exactly five things: serialisation behind a busy
//! line, propagation, a fixed fabric latency per switch, FIFO output
//! ports with a depth bound, and drops for want of a route.
//!
//! The property: on random small cities the product [`Network`] hands
//! every endpoint the same `(vci, seq, time)` list in the same order,
//! and every switch counts the same drops by cause. That is what lets
//! the product change how many events a cell costs without anyone
//! arguing from a hash — a golden is a state that was once checked, the
//! oracle is the protocol.
//!
//! Not modelled yet: credit windows. They stay `prop_credit.rs`'s for
//! now; adding them here is ROADMAP item 2's remainder.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use pegasus_atm::cell::{Cell, Vci, CELL_SIZE};
use pegasus_atm::link::{CellSink, SinkRef};
use pegasus_atm::network::{LinkConfig, Network, SwitchId};
use pegasus_atm::signalling::QosSpec;
use pegasus_sim::time::{tx_time, Ns};
use pegasus_sim::{Lane, Simulator};

/// What a cell is to the oracle: its label and its sender's count.
type Tag = (Vci, u32);
/// `(vci, seq, arrival)` in delivery order at one endpoint.
type Arrivals = Vec<(Vci, u32, Ns)>;

#[derive(Clone, Copy)]
enum Dest {
    /// Input `port` of switch `sw`.
    Port(usize, usize),
    /// The receive side of an endpoint.
    Sink(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum LineId {
    /// An endpoint's transmit line.
    Tx(usize),
    /// The line behind output `port` of switch `sw`.
    Out(usize, usize),
}

struct Line {
    cell_time: Ns,
    prop: Ns,
    lane: Lane,
    next_free: Ns,
    dest: Dest,
}

#[derive(Default)]
struct Oracle {
    lines: HashMap<LineId, Line>,
    /// Per switch.
    fabric_latency: Vec<Ns>,
    queue_capacity: u64,
    /// `(switch, in port, in vci)` → `(out port, out vci)`.
    routes: HashMap<(usize, usize, Vci), (usize, Vci)>,
    seen: Outcome,
}

/// What both models must agree on.
#[derive(Debug, Default, Clone, PartialEq)]
struct Outcome {
    /// Per endpoint.
    got: Vec<Arrivals>,
    /// Per switch.
    unroutable: Vec<u64>,
    overflowed: Vec<u64>,
}

type OracleRef = Rc<RefCell<Oracle>>;

impl Oracle {
    fn wire(&mut self, id: LineId, (rate, prop): (u64, Ns), lane: Lane, dest: Dest) {
        let line = Line {
            cell_time: tx_time(CELL_SIZE, rate),
            prop,
            lane,
            next_free: 0,
            dest,
        };
        self.lines.insert(id, line);
    }
}

/// The line takes the cell: it waits its turn, serialises, propagates.
fn transmit(o: &OracleRef, sim: &mut Simulator, id: LineId, cell: Tag) {
    let (lane, arrival, dest) = {
        let mut o = o.borrow_mut();
        let line = o.lines.get_mut(&id).expect("wired line");
        let done = line.next_free.max(sim.now()) + line.cell_time;
        line.next_free = done;
        (line.lane, done + line.prop, line.dest)
    };
    let o = o.clone();
    sim.schedule_at_on(lane, arrival, move |sim| match dest {
        Dest::Sink(ep) => o.borrow_mut().seen.got[ep].push((cell.0, cell.1, sim.now())),
        Dest::Port(sw, port) => {
            let latency = o.borrow().fabric_latency[sw];
            if latency == 0 {
                return forward(&o, sim, sw, port, cell);
            }
            let o = o.clone();
            sim.schedule_at(sim.now() + latency, move |sim| {
                forward(&o, sim, sw, port, cell)
            });
        }
    });
}

/// The cell has crossed the fabric: look the route up and queue on the
/// output line, now.
fn forward(o: &OracleRef, sim: &mut Simulator, sw: usize, port: usize, cell: Tag) {
    let out = {
        let mut o = o.borrow_mut();
        let Some(&(out_port, out_vci)) = o.routes.get(&(sw, port, cell.0)) else {
            o.seen.unroutable[sw] += 1;
            return;
        };
        let line = &o.lines[&LineId::Out(sw, out_port)];
        let waiting = line.next_free.saturating_sub(sim.now()) / line.cell_time;
        if waiting >= o.queue_capacity {
            o.seen.overflowed[sw] += 1;
            return;
        }
        (LineId::Out(sw, out_port), (out_vci, cell.1))
    };
    transmit(o, sim, out.0, out.1);
}

/// The product's endpoint: records what the network hands it.
#[derive(Default)]
struct Probe(Arrivals);

impl CellSink for Probe {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        let seq = u32::from_le_bytes(cell.payload()[..4].try_into().unwrap());
        self.0.push((cell.vci(), seq, sim.now()));
    }
}

/// One sender: `bursts` bursts of `burst` back-to-back cells, `period`
/// apart, from endpoint `src` to endpoint `dst` (CBR is `burst` 1).
/// `cut` removes the circuit's route at its n-th switch before any
/// cell flies; a `stray` sender stamps a label no switch knows.
#[derive(Debug, Clone)]
struct Flow {
    src: usize,
    dst: usize,
    start: Ns,
    period: Ns,
    bursts: u64,
    burst: u32,
    cut: Option<usize>,
    stray: bool,
}

/// A small city: a chain of switches plus `extra` chords, two endpoints
/// per switch.
#[derive(Debug, Clone)]
struct City {
    fabric_latency: Vec<Ns>,
    extra: Vec<(usize, usize)>,
    trunk: (u64, Ns),
    access: (u64, Ns),
    queue_capacity: u64,
    flows: Vec<Flow>,
}

/// Builds the city twice — product `Network`, oracle — runs the same
/// senders through both and returns `(product, oracle)`.
fn run(city: &City) -> (Outcome, Outcome) {
    let n = city.fabric_latency.len();
    let cfg = |(rate_bps, prop_delay)| LinkConfig {
        rate_bps,
        prop_delay,
    };
    let mut net = Network::new();
    let oracle = OracleRef::default();
    let mut o = oracle.borrow_mut();
    o.fabric_latency = city.fabric_latency.clone();
    o.queue_capacity = city.queue_capacity;
    o.seen = Outcome {
        got: vec![Vec::new(); 2 * n],
        unroutable: vec![0; n],
        overflowed: vec![0; n],
    };
    for (i, &latency) in city.fabric_latency.iter().enumerate() {
        let sw = net.add_switch(&format!("s{i}"), 2, latency);
        net.switch(sw).borrow_mut().queue_capacity = city.queue_capacity;
    }
    let chain = (1..n).map(|i| (i - 1, i));
    for (a, b) in chain.chain(city.extra.iter().copied()) {
        let (pa, pb) = net.connect_switches_auto(SwitchId(a), SwitchId(b), cfg(city.trunk));
        let lanes = &net.trunks()[net.trunks().len() - 2..];
        o.wire(
            LineId::Out(a, pa),
            city.trunk,
            lanes[0].lane,
            Dest::Port(b, pb),
        );
        o.wire(
            LineId::Out(b, pb),
            city.trunk,
            lanes[1].lane,
            Dest::Port(a, pa),
        );
    }
    let mut probes = Vec::new();
    let mut eps = Vec::new();
    for ep in 0..2 * n {
        let sw = ep / 2;
        let probe = Rc::new(RefCell::new(Probe::default()));
        let port = net.alloc_port(SwitchId(sw));
        let id = net.add_endpoint(
            SwitchId(sw),
            port,
            cfg(city.access),
            probe.clone() as SinkRef,
        );
        o.wire(LineId::Tx(ep), city.access, 0, Dest::Port(sw, port));
        o.wire(LineId::Out(sw, port), city.access, 0, Dest::Sink(ep));
        probes.push(probe);
        eps.push((id, sw, port));
    }

    // Circuits: signalled on the product, copied hop by hop.
    let mut labels = Vec::new();
    for flow in &city.flows {
        let (src, dst) = (eps[flow.src], eps[flow.dst]);
        let vc = net
            .open_vc(src.0, dst.0, QosSpec::best_effort(1))
            .expect("best effort on a connected city");
        let (mut sw, mut port, mut vci) = (src.1, src.2, vc.src_vci);
        let mut hops = Vec::new();
        while let Some(r) = net.switch(SwitchId(sw)).borrow().route_for(port, vci) {
            o.routes.insert((sw, port, vci), (r.out_port, r.out_vci));
            hops.push((sw, port, vci));
            match o.lines[&LineId::Out(sw, r.out_port)].dest {
                Dest::Port(s, p) => (sw, port, vci) = (s, p, r.out_vci),
                Dest::Sink(_) => break,
            }
        }
        if let Some(nth) = flow.cut {
            let (sw, port, vci) = hops[nth % hops.len()];
            assert!(net
                .switch(SwitchId(sw))
                .borrow_mut()
                .remove_route(port, vci));
            o.routes.remove(&(sw, port, vci));
        }
        labels.push(if flow.stray { 9_999 } else { vc.src_vci });
    }
    drop(o);

    // The same send events, scheduled in the same order, in two engines.
    let (mut sim_p, mut sim_o) = (Simulator::new(), Simulator::new());
    for (flow, &vci) in city.flows.iter().zip(&labels) {
        let tx = net.endpoint_tx(eps[flow.src].0);
        for b in 0..flow.bursts {
            let at = flow.start + b * flow.period;
            let seqs = b as u32 * flow.burst..(b as u32 + 1) * flow.burst;
            let (tx, o, src) = (tx.clone(), oracle.clone(), flow.src);
            sim_p.schedule_at(at, {
                let seqs = seqs.clone();
                move |sim| {
                    for seq in seqs {
                        let cell = Cell::with_payload(vci, &seq.to_le_bytes());
                        tx.borrow_mut().send(sim, cell);
                    }
                }
            });
            sim_o.schedule_at(at, move |sim| {
                for seq in seqs {
                    transmit(&o, sim, LineId::Tx(src), (vci, seq));
                }
            });
        }
    }
    sim_p.run();
    sim_o.run();

    let stat = |f: fn(&pegasus_atm::switch::SwitchStats) -> u64| {
        (0..n)
            .map(|i| f(&net.switch(SwitchId(i)).borrow().stats))
            .collect::<Vec<u64>>()
    };
    let product = Outcome {
        got: probes.iter().map(|p| p.borrow().0.clone()).collect(),
        unroutable: stat(|s| s.unroutable),
        overflowed: stat(|s| s.overflowed),
    };
    let oracle = oracle.borrow().seen.clone();
    (product, oracle)
}

/// 100 Mbit/s cell time: starts and periods are multiples of it, so
/// cells from different senders reach a switch at the same instant
/// often, not by luck.
const TICK: Ns = 4_240;

/// A flow over the largest city's eight endpoints; [`City::fit`] folds
/// it onto the city at hand.
fn flow() -> impl Strategy<Value = Flow> {
    (
        (0usize..8, 0usize..7),
        (0u64..6, 1u64..5, 1u64..12),
        prop_oneof![3 => Just(1u32), 2 => 2u32..10],
        prop_oneof![7 => Just(None), 1 => (0usize..4).prop_map(Some)],
        prop_oneof![11 => Just(false), 1 => Just(true)],
    )
        .prop_map(
            |((src, dst), (start, period, bursts), burst, cut, stray)| Flow {
                src,
                dst,
                start: start * TICK,
                period: period * TICK,
                bursts,
                burst,
                cut,
                stray,
            },
        )
}

fn city() -> impl Strategy<Value = City> {
    let line = || {
        (
            prop_oneof![Just(100_000_000u64), Just(155_000_000), Just(50_000_000)],
            prop_oneof![Just(0u64), Just(1_000), Just(2_500)],
        )
    };
    (
        (1usize..=4, 0u8..8),
        (line(), line()),
        prop_oneof![3 => 2u64..7, 1 => Just(1_024u64)],
        prop::collection::vec(flow(), 1..9),
        any::<bool>(),
    )
        .prop_map(
            |((n, chords), (trunk, access), queue_capacity, flows, lockstep)| {
                let extra = [(0, 2), (1, 3), (0, 3)]
                    .into_iter()
                    .enumerate()
                    .filter(|&(bit, (_, b))| chords >> bit & 1 == 1 && b < n)
                    .map(|(_, pair)| pair)
                    .collect();
                let city = City {
                    // Distinct per switch, one of them none at all.
                    fabric_latency: [700, 0, 1_370, 4_240][..n].to_vec(),
                    extra,
                    trunk,
                    access,
                    queue_capacity,
                    flows,
                };
                city.fit(lockstep)
            },
        )
}

impl City {
    /// Folds every flow onto this city's endpoints (`dst` never `src`)
    /// and, for `lockstep`, forces the tie: the second flow becomes the
    /// first's twin from the same switch's other endpoint — the same
    /// schedule, the same destination, two input ports.
    fn fit(mut self, lockstep: bool) -> City {
        let endpoints = 2 * self.fabric_latency.len();
        for f in &mut self.flows {
            f.src %= endpoints;
            f.dst = (f.src + 1 + f.dst % (endpoints - 1)) % endpoints;
        }
        if lockstep && self.flows.len() >= 2 {
            let first = self.flows[0].clone();
            if first.src ^ 1 != first.dst {
                self.flows[1] = Flow {
                    src: first.src ^ 1,
                    ..first
                };
            }
        }
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_product_network_is_the_oracle_cell_for_cell(city in city()) {
        let (product, oracle) = run(&city);
        prop_assert_eq!(product, oracle, "{:?}", city);
    }
}

#[test]
fn a_scripted_city_ties_overflows_and_strays_and_still_agrees() {
    // Two switches; endpoints 0 and 1 on the first fire the same bursts
    // at endpoint 2 on the second through a three-cell queue; a third
    // circuit has lost its route at the far switch; a stray label dies
    // at the first.
    let burst = |src, cut, stray| Flow {
        src,
        dst: 2,
        start: TICK,
        period: 3 * TICK,
        bursts: 4,
        burst: 6,
        cut,
        stray,
    };
    let city = City {
        fabric_latency: vec![700, 1_370],
        extra: Vec::new(),
        trunk: (100_000_000, 1_000),
        access: (100_000_000, 0),
        queue_capacity: 3,
        flows: vec![
            burst(0, None, false),
            burst(1, None, false),
            burst(3, Some(0), false),
            burst(1, None, true),
        ],
    };
    let (product, oracle) = run(&city);
    assert_eq!(product, oracle);
    assert!(product.overflowed[0] > 0, "the trunk's queue must overflow");
    assert_eq!(
        product.unroutable,
        vec![24, 24],
        "one stray, one cut circuit"
    );
    let at_2 = &product.got[2];
    assert!(!at_2.is_empty() && at_2.len() < 48, "some, not all, arrive");
    // The twins' cells met at the first switch at the same instants and
    // left in arrival order: endpoint 0's line was wired first.
    assert_eq!((at_2[0].1, at_2[1].1), (0, 0));
    assert!(at_2[0].0 < at_2[1].0, "lower label first: wired first");
}
