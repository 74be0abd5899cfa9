//! The oracle fabric: the slow, obviously right data path, kept as a
//! test.
//!
//! [`Oracle`] is the cell path with nothing clever in it: no trains, no
//! arena, no fused events. Every cell costs one engine event per link
//! (scheduled with `schedule_at_on` when the line accepts it) *and* one
//! per fabric crossing (scheduled when the cell reaches the input
//! port). It models exactly seven things: serialisation behind a busy
//! line, propagation, a fixed fabric latency per switch, FIFO output
//! ports with a depth bound, drops for want of a route, outage windows
//! on any line, and per-circuit credit windows.
//!
//! A credit window is a count and a list. A burst spends all its
//! credits at the source or none; each delivered cell appends the
//! instant its credit is due back — one reverse trunk crossing later,
//! at once when the circuit stays on one switch — and an acquire at `t`
//! counts every credit due at or before `t`. A cell lost to a full
//! queue or a dead line is owed back at the next settle instant.
//!
//! The property: on random small cities the product [`Network`], with
//! the real `CreditSink` and `CreditWindow` at its ends, hands every
//! endpoint the same `(vci, seq, time)` list in the same order; every
//! switch counts the same drops by cause and the same peak queue; every
//! line the same outage drops; and every window the same `(consumed,
//! returned, reclaimed, stalls, peak_in_flight)`. Besides, a switch that
//! only credited circuits cross never queues more cells than their
//! windows sum to — the point of credits. That is what lets the product
//! change how many events a cell costs without anyone arguing from a
//! hash — a golden is a state that was once checked, the oracle is the
//! protocol.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use pegasus_atm::cell::{Cell, Vci, CELL_SIZE};
use pegasus_atm::credit::{CreditRef, CreditSink, CreditWindow};
use pegasus_atm::link::{CellSink, Link};
use pegasus_atm::network::{LinkConfig, Network, SwitchId};
use pegasus_atm::signalling::QosSpec;
use pegasus_atm::switch::Switch;
use pegasus_sim::time::{tx_time, Ns};
use pegasus_sim::{Lane, Simulator};

/// What a cell is to the oracle: its label, its sender's count, and the
/// window its credit goes back to (none for an uncredited or stray
/// sender).
type Tag = (Vci, u32, Option<usize>);
/// `(vci, seq, arrival)` in delivery order at one endpoint.
type Arrivals = Vec<(Vci, u32, Ns)>;
/// A window's `(consumed, returned, reclaimed, stalls, peak_in_flight)`.
type Books = (u64, u64, u64, u64, u64);

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
    /// A cell whose serialisation would start before this is lost.
    down_until: Ns,
    outage_drops: u64,
}

/// One circuit's credit window.
#[derive(Default)]
struct Window {
    size: u64,
    /// How long after delivery a credit is due back at the source.
    delay: Ns,
    consumed: u64,
    /// The instant each delivered cell's credit is due back.
    returns: Vec<Ns>,
    /// Credits of dropped cells, not yet settled.
    owed: u64,
    reclaimed: u64,
    stalls: u64,
    peak_in_flight: u64,
}

impl Window {
    fn acquire(&mut self, now: Ns, n: u64) -> bool {
        let back = self.returns.iter().filter(|&&due| due <= now).count() as u64;
        let in_flight = self.consumed - back - self.reclaimed;
        if in_flight + n > self.size {
            self.stalls += 1;
            return false;
        }
        self.consumed += n;
        self.peak_in_flight = self.peak_in_flight.max(in_flight + n);
        true
    }

    fn books(&self) -> Books {
        let returned = self.returns.len() as u64;
        let (consumed, reclaimed) = (self.consumed, self.reclaimed);
        (
            consumed,
            returned,
            reclaimed,
            self.stalls,
            self.peak_in_flight,
        )
    }
}

#[derive(Default)]
struct Oracle {
    lines: HashMap<LineId, Line>,
    /// Every line, in wiring order.
    order: Vec<LineId>,
    /// Per switch.
    fabric_latency: Vec<Ns>,
    queue_capacity: u64,
    /// `(switch, in port, in vci)` → `(out port, out vci)`.
    routes: HashMap<(usize, usize, Vci), (usize, Vci)>,
    windows: Vec<Window>,
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
    peak_queue: Vec<u64>,
    /// Per line, in wiring order.
    outage_drops: Vec<u64>,
    /// Per credited flow, in flow order.
    windows: Vec<Books>,
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
            down_until: 0,
            outage_drops: 0,
        };
        self.lines.insert(id, line);
        self.order.push(id);
    }

    /// A dropped cell's credit is owed to its window.
    fn owe(&mut self, cell: Tag) {
        if let Some(w) = cell.2 {
            self.windows[w].owed += 1;
        }
    }

    fn settle(&mut self) {
        for w in &mut self.windows {
            w.reclaimed += std::mem::take(&mut w.owed);
        }
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            outage_drops: (self.order.iter())
                .map(|id| self.lines[id].outage_drops)
                .collect(),
            windows: self.windows.iter().map(Window::books).collect(),
            ..self.seen.clone()
        }
    }
}

/// The line takes the cell: it waits its turn, serialises, propagates —
/// unless the line is down when its turn comes.
fn transmit(o: &OracleRef, sim: &mut Simulator, id: LineId, cell: Tag) {
    let (lane, arrival, dest) = {
        let mut o = o.borrow_mut();
        let line = o.lines.get_mut(&id).expect("wired line");
        let start = line.next_free.max(sim.now());
        if start < line.down_until {
            line.outage_drops += 1;
            return o.owe(cell);
        }
        line.next_free = start + line.cell_time;
        (line.lane, line.next_free + line.prop, line.dest)
    };
    let o = o.clone();
    sim.schedule_at_on(lane, arrival, move |sim| match dest {
        Dest::Sink(ep) => {
            let mut o = o.borrow_mut();
            o.seen.got[ep].push((cell.0, cell.1, sim.now()));
            if let Some(w) = cell.2 {
                let w = &mut o.windows[w];
                w.returns.push(sim.now() + w.delay);
            }
        }
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
            return o.owe(cell);
        }
        // Queued, so counted, even if the output line is down and
        // drops it: the switch counts what it hands its line.
        o.seen.peak_queue[sw] = o.seen.peak_queue[sw].max(waiting + 1);
        (LineId::Out(sw, out_port), (out_vci, cell.1, cell.2))
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

/// A product line the harness reaches while the run is on.
#[derive(Clone)]
enum Wire {
    Tx(Rc<RefCell<Link>>),
    Out(Rc<RefCell<Switch>>, usize),
}

impl Wire {
    fn with<R>(&self, f: impl FnOnce(&mut Link) -> R) -> R {
        match self {
            Wire::Tx(link) => f(&mut link.borrow_mut()),
            Wire::Out(sw, port) => f(sw.borrow_mut().output_mut(*port).expect("wired")),
        }
    }
}

/// One sender: `bursts` bursts of `burst` back-to-back cells, `period`
/// apart, from endpoint `src` to endpoint `dst` (CBR is `burst` 1).
/// `cut` removes the circuit's route at its n-th switch before any
/// cell flies; a `stray` sender stamps a label no switch knows. A
/// sender with a `window` spends a burst's credits before it sends and
/// skips the burst when the window has no room for all of them.
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
    window: Option<u64>,
}

/// A small city: a chain of switches plus `extra` chords, two endpoints
/// per switch. Each outage `(line, from, until)` takes down the
/// `line`-th line in wiring order (modulo their number) at `from`.
#[derive(Debug, Clone)]
struct City {
    fabric_latency: Vec<Ns>,
    extra: Vec<(usize, usize)>,
    trunk: (u64, Ns),
    access: (u64, Ns),
    queue_capacity: u64,
    flows: Vec<Flow>,
    outages: Vec<(usize, Ns, Ns)>,
}

/// Drops are settled — credits of lost cells reclaimed — this often.
const SETTLE: Ns = 6 * TICK;

/// Builds the city twice — product `Network`, oracle — runs the same
/// senders, outages and settles through both and returns `(product,
/// oracle, bound)`: `bound[sw]` is the sum of the windows of the
/// circuits crossing switch `sw`, `None` if an uncredited one does.
fn run(city: &City) -> (Outcome, Outcome, Vec<Option<u64>>) {
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
        peak_queue: vec![0; n],
        ..Outcome::default()
    };
    let mut wires = Vec::new();
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
        wires.push(Wire::Out(net.switch(SwitchId(a)).clone(), pa));
        wires.push(Wire::Out(net.switch(SwitchId(b)).clone(), pb));
    }
    let mut probes = Vec::new();
    let mut gates = Vec::new();
    let mut eps = Vec::new();
    for ep in 0..2 * n {
        let sw = ep / 2;
        let probe = Rc::new(RefCell::new(Probe::default()));
        let gate = CreditSink::wrap(probe.clone());
        let port = net.alloc_port(SwitchId(sw));
        let id = net.add_endpoint(SwitchId(sw), port, cfg(city.access), gate.clone());
        o.wire(LineId::Tx(ep), city.access, 0, Dest::Port(sw, port));
        o.wire(LineId::Out(sw, port), city.access, 0, Dest::Sink(ep));
        wires.push(Wire::Tx(net.endpoint_tx(id)));
        wires.push(Wire::Out(net.switch(SwitchId(sw)).clone(), port));
        probes.push(probe);
        gates.push(gate);
        eps.push((id, sw, port));
    }

    // Circuits: signalled on the product, copied hop by hop; a credited
    // one registered at its consumer the way a scenario wires it.
    let mut senders = Vec::new();
    let mut windows: Vec<CreditRef> = Vec::new();
    // Every label a credited circuit's cells carry → its window.
    let mut owner: Vec<(Vci, usize)> = Vec::new();
    let mut bound = vec![Some(0); n];
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
        for &(sw, ..) in &hops {
            bound[sw] = bound[sw].zip(flow.window).map(|(b, w)| b + w);
        }
        let window = flow.window.map(|size| {
            let delay = match src.1 == dst.1 {
                true => 0,
                false => tx_time(CELL_SIZE, city.trunk.0) + city.trunk.1,
            };
            let w = CreditWindow::shared(size);
            gates[flow.dst]
                .borrow_mut()
                .register(vc.dst_vci, delay, w.clone());
            owner.extend(vc.vcis().map(|vci| (vci, windows.len())));
            windows.push(w);
            o.windows.push(Window {
                size,
                delay,
                ..Window::default()
            });
            windows.len() - 1
        });
        let label = if flow.stray { 9_999 } else { vc.src_vci };
        senders.push((label, window));
    }
    let order = o.order.clone();
    drop(o);

    // The same events, scheduled in the same order, in two engines:
    // every burst, then every outage, then every settle.
    let (mut sim_p, mut sim_o) = (Simulator::new(), Simulator::new());
    for (flow, &(vci, window)) in city.flows.iter().zip(&senders) {
        let tx = net.endpoint_tx(eps[flow.src].0);
        let credit = window.map(|w| windows[w].clone());
        // A stray cell's drop is owed to no window: its label names none.
        let tag = window.filter(|_| !flow.stray);
        let n = u64::from(flow.burst);
        for b in 0..flow.bursts {
            let at = flow.start + b * flow.period;
            let seqs = b as u32 * flow.burst..(b as u32 + 1) * flow.burst;
            let (tx, credit, o, src) = (tx.clone(), credit.clone(), oracle.clone(), flow.src);
            sim_p.schedule_at(at, {
                let seqs = seqs.clone();
                move |sim| {
                    if let Some(w) = &credit {
                        if !w.borrow_mut().try_acquire_at(sim.now(), n) {
                            return;
                        }
                    }
                    for seq in seqs {
                        let cell = Cell::with_payload(vci, &seq.to_le_bytes());
                        tx.borrow_mut().send(sim, cell);
                    }
                }
            });
            sim_o.schedule_at(at, move |sim| {
                if let Some(w) = window {
                    if !o.borrow_mut().windows[w].acquire(sim.now(), n) {
                        return;
                    }
                }
                for seq in seqs {
                    transmit(&o, sim, LineId::Tx(src), (vci, seq, tag));
                }
            });
        }
    }
    for &(line, from, until) in &city.outages {
        let (wire, id) = (wires[line % wires.len()].clone(), order[line % order.len()]);
        sim_p.schedule_at(from, move |_| wire.with(|l| l.set_outage_until(until)));
        let o = oracle.clone();
        sim_o.schedule_at(from, move |_| {
            let mut o = o.borrow_mut();
            let line = o.lines.get_mut(&id).expect("wired line");
            line.down_until = line.down_until.max(until);
        });
    }
    // The product settles as a scenario's control plane does: drain the
    // per-VCI drop counters, reclaim each on the circuit it names.
    let books = windows.clone();
    let settle_p = Rc::new(move || {
        let mut drops = Vec::new();
        for sw in 0..n {
            drops.extend(net.switch(SwitchId(sw)).borrow_mut().take_dropped_by_vci());
        }
        for wire in &wires {
            drops.extend(wire.with(Link::take_dropped_by_vci));
        }
        for (vci, lost) in drops {
            if let Some(&(_, w)) = owner.iter().find(|&&(v, _)| v == vci) {
                windows[w].borrow_mut().reclaim(lost);
            }
        }
        let stats = (0..n).map(|sw| net.switch(SwitchId(sw)).borrow().stats.clone());
        let outage = wires.iter().map(|w| w.with(|l| l.cells_dropped()));
        (stats.collect::<Vec<_>>(), outage.collect())
    });
    let last = city.flows.iter().map(|f| f.start + f.bursts * f.period);
    for k in 1..=last.max().unwrap_or(0) / SETTLE {
        let (settle_p, o) = (settle_p.clone(), oracle.clone());
        sim_p.schedule_at(k * SETTLE, move |_| drop(settle_p()));
        sim_o.schedule_at(k * SETTLE, move |_| o.borrow_mut().settle());
    }
    sim_p.run();
    sim_o.run();
    let (stats, outage_drops) = settle_p();
    oracle.borrow_mut().settle();

    let product = Outcome {
        got: probes.iter().map(|p| p.borrow().0.clone()).collect(),
        unroutable: stats.iter().map(|s| s.unroutable).collect(),
        overflowed: stats.iter().map(|s| s.overflowed).collect(),
        peak_queue: stats.iter().map(|s| s.peak_queue_cells).collect(),
        outage_drops,
        windows: (books.iter())
            .map(|w| {
                let mut w = w.borrow_mut();
                w.advance_to(Ns::MAX);
                (
                    w.consumed(),
                    w.returned(),
                    w.reclaimed(),
                    w.stalls(),
                    w.peak_in_flight(),
                )
            })
            .collect(),
    };
    let oracle = oracle.borrow().outcome();
    (product, oracle, bound)
}

/// Both models agree, and credits bound every queue only credited
/// circuits cross.
fn check(city: &City) -> Result<Outcome, TestCaseError> {
    let (product, oracle, bound) = run(city);
    prop_assert_eq!(&product, &oracle, "{:?}", city);
    for (sw, (&peak, limit)) in product.peak_queue.iter().zip(bound).enumerate() {
        let limit = limit.unwrap_or(u64::MAX);
        prop_assert!(peak <= limit, "switch {sw} queued {peak} > windows {limit}");
    }
    Ok(product)
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
        prop_oneof![Just(None), (0u64..3).prop_map(Some)],
    )
        .prop_map(
            |((src, dst), (start, period, bursts), burst, cut, stray, slack)| Flow {
                src,
                dst,
                start: start * TICK,
                period: period * TICK,
                bursts,
                burst,
                cut,
                stray,
                // Room for the burst and up to two cells more: tight
                // enough that returns due at an acquire's instant decide
                // it.
                window: slack.map(|s| u64::from(burst) + s),
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
        prop::collection::vec((0usize..64, 0u64..40, 1u64..16, any::<bool>()), 0..4),
        any::<bool>(),
    )
        .prop_map(
            |((n, chords), (trunk, access), queue_capacity, flows, lockstep, cuts, aligned)| {
                let extra = [(0, 2), (1, 3), (0, 3)]
                    .into_iter()
                    .enumerate()
                    .filter(|&(bit, (_, b))| chords >> bit & 1 == 1 && b < n)
                    .map(|(_, pair)| pair)
                    .collect();
                // Distinct per switch, one of them none at all; on an
                // `aligned` city every delay is a whole number of ticks,
                // so a credit falls due at the instant a burst asks.
                let latencies = match aligned {
                    false => [700, 0, 1_370, 4_240],
                    true => [TICK, 0, 2 * TICK, 3 * TICK],
                };
                let align = |(rate, prop): (u64, Ns)| match aligned {
                    false => (rate, prop),
                    true => (rate.min(100_000_000), 0),
                };
                let city = City {
                    fabric_latency: latencies[..n].to_vec(),
                    extra,
                    trunk: align(trunk),
                    access: align(access),
                    queue_capacity,
                    flows,
                    outages: cuts
                        .iter()
                        .scan(0, |prev, &(line, from, len, again)| {
                            // `again` takes the previous outage's line down a
                            // second time, possibly for less long.
                            *prev = if again { *prev } else { line };
                            Some((*prev, from * TICK, (from + len) * TICK))
                        })
                        .collect(),
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
        check(&city)?;
    }
}

/// A scripted flow into endpoint 2: `bursts` bursts of `burst` cells,
/// `period` apart from the first tick.
fn into_2(src: usize, bursts: u64, burst: u32, period: Ns) -> Flow {
    Flow {
        src,
        dst: 2,
        start: TICK,
        period,
        bursts,
        burst,
        cut: None,
        stray: false,
        window: None,
    }
}

#[test]
fn a_scripted_city_ties_overflows_and_strays_and_still_agrees() {
    // Two switches; endpoints 0 and 1 on the first fire the same bursts
    // at endpoint 2 on the second through a three-cell queue; a third
    // circuit has lost its route at the far switch; a stray label dies
    // at the first.
    let burst = |src, cut, stray| Flow {
        cut,
        stray,
        ..into_2(src, 4, 6, 3 * TICK)
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
        outages: Vec::new(),
    };
    let product = check(&city).unwrap();
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

#[test]
fn a_scripted_city_returns_credits_on_time_and_reclaims_what_an_outage_drops() {
    // Two switches on a trunk half as fast as the access lines, every
    // delay a whole number of ticks. Endpoint 0's credited circuit to
    // endpoint 2 has its last credit due back 13 ticks after it asked —
    // wire, fabric, trunk queue and the two-tick reverse crossing — so
    // its second burst, 13 ticks on, asks at that very instant.
    // Endpoint 1's circuit loses its first cell to a trunk outage that
    // ends as its second cell starts; the lost credit comes back at the
    // next settle, in time for the next burst. In between, endpoint 3's
    // uncredited burst lands on the same gated endpoint.
    let credited = |src, start, bursts| Flow {
        start,
        window: Some(4),
        ..into_2(src, bursts, 4, 13 * TICK)
    };
    let city = City {
        fabric_latency: vec![TICK, 0],
        extra: Vec::new(),
        trunk: (50_000_000, 0),
        access: (100_000_000, 0),
        queue_capacity: 1_024,
        flows: vec![
            credited(0, TICK, 2),
            Flow {
                start: 30 * TICK,
                ..into_2(3, 1, 6, TICK)
            },
            credited(1, 40 * TICK, 4),
        ],
        outages: vec![(0, 41 * TICK, 43 * TICK)],
    };
    let product = check(&city).unwrap();
    // (consumed, returned, reclaimed, stalls, peak_in_flight)
    assert_eq!(product.windows, vec![(8, 8, 0, 0, 4), (16, 15, 1, 0, 4)]);
    assert_eq!(product.outage_drops[0], 1, "one cell lost on the trunk");
    assert_eq!(product.got[2].len(), 8 + 6 + 15);
}
