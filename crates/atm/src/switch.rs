//! An output-queued ATM cell switch in the style of Fairisle.
//!
//! The paper's workstations hang cameras, displays and audio nodes off a
//! local ATM switch that "is under control of the workstation" (§2).
//! A [`Switch`] here forwards cells by looking up the (input port, VCI)
//! pair in a translation table, rewriting the VCI, and queueing the cell
//! on the output port's link after a fixed fabric latency. Output queues
//! have finite capacity; overflowing cells are dropped (counted), with
//! CLP-marked cells dropped first in spirit by being subject to a lower
//! threshold.
//!
//! The fabric latency costs no event of its own: an input port reports
//! it to the link that feeds it (`CellSink::latency`) and the link's
//! delivery event, fired at wire arrival + fabric latency, runs
//! `Switch::forward` directly. A cell handed to an input port by hand
//! (`deliver`, as tests do) is forwarded at once — the latency belongs
//! to the feeding link's schedule, not to the port.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use pegasus_sim::time::Ns;
use pegasus_sim::Simulator;

use crate::cell::{Cell, Vci};
use crate::link::{CellSink, Link, SinkRef};

/// A routing-table entry: where a cell goes and what VCI it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Output port index.
    pub out_port: usize,
    /// VCI stamped on the cell for the next hop.
    pub out_vci: Vci,
}

/// Forwarding statistics kept by each switch.
#[derive(Debug, Default, Clone)]
pub struct SwitchStats {
    /// Cells successfully forwarded.
    pub switched: u64,
    /// Cells dropped because no route matched.
    pub unroutable: u64,
    /// Cells dropped because the output queue was full.
    pub overflowed: u64,
    /// Deepest output backlog observed (in cells, including the cell
    /// being accepted) — the high-water mark scenario reports publish.
    pub peak_queue_cells: u64,
    /// Deepest backlog since the last [`SwitchStats::take_epoch_peak`]
    /// — the resettable gauge the congestion control loop samples to
    /// judge headroom, distinct from the run-long high-water mark.
    pub epoch_peak_queue_cells: u64,
}

impl SwitchStats {
    /// The deepest backlog this epoch; resets the epoch gauge.
    pub fn take_epoch_peak(&mut self) -> u64 {
        std::mem::take(&mut self.epoch_peak_queue_cells)
    }
}

/// One multiply instead of SipHash for the two tables a cell consults.
/// Their keys are port indices and VCIs this program hands out itself,
/// so there is no crafted collision to defend against.
#[derive(Default)]
struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("labels hash as one integer");
    }
    fn write_u16(&mut self, vci: u16) {
        self.write_u64(vci.into());
    }
    fn write_u64(&mut self, label: u64) {
        self.0 = label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type LabelMap<K, V> = HashMap<K, V, BuildHasherDefault<LabelHasher>>;

/// The translation-table key: input port above the incoming VCI.
fn label(in_port: usize, in_vci: Vci) -> u64 {
    (in_port as u64) << Vci::BITS | u64::from(in_vci)
}

/// An output-queued cell switch.
pub struct Switch {
    name: String,
    fabric_latency: Ns,
    outputs: Vec<Option<Link>>,
    routes: LabelMap<u64, Route>,
    /// Maximum backlog per output, in cells, before tail drop.
    pub queue_capacity: u64,
    /// Forwarding statistics.
    pub stats: SwitchStats,
    /// Overflow drops per *incoming* VCI (the label the cell still
    /// carries at the drop point, before translation). Globally unique
    /// VCIs make this attributable to one circuit; the control plane
    /// drains it to reclaim credits and attribute admitted-session loss.
    dropped_by_vci: LabelMap<Vci, u64>,
    next_vci: Vci,
}

impl Switch {
    /// Creates a switch with `ports` ports and the given per-cell fabric
    /// latency, wrapped for sharing.
    pub fn shared(name: &str, ports: usize, fabric_latency: Ns) -> Rc<RefCell<Switch>> {
        Rc::new(RefCell::new(Switch {
            name: name.to_string(),
            fabric_latency,
            outputs: (0..ports).map(|_| None).collect(),
            routes: LabelMap::default(),
            queue_capacity: 1024,
            stats: SwitchStats::default(),
            dropped_by_vci: LabelMap::default(),
            next_vci: 32, // low VCIs reserved for signalling, as on real ATM
        }))
    }

    /// The switch's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.outputs.len()
    }

    /// Attaches the transmit link of output `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn attach_output(&mut self, port: usize, link: Link) {
        self.outputs[port] = Some(link);
    }

    /// Grows the switch to at least `ports` ports (new ports start
    /// unwired). Programmatic topology builders size switches to the
    /// scenario rather than a fixed port count.
    pub fn grow_ports(&mut self, ports: usize) {
        while self.outputs.len() < ports {
            self.outputs.push(None);
        }
    }

    /// Allocates a fresh VCI, unique within this switch.
    pub fn alloc_vci(&mut self) -> Vci {
        let v = self.next_vci;
        self.next_vci = self.next_vci.checked_add(1).expect("VCI space exhausted");
        v
    }

    /// Installs a translation-table entry.
    pub fn add_route(&mut self, in_port: usize, in_vci: Vci, out_port: usize, out_vci: Vci) {
        self.routes
            .insert(label(in_port, in_vci), Route { out_port, out_vci });
    }

    /// Removes a translation-table entry; returns `true` if it existed.
    pub fn remove_route(&mut self, in_port: usize, in_vci: Vci) -> bool {
        self.routes.remove(&label(in_port, in_vci)).is_some()
    }

    /// Wipes the whole translation table — a dead switch forwards
    /// nothing; everything arriving afterwards counts as unroutable.
    pub fn clear_routes(&mut self) {
        self.routes.clear();
    }

    /// Pulls every output line. Each link holds its receiver — a
    /// neighbour's input port, and through it the neighbour — so a wired
    /// fabric is a cycle of `Rc`s until its lines are pulled (see
    /// `Network`'s `Drop`).
    pub(crate) fn unplug_outputs(&mut self) {
        self.outputs.clear();
    }

    /// The wired output links, in port order (line cards of this
    /// switch). Fault injection uses this to cut or inspect lines.
    pub fn output_links_mut(&mut self) -> impl Iterator<Item = &mut Link> {
        self.outputs.iter_mut().filter_map(|l| l.as_mut())
    }

    /// The output link at `port`, if wired — targeted access for the
    /// sharded executor to set export buffers on, or inject into, a
    /// specific trunk line.
    pub fn output_mut(&mut self, port: usize) -> Option<&mut Link> {
        self.outputs.get_mut(port).and_then(|l| l.as_mut())
    }

    /// Cells this switch's output lines lost to outage windows.
    pub fn cells_dropped_outage(&self) -> u64 {
        self.outputs
            .iter()
            .filter_map(|l| l.as_ref())
            .map(Link::cells_dropped)
            .sum()
    }

    /// Overflow drops per incoming VCI since the last call, drained and
    /// sorted by VCI so callers iterate deterministically.
    pub fn take_dropped_by_vci(&mut self) -> Vec<(Vci, u64)> {
        let mut drops: Vec<(Vci, u64)> = self.dropped_by_vci.drain().collect();
        drops.sort_unstable();
        drops
    }

    /// Looks up the route for a cell arriving on `in_port` with `in_vci`.
    pub fn route_for(&self, in_port: usize, in_vci: Vci) -> Option<Route> {
        self.routes.get(&label(in_port, in_vci)).copied()
    }

    /// Forwards a cell that has crossed the fabric from `in_port`.
    fn forward(&mut self, sim: &mut Simulator, in_port: usize, mut cell: Cell) {
        let Some(route) = self.route_for(in_port, cell.vci()) else {
            self.stats.unroutable += 1;
            return;
        };
        let Some(link) = self
            .outputs
            .get_mut(route.out_port)
            .and_then(|l| l.as_mut())
        else {
            self.stats.unroutable += 1;
            return;
        };
        let backlog_cells = link.backlog(sim.now()) / link.cell_time().max(1);
        if backlog_cells >= self.queue_capacity {
            self.stats.overflowed += 1;
            // The cell still carries its incoming label here (the VCI
            // rewrite below never ran), so the drop attributes cleanly.
            *self.dropped_by_vci.entry(cell.vci()).or_insert(0) += 1;
            return;
        }
        cell.set_vci(route.out_vci);
        link.send(sim, cell);
        self.stats.switched += 1;
        self.stats.peak_queue_cells = self.stats.peak_queue_cells.max(backlog_cells + 1);
        self.stats.epoch_peak_queue_cells =
            self.stats.epoch_peak_queue_cells.max(backlog_cells + 1);
    }
}

/// An input-port adapter: the [`CellSink`] a neighbour's link feeds.
///
/// It owns no queue and no event: the feeding link's delivery, fired
/// [`CellSink::latency`] after the wire arrival, *is* the forward, so
/// routes, output backlog, outage and capacity are read at the instant
/// the cell leaves the fabric.
struct InPort {
    switch: Rc<RefCell<Switch>>,
    port: usize,
}

impl CellSink for InPort {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        self.switch.borrow_mut().forward(sim, self.port, cell);
    }

    fn latency(&self) -> Ns {
        self.switch.borrow().fabric_latency
    }
}

/// Creates the [`SinkRef`] for input `port` of `switch`, to be used as the
/// sink of whatever link feeds that port.
pub fn input_port(switch: &Rc<RefCell<Switch>>, port: usize) -> SinkRef {
    assert!(port < switch.borrow().ports(), "input port out of range");
    Rc::new(RefCell::new(InPort {
        switch: switch.clone(),
        port,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::CaptureSink;

    const RATE: u64 = 100_000_000;

    fn one_switch_setup(
        fabric_latency: Ns,
    ) -> (Rc<RefCell<Switch>>, SinkRef, Rc<RefCell<CaptureSink>>) {
        let sw = Switch::shared("t", 4, fabric_latency);
        let out = CaptureSink::shared();
        sw.borrow_mut()
            .attach_output(1, Link::new(RATE, 0, out.clone()));
        let input = input_port(&sw, 0);
        (sw, input, out)
    }

    #[test]
    fn routes_and_rewrites_vci() {
        let (sw, input, out) = one_switch_setup(1_000);
        sw.borrow_mut().add_route(0, 40, 1, 77);
        let mut feed = Link::new(RATE, 0, input);
        let mut sim = Simulator::new();
        assert_eq!(
            feed.send(&mut sim, Cell::new(40)),
            4_240,
            "the wire arrival"
        );
        sim.run();
        let arr = &out.borrow().arrivals;
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].1.vci(), 77);
        // Feed 4.24 µs + fabric latency 1 µs + serialization 4.24 µs.
        assert_eq!(arr[0].0, 4_240 + 1_000 + 4_240);
        assert_eq!(sw.borrow().stats.switched, 1);
    }

    #[test]
    fn a_cell_is_forwarded_when_it_leaves_the_fabric_never_early() {
        // The crossing rides the feeding link's delivery event, but the
        // switch still decides at wire arrival + fabric latency: a route
        // removed, or an output taken down, strictly between the two
        // instants is seen by the cell.
        let (sw, input, out) = one_switch_setup(1_000);
        sw.borrow_mut().add_route(0, 40, 1, 77);
        let mut feed = Link::new(RATE, 0, input);
        let mut sim = Simulator::new();

        let arrival = feed.send(&mut sim, Cell::new(40));
        sim.run_until(arrival + 500);
        assert_eq!(sim.pending(), 1, "still crossing the fabric");
        assert!(sw.borrow_mut().remove_route(0, 40));
        sim.run();
        assert_eq!(sw.borrow().stats.unroutable, 1);
        assert_eq!(sw.borrow().stats.switched, 0);

        sw.borrow_mut().add_route(0, 40, 1, 77);
        let arrival = feed.send(&mut sim, Cell::new(40));
        sim.run_until(arrival + 500);
        sw.borrow_mut()
            .output_mut(1)
            .expect("wired")
            .set_outage_until(arrival + 1_001);
        sim.run();
        assert_eq!(sw.borrow().cells_dropped_outage(), 1, "lost on the wire");
        assert!(out.borrow().arrivals.is_empty());
    }

    #[test]
    fn a_cell_costs_one_event_per_hop() {
        // link → switch → link → sink: two hops, two events a cell, and
        // each link's head is all the engine's heap ever holds.
        const N: u64 = 50;
        let sw = Switch::shared("t", 2, 700);
        let out = CaptureSink::shared();
        sw.borrow_mut()
            .attach_output(1, Link::new(RATE, 300, out.clone()));
        sw.borrow_mut().add_route(0, 5, 1, 6);
        let mut feed = Link::new(RATE, 200, input_port(&sw, 0));
        let mut sim = Simulator::new();
        for _ in 0..N {
            feed.send(&mut sim, Cell::new(5));
        }
        while sim.step() {
            assert!(sim.pending() <= 2, "one heap entry per busy link");
        }
        assert_eq!(sim.events_executed(), 2 * N);
        // The feed delivers one cell per cell time, so the output line
        // never backs up: wire + fabric + wire.
        let expect: Vec<Ns> = (1..=N)
            .map(|k| (k * 4_240 + 200) + 700 + (4_240 + 300))
            .collect();
        let times: Vec<Ns> = out.borrow().arrivals.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, expect);
    }

    #[test]
    fn unroutable_cells_counted_and_dropped() {
        let (sw, input, out) = one_switch_setup(0);
        let mut sim = Simulator::new();
        input.borrow_mut().deliver(&mut sim, Cell::new(999));
        sim.run();
        assert!(out.borrow().arrivals.is_empty());
        assert_eq!(sw.borrow().stats.unroutable, 1);
    }

    #[test]
    fn queue_overflow_drops() {
        let (sw, input, out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 5, 1, 5);
        sw.borrow_mut().queue_capacity = 4;
        let mut sim = Simulator::new();
        // Burst 10 cells at t=0: capacity 4 means backlog caps out.
        for _ in 0..10 {
            input.borrow_mut().deliver(&mut sim, Cell::new(5));
        }
        sim.run();
        let delivered = out.borrow().arrivals.len() as u64;
        let st = sw.borrow().stats.clone();
        assert_eq!(delivered + st.overflowed, 10);
        assert!(st.overflowed > 0, "expected drops");
        assert_eq!(st.peak_queue_cells, 4, "high-water mark is the capacity");
    }

    #[test]
    fn peak_queue_depth_tracks_bursts() {
        let (sw, input, _out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 5, 1, 5);
        let mut sim = Simulator::new();
        for _ in 0..6 {
            input.borrow_mut().deliver(&mut sim, Cell::new(5));
        }
        sim.run();
        assert_eq!(sw.borrow().stats.peak_queue_cells, 6);
        // A later, smaller burst does not lower the mark.
        for _ in 0..2 {
            input.borrow_mut().deliver(&mut sim, Cell::new(5));
        }
        sim.run();
        assert_eq!(sw.borrow().stats.peak_queue_cells, 6);
    }

    #[test]
    fn grow_ports_extends_unwired() {
        let sw = Switch::shared("g", 2, 0);
        sw.borrow_mut().grow_ports(5);
        assert_eq!(sw.borrow().ports(), 5);
        sw.borrow_mut().grow_ports(3); // never shrinks
        assert_eq!(sw.borrow().ports(), 5);
        let out = CaptureSink::shared();
        sw.borrow_mut().attach_output(4, Link::new(RATE, 0, out));
    }

    #[test]
    fn two_flows_interleave_fifo() {
        let (sw, input, out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 1, 1, 101);
        sw.borrow_mut().add_route(0, 2, 1, 102);
        let mut sim = Simulator::new();
        for i in 0..6u16 {
            input.borrow_mut().deliver(&mut sim, Cell::new(1 + (i % 2)));
        }
        sim.run();
        let vcis: Vec<Vci> = out.borrow().arrivals.iter().map(|(_, c)| c.vci()).collect();
        assert_eq!(vcis, vec![101, 102, 101, 102, 101, 102]);
    }

    #[test]
    fn two_in_ports_with_equal_exit_times_interleave_in_arrival_order() {
        // Two equal lines feed two input ports in lock step, so every
        // fabric exit falls on the same tick as one on the other port:
        // the output must see them in arrival order, not one port's
        // backlog then the other's.
        let (sw, port0, out) = one_switch_setup(1_000);
        let port2 = input_port(&sw, 2);
        sw.borrow_mut().add_route(0, 1, 1, 101);
        sw.borrow_mut().add_route(2, 2, 1, 102);
        let mut feed0 = Link::new(RATE, 0, port0);
        let mut feed2 = Link::new(RATE, 0, port2);
        let mut sim = Simulator::new();
        for _ in 0..3 {
            feed0.send(&mut sim, Cell::new(1));
            feed2.send(&mut sim, Cell::new(2));
        }
        assert_eq!(sim.pending(), 2, "one heap entry per feeding link");
        sim.run();
        let vcis: Vec<Vci> = out.borrow().arrivals.iter().map(|(_, c)| c.vci()).collect();
        assert_eq!(vcis, vec![101, 102, 101, 102, 101, 102]);
    }

    #[test]
    fn remove_route_stops_forwarding() {
        let (sw, input, out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 7, 1, 7);
        let mut sim = Simulator::new();
        input.borrow_mut().deliver(&mut sim, Cell::new(7));
        sim.run();
        assert!(sw.borrow_mut().remove_route(0, 7));
        assert!(!sw.borrow_mut().remove_route(0, 7));
        input.borrow_mut().deliver(&mut sim, Cell::new(7));
        sim.run();
        assert_eq!(out.borrow().arrivals.len(), 1);
        assert_eq!(sw.borrow().stats.unroutable, 1);
    }

    #[test]
    fn routes_are_keyed_on_port_and_vci_together() {
        let sw = Switch::shared("t", 8, 0);
        let mut sw = sw.borrow_mut();
        let labels = [(0, 7), (1, 7), (7, 0), (7, 1), (0, Vci::MAX), (1, 0)];
        for (n, &(port, vci)) in labels.iter().enumerate() {
            sw.add_route(port, vci, n, n as Vci);
        }
        for (n, &(port, vci)) in labels.iter().enumerate() {
            let route = sw.route_for(port, vci).expect("installed");
            assert_eq!((route.out_port, route.out_vci), (n, n as Vci));
        }
        assert_eq!(sw.route_for(2, 7), None);
        assert!(sw.remove_route(0, 7));
        assert_eq!(sw.route_for(0, 7), None);
        assert!(sw.route_for(1, 7).is_some());
        sw.clear_routes();
        assert!(labels.iter().all(|&(p, v)| sw.route_for(p, v).is_none()));
    }

    #[test]
    fn alloc_vci_is_unique_and_above_signalling_range() {
        let sw = Switch::shared("t", 2, 0);
        let a = sw.borrow_mut().alloc_vci();
        let b = sw.borrow_mut().alloc_vci();
        assert!(a >= 32);
        assert_ne!(a, b);
    }

    #[test]
    fn two_hop_path() {
        let sw1 = Switch::shared("sw1", 2, 500);
        let sw2 = Switch::shared("sw2", 2, 500);
        let out = CaptureSink::shared();
        // feed --link--> sw1 port0; sw1 port1 --link--> sw2 port0;
        // sw2 port1 --link--> capture.
        sw1.borrow_mut()
            .attach_output(1, Link::new(RATE, 100, input_port(&sw2, 0)));
        sw2.borrow_mut()
            .attach_output(1, Link::new(RATE, 100, out.clone()));
        sw1.borrow_mut().add_route(0, 50, 1, 60);
        sw2.borrow_mut().add_route(0, 60, 1, 70);
        let mut feed = Link::new(RATE, 100, input_port(&sw1, 0));
        let mut sim = Simulator::new();
        feed.send(&mut sim, Cell::new(50));
        sim.run();
        let arr = &out.borrow().arrivals;
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].1.vci(), 70);
        // 3 × (tx 4240 + prop 100) + 2 × fabric 500 = 14020.
        assert_eq!(arr[0].0, 14_020);
        assert_eq!(sim.events_executed(), 3, "one event per hop");
    }
}
