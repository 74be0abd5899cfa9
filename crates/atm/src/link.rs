//! Point-to-point cell transmission.
//!
//! A [`Link`] models the serialization and propagation of cells between
//! two ATM components: a cell of 53 bytes occupies the line for
//! `53·8 / rate` seconds and arrives `prop_delay` later. Back-to-back
//! sends queue behind the line (FIFO), which is where queueing delay and
//! jitter come from in the experiments.
//!
//! # Cell trains
//!
//! Cells queued behind a busy line form a *train*: a contiguous run whose
//! arrival times are fixed the moment each cell is accepted. The link
//! exploits this once, for residency: every cell still gets its own
//! delivery event — the sink reads its arrival instant off
//! [`Simulator::now`] — under the key it reserved when the link
//! accepted it, but the cells wait in the link's own [`Train`] and only
//! the head is in the engine's heap. A thousand queued cells cost the
//! heap one entry, and nothing is allocated per cell.
//!
//! # One event per cell per hop
//!
//! A sink may take a fixed time to look at a cell after it arrives — a
//! switch input port's fabric crossing. The sink says so once
//! ([`CellSink::latency`]), the link reads it at wiring time, and the
//! delivery event fires at `arrival + latency`: the cell's one event on
//! this hop covers the wire and the crossing. What the link *reports* —
//! [`Link::send`]'s return value, the export buffer, the instant
//! [`Link::inject`] checks — stays the wire arrival.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_sim::time::{tx_time, Ns};
use pegasus_sim::{Lane, Simulator, Train};

use crate::cell::{Cell, Vci, CELL_SIZE};

/// The boundary buffer of a link whose receiver lives in another region
/// shard: `(arrival time, cell)` pairs accumulated during an epoch, in
/// send order, drained and sealed by the sharded executor at the next
/// barrier instead of being scheduled locally.
pub type ExportBuffer = Rc<RefCell<Vec<(Ns, Cell)>>>;

/// Anything that can receive cells: switch ports, displays, audio sinks,
/// host network interfaces.
pub trait CellSink {
    /// Delivers one cell at the current simulation time.
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell);

    /// How long after a cell reaches this sink [`CellSink::deliver`] is
    /// to run — fixed for the sink's lifetime and read once, by
    /// [`Link::new`]. Devices look at a cell the instant it arrives; a
    /// switch input port looks once the cell has crossed the fabric.
    fn latency(&self) -> Ns {
        0
    }
}

/// Shared handle to a [`CellSink`].
pub type SinkRef = Rc<RefCell<dyn CellSink>>;

/// A unidirectional link with a line rate and propagation delay.
///
/// The sender owns the link; the receiving end is any [`SinkRef`].
///
/// # Examples
///
/// ```
/// use pegasus_atm::link::{Link, CellSink, SinkRef};
/// use pegasus_atm::cell::Cell;
/// use pegasus_sim::Simulator;
/// use std::{cell::RefCell, rc::Rc};
///
/// struct Sink(Vec<u64>);
/// impl CellSink for Sink {
///     fn deliver(&mut self, sim: &mut Simulator, _c: Cell) { self.0.push(sim.now()); }
/// }
///
/// let sink = Rc::new(RefCell::new(Sink(Vec::new())));
/// let mut link = Link::new(100_000_000, 1_000, sink.clone() as SinkRef);
/// let mut sim = Simulator::new();
/// link.send(&mut sim, Cell::new(1));
/// sim.run();
/// // 53 B at 100 Mbit/s = 4.24 µs serialization + 1 µs propagation.
/// assert_eq!(sink.borrow().0, vec![5_240]);
/// ```
pub struct Link {
    rate_bps: u64,
    /// `tx_time(CELL_SIZE, rate_bps)`: a forwarded cell asks twice.
    cell_time: Ns,
    prop_delay: Ns,
    sink: SinkRef,
    /// [`CellSink::latency`] of `sink`: delivery fires this long after
    /// the wire arrival.
    sink_latency: Ns,
    next_free: Ns,
    cells_sent: u64,
    /// Cells offered while the line was down (dropped, never delivered).
    cells_dropped: u64,
    /// Outage drops per VCI (few circuits share one line; linear scan).
    /// Drained by [`Link::take_dropped_by_vci`] so the control plane can
    /// reclaim the lost cells' credits and attribute the loss.
    dropped_by_vci: Vec<(Vci, u64)>,
    /// The line is down until this instant: cells whose serialization
    /// would start before it are lost on the wire (a flapping link or a
    /// pulled line card). `0` means the link has never been down.
    outage_until: Ns,
    /// Accepted-but-undelivered cells: one delivery event per cell,
    /// head only armed. Built when the first cell is accepted, so a line
    /// that never carried a cell owns no queue.
    train: Option<Train<Cell>>,
    /// Scheduling lane for delivery events. Lane 0 (default) is the
    /// shared FIFO lane; the sharded executor gives every inter-switch
    /// trunk link a private lane so boundary-injected cells land in the
    /// same canonical order the single-threaded run produces.
    lane: Lane,
    /// When set, this link's transmit side sits on a shard boundary:
    /// accepted cells are accounted here (serialization, outage drops,
    /// counters) but diverted to the export buffer instead of being
    /// scheduled — the receiving shard injects them after the barrier.
    export: Option<ExportBuffer>,
}

impl Link {
    /// Creates a link at `rate_bps` bits/second with the given one-way
    /// propagation delay, feeding `sink`.
    pub fn new(rate_bps: u64, prop_delay: Ns, sink: SinkRef) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        let sink_latency = sink.borrow().latency();
        Link {
            rate_bps,
            cell_time: tx_time(CELL_SIZE, rate_bps),
            prop_delay,
            sink,
            sink_latency,
            next_free: 0,
            cells_sent: 0,
            cells_dropped: 0,
            dropped_by_vci: Vec::new(),
            outage_until: 0,
            train: None,
            lane: 0,
            export: None,
        }
    }

    /// Assigns the scheduling lane delivery events ride on. Called once
    /// at wiring time (before any traffic); lane 0 is the default.
    pub fn set_lane(&mut self, lane: Lane) {
        self.lane = lane;
        if let Some(train) = &mut self.train {
            train.set_lane(lane);
        }
    }

    /// The delivery-event scheduling lane.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Marks this link's transmit side as a shard boundary: accepted
    /// cells are pushed to `buf` instead of being scheduled for local
    /// delivery. The executor drains `buf` at each epoch barrier.
    pub fn set_export(&mut self, buf: ExportBuffer) {
        self.export = Some(buf);
    }

    /// The configured line rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Serialization time of one cell on this link.
    pub fn cell_time(&self) -> Ns {
        self.cell_time
    }

    /// Total cells handed to this link so far.
    pub fn cells_sent(&self) -> u64 {
        self.cells_sent
    }

    /// Cells lost to outage windows (see [`Link::set_outage_until`]).
    pub fn cells_dropped(&self) -> u64 {
        self.cells_dropped
    }

    /// Outage drops per VCI since the last call, drained in VCI order.
    pub fn take_dropped_by_vci(&mut self) -> Vec<(Vci, u64)> {
        let mut drops = std::mem::take(&mut self.dropped_by_vci);
        drops.sort_unstable();
        drops
    }

    /// Takes the line down until `until`: cells whose serialization
    /// would start before that instant are dropped and counted in
    /// [`Link::cells_dropped`]. A later call may extend (never shorten)
    /// the outage; cells already accepted stay in flight — an outage
    /// cuts the line, it does not un-send what already left.
    pub fn set_outage_until(&mut self, until: Ns) {
        self.outage_until = self.outage_until.max(until);
    }

    /// Earliest time a newly offered cell would start serializing.
    pub fn next_free(&self) -> Ns {
        self.next_free
    }

    /// Current transmit backlog: how long a cell offered now would wait
    /// before starting to serialize.
    pub fn backlog(&self, now: Ns) -> Ns {
        self.next_free.saturating_sub(now)
    }

    /// Queues `cell` for transmission; delivery to the sink is scheduled
    /// after queueing + serialization + propagation (+ the sink's own
    /// [`CellSink::latency`]).
    ///
    /// Returns the absolute arrival time at the sink — the end of the
    /// wire, whatever the sink's latency. The generic path allocates
    /// nothing per cell: the delivery event is the link's shared
    /// handler.
    pub fn send(&mut self, sim: &mut Simulator, cell: Cell) -> Ns {
        let start = self.next_free.max(sim.now());
        if start < self.outage_until {
            // The line is down when this cell would hit it: lost on the
            // wire. Mid-frame losses are exactly what reassembly's
            // fallback path must absorb.
            self.cells_dropped += 1;
            match self
                .dropped_by_vci
                .iter_mut()
                .find(|(v, _)| *v == cell.vci())
            {
                Some((_, n)) => *n += 1,
                None => self.dropped_by_vci.push((cell.vci(), 1)),
            }
            return start;
        }
        let done = start + self.cell_time;
        self.next_free = done;
        self.cells_sent += 1;
        let arrival = done + self.prop_delay;
        if let Some(export) = &self.export {
            // Shard boundary: the receiving end lives in another region.
            // All transmit-side accounting above is done; the cell waits
            // in the export buffer for the next barrier exchange.
            export.borrow_mut().push((arrival, cell));
            return arrival;
        }
        self.enqueue_delivery(sim, arrival, cell);
        arrival
    }

    /// Queues an accepted cell for delivery — the half of
    /// [`Link::send`] downstream of the wire, shared by the local path
    /// and boundary injection. `arrival` is the wire arrival; the event
    /// fires the sink's latency later.
    fn enqueue_delivery(&mut self, sim: &mut Simulator, arrival: Ns, cell: Cell) {
        let (lane, sink) = (self.lane, &self.sink);
        let train = self.train.get_or_insert_with(|| {
            let sink = sink.clone();
            Train::new(lane, move |sim: &mut Simulator, cell| {
                sink.borrow_mut().deliver(sim, cell)
            })
        });
        train.push(sim, arrival.saturating_add(self.sink_latency), cell);
    }

    /// Injects a cell sealed by the transmitting shard: queues it for
    /// delivery exactly as if [`Link::send`] had accepted it locally at
    /// the same instant. Called by the sharded executor right after an
    /// epoch barrier, on the receiving shard's replica of the link.
    ///
    /// # Panics
    ///
    /// Panics when `arrival` precedes the receiving shard's current
    /// epoch — conservative lookahead guarantees every boundary cell
    /// arrives at or after the barrier it crosses, so an early cell
    /// means the epoch length exceeded the link's latency bound.
    pub fn inject(&mut self, sim: &mut Simulator, arrival: Ns, cell: Cell) {
        assert!(
            arrival >= sim.now(),
            "inter-shard cell timestamped before the receiving epoch: \
             arrival={} epoch={}",
            arrival,
            sim.now()
        );
        self.enqueue_delivery(sim, arrival, cell);
    }

    /// Sends a burst of back-to-back cells, returning the arrival time of
    /// the last one. Equivalent to calling [`Link::send`] in a loop.
    pub fn send_burst(&mut self, sim: &mut Simulator, cells: impl IntoIterator<Item = Cell>) -> Ns {
        let mut last = sim.now();
        for cell in cells {
            last = self.send(sim, cell);
        }
        last
    }
}

/// A sink that records arrivals — the workhorse test/measurement probe.
#[derive(Default)]
pub struct CaptureSink {
    /// `(arrival time, cell)` pairs in delivery order.
    pub arrivals: Vec<(Ns, Cell)>,
}

impl CaptureSink {
    /// Creates an empty capture sink wrapped for sharing.
    pub fn shared() -> Rc<RefCell<CaptureSink>> {
        Rc::new(RefCell::new(CaptureSink::default()))
    }
}

impl CellSink for CaptureSink {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        self.arrivals.push((sim.now(), cell));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBPS_100: u64 = 100_000_000;

    #[test]
    fn single_cell_timing() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 500, sink.clone());
        let mut sim = Simulator::new();
        let arrival = link.send(&mut sim, Cell::new(7));
        assert_eq!(arrival, 4_240 + 500);
        sim.run();
        let got = sink.borrow();
        assert_eq!(got.arrivals.len(), 1);
        assert_eq!(got.arrivals[0].0, 4_740);
        assert_eq!(got.arrivals[0].1.vci(), 7);
    }

    #[test]
    fn back_to_back_cells_queue() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink.clone());
        let mut sim = Simulator::new();
        for _ in 0..3 {
            link.send(&mut sim, Cell::new(1));
        }
        sim.run();
        let times: Vec<Ns> = sink.borrow().arrivals.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![4_240, 8_480, 12_720]);
    }

    #[test]
    fn a_thousand_queued_cells_hold_one_heap_entry() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink.clone());
        let mut sim = Simulator::new();
        for vci in 0..1_000u16 {
            link.send(&mut sim, Cell::new(vci));
        }
        assert_eq!(sim.pending(), 1, "the train's head stands for the queue");
        sim.run();
        assert_eq!(sim.events_executed(), 1_000, "still one event per cell");
        let expect: Vec<(Ns, Cell)> = (0..1_000u16)
            .map(|i| ((i as Ns + 1) * 4_240, Cell::new(i)))
            .collect();
        assert_eq!(sink.borrow().arrivals, expect);
    }

    #[test]
    fn cells_in_flight_together_each_arrive_at_their_own_instant() {
        // OC-12 serializes a cell in under 1 µs, so with 1 µs of
        // propagation several cells are on the wire at once.
        let sink = CaptureSink::shared();
        let mut link = Link::new(622_080_000, 1_000, sink.clone());
        assert!(link.cell_time() < 1_000);
        let mut sim = Simulator::new();
        let promised: Vec<Ns> = (0..64u16)
            .map(|vci| link.send(&mut sim, Cell::new(vci)))
            .collect();
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.events_executed(), 64);
        let recorded: Vec<Ns> = sink.borrow().arrivals.iter().map(|(t, _)| *t).collect();
        assert_eq!(recorded, promised);
    }

    #[test]
    fn idle_link_restarts_at_now() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink.clone());
        let mut sim = Simulator::new();
        link.send(&mut sim, Cell::new(1));
        sim.run();
        // Much later, the link is idle again: no stale backlog.
        sim.run_until(1_000_000);
        assert_eq!(link.backlog(sim.now()), 0);
        link.send(&mut sim, Cell::new(2));
        sim.run();
        assert_eq!(sink.borrow().arrivals[1].0, 1_000_000 + 4_240);
    }

    #[test]
    fn fifo_order_preserved() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 123, sink.clone());
        let mut sim = Simulator::new();
        for vci in 0..20u16 {
            link.send(&mut sim, Cell::new(vci));
        }
        sim.run();
        let vcis: Vec<u16> = sink
            .borrow()
            .arrivals
            .iter()
            .map(|(_, c)| c.vci())
            .collect();
        assert_eq!(vcis, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn backlog_reflects_queue() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink);
        let mut sim = Simulator::new();
        for _ in 0..10 {
            link.send(&mut sim, Cell::new(1));
        }
        assert_eq!(link.backlog(0), 10 * 4_240);
        assert_eq!(link.cells_sent(), 10);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_rejected() {
        let sink = CaptureSink::shared();
        let _ = Link::new(0, 0, sink);
    }

    #[test]
    fn outage_window_drops_and_counts() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink.clone());
        let mut sim = Simulator::new();
        link.send(&mut sim, Cell::new(1)); // in flight before the cut
        link.set_outage_until(100_000);
        for _ in 0..3 {
            link.send(&mut sim, Cell::new(2)); // lost on the wire
        }
        sim.run_until(200_000);
        link.send(&mut sim, Cell::new(3)); // line is back
        sim.run();
        let vcis: Vec<u16> = sink
            .borrow()
            .arrivals
            .iter()
            .map(|(_, c)| c.vci())
            .collect();
        assert_eq!(vcis, vec![1, 3], "outage cells never arrive");
        assert_eq!(link.cells_dropped(), 3);
        assert_eq!(link.cells_sent(), 2, "only wire-borne cells count as sent");
        // A shorter outage never shortens an existing one.
        link.set_outage_until(150_000);
        assert_eq!(link.cells_dropped(), 3);
        link.send(&mut sim, Cell::new(4));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 3);
    }

    #[test]
    fn send_burst_matches_individual_sends() {
        let sink_a = CaptureSink::shared();
        let mut link_a = Link::new(MBPS_100, 10, sink_a.clone());
        let sink_b = CaptureSink::shared();
        let mut link_b = Link::new(MBPS_100, 10, sink_b.clone());
        let mut sim_a = Simulator::new();
        let mut sim_b = Simulator::new();
        let last = link_a.send_burst(&mut sim_a, (0..8u16).map(Cell::new));
        let mut last_b = 0;
        for v in 0..8u16 {
            last_b = link_b.send(&mut sim_b, Cell::new(v));
        }
        assert_eq!(last, last_b);
        sim_a.run();
        sim_b.run();
        assert_eq!(sink_a.borrow().arrivals, sink_b.borrow().arrivals);
    }

    #[test]
    fn exported_cells_reinjected_match_the_local_delivery_trace() {
        // The shard boundary round trip: a transmit link with an export
        // buffer captures (arrival, cell) pairs; injecting them into a
        // fresh replica of the link reproduces the local trace exactly.
        let local_sink = CaptureSink::shared();
        let mut local = Link::new(MBPS_100, 500, local_sink.clone());
        let mut local_sim = Simulator::new();
        for vci in 0..6u16 {
            local.send(&mut local_sim, Cell::new(vci));
        }
        local_sim.run();

        let tx_sink = CaptureSink::shared();
        let mut tx = Link::new(MBPS_100, 500, tx_sink.clone());
        let buf: ExportBuffer = Rc::new(RefCell::new(Vec::new()));
        tx.set_export(buf.clone());
        let mut tx_sim = Simulator::new();
        for vci in 0..6u16 {
            tx.send(&mut tx_sim, Cell::new(vci));
        }
        tx_sim.run();
        assert!(tx_sink.borrow().arrivals.is_empty(), "nothing local");
        assert_eq!(tx.cells_sent(), 6, "transmit accounting still happens");

        let rx_sink = CaptureSink::shared();
        let mut rx = Link::new(MBPS_100, 500, rx_sink.clone());
        let mut rx_sim = Simulator::new();
        for (arrival, cell) in buf.borrow_mut().drain(..) {
            rx.inject(&mut rx_sim, arrival, cell);
        }
        rx_sim.run();
        assert_eq!(rx_sink.borrow().arrivals, local_sink.borrow().arrivals);
    }

    #[test]
    #[should_panic(expected = "inter-shard cell timestamped before the receiving epoch")]
    fn inject_rejects_cells_from_before_the_current_epoch() {
        // The barrier-protocol invariant: conservative lookahead means a
        // shard can never receive a cell timestamped before the epoch
        // boundary its clock is parked on. An early cell is a protocol
        // violation and must die loudly, not silently reorder history.
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink);
        let mut sim = Simulator::new();
        sim.run_until(50_000); // the clock sits on an epoch boundary
        link.inject(&mut sim, 49_999, Cell::new(1));
    }

    #[test]
    fn per_cell_delivery_is_never_early_under_run_until() {
        let sink = CaptureSink::shared();
        let mut link = Link::new(MBPS_100, 0, sink.clone());
        let mut sim = Simulator::new();
        for _ in 0..10 {
            link.send(&mut sim, Cell::new(1)); // arrivals 4240, 8480, …
        }
        sim.run_until(9_000);
        // Whatever has been delivered by t=9000 must have arrived by then.
        assert!(sink.borrow().arrivals.iter().all(|&(t, _)| t <= 9_000));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 10);
    }
}
