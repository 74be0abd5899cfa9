//! Credit-based per-VC flow control.
//!
//! Admission control (the signalling ledgers) bounds *average* rates;
//! it cannot stop a transient burst from growing a switch queue until
//! cells drop. Credits close that gap by construction: the consuming
//! endpoint grants a window of `window` cells, the producer spends one
//! credit per cell **before** it transmits, and the consumer returns
//! each credit as the cell drains off the wire. A producer with an
//! empty window holds its whole cell-train at the source, so the number
//! of this circuit's cells anywhere between producer and consumer —
//! link trains, switch queues, fabric crossings — never exceeds the
//! window. Σ(windows through a queue) is therefore a hard bound on that
//! queue's depth, independent of offered load.
//!
//! Producers acquire at *frame* granularity (a whole AAL5 frame's worth
//! of cells or nothing), so a stall never strands a half-segmented
//! frame in the fabric; see `Camera::send_frame`.
//!
//! Cells dropped in the fabric (outage windows, or overflow on circuits
//! that opted out of credits) never reach the consumer, so their
//! credits would leak and wedge the producer. Drop sites count drops
//! per in-VCI ([`crate::switch::Switch::take_dropped_by_vci`],
//! [`crate::link::Link::take_dropped_by_vci`]) and the control plane
//! returns them via [`CreditWindow::reclaim`] at each congestion epoch.
//! Conservation is then exact and checkable:
//! `consumed == in_flight + returned + reclaimed`. It is checked on
//! real traffic, not just on the counters: the oracle fabric
//! (`crates/atm/tests/oracle_fabric.rs`) runs credited circuits through
//! a product network with outages and overflow and compares every
//! window's books, and every switch's peak queue against the windows
//! through it, with a naive model's.
//!
//! Credits come back one way. A [`CreditSink`] registration is
//! `(delivery VCI, delay, window)`: every drained cell's credit is due
//! `delay` after the delivery event and is parked on the circuit's
//! window until then ([`CreditWindow::release_at`]). The delay is the
//! reverse crossing: one trunk cell time plus propagation for a circuit
//! that crosses switches, zero for one that does not. Zero is not a
//! special case — a credit due *now* is simply due at the producer's
//! next look at the clock — which is why a producer behind a gate
//! always acquires with [`CreditWindow::try_acquire_at`]: the
//! clock-less [`CreditWindow::try_acquire`] never applies what is
//! parked. Both ends of a credited circuit live in one address space:
//! the sharded executor runs any spec with credited circuits on one
//! shard (`ExecPlan::partition` in `pegasus-scenario`).

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_sim::engine::Simulator;
use pegasus_sim::time::Ns;

use crate::cell::{Cell, Vci};
use crate::link::{CellSink, SinkRef};

/// A shared handle on one circuit's credit window: the producer holds
/// one clone (to acquire), the consumer-side [`CreditSink`] another (to
/// release), the control plane a third (to reclaim and read stats).
pub type CreditRef = Rc<RefCell<CreditWindow>>;

/// One virtual circuit's credit state.
///
/// All counters are cumulative cell counts; the invariant
/// [`CreditWindow::conserved`] ties them together.
#[derive(Debug)]
pub struct CreditWindow {
    /// Credits granted by the consumer: the hard cap on in-flight cells.
    window: u64,
    /// Cells currently between producer and consumer.
    in_flight: u64,
    /// Total credits ever spent ([`CreditWindow::try_acquire`]).
    consumed: u64,
    /// Total credits returned by the consumer ([`CreditWindow::release`]).
    returned: u64,
    /// Credits reclaimed for cells the fabric dropped
    /// ([`CreditWindow::reclaim`]).
    reclaimed: u64,
    /// Failed acquires, cumulative (each is one whole frame held back).
    stalls: u64,
    /// Failed acquires since the last [`CreditWindow::take_epoch_stalls`].
    epoch_stalls: u64,
    /// High-water mark of `in_flight`.
    peak_in_flight: u64,
    /// Returns scheduled but not yet applied: `(apply_at, n)` for
    /// credits the producer has not yet looked at. Entries commute
    /// (each is a pure counter increment), so application order within
    /// a drain does not matter.
    pending: Vec<(Ns, u64)>,
}

impl CreditWindow {
    /// A window of `window` cells, shared and empty of traffic.
    pub fn shared(window: u64) -> CreditRef {
        Rc::new(RefCell::new(CreditWindow {
            window,
            in_flight: 0,
            consumed: 0,
            returned: 0,
            reclaimed: 0,
            stalls: 0,
            epoch_stalls: 0,
            peak_in_flight: 0,
            pending: Vec::new(),
        }))
    }

    /// Spends `n` credits if the window has room for all of them;
    /// otherwise spends nothing and records a stall. All-or-nothing is
    /// what gives frame granularity: a producer asks for a whole AAL5
    /// frame's cells at once.
    pub fn try_acquire(&mut self, n: u64) -> bool {
        if self.in_flight + n <= self.window {
            self.in_flight += n;
            self.consumed += n;
            self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
            true
        } else {
            self.stalls += 1;
            self.epoch_stalls += 1;
            false
        }
    }

    /// Returns `n` credits as cells drain at the consumer.
    pub fn release(&mut self, n: u64) {
        debug_assert!(n <= self.in_flight, "released more credits than in flight");
        self.in_flight = self.in_flight.saturating_sub(n);
        self.returned += n;
    }

    /// Schedules `n` credits to come back at `apply_at`: the consumer
    /// has drained the cells, and the return is on its way (across a
    /// trunk, or already here when `apply_at` is now). The credits
    /// count as in flight until [`CreditWindow::advance_to`] reaches
    /// `apply_at`.
    pub fn release_at(&mut self, apply_at: Ns, n: u64) {
        self.pending.push((apply_at, n));
    }

    /// Applies every pending return due at or before `now`. The scan is
    /// unordered (`swap_remove`) because pending entries commute.
    pub fn advance_to(&mut self, now: Ns) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, n) = self.pending.swap_remove(i);
                self.release(n);
            } else {
                i += 1;
            }
        }
    }

    /// [`CreditWindow::try_acquire`] with the clock attached: applies
    /// the returns that are due first, so a producer never stalls on
    /// credits that have already arrived.
    pub fn try_acquire_at(&mut self, now: Ns, n: u64) -> bool {
        self.advance_to(now);
        self.try_acquire(n)
    }

    /// Returns `n` credits for cells the fabric dropped (they will never
    /// reach the consumer, so [`CreditWindow::release`] can't).
    pub fn reclaim(&mut self, n: u64) {
        debug_assert!(n <= self.in_flight, "reclaimed more credits than in flight");
        self.in_flight = self.in_flight.saturating_sub(n);
        self.reclaimed += n;
    }

    /// The conservation invariant: every credit ever spent is either
    /// still in flight, returned by the consumer, or reclaimed after a
    /// drop.
    pub fn conserved(&self) -> bool {
        self.consumed == self.in_flight + self.returned + self.reclaimed
    }

    /// The granted window, in cells.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Cells currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Cumulative credits spent.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Cumulative credits the consumer returned and the producer has
    /// applied.
    pub fn returned(&self) -> u64 {
        self.returned
    }

    /// Cumulative failed acquires.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Cumulative credits reclaimed after fabric drops.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// High-water mark of in-flight cells (always `<=` the window).
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Failed acquires since the last call; resets the epoch counter.
    /// This is the congestion signal the QoS control loop samples.
    pub fn take_epoch_stalls(&mut self) -> u64 {
        std::mem::take(&mut self.epoch_stalls)
    }
}

/// The consumer side: wraps an endpoint's receive sink and returns one
/// credit per delivered cell on every registered circuit, before
/// forwarding the cell unchanged.
///
/// Registration is by *destination* VCI (the label the cell carries on
/// its final hop). A handful of circuits terminate at any one endpoint,
/// so the table is a linear scan.
pub struct CreditSink {
    inner: SinkRef,
    /// `(dst_vci, return delay, window)` for every credited circuit
    /// ending here.
    circuits: Vec<(Vci, Ns, CreditRef)>,
}

impl CreditSink {
    /// Wraps `inner`, sharing the result as a [`SinkRef`].
    pub fn wrap(inner: SinkRef) -> Rc<RefCell<CreditSink>> {
        Rc::new(RefCell::new(CreditSink {
            inner,
            circuits: Vec::new(),
        }))
    }

    /// Registers the circuit delivered under `dst_vci`: each drained
    /// cell's credit is due `delay` after the delivery event and goes
    /// back to `window`. A circuit that never leaves its switch has
    /// `delay` 0.
    pub fn register(&mut self, dst_vci: Vci, delay: Ns, window: CreditRef) {
        assert!(
            self.circuits.iter().all(|(v, ..)| *v != dst_vci),
            "duplicate credit registration for VCI {dst_vci}"
        );
        self.circuits.push((dst_vci, delay, window));
    }
}

impl CellSink for CreditSink {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        if let Some((_, delay, w)) = self.circuits.iter().find(|(v, ..)| *v == cell.vci()) {
            w.borrow_mut().release_at(sim.now() + delay, 1);
        }
        self.inner.borrow_mut().deliver(sim, cell);
    }

    /// A wrapper is transparent: the cell is due when the sink it
    /// wraps is ready to look at it.
    fn latency(&self) -> Ns {
        self.inner.borrow().latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::CaptureSink;

    #[test]
    fn acquire_is_all_or_nothing_and_bounded() {
        let w = CreditWindow::shared(10);
        assert!(w.borrow_mut().try_acquire(6));
        assert!(!w.borrow_mut().try_acquire(5), "6+5 exceeds the window");
        assert_eq!(w.borrow().in_flight(), 6, "failed acquire spent nothing");
        assert!(w.borrow_mut().try_acquire(4));
        assert_eq!(w.borrow().in_flight(), 10);
        assert_eq!(w.borrow().stalls(), 1);
        assert!(w.borrow().conserved());
    }

    #[test]
    fn release_and_reclaim_conserve() {
        let w = CreditWindow::shared(8);
        assert!(w.borrow_mut().try_acquire(8));
        w.borrow_mut().release(5);
        w.borrow_mut().reclaim(3);
        let w = w.borrow();
        assert_eq!(w.in_flight(), 0);
        assert!(w.conserved());
        assert_eq!(w.peak_in_flight(), 8);
    }

    #[test]
    fn epoch_stalls_reset_but_cumulative_stand() {
        let w = CreditWindow::shared(1);
        assert!(w.borrow_mut().try_acquire(1));
        assert!(!w.borrow_mut().try_acquire(1));
        assert!(!w.borrow_mut().try_acquire(1));
        assert_eq!(w.borrow_mut().take_epoch_stalls(), 2);
        assert_eq!(w.borrow_mut().take_epoch_stalls(), 0);
        assert_eq!(w.borrow().stalls(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate credit registration for VCI 7")]
    fn registering_one_vci_twice_is_rejected() {
        let sink = CreditSink::wrap(CaptureSink::shared());
        sink.borrow_mut().register(7, 0, CreditWindow::shared(4));
        sink.borrow_mut().register(7, 0, CreditWindow::shared(4));
    }
}
