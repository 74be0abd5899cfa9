//! Property tests for credit-based VC flow control.
//!
//! Two invariants, each driven by a generator rather than a scripted
//! scenario:
//!
//! 1. **Conservation.** Whatever interleaving of acquires, releases and
//!    reclaims a window sees, every credit ever spent is either still
//!    in flight, returned by the consumer, or reclaimed after a drop —
//!    and the in-flight count never exceeds the window.
//! 2. **Bounded queues by construction.** A producer that spends a
//!    credit per cell before transmitting cannot build a switch backlog
//!    deeper than its window, no matter how fast it offers frames or
//!    how slow the egress drains. This is the whole point of the
//!    mechanism, so it is tested through the real pipe: ingress link →
//!    switch queue → slow egress link → crediting consumer.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use pegasus_atm::cell::Cell;
use pegasus_atm::credit::{CreditSink, CreditWindow};
use pegasus_atm::link::{CellSink, Link};
use pegasus_atm::switch::{input_port, Switch};
use pegasus_sim::Simulator;

/// A consumer that only counts; the crediting wrapper does the rest.
#[derive(Default)]
struct DrainSink {
    cells: u64,
}

impl CellSink for DrainSink {
    fn deliver(&mut self, _sim: &mut Simulator, _cell: Cell) {
        self.cells += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: conservation holds after every operation of any
    /// acquire/release/reclaim interleaving, and in-flight never
    /// exceeds the window.
    #[test]
    fn credits_conserve_under_any_interleaving(
        window in 1u64..64,
        ops in prop::collection::vec((0u8..3, 1u64..32), 1..200),
    ) {
        let w = CreditWindow::shared(window);
        for (kind, n) in ops {
            let mut w = w.borrow_mut();
            match kind {
                0 => {
                    let before = w.in_flight();
                    let ok = w.try_acquire(n);
                    // All-or-nothing: success adds exactly n, failure nothing.
                    let expect = if ok { before + n } else { before };
                    prop_assert_eq!(w.in_flight(), expect);
                }
                1 => {
                    let n = n.min(w.in_flight());
                    w.release(n);
                }
                _ => {
                    let n = n.min(w.in_flight());
                    w.reclaim(n);
                }
            }
            prop_assert!(w.conserved(), "consumed != in_flight + returned + reclaimed");
            prop_assert!(w.in_flight() <= window, "window overrun");
            prop_assert!(w.peak_in_flight() <= window);
        }
    }

    /// Invariant 2: through a real ingress-link → switch → egress-link
    /// pipe with a crediting consumer, the switch backlog never exceeds
    /// the credit window — even with a fast ingress offering frames far
    /// quicker than the slow egress drains, which without credits would
    /// overflow the queue. Afterwards the books balance exactly.
    #[test]
    fn credited_pipe_bounds_the_switch_queue(
        window in 1u64..48,
        frame_cells in 1u64..16,
        frames in 1u64..40,
    ) {
        let sw = Switch::shared("sw", 2, 100);
        sw.borrow_mut().add_route(0, 7, 1, 7);
        let drain = Rc::new(RefCell::new(DrainSink::default()));
        let csink = CreditSink::wrap(drain.clone());
        let w = CreditWindow::shared(window);
        // One switch: credits are due at the delivery event itself.
        csink.borrow_mut().register(7, 0, w.clone());
        // Egress 60x slower than ingress: pressure is guaranteed.
        sw.borrow_mut()
            .attach_output(1, Link::new(10_000_000, 100, csink));
        let ingress = Rc::new(RefCell::new(Link::new(
            622_000_000,
            100,
            input_port(&sw, 0),
        )));

        let mut sim = Simulator::new();
        if frame_cells > window {
            // A frame wider than the window can never acquire: one
            // attempt stalls and the producer would retry forever, so
            // the pump is not even started.
            prop_assert!(!w.borrow_mut().try_acquire(frame_cells));
        } else {
            // Offer a frame every microsecond until `frames` have been
            // accepted; an empty window holds the whole frame at the
            // source, and returning credits guarantee termination.
            let mut sent = 0u64;
            let pump_w = w.clone();
            let tx = ingress.clone();
            sim.schedule_chain(move |sim| {
                if sent >= frames {
                    return None;
                }
                // With the clock, as every producer behind a gate does:
                // due returns are applied before the window is read.
                if pump_w.borrow_mut().try_acquire_at(sim.now(), frame_cells) {
                    sent += 1;
                    let mut l = tx.borrow_mut();
                    for _ in 0..frame_cells {
                        l.send(sim, Cell::new(7));
                    }
                }
                Some(sim.now() + 1_000)
            });
        }
        sim.run();

        let peak = sw.borrow().stats.peak_queue_cells;
        prop_assert!(
            peak <= window,
            "switch backlog {} exceeded credit window {}", peak, window
        );

        let mut w = w.borrow_mut();
        w.advance_to(sim.now());
        prop_assert!(w.conserved());
        if frame_cells <= window {
            // Every offered frame eventually got through and drained.
            prop_assert_eq!(drain.borrow().cells, frames * frame_cells);
            prop_assert_eq!(w.in_flight(), 0, "all credits returned after drain");
        } else {
            // A frame wider than the window can never acquire: the
            // producer stalls forever and nothing enters the fabric.
            prop_assert_eq!(drain.borrow().cells, 0);
            prop_assert!(w.stalls() > 0);
        }
    }
}
