//! The congestion feedback loop: epoch signals in, renegotiation
//! verdicts out, with hysteresis so quality never flaps.
//!
//! Credit windows (`pegasus_atm::credit`) make overload *visible*
//! instead of letting queues grow: a congested circuit shows up as
//! failed acquires at the producer, not as drops in the fabric. Every
//! epoch the scenario samples those stalls, the switches' epoch-peak
//! queue depth, and the file servers' slot headroom into a
//! [`CongestionSignal`] and shows it to a [`CongestionController`].
//! The controller answers with a [`Verdict`]:
//!
//! * [`Verdict::Down`] after `down_after` *consecutive* pressured
//!   epochs — sustained pressure, not a transient burst, triggers the
//!   one degrade rung;
//! * [`Verdict::Up`] only after `up_after` consecutive epochs that are
//!   clear **and** show real queue headroom (`headroom_cells`). The
//!   headroom condition is what prevents flapping: degrading a session
//!   stops its stalls immediately, but while the underlying cause (a
//!   best-effort blast, a failing line) still holds the queue deep, the
//!   controller keeps holding — quality returns only when the fabric
//!   itself has drained;
//! * [`Verdict::Hold`] otherwise.
//!
//! The controller is a pure integer state machine — no clocks, no
//! randomness — so the whole feedback loop stays a deterministic
//! function of the event schedule, and the hostile control front can
//! walk it exhaustively.

/// One epoch's worth of congestion evidence, sampled by the scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct CongestionSignal {
    /// Failed credit acquires across the media circuits this epoch
    /// (each one is a whole frame held at its source).
    pub credit_stalls: u64,
    /// Deepest switch output backlog seen this epoch, in cells (the
    /// resettable gauge, not the run-long high-water mark).
    pub peak_queue_cells: u64,
    /// The file servers' CM slot ledgers are exhausted — stream
    /// pressure from `crates/pfs` counts as congestion evidence too.
    pub cm_slot_pressure: bool,
}

/// What the controller tells the broker to do this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No change.
    Hold,
    /// Sustained pressure: renegotiate live sessions down one rung.
    Down,
    /// Sustained clearance with headroom: restore admitted quality.
    Up,
}

/// The hysteresis state machine between congestion signals and QoS
/// renegotiation.
#[derive(Debug)]
pub struct CongestionController {
    /// Consecutive pressured epochs required before a Down.
    pub down_after: u32,
    /// Consecutive clear epochs required before an Up.
    pub up_after: u32,
    /// Stalls per epoch at or above which the epoch counts as pressured.
    pub stall_threshold: u64,
    /// An epoch is clear only if the peak queue stayed at or below this
    /// (the anti-flap condition — see the module docs).
    pub headroom_cells: u64,
    pressured_epochs: u32,
    clear_epochs: u32,
    degraded: bool,
    downs: u64,
    ups: u64,
}

impl CongestionController {
    /// A controller with the given hysteresis constants.
    pub fn new(down_after: u32, up_after: u32, stall_threshold: u64, headroom_cells: u64) -> Self {
        assert!(
            down_after > 0 && up_after > 0,
            "hysteresis must be positive"
        );
        assert!(
            stall_threshold > 0,
            "a zero threshold would trip on nothing"
        );
        CongestionController {
            down_after,
            up_after,
            stall_threshold,
            headroom_cells,
            pressured_epochs: 0,
            clear_epochs: 0,
            degraded: false,
            downs: 0,
            ups: 0,
        }
    }

    /// Feeds one epoch's signal; returns the verdict for this epoch.
    pub fn observe(&mut self, sig: &CongestionSignal) -> Verdict {
        let pressured = sig.credit_stalls >= self.stall_threshold
            || (sig.cm_slot_pressure && sig.credit_stalls > 0);
        if self.degraded {
            let clear = sig.credit_stalls == 0 && sig.peak_queue_cells <= self.headroom_cells;
            if clear {
                self.clear_epochs += 1;
                if self.clear_epochs >= self.up_after {
                    self.degraded = false;
                    self.clear_epochs = 0;
                    self.ups += 1;
                    return Verdict::Up;
                }
            } else {
                self.clear_epochs = 0;
            }
        } else if pressured {
            self.pressured_epochs += 1;
            if self.pressured_epochs >= self.down_after {
                self.degraded = true;
                self.pressured_epochs = 0;
                self.clear_epochs = 0;
                self.downs += 1;
                return Verdict::Down;
            }
        } else {
            self.pressured_epochs = 0;
        }
        Verdict::Hold
    }

    /// Down verdicts issued so far.
    pub fn downs(&self) -> u64 {
        self.downs
    }

    /// Up verdicts issued so far.
    pub fn ups(&self) -> u64 {
        self.ups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressured() -> CongestionSignal {
        CongestionSignal {
            credit_stalls: 10,
            peak_queue_cells: 500,
            cm_slot_pressure: false,
        }
    }

    fn clear() -> CongestionSignal {
        CongestionSignal::default()
    }

    fn deep_but_quiet() -> CongestionSignal {
        CongestionSignal {
            credit_stalls: 0,
            peak_queue_cells: 500,
            cm_slot_pressure: false,
        }
    }

    #[test]
    fn transient_pressure_never_degrades() {
        let mut c = CongestionController::new(3, 2, 1, 64);
        assert_eq!(c.observe(&pressured()), Verdict::Hold);
        assert_eq!(c.observe(&pressured()), Verdict::Hold);
        assert_eq!(c.observe(&clear()), Verdict::Hold, "streak broken");
        assert_eq!(c.observe(&pressured()), Verdict::Hold);
        assert!(!c.degraded);
        assert_eq!(c.downs(), 0);
    }

    #[test]
    fn sustained_pressure_downs_exactly_once() {
        let mut c = CongestionController::new(3, 2, 1, 64);
        assert_eq!(c.observe(&pressured()), Verdict::Hold);
        assert_eq!(c.observe(&pressured()), Verdict::Hold);
        assert_eq!(c.observe(&pressured()), Verdict::Down);
        // Still pressured: no second Down, no Up.
        assert_eq!(c.observe(&pressured()), Verdict::Hold);
        assert_eq!(c.downs(), 1);
        assert!(c.degraded);
    }

    #[test]
    fn deep_queue_blocks_the_up_even_without_stalls() {
        let mut c = CongestionController::new(1, 2, 1, 64);
        assert_eq!(c.observe(&pressured()), Verdict::Down);
        // Degrading stopped the stalls, but the blast still holds the
        // queue deep: quality must not flap back.
        for _ in 0..10 {
            assert_eq!(c.observe(&deep_but_quiet()), Verdict::Hold);
        }
        assert!(c.degraded);
        // The cause ends, the queue drains: two clear epochs restore.
        assert_eq!(c.observe(&clear()), Verdict::Hold);
        assert_eq!(c.observe(&clear()), Verdict::Up);
        assert!(!c.degraded);
        assert_eq!((c.downs(), c.ups()), (1, 1));
    }

    #[test]
    fn cm_slot_pressure_counts_only_alongside_stalls() {
        let mut c = CongestionController::new(1, 1, 100, 64);
        let sig = CongestionSignal {
            credit_stalls: 0,
            peak_queue_cells: 0,
            cm_slot_pressure: true,
        };
        assert_eq!(
            c.observe(&sig),
            Verdict::Hold,
            "slots alone are not congestion"
        );
        let sig = CongestionSignal {
            credit_stalls: 2, // below the stall threshold on its own
            cm_slot_pressure: true,
            peak_queue_cells: 0,
        };
        assert_eq!(c.observe(&sig), Verdict::Down);
    }

    #[test]
    fn full_cycle_is_monotone_one_down_one_up() {
        let mut c = CongestionController::new(2, 3, 1, 64);
        let mut downs = 0;
        let mut ups = 0;
        // Pressure for 10 epochs, then clear for 10: exactly one of each.
        for _ in 0..10 {
            match c.observe(&pressured()) {
                Verdict::Down => downs += 1,
                Verdict::Up => ups += 1,
                Verdict::Hold => {}
            }
        }
        for _ in 0..10 {
            match c.observe(&clear()) {
                Verdict::Down => downs += 1,
                Verdict::Up => ups += 1,
                Verdict::Hold => {}
            }
        }
        assert_eq!((downs, ups), (1, 1));
    }
}
