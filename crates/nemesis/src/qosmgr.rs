//! The Quality-of-Service manager (§3.3).
//!
//! "Above this primitive-level scheduler, and running on a longer time
//! scale is a Quality-of-Service-manager domain whose task is to update
//! the scheduler weights; this is performed not only in response to
//! applications entering or leaving the system, but also adaptively as
//! applications modify their behaviour — this is performed on a longer
//! time scale than the individual scheduling decisions in order to smooth
//! out short-term variations in load."
//!
//! The manager here does exactly that: it holds per-application *user
//! weights* (the "users control processor allocation much in the same way
//! that they control pixel allocation in window systems" policy), smooths
//! observed demand with an exponentially weighted moving average, and
//! redistributes the reservable CPU capacity by weighted water-filling:
//! no application is granted more than its smoothed demand, and capacity
//! freed by undemanding applications flows to the others in proportion to
//! their weights.

use crate::sched::Share;
use pegasus_sim::time::Ns;

/// Identifier of an application registered with the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub usize);

#[derive(Debug, Clone)]
struct AppState {
    weight: f64,
    demand_ewma: f64,
    granted: f64,
    alive: bool,
}

/// The QoS-manager domain.
///
/// # Examples
///
/// ```
/// use pegasus_nemesis::qosmgr::QosManager;
///
/// let mut mgr = QosManager::new(0.9, 1.0);
/// let a = mgr.add_app(2.0);
/// let b = mgr.add_app(1.0);
/// mgr.observe(a, 1.0); // wants the whole CPU
/// mgr.observe(b, 1.0);
/// mgr.rebalance();
/// // Weighted 2:1 split of the 0.9 reservable capacity.
/// assert!((mgr.granted(a) - 0.6).abs() < 1e-9);
/// assert!((mgr.granted(b) - 0.3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct QosManager {
    apps: Vec<AppState>,
    /// Fraction of the CPU available for guaranteed shares.
    pub capacity: f64,
    /// EWMA smoothing factor in (0, 1]; 1 = no smoothing.
    pub alpha: f64,
}

impl QosManager {
    /// Creates a manager distributing `capacity` (fraction of one CPU)
    /// with demand-EWMA factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < capacity <= 1` and `0 < alpha <= 1`.
    pub fn new(capacity: f64, alpha: f64) -> Self {
        assert!(capacity > 0.0 && capacity <= 1.0);
        assert!(alpha > 0.0 && alpha <= 1.0);
        QosManager {
            apps: Vec::new(),
            capacity,
            alpha,
        }
    }

    /// Registers an application with the given user weight.
    pub fn add_app(&mut self, weight: f64) -> AppId {
        assert!(weight > 0.0, "weight must be positive");
        self.apps.push(AppState {
            weight,
            demand_ewma: 0.0,
            granted: 0.0,
            alive: true,
        });
        AppId(self.apps.len() - 1)
    }

    /// Deregisters an application; its grant is freed at the next
    /// rebalance.
    pub(crate) fn remove_app(&mut self, id: AppId) {
        self.apps[id.0].alive = false;
        self.apps[id.0].granted = 0.0;
    }

    /// Changes an application's user weight (the window-system-like
    /// control knob).
    pub(crate) fn set_weight(&mut self, id: AppId, weight: f64) {
        assert!(weight > 0.0);
        self.apps[id.0].weight = weight;
    }

    /// Records one epoch's observed demand (utilization in `[0, 1]`) for
    /// an application. Demand is smoothed with the manager's EWMA.
    pub fn observe(&mut self, id: AppId, demand: f64) {
        let st = &mut self.apps[id.0];
        st.demand_ewma = self.alpha * demand.clamp(0.0, 1.0) + (1.0 - self.alpha) * st.demand_ewma;
    }

    /// The utilization currently granted to an application.
    pub fn granted(&self, id: AppId) -> f64 {
        self.apps[id.0].granted
    }

    /// Recomputes every grant by weighted water-filling: repeatedly give
    /// each unsatisfied application capacity in proportion to its weight,
    /// capping at its smoothed demand, until capacity or demand runs out.
    ///
    /// Returns the total capacity granted.
    pub fn rebalance(&mut self) -> f64 {
        let mut remaining = self.capacity;
        let mut satisfied: Vec<bool> = self
            .apps
            .iter()
            .map(|a| !a.alive || a.demand_ewma <= 0.0)
            .collect();
        for a in self.apps.iter_mut() {
            a.granted = 0.0;
        }
        // Each round either satisfies at least one application or
        // distributes everything; at most `apps` rounds.
        for _ in 0..self.apps.len() {
            let sum_w: f64 = self
                .apps
                .iter()
                .zip(&satisfied)
                .filter(|(_, s)| !**s)
                .map(|(a, _)| a.weight)
                .sum();
            if sum_w <= 0.0 || remaining <= 1e-12 {
                break;
            }
            let mut newly_satisfied = false;
            let quantum = remaining;
            for (i, a) in self.apps.iter_mut().enumerate() {
                if satisfied[i] {
                    continue;
                }
                let offer = quantum * a.weight / sum_w;
                let want = a.demand_ewma - a.granted;
                if offer >= want {
                    a.granted = a.demand_ewma;
                    remaining -= want;
                    satisfied[i] = true;
                    newly_satisfied = true;
                } else {
                    a.granted += offer;
                    remaining -= offer;
                }
            }
            if !newly_satisfied {
                break;
            }
        }
        self.capacity - remaining
    }

    /// Converts an application's grant into a scheduler [`Share`] over
    /// the given period.
    pub fn share_for(&self, id: AppId, period: Ns) -> Share {
        Share {
            slice: (self.apps[id.0].granted * period as f64) as Ns,
            period,
        }
    }
}

/// Why a CPU reservation was refused by a [`CpuLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuLedgerError {
    /// Micro-CPUs requested.
    pub requested: u64,
    /// Micro-CPUs still unreserved.
    pub available: u64,
}

impl std::fmt::Display for CpuLedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested {} µCPU but only {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for CpuLedgerError {}

/// Setup-time CPU admission: the ledger the QoS broker checks before a
/// session is allowed to add its share to the media application's
/// demand.
///
/// The [`QosManager`] adapts *running* applications to each other on an
/// epoch timescale; it cannot refuse work, only starve it. End-to-end
/// QoS (the paper's §3.3 argument carried to its conclusion) needs a
/// gate in front of it: a fixed budget of reservable CPU, in integer
/// micro-CPUs (millionths of one processor) so that accounting is exact
/// and the admit/reject boundary is reproducible bit-for-bit.
///
/// # Examples
///
/// ```
/// use pegasus_nemesis::qosmgr::CpuLedger;
///
/// let mut ledger = CpuLedger::new(1_000); // 0.001 CPUs reservable
/// ledger.reserve(600).unwrap();
/// assert_eq!(ledger.available_micro(), 400);
/// assert!(ledger.reserve(500).is_err());
/// ledger.release(600);
/// assert_eq!(ledger.available_micro(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct CpuLedger {
    capacity_micro: u64,
    reserved_micro: u64,
}

impl CpuLedger {
    /// Creates a ledger with `capacity_micro` micro-CPUs reservable.
    pub fn new(capacity_micro: u64) -> Self {
        CpuLedger {
            capacity_micro,
            reserved_micro: 0,
        }
    }

    /// Total reservable capacity, in micro-CPUs.
    pub fn capacity_micro(&self) -> u64 {
        self.capacity_micro
    }

    /// Micro-CPUs currently reserved.
    pub fn reserved_micro(&self) -> u64 {
        self.reserved_micro
    }

    /// Micro-CPUs still unreserved.
    pub fn available_micro(&self) -> u64 {
        self.capacity_micro - self.reserved_micro
    }

    /// The reserved share as a fraction of one CPU, for feeding the
    /// [`QosManager`] as observed demand.
    pub fn reserved_fraction(&self) -> f64 {
        self.reserved_micro as f64 / 1_000_000.0
    }

    /// Reserves `micro` micro-CPUs, or reports what was available.
    pub fn reserve(&mut self, micro: u64) -> Result<(), CpuLedgerError> {
        if micro > self.available_micro() {
            return Err(CpuLedgerError {
                requested: micro,
                available: self.available_micro(),
            });
        }
        self.reserved_micro += micro;
        Ok(())
    }

    /// Releases a previous reservation (saturating, like the bandwidth
    /// ledger in the ATM layer).
    pub fn release(&mut self, micro: u64) {
        self.reserved_micro = self.reserved_micro.saturating_sub(micro);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr_no_smoothing() -> QosManager {
        QosManager::new(0.9, 1.0)
    }

    #[test]
    fn weighted_split_when_all_demand_everything() {
        let mut mgr = mgr_no_smoothing();
        let a = mgr.add_app(3.0);
        let b = mgr.add_app(1.0);
        mgr.observe(a, 1.0);
        mgr.observe(b, 1.0);
        let total = mgr.rebalance();
        assert!((total - 0.9).abs() < 1e-9);
        assert!((mgr.granted(a) - 0.675).abs() < 1e-9);
        assert!((mgr.granted(b) - 0.225).abs() < 1e-9);
    }

    #[test]
    fn grants_capped_at_demand_and_surplus_flows() {
        let mut mgr = mgr_no_smoothing();
        let small = mgr.add_app(1.0);
        let big = mgr.add_app(1.0);
        mgr.observe(small, 0.1); // needs almost nothing
        mgr.observe(big, 1.0);
        mgr.rebalance();
        assert!((mgr.granted(small) - 0.1).abs() < 1e-9);
        // The big app receives the rest of the 0.9 capacity.
        assert!((mgr.granted(big) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn undersubscribed_system_grants_all_demand() {
        let mut mgr = mgr_no_smoothing();
        let a = mgr.add_app(1.0);
        let b = mgr.add_app(5.0);
        mgr.observe(a, 0.2);
        mgr.observe(b, 0.3);
        let total = mgr.rebalance();
        assert!((mgr.granted(a) - 0.2).abs() < 1e-9);
        assert!((mgr.granted(b) - 0.3).abs() < 1e-9);
        assert!((total - 0.5).abs() < 1e-9);
    }

    #[test]
    fn app_departure_frees_capacity() {
        let mut mgr = mgr_no_smoothing();
        let a = mgr.add_app(1.0);
        let b = mgr.add_app(1.0);
        mgr.observe(a, 1.0);
        mgr.observe(b, 1.0);
        mgr.rebalance();
        assert!((mgr.granted(a) - 0.45).abs() < 1e-9);
        mgr.remove_app(b);
        mgr.rebalance();
        assert!((mgr.granted(a) - 0.9).abs() < 1e-9);
        assert_eq!(mgr.granted(b), 0.0);
    }

    #[test]
    fn weight_change_shifts_grants() {
        let mut mgr = mgr_no_smoothing();
        let a = mgr.add_app(1.0);
        let b = mgr.add_app(1.0);
        mgr.observe(a, 1.0);
        mgr.observe(b, 1.0);
        mgr.rebalance();
        let before = mgr.granted(a);
        mgr.set_weight(a, 9.0);
        mgr.rebalance();
        assert!(mgr.granted(a) > before);
        assert!((mgr.granted(a) - 0.81).abs() < 1e-9);
    }

    #[test]
    fn smoothing_damps_demand_spikes() {
        let mut mgr = QosManager::new(0.9, 0.25);
        let a = mgr.add_app(1.0);
        // Steady 0.2 demand...
        for _ in 0..40 {
            mgr.observe(a, 0.2);
        }
        assert!((mgr.apps[a.0].demand_ewma - 0.2).abs() < 1e-3);
        // ...then a one-epoch spike to 1.0 moves the EWMA only by alpha.
        mgr.observe(a, 1.0);
        let after_spike = mgr.apps[a.0].demand_ewma;
        assert!(after_spike < 0.45, "spike over-reacted: {after_spike}");
        // And it decays back.
        for _ in 0..20 {
            mgr.observe(a, 0.2);
        }
        assert!((mgr.apps[a.0].demand_ewma - 0.2).abs() < 0.01);
    }

    #[test]
    fn share_for_converts_to_slice() {
        let mut mgr = mgr_no_smoothing();
        let a = mgr.add_app(1.0);
        mgr.observe(a, 0.5);
        mgr.rebalance();
        let share = mgr.share_for(a, 10_000_000);
        assert_eq!(share.slice, 5_000_000);
        assert_eq!(share.period, 10_000_000);
    }

    #[test]
    fn zero_demand_app_gets_nothing() {
        let mut mgr = mgr_no_smoothing();
        let a = mgr.add_app(100.0);
        let b = mgr.add_app(1.0);
        mgr.observe(b, 1.0);
        mgr.rebalance();
        assert_eq!(mgr.granted(a), 0.0);
        assert!((mgr.granted(b) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn conservation_total_grant_never_exceeds_capacity() {
        let mut mgr = QosManager::new(0.8, 1.0);
        let ids: Vec<AppId> = (0..7).map(|i| mgr.add_app((i + 1) as f64)).collect();
        for (i, id) in ids.iter().enumerate() {
            mgr.observe(*id, 0.15 * (i + 1) as f64 % 1.0);
        }
        let total = mgr.rebalance();
        let sum: f64 = ids.iter().map(|id| mgr.granted(*id)).sum();
        assert!((sum - total).abs() < 1e-9);
        assert!(total <= 0.8 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut mgr = mgr_no_smoothing();
        mgr.add_app(0.0);
    }

    #[test]
    fn cpu_ledger_reserves_to_capacity_and_not_beyond() {
        let mut ledger = CpuLedger::new(350_000);
        ledger.reserve(300_000).unwrap();
        ledger.reserve(50_000).unwrap();
        let err = ledger.reserve(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(err.available, 0);
        assert_eq!(ledger.reserved_micro(), 350_000);
        assert!((ledger.reserved_fraction() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn cpu_ledger_failed_reserve_changes_nothing() {
        let mut ledger = CpuLedger::new(1_000);
        ledger.reserve(900).unwrap();
        assert!(ledger.reserve(200).is_err());
        assert_eq!(ledger.reserved_micro(), 900);
        ledger.reserve(100).unwrap();
    }

    #[test]
    fn cpu_ledger_release_saturates() {
        let mut ledger = CpuLedger::new(1_000);
        ledger.reserve(400).unwrap();
        ledger.release(999);
        assert_eq!(ledger.reserved_micro(), 0);
        assert_eq!(ledger.available_micro(), 1_000);
    }

    #[test]
    fn cpu_ledger_error_display() {
        let e = CpuLedgerError {
            requested: 7,
            available: 3,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('3'));
    }
}
