//! Fault injection for the Nemesis control plane.
//!
//! The paper's QoS story (§3.3) is only credible if the manager holds up
//! when the system misbehaves: a rogue domain suddenly demanding the
//! whole CPU, or a misconfigured weight starving the media application.
//! A [`FaultSchedule`] declares such incidents on the virtual-time axis;
//! [`EpochDriver::run`] replays the schedule against a [`QosManager`]
//! epoch by epoch and reports how often the media application was
//! starved of its demand — the control-plane half of a scenario's
//! deadline-miss budget.

use crate::qosmgr::{AppId, QosManager};
use pegasus_sim::stats::Histogram;
use pegasus_sim::time::Ns;

/// One scheduled control-plane incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// A rogue application with `weight` demanding `demand` of the CPU
    /// joins at `at` and leaves at `until`.
    LoadSpike {
        /// Onset (virtual time).
        at: Ns,
        /// End of the incident.
        until: Ns,
        /// CPU fraction the rogue demands, in `[0, 1]`.
        demand: f64,
        /// User weight the rogue competes with.
        weight: f64,
    },
    /// The media application's weight is multiplied by `factor`
    /// (a misconfiguration window) between `at` and `until`.
    WeightCut {
        /// Onset (virtual time).
        at: Ns,
        /// End of the incident.
        until: Ns,
        /// Multiplier applied to the media app's weight (< 1 starves).
        factor: f64,
    },
}

impl Fault {
    fn active(&self, now: Ns) -> bool {
        let (at, until) = match *self {
            Fault::LoadSpike { at, until, .. } => (at, until),
            Fault::WeightCut { at, until, .. } => (at, until),
        };
        now >= at && now < until
    }
}

/// A declarative list of control-plane incidents.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// The incidents, in any order.
    pub faults: Vec<Fault>,
}

impl FaultSchedule {
    /// A schedule with no incidents.
    pub fn none() -> Self {
        Self::default()
    }
}

/// What an epoch replay observed.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Epochs simulated.
    pub epochs: u64,
    /// Epochs in which the media application was granted less than its
    /// demand (control-plane deadline misses).
    pub starved_epochs: u64,
    /// Per-epoch delivered quality of the media app, in thousandths
    /// (grant ÷ demand × 1000), for percentile reporting.
    pub quality_milli: Histogram,
}

/// Replays a [`FaultSchedule`] against a [`QosManager`].
pub struct EpochDriver;

impl EpochDriver {
    /// Runs `mgr` from time 0 to `until` in steps of `epoch`. Every
    /// epoch the media application `media` demands `media_demand`, the
    /// background apps keep whatever demand was last observed for them,
    /// active [`Fault::LoadSpike`]s contribute rogue apps, and active
    /// [`Fault::WeightCut`]s scale the media weight; then the manager
    /// rebalances and the media grant is scored.
    pub fn run(
        mgr: &mut QosManager,
        media: AppId,
        media_demand: f64,
        schedule: &FaultSchedule,
        epoch: Ns,
        until: Ns,
    ) -> EpochReport {
        assert!(epoch > 0, "epoch must be positive");
        let mut report = EpochReport::default();
        // The driver pins the media weight to a 1.0 baseline for the
        // run (the manager has no weight getter to restore from); spike
        // weights are expressed relative to it.
        let media_weight = 1.0;
        mgr.set_weight(media, media_weight);
        let mut spikes: Vec<(usize, AppId)> = Vec::new();
        let mut now = 0;
        while now < until {
            mgr.observe(media, media_demand);
            // Register/deregister spike apps as their windows open/close.
            for (i, fault) in schedule.faults.iter().enumerate() {
                if let Fault::LoadSpike { demand, weight, .. } = *fault {
                    let registered = spikes.iter().position(|&(fi, _)| fi == i);
                    match (fault.active(now), registered) {
                        (true, None) => {
                            let id = mgr.add_app(weight);
                            mgr.observe(id, demand);
                            spikes.push((i, id));
                        }
                        (true, Some(k)) => mgr.observe(spikes[k].1, demand),
                        (false, Some(k)) => {
                            let (_, id) = spikes.remove(k);
                            mgr.remove_app(id);
                        }
                        (false, None) => {}
                    }
                }
            }
            let mut weight = media_weight;
            for fault in &schedule.faults {
                if let Fault::WeightCut { factor, .. } = *fault {
                    if fault.active(now) {
                        weight *= factor;
                    }
                }
            }
            mgr.set_weight(media, weight.max(1e-6));
            mgr.rebalance();
            let granted = mgr.granted(media);
            report.epochs += 1;
            if granted + 1e-9 < media_demand {
                report.starved_epochs += 1;
            }
            let quality = if media_demand > 0.0 {
                (granted / media_demand).min(1.0)
            } else {
                1.0
            };
            report
                .quality_milli
                .record((quality * 1000.0).round() as u64);
            now += epoch;
        }
        for (_, id) in spikes {
            mgr.remove_app(id);
        }
        mgr.set_weight(media, media_weight);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_sim::time::MS;

    fn mgr_with_media() -> (QosManager, AppId) {
        let mut mgr = QosManager::new(0.9, 1.0);
        let media = mgr.add_app(1.0);
        (mgr, media)
    }

    #[test]
    fn quiet_schedule_never_starves() {
        let (mut mgr, media) = mgr_with_media();
        let r = EpochDriver::run(
            &mut mgr,
            media,
            0.5,
            &FaultSchedule::none(),
            10 * MS,
            200 * MS,
        );
        assert_eq!(r.epochs, 20);
        assert_eq!(r.starved_epochs, 0);
        assert_eq!(r.quality_milli.max(), Some(1000));
    }

    #[test]
    fn load_spike_starves_only_its_window() {
        let (mut mgr, media) = mgr_with_media();
        let schedule = FaultSchedule {
            faults: vec![Fault::LoadSpike {
                at: 50 * MS,
                until: 100 * MS,
                demand: 1.0,
                weight: 8.0,
            }],
        };
        let r = EpochDriver::run(&mut mgr, media, 0.6, &schedule, 10 * MS, 200 * MS);
        // 5 epochs inside the window: media gets 0.9/9 = 0.1 < 0.6.
        assert_eq!(r.starved_epochs, 5, "starved {} epochs", r.starved_epochs);
        assert!(r.quality_milli.min().unwrap() < 200);
    }

    #[test]
    fn weight_cut_starves_against_background_load() {
        let mut mgr = QosManager::new(0.9, 1.0);
        let media = mgr.add_app(1.0);
        let bg = mgr.add_app(1.0);
        mgr.observe(bg, 1.0);
        let schedule = FaultSchedule {
            faults: vec![Fault::WeightCut {
                at: 0,
                until: 50 * MS,
                factor: 0.01,
            }],
        };
        let r = EpochDriver::run(&mut mgr, media, 0.6, &schedule, 10 * MS, 100 * MS);
        assert!(r.starved_epochs >= 5, "starved {}", r.starved_epochs);
        // After the run the media weight is restored.
        let mut check = mgr;
        check.observe(media, 1.0);
        check.rebalance();
        assert!(check.granted(media) > 0.3);
    }

    #[test]
    fn spikes_are_cleaned_up_after_the_run() {
        let (mut mgr, media) = mgr_with_media();
        let schedule = FaultSchedule {
            faults: vec![Fault::LoadSpike {
                at: 0,
                until: 100 * MS,
                demand: 1.0,
                weight: 4.0,
            }],
        };
        let _ = EpochDriver::run(&mut mgr, media, 0.5, &schedule, 10 * MS, 100 * MS);
        // With the rogue removed, media gets its full demand again.
        mgr.observe(media, 0.5);
        mgr.rebalance();
        assert!((mgr.granted(media) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn determinism_same_schedule_same_report() {
        let run = || {
            let (mut mgr, media) = mgr_with_media();
            let schedule = FaultSchedule {
                faults: vec![
                    Fault::LoadSpike {
                        at: 20 * MS,
                        until: 60 * MS,
                        demand: 0.9,
                        weight: 3.0,
                    },
                    Fault::WeightCut {
                        at: 40 * MS,
                        until: 80 * MS,
                        factor: 0.2,
                    },
                ],
            };
            let r = EpochDriver::run(&mut mgr, media, 0.4, &schedule, 10 * MS, 120 * MS);
            (
                r.epochs,
                r.starved_epochs,
                r.quality_milli.clone().summarize(),
            )
        };
        assert_eq!(run(), run());
    }
}
