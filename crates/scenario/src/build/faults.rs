//! The fault schedule: network incidents armed on the engine at
//! compile time, and the control timeline (`control_marks`) the run
//! loop pauses at. Owns the `blasts` field of [`Scenario`].

use pegasus_atm::cell::{Cell, CELL_SIZE};
use pegasus_atm::credit::CreditSink;
use pegasus_atm::network::LinkConfig;
use pegasus_atm::signalling::QosSpec;
use pegasus_sim::time::{Ns, SEC};

use super::wire::{planned_servers, NullSink};
use super::Scenario;
use crate::spec::{FaultSpec, ScenarioSpec};

/// A point on the control-plane timeline where the engine must pause:
/// a switch death (structural repair) or a congestion epoch boundary
/// (sampling + renegotiation). A spec that has any runs on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlMark {
    /// `SwitchDeath` fault on this fabric switch.
    Death(usize),
    /// Backpressure congestion-epoch boundary.
    Epoch,
}

/// The sorted control-plane timeline of `spec`: deaths at their fault
/// times, epoch boundaries on the backpressure grid. Stable by
/// `(time, kind)` with deaths first, so a death at an epoch boundary
/// lands before the sample. Marks past the run's `duration` clamp to
/// it.
pub(crate) fn control_marks(spec: &ScenarioSpec) -> Vec<(Ns, ControlMark)> {
    let bp = spec.backpressure;
    let mut marks: Vec<(Ns, ControlMark)> = spec
        .faults
        .iter()
        .filter_map(|f| match *f {
            FaultSpec::SwitchDeath { at, switch } => {
                Some((at.min(spec.duration), ControlMark::Death(switch)))
            }
            _ => None,
        })
        .collect();
    if bp.enabled {
        let mut t = bp.epoch.max(1);
        while t <= spec.duration {
            marks.push((t, ControlMark::Epoch));
            t += bp.epoch.max(1);
        }
    }
    marks.sort_by_key(|&(t, m)| (t, m == ControlMark::Epoch));
    marks
}

impl Scenario {
    /// Arms the spec's network incidents on the engine. `SwitchDeath`
    /// and `DiskFail` are only validated here: the first needs the
    /// (exclusively owned) `Network` for signalling repair, so the run
    /// loop applies it at its control mark; the second lands on the
    /// post-hoc CM replay.
    pub(super) fn arm_faults(&mut self) {
        let duration = self.spec.duration;
        let n_fabric = self.sys.fabric.len();
        for i in 0..self.spec.faults.len() {
            match self.spec.faults[i] {
                FaultSpec::SwitchDegrade {
                    at,
                    switch,
                    queue_capacity,
                } => {
                    assert!(switch < n_fabric, "fault names a fabric switch");
                    // Armed only on the owner: the degradation bites where
                    // cells transit the switch, and only the owner's
                    // replica carries traffic.
                    if self.plan.owns(switch) {
                        let sw = self.sys.net.switch(self.sys.fabric[switch]).clone();
                        self.sim.schedule_at(at.min(duration), move |_| {
                            sw.borrow_mut().queue_capacity = queue_capacity;
                        });
                    }
                }
                FaultSpec::LinkFlap { at, until, switch } => {
                    assert!(switch < n_fabric, "fault names a fabric switch");
                    assert!(until >= at, "flap must end after it starts");
                    // Outage drops happen at send time on the transmitting
                    // switch's output links, so the owner arms the flap —
                    // including on cut trunks, whose tx side it owns.
                    if self.plan.owns(switch) {
                        let sw = self.sys.net.switch(self.sys.fabric[switch]).clone();
                        self.sim.schedule_at(at.min(duration), move |_| {
                            for link in sw.borrow_mut().output_links_mut() {
                                link.set_outage_until(until);
                            }
                        });
                    }
                }
                FaultSpec::BestEffortBlast {
                    at,
                    until,
                    from_switch,
                    to_switch,
                    rate_bps,
                    window,
                } => {
                    assert!(
                        from_switch < n_fabric && to_switch < n_fabric,
                        "blast names fabric switches"
                    );
                    assert!(until >= at, "blast must end after it starts");
                    assert!(rate_bps > 0 && window > 0, "blast needs rate and credits");
                    self.arm_blast(at, until, from_switch, to_switch, rate_bps, window);
                }
                FaultSpec::SwitchDeath { switch, .. } => {
                    assert!(switch < n_fabric, "fault names a fabric switch");
                }
                FaultSpec::DiskFail { server, disk, .. } => {
                    // Validated against the planned server count, not the
                    // materialized set — worker shards materialize none.
                    let planned = planned_servers(&self.spec, self.counts.1);
                    assert!(server < planned.max(1), "fault names a VoD server");
                    assert!(
                        disk <= pegasus_pfs::raid::DATA_DISKS,
                        "fault names a RAID member"
                    );
                }
                FaultSpec::CpuLoadSpike { .. } => {}
            }
        }
    }

    /// Wires one best-effort blast circuit and the pump that drives
    /// it. The injector gets its own fat access link so the bottleneck
    /// is the shared trunk, not its first hop; the sink end discards
    /// behind a credit gate that returns credits as cells drain — which
    /// is exactly what bounds the standing queue the blast builds in
    /// the fabric.
    fn arm_blast(
        &mut self,
        at: Ns,
        until: Ns,
        from_switch: usize,
        to_switch: usize,
        rate_bps: u64,
        window: u64,
    ) {
        let duration = self.spec.duration;
        let blast_link = LinkConfig {
            rate_bps,
            prop_delay: self.spec.topology.link.prop_delay,
        };
        let src_ep = self.sys.net.add_endpoint_auto(
            self.sys.fabric[from_switch],
            blast_link,
            NullSink::shared(),
        );
        // Blasts are always credited, whatever the backpressure spec.
        let gate = CreditSink::wrap(NullSink::shared());
        let dst_ep = self.sys.device(to_switch, gate.clone());
        let vc = self
            .sys
            .net
            .open_vc(src_ep, dst_ep, QosSpec::best_effort(0))
            .expect("best-effort blast needs only a route");
        let w = self.wire_credit(window, vc.dst_vci, from_switch, to_switch, &gate);
        let tx = self.sys.net.endpoint_tx(src_ep);
        self.tx_links.push(tx.clone());
        // Offer bursts at the injector's line rate; an empty window
        // holds the whole burst at the source.
        const BURST: u64 = 32;
        let tick: Ns = BURST * CELL_SIZE as u64 * 8 * SEC / rate_bps;
        let vci = vc.src_vci;
        let until_t = until.min(duration);
        let pump_w = w.clone();
        self.sim.schedule_at(at.min(duration), move |sim| {
            let pump_w = pump_w.clone();
            let tx = tx.clone();
            sim.schedule_chain(move |sim| {
                if sim.now() >= until_t {
                    return None;
                }
                if pump_w.borrow_mut().try_acquire_at(sim.now(), BURST) {
                    let mut l = tx.borrow_mut();
                    for _ in 0..BURST {
                        l.send(sim, Cell::new(vci));
                    }
                }
                Some(sim.now() + tick.max(1))
            });
        });
        self.blasts.push((vc, w, false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BackpressureSpec;
    use pegasus_sim::time::MS;

    /// The timeline's two ordering rules: a death landing exactly on
    /// an epoch boundary is repaired before that epoch is sampled, and
    /// a death scheduled past the run's duration clamps to it.
    #[test]
    fn deaths_sort_before_a_same_time_epoch_and_clamp_to_duration() {
        let mut spec = ScenarioSpec::base("marks");
        spec.duration = 25 * MS;
        spec.backpressure = BackpressureSpec {
            enabled: true,
            epoch: 10 * MS,
            ..spec.backpressure
        };
        // Listed late-first: the sort, not spec order, places them.
        spec.faults = vec![
            FaultSpec::SwitchDeath {
                at: 40 * MS,
                switch: 2,
            },
            FaultSpec::SwitchDeath {
                at: 20 * MS,
                switch: 1,
            },
        ];
        assert_eq!(
            control_marks(&spec),
            vec![
                (10 * MS, ControlMark::Epoch),
                (20 * MS, ControlMark::Death(1)),
                (20 * MS, ControlMark::Epoch),
                (25 * MS, ControlMark::Death(2)),
            ]
        );
    }
}
