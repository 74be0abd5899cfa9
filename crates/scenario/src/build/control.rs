//! The steps the run loop takes at a control mark: sample the epoch's
//! congestion evidence, settle dropped cells' credits, act on the
//! hysteresis verdict, repair after a switch death. Owns the
//! live-session state of [`Scenario`] — the books and the blasts. A
//! spec with control marks runs on one shard, so every step sees the
//! whole city; `settle_drops` alone also runs at the end of a sharded
//! data-plane run, where no circuit is credited.

use pegasus::congestion::{CongestionController, CongestionSignal, Verdict};
use pegasus_atm::cell::Vci;
use pegasus_atm::credit::CreditRef;
use pegasus_atm::network::{SwitchId, VcHandle};
use pegasus_devices::camera::{CameraConfig, VideoMode};
use pegasus_sim::time::Ns;

use super::Scenario;

/// The camera settings a session runs at after renegotiation: frame
/// rate and Motion-JPEG quality scale with the granted rung (floored,
/// never below 1), so a degraded session offers the network less load
/// — the whole point of renegotiating down instead of dropping cells.
pub(super) fn camera_for(cfg: CameraConfig, quality_milli: u64) -> CameraConfig {
    if quality_milli >= 1000 {
        return cfg;
    }
    let mut degraded = cfg;
    degraded.fps = ((cfg.fps as u64 * quality_milli / 1000).max(1)) as u32;
    if let VideoMode::Mjpeg(q) = cfg.mode {
        degraded.mode = VideoMode::Mjpeg(((q as u64 * quality_milli / 1000).max(1)) as u8);
    }
    degraded
}

impl Scenario {
    /// Settles the fabric's per-VCI drop counters against the session
    /// books: every dropped cell on a credited circuit has its credit
    /// reclaimed (the consumer will never see the cell, so it can never
    /// return it), and drops on an *admitted* session's circuits are
    /// attributed by cause. Returns `(admitted overflow, admitted outage)`
    /// for the cells report. VCIs are allocated from one network-wide
    /// counter, so any hop's label identifies exactly one circuit.
    pub(crate) fn settle_drops(&self) -> (u64, u64) {
        // `(hop label, the window a credit moves on, admitted)`. No
        // credit moves on an uncredited flow, nor on a stranded circuit
        // whose producer is wedged by design (its credits leak with
        // the corpse); attribution still applies.
        let mut table: Vec<(Vci, Option<&CreditRef>, bool)> = Vec::new();
        for b in &self.books {
            for (i, vc) in b.grant.vcs.iter().enumerate() {
                // Media flow 0 carries the credit window.
                let credited = b.credit.as_ref().filter(|_| i == 0 && !b.stranded[i]);
                table.extend(vc.vcis().map(|vci| (vci, credited, true)));
            }
        }
        for (vc, w, stranded) in &self.blasts {
            let credited = (!stranded).then_some(w);
            table.extend(vc.vcis().map(|vci| (vci, credited, false)));
        }
        table.sort_by_key(|e| e.0);
        let mut acc = (0u64, 0u64);
        let settle = |drops: Vec<(Vci, u64)>, overflow: bool, acc: &mut (u64, u64)| {
            for (vci, n) in drops {
                if let Ok(idx) = table.binary_search_by_key(&vci, |e| e.0) {
                    let (_, credited, admitted) = table[idx];
                    if let Some(w) = credited {
                        w.borrow_mut().reclaim(n);
                    }
                    if admitted {
                        if overflow {
                            acc.0 += n;
                        } else {
                            acc.1 += n;
                        }
                    }
                }
            }
        };
        for i in 0..self.sys.net.switch_count() {
            let sw = self.sys.net.switch(SwitchId(i));
            let mut sw = sw.borrow_mut();
            settle(sw.take_dropped_by_vci(), true, &mut acc);
            let mut outage: Vec<(Vci, u64)> = Vec::new();
            for link in sw.output_links_mut() {
                outage.extend(link.take_dropped_by_vci());
            }
            settle(outage, false, &mut acc);
        }
        acc
    }

    /// The congestion controller the spec's hysteresis constants
    /// define.
    pub(crate) fn make_controller(&self) -> CongestionController {
        let bp = self.spec.backpressure;
        CongestionController::new(
            bp.down_after,
            bp.up_after,
            bp.stall_threshold,
            bp.headroom_cells,
        )
    }

    /// Samples one epoch's congestion evidence: stalls from the media
    /// circuits' credit windows, the peak backlog of the switches, and
    /// slot pressure from the broker's ledgers.
    pub(crate) fn sample_epoch_signal(&mut self) -> CongestionSignal {
        let mut sig = CongestionSignal::default();
        for b in &mut self.books {
            if let Some(w) = &b.credit {
                sig.credit_stalls += w.borrow_mut().take_epoch_stalls();
            }
        }
        for i in 0..self.sys.net.switch_count() {
            let sw = self.sys.net.switch(SwitchId(i));
            sig.peak_queue_cells = sig
                .peak_queue_cells
                .max(sw.borrow_mut().stats.take_epoch_peak());
        }
        sig.cm_slot_pressure = self.counts.1 > 0 && self.broker.pfs_headroom_slots() == 0;
        sig
    }

    /// Kills fabric switch `switch` and repairs the circuits that
    /// crossed it. Signalling walks every live circuit: those crossing
    /// the corpse are re-routed with their endpoint VCIs pinned so the
    /// attached devices (and their credit registrations, keyed by
    /// delivery VCI) never notice; circuits that cannot be repaired are
    /// stranded, their reservations released and their book slot marked
    /// so no later renegotiation resizes a dead circuit. Returns
    /// `(rerouted, stranded)`.
    pub(crate) fn apply_death(&mut self, switch: usize) -> (u64, u64) {
        let sw = self.sys.fabric[switch];
        let net = &mut self.sys.net;
        net.fail_switch(sw);
        let (mut rerouted, mut stranded_n) = (0u64, 0u64);
        let mut repair = |vc: &mut VcHandle, stranded: &mut bool| {
            if *stranded || !vc.crosses_switch(sw) {
                return;
            }
            match net.reroute_vc(vc.clone()) {
                Ok(repaired) => {
                    rerouted += 1;
                    *vc = repaired;
                }
                Err(_) => {
                    stranded_n += 1;
                    *stranded = true;
                }
            }
        };
        for b in &mut self.books {
            for (vc, stranded) in b.grant.vcs.iter_mut().zip(&mut b.stranded) {
                repair(vc, stranded);
            }
        }
        for (vc, _, stranded) in &mut self.blasts {
            repair(vc, stranded);
        }
        (rerouted, stranded_n)
    }

    /// Acts on one epoch's hysteresis verdict: one rung down under
    /// sustained pressure, back toward the admitted contract once the
    /// fabric has drained.
    pub(crate) fn apply_verdict(&mut self, verdict: Verdict, at: Ns) {
        if verdict == Verdict::Hold {
            return;
        }
        let rung = self.spec.broker.degrade_milli;
        let camera_cfg = self.spec.camera;
        for b in &mut self.books {
            if b.stranded.iter().any(|&s| s) {
                continue;
            }
            let target = match verdict {
                Verdict::Down => (b.grant.quality_milli * rung / 1000).max(1),
                Verdict::Up => b.grant.admitted_milli,
                Verdict::Hold => unreachable!(),
            };
            if self
                .broker
                .renegotiate_live(&mut self.sys.net, &mut b.grant, target, at)
                .is_ok()
            {
                if let Some(cam) = &b.camera {
                    let cfg = camera_for(camera_cfg, b.grant.quality_milli);
                    let mut cam = cam.borrow_mut();
                    cam.set_fps(cfg.fps);
                    cam.set_mode(cfg.mode);
                }
            }
        }
    }
}
