//! The steps the run loop takes at a control mark: sample the epoch's
//! congestion evidence, settle dropped cells' credits, act on the
//! hysteresis verdict, repair after a switch death, and find the
//! window a credit belongs to — one registry lookup, asked alike for
//! a peer's credit record and for a drop seen here. Owns the
//! live-session state of [`Scenario`] — the books, the blasts and the
//! credit-window registry. Every step runs identically on every
//! shard's replica.

use pegasus::congestion::{CongestionController, EpochSignal, Verdict};
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
    /// for the cells report. A credit is reclaimed where its window
    /// lives — the registry knows — and otherwise lands in `remote` as
    /// a `(delivery VCI, n)` record for the shard that holds it. VCIs
    /// are allocated from one network-wide counter, so any hop's label
    /// identifies exactly one circuit — on every shard.
    pub(crate) fn settle_drops(&self, remote: &mut Vec<(Vci, u64)>) -> (u64, u64) {
        let bp_enabled = self.spec.backpressure.enabled;
        // `(hop label, delivery VCI if a credit moves, admitted)`. No
        // credit moves on an uncredited flow, nor on a stranded circuit
        // whose producer is wedged by design (its credits leak with
        // the corpse); attribution still applies.
        let mut table: Vec<(Vci, Option<Vci>, bool)> = Vec::new();
        for b in &self.books {
            for (i, vc) in b.grant.vcs.iter().enumerate() {
                // Media flow 0 carries the credit window.
                let credited = (i == 0 && bp_enabled && !b.stranded[i]).then_some(vc.dst_vci);
                table.extend(vc.vcis().map(|vci| (vci, credited, true)));
            }
        }
        for (vc, _, stranded) in &self.blasts {
            // Blasts are always credited, whatever the backpressure spec.
            let credited = (!stranded).then_some(vc.dst_vci);
            table.extend(vc.vcis().map(|vci| (vci, credited, false)));
        }
        table.sort_by_key(|e| e.0);
        let mut acc = (0u64, 0u64);
        let mut settle = |drops: Vec<(Vci, u64)>, overflow: bool, acc: &mut (u64, u64)| {
            for (vci, n) in drops {
                if let Ok(idx) = table.binary_search_by_key(&vci, |e| e.0) {
                    let (_, credited, admitted) = table[idx];
                    if let Some(dst_vci) = credited {
                        match self.credit_window(dst_vci) {
                            Some(w) => w.borrow_mut().reclaim(n),
                            None => remote.push((dst_vci, n)),
                        }
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
    /// define. Every shard builds an identical replica.
    pub(crate) fn make_controller(&self) -> CongestionController {
        let bp = self.spec.backpressure;
        CongestionController::new(
            bp.down_after,
            bp.up_after,
            bp.stall_threshold,
            bp.headroom_cells,
        )
    }

    /// Samples this shard's slice of one epoch's congestion evidence:
    /// stalls from the credit windows it owns, the peak backlog of its
    /// switches (unowned replicas are silent and read zero), and slot
    /// pressure from the replicated broker ledgers. Merging every
    /// shard's sample reproduces the single-shard signal exactly.
    pub(crate) fn sample_epoch_signal(&mut self) -> EpochSignal {
        let mut sig = EpochSignal::default();
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
    /// so no later renegotiation resizes a dead circuit. Runs on every
    /// shard's full `Network` replica — route state is replicated, so
    /// the walk is identical everywhere. Returns `(rerouted, stranded)`.
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
    /// fabric has drained. Every shard calls this with the identical
    /// merged verdict against its replicated broker and network, so
    /// ledgers and grants stay byte-identical everywhere; producers are
    /// retuned only where they exist (the owner's shard).
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

    /// The credit window of the circuit delivered under `dst_vci`, if
    /// its producer lives on this shard — the one answer to "is this
    /// credit mine to move". Sealed credit returns are addressed to the
    /// producer's shard, so a miss there is an executor routing bug; a
    /// drop settles here on a hit and travels as a reclaim record on a
    /// miss; reclaim records are broadcast, and every shard but the
    /// owner misses.
    pub(crate) fn credit_window(&self, dst_vci: Vci) -> Option<&CreditRef> {
        let idx = self.credit_windows.binary_search_by_key(&dst_vci, |e| e.0);
        idx.ok().map(|i| &self.credit_windows[i].1)
    }
}
