//! The cross-layer QoS broker: end-to-end admission and renegotiation.
//!
//! The paper's thesis is that a multimedia OS must reserve resources on
//! *every* layer a session touches — CPU in the Nemesis kernel, peak
//! bandwidth on each ATM hop, and streaming capacity at the Pegasus
//! file server — and that under overload the system should renegotiate
//! sessions down gracefully rather than let everything degrade at once.
//! The broker is that policy in one place:
//!
//! * a session presents a [`ResourceVector`] — CPU share (micro-CPUs),
//!   guaranteed video bandwidth (bits/second) and file-server stream
//!   slots — as a [`SessionRequest`];
//! * the broker checks the vector against three capacity ledgers: the
//!   Nemesis [`CpuLedger`], the per-link admission controllers inside
//!   the ATM [`Network`] (via [`Network::open_vcs`], which opens all
//!   the session's flows or none), and the per-server [`StreamSlots`]
//!   ledgers of the PFS;
//! * the outcome is three-way: **admit** at the full vector, **admit
//!   degraded** at a renegotiated-down vector (the single degrade rung,
//!   `degrade_milli` thousandths of the request — bitrate, frame rate
//!   and CPU all scale down, slots never scale up), or **reject** with
//!   the layer that refused.
//!
//! Checks run in a fixed order — CPU, then PFS slots, then bandwidth.
//! The first two are reads; the third is the network's own
//! commit-or-roll-back transaction, and only once it has committed are
//! CPU and slot charged — so a refused session leaves all three
//! ledgers untouched, and "would it fit" is never asked apart from
//! "reserve it". Everything is integer accounting over a deterministic
//! network, which makes the admit/degrade/reject boundary a pure
//! function of the request sequence: the property tests in
//! `crates/scenario` hold the broker to exactly that.

use pegasus_atm::network::{EndpointId, Network, VcHandle};
use pegasus_atm::signalling::QosSpec;
use pegasus_nemesis::qosmgr::CpuLedger;
use pegasus_pfs::cm::StreamSlots;

/// The traffic classes the broker distinguishes (for reporting; the
/// admission arithmetic is class-blind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionClass {
    /// Two-party call: video plus a fixed-rate audio flow.
    Videophone,
    /// File-server playback: video flow plus one CM stream slot.
    Vod,
    /// One studio feed into a control-room stack.
    Tv,
}

/// A session's demand (or grant) on every layer at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceVector {
    /// Nemesis CPU share, in micro-CPUs (millionths of one processor).
    pub cpu_micro: u64,
    /// Guaranteed bandwidth per media flow, bits/second.
    pub video_bps: u64,
    /// Concurrent stream slots at the session's file server.
    pub pfs_slots: u32,
}

impl ResourceVector {
    /// Component-wise `<=`: renegotiation must only ever move a
    /// session's vector down, and this is the order it moves down in.
    pub fn le(&self, other: &ResourceVector) -> bool {
        self.cpu_micro <= other.cpu_micro
            && self.video_bps <= other.video_bps
            && self.pfs_slots <= other.pfs_slots
    }

    /// The vector scaled to `milli` thousandths (floor), slots kept:
    /// a degraded session still occupies one server slot.
    fn scaled(&self, milli: u64) -> ResourceVector {
        ResourceVector {
            cpu_micro: self.cpu_micro * milli / 1000,
            video_bps: self.video_bps * milli / 1000,
            pfs_slots: self.pfs_slots,
        }
    }
}

/// One media flow a session wants opened as a guaranteed VC.
#[derive(Debug, Clone, Copy)]
pub struct FlowRequest {
    /// Transmitting endpoint.
    pub src: EndpointId,
    /// Receiving endpoint.
    pub dst: EndpointId,
    /// Peak rate to reserve, bits/second. For media flows this is the
    /// request's `video_bps` (the broker scales it when degrading); for
    /// fixed flows it is reserved as-is.
    pub bps: u64,
}

/// Everything a session asks the broker for.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Class, for per-class reporting.
    pub class: SessionClass,
    /// Degradable media flows (video): reserved at the granted rate.
    pub media_flows: Vec<FlowRequest>,
    /// Non-degradable flows (audio, control): reserved at their stated
    /// rate on both rungs — a call with unintelligible audio is not a
    /// lower-quality call, it is a failed one.
    pub fixed_flows: Vec<FlowRequest>,
    /// CPU demand at full quality, micro-CPUs.
    pub cpu_micro: u64,
    /// File server whose slot ledger the session draws on, if any.
    pub pfs_server: Option<usize>,
}

impl SessionRequest {
    /// The request's full-quality resource vector.
    pub fn requested(&self) -> ResourceVector {
        ResourceVector {
            cpu_micro: self.cpu_micro,
            video_bps: self.media_flows.iter().map(|f| f.bps).max().unwrap_or(0),
            pfs_slots: if self.pfs_server.is_some() { 1 } else { 0 },
        }
    }
}

/// The layer that refused a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectLayer {
    /// The Nemesis CPU ledger was exhausted.
    Cpu,
    /// Some ATM link lacked unreserved bandwidth.
    Bandwidth,
    /// The session's file server had no free stream slot.
    PfsSlots,
}

/// The broker's three-way verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Admitted at the full requested vector.
    Admitted,
    /// Admitted at the renegotiated-down vector.
    Degraded,
    /// Refused outright; the layer is the one that refused the
    /// *degraded* rung (the binding constraint).
    Rejected(RejectLayer),
}

/// One live quality transition in a session's contract history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Renegotiation {
    /// Simulation time of the transition, nanoseconds.
    pub at_ns: u64,
    /// Quality before, thousandths of the request.
    pub from_milli: u64,
    /// Quality after.
    pub to_milli: u64,
}

/// What the broker returns: the verdict, the contract, and the opened
/// circuits (media flows first, then fixed flows, in request order).
#[derive(Debug)]
pub struct SessionGrant {
    /// The verdict.
    pub outcome: Outcome,
    /// Current quality in thousandths of the request: starts at 1000
    /// (admitted) or the broker's `degrade_milli` (degraded), 0 when
    /// rejected; live renegotiation moves it afterwards.
    pub quality_milli: u64,
    /// Quality at admission time — the contract ceiling. Live
    /// renegotiation never raises a session above this.
    pub admitted_milli: u64,
    /// What the session asked for.
    pub requested: ResourceVector,
    /// What it holds now (all zeros when rejected).
    pub granted: ResourceVector,
    /// The file server whose slot ledger was charged, when one was:
    /// [`QosBroker::release`] returns the slot there.
    pub pfs_server: Option<usize>,
    /// Guaranteed VCs opened on the session's behalf; empty when
    /// rejected. Media flows come first, then fixed flows.
    pub vcs: Vec<VcHandle>,
    /// The media flows' *full-quality* rates, in [`SessionGrant::vcs`]
    /// order — the basis live renegotiation rescales from, so repeated
    /// down/up transitions never accumulate rounding error.
    pub media_full_bps: Vec<u64>,
    /// Every live quality transition, in order — the contract history.
    pub history: Vec<Renegotiation>,
}

impl SessionGrant {
    /// Whether the session runs (admitted or degraded).
    pub fn is_admitted(&self) -> bool {
        !matches!(self.outcome, Outcome::Rejected(_))
    }

    /// The disk playback rate this grant actually buys: `nominal_bps`
    /// scaled by the admitted quality, floored at one byte/second so a
    /// degraded-but-admitted stream still progresses. Both the CM
    /// scheduler's reservation and the content cache's sequential
    /// prefetch horizon take *this* rate — the broker's contract, not
    /// the request — so prefetch never races ahead of what admission
    /// promised the array could sustain.
    pub fn disk_rate_hint(&self, nominal_bps: u64) -> u64 {
        (nominal_bps * self.quality_milli / 1000).max(1)
    }
}

/// The cross-layer QoS broker: one CPU ledger, one slot ledger per file
/// server, and the network's own per-link controllers (borrowed per
/// call — the [`Network`] stays the single owner of its bandwidth
/// books).
#[derive(Debug)]
pub struct QosBroker {
    /// Nemesis CPU capacity ledger.
    pub cpu: CpuLedger,
    /// One stream-slot ledger per file server.
    pub pfs: Vec<StreamSlots>,
    /// The single degrade rung, in thousandths of the requested vector.
    pub degrade_milli: u64,
}

impl QosBroker {
    /// Creates a broker with `cpu_capacity_micro` micro-CPUs, `servers`
    /// slot ledgers of `slots_per_server` each, and the given degrade
    /// rung (0 < `degrade_milli` <= 1000).
    pub fn new(
        cpu_capacity_micro: u64,
        servers: usize,
        slots_per_server: usize,
        degrade_milli: u64,
    ) -> Self {
        assert!(
            degrade_milli > 0 && degrade_milli <= 1000,
            "degrade rung must be in (0, 1000]"
        );
        QosBroker {
            cpu: CpuLedger::new(cpu_capacity_micro),
            pfs: vec![StreamSlots::new(slots_per_server); servers],
            degrade_milli,
        }
    }

    /// Decides a session: admit at full quality, degrade to the broker's
    /// rung, or reject. On admit/degrade every ledger is charged and the
    /// session's guaranteed VCs are opened; on reject nothing changes.
    pub fn admit(&mut self, net: &mut Network, req: &SessionRequest) -> SessionGrant {
        let requested = req.requested();
        match self.try_rung(net, req, 1000) {
            Ok(grant) => grant,
            Err(_) if self.degrade_milli < 1000 => {
                match self.try_rung(net, req, self.degrade_milli) {
                    Ok(grant) => grant,
                    Err(layer) => Self::rejection(requested, layer),
                }
            }
            Err(layer) => Self::rejection(requested, layer),
        }
    }

    /// Returns a session's resources: closes its VCs and releases its
    /// CPU and slot reservations. The grant itself records which server
    /// (if any) its slot was charged to.
    pub fn release(&mut self, net: &mut Network, grant: SessionGrant) {
        for vc in grant.vcs {
            net.close_vc(vc);
        }
        self.cpu.release(grant.granted.cpu_micro);
        if let Some(s) = grant.pfs_server {
            self.pfs[s].release();
        }
    }

    /// Free CPU capacity, micro-CPUs.
    pub fn cpu_headroom_micro(&self) -> u64 {
        self.cpu.available_micro()
    }

    /// Free stream slots across all servers.
    pub fn pfs_headroom_slots(&self) -> u64 {
        self.pfs.iter().map(|s| s.available() as u64).sum()
    }

    fn rejection(requested: ResourceVector, layer: RejectLayer) -> SessionGrant {
        SessionGrant {
            outcome: Outcome::Rejected(layer),
            quality_milli: 0,
            admitted_milli: 0,
            requested,
            granted: ResourceVector::default(),
            pfs_server: None,
            vcs: Vec::new(),
            media_full_bps: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Moves a *live* session to `new_milli` thousandths of its request
    /// — the congestion loop's actuator. Media VCs are resized in place
    /// (routes and VCIs untouched, so cells in flight are unaffected),
    /// the CPU ledger is recharged at the new rate, and the transition
    /// is appended to the grant's contract history. Fixed flows (audio)
    /// and stream slots never change — a degraded call is a lower-rate
    /// call, not a broken one.
    ///
    /// `new_milli` is clamped to the session's `admitted_milli`: live
    /// renegotiation restores, it never exceeds the admitted contract.
    /// Fails without side effects if some layer cannot carry the new
    /// rate (only possible on the way up).
    pub fn renegotiate_live(
        &mut self,
        net: &mut Network,
        grant: &mut SessionGrant,
        new_milli: u64,
        at_ns: u64,
    ) -> Result<(), RejectLayer> {
        assert!(grant.is_admitted(), "only live sessions renegotiate");
        let target = new_milli.min(grant.admitted_milli);
        let from = grant.quality_milli;
        if target == from {
            return Ok(());
        }
        let new = grant.requested.scaled(target);
        let old_cpu = grant.granted.cpu_micro;

        // CPU first: the only ledger whose reserve can refuse here.
        if new.cpu_micro >= old_cpu {
            if self.cpu.reserve(new.cpu_micro - old_cpu).is_err() {
                return Err(RejectLayer::Cpu);
            }
        } else {
            self.cpu.release(old_cpu - new.cpu_micro);
        }

        // Resize each media VC; on a refusal (possible only going up),
        // restore the ones already moved and the CPU delta.
        for i in 0..grant.media_full_bps.len() {
            let new_bps = grant.media_full_bps[i] * target / 1000;
            if net.resize_vc(&mut grant.vcs[i], new_bps).is_err() {
                for j in 0..i {
                    let old_bps = grant.media_full_bps[j] * from / 1000;
                    net.resize_vc(&mut grant.vcs[j], old_bps)
                        .expect("shrinking back always fits");
                }
                if new.cpu_micro >= old_cpu {
                    self.cpu.release(new.cpu_micro - old_cpu);
                } else {
                    self.cpu
                        .reserve(old_cpu - new.cpu_micro)
                        .expect("released capacity restores");
                }
                return Err(RejectLayer::Bandwidth);
            }
        }

        grant.granted = new;
        grant.quality_milli = target;
        grant.history.push(Renegotiation {
            at_ns,
            from_milli: from,
            to_milli: target,
        });
        Ok(())
    }

    /// Attempts one rung: all-or-nothing across the three layers, in
    /// the fixed order CPU → PFS slots → bandwidth. The two broker
    /// ledgers are only read until the network — the one layer whose
    /// answer cannot be had without trying — has committed the whole
    /// flow set or rolled it back.
    fn try_rung(
        &mut self,
        net: &mut Network,
        req: &SessionRequest,
        milli: u64,
    ) -> Result<SessionGrant, RejectLayer> {
        let requested = req.requested();
        let granted = requested.scaled(milli);

        if granted.cpu_micro > self.cpu.available_micro() {
            return Err(RejectLayer::Cpu);
        }
        if let Some(s) = req.pfs_server {
            assert!(s < self.pfs.len(), "request names a known file server");
            if self.pfs[s].available() == 0 {
                return Err(RejectLayer::PfsSlots);
            }
        }
        // Every flow of the session as one signalling transaction:
        // media flows at the rung's rate, fixed flows as stated.
        let flows: Vec<(EndpointId, EndpointId, QosSpec)> = req
            .media_flows
            .iter()
            .map(|f| (f.src, f.dst, QosSpec::guaranteed(f.bps * milli / 1000)))
            .chain(
                req.fixed_flows
                    .iter()
                    .map(|f| (f.src, f.dst, QosSpec::guaranteed(f.bps))),
            )
            .collect();
        let vcs = net.open_vcs(&flows).map_err(|_| RejectLayer::Bandwidth)?;

        // The circuits stand; nothing ran since the two reads above.
        self.cpu
            .reserve(granted.cpu_micro)
            .expect("checked against the ledger above");
        if let Some(s) = req.pfs_server {
            self.pfs[s].take().expect("checked for a free slot above");
        }
        Ok(SessionGrant {
            outcome: if milli == 1000 {
                Outcome::Admitted
            } else {
                Outcome::Degraded
            },
            quality_milli: milli,
            admitted_milli: milli,
            requested,
            granted,
            pfs_server: req.pfs_server.filter(|_| granted.pfs_slots > 0),
            vcs,
            media_full_bps: req.media_flows.iter().map(|f| f.bps).collect(),
            history: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_atm::link::CaptureSink;
    use pegasus_atm::network::LinkConfig;

    /// Two switches joined by one 100 Mbit/s trunk; every session
    /// crosses it.
    fn two_site() -> (Network, EndpointId, EndpointId) {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let a = net.add_switch("a", 8, 0);
        let b = net.add_switch("b", 8, 0);
        net.connect_switches(a, 0, b, 0, cfg);
        let src = net.add_endpoint_auto(a, cfg, CaptureSink::shared());
        let dst = net.add_endpoint_auto(b, cfg, CaptureSink::shared());
        (net, src, dst)
    }

    fn video_request(src: EndpointId, dst: EndpointId, bps: u64, cpu: u64) -> SessionRequest {
        SessionRequest {
            class: SessionClass::Videophone,
            media_flows: vec![FlowRequest { src, dst, bps }],
            fixed_flows: Vec::new(),
            cpu_micro: cpu,
            pfs_server: None,
        }
    }

    #[test]
    fn admits_at_full_quality_when_everything_fits() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 500);
        let grant = broker.admit(&mut net, &video_request(src, dst, 10_000_000, 300));
        assert_eq!(grant.outcome, Outcome::Admitted);
        assert_eq!(grant.quality_milli, 1000);
        assert_eq!(grant.granted, grant.requested);
        assert_eq!(grant.vcs.len(), 1);
        assert_eq!(broker.cpu.reserved_micro(), 300);
    }

    #[test]
    fn degrades_when_full_rate_does_not_fit() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 500);
        // 95 Mbit/s reservable: one 60M session fits, the second only
        // at the 30M degraded rung.
        let g1 = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        assert_eq!(g1.outcome, Outcome::Admitted);
        let g2 = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        assert_eq!(g2.outcome, Outcome::Degraded);
        assert_eq!(g2.quality_milli, 500);
        assert_eq!(g2.granted.video_bps, 30_000_000);
        assert!(g2.granted.le(&g2.requested));
        // A third cannot fit even degraded: 60+30+30 > 95.
        let g3 = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        assert_eq!(g3.outcome, Outcome::Rejected(RejectLayer::Bandwidth));
        assert!(g3.vcs.is_empty());
        assert_eq!(g3.granted, ResourceVector::default());
    }

    #[test]
    fn cpu_exhaustion_rejects_and_charges_nothing() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(500, 0, 0, 500);
        let g1 = broker.admit(&mut net, &video_request(src, dst, 1_000_000, 400));
        assert_eq!(g1.outcome, Outcome::Admitted);
        // 100 µCPU left: full (400) fails, degraded (200) fails too.
        let g2 = broker.admit(&mut net, &video_request(src, dst, 1_000_000, 400));
        assert_eq!(g2.outcome, Outcome::Rejected(RejectLayer::Cpu));
        assert_eq!(broker.cpu.reserved_micro(), 400);
        assert_eq!(net.max_reservation_utilization(), 0.01);
        // A cheap-enough session still degrades in on CPU: 160 µCPU
        // requested, 80 at the rung.
        let g3 = broker.admit(&mut net, &video_request(src, dst, 1_000_000, 160));
        assert_eq!(g3.outcome, Outcome::Degraded);
        assert_eq!(g3.granted.cpu_micro, 80);
    }

    #[test]
    fn pfs_slot_exhaustion_rejects() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 1, 1, 500);
        let mut vod = video_request(src, dst, 1_000_000, 100);
        vod.class = SessionClass::Vod;
        vod.pfs_server = Some(0);
        let g1 = broker.admit(&mut net, &vod);
        assert_eq!(g1.outcome, Outcome::Admitted);
        assert_eq!(g1.granted.pfs_slots, 1);
        let g2 = broker.admit(&mut net, &vod);
        assert_eq!(g2.outcome, Outcome::Rejected(RejectLayer::PfsSlots));
        assert_eq!(broker.pfs_headroom_slots(), 0);
        assert_eq!(broker.pfs[0].used(), 1);
    }

    /// Routing and reserving are one act: a same-switch pair on a dead
    /// switch needs no hop and would fit every ledger, and is refused
    /// all the same — as a verdict, with nothing charged anywhere.
    #[test]
    fn admit_on_a_dead_switch_is_a_verdict_that_charges_nothing() {
        let (mut net, src, dst) = two_site();
        let dst_switch = net.endpoint_switch(dst);
        let neighbour = net.add_endpoint_auto(
            dst_switch,
            LinkConfig::pegasus_default(),
            CaptureSink::shared(),
        );
        let mut broker = QosBroker::new(10_000, 1, 2, 500);
        let live = broker.admit(&mut net, &video_request(src, dst, 10_000_000, 300));
        assert_eq!(live.outcome, Outcome::Admitted);
        net.fail_switch(dst_switch);

        let mut req = video_request(dst, neighbour, 1_000_000, 100);
        req.pfs_server = Some(0);
        let g = broker.admit(&mut net, &req);
        assert_eq!(g.outcome, Outcome::Rejected(RejectLayer::Bandwidth));
        assert!(g.vcs.is_empty());
        assert_eq!(broker.cpu.reserved_micro(), 300);
        assert_eq!(broker.pfs[0].used(), 0);
        assert_eq!(net.max_reservation_utilization(), 0.1);
        net.audit_reservations().unwrap();
    }

    #[test]
    fn fixed_flows_are_not_degraded_but_count_against_links() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 500);
        let mut req = video_request(src, dst, 90_000_000, 100);
        req.fixed_flows.push(FlowRequest {
            src,
            dst,
            bps: 20_000_000,
        });
        // Full: 90 + 20 > 95 fails. Degraded: 45 + 20 = 65 fits, and
        // the fixed flow keeps its whole 20M.
        let g = broker.admit(&mut net, &req);
        assert_eq!(g.outcome, Outcome::Degraded);
        assert_eq!(g.vcs.len(), 2);
        assert_eq!(g.vcs[0].qos.peak_bps, 45_000_000);
        assert_eq!(g.vcs[1].qos.peak_bps, 20_000_000);
    }

    #[test]
    fn release_returns_every_resource() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(1_000, 1, 1, 500);
        let mut req = video_request(src, dst, 90_000_000, 800);
        req.pfs_server = Some(0);
        let g = broker.admit(&mut net, &req);
        assert_eq!(g.outcome, Outcome::Admitted);
        assert_eq!(g.pfs_server, Some(0));
        broker.release(&mut net, g);
        assert_eq!(broker.cpu.reserved_micro(), 0);
        assert_eq!(broker.pfs[0].used(), 0);
        assert_eq!(net.max_reservation_utilization(), 0.0);
        // The capacity is genuinely reusable.
        let g2 = broker.admit(&mut net, &req);
        assert_eq!(g2.outcome, Outcome::Admitted);
    }

    #[test]
    fn live_renegotiation_moves_down_and_back_never_above_admitted() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 500);
        let mut g = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        assert_eq!(g.outcome, Outcome::Admitted);
        let (src_vci, dst_vci) = (g.vcs[0].src_vci, g.vcs[0].dst_vci);

        broker
            .renegotiate_live(&mut net, &mut g, 500, 1_000)
            .unwrap();
        assert_eq!(g.quality_milli, 500);
        assert_eq!(g.granted.video_bps, 30_000_000);
        assert_eq!(g.vcs[0].qos.peak_bps, 30_000_000);
        assert_eq!(broker.cpu.reserved_micro(), 150);
        assert_eq!(
            (g.vcs[0].src_vci, g.vcs[0].dst_vci),
            (src_vci, dst_vci),
            "renegotiation must not disturb the circuit"
        );

        // Asking for more than admitted clamps to the admitted contract.
        broker
            .renegotiate_live(&mut net, &mut g, 1500, 2_000)
            .unwrap();
        assert_eq!(g.quality_milli, 1000);
        assert_eq!(g.granted, g.requested);
        assert_eq!(broker.cpu.reserved_micro(), 300);
        assert_eq!(g.history.len(), 2);
        assert_eq!(
            g.history[1],
            Renegotiation {
                at_ns: 2_000,
                from_milli: 500,
                to_milli: 1000
            }
        );
    }

    #[test]
    fn failed_renegotiation_up_restores_every_ledger() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 500);
        let mut g = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        broker.renegotiate_live(&mut net, &mut g, 500, 0).unwrap();
        // A newcomer takes the freed bandwidth; the way back up is shut.
        let squatter = broker.admit(&mut net, &video_request(src, dst, 50_000_000, 100));
        assert_eq!(squatter.outcome, Outcome::Admitted);
        let cpu_before = broker.cpu.reserved_micro();
        let util_before = net.max_reservation_utilization();
        let err = broker
            .renegotiate_live(&mut net, &mut g, 1000, 0)
            .unwrap_err();
        assert_eq!(err, RejectLayer::Bandwidth);
        assert_eq!(g.quality_milli, 500, "failed up keeps the current rung");
        assert_eq!(broker.cpu.reserved_micro(), cpu_before);
        assert_eq!(net.max_reservation_utilization(), util_before);
        assert_eq!(g.history.len(), 1, "a refused transition is not history");
    }

    #[test]
    fn degraded_admission_caps_the_live_ceiling() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 500);
        let _g1 = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        let mut g2 = broker.admit(&mut net, &video_request(src, dst, 60_000_000, 300));
        assert_eq!(g2.outcome, Outcome::Degraded);
        assert_eq!(g2.admitted_milli, 500);
        // Even with capacity to spare, up-renegotiation stops at the
        // admitted contract, not the original request.
        broker.renegotiate_live(&mut net, &mut g2, 1000, 0).unwrap();
        assert_eq!(g2.quality_milli, 500);
        assert!(g2.history.is_empty(), "clamped no-op records nothing");
    }

    #[test]
    fn degrade_rung_of_1000_means_no_second_attempt() {
        let (mut net, src, dst) = two_site();
        let mut broker = QosBroker::new(10_000, 0, 0, 1000);
        let _ = broker.admit(&mut net, &video_request(src, dst, 90_000_000, 100));
        let g = broker.admit(&mut net, &video_request(src, dst, 90_000_000, 100));
        assert_eq!(g.outcome, Outcome::Rejected(RejectLayer::Bandwidth));
    }

    #[test]
    #[should_panic(expected = "degrade rung")]
    fn zero_degrade_rung_rejected() {
        QosBroker::new(1, 0, 0, 0);
    }
}
