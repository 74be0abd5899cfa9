//! Compiling a [`ScenarioSpec`] into a wired system and running it.
//!
//! The builder assembles a [`System`] piecewise — fabric from the
//! topology spec, then per-session devices attached directly to fabric
//! switches — schedules every session's start/stop on the engine,
//! applies the fault schedule, runs to the drain deadline, and folds
//! every layer's statistics into a [`ScenarioReport`].
//!
//! Every session is admitted through the cross-layer QoS broker
//! ([`pegasus::broker::QosBroker`]): its requested resource vector —
//! CPU share, guaranteed video bandwidth (both scaled by the mix's
//! `load` factor) and a file-server stream slot for VoD — is checked
//! against the Nemesis CPU ledger, every ATM hop, and the per-server
//! slot ledgers. Admitted sessions run at full quality; degraded ones
//! at the broker's rung (halved bitrate, frame rate, codec quality and
//! CPU by default); rejected ones are not wired at all. The per-session
//! [`SessionContract`]s, outcome counts and capacity-headroom samples
//! land in the report's `broker` section.
//!
//! Everything stochastic (placement, start times, scenes) draws from
//! one RNG seeded by the spec, so a report is a pure function of
//! `(spec, seed)` — the property the CI determinism gate enforces.
//! Admission is part of that function: which sessions are admitted,
//! degraded or rejected is byte-for-byte reproducible.

//!
//! The phases are split along the [`Scenario`] fields each one owns:
//! `wire` raises the topology and admits and wires every session,
//! `faults` arms the fault schedule and derives the control timeline,
//! `control` holds the steps the run loop takes at a control mark, and
//! `collect` folds what was measured into the report. The run loop
//! itself is the executor's (`crate::executor`): [`Scenario::run`] is
//! its one-shard case.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus::broker::{
    Outcome, QosBroker, RejectLayer, ResourceVector, SessionClass, SessionGrant,
};
use pegasus::system::System;
use pegasus_atm::credit::CreditRef;
use pegasus_atm::link::Link;
use pegasus_atm::network::{Network, VcHandle};
use pegasus_devices::audio::AudioSink;
use pegasus_devices::camera::Camera;
use pegasus_devices::display::Display;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::log::{FileId, LogFs};
use pegasus_pfs::tier::TieredCache;
use pegasus_sim::stats::Histogram;
use pegasus_sim::time::{Ns, MS};
use pegasus_sim::Simulator;
use pegasus_streams::playback::{ArrivalSink, PlaybackControl, StreamId};

use crate::partition::ShardPlan;
use crate::report::{BrokerReport, ScenarioReport};
use crate::spec::ScenarioSpec;

mod collect;
mod control;
mod faults;
mod wire;

pub use collect::{assemble, ShardOutcome};
pub(crate) use faults::{control_marks, ControlMark};
pub use wire::compile_for;

/// CM service period for VoD disk scheduling. A small read still costs
/// a whole RAID stripe (~51 ms on the 1994 array), so the period is
/// sized to amortize one stripe per stream; a server meets its
/// deadlines while `streams × stripe_time < period`.
const VOD_PERIOD: Ns = 500 * MS;

/// CM periods replayed for a run of `duration`.
fn vod_periods(duration: Ns) -> u64 {
    (duration / VOD_PERIOD).max(1)
}

/// One VoD file server: a log file system with pre-recorded
/// continuous-media titles, a rate-guaranteed scheduler over it, and —
/// when the spec enables it — a tiered content cache in front of the
/// log store.
struct VodServer {
    fs: LogFs,
    cm: CmScheduler,
    /// Pre-recorded titles; sessions pick one (title 0 when the spec
    /// records a single title, the classic world).
    files: Vec<FileId>,
    cache: Option<TieredCache>,
}

/// One VoD client's receive side: controller, its stream id, and the
/// cell sink feeding it.
type VodClient = (
    Rc<RefCell<PlaybackControl>>,
    StreamId,
    Rc<RefCell<ArrivalSink>>,
);

/// One live session's running state, kept for the whole run: the
/// broker's grant (whose `vcs` the congestion loop resizes in place),
/// the producer to retune after a renegotiation, and the media
/// circuit's credit window. Also the set signalling walks when a switch
/// dies — `stranded[i]` marks circuits repair gave up on, so no later
/// renegotiation touches their released reservations.
struct SessionBook {
    grant: SessionGrant,
    class: SessionClass,
    /// The media producer (camera, or the VoD paced pusher).
    camera: Option<Rc<RefCell<Camera>>>,
    /// The media circuit's credit window, when backpressure is on.
    credit: Option<CreditRef>,
    /// Parallel to `grant.vcs`: circuit `i` was stranded by a switch
    /// death (reservations already released — never resize it again).
    stranded: Vec<bool>,
}

/// One session's admission record: what it asked for, what the broker
/// granted, and the verdict. The property tests hold the broker to
/// these (ledgers never exceeded, renegotiation only lowers, outcomes
/// a pure function of `(spec, seed)`).
#[derive(Debug, Clone, Copy)]
pub struct SessionContract {
    /// The session's class.
    pub class: SessionClass,
    /// The broker's verdict.
    pub outcome: Outcome,
    /// Requested resource vector (at the mix's load factor).
    pub requested: ResourceVector,
    /// Granted vector (all zeros when rejected).
    pub granted: ResourceVector,
}

/// Outcome counts, per-class quality sums and capacity-headroom samples
/// accumulated while sessions are admitted, folded into
/// [`BrokerReport`] at report time.
#[derive(Default)]
struct BrokerTally {
    admitted: u64,
    degraded: u64,
    rejected: u64,
    rejected_cpu: u64,
    rejected_bandwidth: u64,
    rejected_pfs: u64,
    quality_sum: [u64; 3],
    quality_n: [u64; 3],
    headroom_cpu: Histogram,
    headroom_bw: Histogram,
    headroom_pfs: Histogram,
}

impl BrokerTally {
    /// Records one decision and samples every layer's headroom — the
    /// "capacity headroom over time" series of the report.
    fn record(
        &mut self,
        grant: &SessionGrant,
        class: SessionClass,
        net: &Network,
        broker: &QosBroker,
    ) {
        match grant.outcome {
            Outcome::Admitted => self.admitted += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Rejected(layer) => {
                self.rejected += 1;
                match layer {
                    RejectLayer::Cpu => self.rejected_cpu += 1,
                    RejectLayer::Bandwidth => self.rejected_bandwidth += 1,
                    RejectLayer::PfsSlots => self.rejected_pfs += 1,
                }
            }
        }
        let idx = match class {
            SessionClass::Videophone => 0,
            SessionClass::Vod => 1,
            SessionClass::Tv => 2,
        };
        self.quality_sum[idx] += grant.quality_milli;
        self.quality_n[idx] += 1;
        self.headroom_cpu.record(broker.cpu_headroom_micro());
        let bw = (net.reservable_fraction - net.max_reservation_utilization()) * 1000.0;
        self.headroom_bw.record(bw.max(0.0).floor() as u64);
        self.headroom_pfs.record(broker.pfs_headroom_slots());
    }

    fn quality(&self, idx: usize) -> u64 {
        // A class with no sessions degraded nothing: full quality.
        self.quality_sum[idx]
            .checked_div(self.quality_n[idx])
            .unwrap_or(1000)
    }

    fn into_report(mut self) -> BrokerReport {
        BrokerReport {
            admitted: self.admitted,
            degraded: self.degraded,
            rejected: self.rejected,
            rejected_cpu: self.rejected_cpu,
            rejected_bandwidth: self.rejected_bandwidth,
            rejected_pfs: self.rejected_pfs,
            quality_milli: (self.quality(0), self.quality(1), self.quality(2)),
            headroom_cpu: self.headroom_cpu.summarize(),
            headroom_bandwidth: self.headroom_bw.summarize(),
            headroom_pfs: self.headroom_pfs.summarize(),
        }
    }
}

/// A compiled scenario, ready to run.
pub struct Scenario {
    spec: ScenarioSpec,
    /// The shard this compilation materialized: which switches it owns,
    /// how many peers it has, whether it is the coordinator.
    /// [`compile`] uses [`ShardPlan::single`].
    plan: ShardPlan,
    /// The assembled installation.
    pub sys: System,
    /// The engine that will drive it.
    pub sim: Simulator,
    /// Per-class session counts (videophone, vod, tv) — requested, not
    /// admitted; the broker section of the report gives the outcomes.
    pub counts: (usize, usize, usize),
    /// The QoS broker holding the run's capacity ledgers.
    pub broker: QosBroker,
    /// One contract per requested session, in setup order.
    pub contracts: Vec<SessionContract>,
    tally: BrokerTally,
    /// Single-stream displays (one videophone session each).
    displays: Vec<Rc<RefCell<Display>>>,
    /// Control-room displays merging a whole TV group's feeds.
    tv_displays: Vec<Rc<RefCell<Display>>>,
    audio_sinks: Vec<Rc<RefCell<AudioSink>>>,
    vod_clients: Vec<VodClient>,
    tx_links: Vec<Rc<RefCell<Link>>>,
    vod_servers: Vec<VodServer>,
    /// One book entry per admitted session: the grant (held live so the
    /// congestion loop can renegotiate it), the producer, the credit
    /// window, and the circuits signalling repairs after a switch death.
    books: Vec<SessionBook>,
    /// Best-effort blast circuits (congestion sources), with their own
    /// credit windows: pressure by construction, never overflow. The
    /// bool marks a blast stranded by a switch death.
    blasts: Vec<(VcHandle, CreditRef, bool)>,
}

impl Scenario {
    /// The shard plan this scenario was compiled under.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The spec this scenario was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// When the engine stops: the run length plus a drain long enough
    /// for held playback items to present. Every shard computes the
    /// same deadline, so the epoch loops agree on the final barrier.
    pub fn end_time(&self) -> Ns {
        self.spec.duration + self.spec.drain.max(self.spec.vod_target_latency + 20 * MS)
    }

    /// Runs the compiled scenario to completion and reports: the
    /// executor's run loop with no peers, then the same fold a
    /// multi-shard run ends in. The engine may already have been
    /// advanced by the caller (the public `sim` field); the loop only
    /// ever runs it forward.
    pub fn run(self) -> ScenarioReport {
        assert_eq!(
            self.plan.shards, 1,
            "multi-shard scenarios run under run_sharded"
        );
        let spec = self.spec.clone();
        assemble(&spec, vec![crate::executor::drive(self, None)])
    }
}

/// Compiles `spec` into a wired, scheduled [`Scenario`] that owns the
/// whole city.
pub fn compile(spec: &ScenarioSpec) -> Scenario {
    compile_for(spec, ShardPlan::single())
}

/// Compiles and runs `spec` in one call.
pub fn run(spec: &ScenarioSpec) -> ScenarioReport {
    compile(spec).run()
}

/// Runs the spec once per seed — the multi-seed sweep used by soak
/// jobs. Each run is independent and deterministic for its seed.
pub fn run_seeds(spec: &ScenarioSpec, seeds: &[u64]) -> Vec<ScenarioReport> {
    seeds
        .iter()
        .map(|&s| run(&spec.clone().with_seed(s)))
        .collect()
}
