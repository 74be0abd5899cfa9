//! Raising the city: the fabric from the topology spec, then every
//! session admitted through the broker and wired to its devices. Owns
//! the `sys` / `sim` / `broker` / `contracts` fields of [`Scenario`]
//! while they are being built.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus::broker::{
    FlowRequest, QosBroker, SessionClass, SessionGrant, SessionRequest, Verdict,
};
use pegasus::system::{HostNic, SystemBuilder};
use pegasus_atm::cell::{Cell, Vci, CELL_SIZE};
use pegasus_atm::credit::{CreditRef, CreditSink, CreditWindow};
use pegasus_atm::link::{CellSink, SinkRef};
use pegasus_atm::network::EndpointId;
use pegasus_devices::audio::{AudioSink, AudioSource};
use pegasus_devices::camera::Camera;
use pegasus_devices::display::{Display, Rect, WindowManager};
use pegasus_devices::tile::TileFrameView;
use pegasus_devices::video::Scene;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::rng::{exponential, seeded, zipf};
use pegasus_sim::time::{tx_time, Ns, SEC};
use pegasus_sim::Simulator;
use pegasus_streams::playback::{ArrivalSink, PlaybackControl, PlaybackPolicy};
use rand::rngs::SmallRng;
use rand::Rng;

use super::control::camera_for;
use super::{
    vod_periods, BrokerTally, Scenario, SessionBook, SessionContract, VodServer, VOD_PERIOD,
    VOD_TARGET_LATENCY,
};
use crate::partition::{control_plane, ShardPlan};
use crate::spec::{Arrival, ScenarioSpec};

/// Bandwidth reserved for a videophone session's audio flow, never
/// degraded: a call with unintelligible audio is a failed call.
const AUDIO_BPS: u64 = 128_000;

/// Audio jitter-buffer depth in samples; underruns are deadline misses.
const AUDIO_JITTER_BUFFER: usize = 120;

/// Camera feeds per TV control room.
const TV_GROUP: usize = 4;

/// Concurrent stream slots per file server. One small read costs a
/// whole RAID stripe (~51 ms) per 500 ms CM period, so eight slots keep
/// every server inside its deadline with margin.
const PFS_SLOTS_PER_SERVER: usize = 8;

/// Hot-tier capacity per server, in chunks (one chunk = one RAID
/// stripe), when the spec enables the cache.
const HOT_CHUNKS: usize = 4;

/// Warm-tier capacity per server, in chunks.
const WARM_CHUNKS: usize = 64;

/// Zipf exponent α in thousandths (1000 = α 1.0) for the title draw.
const ZIPF_ALPHA_MILLI: u64 = 1000;

/// Fraction of VoD sessions, in thousandths, pinned to title 0 of their
/// server when it records more than one title — the flash crowd, taken
/// from the *last* arrivals (a crowd piles onto a hit that is already
/// playing). The rest draw Zipf.
const CROWD_MILLI: u64 = 500;

/// A consuming endpoint's credit gate.
type Gate = Rc<RefCell<CreditSink>>;

/// A session request and the broker's verdict on it.
type Decision = (SessionRequest, Verdict);

/// A discard endpoint: the blast's sink (its credits already returned
/// by the [`CreditSink`] wrapped around it) and the stand-in for every
/// device replica a shard does not own.
pub(super) struct NullSink;

impl NullSink {
    pub(super) fn shared() -> Rc<RefCell<NullSink>> {
        Rc::new(RefCell::new(NullSink))
    }
}

impl CellSink for NullSink {
    fn deliver(&mut self, _sim: &mut Simulator, _cell: Cell) {}
}

/// File servers the spec plans for `n_vod` VoD sessions (none without
/// any) — what the broker's slot ledgers and `DiskFail` validation
/// count, whether or not a shard materializes them.
pub(super) fn planned_servers(spec: &ScenarioSpec, n_vod: usize) -> usize {
    spec.pfs_servers.max(1).min(n_vod)
}

impl Scenario {
    /// The sink a consuming endpoint is attached with. `sink` is the
    /// device, built only on the shard owning the endpoint's switch:
    /// heavy device state (framebuffers, synthetic video, jitter
    /// buffers) exists only there. An unowned endpoint never receives a
    /// cell, so a null sink keeps the endpoint (and VCI) numbering
    /// identical while the replica costs nothing. A `gated` consumer
    /// fronts its device with a credit gate, returned so
    /// [`Scenario::wire_credit`] can register the circuit's window once
    /// admission fixes the delivery VCI.
    ///
    /// Only an admitted session asks for one: the broker decides a
    /// session before any of its devices exists (`Wiring::decide`), so
    /// what a compiled city holds grows with its admitted sessions, not
    /// its attempts.
    pub(super) fn consumer<S: CellSink + 'static>(
        sink: Option<&Rc<RefCell<S>>>,
        gated: bool,
    ) -> (SinkRef, Option<Gate>) {
        let sink = sink.map(|s| s.clone() as SinkRef);
        let gate = sink.clone().filter(|_| gated).map(CreditSink::wrap);
        let sink = gate.clone().map(|g| g as SinkRef).or(sink);
        (sink.unwrap_or_else(|| NullSink::shared()), gate)
    }

    /// Wires one credited circuit: its window, registered on the
    /// consumer's `gate` under the delivery VCI admission fixed. Credits
    /// are due one reverse trunk crossing after delivery — serialization
    /// plus propagation — and at once when the circuit never leaves its
    /// switch.
    pub(super) fn wire_credit(
        &self,
        window_cells: u64,
        dst_vci: Vci,
        src_switch: usize,
        dst_switch: usize,
        gate: &Gate,
    ) -> CreditRef {
        let link = self.spec.topology.link;
        let delay = if src_switch == dst_switch {
            0
        } else {
            tx_time(CELL_SIZE, link.rate_bps) + link.prop_delay
        };
        let window = CreditWindow::shared(window_cells);
        gate.borrow_mut().register(dst_vci, delay, window.clone());
        window
    }
}

/// Compile-time state threaded through session wiring: the scenario
/// under construction, the one RNG everything stochastic draws from,
/// and the per-session demand at the mix's load factor.
struct Wiring {
    sc: Scenario,
    rng: SmallRng,
    poisson_clock: Ns,
    req_bps: u64,
    req_cpu: u64,
    req_disk: u64,
    n_servers: usize,
    /// Whether media consumers sit behind a credit gate (backpressure).
    gated: bool,
}

/// Where and when one admitted session's producer runs.
struct Placement {
    src: usize,
    dst: usize,
    t0: Ns,
    scene: Scene,
}

impl Wiring {
    fn new(spec: &ScenarioSpec, plan: ShardPlan) -> Wiring {
        let counts = spec.mix.counts(spec.sessions);
        let load = spec.mix.load;
        let n_servers = planned_servers(spec, counts.1);
        let sc = Scenario {
            spec: spec.clone(),
            sys: SystemBuilder::new()
                .topology(spec.topology.shape, spec.topology.switches)
                .link(spec.topology.link)
                .build(),
            sim: Simulator::new(),
            counts,
            broker: QosBroker::new(
                spec.broker.cpu_capacity_micro,
                n_servers,
                PFS_SLOTS_PER_SERVER,
                spec.broker.degrade_milli,
            ),
            contracts: Vec::new(),
            tally: BrokerTally::default(),
            displays: Vec::new(),
            tv_displays: Vec::new(),
            audio_sinks: Vec::new(),
            vod_clients: Vec::new(),
            tx_links: Vec::new(),
            vod_servers: Vec::new(),
            books: Vec::new(),
            blasts: Vec::new(),
            plan,
        };
        Wiring {
            sc,
            rng: seeded(spec.seed),
            poisson_clock: 0,
            req_bps: (spec.video_bps as f64 * load).round() as u64,
            req_cpu: (spec.broker.cpu_per_session_micro as f64 * load).round() as u64,
            req_disk: (spec.vod_disk_rate as f64 * load).round() as u64,
            n_servers,
            gated: spec.backpressure.enabled,
        }
    }

    fn pick_switch(&mut self) -> usize {
        self.rng.gen_range(0..self.sc.sys.fabric.len())
    }

    /// A source switch and a *different* destination switch: sessions
    /// should cross the fabric.
    fn pick_pair(&mut self) -> (usize, usize) {
        let n_fabric = self.sc.sys.fabric.len();
        let src = self.pick_switch();
        let dst = if n_fabric > 1 {
            let d = self.rng.gen_range(0..n_fabric - 1);
            if d >= src {
                d + 1
            } else {
                d
            }
        } else {
            src
        };
        (src, dst)
    }

    /// Draws a session's start time from the arrival process, then its
    /// scene.
    fn placement(&mut self, src: usize, dst: usize) -> Placement {
        let t0 = match self.sc.spec.arrival {
            Arrival::Immediate => 0,
            Arrival::Uniform { window } => self.rng.gen_range(0..window.max(1)),
            Arrival::Poisson { mean_gap } => {
                self.poisson_clock += exponential(&mut self.rng, mean_gap as f64) as Ns;
                self.poisson_clock
            }
        };
        let scene = if self.rng.gen_range(0..2u32) == 0 {
            Scene::MovingGradient
        } else {
            Scene::TestCard
        };
        Placement {
            src,
            dst,
            t0: t0.min(self.sc.spec.duration),
            scene,
        }
    }

    /// A display on fabric switch `sw`, built only by its owner.
    /// Headless: a report carries display statistics, never a pixel.
    fn display(&self, sw: usize) -> Option<Rc<RefCell<Display>>> {
        self.sc
            .plan
            .owns(sw)
            .then(|| Display::shared_headless(176, 144))
    }

    /// The ids the next `N` attachments will get: how a request names
    /// a session's own devices before any of them exists.
    fn next_ids<const N: usize>(&self) -> [EndpointId; N] {
        let attached = self.sc.sys.net.endpoint_count();
        std::array::from_fn(|k| EndpointId(attached + k))
    }

    /// Asks the broker about one session whose own devices will hang
    /// off the fabric switches `ends`, in attach order; its flows name
    /// them by [`Wiring::next_ids`]. A refusal is recorded and is the
    /// end of the session: `None`, with nothing built, attached or
    /// charged. Every shard makes the same decisions, so endpoint
    /// numbering agrees across shards.
    fn decide(
        &mut self,
        class: SessionClass,
        ends: &[usize],
        media: (EndpointId, EndpointId),
        fixed_flows: Vec<FlowRequest>,
        pfs_server: Option<usize>,
    ) -> Option<Decision> {
        let req = SessionRequest {
            class,
            media_flows: vec![FlowRequest {
                src: media.0,
                dst: media.1,
                bps: self.req_bps,
            }],
            fixed_flows,
            cpu_micro: self.req_cpu,
            pfs_server,
        };
        let sys = &self.sc.sys;
        let pending: Vec<_> = ends.iter().map(|&sw| (sys.fabric[sw], sys.link)).collect();
        let verdict = self.sc.broker.decide(&sys.net, &req, &pending);
        if verdict.is_err() {
            self.commit((req, verdict), Vec::new());
            return None;
        }
        Some((req, verdict))
    }

    /// Acts on a decision and records its contract. An admission
    /// charges the broker, attaches the session's devices — `sinks`,
    /// one per end, in attach order — and opens its circuits; a
    /// refusal touches nothing.
    fn commit(&mut self, (req, verdict): Decision, sinks: Vec<SinkRef>) -> SessionGrant {
        let sc = &mut self.sc;
        let grant = sc.broker.commit(&mut sc.sys.net, &req, verdict, sinks);
        sc.tally.record(&grant, req.class, &sc.sys.net, &sc.broker);
        sc.contracts.push(SessionContract {
            class: req.class,
            outcome: grant.outcome,
            requested: grant.requested,
            granted: grant.granted,
        });
        grant
    }

    /// The producer half of an admitted session: a camera at the
    /// granted rung transmitting from `ep` (the continuous-media stack
    /// pushes VoD tiles at frame rate, so the camera model doubles as
    /// that paced pusher), its credit window, the session's book entry,
    /// and its start/stop events. The camera and its events exist only
    /// on the shard owning the source switch; the book entry everywhere.
    fn producer(
        &mut self,
        grant: SessionGrant,
        class: SessionClass,
        ep: EndpointId,
        at: Placement,
        gate: Option<&Gate>,
    ) {
        let sc = &mut self.sc;
        let (vc_src, vc_dst) = (grant.vcs[0].src_vci, grant.vcs[0].dst_vci);
        let owns_src = sc.plan.owns(at.src);
        let cam_cfg = camera_for(grant.quality_milli);
        let camera = owns_src.then(|| sc.sys.camera_on(ep, at.scene, cam_cfg, vc_src));
        let window_cells = sc.spec.backpressure.window_cells;
        let credit = gate.map(|g| sc.wire_credit(window_cells, vc_dst, at.src, at.dst, g));
        if let (Some(w), Some(cam)) = (&credit, &camera) {
            cam.borrow_mut().set_credit(w.clone());
        }
        if owns_src {
            sc.tx_links.push(sc.sys.net.endpoint_tx(ep));
        }
        let stranded = vec![false; grant.vcs.len()];
        sc.books.push(SessionBook {
            grant,
            class,
            camera: camera.clone(),
            credit,
            stranded,
        });
        if let Some(cam) = camera {
            let (start, stop) = (cam.clone(), cam);
            sc.sim
                .schedule_at(at.t0, move |sim| Camera::start(&start, sim));
            sc.sim
                .schedule_at(sc.spec.duration, move |_| stop.borrow_mut().stop());
        }
    }

    /// A videophone session: camera→display plus audio, one way.
    fn videophone(&mut self) {
        let (src, dst) = self.pick_pair();
        let at = self.placement(src, dst);
        let (owns_src, owns_dst) = (self.sc.plan.owns(src), self.sc.plan.owns(dst));
        let t0 = at.t0;
        let duration = self.sc.spec.duration;

        // Camera, display, audio source and audio sink, in attach order.
        let [cam_ep, disp_ep, audio_src_ep, audio_sink_ep] = self.next_ids();
        let audio_flow = FlowRequest {
            src: audio_src_ep,
            dst: audio_sink_ep,
            bps: AUDIO_BPS,
        };
        let Some(decision) = self.decide(
            SessionClass::Videophone,
            &[src, dst, src, dst],
            (cam_ep, disp_ep),
            vec![audio_flow],
            None,
        ) else {
            return;
        };
        let display = self.display(dst);
        let (disp_sink, gate) = Scenario::consumer(display.as_ref(), self.gated);
        let audio_sink = owns_dst.then(|| AudioSink::shared(AUDIO_JITTER_BUFFER));
        let (audio_in, _) = Scenario::consumer(audio_sink.as_ref(), false);
        let nic = || HostNic::shared() as SinkRef;
        let grant = self.commit(decision, vec![nic(), disp_sink, nic(), audio_in]);
        let avc_src = grant.vcs[1].src_vci;
        if let Some(display) = display {
            let mut wm = WindowManager::new(display.clone(), 1);
            wm.create(grant.vcs[0].dst_vci, Rect::new(0, 0, 176, 144));
            self.sc.displays.push(display);
        }
        self.producer(grant, SessionClass::Videophone, cam_ep, at, gate.as_ref());

        // The source's start and the sink's play-out start are separate
        // events — each lands on the shard owning its end of the call.
        let sc = &mut self.sc;
        if owns_src {
            let audio = sc.sys.audio_source_on(audio_src_ep, avc_src);
            sc.tx_links.push(sc.sys.net.endpoint_tx(audio_src_ep));
            let (start, stop) = (audio.clone(), audio);
            sc.sim
                .schedule_at(t0, move |sim| AudioSource::start(&start, sim));
            sc.sim
                .schedule_at(duration, move |_| stop.borrow_mut().stop());
        }
        if let Some(audio_sink) = audio_sink {
            sc.audio_sinks.push(audio_sink.clone());
            sc.sim.schedule_at(t0, move |sim| {
                AudioSink::start_playout(&audio_sink, sim, duration)
            });
        }
    }

    /// The VoD file servers' disk state (prerecord + CM replay), built
    /// only on the coordinator: the replay is post-hoc and global, not
    /// event-driven.
    fn vod_servers(&mut self) {
        let spec = &self.sc.spec;
        // Rate ceiling sized to a slot-full server at the requested
        // rate: the stream *slots* are the binding capacity, enforced
        // by the broker's ledger and the scheduler's own cap.
        let per_server_rate = self.req_disk * PFS_SLOTS_PER_SERVER as u64;
        let titles = spec.cache.titles_per_server.max(1);
        // Every segment of every title on every server is the same
        // zeros, and the stores discard them.
        let segment = vec![0u8; SEGMENT_BYTES];
        for _ in 0..self.n_servers {
            let mut fs = LogFs::new(DiskConfig::hp_1994());
            fs.raid_mut().set_store(false);
            // Pre-record enough media per title for every stream to read
            // the whole replay from offset 0, even at the full requested
            // rate.
            let replay = vod_periods(spec.duration) * VOD_PERIOD;
            let need = (self.req_disk as u128 * replay as u128 / SEC as u128) as usize;
            let mut files = Vec::with_capacity(titles);
            for _ in 0..titles {
                let file = fs.create(FileClass::Continuous);
                for _ in 0..need.div_ceil(SEGMENT_BYTES).max(1) {
                    fs.append(file, &segment).expect("prerecord");
                }
                files.push(file);
            }
            fs.sync().expect("prerecord sync");
            let mut cm = CmScheduler::new(VOD_PERIOD, per_server_rate * 2 + 1_000_000);
            cm.set_max_streams(PFS_SLOTS_PER_SERVER);
            let cache = spec.cache.enabled.then(|| {
                let mut c = TieredCache::new(TierConfig {
                    hot_chunks: HOT_CHUNKS,
                    warm_chunks: WARM_CHUNKS,
                    ..TierConfig::default()
                });
                // Title 0 is the most popular under the Zipf draw and
                // the flash crowd's target — the one the report's
                // crowd-hit gate watches.
                c.set_crowd_file(files[0]);
                c
            });
            self.sc.vod_servers.push(VodServer {
                fs,
                cm,
                files,
                cache,
            });
        }
    }

    /// VoD session `i`: file server → synchronized playback client.
    fn vod(&mut self, i: usize) {
        let (src, dst) = self.pick_pair();
        let at = self.placement(src, dst);
        let n_vod = self.sc.counts.1;
        // Which title this viewer plays: the flash-crowd fraction —
        // the *last* arrivals, as a real flash crowd piles onto an
        // already-playing hit — is pinned to title 0; the rest draw
        // from the Zipf law. With one recorded title there is no draw
        // at all — the single-title RNG stream is untouched.
        let titles = self.sc.spec.cache.titles_per_server.max(1);
        let crowd = (i as u64) * 1000 >= n_vod as u64 * (1000 - CROWD_MILLI);
        let title = if titles > 1 && !crowd {
            zipf(&mut self.rng, titles, ZIPF_ALPHA_MILLI)
        } else {
            0
        };

        let [client_ep, server_ep] = self.next_ids();
        let server = i % self.n_servers;
        let Some(decision) = self.decide(
            SessionClass::Vod,
            &[dst, src],
            (server_ep, client_ep),
            Vec::new(),
            Some(server),
        ) else {
            return;
        };
        let client = self.sc.plan.owns(dst).then(|| {
            let ctl = PlaybackControl::shared(PlaybackPolicy::Synchronized {
                target_latency: VOD_TARGET_LATENCY,
            });
            let stream = ctl.borrow_mut().add_stream("vod");
            let sink = ArrivalSink::shared(ctl.clone(), stream, |bytes| {
                TileFrameView::parse(bytes).ok().map(|tf| tf.timestamp)
            });
            (ctl, stream, sink)
        });
        let (client_sink, gate) = Scenario::consumer(client.as_ref().map(|c| &c.2), self.gated);
        let grant = self.commit(decision, vec![client_sink, HostNic::shared()]);
        self.sc.vod_clients.extend(client);
        // Disk side: admit the stream on its granted server at the rate
        // the broker's contract actually buys — the same hint drives
        // the CM reservation and the cache's prefetch horizon.
        let granted_disk = grant.disk_rate_hint(self.req_disk);
        self.producer(grant, SessionClass::Vod, server_ep, at, gate.as_ref());
        if let Some(server) = self.sc.vod_servers.get_mut(server) {
            let fid = server.files[title.min(server.files.len() - 1)];
            server
                .cm
                .admit(fid, granted_disk, 0)
                .expect("broker slot grant implies CM capacity");
            if let Some(cache) = &mut server.cache {
                cache.register_stream(fid, granted_disk);
            }
        }
    }

    /// One TV control room: `feeds` studio cameras into one display
    /// stack, with a director cutting between the admitted feeds.
    fn tv_room(&mut self, feeds: usize) {
        let dst = self.pick_switch();
        // The room — its display, one credit gate every admitted feed
        // registers its own window on (keyed by delivery VCI), and the
        // window manager — and the display's endpoint. The display is a
        // pending end of the room's first admitted feed, so a room whose
        // every feed is rejected — nothing to show or cut between —
        // never exists.
        let (mut room, mut disp_at) = (None, None);
        let mut feed_vcis = Vec::new();
        let mut group_t0 = self.sc.spec.duration;
        for _ in 0..feeds {
            let src = self.pick_switch();
            let at = self.placement(src, dst);
            let [first, second] = self.next_ids();
            let (ends, cam_ep, disp_ep) = match disp_at {
                Some(disp_ep) => (vec![src], first, disp_ep),
                None => (vec![dst, src], second, first),
            };
            let media = (cam_ep, disp_ep);
            let Some(decision) = self.decide(SessionClass::Tv, &ends, media, Vec::new(), None)
            else {
                continue;
            };
            let mut sinks = Vec::new();
            let (_, gate, wm) = room.get_or_insert_with(|| {
                let display = self.display(dst);
                let (sink, gate) = Scenario::consumer(display.as_ref(), self.gated);
                sinks.push(sink);
                let wm = display
                    .as_ref()
                    .map(|d| Rc::new(RefCell::new(WindowManager::new(d.clone(), 1))));
                (display, gate, wm)
            });
            sinks.push(HostNic::shared());
            let grant = self.commit(decision, sinks);
            disp_at = Some(disp_ep);
            let vc_dst = grant.vcs[0].dst_vci;
            group_t0 = group_t0.min(at.t0);
            if let Some(wm) = wm {
                wm.borrow_mut().create(vc_dst, Rect::new(0, 0, 176, 144));
            }
            feed_vcis.push(vc_dst);
            self.producer(grant, SessionClass::Tv, cam_ep, at, gate.as_ref());
        }
        let Some((display, _, wm)) = room else {
            return;
        };
        self.sc.tv_displays.extend(display);
        // The director cuts round-robin through the admitted feeds: one
        // window raise per cut, pure control, run where the control
        // room's display lives.
        if let Some(wm) = wm {
            let spec = &self.sc.spec;
            let mut cut_no = 0usize;
            let mut t = group_t0 + spec.tv_cut_period;
            while t < spec.duration {
                let wm = wm.clone();
                let vci = feed_vcis[cut_no % feed_vcis.len()];
                self.sc
                    .sim
                    .schedule_at(t, move |_| wm.borrow_mut().raise(vci));
                cut_no += 1;
                t += spec.tv_cut_period;
            }
        }
    }
}

/// Compiles `spec` into the world as shard `plan.shard` sees it.
///
/// Every shard builds the *full* city — same RNG draws, same admission
/// decisions, same VCIs, same broker ledgers — so all shards agree on
/// every compile-time fact without communicating. Only runtime activity
/// is partitioned: an event is armed on the one shard owning the
/// switch its device hangs off, and statistics are collected only from
/// owned devices, so the per-shard measurements sum to exactly the
/// single-shard ones. Remote replicas of switches and devices exist but
/// stay silent — no event ever touches them.
///
/// Only the data plane is partitioned: a spec with a control plane
/// compiles as the only shard ([`crate::partition::ExecPlan::partition`]
/// plans it so), where both ends of every credited circuit are owned.
pub fn compile_for(spec: &ScenarioSpec, plan: ShardPlan) -> Scenario {
    assert!(
        plan.shards == 1 || control_plane(spec).is_none(),
        "a spec with a control plane compiles as one shard"
    );
    let coordinator = plan.is_coordinator();
    let mut w = Wiring::new(spec, plan);
    let (n_vp, n_vod, n_tv) = w.sc.counts;
    for _ in 0..n_vp {
        w.videophone();
    }
    if coordinator {
        w.vod_servers();
    }
    for i in 0..n_vod {
        w.vod(i);
    }
    let mut tv_left = n_tv;
    while tv_left > 0 {
        let feeds = TV_GROUP.min(tv_left);
        tv_left -= feeds;
        w.tv_room(feeds);
    }
    let mut sc = w.sc;
    sc.arm_faults();
    sc
}

#[cfg(test)]
mod tests {
    use pegasus::broker::{Outcome, SessionClass};

    use crate::build::{compile, SessionContract};
    use crate::presets;

    /// What admitted sessions alone attach: four endpoints per call, two
    /// per VoD stream, one per TV feed and one per control room with a
    /// feed — and how many such rooms there are.
    fn admitted_endpoints(contracts: &[SessionContract]) -> (usize, usize) {
        let admitted = |c: &SessionContract| !matches!(c.outcome, Outcome::Rejected(_));
        let count = |class| {
            contracts
                .iter()
                .filter(|c| c.class == class && admitted(c))
                .count()
        };
        let feeds: Vec<bool> = contracts
            .iter()
            .filter(|c| c.class == SessionClass::Tv)
            .map(admitted)
            .collect();
        let rooms = feeds
            .chunks(super::TV_GROUP)
            .filter(|room| room.contains(&true))
            .count();
        let endpoints = 4 * count(SessionClass::Videophone)
            + 2 * count(SessionClass::Vod)
            + count(SessionClass::Tv)
            + rooms;
        (endpoints, rooms)
    }

    #[test]
    fn a_refused_session_leaves_no_trace() {
        let mut city = presets::by_name("metropolis-100k").expect("preset");
        city.sessions = 800;
        city.broker.cpu_capacity_micro = 15 * city.broker.cpu_per_session_micro;
        // Full rooms, one partly admitted, and empty ones.
        let mut studio = presets::by_name("tv-studio").expect("preset");
        studio.broker.cpu_capacity_micro = 9 * studio.broker.cpu_per_session_micro;
        for spec in [city, studio] {
            let sc = compile(&spec);
            let refused = sc
                .contracts
                .iter()
                .filter(|c| matches!(c.outcome, Outcome::Rejected(_)))
                .count();
            assert!(refused > 0, "{}: nothing refused", spec.name);
            let (endpoints, rooms) = admitted_endpoints(&sc.contracts);
            assert_eq!(sc.sys.net.endpoint_count(), endpoints, "{}", spec.name);
            assert_eq!(sc.tv_displays.len(), rooms, "{}", spec.name);
            assert_eq!(sc.sys.net.audit_reservations(), Ok(()));
        }
    }
}
