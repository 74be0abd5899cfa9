//! Raising the city: the fabric from the topology spec, then every
//! session admitted through the broker and wired to its devices. Owns
//! the `sys` / `sim` / `broker` / `contracts` fields of [`Scenario`]
//! while they are being built.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus::broker::{FlowRequest, QosBroker, SessionClass, SessionGrant, SessionRequest};
use pegasus::system::{HostNic, SystemBuilder};
use pegasus_atm::cell::{Cell, Vci, CELL_SIZE};
use pegasus_atm::credit::{CreditRef, CreditSink, CreditWindow};
use pegasus_atm::link::{CellSink, SinkRef};
use pegasus_atm::network::EndpointId;
use pegasus_devices::audio::{AudioConfig, AudioSink, AudioSource};
use pegasus_devices::camera::Camera;
use pegasus_devices::display::{Display, Rect, WindowManager};
use pegasus_devices::tile::TileFrameView;
use pegasus_devices::video::Scene;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::rng::{exponential, seeded};
use pegasus_sim::time::{tx_time, Ns, SEC};
use pegasus_sim::Simulator;
use pegasus_streams::playback::{ArrivalSink, PlaybackControl, PlaybackPolicy};
use rand::rngs::SmallRng;
use rand::Rng;

use super::control::camera_for;
use super::{
    vod_periods, BrokerTally, Scenario, SessionBook, SessionContract, VodServer, VOD_PERIOD,
};
use crate::partition::{control_plane, ShardPlan};
use crate::spec::{Arrival, ScenarioSpec};

/// Bandwidth reserved for a videophone session's audio flow, never
/// degraded: a call with unintelligible audio is a failed call.
const AUDIO_BPS: u64 = 128_000;

/// A consuming endpoint's credit gate.
type Gate = Rc<RefCell<CreditSink>>;

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

/// Draws a title index from a Zipf law over `titles` titles with
/// exponent `alpha_milli / 1000` — title 0 the most popular. α = 0
/// degenerates to uniform. Only called when a spec records more than
/// one title, so single-title specs keep their RNG streams untouched.
fn zipf_pick(rng: &mut SmallRng, titles: usize, alpha_milli: u64) -> usize {
    let alpha = alpha_milli as f64 / 1000.0;
    let weights: Vec<f64> = (0..titles)
        .map(|k| 1.0 / ((k + 1) as f64).powf(alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return k;
        }
        u -= *w;
    }
    titles - 1
}

/// File servers the spec plans for `n_vod` VoD sessions (none without
/// any) — what the broker's slot ledgers and `DiskFail` validation
/// count, whether or not a shard materializes them.
pub(super) fn planned_servers(spec: &ScenarioSpec, n_vod: usize) -> usize {
    spec.pfs_servers.max(1).min(n_vod)
}

impl Scenario {
    /// Attaches a consuming endpoint to fabric switch `dst`. `sink` is
    /// the device, built only on the shard owning `dst`: heavy device
    /// state (framebuffers, synthetic video, jitter buffers) exists
    /// only there. An unowned endpoint never receives a cell, so a null
    /// sink keeps the endpoint (and VCI) numbering identical while the
    /// replica costs nothing. A `gated` consumer fronts its device with
    /// a credit gate, returned so [`Scenario::wire_credit`] can register
    /// the circuit's window once admission fixes the delivery VCI.
    pub(super) fn consumer(
        &mut self,
        dst: usize,
        sink: Option<SinkRef>,
        gated: bool,
    ) -> (EndpointId, Option<Gate>) {
        let gate = sink.clone().filter(|_| gated).map(CreditSink::wrap);
        let sink = match &gate {
            Some(g) => g.clone() as SinkRef,
            None => sink.unwrap_or_else(|| NullSink::shared()),
        };
        (self.sys.device(dst, sink), gate)
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
                spec.broker.pfs_slots_per_server,
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

    /// A credit-gated (when backpressure is on) media consumer.
    fn media_consumer<S: CellSink + 'static>(
        &mut self,
        dst: usize,
        sink: Option<&Rc<RefCell<S>>>,
    ) -> (EndpointId, Option<Gate>) {
        let gated = self.sc.spec.backpressure.enabled;
        self.sc
            .consumer(dst, sink.map(|s| s.clone() as SinkRef), gated)
    }

    /// Runs one session request through the broker and records the
    /// decision; `None` when the session was rejected (and so is not
    /// wired at all).
    fn admit(
        &mut self,
        class: SessionClass,
        media: (EndpointId, EndpointId),
        fixed_flows: Vec<FlowRequest>,
        pfs_server: Option<usize>,
    ) -> Option<SessionGrant> {
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
        let sc = &mut self.sc;
        let grant = sc.sys.admit_session(&mut sc.broker, &req);
        sc.tally.record(&grant, class, &sc.sys.net, &sc.broker);
        sc.contracts.push(SessionContract {
            class,
            outcome: grant.outcome,
            requested: grant.requested,
            granted: grant.granted,
        });
        grant.is_admitted().then_some(grant)
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
        let cam_cfg = camera_for(sc.spec.camera, grant.quality_milli);
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

        let cam_ep = self.sc.sys.device(src, HostNic::shared());
        let display = self.display(dst);
        let (disp_ep, gate) = self.media_consumer(dst, display.as_ref());
        let audio_src_ep = self.sc.sys.device(src, HostNic::shared());
        let audio_sink = owns_dst
            .then(|| AudioSink::shared(AudioConfig::telephony(), self.sc.spec.audio_jitter_buffer));
        let (audio_sink_ep, _) =
            self.sc
                .consumer(dst, audio_sink.clone().map(|s| s as SinkRef), false);

        let audio_flow = FlowRequest {
            src: audio_src_ep,
            dst: audio_sink_ep,
            bps: AUDIO_BPS,
        };
        let Some(grant) = self.admit(
            SessionClass::Videophone,
            (cam_ep, disp_ep),
            vec![audio_flow],
            None,
        ) else {
            return;
        };
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
            let audio = sc
                .sys
                .audio_source_on(audio_src_ep, AudioConfig::telephony(), avc_src);
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
        let slots = spec.broker.pfs_slots_per_server;
        let per_server_rate = self.req_disk * slots.max(1) as u64;
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
            cm.set_max_streams(slots);
            let cache = spec.cache.enabled.then(|| {
                let mut c = TieredCache::new(TierConfig {
                    hot_chunks: spec.cache.hot_chunks,
                    warm_chunks: spec.cache.warm_chunks,
                    prefetch_chunks: spec.cache.prefetch_chunks,
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
        let (n_vod, cache) = (self.sc.counts.1, self.sc.spec.cache);
        // Which title this viewer plays: the flash-crowd fraction —
        // the *last* arrivals, as a real flash crowd piles onto an
        // already-playing hit — is pinned to title 0; the rest draw
        // from the Zipf law. With one recorded title there is no draw
        // at all — the single-title RNG stream is untouched.
        let titles = cache.titles_per_server.max(1);
        let crowd = (i as u64) * 1000 >= n_vod as u64 * (1000 - cache.crowd_milli);
        let title = if titles > 1 && !crowd {
            zipf_pick(&mut self.rng, titles, cache.zipf_alpha_milli)
        } else {
            0
        };

        let client = self.sc.plan.owns(dst).then(|| {
            let ctl = PlaybackControl::shared(PlaybackPolicy::Synchronized {
                target_latency: self.sc.spec.vod_target_latency,
            });
            let stream = ctl.borrow_mut().add_stream("vod");
            let sink = ArrivalSink::shared(ctl.clone(), stream, |bytes| {
                TileFrameView::parse(bytes).ok().map(|tf| tf.timestamp)
            });
            (ctl, stream, sink)
        });
        let (client_ep, gate) = self.media_consumer(dst, client.as_ref().map(|c| &c.2));
        let server_ep = self.sc.sys.device(src, HostNic::shared());

        let server = i % self.n_servers;
        let Some(grant) = self.admit(
            SessionClass::Vod,
            (server_ep, client_ep),
            Vec::new(),
            Some(server),
        ) else {
            return;
        };
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
        let display = self.display(dst);
        // One credit gate per control room: every admitted feed
        // registers its own window on it, keyed by delivery VCI.
        let (disp_ep, gate) = self.media_consumer(dst, display.as_ref());
        let wm = display.map(|d| {
            self.sc.tv_displays.push(d.clone());
            Rc::new(RefCell::new(WindowManager::new(d, 1)))
        });
        let mut feed_vcis = Vec::new();
        let mut group_t0 = self.sc.spec.duration;
        for _ in 0..feeds {
            let src = self.pick_switch();
            let at = self.placement(src, dst);
            let cam_ep = self.sc.sys.device(src, HostNic::shared());
            let Some(grant) = self.admit(SessionClass::Tv, (cam_ep, disp_ep), Vec::new(), None)
            else {
                continue;
            };
            let vc_dst = grant.vcs[0].dst_vci;
            group_t0 = group_t0.min(at.t0);
            if let Some(wm) = &wm {
                wm.borrow_mut().create(vc_dst, Rect::new(0, 0, 176, 144));
            }
            feed_vcis.push(vc_dst);
            self.producer(grant, SessionClass::Tv, cam_ep, at, gate.as_ref());
        }
        // The director cuts round-robin through the admitted feeds: one
        // window raise per cut, pure control, run where the control
        // room's display lives. A room whose every feed was rejected
        // has nothing to cut between.
        if let Some(wm) = wm.filter(|_| !feed_vcis.is_empty()) {
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
    let group = spec.tv_group.max(1);
    let mut tv_left = n_tv;
    while tv_left > 0 {
        let feeds = group.min(tv_left);
        tv_left -= feeds;
        w.tv_room(feeds);
    }
    let mut sc = w.sc;
    sc.arm_faults();
    sc
}
