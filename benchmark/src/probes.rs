//! Layer probes: short isolated drives of one layer's public API.
//!
//! Inside `sim.run_until` the engine, the ATM fabric and the devices
//! cannot be told apart from outside, so the traced pass gives them one
//! span between them. A probe runs one of them alone for a fraction of
//! a second and reports a rate or a per-call cost. Each workload runs
//! the probes of the layers its `wall_s` leans on, so a probe that
//! moves says which workload should move with it.

use std::cell::{Cell as StdCell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use pegasus::broker::{FlowRequest, QosBroker, SessionClass, SessionRequest};
use pegasus::system::System;
use pegasus_atm::aal5::{Reassembler, Segmenter};
use pegasus_atm::cell::Cell;
use pegasus_atm::credit::CreditWindow;
use pegasus_atm::link::{CaptureSink, CellSink, Link, SinkRef};
use pegasus_atm::network::{EndpointId, LinkConfig, TopologyShape};
use pegasus_atm::signalling::QosSpec;
use pegasus_atm::switch::{input_port, Switch};
use pegasus_devices::camera::{Camera, CameraConfig, VideoMode};
use pegasus_devices::display::{Display, Rect, WindowDescriptor};
use pegasus_devices::video::{Scene, SyntheticVideo};
use pegasus_nemesis::sched::{CpuSim, Policy, TaskSpec};
use pegasus_sim::arena::Arena;
use pegasus_sim::time::{MS, SEC};
use pegasus_sim::{SharedHandler, Simulator};
use pegasus_streams::playback::{PlaybackControl, PlaybackPolicy};

use crate::metrics::Values;

/// How long each rate probe drives its layer.
const PROBE_SECONDS: f64 = 0.4;
/// Calls averaged for each per-call cost.
const CALLS: usize = 200;

/// Repeats `batch`, which returns how many units of work it did, for
/// [`PROBE_SECONDS`] and returns units per host second.
fn rate(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0;
    loop {
        units += batch();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= PROBE_SECONDS {
            return units as f64 / elapsed;
        }
    }
}

/// Mean host microseconds of one call of `call`, over [`CALLS`] calls.
fn mean_us(mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..CALLS {
        call();
    }
    start.elapsed().as_secs_f64() * 1e6 / CALLS as f64
}

/// Sixty-four self-rescheduling shared handlers with co-prime periods:
/// the timer-chain shape of every device clock.
fn engine_events_per_s() -> f64 {
    rate(|| {
        let mut sim = Simulator::new();
        let left = Rc::new(StdCell::new(64_000u64));
        for chain in 0..64u64 {
            let period = 1_000 + (chain * 131) % 977;
            let left = left.clone();
            let handler: SharedHandler = Rc::new(RefCell::new(move |sim: &mut Simulator| {
                let n = left.get();
                left.set(n.saturating_sub(1));
                (n > 0).then(|| sim.now() + period)
            }));
            sim.schedule_shared_at(period, handler);
        }
        sim.run();
        sim.events_executed()
    })
}

/// A window of timeouts of which three in four are cancelled before
/// they fire: the retransmit-timer shape.
fn engine_cancels_per_s() -> f64 {
    rate(|| {
        let mut sim = Simulator::new();
        let ids: Vec<_> = (0..10_000u64)
            .map(|i| sim.schedule_at(1_000 + i, |_| {}))
            .collect();
        let mut cancelled = 0;
        for (i, id) in ids.into_iter().enumerate() {
            if i % 4 != 0 {
                cancelled += u64::from(sim.cancel(id));
            }
        }
        sim.run();
        cancelled
    })
}

/// Cells through a link, one switch with a VCI rewrite, and a second
/// link into a capture sink: the per-cell path of every media stream.
fn cells_per_s() -> f64 {
    let oc12 = 622_000_000;
    let sw = Switch::shared("probe", 2, 500);
    let out = CaptureSink::shared();
    sw.borrow_mut()
        .attach_output(1, Link::new(oc12, 1_000, out.clone()));
    sw.borrow_mut().add_route(0, 40, 1, 77);
    let mut link = Link::new(oc12, 1_000, input_port(&sw, 0));
    let mut sim = Simulator::new();
    rate(|| {
        for _ in 0..1_000 {
            link.send(&mut sim, Cell::new(40));
        }
        sim.run();
        let delivered = out.borrow().arrivals.len() as u64;
        out.borrow_mut().arrivals.clear();
        assert_eq!(delivered, 1_000, "the probe's switch dropped cells");
        delivered
    })
}

/// A 1 KiB frame segmented into cells by view and stitched back.
fn aal5_frames_per_s() -> f64 {
    let arena = Arena::new();
    let seg = Segmenter::new(7);
    let mut reasm = Reassembler::new();
    let mut cells = Vec::new();
    rate(|| {
        for n in 0..100u8 {
            let frame = arena.frame_from(&[n; 1024]);
            seg.segment_frame(&frame.view_all(), &mut cells)
                .expect("frame in range");
            for cell in cells.drain(..) {
                if let Some(done) = reasm.push_frame(&cell) {
                    black_box(done.expect("clean frame"));
                }
            }
        }
        100
    })
}

/// One whole-frame acquire at the producer, one release per cell at the
/// consumer, through the shared handle a `CreditSink` uses.
fn credit_ops_per_s() -> f64 {
    let window = CreditWindow::shared(1_024);
    rate(|| {
        for _ in 0..1_000 {
            // The optimiser must not see through the handle, or it
            // folds the whole batch into nothing.
            let acquired = black_box(&window).borrow_mut().try_acquire(8);
            assert!(acquired, "the probe never stalls");
            for _ in 0..8 {
                black_box(&window).borrow_mut().release(1);
            }
        }
        9_000
    })
}

/// The city fabric of the `metropolis` presets, bare.
fn city() -> System {
    System::builder()
        .topology(TopologyShape::FullMesh, 16)
        .link(LinkConfig {
            rate_bps: 622_000_000,
            prop_delay: 5_000,
        })
        .build()
}

/// A fresh pair of device endpoints on two different fabric switches,
/// a different pair of switches for each `k`.
fn endpoint_pair(sys: &mut System, k: usize) -> (EndpointId, EndpointId) {
    let sink = || -> SinkRef { CaptureSink::shared() };
    let from = k % 16;
    let to = (from + 1 + (k / 16) % 15) % 16;
    (sys.device(from, sink()), sys.device(to, sink()))
}

/// Mean cost of `Network::open_vc`, and of the
/// `Network::max_reservation_utilization` sample `compile` takes after
/// every admission decision, with 1,000 and with 8,000 circuits already
/// open. The ratio of the two sizes is the per-call growth.
fn network_call_us() -> [(f64, f64); 2] {
    let mut sys = city();
    let mut open = 0;
    let mut cost_at = |circuits: usize| {
        while open < circuits {
            let (src, dst) = endpoint_pair(&mut sys, open);
            sys.net
                .open_vc(src, dst, QosSpec::guaranteed(64_000))
                .expect("fabric has room");
            open += 1;
        }
        let pairs: Vec<_> = (0..CALLS)
            .map(|i| endpoint_pair(&mut sys, open + i))
            .collect();
        let mut next = pairs.into_iter();
        let us = mean_us(|| {
            let (src, dst) = next.next().expect("one pair per call");
            black_box(
                sys.net
                    .open_vc(src, dst, QosSpec::guaranteed(64_000))
                    .expect("fabric has room"),
            );
        });
        open += CALLS;
        (
            us,
            mean_us(|| {
                black_box(sys.net.max_reservation_utilization());
            }),
        )
    };
    [cost_at(1_000), cost_at(8_000)]
}

fn call_request(sys: &mut System, k: usize) -> SessionRequest {
    let (src, dst) = endpoint_pair(sys, k);
    SessionRequest {
        class: SessionClass::Videophone,
        media_flows: vec![FlowRequest {
            src,
            dst,
            bps: 2_000_000,
        }],
        fixed_flows: vec![FlowRequest {
            src: dst,
            dst: src,
            bps: 64_000,
        }],
        cpu_micro: 300,
        pfs_server: None,
    }
}

/// Mean `System::admit_session` cost at the 1,000th and at the 8,000th
/// attempt, every earlier attempt admitted and still holding its
/// circuits and ledger entries.
fn admit_us() -> (f64, f64) {
    let mut sys = city();
    let mut broker = QosBroker::new(u64::MAX / 2, 0, 0, 1_000);
    let mut attempts = 0;
    let mut cost_at = |attempt: usize| {
        while attempts < attempt {
            let req = call_request(&mut sys, attempts);
            assert!(sys.admit_session(&mut broker, &req).is_admitted());
            attempts += 1;
        }
        let reqs: Vec<_> = (0..CALLS)
            .map(|i| call_request(&mut sys, attempts + i))
            .collect();
        let mut next = reqs.iter();
        let us = mean_us(|| {
            let req = next.next().expect("one request per call");
            assert!(sys.admit_session(&mut broker, req).is_admitted());
        });
        attempts += CALLS;
        us
    };
    (cost_at(1_000), cost_at(8_000))
}

/// Mean `QosBroker::renegotiate_live` cost, one live call stepped down
/// a rung and back up.
fn renegotiate_us() -> f64 {
    let mut sys = city();
    let mut broker = QosBroker::new(1_000_000, 0, 0, 500);
    let req = call_request(&mut sys, 0);
    let mut grant = sys.admit_session(&mut broker, &req);
    assert!(grant.is_admitted());
    let mut down = false;
    mean_us(|| {
        down = !down;
        let milli = if down { 500 } else { 1_000 };
        broker
            .renegotiate_live(&mut sys.net, &mut grant, milli, 0)
            .expect("renegotiate");
    })
}

fn camera(mode: VideoMode, sink: SinkRef) -> Rc<RefCell<Camera>> {
    let cfg = CameraConfig {
        mode,
        ..CameraConfig::default()
    };
    let tx = Rc::new(RefCell::new(Link::new(155_000_000, 1_000, sink)));
    Camera::new(SyntheticVideo::qcif(Scene::MovingGradient), cfg, 40, tx)
}

/// A QCIF Motion-JPEG camera scanning, tiling, coding and segmenting
/// into a capture sink.
fn camera_frames_per_s() -> f64 {
    let out = CaptureSink::shared();
    let cam = camera(CameraConfig::default().mode, out.clone());
    let mut sim = Simulator::new();
    Camera::start(&cam, &mut sim);
    rate(|| {
        let before = cam.borrow().stats.frames_captured;
        let until = sim.now() + 400 * MS;
        sim.run_until(until);
        out.borrow_mut().arrivals.clear();
        cam.borrow().stats.frames_captured - before
    })
}

/// One raw QCIF frame's cells, captured once, delivered again and again
/// to a display with a framebuffer: reassembly, decode and blit.
fn display_tiles_per_s() -> f64 {
    let out = CaptureSink::shared();
    let cam = camera(VideoMode::Raw, out.clone());
    let mut sim = Simulator::new();
    Camera::start(&cam, &mut sim);
    let one_frame = cam.borrow().frame_period() - 1;
    sim.run_until(one_frame);
    cam.borrow_mut().stop();
    sim.run();
    let cells: Vec<Cell> = out
        .borrow_mut()
        .arrivals
        .drain(..)
        .map(|(_, c)| c)
        .collect();

    let display = Display::shared(176, 144);
    display.borrow_mut().set_descriptor(
        40,
        WindowDescriptor {
            dst_x: 0,
            dst_y: 0,
            clip: Rect::new(0, 0, 176, 144),
            z: 1,
            visible: true,
            overlay: false,
        },
    );
    rate(|| {
        let before = display.borrow().stats.tiles_blitted;
        for cell in &cells {
            display.borrow_mut().deliver(&mut sim, cell.clone());
        }
        let blitted = display.borrow().stats.tiles_blitted - before;
        assert!(blitted > 0, "the probe's display blitted nothing");
        blitted
    })
}

/// Items of four streams arriving at a synchronized playback control,
/// held to their play-out instant and presented.
fn playback_items_per_s() -> f64 {
    let mut sim = Simulator::new();
    rate(|| {
        let ctl = PlaybackControl::shared(PlaybackPolicy::Synchronized {
            target_latency: 80 * MS,
        });
        let streams: Vec<_> = (0..4)
            .map(|i| ctl.borrow_mut().add_stream(&format!("s{i}")))
            .collect();
        let base = sim.now();
        for item in 0..1_000u64 {
            for &stream in &streams {
                PlaybackControl::on_arrival(&ctl, &mut sim, stream, base + item * 1_000);
            }
        }
        sim.run();
        let presented: u64 = streams
            .iter()
            .map(|&s| ctl.borrow().stats(s).presented)
            .sum();
        assert_eq!(presented, 4_000, "the probe's playback control lost items");
        presented
    })
}

/// Simulated seconds of the EDF-plus-shares scheduler per host second,
/// two guaranteed tasks and a best-effort one.
fn sched_sim_s_per_s() -> f64 {
    rate(|| {
        let mut cpu = CpuSim::new(Policy::NemesisEdf);
        cpu.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS));
        cpu.add_task(TaskSpec::guaranteed("video", 40 * MS, 16 * MS));
        cpu.add_task(TaskSpec::best_effort("batch", 10 * MS, 20 * MS));
        black_box(cpu.run(SEC));
        1
    })
}

/// Runs the probes that explain `workload`'s host time.
pub fn run(workload: &str) -> Values {
    let mut v = Values::default();
    match workload {
        "metro-steady" => {
            v.set("sim.probe_events_per_s", engine_events_per_s());
            v.set("sim.probe_cancels_per_s", engine_cancels_per_s());
            v.set("atm.probe_cells_per_s", cells_per_s());
            v.set("atm.probe_aal5_frames_per_s", aal5_frames_per_s());
            v.set("devices.probe_camera_frames_per_s", camera_frames_per_s());
            v.set("devices.probe_display_tiles_per_s", display_tiles_per_s());
            v.set("streams.probe_playback_items_per_s", playback_items_per_s());
            v.set("nemesis.probe_sched_sim_s_per_s", sched_sim_s_per_s());
        }
        "front-door" => {
            let [at_1k, at_8k] = network_call_us();
            v.set("atm.probe_open_vc_us_1k", at_1k.0);
            v.set("atm.probe_open_vc_us_8k", at_8k.0);
            v.set("atm.probe_max_util_us_1k", at_1k.1);
            v.set("atm.probe_max_util_us_8k", at_8k.1);
            let (at_1k, at_8k) = admit_us();
            v.set("core.probe_admit_us_1k", at_1k);
            v.set("core.probe_admit_us_8k", at_8k);
        }
        "control-3x" => {
            v.set("atm.probe_credit_ops_per_s", credit_ops_per_s());
            v.set("core.probe_renegotiate_us", renegotiate_us());
        }
        _ => {}
    }
    v
}
