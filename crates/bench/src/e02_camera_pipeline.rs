//! E2 — "using frame-by-frame compression ... a video stream requires no
//! more than a megabyte per second" (§2).

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_atm::link::{CaptureSink, Link};
use pegasus_devices::camera::{Camera, CameraConfig, VideoMode};
use pegasus_devices::video::{Scene, SyntheticVideo};
use pegasus_sim::time::MS;
use pegasus_sim::Simulator;
use crate::{Claim, Result};

/// One second of the camera in `mode`: `(MB/s, compression ratio)`.
fn run_mode(scene: Scene, mode: VideoMode) -> (f64, f64) {
    let sink = CaptureSink::shared();
    let tx = Rc::new(RefCell::new(Link::new(155_520_000, 0, sink)));
    let cfg = CameraConfig {
        mode,
        ..CameraConfig::default()
    };
    let cam = Camera::new(SyntheticVideo::qcif(scene), cfg, 10, tx);
    let mut sim = Simulator::new();
    Camera::start(&cam, &mut sim);
    sim.run_until(1_000 * MS);
    cam.borrow_mut().stop();
    sim.run();
    let stats = &cam.borrow().stats;
    (stats.payload_bytes as f64 / 1e6, stats.compression_ratio())
}

pub fn claim() -> Result<Claim> {
    let mut rows = Vec::new();
    let (mut raw, mut gradient_q50) = (Vec::new(), 0.0);
    let mut ratios_rise = true;
    for (scene, sname) in [(Scene::MovingGradient, "gradient"), (Scene::Noise, "noise")] {
        let mut last_ratio = 0.0;
        for (mode, mname) in [
            (VideoMode::Raw, "raw"),
            (VideoMode::Mjpeg(90), "mjpeg q90"),
            (VideoMode::Mjpeg(50), "mjpeg q50"),
            (VideoMode::Mjpeg(10), "mjpeg q10"),
        ] {
            let (mbps, ratio) = run_mode(scene, mode);
            rows.push(format!(
                "scene={sname}  mode={mname}  stream={mbps:.2} MB/s  compression={ratio:.1}x"
            ));
            match mode {
                VideoMode::Raw => raw.push(mbps),
                VideoMode::Mjpeg(q) => {
                    ratios_rise &= ratio > last_ratio;
                    last_ratio = ratio;
                    if q == 50 && scene == Scene::MovingGradient {
                        gradient_q50 = mbps;
                    }
                }
            }
        }
    }
    Ok(Claim {
        id: "E2",
        title: "ATM camera: raw vs Motion-JPEG bandwidth (1 s of 25 fps QCIF)",
        anchor: "Fig. 2; §2 'JPEG video ≤ 1 MB/s'",
        expected_shape: "raw ≈ 0.74 MB/s (±0.01) whatever the scene; mjpeg q50 on natural \
            (gradient) content well under 1 MB/s (≤ 0.5); compression rises as quality falls",
        rows,
        measured: format!(
            "raw {:.2} / {:.2} MB/s; gradient q50 {gradient_q50:.2} MB/s; ratios rise: \
             {ratios_rise}",
            raw[0], raw[1]
        ),
        holds: raw.iter().all(|r| (r - 0.74).abs() < 0.01) && gradient_q50 <= 0.5 && ratios_rise,
    })
}
