//! Cross-crate integration: the whole media path at once.
//!
//! These tests span sim + atm + devices + streams + core: a camera's
//! tiles cross a multi-switch network into a display under a window
//! manager, with admission control, synchronization and the DAN
//! zero-CPU property checked end to end.

use pegasus_system::atm::signalling::{AdmissionError, QosSpec};
use pegasus_system::core::system::System;
use pegasus_system::core::videophone::{VideoPath, VideoPhone, VideoPhoneConfig};
use pegasus_system::devices::camera::{Camera, CameraConfig, VideoMode};
use pegasus_system::devices::display::{Rect, WindowManager};
use pegasus_system::devices::video::Scene;
use pegasus_system::sim::time::MS;
use pegasus_system::sim::Simulator;

#[test]
fn two_cameras_share_one_display() {
    let mut sys = System::new();
    let s1 = sys.add_workstation("studio1", 40);
    let s2 = sys.add_workstation("studio2", 40);
    let viewer = sys.add_workstation("viewer", 40);
    let vc1 = sys
        .net
        .open_vc(
            s1.camera_ep,
            viewer.display_ep,
            QosSpec::guaranteed(15_000_000),
        )
        .unwrap();
    let vc2 = sys
        .net
        .open_vc(
            s2.camera_ep,
            viewer.display_ep,
            QosSpec::guaranteed(15_000_000),
        )
        .unwrap();
    let mut wm = WindowManager::new(viewer.display.clone(), 1);
    wm.create(vc1.dst_vci, Rect::new(0, 0, 176, 144));
    wm.create(vc2.dst_vci, Rect::new(200, 0, 176, 144));
    let cam1 = sys.build_camera(&s1, Scene::TestCard, CameraConfig::default(), vc1.src_vci);
    let cam2 = sys.build_camera(
        &s2,
        Scene::MovingGradient,
        CameraConfig::default(),
        vc2.src_vci,
    );
    let mut sim = Simulator::new();
    Camera::start(&cam1, &mut sim);
    Camera::start(&cam2, &mut sim);
    sim.run_until(300 * MS);
    cam1.borrow_mut().stop();
    cam2.borrow_mut().stop();
    sim.run();
    let d = viewer.display.borrow();
    // Both windows painted; no cross-talk: test card's band-0 value at
    // window 1's origin.
    assert!(d.stats.tiles_blitted > 1_000);
    assert_eq!(d.pixel(0, 0), 16);
    assert_eq!(viewer.host_nic.borrow().bytes_touched, 0);
}

#[test]
fn admission_control_protects_the_backbone() {
    let mut sys = System::new();
    let a = sys.add_workstation("a", 40);
    let b = sys.add_workstation("b", 40);
    // The backbone link is 100 Mbit/s with 95% reservable.
    sys.net
        .open_vc(a.camera_ep, b.display_ep, QosSpec::guaranteed(60_000_000))
        .unwrap();
    let err = sys
        .net
        .open_vc(
            a.audio_src_ep,
            b.audio_sink_ep,
            QosSpec::guaranteed(40_000_000),
        )
        .unwrap_err();
    assert!(matches!(err, AdmissionError::InsufficientBandwidth { .. }));
}

#[test]
fn raw_and_compressed_coexist_on_one_display() {
    let mut sys = System::new();
    let s1 = sys.add_workstation("s1", 40);
    let s2 = sys.add_workstation("s2", 40);
    let v = sys.add_workstation("v", 40);
    let vc1 = sys
        .net
        .open_vc(s1.camera_ep, v.display_ep, QosSpec::guaranteed(20_000_000))
        .unwrap();
    let vc2 = sys
        .net
        .open_vc(s2.camera_ep, v.display_ep, QosSpec::guaranteed(20_000_000))
        .unwrap();
    let mut wm = WindowManager::new(v.display.clone(), 1);
    wm.create(vc1.dst_vci, Rect::new(0, 0, 176, 144));
    wm.create(vc2.dst_vci, Rect::new(0, 200, 176, 144));
    let raw_cfg = CameraConfig {
        mode: VideoMode::Raw,
        ..CameraConfig::default()
    };
    let jpeg_cfg = CameraConfig {
        mode: VideoMode::Mjpeg(75),
        ..CameraConfig::default()
    };
    let cam1 = sys.build_camera(&s1, Scene::TestCard, raw_cfg, vc1.src_vci);
    let cam2 = sys.build_camera(&s2, Scene::TestCard, jpeg_cfg, vc2.src_vci);
    let mut sim = Simulator::new();
    Camera::start(&cam1, &mut sim);
    Camera::start(&cam2, &mut sim);
    sim.run_until(120 * MS);
    cam1.borrow_mut().stop();
    cam2.borrow_mut().stop();
    sim.run();
    let d = v.display.borrow();
    assert_eq!(d.stats.frames_bad, 0);
    // Raw window exact; compressed window within codec tolerance.
    assert_eq!(d.pixel(0, 0), 16);
    let jpeg_pixel = d.pixel(0, 200) as i32;
    assert!((jpeg_pixel - 16).abs() <= 6, "jpeg pixel {jpeg_pixel}");
}

#[test]
fn videophone_reports_are_deterministic() {
    let cfg = VideoPhoneConfig {
        path: VideoPath::Dan,
        duration: 300 * MS,
        ..VideoPhoneConfig::default()
    };
    let a = VideoPhone::run(cfg);
    let b = VideoPhone::run(cfg);
    assert_eq!(a.tiles_blitted, b.tiles_blitted);
    assert_eq!(a.video_latency_p50, b.video_latency_p50);
    assert_eq!(a.cpu_bytes, b.cpu_bytes);
}

/// The workloads above, re-expressed through the declarative scenario
/// harness: the same claims (delivery, shared displays, admission
/// protection, determinism) must hold when the system is assembled from
/// a spec instead of by hand.
mod scenario_harness {
    use pegasus_system::atm::network::TopologyShape;
    use pegasus_system::scenario::spec::TopologySpec;
    use pegasus_system::scenario::{presets, run, ScenarioSpec, SessionMix};
    use pegasus_system::sim::time::MS;

    /// `two_cameras_share_one_display`, spec-driven: a TV group is
    /// exactly N cameras into one window stack.
    #[test]
    fn tv_group_shares_one_display() {
        let mut spec = ScenarioSpec::base("shared-display");
        spec.sessions = 4;
        spec.mix = SessionMix::new(0.0, 0.0, 1.0);
        spec.duration = 150 * MS;
        let r = run(&spec);
        assert_eq!(r.sessions.2, 4);
        // Four feeds fill one room: endpoints = 4 cameras + 1 display.
        assert_eq!(r.endpoints, 5);
        // One feed paints about 400 tiles here: more than three feeds' worth.
        assert!(
            r.tiles_blitted > 1200,
            "every feed painted: {}",
            r.tiles_blitted
        );
        assert_eq!(r.cells.dropped_unroutable, 0);
    }

    /// `admission_control_protects_the_backbone`, spec-driven: ask for
    /// more guaranteed bandwidth than the fabric has; the QoS broker
    /// must renegotiate the surplus down or reject it, never overbook a
    /// link.
    #[test]
    fn oversubscription_renegotiates_instead_of_overbooking() {
        let mut spec = ScenarioSpec::base("oversub");
        // Two switches: every session crosses the one 100 Mbit/s trunk.
        spec.topology = TopologySpec {
            switches: 2,
            ..spec.topology
        };
        spec.sessions = 24;
        spec.mix = SessionMix::new(1.0, 0.0, 0.0);
        spec.video_bps = 30_000_000; // 24 × 30M across one 100M backbone
        spec.duration = 50 * MS;
        let r = run(&spec);
        assert!(
            r.broker.degraded + r.broker.rejected > 0,
            "surplus sessions must renegotiate or be refused"
        );
        assert!(
            r.broker.admitted > 0,
            "the trunk fits at least one full-rate call"
        );
        assert_eq!(
            r.broker.admitted + r.broker.degraded + r.broker.rejected,
            24
        );
        let budget = 0.95;
        assert!(
            r.max_link_utilization <= budget + 1e-9,
            "reserved {} over budget {}",
            r.max_link_utilization,
            budget
        );
    }

    /// `videophone_reports_are_deterministic`, spec-driven, through the
    /// umbrella crate's re-export path.
    #[test]
    fn spec_runs_are_deterministic_end_to_end() {
        let spec = presets::smoke().with_seed(3);
        assert_eq!(run(&spec).to_json(), run(&spec).to_json());
    }

    /// The full-stack claim at fabric scale: a multi-switch ring still
    /// delivers every class with zero deadline misses.
    #[test]
    fn ring_fabric_carries_the_mixed_workload() {
        let mut spec = ScenarioSpec::base("ring-mixed");
        spec.topology = TopologySpec {
            shape: TopologyShape::Ring,
            switches: 4,
            ..spec.topology
        };
        spec.sessions = 8;
        spec.duration = 150 * MS;
        let r = run(&spec);
        assert_eq!(r.switches, 4);
        assert_eq!(r.deadline_misses, 0);
        assert!(r.cells.delivered > 1_000);
    }
}
