//! The video-phone application.
//!
//! "When video flows from a camera in one system to a display in another
//! — as is the case in video-phone and video-conferencing applications —
//! no processors need to process any video data. This goes for the audio
//! data too, of course. Hence the processors in the workstations, at
//! both the camera and display, only need to manage the connections and
//! devices." (§2)
//!
//! [`VideoPhone`] sets up the bidirectional audio + video call either
//! the DAN way ([`VideoPath::Dan`]) or through the host CPUs
//! ([`VideoPath::BusAttached`], the conventional-workstation baseline),
//! and reports end-to-end latency and the bytes each CPU had to touch.

use pegasus_atm::signalling::QosSpec;
use pegasus_devices::camera::{Camera, CameraConfig};
use pegasus_devices::display::{Rect, WindowManager};
use pegasus_devices::video::Scene;
use pegasus_sim::time::{Ns, MS};
use pegasus_sim::Simulator;

use crate::system::{System, Workstation};

/// How media travels between the parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoPath {
    /// Device → switch → switch → device; CPUs only signal.
    Dan,
    /// Device → host CPU → network → host CPU → device, as on a
    /// bus-attached workstation.
    BusAttached,
}

/// Bandwidth reserved per video stream: 20 Mbit/s of a 100 Mbit/s
/// access link.
const VIDEO_BPS: u64 = 20_000_000;

/// Call parameters.
#[derive(Debug, Clone, Copy)]
pub struct VideoPhoneConfig {
    /// Media path.
    pub path: VideoPath,
    /// Camera settings (rate, coding, granularity).
    pub camera: CameraConfig,
    /// Call duration.
    pub duration: Ns,
}

impl Default for VideoPhoneConfig {
    fn default() -> Self {
        VideoPhoneConfig {
            path: VideoPath::Dan,
            camera: CameraConfig::default(),
            duration: 1_000 * MS,
        }
    }
}

/// What a call measured.
#[derive(Debug, Clone)]
pub struct VideoPhoneReport {
    /// Tiles painted on each party's display.
    pub tiles_blitted: (u64, u64),
    /// Median scan-to-display latency (ns) per direction.
    pub video_latency_p50: (u64, u64),
    /// 99th-percentile latency per direction.
    pub video_latency_p99: (u64, u64),
    /// Audio drop-outs per direction.
    pub audio_underruns: (u64, u64),
    /// Media bytes the two host CPUs touched.
    pub cpu_bytes: (u64, u64),
    /// CPU time the hosts burned moving media.
    pub cpu_time: (Ns, Ns),
}

/// A two-party audio + video call.
pub struct VideoPhone;

impl VideoPhone {
    /// Places the call between two fresh workstations and runs it to
    /// completion, returning the measurements.
    pub fn run(cfg: VideoPhoneConfig) -> VideoPhoneReport {
        let mut sys = System::new();
        let a = sys.add_workstation("alice", 60);
        let b = sys.add_workstation("bob", 60);
        let mut sim = Simulator::new();

        let (wm_a, wm_b) = (
            WindowManager::new(a.display.clone(), 1),
            WindowManager::new(b.display.clone(), 1),
        );
        Self::one_direction(&mut sys, &mut sim, &a, &b, wm_b, &cfg);
        Self::one_direction(&mut sys, &mut sim, &b, &a, wm_a, &cfg);

        sim.run_until(cfg.duration);
        // Let in-flight cells drain.
        sim.run_until(cfg.duration + 100 * MS);

        let tiles_blitted = (
            a.display.borrow().stats.tiles_blitted,
            b.display.borrow().stats.tiles_blitted,
        );
        let video_latency_p50 = (
            a.display
                .borrow_mut()
                .stats
                .latency
                .percentile(50.0)
                .unwrap_or(0),
            b.display
                .borrow_mut()
                .stats
                .latency
                .percentile(50.0)
                .unwrap_or(0),
        );
        let video_latency_p99 = (
            a.display
                .borrow_mut()
                .stats
                .latency
                .percentile(99.0)
                .unwrap_or(0),
            b.display
                .borrow_mut()
                .stats
                .latency
                .percentile(99.0)
                .unwrap_or(0),
        );
        let audio_underruns = (
            a.audio_sink.borrow().stats.underruns,
            b.audio_sink.borrow().stats.underruns,
        );
        let cpu_bytes = (
            a.host_nic.borrow().bytes_touched,
            b.host_nic.borrow().bytes_touched,
        );
        let cpu_time = (a.host_nic.borrow().cpu_time, b.host_nic.borrow().cpu_time);
        VideoPhoneReport {
            tiles_blitted,
            video_latency_p50,
            video_latency_p99,
            audio_underruns,
            cpu_bytes,
            cpu_time,
        }
    }

    /// Wires camera+audio of `from` to display+audio-sink of `to`.
    fn one_direction(
        sys: &mut System,
        sim: &mut Simulator,
        from: &Workstation,
        to: &Workstation,
        mut wm: WindowManager,
        cfg: &VideoPhoneConfig,
    ) {
        // Audio goes device-to-device either way (its bandwidth is
        // negligible; the interesting contrast is video).
        let audio_vc = sys
            .net
            .open_vc(
                from.audio_src_ep,
                to.audio_sink_ep,
                QosSpec::guaranteed(128_000),
            )
            .expect("audio admission");
        let audio = sys.build_audio_source(from, audio_vc.src_vci);
        pegasus_devices::audio::AudioSource::start(&audio, sim);
        pegasus_devices::audio::AudioSink::start_playout(&to.audio_sink, sim, cfg.duration);

        let cam_vci = match cfg.path {
            VideoPath::Dan => {
                let vc = sys
                    .net
                    .open_vc(
                        from.camera_ep,
                        to.display_ep,
                        QosSpec::guaranteed(VIDEO_BPS),
                    )
                    .expect("video admission");
                wm.create(vc.dst_vci, Rect::new(0, 0, 176, 144));
                vc.src_vci
            }
            VideoPath::BusAttached => {
                // Camera → own host; host forwards → remote display.
                let vc_in = sys
                    .net
                    .open_vc(from.camera_ep, from.host_ep, QosSpec::guaranteed(VIDEO_BPS))
                    .expect("camera-to-host admission");
                let vc_out = sys
                    .net
                    .open_vc(from.host_ep, to.display_ep, QosSpec::guaranteed(VIDEO_BPS))
                    .expect("host-to-display admission");
                from.host_nic.borrow_mut().forward =
                    Some((vc_out.src_vci, sys.net.endpoint_tx(from.host_ep)));
                wm.create(vc_out.dst_vci, Rect::new(0, 0, 176, 144));
                vc_in.src_vci
            }
        };
        let cam = sys.build_camera(from, Scene::MovingGradient, cfg.camera, cam_vci);
        Camera::start(&cam, sim);
        let cam2 = cam.clone();
        sim.schedule_at(cfg.duration, move |_| cam2.borrow_mut().stop());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_devices::camera::Granularity;

    fn quick_cfg(path: VideoPath) -> VideoPhoneConfig {
        VideoPhoneConfig {
            path,
            duration: 500 * MS,
            ..VideoPhoneConfig::default()
        }
    }

    #[test]
    fn dan_call_delivers_video_both_ways_with_zero_cpu_bytes() {
        let r = VideoPhone::run(quick_cfg(VideoPath::Dan));
        assert!(
            r.tiles_blitted.0 > 1000,
            "alice blitted {}",
            r.tiles_blitted.0
        );
        assert!(
            r.tiles_blitted.1 > 1000,
            "bob blitted {}",
            r.tiles_blitted.1
        );
        assert_eq!(r.cpu_bytes, (0, 0), "DAN: CPUs only manage connections");
        assert_eq!(r.audio_underruns, (0, 0));
    }

    #[test]
    fn bus_attached_call_burns_cpu_on_every_byte() {
        let r = VideoPhone::run(quick_cfg(VideoPath::BusAttached));
        assert!(r.tiles_blitted.0 > 1000);
        assert!(r.cpu_bytes.0 > 100_000, "cpu bytes {}", r.cpu_bytes.0);
        assert!(r.cpu_bytes.1 > 100_000);
        assert!(r.cpu_time.0 > 0);
    }

    #[test]
    fn tile_granularity_beats_frame_granularity_on_latency() {
        let mut tile_cfg = quick_cfg(VideoPath::Dan);
        tile_cfg.camera.granularity = Granularity::TileRow;
        let mut frame_cfg = quick_cfg(VideoPath::Dan);
        frame_cfg.camera.granularity = Granularity::Frame;
        let tile = VideoPhone::run(tile_cfg);
        let frame = VideoPhone::run(frame_cfg);
        // Tile pipelining: p50 well under half a frame time. Frame
        // granularity: rows wait up to a full frame scan (median half a
        // frame, p99 nearly a whole one).
        assert!(
            tile.video_latency_p50.0 < 10 * MS,
            "tile p50 {}",
            tile.video_latency_p50.0
        );
        assert!(
            frame.video_latency_p50.0 > 15 * MS,
            "frame p50 {}",
            frame.video_latency_p50.0
        );
        assert!(
            frame.video_latency_p99.0 > 30 * MS,
            "frame p99 {}",
            frame.video_latency_p99.0
        );
        assert!(frame.video_latency_p50.0 > 3 * tile.video_latency_p50.0);
    }

    #[test]
    fn bus_attached_adds_latency() {
        let dan = VideoPhone::run(quick_cfg(VideoPath::Dan));
        let bus = VideoPhone::run(quick_cfg(VideoPath::BusAttached));
        assert!(
            bus.video_latency_p50.0 > dan.video_latency_p50.0,
            "bus {} !> dan {}",
            bus.video_latency_p50.0,
            dan.video_latency_p50.0
        );
    }
}
