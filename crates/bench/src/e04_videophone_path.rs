//! E4 — "no processors need to process any video data" (§2, Fig. 1):
//! the DAN videophone against a bus-attached baseline.

use pegasus::videophone::{VideoPath, VideoPhone, VideoPhoneConfig};
use pegasus_sim::time::{fmt_ns, MS};
use crate::{Claim, Result};

pub fn claim() -> Result<Claim> {
    let run = |path| {
        VideoPhone::run(VideoPhoneConfig {
            path,
            duration: 1_000 * MS,
            ..VideoPhoneConfig::default()
        })
    };
    let (dan, bus) = (run(VideoPath::Dan), run(VideoPath::BusAttached));
    let paths = [("DAN (devices on switch)", &dan), ("bus-attached baseline", &bus)];
    let rows = paths.map(|(label, r)| {
        format!(
            "path={label}  cpu media bytes (A,B)={:?}  cpu time burnt={}  video p50={}  \
             tiles={:?}  audio underruns={:?}",
            r.cpu_bytes,
            fmt_ns(r.cpu_time.0 + r.cpu_time.1),
            fmt_ns(r.video_latency_p50.0),
            r.tiles_blitted,
            r.audio_underruns
        )
    });
    // One second of call: bytes are bytes per second.
    let per_cpu = 100_000..1_000_000;
    Ok(Claim {
        id: "E4",
        title: "videophone: media bytes touched by workstation CPUs",
        anchor: "§2 'no processors need to process any video data'",
        expected_shape: "DAN row shows cpu bytes (0, 0); baseline pushes the whole compressed \
            stream (hundreds of KB/s) through each CPU and adds latency",
        rows: rows.to_vec(),
        measured: format!(
            "DAN {:?} bytes; baseline {:?} bytes in 1 s, p50 {} vs {}",
            dan.cpu_bytes,
            bus.cpu_bytes,
            fmt_ns(bus.video_latency_p50.0),
            fmt_ns(dan.video_latency_p50.0)
        ),
        holds: dan.cpu_bytes == (0, 0)
            && per_cpu.contains(&bus.cpu_bytes.0)
            && per_cpu.contains(&bus.cpu_bytes.1)
            && bus.video_latency_p50.0 > dan.video_latency_p50.0,
    })
}
