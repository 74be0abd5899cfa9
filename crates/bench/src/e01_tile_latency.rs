//! E1 — Tiles cut latency "from a 'frame time' (33 or 40 ms) to a 'tile
//! time' (30 to 40 µs)" (§2.1).

use pegasus::videophone::{VideoPath, VideoPhone, VideoPhoneConfig};
use pegasus_devices::camera::Granularity;
use pegasus_sim::time::{fmt_ns, tx_time, MS, US};
use crate::{orders, Claim, Result};

/// Scan-to-display latency `(p50, p99)` of camera A on a DAN call.
fn latency(granularity: Granularity) -> (u64, u64) {
    let mut cfg = VideoPhoneConfig {
        path: VideoPath::Dan,
        duration: 800 * MS,
        ..VideoPhoneConfig::default()
    };
    cfg.camera.granularity = granularity;
    let r = VideoPhone::run(cfg);
    (r.video_latency_p50.0, r.video_latency_p99.0)
}

pub fn claim() -> Result<Claim> {
    // The per-hop buffering quantum itself:
    // a 16-tile AAL5 frame (~1 KB) on a 100 Mbit/s link.
    let tile_frame_bytes: usize = 15 + 8 * 70;
    let cells = tile_frame_bytes.div_ceil(48) + 1;
    let tile_time = tx_time(cells * 53, 100_000_000);
    let frame_time = 40 * MS;
    let reduction = frame_time as f64 / tile_time as f64;
    let (tile_p50, tile_p99) = latency(Granularity::TileRow);
    let (frame_p50, frame_p99) = latency(Granularity::Frame);
    let row = |label, p50, p99| {
        let (p50, p99) = (fmt_ns(p50), fmt_ns(p99));
        format!("granularity={label}  scan→display p50={p50}  p99={p99}")
    };
    let (tile, frame) = (fmt_ns(tile_time), fmt_ns(frame_time));
    Ok(Claim {
        id: "E1",
        title: "end-to-end camera→display latency: tile vs frame granularity",
        anchor: "§2.1 'tile time 30–40 µs vs frame time 33–40 ms'",
        expected_shape: "tile-row p50 in the tens of µs; frame p50 ~half a frame (¼–¾ of 40 ms), \
            p99 ~a full frame (¾–1); per-hop reduction ~3 orders of magnitude",
        rows: vec![
            format!(
                "per-hop tile-group time={tile}  per-hop frame time={frame}  \
                 reduction={reduction:.0}x"
            ),
            row("tile-row pipelining (DAN)", tile_p50, tile_p99),
            row("whole-frame buffering", frame_p50, frame_p99),
        ],
        measured: format!(
            "tile p50 {}; frame p50 {}, p99 {}; {reduction:.0}x per hop",
            fmt_ns(tile_p50),
            fmt_ns(frame_p50),
            fmt_ns(frame_p99)
        ),
        holds: (10 * US..100 * US).contains(&tile_p50)
            && (frame_time / 4..=frame_time * 3 / 4).contains(&frame_p50)
            && (frame_time * 3 / 4..=frame_time).contains(&frame_p99)
            && orders(reduction, 1.0) == 3.0,
    })
}
