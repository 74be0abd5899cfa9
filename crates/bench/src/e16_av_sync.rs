//! E16 — The playback control process synchronizes play-out from source
//! sync marks and arrival events (§2.2).

use std::rc::Rc;

use pegasus_sim::time::{fmt_ns, MS};
use pegasus_sim::Simulator;
use pegasus_streams::playback::{PlaybackControl, PlaybackPolicy};
use crate::{Claim, Result};

/// 500 frames of video 30 ms (+0–6 ms) and audio 2 ms (+0–1 ms) late:
/// `(skew p50, skew max, late fraction)`.
fn run(policy: PlaybackPolicy) -> (u64, u64, f64) {
    let (video_delay, audio_delay) = (30 * MS, 2 * MS);
    let ctl = PlaybackControl::shared(policy);
    let (video, audio) = {
        let mut c = ctl.borrow_mut();
        (c.add_stream("video"), c.add_stream("audio"))
    };
    let mut sim = Simulator::new();
    for i in 0..500u64 {
        let capture = i * 40 * MS;
        // Deterministic jitter on top of the base transport delay.
        let vj = (i % 7) * MS;
        let aj = (i % 3) * MS / 2;
        let cv = Rc::clone(&ctl);
        sim.schedule_at(capture + video_delay + vj, move |sim| {
            PlaybackControl::on_arrival(&cv, sim, video, capture);
        });
        let ca = Rc::clone(&ctl);
        sim.schedule_at(capture + audio_delay + aj, move |sim| {
            PlaybackControl::on_arrival(&ca, sim, audio, capture);
        });
    }
    sim.run();
    let mut c = ctl.borrow_mut();
    let p50 = c.skew.percentile(50.0).unwrap_or(0);
    let max = c.skew.max().unwrap_or(0);
    let late = c.late_fraction();
    (p50, max, late)
}

pub fn claim() -> Result<Claim> {
    let (p50, max, _) = run(PlaybackPolicy::FreeRunning);
    let mut rows = vec![
        "transport: video 30 ms (+0-6 ms jitter), audio 2 ms (+0-1 ms jitter), 500 frames".into(),
        format!(
            "policy=free-running  skew p50={}  skew max={}",
            fmt_ns(p50),
            fmt_ns(max)
        ),
    ];
    // The delays differ by 28 ms, give or take either stream's jitter.
    let free_running = 27 * MS..=34 * MS;
    let mut holds = free_running.contains(&p50) && free_running.contains(&max);
    let mut synced = Vec::new();
    for target in [20 * MS, 40 * MS, 60 * MS] {
        let (p50, max, late) = run(PlaybackPolicy::Synchronized {
            target_latency: target,
        });
        rows.push(format!(
            "policy=synchronized @{}  skew p50={}  skew max={}  late={:.1}%",
            fmt_ns(target),
            fmt_ns(p50),
            fmt_ns(max),
            late * 100.0
        ));
        holds &= (target > 36 * MS) == (max == 0 && late == 0.0);
        synced.push(format!("@{} max {}", fmt_ns(target), fmt_ns(max)));
    }
    Ok(Claim {
        id: "E16",
        title: "A/V skew: free-running vs control-stream playback control",
        anchor: "§2.2 playback control process",
        expected_shape: "free-running skew ≈ the 28 ms delay difference (27–34 ms with jitter); \
            a target above the worst video delay (36 ms) gives 0 skew, no late frames; one below not",
        rows,
        measured: format!(
            "free-running p50 {} / max {}; synchronized {}",
            fmt_ns(p50),
            fmt_ns(max),
            synced.join(", ")
        ),
        holds,
    })
}
