//! E17 — Audio "is much more susceptible to jitter" (§2): drop-outs
//! against jitter and play-out buffer depth.

use pegasus_atm::link::CellSink;
use pegasus_devices::audio::{pack_cell, AudioSink, CELL_PERIOD, SAMPLES_PER_CELL, SAMPLE_PERIOD};
use pegasus_sim::time::{fmt_ns, MS};
use pegasus_sim::Simulator;
use crate::{Claim, Result};

/// Delivers 1000 cells with sawtooth jitter of the given peak, into a
/// sink with the given buffer depth; returns (underruns, p50 latency).
fn run(jitter_peak_ms: u64, buffer_samples: usize) -> (u64, u64) {
    let sink = AudioSink::shared(buffer_samples);
    let mut sim = Simulator::new();
    for i in 0..1_000u64 {
        let ideal = i * CELL_PERIOD;
        let jitter = if jitter_peak_ms == 0 {
            0
        } else {
            (i % 5) * jitter_peak_ms * MS / 4
        };
        let s2 = sink.clone();
        let cell = pack_cell(5, ideal, &[0i16; SAMPLES_PER_CELL]);
        sim.schedule_at(ideal + jitter, move |sim| {
            s2.borrow_mut().deliver(sim, cell)
        });
    }
    // Stop the play-out clock with the stream, so post-stream silence
    // is not miscounted as drop-outs.
    let horizon = 1_000 * CELL_PERIOD;
    AudioSink::start_playout(&sink, &mut sim, horizon);
    sim.run();
    let mut s = sink.borrow_mut();
    let p50 = s.stats.playout_latency.percentile(50.0).unwrap_or(0);
    (s.stats.underruns, p50)
}

pub fn claim() -> Result<Claim> {
    let mut rows = vec![
        "rows: network jitter peak; columns: buffer depth in ms of audio".to_string(),
        "(cells hold 2.5 ms of audio each)".to_string(),
    ];
    let mut covered_drops = 0;
    for jitter_ms in [0u64, 2, 4, 8, 16] {
        let mut row = format!("jitter={jitter_ms} ms");
        for buf_ms in [2.5f64, 5.0, 10.0, 20.0] {
            let (under, _) = run(jitter_ms, (buf_ms * 8.0) as usize);
            row.push_str(&format!("  =buf {buf_ms:>4} ms → {under:>3} drops"));
            if buf_ms > jitter_ms as f64 {
                covered_drops += under;
            }
        }
        rows.push(row);
    }
    let (_, lat_shallow) = run(0, 20);
    let (_, lat_deep) = run(0, 160);
    rows.push(format!(
        "latency cost of buffering=  20-sample buffer p50={}  160-sample buffer p50={}",
        fmt_ns(lat_shallow),
        fmt_ns(lat_deep)
    ));
    let depth = |samples: u64| samples * SAMPLE_PERIOD;
    Ok(Claim {
        id: "E17",
        title: "audio drop-outs vs jitter × play-out buffer depth (8 kHz, 2.5 s)",
        anchor: "§2 'audio ... is much more susceptible to jitter'",
        expected_shape: "drops vanish once the buffer exceeds the jitter peak; the price is that \
            much latency: p50 play-out latency = buffer depth, to within one 2.5 ms cell",
        rows,
        measured: format!(
            "{covered_drops} drops where the buffer exceeds the jitter; p50 latency {} for 2.5 ms \
             of buffer, {} for 20 ms",
            fmt_ns(lat_shallow),
            fmt_ns(lat_deep)
        ),
        holds: covered_drops == 0
            && lat_shallow.abs_diff(depth(20)) <= CELL_PERIOD
            && lat_deep.abs_diff(depth(160)) <= CELL_PERIOD,
    })
}
