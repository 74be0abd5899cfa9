//! The memory gate: what a city holds at its fullest is bounded, and its
//! cameras share the pictures they show.
//!
//! `metropolis-1k` at one twentieth scale on one shard, under the
//! counting allocator of `examples/support/live_alloc.rs` (the one
//! `scripts/profile.sh <target> --live` prints from). Two things are
//! held: the peak of live heap bytes, and how many 16–32 KiB
//! allocations — the class of a rendered QCIF frame, 25,344 bytes —
//! were live at that peak. When every camera rendered a private copy of
//! its picture this run held 252 of those for its 50 sessions and
//! peaked at 10.3 MB; sharing them (`SyntheticVideo::frame_leased`)
//! leaves 7, one per distinct picture on show, and 4.1 MB.

#[path = "../examples/support/live_alloc.rs"]
mod live_alloc;

use pegasus_scenario::{presets, run_sharded};

#[global_allocator]
static ALLOCATOR: live_alloc::LiveAlloc = live_alloc::LiveAlloc;

/// A quarter above the 4,099,277 bytes this run peaks at.
const PEAK_LIVE_BYTES_BOUND: usize = 5_124_000;

/// One test in this binary: the counters are process-global.
#[test]
fn a_small_city_fits_its_bound_and_shares_its_frames() {
    let spec = presets::by_name("metropolis-1k")
        .expect("preset")
        .scale_sessions(0.05);
    live_alloc::reset();
    let report = run_sharded(&spec, 1);
    let (peak, classes) = live_alloc::peak();
    let sessions = report.broker.admitted + report.broker.degraded;
    assert!(sessions >= 40, "admitted {sessions} of {}", spec.sessions);
    let (frame_sized, _) = classes[live_alloc::class_of(176 * 144)];
    println!("peak live {peak} bytes, {frame_sized} frame-sized, {sessions} sessions");
    assert!(
        peak < PEAK_LIVE_BYTES_BOUND,
        "peak live bytes {peak} over the bound {PEAK_LIVE_BYTES_BOUND}"
    );
    assert!(
        (frame_sized as u64) < sessions,
        "{frame_sized} live 16–32 KiB allocations at the peak for {sessions} sessions: \
         cameras are not sharing rendered frames"
    );
}
