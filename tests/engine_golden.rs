//! Golden-trace regression for the event-engine rearchitecture.
//!
//! The `GOLDEN_*` constants below were captured by running these exact
//! scenarios on the pre-rearchitecture engine (commit 9822aa3: boxed
//! closures, `Rc<Cell<bool>>` cancel flags, linear-scan cancel). The
//! slab-queue engine must reproduce them bit-for-bit: same executed
//! event count, same final clock, and an identical per-cell arrival-time
//! trace — proving that the slab queue, seq-generation cancellation and
//! cell trains changed the cost of the simulation, not its
//! meaning.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_system::atm::cell::Cell;
use pegasus_system::atm::link::{CaptureSink, CellSink, Link};
use pegasus_system::atm::signalling::QosSpec;
use pegasus_system::core::system::System;
use pegasus_system::devices::camera::{Camera, CameraConfig};
use pegasus_system::devices::display::{Rect, WindowManager};
use pegasus_system::devices::video::Scene;
use pegasus_system::sim::time::{Ns, MS};
use pegasus_system::sim::Simulator;

/// FNV-1a over the `(time, vci)` arrival sequence: a whole-trace
/// fingerprint that any reordering or retiming perturbs.
fn trace_hash(trace: &[(Ns, u16)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(t, vci) in trace {
        for b in t.to_le_bytes().into_iter().chain(vci.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A cell sink written here rather than borrowed from the library: it
/// observes the engine's per-event clock exactly as every
/// timing-sensitive device model does.
#[derive(Default)]
struct TimingProbe {
    trace: Vec<(Ns, u16)>,
}

impl CellSink for TimingProbe {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        self.trace.push((sim.now(), cell.vci()));
    }
}

/// Drives one deterministic gap/burst cell pattern into a fresh link.
/// Returns the arrival trace plus `(events_executed, final_clock)`.
fn drive_pattern<S: CellSink + 'static>(sink: Rc<RefCell<S>>) -> (u64, Ns) {
    let mut link = Link::new(155_000_000, 700, sink);
    let mut sim = Simulator::new();
    let mut rng: u64 = 42;
    for burst in 0..40u64 {
        let burst_len = 1 + (burst % 7);
        for i in 0..burst_len {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            link.send(&mut sim, Cell::new(((rng >> 33) % 997) as u16 + i as u16));
        }
        // Alternate draining mid-burst and over-draining past idle.
        if burst % 3 == 0 {
            sim.run_until(sim.now() + 5_000);
        } else {
            sim.run();
            sim.run_until(sim.now() + 11_000 * (burst % 2 + 1));
        }
    }
    sim.run();
    (sim.events_executed(), sim.now())
}

// ---------------------------------------------------------------------
// Scenario A: camera → switch → display, all per-cell (timing-sensitive)
// sinks. Clock, tiles and forward count captured on the seed engine.
// The event count was 3,314 there; a fabric crossing has since stopped
// being an event of its own (it rides the feeding link's delivery), and
// each of the 468 switched cells crosses 3 switches: 3,314 − 468 × 3
// = 1,910.
// ---------------------------------------------------------------------

const GOLDEN_A_EVENTS: u64 = 1_910;
const GOLDEN_A_CLOCK: Ns = 80_091_708;
const GOLDEN_A_TILES: u64 = 792;
const GOLDEN_A_SWITCHED: u64 = 468;

#[test]
fn full_stack_event_count_and_clock_match_seed_engine() {
    let mut sys = System::new();
    let a = sys.add_workstation("a", 40);
    let b = sys.add_workstation("b", 40);
    let vc = sys
        .net
        .open_vc(a.camera_ep, b.display_ep, QosSpec::guaranteed(20_000_000))
        .unwrap();
    let mut wm = WindowManager::new(b.display.clone(), 1);
    wm.create(vc.dst_vci, Rect::new(0, 0, 176, 144));
    let cam = sys.build_camera(
        &a,
        Scene::MovingGradient,
        CameraConfig::default(),
        vc.src_vci,
    );
    let mut sim = Simulator::new();
    Camera::start(&cam, &mut sim);
    sim.run_until(60 * MS);
    cam.borrow_mut().stop();
    sim.run();

    let tiles = b.display.borrow().stats.tiles_blitted;
    let switched = sys.net.switch(sys.fabric[0]).borrow().stats.switched;
    println!(
        "scenario A actuals: events={} clock={} tiles={} switched={}",
        sim.events_executed(),
        sim.now(),
        tiles,
        switched
    );
    assert_eq!(
        sim.events_executed(),
        GOLDEN_A_EVENTS,
        "executed event count drifted"
    );
    assert_eq!(sim.now(), GOLDEN_A_CLOCK, "final clock drifted");
    assert_eq!(tiles, GOLDEN_A_TILES, "tiles blitted drifted");
    assert_eq!(
        switched, GOLDEN_A_SWITCHED,
        "backbone forward count drifted"
    );
}

// ---------------------------------------------------------------------
// Scenario B: raw link arrival-time trace, this file's probe vs the
// library's capture sink. Captured on the seed engine.
// ---------------------------------------------------------------------

const GOLDEN_B_LEN: usize = 155;
const GOLDEN_B_HASH: u64 = 0x829a_4e96_ca7c_89f5;
const GOLDEN_B_FIRST: (Ns, u16) = (3_436, 145);
const GOLDEN_B_LAST: (Ns, u16) = (876_508, 675);
const GOLDEN_B_PROBE_EVENTS: u64 = 155;
const GOLDEN_B_CLOCK: Ns = 876_508;

#[test]
fn arrival_trace_matches_seed_engine_on_both_delivery_paths() {
    // One event per cell, the probe reading the clock at each.
    let probe = Rc::new(RefCell::new(TimingProbe::default()));
    let (probe_events, probe_clock) = drive_pattern(probe.clone());
    let probe_trace = probe.borrow().trace.clone();

    println!(
        "scenario B actuals: len={} hash={:#018x} first={:?} last={:?} events={} clock={}",
        probe_trace.len(),
        trace_hash(&probe_trace),
        probe_trace.first().unwrap(),
        probe_trace.last().unwrap(),
        probe_events,
        probe_clock
    );
    assert_eq!(probe_trace.len(), GOLDEN_B_LEN);
    assert_eq!(*probe_trace.first().unwrap(), GOLDEN_B_FIRST);
    assert_eq!(*probe_trace.last().unwrap(), GOLDEN_B_LAST);
    assert_eq!(
        trace_hash(&probe_trace),
        GOLDEN_B_HASH,
        "arrival-time trace drifted"
    );
    assert_eq!(
        probe_events, GOLDEN_B_PROBE_EVENTS,
        "per-cell event count drifted"
    );
    assert_eq!(probe_clock, GOLDEN_B_CLOCK, "final clock drifted");

    // CaptureSink must record exactly the same per-cell arrival times
    // in the same order.
    let capture = CaptureSink::shared();
    let (_capture_events, capture_clock) = drive_pattern(capture.clone());
    let capture_trace: Vec<(Ns, u16)> = capture
        .borrow()
        .arrivals
        .iter()
        .map(|(t, c)| (*t, c.vci()))
        .collect();
    assert_eq!(
        capture_trace, probe_trace,
        "CaptureSink records a different trace"
    );
    assert_eq!(
        capture_clock, probe_clock,
        "CaptureSink run ends on a different clock"
    );
}
