//! The acceptance gate for the tile path at tile cost: once warm,
//! nothing between the CCD image and the screen allocates per tile.
//!
//! * **Transmit** — a camera row (`emit_row`: tile, code, pack into a
//!   leased buffer, segment by reference, hand the cells to the link)
//!   allocates exactly what the frame path it rides on does, the one
//!   `Rc` control block of each frozen tile-frame buffer
//!   (`crates/atm/tests/no_alloc_forwarding.rs` is that gate), and
//!   nothing that scales with tiles: at most one allocation per tile
//!   frame, and a frame packs several tiles.
//! * **Receive** — `Display::deliver` of a compressed tile frame
//!   (reassemble in place, parse through the borrowed view, validate or
//!   decode, blit) performs **zero** allocations, with a framebuffer or
//!   without.
//! * **No coding state** — a Motion-JPEG camera asks for nothing larger
//!   than a Raw one does: a tile is coded straight into the bytes its
//!   picture keeps of its rows, with no per-thread table beside them.
//!
//! Measured, like the forwarding gate, with a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pegasus_atm::cell::Cell;
use pegasus_atm::link::{CaptureSink, CellSink, Link};
use pegasus_devices::camera::{Camera, CameraConfig, VideoMode};
use pegasus_devices::display::{Display, Rect, WindowManager};
use pegasus_devices::video::{Scene, SyntheticVideo};
use pegasus_sim::time::MS;
use pegasus_sim::Simulator;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The largest single request so far, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made while `window` runs.
fn allocs_during(window: impl FnOnce()) -> u64 {
    let before = allocs();
    window();
    allocs() - before
}

/// The fewest allocations `window` makes in three tries: the test
/// harness's own threads allocate at arbitrary wall times, and the
/// minimum filters them out (the device code is deterministic).
fn min_allocs(mut window: impl FnMut() -> u64) -> u64 {
    (0..3).map(|_| window()).min().expect("three windows")
}

/// A consumer that counts and releases cells immediately (returning
/// their view leases to the arena).
#[derive(Default)]
struct DrainSink {
    cells: u64,
}

impl CellSink for DrainSink {
    fn deliver(&mut self, _sim: &mut Simulator, _cell: Cell) {
        self.cells += 1;
    }
}

const VCI: u16 = 40;

/// Both halves run inside one test: the allocation counter is
/// process-global, so concurrent tests would pollute each other's
/// deltas.
#[test]
fn tile_path_allocates_nothing_per_tile() {
    coding_allocates_nothing_a_raw_camera_does_not(); // first: this thread has coded nothing yet
    camera_rows_allocate_per_sealed_frame_not_per_tile();
    display_delivery_allocates_nothing();
}

/// The largest single allocation while a QCIF camera in `mode` runs two
/// frames: a QCIF image is 25 KB, the buffer its coded rows go in 28 KB,
/// a tile frame under 2 KB.
fn largest_alloc_of_a_run(mode: VideoMode) -> usize {
    let sink = Rc::new(RefCell::new(DrainSink::default()));
    let tx = Rc::new(RefCell::new(Link::new(155_000_000, 1_000, sink.clone())));
    let cfg = CameraConfig {
        mode,
        ..CameraConfig::default()
    };
    let cam = Camera::new(SyntheticVideo::qcif(Scene::MovingGradient), cfg, VCI, tx);
    let mut sim = Simulator::new();
    Camera::start(&cam, &mut sim);
    let period = cam.borrow().frame_period();
    LARGEST.store(0, Ordering::Relaxed);
    sim.run_until(2 * period);
    assert!(sink.borrow().cells > 0);
    LARGEST.load(Ordering::Relaxed)
}

fn coding_allocates_nothing_a_raw_camera_does_not() {
    const TABLE_SIZED: usize = 128 << 10;
    for mode in [VideoMode::Raw, VideoMode::Mjpeg(50)] {
        let largest = largest_alloc_of_a_run(mode);
        assert!(
            largest < TABLE_SIZED,
            "a {mode:?} camera allocated {largest} bytes at once"
        );
    }
}

/// Allocations, tile frames sealed and tiles sent over the rows of one
/// video frame, for a QCIF Motion-JPEG camera.
fn camera_row_allocs() -> (u64, u64, u64) {
    let sink = Rc::new(RefCell::new(DrainSink::default()));
    let tx = Rc::new(RefCell::new(Link::new(155_000_000, 1_000, sink.clone())));
    let cam = Camera::new(
        SyntheticVideo::qcif(Scene::MovingGradient),
        CameraConfig::default(),
        VCI,
        tx,
    );
    let mut sim = Simulator::new();
    Camera::start(&cam, &mut sim);
    let period = cam.borrow().frame_period();
    // Warm-up: grow the arena pool, the cell scratch, the link's train
    // and the event slab to their steady-state capacities.
    let mut frame = 20;
    sim.run_until(frame * period);

    // Every frame tick falls on a multiple of the period and schedules
    // that frame's rows (a boxed closure each — the tick's cost, not
    // the row's). A window opening 1 ms after a tick and closing just
    // before the next holds row emissions and cell deliveries only.
    let (mut sealed, mut sent) = (0, 0);
    let mut next_window = || {
        frame += 1;
        sim.run_until(frame * period + MS);
        let (frames, tiles) = {
            let c = cam.borrow();
            (c.stats.aal5_frames, c.stats.tiles_sent)
        };
        let allocs = allocs_during(|| sim.run_until((frame + 1) * period - 1));
        let c = cam.borrow();
        sealed = c.stats.aal5_frames - frames;
        sent = c.stats.tiles_sent - tiles;
        assert!(
            sent >= 16 * 22,
            "the window must hold most of a frame's rows"
        );
        allocs
    };
    let allocs = min_allocs(&mut next_window);
    assert!(sink.borrow().cells > 0);
    (allocs, sealed, sent)
}

fn camera_rows_allocate_per_sealed_frame_not_per_tile() {
    let (allocs, sealed, tiles) = camera_row_allocs();
    // Fewer frames than tiles, so one allocation per tile cannot pass
    // for one per frame.
    assert!(sealed < tiles, "{sealed} tile frames for {tiles} tiles");
    assert!(
        allocs <= sealed,
        "a camera row may allocate the frozen buffer's control block \
         and nothing else: {allocs} allocations for {sealed} tile frames"
    );
}

fn display_delivery_allocates_nothing() {
    // One compressed QCIF frame's cells, captured from a real camera.
    let out = CaptureSink::shared();
    let tx = Rc::new(RefCell::new(Link::new(155_000_000, 1_000, out.clone())));
    let cam = Camera::new(
        SyntheticVideo::qcif(Scene::MovingGradient),
        CameraConfig::default(),
        VCI,
        tx,
    );
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
    assert!(cells.iter().any(Cell::is_view), "the zero-copy lane");

    for display in [
        Display::shared(176, 144),
        Display::shared_headless(176, 144),
    ] {
        // A window that clips the stream, under one that hides part of
        // it: every branch of the blit runs, the per-pixel one included.
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(VCI, Rect::new(0, 0, 150, 120));
        wm.create(VCI + 1, Rect::new(60, 60, 37, 29));
        let mut deliver_frame = || {
            for cell in &cells {
                display.borrow_mut().deliver(&mut sim, cell.clone());
            }
        };
        deliver_frame(); // warm-up: the reassembler and the occluder scratch
        let before = display.borrow().stats.clone();
        let allocs = min_allocs(|| allocs_during(&mut deliver_frame));
        let d = display.borrow();
        assert_eq!(d.stats.frames_bad, 0);
        assert!(d.stats.tiles_blitted > before.tiles_blitted);
        assert!(d.stats.tiles_discarded > before.tiles_discarded);
        assert_eq!(
            allocs, 0,
            "Display::deliver must not allocate at steady state"
        );
    }
}
