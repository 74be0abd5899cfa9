//! The acceptance gate for the zero-copy frame path: once warm, the
//! forwarding hot path — scatter-gather segmentation, link cell trains,
//! a switch hop, per-cell delivery — performs **zero heap allocations
//! per cell**. Allocation volume is measured with a counting global
//! allocator and shown to be independent of how many cells cross the
//! fabric: doubling the cells per frame does not change the per-frame
//! allocation count (one `Rc` control block per frozen frame buffer is
//! the only steady-state allocation, and it amortises over the frame's
//! whole cell train).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use pegasus_atm::aal5::Segmenter;
use pegasus_atm::cell::Cell;
use pegasus_atm::link::{CellSink, Link};
use pegasus_atm::switch::{input_port, Switch};
use pegasus_sim::arena::Arena;
use pegasus_sim::Simulator;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
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

/// Drives `frames` frames of `frame_bytes` payload through
/// camera-edge link → switch → egress link → sink, all on one arena,
/// and returns the cells delivered.
struct Pipeline {
    arena: Arena,
    seg: Segmenter,
    cells: Vec<Cell>,
    link: Link,
    sink: Rc<RefCell<DrainSink>>,
    sim: Simulator,
    template: Vec<u8>,
}

impl Pipeline {
    fn new(frame_bytes: usize) -> Pipeline {
        let sw = Switch::shared("sw", 2, 100);
        sw.borrow_mut().add_route(0, 7, 1, 7);
        let sink = Rc::new(RefCell::new(DrainSink::default()));
        sw.borrow_mut()
            .attach_output(1, Link::new(622_000_000, 100, sink.clone()));
        let link = Link::new(622_000_000, 100, input_port(&sw, 0));
        Pipeline {
            arena: Arena::new(),
            seg: Segmenter::new(7),
            cells: Vec::new(),
            link,
            sink,
            sim: Simulator::new(),
            template: (0..frame_bytes).map(|i| i as u8).collect(),
        }
    }

    fn run_frames(&mut self, frames: usize) {
        for _ in 0..frames {
            let frame = self.arena.frame_from(&self.template);
            self.seg
                .segment_frame(&frame.view_all(), &mut self.cells)
                .expect("in range");
            drop(frame);
            for cell in self.cells.drain(..) {
                self.link.send(&mut self.sim, cell);
            }
            self.sim.run();
        }
    }

    fn delivered(&self) -> u64 {
        self.sink.borrow().cells
    }
}

/// Both halves run inside one test: the allocation counter is
/// process-global, so concurrent tests would pollute each other's
/// deltas.
#[test]
fn zero_copy_forwarding_hot_path() {
    steady_state_forwarding_allocates_per_frame_not_per_cell();
    view_cells_cross_the_switch_without_payload_copies();
    credit_return_paths_allocate_nothing_in_steady_state();
}

/// The credit path's alloc gate: the delayed-return ledger (a
/// swap-remove `Vec` that keeps its capacity), fed directly and through
/// a consumer-side gate, allocates **nothing** once warm.
fn credit_return_paths_allocate_nothing_in_steady_state() {
    use pegasus_atm::credit::{CreditSink, CreditWindow};

    // Delayed returns: acquire a burst, park its returns, advance past
    // their due times. One cycle at steady state.
    let w = CreditWindow::shared(64);
    let mut now: u64 = 0;
    let mut delayed_cycle = |measure: bool| -> u64 {
        let before = allocs();
        assert!(w.borrow_mut().try_acquire_at(now, 32));
        for i in 0..32u64 {
            w.borrow_mut().release_at(now + 5 + i, 1);
        }
        now += 100;
        if measure {
            allocs() - before
        } else {
            0
        }
    };
    for _ in 0..8 {
        delayed_cycle(false); // warm-up: grow the pending ledger
    }
    let delayed = (0..3).map(|_| delayed_cycle(true)).min().expect("windows");
    assert_eq!(
        delayed, 0,
        "delayed credit returns must not allocate at steady state"
    );

    // Through the gate: a burst acquired, its cells drained at the
    // consumer, each return parked on the window until the producer's
    // next look at the clock.
    let w = CreditWindow::shared(64);
    let cs = CreditSink::wrap(Rc::new(RefCell::new(DrainSink::default())));
    cs.borrow_mut().register(7, 5, w.clone());
    let mut sim = Simulator::new();
    let gated_cycle = |sim: &mut Simulator, measure: bool| -> u64 {
        let before = allocs();
        assert!(w.borrow_mut().try_acquire_at(sim.now() + 5, 32));
        for _ in 0..32 {
            cs.borrow_mut().deliver(sim, Cell::new(7));
        }
        if measure {
            allocs() - before
        } else {
            0
        }
    };
    for _ in 0..8 {
        gated_cycle(&mut sim, false);
    }
    let gated = (0..3)
        .map(|_| gated_cycle(&mut sim, true))
        .min()
        .expect("windows");
    assert_eq!(
        gated, 0,
        "gated credit returns must not allocate at steady state"
    );
    assert!(w.borrow().conserved());
}

fn steady_state_forwarding_allocates_per_frame_not_per_cell() {
    // 20 cells per frame vs 40 cells per frame.
    let mut small = Pipeline::new(20 * 48 - 20);
    let mut large = Pipeline::new(40 * 48 - 20);

    // Warm-up: grow every recycled structure (arena pool, cell scratch,
    // train deques, event slab, heap) to steady-state capacity.
    small.run_frames(20);
    large.run_frames(20);

    // Minimum of three windows: the test harness's own service threads
    // can allocate at arbitrary wall times, and the minimum filters
    // that out (the pipeline itself is deterministic).
    const FRAMES: usize = 50;
    let measure = |p: &mut Pipeline| {
        (0..3)
            .map(|_| {
                let before = allocs();
                p.run_frames(FRAMES);
                allocs() - before
            })
            .min()
            .expect("three windows")
    };
    let small_allocs = measure(&mut small);
    let large_allocs = measure(&mut large);

    assert_eq!(small.delivered(), 170 * 20);
    assert_eq!(large.delivered(), 170 * 40);

    // The frame path's only steady-state allocation is the per-frame
    // `Rc` control block of the frozen buffer: the allocation count
    // must not scale with cell count.
    assert_eq!(
        small_allocs, large_allocs,
        "allocations must be independent of cells per frame \
         ({small_allocs} vs {large_allocs} for 2x the cells)"
    );
    assert!(
        small_allocs <= FRAMES as u64,
        "at most one allocation per frame, got {small_allocs} for {FRAMES} frames"
    );
}

fn view_cells_cross_the_switch_without_payload_copies() {
    // Independent of the allocator accounting: a cell forwarded by the
    // switch still references the producer's buffer.
    let sw = Switch::shared("sw", 2, 0);
    sw.borrow_mut().add_route(0, 9, 1, 21);
    #[derive(Default)]
    struct KeepSink(Vec<Cell>);
    impl CellSink for KeepSink {
        fn deliver(&mut self, _sim: &mut Simulator, cell: Cell) {
            self.0.push(cell);
        }
    }
    let sink = Rc::new(RefCell::new(KeepSink::default()));
    sw.borrow_mut()
        .attach_output(1, Link::new(100_000_000, 0, sink.clone()));
    let input = input_port(&sw, 0);

    let arena = Arena::new();
    let frame = arena.frame_from(&[0xEEu8; 480]);
    let mut cells = Vec::new();
    Segmenter::new(9)
        .segment_frame(&frame.view_all(), &mut cells)
        .unwrap();
    let mut sim = Simulator::new();
    for cell in cells.drain(..) {
        input.borrow_mut().deliver(&mut sim, cell);
    }
    sim.run();
    let kept = sink.borrow();
    assert_eq!(kept.0.len(), 11);
    for (i, cell) in kept.0.iter().enumerate() {
        assert_eq!(cell.vci(), 21, "VCI rewritten in flight");
        if i < 10 {
            let view = cell.payload_view().expect("body cells stay views");
            assert!(
                pegasus_sim::arena::FrameBuf::same_buffer(view.buf(), &frame),
                "forwarded payload is the producer's buffer"
            );
        }
    }
}
