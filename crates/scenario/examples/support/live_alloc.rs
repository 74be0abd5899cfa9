//! A global allocator that knows what is live: bytes now, the most
//! there have been, and the allocations of each power-of-two size class
//! (how many, how many bytes) that were live at that moment. Shared (by
//! `#[path]`) between the `livebytes` example and `tests/live_bytes.rs`;
//! each declares `#[global_allocator] static A: LiveAlloc = LiveAlloc;`.
//!
//! Class `k` counts requests of `(2^(k-1), 2^k]` bytes: a QCIF frame
//! (25,344 bytes) is in class 15, "16–32 KiB".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub const CLASSES: usize = usize::BITS as usize;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Live allocations of each class, then live bytes of each class.
static LIVE: [AtomicUsize; 2 * CLASSES] = [const { AtomicUsize::new(0) }; 2 * CLASSES];
static AT_PEAK: [AtomicUsize; 2 * CLASSES] = [const { AtomicUsize::new(0) }; 2 * CLASSES];
/// How many times [`AT_PEAK`] has been taken.
static PEAKS: AtomicUsize = AtomicUsize::new(0);

/// The size class of a request of `bytes`.
pub fn class_of(bytes: usize) -> usize {
    bytes.next_power_of_two().trailing_zeros() as usize
}

fn snapshot() {
    for (at_peak, live) in AT_PEAK.iter().zip(&LIVE) {
        at_peak.store(live.load(Relaxed), Relaxed);
    }
    PEAKS.fetch_add(1, Relaxed);
}

/// How many times the peak has been taken: an allocator wrapping
/// [`LiveAlloc`] that sees this move knows the request it passed on set
/// a new peak. (`livebytes` reads it; `tests/live_bytes.rs` does not.)
#[allow(dead_code)]
pub fn peaks() -> usize {
    PEAKS.load(Relaxed)
}

fn grew(bytes: usize) {
    let class = class_of(bytes);
    LIVE[class].fetch_add(1, Relaxed);
    LIVE[CLASSES + class].fetch_add(bytes, Relaxed);
    let now = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK_BYTES.fetch_max(now, Relaxed) {
        snapshot();
    }
}

fn shrank(bytes: usize) {
    let class = class_of(bytes);
    LIVE[class].fetch_sub(1, Relaxed);
    LIVE[CLASSES + class].fetch_sub(bytes, Relaxed);
    LIVE_BYTES.fetch_sub(bytes, Relaxed);
}

/// Forgets the peak so far: the next [`peak`] is of what follows.
pub fn reset() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
    snapshot();
}

/// The most bytes live at once since [`reset`], and `(allocations,
/// bytes)` live in each class at that moment.
pub fn peak() -> (usize, [(usize, usize); CLASSES]) {
    let at = |i: usize| AT_PEAK[i].load(Relaxed);
    let at_peak = std::array::from_fn(|class| (at(class), at(CLASSES + class)));
    (PEAK_BYTES.load(Relaxed), at_peak)
}

pub struct LiveAlloc;

// SAFETY: every request goes to `System` unchanged; the bookkeeping
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
}
