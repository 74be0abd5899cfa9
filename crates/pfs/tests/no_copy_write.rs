//! The storage write path copies each byte once: `append` puts it in a
//! page leased from the array's arena, and at flush the five disks
//! adopt those pages and the parity pages XORed from them, one per page
//! number the written pages reach. A flush pads only its last page. No buffer
//! larger than a page is made on the way — no segment buffer, no parity
//! scratch — and an array that retains nothing leases nothing at all.
//! Measured with a counting global allocator, as `no_alloc_read.rs`
//! does for the read path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pegasus_pfs::disk::{DiskConfig, PAGE_BYTES as PAGE};
use pegasus_pfs::log::{FileClass, LogFs, SEGMENT_BYTES};

struct LargestAlloc;

/// The largest block asked for since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

const SEGMENTS: usize = 8;
/// Appended before each sync: over half a segment, so every flush pads
/// its last page and writes a prefix of the stripe.
const PER_SYNC: usize = SEGMENT_BYTES / 2 + 12_345;
/// Leases a segment takes: the nine pages it wrote, and parity for each
/// of the four page numbers of a member's chunk that they reach.
const LEASES_PER_SEGMENT: u64 = (PER_SYNC.div_ceil(PAGE) + SEGMENT_BYTES / PAGE / 4) as u64;
/// Appends cut pages anywhere, not at their boundaries.
const PIECE: usize = 40_000;

fn byte(at: usize) -> u8 {
    (at as u8).wrapping_mul(29) ^ (at >> 16) as u8
}

/// Appends and syncs [`SEGMENTS`] segments on a fresh file system that
/// retains what is written or not, checking after each sync how many
/// leases its array's arena granted for the segment. Returns the file
/// system, the bytes appended and the largest allocation made while
/// appending and syncing.
fn fill(store: bool) -> (LogFs, Vec<u8>, usize) {
    let data: Vec<u8> = (0..SEGMENTS * PER_SYNC).map(byte).collect();
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    fs.raid_mut().set_store(store);
    let file = fs.create(FileClass::Continuous);
    LARGEST.store(0, Ordering::Relaxed);
    for segment in data.chunks(PER_SYNC) {
        let before = fs.raid_mut().arena().stats().leases_granted;
        for piece in segment.chunks(PIECE) {
            fs.append(file, piece).unwrap();
        }
        fs.sync().unwrap();
        let granted = fs.raid_mut().arena().stats().leases_granted - before;
        let want = if store { LEASES_PER_SEGMENT } else { 0 };
        assert_eq!(granted, want, "leases for one segment, store {store}");
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(fs.stats.segments_flushed, SEGMENTS as u64);
    (fs, data, largest)
}

/// One test: the allocator's high mark is process-global, so concurrent
/// tests would raise each other's.
#[test]
fn appends_build_the_pages_the_disks_keep() {
    let (mut stored, data, largest) = fill(true);
    assert!(
        largest <= PAGE,
        "a {largest}-byte allocation on the write path"
    );
    let (mut timing_only, _, largest) = fill(false);
    assert!(
        largest <= PAGE,
        "a {largest}-byte allocation on the write path"
    );
    assert_eq!(timing_only.raid_mut().arena().stats().leases_granted, 0);
    assert_eq!(timing_only.io_time, stored.io_time, "charged alike");

    let file = stored.pnodes_iter().next().unwrap().id;
    assert!(stored.read(file, 0, data.len()).unwrap() == data);
    let back = timing_only.read(file, PAGE as u64 / 2, 3 * PAGE).unwrap();
    assert!(
        back.iter().all(|&b| b == 0),
        "a timing-only array reads zeros"
    );
}
