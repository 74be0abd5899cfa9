//! The storage read path allocates nothing once warm: `read_into`
//! copies each extent's range out of views of the disks' pages, kept
//! in a view list the file system reuses, into the caller's buffer —
//! no stripe scratch, no pnode clone — and the CM scheduler's periodic
//! service rides on it. Measured with a counting
//! global allocator, as `crates/atm/tests/no_alloc_forwarding.rs` does
//! for the cell path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_sim::time::SEC;

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

const PIECE: usize = 64 << 10;
const FILE_BYTES: usize = 1 << 20;

fn byte(file: usize, at: usize) -> u8 {
    (at as u8).wrapping_mul(37).wrapping_add(file as u8)
}

/// Four files appended a piece at a time in turn, so each file's bytes
/// lie in [`PIECE`]-long extents scattered over four segments; synced,
/// so every extent is on the array.
fn interleaved() -> (LogFs, Vec<FileId>) {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let files: Vec<FileId> = (0..4).map(|_| fs.create(FileClass::Continuous)).collect();
    for off in (0..FILE_BYTES).step_by(PIECE) {
        for (k, &file) in files.iter().enumerate() {
            let piece: Vec<u8> = (off..off + PIECE).map(|at| byte(k, at)).collect();
            fs.append(file, &piece).unwrap();
        }
    }
    fs.sync().unwrap();
    (fs, files)
}

/// One test: the allocation counter is process-global, so concurrent
/// tests would pollute each other's deltas.
#[test]
fn warm_reads_allocate_nothing() {
    let (mut fs, files) = interleaved();
    assert!(fs.pnode(files[1]).unwrap().extents.len() >= 16);

    // A range cutting into a first extent, over two whole ones, into a
    // fourth. The first call sizes `out`; the rest reuse it.
    let (offset, len) = (PIECE as u64 / 2, 3 * PIECE);
    let mut out = Vec::new();
    fs.read_into(files[1], offset, len, &mut out).unwrap();
    let before = allocs();
    for _ in 0..8 {
        fs.read_into(files[1], offset, len, &mut out).unwrap();
    }
    assert_eq!(allocs() - before, 0, "read_into allocated once warm");
    let want: Vec<u8> = (PIECE / 2..PIECE / 2 + len).map(|at| byte(1, at)).collect();
    assert!(out == want, "the warm read returns the bytes appended");

    // Periodic CM service: every stream reads a multi-extent share a
    // period. The first period sizes the scheduler's buffer.
    let rate = 2 * PIECE as u64; // bytes a one-second period
    let mut cm = CmScheduler::new(SEC, 20_000_000);
    for &file in &files {
        cm.admit(file, rate, PIECE as u64 / 2).unwrap();
    }
    cm.run_periods(&mut fs, 1).unwrap();
    let before = allocs();
    let played = cm.run_periods(&mut fs, 5).unwrap();
    assert_eq!(allocs() - before, 0, "run_periods allocated once warm");
    assert_eq!(played.bytes_delivered, 5 * 4 * rate);
}
