//! The storage read path allocates nothing once warm: `read_into`
//! copies each extent's range out of views of the disks' pages, kept
//! in a view list the file system reuses, into the caller's buffer —
//! no stripe scratch, no pnode clone. The CM scheduler's periodic
//! service reads for timing only: it is charged as any read is and
//! takes no view and copies no byte, so it allocates nothing from its
//! first period on. Measured with a counting global allocator, as
//! `crates/atm/tests/no_alloc_forwarding.rs` does for the cell path,
//! per thread, so the tests here run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_sim::time::SEC;

struct CountingAlloc;

thread_local! {
    /// Allocations this thread has asked for. Const-initialised and
    /// without a destructor, so counting never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const PIECE: usize = 64 << 10;
const FILE_BYTES: usize = 1 << 20;

fn byte(file: usize, at: usize) -> u8 {
    (at as u8).wrapping_mul(37).wrapping_add(file as u8)
}

/// Four files appended a piece at a time in turn, so each file's bytes
/// lie in [`PIECE`]-long extents scattered over four segments; synced,
/// so every extent is on the array, which keeps the bytes if `store`.
fn interleaved(store: bool) -> (LogFs, Vec<FileId>) {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    fs.raid_mut().set_store(store);
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

#[test]
fn warm_reads_allocate_nothing() {
    let (mut fs, files) = interleaved(true);
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
}

/// Every stream reads a multi-extent share a period, on an array that
/// keeps its bytes and on a timing-only one. Nothing is allocated from
/// the first period on — so there is nowhere a byte could be copied to
/// — and the disk time is exactly what reading the same ranges into a
/// buffer costs.
#[test]
fn cm_periods_read_for_timing_only() {
    let rate = 2 * PIECE as u64; // bytes a one-second period
    let start = PIECE as u64 / 2;
    for store in [true, false] {
        let (mut fs, files) = interleaved(store);
        let mut cm = CmScheduler::new(SEC, 20_000_000);
        for &file in &files {
            cm.admit(file, rate, start).unwrap();
        }
        let (io_before, read_before) = (fs.io_time, fs.stats.bytes_read);
        let before = allocs();
        let played = cm.run_periods(&mut fs, 6).unwrap();
        assert_eq!(
            allocs() - before,
            0,
            "run_periods allocated (store {store})"
        );
        assert_eq!(played.bytes_delivered, 6 * 4 * rate);
        assert_eq!(fs.stats.bytes_read - read_before, played.bytes_delivered);

        let (mut copied, _) = interleaved(store);
        let io_copied = copied.io_time;
        let mut buf = Vec::new();
        for period in 0..6 {
            for &file in &files {
                let at = start + period * rate;
                copied.read_into(file, at, rate as usize, &mut buf).unwrap();
            }
        }
        assert_eq!(
            fs.io_time - io_before,
            copied.io_time - io_copied,
            "a timed read is charged as a copying one (store {store})"
        );
    }
}
