//! What an operation holds in memory at its fullest — the sibling of
//! `sigprof.rs`, for bytes instead of time.
//!
//! Runs one operation of a preset or a benchmark workload (read by
//! `support/target.rs`; a workload's op runs its checks, and a broken
//! one is named and exits 1) under a counting global allocator and
//! prints the peak of live heap bytes and, by power-of-two size class,
//! the allocations that were live at that moment. Exact and repeatable
//! at one seed: `scripts/profile.sh <target> --live [seed]`.
//!
//! On x86-64 Linux it also names what holds the peak: every allocation
//! of [`sites::SITE_BYTES`] or more records the return addresses of the
//! frames that asked for it (a frame-pointer walk, as `sigprof` does;
//! `scripts/profile.sh` builds with frame pointers), and the ones live
//! at the peak are printed grouped by their first `pegasus_*` frames.

#[path = "support/live_alloc.rs"]
mod live_alloc;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[path = "support/symbols.rs"]
mod symbols;
#[path = "support/target.rs"]
mod target;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[global_allocator]
static ALLOCATOR: sites::SiteAlloc = sites::SiteAlloc;

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
#[global_allocator]
static ALLOCATOR: live_alloc::LiveAlloc = live_alloc::LiveAlloc;

fn main() {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sites::start();
    let (name, seed) = target::args("seed");
    let (what, mut op) = target::op(name, seed.and_then(|s| s.parse().ok()));
    reset();
    let failed = op();
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sites::stop();
    let (bytes, classes) = live_alloc::peak();
    println!(
        "{what}: peak live {bytes} bytes ({:.1} MB)",
        bytes as f64 / 1e6
    );
    println!("\nlive at the peak, by size class\n  up to B    count         MB");
    for (class, &(count, bytes)) in classes.iter().enumerate() {
        if count > 0 {
            println!(
                "{:9} {count:8} {:10.2}",
                1usize << class,
                bytes as f64 / 1e6
            );
        }
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sites::print();
    for check in &failed {
        eprintln!("failed check: {check}");
    }
    std::process::exit(i32::from(!failed.is_empty()));
}

/// Forgets the peak so far, in the counts and in the sites.
fn reset() {
    live_alloc::reset();
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sites::snapshot();
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sites {
    use std::alloc::{GlobalAlloc, Layout};
    use std::cell::UnsafeCell;
    use std::collections::HashMap;
    use std::sync::atomic::{
        AtomicBool, AtomicUsize,
        Ordering::{Acquire, Relaxed, Release},
    };

    use super::live_alloc::{peaks, LiveAlloc};
    use super::symbols::{crate_of, stack_top, Symbols};

    /// Allocations this large or larger are traced to their callers.
    pub const SITE_BYTES: usize = 1 << 10;
    /// Return addresses kept per allocation: enough to climb out of the
    /// allocator, `RawVec` and the arena into the code that asked.
    const FRAMES: usize = 24;
    /// Traced allocations live at once that the table can hold.
    const CAPACITY: usize = 4096;
    /// `pegasus_*` frames a site is named by.
    const NAMED: usize = 3;
    /// How far below the top of its stack the main thread can be (the
    /// usual 8 MiB limit, with room to spare): a stack pointer farther
    /// down is another thread's.
    const MAIN_STACK_BYTES: usize = 64 << 20;

    #[derive(Clone, Copy)]
    struct Site {
        ptr: usize,
        bytes: usize,
        frames: [usize; FRAMES],
    }

    /// The traced allocations live now (`live`) and at the peak
    /// (`at_peak`), each the first `len` entries of its array.
    struct Table {
        live: [Site; CAPACITY],
        live_len: usize,
        at_peak: [Site; CAPACITY],
        at_peak_len: usize,
        /// Whether `live` has changed since `at_peak` was taken.
        dirty: bool,
    }

    struct Shared(UnsafeCell<Table>);

    // SAFETY: the table is touched only by the thread that holds `BUSY`.
    unsafe impl Sync for Shared {}

    const EMPTY: Site = Site {
        ptr: 0,
        bytes: 0,
        frames: [0; FRAMES],
    };
    static TABLE: Shared = Shared(UnsafeCell::new(Table {
        live: [EMPTY; CAPACITY],
        live_len: 0,
        at_peak: [EMPTY; CAPACITY],
        at_peak_len: 0,
        dirty: false,
    }));
    /// The reentrancy guard: held while the table is touched, so that
    /// nothing done inside the bookkeeping is itself recorded, and a
    /// second thread skips instead of racing.
    static BUSY: AtomicBool = AtomicBool::new(false);
    /// Whether allocations are being traced (between `start` and `stop`).
    static ON: AtomicBool = AtomicBool::new(false);
    /// Upper bound of the addresses the frame walk may read.
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);
    /// Traced allocations the table had no room for, or that arrived
    /// while it was busy.
    static MISSED: AtomicUsize = AtomicUsize::new(0);

    /// Runs `f` on the table unless tracing is off or the table is
    /// already in use (which counts as a miss).
    fn with_table(f: impl FnOnce(&mut Table)) {
        if !ON.load(Relaxed) {
            return;
        }
        // Acquire pairs with the Release below: a thread that takes the
        // guard sees every write the last holder made to the table.
        if BUSY.swap(true, Acquire) {
            MISSED.fetch_add(1, Relaxed);
            return;
        }
        // SAFETY: `BUSY` was false and is now ours, so nothing else
        // holds a reference into the table.
        f(unsafe { &mut *TABLE.0.get() });
        BUSY.store(false, Release);
    }

    /// The return addresses of this thread's frames, innermost first,
    /// by the frame-pointer chain; zeros past its end, and all zeros on
    /// a thread other than the one `start` ran on.
    #[inline(always)]
    fn frames() -> [usize; FRAMES] {
        let mut frames = [0; FRAMES];
        let mut rbp: usize;
        // SAFETY: reads the frame-pointer register, touching nothing.
        unsafe { std::arch::asm!("mov {}, rbp", out(reg) rbp, options(nomem, nostack)) };
        let mut floor = std::ptr::addr_of!(frames) as usize;
        let top = STACK_TOP.load(Relaxed);
        if floor >= top || top - floor > MAIN_STACK_BYTES {
            return frames;
        }
        for slot in &mut frames {
            if rbp < floor || rbp + 16 > top || !rbp.is_multiple_of(8) {
                break;
            }
            // SAFETY: `[rbp, rbp + 16)` lies between this frame and the
            // top of the main thread's stack.
            let (next, ret) = unsafe { (*(rbp as *const usize), *((rbp + 8) as *const usize)) };
            if ret == 0 {
                break;
            }
            *slot = ret;
            floor = rbp + 16;
            rbp = next;
        }
        frames
    }

    /// Records `ptr` if it is large, and takes the peak's sites if the
    /// request that made it set a new peak (`peaks` moved from `before`).
    fn born(ptr: *mut u8, bytes: usize, before: usize) {
        let (peaked, traced) = (peaks() != before, bytes >= SITE_BYTES);
        if ptr.is_null() || !(peaked || traced) {
            return;
        }
        let frames = if traced { frames() } else { [0; FRAMES] };
        with_table(|t| {
            if traced {
                if t.live_len == CAPACITY {
                    MISSED.fetch_add(1, Relaxed);
                } else {
                    t.live[t.live_len] = Site {
                        ptr: ptr as usize,
                        bytes,
                        frames,
                    };
                    t.live_len += 1;
                    t.dirty = true;
                }
            }
            if peaked {
                take_peak(t);
            }
        });
    }

    fn died(ptr: *mut u8, bytes: usize) {
        if bytes < SITE_BYTES {
            return;
        }
        with_table(|t| {
            let live = &t.live[..t.live_len];
            if let Some(i) = live.iter().position(|s| s.ptr == ptr as usize) {
                t.live[i] = t.live[t.live_len - 1];
                t.live_len -= 1;
                t.dirty = true;
            }
        });
    }

    fn take_peak(t: &mut Table) {
        if t.dirty {
            t.at_peak[..t.live_len].copy_from_slice(&t.live[..t.live_len]);
            t.at_peak_len = t.live_len;
            t.dirty = false;
        }
    }

    /// [`LiveAlloc`], plus the sites of the large requests.
    pub struct SiteAlloc;

    // SAFETY: every request goes to `LiveAlloc` unchanged; the
    // bookkeeping touches only atomics and the preallocated table, and
    // never allocates.
    unsafe impl GlobalAlloc for SiteAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let before = peaks();
            let ptr = LiveAlloc.alloc(layout);
            born(ptr, layout.size(), before);
            ptr
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            died(ptr, layout.size());
            LiveAlloc.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            died(ptr, layout.size());
            let before = peaks();
            let moved = LiveAlloc.realloc(ptr, layout, new_size);
            born(moved, new_size, before);
            moved
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let before = peaks();
            let ptr = LiveAlloc.alloc_zeroed(layout);
            born(ptr, layout.size(), before);
            ptr
        }
    }

    /// Starts tracing on this thread's stack.
    pub fn start() {
        STACK_TOP.store(stack_top(), Relaxed);
        ON.store(true, Relaxed);
    }

    /// Takes the peak's sites as of now (with `live_alloc::reset`).
    pub fn snapshot() {
        with_table(|t| {
            t.dirty = true;
            take_peak(t);
        });
    }

    /// Stops tracing, so that printing leaves the peak's sites alone.
    pub fn stop() {
        ON.store(false, Relaxed);
    }

    /// Prints the sites of the traced allocations live at the peak,
    /// grouped by their first `pegasus_*` frames, most bytes first.
    pub fn print() {
        // SAFETY: tracing is off, so nothing else touches the table.
        let t = unsafe { &*TABLE.0.get() };
        let symbols = Symbols::load();
        let mut names = HashMap::new();
        let mut sites: HashMap<String, (usize, usize)> = HashMap::new();
        for site in &t.at_peak[..t.at_peak_len] {
            let named: Vec<String> = (site.frames.iter())
                .take_while(|&&pc| pc != 0)
                .map(|&pc| names.entry(pc).or_insert_with(|| symbols.name(pc)).clone())
                .filter(|name| crate_of(name).is_some())
                .take(NAMED)
                .collect();
            let key = match named.is_empty() {
                true => "[outside pegasus_*]".to_string(),
                false => named.join("\n              <- "),
            };
            let entry = sites.entry(key).or_default();
            *entry = (entry.0 + 1, entry.1 + site.bytes);
        }
        let mut sites: Vec<_> = sites.into_iter().collect();
        sites.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(&b.0)));
        println!(
            "\nlive at the peak, {} KiB or more, by site ({} missed)\n   count         MB  site",
            SITE_BYTES >> 10,
            MISSED.load(Relaxed)
        );
        for (site, (count, bytes)) in sites {
            println!("{count:8} {:10.2}  {site}", bytes as f64 / 1e6);
        }
    }
}
