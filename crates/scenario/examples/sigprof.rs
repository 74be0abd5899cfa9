//! A `SIGPROF` sampling profiler for hosts without `perf`.
//!
//! Runs N operations of a preset (spec in, canonical JSON out, as the
//! benchmark's scenario workloads do) under `setitimer(ITIMER_PROF)`;
//! the signal handler reads RIP / RBP / RSP from the `ucontext` and
//! walks frame pointers into a preallocated buffer. Afterwards the
//! samples are symbolized against `nm -C -n` of this executable and
//! printed as self % by symbol and by leaf-most `pegasus_*` crate (the
//! first frame, walking up from the leaf, that belongs to one — so
//! `memcpy` called from `RaidArray` bills `pegasus_pfs`, and its row
//! in the symbol table names the calling function), and then
//! *inclusively*: every symbol anywhere on a sample's stack is billed
//! that sample once, so a function that spends its time in callees
//! (`emit_row`: 4 ms/op of self time, 61 inclusive) shows what it costs.
//!
//! Build with frame pointers or the walk stops at the leaf:
//! `scripts/profile.sh <preset> [ops]` does. Besides the targets of
//! `support/targets.rs` (presets and the benchmark's three scenario
//! workloads) it takes `pfs`: a short storage loop on `pegasus_pfs`
//! directly, in the shape of the benchmark's fourth workload,
//! `pfs-vcr`.
//!
//! No `libc` crate is vendored, so the three libc entry points are
//! declared here, with the x86-64 Linux layouts they take.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[path = "support/targets.rs"]
mod targets;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::{HashMap, HashSet};
    use std::process::Command;
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::Relaxed};

    use pegasus_pfs::cleaner::clean_garbage_file;
    use pegasus_pfs::cm::CmScheduler;
    use pegasus_pfs::disk::DiskConfig;
    use pegasus_pfs::log::{FileClass, FileId, LogFs};
    use pegasus_pfs::tier::{TierConfig, TieredCache};
    use pegasus_scenario::run_sharded;
    use pegasus_sim::time::SEC;

    use super::targets::spec_of;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Index of each register in `ucontext_t.uc_mcontext.gregs`.
    const REG_RBP: usize = 10;
    const REG_RSP: usize = 15;
    const REG_RIP: usize = 16;
    /// Frames kept per sample; deeper stacks lose their outermost.
    const MAX_DEPTH: usize = 48;
    /// Sample words preallocated: room for ~20,000 full-depth stacks.
    const BUF_WORDS: usize = 1 << 20;
    /// Process CPU time between samples: this kernel ticks `ITIMER_PROF`
    /// at 4 ms whatever interval `install` asks for.
    const TICK_MS: f64 = 4.0;

    /// glibc's `struct sigaction` on x86-64.
    #[repr(C)]
    struct SigAction {
        handler: extern "C" fn(i32, *mut u8, *mut u8),
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    /// The head of glibc's `ucontext_t` on x86-64: flags, link, the
    /// three-word `stack_t`, then the general registers.
    #[repr(C)]
    struct UContext {
        flags: u64,
        link: usize,
        stack: [usize; 3],
        gregs: [i64; 23],
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// Sample storage: each sample is its depth followed by that many
    /// PCs, leaf first. Written by the handler only.
    static BUF: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
    static USED: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    /// Upper bound of the addresses the frame walk may read.
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, ctx: *mut u8) {
        let buf = BUF.load(Relaxed);
        let used = USED.load(Relaxed);
        if buf.is_null() || used + 1 + MAX_DEPTH > BUF_WORDS {
            DROPPED.fetch_add(1, Relaxed);
            return;
        }
        // SAFETY: the kernel hands an SA_SIGINFO handler a valid
        // `ucontext_t`, whose head `UContext` mirrors.
        let gregs = unsafe { &(*(ctx as *const UContext)).gregs };
        let (rip, rsp) = (gregs[REG_RIP] as usize, gregs[REG_RSP] as usize);
        let mut rbp = gregs[REG_RBP] as usize;
        let top = STACK_TOP.load(Relaxed);
        // Writes word `i` of this sample: 0 is the depth, 1.. the PCs.
        let put = |i: usize, word: usize| {
            // SAFETY: `used + 1 + MAX_DEPTH <= BUF_WORDS` was checked
            // above and `i <= MAX_DEPTH`, so the word is inside the
            // buffer `install` allocated; only this handler writes it.
            unsafe { buf.add(used + i).write(word) };
        };
        put(1, rip);
        let mut depth = 1;
        let mut floor = rsp;
        // A frame record is [saved RBP, return address]. Code built
        // without frame pointers (libstd, libc) leaves junk in RBP; the
        // bounds keep every read inside this thread's live stack and
        // the rising floor ends the walk.
        while depth < MAX_DEPTH && rbp >= floor && rbp + 16 <= top && rbp.is_multiple_of(8) {
            // SAFETY: `[rbp, rbp + 16)` lies between the interrupted
            // stack pointer and the top of the main thread's stack.
            let (next, ret) = unsafe { (*(rbp as *const usize), *((rbp + 8) as *const usize)) };
            if ret == 0 {
                break;
            }
            depth += 1;
            put(depth, ret);
            floor = rbp + 16;
            rbp = next;
        }
        put(0, depth);
        USED.store(used + 1 + depth, Relaxed);
    }

    /// Starts sampling every `usec` of process CPU time.
    fn install(usec: i64) {
        let buf = Box::leak(vec![0usize; BUF_WORDS].into_boxed_slice());
        BUF.store(buf.as_mut_ptr(), Relaxed);
        STACK_TOP.store(stack_top(), Relaxed);
        let act = SigAction {
            handler: on_sigprof,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        let tick = |usec| ITimerVal {
            interval: TimeVal { sec: 0, usec },
            value: TimeVal { sec: 0, usec },
        };
        // SAFETY: both structs have the layout glibc expects on this
        // target and outlive the calls; the handler touches only
        // atomics and the leaked buffer.
        let rc = unsafe {
            sigaction(SIGPROF, &act, std::ptr::null_mut())
                | setitimer(ITIMER_PROF, &tick(usec), std::ptr::null_mut())
        };
        assert_eq!(rc, 0, "sigaction/setitimer refused");
    }

    fn stop() {
        let off = ITimerVal {
            interval: TimeVal { sec: 0, usec: 0 },
            value: TimeVal { sec: 0, usec: 0 },
        };
        // SAFETY: a zero `itimerval` disarms the timer.
        unsafe { setitimer(ITIMER_PROF, &off, std::ptr::null_mut()) };
    }

    /// `(start, end, offset, path)` of every mapping of this process.
    fn mappings() -> Vec<(usize, usize, usize, String)> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        maps.lines()
            .filter_map(|line| {
                let mut f = line.split_whitespace();
                let (range, _perms, offset) = (f.next()?, f.next()?, f.next()?);
                let path = f.nth(2).unwrap_or("").to_string();
                let (lo, hi) = range.split_once('-')?;
                let hex = |s| usize::from_str_radix(s, 16).ok();
                Some((hex(lo)?, hex(hi)?, hex(offset)?, path))
            })
            .collect()
    }

    fn stack_top() -> usize {
        let local = 0u8;
        let here = std::ptr::addr_of!(local) as usize;
        mappings()
            .into_iter()
            .find(|&(lo, hi, ..)| lo <= here && here < hi)
            .map(|(_, hi, ..)| hi)
            .expect("the stack is mapped")
    }

    /// Text symbols of this executable by link-time address.
    fn symbols(exe: &str) -> Vec<(usize, String)> {
        let out = Command::new("nm")
            .args(["-C", "-n", exe])
            .output()
            .expect("binutils `nm` on PATH");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| {
                let (addr, rest) = line.split_once(' ')?;
                let (kind, name) = rest.split_once(' ')?;
                matches!(kind, "t" | "T" | "w" | "W")
                    .then(|| Some((usize::from_str_radix(addr, 16).ok()?, name.to_string())))?
            })
            .collect()
    }

    /// The `pegasus_*` crate a symbol belongs to, if any.
    fn crate_of(symbol: &str) -> Option<&str> {
        let at = symbol.find("pegasus_")?;
        let name = &symbol[at..];
        let end = name
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(name.len());
        Some(&name[..end])
    }

    /// One operation of the `pfs` target, on disks that keep what is
    /// written: six files appended in interleaved 64 KiB pieces, read
    /// back in 64 KiB pieces, every other one deleted and the garbage
    /// cleaned, then the survivors played out through the tiered cache.
    fn pfs_op() -> u64 {
        const PIECE: usize = 64 << 10;
        const FILE_BYTES: usize = 4 << 20;
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let files: Vec<FileId> = (0..6).map(|_| fs.create(FileClass::Continuous)).collect();
        let piece: Vec<u8> = (0..PIECE).map(|i| (i * 31) as u8).collect();
        for _ in (0..FILE_BYTES).step_by(PIECE) {
            for &file in &files {
                fs.append(file, &piece).expect("append");
            }
        }
        fs.sync().expect("sync");
        let mut buf = Vec::new();
        for &file in &files {
            for off in (0..FILE_BYTES).step_by(PIECE) {
                fs.read_into(file, off as u64, PIECE, &mut buf)
                    .expect("read");
                assert!(
                    buf == piece,
                    "read_into returned other bytes than were written"
                );
            }
        }
        for &file in files.iter().skip(1).step_by(2) {
            fs.delete(file).expect("delete");
        }
        clean_garbage_file(&mut fs).expect("clean");
        let (period, periods, streams) = (16 * SEC, 16, 24);
        let rate = (FILE_BYTES as u64 * SEC / period).div_ceil(periods);
        let mut cm = CmScheduler::new(period, rate * streams * 2);
        let mut cache = TieredCache::new(TierConfig {
            hot_chunks: 3,
            warm_chunks: 6,
            ..TierConfig::default()
        });
        for i in 0..streams as usize {
            let file = files[i % 3 * 2];
            cm.admit(file, rate, 0).expect("admit");
            cache.register_stream(file, rate);
        }
        let played = cm
            .run_periods_tiered(&mut fs, &mut cache, periods)
            .expect("CM play-out");
        assert_eq!(played.bytes_delivered, streams * FILE_BYTES as u64);
        fs.io_time
    }

    /// Prints the `rows` largest counts: share of the `total` samples,
    /// host milliseconds an operation (`ms_per_sample` is the tick over
    /// the operations run), samples, name. The share is of a total that
    /// a saving shrinks; ms/op is the column to compare across commits.
    fn table(
        title: &str,
        counts: HashMap<String, usize>,
        total: usize,
        ms_per_sample: f64,
        rows: usize,
    ) {
        let mut rows_by_count: Vec<_> = counts.into_iter().collect();
        rows_by_count.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        println!("\n{title}\n      %    ms/op  samples");
        for (name, n) in rows_by_count.into_iter().take(rows) {
            let (share, ms) = (100.0 * n as f64 / total as f64, n as f64 * ms_per_sample);
            println!("{share:6.1} % {ms:8.3}  {n:6}  {name}");
        }
    }

    pub fn main() {
        let mut args = std::env::args().skip(1);
        let Some(name) = args.next() else {
            eprintln!(
                "usage: sigprof <preset | metro-steady | front-door | control-3x | pfs> [ops]"
            );
            std::process::exit(2);
        };
        let ops: usize = args.next().and_then(|n| n.parse().ok()).unwrap_or(10);
        let op: Box<dyn Fn()> = if name == "pfs" {
            Box::new(|| {
                std::hint::black_box(pfs_op());
            })
        } else {
            let spec = spec_of(&name);
            Box::new(move || {
                drop(std::hint::black_box(
                    run_sharded(&spec, 1).to_json_canonical(),
                ))
            })
        };

        install(1_000);
        for _ in 0..ops {
            op();
        }
        stop();

        let exe = std::fs::read_link("/proc/self/exe").expect("procfs");
        let exe = exe.to_string_lossy().into_owned();
        let maps = mappings();
        let base = maps
            .iter()
            .find(|m| m.3 == exe && m.2 == 0)
            .map(|m| m.0)
            .expect("this executable is mapped");
        let syms = symbols(&exe);
        let resolve = |pc: usize| -> String {
            match maps.iter().find(|m| m.0 <= pc && pc < m.1) {
                Some(m) if m.3 == exe => {
                    let at = syms.partition_point(|s| s.0 <= pc - base);
                    match at.checked_sub(1) {
                        Some(i) => syms[i].1.clone(),
                        None => "[unknown]".to_string(),
                    }
                }
                Some(m) if !m.3.is_empty() => {
                    format!("[{}]", m.3.rsplit('/').next().unwrap_or(&m.3))
                }
                _ => "[unknown]".to_string(),
            }
        };

        // SAFETY: the timer is off, so the handler no longer writes;
        // `USED` words of the leaked buffer are initialised samples.
        let words = unsafe { std::slice::from_raw_parts(BUF.load(Relaxed), USED.load(Relaxed)) };
        let mut by_symbol: HashMap<String, usize> = HashMap::new();
        let mut by_crate: HashMap<String, usize> = HashMap::new();
        let mut inclusive: HashMap<String, usize> = HashMap::new();
        let mut names: HashMap<usize, String> = HashMap::new();
        let (mut at, mut total) = (0, 0);
        while at < words.len() {
            let stack = &words[at + 1..at + 1 + words[at]];
            at += 1 + stack.len();
            total += 1;
            for &pc in stack {
                names.entry(pc).or_insert_with(|| resolve(pc));
            }
            // The first frame, walking up from the leaf, inside a
            // `pegasus_*` crate: it owns the sample.
            let owner = stack
                .iter()
                .map(|pc| &names[pc])
                .find(|n| crate_of(n).is_some());
            let owner_crate = owner
                .and_then(|n| crate_of(n))
                .unwrap_or("[outside pegasus_*]")
                .to_string();
            // A leaf outside every crate (libc, std) is shown with the
            // function that called into it.
            let leaf = &names[&stack[0]];
            let leaf = match (crate_of(leaf), owner) {
                (None, Some(caller)) => format!("{leaf}  <- {caller}"),
                _ => leaf.clone(),
            };
            *by_symbol.entry(leaf).or_default() += 1;
            *by_crate.entry(owner_crate).or_default() += 1;
            // Each symbol once a stack, however often it recurs.
            let on_stack: HashSet<&String> = stack.iter().map(|pc| &names[pc]).collect();
            for name in on_stack {
                *inclusive.entry(name.clone()).or_default() += 1;
            }
        }
        let ms_per_sample = TICK_MS / ops as f64;
        println!(
            "{name}: {ops} ops, {total} samples ({} dropped), {:.1} ms/op",
            DROPPED.load(Relaxed),
            total as f64 * ms_per_sample
        );
        if total > 0 {
            let table = |title, counts, rows| table(title, counts, total, ms_per_sample, rows);
            table("self, by leaf-most pegasus_* crate", by_crate, 16);
            table("self, by symbol", by_symbol, 40);
            table("inclusive, by symbol", inclusive, 30);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    sampler::main();
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!(
        "sigprof: the sampler reads x86-64 Linux signal frames; nothing to do on this target"
    );
}
