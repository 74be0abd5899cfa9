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
//! The header line adds user and system CPU ms and minor page faults
//! per operation, read from `/proc/self/stat` around the operations: an
//! operation bound by faulting in fresh memory shows there as system
//! time, where the samples see only an anonymous `[libc.so.6]` leaf.
//!
//! Build with frame pointers or the walk stops at the leaf:
//! `scripts/profile.sh <target> [ops]` does. A target is a preset or one
//! of the benchmark's four workloads (`pegasus_scenario::workloads`,
//! read by `support/target.rs`); a workload's ops run its checks, and
//! the profiler exits 1 naming each check an op broke.
//!
//! A leaf outside this executable (libc's `memcpy`, `memcmp`) keeps no
//! frame of its own, so RBP is still its caller's and the walk's first
//! return address would be the caller's caller: for such a leaf the
//! word at RSP, its own return address, is recorded first when it
//! points into this executable's code.
//!
//! No `libc` crate is vendored, so the four libc entry points are
//! declared here, with the x86-64 Linux layouts they take.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[path = "support/symbols.rs"]
mod symbols;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[path = "support/target.rs"]
mod target;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::{BTreeSet, HashMap, HashSet};
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::Relaxed};

    use super::symbols::{crate_of, stack_top, Symbols};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `sysconf` name of the clock ticks per second `/proc` counts in.
    const SC_CLK_TCK: i32 = 2;
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
        fn sysconf(name: i32) -> i64;
    }

    /// Sample storage: each sample is its depth followed by that many
    /// PCs, leaf first. Written by the handler only.
    static BUF: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
    static USED: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    /// Upper bound of the addresses the frame walk may read.
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);
    /// This executable's code, `[TEXT_LO, TEXT_HI)`.
    static TEXT_LO: AtomicUsize = AtomicUsize::new(0);
    static TEXT_HI: AtomicUsize = AtomicUsize::new(0);

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
        let in_text = |pc: usize| TEXT_LO.load(Relaxed) <= pc && pc < TEXT_HI.load(Relaxed);
        if !in_text(rip) && rsp + 8 <= top && rsp.is_multiple_of(8) {
            // SAFETY: `[rsp, rsp + 8)` is the top word of the live stack.
            let ret = unsafe { *(rsp as *const usize) };
            if in_text(ret) {
                depth += 1;
                put(depth, ret);
            }
        }
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
    fn install(usec: i64, text: (usize, usize)) {
        let buf = Box::leak(vec![0usize; BUF_WORDS].into_boxed_slice());
        BUF.store(buf.as_mut_ptr(), Relaxed);
        STACK_TOP.store(stack_top(), Relaxed);
        TEXT_LO.store(text.0, Relaxed);
        TEXT_HI.store(text.1, Relaxed);
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

    /// This process's user CPU ms, system CPU ms and minor page faults
    /// so far: fields 14, 15 and 10 of `/proc/self/stat`, counted on
    /// from the one after the command name, which may hold spaces.
    fn cpu_and_faults() -> (f64, f64, f64) {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<f64> = after_name
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0.0))
            .collect();
        let field = |n: usize| fields.get(n - 3).copied().unwrap_or(0.0);
        // SAFETY: `sysconf` reads a constant of the system.
        let ms_per_tick = 1e3 / unsafe { sysconf(SC_CLK_TCK) } as f64;
        (field(14) * ms_per_tick, field(15) * ms_per_tick, field(10))
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
        let (target, ops) = super::target::args("ops");
        let (name, mut op) = super::target::op(target, None);
        let ops: usize = ops.and_then(|n| n.parse().ok()).unwrap_or(10);

        let symbols = Symbols::load();
        let (user, sys, faults) = cpu_and_faults();
        install(1_000, symbols.text);
        let failed: BTreeSet<String> = (0..ops).flat_map(|_| op()).collect();
        stop();
        let after = cpu_and_faults();
        let per_op = |before: f64, after: f64| (after - before) / ops as f64;
        let (user, sys, faults) = (
            per_op(user, after.0),
            per_op(sys, after.1),
            per_op(faults, after.2),
        );

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
                names.entry(pc).or_insert_with(|| symbols.name(pc));
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
            "{name}: {ops} ops, {total} samples ({} dropped), {:.1} ms/op; \
             user {user:.1} ms/op, sys {sys:.1} ms/op, {faults:.0} minor faults/op",
            DROPPED.load(Relaxed),
            total as f64 * ms_per_sample
        );
        if total > 0 {
            let table = |title, counts, rows| table(title, counts, total, ms_per_sample, rows);
            table("self, by leaf-most pegasus_* crate", by_crate, 16);
            table("self, by symbol", by_symbol, 40);
            table("inclusive, by symbol", inclusive, 30);
        }
        for check in &failed {
            eprintln!("failed check: {check}");
        }
        std::process::exit(i32::from(!failed.is_empty()));
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
