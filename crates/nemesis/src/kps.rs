//! Kernel-Privileged Sections (§3.5).
//!
//! "Device drivers and other trusted modules need to be able to protect
//! themselves against interrupts, have access to privileged instructions,
//! etc., for some part of their operation. The code that requires this
//! access is often a tiny proportion of the total module; however, most
//! operating systems would require that the whole module run in kernel
//! mode." Nemesis instead lets privileged domains bracket just those
//! sections, with try/finally semantics so an exception raised inside the
//! section forces the processor out of kernel mode before any outer
//! handler runs.
//!
//! [`with_kps`] is the `begin_KPS()`/`end_KPS()` pair of Figure 5,
//! expressed as a closure with a drop guard: the `FINALLY` half runs even
//! on panic. The accounting (privileged time, interrupt-blocked windows)
//! feeds experiment E9, which compares a module using KPS against the
//! same module run wholly in kernel mode.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_sim::time::Ns;

/// Processor privilege level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unprivileged execution.
    User,
    /// Kernel mode: privileged instructions legal, interrupts masked.
    Kernel,
}

/// Cost model for entering and leaving kernel mode.
///
/// The paper notes the implementation is "highly processor dependent —
/// on 68k, MIPS and ARM processors it leads to various traps ... while
/// the aim on the Alpha is to implement a PAL instruction".
#[derive(Debug, Clone, Copy)]
pub struct KpsCosts {
    /// Trap into kernel mode.
    pub enter: Ns,
    /// Return to user mode.
    pub exit: Ns,
}

impl KpsCosts {
    /// A MIPS-style trap pair (about a microsecond each way in 1994).
    pub fn mips_trap() -> Self {
        KpsCosts {
            enter: 1_000,
            exit: 1_000,
        }
    }

    /// An Alpha PAL-call pair (a few hundred nanoseconds).
    pub fn alpha_pal() -> Self {
        KpsCosts {
            enter: 300,
            exit: 300,
        }
    }
}

/// One simulated processor with KPS accounting.
#[derive(Debug)]
pub struct Cpu {
    mode: Mode,
    kps_depth: u32,
    costs: KpsCosts,
    clock: Ns,
    /// Total virtual time spent in kernel mode.
    pub privileged_time: Ns,
    /// Number of KPS entries executed.
    pub kps_entries: u64,
    /// Longest single continuous window with interrupts masked.
    pub max_masked_window: Ns,
    window_start: Ns,
}

impl Cpu {
    /// Creates a CPU in user mode with the given trap costs.
    pub fn new(costs: KpsCosts) -> Self {
        Cpu {
            mode: Mode::User,
            kps_depth: 0,
            costs,
            clock: 0,
            privileged_time: 0,
            kps_entries: 0,
            max_masked_window: 0,
            window_start: 0,
        }
    }

    /// Current privilege level.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The CPU's virtual clock.
    pub fn clock(&self) -> Ns {
        self.clock
    }

    /// Executes `work_ns` of straight-line code at the current privilege.
    pub fn execute(&mut self, work_ns: Ns) {
        self.clock += work_ns;
        if self.mode == Mode::Kernel {
            self.privileged_time += work_ns;
        }
    }

    fn enter_kernel(&mut self) {
        self.clock += self.costs.enter;
        self.privileged_time += self.costs.enter;
        if self.kps_depth == 0 {
            self.mode = Mode::Kernel;
            self.window_start = self.clock - self.costs.enter;
        }
        self.kps_depth += 1;
        self.kps_entries += 1;
    }

    fn exit_kernel(&mut self) {
        debug_assert!(self.kps_depth > 0);
        self.clock += self.costs.exit;
        self.privileged_time += self.costs.exit;
        self.kps_depth -= 1;
        if self.kps_depth == 0 {
            self.mode = Mode::User;
            let window = self.clock - self.window_start;
            self.max_masked_window = self.max_masked_window.max(window);
        }
    }
}

/// Shared CPU handle, so the drop guard can reach the CPU during unwind.
pub type CpuRef = Rc<RefCell<Cpu>>;

/// Creates a shared CPU.
pub fn cpu(costs: KpsCosts) -> CpuRef {
    Rc::new(RefCell::new(Cpu::new(costs)))
}

struct KpsGuard {
    cpu: CpuRef,
}

impl Drop for KpsGuard {
    fn drop(&mut self) {
        // The FINALLY of Figure 5: leave kernel mode no matter how the
        // section exits — normal return or unwinding exception.
        self.cpu.borrow_mut().exit_kernel();
    }
}

/// Runs `body` as a kernel-privileged section on `cpu`.
///
/// Equivalent to the paper's `begin_KPS(); try { ... } finally
/// { end_KPS(); }`: the mode is restored even if `body` panics (the
/// panic propagates after the exit). Sections nest; the processor
/// returns to user mode only when the outermost section ends.
///
/// # Examples
///
/// ```
/// use pegasus_nemesis::kps::{cpu, with_kps, KpsCosts, Mode};
///
/// let c = cpu(KpsCosts::mips_trap());
/// with_kps(&c, |c| {
///     assert_eq!(c.borrow().mode(), Mode::Kernel);
///     c.borrow_mut().execute(500);
/// });
/// assert_eq!(c.borrow().mode(), Mode::User);
/// ```
pub fn with_kps<R>(cpu: &CpuRef, body: impl FnOnce(&CpuRef) -> R) -> R {
    cpu.borrow_mut().enter_kernel();
    let _guard = KpsGuard { cpu: cpu.clone() };
    body(cpu)
}

/// Runs an entire module in kernel mode — the conventional-OS baseline
/// E9 compares against. The whole `work_ns` counts as privileged and
/// interrupt-masking time.
pub fn whole_module_kernel(cpu: &CpuRef, work_ns: Ns) {
    with_kps(cpu, |c| c.borrow_mut().execute(work_ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_enters_and_leaves() {
        let c = cpu(KpsCosts::mips_trap());
        assert_eq!(c.borrow().mode(), Mode::User);
        with_kps(&c, |c| {
            assert_eq!(c.borrow().mode(), Mode::Kernel);
        });
        assert_eq!(c.borrow().mode(), Mode::User);
        assert_eq!(c.borrow().kps_entries, 1);
    }

    #[test]
    fn panic_inside_section_still_exits() {
        let c = cpu(KpsCosts::mips_trap());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_kps(&c, |_| panic!("device exploded"));
        }));
        assert!(result.is_err());
        // The FINALLY ran: we are back in user mode with depth 0.
        assert_eq!(c.borrow().mode(), Mode::User);
        assert_eq!(c.borrow().kps_depth, 0);
    }

    #[test]
    fn sections_nest() {
        let c = cpu(KpsCosts::alpha_pal());
        with_kps(&c, |c| {
            with_kps(c, |c| {
                assert_eq!(c.borrow().kps_depth, 2);
                assert_eq!(c.borrow().mode(), Mode::Kernel);
            });
            assert_eq!(c.borrow().kps_depth, 1);
            assert_eq!(
                c.borrow().mode(),
                Mode::Kernel,
                "still privileged at depth 1"
            );
        });
        assert_eq!(c.borrow().mode(), Mode::User);
    }

    #[test]
    fn privileged_time_counts_only_kernel_work() {
        let c = cpu(KpsCosts::mips_trap());
        c.borrow_mut().execute(10_000); // user work
        with_kps(&c, |c| c.borrow_mut().execute(500));
        let cp = c.borrow();
        // 500 ns of work + 1 µs enter + 1 µs exit.
        assert_eq!(cp.privileged_time, 2_500);
        assert_eq!(cp.clock(), 12_500);
    }

    #[test]
    fn kps_keeps_masked_window_small() {
        // A driver doing 100 µs of work of which only 2 µs needs
        // privilege: KPS masks interrupts for ~4 µs; whole-module
        // kernel mode masks for the full 100 µs.
        let kps = cpu(KpsCosts::mips_trap());
        kps.borrow_mut().execute(49_000);
        with_kps(&kps, |c| c.borrow_mut().execute(2_000));
        kps.borrow_mut().execute(49_000);

        let whole = cpu(KpsCosts::mips_trap());
        whole_module_kernel(&whole, 100_000);

        assert_eq!(kps.borrow().max_masked_window, 4_000);
        assert_eq!(whole.borrow().max_masked_window, 102_000);
        assert!(kps.borrow().privileged_time < whole.borrow().privileged_time / 10);
    }

    #[test]
    fn nested_sections_count_one_masked_window() {
        let c = cpu(KpsCosts::alpha_pal());
        with_kps(&c, |c| {
            c.borrow_mut().execute(100);
            with_kps(c, |c| c.borrow_mut().execute(100));
            c.borrow_mut().execute(100);
        });
        // One continuous window: 4 PAL calls + 300 work.
        assert_eq!(c.borrow().max_masked_window, 4 * 300 + 300);
        assert_eq!(c.borrow().kps_entries, 2);
    }

    #[test]
    fn return_value_passes_through() {
        let c = cpu(KpsCosts::alpha_pal());
        let v = with_kps(&c, |_| 42);
        assert_eq!(v, 42);
    }
}
