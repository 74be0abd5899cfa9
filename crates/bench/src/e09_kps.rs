//! E9 — Kernel-privileged sections: "the code that requires this access
//! is often a tiny proportion of the total module" (§3.5).

use pegasus_nemesis::kps::{cpu, whole_module_kernel, with_kps, KpsCosts};
use pegasus_sim::time::fmt_ns;
use crate::{Claim, Result};

pub fn claim() -> Result<Claim> {
    // A driver doing 1 ms of work per invocation, of which `priv_frac`
    // genuinely needs privilege, invoked 100 times.
    let work: u64 = 1_000_000;
    let total = 100 * work;
    let mut rows = Vec::new();
    let (mut holds, mut overhead, mut masked) = (true, 0, u64::MAX);
    for (costs, cname) in [
        (KpsCosts::mips_trap(), "mips-trap"),
        (KpsCosts::alpha_pal(), "alpha-pal"),
    ] {
        for priv_frac in [0.01f64, 0.05, 0.25] {
            let priv_work = (work as f64 * priv_frac) as u64;
            let kps = cpu(costs);
            for _ in 0..100 {
                kps.borrow_mut().execute((work - priv_work) / 2);
                with_kps(&kps, |c| c.borrow_mut().execute(priv_work));
                kps.borrow_mut().execute((work - priv_work) / 2);
            }
            let whole = cpu(costs);
            for _ in 0..100 {
                whole_module_kernel(&whole, work);
            }
            let (kp, km) = {
                let c = kps.borrow();
                (c.privileged_time, c.max_masked_window)
            };
            let (wp, wm) = {
                let c = whole.borrow();
                (c.privileged_time, c.max_masked_window)
            };
            rows.push(format!(
                "trap={cname}  priv fraction={:.0}%  kps priv time={}  whole priv time={}  kps \
                 max masked={}  whole max masked={}",
                priv_frac * 100.0,
                fmt_ns(kp),
                fmt_ns(wp),
                fmt_ns(km),
                fmt_ns(wm)
            ));
            // Tracking the fraction: the privileged work itself, plus
            // trap costs of at most 1 % of the total.
            let floor = 100 * priv_work;
            holds &= (floor..=floor + total / 100).contains(&kp) && wm >= work && km < wm;
            overhead = overhead.max(kp.saturating_sub(floor));
            masked = masked.min(wm);
        }
    }
    Ok(Claim {
        id: "E9",
        title: "privileged time and interrupt-masked windows: KPS vs whole-module",
        anchor: "§3.5 Kernel-Privileged Sections (Fig. 5)",
        expected_shape: "KPS privileged time tracks the privileged fraction (+ ≤ 1 % of the \
            total); whole-module masks interrupts for the entire 1 ms invocation",
        rows,
        measured: format!(
            "KPS privileged time = privileged work + ≤ {}; whole-module masks ≥ {}",
            fmt_ns(overhead),
            fmt_ns(masked)
        ),
        holds,
    })
}
