//! E14 — Write-behind under Baker lifetimes ("70% of files are deleted or
//! overwritten within 30 seconds"): fewer disk writes, less garbage (§5).

use std::collections::HashMap;

use pegasus_pfs::client::{WriteBehindSystem, WritePolicy};
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileId, LogFs};
use pegasus_pfs::workload::{generate, Op};
use pegasus_sim::time::SEC;
use crate::{Claim, Result};

/// Ten minutes of Baker traffic: `(app bytes, disk bytes, absorbed
/// bytes, log garbage KiB)`.
fn run(policy: WritePolicy) -> Result<(u64, u64, u64, u64)> {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    fs.raid_mut().set_store(false);
    let mut sys = WriteBehindSystem::new(fs, policy);
    let trace = generate(600 * SEC);
    let mut files: HashMap<u64, FileId> = HashMap::new();
    let mut now = 0;
    for (t, op) in trace {
        sys.advance(t - now)?;
        now = t;
        match op {
            Op::Create { handle, size } => {
                let f = sys.create();
                files.insert(handle, f);
                sys.write(f, &vec![0u8; size as usize])?;
            }
            Op::Delete { handle } => {
                if let Some(f) = files.remove(&handle) {
                    sys.delete(f)?;
                }
            }
        }
    }
    sys.shutdown()?;
    let kib = sys.fs.garbage.iter().map(|g| g.len as u64).sum::<u64>() / 1024;
    let s = &sys.stats;
    Ok((s.app_bytes, s.disk_bytes, s.absorbed_bytes, kib))
}

pub fn claim() -> Result<Claim> {
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for delay in [0, 5, 30, 120] {
        let (label, policy) = match delay {
            0 => ("write-through".to_string(), WritePolicy::WriteThrough),
            s => (format!("write-behind {s} s"), WritePolicy::WriteBehind { delay: s * SEC }),
        };
        let (app, disk, absorbed, garbage_kib) = run(policy)?;
        let pct = 100.0 * absorbed as f64 / app as f64;
        rows.push(format!(
            "policy={label}  app MB={:.1}  disk MB={:.1}  absorbed={pct:.0}%  log garbage \
             KiB={garbage_kib}",
            app as f64 / 1e6,
            disk as f64 / 1e6
        ));
        runs.push((pct, disk, garbage_kib));
    }
    let ((_, disk_wt, garbage_wt), (pct30, disk30, garbage30)) = (runs[0], runs[2]);
    Ok(Claim {
        id: "E14",
        title: "10 minutes of Baker-distributed file traffic: disk writes and garbage",
        anchor: "§5 delayed writes + Baker et al. [1991]",
        expected_shape: "30 s write-behind absorbs a large share of bytes (≥ 50 %: files die in \
            memory), at least halving disk writes and garbage; longer delays absorb more",
        rows,
        measured: format!(
            "30 s absorbs {pct30:.0}%; disk {:.1} → {:.1} MB, garbage {garbage_wt} → {garbage30} \
             KiB",
            disk_wt as f64 / 1e6,
            disk30 as f64 / 1e6
        ),
        holds: pct30 >= 50.0
            && 2 * disk30 <= disk_wt
            && 2 * garbage30 <= garbage_wt
            && runs.windows(2).all(|w| w[1].0 > w[0].0),
    })
}
