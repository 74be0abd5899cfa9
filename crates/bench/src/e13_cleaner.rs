//! E13 — A cleaner "whose complexity only depends on the number of
//! segments to be cleaned and the amount of 'garbage'" (§5).

use pegasus_pfs::cleaner::{clean_garbage_file, clean_sprite};
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, LogFs, SEGMENT_BYTES};
use pegasus_sim::time::fmt_ns;
use crate::{Claim, Result};

/// Builds a file system with `cold` segments of long-lived data plus 4
/// hot segments (70% dead / 30% live each).
fn build(cold: usize) -> Result<LogFs> {
    let mut cfg = DiskConfig::hp_1994();
    cfg.sectors = (8u64 << 30) / 512; // 8 GiB per disk: room to scale
    let mut fs = LogFs::new(cfg);
    fs.raid_mut().set_store(false);
    for _ in 0..cold {
        let id = fs.create(FileClass::Normal);
        fs.append(id, &vec![0u8; SEGMENT_BYTES])?;
    }
    let mut dead = Vec::new();
    for _ in 0..4 {
        let d = fs.create(FileClass::Normal);
        fs.append(d, &vec![0u8; 700 * 1024])?;
        let l = fs.create(FileClass::Normal);
        fs.append(l, &vec![0u8; SEGMENT_BYTES - 700 * 1024])?;
        dead.push(d);
    }
    fs.sync()?;
    for d in dead {
        fs.delete(d)?;
    }
    Ok(fs)
}

/// Largest over smallest of `v`.
fn spread(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MIN, f64::max) / v.iter().copied().fold(f64::MAX, f64::min)
}

pub fn claim() -> Result<Claim> {
    let mut rows = vec!["fs_segments  garbage-file cleaner  sprite-style scan cleaner".to_string()];
    let (mut size, mut garbage, mut sprite) = (Vec::new(), Vec::new(), Vec::new());
    let mut four_each = true;
    for cold in [16usize, 64, 256, 1024, 4096] {
        let ra = clean_garbage_file(&mut build(cold)?)?;
        let rb = clean_sprite(&mut build(cold)?, 4)?;
        rows.push(format!(
            "{:>11}  {:>20}  {:>25}",
            cold + 8,
            fmt_ns(ra.io_time),
            fmt_ns(rb.io_time)
        ));
        four_each &= ra.segments_cleaned == 4;
        size.push((cold + 8) as f64);
        garbage.push(ra.io_time as f64);
        sprite.push(rb.io_time as f64);
    }
    // The scan's cost per segment the file system grew by.
    let per_segment: Vec<f64> = (1..size.len())
        .map(|i| (sprite[i] - sprite[i - 1]) / (size[i] - size[i - 1]))
        .collect();
    let slowest = per_segment.iter().copied().fold(f64::MAX, f64::min);
    Ok(Claim {
        id: "E13",
        title: "cleaning cost vs FS size at fixed garbage (4 segments, 70% dead)",
        anchor: "§5 'complexity only depends on ... the amount of garbage'",
        expected_shape: "garbage-file column flat (±1 %), 4 segments freed; sprite column \
            linear in FS size (its summary scan: cost per added segment ±5 %)",
        rows,
        measured: format!(
            "garbage-file max/min {:.3}; sprite {} per added segment, max/min {:.3}",
            spread(&garbage),
            fmt_ns(slowest as u64),
            spread(&per_segment)
        ),
        holds: four_each
            && spread(&garbage) <= 1.01
            && slowest > 0.0
            && spread(&per_segment) <= 1.05,
    })
}
