//! E12 — Whole-segment I/O keeps seek overhead under ten per cent, and
//! striping over four disks gives 20 MB per second (§5).

use pegasus_pfs::disk::{DiskConfig, SimDisk, SECTOR};
use pegasus_pfs::log::SEGMENT_BYTES;
use pegasus_pfs::raid::RaidArray;
use crate::{log_fs, Claim, Result};

pub fn claim() -> Result<Claim> {
    let mut rows = Vec::new();
    // Seek overhead as a function of I/O unit; the last is 1 MiB.
    let (mut overhead, mut rate) = (0.0, 0.0);
    for unit in [4 * 1024usize, 64 * 1024, 256 * 1024, 1 << 20] {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        d.set_store(false);
        let buf = vec![0u8; unit];
        let span = d.config().sectors - (unit / SECTOR) as u64;
        for i in 0..64u64 {
            let sector = (i * 999_983) % span;
            d.write(sector, &buf)?;
        }
        overhead = d.stats.seek_overhead();
        rate = d.stats.throughput() / 1e6;
        rows.push(format!(
            "unit={} KiB  seek overhead={:.1}%  effective rate={rate:.2} MB/s",
            unit / 1024,
            overhead * 100.0
        ));
    }

    // Striped log bandwidth.
    let mut raid = RaidArray::new(DiskConfig::hp_1994(), SEGMENT_BYTES);
    raid.set_store(false);
    let mut total = 0u64;
    for s in 0..128 {
        // A timing-only array is written no pages, and charged the same.
        total += raid.write_pages(s, &[])?;
    }
    let striped = 128.0 * SEGMENT_BYTES as f64 / (total as f64 / 1e9) / 1e6;
    rows.push(format!("striped sequential log (128 MB)={striped:.2} MB/s"));

    // Through the whole LFS core.
    let (fs, _) = log_fs(1, 64)?;
    let lfs = fs.stats.bytes_written as f64 / (fs.io_time as f64 / 1e9) / 1e6;
    rows.push(format!(
        "through the LFS core (64 MB CM stream)={lfs:.2} MB/s"
    ));
    Ok(Claim {
        id: "E12",
        title: "seek overhead vs I/O size; single disk vs 4+1 striped array",
        anchor: "§5 '<10% seek overhead, 5 MB/s per disk, 20 MB/s striped'",
        expected_shape: "1 MiB units < 10% seek overhead and ≥ 5 MB/s per disk; ≥ 20 MB/s \
            striped, and through the log-structured core",
        rows,
        measured: format!(
            "1 MiB: {:.1}% overhead, {rate:.2} MB/s; striped {striped:.2} MB/s, LFS core \
             {lfs:.2} MB/s",
            overhead * 100.0
        ),
        holds: overhead < 0.10 && rate >= 5.0 && striped >= 20.0 && lfs >= 20.0,
    })
}
