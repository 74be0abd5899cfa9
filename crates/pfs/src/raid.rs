//! Segment striping with parity (RAID).
//!
//! "Each segment is striped across four disks. A fifth disk is used as a
//! parity disk and allows recovery from disk errors. ... Striping over
//! four disks makes a total bandwidth of 20 MB per second possible."
//! (§5)
//!
//! A [`RaidArray`] stripes each logical segment write over its data
//! disks and writes XOR parity to the parity disk; since the five disks
//! operate in parallel, the stripe's duration is the *maximum* of the
//! individual operations — which is how four 5 MB/s spindles become a
//! 20 MB/s log. Any single failed disk can be reconstructed from the
//! others.
//!
//! A read always *charges* the whole stripe — every member disk turns a
//! full chunk under its head, as the hardware would — but *copies* only
//! the byte range the caller asked for.

use crate::disk::{DiskConfig, DiskError, SimDisk, SECTOR};
use pegasus_sim::time::Ns;

/// Number of data disks a segment is striped across.
pub const DATA_DISKS: usize = 4;

/// A 4+1 parity array of simulated disks.
pub struct RaidArray {
    disks: Vec<SimDisk>, // DATA_DISKS data + 1 parity
    chunk_bytes: usize,
}

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// Errors surfaced by the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidError {
    /// More than one disk has failed: data is unrecoverable.
    TooManyFailures,
    /// An underlying disk error other than fail-stop.
    Disk(DiskError),
}

impl std::fmt::Display for RaidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidError::TooManyFailures => write!(f, "more than one disk failed"),
            RaidError::Disk(e) => write!(f, "disk error: {e}"),
        }
    }
}

impl std::error::Error for RaidError {}

impl From<DiskError> for RaidError {
    fn from(e: DiskError) -> Self {
        RaidError::Disk(e)
    }
}

impl RaidArray {
    /// Creates an array of five identical disks striping stripes of
    /// `stripe_bytes` (must divide evenly by [`DATA_DISKS`] × sector).
    pub fn new(cfg: DiskConfig, stripe_bytes: usize) -> Self {
        assert_eq!(
            stripe_bytes % (DATA_DISKS * SECTOR),
            0,
            "stripe must be a whole number of sectors per disk"
        );
        RaidArray {
            disks: (0..=DATA_DISKS).map(|_| SimDisk::new(cfg)).collect(),
            chunk_bytes: stripe_bytes / DATA_DISKS,
        }
    }

    /// Bytes each stripe stores (excluding parity).
    pub fn stripe_bytes(&self) -> usize {
        self.chunk_bytes * DATA_DISKS
    }

    /// Number of stripes the array can hold.
    pub fn stripes(&self) -> u64 {
        self.disks[0].config().sectors / (self.chunk_bytes / SECTOR) as u64
    }

    /// Access to an individual disk (fault injection, stats).
    pub fn disk_mut(&mut self, i: usize) -> &mut SimDisk {
        &mut self.disks[i]
    }

    /// Geometry of the member disks.
    pub fn config(&self) -> DiskConfig {
        self.disks[0].config()
    }

    /// Disables content retention on every member disk (see
    /// [`SimDisk::set_store`]).
    pub fn set_store(&mut self, store: bool) {
        for d in &mut self.disks {
            d.set_store(store);
        }
    }

    /// Aggregate positioning + transfer time across all disks.
    pub fn total_disk_time(&self) -> Ns {
        self.disks
            .iter()
            .map(|d| d.stats.positioning + d.stats.transferring)
            .sum()
    }

    fn chunk_sectors(&self) -> u64 {
        (self.chunk_bytes / SECTOR) as u64
    }

    /// First sector of `stripe` on every member disk. The stripe number
    /// may come off a recovered checkpoint, so the product is checked.
    fn stripe_sector(&self, stripe: u64) -> Result<u64, RaidError> {
        stripe
            .checked_mul(self.chunk_sectors())
            .ok_or(RaidError::Disk(DiskError::OutOfRange))
    }

    fn failed_count(&self) -> usize {
        self.disks.iter().filter(|d| d.is_failed()).count()
    }

    /// Writes one full stripe; returns the stripe duration (the slowest
    /// disk, as they run in parallel). Writing with one failed disk is
    /// allowed (degraded mode: that chunk is simply not stored, but
    /// remains reconstructible).
    pub fn write_stripe(&mut self, stripe: u64, data: &[u8]) -> Result<Ns, RaidError> {
        assert_eq!(data.len(), self.stripe_bytes(), "whole stripes only");
        if self.failed_count() > 1 {
            return Err(RaidError::TooManyFailures);
        }
        let sector = self.stripe_sector(stripe)?;
        // Scratch here is per call on purpose: kept in the array it is
        // a quarter megabyte resident per idle server.
        let mut parity = vec![0u8; self.chunk_bytes];
        for chunk in data.chunks(self.chunk_bytes) {
            xor_into(&mut parity, chunk);
        }
        let members = data.chunks(self.chunk_bytes).chain([&parity[..]]);
        let mut max_t = 0;
        for (disk, chunk) in self.disks.iter_mut().zip(members) {
            match disk.write(sector, chunk) {
                Ok(t) => max_t = max_t.max(t),
                Err(DiskError::Failed) => {} // degraded write
                Err(e) => return Err(e.into()),
            }
        }
        Ok(max_t)
    }

    /// Reads one full stripe, reconstructing through parity if a single
    /// data disk has failed. Returns the data and the duration.
    pub fn read_stripe(&mut self, stripe: u64) -> Result<(Vec<u8>, Ns), RaidError> {
        let mut out = Vec::with_capacity(self.stripe_bytes());
        let t = self.read_stripe_range_into(stripe, 0, self.stripe_bytes(), &mut out)?;
        Ok((out, t))
    }

    /// Reads `stripe` and appends bytes `[off, off + len)` of it to
    /// `out`. Every data disk is charged its full chunk — and the parity
    /// disk too when a data disk has failed — so the duration, the heads
    /// and the counters are those of a whole-stripe read; only the
    /// copying is cut to the range, and with a disk lost only the part
    /// of the range that lay on it is rebuilt from parity.
    pub fn read_stripe_range_into(
        &mut self,
        stripe: u64,
        off: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<Ns, RaidError> {
        if self.failed_count() > 1 {
            return Err(RaidError::TooManyFailures);
        }
        let sector = self.stripe_sector(stripe)?;
        let end = off
            .checked_add(len)
            .filter(|&end| end <= self.stripe_bytes())
            .ok_or(RaidError::Disk(DiskError::OutOfRange))?;
        let n = self.chunk_sectors();
        let cb = self.chunk_bytes;
        let mut max_t = 0;
        // Where in `out` a failed disk's share belongs, and which bytes
        // of its chunk that share is.
        let mut lost: Option<(usize, usize, usize)> = None;
        for i in 0..DATA_DISKS {
            let lo = off.clamp(i * cb, (i + 1) * cb) - i * cb;
            let hi = end.clamp(i * cb, (i + 1) * cb) - i * cb;
            let t = match self.disks[i].read_range_into(sector, n, lo, hi - lo, out) {
                Ok(t) => t,
                Err(DiskError::Failed) => {
                    // Parity stands in: its bytes go where the lost ones
                    // belong, the survivors are folded in below.
                    lost = Some((out.len(), lo, hi - lo));
                    self.disks[DATA_DISKS].read_range_into(sector, n, lo, hi - lo, out)?
                }
                Err(e) => return Err(e.into()),
            };
            max_t = max_t.max(t);
        }
        if let Some((at, lo, take)) = lost.filter(|l| l.2 > 0) {
            let mut member = Vec::with_capacity(take);
            for d in self.disks[..DATA_DISKS].iter().filter(|d| !d.is_failed()) {
                member.clear();
                d.copy_range(sector, lo, take, &mut member);
                xor_into(&mut out[at..at + take], &member);
            }
        }
        Ok(max_t)
    }

    /// Rebuilds a replaced disk from the surviving four, stripe by
    /// stripe over `stripes` stripes. Returns the total rebuild time.
    pub fn rebuild_disk(&mut self, replaced: usize, stripes: u64) -> Result<Ns, RaidError> {
        assert!(replaced <= DATA_DISKS);
        if self.failed_count() > 0 {
            return Err(RaidError::TooManyFailures);
        }
        let n = self.chunk_sectors();
        let mut total = 0;
        let (mut acc, mut member) = (Vec::new(), Vec::new());
        for stripe in 0..stripes {
            let sector = self.stripe_sector(stripe)?;
            acc.clear();
            acc.resize(self.chunk_bytes, 0);
            let mut max_t = 0;
            for i in (0..=DATA_DISKS).filter(|&i| i != replaced) {
                member.clear();
                let t = self.disks[i].read_into(sector, n, &mut member)?;
                max_t = max_t.max(t);
                xor_into(&mut acc, &member);
            }
            total += max_t + self.disks[replaced].write(sector, &acc)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    fn array() -> RaidArray {
        RaidArray::new(DiskConfig::hp_1994(), MIB)
    }

    fn pattern(stripe: u64) -> Vec<u8> {
        (0..MIB)
            .map(|i| ((i as u64 + stripe * 13) % 251) as u8)
            .collect()
    }

    #[test]
    fn stripe_roundtrip() {
        let mut r = array();
        let data = pattern(0);
        r.write_stripe(0, &data).unwrap();
        let (back, _) = r.read_stripe(0).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn parallel_stripe_beats_serial_by_nearly_four() {
        // One disk writing 1 MiB vs the array writing 1 MiB.
        let mut single = SimDisk::new(DiskConfig::hp_1994());
        let data = pattern(0);
        let t_single = single.write(0, &data).unwrap();
        let mut r = array();
        let t_stripe = r.write_stripe(0, &data).unwrap();
        let speedup = t_single as f64 / t_stripe as f64;
        assert!(speedup > 3.0, "speedup {speedup:.2}");
    }

    #[test]
    fn sequential_log_hits_20mb_per_second() {
        // The paper's 20 MB/s: stream 64 MiB of stripes sequentially.
        let mut r = array();
        let data = pattern(1);
        let mut total: Ns = 0;
        for stripe in 0..64 {
            total += r.write_stripe(stripe, &data).unwrap();
        }
        let bytes = 64.0 * MIB as f64;
        let rate = bytes / (total as f64 / 1e9);
        assert!(
            rate >= 20_000_000.0,
            "sequential striped rate {:.1} MB/s",
            rate / 1e6
        );
    }

    #[test]
    fn single_data_disk_failure_reconstructs() {
        let mut r = array();
        let data = pattern(2);
        r.write_stripe(3, &data).unwrap();
        r.disk_mut(1).fail();
        let (back, _) = r.read_stripe(3).unwrap();
        assert_eq!(back, data, "parity reconstruction must be exact");
    }

    #[test]
    fn parity_disk_failure_harmless_for_reads() {
        let mut r = array();
        let data = pattern(3);
        r.write_stripe(0, &data).unwrap();
        r.disk_mut(DATA_DISKS).fail();
        let (back, _) = r.read_stripe(0).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn double_failure_unrecoverable() {
        let mut r = array();
        r.write_stripe(0, &pattern(0)).unwrap();
        r.disk_mut(0).fail();
        r.disk_mut(2).fail();
        assert_eq!(r.read_stripe(0).unwrap_err(), RaidError::TooManyFailures);
        assert_eq!(
            r.write_stripe(1, &pattern(1)).unwrap_err(),
            RaidError::TooManyFailures
        );
    }

    #[test]
    fn degraded_write_then_recover() {
        let mut r = array();
        r.disk_mut(2).fail();
        let data = pattern(4);
        r.write_stripe(5, &data).unwrap(); // degraded write
        let (back, _) = r.read_stripe(5).unwrap(); // reconstruct chunk 2
        assert_eq!(back, data);
    }

    #[test]
    fn rebuild_restores_replaced_disk() {
        let mut r = array();
        let stripes = 4u64;
        for s in 0..stripes {
            r.write_stripe(s, &pattern(s)).unwrap();
        }
        r.disk_mut(1).fail();
        r.disk_mut(1).replace();
        r.rebuild_disk(1, stripes).unwrap();
        // All data intact and the rebuilt disk participates again.
        for s in 0..stripes {
            let (back, _) = r.read_stripe(s).unwrap();
            assert_eq!(back, pattern(s), "stripe {s}");
        }
    }

    #[test]
    fn rebuilt_parity_disk_consistent() {
        let mut r = array();
        r.write_stripe(0, &pattern(9)).unwrap();
        r.disk_mut(DATA_DISKS).fail();
        r.disk_mut(DATA_DISKS).replace();
        r.rebuild_disk(DATA_DISKS, 1).unwrap();
        // Now fail a data disk: parity must reconstruct it.
        r.disk_mut(0).fail();
        let (back, _) = r.read_stripe(0).unwrap();
        assert_eq!(back, pattern(9));
    }

    #[test]
    #[should_panic(expected = "whole stripes only")]
    fn partial_stripe_rejected() {
        let mut r = array();
        let _ = r.write_stripe(0, &vec![0u8; MIB - 1]);
    }
}
