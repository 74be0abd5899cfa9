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
//! full chunk under its head, as the hardware would — but hands over
//! only the byte range the caller asked for, as views of the members'
//! pages ([`RaidArray::read_views`]). The one read that copies is a
//! degraded one: the lost member's share is rebuilt from parity and the
//! survivors into new buffers, a page's worth at most each, leased from
//! the arena the members' pages come from.
//!
//! What the members retain follows what the log still uses. A stripe
//! write materialises its pages on all five disks. Two calls take pages
//! away again, both free of charge (no head, no time, no counter):
//! [`RaidArray::forget`] drops the whole data pages inside a byte range
//! of a stripe, XORing each into the parity page first so that every
//! byte still retained stays reconstructible, and
//! [`RaidArray::discard_stripe`] drops a stripe on every member. The
//! contract with the layer above: it forgets only bytes no extent
//! covers, inside a cleaning pass, and discards only a stripe it has
//! released — whose bytes are undefined from then on, so recovery after
//! a pass needs a checkpoint written after it.

use crate::disk::{xor_into, DiskConfig, DiskError, SimDisk, SECTOR};
use pegasus_sim::arena::{Arena, FrameView};
use pegasus_sim::time::Ns;

/// Number of data disks a segment is striped across.
pub const DATA_DISKS: usize = 4;

/// A 4+1 parity array of simulated disks.
pub struct RaidArray {
    disks: Vec<SimDisk>, // DATA_DISKS data + 1 parity
    chunk_bytes: usize,
    /// The members' pages, and the bytes a degraded read rebuilds.
    arena: Arena,
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
        let arena = Arena::new();
        RaidArray {
            disks: (0..=DATA_DISKS)
                .map(|_| SimDisk::in_arena(cfg, arena.clone()))
                .collect(),
            chunk_bytes: stripe_bytes / DATA_DISKS,
            arena,
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
    ///
    /// A parity disk that retains nothing is still charged its chunk,
    /// but no parity is computed for it: what it is handed is discarded
    /// unread.
    pub fn write_stripe(&mut self, stripe: u64, data: &[u8]) -> Result<Ns, RaidError> {
        assert_eq!(data.len(), self.stripe_bytes(), "whole stripes only");
        if self.failed_count() > 1 {
            return Err(RaidError::TooManyFailures);
        }
        let sector = self.stripe_sector(stripe)?;
        // Scratch here is per call on purpose: kept in the array it is
        // a quarter megabyte resident per idle server.
        let parity = self.disks[DATA_DISKS].stores().then(|| {
            let mut parity = vec![0u8; self.chunk_bytes];
            for chunk in data.chunks(self.chunk_bytes) {
                xor_into(&mut parity, chunk);
            }
            parity
        });
        let parity_chunk = parity.as_deref().unwrap_or(&data[..self.chunk_bytes]);
        let members = data.chunks(self.chunk_bytes).chain([parity_chunk]);
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
    /// data disk has failed. Returns a copy of the data and the duration.
    pub fn read_stripe(&mut self, stripe: u64) -> Result<(Vec<u8>, Ns), RaidError> {
        let mut views = Vec::new();
        let t = self.read_views(stripe, 0, self.stripe_bytes(), &mut views)?;
        let mut data = Vec::with_capacity(self.stripe_bytes());
        views.iter().for_each(|v| data.extend_from_slice(v));
        Ok((data, t))
    }

    /// Reads `stripe` and pushes views of bytes `[off, off + len)` of it
    /// onto `out`, in order. Every data disk is charged its full chunk —
    /// and the parity disk too when a data disk has failed — so the
    /// duration, the heads and the counters are those of a whole-stripe
    /// read; only the part of the range that lay on a lost disk is
    /// rebuilt, page by page, from parity and the survivors.
    pub fn read_views(
        &mut self,
        stripe: u64,
        off: usize,
        len: usize,
        out: &mut Vec<FrameView>,
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
        for i in 0..DATA_DISKS {
            let lo = off.clamp(i * cb, (i + 1) * cb) - i * cb;
            let hi = end.clamp(i * cb, (i + 1) * cb) - i * cb;
            let t = match self.disks[i].read_views(sector, n, lo, hi - lo, out) {
                Ok(t) => t,
                Err(DiskError::Failed) => {
                    // Parity stands in, and each of its views becomes
                    // the lost bytes once the survivors are folded in.
                    let at = out.len();
                    let t = self.disks[DATA_DISKS].read_views(sector, n, lo, hi - lo, out)?;
                    self.rebuild_views(sector, lo, &mut out[at..]);
                    t
                }
                Err(e) => return Err(e.into()),
            };
            max_t = max_t.max(t);
        }
        Ok(max_t)
    }

    /// Replaces each parity view in `lost` — together bytes from `lo` on
    /// of a failed member's chunk at `sector` — with a new buffer of the
    /// lost bytes: parity XOR every surviving data disk, free of charge.
    fn rebuild_views(&self, sector: u64, lo: usize, lost: &mut [FrameView]) {
        let mut skip = lo;
        let mut member = Vec::new();
        for view in lost {
            let mut bytes = self.arena.lease();
            bytes.extend_from_slice(view);
            for d in self.disks[..DATA_DISKS].iter().filter(|d| !d.is_failed()) {
                member.clear();
                d.views(sector, skip, view.len(), &mut member);
                xor_views(&mut bytes, &member);
            }
            skip += view.len();
            *view = bytes.freeze().view_all();
        }
    }

    /// Drops the retained data pages lying wholly inside bytes
    /// `[off, off + len)` of `stripe`, free of charge, each XORed into
    /// the parity page first: parity becomes that of a stripe holding
    /// zeros there, so a lost disk's surviving bytes still rebuild. Does
    /// nothing while any member has failed, or off the end of the array.
    pub fn forget(&mut self, stripe: u64, off: usize, len: usize) {
        if self.failed_count() > 0 || stripe >= self.stripes() {
            return;
        }
        let sector = stripe * self.chunk_sectors();
        let (cb, end) = (self.chunk_bytes, off.saturating_add(len));
        let (data, parity) = self.disks.split_at_mut(DATA_DISKS);
        for (i, disk) in data.iter_mut().enumerate() {
            let lo = off.clamp(i * cb, (i + 1) * cb) - i * cb;
            let hi = end.clamp(i * cb, (i + 1) * cb) - i * cb;
            disk.forget(sector, lo, hi - lo, |page, bytes| {
                parity[0].fold_page(page, bytes)
            });
        }
    }

    /// Drops `stripe` on all five members, free of charge: a released
    /// segment's bytes are nobody's.
    pub fn discard_stripe(&mut self, stripe: u64) {
        if stripe >= self.stripes() {
            return;
        }
        let sector = stripe * self.chunk_sectors();
        for disk in &mut self.disks {
            disk.forget(sector, 0, self.chunk_bytes, |_, _| {});
        }
    }

    /// Bytes of content the five members hold in memory, parity
    /// included.
    pub fn retained_bytes(&self) -> usize {
        self.disks.iter().map(SimDisk::retained_bytes).sum()
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
                let t = self.disks[i].read_views(sector, n, 0, self.chunk_bytes, &mut member)?;
                max_t = max_t.max(t);
                xor_views(&mut acc, &member);
            }
            total += max_t + self.disks[replaced].write(sector, &acc)?;
        }
        Ok(total)
    }
}

/// `acc ^= views`, the views laid end to end from the start of `acc`.
fn xor_views(acc: &mut [u8], views: &[FrameView]) {
    let mut at = 0;
    for v in views {
        xor_into(&mut acc[at..at + v.len()], v);
        at += v.len();
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
    fn a_timing_only_array_charges_what_a_retaining_one_does() {
        // The same stripe writes, a degraded one among them: parity is
        // skipped on one array and computed on the other, and neither
        // the durations nor any disk's counters may tell them apart.
        let drive = |r: &mut RaidArray| {
            let mut times = Vec::new();
            for (stripe, fill) in [(0, 1), (1, 2), (7, 3)] {
                times.push(r.write_stripe(stripe, &pattern(fill)).unwrap());
            }
            r.disk_mut(2).fail();
            times.push(r.write_stripe(8, &pattern(4)).unwrap());
            let stats: Vec<String> = (0..=DATA_DISKS)
                .map(|i| format!("{:?}", r.disk_mut(i).stats))
                .collect();
            (times, stats)
        };
        let mut timing_only = array();
        timing_only.set_store(false);
        assert_eq!(drive(&mut timing_only), drive(&mut array()));
    }

    #[test]
    fn views_outlive_every_change_to_the_pages_they_show() {
        let mut r = array();
        r.write_stripe(0, &pattern(0)).unwrap();
        r.write_stripe(1, &pattern(1)).unwrap();
        let take = |r: &mut RaidArray, stripe| {
            let mut views = Vec::new();
            r.read_views(stripe, 0, MIB, &mut views).unwrap();
            views
        };
        let bytes = |views: &[FrameView]| -> Vec<u8> {
            views.iter().flat_map(|v| v.iter().copied()).collect()
        };
        let chunk = MIB / DATA_DISKS;
        let sectors = (chunk / SECTOR) as u64;
        let parity = |r: &mut RaidArray| {
            let mut views = Vec::new();
            let disk = r.disk_mut(DATA_DISKS);
            disk.read_views(0, sectors, 0, chunk, &mut views).unwrap();
            views
        };

        // Forgetting half of stripe 0 drops two data chunks and folds
        // them into new parity pages; views of the old ones stand.
        let (data, old_parity) = (take(&mut r, 0), parity(&mut r));
        let was = bytes(&old_parity);
        r.forget(0, 0, MIB / 2);
        assert_eq!(r.retained_bytes(), 5 * MIB / 2 - MIB / 2);
        assert_ne!(bytes(&parity(&mut r)), was, "the fold replaced parity");
        assert_eq!(bytes(&old_parity), was, "after a parity fold");
        assert_eq!(bytes(&data), pattern(0), "after forget");

        // A discarded stripe, written again.
        let data = take(&mut r, 1);
        r.discard_stripe(1);
        r.write_stripe(1, &pattern(7)).unwrap();
        assert_eq!(bytes(&data), pattern(1), "after discard and reuse");

        // A member fails, a degraded read rebuilds its share, the member
        // is replaced and rebuilt: every view reads as when taken.
        let data = take(&mut r, 1);
        r.disk_mut(2).fail();
        let degraded = take(&mut r, 1);
        r.disk_mut(2).replace();
        r.rebuild_disk(2, 2).unwrap();
        for (what, views) in [("healthy", &data), ("degraded", &degraded)] {
            assert_eq!(bytes(views), pattern(7), "{what} view after rebuild");
        }
        assert_eq!(bytes(&take(&mut r, 1)), pattern(7));
    }

    #[test]
    #[should_panic(expected = "whole stripes only")]
    fn partial_stripe_rejected() {
        let mut r = array();
        let _ = r.write_stripe(0, &vec![0u8; MIB - 1]);
    }
}
