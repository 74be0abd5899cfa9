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
//! is written as pages ([`RaidArray::write_pages`]), a prefix of it that
//! reads as zeros past its end: each data member adopts its share of
//! the pages the writer built, uncopied, and the parity member the XOR
//! of those present at each page number, in fresh leases from the
//! array's arena, where the log builds its open segments. It is the one
//! stripe write. An array that retains nothing is written no pages
//! and computes no parity, and is charged the same. Two calls take pages
//! away again, both free of charge (no head, no time, no counter):
//! [`RaidArray::forget`] drops the whole data pages inside byte ranges
//! of a stripe, XORing each into the parity page first so that every
//! byte still retained stays reconstructible, and
//! [`RaidArray::discard_stripe`] drops a stripe on every member. The
//! contract with the layer above: it forgets only bytes no extent
//! covers, inside a cleaning pass that began with a checkpoint, and
//! discards only a stripe it released before the checkpoint it has last
//! written, which names none of its bytes: those are undefined from
//! then on.
//!
//! The array records which stripes it holds: a stripe written and not
//! discarded since. A rebuild ([`RaidArray::rebuild_disk`]) restores
//! exactly those, so no caller need say how far the log has reached.

use std::collections::BTreeSet;

use crate::disk::{
    page_runs, xor_into, Discard, DiskConfig, DiskError, SimDisk, PAGE_BYTES, SECTOR,
};
use pegasus_sim::arena::{Arena, FrameBuf, FrameView};
use pegasus_sim::time::Ns;

/// Number of data disks a segment is striped across.
pub const DATA_DISKS: usize = 4;

/// A 4+1 parity array of simulated disks.
pub struct RaidArray {
    disks: Vec<SimDisk>, // DATA_DISKS data + 1 parity
    chunk_bytes: usize,
    /// The members' pages, the log's open segments that become them,
    /// and the bytes a degraded read rebuilds.
    arena: Arena,
    /// Stripes written and not discarded since: what a rebuild restores.
    held: BTreeSet<u64>,
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
    /// `stripe_bytes` (must divide evenly by [`DATA_DISKS`] × 64 KiB,
    /// the disks' page).
    pub fn new(cfg: DiskConfig, stripe_bytes: usize) -> Self {
        let whole = stripe_bytes.is_multiple_of(DATA_DISKS * PAGE_BYTES);
        assert!(whole, "stripe must be a whole number of pages per disk");
        let arena = Arena::new();
        RaidArray {
            disks: (0..=DATA_DISKS)
                .map(|_| SimDisk::in_arena(cfg, arena.clone()))
                .collect(),
            chunk_bytes: stripe_bytes / DATA_DISKS,
            arena,
            held: BTreeSet::new(),
        }
    }

    /// Bytes each stripe stores (excluding parity).
    fn stripe_bytes(&self) -> usize {
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
    /// [`SimDisk::set_store`]). Bytes still in an open segment of the
    /// log on a timing-only array read as zeros, like every other byte
    /// on that array: a segment takes the array's mode when its first
    /// byte arrives and keeps it until it flushes.
    pub fn set_store(&mut self, store: bool) {
        for d in &mut self.disks {
            d.set_store(store);
        }
    }

    /// Whether a data member retains what is written: whether a writer
    /// need build pages at all.
    pub(crate) fn stores(&self) -> bool {
        self.disks[..DATA_DISKS].iter().any(SimDisk::stores)
    }

    /// The arena the members' pages are leased from; a writer builds
    /// the pages it hands [`RaidArray::write_pages`] in it.
    pub fn arena(&self) -> &Arena {
        &self.arena
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

    /// Writes one stripe of pages; returns the stripe duration (the
    /// slowest disk, as they run in parallel). `pages` are a prefix of
    /// the stripe's bytes in order, at most [`DATA_DISKS`] × the chunk's
    /// pages of 64 KiB each, and the stripe reads as zeros past them:
    /// every data member adopts its share of the prefix uncopied, and
    /// parity is the XOR of the pages present at each page number, in
    /// fresh leases. Every member is charged its whole chunk all the
    /// same. Writing with one failed disk is allowed (degraded mode: that
    /// chunk is simply not stored, but remains reconstructible).
    ///
    /// No pages at all, from a writer on a timing-only array, is a
    /// stripe of zeros; a parity disk that retains nothing is charged
    /// its chunk with no parity computed for it.
    pub fn write_pages(&mut self, stripe: u64, pages: &[FrameBuf]) -> Result<Ns, RaidError> {
        let per = self.chunk_bytes / PAGE_BYTES;
        assert!(pages.len() <= DATA_DISKS * per, "one stripe at most");
        let paged = pages.iter().all(|p| p.len() == PAGE_BYTES);
        assert!(paged, "whole pages only");
        if self.failed_count() > 1 {
            return Err(RaidError::TooManyFailures);
        }
        let sector = self.stripe_sector(stripe)?;
        // Each member's share: its chunk's pages, as far as the prefix goes.
        let share = |i: usize| pages.chunks(per).nth(i).unwrap_or(&[]);
        let mut parity = Vec::new();
        if self.disks[DATA_DISKS].stores() {
            parity.extend(share(0).iter().enumerate().map(|(k, first)| {
                let mut page = self.arena.lease();
                page.extend_from_slice(first);
                for p in (1..DATA_DISKS).filter_map(|d| share(d).get(k)) {
                    xor_into(&mut page, p);
                }
                page.freeze()
            }));
        }
        let n = self.chunk_sectors();
        let mut max_t = 0;
        for (i, disk) in self.disks.iter_mut().enumerate() {
            let share = match i {
                DATA_DISKS => &parity[..],
                _ => share(i),
            };
            match disk.write_pages(sector, n, share) {
                Ok(t) => max_t = max_t.max(t),
                Err(DiskError::Failed) => {} // degraded write
                Err(e) => return Err(e.into()),
            }
        }
        self.held.insert(stripe);
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

    /// Reads `stripe` and extends `out` with views of bytes
    /// `[off, off + len)` of it, in order. Every data disk is charged its
    /// full chunk — and the parity disk too when a data disk has failed
    /// — so the duration, the heads and the counters are those of a
    /// whole-stripe read; only the part of the range that lay on a lost
    /// disk is rebuilt, page by page, from parity and the survivors, and
    /// only as `out` takes the views: into [`Discard`], none is.
    pub fn read_views(
        &mut self,
        stripe: u64,
        off: usize,
        len: usize,
        out: &mut impl Extend<FrameView>,
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
                    // Parity stands in: each page's share of the lost
                    // bytes is rebuilt from it and the survivors.
                    let t = self.disks[DATA_DISKS].read_views(sector, n, lo, 0, &mut Discard)?;
                    out.extend(page_runs(lo, hi - lo).map(|(page, at, m)| {
                        let skip = page as usize * PAGE_BYTES + at;
                        self.xor_others(i, sector, skip, m).view_all()
                    }));
                    t
                }
                Err(e) => return Err(e.into()),
            };
            max_t = max_t.max(t);
        }
        Ok(max_t)
    }

    /// A new buffer of bytes `[skip, skip + len)` from `sector` XORed
    /// over every member but `lost`, free of charge: any four members
    /// give the fifth.
    fn xor_others(&self, lost: usize, sector: u64, skip: usize, len: usize) -> FrameBuf {
        let mut acc = self.arena.lease_zeroed(len);
        for i in (0..=DATA_DISKS).filter(|&i| i != lost) {
            self.disks[i].xor_onto(sector, skip, &mut acc);
        }
        acc.freeze()
    }

    /// Drops the retained data pages lying wholly inside any of the
    /// `(offset, length)` byte ranges `dead` of `stripe`, free of charge.
    /// Parity becomes that of a stripe holding zeros there, so a lost
    /// disk's surviving bytes still rebuild: a parity page takes in every
    /// data page forgotten at its page number in one fold, or goes too
    /// when no data page is left at that number, since parity of zeros
    /// is zeros. Does nothing while any member has failed, or off the end
    /// of the array.
    pub fn forget(&mut self, stripe: u64, dead: &[(usize, usize)]) {
        if self.failed_count() > 0 || stripe >= self.stripes() {
            return;
        }
        let (sector, cb) = (stripe * self.chunk_sectors(), self.chunk_bytes);
        let mut gone = Vec::new();
        let (data, parity) = self.disks.split_at_mut(DATA_DISKS);
        for (i, disk) in data.iter_mut().enumerate() {
            for &(off, len) in dead {
                let lo = off.clamp(i * cb, (i + 1) * cb) - i * cb;
                let hi = off.saturating_add(len).clamp(i * cb, (i + 1) * cb) - i * cb;
                disk.forget(sector, lo, hi - lo, |page, bytes| gone.push((page, bytes)));
            }
        }
        gone.sort_unstable_by_key(|&(page, _)| page);
        for same in gone.chunk_by(|a, b| a.0 == b.0) {
            let page = same[0].0;
            match data.iter().any(|d| d.holds(page)) {
                true => parity[0].fold_pages(page, same.iter().map(|(_, bytes)| &bytes[..])),
                false => parity[0].forget(0, page as usize * PAGE_BYTES, PAGE_BYTES, |_, _| {}),
            }
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
        self.held.remove(&stripe);
    }

    /// Bytes of content the five members hold in memory, parity
    /// included.
    pub fn retained_bytes(&self) -> usize {
        self.disks.iter().map(SimDisk::retained_bytes).sum()
    }

    /// Rebuilds a replaced disk from the surviving four, over every
    /// stripe the array holds: each survivor is charged its chunk, the
    /// replaced disk a chunk write. It adopts a page only at the page
    /// numbers where some survivor holds one, and only if the XOR of
    /// theirs is not all zeros, computed only when it retains what is
    /// written. Returns the total rebuild time.
    pub fn rebuild_disk(&mut self, replaced: usize) -> Result<Ns, RaidError> {
        assert!(replaced <= DATA_DISKS);
        if self.failed_count() > 0 {
            return Err(RaidError::TooManyFailures);
        }
        let n = self.chunk_sectors();
        // Pages a chunk spans on the replaced disk: none if it keeps none.
        let per = self.chunk_bytes / PAGE_BYTES * usize::from(self.disks[replaced].stores());
        let survivors = || (0..=DATA_DISKS).filter(move |&i| i != replaced);
        let mut total = 0;
        for stripe in self.held.clone() {
            let sector = self.stripe_sector(stripe)?;
            let mut max_t = 0;
            for i in survivors() {
                // Charged for the whole chunk; the bytes are taken below.
                max_t = max_t.max(self.disks[i].read_views(sector, n, 0, 0, &mut Discard)?);
            }
            total += max_t + self.disks[replaced].write_pages(sector, n, &[])?;
            let first = sector * SECTOR as u64 / PAGE_BYTES as u64;
            for page in first..first + per as u64 {
                if survivors().any(|i| self.disks[i].holds(page)) {
                    let skip = (page - first) as usize * PAGE_BYTES;
                    let bytes = self.xor_others(replaced, sector, skip, PAGE_BYTES);
                    self.disks[replaced].adopt(page, bytes);
                }
            }
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

    /// Writes `data`, a stripe or a prefix of one, as pages leased from
    /// the array's arena; none on an array that retains nothing, as the
    /// log does.
    fn write(r: &mut RaidArray, stripe: u64, data: &[u8]) -> Result<Ns, RaidError> {
        let mut pages = Vec::new();
        if r.stores() {
            pages.extend(data.chunks(PAGE_BYTES).map(|p| r.arena().frame_from(p)));
        }
        r.write_pages(stripe, &pages)
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
        write(&mut r, 0, &data).unwrap();
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
        let t_stripe = write(&mut r, 0, &data).unwrap();
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
            total += write(&mut r, stripe, &data).unwrap();
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
        write(&mut r, 3, &data).unwrap();
        r.disk_mut(1).fail();
        let (back, _) = r.read_stripe(3).unwrap();
        assert_eq!(back, data, "parity reconstruction must be exact");
    }

    #[test]
    fn parity_disk_failure_harmless_for_reads() {
        let mut r = array();
        let data = pattern(3);
        write(&mut r, 0, &data).unwrap();
        r.disk_mut(DATA_DISKS).fail();
        let (back, _) = r.read_stripe(0).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn double_failure_unrecoverable() {
        let mut r = array();
        write(&mut r, 0, &pattern(0)).unwrap();
        r.disk_mut(0).fail();
        r.disk_mut(2).fail();
        assert_eq!(r.read_stripe(0).unwrap_err(), RaidError::TooManyFailures);
        assert_eq!(
            write(&mut r, 1, &pattern(1)).unwrap_err(),
            RaidError::TooManyFailures
        );
    }

    #[test]
    fn degraded_write_then_recover() {
        let mut r = array();
        r.disk_mut(2).fail();
        let data = pattern(4);
        write(&mut r, 5, &data).unwrap(); // degraded write
        let (back, _) = r.read_stripe(5).unwrap(); // reconstruct chunk 2
        assert_eq!(back, data);
    }

    #[test]
    fn rebuild_restores_replaced_disk() {
        let mut r = array();
        let stripes = 4u64;
        for s in 0..stripes {
            write(&mut r, s, &pattern(s)).unwrap();
        }
        r.disk_mut(1).fail();
        r.disk_mut(1).replace();
        r.rebuild_disk(1).unwrap();
        // All data intact and the rebuilt disk participates again.
        for s in 0..stripes {
            let (back, _) = r.read_stripe(s).unwrap();
            assert_eq!(back, pattern(s), "stripe {s}");
        }
    }

    #[test]
    fn rebuilt_parity_disk_consistent() {
        let mut r = array();
        write(&mut r, 0, &pattern(9)).unwrap();
        r.disk_mut(DATA_DISKS).fail();
        r.disk_mut(DATA_DISKS).replace();
        r.rebuild_disk(DATA_DISKS).unwrap();
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
                times.push(write(r, stripe, &pattern(fill)).unwrap());
            }
            r.disk_mut(2).fail();
            times.push(write(r, 8, &pattern(4)).unwrap());
            let stats: Vec<String> = (0..=DATA_DISKS)
                .map(|i| format!("{:?}", r.disk_mut(i).stats))
                .collect();
            (times, stats)
        };
        let mut timing_only = array();
        timing_only.set_store(false);
        assert_eq!(drive(&mut timing_only), drive(&mut array()));
        // Nor a rebuild, for which the timing-only array computes nothing.
        let rebuild = |r: &mut RaidArray| {
            r.disk_mut(2).replace();
            r.rebuild_disk(2).unwrap()
        };
        let mut kept = array();
        drive(&mut kept);
        assert_eq!(rebuild(&mut timing_only), rebuild(&mut kept));
        assert_eq!(timing_only.arena().stats().leases_granted, 0);
    }

    #[test]
    fn forgetting_folds_each_parity_page_once() {
        // Forgetting all but the stripe's first page, in two runs: at
        // page number 0 three data pages go, folded into parity at once
        // in one new page; at each other number all four go, and the
        // parity page with them, folded by nobody.
        let mut r = array();
        write(&mut r, 0, &pattern(0)).unwrap();
        let before = r.arena().stats().leases_granted;
        let half = MIB / 2;
        r.forget(0, &[(PAGE_BYTES, half - PAGE_BYTES), (half, half)]);
        assert_eq!(r.arena().stats().leases_granted - before, 1);
        assert_eq!(r.retained_bytes(), 2 * PAGE_BYTES);
        // What is left rebuilds through the folded page.
        r.disk_mut(0).fail();
        let (back, _) = r.read_stripe(0).unwrap();
        assert_eq!(back[..PAGE_BYTES], pattern(0)[..PAGE_BYTES]);
        assert!(back[PAGE_BYTES..].iter().all(|&b| b == 0));
    }

    #[test]
    fn views_outlive_every_change_to_the_pages_they_show() {
        let mut r = array();
        write(&mut r, 0, &pattern(0)).unwrap();
        write(&mut r, 1, &pattern(1)).unwrap();
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
        r.forget(0, &[(0, MIB / 2)]);
        assert_eq!(r.retained_bytes(), 5 * MIB / 2 - MIB / 2);
        assert_ne!(bytes(&parity(&mut r)), was, "the fold replaced parity");
        assert_eq!(bytes(&old_parity), was, "after a parity fold");
        assert_eq!(bytes(&data), pattern(0), "after forget");

        // A discarded stripe, written again.
        let data = take(&mut r, 1);
        r.discard_stripe(1);
        write(&mut r, 1, &pattern(7)).unwrap();
        assert_eq!(bytes(&data), pattern(1), "after discard and reuse");

        // A member fails, a degraded read rebuilds its share, the member
        // is replaced and rebuilt: every view reads as when taken.
        let data = take(&mut r, 1);
        r.disk_mut(2).fail();
        let degraded = take(&mut r, 1);
        r.disk_mut(2).replace();
        r.rebuild_disk(2).unwrap();
        for (what, views) in [("healthy", &data), ("degraded", &degraded)] {
            assert_eq!(bytes(views), pattern(7), "{what} view after rebuild");
        }
        assert_eq!(bytes(&take(&mut r, 1)), pattern(7));
    }

    #[test]
    fn a_prefix_reads_zeros_past_its_end() {
        // Five pages: all of member 0's chunk and one page of member 1's.
        // Parity holds a page per page number present, four in all.
        let (mut r, mut whole) = (array(), array());
        write(&mut r, 0, &pattern(1)).unwrap();
        write(&mut whole, 0, &pattern(1)).unwrap();
        let prefix = 5 * PAGE_BYTES;
        let t = write(&mut r, 0, &pattern(0)[..prefix]).unwrap();
        assert_eq!(
            t,
            write(&mut whole, 0, &pattern(0)).unwrap(),
            "charged a stripe"
        );
        assert_eq!(r.retained_bytes(), (5 + 4) * PAGE_BYTES);
        let mut want = pattern(0)[..prefix].to_vec();
        want.resize(MIB, 0);
        assert_eq!(r.read_stripe(0).unwrap().0, want, "healthy");
        for lost in [0, 1, 2] {
            r.disk_mut(lost).fail();
            assert_eq!(r.read_stripe(0).unwrap().0, want, "member {lost} lost");
            r.disk_mut(lost).replace();
            r.rebuild_disk(lost).unwrap();
            assert_eq!(r.read_stripe(0).unwrap().0, want, "member {lost} rebuilt");
        }
    }

    #[test]
    fn a_rebuild_hands_over_only_held_pages() {
        // One page on member 0, and its parity: a rebuilt member 1, which
        // held none of it, adopts nothing (its share at that page number
        // is zeros), and a rebuilt member 0 its page.
        let mut r = array();
        write(&mut r, 0, &pattern(0)[..PAGE_BYTES]).unwrap();
        assert_eq!(r.retained_bytes(), 2 * PAGE_BYTES);
        for lost in [1, 0] {
            r.disk_mut(lost).fail();
            r.disk_mut(lost).replace();
            r.rebuild_disk(lost).unwrap();
            assert_eq!(r.retained_bytes(), 2 * PAGE_BYTES, "member {lost} rebuilt");
        }
        assert_eq!(
            r.read_stripe(0).unwrap().0[..PAGE_BYTES],
            pattern(0)[..PAGE_BYTES]
        );
    }

    #[test]
    fn a_rebuild_restores_the_stripes_held_and_no_others() {
        // Stripes 1 and 3 written, 2 written and discarded: rebuilding a
        // member charges each survivor two chunk reads, and the member
        // two chunk writes.
        let mut r = array();
        for s in [1, 2, 3] {
            write(&mut r, s, &pattern(s)).unwrap();
        }
        r.discard_stripe(2);
        r.disk_mut(2).fail();
        r.disk_mut(2).replace();
        let stats = |r: &mut RaidArray, i| r.disk_mut(i).stats.clone();
        let (reads, writes) = (stats(&mut r, 0).reads, stats(&mut r, 2).writes);
        r.rebuild_disk(2).unwrap();
        assert_eq!(stats(&mut r, 0).reads - reads, 2);
        assert_eq!(stats(&mut r, 2).writes - writes, 2);
        // What member 2 adopted stands in for a lost member 0.
        r.disk_mut(0).fail();
        for s in [1, 3] {
            assert_eq!(r.read_stripe(s).unwrap().0, pattern(s), "stripe {s}");
        }
    }

    #[test]
    #[should_panic(expected = "one stripe at most")]
    fn more_than_a_stripe_rejected() {
        let mut r = array();
        let _ = write(&mut r, 0, &vec![0u8; MIB + PAGE_BYTES]);
    }

    #[test]
    #[should_panic(expected = "whole pages only")]
    fn short_page_rejected() {
        let mut r = array();
        let mut pages: Vec<_> = (0..MIB / PAGE_BYTES)
            .map(|_| r.arena().frame_from(&[0u8; PAGE_BYTES]))
            .collect();
        pages[5] = r.arena().frame_from(&[0u8; PAGE_BYTES - 1]);
        let _ = r.write_pages(0, &pages);
    }
}
