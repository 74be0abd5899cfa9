//! Simulated disks.
//!
//! The paper's arithmetic: "The speeds of modern disks are such that the
//! overhead of seeks between reading and writing whole segments is less
//! than ten per cent, so that a transfer rate of at least five megabytes
//! per second per disk is possible on high-performance disk hardware."
//! A [`SimDisk`] reproduces exactly that trade: positioning time (seek +
//! rotational latency) is amortized over the transfer, so megabyte
//! segments keep the overhead under 10 % while small random I/O drowns
//! in it.
//!
//! Every disk is the same 1994 drive: 2–18 ms seeks (`MIN_SEEK`,
//! `MAX_SEEK`), 5,400 RPM (`AVG_ROTATION`, 5.56 ms) and a 6 MB/s media
//! rate (`TRANSFER_RATE`). [`DiskConfig`] carries only its size, which
//! experiment E13 raises to 8 GiB.
//!
//! Data is stored sparsely, a page at a time and only where something
//! was written, so experiments can address multi-gigabyte devices
//! without the memory footprint. A read is *charged* for every sector
//! it spans and hands over only the byte range its caller names, as
//! [`FrameView`]s of the pages that hold it: the read copies nothing.
//! Bytes never written read from one shared page of zeros per thread,
//! so a timing-only disk allocates nothing to be read.
//!
//! A page's life: it is an immutable [`FrameBuf`] leased from the
//! disk's arena, which the members of an array share. The log builds
//! most pages: an open segment fills leases from that arena as bytes
//! arrive, and at flush each member adopts its share uncopied
//! (`SimDisk::write_pages`), the parity member the XOR of the others'
//! in fresh leases. [`SimDisk::write`] builds its pages from the bytes
//! it is handed instead, around the run (from the old page or zeros)
//! where it covers part of one. Nothing writes into a page once the
//! disk holds it. A later write that covers part of it builds a new
//! page around the run (copy-on-write) and replaces it; so does parity
//! folding other disks' pages in. `forget` drops it, and so do
//! [`SimDisk::replace`] and `set_store(false)`. A view taken before any
//! of these still reads the bytes it was taken with: the old page lives
//! as long as a view holds it, then goes back to the arena. Forgetting
//! is free of charge — no head movement, no time, no counter — because
//! it is not an I/O: it is the model declaring bytes nobody will read,
//! which then read as zeros like bytes never written. Only the layers
//! above know which bytes those are (see
//! [`crate::raid::RaidArray::forget`]).

use std::collections::HashMap;

use pegasus_sim::arena::{Arena, FrameBuf, FrameView};
use pegasus_sim::time::{Ns, SEC};

/// Sector size in bytes.
pub const SECTOR: usize = 512;

/// Unit of content retention: a written sector materialises the whole
/// page around it, zero-filled. A page write hands the disks pages of
/// exactly this size.
pub const PAGE_BYTES: usize = 128 * SECTOR;

/// Where a read that is only timed puts its views: it keeps none, and
/// never draws them from the iterator it is handed, so no page is
/// touched and no byte rebuilt. The read is charged in full all the
/// same.
pub struct Discard;

impl Extend<FrameView> for Discard {
    fn extend<I: IntoIterator<Item = FrameView>>(&mut self, _views: I) {}
}

thread_local! {
    /// What every byte no page holds reads from, on every disk.
    static ZERO_PAGE: FrameBuf = Arena::new().lease_zeroed(PAGE_BYTES).freeze();
}

/// Minimum (track-to-track) seek of the 1994 drive: 2 ms.
pub(crate) const MIN_SEEK: Ns = 2_000_000;

/// Maximum (full-stroke) seek of the 1994 drive: 18 ms.
pub(crate) const MAX_SEEK: Ns = 18_000_000;

/// Spindle speed in RPM (rotational latency = half a revolution).
const RPM: u64 = 5_400;

/// Half a revolution: the average rotational latency (5.56 ms).
pub(crate) const AVG_ROTATION: Ns = (60 * SEC) / (2 * RPM);

/// Media transfer rate in bytes per second: 6 MB/s.
pub(crate) const TRANSFER_RATE: u64 = 6_000_000;

/// The size of a disk; every disk is the same 1994 drive otherwise.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Capacity in sectors.
    pub sectors: u64,
}

impl DiskConfig {
    /// A 1994 high-performance drive: 1 GiB.
    pub fn hp_1994() -> Self {
        DiskConfig {
            sectors: (1u64 << 30) / SECTOR as u64,
        }
    }
}

/// Why a disk operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The drive has fail-stopped.
    Failed,
    /// Access beyond the last sector.
    OutOfRange,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Failed => write!(f, "disk has failed"),
            DiskError::OutOfRange => write!(f, "sector out of range"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Per-disk counters.
#[derive(Debug, Default, Clone)]
pub struct DiskStats {
    /// Read operations completed.
    pub reads: u64,
    /// Write operations completed.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Time spent positioning (seek + rotation).
    pub positioning: Ns,
    /// Time spent transferring.
    pub transferring: Ns,
}

impl DiskStats {
    /// Fraction of total I/O time spent positioning — the paper's
    /// "overhead of seeks".
    pub fn seek_overhead(&self) -> f64 {
        let total = self.positioning + self.transferring;
        if total == 0 {
            0.0
        } else {
            self.positioning as f64 / total as f64
        }
    }

    /// Effective throughput in bytes/second over the I/O time spent.
    pub fn throughput(&self) -> f64 {
        let total = self.positioning + self.transferring;
        if total == 0 {
            0.0
        } else {
            (self.bytes_read + self.bytes_written) as f64 / (total as f64 / SEC as f64)
        }
    }
}

/// A simulated disk: sparse data store plus a timing model.
pub struct SimDisk {
    cfg: DiskConfig,
    /// Retained contents by page number.
    data: HashMap<u64, FrameBuf>,
    /// Where pages are leased from.
    arena: Arena,
    head: u64,
    failed: bool,
    store: bool,
    /// Counters.
    pub stats: DiskStats,
}

impl SimDisk {
    /// Creates a disk with the given geometry.
    pub fn new(cfg: DiskConfig) -> Self {
        SimDisk::in_arena(cfg, Arena::new())
    }

    /// [`SimDisk::new`], leasing its pages from `arena`: the members of
    /// an array share one.
    pub(crate) fn in_arena(cfg: DiskConfig, arena: Arena) -> Self {
        SimDisk {
            cfg,
            data: HashMap::new(),
            arena,
            head: 0,
            failed: false,
            store: true,
            stats: DiskStats::default(),
        }
    }

    /// Disables content retention: timing is still modelled exactly, but
    /// written bytes are discarded and reads return zeros. Scaling
    /// experiments use this to address tens of gigabytes without the
    /// memory footprint. Turning it off drops every page held; turning
    /// it back on brings back nothing written meanwhile. Through the log
    /// the rule covers bytes not yet flushed too: a segment takes the
    /// array's mode when its first byte arrives, and one begun on a
    /// timing-only array keeps no bytes, so they read as zeros while it
    /// is open and after it flushes, like every other byte on that array
    /// (see [`crate::log::LogFs::append`]).
    pub fn set_store(&mut self, store: bool) {
        self.store = store;
        if !store {
            self.data.clear();
        }
    }

    /// Whether written bytes are retained (see [`SimDisk::set_store`]).
    pub fn stores(&self) -> bool {
        self.store
    }

    /// The configuration.
    pub fn config(&self) -> DiskConfig {
        self.cfg
    }

    /// Fail-stops the drive; all subsequent operations error.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Repairs (replaces) the drive. Contents are lost — this models
    /// swapping in a fresh spindle for RAID reconstruction.
    pub fn replace(&mut self) {
        self.failed = false;
        self.data.clear();
        self.head = 0;
    }

    /// Whether the drive has failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Positioning cost from the current head position to `sector`.
    fn position(&mut self, sector: u64) -> Ns {
        if sector == self.head {
            return 0; // sequential: no seek, no extra rotation
        }
        let distance = sector.abs_diff(self.head);
        let frac = distance as f64 / self.cfg.sectors as f64;
        let seek = MIN_SEEK + ((MAX_SEEK - MIN_SEEK) as f64 * frac.sqrt()) as Ns;
        seek + AVG_ROTATION
    }

    fn transfer_time(&self, bytes: usize) -> Ns {
        (bytes as u128 * SEC as u128 / TRANSFER_RATE as u128) as Ns
    }

    /// Writes `data` (whole sectors) starting at `sector`; returns the
    /// operation's duration. Each page the run touches is built anew
    /// from the bytes, around the run where it covers part of the page.
    pub fn write(&mut self, sector: u64, data: &[u8]) -> Result<Ns, DiskError> {
        self.check(sector, (data.len() as u64).div_ceil(SECTOR as u64))?;
        assert_eq!(data.len() % SECTOR, 0, "whole sectors only");
        if self.store {
            let mut rest = data;
            for (page, off, n) in page_runs(sector as usize * SECTOR, data.len()) {
                let (run, tail) = rest.split_at(n);
                // A new page around the run, never the old one written
                // in place: a view of the old one keeps reading it.
                let old = self.page(page);
                let mut fresh = self.arena.lease();
                fresh.reserve_exact(PAGE_BYTES);
                for part in [&old[..off], run, &old[off + n..]] {
                    fresh.extend_from_slice(part);
                }
                self.data.insert(page, fresh.freeze());
                rest = tail;
            }
        }
        Ok(self.charge_write(sector, data.len()))
    }

    /// Writes `sectors` sectors from `sector`, both whole pages, by
    /// adopting `pages` as they are: no byte is copied, and the writer's
    /// handles and the disk's share each page. Charged exactly as
    /// [`SimDisk::write`] of the same run. `pages` is a prefix of the
    /// run's pages — every one, some, or none from a writer that kept no
    /// bytes: the run reads as zeros past it afterwards.
    pub(crate) fn write_pages(
        &mut self,
        sector: u64,
        sectors: u64,
        pages: &[FrameBuf],
    ) -> Result<Ns, DiskError> {
        self.check(sector, sectors)?;
        let (start, len) = (sector as usize * SECTOR, sectors as usize * SECTOR);
        assert!(pages.len() <= len / PAGE_BYTES);
        for (k, page) in (start / PAGE_BYTES..(start + len) / PAGE_BYTES).enumerate() {
            match pages.get(k).filter(|_| self.store) {
                Some(p) => self.data.insert(page as u64, p.clone()),
                None => self.data.remove(&(page as u64)),
            };
        }
        Ok(self.charge_write(sector, len))
    }

    /// Moves the head over a write of `bytes` from `sector` and counts
    /// it; returns the write's duration.
    fn charge_write(&mut self, sector: u64, bytes: usize) -> Ns {
        let pos = self.position(sector);
        let xfer = self.transfer_time(bytes);
        self.head = sector + (bytes / SECTOR) as u64;
        self.stats.writes += 1;
        self.stats.bytes_written += bytes as u64;
        self.stats.positioning += pos;
        self.stats.transferring += xfer;
        pos + xfer
    }

    /// Reads `sectors` whole sectors starting at `sector`; returns the
    /// data and the operation's duration. Unwritten sectors read as
    /// zeros.
    pub fn read(&mut self, sector: u64, sectors: u64) -> Result<(Vec<u8>, Ns), DiskError> {
        let all = (sectors as usize).saturating_mul(SECTOR);
        let mut views = Vec::new();
        let t = self.read_views(sector, sectors, 0, all, &mut views)?;
        let mut out = Vec::new();
        views.iter().for_each(|v| out.extend_from_slice(v));
        Ok((out, t))
    }

    /// A read of `sectors` sectors from `sector` that hands over only
    /// bytes `[skip, skip + take)` of them, as views of the pages that
    /// hold them (one per page touched) extending `out`. The head
    /// moves, the clock runs and the counters count as for the whole
    /// run: the platter turns under the head whether or not the caller
    /// wants every byte. The one read that charges; the others wrap it.
    /// Into [`Discard`] it is charged the same and takes no view.
    pub fn read_views(
        &mut self,
        sector: u64,
        sectors: u64,
        skip: usize,
        take: usize,
        out: &mut impl Extend<FrameView>,
    ) -> Result<Ns, DiskError> {
        self.check(sector, sectors)?;
        let n = sectors as usize * SECTOR;
        assert!(skip <= n && take <= n - skip, "range outside the read");
        let pos = self.position(sector);
        let runs = page_runs(sector as usize * SECTOR + skip, take);
        out.extend(runs.map(|(page, off, len)| self.page(page).view(off, len)));
        let xfer = self.transfer_time(n);
        self.head = sector + sectors;
        self.stats.reads += 1;
        self.stats.bytes_read += n as u64;
        self.stats.positioning += pos;
        self.stats.transferring += xfer;
        Ok(xfer + pos)
    }

    /// `acc ^=` the `acc.len()` bytes from byte `skip` of `sector` on,
    /// free of charge: the array rebuilds a member's bytes from the
    /// others'.
    pub(crate) fn xor_onto(&self, sector: u64, skip: usize, acc: &mut [u8]) {
        let mut at = 0;
        for (page, off, n) in page_runs(sector as usize * SECTOR + skip, acc.len()) {
            // An absent page reads as zeros, and XOR with zeros is the identity.
            if let Some(p) = self.data.get(&page) {
                xor_into(&mut acc[at..at + n], &p[off..off + n]);
            }
            at += n;
        }
    }

    /// Page `page` as it reads: its retained buffer or the zero page.
    fn page(&self, page: u64) -> FrameBuf {
        match self.data.get(&page) {
            Some(p) => p.clone(),
            None => ZERO_PAGE.with(FrameBuf::clone),
        }
    }

    /// Drops every retained page lying wholly inside bytes
    /// `[skip, skip + len)` counted from the start of `sector`, handing
    /// each to `fold` with its page number on the way out. Free of
    /// charge; a page the range only clips is kept whole.
    pub(crate) fn forget(
        &mut self,
        sector: u64,
        skip: usize,
        len: usize,
        mut fold: impl FnMut(u64, FrameBuf),
    ) {
        let start = sector as usize * SECTOR + skip;
        for page in start.div_ceil(PAGE_BYTES)..(start + len) / PAGE_BYTES {
            if let Some(bytes) = self.data.remove(&(page as u64)) {
                fold(page as u64, bytes);
            }
        }
    }

    /// XORs every one of `pages` into page `page`, free of charge:
    /// parity absorbing the data pages other disks forget at that page
    /// number, all of them into one new page, as after a partial write.
    /// A page left all zeros is dropped, since it reads the same.
    pub(crate) fn fold_pages<'a>(&mut self, page: u64, pages: impl IntoIterator<Item = &'a [u8]>) {
        if !self.store {
            return;
        }
        let mut folded = self.arena.lease();
        folded.extend_from_slice(&self.page(page));
        for bytes in pages {
            xor_into(&mut folded, bytes);
        }
        if folded.iter().all(|&b| b == 0) {
            self.data.remove(&page);
        } else {
            self.data.insert(page, folded.freeze());
        }
    }

    /// Takes `bytes` as page `page`, free of charge, if the disk retains
    /// what is written: a rebuilt member adopts the pages the array
    /// computed for it. A page of zeros is not kept, since it reads the
    /// same.
    pub(crate) fn adopt(&mut self, page: u64, bytes: FrameBuf) {
        if self.store && bytes.iter().any(|&b| b != 0) {
            self.data.insert(page, bytes);
        }
    }

    /// Whether page `page` is retained.
    pub(crate) fn holds(&self, page: u64) -> bool {
        self.data.contains_key(&page)
    }

    /// Bytes of content this disk holds in memory: its pages.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.data.len() * PAGE_BYTES
    }

    /// `sectors` sectors from `sector` must lie on a live disk. Both
    /// numbers are the caller's, so the sum is checked, not trusted.
    fn check(&self, sector: u64, sectors: u64) -> Result<(), DiskError> {
        if self.failed {
            return Err(DiskError::Failed);
        }
        match sector.checked_add(sectors) {
            Some(end) if end <= self.cfg.sectors => Ok(()),
            _ => Err(DiskError::OutOfRange),
        }
    }
}

/// `acc ^= src`, byte for byte.
pub(crate) fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// Splits `len` bytes from byte address `start` at page boundaries:
/// `(page, offset in page, bytes)` per page touched.
pub(crate) fn page_runs(start: usize, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let off = at % PAGE_BYTES;
            let n = (PAGE_BYTES - off).min(end - at);
            let run = ((at / PAGE_BYTES) as u64, off, n);
            at += n;
            run
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_read_roundtrip() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let data: Vec<u8> = (0..2 * SECTOR).map(|i| (i % 256) as u8).collect();
        d.write(100, &data).unwrap();
        let (back, _) = d.read(100, 2).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let (data, _) = d.read(5, 1).unwrap();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn timing_only_disk_reads_what_a_never_written_store_disk_reads() {
        // The same calls on each disk; what a caller can observe of them.
        fn drive(d: &mut SimDisk, write_first: bool) -> (Vec<u8>, Vec<Ns>, String) {
            let mut out = vec![0xEE; 3]; // reads append after a prefix
            let mut times = Vec::new();
            if write_first {
                times.push(d.write(900_000, &[7u8; SECTOR]).unwrap());
            }
            for (sector, n) in [(10, 4), (14, 1), (500_000, 64), (3, 0), (77, 2)] {
                let (owned, t) = d.read(sector, n).unwrap();
                out.extend_from_slice(&owned);
                times.push(t);
            }
            (out, times, format!("{:?}", d.stats))
        }
        let timing_only = || {
            let mut d = SimDisk::new(DiskConfig::hp_1994());
            d.set_store(false);
            d
        };
        let mut fresh = SimDisk::new(DiskConfig::hp_1994());
        assert_eq!(drive(&mut timing_only(), false), drive(&mut fresh, false));
        // Nor a disk holding a page elsewhere from one that discarded
        // the same write.
        let mut elsewhere = SimDisk::new(DiskConfig::hp_1994());
        assert_eq!(drive(&mut timing_only(), true), drive(&mut elsewhere, true));
    }

    /// The store this file had before pages: one boxed sector per map
    /// entry, a read assembled sector by sector. Kept as the oracle.
    struct SectorDisk {
        cfg: DiskConfig,
        data: HashMap<u64, Box<[u8; SECTOR]>>,
        head: u64,
        store: bool,
        stats: DiskStats,
    }

    impl SectorDisk {
        fn position(&self, sector: u64) -> Ns {
            if sector == self.head {
                return 0;
            }
            let frac = sector.abs_diff(self.head) as f64 / self.cfg.sectors as f64;
            let stroke = (MAX_SEEK - MIN_SEEK) as f64;
            MIN_SEEK + (stroke * frac.sqrt()) as Ns + AVG_ROTATION
        }

        fn transfer_time(&self, bytes: usize) -> Ns {
            (bytes as u128 * SEC as u128 / TRANSFER_RATE as u128) as Ns
        }

        fn write(&mut self, sector: u64, data: &[u8]) -> Ns {
            let pos = self.position(sector);
            if self.store {
                for (i, chunk) in data.chunks(SECTOR).enumerate() {
                    let boxed = Box::new(chunk.try_into().expect("whole sectors"));
                    self.data.insert(sector + i as u64, boxed);
                }
            }
            let xfer = self.transfer_time(data.len());
            self.head = sector + (data.len() / SECTOR) as u64;
            self.stats.writes += 1;
            self.stats.bytes_written += data.len() as u64;
            self.stats.positioning += pos;
            self.stats.transferring += xfer;
            pos + xfer
        }

        fn read_into(&mut self, sector: u64, sectors: u64, out: &mut Vec<u8>) -> Ns {
            let pos = self.position(sector);
            for s in sector..sector + sectors {
                match self.data.get(&s) {
                    Some(b) => out.extend_from_slice(&b[..]),
                    None => out.extend_from_slice(&[0u8; SECTOR]),
                }
            }
            let n = sectors as usize * SECTOR;
            let xfer = self.transfer_time(n);
            self.head = sector + sectors;
            self.stats.reads += 1;
            self.stats.bytes_read += n as u64;
            self.stats.positioning += pos;
            self.stats.transferring += xfer;
            xfer + pos
        }
    }

    /// One step of a disk's life; sectors stay within a few pages so
    /// that runs straddle page boundaries and revisit written pages.
    #[derive(Debug, Clone)]
    enum Op {
        Write {
            sector: u64,
            sectors: u64,
            tag: u8,
        },
        Read {
            sector: u64,
            sectors: u64,
            cut: (usize, usize),
        },
        Replace,
        Store(bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        let span = || (0..3 * PAGE_BYTES as u64 / SECTOR as u64, 0..300u64);
        prop_oneof![
            4 => (span(), any::<u8>())
                .prop_map(|((sector, sectors), tag)| Op::Write { sector, sectors, tag }),
            6 => (span(), (0..=1000usize, 0..=1000usize))
                .prop_map(|((sector, sectors), cut)| Op::Read { sector, sectors, cut }),
            1 => Just(Op::Replace),
            1 => any::<bool>().prop_map(Op::Store),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn page_store_reads_what_the_sector_store_read(
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let cfg = DiskConfig::hp_1994();
            let mut disk = SimDisk::new(cfg);
            let mut oracle = SectorDisk {
                cfg,
                data: HashMap::new(),
                head: 0,
                store: true,
                stats: DiskStats::default(),
            };
            let mut out = vec![0xEE; 3]; // reads append after a prefix
            let mut want = out.clone();
            for op in ops {
                match op {
                    Op::Write { sector, sectors, tag } => {
                        let data: Vec<u8> = (0..sectors as usize * SECTOR)
                            .map(|i| (i as u8).wrapping_mul(29) ^ tag)
                            .collect();
                        prop_assert_eq!(disk.write(sector, &data).unwrap(), oracle.write(sector, &data));
                    }
                    Op::Read { sector, sectors, cut } => {
                        // `cut` picks the range in thousandths of the run.
                        let n = sectors as usize * SECTOR;
                        let (a, b) = (n * cut.0 / 1000, n * cut.1 / 1000);
                        let (skip, take) = (a.min(b), a.abs_diff(b));
                        let mut whole = Vec::new();
                        let t = oracle.read_into(sector, sectors, &mut whole);
                        want.extend_from_slice(&whole[skip..skip + take]);
                        let mut views = Vec::new();
                        let got = disk.read_views(sector, sectors, skip, take, &mut views);
                        prop_assert_eq!(got.unwrap(), t);
                        views.iter().for_each(|v| out.extend_from_slice(v));
                    }
                    Op::Replace => {
                        disk.replace();
                        (oracle.head, oracle.data) = (0, HashMap::new());
                    }
                    Op::Store(store) => {
                        disk.set_store(store);
                        oracle.store = store;
                        if !store {
                            oracle.data.clear();
                        }
                    }
                }
                prop_assert!(out == want);
                prop_assert_eq!(disk.head, oracle.head);
                prop_assert_eq!(format!("{:?}", disk.stats), format!("{:?}", oracle.stats));
            }
        }
    }

    #[test]
    fn sequential_access_skips_positioning() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let sector_data = vec![1u8; SECTOR];
        let t1 = d.write(1_000, &sector_data).unwrap();
        // Head is now at 1001; writing there is pure transfer.
        let t2 = d.write(1_001, &sector_data).unwrap();
        assert!(t2 < t1);
        assert_eq!(t2, d.transfer_time(SECTOR));
    }

    #[test]
    fn segment_io_keeps_seek_overhead_under_ten_percent() {
        // The paper's claim, measured: alternate 1 MiB reads and writes
        // at random-ish far-apart positions.
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let seg = vec![7u8; 1 << 20];
        let seg_sectors = (1u64 << 20) / SECTOR as u64;
        for i in 0..32u64 {
            let sector = (i * 37_993) % (d.config().sectors - seg_sectors);
            d.write(sector, &seg).unwrap();
        }
        let overhead = d.stats.seek_overhead();
        assert!(overhead < 0.10, "segment-sized I/O overhead {overhead:.3}");
        // And the effective rate stays ≥ 5 MB/s.
        assert!(
            d.stats.throughput() >= 5_000_000.0,
            "{:.0}",
            d.stats.throughput()
        );
    }

    #[test]
    fn small_random_io_drowns_in_seeks() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let block = vec![7u8; 4096];
        for i in 0..100u64 {
            let sector = (i * 999_983) % (d.config().sectors - 8);
            d.write(sector, &block).unwrap();
        }
        assert!(d.stats.seek_overhead() > 0.9, "{}", d.stats.seek_overhead());
        assert!(d.stats.throughput() < 1_000_000.0);
    }

    #[test]
    fn failed_disk_errors() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        d.write(0, &vec![1u8; SECTOR]).unwrap();
        d.fail();
        assert_eq!(
            d.write(0, &vec![1u8; SECTOR]).unwrap_err(),
            DiskError::Failed
        );
        assert_eq!(d.read(0, 1).unwrap_err(), DiskError::Failed);
        assert!(d.is_failed());
    }

    #[test]
    fn a_view_reads_what_it_was_taken_with() {
        let page_sectors = (PAGE_BYTES / SECTOR) as u64;
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        d.write(0, &[1u8; PAGE_BYTES]).unwrap();
        let mut views = Vec::new();
        d.read_views(0, page_sectors, 100, 2 * SECTOR, &mut views)
            .unwrap();
        let held = views[0].clone();
        let changes: [(_, fn(&mut SimDisk)); 5] = [
            ("a partial-page write", |d| {
                d.write(0, &[2u8; 4 * SECTOR]).unwrap();
            }),
            ("a whole-page write", |d| {
                d.write(0, &[3u8; PAGE_BYTES]).unwrap();
            }),
            ("a parity fold", |d| {
                d.fold_pages(0, [&[4u8; PAGE_BYTES][..]])
            }),
            ("forget", |d| d.forget(0, 0, PAGE_BYTES, |_, _| {})),
            ("replace", SimDisk::replace),
        ];
        let mut seen = Vec::new();
        for (what, change) in changes {
            change(&mut d);
            seen.push(d.read(0, 1).unwrap().0[100]);
            assert!(held.iter().all(|&b| b == 1), "after {what}");
        }
        // Each change did reach the disk: 2, 3, 3 ^ 4, then zeros.
        assert_eq!(seen, [2, 3, 7, 0, 0]);
    }

    #[test]
    fn unwritten_bytes_on_every_disk_view_one_zero_page() {
        let mut timing_only = SimDisk::new(DiskConfig::hp_1994());
        timing_only.set_store(false);
        let mut fresh = SimDisk::new(DiskConfig::hp_1994());
        let mut views = Vec::new();
        timing_only
            .read_views(0, 512, 0, 512 * SECTOR, &mut views)
            .unwrap();
        fresh
            .read_views(9_000, 3, SECTOR, SECTOR, &mut views)
            .unwrap();
        assert_eq!(views.len(), 4 + 1, "one view per page touched");
        assert!(views.iter().all(|v| v.same_buffer(&views[0])));
        assert!(views.iter().all(|v| v.iter().all(|&b| b == 0)));
    }

    #[test]
    fn replace_clears_contents() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        d.write(0, &vec![9u8; SECTOR]).unwrap();
        d.fail();
        d.replace();
        assert!(!d.is_failed());
        let (data, _) = d.read(0, 1).unwrap();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let last = d.config().sectors - 1;
        assert!(d.write(last, &vec![0u8; SECTOR]).is_ok());
        assert_eq!(
            d.write(last, &vec![0u8; 2 * SECTOR]).unwrap_err(),
            DiskError::OutOfRange
        );
        // Sums that wrap are out of range too, not a small in-range end.
        for (sector, sectors) in [(u64::MAX, 2), (2, u64::MAX), (0, u64::MAX / 256)] {
            assert_eq!(d.read(sector, sectors).unwrap_err(), DiskError::OutOfRange);
        }
        assert_eq!(
            d.write(u64::MAX, &vec![0u8; 2 * SECTOR]).unwrap_err(),
            DiskError::OutOfRange
        );
    }

    #[test]
    #[should_panic(expected = "whole sectors only")]
    fn partial_sector_write_rejected() {
        let mut d = SimDisk::new(DiskConfig::hp_1994());
        let _ = d.write(0, &[1u8; 100]);
    }

    #[test]
    fn rotation_latency_from_rpm() {
        // 5400 RPM → 11.1 ms/rev → 5.56 ms half-rev.
        assert_eq!(AVG_ROTATION, 5_555_555);
    }
}
