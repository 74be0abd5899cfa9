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
//! Data is stored sparsely, a page at a time and only where something
//! was written, so experiments can address multi-gigabyte devices
//! without the memory footprint. A read is *charged* for every sector
//! it spans and *copies* only the byte range its caller names; bytes
//! never written read as zeros.

use std::collections::HashMap;

use pegasus_sim::time::{Ns, SEC};

/// Sector size in bytes.
pub const SECTOR: usize = 512;

/// Unit of content retention: a written sector materialises the whole
/// page around it, zero-filled.
const PAGE_BYTES: usize = 128 * SECTOR;

/// Physical parameters of a disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Capacity in sectors.
    pub sectors: u64,
    /// Minimum (track-to-track) seek.
    pub min_seek: Ns,
    /// Maximum (full-stroke) seek.
    pub max_seek: Ns,
    /// Spindle speed in RPM (rotational latency = half a revolution).
    pub rpm: u32,
    /// Media transfer rate in bytes per second.
    pub transfer_rate: u64,
}

impl DiskConfig {
    /// A 1994 high-performance drive: 1 GiB, 2–18 ms seeks, 5400 RPM,
    /// 6 MB/s media rate.
    pub fn hp_1994() -> Self {
        DiskConfig {
            sectors: (1u64 << 30) / SECTOR as u64,
            min_seek: 2_000_000,
            max_seek: 18_000_000,
            rpm: 5_400,
            transfer_rate: 6_000_000,
        }
    }

    /// Half a revolution: the average rotational latency.
    pub fn avg_rotation(&self) -> Ns {
        (60 * SEC) / (2 * self.rpm as u64)
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
    data: HashMap<u64, Box<[u8]>>,
    head: u64,
    failed: bool,
    store: bool,
    /// Counters.
    pub stats: DiskStats,
}

impl SimDisk {
    /// Creates a disk with the given geometry.
    pub fn new(cfg: DiskConfig) -> Self {
        SimDisk {
            cfg,
            data: HashMap::new(),
            head: 0,
            failed: false,
            store: true,
            stats: DiskStats::default(),
        }
    }

    /// Disables content retention: timing is still modelled exactly, but
    /// written bytes are discarded and reads return zeros. Scaling
    /// experiments use this to address tens of gigabytes without the
    /// memory footprint.
    pub fn set_store(&mut self, store: bool) {
        self.store = store;
        if !store {
            self.data.clear();
        }
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
        let seek = self.cfg.min_seek
            + ((self.cfg.max_seek - self.cfg.min_seek) as f64 * frac.sqrt()) as Ns;
        seek + self.cfg.avg_rotation()
    }

    fn transfer_time(&self, bytes: usize) -> Ns {
        (bytes as u128 * SEC as u128 / self.cfg.transfer_rate as u128) as Ns
    }

    /// Writes `data` (whole sectors) starting at `sector`; returns the
    /// operation's duration.
    pub fn write(&mut self, sector: u64, data: &[u8]) -> Result<Ns, DiskError> {
        self.check(sector, (data.len() as u64).div_ceil(SECTOR as u64))?;
        assert_eq!(data.len() % SECTOR, 0, "whole sectors only");
        let pos = self.position(sector);
        if self.store {
            let mut rest = data;
            for (page, off, n) in page_runs(sector as usize * SECTOR, data.len()) {
                let zeroed = || vec![0u8; PAGE_BYTES].into();
                let slot = self.data.entry(page).or_insert_with(zeroed);
                slot[off..off + n].copy_from_slice(&rest[..n]);
                rest = &rest[n..];
            }
        }
        let xfer = self.transfer_time(data.len());
        self.head = sector + (data.len() / SECTOR) as u64;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.positioning += pos;
        self.stats.transferring += xfer;
        Ok(pos + xfer)
    }

    /// Reads `sectors` whole sectors starting at `sector`; returns the
    /// data and the operation's duration. Unwritten sectors read as
    /// zeros.
    pub fn read(&mut self, sector: u64, sectors: u64) -> Result<(Vec<u8>, Ns), DiskError> {
        let mut out = Vec::new();
        let t = self.read_into(sector, sectors, &mut out)?;
        Ok((out, t))
    }

    /// [`SimDisk::read`], appending into a caller-supplied buffer.
    pub fn read_into(
        &mut self,
        sector: u64,
        sectors: u64,
        out: &mut Vec<u8>,
    ) -> Result<Ns, DiskError> {
        let all = (sectors as usize).saturating_mul(SECTOR);
        self.read_range_into(sector, sectors, 0, all, out)
    }

    /// A read of `sectors` sectors from `sector` that hands over only
    /// bytes `[skip, skip + take)` of them, appended to `out`. The head
    /// moves, the clock runs and the counters count as for the whole
    /// run: the platter turns under the head whether or not the caller
    /// wants every byte.
    pub fn read_range_into(
        &mut self,
        sector: u64,
        sectors: u64,
        skip: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<Ns, DiskError> {
        self.check(sector, sectors)?;
        let n = sectors as usize * SECTOR;
        assert!(skip <= n && take <= n - skip, "range outside the read");
        let pos = self.position(sector);
        self.copy_range(sector, skip, take, out);
        let xfer = self.transfer_time(n);
        self.head = sector + sectors;
        self.stats.reads += 1;
        self.stats.bytes_read += n as u64;
        self.stats.positioning += pos;
        self.stats.transferring += xfer;
        Ok(xfer + pos)
    }

    /// Appends bytes `[skip, skip + take)` counted from the start of
    /// `sector` to `out`, free of charge: the array reconstructs a lost
    /// range from survivors it has already paid to read.
    pub(crate) fn copy_range(&self, sector: u64, skip: usize, take: usize, out: &mut Vec<u8>) {
        if self.data.is_empty() {
            // Nothing retained (a timing-only disk, or one never
            // written): every byte reads as zero.
            out.resize(out.len() + take, 0);
            return;
        }
        out.reserve(take);
        for (page, off, n) in page_runs(sector as usize * SECTOR + skip, take) {
            match self.data.get(&page) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
        }
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

/// Splits `len` bytes from byte address `start` at page boundaries:
/// `(page, offset in page, bytes)` per page touched.
fn page_runs(start: usize, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
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
            for (sector, n) in [(10, 4), (14, 1), (500_000, 64), (3, 0)] {
                times.push(d.read_into(sector, n, &mut out).unwrap());
            }
            let (owned, t) = d.read(77, 2).unwrap();
            out.extend_from_slice(&owned);
            times.push(t);
            (out, times, format!("{:?}", d.stats))
        }
        let timing_only = || {
            let mut d = SimDisk::new(DiskConfig::hp_1994());
            d.set_store(false);
            d
        };
        let mut fresh = SimDisk::new(DiskConfig::hp_1994());
        assert_eq!(drive(&mut timing_only(), false), drive(&mut fresh, false));
        // A disk holding a page elsewhere walks page by page where the
        // one that discarded the same write fills in one go.
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
            let stroke = (self.cfg.max_seek - self.cfg.min_seek) as f64;
            self.cfg.min_seek + (stroke * frac.sqrt()) as Ns + self.cfg.avg_rotation()
        }

        fn transfer_time(&self, bytes: usize) -> Ns {
            (bytes as u128 * SEC as u128 / self.cfg.transfer_rate as u128) as Ns
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
                        let got = disk.read_range_into(sector, sectors, skip, take, &mut out);
                        prop_assert_eq!(got.unwrap(), t);
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
        let cfg = DiskConfig::hp_1994();
        // 5400 RPM → 11.1 ms/rev → 5.56 ms half-rev.
        assert_eq!(cfg.avg_rotation(), 5_555_555);
    }
}
