//! The log-structured core layer.
//!
//! "The bottom layer of the Pegasus storage service is called the core
//! layer. It manages storage structures on secondary and tertiary
//! storage devices and carries out the actual I/O. Pegasus uses a
//! log-structured storage layout as was exemplified by Sprite LFS. The
//! log is segmented in megabyte segments. ... Normal file data ends up
//! in the log similarly to Sprite LFS. Continuous data, however, is
//! collected in separate segments, although their metadata (the inodes
//! or pnodes as we call them) are appended to the normal log." (§5)
//!
//! Every overwrite or delete appends a hole descriptor to the *garbage
//! file*; the cleaner in [`crate::cleaner`] consumes it.

use std::collections::HashMap;

use crate::disk::DiskConfig;
use crate::raid::{RaidArray, RaidError};
use pegasus_sim::time::Ns;

/// Segment (and stripe) size: one megabyte.
pub const SEGMENT_BYTES: usize = 1 << 20;

/// A file identifier — the pnode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// The two data classes the core separates into different segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Ordinary file data, written to the normal log.
    Normal,
    /// Continuous-media data, collected in separate segments.
    Continuous,
}

/// One contiguous run of a file's bytes within a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset within the file.
    pub file_offset: u64,
    /// Segment holding the bytes.
    pub segment: u64,
    /// Offset within the segment.
    pub seg_offset: u32,
    /// Length in bytes.
    pub len: u32,
}

/// The pnode: Pegasus's inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pnode {
    /// The file's identity.
    pub id: FileId,
    /// Data class.
    pub class: FileClass,
    /// Current size in bytes.
    pub size: u64,
    /// Data extents in file order.
    pub extents: Vec<Extent>,
}

/// A hole left in the log by an overwrite or delete — one entry of the
/// garbage file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GarbageEntry {
    /// Segment containing the obsolete bytes.
    pub segment: u64,
    /// Offset of the hole within the segment.
    pub seg_offset: u32,
    /// Length of the hole.
    pub len: u32,
}

/// Bookkeeping per on-disk segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Bytes still referenced by some pnode.
    pub live_bytes: u32,
    /// Class of data collected in this segment.
    pub class: FileClass,
}

/// Errors from the core layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Unknown file.
    NoSuchFile,
    /// Read beyond end of file.
    BadRange,
    /// The log ran out of free segments.
    Full,
    /// An underlying array error.
    Raid(RaidError),
    /// The file's extents do not tile the bytes asked for — a pnode
    /// restored from a checkpoint nobody validated.
    BadExtents,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NoSuchFile => write!(f, "no such file"),
            FsError::BadRange => write!(f, "range outside file"),
            FsError::Full => write!(f, "log full"),
            FsError::Raid(e) => write!(f, "array error: {e}"),
            FsError::BadExtents => write!(f, "extent map does not tile the file"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<RaidError> for FsError {
    fn from(e: RaidError) -> Self {
        FsError::Raid(e)
    }
}

struct OpenSegment {
    id: u64,
    buf: Vec<u8>,
}

/// Core-layer counters.
#[derive(Debug, Default, Clone)]
pub struct FsStats {
    /// Bytes appended by clients (excludes cleaning copies).
    pub bytes_written: u64,
    /// Bytes read by clients.
    pub bytes_read: u64,
    /// Segments flushed to the array.
    pub segments_flushed: u64,
    /// Bytes of live data copied by the cleaner.
    pub cleaner_moved: u64,
}

/// The log-structured file system core.
pub struct LogFs {
    raid: RaidArray,
    total_segments: u64,
    next_new_segment: u64,
    free: Vec<u64>,
    open_normal: OpenSegment,
    open_cm: OpenSegment,
    pnodes: HashMap<FileId, Pnode>,
    next_pnode: u64,
    segments: HashMap<u64, SegmentInfo>,
    /// Garbage declared against segments that have not flushed yet.
    open_deficit: HashMap<u64, u32>,
    /// The garbage file: appended on every overwrite/delete.
    pub garbage: Vec<GarbageEntry>,
    /// Virtual time spent on array I/O.
    pub io_time: Ns,
    /// Counters.
    pub stats: FsStats,
}

impl LogFs {
    /// Creates a file system over a fresh 4+1 array of `cfg` disks.
    pub fn new(cfg: DiskConfig) -> Self {
        let raid = RaidArray::new(cfg, SEGMENT_BYTES);
        let total_segments = raid.stripes();
        LogFs {
            raid,
            total_segments,
            next_new_segment: 2, // 0 and 1 for the two initial open segments
            free: Vec::new(),
            open_normal: OpenSegment {
                id: 0,
                buf: Vec::new(),
            },
            open_cm: OpenSegment {
                id: 1,
                buf: Vec::new(),
            },
            pnodes: HashMap::new(),
            next_pnode: 1,
            segments: HashMap::new(),
            open_deficit: HashMap::new(),
            garbage: Vec::new(),
            io_time: 0,
            stats: FsStats::default(),
        }
    }

    /// Total segments on the array.
    pub fn total_segments(&self) -> u64 {
        self.total_segments
    }

    /// Segments currently holding flushed data.
    pub fn used_segments(&self) -> usize {
        self.segments.len()
    }

    /// The segment bookkeeping table (for cleaners).
    pub fn segment_info(&self) -> &HashMap<u64, SegmentInfo> {
        &self.segments
    }

    /// Access to the array (fault injection in tests).
    pub fn raid_mut(&mut self) -> &mut RaidArray {
        &mut self.raid
    }

    /// Charges a metadata I/O against the log's clock: one positioning
    /// operation (if `random`) plus a sequential transfer of `bytes` on
    /// a single member disk. Used by cleaners for garbage-file reads and
    /// segment-summary scans.
    pub fn charge_metadata_io(&mut self, bytes: u64, random: bool) -> Ns {
        let cfg = self.raid.config();
        let pos = if random {
            (cfg.min_seek + cfg.max_seek) / 2 + cfg.avg_rotation()
        } else {
            0
        };
        let xfer = (bytes as u128 * 1_000_000_000u128 / cfg.transfer_rate as u128) as Ns;
        self.io_time += pos + xfer;
        pos + xfer
    }

    /// The pnode for `file`.
    pub fn pnode(&self, file: FileId) -> Option<&Pnode> {
        self.pnodes.get(&file)
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.pnodes.len()
    }

    /// Iterates over all live pnodes (checkpoint capture).
    pub fn pnodes_iter(&self) -> impl Iterator<Item = &Pnode> {
        self.pnodes.values()
    }

    /// The pnode-number allocator's next value (checkpoint capture).
    pub fn next_pnode_value(&self) -> u64 {
        self.next_pnode
    }

    /// Simulates a server crash that loses the in-memory metadata,
    /// keeping only the pnode of `keep` — the checkpoint file, whose
    /// location the on-disk superblock records in a real system.
    pub fn amnesia(&mut self, keep: FileId) {
        let kept = self.pnodes.remove(&keep);
        self.pnodes.clear();
        if let Some(k) = kept {
            self.pnodes.insert(keep, k);
        }
        self.segments.clear();
        self.open_deficit.clear();
        self.garbage.clear();
    }

    /// Replaces the metadata tables from a decoded checkpoint
    /// (recovery).
    pub fn restore_from_checkpoint(&mut self, cp: &crate::checkpoint::Checkpoint) {
        for p in &cp.pnodes {
            self.pnodes.insert(p.id, p.clone());
        }
        for &(seg, info) in &cp.segments {
            self.segments.insert(seg, info);
        }
        self.next_pnode = self.next_pnode.max(cp.next_pnode);
    }

    /// Creates an empty file of the given class.
    pub fn create(&mut self, class: FileClass) -> FileId {
        let id = FileId(self.next_pnode);
        self.next_pnode += 1;
        self.pnodes.insert(
            id,
            Pnode {
                id,
                class,
                size: 0,
                extents: Vec::new(),
            },
        );
        id
    }

    fn alloc_segment(&mut self) -> Result<u64, FsError> {
        if let Some(s) = self.free.pop() {
            return Ok(s);
        }
        if self.next_new_segment < self.total_segments {
            let s = self.next_new_segment;
            self.next_new_segment += 1;
            Ok(s)
        } else {
            Err(FsError::Full)
        }
    }

    fn flush_open(&mut self, class: FileClass) -> Result<(), FsError> {
        let open = match class {
            FileClass::Normal => &mut self.open_normal,
            FileClass::Continuous => &mut self.open_cm,
        };
        let seg = open.id;
        let live = open.buf.len() as u32;
        open.buf.resize(SEGMENT_BYTES, 0);
        let written = self.raid.write_stripe(seg, &open.buf);
        // Emptied either way, and the megabyte goes back to the
        // allocator: held here it stays resident in every idle server.
        open.buf = Vec::new();
        self.io_time += written?;
        self.stats.segments_flushed += 1;
        // Garbage declared while the segment was still open reduces its
        // live count on arrival.
        let deficit = self.open_deficit.remove(&seg).unwrap_or(0);
        self.segments.insert(
            seg,
            SegmentInfo {
                live_bytes: live.saturating_sub(deficit),
                class,
            },
        );
        let next = self.alloc_segment()?;
        match class {
            FileClass::Normal => self.open_normal.id = next,
            FileClass::Continuous => self.open_cm.id = next,
        }
        Ok(())
    }

    /// Appends `data` to `file`, returning nothing; data reaches the
    /// array when its segment fills (or on [`LogFs::sync`]).
    pub fn append(&mut self, file: FileId, data: &[u8]) -> Result<(), FsError> {
        let class = self.pnodes.get(&file).ok_or(FsError::NoSuchFile)?.class;
        let mut written = 0usize;
        while written < data.len() {
            let (seg_id, buf_len) = {
                let open = match class {
                    FileClass::Normal => &self.open_normal,
                    FileClass::Continuous => &self.open_cm,
                };
                (open.id, open.buf.len())
            };
            let space = SEGMENT_BYTES - buf_len;
            let take = space.min(data.len() - written);
            {
                let open = match class {
                    FileClass::Normal => &mut self.open_normal,
                    FileClass::Continuous => &mut self.open_cm,
                };
                if open.buf.capacity() == 0 {
                    // A segment's buffer is allocated once, whole, when
                    // its first byte arrives — not regrown by doubling.
                    open.buf.reserve_exact(SEGMENT_BYTES);
                }
                open.buf.extend_from_slice(&data[written..written + take]);
            }
            let pnode = self.pnodes.get_mut(&file).expect("checked above");
            // Merge with the previous extent when contiguous.
            let merged = pnode.extents.last_mut().is_some_and(|e| {
                if e.segment == seg_id
                    && e.seg_offset as usize + e.len as usize == buf_len
                    && e.file_offset + e.len as u64 == pnode.size
                {
                    e.len += take as u32;
                    true
                } else {
                    false
                }
            });
            if !merged {
                pnode.extents.push(Extent {
                    file_offset: pnode.size,
                    segment: seg_id,
                    seg_offset: buf_len as u32,
                    len: take as u32,
                });
            }
            pnode.size += take as u64;
            written += take;
            self.stats.bytes_written += take as u64;
            let full = match class {
                FileClass::Normal => self.open_normal.buf.len() == SEGMENT_BYTES,
                FileClass::Continuous => self.open_cm.buf.len() == SEGMENT_BYTES,
            };
            if full {
                self.flush_open(class)?;
            }
        }
        Ok(())
    }

    /// Forces both open segments to the array.
    pub fn sync(&mut self) -> Result<(), FsError> {
        if !self.open_normal.buf.is_empty() {
            self.flush_open(FileClass::Normal)?;
        }
        if !self.open_cm.buf.is_empty() {
            self.flush_open(FileClass::Continuous)?;
        }
        Ok(())
    }

    /// Reads `len` bytes of `file` starting at `offset`.
    pub fn read(&mut self, file: FileId, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let mut out = Vec::new();
        self.read_into(file, offset, len, &mut out)?;
        Ok(out)
    }

    /// [`LogFs::read`] into a caller-supplied buffer (cleared, then
    /// filled with exactly `len` bytes) — rate-guaranteed CM service
    /// reuses one buffer per scheduler so periodic reads allocate
    /// nothing at steady state. A read is a lookup in the extent map
    /// followed by one copy of each mapped range straight into `out`:
    /// the array is charged for every stripe touched, whole, and hands
    /// over only the bytes wanted.
    pub fn read_into(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), FsError> {
        let pnode = self.pnodes.get(&file).ok_or(FsError::NoSuchFile)?;
        offset
            .checked_add(len as u64)
            .filter(|&end| end <= pnode.size)
            .ok_or(FsError::BadRange)?;
        out.clear();
        out.reserve(len);
        // The extent holding `offset` is the last one starting at or
        // before it; each extent from there on must continue exactly
        // where `out` stops, which is checked, not assumed.
        let first = pnode
            .extents
            .partition_point(|e| e.file_offset <= offset)
            .saturating_sub(1);
        for ext in &pnode.extents[first..] {
            if out.len() == len {
                break;
            }
            let from = offset.max(ext.file_offset);
            let skip = (from - ext.file_offset) as usize;
            if from - offset != out.len() as u64 || skip >= ext.len as usize {
                return Err(FsError::BadExtents);
            }
            let n = (ext.len as usize - skip).min(len - out.len());
            let seg_off = ext.seg_offset as usize + skip;
            // In an open buffer, or on the array?
            let open = [&self.open_normal, &self.open_cm]
                .into_iter()
                .find(|o| o.id == ext.segment);
            if let Some(open) = open {
                let bytes = open.buf.get(seg_off..seg_off + n);
                out.extend_from_slice(bytes.ok_or(FsError::BadExtents)?);
            } else {
                self.io_time += self
                    .raid
                    .read_stripe_range_into(ext.segment, seg_off, n, out)?;
            }
        }
        if out.len() != len {
            return Err(FsError::BadExtents);
        }
        self.stats.bytes_read += len as u64;
        Ok(())
    }

    /// Reads `len` bytes of `file` into a buffer leased from `arena` —
    /// the server hands the caller a refcounted lease instead of a fresh
    /// allocation, so playback fan-out shares one copy of the data and
    /// the storage recycles buffers as consumers release them.
    pub fn read_leased(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        arena: &pegasus_sim::arena::Arena,
    ) -> Result<pegasus_sim::arena::FrameBuf, FsError> {
        let mut lease = arena.lease();
        self.read_into(file, offset, len, &mut lease)?;
        Ok(lease.freeze())
    }

    fn garbage_extents(&mut self, extents: &[Extent]) {
        for ext in extents {
            self.garbage.push(GarbageEntry {
                segment: ext.segment,
                seg_offset: ext.seg_offset,
                len: ext.len,
            });
            if let Some(info) = self.segments.get_mut(&ext.segment) {
                info.live_bytes = info.live_bytes.saturating_sub(ext.len);
            } else {
                // Hole in a still-open segment: remember the deficit and
                // apply it when the segment flushes.
                *self.open_deficit.entry(ext.segment).or_insert(0) += ext.len;
            }
        }
    }

    /// Truncates `file` to zero length, declaring every extent garbage.
    pub fn truncate(&mut self, file: FileId) -> Result<(), FsError> {
        let extents = {
            let p = self.pnodes.get_mut(&file).ok_or(FsError::NoSuchFile)?;
            p.size = 0;
            std::mem::take(&mut p.extents)
        };
        self.garbage_extents(&extents);
        Ok(())
    }

    /// Replaces `file`'s contents with `data` (the overwrite case of the
    /// paper: old extents become garbage).
    pub fn overwrite(&mut self, file: FileId, data: &[u8]) -> Result<(), FsError> {
        self.truncate(file)?;
        self.append(file, data)
    }

    /// Deletes `file`; all its extents become garbage.
    pub fn delete(&mut self, file: FileId) -> Result<(), FsError> {
        self.truncate(file)?;
        self.pnodes.remove(&file);
        Ok(())
    }

    /// Live-byte fraction of flushed segments.
    pub fn utilization(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        let live: u64 = self.segments.values().map(|s| s.live_bytes as u64).sum();
        live as f64 / (self.segments.len() as u64 * SEGMENT_BYTES as u64) as f64
    }

    /// Frees a cleaned segment (cleaner use).
    pub(crate) fn release_segment(&mut self, seg: u64) {
        self.segments.remove(&seg);
        self.free.push(seg);
    }

    /// Files owning extents in `seg` (cleaner use — in the real system
    /// this comes from the segment summary block).
    pub(crate) fn files_in_segment(&self, seg: u64) -> Vec<FileId> {
        let mut out: Vec<FileId> = self
            .pnodes
            .values()
            .filter(|p| p.extents.iter().any(|e| e.segment == seg))
            .map(|p| p.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Moves every live extent of `file` out of `seg` by re-appending
    /// its data (cleaner use). Returns bytes moved.
    pub(crate) fn relocate_file_from_segment(
        &mut self,
        file: FileId,
        seg: u64,
    ) -> Result<u64, FsError> {
        let pnode = self.pnodes.get(&file).ok_or(FsError::NoSuchFile)?;
        let size = pnode.size as usize;
        let mut moved = 0u64;
        // Read the whole file, rewrite it. (A finer implementation would
        // move only the affected extents; whole-file rewrite keeps the
        // extent algebra simple and the I/O accounting honest within a
        // factor reflecting file size.)
        if pnode.extents.iter().any(|e| e.segment == seg) {
            let data = self.read(file, 0, size)?;
            // Old extents become garbage…
            let old = {
                let p = self.pnodes.get_mut(&file).expect("exists");
                p.size = 0;
                std::mem::take(&mut p.extents)
            };
            // …but without re-entering them in the garbage file: the
            // cleaner is consuming garbage, not creating more for the
            // segment being freed. Holes in *other* segments do need
            // recording.
            for ext in &old {
                if ext.segment != seg {
                    self.garbage.push(GarbageEntry {
                        segment: ext.segment,
                        seg_offset: ext.seg_offset,
                        len: ext.len,
                    });
                }
                if let Some(info) = self.segments.get_mut(&ext.segment) {
                    info.live_bytes = info.live_bytes.saturating_sub(ext.len);
                } else {
                    *self.open_deficit.entry(ext.segment).or_insert(0) += ext.len;
                }
            }
            moved = data.len() as u64;
            self.stats.cleaner_moved += moved;
            self.append(file, &data)?;
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> LogFs {
        LogFs::new(DiskConfig::hp_1994())
    }

    fn bytes(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_add(tag)).collect()
    }

    #[test]
    fn append_and_read_small() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        f.append(id, b"hello pegasus").unwrap();
        let back = f.read(id, 0, 13).unwrap();
        assert_eq!(back, b"hello pegasus");
        assert_eq!(f.pnode(id).unwrap().size, 13);
    }

    #[test]
    fn read_spanning_segments() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        let data = bytes(3 * SEGMENT_BYTES / 2, 7); // 1.5 segments
        f.append(id, &data).unwrap();
        let back = f.read(id, 0, data.len()).unwrap();
        assert_eq!(back, data);
        // Cross-boundary slice.
        let back = f.read(id, SEGMENT_BYTES as u64 - 10, 20).unwrap();
        assert_eq!(back, data[SEGMENT_BYTES - 10..SEGMENT_BYTES + 10]);
    }

    #[test]
    fn read_after_sync_hits_the_array() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        let data = bytes(1000, 3);
        f.append(id, &data).unwrap();
        f.sync().unwrap();
        assert!(f.stats.segments_flushed >= 1);
        let back = f.read(id, 0, 1000).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn cm_and_normal_data_in_separate_segments() {
        let mut f = fs();
        let n = f.create(FileClass::Normal);
        let c = f.create(FileClass::Continuous);
        f.append(n, &bytes(100, 1)).unwrap();
        f.append(c, &bytes(100, 2)).unwrap();
        let n_seg = f.pnode(n).unwrap().extents[0].segment;
        let c_seg = f.pnode(c).unwrap().extents[0].segment;
        assert_ne!(n_seg, c_seg, "continuous data collected separately");
    }

    #[test]
    fn overwrite_creates_garbage() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        f.append(id, &bytes(5000, 1)).unwrap();
        f.sync().unwrap();
        assert!(f.garbage.is_empty());
        f.overwrite(id, &bytes(3000, 2)).unwrap();
        assert!(!f.garbage.is_empty());
        let hole: u32 = f.garbage.iter().map(|g| g.len).sum();
        assert_eq!(hole, 5000);
        let back = f.read(id, 0, 3000).unwrap();
        assert_eq!(back, bytes(3000, 2));
    }

    #[test]
    fn delete_garbages_everything_and_removes_pnode() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        f.append(id, &bytes(4096, 1)).unwrap();
        f.sync().unwrap();
        f.delete(id).unwrap();
        assert_eq!(f.read(id, 0, 1).unwrap_err(), FsError::NoSuchFile);
        assert_eq!(f.garbage.iter().map(|g| g.len).sum::<u32>(), 4096);
        assert_eq!(f.file_count(), 0);
    }

    #[test]
    fn live_bytes_tracked() {
        let mut f = fs();
        let a = f.create(FileClass::Normal);
        let b = f.create(FileClass::Normal);
        f.append(a, &bytes(1000, 1)).unwrap();
        f.append(b, &bytes(2000, 2)).unwrap();
        f.sync().unwrap();
        let seg = f.pnode(a).unwrap().extents[0].segment;
        assert_eq!(f.segment_info()[&seg].live_bytes, 3000);
        f.delete(a).unwrap();
        assert_eq!(f.segment_info()[&seg].live_bytes, 2000);
    }

    #[test]
    fn bad_range_rejected() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        f.append(id, &bytes(10, 0)).unwrap();
        assert_eq!(f.read(id, 5, 10).unwrap_err(), FsError::BadRange);
        // An end that wraps past zero is outside the file, not inside it.
        let before = f.stats.bytes_read;
        assert_eq!(f.read(id, u64::MAX - 3, 8).unwrap_err(), FsError::BadRange);
        assert_eq!(f.read(id, u64::MAX, 1).unwrap_err(), FsError::BadRange);
        assert_eq!(f.stats.bytes_read, before, "a refused read charges nothing");
    }

    #[test]
    fn extents_nobody_validated_read_as_typed_errors() {
        use crate::checkpoint::Checkpoint;
        use crate::disk::DiskError::OutOfRange;
        let seg = SEGMENT_BYTES as u32;
        let ext = |file_offset, segment, seg_offset, len| Extent {
            file_offset,
            segment,
            seg_offset,
            len,
        };
        // `restore_from_checkpoint` takes any `Checkpoint`, not only one
        // `decode` passed: (what is wrong, size, extents, offset, len).
        let off_the_array = FsError::Raid(RaidError::Disk(OutOfRange));
        let gap = vec![ext(0, 5, 0, 10), ext(12, 5, 10, 8)];
        let overlap = vec![ext(0, 5, 0, 10), ext(8, 5, 10, 12)];
        let swapped = vec![ext(10, 5, 0, 10), ext(0, 5, 10, 10)];
        let past_segment = vec![ext(0, 5, seg - 4, 10)];
        let no_segment = vec![ext(0, u64::MAX / 3, 0, 10)];
        let cases = [
            ("a gap", 20, gap, 0, 20),
            ("an overlap", 20, overlap, 0, 20),
            ("out of order", 20, swapped, 0, 20),
            ("short of the size", 20, vec![ext(0, 5, 0, 10)], 5, 15),
            ("no extents", 20, vec![], 0, 1),
            ("past an open buffer's end", 8, vec![ext(0, 1, 0, 8)], 0, 8),
            ("past its segment's end", 10, past_segment, 0, 10),
            ("no such segment", 10, no_segment, 0, 10),
        ];
        for (what, size, extents, offset, len) in cases {
            let mut f = fs();
            f.restore_from_checkpoint(&Checkpoint {
                pnodes: vec![Pnode {
                    id: FileId(3),
                    class: FileClass::Normal,
                    size,
                    extents,
                }],
                segments: vec![],
                next_pnode: 4,
            });
            let want = if what.contains("segment") {
                off_the_array.clone()
            } else {
                FsError::BadExtents
            };
            assert_eq!(f.read(FileId(3), offset, len), Err(want), "{what}");
            assert_eq!(f.stats.bytes_read, 0, "a failed read delivers nothing");
        }
        // An extent whose end would wrap past zero: the sum is never
        // formed, so the bytes short of the wrap read like any others.
        let mut f = fs();
        f.restore_from_checkpoint(&Checkpoint {
            pnodes: vec![Pnode {
                id: FileId(3),
                class: FileClass::Normal,
                size: u64::MAX,
                extents: vec![ext(u64::MAX - 3, 5, 0, 8)],
            }],
            segments: vec![],
            next_pnode: 4,
        });
        assert_eq!(f.read(FileId(3), u64::MAX - 3, 3), Ok(vec![0; 3]));
    }

    #[test]
    fn sequential_write_throughput_near_array_rate() {
        let mut f = fs();
        let id = f.create(FileClass::Continuous);
        let chunk = bytes(SEGMENT_BYTES, 5);
        for _ in 0..32 {
            f.append(id, &chunk).unwrap();
        }
        f.sync().unwrap();
        let rate = f.stats.bytes_written as f64 / (f.io_time as f64 / 1e9);
        assert!(rate > 18_000_000.0, "log write rate {:.1} MB/s", rate / 1e6);
    }

    #[test]
    fn extents_merge_when_contiguous() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        for i in 0..10 {
            f.append(id, &bytes(100, i)).unwrap();
        }
        assert_eq!(
            f.pnode(id).unwrap().extents.len(),
            1,
            "contiguous appends merge"
        );
    }

    #[test]
    fn many_files_interleaved() {
        let mut f = fs();
        let ids: Vec<FileId> = (0..20).map(|_| f.create(FileClass::Normal)).collect();
        for round in 0..5u8 {
            for (k, id) in ids.iter().enumerate() {
                f.append(*id, &bytes(997, round.wrapping_mul(k as u8)))
                    .unwrap();
            }
        }
        f.sync().unwrap();
        for (k, id) in ids.iter().enumerate() {
            let data = f.read(*id, 0, 997 * 5).unwrap();
            for round in 0..5u8 {
                let want = bytes(997, round.wrapping_mul(k as u8));
                assert_eq!(
                    &data[round as usize * 997..(round as usize + 1) * 997],
                    &want[..]
                );
            }
        }
    }

    #[test]
    fn utilization_reflects_deletion() {
        let mut f = fs();
        let a = f.create(FileClass::Normal);
        f.append(a, &bytes(SEGMENT_BYTES, 1)).unwrap();
        f.sync().unwrap();
        assert!(f.utilization() > 0.99);
        f.delete(a).unwrap();
        assert!(f.utilization() < 0.01);
    }
}
