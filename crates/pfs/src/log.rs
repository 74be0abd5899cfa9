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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::checkpoint::{region_image, Checkpoint, CheckpointError};
use crate::disk::{
    page_runs, Discard, DiskConfig, AVG_ROTATION, MAX_SEEK, MIN_SEEK, PAGE_BYTES, TRANSFER_RATE,
};
use crate::raid::{RaidArray, RaidError};
use pegasus_sim::arena::{Arena, FrameBuf, FrameBufMut, FrameView};
use pegasus_sim::time::Ns;

/// Segment (and stripe) size: one megabyte.
pub const SEGMENT_BYTES: usize = 1 << 20;
/// The checkpoint regions: the array's last stripes, written in turn,
/// which no segment takes.
const REGIONS: u64 = 2;

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

/// The segment the log is filling, built where it will live: each
/// byte appended is copied once, into 64 KiB page leases from the
/// array's arena, and at flush the five disks adopt those pages (and
/// parity made from them) uncopied. The pages come one at a time as
/// bytes arrive, so a segment half full holds half a megabyte. A
/// segment takes the array's mode when its first byte arrives: begun on
/// a timing-only array it keeps no bytes, only their count, and they
/// read as zeros, open or flushed, like every other byte on that array.
#[derive(Default)]
struct OpenSegment {
    id: u64,
    /// Bytes appended.
    len: usize,
    /// The bytes, a page each, the last perhaps part filled; `None` if
    /// the segment keeps none.
    pages: Option<Vec<FrameBufMut>>,
}

impl OpenSegment {
    /// Appends as much of `data` as the segment has room for, into pages
    /// leased from `raid`'s arena if it keeps bytes; returns how much.
    fn push(&mut self, data: &[u8], raid: &RaidArray) -> usize {
        if self.len == 0 {
            self.pages = raid.stores().then(Vec::new);
        }
        let take = (SEGMENT_BYTES - self.len).min(data.len());
        if let Some(pages) = &mut self.pages {
            let mut rest = &data[..take];
            for (page, _, n) in page_runs(self.len, take) {
                if page as usize == pages.len() {
                    let mut fresh = raid.arena().lease();
                    fresh.reserve_exact(PAGE_BYTES);
                    pages.push(fresh);
                }
                let (run, tail) = rest.split_at(n);
                pages[page as usize].extend_from_slice(run);
                rest = tail;
            }
        }
        self.len += take;
        take
    }

    /// Bytes `[off, off + n)`, which the caller has checked lie in the
    /// segment, as one copy leased from `arena`, since later appends
    /// change the pages; zeros if the segment keeps none.
    fn read(&self, off: usize, n: usize, arena: &Arena) -> FrameView {
        let mut copy = arena.lease();
        match &self.pages {
            Some(pages) => page_runs(off, n).for_each(|(page, at, m)| {
                copy.extend_from_slice(&pages[page as usize][at..at + m]);
            }),
            None => copy.resize(n, 0),
        }
        copy.freeze().view_all()
    }

    /// Empties the segment, returning the pages it wrote, frozen, the
    /// last zero-padded to a whole page — none if it kept no bytes. The
    /// rest of the segment reads as zeros on the array.
    fn seal(&mut self) -> Vec<FrameBuf> {
        self.len = 0;
        let Some(mut pages) = self.pages.take() else {
            return Vec::new();
        };
        if let Some(last) = pages.last_mut() {
            last.resize(PAGE_BYTES, 0);
        }
        pages.into_iter().map(FrameBufMut::freeze).collect()
    }
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
    next_new_segment: u64,
    free: Vec<u64>,
    /// Segments cleaned and not yet freed, each with the sequence number
    /// of the checkpoint that frees it: the second after its release, as
    /// until then the older region may still name it. Each keeps its
    /// stripe, and none is reused, until then.
    pending: Vec<(u64, u64)>,
    /// The sequence number of the last checkpoint written or recovered;
    /// 0 before any.
    checkpoint_seq: u64,
    open_normal: OpenSegment,
    open_cm: OpenSegment,
    pnodes: HashMap<FileId, Pnode>,
    next_pnode: u64,
    /// Flushed segments not yet released: the ones a cleaner may take.
    /// Which of their bytes are live, the pnode map says.
    sealed: BTreeSet<u64>,
    /// The garbage file: appended on every overwrite/delete.
    pub garbage: Vec<GarbageEntry>,
    /// Virtual time spent on array I/O.
    pub io_time: Ns,
    /// Counters.
    pub stats: FsStats,
    /// Where the reads that bring no arena of their own (`read_into`,
    /// the cleaner) lease the copies of bytes still in an open segment.
    arena: Arena,
    /// The view list `read_into` and `read_leased` reuse, so a warm read
    /// allocates nothing.
    views: Vec<FrameView>,
}

impl LogFs {
    /// Creates a file system over a fresh 4+1 array of `cfg` disks.
    pub fn new(cfg: DiskConfig) -> Self {
        LogFs {
            raid: RaidArray::new(cfg, SEGMENT_BYTES),
            next_new_segment: 2, // 0 and 1 for the two initial open segments
            free: Vec::new(),
            pending: Vec::new(),
            checkpoint_seq: 0,
            open_normal: OpenSegment::default(),
            open_cm: OpenSegment {
                id: 1,
                ..OpenSegment::default()
            },
            pnodes: HashMap::new(),
            next_pnode: 1,
            sealed: BTreeSet::new(),
            garbage: Vec::new(),
            io_time: 0,
            stats: FsStats::default(),
            arena: Arena::new(),
            views: Vec::new(),
        }
    }

    /// Segments currently holding flushed data.
    pub fn used_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Live bytes in each flushed segment, summed from the pnode map
    /// (cleaner use: once as a pass begins).
    pub(crate) fn live_bytes(&self) -> BTreeMap<u64, u64> {
        let mut live: BTreeMap<u64, u64> = self.sealed.iter().map(|&seg| (seg, 0)).collect();
        for ext in self.pnodes.values().flat_map(|p| &p.extents) {
            if let Some(n) = live.get_mut(&ext.segment) {
                *n += ext.len as u64;
            }
        }
        live
    }

    /// Access to the array (fault injection in tests).
    pub fn raid_mut(&mut self) -> &mut RaidArray {
        &mut self.raid
    }

    /// Charges a metadata I/O against the log's clock: one positioning
    /// operation (if `random`) plus a sequential transfer of `bytes` on
    /// a single member disk. Used by cleaners for garbage-file reads and
    /// segment-summary scans.
    pub(crate) fn charge_metadata_io(&mut self, bytes: u64, random: bool) -> Ns {
        let pos = if random {
            (MIN_SEEK + MAX_SEEK) / 2 + AVG_ROTATION
        } else {
            0
        };
        let xfer = (bytes as u128 * 1_000_000_000u128 / TRANSFER_RATE as u128) as Ns;
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
    pub(crate) fn next_pnode_value(&self) -> u64 {
        self.next_pnode
    }

    /// The sequence number of the last checkpoint written or recovered,
    /// the one a crash recovers from.
    pub fn last_checkpoint(&self) -> Option<u64> {
        (self.checkpoint_seq > 0).then_some(self.checkpoint_seq)
    }

    /// Simulates a server crash that loses the in-memory metadata (the
    /// pnode map, the garbage file and the last checkpoint's number) and
    /// the open segments' bytes. [`crate::checkpoint::recover`] reads the
    /// map back from the newest valid region and derives from it which
    /// segments are flushed and which are free. `_checkpoint` is not
    /// read: the `pfs-vcr` benchmark's call shape holds it until ROADMAP
    /// item 1.
    pub fn amnesia(&mut self, _checkpoint: u64) {
        self.pnodes.clear();
        self.garbage.clear();
        self.checkpoint_seq = 0;
        // Bytes not yet flushed are lost; the segments stay open, empty.
        self.open_normal.seal();
        self.open_cm.seal();
    }

    /// Adopts checkpoint `seq`, decoded (recovery): adds its pnodes to
    /// the map, then derives the segments from the map: each one below
    /// the allocator's high-water mark that is not open is flushed if
    /// some pnode names it, and free otherwise, its stripe discarded,
    /// since nothing recovered reads it.
    pub fn restore_from_checkpoint(&mut self, seq: u64, cp: &Checkpoint) {
        self.checkpoint_seq = seq;
        for p in &cp.pnodes {
            self.pnodes.insert(p.id, p.clone());
        }
        self.next_pnode = self.next_pnode.max(cp.next_pnode);
        let named: BTreeSet<u64> = self
            .pnodes
            .values()
            .flat_map(|p| p.extents.iter().map(|e| e.segment))
            .collect();
        let open = [self.open_normal.id, self.open_cm.id];
        self.sealed.clear();
        self.pending.clear();
        self.free.clear();
        for seg in (0..self.next_new_segment).filter(|s| !open.contains(s)) {
            if named.contains(&seg) {
                self.sealed.insert(seg);
            } else {
                self.raid.discard_stripe(seg);
                self.free.push(seg);
            }
        }
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
        if self.next_new_segment < self.raid.stripes() - REGIONS {
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
        // Emptied even if the write fails.
        let pages = open.seal();
        self.io_time += self.raid.write_pages(seg, &pages)?;
        self.stats.segments_flushed += 1;
        self.sealed.insert(seg);
        let next = self.alloc_segment()?;
        match class {
            FileClass::Normal => self.open_normal.id = next,
            FileClass::Continuous => self.open_cm.id = next,
        }
        Ok(())
    }

    /// Appends `data` to `file`, returning nothing; data reaches the
    /// array when its segment fills (or on [`LogFs::sync`]). Each byte is
    /// copied once, into the pages the disks will keep — or nowhere, in
    /// a segment begun while the array retained nothing (see
    /// [`RaidArray::set_store`]).
    pub fn append(&mut self, file: FileId, data: &[u8]) -> Result<(), FsError> {
        self.append_counted(file, data, |s| &mut s.bytes_written)
    }

    /// [`LogFs::append`], adding each byte taken to the counter `count`
    /// picks: a client's bytes and the cleaner's copies are told apart.
    fn append_counted(
        &mut self,
        file: FileId,
        data: &[u8],
        count: fn(&mut FsStats) -> &mut u64,
    ) -> Result<(), FsError> {
        let class = self.pnodes.get(&file).ok_or(FsError::NoSuchFile)?.class;
        let mut written = 0usize;
        while written < data.len() {
            let open = match class {
                FileClass::Normal => &mut self.open_normal,
                FileClass::Continuous => &mut self.open_cm,
            };
            let (seg_id, seg_len) = (open.id, open.len);
            let take = open.push(&data[written..], &self.raid);
            let full = open.len == SEGMENT_BYTES;
            let pnode = self.pnodes.get_mut(&file).expect("checked above");
            // Merge with the previous extent when contiguous.
            let merged = pnode.extents.last_mut().is_some_and(|e| {
                if e.segment == seg_id
                    && e.seg_offset as usize + e.len as usize == seg_len
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
                    seg_offset: seg_len as u32,
                    len: take as u32,
                });
            }
            pnode.size += take as u64;
            written += take;
            *count(&mut self.stats) += take as u64;
            if full {
                self.flush_open(class)?;
            }
        }
        Ok(())
    }

    /// Forces both open segments to the array.
    pub fn sync(&mut self) -> Result<(), FsError> {
        if self.open_normal.len > 0 {
            self.flush_open(FileClass::Normal)?;
        }
        if self.open_cm.len > 0 {
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
    /// filled with exactly `len` bytes): a caller that reads again and
    /// again reuses one buffer, and its warm reads allocate nothing. One
    /// copy of each byte, out of the views `LogFs::read_views` hands
    /// over.
    pub fn read_into(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), FsError> {
        out.clear();
        let arena = self.arena.clone();
        self.with_views(file, offset, len, &arena, |views| {
            out.reserve(len);
            views.iter().for_each(|v| out.extend_from_slice(v));
        })
    }

    /// Reads `len` bytes of `file` as one view. When
    /// `LogFs::read_views` yields a single view — a range inside one
    /// disk page, or inside one extent still in an open segment — that
    /// view is the answer: on a healthy array it is of the retained page
    /// itself, so nothing is copied and every reader of those bytes
    /// shares the one buffer. Otherwise the views are copied into one
    /// buffer leased from `arena`.
    pub fn read_leased(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        arena: &Arena,
    ) -> Result<FrameView, FsError> {
        self.with_views(file, offset, len, arena, |views| match views {
            [one] => one.clone(),
            _ => {
                let mut lease = arena.lease();
                lease.reserve_exact(len);
                views.iter().for_each(|v| lease.extend_from_slice(v));
                lease.freeze().view_all()
            }
        })
    }

    /// [`LogFs::read_views`] for its cost alone: the array, the clock
    /// and the counters see the read, and nothing is kept — the
    /// continuous-media replay's read, whose bytes no one consumes.
    pub(crate) fn read_for_timing(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(), FsError> {
        let arena = self.arena.clone();
        self.read_views(file, offset, len as usize, &arena, &mut Discard)
    }

    /// [`LogFs::read_views`] into the reused view list, handing the
    /// views to `then`.
    fn with_views<T>(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        arena: &Arena,
        then: impl FnOnce(&[FrameView]) -> T,
    ) -> Result<T, FsError> {
        let mut views = std::mem::take(&mut self.views);
        let read = self.read_views(file, offset, len, arena, &mut views);
        let out = read.map(|()| then(&views));
        views.clear();
        self.views = views;
        out
    }

    /// Reads `len` bytes of `file` from `offset` as views extending
    /// `out`, in order: the one walk of the extent map every read makes.
    /// The array is charged for every stripe touched, whole, and hands
    /// over views of the disk pages holding the bytes wanted. Bytes
    /// still in an open segment, which later appends will change, are
    /// copied into a buffer leased from `arena`. Into
    /// [`crate::disk::Discard`] the read is charged the same, and takes
    /// no view and copies no byte.
    pub(crate) fn read_views(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        arena: &Arena,
        out: &mut impl Extend<FrameView>,
    ) -> Result<(), FsError> {
        let pnode = self.pnodes.get(&file).ok_or(FsError::NoSuchFile)?;
        offset
            .checked_add(len as u64)
            .filter(|&end| end <= pnode.size)
            .ok_or(FsError::BadRange)?;
        // The extent holding `offset` is the last one starting at or
        // before it; each extent from there on must continue exactly
        // where the bytes read so far stop, which is checked, not
        // assumed.
        let first = pnode
            .extents
            .partition_point(|e| e.file_offset <= offset)
            .saturating_sub(1);
        let mut got = 0;
        for ext in &pnode.extents[first..] {
            if got == len {
                break;
            }
            let from = offset.max(ext.file_offset);
            let skip = (from - ext.file_offset) as usize;
            if from - offset != got as u64 || skip >= ext.len as usize {
                return Err(FsError::BadExtents);
            }
            let n = (ext.len as usize - skip).min(len - got);
            let seg_off = ext.seg_offset as usize + skip;
            // In an open buffer, or on the array?
            let open = [&self.open_normal, &self.open_cm]
                .into_iter()
                .find(|o| o.id == ext.segment);
            if let Some(open) = open {
                if seg_off + n > open.len {
                    return Err(FsError::BadExtents);
                }
                out.extend(std::iter::once_with(|| open.read(seg_off, n, arena)));
            } else {
                self.io_time += self.raid.read_views(ext.segment, seg_off, n, out)?;
            }
            got += n;
        }
        if got != len {
            return Err(FsError::BadExtents);
        }
        self.stats.bytes_read += len as u64;
        Ok(())
    }

    /// Empties `file`: every extent enters the garbage file, except that
    /// holes in `freeing` (the segment a cleaner is consuming) are not
    /// recorded again.
    fn drop_extents(&mut self, file: FileId, freeing: Option<u64>) -> Result<(), FsError> {
        let p = self.pnodes.get_mut(&file).ok_or(FsError::NoSuchFile)?;
        p.size = 0;
        for ext in std::mem::take(&mut p.extents) {
            if Some(ext.segment) != freeing {
                self.garbage.push(GarbageEntry {
                    segment: ext.segment,
                    seg_offset: ext.seg_offset,
                    len: ext.len,
                });
            }
        }
        Ok(())
    }

    /// Truncates `file` to zero length, declaring every extent garbage.
    pub fn truncate(&mut self, file: FileId) -> Result<(), FsError> {
        self.drop_extents(file, None)
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

    /// Releases a cleaned segment (cleaner use). It keeps its stripe
    /// until the second checkpoint after the release: both regions then
    /// hold maps written after it, which name none of its bytes. Then the
    /// stripe is dropped and the next flush may take the segment.
    pub(crate) fn release_segment(&mut self, seg: u64) {
        self.sealed.remove(&seg);
        self.pending.push((seg, self.checkpoint_seq + REGIONS));
    }

    /// The stripe of the region checkpoint `seq` goes to; public for
    /// fault injection in tests.
    pub fn checkpoint_region(&self, seq: u64) -> u64 {
        self.raid.stripes() - REGIONS + seq % REGIONS
    }

    /// Syncs, then writes the pnode map to the older region; once it is
    /// durable, the segments released before the checkpoint before it
    /// are freed, as neither region names them now. Returns the
    /// checkpoint's sequence number.
    pub(crate) fn checkpoint(&mut self) -> Result<u64, CheckpointError> {
        self.sync()?;
        let seq = self.checkpoint_seq + 1;
        let mut region = OpenSegment::default();
        region.push(&region_image(seq, &Checkpoint::capture(self))?, &self.raid);
        let written = self
            .raid
            .write_pages(self.checkpoint_region(seq), &region.seal());
        self.io_time += written.map_err(FsError::Raid)?;
        self.checkpoint_seq = seq;
        let (raid, free) = (&mut self.raid, &mut self.free);
        self.pending.retain(|&(seg, due)| {
            if due <= seq {
                raid.discard_stripe(seg);
                free.push(seg);
            }
            due > seq
        });
        Ok(seq)
    }

    /// Bytes `[off, off + len)` of the region checkpoint `seq` goes to
    /// (recovery), copied out of one whole-stripe read.
    pub(crate) fn read_region(
        &mut self,
        seq: u64,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        let (stripe, mut views) = (self.checkpoint_region(seq), Vec::new());
        self.io_time += self.raid.read_views(stripe, off, len, &mut views)?;
        Ok(views.iter().flat_map(|v| v.iter().copied()).collect())
    }

    /// Forgets, in each of `victims`, every byte that no pnode's extent
    /// covers (cleaner use, before it copies anything), so a pass holds
    /// only live bytes while it rewrites them. The pnode map is the
    /// authority, not the garbage file: an entry may describe an earlier
    /// use of a segment that was since released and reused.
    pub(crate) fn forget_dead_bytes(&mut self, victims: &[u64]) {
        let mut live: BTreeMap<u64, Vec<(u64, u64)>> =
            victims.iter().map(|&seg| (seg, Vec::new())).collect();
        for ext in self.pnodes.values().flat_map(|p| &p.extents) {
            if let Some(runs) = live.get_mut(&ext.segment) {
                let lo = ext.seg_offset as u64;
                runs.push((lo, lo + ext.len as u64));
            }
        }
        let end = SEGMENT_BYTES as u64;
        let mut dead = Vec::new();
        for (seg, mut runs) in live {
            runs.sort_unstable();
            let mut at = 0;
            dead.clear();
            for (lo, hi) in runs.into_iter().chain([(end, end)]) {
                let lo = lo.min(end);
                if lo > at {
                    dead.push((at as usize, (lo - at) as usize));
                }
                at = at.max(hi);
            }
            self.raid.forget(seg, &dead);
        }
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
        if !pnode.extents.iter().any(|e| e.segment == seg) {
            return Ok(0);
        }
        // Read the whole file, rewrite it. (A finer implementation would
        // move only the affected extents; whole-file rewrite keeps the
        // extent algebra simple and the I/O accounting honest within a
        // factor reflecting file size.) Every read is charged before the
        // first append, and the appends copy straight out of the views.
        let size = pnode.size;
        let (arena, mut views) = (self.arena.clone(), Vec::new());
        self.read_views(file, 0, size as usize, &arena, &mut views)?;
        // The cleaner is consuming `seg`'s garbage, not creating more;
        // holes in *other* segments do need recording.
        self.drop_extents(file, Some(seg))?;
        for view in &views {
            self.append_counted(file, view, |s| &mut s.cleaner_moved)?;
        }
        Ok(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_sim::arena::Arena;

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
        assert_eq!(f.live_bytes()[&seg], 3000);
        f.delete(a).unwrap();
        assert_eq!(f.live_bytes()[&seg], 2000);
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
            f.restore_from_checkpoint(
                0,
                &Checkpoint {
                    pnodes: vec![Pnode {
                        id: FileId(3),
                        class: FileClass::Normal,
                        size,
                        extents,
                    }],
                    next_pnode: 4,
                },
            );
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
        f.restore_from_checkpoint(
            0,
            &Checkpoint {
                pnodes: vec![Pnode {
                    id: FileId(3),
                    class: FileClass::Normal,
                    size: u64::MAX,
                    extents: vec![ext(u64::MAX - 3, 5, 0, 8)],
                }],
                next_pnode: 4,
            },
        );
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
    fn forgetting_charges_nothing_and_leaves_live_reads_as_they_were() {
        use crate::raid::DATA_DISKS;
        // Twins built alike: half a segment dead, half live, and a whole
        // segment dead. One forgets the dead half and discards the dead
        // stripe; every later call must cost both the same. The contents
        // do not repeat every 256 bytes, so no two chunks are equal and
        // no parity page is zero.
        let content =
            |n: usize, tag: u8| -> Vec<u8> { (0..n).map(|i| (i * 7 / 3) as u8 ^ tag).collect() };
        let live = content(SEGMENT_BYTES / 2, 2);
        let build = || {
            let mut f = fs();
            let ids: Vec<FileId> = (0..3).map(|_| f.create(FileClass::Normal)).collect();
            f.append(ids[0], &content(SEGMENT_BYTES / 2, 1)).unwrap();
            f.append(ids[1], &live).unwrap();
            f.append(ids[2], &content(SEGMENT_BYTES, 3)).unwrap();
            f.sync().unwrap();
            (f, ids)
        };
        // io_time, then each disk's counters and (through the cost of
        // moving it back to sector 0) its head.
        let charges = |f: &mut LogFs| {
            let io = f.io_time;
            let disks: Vec<_> = (0..=DATA_DISKS)
                .map(|i| {
                    let d = f.raid_mut().disk_mut(i);
                    let stats = format!("{:?}", d.stats);
                    (stats, d.read_views(0, 0, 0, 0, &mut Discard))
                })
                .collect();
            (io, disks)
        };
        let (mut kept, _) = build();
        let (mut forgot, ids) = build();
        let seg = |f: &LogFs, id: FileId| f.pnode(id).unwrap().extents[0].segment;
        let (half, whole) = (seg(&forgot, ids[1]), seg(&forgot, ids[2]));
        let raid = forgot.raid_mut();
        assert_eq!(raid.retained_bytes(), 5 * SEGMENT_BYTES / 2);
        raid.forget(half, &[(0, SEGMENT_BYTES / 2)]);
        raid.discard_stripe(whole);
        // Two data disks' chunks of the first stripe, and all five of
        // the second; parity of the first still holds the live half.
        assert_eq!(raid.retained_bytes(), 3 * SEGMENT_BYTES / 4);
        assert_eq!(charges(&mut forgot), charges(&mut kept));
        // The live half is on disks 2 and 3: failing 2 rebuilds its
        // share through the parity the forgotten pages were folded into.
        for failed in [None, Some(2)] {
            for f in [&mut kept, &mut forgot] {
                failed
                    .into_iter()
                    .for_each(|i| f.raid_mut().disk_mut(i).fail());
            }
            for off in (0..live.len()).step_by(100_000) {
                let len = 100_000.min(live.len() - off);
                let mut ns = Vec::new();
                for f in [&mut kept, &mut forgot] {
                    let io = f.io_time;
                    assert_eq!(
                        f.read(ids[1], off as u64, len).unwrap(),
                        live[off..off + len]
                    );
                    ns.push(f.io_time - io);
                }
                assert_eq!(ns[0], ns[1], "read at {off}, disk {failed:?} failed");
            }
            assert_eq!(charges(&mut forgot), charges(&mut kept));
        }
        // With a member down, forgetting is refused.
        forgot
            .raid_mut()
            .forget(half, &[(SEGMENT_BYTES / 2, SEGMENT_BYTES / 2)]);
        assert_eq!(forgot.raid_mut().retained_bytes(), 3 * SEGMENT_BYTES / 4);
    }

    #[test]
    fn page_aligned_leased_reads_share_the_disk_page() {
        let piece = 64 << 10;
        let data = bytes(4 * piece, 9);
        let mut f = fs();
        let id = f.create(FileClass::Continuous);
        f.append(id, &data).unwrap();
        f.sync().unwrap();
        let arena = Arena::new();
        let a = f.read_leased(id, piece as u64, piece, &arena).unwrap();
        let b = f.read_leased(id, piece as u64, piece, &arena).unwrap();
        assert!(a.same_buffer(&b), "both are views of the one disk page");
        assert_eq!(*a, data[piece..2 * piece]);
        assert_eq!(arena.stats().leases_granted, 0, "nothing was copied");
        // A range over two pages is copied into one lease of the caller's.
        let c = f.read_leased(id, piece as u64 / 2, piece, &arena).unwrap();
        assert_eq!(*c, data[piece / 2..piece / 2 + piece]);
        assert_eq!(arena.stats().leases_granted, 1);
        // So are bytes still in an open segment.
        f.append(id, b"open").unwrap();
        let d = f.read_leased(id, data.len() as u64, 4, &arena).unwrap();
        assert_eq!(&*d, b"open");
        assert_eq!(arena.stats().leases_granted, 2);
    }

    #[test]
    fn a_segment_keeps_the_mode_it_began_in() {
        // Append, switch the array's mode with the segment half full,
        // append, read, sync, read; then a second segment, synced and
        // read. What each read returns, and the time charged.
        let (first, second) = (bytes(100_000, 1), bytes(100_000, 2));
        let run = |begun: bool, then: bool| {
            let mut f = fs();
            f.raid_mut().set_store(begun);
            let id = f.create(FileClass::Normal);
            f.append(id, &first).unwrap();
            f.raid_mut().set_store(then);
            f.append(id, &second).unwrap();
            let open = f.read(id, 0, 200_000).unwrap();
            f.sync().unwrap();
            let flushed = f.read(id, 0, 200_000).unwrap();
            let next = f.create(FileClass::Normal);
            f.append(next, &first).unwrap();
            f.sync().unwrap();
            let next = f.read(next, 0, first.len()).unwrap();
            (open, flushed, next, f.io_time)
        };
        let whole = [&first[..], &second[..]].concat();
        let zeros = |n| vec![0u8; n];
        let stored = run(true, true);
        let ns = stored.3;
        assert_eq!(stored, (whole.clone(), whole.clone(), first.clone(), ns));
        // Begun storing: its bytes read until the flush, which keeps none.
        let want = (whole, zeros(200_000), zeros(100_000), ns);
        assert_eq!(run(true, false), want);
        // Begun timing-only: zeros open and flushed; the next one stores.
        let want = (zeros(200_000), zeros(200_000), first.clone(), ns);
        assert_eq!(run(false, true), want);
    }
}
