//! Checkpointing and recovery of the core layer's metadata.
//!
//! A log-structured file system's pnode map lives in memory and must be
//! reconstructible after a crash. Following Sprite LFS (§5 cites it as
//! the model), the core periodically serializes it into the log itself
//! as a *checkpoint*; recovery reads the most recent checkpoint back.
//! The map is the one record: which segments hold live bytes, which are
//! free, and how many bytes each holds are all derived from it, so the
//! checkpoint stores nothing else. (Roll-forward of post-checkpoint
//! segments is bounded by the checkpoint interval; the write-behind
//! layer's client copies cover the tail, per §5's reliability argument.)
//!
//! The serialized form is a small, versioned binary format — no external
//! serialization crates, consistent with the rest of the codec code in
//! this workspace.

use crate::log::{Extent, FileClass, FileId, FsError, LogFs, Pnode, SEGMENT_BYTES};

/// Magic number guarding checkpoint blobs.
const MAGIC: u32 = 0x5047_4350; // "PGCP"
/// Format version: 2 since the segment table left the blob.
const VERSION: u16 = 2;

/// Errors from checkpoint encode/decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Blob too short or inconsistent.
    Truncated,
    /// Magic number mismatch: not a checkpoint.
    BadMagic,
    /// Unknown version.
    BadVersion(u16),
    /// A pnode whose extents are not an in-order tiling of its bytes by
    /// runs that each lie inside one segment.
    BadExtent {
        /// The file the pnode describes.
        file: FileId,
        /// The first extent out of place; the extent count when all are
        /// in place but do not add up to the file's size.
        index: usize,
    },
    /// Underlying file-system error.
    Fs(FsError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unknown checkpoint version {v}"),
            CheckpointError::BadExtent { file, index } => {
                write!(f, "file {} extent {index} does not fit the file", file.0)
            }
            CheckpointError::Fs(e) => write!(f, "fs error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<FsError> for CheckpointError {
    fn from(e: FsError) -> Self {
        CheckpointError::Fs(e)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn class_byte(c: FileClass) -> u8 {
    match c {
        FileClass::Normal => 0,
        FileClass::Continuous => 1,
    }
}

fn byte_class(b: u8) -> Result<FileClass, CheckpointError> {
    match b {
        0 => Ok(FileClass::Normal),
        1 => Ok(FileClass::Continuous),
        _ => Err(CheckpointError::Truncated),
    }
}

/// What [`LogFs::read_into`] leans on: the extents tile `[0, size)` in
/// order, none empty, each inside its segment.
fn check_extents(file: FileId, size: u64, extents: &[Extent]) -> Result<(), CheckpointError> {
    let mut tiled = 0u64;
    for (index, e) in extents.iter().enumerate() {
        let in_segment = e.seg_offset as u64 + e.len as u64 <= SEGMENT_BYTES as u64;
        if e.len == 0 || e.file_offset != tiled || !in_segment {
            return Err(CheckpointError::BadExtent { file, index });
        }
        tiled += e.len as u64; // at most a segment each: cannot wrap
    }
    if tiled != size {
        let index = extents.len();
        return Err(CheckpointError::BadExtent { file, index });
    }
    Ok(())
}

/// A decoded checkpoint: the pnode map and the pnode-number allocator,
/// from which recovery derives the rest of the core layer's state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// All live pnodes.
    pub pnodes: Vec<Pnode>,
    /// The pnode-number allocator's next value.
    pub next_pnode: u64,
}

impl Checkpoint {
    /// Captures the current state of `fs`.
    pub fn capture(fs: &LogFs) -> Checkpoint {
        let mut pnodes: Vec<Pnode> = fs.pnodes_iter().cloned().collect();
        pnodes.sort_by_key(|p| p.id);
        Checkpoint {
            pnodes,
            next_pnode: fs.next_pnode_value(),
        }
    }

    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&MAGIC.to_be_bytes());
        v.extend_from_slice(&VERSION.to_be_bytes());
        v.extend_from_slice(&self.next_pnode.to_be_bytes());
        v.extend_from_slice(&(self.pnodes.len() as u32).to_be_bytes());
        for p in &self.pnodes {
            v.extend_from_slice(&p.id.0.to_be_bytes());
            v.push(class_byte(p.class));
            v.extend_from_slice(&p.size.to_be_bytes());
            v.extend_from_slice(&(p.extents.len() as u32).to_be_bytes());
            for e in &p.extents {
                v.extend_from_slice(&e.file_offset.to_be_bytes());
                v.extend_from_slice(&e.segment.to_be_bytes());
                v.extend_from_slice(&e.seg_offset.to_be_bytes());
                v.extend_from_slice(&e.len.to_be_bytes());
            }
        }
        v
    }

    /// Parses a checkpoint blob.
    pub fn decode(buf: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader { buf, pos: 0 };
        if r.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let next_pnode = r.u64()?;
        let np = r.u32()? as usize;
        let mut pnodes = Vec::with_capacity(np.min(1 << 20));
        for _ in 0..np {
            let id = FileId(r.u64()?);
            let class = byte_class(r.take(1)?[0])?;
            let size = r.u64()?;
            let ne = r.u32()? as usize;
            let mut extents = Vec::with_capacity(ne.min(1 << 20));
            for _ in 0..ne {
                extents.push(Extent {
                    file_offset: r.u64()?,
                    segment: r.u64()?,
                    seg_offset: r.u32()?,
                    len: r.u32()?,
                });
            }
            check_extents(id, size, &extents)?;
            pnodes.push(Pnode {
                id,
                class,
                size,
                extents,
            });
        }
        Ok(Checkpoint { pnodes, next_pnode })
    }
}

/// Writes a checkpoint of `fs` into the log itself (as a normal file)
/// and syncs. Returns the checkpoint file's id, which the superblock
/// references ([`LogFs::last_checkpoint`]). Only then do the segments
/// cleaned since the one before join the free list.
pub fn write_checkpoint(fs: &mut LogFs) -> Result<FileId, CheckpointError> {
    Ok(fs.checkpoint()?)
}

/// Recovers the in-memory state from the checkpoint stored in `file`:
/// its pnodes join `fs`'s map, and the segments are derived from the map
/// (see [`LogFs::restore_from_checkpoint`]). Every segment a recovered
/// pnode names, the checkpoint file's own included, is flushed and
/// cleanable again; every other one is free.
pub fn recover(fs: &mut LogFs, file: FileId) -> Result<(), CheckpointError> {
    let size = fs.pnode(file).ok_or(FsError::NoSuchFile)?.size;
    let blob = fs.read(file, 0, size as usize)?;
    let cp = Checkpoint::decode(&blob)?;
    fs.restore_from_checkpoint(&cp);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use crate::log::SEGMENT_BYTES;

    fn data(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8) ^ tag).collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let a = fs.create(FileClass::Normal);
        fs.append(a, &data(5000, 1)).unwrap();
        let b = fs.create(FileClass::Continuous);
        fs.append(b, &data(SEGMENT_BYTES + 7, 2)).unwrap();
        fs.sync().unwrap();
        let cp = Checkpoint::capture(&fs);
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn bad_blobs_rejected() {
        assert_eq!(
            Checkpoint::decode(&[]).unwrap_err(),
            CheckpointError::Truncated
        );
        assert_eq!(
            Checkpoint::decode(&[0u8; 32]).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut blob = Checkpoint {
            pnodes: vec![],
            next_pnode: 1,
        }
        .encode();
        // The low byte of the big-endian version field: an unknown
        // version, and 1, whose blobs carried a segment table.
        for version in [99, 1] {
            blob[5] = version;
            assert_eq!(
                Checkpoint::decode(&blob).unwrap_err(),
                CheckpointError::BadVersion(version.into())
            );
        }
    }

    #[test]
    fn extent_maps_that_do_not_tile_the_file_are_rejected() {
        let seg = SEGMENT_BYTES as u32;
        let ext = |file_offset, seg_offset, len| Extent {
            file_offset,
            segment: 9,
            seg_offset,
            len,
        };
        // (size, extents, index of the extent the decoder must name)
        let cases = [
            (10, vec![ext(0, seg - 9, 10)], 0), // runs past its segment
            (u32::MAX as u64, vec![ext(0, u32::MAX, u32::MAX)], 0), // u32 sum wraps
            (20, vec![ext(0, 0, 10), ext(11, 10, 10)], 1), // a gap
            (20, vec![ext(0, 0, 10), ext(5, 10, 10)], 1), // an overlap
            (20, vec![ext(10, 10, 10), ext(0, 0, 10)], 0), // out of order
            (10, vec![ext(0, 0, 10), ext(10, 10, 0)], 1), // an empty extent
            (8, vec![ext(u64::MAX - 3, 0, 8)], 0), // file offset + len wraps
            (30, vec![ext(0, 0, 10), ext(10, 10, 10)], 2), // short of the size
            (15, vec![ext(0, 0, 10), ext(10, 10, 10)], 2), // past the size
            (1, vec![], 0),
        ];
        for (size, extents, index) in cases {
            let cp = Checkpoint {
                pnodes: vec![Pnode {
                    id: FileId(7),
                    class: FileClass::Normal,
                    size,
                    extents,
                }],
                next_pnode: 8,
            };
            let file = FileId(7);
            assert_eq!(
                Checkpoint::decode(&cp.encode()),
                Err(CheckpointError::BadExtent { file, index }),
                "{cp:?}"
            );
        }
        // What the log itself writes passes: whole-segment extents, an
        // extent ending exactly at its segment's end, an empty file.
        let cp = Checkpoint {
            pnodes: vec![
                Pnode {
                    id: FileId(1),
                    class: FileClass::Continuous,
                    size: seg as u64 + 10,
                    extents: vec![ext(0, 0, seg), ext(seg as u64, seg - 10, 10)],
                },
                Pnode {
                    id: FileId(2),
                    class: FileClass::Normal,
                    size: 0,
                    extents: vec![],
                },
            ],
            next_pnode: 3,
        };
        assert_eq!(Checkpoint::decode(&cp.encode()), Ok(cp));
    }

    #[test]
    fn recovery_restores_files_after_memory_loss() {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let a = fs.create(FileClass::Normal);
        fs.append(a, &data(40_000, 3)).unwrap();
        let b = fs.create(FileClass::Continuous);
        fs.append(b, &data(70_000, 4)).unwrap();
        let cp_file = write_checkpoint(&mut fs).unwrap();
        // Simulate the server losing its in-memory tables; the on-disk
        // superblock remembers only where the checkpoint lives.
        fs.amnesia(cp_file);
        assert_eq!(fs.file_count(), 1);
        recover(&mut fs, cp_file).unwrap();
        assert_eq!(fs.read(a, 0, 40_000).unwrap(), data(40_000, 3));
        assert_eq!(fs.read(b, 0, 70_000).unwrap(), data(70_000, 4));
    }

    #[test]
    fn post_recovery_writes_work() {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let a = fs.create(FileClass::Normal);
        fs.append(a, &data(10_000, 5)).unwrap();
        let cp_file = write_checkpoint(&mut fs).unwrap();
        fs.amnesia(cp_file);
        recover(&mut fs, cp_file).unwrap();
        // New files allocate ids beyond the recovered allocator state.
        let c = fs.create(FileClass::Normal);
        assert!(c > a);
        fs.append(c, &data(1_000, 6)).unwrap();
        assert_eq!(fs.read(c, 0, 1_000).unwrap(), data(1_000, 6));
        assert_eq!(fs.read(a, 0, 10_000).unwrap(), data(10_000, 5));
    }

    #[test]
    fn recovery_derives_the_segments_from_the_pnode_map() {
        // A file and the checkpoint naming it share one segment; a file
        // the checkpoint never saw fills two more. Recovery keeps the
        // first, and frees the other two and drops their stripes.
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let a = fs.create(FileClass::Normal);
        fs.append(a, &data(100_000, 1)).unwrap();
        let cp_file = write_checkpoint(&mut fs).unwrap();
        let retained = fs.raid_mut().retained_bytes();
        let b = fs.create(FileClass::Continuous);
        fs.append(b, &data(2 * SEGMENT_BYTES, 2)).unwrap();
        assert_eq!(fs.used_segments(), 3);
        fs.amnesia(cp_file);
        recover(&mut fs, cp_file).unwrap();
        assert_eq!(fs.used_segments(), 1);
        assert_eq!(fs.raid_mut().retained_bytes(), retained);
        assert_eq!(fs.read(a, 0, 100_000).unwrap(), data(100_000, 1));
    }
}
