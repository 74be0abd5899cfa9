//! The disk front: hostile checkpoint images.
//!
//! [`run_images`] has two arms. In the first, an [`ImageMutator`]
//! corrupts serialized checkpoint bodies (bit flips, truncations,
//! length-field inflation, splices of two valid images) and feeds them
//! to [`Checkpoint::decode`]. The decoder must never panic and never
//! over-allocate; an untampered body must round-trip exactly; and a
//! body the decoder accepts is restored over the array the pristine
//! body came from and every file in it read end to end, which must
//! answer `Ok` or a typed error.
//!
//! In the second, a log writes three checkpoints, so the two regions
//! hold the second and third, and the mutator corrupts the third's
//! region on the disk itself (a header bit, a CRC bit, or a write torn
//! mid-body over the first's image), and sometimes the second's too.
//! Recovery must never panic, never take a region whose image changed,
//! and take the second when only the third changed; with both changed
//! it must refuse with a typed error.
//!
//! Crashes themselves, cut between any two operations of a run that
//! also cleans, are `pegasus-pfs`'s `prop_log` referee.

use std::error::Error;

use pegasus_pfs::checkpoint::{recover, write_checkpoint, Checkpoint, CheckpointError};
use pegasus_pfs::disk::{DiskConfig, SECTOR};
use pegasus_pfs::log::{FileClass, LogFs, SEGMENT_BYTES};
use pegasus_pfs::raid::DATA_DISKS;
use pegasus_sim::rng::seeded;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{Front, Repro};

/// Seed-driven corruption of checkpoint images.
pub struct ImageMutator {
    rng: SmallRng,
}

/// What `ImageMutator::mutate` did to a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageMutation {
    /// One bit flipped somewhere in the blob.
    BitFlip,
    /// Blob cut short at a random boundary.
    Truncate,
    /// A big-endian u32 in the header region overwritten with a huge
    /// value — the classic length-field inflation that bursts naive
    /// `Vec::with_capacity` preallocation.
    LengthInflate,
    /// The tail of a second valid image grafted on at a random offset.
    Splice,
    /// Random garbage appended past the true end.
    Extend,
}

/// What `ImageMutator::mutate_region` did to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionMutation {
    /// One bit flipped in the header's sequence number or body length.
    Header,
    /// One bit flipped in the header's CRC.
    Crc,
    /// The write torn at a random byte of the body: past it, the region
    /// keeps the image written there before.
    Torn,
}

/// Bytes in a region's header: sequence number, body length, CRC.
const HEADER_BYTES: usize = 16;

const IMAGE_MUTATIONS: [ImageMutation; 5] = [
    ImageMutation::BitFlip,
    ImageMutation::Truncate,
    ImageMutation::LengthInflate,
    ImageMutation::Splice,
    ImageMutation::Extend,
];

impl ImageMutator {
    /// A mutator drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        ImageMutator { rng: seeded(seed) }
    }

    /// Applies one corruption to `blob` (`donor` feeds splices).
    pub(crate) fn mutate(&mut self, blob: &mut Vec<u8>, donor: &[u8]) -> ImageMutation {
        let m = IMAGE_MUTATIONS[self.rng.gen_range(0..IMAGE_MUTATIONS.len())];
        if blob.is_empty() {
            return m;
        }
        match m {
            ImageMutation::BitFlip => {
                let i = self.rng.gen_range(0..blob.len());
                blob[i] ^= 1 << self.rng.gen_range(0..8u8);
            }
            ImageMutation::Truncate => {
                let keep = self.rng.gen_range(0..blob.len());
                blob.truncate(keep);
            }
            ImageMutation::LengthInflate => {
                let end = blob.len().min(64).saturating_sub(4);
                if end > 0 {
                    let at = self.rng.gen_range(0..end);
                    let huge: u32 = self.rng.gen_range(1 << 24..u32::MAX);
                    blob[at..at + 4].copy_from_slice(&huge.to_be_bytes());
                }
            }
            ImageMutation::Splice => {
                let at = self.rng.gen_range(0..blob.len());
                let from = self.rng.gen_range(0..donor.len().max(1));
                blob.truncate(at);
                blob.extend_from_slice(&donor[from.min(donor.len())..]);
            }
            ImageMutation::Extend => {
                let extra = self.rng.gen_range(1..256usize);
                for _ in 0..extra {
                    blob.push(self.rng.gen::<u8>());
                }
            }
        }
        m
    }

    /// Applies one corruption to the region image `region[..len]`, whose
    /// bytes past `len` the write left as they were; `old` is what the
    /// region held before, at least as long.
    pub(crate) fn mutate_region(
        &mut self,
        region: &mut [u8],
        len: usize,
        old: &[u8],
    ) -> RegionMutation {
        let (m, lo, hi) = [
            (RegionMutation::Header, 0, 12),
            (RegionMutation::Crc, 12, HEADER_BYTES),
            (RegionMutation::Torn, HEADER_BYTES, len),
        ][self.rng.gen_range(0..3usize)];
        let at = self.rng.gen_range(lo..hi);
        match m {
            RegionMutation::Torn => region[at..len].copy_from_slice(&old[at..len]),
            _ => region[at] ^= 1 << self.rng.gen_range(0..8u8),
        }
        m
    }
}

/// Counters from an image-mutation run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ImageStats {
    /// Mutated blobs decoded.
    pub steps: u64,
    /// Decodes that returned a classified error.
    pub rejected: u64,
    /// Mutated blobs the decoder still accepted (mutation landed in
    /// don't-care bytes, or produced a different-but-wellformed image).
    pub survived: u64,
    /// Survivors that, restored over the pristine image's array, read
    /// back every file they describe end to end (the rest drew a typed
    /// read error).
    pub restored: u64,
    /// Recoveries that found the newest region changed and took the one
    /// before.
    pub fell_back: u64,
    /// Recoveries that found both regions changed and refused.
    pub refused: u64,
}

/// Builds a modest file system, synced, ready for its checkpoint.
fn sample_fs(rng: &mut SmallRng) -> Result<LogFs, Box<dyn Error>> {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    for _ in 0..rng.gen_range(1..6usize) {
        let class = if rng.gen_range(0..2u32) == 0 {
            FileClass::Normal
        } else {
            FileClass::Continuous
        };
        let f = fs.create(class);
        let n = rng.gen_range(1..4096usize);
        let data: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
        fs.append(f, &data)?;
    }
    fs.sync()?;
    Ok(fs)
}

/// Grows `fs` by one file of 1 to 4,095 random bytes and writes a
/// checkpoint; returns the region's sector on data disk 0, which holds
/// the whole image, and the image's length.
fn grow_and_checkpoint(fs: &mut LogFs, rng: &mut SmallRng) -> Result<(u64, usize), Box<dyn Error>> {
    let f = fs.create(FileClass::Normal);
    let data: Vec<u8> = (0..rng.gen_range(1..4096usize))
        .map(|_| rng.gen())
        .collect();
    fs.append(f, &data)?;
    let body = Checkpoint::capture(fs);
    let seq = write_checkpoint(fs)?;
    let chunk_sectors = (SEGMENT_BYTES / DATA_DISKS / SECTOR) as u64;
    let len = HEADER_BYTES + body.encode().len();
    Ok((fs.checkpoint_region(seq) * chunk_sectors, len))
}

/// The whole sectors of data disk 0 from `sector` that hold `len` bytes.
fn read_region(fs: &mut LogFs, sector: u64, len: usize) -> Result<Vec<u8>, Box<dyn Error>> {
    let sectors = len.div_ceil(SECTOR) as u64;
    Ok(fs.raid_mut().disk_mut(0).read(sector, sectors)?.0)
}

/// One step of the region arm: three checkpoints, the third's region
/// corrupted on the disk, and one time in four the second's too; then a
/// crash and a recovery, held to what each region still holds. An error
/// is one from the healthy log before the corruption.
fn run_region(
    repro: &Repro,
    rng: &mut SmallRng,
    mutator: &mut ImageMutator,
    stats: &mut ImageStats,
) -> Result<(), Box<dyn Error>> {
    let mut fs = sample_fs(rng)?;
    let (first, first_len) = grow_and_checkpoint(&mut fs, rng)?;
    let (second, second_len) = grow_and_checkpoint(&mut fs, rng)?;
    let files_at_second = fs.file_count();
    // The third goes over the first, so a torn write of it leaves the
    // first's tail; the second went where nothing was.
    let first_image = read_region(&mut fs, first, first_len)?;
    let (third, third_len) = grow_and_checkpoint(&mut fs, rng)?;
    repro.check(third == first, "checkpoints alternate between two regions");
    let mut intact = [true; 2];
    let regions = [
        (third, third_len, first_image),
        (second, second_len, Vec::new()),
    ];
    for (k, (sector, len, mut old)) in regions.into_iter().enumerate() {
        if k == 1 && rng.gen_range(0..4u32) != 0 {
            break;
        }
        let pristine = read_region(&mut fs, sector, len)?;
        let mut region = pristine.clone();
        old.resize(region.len(), 0);
        mutator.mutate_region(&mut region, len, &old);
        intact[k] = region[..len] == pristine[..len];
        fs.raid_mut().disk_mut(0).write(sector, &region)?;
    }
    fs.amnesia(0);
    match recover(&mut fs, 0) {
        Ok(()) => {
            let took = fs.last_checkpoint();
            let ok = match took {
                Some(3) => intact[0],
                Some(2) => !intact[0] && intact[1] && fs.file_count() == files_at_second,
                _ => false,
            };
            repro.check(
                ok,
                "recovery took a changed region, or not the newest intact one",
            );
            stats.fell_back += u64::from(took == Some(2));
            let files: Vec<_> = fs.pnodes_iter().map(|p| (p.id, p.size as usize)).collect();
            for (file, size) in files {
                repro.check(
                    fs.read(file, 0, size).is_ok(),
                    "a recovered file is unreadable",
                );
            }
        }
        Err(e) => {
            let refused = e == CheckpointError::NoCheckpoint && intact == [false; 2];
            repro.check(refused, "recovery refused though a region was intact");
            stats.refused += 1;
        }
    }
    Ok(())
}

/// The server behind `fs` forgets everything, recovers from `cp`, and
/// reads every file `cp` describes from first byte to last, in pieces.
/// Whether all of them answered `Ok`; what matters to the front is that
/// none panicked.
fn restore_and_read(mut fs: LogFs, cp: &Checkpoint) -> bool {
    const PIECE: u64 = 64 << 10;
    fs.amnesia(0);
    fs.restore_from_checkpoint(0, cp);
    let mut buf = Vec::new();
    let mut all_ok = true;
    for p in &cp.pnodes {
        for off in (0..p.size).step_by(PIECE as usize) {
            let take = PIECE.min(p.size - off) as usize;
            all_ok &= fs.read_into(p.id, off, take, &mut buf).is_ok();
        }
    }
    all_ok
}

/// Runs `steps` checkpoint-image mutations from `seed`. Panics with a
/// reproducing triple if the decoder panics (caught by the test
/// harness), over-allocates, or an untampered image fails to round-trip.
pub fn run_images(seed: u64, steps: u64) -> ImageStats {
    let mut stats = ImageStats::default();
    for step in 0..steps {
        let repro = Repro {
            seed,
            front: Front::Disk,
            step,
        };
        if let Err(e) = run_step(&repro, &mut stats) {
            repro.check(false, &format!("a healthy log failed: {e}"));
        }
        stats.steps += 1;
    }
    stats
}

/// One step of [`run_images`]: the body arm, then the region arm. An
/// error is one from a healthy log, before any corruption.
fn run_step(repro: &Repro, stats: &mut ImageStats) -> Result<(), Box<dyn Error>> {
    let mut rng = seeded(repro.step_seed());
    let fs = sample_fs(&mut rng)?;
    let pristine = Checkpoint::capture(&fs).encode();
    let donor = Checkpoint::capture(&sample_fs(&mut rng)?).encode();

    // The control arm: untampered blobs must round-trip exactly.
    match Checkpoint::decode(&pristine) {
        Ok(cp) => repro.check(
            cp.encode() == pristine,
            "pristine checkpoint failed to round-trip",
        ),
        Err(_) => repro.check(false, "pristine checkpoint failed to decode"),
    }

    let mut blob = pristine.clone();
    let mut mutator = ImageMutator::new(repro.step_seed() ^ 0x1D0_1D0);
    for _ in 0..rng.gen_range(1..4u32) {
        mutator.mutate(&mut blob, &donor);
    }
    match Checkpoint::decode(&blob) {
        // Accepting a mutated image is fine only if it is still a
        // well-formed image: re-encoding must reproduce its own
        // bytes' canonical form, and a server that recovers from it
        // must be able to serve reads, without panicking.
        Ok(cp) => {
            let _ = cp.encode();
            stats.survived += 1;
            stats.restored += u64::from(restore_and_read(fs, &cp));
        }
        Err(
            CheckpointError::Truncated
            | CheckpointError::BadMagic
            | CheckpointError::BadVersion(_)
            | CheckpointError::BadExtent { .. },
        ) => stats.rejected += 1,
        Err(e) => repro.check(false, &format!("decoding a body drew {e}")),
    }
    run_region(repro, &mut rng, &mut mutator, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_mutations_never_break_the_decoder() {
        let s = run_images(0xD15C, 150);
        assert_eq!(s.steps, 150);
        assert!(s.rejected > 0, "mutations must provoke rejections");
        assert!(s.restored > 0, "accepted images are restored and read");
        assert!(s.restored <= s.survived);
        assert!(s.fell_back > 0, "torn newest regions fall back");
        assert!(s.refused > 0, "two torn regions are refused");
    }

    #[test]
    fn image_front_is_deterministic() {
        let a = run_images(11, 40);
        let b = run_images(11, 40);
        assert_eq!(
            (a.rejected, a.survived, a.restored, a.fell_back, a.refused),
            (b.rejected, b.survived, b.restored, b.fell_back, b.refused)
        );
    }
}
