//! The disk front: hostile checkpoint images.
//!
//! [`run_images`]: an [`ImageMutator`] corrupts serialized checkpoint
//! blobs (bit flips, truncations, length-field inflation, splices of two
//! valid images) and feeds them to [`Checkpoint::decode`]. The decoder
//! must never panic and never over-allocate; an untampered blob must
//! round-trip exactly; and an image the decoder accepts is restored
//! over the array the pristine image came from and every file in it
//! read end to end, which must answer `Ok` or a typed error.
//!
//! Crashes themselves, cut between any two operations of a run that
//! also cleans, are `pegasus-pfs`'s `prop_log` referee.

use pegasus_pfs::checkpoint::{Checkpoint, CheckpointError};
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_sim::rng::seeded;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{Front, Repro};

/// Seed-driven corruption of checkpoint images.
pub struct ImageMutator {
    rng: SmallRng,
}

/// What [`ImageMutator::mutate`] did to a blob.
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
    pub fn mutate(&mut self, blob: &mut Vec<u8>, donor: &[u8]) -> ImageMutation {
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
}

/// Builds a modest file system, synced, ready for its checkpoint.
fn sample_fs(rng: &mut SmallRng) -> LogFs {
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
        fs.append(f, &data).expect("fresh fs has room");
    }
    fs.sync().expect("sync");
    fs
}

/// The server behind `fs` forgets everything, recovers from `cp`, and
/// reads every file `cp` describes from first byte to last, in pieces.
/// Whether all of them answered `Ok`; what matters to the front is that
/// none panicked.
fn restore_and_read(mut fs: LogFs, cp: &Checkpoint) -> bool {
    const PIECE: u64 = 64 << 10;
    fs.amnesia(FileId(0)); // no file has id 0: nothing is kept
    fs.restore_from_checkpoint(cp);
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
        let mut rng = seeded(repro.step_seed());
        let fs = sample_fs(&mut rng);
        let pristine = Checkpoint::capture(&fs).encode();
        let donor = Checkpoint::capture(&sample_fs(&mut rng)).encode();

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
                | CheckpointError::BadExtent { .. }
                | CheckpointError::Fs(_),
            ) => stats.rejected += 1,
        }
        stats.steps += 1;
    }
    stats
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
    }

    #[test]
    fn image_front_is_deterministic() {
        let a = run_images(11, 40);
        let b = run_images(11, 40);
        assert_eq!(
            (a.rejected, a.survived, a.restored),
            (b.rejected, b.survived, b.restored)
        );
    }
}
