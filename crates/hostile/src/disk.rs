//! The disk front: hostile checkpoint images and crash-point injection.
//!
//! Two attacks on the storage trust seam:
//!
//! * [`run_images`] — an [`ImageMutator`] corrupts serialized checkpoint
//!   blobs (bit flips, truncations, length-field inflation, splices of
//!   two valid images) and feeds them to [`Checkpoint::decode`]. The
//!   decoder must never panic and never over-allocate; an untampered
//!   blob must round-trip exactly; and an image the decoder accepts is
//!   restored over the array the pristine image came from and every
//!   file in it read end to end, which must answer `Ok` or a typed
//!   error.
//! * [`crash_sweep`] — the FITO protocol test: a deterministic
//!   write-heavy operation trace is cut at *every* operation boundary
//!   (simulated power loss), the server recovers from its last completed
//!   checkpoint, and every record acknowledged by that checkpoint must
//!   read back byte-exact — no acknowledged loss, no torn record
//!   replayed as if whole. The trace deletes files but never cleans: a
//!   file deleted after the checkpoint comes back whole, and one deleted
//!   before it stays gone, which is the line a change that forgot bytes
//!   at delete time would cross. `LogFs` is deliberately not `Clone`, so
//!   each crash point replays the trace from scratch; the sweep is O(n²)
//!   in trace length, which small traces keep cheap.

use pegasus_pfs::checkpoint::{write_checkpoint, Checkpoint, CheckpointError};
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

/// One operation of the crash-sweep trace.
#[derive(Debug, Clone)]
enum Op {
    /// Create a file of the given class.
    Create(FileClass),
    /// Append `data` to the `n`th created file, unless it is deleted.
    Append { nth: usize, data: Vec<u8> },
    /// Delete the `n`th created file, unless it already is.
    Delete { nth: usize },
    /// Sync the log.
    Sync,
    /// Write a checkpoint (create+append+sync of the blob).
    Checkpoint,
}

/// Builds a deterministic write-heavy trace ending in a checkpoint, so
/// the final crash point exercises full recovery. It deletes, and never
/// cleans.
fn build_trace(rng: &mut SmallRng, ops: usize) -> Vec<Op> {
    let mut trace = vec![Op::Create(FileClass::Normal)];
    let mut files = 1usize;
    for _ in 0..ops {
        match rng.gen_range(0..12u32) {
            0..=1 => {
                trace.push(Op::Create(if rng.gen_range(0..2u32) == 0 {
                    FileClass::Normal
                } else {
                    FileClass::Continuous
                }));
                files += 1;
            }
            2..=7 => {
                let n = rng.gen_range(16..2048usize);
                let data: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
                trace.push(Op::Append {
                    nth: rng.gen_range(0..files),
                    data,
                });
            }
            8 => trace.push(Op::Delete {
                nth: rng.gen_range(0..files),
            }),
            9..=10 => trace.push(Op::Sync),
            _ => trace.push(Op::Checkpoint),
        }
    }
    trace.push(Op::Checkpoint);
    trace
}

/// What a completed checkpoint acknowledged.
struct Acked {
    /// The checkpoint file.
    cp: FileId,
    /// Every trace file alive at capture time, with its bytes.
    live: Vec<(FileId, Vec<u8>)>,
    /// Every trace file deleted before it.
    gone: Vec<FileId>,
}

/// Replays `trace[..k]` from scratch. Returns the file system and what
/// each checkpoint taken acknowledged.
fn replay(trace: &[Op], k: usize) -> (LogFs, Vec<Acked>) {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let mut files: Vec<FileId> = Vec::new();
    // Each created file's bytes; `None` once deleted.
    let mut content: Vec<Option<Vec<u8>>> = Vec::new();
    let mut checkpoints = Vec::new();
    for op in &trace[..k] {
        match op {
            Op::Create(class) => {
                files.push(fs.create(*class));
                content.push(Some(Vec::new()));
            }
            Op::Append { nth, data } => {
                let n = *nth % files.len();
                if let Some(bytes) = &mut content[n] {
                    fs.append(files[n], data).expect("trace fits the array");
                    bytes.extend_from_slice(data);
                }
            }
            Op::Delete { nth } => {
                let n = *nth % files.len();
                if content[n].take().is_some() {
                    fs.delete(files[n]).expect("a live file deletes");
                }
            }
            Op::Sync => fs.sync().expect("sync"),
            Op::Checkpoint => {
                let cp = write_checkpoint(&mut fs).expect("checkpoint");
                let (mut live, mut gone) = (Vec::new(), Vec::new());
                for (&file, bytes) in files.iter().zip(&content) {
                    match bytes {
                        Some(bytes) => live.push((file, bytes.clone())),
                        None => gone.push(file),
                    }
                }
                checkpoints.push(Acked { cp, live, gone });
            }
        }
    }
    (fs, checkpoints)
}

/// Counters from a crash sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrashStats {
    /// Crash points exercised (one per operation boundary).
    pub crash_points: u64,
    /// Acknowledged records verified byte-exact after recovery.
    pub records_verified: u64,
    /// Crash points that predate the first checkpoint (nothing was
    /// acknowledged yet; recovery trivially holds).
    pub pre_checkpoint: u64,
    /// Files deleted after the last checkpoint that recovered
    /// byte-exact all the same.
    pub deletes_undone: u64,
    /// Files deleted before the last checkpoint found still gone.
    pub deletes_kept: u64,
}

/// Cuts simulated power at every operation boundary of a deterministic
/// write-heavy run, recovers from the last completed checkpoint, and
/// verifies the acknowledged set. Panics with a reproducing triple on
/// any acknowledged-frame loss or torn record.
pub fn crash_sweep(seed: u64, trace_ops: usize) -> CrashStats {
    let mut stats = CrashStats::default();
    let repro0 = Repro {
        seed,
        front: Front::Disk,
        step: 0,
    };
    let trace = build_trace(&mut seeded(repro0.step_seed() ^ 0xC4A5), trace_ops);

    for k in 0..=trace.len() {
        let repro = Repro {
            seed,
            front: Front::Disk,
            step: k as u64,
        };
        let (mut fs, checkpoints) = replay(&trace, k);
        stats.crash_points += 1;
        let Some(acked) = checkpoints.last() else {
            stats.pre_checkpoint += 1;
            continue;
        };
        // Which acknowledged files the trace deleted before the cut.
        let deleted: Vec<bool> = acked
            .live
            .iter()
            .map(|(f, _)| fs.pnode(*f).is_none())
            .collect();

        // Power cut: all volatile metadata is gone except the superblock
        // pointer to the checkpoint file.
        fs.amnesia(acked.cp);
        match pegasus_pfs::checkpoint::recover(&mut fs, acked.cp) {
            Ok(()) => {}
            Err(_) => repro.check(false, "recovery from a completed checkpoint failed"),
        }

        for file in &acked.gone {
            repro.check(
                fs.pnode(*file).is_none(),
                "a file deleted before the checkpoint came back",
            );
            stats.deletes_kept += 1;
        }
        for ((file, bytes), deleted) in acked.live.iter().zip(deleted) {
            stats.deletes_undone += u64::from(deleted);
            let pnode = fs.pnode(*file);
            repro.check(
                pnode.is_some(),
                "an acknowledged file vanished after recovery",
            );
            let size = pnode.expect("checked").size;
            repro.check(
                size == bytes.len() as u64,
                "recovered size disagrees with the acknowledged bytes (torn record)",
            );
            if !bytes.is_empty() {
                match fs.read(*file, 0, bytes.len()) {
                    Ok(back) => {
                        repro.check(&back == bytes, "an acknowledged record came back corrupted");
                        stats.records_verified += 1;
                    }
                    Err(_) => repro.check(false, "an acknowledged record is unreadable"),
                }
            }
        }
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

    #[test]
    fn crash_sweep_loses_nothing_acknowledged() {
        let s = crash_sweep(0xFACE, 60);
        assert_eq!(s.crash_points as usize, 63, "every boundary was cut");
        assert!(s.records_verified > 0, "the sweep verified real records");
        assert!(
            s.pre_checkpoint < s.crash_points,
            "most of the trace runs past the first checkpoint"
        );
        assert!(
            s.deletes_undone > 0,
            "deleted after a checkpoint, recovered"
        );
        assert!(s.deletes_kept > 0, "deleted before a checkpoint, gone");
    }
}
