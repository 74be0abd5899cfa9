//! Cleaning: the garbage-file algorithm and the Sprite-style baseline.
//!
//! "We are currently implementing a cleaning algorithm whose complexity
//! only depends on the number of segments to be cleaned and the amount
//! of 'garbage'. ... During normal operation of the file system, the
//! core maintains a garbage file. Every time a client write or delete
//! operation creates garbage, an entry describing the hole in the log
//! ... is appended to the garbage file. When the file system needs to be
//! cleaned, the garbage file is read and its entries are sorted by
//! segment number. Then, a single pass ... When cleaning is complete,
//! the garbage file is truncated. ... Allowing client operations to
//! continue during cleaning does not complicate the cleaning algorithm:
//! at the start of a cleaning operation, the current place in the
//! garbage file must be marked and cleaning uses only information before
//! the marker while new garbage is appended after it." (§5)
//!
//! The baseline is the Sprite-LFS approach: scan the utilization of
//! *every* segment in the file system to choose cleaning victims — cost
//! proportional to file-system size, which is exactly what the paper's
//! 10-terabyte goal rules out.

use std::collections::BTreeSet;

use crate::log::{FsError, LogFs, SEGMENT_BYTES};
use pegasus_sim::time::Ns;

/// Size of one garbage-file entry on disk.
pub const GARBAGE_ENTRY_BYTES: u64 = 16;
/// Size of one segment-summary block the Sprite cleaner must read.
pub const SUMMARY_BYTES: u64 = 8_192;

/// What a cleaning pass did and what it cost.
#[derive(Debug, Default, Clone)]
pub struct CleanReport {
    /// Garbage-file entries consumed (garbage-file cleaner) .
    pub entries_processed: usize,
    /// Segment summaries scanned (Sprite cleaner).
    pub summaries_scanned: usize,
    /// Segments freed.
    pub segments_cleaned: usize,
    /// Live bytes copied to the log head.
    pub live_bytes_moved: u64,
    /// Bytes of storage recovered.
    pub bytes_freed: u64,
    /// Virtual I/O time attributable to this pass.
    pub io_time: Ns,
}

/// Cleans `victims`, each with its live bytes as the pass's sum found
/// them: first every victim forgets the bytes no file uses, then each is
/// emptied — every file with an extent in it rewritten whole at the log
/// head (when any byte there was live) — and released. The caller has
/// written the pass's checkpoint, so the durable image names no byte the
/// pass forgets, and a crash at any point recovers what the pass began
/// from: the segments it releases keep their stripes until the next
/// checkpoint.
fn clean_victims(
    fs: &mut LogFs,
    victims: &[(u64, u64)],
    report: &mut CleanReport,
) -> Result<(), FsError> {
    let segs: Vec<u64> = victims.iter().map(|&(seg, _)| seg).collect();
    fs.forget_dead_bytes(&segs);
    for &(seg, live) in victims {
        if live > 0 {
            for file in fs.files_in_segment(seg) {
                report.live_bytes_moved += fs.relocate_file_from_segment(file, seg)?;
            }
        }
        fs.release_segment(seg);
        report.segments_cleaned += 1;
        report.bytes_freed += SEGMENT_BYTES as u64;
    }
    Ok(())
}

/// Runs the Pegasus garbage-file cleaner over every hole recorded before
/// the call (the marker protocol: entries appended during the pass stay
/// for the next one).
///
/// Cost structure: one sequential read of the consumed prefix of the
/// garbage file, plus a whole-file rewrite of every file that still has
/// bytes in a segment that contained garbage. No disk I/O scales with
/// the size of the file system but the pass's own checkpoint, the pnode
/// map. The pass writes that checkpoint first, which flushes the open
/// segments, so garbage recorded in them is consumed too; then it sums
/// each flushed segment's live bytes from the pnode map. Before anything
/// is copied, the victims' bytes that no file uses are forgotten; each
/// victim's stripe is dropped at the checkpoint after the pass.
pub fn clean_garbage_file(fs: &mut LogFs) -> Result<CleanReport, FsError> {
    let io_before = fs.io_time;
    let mut report = CleanReport::default();

    // Mark the current place in the garbage file.
    let mark = fs.garbage.len();
    report.entries_processed = mark;
    if mark == 0 {
        return Ok(report);
    }
    // One sequential read of the prefix.
    fs.charge_metadata_io(mark as u64 * GARBAGE_ENTRY_BYTES, true);

    fs.checkpoint()?;
    // Sort the entries by segment number and group; a segment already
    // freed by an earlier pass, or still open, is skipped.
    let live = fs.live_bytes();
    let per_segment: BTreeSet<u64> = fs.garbage[..mark].iter().map(|e| e.segment).collect();
    let victims: Vec<(u64, u64)> = per_segment
        .into_iter()
        .filter_map(|seg| Some((seg, *live.get(&seg)?)))
        .collect();
    // Single pass over the affected segments.
    clean_victims(fs, &victims, &mut report)?;

    // Truncate the consumed prefix; garbage added during the pass stays.
    fs.garbage.drain(..mark);
    report.io_time = fs.io_time - io_before;
    Ok(report)
}

/// Runs a Sprite-LFS-style cleaning pass: read every flushed segment's
/// summary to learn utilizations, then clean the emptiest segments until
/// `segments_wanted` have been freed.
pub fn clean_sprite(fs: &mut LogFs, segments_wanted: usize) -> Result<CleanReport, FsError> {
    let io_before = fs.io_time;
    let mut report = CleanReport::default();

    // The O(file-system size) part: one summary read per segment.
    let mut victims: Vec<(u64, u64)> = fs.live_bytes().into_iter().collect();
    report.summaries_scanned = victims.len();
    for _ in &victims {
        fs.charge_metadata_io(SUMMARY_BYTES, true);
    }

    // Victims: lowest utilization first.
    victims.sort_unstable_by_key(|&(s, live)| (live, s));
    victims.truncate(segments_wanted);
    fs.checkpoint()?;
    clean_victims(fs, &victims, &mut report)?;
    // The Sprite cleaner does not consume the garbage file: entries
    // naming the segments it freed stay, and a later garbage-file pass
    // skips each, as no longer flushed, unless a flush has reused it.
    report.io_time = fs.io_time - io_before;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::disk::{DiskConfig, PAGE_BYTES};
    use crate::log::{FileClass, FileId};

    fn fs() -> LogFs {
        LogFs::new(DiskConfig::hp_1994())
    }

    fn data(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8) ^ tag).collect()
    }

    #[test]
    fn fully_dead_segment_freed_without_copying() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        f.append(id, &data(SEGMENT_BYTES, 1)).unwrap();
        f.sync().unwrap();
        let seg = f.pnode(id).unwrap().extents[0].segment;
        f.delete(id).unwrap();
        let report = clean_garbage_file(&mut f).unwrap();
        assert_eq!(report.segments_cleaned, 1);
        assert_eq!(report.live_bytes_moved, 0, "dead segment needs no copy");
        assert!(!f.live_bytes().contains_key(&seg));
        assert!(f.garbage.is_empty());
    }

    #[test]
    fn live_data_survives_cleaning() {
        let mut f = fs();
        let dead = f.create(FileClass::Normal);
        let live = f.create(FileClass::Normal);
        f.append(dead, &data(600_000, 1)).unwrap();
        f.append(live, &data(300_000, 2)).unwrap();
        f.sync().unwrap();
        f.delete(dead).unwrap();
        let report = clean_garbage_file(&mut f).unwrap();
        assert!(report.segments_cleaned >= 1);
        assert_eq!(report.live_bytes_moved, 300_000);
        // The survivor reads back intact from its new home.
        let back = f.read(live, 0, 300_000).unwrap();
        assert_eq!(back, data(300_000, 2));
    }

    #[test]
    fn a_clean_counts_its_copies_apart_from_client_bytes() {
        for sprite in [false, true] {
            let mut f = fs();
            let dead = f.create(FileClass::Normal);
            let live = f.create(FileClass::Normal);
            f.append(dead, &data(600_000, 1)).unwrap();
            f.append(live, &data(300_000, 2)).unwrap();
            f.sync().unwrap();
            f.delete(dead).unwrap();
            let (written, moved) = (f.stats.bytes_written, f.stats.cleaner_moved);
            let report = if sprite {
                clean_sprite(&mut f, 1).unwrap()
            } else {
                clean_garbage_file(&mut f).unwrap()
            };
            assert_eq!(report.live_bytes_moved, 300_000, "sprite {sprite}");
            // The pass's own checkpoint is written as every checkpoint
            // is; the copies are not client bytes.
            let cp = f.pnode(f.last_checkpoint().unwrap()).unwrap().size;
            assert_eq!(f.stats.bytes_written, written + cp, "sprite {sprite}");
            assert_eq!(f.stats.cleaner_moved - moved, report.live_bytes_moved);
        }
    }

    #[test]
    fn a_pass_leaves_only_live_bytes_on_the_disks() {
        // The benchmark's pfs-vcr shape: sixteen 4 MiB files appended in
        // interleaved 64 KiB pieces, so each segment holds a piece of
        // every file; every other file deleted; the garbage cleaned.
        const PIECE: usize = 64 << 10;
        const FILE_BYTES: usize = 4 << 20;
        let piece = |file: usize, at: usize| [file as u8, (at / PIECE) as u8].repeat(PIECE / 2);
        let mut f = fs();
        let files: Vec<FileId> = (0..16).map(|_| f.create(FileClass::Continuous)).collect();
        for at in (0..FILE_BYTES).step_by(PIECE) {
            for (k, &file) in files.iter().enumerate() {
                f.append(file, &piece(k, at)).unwrap();
            }
        }
        f.sync().unwrap();
        // 64 MiB of data and its parity.
        let stored = |f: &mut LogFs| f.raid_mut().retained_bytes();
        assert_eq!(stored(&mut f), 80 << 20);
        for &file in files.iter().skip(1).step_by(2) {
            f.delete(file).unwrap();
        }
        // The rule a pass applies before it copies: each victim keeps
        // what an extent covers, the survivors' halves. Parity keeps only
        // the page rows a survivor lies in; a dead row folds to zeros.
        let victims: Vec<u64> = f.live_bytes().into_keys().collect();
        f.forget_dead_bytes(&victims);
        assert_eq!(stored(&mut f), 40 << 20);
        let report = clean_garbage_file(&mut f).unwrap();
        assert_eq!(report.segments_cleaned, 64);
        assert_eq!(report.live_bytes_moved, 32 << 20);
        // The victims keep their live halves, which the pass's own
        // checkpoint names, beside the copies, until the next checkpoint;
        // each checkpoint is a page of a segment of its own, and the
        // page's parity.
        let checkpoint = 2 * PAGE_BYTES;
        assert_eq!(stored(&mut f), (80 << 20) + checkpoint);
        write_checkpoint(&mut f).unwrap();
        // What is left is the survivors' 32 MiB and their parity.
        assert_eq!(stored(&mut f), (40 << 20) + 2 * checkpoint);
        let mut buf = Vec::new();
        for (k, &file) in files.iter().enumerate().step_by(2) {
            for at in (0..FILE_BYTES).step_by(PIECE) {
                f.read_into(file, at as u64, PIECE, &mut buf).unwrap();
                assert!(buf == piece(k, at), "file {k} at {at}");
            }
        }
    }

    #[test]
    fn cleaned_segments_are_reused() {
        let mut f = fs();
        let id = f.create(FileClass::Normal);
        f.append(id, &data(SEGMENT_BYTES, 1)).unwrap();
        f.sync().unwrap();
        let seg = f.pnode(id).unwrap().extents[0].segment;
        f.delete(id).unwrap();
        clean_garbage_file(&mut f).unwrap();
        // Each new file is enough to claim the cleaned segment again
        // (the first new segment is already open; the second flush draws
        // from the free list), but the pass's own checkpoint still names
        // it: only a checkpoint written after the pass frees it.
        let segments_of_a_new_file = |f: &mut LogFs| {
            let id = f.create(FileClass::Normal);
            f.append(id, &data(2 * SEGMENT_BYTES, 2)).unwrap();
            f.sync().unwrap();
            let extents = &f.pnode(id).unwrap().extents;
            extents.iter().map(|e| e.segment).collect::<Vec<u64>>()
        };
        let segs = segments_of_a_new_file(&mut f);
        assert!(!segs.contains(&seg), "{seg} pending (got {segs:?})");
        write_checkpoint(&mut f).unwrap();
        let segs = segments_of_a_new_file(&mut f);
        assert!(segs.contains(&seg), "{seg} reused (got {segs:?})");
    }

    #[test]
    fn marker_protocol_preserves_new_garbage() {
        let mut f = fs();
        let a = f.create(FileClass::Normal);
        let b = f.create(FileClass::Normal);
        f.append(a, &data(SEGMENT_BYTES, 1)).unwrap();
        f.append(b, &data(SEGMENT_BYTES, 2)).unwrap();
        f.sync().unwrap();
        f.delete(a).unwrap();
        let entries_before = f.garbage.len();
        // Concurrent client activity: delete b *after* the pass starts.
        // (We emulate by checking that entries appended during relocation
        // survive; here simply verify drain keeps the suffix.)
        let report = clean_garbage_file(&mut f).unwrap();
        assert_eq!(report.entries_processed, entries_before);
        f.delete(b).unwrap();
        assert!(!f.garbage.is_empty(), "new garbage awaits the next pass");
        let report2 = clean_garbage_file(&mut f).unwrap();
        assert!(report2.segments_cleaned >= 1);
    }

    #[test]
    fn garbage_cleaner_cost_independent_of_fs_size() {
        // Two file systems: one with 16 segments of cold data, one with
        // 160. Same garbage in each. The garbage-file cleaner must cost
        // (nearly) the same; the Sprite cleaner must scale ~10×.
        let build = |cold_segments: usize| -> LogFs {
            let mut f = fs();
            f.raid_mut().set_store(false); // timing only
            for i in 0..cold_segments {
                let id = f.create(FileClass::Normal);
                f.append(id, &vec![0u8; SEGMENT_BYTES]).unwrap();
                let _ = i;
            }
            f.sync().unwrap();
            // One hot file that dies.
            let hot = f.create(FileClass::Normal);
            f.append(hot, &vec![0u8; SEGMENT_BYTES]).unwrap();
            f.sync().unwrap();
            f.delete(hot).unwrap();
            f
        };

        let mut small = build(16);
        let mut large = build(160);
        let r_small = clean_garbage_file(&mut small).unwrap();
        let r_large = clean_garbage_file(&mut large).unwrap();
        let ratio = r_large.io_time as f64 / r_small.io_time.max(1) as f64;
        assert!(
            ratio < 1.5,
            "garbage-file cleaning must not scale with FS size (ratio {ratio:.2})"
        );

        let mut small = build(16);
        let mut large = build(160);
        let s_small = clean_sprite(&mut small, 1).unwrap();
        let s_large = clean_sprite(&mut large, 1).unwrap();
        let sprite_ratio = s_large.io_time as f64 / s_small.io_time.max(1) as f64;
        assert!(
            sprite_ratio > 5.0,
            "sprite cleaning must scale with FS size (ratio {sprite_ratio:.2})"
        );
        assert_eq!(s_large.summaries_scanned, 161);
    }

    #[test]
    fn sprite_picks_emptiest_victims() {
        let mut f = fs();
        let nearly_dead = f.create(FileClass::Normal);
        let half = f.create(FileClass::Normal);
        f.append(nearly_dead, &data(SEGMENT_BYTES, 1)).unwrap();
        f.sync().unwrap();
        f.append(half, &data(SEGMENT_BYTES, 2)).unwrap();
        f.sync().unwrap();
        f.delete(nearly_dead).unwrap();
        let seg_dead = 0u64; // first flushed segment
        let report = clean_sprite(&mut f, 1).unwrap();
        assert_eq!(report.segments_cleaned, 1);
        assert_eq!(report.live_bytes_moved, 0, "picked the dead one");
        assert!(!f.live_bytes().contains_key(&seg_dead));
    }

    #[test]
    fn empty_garbage_file_is_a_noop() {
        let mut f = fs();
        let report = clean_garbage_file(&mut f).unwrap();
        assert_eq!(report.segments_cleaned, 0);
        assert_eq!(report.io_time, 0);
    }

    #[test]
    fn cleaning_cost_proportional_to_garbage() {
        // Segments that are 70 % dead / 30 % live: cleaning N of them
        // copies N × 300 KB, so cost grows with the garbage, not with
        // anything else.
        let build_and_kill = |n: usize| -> CleanReport {
            let mut f = fs();
            f.raid_mut().set_store(false);
            let mut dead_ids = Vec::new();
            for _ in 0..n {
                let dead = f.create(FileClass::Normal);
                f.append(dead, &vec![0u8; 700 * 1024]).unwrap();
                let live = f.create(FileClass::Normal);
                f.append(live, &vec![0u8; SEGMENT_BYTES - 700 * 1024])
                    .unwrap();
                dead_ids.push(dead);
            }
            f.sync().unwrap();
            for id in dead_ids {
                f.delete(id).unwrap();
            }
            clean_garbage_file(&mut f).unwrap()
        };
        let r1 = build_and_kill(1);
        let r8 = build_and_kill(8);
        assert_eq!(r1.segments_cleaned, 1);
        assert_eq!(r8.segments_cleaned, 8);
        assert_eq!(r8.live_bytes_moved, 8 * r1.live_bytes_moved);
        let ratio = r8.io_time as f64 / r1.io_time as f64;
        assert!(ratio > 3.0 && ratio < 16.0, "ratio {ratio:.2}");
    }
}
