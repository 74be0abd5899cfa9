//! Recovery edge cases for the log-structured core: empty logs, logs
//! ending exactly on a segment boundary, and cleaner passes racing a
//! crash/recovery cycle. Table-driven where the cases share a shape —
//! each case prepares a file system, writes a checkpoint, takes a step
//! after it, crashes (amnesia), recovers from the log's last checkpoint,
//! and verifies every surviving file byte-exact.

use pegasus_pfs::checkpoint::{recover, write_checkpoint, Checkpoint, CheckpointError};
use pegasus_pfs::cleaner::{clean_garbage_file, clean_sprite};
use pegasus_pfs::disk::{DiskConfig, SECTOR};
use pegasus_pfs::log::{FileClass, FileId, LogFs, SEGMENT_BYTES};
use pegasus_pfs::raid::DATA_DISKS;

fn fresh() -> LogFs {
    LogFs::new(DiskConfig::hp_1994())
}

fn patterned(n: usize, tag: u8) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
}

/// What a prepared file system expects to survive the crash.
struct Expectation {
    /// Files (and their full contents) the checkpoint acknowledged.
    live: Vec<(FileId, Vec<u8>)>,
    /// Files that must be *gone* after recovery.
    dead: Vec<FileId>,
}

/// One table entry: a name, a preparation step that leaves the file
/// system checkpoint-ready, and a step taken after the checkpoint.
struct Case {
    name: &'static str,
    prepare: fn(&mut LogFs) -> Expectation,
    after: fn(&mut LogFs, &Expectation),
}

/// File A, a quarter segment, beside file B, half of one, in one synced
/// segment. B is to be deleted, before the checkpoint or after it, and
/// the garbage cleaned by moving A; either way the log's last
/// checkpoint, the pass's own, names A and not B.
fn a_beside_b(fs: &mut LogFs) -> Expectation {
    let (a, b) = (fs.create(FileClass::Normal), fs.create(FileClass::Normal));
    let kept = patterned(SEGMENT_BYTES / 4, 0x1A);
    fs.append(a, &kept).expect("A");
    fs.append(b, &patterned(SEGMENT_BYTES / 2, 0x1B))
        .expect("B");
    fs.sync().expect("sync");
    Expectation {
        live: vec![(a, kept)],
        dead: vec![b],
    }
}

/// [`a_beside_b`], B deleted before the checkpoint.
fn a_beside_deleted_b(fs: &mut LogFs) -> Expectation {
    let expect = a_beside_b(fs);
    fs.delete(expect.dead[0]).expect("delete B");
    expect
}

/// A garbage-file pass that must move A.
fn clean_moving_a(fs: &mut LogFs) {
    let report = clean_garbage_file(fs).expect("clean");
    assert_eq!(report.live_bytes_moved, SEGMENT_BYTES as u64 / 4, "A moved");
}

const CASES: &[Case] = &[
    Case {
        name: "empty-log",
        prepare: |_fs| Expectation {
            live: vec![],
            dead: vec![],
        },
        after: |_, _| {},
    },
    Case {
        name: "log-ends-exactly-at-segment-boundary",
        prepare: |fs| {
            // The append exactly fills the open segment, so it flushes
            // itself and the pre-checkpoint sync has nothing to do: the
            // log ends precisely on a record boundary.
            let f = fs.create(FileClass::Normal);
            let data = patterned(SEGMENT_BYTES, 0xA5);
            fs.append(f, &data).expect("one exact segment");
            Expectation {
                live: vec![(f, data)],
                dead: vec![],
            }
        },
        after: |_, _| {},
    },
    Case {
        name: "two-classes-both-on-boundaries",
        prepare: |fs| {
            // Normal and continuous logs each end exactly on a segment
            // boundary — neither open buffer holds a byte at crash time.
            let n = fs.create(FileClass::Normal);
            let c = fs.create(FileClass::Continuous);
            let dn = patterned(SEGMENT_BYTES, 0x0F);
            let dc = patterned(2 * SEGMENT_BYTES, 0xF0);
            fs.append(n, &dn).expect("normal segment");
            fs.append(c, &dc).expect("two cm segments");
            Expectation {
                live: vec![(n, dn), (c, dc)],
                dead: vec![],
            }
        },
        after: |_, _| {},
    },
    Case {
        name: "cleaner-pass-before-the-crash",
        prepare: |fs| {
            // A delete makes garbage, the cleaner relocates the
            // survivor's live bytes, and only then is the checkpoint
            // cut: recovery must see the *post-clean* extent map.
            let doomed = fs.create(FileClass::Normal);
            let kept = fs.create(FileClass::Normal);
            let junk = patterned(300_000, 0x33);
            let good = patterned(250_000, 0x44);
            fs.append(doomed, &junk).expect("junk");
            fs.append(kept, &good).expect("good");
            fs.sync().expect("sync");
            fs.delete(doomed).expect("delete makes garbage");
            let report = clean_garbage_file(fs).expect("clean");
            assert!(report.entries_processed > 0, "the delete left entries");
            assert!(report.live_bytes_moved > 0, "the survivor was relocated");
            Expectation {
                live: vec![(kept, good)],
                dead: vec![doomed],
            }
        },
        after: |_, _| {},
    },
    Case {
        // The pass moves A out of the segment the checkpoint names it
        // in: that segment must keep A's bytes until a later checkpoint.
        name: "cleaner-pass-after-the-checkpoint",
        prepare: a_beside_deleted_b,
        after: |fs, _| clean_moving_a(fs),
    },
    Case {
        // As above, and enough new data flushed to reuse the cleaned
        // segment if it were free.
        name: "cleaner-pass-after-the-checkpoint-then-two-segments",
        prepare: a_beside_deleted_b,
        after: |fs, _| {
            clean_moving_a(fs);
            let more = fs.create(FileClass::Normal);
            fs.append(more, &patterned(2 * SEGMENT_BYTES, 0x3C))
                .expect("the log moves on");
            fs.sync().expect("sync");
        },
    },
    Case {
        // B is deleted after the checkpoint, and the pass forgets its
        // bytes: the checkpoint recovered from must not name B.
        name: "delete-and-cleaner-pass-after-the-checkpoint",
        prepare: a_beside_b,
        after: |fs, expect| {
            fs.delete(expect.dead[0]).expect("delete B");
            clean_moving_a(fs);
        },
    },
];

#[test]
fn crash_recovery_table() {
    for case in CASES {
        let mut fs = fresh();
        let expect = (case.prepare)(&mut fs);
        write_checkpoint(&mut fs).expect(case.name);
        (case.after)(&mut fs, &expect);

        let cp = fs.last_checkpoint().expect(case.name);
        fs.amnesia(cp);
        recover(&mut fs, cp).unwrap_or_else(|e| panic!("{}: recovery failed: {e}", case.name));

        for (file, bytes) in &expect.live {
            let size = fs
                .pnode(*file)
                .unwrap_or_else(|| panic!("{}: file lost", case.name))
                .size;
            assert_eq!(size, bytes.len() as u64, "{}: size torn", case.name);
            let back = fs
                .read(*file, 0, bytes.len())
                .unwrap_or_else(|e| panic!("{}: unreadable: {e}", case.name));
            assert_eq!(&back, bytes, "{}: bytes corrupted", case.name);
        }
        for file in &expect.dead {
            assert!(
                fs.pnode(*file).is_none(),
                "{}: a deleted file rose from the grave",
                case.name
            );
        }
    }
}

#[test]
fn a_delete_after_the_checkpoint_is_undone_by_a_crash() {
    // Deleting forgets nothing on the disks; only a cleaning pass does.
    // So recovery brings back, byte-exact, a file the checkpoint saw and
    // a later delete removed, while one deleted before it stays gone.
    // Both span whole pages of the disks' store.
    let mut fs = fresh();
    let before = fs.create(FileClass::Normal);
    let after = fs.create(FileClass::Continuous);
    let kept = patterned(300_000, 0x5A);
    fs.append(before, &patterned(300_000, 0xA5))
        .expect("append");
    fs.append(after, &kept).expect("append");
    fs.delete(before).expect("delete before the checkpoint");
    let cp = write_checkpoint(&mut fs).expect("checkpoint");
    fs.delete(after).expect("delete after the checkpoint");
    let more = fs.create(FileClass::Continuous);
    fs.append(more, &patterned(2 * SEGMENT_BYTES, 0x3C))
        .expect("the log moves on");
    fs.sync().expect("sync");

    fs.amnesia(cp);
    recover(&mut fs, cp).expect("recovery");
    assert!(fs.pnode(before).is_none(), "deleted before: gone");
    assert_eq!(fs.read(after, 0, kept.len()).expect("read"), kept);
}

#[test]
fn empty_blob_is_truncated_not_a_panic() {
    assert_eq!(Checkpoint::decode(&[]), Err(CheckpointError::Truncated));
    assert_eq!(Checkpoint::decode(&[0x50]), Err(CheckpointError::Truncated));
}

#[test]
fn recovering_twice_is_idempotent() {
    let mut fs = fresh();
    let f = fs.create(FileClass::Normal);
    let data = patterned(64_000, 0x77);
    fs.append(f, &data).expect("append");
    let cp = write_checkpoint(&mut fs).expect("checkpoint");
    fs.amnesia(cp);
    recover(&mut fs, cp).expect("first recovery");
    recover(&mut fs, cp).expect("second recovery");
    assert_eq!(fs.read(f, 0, data.len()).expect("read"), data);
}

#[test]
fn cleaner_racing_a_recovery() {
    // The crash wiped the garbage file (it is volatile bookkeeping, not
    // part of the checkpoint), so the post-recovery garbage-file pass
    // must be a clean no-op — and the Sprite scanner, which needs only
    // the segments recovery derived from the pnode map, must still be
    // able to clean around the live data without harming it.
    let mut fs = fresh();
    let doomed = fs.create(FileClass::Normal);
    let kept = fs.create(FileClass::Normal);
    let junk = patterned(400_000, 0x55);
    let good = patterned(200_000, 0x66);
    fs.append(doomed, &junk).expect("junk");
    fs.append(kept, &good).expect("good");
    fs.sync().expect("sync");
    // Garbage exists but was NOT cleaned before the crash.
    fs.delete(doomed).expect("delete");
    let cp = write_checkpoint(&mut fs).expect("checkpoint");

    fs.amnesia(cp);
    recover(&mut fs, cp).expect("recovery");

    let noop = clean_garbage_file(&mut fs).expect("garbage pass");
    assert_eq!(
        noop.entries_processed, 0,
        "the garbage file died with the crash"
    );
    assert_eq!(noop.segments_cleaned, 0);

    let used_before = fs.used_segments();
    let swept = clean_sprite(&mut fs, 1).expect("sprite pass");
    assert_eq!(swept.segments_cleaned, 1, "the scanner found a victim");
    assert!(fs.used_segments() <= used_before);
    // The survivor is intact whether or not it was relocated.
    assert_eq!(fs.read(kept, 0, good.len()).expect("read"), good);
}

#[test]
fn a_segment_the_checkpoint_sealed_is_cleaned_after_recovery() {
    // The file's segment is still open when the checkpoint is taken, so
    // the checkpoint's own sync seals it. Recovered, deleted and cleaned,
    // it must be freed, not lost to the log.
    let mut fs = fresh();
    let f = fs.create(FileClass::Normal);
    fs.append(f, &patterned(100_000, 0x64)).expect("append");
    let seg = fs.pnode(f).expect("pnode").extents[0].segment;
    let cp = write_checkpoint(&mut fs).expect("checkpoint");
    fs.amnesia(cp);
    recover(&mut fs, cp).expect("recovery");
    fs.delete(f).expect("delete");
    let report = clean_garbage_file(&mut fs).expect("garbage pass");
    assert_eq!(report.segments_cleaned, 1, "segment {seg} freed");
}

#[test]
fn overwrite_and_clean_passes_hold_the_log_flat() {
    // Every cleaning pass writes a checkpoint. A file written and
    // checkpointed, then 64 passes of overwrite, sync and clean: after
    // each pass the log holds the one file, in as many segments, with
    // as many bytes on the disks, as after the first.
    let mut fs = fresh();
    let f = fs.create(FileClass::Normal);
    fs.append(f, &patterned(100_000, 0xFF)).expect("append");
    write_checkpoint(&mut fs).expect("checkpoint");
    let mut after_first = None;
    for pass in 0..64u8 {
        fs.overwrite(f, &patterned(100_000, pass))
            .expect("overwrite");
        fs.sync().expect("sync");
        let report = clean_garbage_file(&mut fs).expect("garbage pass");
        assert_eq!(report.segments_cleaned, 1, "pass {pass}");
        let held = (
            fs.used_segments(),
            fs.raid_mut().retained_bytes(),
            fs.file_count(),
        );
        let first = *after_first.get_or_insert(held);
        assert_eq!(
            held, first,
            "(segments, retained bytes, files) after pass {pass}"
        );
    }
    assert_eq!(
        fs.read(f, 0, 100_000).expect("read"),
        patterned(100_000, 63)
    );
}

#[test]
fn a_region_damaged_after_its_write_falls_back_to_held_stripes() {
    // A 200,000 B file beside a deleted one, a garbage pass that moves
    // it, one more checkpoint, and then that newest region's first
    // sector overwritten. Recovery falls back to the region before it,
    // which the pass wrote and which names the file where it lay before
    // the pass: the pass may neither have forgotten those bytes nor
    // freed their stripe.
    let mut fs = fresh();
    let (a, b) = (fs.create(FileClass::Normal), fs.create(FileClass::Normal));
    let kept = patterned(200_000, 0xC8);
    fs.append(a, &kept).expect("A");
    fs.append(b, &patterned(200_000, 0xC9)).expect("B");
    fs.sync().expect("sync");
    fs.delete(b).expect("delete B");
    let report = clean_garbage_file(&mut fs).expect("garbage pass");
    assert_eq!(report.live_bytes_moved, kept.len() as u64);
    let cp = write_checkpoint(&mut fs).expect("checkpoint");
    let chunk_sectors = (SEGMENT_BYTES / DATA_DISKS / SECTOR) as u64;
    let sector = fs.checkpoint_region(cp) * chunk_sectors;
    fs.raid_mut()
        .disk_mut(0)
        .write(sector, &[0; SECTOR])
        .expect("overwrite");
    fs.amnesia(cp);
    assert_eq!(recover(&mut fs, cp), Err(CheckpointError::Stale(cp - 1)));
    recover(&mut fs, cp - 1).expect("fallback");
    assert_eq!(fs.read(a, 0, kept.len()).expect("read A"), kept);
}
