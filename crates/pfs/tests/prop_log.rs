//! Property tests: the log-structured core against a trivial in-memory
//! model, under arbitrary operation sequences — including cleaning by
//! either cleaner, after which every file must read back with a data
//! disk lost and again once it is rebuilt, and crashes, after which the
//! log must hold exactly what its last checkpoint named, each segment it
//! names cleanable — and every read path against `read_into`.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

use pegasus_pfs::checkpoint::{recover, write_checkpoint};
use pegasus_pfs::cleaner::{clean_garbage_file, clean_sprite};
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_pfs::raid::DATA_DISKS;
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::arena::{Arena, FrameView};

/// An operation against both the real FS and the model.
#[derive(Debug, Clone)]
enum Op {
    Create { continuous: bool },
    Append { file: usize, len: usize, tag: u8 },
    Overwrite { file: usize, len: usize, tag: u8 },
    Delete { file: usize },
    Sync,
    // Each pass is followed by `reads_back` with data disk `disk` lost.
    Clean { disk: usize },
    CleanSprite { wanted: usize, disk: usize },
    Checkpoint,
    // Power lost: the log recovers from its last checkpoint, and the
    // model returns to what it held then.
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => any::<bool>().prop_map(|continuous| Op::Create { continuous }),
        4 => (any::<usize>(), 1usize..60_000, any::<u8>())
            .prop_map(|(file, len, tag)| Op::Append { file, len, tag }),
        2 => (any::<usize>(), 1usize..60_000, any::<u8>())
            .prop_map(|(file, len, tag)| Op::Overwrite { file, len, tag }),
        2 => any::<usize>().prop_map(|file| Op::Delete { file }),
        1 => Just(Op::Sync),
        1 => (0..DATA_DISKS).prop_map(|disk| Op::Clean { disk }),
        1 => (1usize..4, 0..DATA_DISKS)
            .prop_map(|(wanted, disk)| Op::CleanSprite { wanted, disk }),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Crash),
    ]
}

fn content(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
        .collect()
}

/// Every model file reads back exact three times: on a healthy array,
/// with data disk `disk` failed (its share rebuilt through parity), and
/// once that disk is replaced and rebuilt.
fn reads_back(
    fs: &mut LogFs,
    model: &HashMap<FileId, Vec<u8>>,
    disk: usize,
) -> Result<(), TestCaseError> {
    for phase in ["healthy", "degraded", "rebuilt"] {
        match phase {
            "degraded" => fs.raid_mut().disk_mut(disk).fail(),
            "rebuilt" => {
                fs.raid_mut().disk_mut(disk).replace();
                fs.raid_mut().rebuild_disk(disk).unwrap();
            }
            _ => {}
        }
        for (&id, expected) in model {
            let got = fs.read(id, 0, expected.len()).unwrap();
            prop_assert!(&got == expected, "file {:?} {} on disk {}", id, phase, disk);
        }
    }
    Ok(())
}

/// Every model file reads back exactly, at its size; every other file
/// the test made errors; and the log holds no file but those and its
/// `checkpoints` checkpoint files.
fn holds_model(
    fs: &mut LogFs,
    model: &HashMap<FileId, Vec<u8>>,
    handles: &[FileId],
    checkpoints: usize,
) -> Result<(), TestCaseError> {
    for (&id, expected) in model {
        let got = fs.read(id, 0, expected.len()).unwrap();
        prop_assert_eq!(&got, expected, "file {:?}", id);
        prop_assert_eq!(fs.pnode(id).unwrap().size, expected.len() as u64);
    }
    for id in handles {
        if !model.contains_key(id) {
            prop_assert!(fs.read(*id, 0, 1).is_err());
        }
    }
    prop_assert_eq!(fs.file_count(), model.len() + checkpoints);
    Ok(())
}

/// How many distinct segments the log's pnodes name.
fn named_segments(fs: &LogFs) -> usize {
    let named: BTreeSet<u64> = fs
        .pnodes_iter()
        .flat_map(|p| p.extents.iter().map(|e| e.segment))
        .collect();
    named.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn log_matches_in_memory_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let mut model: HashMap<FileId, Vec<u8>> = HashMap::new();
        let mut handles: Vec<FileId> = Vec::new();
        // Checkpoint files are files of the log's own: how many there
        // are, and the model and that count as the last checkpoint, the
        // log's or a cleaning pass's, saw them.
        let mut checkpoints = 0;
        let mut snapshot = (model.clone(), checkpoints);
        let mut last = None;

        for op in ops {
            match op {
                Op::Create { continuous } => {
                    let class = if continuous { FileClass::Continuous } else { FileClass::Normal };
                    let id = fs.create(class);
                    handles.push(id);
                    model.insert(id, Vec::new());
                }
                Op::Append { file, len, tag } if !handles.is_empty() => {
                    let id = handles[file % handles.len()];
                    if model.contains_key(&id) {
                        let data = content(len, tag);
                        fs.append(id, &data).unwrap();
                        model.get_mut(&id).unwrap().extend_from_slice(&data);
                    }
                }
                Op::Overwrite { file, len, tag } if !handles.is_empty() => {
                    let id = handles[file % handles.len()];
                    if model.contains_key(&id) {
                        let data = content(len, tag);
                        fs.overwrite(id, &data).unwrap();
                        model.insert(id, data);
                    }
                }
                Op::Delete { file } if !handles.is_empty() => {
                    let id = handles[file % handles.len()];
                    if model.remove(&id).is_some() {
                        fs.delete(id).unwrap();
                    }
                }
                Op::Sync => fs.sync().unwrap(),
                Op::Clean { disk } => {
                    clean_garbage_file(&mut fs).unwrap();
                    reads_back(&mut fs, &model, disk)?;
                }
                Op::CleanSprite { wanted, disk } => {
                    clean_sprite(&mut fs, wanted).unwrap();
                    reads_back(&mut fs, &model, disk)?;
                }
                Op::Checkpoint => {
                    write_checkpoint(&mut fs).unwrap();
                }
                Op::Crash => {
                    if let Some(cp) = fs.last_checkpoint() {
                        fs.amnesia(cp);
                        recover(&mut fs, cp).unwrap();
                        (model, checkpoints) = snapshot.clone();
                        holds_model(&mut fs, &model, &handles, checkpoints)?;
                        // Every segment a recovered pnode names is one the
                        // log counts as flushed: a garbage pass takes it
                        // once the files in it are deleted.
                        prop_assert_eq!(fs.used_segments(), named_segments(&fs));
                    }
                }
                _ => {}
            }
            // Cleaning adds and removes no file's bytes, so what the
            // model holds after a step that wrote a checkpoint is what
            // that checkpoint names.
            if fs.last_checkpoint() != last {
                last = fs.last_checkpoint();
                checkpoints += 1;
                snapshot = (model.clone(), checkpoints);
            }
        }

        holds_model(&mut fs, &model, &handles, checkpoints)?;
        // Every file deleted, checkpoints too, one garbage pass frees
        // every segment but those its own checkpoint names.
        let files: Vec<FileId> = fs.pnodes_iter().map(|p| p.id).collect();
        for id in files {
            fs.delete(id).unwrap();
        }
        clean_garbage_file(&mut fs).unwrap();
        prop_assert!(fs.used_segments() <= named_segments(&fs));
    }
}

/// A step of [`every_read_path_returns_what_read_into_returns`].
#[derive(Debug, Clone)]
enum Step {
    Append {
        file: usize,
        len: usize,
        tag: u8,
    },
    Overwrite {
        file: usize,
        len: usize,
        tag: u8,
    },
    Delete {
        file: usize,
    },
    Sync,
    Clean,
    /// Fails data disk `disk` unless one is already down.
    Fail {
        disk: usize,
    },
    /// Replaces and rebuilds the failed disk, if any.
    Rebuild,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0usize..4, 1usize..400_000, any::<u8>())
            .prop_map(|(file, len, tag)| Step::Append { file, len, tag }),
        2 => (0usize..4, 1usize..400_000, any::<u8>())
            .prop_map(|(file, len, tag)| Step::Overwrite { file, len, tag }),
        1 => (0usize..4).prop_map(|file| Step::Delete { file }),
        2 => Just(Step::Sync),
        2 => Just(Step::Clean),
        1 => (0..DATA_DISKS).prop_map(|disk| Step::Fail { disk }),
        1 => Just(Step::Rebuild),
    ]
}

fn concat(views: &[FrameView]) -> Vec<u8> {
    views.iter().flat_map(|v| v.iter().copied()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_read_path_returns_what_read_into_returns(
        steps in proptest::collection::vec(step_strategy(), 1..20),
    ) {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        // Two files of each class, so both open segments fill.
        let classes = [FileClass::Normal, FileClass::Continuous];
        let mut files: Vec<Option<FileId>> =
            (0..4).map(|i| Some(fs.create(classes[i % 2]))).collect();
        let mut model: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let mut failed = None;
        let arena = Arena::new();
        for step in steps {
            match step {
                Step::Append { file, len, tag } => {
                    if let Some(id) = files[file] {
                        fs.append(id, &content(len, tag)).unwrap();
                        model[file].extend_from_slice(&content(len, tag));
                    }
                }
                Step::Overwrite { file, len, tag } => {
                    if let Some(id) = files[file] {
                        fs.overwrite(id, &content(len, tag)).unwrap();
                        model[file] = content(len, tag);
                    }
                }
                Step::Delete { file } => {
                    if let Some(id) = files[file].take() {
                        fs.delete(id).unwrap();
                    }
                }
                Step::Sync => fs.sync().unwrap(),
                Step::Clean => {
                    clean_garbage_file(&mut fs).unwrap();
                }
                Step::Fail { disk } => {
                    if failed.is_none() {
                        fs.raid_mut().disk_mut(disk).fail();
                        failed = Some(disk);
                    }
                }
                Step::Rebuild => {
                    if let Some(disk) = failed.take() {
                        fs.raid_mut().disk_mut(disk).replace();
                        fs.raid_mut().rebuild_disk(disk).unwrap();
                    }
                }
            }
            // Every live file, whole and cut, on every path, each read
            // held to `read_into` and `read_into` to the model. A fresh
            // cache each time, since the tier holds titles immutable;
            // its chunks straddle disk pages, and each range is read
            // twice, cold and then hot.
            let mut cache = TieredCache::new(TierConfig {
                hot_chunks: 4,
                warm_chunks: 4,
                chunk_bytes: 40_000,
                warm_chunk_ns: 50_000,
            });
            for (id, bytes) in files.iter().zip(&model) {
                let Some(id) = *id else { continue };
                let size = bytes.len();
                for (off, len) in [(0, size), (size / 3, size / 3), (size / 2, size - size / 2)] {
                    let mut want = Vec::new();
                    fs.read_into(id, off as u64, len, &mut want).unwrap();
                    prop_assert!(want == bytes[off..off + len], "read_into {:?}", id);
                    let leased = fs.read_leased(id, off as u64, len, &arena).unwrap();
                    prop_assert!(*leased == want[..], "read_leased {:?} [{}, +{})", id, off, len);
                    for pass in ["cold", "hot"] {
                        let mut out = Vec::new();
                        cache.read(&mut fs, id, off as u64, len as u64, &mut out).unwrap();
                        prop_assert!(
                            concat(&out) == want,
                            "{} tier read {:?} [{}, +{})", pass, id, off, len
                        );
                    }
                }
            }
        }
    }
}
