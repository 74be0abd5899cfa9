//! The profiling examples' `pfs` target: one storage operation on
//! `pegasus_pfs` directly, the benchmark's `pfs-vcr` script step for
//! step. Shared (by `#[path]`) between `sigprof` and `livebytes`.

use pegasus_pfs::checkpoint::{recover, write_checkpoint};
use pegasus_pfs::cleaner::clean_garbage_file;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::arena::Arena;
use pegasus_sim::rng::seeded;
use pegasus_sim::time::SEC;
use rand::Rng;

const FILES: usize = 16;
const FILE_BYTES: usize = 4 << 20;
/// Size of every append and every read.
const IO_BYTES: usize = 64 << 10;
const CM_STREAMS: usize = 64;
const CM_PERIODS: u64 = 31;
const CM_PERIOD: u64 = 16 * SEC;
/// Per-stream rate that plays a whole file out in [`CM_PERIODS`].
const CM_RATE: u64 = (FILE_BYTES as u64 * SEC / CM_PERIOD).div_ceil(CM_PERIODS);

/// The bytes of the sixteen files, made once from a fixed seed and kept
/// outside the operation, as the benchmark makes them during set-up.
pub fn pfs_data() -> Vec<Vec<u8>> {
    let mut rng = seeded(7);
    (0..FILES)
        .map(|_| {
            let mut bytes = vec![0u8; FILE_BYTES];
            rng.fill_bytes(&mut bytes);
            bytes
        })
        .collect()
}

/// Walks every file in `files` in [`IO_BYTES`] pieces and asserts that
/// `matches` finds each piece reads back as the bytes that were written.
fn check_all(
    files: &[(FileId, &Vec<u8>)],
    what: &str,
    mut matches: impl FnMut(FileId, u64, &[u8]) -> bool,
) {
    for &(file, want) in files {
        for off in (0..want.len()).step_by(IO_BYTES) {
            assert!(
                matches(file, off as u64, &want[off..off + IO_BYTES]),
                "{what} returned other bytes than were written"
            );
        }
    }
}

/// One operation, on disks that keep what is written: `data` appended
/// in interleaved 64 KiB pieces and checkpointed, read back through
/// both read paths, every other file deleted and the garbage cleaned,
/// the file system recovered from a checkpoint, then 64 streams played
/// out through the tiered cache (8 hot, 16 warm chunks) for 31 periods.
/// Returns the simulated disk time.
pub fn pfs_op(data: &[Vec<u8>]) -> u64 {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let files: Vec<FileId> = data
        .iter()
        .map(|_| fs.create(FileClass::Continuous))
        .collect();
    let all: Vec<(FileId, &Vec<u8>)> = files.iter().copied().zip(data).collect();
    for off in (0..FILE_BYTES).step_by(IO_BYTES) {
        for &(file, bytes) in &all {
            fs.append(file, &bytes[off..off + IO_BYTES])
                .expect("append");
        }
    }
    fs.sync().expect("sync");
    write_checkpoint(&mut fs).expect("checkpoint");
    let mut buf = Vec::new();
    let mut read_into = |fs: &mut LogFs, file, off, want: &[u8]| {
        fs.read_into(file, off, IO_BYTES, &mut buf).expect("read");
        buf == want
    };
    check_all(&all, "read_into", |file, off, want| {
        read_into(&mut fs, file, off, want)
    });
    let arena = Arena::new();
    check_all(&all, "read_leased", |file, off, want| {
        *fs.read_leased(file, off, IO_BYTES, &arena).expect("read") == *want
    });

    let survivors: Vec<(FileId, &Vec<u8>)> = all.iter().copied().step_by(2).collect();
    for &(file, _) in all.iter().skip(1).step_by(2) {
        fs.delete(file).expect("delete");
    }
    clean_garbage_file(&mut fs).expect("clean");
    check_all(&survivors, "the cleaned file system", |file, off, want| {
        read_into(&mut fs, file, off, want)
    });
    let cp = write_checkpoint(&mut fs).expect("checkpoint");
    fs.amnesia(cp);
    recover(&mut fs, cp).expect("recover");
    check_all(
        &survivors,
        "the recovered file system",
        |file, off, want| read_into(&mut fs, file, off, want),
    );

    let mut cm = CmScheduler::new(CM_PERIOD, CM_RATE * CM_STREAMS as u64 * 2);
    cm.set_max_streams(CM_STREAMS);
    let mut cache = TieredCache::new(TierConfig {
        hot_chunks: 8,
        warm_chunks: 16,
        ..TierConfig::default()
    });
    for i in 0..CM_STREAMS {
        let file = survivors[i % survivors.len()].0;
        cm.admit(file, CM_RATE, 0).expect("admit");
        cache.register_stream(file, CM_RATE);
    }
    let played = cm
        .run_periods_tiered(&mut fs, &mut cache, CM_PERIODS)
        .expect("CM play-out");
    assert_eq!(played.missed, 0, "a CM period missed its deadline");
    assert_eq!(played.bytes_delivered, (CM_STREAMS * FILE_BYTES) as u64);
    fs.io_time
}
