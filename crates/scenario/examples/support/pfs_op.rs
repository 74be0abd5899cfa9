//! The profiling examples' `pfs` target: one storage operation on
//! `pegasus_pfs` directly, in the shape of the benchmark's `pfs-vcr`.
//! Shared (by `#[path]`) between `sigprof` and `livebytes`.

use pegasus_pfs::cleaner::clean_garbage_file;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::time::SEC;

/// One operation, on disks that keep what is written: six files
/// appended in interleaved 64 KiB pieces, read back in 64 KiB pieces,
/// every other one deleted and the garbage cleaned, then the survivors
/// played out through the tiered cache. Returns the simulated disk time.
pub fn pfs_op() -> u64 {
    const PIECE: usize = 64 << 10;
    const FILE_BYTES: usize = 4 << 20;
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let files: Vec<FileId> = (0..6).map(|_| fs.create(FileClass::Continuous)).collect();
    let piece: Vec<u8> = (0..PIECE).map(|i| (i * 31) as u8).collect();
    for _ in (0..FILE_BYTES).step_by(PIECE) {
        for &file in &files {
            fs.append(file, &piece).expect("append");
        }
    }
    fs.sync().expect("sync");
    let mut buf = Vec::new();
    for &file in &files {
        for off in (0..FILE_BYTES).step_by(PIECE) {
            fs.read_into(file, off as u64, PIECE, &mut buf)
                .expect("read");
            assert!(
                buf == piece,
                "read_into returned other bytes than were written"
            );
        }
    }
    for &file in files.iter().skip(1).step_by(2) {
        fs.delete(file).expect("delete");
    }
    clean_garbage_file(&mut fs).expect("clean");
    let (period, periods, streams) = (16 * SEC, 16, 24);
    let rate = (FILE_BYTES as u64 * SEC / period).div_ceil(periods);
    let mut cm = CmScheduler::new(period, rate * streams * 2);
    let mut cache = TieredCache::new(TierConfig {
        hot_chunks: 3,
        warm_chunks: 6,
        ..TierConfig::default()
    });
    for i in 0..streams as usize {
        let file = files[i % 3 * 2];
        cm.admit(file, rate, 0).expect("admit");
        cache.register_stream(file, rate);
    }
    let played = cm
        .run_periods_tiered(&mut fs, &mut cache, periods)
        .expect("CM play-out");
    assert_eq!(played.bytes_delivered, streams * FILE_BYTES as u64);
    fs.io_time
}
