//! The `pfs-vcr` workload: one storage script on `pegasus_pfs` directly,
//! with the disks keeping what is written so every read is checked
//! against the bytes that went in. Writes run beside reads beside
//! cleaning, so a read win paid for by the cleaner shows.

use pegasus_pfs::checkpoint::{recover, write_checkpoint};
use pegasus_pfs::cleaner::clean_garbage_file;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::arena::Arena;
use pegasus_sim::rng::seeded;
use pegasus_sim::time::{MS, SEC};
use rand::Rng;

use crate::metrics::Values;
use crate::trace::Tracer;

const FILES: usize = 16;
const FILE_BYTES: usize = 4 << 20;
/// Size of every append and every read.
const IO_BYTES: usize = 64 << 10;
const CM_STREAMS: usize = 64;
const CM_PERIODS: u64 = 31;
/// Long enough for the worst period to fit. Sixty-four streams taking
/// turns over eight titles want 24 chunks resident (one playing and two
/// prefetched per title); the hot tier holds 8 and the warm tier 16 of
/// the survivors' 32, so about a fifth of the demand reads go cold, and
/// the interleaved appends left each 1 MiB chunk spread over several
/// log segments, a stripe read each.
const CM_PERIOD: u64 = 16 * SEC;
/// Per-stream rate that plays a whole file out in [`CM_PERIODS`].
const CM_RATE: u64 = (FILE_BYTES as u64 * SEC / CM_PERIOD).div_ceil(CM_PERIODS);

/// The bytes of every file, made from the seed during set-up. Only the
/// contents depend on the seed: sizes, order of operations, and so the
/// simulated disk time, do not.
pub fn generate(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = seeded(seed);
    (0..FILES)
        .map(|_| {
            let mut bytes = vec![0u8; FILE_BYTES];
            rng.fill_bytes(&mut bytes);
            bytes
        })
        .collect()
}

/// What one run of the script produced.
pub struct Outcome {
    /// Simulated metrics and `pfs.*` counts.
    pub counts: Values,
    /// Checks the run broke; empty when all held.
    pub failures: Vec<String>,
    /// Every deterministic output of the script on one line: equal
    /// between two operations exactly when they did the same thing.
    pub digest: String,
}

/// Walks every file in `files` in [`IO_BYTES`] pieces, asks `matches`
/// whether reading that piece back gives the bytes that were written,
/// and returns how many pieces did not.
fn mismatches(
    files: &[(FileId, &Vec<u8>)],
    mut matches: impl FnMut(FileId, u64, &[u8]) -> bool,
) -> usize {
    let mut bad = 0;
    for &(file, want) in files {
        for off in (0..want.len()).step_by(IO_BYTES) {
            bad += usize::from(!matches(file, off as u64, &want[off..off + IO_BYTES]));
        }
    }
    bad
}

/// Runs the script once. Each phase is a span when `tr` is on.
pub fn run(data: &[Vec<u8>], tr: &mut Tracer) -> Outcome {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("pfs-vcr: {what}"));
        }
    };
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let files: Vec<FileId> = data
        .iter()
        .map(|_| fs.create(FileClass::Continuous))
        .collect();
    let all: Vec<(FileId, &Vec<u8>)> = files.iter().copied().zip(data).collect();
    let mut buf = Vec::new();

    tr.span("pfs.append", |_| {
        for off in (0..FILE_BYTES).step_by(IO_BYTES) {
            for &(file, bytes) in &all {
                fs.append(file, &bytes[off..off + IO_BYTES])
                    .expect("append");
            }
        }
        fs.sync().expect("sync");
    });
    tr.span("pfs.checkpoint", |_| {
        write_checkpoint(&mut fs).expect("checkpoint");
    });
    let bad = tr.span("pfs.read_into", |_| {
        mismatches(&all, |file, off, want| {
            fs.read_into(file, off, IO_BYTES, &mut buf).is_ok() && buf == want
        })
    });
    check(bad == 0, "read_into returned other bytes than were written");
    let arena = Arena::new();
    let bad = tr.span("pfs.read_leased", |_| {
        mismatches(&all, |file, off, want| {
            fs.read_leased(file, off, IO_BYTES, &arena)
                .is_ok_and(|lease| *lease == *want)
        })
    });
    check(
        bad == 0,
        "read_leased returned other bytes than were written",
    );

    let survivors: Vec<(FileId, &Vec<u8>)> = all.iter().copied().step_by(2).collect();
    for &(file, _) in all.iter().skip(1).step_by(2) {
        fs.delete(file).expect("delete");
    }
    let cleaned = tr.span("pfs.clean", |_| clean_garbage_file(&mut fs).expect("clean"));
    let mut verify = |fs: &mut LogFs, tr: &mut Tracer| {
        tr.span("pfs.verify", |_| {
            mismatches(&survivors, |file, off, want| {
                fs.read_into(file, off, IO_BYTES, &mut buf).is_ok() && buf == want
            })
        })
    };
    let bad = verify(&mut fs, tr);
    check(bad == 0, "the cleaner changed a surviving file");
    tr.span("pfs.recover", |_| {
        let cp = write_checkpoint(&mut fs).expect("checkpoint");
        fs.amnesia(cp);
        recover(&mut fs, cp).expect("recover");
    });
    let bad = verify(&mut fs, tr);
    check(bad == 0, "recovery changed a surviving file");

    let mut cm = CmScheduler::new(CM_PERIOD, CM_RATE * CM_STREAMS as u64 * 2);
    cm.set_max_streams(CM_STREAMS);
    let mut cache = TieredCache::new(TierConfig {
        hot_chunks: 8,
        warm_chunks: 16,
        ..TierConfig::default()
    });
    for i in 0..CM_STREAMS {
        let file = survivors[i % survivors.len()].0;
        cm.admit(file, CM_RATE, 0).expect("admit stream");
        cache.register_stream(file, CM_RATE);
    }
    let played = tr.span("pfs.cm_tiered", |_| {
        cm.run_periods_tiered(&mut fs, &mut cache, CM_PERIODS)
            .expect("CM play-out")
    });
    check(played.missed == 0, "a CM period missed its deadline");
    check(
        played.bytes_delivered == (CM_STREAMS * FILE_BYTES) as u64,
        "the CM streams did not play every file to its end",
    );

    let tiers = cache.stats();
    let mut counts = Values::default();
    counts.set("sim_disk_io_s", fs.io_time as f64 / SEC as f64);
    counts.set("pfs.bytes_appended", fs.stats.bytes_written as f64);
    counts.set("pfs.bytes_read", fs.stats.bytes_read as f64);
    counts.set("pfs.segments_cleaned", cleaned.segments_cleaned as f64);
    counts.set("pfs.live_bytes_moved", cleaned.live_bytes_moved as f64);
    counts.set("pfs.cm_periods", played.periods as f64);
    counts.set("pfs.tier_hot_milli", tiers.hot_milli() as f64);
    counts.set("pfs.tier_warm_milli", tiers.warm_milli() as f64);
    let digest = format!(
        "io_time_ns={} stats={:?} cleaned={cleaned:?} played={played:?} tiers={tiers:?} \
         period_ms={} failures={failures:?}",
        fs.io_time,
        fs.stats,
        CM_PERIOD / MS,
    );
    Outcome {
        counts,
        failures,
        digest,
    }
}
