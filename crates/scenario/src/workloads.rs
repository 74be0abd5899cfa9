//! The four workloads of the repository benchmark, defined once: what
//! each one feeds the program, and what must hold of what comes back.
//!
//! `metro-steady`, `front-door` and `control-3x` are scenario specs cut
//! from the presets ([`spec`]); an operation is one run from spec to
//! canonical JSON, and [`failures`] lists the checks its report broke.
//! `pfs-vcr` is one storage script on `pegasus_pfs` alone ([`pfs_vcr`]
//! over the files of [`pfs_vcr_data`]), which counts its own failures.
//! The checks are properties of any correct run, not golden values, so
//! a report that grows new blocks still passes them.
//!
//! The benchmark (`benchmark/`) and the profiling examples
//! (`examples/sigprof.rs`, `examples/livebytes.rs`) run these.

use std::error::Error;

use pegasus_pfs::checkpoint::{recover, write_checkpoint};
use pegasus_pfs::cleaner::{clean_garbage_file, CleanReport};
use pegasus_pfs::cm::{CmReport, CmScheduler};
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, FsStats, LogFs};
use pegasus_pfs::tier::{TierConfig, TierStats, TieredCache};
use pegasus_sim::arena::Arena;
use pegasus_sim::rng::seeded;
use pegasus_sim::time::{Ns, MS, SEC};
use rand::Rng;

use crate::spec::Arrival;
use crate::{presets, ScenarioReport, ScenarioSpec};

/// The workloads, in the benchmark's order.
pub const NAMES: [&str; 4] = ["metro-steady", "front-door", "control-3x", "pfs-vcr"];

/// Sessions `front-door` must admit: its CPU ledger holds exactly this
/// many at the preset's 300 micro-CPUs each.
const FRONT_DOOR_ADMITTED: u64 = 150;

/// The spec of a scenario workload at `seed`; `None` for `pfs-vcr` and
/// for any other name. Nothing but `spec.seed` depends on the seed.
/// Sizes are set so that one operation takes about a second on the
/// benchmark's reference host, which lets a run hold many operations.
pub fn spec(name: &str, seed: u64) -> Option<ScenarioSpec> {
    let spec = match name {
        "metro-steady" => {
            // Half the city for a third of the time, arrivals over the
            // first third as in the preset.
            let mut spec = presets::metropolis_1k().scale_sessions(0.5);
            spec.duration = 100 * MS;
            spec.arrival = Arrival::Uniform { window: 33 * MS };
            spec
        }
        "front-door" => {
            let mut spec = presets::metropolis_100k();
            spec.sessions = 8_000;
            spec.broker.cpu_capacity_micro =
                FRONT_DOOR_ADMITTED * spec.broker.cpu_per_session_micro;
            spec
        }
        // Four times the preset's sessions: every one of 1,399 seeds tried
        // stalls credits and renegotiates down. At eight times, one seed
        // in forty admits so many that nothing ever renegotiates.
        "control-3x" => presets::sustained_3x().scale_sessions(4.0),
        _ => return None,
    };
    Some(spec.with_seed(seed))
}

/// The checks a scenario workload's `report` of `spec` broke, each
/// named `"<name>: <what>"`; empty when all held.
pub fn failures(name: &str, spec: &ScenarioSpec, report: &ScenarioReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("{name}: {what}"));
        }
    };
    let b = &report.broker;
    let requested = report.sessions.0 + report.sessions.1 + report.sessions.2;
    check(
        b.admitted + b.degraded + b.rejected == spec.sessions as u64
            && requested == spec.sessions as u64,
        "admitted + degraded + rejected != sessions",
    );
    check(report.deadline_misses == 0, "deadline_misses != 0");
    match name {
        "front-door" => check(
            b.admitted + b.degraded == FRONT_DOOR_ADMITTED,
            "front-door did not admit exactly 150",
        ),
        "control-3x" => {
            let bp = &report.backpressure;
            let stalls = bp.credit_stalls.0 + bp.credit_stalls.1 + bp.credit_stalls.2;
            check(stalls > 0, "no credit stalled");
            check(bp.renegotiations_down > 0, "no session renegotiated down");
            check(
                report.cells.dropped_overflow == 0,
                "cells dropped to overflow under credit backpressure",
            );
        }
        _ => {}
    }
    failures
}

const FILES: usize = 16;
const FILE_BYTES: usize = 4 << 20;
/// Size of every append and every read.
const IO_BYTES: usize = 64 << 10;
const CM_STREAMS: usize = 64;
const CM_PERIODS: u64 = 31;
/// Long enough for the worst period to fit. Sixty-four streams taking
/// turns over eight titles want 24 chunks resident (one playing and two
/// prefetched per title); the cache ([`CM_CACHE_CHUNKS`]) holds 8 hot
/// and 16 warm of the survivors' 32, so about a fifth of the demand
/// reads go cold, and the interleaved appends left each 1 MiB chunk
/// spread over several log segments, a stripe read each.
const CM_PERIOD: Ns = 16 * SEC;
/// Per-stream rate that plays a whole file out in [`CM_PERIODS`].
const CM_RATE: u64 = (FILE_BYTES as u64 * SEC / CM_PERIOD).div_ceil(CM_PERIODS);
/// The play-out's tiered cache: hot and warm capacity, in chunks.
const CM_CACHE_CHUNKS: (usize, usize) = (8, 16);

/// A timing hook around each phase of [`pfs_vcr`]. The phases are
/// named as the benchmark's spans: `pfs.append`, `pfs.checkpoint`,
/// `pfs.read_into`, `pfs.read_leased`, `pfs.clean`, `pfs.verify` (twice),
/// `pfs.recover` and `pfs.cm_tiered`. `()` times nothing.
pub trait Phases {
    /// Runs `f`, the phase called `name`, and returns what it returns.
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

impl Phases for () {
    fn phase<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Every deterministic output of one [`pfs_vcr`] run: two runs on the
/// same data did the same thing exactly when these are equal.
#[derive(Debug)]
pub struct PfsVcr {
    /// Simulated disk time of the whole script.
    pub io_time: Ns,
    /// The file system's counters at the end.
    pub stats: FsStats,
    /// What the cleaner did.
    pub cleaned: CleanReport,
    /// What the continuous-media play-out did.
    pub played: CmReport,
    /// The play-out cache's hits and misses.
    pub tiers: TierStats,
    /// The checks the run broke, each named `"pfs-vcr: <what>"`; empty
    /// when all held.
    pub failures: Vec<String>,
}

/// The bytes of `pfs-vcr`'s sixteen 4 MiB files. Only [`pfs_vcr_data`]
/// makes them, so the script's slicing always fits.
pub struct PfsVcrData(Vec<Vec<u8>>);

/// The files of `pfs-vcr`, made from `seed`. Only the contents depend
/// on the seed: sizes, the order of operations and so the simulated
/// disk time do not.
pub fn pfs_vcr_data(seed: u64) -> PfsVcrData {
    let mut rng = seeded(seed);
    let files = (0..FILES).map(|_| {
        let mut bytes = vec![0u8; FILE_BYTES];
        rng.fill_bytes(&mut bytes);
        bytes
    });
    PfsVcrData(files.collect())
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

/// The `pfs-vcr` script, once, on disks that keep what is written, so
/// every read is checked against the bytes that went in: the files
/// appended in interleaved 64 KiB pieces and checkpointed, read back
/// through both read paths, every other file deleted and the garbage
/// cleaned, the file system recovered from a checkpoint, then 64
/// streams played out through the tiered cache for 31 periods. Writes
/// run beside reads beside cleaning, so a read win paid for by the
/// cleaner shows. A read that returns other bytes is counted in
/// [`PfsVcr::failures`]; an error from the file system ends the run.
pub fn pfs_vcr<P: Phases>(data: &PfsVcrData, ph: &mut P) -> Result<PfsVcr, Box<dyn Error>> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("pfs-vcr: {what}"));
        }
    };
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let files: Vec<FileId> = data
        .0
        .iter()
        .map(|_| fs.create(FileClass::Continuous))
        .collect();
    let all: Vec<(FileId, &Vec<u8>)> = files.iter().copied().zip(&data.0).collect();
    let mut buf = Vec::new();

    ph.phase("pfs.append", || {
        for off in (0..FILE_BYTES).step_by(IO_BYTES) {
            for &(file, bytes) in &all {
                fs.append(file, &bytes[off..off + IO_BYTES])?;
            }
        }
        fs.sync()
    })?;
    ph.phase("pfs.checkpoint", || write_checkpoint(&mut fs))?;
    let bad = ph.phase("pfs.read_into", || {
        mismatches(&all, |file, off, want| {
            fs.read_into(file, off, IO_BYTES, &mut buf).is_ok() && buf == want
        })
    });
    check(bad == 0, "read_into returned other bytes than were written");
    let arena = Arena::new();
    let bad = ph.phase("pfs.read_leased", || {
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
        fs.delete(file)?;
    }
    let cleaned = ph.phase("pfs.clean", || clean_garbage_file(&mut fs))?;
    let mut verify = |fs: &mut LogFs, ph: &mut P| {
        ph.phase("pfs.verify", || {
            mismatches(&survivors, |file, off, want| {
                fs.read_into(file, off, IO_BYTES, &mut buf).is_ok() && buf == want
            })
        })
    };
    let bad = verify(&mut fs, ph);
    check(bad == 0, "the cleaner changed a surviving file");
    ph.phase("pfs.recover", || {
        let cp = write_checkpoint(&mut fs)?;
        fs.amnesia(cp);
        recover(&mut fs, cp)
    })?;
    let bad = verify(&mut fs, ph);
    check(bad == 0, "recovery changed a surviving file");

    let mut cm = CmScheduler::new(CM_PERIOD, CM_RATE * CM_STREAMS as u64 * 2);
    cm.set_max_streams(CM_STREAMS);
    let mut cache = TieredCache::new(TierConfig {
        hot_chunks: CM_CACHE_CHUNKS.0,
        warm_chunks: CM_CACHE_CHUNKS.1,
        ..TierConfig::default()
    });
    for i in 0..CM_STREAMS {
        let file = survivors[i % survivors.len()].0;
        cm.admit(file, CM_RATE, 0)?;
        cache.register_stream(file, CM_RATE);
    }
    let played = ph.phase("pfs.cm_tiered", || {
        cm.run_periods_tiered(&mut fs, &mut cache, CM_PERIODS)
    })?;
    check(played.missed == 0, "a CM period missed its deadline");
    check(
        played.bytes_delivered == (CM_STREAMS * FILE_BYTES) as u64,
        "the CM streams did not play every file to its end",
    );
    Ok(PfsVcr {
        io_time: fs.io_time,
        stats: fs.stats.clone(),
        cleaned,
        played,
        tiers: cache.stats(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    /// FNV-1a-64, the benchmark's `sim_fingerprint` of an operation's
    /// output.
    fn fingerprint(bytes: &[u8]) -> String {
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    }

    #[test]
    fn every_workload_but_the_storage_script_is_a_scenario() {
        for name in NAMES {
            assert_eq!(spec(name, 7).is_none(), name == "pfs-vcr", "{name}");
        }
        assert!(spec("smoke", 7).is_none());
        let door = spec("front-door", 7).unwrap();
        assert_eq!((door.seed, door.sessions), (7, 8_000));
        assert_eq!(door.broker.cpu_capacity_micro, 45_000);
        assert_eq!(spec("control-3x", 1).unwrap().sessions, 64);
        let metro = spec("metro-steady", 1).unwrap();
        assert_eq!((metro.sessions, metro.duration), (500, 100 * MS));
        assert!(matches!(metro.arrival, Arrival::Uniform { window } if window == 33 * MS));
    }

    /// The checks are live: a small real run passes them, and a report
    /// doctored to break each one is caught, by name.
    #[test]
    fn checks_pass_a_real_run_and_catch_a_broken_one() {
        let smoke = presets::smoke();
        let report = run(&smoke);
        assert_eq!(failures("metro-steady", &smoke, &report), [""; 0]);
        let broken = |name, spec: &ScenarioSpec, report: &ScenarioReport| {
            failures(name, spec, report)
                .iter()
                .map(|f| f.split_once(": ").unwrap().1.to_string())
                .collect::<Vec<_>>()
        };

        let mut late = report.clone();
        late.deadline_misses = 1;
        late.broker.rejected += 1;
        assert_eq!(
            broken("metro-steady", &smoke, &late),
            [
                "admitted + degraded + rejected != sessions",
                "deadline_misses != 0"
            ]
        );
        // smoke admits 8, not 150, and runs without backpressure.
        assert_eq!(
            broken("front-door", &smoke, &report),
            ["front-door did not admit exactly 150"]
        );
        assert_eq!(
            broken("control-3x", &smoke, &report),
            ["no credit stalled", "no session renegotiated down"]
        );
        let mut pressed = report.clone();
        pressed.backpressure.credit_stalls.1 = 1;
        pressed.backpressure.renegotiations_down = 1;
        assert_eq!(broken("control-3x", &smoke, &pressed), [""; 0]);
        pressed.cells.dropped_overflow = 1;
        assert_eq!(
            broken("control-3x", &smoke, &pressed),
            ["cells dropped to overflow under credit backpressure"]
        );
    }

    /// Each workload at seed 7 passes its checks and reproduces the
    /// `sim_fingerprint` the benchmark records for it: FNV-1a of the
    /// canonical JSON, or of `pfs-vcr`'s digest line. The storage
    /// script names each phase to its hook, in order.
    #[test]
    fn each_workload_reproduces_the_benchmark_fingerprint_at_seed_7() {
        let want = [
            ("metro-steady", "76f69d647901d5c2"),
            ("front-door", "eb42fc85bf27e36a"),
            ("control-3x", "50b3ee0998ceb176"),
        ];
        for (name, fp) in want {
            let spec = spec(name, 7).unwrap();
            let report = run(&spec);
            assert_eq!(failures(name, &spec, &report), [""; 0]);
            assert_eq!(
                fingerprint(report.to_json_canonical().as_bytes()),
                fp,
                "{name}"
            );
        }

        struct Names(Vec<&'static str>);
        impl Phases for Names {
            fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
                self.0.push(name);
                f()
            }
        }
        let mut names = Names(Vec::new());
        let out = pfs_vcr(&pfs_vcr_data(7), &mut names).unwrap();
        assert_eq!(out.failures, [""; 0]);
        assert_eq!(
            names.0,
            [
                "pfs.append",
                "pfs.checkpoint",
                "pfs.read_into",
                "pfs.read_leased",
                "pfs.clean",
                "pfs.verify",
                "pfs.recover",
                "pfs.verify",
                "pfs.cm_tiered"
            ]
        );
        let PfsVcr {
            io_time,
            stats,
            cleaned,
            played,
            tiers,
            failures,
        } = out;
        let digest = format!(
            "io_time_ns={io_time} stats={stats:?} cleaned={cleaned:?} played={played:?} \
             tiers={tiers:?} period_ms={} failures={failures:?}",
            CM_PERIOD / MS,
        );
        assert_eq!(fingerprint(digest.as_bytes()), "b88212c519070351");
    }
}
