//! E21 — Tiered content cache vs. raw log-store reads under Zipf load.
//!
//! The §5 pathology bench: a population of CM streams draws titles
//! under a Zipf popularity law and plays them through the CM scheduler
//! for several service periods — once straight off the log store, once
//! through the tiered cache — on byte-identical workloads and fresh
//! file systems. Each lane records the disk-time ratio
//! (`io_reduction`); the sweep over α ∈ {0.0, 0.5, 1.0} shows the
//! cache's advantage growing with popularity skew. Virtual time, so
//! the table is the same on every host; the α = 1.0 lane's ≥ 2× is a
//! `cargo test` floor
//! (`cm::tests::zipf_viewers_halve_disk_time_through_a_cache_half_the_catalogue`).

use pegasus_bench::{banner, row};
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TierStats, TieredCache};
use pegasus_sim::rng::seeded;
use pegasus_sim::time::MS;
use rand::rngs::SmallRng;
use rand::Rng;

const TITLES: usize = 12;
const TITLE_SEGMENTS: usize = 4; // 4 MiB per title
const VIEWERS: usize = 48;
const PERIODS: u64 = 6;
const RATE: u64 = 1_000_000; // bytes/second per stream
const PERIOD: u64 = 500 * MS;
const ALPHAS: [u64; 3] = [0, 500, 1000];

fn zipf_pick(rng: &mut SmallRng, alpha_milli: u64) -> usize {
    let alpha = alpha_milli as f64 / 1000.0;
    let weights: Vec<f64> = (0..TITLES)
        .map(|k| 1.0 / ((k + 1) as f64).powf(alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return k;
        }
        u -= *w;
    }
    TITLES - 1
}

fn fresh_fs() -> (LogFs, Vec<FileId>) {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    fs.raid_mut().set_store(false);
    let mut files = Vec::with_capacity(TITLES);
    for _ in 0..TITLES {
        let id = fs.create(FileClass::Continuous);
        for _ in 0..TITLE_SEGMENTS {
            fs.append(id, &vec![0u8; SEGMENT_BYTES]).expect("prerecord");
        }
        files.push(id);
    }
    fs.sync().expect("prerecord sync");
    (fs, files)
}

/// Plays the viewer population for [`PERIODS`] service periods and
/// returns the disk clock, with the cache's stats when one was used.
fn play(picks: &[usize], cached: bool) -> (u64, Option<TierStats>) {
    let (mut fs, files) = fresh_fs();
    let mut cm = CmScheduler::new(PERIOD, RATE * VIEWERS as u64 * 2 + 1_000_000);
    cm.set_max_streams(VIEWERS);
    // A cache deliberately smaller than the catalogue (24 chunks
    // against 48): with room for everything, every α measures the same
    // thing. Scarcity is what makes popularity skew show up as disk
    // time.
    let mut cache = cached.then(|| {
        TieredCache::new(TierConfig {
            hot_chunks: 8,
            warm_chunks: 16,
            ..TierConfig::default()
        })
    });
    for &title in picks {
        cm.admit(files[title], RATE, 0).expect("admit");
        if let Some(c) = &mut cache {
            c.register_stream(files[title], RATE);
        }
    }
    match &mut cache {
        Some(c) => {
            cm.run_periods_tiered(&mut fs, c, PERIODS).expect("replay");
            (fs.io_time, Some(c.stats()))
        }
        None => {
            cm.run_periods(&mut fs, PERIODS).expect("replay");
            (fs.io_time, None)
        }
    }
}

fn main() {
    banner(
        "E21",
        "tiered cache vs raw log reads: Zipf alpha sweep, cached and uncached lanes",
        "ISSUE 'LRU continuous-media pathology' — disk time divided, not description",
    );
    row(&[
        ("titles", format!("{TITLES} x {TITLE_SEGMENTS} MiB")),
        ("viewers", format!("{VIEWERS}")),
        ("periods", format!("{PERIODS}")),
    ]);

    for alpha_milli in ALPHAS {
        // One title draw per viewer, shared by both lanes: the cached
        // and uncached runs replay the *same* workload.
        let mut rng = seeded(42 + alpha_milli);
        let picks: Vec<usize> = (0..VIEWERS)
            .map(|_| zipf_pick(&mut rng, alpha_milli))
            .collect();
        let (io_uncached_ns, _) = play(&picks, false);
        let (io_cached_ns, stats) = play(&picks, true);
        let stats = stats.expect("cached lane has stats");
        let io_reduction = io_uncached_ns as f64 / io_cached_ns.max(1) as f64;
        row(&[
            (
                &format!("alpha{:.1}", alpha_milli as f64 / 1000.0),
                format!("disk {io_uncached_ns} -> {io_cached_ns} ns"),
            ),
            ("reduction", format!("{io_reduction:.2}x")),
            (
                "tiers",
                format!("hot {}‰ warm {}‰", stats.hot_milli(), stats.warm_milli()),
            ),
        ]);
        if alpha_milli == 1000 {
            row(&[("reduction @ alpha 1.0", format!("{io_reduction:.2}x"))]);
        }
    }
    println!(
        "expect: io_reduction grows with alpha; >=2.0x at alpha 1.0 (a cargo test floor) — \
         the tiers absorb the Zipf head the log store would otherwise re-read per viewer"
    );
}
