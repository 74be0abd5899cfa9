//! E15 — LRU caching wins for ordinary data and is useless for video
//! longer than the cache; the rate-guaranteed path needs no cache (§5).

use crate::{log_fs, Claim, Result};
use pegasus_pfs::cache::LruCache;
use pegasus_pfs::cm::CmScheduler;
use pegasus_sim::time::SEC;

pub fn claim() -> Result<Claim> {
    // Hot ordinary-file working set (64-block set, 256-block cache).
    let mut cache = LruCache::new(256);
    for _round in 0..20 {
        for b in 0..64u32 {
            if cache.get(&b).is_none() {
                cache.put(b, ());
            }
        }
    }
    let hot = cache.hit_rate();
    let mut rows = vec![format!(
        "workload=ordinary hot set (64 blocks)  cache=256 blocks  hit rate={:.1}%",
        hot * 100.0
    )];

    // Sequential video, watched twice, various sizes around the cache.
    let mut larger = 0.0f64;
    for video_blocks in [128u32, 256, 512, 2048] {
        let mut cache = LruCache::new(256);
        for _pass in 0..2 {
            for b in 0..video_blocks {
                if cache.get(&b).is_none() {
                    cache.put(b, ());
                }
            }
        }
        rows.push(format!(
            "workload=video {video_blocks} blocks ×2  cache=256 blocks  hit rate={:.1}%",
            cache.hit_rate() * 100.0
        ));
        if video_blocks > 256 {
            larger = larger.max(cache.hit_rate());
        }
    }

    // What the paper does instead: admission-controlled guaranteed rate.
    let (mut fs, ids) = log_fs(1, 64)?;
    let mut sched = CmScheduler::new(SEC, 20_000_000);
    for _ in 0..4 {
        sched.admit(ids[0], 2_000_000, 0)?;
    }
    let report = sched.run_periods(&mut fs, 8)?;
    let delivered_mb = report.bytes_delivered as f64 / 1e6;
    rows.push(format!(
        "guaranteed streams=4 × 2 MB/s, uncached  periods={}  deadline misses={}  delivered \
         MB={delivered_mb:.0}",
        report.periods, report.missed
    ));
    Ok(Claim {
        id: "E15",
        title: "LRU hit rate: hot working set vs sequential video; guaranteed-rate path",
        anchor: "§5 'caching video and audio is usually not a good idea'",
        expected_shape: "hot-set hit rate > 90%; any video larger than the cache ~0% (< 1 %); \
            the rate-guaranteed path delivers its fixed rate with zero misses, no cache needed",
        rows,
        measured: format!(
            "hot set {:.1}%; larger videos ≤ {:.1}%; {} misses, {delivered_mb:.0} MB",
            hot * 100.0,
            larger * 100.0,
            report.missed
        ),
        holds: hot > 0.9
            && larger < 0.01
            && report.missed == 0
            && report.bytes_delivered == 4 * 2_000_000 * 8,
    })
}
