//! E10 — The single address space removes virtual-cache aliases at
//! context switch; a relocation cache amortizes load-time relocation (§3.1).

use pegasus_nemesis::mem::{aliased_switch, ImageLoader, SINGLE_AS_SWITCH};
use pegasus_sim::time::{fmt_ns, US};
use crate::{Claim, Result};

pub fn claim() -> Result<Claim> {
    let single = SINGLE_AS_SWITCH;
    let mut rows = Vec::new();
    let mut aliased = Vec::new();
    for dirty in [0.1f64, 0.5, 1.0] {
        let a = aliased_switch(dirty);
        rows.push(format!(
            "dirty cache fraction={dirty:.1}  aliased (per-process AS)={}  single AS={}  \
             saving={:.1}x",
            fmt_ns(a),
            fmt_ns(single),
            a as f64 / single as f64
        ));
        aliased.push(a);
    }

    // Relocation cache: a day of running the same 30 applications.
    let mut loader = ImageLoader::new();
    let apps: Vec<String> = (0..30).map(|i| format!("app-{i}")).collect();
    let mut total_cost = 0u64;
    let launches = 500;
    for i in 0..launches {
        let app = &apps[(i * 7) % apps.len()];
        total_cost += loader.load(app, 4 << 20).cost;
    }
    let hit_rate = loader.hits as f64 / launches as f64;
    rows.push(format!(
        "image launches={launches}  relocation-cache hits={}  full relocations={}  hit rate={:.1}%  \
         mean load cost={}",
        loader.hits,
        loader.misses,
        100.0 * loader.hits as f64 / launches as f64,
        fmt_ns(total_cost / launches as u64)
    ));
    Ok(Claim {
        id: "E10",
        title: "context-switch cost and relocation-cache hit rate",
        anchor: "§3.1 memory model",
        expected_shape: "aliased switches cost tens of µs vs a flat 3 µs; relocation hit rate \
            ≈ 94% (93–95) makes the single-AS penalty negligible",
        rows,
        measured: format!(
            "aliased {}–{} vs {}; hit rate {:.1}%",
            fmt_ns(aliased[0]),
            fmt_ns(aliased[2]),
            fmt_ns(single),
            hit_rate * 100.0
        ),
        holds: aliased.iter().all(|a| (10 * US..100 * US).contains(a))
            && single == 3 * US
            && (0.93..=0.95).contains(&hit_rate),
    })
}
