//! Golden-report snapshots: the committed JSON under `tests/golden/` is
//! the contract for every preset's report — admission outcomes, QoS
//! percentiles, cell accounting, all of it, byte for byte.
//!
//! Goldens store the *canonical* rendering
//! ([`ScenarioReport::to_json_canonical`]): what a faithful
//! re-implementation on another engine would print too — not the
//! `simulator` block (this engine's event count, this builder's
//! endpoints) and not the per-shard execution block, which depends on
//! `--shards`. So a data-path optimisation may execute fewer events
//! without a re-bless, and after a schema change
//! `scripts/golden_diff.sh` proves which keys moved.
//! That makes one committed file the contract for every shard count —
//! the CI gauntlet diffs `--shards 1` against `--shards 4` against
//! these same bytes.
//!
//! Any intentional change to the report format, the presets, the broker
//! policy or the engine's event ordering shows up here as a diff, which
//! is the point: reviewers see exactly what moved. To regenerate after
//! such a change:
//!
//! ```console
//! $ BLESS=1 cargo test -p pegasus-scenario --test golden_report
//! $ git diff crates/scenario/tests/golden/   # review what changed
//! ```
//!
//! Heavy presets are snapshotted at a CI-sized session scale (encoded
//! in the golden file's name, e.g. `metropolis-1k@0.05.json`) so the
//! debug-profile suite stays fast; the full-scale renditions are
//! exercised by `scripts/run_scenarios.sh --full`.

use std::fs;
use std::path::PathBuf;

use pegasus_scenario::{presets, run};

fn check(preset: &str, scale: f64) {
    let mut spec = presets::by_name(preset).expect("known preset");
    let mut name = format!("{preset}.json");
    if scale != 1.0 {
        spec = spec.scale_sessions(scale);
        name = format!("{preset}@{scale}.json");
    }
    let got = run(&spec).to_json_canonical();
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", &name]
        .iter()
        .collect();
    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with \
             BLESS=1 cargo test -p pegasus-scenario --test golden_report",
            path.display()
        )
    });
    assert!(
        got == want,
        "{preset} (scale {scale}) drifted from its golden report.\n\
         If the change is intentional, regenerate with\n\
         BLESS=1 cargo test -p pegasus-scenario --test golden_report\n\
         and review the diff.\n--- golden ---\n{want}\n--- got ---\n{got}"
    );
}

#[test]
fn golden_smoke() {
    check("smoke", 1.0);
}

#[test]
fn golden_videophone_wall() {
    check("videophone-wall", 0.25);
}

#[test]
fn golden_vod_rack() {
    check("vod-rack", 0.25);
}

#[test]
fn golden_tv_studio() {
    check("tv-studio", 0.5);
}

#[test]
fn golden_nemesis_storm() {
    check("nemesis-storm", 0.5);
}

#[test]
fn golden_metropolis_1k() {
    check("metropolis-1k", 0.05);
}

#[test]
fn golden_metropolis_100k() {
    check("metropolis-100k", 0.001);
}

#[test]
fn golden_overload_2x() {
    check("overload-2x", 1.0);
}

#[test]
fn golden_flash_crowd() {
    check("flash-crowd", 1.0);
}

#[test]
fn golden_sustained_3x() {
    check("sustained-3x", 1.0);
}

#[test]
fn golden_storm_backpressure() {
    check("storm-backpressure", 0.5);
}

#[test]
fn golden_vod_city() {
    check("vod-city", 0.5);
}
