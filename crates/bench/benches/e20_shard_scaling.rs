//! E20 — Sharded-executor scaling.
//!
//! Runs the `metropolis-100k` preset end to end (compile + simulate +
//! report) at `--shards` 1, 2 and 4 and records one lane per shard
//! count: wall-clock seconds and events/sec. The canonical reports are
//! asserted byte-identical across the lanes while we're at it — a bench
//! run that produced different physics would be measuring nothing.
//!
//! Lane rates are end-to-end on purpose: every shard compiles its own
//! replica of the world, and on a multi-core host that construction
//! parallelizes along with the event loops, so wall clock is the honest
//! denominator. On a single-core host the multi-shard lanes can only
//! lose (same work plus barriers); `host_cores` is recorded so the
//! guard knows whether a scaling expectation applies.
//!
//! Usage:
//!   cargo bench --bench e20_shard_scaling [-- [--scale N] [--json PATH]]
//!
//! `--scale N` divides the session count by N (CI smoke uses 20);
//! `--json PATH` writes BENCH_shards.json.

use std::time::Instant;

use pegasus_bench::{banner, row};
use pegasus_scenario::{presets, run_sharded};

const PRESET: &str = "metropolis-100k";
const LANES: [usize; 3] = [1, 2, 4];

struct Lane {
    label: String,
    shards: usize,
    wall_sec: f64,
    events_total: u64,
    events_per_sec: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = 1u64;
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale N");
                i += 2;
            }
            "--json" => {
                json_path = Some(args.get(i + 1).expect("--json needs a path").clone());
                i += 2;
            }
            _ => i += 1, // ignore cargo-bench plumbing like --bench
        }
    }
    let scale = scale.max(1);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The tree the lanes were measured on, as `git describe` names it
    // (`-dirty` when the run preceded its own commit).
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());

    banner(
        "E20",
        "sharded-executor scaling: metropolis-100k at --shards 1/2/4",
        "ROADMAP 'city-scale on every core' — byte-identical reports, divided wall clock",
    );
    let spec = presets::by_name(PRESET)
        .expect("preset")
        .scale_sessions(1.0 / scale as f64);
    row(&[
        ("sessions", format!("{}", spec.sessions)),
        ("host cores", format!("{host_cores}")),
        ("commit", commit.clone()),
    ]);

    let mut lanes: Vec<Lane> = Vec::new();
    let mut canonical: Option<String> = None;
    for shards in LANES {
        let start = Instant::now();
        let report = run_sharded(&spec, shards);
        let wall_sec = start.elapsed().as_secs_f64();
        let got = report.to_json_canonical();
        match &canonical {
            None => canonical = Some(got),
            Some(want) => assert!(
                *want == got,
                "canonical report diverged at {shards} shards — the lanes are not \
                 measuring the same run"
            ),
        }
        let events_total = report.events_executed;
        let events_per_sec = events_total as f64 / wall_sec;
        row(&[
            (
                &format!("shards{shards}"),
                format!("{events_total} events in {wall_sec:.2}s"),
            ),
            ("rate", format!("{events_per_sec:.0}/s")),
        ]);
        lanes.push(Lane {
            label: format!("shards{shards}"),
            shards,
            wall_sec,
            events_total,
            events_per_sec,
        });
    }

    let speedup_4v1 = lanes[2].events_per_sec / lanes[0].events_per_sec;
    row(&[
        ("speedup 4v1", format!("{speedup_4v1:.2}x")),
        (
            "canonical reports",
            "byte-identical across lanes".to_string(),
        ),
    ]);

    // The 2.5× speedup expectation only applies where the cores exist;
    // the JSON records the skip explicitly so the guard can print it
    // instead of silently waving the gate through.
    let scaling_gate_skipped = if host_cores < 4 { 1 } else { 0 };

    if let Some(path) = json_path {
        let mut json = format!(
            "{{\n  \"bench\": \"e20_shard_scaling\",\n  \"preset\": \"{PRESET}\",\n  \"sessions\": {},\n  \"commit\": \"{commit}\",\n  \"host_cores\": {host_cores},\n  \"scaling_gate_skipped\": {scaling_gate_skipped},\n  \"lanes\": [\n",
            spec.sessions,
        );
        for (i, l) in lanes.iter().enumerate() {
            json.push_str(&format!(
                "    {{ \"label\": \"{}\", \"shards\": {}, \"wall_sec\": {:.2}, \"events_total\": {}, \"events_per_sec\": {:.0} }}{}\n",
                l.label,
                l.shards,
                l.wall_sec,
                l.events_total,
                l.events_per_sec,
                if i + 1 < lanes.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!("  ],\n  \"speedup_4v1\": {speedup_4v1:.2}\n}}\n"));
        std::fs::write(&path, json).expect("write bench json");
        println!("  wrote {path}");
    }
    println!(
        "expect: near-linear events/sec scaling on a >=4-core host (>=2.5x at 4 shards); \
         on fewer cores the lanes record the honest barrier overhead instead"
    );
}
