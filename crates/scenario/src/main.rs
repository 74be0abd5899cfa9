//! `pegasus-scenario`: run declarative city-scale workloads.
//!
//! ```text
//! pegasus-scenario list
//! pegasus-scenario run <preset> [--seed N] [--seeds A,B,C]
//!                      [--scale F] [--shards N] [--canonical]
//!                      [--out FILE] [--quiet]
//! ```
//!
//! `run` prints the scenario's JSON report on stdout (one line per
//! seed) plus a human summary on stderr; `--out` writes the JSON to a
//! file instead. `--shards N` executes on up to N region shards (the
//! canonical report is byte-identical at any shard count; only the
//! `shards` block differs). `--canonical` prints the canonical
//! rendering, without that block and the `simulator` block before it
//! — what CI diffs across shard counts. CI consumes this through
//! `scripts/run_scenarios.sh`.

use std::io::Write;
use std::process::ExitCode;

use pegasus_scenario::{presets, run_sharded, ScenarioReport};

fn usage() -> ExitCode {
    eprintln!("usage: pegasus-scenario list");
    eprintln!("       pegasus-scenario run <preset> [--seed N] [--seeds A,B,C]");
    eprintln!("                          [--scale F] [--shards N] [--canonical]");
    eprintln!("                          [--out FILE] [--quiet]");
    eprintln!("presets: {}", presets::PRESETS.join(", "));
    ExitCode::from(2)
}

fn summarize(r: &ScenarioReport) {
    eprintln!(
        "{}: seed {} — {} sessions on {} switches, {} endpoints",
        r.name,
        r.seed,
        r.sessions.0 + r.sessions.1 + r.sessions.2,
        r.switches,
        r.endpoints,
    );
    eprintln!(
        "  broker: {} admitted, {} degraded, {} rejected (cpu {}, bw {}, pfs {})",
        r.broker.admitted,
        r.broker.degraded,
        r.broker.rejected,
        r.broker.rejected_cpu,
        r.broker.rejected_bandwidth,
        r.broker.rejected_pfs,
    );
    eprintln!(
        "  cells: {} sent, {} delivered, {} dropped (peak queue {} cells)",
        r.cells.sent,
        r.cells.delivered,
        r.cells.dropped_overflow + r.cells.dropped_unroutable,
        r.peak_queue_cells,
    );
    eprintln!(
        "  video p50/p99 latency {}/{} µs, jitter p99 {} µs; audio jitter p99 {} µs",
        r.video.latency.p50 / 1_000,
        r.video.latency.p99 / 1_000,
        r.video.jitter.p99 / 1_000,
        r.audio.jitter.p99 / 1_000,
    );
    eprintln!(
        "  pfs: {} periods, {} missed, {} Mbit/s; nemesis: {}/{} epochs starved",
        r.pfs.periods,
        r.pfs.missed,
        r.pfs.throughput_bps / 1_000_000,
        r.nemesis.starved_epochs,
        r.nemesis.epochs,
    );
    eprintln!(
        "  deadline misses: {} ({} underruns, {} late, {} cm, {} starved)",
        r.deadline_misses,
        r.audio_underruns,
        r.playback_late,
        r.pfs.missed,
        r.nemesis.starved_epochs,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in presets::PRESETS {
                let spec = presets::by_name(name).expect("preset");
                println!(
                    "{name}: {} sessions, {} switches, {} ms",
                    spec.sessions,
                    spec.topology.switches,
                    spec.duration / 1_000_000
                );
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(preset) = args.get(1) else {
                return usage();
            };
            let Some(mut spec) = presets::by_name(preset) else {
                eprintln!("unknown preset '{preset}'");
                return usage();
            };
            let mut seeds: Vec<u64> = Vec::new();
            let mut out: Option<String> = None;
            let mut quiet = false;
            let mut shards = 1usize;
            let mut canonical = false;
            let mut i = 2;
            while i < args.len() {
                let flag = args[i].as_str();
                let value = |i: &mut usize| -> Option<String> {
                    *i += 1;
                    args.get(*i).cloned()
                };
                match flag {
                    "--seed" => match value(&mut i).and_then(|v| v.parse().ok()) {
                        Some(s) => seeds.push(s),
                        None => return usage(),
                    },
                    "--seeds" => match value(&mut i) {
                        Some(list) => {
                            for part in list.split(',') {
                                match part.parse() {
                                    Ok(s) => seeds.push(s),
                                    Err(_) => return usage(),
                                }
                            }
                        }
                        None => return usage(),
                    },
                    "--scale" => match value(&mut i).and_then(|v| v.parse::<f64>().ok()) {
                        Some(f) if f > 0.0 => spec = spec.scale_sessions(f),
                        _ => return usage(),
                    },
                    "--out" => match value(&mut i) {
                        Some(path) => out = Some(path),
                        None => return usage(),
                    },
                    "--shards" => match value(&mut i).and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) if n >= 1 => shards = n,
                        _ => return usage(),
                    },
                    "--canonical" => canonical = true,
                    "--quiet" => quiet = true,
                    _ => return usage(),
                }
                i += 1;
            }
            if seeds.is_empty() {
                seeds.push(spec.seed);
            }
            // Clamping is visible, never silent: say why the run uses
            // fewer shards than asked for.
            let plan = pegasus_scenario::ExecPlan::partition(&spec, shards);
            if plan.shards < plan.requested {
                eprintln!(
                    "note: clamped to {} shard(s) of {} requested: {}",
                    plan.shards,
                    plan.requested,
                    plan.clamp_reason.unwrap_or("unknown"),
                );
            }
            let reports: Vec<ScenarioReport> = seeds
                .iter()
                .map(|&s| run_sharded(&spec.clone().with_seed(s), shards))
                .collect();
            let mut json = String::new();
            for r in &reports {
                if !quiet {
                    summarize(r);
                }
                json.push_str(&if canonical {
                    r.to_json_canonical()
                } else {
                    r.to_json()
                });
            }
            match out {
                Some(path) => {
                    let mut f = match std::fs::File::create(&path) {
                        Ok(f) => f,
                        Err(e) => {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    f.write_all(json.as_bytes()).expect("report write");
                }
                None => print!("{json}"),
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
