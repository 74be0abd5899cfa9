//! The repo benchmark. `sh benchmark/run.sh` builds and runs this; see
//! `benchmark/README.md` for what every metric and workload means.
//!
//! ```text
//! pegasus-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! pegasus-benchmark --compare A.json B.json
//! ```
//!
//! Without `--workload` all four workloads run, each untraced and then
//! traced. With it, one workload runs one of the two ways and the last
//! line of standard output is the one JSON object `BENCHMARK.json`'s
//! contract asks for. Either way every metric is printed by name with
//! its unit, outputs are checked, `out/results.json` and
//! `out/trace.json` are written, and the exit code is non-zero if any
//! check failed.
//!
//! The process that parses these arguments measures nothing itself: it
//! starts one fresh child of this same binary per measurement, one at a
//! time, so no operation inherits another's heap. `--child MODE`,
//! `--min-ops N` and `--shards N` are how it tells a child what to do.

mod child;
mod json;
mod metrics;
mod pfs_vcr;
mod probes;
mod procstat;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use metrics::{is_end_to_end, Kind, Values, METRICS};
use stats::{agrees, summarize, Summary};
use workloads::WORKLOADS;

/// How long one run measures unless `--seconds` says otherwise; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 26;
/// Fewest timed operations a run takes, however long each is.
const MIN_OPS: u64 = 3;
/// Set-ups timed per run, each in a fresh child; `setup_s` is their
/// median.
const SETUPS: usize = 7;

/// Where results go, relative to the root of the checkout, which is
/// where `run.sh` starts this binary.
const OUT_DIR: &str = "benchmark/out";

/// What a child reported, and how long it took to get ready.
struct ChildRun {
    setup_s: f64,
    result: Json,
}

/// Starts a child of this binary, waits for it, and reads its result.
/// `setup_s` runs from just before the spawn to the child's `ready`
/// line, so it covers process start as well as the set-up itself.
fn spawn_child(
    mode: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    min_ops: u64,
    shards: usize,
) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this binary");
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", mode, "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--min-ops", &min_ops.to_string()])
        .args(["--shards", &shards.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a child of this binary");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("read the child's ready line");
    let setup_s = start.elapsed().as_secs_f64();
    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read the child's result");
    let status = child.wait().expect("wait for the child");
    assert!(
        status.success() && line.trim() == "ready",
        "{mode} child of {workload} failed: {status}, said {line:?}"
    );
    let result = match rest.trim() {
        "" => Json::Null,
        text => Json::parse(text).expect("the child's result is JSON"),
    };
    ChildRun { setup_s, result }
}

/// One workload measured one way.
struct Pass {
    values: Values,
    /// Order statistics of the end-to-end metrics that have samples.
    samples: Vec<(&'static str, Summary)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    fingerprint: String,
    spans: Vec<Json>,
}

fn f64s(json: Option<&Json>, key: &str) -> Vec<f64> {
    json.map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|op| op.get(key)?.as_f64())
        .collect()
}

fn strings(json: Option<&Json>) -> Vec<String> {
    json.map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect()
}

fn count(json: &Json, key: &str) -> u64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn child_values(result: &Json) -> Values {
    Values::from_json(result.get("values").unwrap_or(&Json::Null)).expect("the child's values")
}

fn fingerprint_of(result: &Json) -> String {
    result
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// Tracing off: several timed set-ups, then one child that runs
/// operations for `seconds`. Every end-to-end metric comes from here.
fn end_to_end_pass(workload: &str, seed: u64, seconds: f64) -> Pass {
    let mut setups: Vec<f64> = (1..SETUPS)
        .map(|_| spawn_child("setup", workload, seed, 0.0, 0, 1).setup_s)
        .collect();
    let run = spawn_child("measure", workload, seed, seconds, MIN_OPS, 1);
    setups.push(run.setup_s);
    let ops = run.result.get("ops");
    let walls = summarize(&f64s(ops, "wall_s")).expect("at least one operation");
    let setup = summarize(&setups).expect("at least one set-up");
    let mut values = Values::default();
    values.set("setup_s", setup.median);
    values.set("wall_s", walls.median);
    // After the first operation only: a process that reruns keeps the
    // previous world alive, and op count must not leak into memory.
    values.set("peak_rss_mb", f64s(ops, "rss_mb")[0]);
    values.extend(&child_values(&run.result));
    Pass {
        values,
        samples: vec![("setup_s", setup), ("wall_s", walls)],
        attempted: count(&run.result, "attempted"),
        failed: count(&run.result, "failed"),
        failures: strings(run.result.get("failures")),
        fingerprint: fingerprint_of(&run.result),
        spans: Vec::new(),
    }
}

/// Tracing on: an untraced reference child (two operations), a child
/// that runs one operation under spans, and the probes of the layers
/// this workload leans on. Every per-layer metric comes from here, and
/// no end-to-end metric does.
fn traced_pass(workload: &str, seed: u64) -> Pass {
    let reference = spawn_child("measure", workload, seed, 0.0, 2, 1).result;
    let traced = spawn_child("trace", workload, seed, 0.0, 1, 1).result;
    let probed = spawn_child("probes", workload, seed, 0.0, 0, 1).result;

    let mut failures = strings(reference.get("failures"));
    failures.extend(strings(traced.get("failures")));
    let mut attempted = count(&reference, "attempted") + count(&traced, "attempted");
    let mut failed = count(&reference, "failed") + count(&traced, "failed");
    let fingerprint = fingerprint_of(&traced);
    if fingerprint != fingerprint_of(&reference) {
        failures.push(format!(
            "{workload}: the traced operation's output differs from the untraced one's"
        ));
        failed += 1;
    }

    let mut values = child_values(&traced);
    values.extend(&child_values(&probed));
    let mut spans = traced.get("spans").map_or(&[][..], Json::as_arr).to_vec();
    let ref_ops = reference.get("ops");
    let (walls, rss) = (f64s(ref_ops, "wall_s"), f64s(ref_ops, "rss_mb"));
    let traced_wall = f64s(traced.get("ops"), "wall_s")[0];
    // First operation of a fresh child against first operation of a
    // fresh child: the second in a process is slower for reasons that
    // have nothing to do with tracing.
    values.set("trace.overhead_pct", (traced_wall / walls[0] - 1.0) * 100.0);
    if workloads::scenario(workload, seed).is_some() {
        values.set("scenario.rss_growth_mb_per_op", rss[1] - rss[0]);
    }

    if workload == "metro-steady" {
        // The same spec again on two shards, for the executor's metrics.
        // Not a workload of its own: on a host with two virtual cores a
        // sharded run's time is the hypervisor's wake-up latency at a
        // hundred thousand barriers, and no bound holds it.
        let sharded = spawn_child("trace", workload, seed, 0.0, 1, workloads::SHARDED).result;
        attempted += count(&sharded, "attempted");
        failed += count(&sharded, "failed");
        failures.extend(strings(sharded.get("failures")));
        if fingerprint_of(&sharded) != fingerprint {
            failures.push(format!(
                "{workload}: output on {} shards differs from output on one",
                workloads::SHARDED
            ));
            failed += 1;
        }
        values.extend(&child_values(&sharded).only("executor."));
        let sharded_wall = f64s(sharded.get("ops"), "wall_s")[0];
        values.set("executor.shard_overhead", sharded_wall / walls[0]);
        spans.extend_from_slice(sharded.get("spans").map_or(&[][..], Json::as_arr));
    }
    Pass {
        values,
        samples: Vec::new(),
        attempted,
        failed,
        failures,
        fingerprint,
        spans,
    }
}

/// Prints a pass as `name value unit` lines, in catalogue order.
fn print_pass(workload: &str, seed: u64, title: &str, pass: &Pass) {
    println!("== {workload} seed {seed}: {title}");
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.why);
    println!("# {why}");
    for d in METRICS {
        let Some(v) = pass.values.get(d.name) else {
            continue;
        };
        match pass.samples.iter().find(|(n, _)| *n == d.name) {
            Some((_, s)) => println!(
                "{} {v} {}  # median of {}; quartiles {} .. {}, min {}",
                d.name, d.unit, s.n, s.q1, s.q3, s.min
            ),
            None => println!("{} {v} {}", d.name, d.unit),
        }
    }
    println!("ops_attempted {} count", pass.attempted);
    println!("ops_failed {} count", pass.failed);
    println!("sim_fingerprint {}", pass.fingerprint);
    for f in &pass.failures {
        println!("FAILED {f}");
    }
}

fn pass_json(pass: &Pass) -> Json {
    let summary = |s: &Summary| {
        Json::obj([
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("max", Json::Num(s.max)),
        ])
    };
    Json::obj([
        ("metrics", pass.values.to_json()),
        (
            "samples",
            Json::obj(pass.samples.iter().map(|(n, s)| (*n, summary(s)))),
        ),
        ("ops_attempted", Json::Num(pass.attempted as f64)),
        ("ops_failed", Json::Num(pass.failed as f64)),
        ("sim_fingerprint", Json::str(&pass.fingerprint)),
        (
            "failures",
            Json::Arr(pass.failures.iter().map(Json::str).collect()),
        ),
    ])
}

/// The last line the contract asks for: with tracing off every
/// end-to-end metric, with tracing on every other metric. A per-layer
/// metric this workload does not produce reads 0 there, because the
/// contract wants every name on every workload; everywhere else it is
/// left out.
fn contract_line(pass: &Pass, traced: bool) -> Json {
    let metrics = METRICS
        .iter()
        .filter(|d| is_end_to_end(d) != traced)
        .map(|d| {
            let value = pass.values.get(d.name).unwrap_or(0.0);
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]);
            (d.name, entry)
        });
    Json::obj([
        ("correct", Json::Bool(pass.failed == 0)),
        ("attempted", Json::Num(pass.attempted as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compares two `results.json` files of the same code and seed: host
/// metrics within their bounds, simulated metrics, counts and
/// fingerprints equal. Returns the disagreements.
fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut diffs = Vec::new();
    let (wa, wb) = (a.get("workloads"), b.get("workloads"));
    let names = |w: Option<&Json>| -> Vec<String> {
        w.map_or(&[][..], Json::as_obj)
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    if names(wa) != names(wb) || names(wa).is_empty() {
        diffs.push("the two files cover different workloads".to_string());
        return diffs;
    }
    for workload in names(wa) {
        for pass in ["end_to_end", "per_layer"] {
            let side = |w: Option<&Json>| w?.get(&workload)?.get(pass).cloned();
            let (Some(pa), Some(pb)) = (side(wa), side(wb)) else {
                if side(wa).is_some() != side(wb).is_some() {
                    diffs.push(format!("{workload}: only one file has the {pass} pass"));
                }
                continue;
            };
            if pa.get("sim_fingerprint") != pb.get("sim_fingerprint") {
                diffs.push(format!("{workload} {pass}: sim_fingerprint differs"));
            }
            let value = |p: &Json, name: &str| p.get("metrics")?.get(name)?.as_f64();
            for d in METRICS {
                let bound = match d.kind {
                    Kind::EndToEnd { bound } => bound,
                    kind if kind.exact() => 0.0,
                    _ => continue,
                };
                let (va, vb) = (value(&pa, d.name), value(&pb, d.name));
                if !agrees(va, vb, bound) {
                    diffs.push(format!(
                        "{workload} {}: {va:?} against {vb:?}, allowed {bound}",
                        d.name
                    ));
                }
            }
        }
    }
    diffs
}

fn usage() -> ExitCode {
    eprintln!("usage: pegasus-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]");
    eprintln!("       pegasus-benchmark --compare A.json B.json");
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace: Option<bool> = None;
    let mut child_mode: Option<String> = None;
    let mut min_ops = MIN_OPS;
    let mut shards = 1usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--compare", Some(a)) => {
                let Some(b) = args.get(i + 2) else {
                    return usage();
                };
                let read = |path: &str| {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    Json::parse(&text)
                };
                return match (read(a), read(b)) {
                    (Ok(a), Ok(b)) => {
                        let diffs = compare(&a, &b);
                        for d in &diffs {
                            println!("DISAGREE {d}");
                        }
                        println!("{} disagreement(s)", diffs.len());
                        ExitCode::from(u8::from(!diffs.is_empty()))
                    }
                    (a, b) => {
                        eprintln!("cannot read results: {:?} {:?}", a.err(), b.err());
                        ExitCode::from(2)
                    }
                };
            }
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--child", Some(v)) => child_mode = Some(v.clone()),
            ("--seed", Some(v)) => match v.parse() {
                Ok(n) => seed = n,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            ("--min-ops", Some(v)) => match v.parse() {
                Ok(n) => min_ops = n,
                Err(_) => return usage(),
            },
            ("--shards", Some(v)) => match v.parse() {
                Ok(n) => shards = n,
                Err(_) => return usage(),
            },
            ("--trace", Some(v)) => match v.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    if let Some(name) = &workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            eprintln!("unknown workload '{name}'");
            return usage();
        }
    }
    if let Some(mode) = child_mode {
        let Some(name) = workload else {
            return usage();
        };
        child::run(&mode, &name, seed, seconds, min_ops, shards);
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let mut results = Vec::new();
    let mut spans = Vec::new();
    let mut failed = 0;
    let mut last = None;
    for name in selected {
        let mut passes = Vec::new();
        if trace != Some(true) {
            let pass = end_to_end_pass(name, seed, seconds);
            print_pass(name, seed, "end to end, tracing off", &pass);
            passes.push(("end_to_end", pass));
        }
        if trace != Some(false) {
            let mut pass = traced_pass(name, seed);
            print_pass(name, seed, "per layer, traced pass and probes", &pass);
            spans.append(&mut pass.spans);
            passes.push(("per_layer", pass));
        }
        failed += passes.iter().map(|(_, p)| p.failed).sum::<u64>();
        results.push((
            name,
            Json::obj(passes.iter().map(|(k, p)| (*k, pass_json(p)))),
        ));
        last = passes.pop();
    }

    let stamp = Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::obj(results)),
    ]);
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).expect("create benchmark/out");
    std::fs::write(out.join("results.json"), stamp.render() + "\n").expect("write results.json");
    let trace_doc = Json::obj([("spans", Json::Arr(spans))]);
    std::fs::write(out.join("trace.json"), trace_doc.render() + "\n").expect("write trace.json");

    if let (Some(_), Some(traced), Some((_, pass))) = (&workload, trace, &last) {
        println!("{}", contract_line(pass, traced).render());
    }
    ExitCode::from(u8::from(failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(wall_s: f64, events: f64, fingerprint: &str) -> Json {
        let mut v = Values::default();
        v.set("wall_s", wall_s);
        v.set("sim.events", events);
        v.set("sim.engine_s", wall_s * 0.9);
        let pass = Pass {
            values: v,
            samples: Vec::new(),
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            fingerprint: fingerprint.to_string(),
            spans: Vec::new(),
        };
        let text = Json::obj([(
            "workloads",
            Json::obj([(
                "metro-steady",
                Json::obj([("end_to_end", pass_json(&pass))]),
            )]),
        )])
        .render();
        Json::parse(&text).unwrap()
    }

    #[test]
    fn two_runs_agree_within_bounds_and_exactly_on_counts() {
        let base = results(6.0, 7_386_409.0, "ab");
        assert_eq!(compare(&base, &results(6.9, 7_386_409.0, "ab")), [""; 0]);
        // Host time beyond its bound, a count off by one, another output.
        assert_eq!(compare(&base, &results(9.0, 7_386_409.0, "ab")).len(), 1);
        assert_eq!(compare(&base, &results(6.0, 7_386_410.0, "ab")).len(), 1);
        assert_eq!(compare(&base, &results(6.0, 7_386_409.0, "cd")).len(), 1);
        assert_eq!(compare(&base, &Json::Null).len(), 1);
    }

    #[test]
    fn the_contract_line_carries_every_metric_of_its_side() {
        let mut v = Values::default();
        v.set("wall_s", 6.0);
        v.set("sim.events", 9.0);
        let pass = Pass {
            values: v,
            samples: Vec::new(),
            attempted: 3,
            failed: 1,
            failures: vec!["x".to_string()],
            fingerprint: String::new(),
            spans: Vec::new(),
        };
        for traced in [false, true] {
            let line = contract_line(&pass, traced);
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
            let names: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = METRICS
                .iter()
                .filter(|d| is_end_to_end(d) != traced)
                .map(|d| d.name)
                .collect();
            assert_eq!(names, want);
        }
        let events = contract_line(&pass, true);
        let events = events.get("metrics").unwrap().get("sim.events").unwrap();
        assert_eq!(events.render(), "{\"value\":9,\"unit\":\"count\"}");
    }
}
