//! What runs inside a child process: the set-up, then one of the
//! measurements. The child prints `ready` when set-up is done — the
//! parent's clock for `setup_s` stops there — and its result as one
//! line of JSON when it is finished.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use pegasus_scenario::spec::FaultSpec;
use pegasus_scenario::{compile, compile_for, run_sharded, ExecPlan, ScenarioReport, ScenarioSpec};

use crate::json::Json;
use crate::metrics::{Values, METRICS};
use crate::trace::{self, Tracer};
use crate::workloads::{
    fingerprint, scenario, scenario_counts, scenario_failures, scenario_op, warm_up,
};
use crate::{pfs_vcr, probes, procstat};

/// A workload's generated inputs, ready for its first operation.
enum Input {
    Scenario {
        spec: Box<ScenarioSpec>,
        shards: usize,
    },
    PfsVcr {
        data: Vec<Vec<u8>>,
    },
}

/// Everything between process start and the first timed operation.
fn set_up(workload: &str, seed: u64, shards: usize) -> Input {
    match scenario(workload, seed) {
        Some(spec) => {
            warm_up(workload, &spec);
            Input::Scenario {
                spec: Box::new(spec),
                shards,
            }
        }
        None => Input::PfsVcr {
            data: pfs_vcr::generate(seed),
        },
    }
}

/// What one operation produced, reduced to what the parent needs.
struct OpResult {
    /// The operation's whole deterministic output.
    output: String,
    counts: Values,
    failures: Vec<String>,
}

/// The traced form of a scenario operation: the same calls
/// `run_sharded` makes on one shard, split where the layers meet.
/// `Scenario::run` walks the control marks itself, so a spec that has
/// any (congestion epochs, switch deaths) cannot have its engine time
/// split off from outside and gets one `scenario.run` span instead.
fn traced_scenario_op(
    spec: &ScenarioSpec,
    shards: usize,
    tr: &mut Tracer,
) -> (ScenarioReport, String) {
    let marks = spec.backpressure.enabled
        || spec
            .faults
            .iter()
            .any(|f| matches!(f, FaultSpec::SwitchDeath { .. }));
    tr.span("op", |tr| {
        let report = if shards > 1 {
            tr.span("executor.run_sharded", |_| run_sharded(spec, shards))
        } else if marks {
            let sc = tr.span("scenario.compile", |_| compile(spec));
            tr.span("scenario.run", |_| sc.run())
        } else {
            let mut sc = tr.span("scenario.compile", |_| compile(spec));
            let end = sc.end_time();
            tr.span("sim.engine", |_| sc.sim.run_until(end));
            // The engine already sits at `end`, so this is collect,
            // PFS and Nemesis replay, and assemble.
            tr.span("scenario.collect", |_| sc.run())
        };
        let json = tr.span("scenario.render", |_| report.to_json_canonical());
        (report, json)
    })
}

fn run_op(workload: &str, input: &Input, tr: &mut Tracer, traced: bool) -> OpResult {
    match input {
        Input::Scenario { spec, shards } => {
            let (report, output) = if traced {
                traced_scenario_op(spec, *shards, tr)
            } else {
                scenario_op(spec, *shards)
            };
            OpResult {
                output,
                counts: scenario_counts(&report),
                failures: scenario_failures(workload, spec, *shards, &report),
            }
        }
        Input::PfsVcr { data } => {
            let out = tr.span("op", |tr| pfs_vcr::run(data, tr));
            OpResult {
                output: out.digest,
                counts: out.counts,
                failures: out.failures,
            }
        }
    }
}

/// Span totals as `<span name>_s` metrics, and what derives from them.
fn span_values(tr: &Tracer, counts: &Values) -> Values {
    let spans = tr.spans();
    let mut v = Values::default();
    for d in METRICS {
        let total = d
            .name
            .strip_suffix("_s")
            .and_then(|n| trace::total_s(spans, n));
        if let Some(total) = total {
            v.set(d.name, total);
        }
    }
    if let (Some(t), Some(n)) = (
        v.get("scenario.compile_s"),
        counts.get("core.admit_attempts"),
    ) {
        v.set("scenario.admit_us", t / n * 1e6);
    }
    if let (Some(t), Some(n)) = (v.get("sim.engine_s"), counts.get("sim.events")) {
        v.set("sim.ns_per_event", t / n * 1e9);
    }
    let op = spans
        .iter()
        .position(|s| s.name == "op")
        .expect("an op span");
    let whole = spans[op].end_s - spans[op].start_s;
    v.set(
        "trace.attributed_pct",
        (1.0 - trace::self_s(spans, op) / whole) * 100.0,
    );
    v
}

/// Runs `mode` for `workload` and prints the result. Modes: `setup`
/// (set up and exit), `measure` (untraced operations until `seconds`
/// have passed and `min_ops` are done), `trace` (one operation under
/// spans), `probes` (this workload's layer probes, no set-up). A
/// scenario workload runs on `shards` shards.
pub fn run(mode: &str, workload: &str, seed: u64, seconds: f64, min_ops: u64, shards: usize) {
    let ready = || {
        println!("ready");
        std::io::stdout().flush().expect("flush stdout");
    };
    if mode == "probes" {
        ready();
        let values = probes::run(workload);
        println!("{}", Json::obj([("values", values.to_json())]).render());
        return;
    }
    let input = set_up(workload, seed, shards);
    ready();
    if mode == "setup" {
        return;
    }
    let traced = mode == "trace";
    let mut tr = Tracer::new(traced);
    let mut ops = Vec::new();
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<OpResult> = None;
    let start = Instant::now();
    while (ops.len() as u64) < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut op = black_box(run_op(workload, &input, &mut tr, traced));
        let wall_s = t.elapsed().as_secs_f64();
        ops.push(Json::obj([
            ("wall_s", Json::Num(wall_s)),
            ("rss_mb", Json::Num(procstat::peak_rss_mb())),
        ]));
        if first.as_ref().is_some_and(|f| f.output != op.output) {
            op.failures.push(format!(
                "{workload}: operation {} produced other output than the first",
                ops.len()
            ));
        }
        failed += u64::from(!op.failures.is_empty());
        failures.append(&mut op.failures);
        first.get_or_insert(op);
    }
    let first = first.expect("at least one operation");
    let mut values = first.counts;
    let mut spans = Vec::new();
    if traced {
        if let Input::Scenario { spec, shards } = &input {
            if *shards > 1 {
                // What each shard pays before its engine starts: a full
                // replica of the city, compiled once per shard.
                let plan = ExecPlan::partition(spec, *shards);
                tr.span("executor.replica_compile", |_| {
                    for shard in 0..plan.shards {
                        black_box(compile_for(spec, plan.shard_plan(shard)));
                    }
                });
            }
        }
        let derived = span_values(&tr, &values);
        values.extend(&derived);
        // Span ids count from 0 in every child, so the sharded run of a
        // workload's spec files its spans under a name of its own.
        let label = match shards {
            1 => workload.to_string(),
            n => format!("{workload}.shards{n}"),
        };
        spans = trace::to_json(tr.spans(), &label, 0);
    }
    let result = Json::obj([
        ("attempted", Json::Num(ops.len() as f64)),
        ("ops", Json::Arr(ops)),
        ("failed", Json::Num(failed as f64)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
        (
            "fingerprint",
            Json::Str(format!("{:016x}", fingerprint(first.output.as_bytes()))),
        ),
        ("values", values.to_json()),
        ("spans", Json::Arr(spans)),
    ]);
    println!("{}", result.render());
}
