//! The four workloads: what each one feeds the program, and what must
//! hold of what comes back.
//!
//! Closed loop, one client: an operation is one complete run from spec
//! to canonical-JSON bytes (or one storage script for `pfs-vcr`), and
//! the next starts when the previous returns. Untraced operations go
//! through the CLI's own surface only — `presets::by_name`, public
//! `ScenarioSpec` fields, `run_sharded`, `ScenarioReport` — so a
//! refactor behind that surface cannot break them.

use pegasus_scenario::spec::Arrival;
use pegasus_scenario::{presets, run_sharded, ScenarioReport, ScenarioSpec};
use pegasus_sim::time::MS;

use crate::metrics::Values;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "metro-steady",
        why: "Data plane: preset metropolis-1k at 500 sessions for 100 ms on one shard. sim, atm and devices do ~95% of the work and admission ~1%, so an engine, link, switch or device speed-up shows here.",
    },
    Workload {
        name: "front-door",
        why: "Admission: metropolis-100k cut to 8,000 attempts of which exactly 150 are admitted. compile -> admit_session is ~80% of the operation and quadratic in attempts; the engine does little.",
    },
    Workload {
        name: "control-3x",
        why: "Control plane: sustained-3x at 4x sessions. The only workload where credits stall and live sessions renegotiate, so a credit-path or control-loop change shows here and nowhere else.",
    },
    Workload {
        name: "pfs-vcr",
        why: "Storage: a script on pegasus_pfs alone (append, checkpoint, two read paths, delete, clean, recover, tiered CM play-out). No scenario spends 5% of host time in pfs; here it is ~100%.",
    },
];

/// Sessions `front-door` must admit: its CPU ledger holds exactly this
/// many at the preset's 300 micro-CPUs each.
const FRONT_DOOR_ADMITTED: u64 = 150;

/// Shards of the second run of `metro-steady`'s spec that its traced
/// pass makes, for the `executor.*` metrics.
pub const SHARDED: usize = 2;

/// The spec of a scenario workload, `None` for `pfs-vcr`. `seed` becomes
/// `spec.seed`; nothing else depends on it. Sizes are set so that one
/// operation takes about a second on the reference host: this host's
/// slow spells last seconds, and a run's median shrugs them off only
/// when the run holds many operations.
pub fn scenario(name: &str, seed: u64) -> Option<ScenarioSpec> {
    let preset = |p: &str| presets::by_name(p).expect("preset named by a workload");
    let spec = match name {
        "metro-steady" => {
            // Half the city for a third of the time, arrivals over the
            // first third as in the preset.
            let mut spec = preset("metropolis-1k").scale_sessions(0.5);
            spec.duration = 100 * MS;
            spec.arrival = Arrival::Uniform { window: 33 * MS };
            spec
        }
        "front-door" => {
            let mut spec = preset("metropolis-100k");
            spec.sessions = 8_000;
            spec.broker.cpu_capacity_micro =
                FRONT_DOOR_ADMITTED * spec.broker.cpu_per_session_micro;
            spec
        }
        // Four times the preset's sessions: every one of 1,399 seeds tried
        // stalls credits and renegotiates down. At eight times, one seed
        // in forty admits so many that nothing ever renegotiates.
        "control-3x" => preset("sustained-3x").scale_sessions(4.0),
        _ => return None,
    };
    Some(spec.with_seed(seed))
}

/// What a scenario workload's set-up runs before the first timed
/// operation: one run of its own spec on one shard. `control-3x` warms
/// up at full size; the two city workloads on a quarter of the city,
/// sessions and broker CPU budget cut alike so the same share is
/// admitted, which keeps `setup_s` long enough to time steadily and
/// short enough to repeat several times in a run.
pub fn warm_up(name: &str, spec: &ScenarioSpec) {
    let mut warm = spec.clone();
    if name != "control-3x" {
        warm.sessions /= 4;
        warm.broker.cpu_capacity_micro /= 4;
    }
    std::hint::black_box(run_sharded(&warm, 1).to_json_canonical());
}

/// One untraced scenario operation: spec in, canonical JSON out.
pub fn scenario_op(spec: &ScenarioSpec, shards: usize) -> (ScenarioReport, String) {
    let report = run_sharded(spec, shards);
    let json = report.to_json_canonical();
    (report, json)
}

/// The invariants one scenario operation must meet, as the list of
/// those it broke. These are properties of any correct run, not golden
/// values, so a report that grows new blocks still passes.
pub fn scenario_failures(
    name: &str,
    spec: &ScenarioSpec,
    shards: usize,
    report: &ScenarioReport,
) -> Vec<String> {
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
    check(
        report.shards.len() == shards,
        "the report's shard count is not the one asked for",
    );
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

/// The simulated end-to-end metrics and per-crate counts of a report.
pub fn scenario_counts(report: &ScenarioReport) -> Values {
    let mut v = Values::default();
    let b = &report.broker;
    let bp = &report.backpressure;
    let c = &report.cells;
    v.set("sim_lat_p99_us", report.video.latency.p99 as f64 / 1e3);
    v.set("sim_jit_p99_us", report.audio.jitter.p99 as f64 / 1e3);
    v.set("sim_admitted", (b.admitted + b.degraded) as f64);
    v.set("sim.events", report.events_executed as f64);
    v.set(
        "sim.events_per_cell",
        report.events_executed as f64 / c.delivered as f64,
    );
    v.set("atm.cells_sent", c.sent as f64);
    v.set("atm.cells_delivered", c.delivered as f64);
    v.set(
        "atm.cells_dropped",
        (c.dropped_overflow + c.dropped_unroutable + c.dropped_outage) as f64,
    );
    v.set("atm.peak_queue_cells", report.peak_queue_cells as f64);
    v.set(
        "atm.credit_stalls",
        (bp.credit_stalls.0 + bp.credit_stalls.1 + bp.credit_stalls.2) as f64,
    );
    v.set(
        "core.admit_attempts",
        (b.admitted + b.degraded + b.rejected) as f64,
    );
    v.set("core.admitted", (b.admitted + b.degraded) as f64);
    v.set("core.rejected", b.rejected as f64);
    v.set(
        "core.renegotiations",
        (bp.renegotiations_down + bp.renegotiations_up) as f64,
    );
    v.set("devices.tiles_blitted", report.tiles_blitted as f64);
    v.set("streams.vod_presented", report.vod_presented as f64);
    v.set("nemesis.epochs", report.nemesis.epochs as f64);
    if report.shards.len() > 1 {
        let sum = |f: fn(&pegasus_scenario::report::ShardSlice) -> u64| {
            report.shards.iter().map(f).sum::<u64>() as f64
        };
        v.set("executor.barrier_waits", sum(|s| s.barrier_waits));
        v.set("executor.cells_exported", sum(|s| s.cells_exported));
        v.set("executor.credits_crossed", sum(|s| s.credits_crossed));
        let max = report.shards.iter().map(|s| s.events).max();
        v.set("executor.events_max_shard", max.unwrap_or(0) as f64);
    }
    v
}

/// FNV-1a-64 of an operation's output, printed per workload so a
/// reviewer can compare two commits on the same seed at a glance.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_1a_64_reference_vectors() {
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_workload_but_the_storage_script_is_a_scenario() {
        for w in &WORKLOADS {
            assert_eq!(
                scenario(w.name, 7).is_none(),
                w.name == "pfs-vcr",
                "{}",
                w.name
            );
        }
        let spec = scenario("front-door", 7).unwrap();
        assert_eq!((spec.seed, spec.sessions), (7, 8_000));
        assert_eq!(spec.broker.cpu_capacity_micro, 45_000);
        assert_eq!(scenario("control-3x", 1).unwrap().sessions, 64);
        let metro = scenario("metro-steady", 1).unwrap();
        assert_eq!((metro.sessions, metro.duration), (500, 100 * MS));
    }

    /// The checks are live: a small real run passes them, and a report
    /// doctored to break each one is caught.
    #[test]
    fn checks_pass_a_real_run_and_catch_a_broken_one() {
        let spec = presets::by_name("smoke").unwrap();
        let (report, json) = scenario_op(&spec, 1);
        assert_eq!(
            scenario_failures("metro-steady", &spec, 1, &report),
            [""; 0]
        );
        assert_eq!(scenario_op(&spec, 1).1, json);
        let counts = scenario_counts(&report);
        assert_eq!(counts.get("core.admit_attempts"), Some(8.0));
        assert_eq!(counts.get("executor.barrier_waits"), None);

        let mut late = report.clone();
        late.deadline_misses = 1;
        late.broker.rejected += 1;
        assert_eq!(scenario_failures("metro-steady", &spec, 1, &late).len(), 2);
        assert_eq!(
            scenario_failures("metro-steady", &spec, 2, &report).len(),
            1
        );
        // smoke admits 8, not 150, and runs without backpressure.
        assert_eq!(scenario_failures("front-door", &spec, 1, &report).len(), 1);
        assert_eq!(scenario_failures("control-3x", &spec, 1, &report).len(), 2);
    }
}
