//! What the profiling examples can be pointed at: the names of
//! `presets::by_name`, and the benchmark's three scenario workloads
//! (`metro-steady`, `front-door`, `control-3x`), whose specs are
//! mirrored from `benchmark/src/workloads.rs`.

use pegasus_scenario::spec::Arrival;
use pegasus_scenario::{presets, ScenarioSpec};
use pegasus_sim::time::MS;

pub fn spec_of(name: &str) -> ScenarioSpec {
    let preset = |p: &str| {
        presets::by_name(p).unwrap_or_else(|| {
            eprintln!("no preset or workload named {p:?}");
            std::process::exit(2)
        })
    };
    match name {
        "metro-steady" => {
            let mut spec = preset("metropolis-1k").scale_sessions(0.5);
            spec.duration = 100 * MS;
            spec.arrival = Arrival::Uniform { window: 33 * MS };
            spec
        }
        "front-door" => {
            let mut spec = preset("metropolis-100k");
            spec.sessions = 8_000;
            spec.broker.cpu_capacity_micro = 150 * spec.broker.cpu_per_session_micro;
            spec
        }
        "control-3x" => preset("sustained-3x").scale_sessions(4.0),
        p => preset(p),
    }
}
