//! The catalogue of every metric the benchmark reports. `BENCHMARK.json`
//! lists the same names and units, and says which direction is better;
//! a unit test holds the two together.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host time or memory a user of the simulator sees. `bound` is the
    /// share of the parent's median by which it may worsen.
    EndToEnd { bound: f64 },
    /// What the simulated system did for its users, in simulated units.
    /// A pure function of the inputs, so two runs must agree exactly.
    Simulated,
    /// Host seconds between the start and end of spans of this name.
    Span,
    /// Exact, from a report or a layer's public counters.
    Count,
    /// Computed from host-time metrics.
    Derived,
    /// An isolated drive of one layer's public API, host time.
    Probe,
}

impl Kind {
    /// Whether two runs on the same inputs must report the same value.
    pub fn exact(self) -> bool {
        matches!(self, Kind::Simulated | Kind::Count)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef { name, unit, kind }
}

use Kind::{Count, Derived, EndToEnd, Probe, Simulated, Span};

pub const METRICS: &[MetricDef] = &[
    // End to end, host side: every workload reports all three.
    m("setup_s", "s", EndToEnd { bound: 0.25 }),
    m("wall_s", "s", EndToEnd { bound: 0.25 }),
    m("peak_rss_mb", "MB", EndToEnd { bound: 0.2 }),
    // End to end, simulated side: a workload reports those it produces.
    m("sim_lat_p99_us", "us", Simulated),
    m("sim_jit_p99_us", "us", Simulated),
    m("sim_admitted", "sessions", Simulated),
    m("sim_disk_io_s", "s", Simulated),
    // crates/scenario
    m("scenario.compile_s", "s", Span),
    m("scenario.admit_us", "us", Derived),
    m("scenario.collect_s", "s", Span),
    m("scenario.run_s", "s", Span),
    m("scenario.render_s", "s", Span),
    m("scenario.rss_growth_mb_per_op", "MB", Derived),
    m("executor.run_sharded_s", "s", Span),
    m("executor.replica_compile_s", "s", Span),
    m("executor.barrier_waits", "count", Count),
    m("executor.cells_exported", "count", Count),
    m("executor.credits_crossed", "count", Count),
    m("executor.events_max_shard", "count", Count),
    m("executor.shard_overhead", "ratio", Derived),
    // crates/sim
    m("sim.engine_s", "s", Span),
    m("sim.events", "count", Count),
    m("sim.ns_per_event", "ns", Derived),
    m("sim.events_per_cell", "ratio", Count),
    m("sim.probe_events_per_s", "1/s", Probe),
    m("sim.probe_cancels_per_s", "1/s", Probe),
    // crates/atm
    m("atm.cells_sent", "count", Count),
    m("atm.cells_delivered", "count", Count),
    m("atm.cells_dropped", "count", Count),
    m("atm.peak_queue_cells", "count", Count),
    m("atm.credit_stalls", "count", Count),
    m("atm.probe_cells_per_s", "1/s", Probe),
    m("atm.probe_aal5_frames_per_s", "1/s", Probe),
    m("atm.probe_credit_ops_per_s", "1/s", Probe),
    m("atm.probe_open_vc_us_1k", "us", Probe),
    m("atm.probe_open_vc_us_8k", "us", Probe),
    m("atm.probe_max_util_us_1k", "us", Probe),
    m("atm.probe_max_util_us_8k", "us", Probe),
    // crates/core
    m("core.admit_attempts", "count", Count),
    m("core.admitted", "count", Count),
    m("core.rejected", "count", Count),
    m("core.renegotiations", "count", Count),
    m("core.probe_admit_us_1k", "us", Probe),
    m("core.probe_admit_us_8k", "us", Probe),
    m("core.probe_renegotiate_us", "us", Probe),
    // crates/devices, crates/streams, crates/nemesis
    m("devices.tiles_blitted", "count", Count),
    m("devices.probe_camera_frames_per_s", "1/s", Probe),
    m("devices.probe_display_tiles_per_s", "1/s", Probe),
    m("streams.vod_presented", "count", Count),
    m("streams.probe_playback_items_per_s", "1/s", Probe),
    m("nemesis.epochs", "count", Count),
    m("nemesis.probe_sched_sim_s_per_s", "ratio", Probe),
    // crates/pfs
    m("pfs.append_s", "s", Span),
    m("pfs.checkpoint_s", "s", Span),
    m("pfs.read_into_s", "s", Span),
    m("pfs.read_leased_s", "s", Span),
    m("pfs.clean_s", "s", Span),
    m("pfs.recover_s", "s", Span),
    m("pfs.cm_tiered_s", "s", Span),
    m("pfs.verify_s", "s", Span),
    m("pfs.bytes_appended", "bytes", Count),
    m("pfs.bytes_read", "bytes", Count),
    m("pfs.segments_cleaned", "count", Count),
    m("pfs.live_bytes_moved", "bytes", Count),
    m("pfs.cm_periods", "count", Count),
    m("pfs.tier_hot_milli", "permille", Count),
    m("pfs.tier_warm_milli", "permille", Count),
    // The traced pass itself.
    m("trace.overhead_pct", "%", Derived),
    m("trace.attributed_pct", "%", Derived),
];

pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

pub fn is_end_to_end(d: &MetricDef) -> bool {
    matches!(d.kind, EndToEnd { .. })
}

/// Named values in the order they were measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = def(name).name;
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: &Values) {
        for &(name, value) in &other.0 {
            self.set(name, value);
        }
    }

    /// The values whose names start with `prefix`.
    pub fn only(&self, prefix: &str) -> Values {
        Values(
            self.0
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .copied()
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|&(n, v)| (n.to_string(), Json::Num(v)))
                .collect(),
        )
    }

    /// Reads back [`Values::to_json`]; names the catalogue lacks fail.
    pub fn from_json(json: &Json) -> Result<Values, String> {
        let mut values = Values::default();
        for (name, v) in json.as_obj() {
            let d = METRICS
                .iter()
                .find(|d| d.name == name)
                .ok_or_else(|| format!("unknown metric {name}"))?;
            let v = v
                .as_f64()
                .ok_or_else(|| format!("{name} is not a number"))?;
            values.0.push((d.name, v));
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let names: Vec<&str> = METRICS
            .iter()
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(well_formed(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
    }

    /// `BENCHMARK.json` and the catalogue say the same thing: the
    /// end-to-end metrics with their bounds, every other metric under
    /// `per_layer`, and the workloads with their reasons.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the root of the repo");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_string);

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        for (_, why) in &listed {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        for (section, want_e2e) in [("end_to_end", true), ("per_layer", false)] {
            let listed: Vec<String> = doc
                .get(section)
                .unwrap()
                .as_arr()
                .iter()
                .map(|entry| {
                    let name = field(entry, "name").unwrap();
                    let d = def(&name);
                    assert_eq!(field(entry, "unit").as_deref(), Some(d.unit), "{name}");
                    let better = field(entry, "better").unwrap();
                    assert!(better == "lower" || better == "higher", "{name}");
                    let bound = entry.get("bound").and_then(Json::as_f64);
                    match d.kind {
                        EndToEnd { bound: b } => assert_eq!(bound, Some(b), "{name}"),
                        _ => assert_eq!(bound, None, "{name}"),
                    }
                    name
                })
                .collect();
            let ours: Vec<&str> = METRICS
                .iter()
                .filter(|d| is_end_to_end(d) == want_e2e)
                .map(|d| d.name)
                .collect();
            assert_eq!(listed, ours, "{section}");
        }

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
        assert_eq!(doc.get("paths").unwrap().as_arr(), [Json::str("benchmark")]);
    }

    #[test]
    fn values_round_trip_and_refuse_unknown_names() {
        let mut v = Values::default();
        v.set("wall_s", 6.25);
        v.set("sim.events", 7_386_409.0);
        v.set("wall_s", 6.5);
        assert_eq!(v.get("wall_s"), Some(6.5));
        assert_eq!(v.get("setup_s"), None);
        assert_eq!(Values::from_json(&v.to_json()), Ok(v));
        assert!(Values::from_json(&Json::obj([("nope", Json::Num(1.0))])).is_err());
    }
}
