//! The declarative scenario harness.
//!
//! The paper's argument is that one system carries many concurrent
//! multimedia sessions — videophone calls, TV distribution, VoD
//! playback — over ATM with predictable QoS. This crate makes that
//! claim testable at scale: a [`spec::ScenarioSpec`] declares a
//! topology, a session mix, an arrival process, a fault schedule, a run
//! length and a seed; [`build::run`] compiles it onto the real system
//! crates (atm fabric, devices, streams, pfs, nemesis), drives it on
//! the deterministic engine, and emits a [`report::ScenarioReport`]
//! whose JSON is byte-identical for identical `(spec, seed)`.
//!
//! * [`spec`] — the declarative inputs.
//! * [`presets`] — `smoke` through `metropolis-100k`, the named library.
//! * [`build`] — [`build::compile`]: spec → wired system; the steps a
//!   run takes at a control mark; measurements → report.
//! * [`partition`] — region shards: who owns which switches.
//! * [`executor`] — the one run loop. [`executor::run_sharded`] drives
//!   the spec on worker threads under conservative lookahead,
//!   byte-identical canonical reports at any shard count;
//!   [`build::run`] is the same loop with one shard and no peers.
//! * [`report`] — the structured results and their JSON rendering.
//! * [`json`] — the deterministic writer underneath.
//! * [`workloads`] — the repository benchmark's four workloads and their
//!   checks, shared with the profiling examples.
//!
//! The `pegasus-scenario` binary wraps this for the command line and
//! CI (`scripts/run_scenarios.sh`).

pub mod build;
pub mod executor;
pub mod json;
pub mod partition;
pub mod presets;
pub mod report;
pub mod spec;
pub mod workloads;

pub use build::{compile, compile_for, run, Scenario};
pub use executor::run_sharded;
pub use partition::{ExecPlan, ShardPlan};
pub use report::ScenarioReport;
pub use spec::{Arrival, FaultSpec, ScenarioSpec, SessionMix, TopologySpec};
