//! Property test for the tentpole determinism claim: for *any*
//! generated small city — shape, fabric size, session mix, arrival
//! process, seed — the canonical report is byte-identical whether the
//! scenario runs single-threaded or split across 2 or 4 region shards.
//!
//! This is the executable form of the conservative-synchronization
//! argument in `crates/scenario/src/executor.rs`: ownership, lane
//! assignment and lookahead are pure functions of the spec, so sharding
//! may only change *where* events run, never their order-visible
//! effects. Runs are kept to a few simulated milliseconds so the case
//! budget stays inside CI time.

use proptest::prelude::*;

use pegasus_atm::network::TopologyShape;
use pegasus_scenario::spec::{Arrival, FaultSpec, ScenarioSpec, SessionMix, TopologySpec};
use pegasus_scenario::{run, run_sharded, ExecPlan};
use pegasus_sim::time::MS;

fn shape_for(tag: u8) -> TopologyShape {
    match tag % 3 {
        0 => TopologyShape::Star,
        1 => TopologyShape::Ring,
        _ => TopologyShape::FullMesh,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn canonical_report_is_invariant_under_sharding(
        tag in 0u8..3,
        switches in 2usize..7,
        sessions in 1usize..16,
        vp in 0u8..4,
        vod in 0u8..4,
        tv in 0u8..4,
        window_ms in 1u64..8,
        seed in 0u64..1000,
    ) {
        let mut spec = ScenarioSpec::base("prop-shards").with_seed(seed);
        spec.topology = TopologySpec {
            shape: shape_for(tag),
            switches,
            ..spec.topology
        };
        spec.sessions = sessions;
        // A zero-weight mix is invalid; nudge videophone in that case.
        let (vp, vod, tv) = if vp + vod + tv == 0 {
            (1, 0, 0)
        } else {
            (vp, vod, tv)
        };
        spec.mix = SessionMix::new(vp as f64, vod as f64, tv as f64);
        spec.arrival = Arrival::Uniform { window: window_ms * MS };
        spec.duration = 8 * MS;
        spec.drain = 5 * MS;

        let base = run_sharded(&spec, 1).to_json_canonical();
        for shards in [2usize, 4] {
            let plan = ExecPlan::partition(&spec, shards);
            let got = run_sharded(&spec, shards);
            prop_assert_eq!(got.shards.len(), plan.shards, "one slice per shard");
            let canon = got.to_json_canonical();
            prop_assert!(
                canon == base,
                "canonical report diverged at {} shards (plan ran {}):\n--- 1 shard ---\n{}\n--- {} shards ---\n{}",
                shards, plan.shards, base, shards, canon
            );
        }
    }

    /// The control plane's half of the claim: backpressure (credit
    /// gates, congestion epochs, renegotiation) and switch death
    /// (signalling repair) plan as one shard whatever is requested, so
    /// `--shards 4` is the one-shard run and the canonical report
    /// cannot depend on the request.
    #[test]
    fn control_plane_is_invariant_under_sharding(
        tag in 0u8..3,
        switches in 2usize..7,
        sessions in 1usize..12,
        epoch_ms in 1u64..3,
        window in 8u64..48,
        death_ms in 1u64..8,
        dead_switch in 0usize..7,
        seed in 0u64..1000,
    ) {
        let mut spec = ScenarioSpec::base("prop-control").with_seed(seed);
        spec.topology = TopologySpec {
            shape: shape_for(tag),
            switches,
            ..spec.topology
        };
        spec.sessions = sessions;
        spec.mix = SessionMix::new(2.0, 1.0, 1.0);
        spec.arrival = Arrival::Uniform { window: 2 * MS };
        spec.duration = 8 * MS;
        spec.drain = 5 * MS;
        spec.backpressure.enabled = true;
        spec.backpressure.epoch = epoch_ms * MS;
        spec.backpressure.window_cells = window;
        spec.faults.push(FaultSpec::SwitchDeath {
            at: death_ms * MS,
            switch: dead_switch % switches,
        });

        let plan = ExecPlan::partition(&spec, 4);
        prop_assert_eq!(plan.shards, 1);
        prop_assert!(plan.clamp_reason.is_some(), "the clamp is visible");
        let got = run_sharded(&spec, 4);
        prop_assert_eq!(got.shards.len(), 1, "one slice");
        prop_assert_eq!(got.to_json_canonical(), run(&spec).to_json_canonical());
    }
}
