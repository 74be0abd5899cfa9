//! Property tests for the scenario topology builder: any generated
//! `(shape, switches, sessions)` must wire a connected fabric, and the
//! sessions admitted onto it must never oversubscribe a link beyond the
//! network's declared reservable budget.

use proptest::prelude::*;

use pegasus_atm::network::{TopologyShape, RESERVABLE_FRACTION};
use pegasus_scenario::spec::{ScenarioSpec, TopologySpec};
use pegasus_sim::time::MS;

fn shape_for(tag: u8) -> TopologyShape {
    match tag % 3 {
        0 => TopologyShape::Star,
        1 => TopologyShape::Ring,
        _ => TopologyShape::FullMesh,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated topologies are connected: every session's VC opens
    /// (the builder would panic on `NoRoute` because the best-effort
    /// fallback expects a path), and the fabric BFS reaches everything.
    #[test]
    fn generated_topologies_are_connected(
        tag in 0u8..3,
        switches in 1usize..10,
        sessions in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut spec = ScenarioSpec::base("prop-topo").with_seed(seed);
        spec.topology = TopologySpec {
            shape: shape_for(tag),
            switches,
            ..spec.topology
        };
        spec.sessions = sessions;
        spec.duration = MS; // wiring is the subject, not traffic
        let scenario = pegasus_scenario::compile(&spec);
        prop_assert!(scenario.sys.net.is_connected());
        prop_assert_eq!(scenario.sys.net.switch_count(), switches);
        let (vp, vod, tv) = scenario.counts;
        prop_assert_eq!(vp + vod + tv, sessions);
    }

    /// Admission control keeps every link inside its declared
    /// reservable budget no matter how many sessions the spec asks for
    /// — overload falls back to best effort instead of overbooking.
    #[test]
    fn reservations_stay_within_link_budgets(
        tag in 0u8..3,
        switches in 1usize..6,
        sessions in 1usize..64,
        video_mbps in 1u64..40,
        seed in 0u64..1000,
    ) {
        let mut spec = ScenarioSpec::base("prop-budget").with_seed(seed);
        spec.topology = TopologySpec {
            shape: shape_for(tag),
            switches,
            ..spec.topology
        };
        spec.sessions = sessions;
        spec.video_bps = video_mbps * 1_000_000;
        spec.duration = MS;
        let scenario = pegasus_scenario::compile(&spec);
        let u = scenario.sys.net.max_reservation_utilization();
        let budget = RESERVABLE_FRACTION;
        prop_assert!(
            u <= budget + 1e-9,
            "utilization {} exceeds reservable budget {}", u, budget
        );
    }
}
