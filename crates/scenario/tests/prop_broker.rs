//! Property tests for the QoS broker's cross-layer invariants, driven
//! through the scenario compiler so that every generated overload —
//! any topology, session count, load factor, file-server count and CPU
//! budget — exercises the real admission path:
//!
//! 1. no layer's capacity ledger is ever exceeded, and the sum of the
//!    granted contracts is exactly what the ledgers say is reserved;
//! 2. admission outcomes are a pure function of `(spec, seed)`;
//! 3. renegotiation only ever lowers a session's resource vector.

use proptest::prelude::*;

use pegasus::broker::{FlowRequest, Outcome, QosBroker, SessionClass, SessionRequest};
use pegasus_atm::link::CaptureSink;
use pegasus_atm::network::{LinkConfig, Network, RESERVABLE_FRACTION};
use pegasus_scenario::build::SessionContract;
use pegasus_scenario::spec::{ScenarioSpec, SessionMix};
use pegasus_sim::time::MS;

/// An overload-prone spec from raw generator values. Wiring (not
/// traffic) is the subject, so the duration is minimal. The mix leans
/// on VoD so that, in some cases, a server's 8 stream slots fill
/// before the CPU or bandwidth ledger refuses.
fn overload_spec(
    switches: usize,
    sessions: usize,
    load_pct: u64,
    video_mbps: u64,
    servers: usize,
    cpu_capacity: u64,
    seed: u64,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("prop-broker").with_seed(seed);
    spec.topology.switches = switches;
    spec.sessions = sessions;
    spec.mix = SessionMix::new(0.1, 0.8, 0.1).with_load(load_pct as f64 / 100.0);
    spec.video_bps = video_mbps * 1_000_000;
    spec.pfs_servers = servers;
    spec.broker.cpu_capacity_micro = cpu_capacity;
    spec.duration = MS;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1: whatever the overload, the sum of admitted
    /// contracts never exceeds any layer's capacity ledger — and the
    /// ledgers agree exactly with the contracts (conservation, both
    /// directions).
    #[test]
    fn admitted_contracts_never_exceed_any_ledger(
        switches in 1usize..5,
        sessions in 1usize..48,
        load_pct in 50u64..300,
        video_mbps in 1u64..40,
        servers in 1usize..=2,
        cpu_capacity in 1_000u64..20_000,
        seed in 0u64..1000,
    ) {
        let spec = overload_spec(
            switches, sessions, load_pct, video_mbps, servers, cpu_capacity, seed,
        );
        let scenario = pegasus_scenario::compile(&spec);

        // CPU ledger: inside capacity, and exactly the contract sum.
        let broker = &scenario.broker;
        prop_assert!(broker.cpu.reserved_micro() <= broker.cpu.capacity_micro());
        let cpu_sum: u64 = scenario.contracts.iter().map(|c| c.granted.cpu_micro).sum();
        prop_assert_eq!(cpu_sum, broker.cpu.reserved_micro());

        // Stream slots: every server inside capacity, totals agree.
        for server in &broker.pfs {
            prop_assert!(server.used() <= server.capacity());
        }
        let slot_sum: u64 = scenario.contracts.iter().map(|c| c.granted.pfs_slots as u64).sum();
        let ledger_sum: u64 = broker.pfs.iter().map(|s| s.used() as u64).sum();
        prop_assert_eq!(slot_sum, ledger_sum);

        // Bandwidth: no link past its reservable budget.
        let u = scenario.sys.net.max_reservation_utilization();
        let budget = RESERVABLE_FRACTION;
        prop_assert!(u <= budget + 1e-9, "utilization {} over budget {}", u, budget);
    }

    /// Invariant 2: the admit/degrade/reject verdict of every session —
    /// not just the counts — is deterministic in `(spec, seed)`.
    #[test]
    fn rejection_is_deterministic_in_spec_and_seed(
        switches in 1usize..5,
        sessions in 1usize..32,
        load_pct in 50u64..300,
        video_mbps in 1u64..40,
        servers in 1usize..=2,
        cpu_capacity in 1_000u64..20_000,
        seed in 0u64..1000,
    ) {
        let spec = overload_spec(
            switches, sessions, load_pct, video_mbps, servers, cpu_capacity, seed,
        );
        let outcomes = |contracts: &[SessionContract]| -> Vec<Outcome> {
            contracts.iter().map(|c| c.outcome).collect()
        };
        let a = pegasus_scenario::compile(&spec);
        let b = pegasus_scenario::compile(&spec);
        prop_assert_eq!(outcomes(&a.contracts), outcomes(&b.contracts));
        prop_assert_eq!(a.contracts.len(), spec.sessions);
    }

    /// Invariant 3: renegotiation only ever lowers a session's resource
    /// vector — a degraded grant is component-wise at or below the
    /// request (and strictly below somewhere), an admitted grant is the
    /// request, a rejected session holds nothing.
    #[test]
    fn renegotiation_only_lowers_the_vector(
        switches in 1usize..5,
        sessions in 1usize..48,
        load_pct in 50u64..300,
        video_mbps in 1u64..40,
        servers in 1usize..=2,
        cpu_capacity in 1_000u64..20_000,
        seed in 0u64..1000,
    ) {
        let spec = overload_spec(
            switches, sessions, load_pct, video_mbps, servers, cpu_capacity, seed,
        );
        let scenario = pegasus_scenario::compile(&spec);
        for c in &scenario.contracts {
            prop_assert!(
                c.granted.le(&c.requested),
                "granted {:?} above requested {:?}", c.granted, c.requested
            );
            match c.outcome {
                Outcome::Admitted => prop_assert_eq!(c.granted, c.requested),
                Outcome::Degraded => {
                    prop_assert!(c.granted != c.requested, "degraded but nothing lowered");
                    // Slots are never the degraded dimension.
                    prop_assert_eq!(c.granted.pfs_slots, c.requested.pfs_slots);
                }
                Outcome::Rejected(_) => {
                    prop_assert_eq!(c.granted, Default::default());
                }
            }
        }
    }

    /// Invariant 4 (live renegotiation): however the congestion loop
    /// walks a live session's quality up and down, it never exceeds the
    /// originally admitted contract, the CPU ledger tracks the granted
    /// vector exactly at every step, and releasing the session restores
    /// every ledger to its pre-admission state.
    #[test]
    fn live_renegotiation_clamps_to_admitted_and_restores_ledgers(
        video_mbps in 1u64..40,
        cpu_micro in 100u64..5_000,
        walk in prop::collection::vec(1u64..2_000, 1..24),
    ) {
        let mut net = Network::new();
        let a = net.add_switch("a", 8, 100);
        let b = net.add_switch("b", 8, 100);
        net.connect_switches_auto(a, b, LinkConfig::pegasus_default());
        let src = net.add_endpoint_auto(a, LinkConfig::pegasus_default(), CaptureSink::shared());
        let dst = net.add_endpoint_auto(b, LinkConfig::pegasus_default(), CaptureSink::shared());

        let mut broker = QosBroker::new(10_000, 0, 0, 700);
        let req = SessionRequest {
            class: SessionClass::Videophone,
            media_flows: vec![FlowRequest { src, dst, bps: video_mbps * 1_000_000 }],
            fixed_flows: Vec::new(),
            cpu_micro,
            pfs_server: None,
        };
        let mut grant = broker.admit(&mut net, &req);
        prop_assert!(grant.is_admitted(), "this request always fits");
        let admitted = grant.admitted_milli;

        for (i, target) in walk.iter().enumerate() {
            let from = grant.quality_milli;
            let transitions = grant.history.len();
            if broker
                .renegotiate_live(&mut net, &mut grant, *target, i as u64)
                .is_ok()
            {
                // Up is clamped to the admitted contract, down lands
                // exactly on the target.
                prop_assert_eq!(grant.quality_milli, (*target).min(admitted));
                prop_assert!(grant.quality_milli <= admitted, "quality above contract");
                // Every real move is in the history; a no-op is not.
                let expect = transitions + (grant.quality_milli != from) as usize;
                prop_assert_eq!(grant.history.len(), expect);
            } else {
                // A refusal has no side effects.
                prop_assert_eq!(grant.quality_milli, from);
                prop_assert_eq!(grant.history.len(), transitions);
            }
            // The CPU ledger is exactly the one granted vector.
            prop_assert_eq!(broker.cpu.reserved_micro(), grant.granted.cpu_micro);
        }

        broker.release(&mut net, grant);
        prop_assert_eq!(broker.cpu.reserved_micro(), 0, "CPU ledger restored");
        let u = net.max_reservation_utilization();
        prop_assert!(u.abs() < 1e-12, "bandwidth ledger restored, got {}", u);
    }
}
