//! Topology partitioning for sharded execution.
//!
//! An [`ExecPlan`] splits the fabric switches of a [`ScenarioSpec`]
//! into contiguous region shards at compile time. Each shard owns a
//! range of fabric switches plus every endpoint attached to them; the
//! only thing shards exchange at runtime is sealed cells crossing *cut
//! trunks* (inter-switch links whose two ends land in different
//! shards), exchanged at conservative-lookahead epoch barriers by the
//! executor (`crate::executor`).
//!
//! The plan is a pure function of `(spec, requested shards)`, so every
//! shard — and every shard *count* — agrees on who owns what without
//! communicating. Determinism across shard counts rests on that, plus
//! the per-trunk scheduling lanes assigned at wiring time
//! (`pegasus_atm::network::TrunkDir`).
//!
//! Only the data plane shards. A spec with a control plane — credit
//! backpressure (credited circuits, congestion epochs, renegotiation),
//! a `SwitchDeath` (signalling repair over the whole `Network`) or a
//! `BestEffortBlast` (a credited circuit of its own) — runs on one
//! shard (`control_plane` below): its state is one broker, one
//! controller and a few dozen credit windows consulted once per epoch,
//! and a transport that synchronises every cell time of lookahead cost
//! those runs 8–40× their one-shard time (`docs/ARCHITECTURE.md`,
//! "Only the data plane shards"). The other clamp is geometric: a plan
//! can never have more shards than fabric switches.
//!
//! Clamping is *visible* (the plan records it, and the CLI prints the
//! reason), never an error: a spec that cannot use every requested
//! shard still runs on the clamped count.

use crate::spec::{FaultSpec, ScenarioSpec};

/// Why `spec` runs on one shard, if it has a control plane: exactly
/// the specs with control marks or credited circuits.
pub(crate) fn control_plane(spec: &ScenarioSpec) -> Option<&'static str> {
    if spec.backpressure.enabled {
        return Some("backpressure couples producers and consumers");
    }
    spec.faults.iter().find_map(|f| match f {
        FaultSpec::SwitchDeath { .. } => Some("switch death repairs the whole network"),
        FaultSpec::BestEffortBlast { .. } => Some("blast pump shares its sink's credit window"),
        _ => None,
    })
}

/// The partition of a scenario into region shards.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Effective shard count after clamping.
    pub shards: usize,
    /// `owner[s]` = the shard owning fabric switch `s`. In the
    /// spec-driven path fabric switch index and network switch index
    /// coincide (the fabric is built first and nothing else adds
    /// switches).
    pub owner: Vec<usize>,
    /// The shard count the caller asked for, before clamping.
    pub requested: usize,
    /// Why the plan clamped to fewer shards than requested, if it did.
    pub clamp_reason: Option<&'static str>,
}

impl ExecPlan {
    /// Partitions `spec`'s fabric into at most `requested` shards.
    pub fn partition(spec: &ScenarioSpec, requested: usize) -> ExecPlan {
        let n = spec.topology.switches.max(1);
        let requested = requested.max(1);
        let control = control_plane(spec);
        let shards = if control.is_some() {
            1
        } else {
            requested.min(n)
        };
        let clamp_reason =
            (shards < requested).then(|| control.unwrap_or("more shards than fabric switches"));
        // Contiguous balanced ranges: switch s goes to shard s·k/n.
        let owner = (0..n).map(|s| s * shards / n).collect();
        ExecPlan {
            shards,
            owner,
            requested,
            clamp_reason,
        }
    }

    /// The view shard `shard` compiles and runs with.
    pub fn shard_plan(&self, shard: usize) -> ShardPlan {
        assert!(shard < self.shards, "shard index within plan");
        ShardPlan {
            shard,
            shards: self.shards,
            owner: self.owner.clone(),
        }
    }
}

/// One shard's compile-time view of an [`ExecPlan`]: which switches it
/// owns and, by its index, whether it is the coordinator.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// This shard's index.
    pub shard: usize,
    /// Total effective shards.
    pub shards: usize,
    /// Switch index → owning shard.
    pub owner: Vec<usize>,
}

impl ShardPlan {
    /// The trivial plan: one shard owning everything.
    pub fn single() -> ShardPlan {
        ShardPlan {
            shard: 0,
            shards: 1,
            owner: Vec::new(),
        }
    }

    /// Shard 0 is the coordinator: it alone materializes the PFS
    /// servers (prerecord + CM replay), replays the Nemesis epoch
    /// schedule, and contributes the broker/topology sections every
    /// shard computes identically.
    pub fn is_coordinator(&self) -> bool {
        self.shard == 0
    }

    /// Whether this shard owns fabric switch `s` — and therefore every
    /// endpoint attached to it and every event those endpoints run.
    pub fn owns(&self, s: usize) -> bool {
        self.owner_of(s) == self.shard
    }

    /// The shard owning fabric switch `s` (shard 0 under the trivial
    /// plan).
    pub fn owner_of(&self, s: usize) -> usize {
        if self.shards == 1 {
            0
        } else {
            self.owner.get(s).copied().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackpressureSpec, FaultSpec, ScenarioSpec};
    use pegasus_sim::time::MS;

    fn mesh_spec(switches: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::base("part");
        spec.topology.switches = switches;
        spec
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let plan = ExecPlan::partition(&mesh_spec(16), 4);
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.owner.len(), 16);
        // Contiguous, non-decreasing, every shard non-empty.
        for w in plan.owner.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
        for k in 0..4 {
            assert_eq!(plan.owner.iter().filter(|&&o| o == k).count(), 4);
        }
    }

    #[test]
    fn more_shards_than_switches_clamps() {
        let plan = ExecPlan::partition(&mesh_spec(3), 8);
        assert_eq!(plan.shards, 3);
        assert!(plan.clamp_reason.is_some());
        // Every switch still owned by a distinct live shard.
        assert_eq!(plan.owner, vec![0, 1, 2]);
    }

    /// Four shards asked of a 16-switch mesh, one planned, and the plan
    /// says why; asking for one shard is not a clamp.
    fn assert_clamped(spec: &ScenarioSpec, reason: &str) {
        let plan = ExecPlan::partition(spec, 4);
        assert_eq!((plan.shards, plan.requested), (1, 4), "{reason}");
        assert_eq!(plan.clamp_reason, Some(reason));
        assert!(plan.owner.iter().all(|&o| o == 0));
        assert!(ExecPlan::partition(spec, 1).clamp_reason.is_none());
    }

    #[test]
    fn backpressure_clamps_to_one_shard() {
        let mut spec = mesh_spec(16);
        spec.backpressure = BackpressureSpec {
            enabled: true,
            ..spec.backpressure
        };
        assert_clamped(&spec, "backpressure couples producers and consumers");
    }

    #[test]
    fn switch_death_and_blast_each_clamp_to_one_shard() {
        let mut spec = mesh_spec(16);
        spec.faults.push(FaultSpec::SwitchDeath {
            at: 10 * MS,
            switch: 2,
        });
        assert_clamped(&spec, "switch death repairs the whole network");
        let mut spec = mesh_spec(16);
        spec.faults.push(FaultSpec::BestEffortBlast {
            at: MS,
            until: 5 * MS,
            from_switch: 1,
            to_switch: 6,
            rate_bps: 100_000_000,
            window: 64,
        });
        assert_clamped(&spec, "blast pump shares its sink's credit window");
    }

    #[test]
    fn data_plane_faults_do_not_clamp() {
        let mut spec = mesh_spec(16);
        spec.faults = vec![
            FaultSpec::LinkFlap {
                at: MS,
                until: 2 * MS,
                switch: 3,
            },
            FaultSpec::SwitchDegrade {
                at: MS,
                switch: 5,
                queue_capacity: 4,
            },
            FaultSpec::DiskFail {
                at: MS,
                server: 0,
                disk: 1,
                replace_at: 3 * MS,
            },
            FaultSpec::CpuLoadSpike {
                at: MS,
                until: 2 * MS,
                demand: 1.0,
                weight: 2.0,
            },
        ];
        let plan = ExecPlan::partition(&spec, 4);
        assert_eq!(plan.shards, 4);
        assert!(plan.clamp_reason.is_none());
    }

    #[test]
    fn owner_is_identical_across_shard_views() {
        let plan = ExecPlan::partition(&mesh_spec(10), 3);
        for i in 0..plan.shards {
            let sp = plan.shard_plan(i);
            assert_eq!(sp.owner, plan.owner);
            assert_eq!(sp.is_coordinator(), i == 0);
        }
    }
}
