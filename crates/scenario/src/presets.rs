//! Named scenario presets, from CI-sized `smoke` to `metropolis-100k`.
//!
//! Presets are ordinary [`ScenarioSpec`] values — the cookbook in
//! `docs/SCENARIOS.md` explains each one's intent and the knobs worth
//! turning. CI runs `smoke` and a scaled-down `metropolis-1k` on every
//! PR and asserts zero deadline misses (see `scripts/run_scenarios.sh`).

use pegasus_atm::network::{LinkConfig, TopologyShape};
use pegasus_sim::time::MS;

use crate::spec::{Arrival, FaultSpec, ScenarioSpec, SessionMix, TopologySpec};

/// A 622 Mbit/s trunk (OC-12-class), for city fabrics.
fn oc12() -> LinkConfig {
    LinkConfig {
        rate_bps: 622_000_000,
        prop_delay: 5_000, // 5 µs: a kilometre-scale metro run
    }
}

/// The CI-sized scenario: seconds of wall clock, all three classes,
/// zero expected deadline misses.
pub fn smoke() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("smoke");
    spec.topology = TopologySpec {
        shape: TopologyShape::Star,
        switches: 2,
        link: LinkConfig::pegasus_default(),
    };
    spec.sessions = 8;
    spec.mix = SessionMix::new(0.5, 0.25, 0.25);
    spec.duration = 150 * MS;
    spec
}

/// A wall of two-party calls on a campus star — the videophone workload
/// of §2 at density.
pub(crate) fn videophone_wall() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("videophone-wall");
    spec.topology = TopologySpec {
        shape: TopologyShape::Star,
        switches: 4,
        link: oc12(),
    };
    spec.sessions = 64;
    spec.mix = SessionMix::new(1.0, 0.0, 0.0);
    spec.arrival = Arrival::Uniform { window: 50 * MS };
    spec.duration = 300 * MS;
    spec
}

/// A rack of VoD streams off the file servers — the §5 continuous-media
/// service stack under fan-out.
pub(crate) fn vod_rack() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("vod-rack");
    spec.topology = TopologySpec {
        shape: TopologyShape::Ring,
        switches: 4,
        link: oc12(),
    };
    spec.sessions = 48;
    spec.mix = SessionMix::new(0.0, 1.0, 0.0);
    // One RAID stripe (~51 ms) per stream per 500 ms period: eight
    // servers keep each one at six streams, inside its deadline.
    spec.pfs_servers = 8;
    spec.arrival = Arrival::Poisson { mean_gap: 2 * MS };
    spec.duration = 300 * MS;
    spec
}

/// Studios feeding control rooms with a director cutting — the flagship
/// TV application, many rooms at once.
pub(crate) fn tv_studio() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("tv-studio");
    spec.topology = TopologySpec {
        shape: TopologyShape::Star,
        switches: 3,
        link: oc12(),
    };
    spec.sessions = 24;
    spec.mix = SessionMix::new(0.0, 0.0, 1.0);
    spec.tv_cut_period = 80 * MS;
    spec.duration = 400 * MS;
    spec
}

/// A mixed district under scheduled faults: a rogue CPU hog, a degraded
/// line card, flapping lines mid-frame, a switch death repaired by
/// signalling, and a disk failure with a live RAID rebuild — every
/// layer's resilience probe at once.
pub fn nemesis_storm() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("nemesis-storm");
    spec.topology = TopologySpec {
        shape: TopologyShape::Ring,
        switches: 6,
        link: LinkConfig::pegasus_default(),
    };
    spec.sessions = 36;
    spec.pfs_servers = 2;
    spec.duration = 300 * MS;
    spec.faults = vec![
        FaultSpec::CpuLoadSpike {
            at: 100 * MS,
            until: 200 * MS,
            demand: 1.0,
            // Heavy enough that the media app's weighted share of the
            // CPU drops below its demand: the starvation must register.
            weight: 30.0,
        },
        FaultSpec::SwitchDegrade {
            at: 150 * MS,
            switch: 2,
            queue_capacity: 4,
        },
        // A member disk of server 0 dies early; streams ride parity
        // reconstruction until the swap, then the rebuild runs under
        // the same live load.
        FaultSpec::DiskFail {
            at: 50 * MS,
            server: 0,
            disk: 2,
            replace_at: 200 * MS,
        },
        // Switch 4's lines flap dark for 15 ms mid-run: frames in
        // flight lose cells mid-body and the receive path must fall
        // back and classify, never accept.
        FaultSpec::LinkFlap {
            at: 120 * MS,
            until: 135 * MS,
            switch: 4,
        },
        // Switch 1 dies outright; signalling re-routes the surviving
        // ring with endpoint VCIs pinned, strands the rest.
        FaultSpec::SwitchDeath {
            at: 180 * MS,
            switch: 1,
        },
    ];
    spec
}

/// The city: 1,000 concurrent sessions across a 16-switch metro mesh.
pub fn metropolis_1k() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("metropolis-1k");
    spec.topology = TopologySpec {
        shape: TopologyShape::FullMesh,
        switches: 16,
        link: oc12(),
    };
    spec.sessions = 1000;
    spec.mix = SessionMix::new(0.5, 0.3, 0.2);
    // 300 VoD streams: a 48-server cluster keeps every CM scheduler
    // under seven streams per 500 ms period (one ~51 ms stripe each).
    spec.pfs_servers = 48;
    spec.arrival = Arrival::Uniform { window: 100 * MS };
    spec.duration = 300 * MS;
    spec
}

/// The whole city at once: 100,000 session attempts on the 16-switch
/// metro mesh — the sharded executor's showcase workload. The QoS
/// broker is the city's front door: its CPU ledger (2.7 CPUs of media
/// budget at 300 µCPU per session, admit-or-reject) caps the admitted
/// population at 9,000 concurrent sessions, and the 48-server VoD
/// cluster caps streaming at its 384 slots — everyone else is turned
/// away with a reason, exactly as §3's broker argument demands.
/// Streams run at a metro-realistic 2 Mbit/s so a single run stays in
/// memory and in budget.
pub(crate) fn metropolis_100k() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("metropolis-100k");
    spec.topology = TopologySpec {
        shape: TopologyShape::FullMesh,
        switches: 16,
        link: oc12(),
    };
    spec.sessions = 100_000;
    spec.mix = SessionMix::new(0.5, 0.3, 0.2);
    spec.pfs_servers = 48;
    spec.arrival = Arrival::Uniform { window: 60 * MS };
    spec.duration = 120 * MS;
    spec.video_bps = 2_000_000;
    // 2.7 CPUs of reservable media budget; admit-or-reject (no degrade
    // rung) keeps the admitted count — and the network-wide VCI pool —
    // firmly bounded at city scale.
    spec.broker.cpu_capacity_micro = 2_700_000;
    spec.broker.degrade_milli = 1000;
    spec
}

/// Twice-sustainable demand on a two-switch star: every session crosses
/// the single 100 Mbit/s trunk asking for double the nominal vector, so
/// the QoS broker must renegotiate some sessions down and turn the rest
/// away — overload as a measured, deterministic outcome instead of
/// every queue overflowing at once.
pub(crate) fn overload_2x() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("overload-2x");
    spec.topology = TopologySpec {
        shape: TopologyShape::Star,
        switches: 2,
        link: LinkConfig::pegasus_default(),
    };
    spec.sessions = 24;
    spec.mix = SessionMix::new(0.5, 0.25, 0.25).with_load(2.0);
    spec.pfs_servers = 1;
    spec.arrival = Arrival::Uniform { window: 40 * MS };
    spec.duration = 200 * MS;
    spec
}

/// A flash crowd: a burst of sessions arriving almost at once on a
/// small fabric with one file server and a deliberately tight CPU
/// budget, so all three layers — bandwidth, stream slots and the
/// Nemesis CPU ledger — end up the binding constraint for someone.
pub(crate) fn flash_crowd() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("flash-crowd");
    spec.topology = TopologySpec {
        shape: TopologyShape::Star,
        switches: 3,
        link: LinkConfig::pegasus_default(),
    };
    spec.sessions = 60;
    spec.mix = SessionMix::new(0.4, 0.4, 0.2);
    spec.pfs_servers = 1;
    // Everyone shows up inside 10 ms.
    spec.arrival = Arrival::Uniform { window: 10 * MS };
    spec.duration = 200 * MS;
    // A CPU budget sized so the crowd exhausts it on the late arrivals:
    // tight enough to bite after bandwidth has squeezed the videophone
    // wall and the lone server's slots have filled.
    spec.broker.cpu_capacity_micro = 11_000;
    spec
}

/// Three-times-sustainable best-effort load on a hub trunk of a
/// four-switch star, mid-run, with credit backpressure on: the blast is
/// credit-bounded so no queue can overflow, admitted media sessions
/// feel it as credit stalls, and the congestion controller renegotiates
/// them down a rung until the blast ends, then restores them. Overload
/// as explicit, bounded, reversible degradation — queues bounded by
/// construction, zero overflow drops, zero deadline misses. A
/// control-plane preset: it runs on one shard at any `--shards`.
pub fn sustained_3x() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("sustained-3x");
    spec.topology = TopologySpec {
        shape: TopologyShape::Star,
        switches: 4,
        link: LinkConfig::pegasus_default(),
    };
    spec.sessions = 16;
    spec.mix = SessionMix::new(0.5, 0.25, 0.25);
    spec.duration = 300 * MS;
    spec.backpressure.enabled = true;
    spec.backpressure.window_cells = 24;
    // Two spoke-to-spoke blasts transit the hub in opposite senses,
    // loading four of the six directed hub trunks (1→0, 0→2, 3→0,
    // 0→1) — most sessions source or sink behind a loaded trunk.
    // Each is 3× the 100 Mbit/s trunk, held to a standing queue of at
    // most 512 cells by its credit window; the queues build on
    // *different* hub output ports, so the per-port 1024-cell switch
    // queues never overflow.
    spec.faults = vec![
        FaultSpec::BestEffortBlast {
            at: 60 * MS,
            until: 200 * MS,
            from_switch: 1,
            to_switch: 2,
            rate_bps: 300_000_000,
            window: 512,
        },
        FaultSpec::BestEffortBlast {
            at: 60 * MS,
            until: 200 * MS,
            from_switch: 3,
            to_switch: 1,
            rate_bps: 300_000_000,
            window: 512,
        },
    ];
    spec
}

/// The full nemesis-storm fault schedule with credit backpressure on
/// top: the same rogue CPU hog, degraded line card, flapping lines,
/// switch death and disk failure, now with every media circuit
/// credit-gated. Dropped cells' credits are reclaimed each epoch so
/// producers never wedge, stranded circuits wedge *by design* (their
/// credits died with the corpse), and drops on admitted sessions are
/// attributed by cause instead of vanishing into a counter.
pub(crate) fn storm_backpressure() -> ScenarioSpec {
    let mut spec = nemesis_storm();
    spec.name = "storm-backpressure".to_string();
    spec.backpressure.enabled = true;
    spec.backpressure.window_cells = 64;
    spec
}

/// A VoD city with a hit catalogue: pure streaming load on a ring of
/// two servers, each holding eight titles drawn under a Zipf(α = 1)
/// popularity law, with the second half of the audience flash-crowding
/// onto title 0 — and the tiered content cache turned on in front of
/// the log stores. This is the §5 pathology preset: plain LRU would
/// evict every title sequentially and serve the crowd from disk N
/// times over; the tiers serve the crowd views of one resident chunk
/// (`crowded_title_hot_milli` ≥ 900 with `fresh_allocs` at zero) and the
/// Zipf head from the popularity-admitted warm tier. The hot tier is
/// deliberately small (four chunks against nine-odd live titles) so
/// the Zipf tail churns through warm, and the run is three full CM
/// service periods so steady-state hits dominate the cold first
/// touches. CI gates on the per-tier hit ratios and
/// `disk_io_saved_cells` staying positive.
pub(crate) fn vod_city() -> ScenarioSpec {
    let mut spec = ScenarioSpec::base("vod-city");
    spec.topology = TopologySpec {
        shape: TopologyShape::Ring,
        switches: 4,
        link: oc12(),
    };
    spec.sessions = 16;
    spec.mix = SessionMix::new(0.0, 1.0, 0.0);
    spec.pfs_servers = 2;
    spec.arrival = Arrival::Poisson { mean_gap: 2 * MS };
    spec.duration = 1500 * MS;
    // 1 MB/s per stream: each viewer crosses a chunk (= RAID stripe)
    // boundary during the run, so the sequential prefetcher and the
    // warm tier both see real work.
    spec.vod_disk_rate = 1_000_000;
    spec.cache.enabled = true;
    spec.cache.titles_per_server = 8;
    spec
}

/// Looks a preset up by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    match name {
        "smoke" => Some(smoke()),
        "videophone-wall" => Some(videophone_wall()),
        "vod-rack" => Some(vod_rack()),
        "tv-studio" => Some(tv_studio()),
        "nemesis-storm" => Some(nemesis_storm()),
        "metropolis-1k" => Some(metropolis_1k()),
        "metropolis-100k" => Some(metropolis_100k()),
        "overload-2x" => Some(overload_2x()),
        "flash-crowd" => Some(flash_crowd()),
        "sustained-3x" => Some(sustained_3x()),
        "storm-backpressure" => Some(storm_backpressure()),
        "vod-city" => Some(vod_city()),
        _ => None,
    }
}

/// Every preset name, in menu order.
pub const PRESETS: [&str; 12] = [
    "smoke",
    "videophone-wall",
    "vod-rack",
    "tv-studio",
    "nemesis-storm",
    "metropolis-1k",
    "metropolis-100k",
    "overload-2x",
    "flash-crowd",
    "sustained-3x",
    "storm-backpressure",
    "vod-city",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_resolves() {
        for name in PRESETS {
            let spec = by_name(name).expect(name);
            assert_eq!(spec.name, name);
            assert!(spec.sessions >= 1);
        }
        assert!(by_name("nope").is_none());
    }
}
