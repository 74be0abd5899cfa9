//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is everything a city-scale workload needs to be
//! reproducible: topology shape and link rates, the session mix and how
//! sessions arrive, the fault schedule, the run length and the seed.
//! [`crate::build`] compiles one into a wired [`pegasus::system::System`]
//! and runs it; the same spec and seed always produce byte-identical
//! reports.

use pegasus_atm::network::{LinkConfig, TopologyShape};
use pegasus_sim::time::{Ns, MS};

/// The switch fabric a scenario runs on.
#[derive(Debug, Clone, Copy)]
pub struct TopologySpec {
    /// Wiring pattern of the fabric.
    pub shape: TopologyShape,
    /// Number of fabric switches.
    pub switches: usize,
    /// Link parameters for every link (inter-switch and device).
    pub link: LinkConfig,
}

/// Relative weights of the session classes (normalized internally),
/// plus the mix's demand load factor.
#[derive(Debug, Clone, Copy)]
pub struct SessionMix {
    /// Two-party calls: camera→display plus audio, device to device.
    pub videophone: f64,
    /// Video-on-demand: the file server streams an indexed file to a
    /// synchronized playback client.
    pub vod: f64,
    /// TV distribution: studio cameras into a control-room window
    /// stack, with periodic cuts.
    pub tv: f64,
    /// Demand multiplier on every session's requested resource vector
    /// (CPU share, guaranteed video bandwidth, per-stream disk rate).
    /// 1.0 is nominal; the overload presets ask for more than the plant
    /// holds, so the QoS broker has to degrade or reject the surplus.
    pub load: f64,
}

impl SessionMix {
    /// A mix at nominal (1.0) load.
    pub fn new(videophone: f64, vod: f64, tv: f64) -> SessionMix {
        SessionMix {
            videophone,
            vod,
            tv,
            load: 1.0,
        }
    }

    /// The same class weights at a different load factor.
    pub fn with_load(mut self, load: f64) -> SessionMix {
        assert!(load > 0.0, "load factor must be positive");
        self.load = load;
        self
    }

    /// Splits `total` sessions into per-class counts by largest
    /// remainder, so the counts always sum to `total`.
    pub fn counts(&self, total: usize) -> (usize, usize, usize) {
        let sum = self.videophone + self.vod + self.tv;
        assert!(sum > 0.0, "session mix must have positive weight");
        let exact = [
            self.videophone / sum * total as f64,
            self.vod / sum * total as f64,
            self.tv / sum * total as f64,
        ];
        let mut counts = [0usize; 3];
        let mut assigned = 0;
        for (c, e) in counts.iter_mut().zip(exact) {
            *c = e.floor() as usize;
            assigned += *c;
        }
        // Hand leftovers to the largest fractional parts (ties by class
        // order — deterministic).
        let mut order: Vec<usize> = (0..3).collect();
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
        });
        for &i in order.iter().cycle().take(total - assigned) {
            counts[i] += 1;
        }
        (counts[0], counts[1], counts[2])
    }
}

/// How session start times are drawn over the run.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Every session starts at t = 0.
    Immediate,
    /// Starts drawn uniformly over `[0, window)`.
    Uniform {
        /// Width of the start window.
        window: Ns,
    },
    /// Poisson arrivals: exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: Ns,
    },
}

/// One scheduled incident of the scenario's fault schedule.
#[derive(Debug, Clone, Copy)]
pub enum FaultSpec {
    /// A rogue domain demands CPU from the Nemesis QoS manager between
    /// `at` and `until` (replayed through
    /// [`pegasus_nemesis::faults::EpochDriver`]).
    CpuLoadSpike {
        /// Onset.
        at: Ns,
        /// End of the incident.
        until: Ns,
        /// CPU fraction demanded.
        demand: f64,
        /// Rogue's user weight (media baseline is 1.0).
        weight: f64,
    },
    /// Fabric switch `switch` has its output-queue capacity clamped to
    /// `queue_capacity` cells at time `at` (a degraded line card);
    /// overflow drops follow.
    SwitchDegrade {
        /// When the degradation hits.
        at: Ns,
        /// Index into the fabric switch list.
        switch: usize,
        /// The clamped per-output queue capacity, in cells.
        queue_capacity: u64,
    },
    /// Every output line of fabric switch `switch` goes dark between
    /// `at` and `until`: cells offered while the line is down drop on
    /// the floor mid-frame, exactly as a flapping transceiver would.
    LinkFlap {
        /// When the lines go dark.
        at: Ns,
        /// When they come back.
        until: Ns,
        /// Index into the fabric switch list.
        switch: usize,
    },
    /// Fabric switch `switch` dies at `at`: routing tables gone,
    /// adjacent lines cut. Signalling re-routes established circuits
    /// around the corpse with their endpoint VCIs pinned (devices keep
    /// sending and receiving on the VCIs they were configured with);
    /// circuits terminating on the dead switch are stranded.
    SwitchDeath {
        /// Time of death.
        at: Ns,
        /// Index into the fabric switch list.
        switch: usize,
    },
    /// A best-effort bulk transfer blasts cells at `rate_bps` from an
    /// injector endpoint on `from_switch` toward a sink endpoint on
    /// `to_switch` between `at` and `until` — several times the trunk
    /// rate, the classic congestion source. The blast itself runs under
    /// a credit window of `window` cells, so its standing queue in the
    /// fabric is bounded by construction: pressure without overflow.
    BestEffortBlast {
        /// Onset.
        at: Ns,
        /// End of the blast.
        until: Ns,
        /// Fabric switch the injector endpoint attaches to.
        from_switch: usize,
        /// Fabric switch the discard endpoint attaches to.
        to_switch: usize,
        /// Injector link rate — size it above the trunk to congest.
        rate_bps: u64,
        /// The blast's credit window, in cells. Keep it below the
        /// switch queue capacity and the blast can never overflow.
        window: u64,
    },
    /// Member disk `disk` of VoD server `server`'s RAID array
    /// fail-stops at `at`; reads run degraded (parity reconstruction)
    /// until a fresh spindle is swapped in at `replace_at`, when a full
    /// rebuild runs while the CM scheduler keeps serving streams. At
    /// most one incident per server.
    DiskFail {
        /// Fail-stop time.
        at: Ns,
        /// Index into the VoD server list.
        server: usize,
        /// RAID member index (0..=4; 4 is the parity disk).
        disk: usize,
        /// When the replacement spindle arrives.
        replace_at: Ns,
    },
}

/// End-to-end backpressure policy: per-VC credit windows on the media
/// circuits plus the congestion feedback loop that renegotiates live
/// sessions ([`pegasus::congestion`]). Disabled by default so the
/// classic presets run exactly as before; the overload presets switch
/// it on to show explicit, bounded, reversible degradation instead of
/// queue growth and drops.
#[derive(Debug, Clone, Copy)]
pub struct BackpressureSpec {
    /// Master switch. Off: no credit gating, no epoch monitor, and the
    /// run's event schedule is byte-identical to the pre-credit world.
    pub enabled: bool,
    /// Credits the consuming endpoint grants each media circuit, in
    /// cells — the hard cap on that circuit's in-flight cells.
    pub window_cells: u64,
}

impl Default for BackpressureSpec {
    fn default() -> Self {
        BackpressureSpec {
            enabled: false,
            window_cells: 64,
        }
    }
}

/// The tiered content cache fronting each VoD server's log store
/// ([`pegasus_pfs::tier::TieredCache`]): an in-memory hot tier of views
/// of the log store's pages, whose hits are refcount bumps, a
/// popularity-admitted warm tier, the
/// RAID array as cold tier, and broker-rate-driven sequential prefetch.
/// Disabled by default: the classic presets replay their CM schedules
/// straight against the array, byte-identical to the pre-cache world.
#[derive(Debug, Clone, Copy)]
pub struct CacheSpec {
    /// Master switch. Off: per-period reads go straight to the log
    /// store and the report's cache section stays all-zero.
    pub enabled: bool,
    /// Distinct titles pre-recorded per server. With 1 title every VoD
    /// session plays the same file (the classic world, no extra RNG
    /// draws); with more, the last half of the arrivals are a flash
    /// crowd on title 0 and the rest draw theirs from a Zipf law.
    pub titles_per_server: usize,
}

impl Default for CacheSpec {
    fn default() -> Self {
        CacheSpec {
            enabled: false,
            titles_per_server: 1,
        }
    }
}

/// Capacity and policy knobs of the cross-layer QoS broker
/// ([`pegasus::broker::QosBroker`]) a scenario's sessions are admitted
/// through.
#[derive(Debug, Clone, Copy)]
pub struct BrokerSpec {
    /// Reservable Nemesis CPU for media sessions, in micro-CPUs. The
    /// default (350,000 = 0.35 CPUs) plus the 0.05 control-plane
    /// baseline stays under the media app's 0.45 fair share against the
    /// synthetic batch competitor, so admitted load can never starve.
    pub cpu_capacity_micro: u64,
    /// Per-session CPU demand at nominal load, micro-CPUs.
    pub cpu_per_session_micro: u64,
    /// The renegotiation rung, in thousandths of the requested vector
    /// (500 = a degraded session runs at half bitrate / frame rate /
    /// CPU). 1000 disables degradation: admit or reject only.
    pub degrade_milli: u64,
}

impl Default for BrokerSpec {
    fn default() -> Self {
        BrokerSpec {
            cpu_capacity_micro: 350_000,
            cpu_per_session_micro: 300,
            degrade_milli: 500,
        }
    }
}

/// A complete, reproducible workload description.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (lands in the report).
    pub name: String,
    /// RNG seed; the report is a pure function of (spec, seed).
    pub seed: u64,
    /// Virtual run length: sources stop at this time.
    pub duration: Ns,
    /// Switch fabric.
    pub topology: TopologySpec,
    /// Total concurrent sessions.
    pub sessions: usize,
    /// Class mix.
    pub mix: SessionMix,
    /// Session start process.
    pub arrival: Arrival,
    /// Scheduled incidents.
    pub faults: Vec<FaultSpec>,
    /// Bandwidth requested per video stream (guaranteed, with
    /// best-effort fallback when a hop is full).
    pub video_bps: u64,
    /// Bytes/second each VoD stream draws from the file server.
    pub vod_disk_rate: u64,
    /// Number of file servers VoD streams are spread across.
    pub pfs_servers: usize,
    /// Tiered content cache fronting each VoD server.
    pub cache: CacheSpec,
    /// Time between TV director cuts.
    pub tv_cut_period: Ns,
    /// QoS-broker capacities and renegotiation policy.
    pub broker: BrokerSpec,
    /// Credit flow control and the live-renegotiation feedback loop.
    pub backpressure: BackpressureSpec,
}

impl ScenarioSpec {
    /// A neutral baseline other specs (and tests) derive from: one
    /// backbone switch, a handful of mixed sessions, no faults.
    pub fn base(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            seed: 1,
            duration: 200 * MS,
            topology: TopologySpec {
                shape: TopologyShape::Star,
                switches: 1,
                link: LinkConfig::pegasus_default(),
            },
            sessions: 4,
            mix: SessionMix::new(0.5, 0.25, 0.25),
            arrival: Arrival::Immediate,
            faults: Vec::new(),
            video_bps: 8_000_000,
            vod_disk_rate: 250_000,
            pfs_servers: 1,
            cache: CacheSpec::default(),
            tv_cut_period: 400 * MS,
            broker: BrokerSpec::default(),
            backpressure: BackpressureSpec::default(),
        }
    }

    /// Scales the session count by `factor` (at least one session
    /// remains), for CI-sized renditions of big presets.
    pub fn scale_sessions(mut self, factor: f64) -> ScenarioSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        self.sessions = ((self.sessions as f64 * factor).round() as usize).max(1);
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_counts_sum_to_total() {
        let mix = SessionMix::new(0.5, 0.3, 0.2);
        for total in [0usize, 1, 7, 100, 1000] {
            let (a, b, c) = mix.counts(total);
            assert_eq!(a + b + c, total, "total {total}");
        }
        let (a, b, c) = mix.counts(1000);
        assert_eq!((a, b, c), (500, 300, 200));
    }

    #[test]
    fn single_class_mix() {
        let mix = SessionMix::new(1.0, 0.0, 0.0);
        assert_eq!(mix.counts(17), (17, 0, 0));
    }

    #[test]
    fn load_factor_defaults_to_nominal_and_scales() {
        let mix = SessionMix::new(1.0, 0.0, 0.0);
        assert_eq!(mix.load, 1.0);
        assert_eq!(mix.with_load(2.0).load, 2.0);
    }

    #[test]
    #[should_panic(expected = "load factor must be positive")]
    fn zero_load_rejected() {
        let _ = SessionMix::new(1.0, 0.0, 0.0).with_load(0.0);
    }

    #[test]
    fn scale_sessions_floors_at_one() {
        let spec = ScenarioSpec::base("t").scale_sessions(0.001);
        assert_eq!(spec.sessions, 1);
    }
}
