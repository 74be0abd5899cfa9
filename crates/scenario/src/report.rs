//! The structured result of a scenario run.
//!
//! A [`ScenarioReport`] is the whole claim surface of a run: delivery
//! and drop counts, per-class latency/jitter percentiles, deadline
//! misses from every layer (audio DACs, playback control, the CM disk
//! scheduler, the Nemesis QoS manager), file-server throughput and peak
//! switch queue depths. [`ScenarioReport::to_json`] renders it with the
//! deterministic writer in [`crate::json`], so CI can diff two runs of
//! the same spec byte-for-byte.

use pegasus_sim::stats::Summary;
use pegasus_sim::time::Ns;

use crate::json::JsonWriter;

/// Version of the report's JSON schema. Bumped when fields are added,
/// removed or reordered, so downstream diffing tools can refuse to
/// compare across schema changes. History in `SCENARIOS.md`.
pub const SCHEMA_VERSION: u64 = 5;

/// What one region shard did during a run, counted by its run loop.
/// A one-shard run reports exactly one slice with every counter but
/// `events` zero: it has no peer to wait for or seal to.
#[derive(Debug, Clone, Default)]
pub struct ShardSlice {
    /// Shard index (0 = coordinator).
    pub shard: u64,
    /// Events this shard's engine executed. Summed across slices this
    /// equals the report's `events_executed` — the count is invariant
    /// under the shard count.
    pub events: u64,
    /// Lookahead-epoch barrier crossings this shard waited at.
    pub barrier_waits: u64,
    /// Sealed cells this shard published onto cut trunks.
    pub cells_exported: u64,
    /// Sealed cells this shard accepted from other shards.
    pub cells_imported: u64,
    /// The conservative lookahead the epoch loop ran under, in ns
    /// (zero with one shard: nothing is cut, so nothing bounds an epoch).
    pub lookahead_ns: u64,
    /// Outbound cut trunks this shard exported on.
    pub cut_trunks: u64,
    /// Retired: always zero. Only cells cross a cut — a spec with
    /// credited circuits runs on one shard. The field and its key in
    /// the `shards` block stay until the benchmark stops reading them.
    pub credits_crossed: u64,
}

/// Latency/jitter distributions of one traffic class.
#[derive(Debug, Clone, Default)]
pub struct ClassReport {
    /// Sessions of this class.
    pub sessions: u64,
    /// End-to-end latency (capture to presentation), nanoseconds.
    pub latency: Summary,
    /// Per-stream jitter (latency in excess of the stream's floor),
    /// merged across the class's sessions. Multi-stream TV control
    /// rooms are excluded from the video class's jitter: their shared
    /// floor would misread constant path-delay differences between
    /// feeds as jitter.
    pub jitter: Summary,
}

/// Cell-level accounting across the whole fabric.
#[derive(Debug, Clone, Default)]
pub struct CellReport {
    /// Cells offered by every session source.
    pub sent: u64,
    /// Estimated deliveries: `sent` minus all drops (in-flight cells at
    /// the drain deadline also subtract; the drain is sized so that is
    /// negligible).
    pub delivered: u64,
    /// Cells dropped to full output queues.
    pub dropped_overflow: u64,
    /// Cells dropped for want of a route.
    pub dropped_unroutable: u64,
    /// Cells dropped on dark lines during link-flap outages.
    pub dropped_outage: u64,
    /// Overflow drops attributed to an *admitted* session's circuit —
    /// the silent-degradation number. Under credit backpressure it must
    /// be zero: overload shows up as stalls and renegotiations instead.
    pub admitted_dropped_overflow: u64,
    /// Outage drops attributed to an admitted session's circuit (these
    /// are legitimate fault damage, reported by cause, never silent).
    pub admitted_dropped_outage: u64,
}

/// File-server activity of the VoD class.
#[derive(Debug, Clone, Default)]
pub struct PfsReport {
    /// Service periods simulated across all servers.
    pub periods: u64,
    /// Periods whose I/O exceeded the period (deadline misses).
    pub missed: u64,
    /// Bytes delivered from the log.
    pub bytes_delivered: u64,
    /// Delivered bytes per second of virtual time.
    pub throughput_bps: u64,
    /// RAID rebuilds completed after disk-failure incidents.
    pub rebuilds: u64,
    /// Total disk time the rebuilds took (charged at the RAID layer,
    /// not against the CM schedule).
    pub rebuild_ns: u64,
}

/// What the tiered content cache in front of the file servers did
/// (all zeros with `enabled` false when the spec leaves the cache off —
/// VoD reads then go straight to the log store).
///
/// Ratios are reported in thousandths so the report stays integer-only
/// and byte-stable. `crowded_title_hot_milli` is the §5 flash-crowd
/// claim: the fraction of accesses to the crowd-pinned title served
/// from the hot tier, where N concurrent viewers share one arena
/// buffer (`shared_attaches` grows with viewers, `fresh_allocs` does
/// not).
#[derive(Debug, Clone, Default)]
pub struct CacheReport {
    /// Whether the spec enabled the tiered cache.
    pub enabled: bool,
    /// Chunk reads served by the arena-resident hot tier (no disk I/O).
    pub hot_hits: u64,
    /// Chunk reads served by the SSD-class warm tier.
    pub warm_hits: u64,
    /// Chunk reads that went all the way to the log store.
    pub cold_misses: u64,
    /// Hot-tier share of all cache accesses, thousandths.
    pub hot_milli: u64,
    /// Warm-tier share of all cache accesses, thousandths.
    pub warm_milli: u64,
    /// Cold-miss share of all cache accesses, thousandths.
    pub cold_milli: u64,
    /// RAID cell reads the hot+warm tiers absorbed (48-byte payloads
    /// the log store never had to produce).
    pub disk_io_saved_cells: u64,
    /// Chunks staged ahead of registered streams by the broker-rate
    /// sequential prefetcher.
    pub prefetched_chunks: u64,
    /// Accesses that targeted the crowd-pinned title.
    pub crowd_accesses: u64,
    /// Hot-tier share of the crowd-pinned title's accesses, thousandths.
    pub crowded_title_hot_milli: u64,
    /// Shared leases handed out by the hot tier (one per viewer served
    /// from an already-resident buffer).
    pub shared_attaches: u64,
    /// Fresh arena allocations across the cache's arenas — the number
    /// that must stay independent of the viewer count.
    pub fresh_allocs: u64,
}

/// The QoS broker's admission record for one run.
///
/// `headroom_*` are "capacity headroom over time": each layer's free
/// capacity is sampled immediately after every admission decision, and
/// the sequence is summarized (so `min` is the tightest the layer ever
/// got during setup, `max` the loosest — session 1's view). Units:
/// CPU in micro-CPUs, bandwidth in thousandths of the most-loaded
/// link's line rate still reservable, PFS in free stream slots summed
/// across servers.
#[derive(Debug, Clone, Default)]
pub struct BrokerReport {
    /// Sessions admitted at their full requested vector.
    pub admitted: u64,
    /// Sessions admitted at the renegotiated-down rung.
    pub degraded: u64,
    /// Sessions refused outright.
    pub rejected: u64,
    /// Rejections whose binding constraint was the Nemesis CPU ledger.
    pub rejected_cpu: u64,
    /// Rejections bound by ATM link bandwidth.
    pub rejected_bandwidth: u64,
    /// Rejections bound by file-server stream slots.
    pub rejected_pfs: u64,
    /// Mean post-renegotiation quality per class (videophone, vod, tv)
    /// in thousandths of the requested vector: admitted = 1000,
    /// degraded = the rung, rejected = 0. 1000 when a class has no
    /// sessions (nothing was degraded).
    pub quality_milli: (u64, u64, u64),
    /// CPU-ledger headroom after each decision, micro-CPUs.
    pub headroom_cpu: Summary,
    /// Bandwidth headroom of the most-reserved link after each
    /// decision, thousandths of its line rate.
    pub headroom_bandwidth: Summary,
    /// Free stream slots across all servers after each decision.
    pub headroom_pfs: Summary,
}

/// What the credit flow-control plane did during the run (all zeros
/// when the spec leaves backpressure disabled).
#[derive(Debug, Clone, Default)]
pub struct BackpressureReport {
    /// Whether the spec enabled credit flow control.
    pub enabled: bool,
    /// Cumulative failed credit acquires per class (videophone, vod,
    /// tv) — each one a whole AAL5 frame held at its source.
    pub credit_stalls: (u64, u64, u64),
    /// Whole frames producers withheld for want of credits.
    pub frames_skipped: u64,
    /// Credits reclaimed for cells the fabric dropped (conservation:
    /// every spent credit is in flight, returned, or reclaimed).
    pub credits_reclaimed: u64,
    /// Live renegotiations down a quality rung.
    pub renegotiations_down: u64,
    /// Live renegotiations restoring quality.
    pub renegotiations_up: u64,
    /// Σ credit windows through the fabric: the constructive bound no
    /// queue can exceed on credited traffic alone.
    pub queue_bound_cells: u64,
}

/// Nemesis control-plane health under the fault schedule.
#[derive(Debug, Clone, Default)]
pub struct NemesisReport {
    /// QoS-manager epochs replayed.
    pub epochs: u64,
    /// Epochs in which the media application was starved (deadline
    /// misses of the control plane).
    pub starved_epochs: u64,
    /// Median delivered quality (grant ÷ demand), in thousandths.
    pub quality_p50_milli: u64,
    /// Worst epoch's delivered quality, in thousandths.
    pub quality_min_milli: u64,
}

/// Everything a scenario run measured.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Scenario name.
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// Virtual run length (ns).
    pub duration: Ns,
    /// Switches in the network (fabric only; scenarios attach devices
    /// directly to fabric switches).
    pub switches: u64,
    /// Endpoints the builder attached — how the simulator was wired,
    /// not what the city did: rendered outside the canonical report.
    pub endpoints: u64,
    /// Sessions by class: videophone, vod, tv.
    pub sessions: (u64, u64, u64),
    /// Video class (videophone + TV tiles onto displays).
    pub video: ClassReport,
    /// Audio class (DAC play-out).
    pub audio: ClassReport,
    /// VoD class (synchronized playback presentations).
    pub vod: ClassReport,
    /// Cell accounting.
    pub cells: CellReport,
    /// The QoS broker's admission record (counts, per-class quality,
    /// capacity headroom over setup time).
    pub broker: BrokerReport,
    /// Credit flow control and live renegotiation.
    pub backpressure: BackpressureReport,
    /// Most-reserved link as a fraction of its line rate.
    pub max_link_utilization: f64,
    /// Circuits signalling repaired around a dead switch (endpoint
    /// VCIs pinned, interior hops replaced).
    pub vcs_rerouted: u64,
    /// Circuits signalling could not repair (an endpoint on the dead
    /// switch, or no spare capacity on the survivors).
    pub vcs_stranded: u64,
    /// Deepest output queue observed on any switch, in cells.
    pub peak_queue_cells: u64,
    /// Audio drop-outs (DAC underruns).
    pub audio_underruns: u64,
    /// VoD items presented after their play-out instant.
    pub playback_late: u64,
    /// Tiles painted across all displays.
    pub tiles_blitted: u64,
    /// VoD items presented.
    pub vod_presented: u64,
    /// File-server side of the VoD class.
    pub pfs: PfsReport,
    /// Tiered content cache in front of the file servers.
    pub cache: CacheReport,
    /// Control-plane health.
    pub nemesis: NemesisReport,
    /// Audio underruns + late playback + missed CM periods + starved
    /// epochs: the number every QoS claim reduces to.
    pub deadline_misses: u64,
    /// Events the engine executed — a property of this engine, not of
    /// the system it simulates: rendered outside the canonical report.
    pub events_executed: u64,
    /// Per-shard execution record. Length equals the effective shard
    /// count; the measurements above are its shard-count-independent
    /// merge. Excluded from canonical JSON so runs at different shard
    /// counts can be diffed byte-for-byte.
    pub shards: Vec<ShardSlice>,
}

impl ScenarioReport {
    /// Sums the per-layer misses into [`ScenarioReport::deadline_misses`].
    pub fn total_misses(&self) -> u64 {
        self.audio_underruns + self.playback_late + self.pfs.missed + self.nemesis.starved_epochs
    }

    /// Renders the report as deterministic JSON (trailing newline, no
    /// whitespace, fixed key order): the canonical keys, then the
    /// `simulator` block and the per-shard block.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// Renders the *canonical* JSON: what a faithful re-implementation
    /// on a different engine would print too. It leaves out the
    /// `simulator` block (how many events this engine spent, how many
    /// endpoints this builder wired) and the `shards` block (which
    /// depends on the shard count). Two runs of the same `(spec, seed)`
    /// must produce byte-identical canonical JSON at any `--shards`;
    /// golden reports store this form.
    pub fn to_json_canonical(&self) -> String {
        self.render(false)
    }

    fn render(&self, with_execution: bool) -> String {
        fn summary(w: &mut JsonWriter, k: &str, s: &Summary) {
            w.obj(k, |w| {
                w.u64("n", s.n);
                w.u64("min", s.min);
                w.u64("p50", s.p50);
                w.u64("p90", s.p90);
                w.u64("p99", s.p99);
                w.u64("max", s.max);
                w.f64("mean", s.mean);
            });
        }
        fn class(w: &mut JsonWriter, k: &str, c: &ClassReport) {
            w.obj(k, |w| {
                w.u64("sessions", c.sessions);
                summary(w, "latency_ns", &c.latency);
                summary(w, "jitter_ns", &c.jitter);
            });
        }
        JsonWriter::document(|w| {
            w.u64("schema_version", self.schema_version);
            w.str("scenario", &self.name);
            w.u64("seed", self.seed);
            w.u64("duration_ns", self.duration);
            w.obj("topology", |w| {
                w.u64("switches", self.switches);
                w.f64("max_link_utilization", self.max_link_utilization);
            });
            w.obj("sessions", |w| {
                w.u64("videophone", self.sessions.0);
                w.u64("vod", self.sessions.1);
                w.u64("tv", self.sessions.2);
                w.u64("total", self.sessions.0 + self.sessions.1 + self.sessions.2);
            });
            class(w, "video", &self.video);
            class(w, "audio", &self.audio);
            class(w, "vod", &self.vod);
            w.obj("cells", |w| {
                w.u64("sent", self.cells.sent);
                w.u64("delivered", self.cells.delivered);
                w.u64("dropped_overflow", self.cells.dropped_overflow);
                w.u64("dropped_unroutable", self.cells.dropped_unroutable);
                w.u64("dropped_outage", self.cells.dropped_outage);
                w.u64(
                    "admitted_dropped_overflow",
                    self.cells.admitted_dropped_overflow,
                );
                w.u64(
                    "admitted_dropped_outage",
                    self.cells.admitted_dropped_outage,
                );
            });
            w.obj("signalling", |w| {
                w.u64("vcs_rerouted", self.vcs_rerouted);
                w.u64("vcs_stranded", self.vcs_stranded);
            });
            w.obj("pfs", |w| {
                w.u64("periods", self.pfs.periods);
                w.u64("missed", self.pfs.missed);
                w.u64("bytes_delivered", self.pfs.bytes_delivered);
                w.u64("throughput_bps", self.pfs.throughput_bps);
                w.u64("rebuilds", self.pfs.rebuilds);
                w.u64("rebuild_ns", self.pfs.rebuild_ns);
            });
            w.obj("cache", |w| {
                w.bool("enabled", self.cache.enabled);
                w.obj("hit_ratio_per_tier", |w| {
                    w.u64("hot_milli", self.cache.hot_milli);
                    w.u64("warm_milli", self.cache.warm_milli);
                    w.u64("cold_milli", self.cache.cold_milli);
                });
                w.u64("hot_hits", self.cache.hot_hits);
                w.u64("warm_hits", self.cache.warm_hits);
                w.u64("cold_misses", self.cache.cold_misses);
                w.u64("disk_io_saved_cells", self.cache.disk_io_saved_cells);
                w.u64("prefetched_chunks", self.cache.prefetched_chunks);
                w.u64("crowd_accesses", self.cache.crowd_accesses);
                w.u64(
                    "crowded_title_hot_milli",
                    self.cache.crowded_title_hot_milli,
                );
                w.u64("shared_attaches", self.cache.shared_attaches);
                w.u64("fresh_allocs", self.cache.fresh_allocs);
            });
            w.obj("nemesis", |w| {
                w.u64("epochs", self.nemesis.epochs);
                w.u64("starved_epochs", self.nemesis.starved_epochs);
                w.u64("quality_p50_milli", self.nemesis.quality_p50_milli);
                w.u64("quality_min_milli", self.nemesis.quality_min_milli);
            });
            w.obj("broker", |w| {
                w.u64("admitted", self.broker.admitted);
                w.u64("degraded", self.broker.degraded);
                w.u64("rejected", self.broker.rejected);
                w.obj("rejected_by_layer", |w| {
                    w.u64("cpu", self.broker.rejected_cpu);
                    w.u64("bandwidth", self.broker.rejected_bandwidth);
                    w.u64("pfs", self.broker.rejected_pfs);
                });
                w.obj("quality_milli", |w| {
                    w.u64("videophone", self.broker.quality_milli.0);
                    w.u64("vod", self.broker.quality_milli.1);
                    w.u64("tv", self.broker.quality_milli.2);
                });
                w.obj("headroom", |w| {
                    summary(w, "cpu_micro", &self.broker.headroom_cpu);
                    summary(w, "bandwidth_milli", &self.broker.headroom_bandwidth);
                    summary(w, "pfs_slots", &self.broker.headroom_pfs);
                });
            });
            w.obj("backpressure", |w| {
                w.bool("enabled", self.backpressure.enabled);
                w.obj("credit_stalls", |w| {
                    w.u64("videophone", self.backpressure.credit_stalls.0);
                    w.u64("vod", self.backpressure.credit_stalls.1);
                    w.u64("tv", self.backpressure.credit_stalls.2);
                });
                w.u64("frames_skipped", self.backpressure.frames_skipped);
                w.u64("credits_reclaimed", self.backpressure.credits_reclaimed);
                w.u64("renegotiations_down", self.backpressure.renegotiations_down);
                w.u64("renegotiations_up", self.backpressure.renegotiations_up);
                w.u64("queue_bound_cells", self.backpressure.queue_bound_cells);
            });
            w.u64("peak_queue_cells", self.peak_queue_cells);
            w.u64("audio_underruns", self.audio_underruns);
            w.u64("playback_late", self.playback_late);
            w.u64("tiles_blitted", self.tiles_blitted);
            w.u64("vod_presented", self.vod_presented);
            w.u64("deadline_misses", self.deadline_misses);
            if with_execution {
                w.obj("simulator", |w| {
                    w.u64("events_executed", self.events_executed);
                    w.u64("endpoints", self.endpoints);
                });
                w.arr("shards", &self.shards, |w, s| {
                    w.u64("shard", s.shard);
                    w.u64("events", s.events);
                    w.u64("barrier_waits", s.barrier_waits);
                    w.u64("cells_exported", s.cells_exported);
                    w.u64("cells_imported", s.cells_imported);
                    w.u64("lookahead_ns", s.lookahead_ns);
                    w.u64("cut_trunks", s.cut_trunks);
                    w.u64("credits_crossed", s.credits_crossed);
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_the_headline_fields() {
        let mut r = ScenarioReport {
            schema_version: SCHEMA_VERSION,
            name: "unit".into(),
            seed: 9,
            ..ScenarioReport::default()
        };
        r.audio_underruns = 2;
        r.playback_late = 1;
        r.deadline_misses = r.total_misses();
        r.broker.admitted = 5;
        r.broker.degraded = 2;
        r.broker.rejected = 1;
        r.broker.rejected_bandwidth = 1;
        r.broker.quality_milli = (1000, 750, 500);
        let s = r.to_json();
        assert!(s.starts_with("{\"schema_version\":5,\"scenario\":\"unit\",\"seed\":9,"));
        assert!(s.contains(
            "\"cache\":{\"enabled\":false,\"hit_ratio_per_tier\":\
             {\"hot_milli\":0,\"warm_milli\":0,\"cold_milli\":0},"
        ));
        assert!(s.contains("\"deadline_misses\":3"));
        assert!(s.contains("\"broker\":{\"admitted\":5,\"degraded\":2,\"rejected\":1,"));
        assert!(s.contains("\"rejected_by_layer\":{\"cpu\":0,\"bandwidth\":1,\"pfs\":0}"));
        assert!(s.contains("\"quality_milli\":{\"videophone\":1000,\"vod\":750,\"tv\":500}"));
        assert!(s.contains("\"headroom\":{\"cpu_micro\":{"));
        assert!(s.ends_with("}\n"));
        // Deterministic: rendering twice is identical.
        assert_eq!(s, r.to_json());
    }

    #[test]
    fn canonical_json_strips_the_simulator_and_shards_blocks() {
        let mut r = ScenarioReport {
            schema_version: SCHEMA_VERSION,
            name: "unit".into(),
            endpoints: 12,
            events_executed: 100,
            ..ScenarioReport::default()
        };
        r.shards.push(ShardSlice {
            shard: 0,
            events: 100,
            barrier_waits: 4,
            cells_exported: 7,
            cells_imported: 3,
            lookahead_ns: 2120,
            cut_trunks: 1,
            credits_crossed: 5,
        });
        let full = r.to_json();
        let canonical = r.to_json_canonical();
        assert!(full.ends_with(
            ",\"simulator\":{\"events_executed\":100,\"endpoints\":12},\
             \"shards\":[{\"shard\":0,\"events\":100,\"barrier_waits\":4,\
             \"cells_exported\":7,\"cells_imported\":3,\"lookahead_ns\":2120,\
             \"cut_trunks\":1,\"credits_crossed\":5}]}\n"
        ));
        for key in [
            "\"simulator\"",
            "\"events_executed\"",
            "\"endpoints\"",
            "\"shards\"",
        ] {
            assert!(!canonical.contains(key), "{key} is not canonical");
        }
        // Canonical is a strict prefix apart from the execution suffix.
        let cut = full.find(",\"simulator\":").unwrap();
        assert_eq!(&full[..cut], &canonical[..cut]);
        assert_eq!(&canonical[cut..], "}\n");
        // Different shard layouts, same canonical bytes.
        let mut r2 = r.clone();
        r2.shards[0].barrier_waits = 99;
        assert_eq!(canonical, r2.to_json_canonical());
    }
}
