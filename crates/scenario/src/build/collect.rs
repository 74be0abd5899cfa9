//! Folding a finished run into the report: what one shard measured
//! ([`ShardOutcome`]), the coordinator's post-hoc PFS and Nemesis
//! replays, and the merge of every shard's outcome ([`assemble`]).
//! Owns the measurement handles of [`Scenario`] — displays, audio
//! sinks, VoD clients and servers, transmit links, the broker tally.

use pegasus::broker::SessionClass;
use pegasus_atm::network::SwitchId;
use pegasus_nemesis::faults::{EpochDriver, Fault, FaultSchedule};
use pegasus_nemesis::qosmgr::QosManager;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::log::LogFs;
use pegasus_pfs::tier::TieredCache;
use pegasus_sim::stats::Histogram;
use pegasus_sim::time::{MS, SEC};

use super::{vod_periods, Scenario, VodServer, VOD_PERIOD};
use crate::report::{
    BackpressureReport, BrokerReport, CacheReport, CellReport, ClassReport, NemesisReport,
    PfsReport, ScenarioReport, ShardSlice, SCHEMA_VERSION,
};
use crate::spec::{FaultSpec, ScenarioSpec};

/// Everything one shard measured, in `Send` form — plain counters,
/// histograms and report fragments, no `Rc`. [`assemble`] folds a
/// vector of these into the final [`ScenarioReport`]; a one-shard run
/// folds a vector of one.
pub struct ShardOutcome {
    /// The run loop's own counters; [`Scenario::collect`] fills in the
    /// shard index and event count.
    slice: ShardSlice,
    tiles_blitted: u64,
    video_lat: Histogram,
    video_jit: Histogram,
    audio_underruns: u64,
    audio_lat: Histogram,
    audio_jit: Histogram,
    vod_presented: u64,
    playback_late: u64,
    vod_lat: Histogram,
    vod_jit: Histogram,
    /// `delivered` is left zero here; [`assemble`] computes it from the
    /// summed totals.
    cells: CellReport,
    peak_queue_cells: u64,
    vcs_rerouted: u64,
    vcs_stranded: u64,
    bp: BackpressureReport,
    coord: Option<CoordinatorOutcome>,
}

/// Sections only the coordinator (shard 0) contributes: either
/// identical on every shard by replication (broker ledgers, topology
/// counts) or requiring state only it materializes (the PFS CM replay)
/// or replays (the Nemesis epoch schedule).
struct CoordinatorOutcome {
    switches: u64,
    endpoints: u64,
    max_link_utilization: f64,
    broker: BrokerReport,
    pfs: PfsReport,
    cache: CacheReport,
    nemesis: NemesisReport,
}

impl Scenario {
    /// Folds this shard's owned devices and switches into a portable
    /// [`ShardOutcome`]. Consumes the scenario: the `Rc`-laden world
    /// stays on its thread, only plain measurements cross.
    pub(crate) fn collect(
        mut self,
        vcs_rerouted: u64,
        vcs_stranded: u64,
        admitted_dropped: (u64, u64),
        slice: ShardSlice,
    ) -> ShardOutcome {
        // Video class: every owned display (videophone windows + TV
        // stacks). Jitter is a per-stream quantity (latency in excess
        // of the stream's own floor), so only single-stream displays
        // feed it: a TV control room merges feeds with different hop
        // counts, and subtracting one shared floor would read the
        // constant path-delay differences as jitter.
        let mut tiles_blitted = 0u64;
        let mut video_lat = Histogram::new();
        let mut video_jit = Histogram::new();
        for d in &self.displays {
            let d = d.borrow();
            tiles_blitted += d.stats.tiles_blitted;
            video_lat.merge(&d.stats.latency);
            video_jit.merge(&d.stats.latency.jitter_histogram());
        }
        for d in &self.tv_displays {
            let d = d.borrow();
            tiles_blitted += d.stats.tiles_blitted;
            video_lat.merge(&d.stats.latency);
        }

        // Audio class: DAC play-out.
        let mut audio_underruns = 0u64;
        let mut audio_lat = Histogram::new();
        let mut audio_jit = Histogram::new();
        for s in &self.audio_sinks {
            let s = s.borrow();
            audio_underruns += s.stats.underruns;
            audio_lat.merge(&s.stats.playout_latency);
            audio_jit.merge(&s.stats.playout_latency.jitter_histogram());
        }

        // VoD class: synchronized presentations.
        let mut vod_presented = 0u64;
        let mut playback_late = 0u64;
        let mut vod_lat = Histogram::new();
        let mut vod_jit = Histogram::new();
        for (ctl, stream, _sink) in &self.vod_clients {
            let ctl = ctl.borrow();
            let st = ctl.stats(*stream);
            vod_presented += st.presented;
            playback_late += ctl.late_total();
            vod_lat.merge(&st.latency);
            vod_jit.merge(&st.latency.jitter_histogram());
        }

        // Cell accounting and queue depths. Only owned switches carried
        // traffic — remote replicas are silent, so iterating all of
        // them adds zeros and the per-shard numbers sum to the
        // single-shard totals.
        let mut cells = CellReport::default();
        for link in &self.tx_links {
            cells.sent += link.borrow().cells_sent();
        }
        let mut peak_queue_cells = 0u64;
        for i in 0..self.sys.net.switch_count() {
            let sw = self.sys.net.switch(SwitchId(i)).borrow();
            cells.dropped_overflow += sw.stats.overflowed;
            cells.dropped_unroutable += sw.stats.unroutable;
            cells.dropped_outage += sw.cells_dropped_outage();
            peak_queue_cells = peak_queue_cells.max(sw.stats.peak_queue_cells);
        }
        cells.admitted_dropped_overflow = admitted_dropped.0;
        cells.admitted_dropped_outage = admitted_dropped.1;

        // The flow-control plane's own ledger: stalls by class, frames
        // held at source, reclaimed credits, renegotiation history and
        // the constructive queue bound.
        let mut bp_rep = BackpressureReport {
            enabled: self.spec.backpressure.enabled,
            ..BackpressureReport::default()
        };
        for b in &self.books {
            if let Some(w) = &b.credit {
                let w = w.borrow();
                match b.class {
                    SessionClass::Videophone => bp_rep.credit_stalls.0 += w.stalls(),
                    SessionClass::Vod => bp_rep.credit_stalls.1 += w.stalls(),
                    SessionClass::Tv => bp_rep.credit_stalls.2 += w.stalls(),
                }
                bp_rep.credits_reclaimed += w.reclaimed();
                bp_rep.queue_bound_cells += w.window();
            }
            if let Some(cam) = &b.camera {
                bp_rep.frames_skipped += cam.borrow().stats.frames_skipped;
            }
            for r in &b.grant.history {
                if r.to_milli < r.from_milli {
                    bp_rep.renegotiations_down += 1;
                } else {
                    bp_rep.renegotiations_up += 1;
                }
            }
        }
        for (_, w, _) in &self.blasts {
            let w = w.borrow();
            bp_rep.credits_reclaimed += w.reclaimed();
            bp_rep.queue_bound_cells += w.window();
        }

        // Coordinator-only sections: the replays and the
        // replicated-identical ledgers.
        let coord = if self.plan.is_coordinator() {
            let pfs = self.replay_pfs();
            // Read the cache counters only after the replay: the tiers
            // fill during it, not during the live network run.
            let cache = self.cache_report();
            let nemesis = self.replay_nemesis();
            // The headroom samples read a remembered maximum; one fold
            // per run holds it to the per-link ledgers.
            let audit = self.sys.net.audit_reservations();
            assert!(audit.is_ok(), "{audit:?}");
            Some(CoordinatorOutcome {
                switches: self.sys.net.switch_count() as u64,
                endpoints: self.sys.net.endpoint_count() as u64,
                max_link_utilization: self.sys.net.max_reservation_utilization(),
                broker: std::mem::take(&mut self.tally).into_report(),
                pfs,
                cache,
                nemesis,
            })
        } else {
            None
        };

        ShardOutcome {
            slice: ShardSlice {
                shard: self.plan.shard as u64,
                events: self.sim.events_executed(),
                ..slice
            },
            tiles_blitted,
            video_lat,
            video_jit,
            audio_underruns,
            audio_lat,
            audio_jit,
            vod_presented,
            playback_late,
            vod_lat,
            vod_jit,
            cells,
            peak_queue_cells,
            vcs_rerouted,
            vcs_stranded,
            bp: bp_rep,
            coord,
        }
    }

    /// File-server side of VoD: replay the CM schedule. A server
    /// with a scheduled disk incident replays in three spans —
    /// healthy, degraded (one member fail-stopped, reads
    /// reconstructing through parity), healthy again after the
    /// spindle swap and rebuild. `run_periods` keeps no state across
    /// calls except the per-stream offsets, so the split replay is
    /// byte-identical to an unsplit one at the same health.
    fn replay_pfs(&mut self) -> PfsReport {
        /// One replay span, through the tiered cache when the server
        /// has one. The cache only changes *where* bytes come from
        /// (and so the disk clock), never which bytes a stream gets.
        fn play(
            cm: &mut CmScheduler,
            fs: &mut LogFs,
            cache: &mut Option<TieredCache>,
            n: u64,
        ) -> Result<pegasus_pfs::cm::CmReport, pegasus_pfs::log::FsError> {
            match cache {
                Some(c) => cm.run_periods_tiered(fs, c, n),
                None => cm.run_periods(fs, n),
            }
        }
        let spec = &self.spec;
        let periods = vod_periods(spec.duration);
        let mut pfs = PfsReport::default();
        for (si, server) in self.vod_servers.iter_mut().enumerate() {
            let incident = spec.faults.iter().find_map(|f| match *f {
                FaultSpec::DiskFail {
                    at,
                    server: s,
                    disk,
                    replace_at,
                } if s == si => {
                    let fail_p = at / VOD_PERIOD;
                    // The replacement lands on the next period boundary
                    // at the earliest: every incident spends at least
                    // one period degraded.
                    let rep_p = (replace_at / VOD_PERIOD).max(fail_p + 1);
                    Some((fail_p, rep_p, disk))
                }
                _ => None,
            });
            let mut fold = |r: &pegasus_pfs::cm::CmReport| {
                pfs.periods += r.periods;
                pfs.missed += r.missed;
                pfs.bytes_delivered += r.bytes_delivered;
            };
            let VodServer { fs, cm, cache, .. } = server;
            match incident {
                Some((fail_p, rep_p, disk)) if fail_p < periods => {
                    let rep_p = rep_p.min(periods);
                    let r = play(cm, fs, cache, fail_p).expect("prerecorded file");
                    fold(&r);
                    fs.raid_mut().disk_mut(disk).fail();
                    let r = play(cm, fs, cache, rep_p - fail_p)
                        .expect("degraded reads reconstruct through parity");
                    fold(&r);
                    // Swap the spindle and rebuild it from the
                    // survivors. Rebuild I/O is charged at the RAID
                    // layer, not against the log's clock, so the
                    // remaining periods' deadline accounting is clean —
                    // the array is simply whole again.
                    fs.raid_mut().disk_mut(disk).replace();
                    let stripes = fs.used_segments() as u64;
                    let t = fs
                        .raid_mut()
                        .rebuild_disk(disk, stripes)
                        .expect("single failure is rebuildable");
                    pfs.rebuilds += 1;
                    pfs.rebuild_ns += t;
                    let r = play(cm, fs, cache, periods - rep_p).expect("prerecorded file");
                    fold(&r);
                }
                _ => {
                    let r = play(cm, fs, cache, periods).expect("prerecorded file");
                    fold(&r);
                }
            }
        }
        // Throughput over the replayed window (which may exceed a short
        // run's duration: at least one full service period is played).
        let replay = periods * VOD_PERIOD;
        pfs.throughput_bps =
            (pfs.bytes_delivered as u128 * 8 * SEC as u128 / replay as u128) as u64;
        pfs
    }

    /// Tiered-cache section: counters summed across servers, ratios
    /// recomputed from the sums so busy servers weigh what they served,
    /// not one vote each. All zeros (enabled false) when the spec left
    /// the cache off.
    fn cache_report(&self) -> CacheReport {
        let mut r = CacheReport {
            enabled: self.spec.cache.enabled,
            ..CacheReport::default()
        };
        let mut bytes_saved = 0u64;
        let mut crowd_hot = 0u64;
        for server in &self.vod_servers {
            if let Some(cache) = &server.cache {
                let s = cache.stats();
                r.hot_hits += s.hot_hits;
                r.warm_hits += s.warm_hits;
                r.cold_misses += s.cold_misses;
                r.prefetched_chunks += s.prefetched_chunks;
                r.crowd_accesses += s.crowd_accesses;
                crowd_hot += s.crowd_hot_hits;
                bytes_saved += s.bytes_saved;
                let a = cache.arena().stats();
                r.shared_attaches += a.shared_attaches;
                r.fresh_allocs += a.fresh_allocs;
            }
        }
        let total = r.hot_hits + r.warm_hits + r.cold_misses;
        if let Some(hot) = (r.hot_hits * 1000).checked_div(total) {
            r.hot_milli = hot;
            r.warm_milli = r.warm_hits * 1000 / total;
            r.cold_milli = 1000 - r.hot_milli - r.warm_milli;
        }
        r.crowded_title_hot_milli = (crowd_hot * 1000)
            .checked_div(r.crowd_accesses)
            .unwrap_or(0);
        r.disk_io_saved_cells = bytes_saved / 48;
        r
    }

    /// Control plane: replay the CPU fault schedule against the QoS
    /// manager. Media demand is exactly what the broker's CPU ledger
    /// granted (plus a control baseline): rejected and degraded
    /// sessions demand less, which is the broker's whole point.
    fn replay_nemesis(&self) -> NemesisReport {
        let spec = &self.spec;
        let mut mgr = QosManager::new(0.9, 1.0);
        let media = mgr.add_app("media-control", 1.0);
        let batch = mgr.add_app("batch", 1.0);
        mgr.observe(batch, 1.0);
        // The default broker capacity (0.35) plus the 0.05 baseline
        // stays below the media app's fair share against the synthetic
        // batch competitor (0.9 capacity split 1:1 = 0.45), so a
        // healthy, fault-free run can never report starvation no matter
        // the session count; only scheduled incidents push it under.
        let media_demand = 0.05 + self.broker.cpu.reserved_fraction();
        let schedule = FaultSchedule {
            faults: spec
                .faults
                .iter()
                .filter_map(|f| match *f {
                    FaultSpec::CpuLoadSpike {
                        at,
                        until,
                        demand,
                        weight,
                    } => Some(Fault::LoadSpike {
                        at,
                        until,
                        demand,
                        weight,
                    }),
                    _ => None,
                })
                .collect(),
        };
        let er = EpochDriver::run(
            &mut mgr,
            media,
            media_demand,
            &schedule,
            10 * MS,
            spec.duration,
        );
        let mut quality = er.quality_milli.clone();
        NemesisReport {
            epochs: er.epochs,
            starved_epochs: er.starved_epochs,
            quality_p50_milli: quality.percentile(50.0).unwrap_or(1000),
            quality_min_milli: quality.min().unwrap_or(1000),
        }
    }
}

/// Merges per-shard outcomes into the final [`ScenarioReport`].
///
/// Counters sum, peaks take the max, and histograms merge in shard
/// order (a one-shard run merges a vector of one). Summaries are
/// insensitive to that merge order — the percentile pass sorts the
/// samples and the mean is computed over the sorted data — so the
/// canonical JSON is identical at any shard count.
pub fn assemble(spec: &ScenarioSpec, mut outcomes: Vec<ShardOutcome>) -> ScenarioReport {
    outcomes.sort_by_key(|o| o.slice.shard);
    let coord = outcomes
        .iter_mut()
        .find_map(|o| o.coord.take())
        .expect("one outcome carries the coordinator sections");
    let counts = spec.mix.counts(spec.sessions);
    let mut report = ScenarioReport {
        schema_version: SCHEMA_VERSION,
        name: spec.name.clone(),
        seed: spec.seed,
        duration: spec.duration,
        switches: coord.switches,
        endpoints: coord.endpoints,
        sessions: (counts.0 as u64, counts.1 as u64, counts.2 as u64),
        broker: coord.broker,
        max_link_utilization: coord.max_link_utilization,
        pfs: coord.pfs,
        cache: coord.cache,
        nemesis: coord.nemesis,
        ..ScenarioReport::default()
    };

    let mut video_lat = Histogram::new();
    let mut video_jit = Histogram::new();
    let mut audio_lat = Histogram::new();
    let mut audio_jit = Histogram::new();
    let mut vod_lat = Histogram::new();
    let mut vod_jit = Histogram::new();
    let mut cells = CellReport::default();
    let mut bp_rep = BackpressureReport {
        enabled: spec.backpressure.enabled,
        ..BackpressureReport::default()
    };
    for o in &outcomes {
        report.events_executed += o.slice.events;
        report.tiles_blitted += o.tiles_blitted;
        video_lat.merge(&o.video_lat);
        video_jit.merge(&o.video_jit);
        report.audio_underruns += o.audio_underruns;
        audio_lat.merge(&o.audio_lat);
        audio_jit.merge(&o.audio_jit);
        report.vod_presented += o.vod_presented;
        report.playback_late += o.playback_late;
        vod_lat.merge(&o.vod_lat);
        vod_jit.merge(&o.vod_jit);
        cells.sent += o.cells.sent;
        cells.dropped_overflow += o.cells.dropped_overflow;
        cells.dropped_unroutable += o.cells.dropped_unroutable;
        cells.dropped_outage += o.cells.dropped_outage;
        cells.admitted_dropped_overflow += o.cells.admitted_dropped_overflow;
        cells.admitted_dropped_outage += o.cells.admitted_dropped_outage;
        report.peak_queue_cells = report.peak_queue_cells.max(o.peak_queue_cells);
        report.vcs_rerouted += o.vcs_rerouted;
        report.vcs_stranded += o.vcs_stranded;
        bp_rep.credit_stalls.0 += o.bp.credit_stalls.0;
        bp_rep.credit_stalls.1 += o.bp.credit_stalls.1;
        bp_rep.credit_stalls.2 += o.bp.credit_stalls.2;
        bp_rep.frames_skipped += o.bp.frames_skipped;
        bp_rep.credits_reclaimed += o.bp.credits_reclaimed;
        bp_rep.renegotiations_down += o.bp.renegotiations_down;
        bp_rep.renegotiations_up += o.bp.renegotiations_up;
        bp_rep.queue_bound_cells += o.bp.queue_bound_cells;
    }
    report.video = ClassReport {
        sessions: (counts.0 + counts.2) as u64,
        latency: video_lat.summarize(),
        jitter: video_jit.summarize(),
    };
    report.audio = ClassReport {
        sessions: counts.0 as u64,
        latency: audio_lat.summarize(),
        jitter: audio_jit.summarize(),
    };
    report.vod = ClassReport {
        sessions: counts.1 as u64,
        latency: vod_lat.summarize(),
        jitter: vod_jit.summarize(),
    };
    cells.delivered = cells
        .sent
        .saturating_sub(cells.dropped_overflow + cells.dropped_unroutable + cells.dropped_outage);
    report.cells = cells;
    report.backpressure = bp_rep;
    report.deadline_misses = report.total_misses();
    report.shards = outcomes.into_iter().map(|o| o.slice).collect();
    report
}
