//! The playback-control process.
//!
//! "The playback control process is then responsible for the
//! synchronization of the play-out of the various streams arriving at
//! it, based on the source synchronization information from the remote
//! manager(s) and data arrival events." (§2.2)
//!
//! Mechanism: every media item carries its source capture timestamp.
//! Under [`PlaybackPolicy::Synchronized`], the controller presents item
//! `ts` at `ts + target_latency` on *every* stream, so simultaneous
//! captures render simultaneously regardless of per-stream transport
//! delays; items arriving after their play-out instant are late (counted
//! and presented immediately). Under [`PlaybackPolicy::FreeRunning`] each
//! item renders on arrival — the baseline whose audio/video skew E16
//! measures.

use pegasus_atm::aal5::Reassembler;
use pegasus_atm::cell::Cell;
use pegasus_atm::link::CellSink;
use pegasus_sim::stats::Histogram;
use pegasus_sim::time::Ns;
use pegasus_sim::{Simulator, Train};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

/// Identifier of a stream registered with a [`PlaybackControl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// Presentation discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaybackPolicy {
    /// Present on arrival (no synchronization).
    FreeRunning,
    /// Present at `capture + target_latency`, holding early arrivals.
    Synchronized {
        /// The common presentation delay, covering transport plus jitter.
        target_latency: Ns,
    },
}

/// Per-stream presentation statistics.
#[derive(Debug, Default, Clone)]
pub struct StreamStats {
    /// Items presented.
    pub presented: u64,
    /// Items that arrived after their presentation instant.
    pub late: u64,
    /// Capture-to-presentation latency.
    pub latency: Histogram,
}

/// The playback controller.
pub struct PlaybackControl {
    policy: PlaybackPolicy,
    streams: Vec<(String, StreamStats)>,
    /// capture-ts → (stream, presented-at) log for skew computation.
    presented: HashMap<Ns, Vec<(StreamId, Ns)>>,
    /// Observed inter-stream skew for same-timestamp items.
    pub skew: Histogram,
    /// Held `(stream, capture_ts)` items awaiting their play-out
    /// instant. One stream's dues arrive in capture order and the train
    /// sorts in the rest, so the items present in `(due, arrival)`
    /// order from a single entry in the engine's heap.
    holds: Train<(StreamId, Ns)>,
}

impl PlaybackControl {
    /// Creates a controller with the given policy, wrapped for use from
    /// simulator events.
    pub fn shared(policy: PlaybackPolicy) -> Rc<RefCell<PlaybackControl>> {
        Rc::new_cyclic(|ctl: &Weak<RefCell<PlaybackControl>>| {
            // Weak: the controller owns the train.
            let ctl = ctl.clone();
            let holds = Train::new(0, move |sim: &mut Simulator, (stream, capture_ts)| {
                if let Some(ctl) = ctl.upgrade() {
                    ctl.borrow_mut()
                        .present(sim.now(), stream, capture_ts, false);
                }
            });
            RefCell::new(PlaybackControl {
                policy,
                streams: Vec::new(),
                presented: HashMap::new(),
                skew: Histogram::new(),
                holds,
            })
        })
    }

    /// Registers a stream.
    pub fn add_stream(&mut self, name: &str) -> StreamId {
        self.streams
            .push((name.to_string(), StreamStats::default()));
        StreamId(self.streams.len() - 1)
    }

    /// Statistics of a stream.
    pub fn stats(&self, s: StreamId) -> &StreamStats {
        &self.streams[s.0].1
    }

    /// Statistics of a stream, to take its samples away at the end of a
    /// run.
    pub fn stats_mut(&mut self, s: StreamId) -> &mut StreamStats {
        &mut self.streams[s.0].1
    }

    /// Handles a data-arrival event for an item captured at `capture_ts`
    /// on `stream`, scheduling (or performing) its presentation.
    pub fn on_arrival(
        ctl: &Rc<RefCell<PlaybackControl>>,
        sim: &mut Simulator,
        stream: StreamId,
        capture_ts: Ns,
    ) {
        let policy = ctl.borrow().policy;
        match policy {
            PlaybackPolicy::FreeRunning => {
                ctl.borrow_mut()
                    .present(sim.now(), stream, capture_ts, false);
            }
            PlaybackPolicy::Synchronized { target_latency } => {
                let due = capture_ts + target_latency;
                if sim.now() >= due {
                    // Arrived too late to hold: present now, count it.
                    ctl.borrow_mut()
                        .present(sim.now(), stream, capture_ts, true);
                } else {
                    // Hold until `due`; nothing is allocated per item.
                    ctl.borrow().holds.push(sim, due, (stream, capture_ts));
                }
            }
        }
    }

    fn present(&mut self, now: Ns, stream: StreamId, capture_ts: Ns, late: bool) {
        let st = &mut self.streams[stream.0].1;
        st.presented += 1;
        if late {
            st.late += 1;
        }
        st.latency.record(now.saturating_sub(capture_ts));
        // Skew against every other stream's presentation of this capture
        // instant.
        let entry = self.presented.entry(capture_ts).or_default();
        for &(other, t) in entry.iter() {
            if other != stream {
                self.skew.record(now.abs_diff(t));
            }
        }
        entry.push((stream, now));
    }

    /// Total presentations that arrived after their play-out instant,
    /// across all streams — the playback half of a scenario's
    /// deadline-miss count.
    pub fn late_total(&self) -> u64 {
        self.streams.iter().map(|(_, s)| s.late).sum()
    }

    /// Fraction of presentations that were late, across all streams.
    pub fn late_fraction(&self) -> f64 {
        let (late, total) = self
            .streams
            .iter()
            .fold((0u64, 0u64), |(l, t), (_, s)| (l + s.late, t + s.presented));
        if total == 0 {
            0.0
        } else {
            late as f64 / total as f64
        }
    }
}

/// A [`CellSink`] that turns a media virtual circuit into playback
/// arrivals: cells are reassembled into AAL5 frames, a caller-supplied
/// extractor reads each frame's source capture timestamp, and the item
/// is handed to [`PlaybackControl::on_arrival`].
///
/// This is the glue that lets a scenario spec spawn a synchronized
/// session directly on a network endpoint — no hand-wired per-frame
/// callbacks. The extractor keeps this crate ignorant of the payload
/// format (tile frames live in the devices crate).
pub struct ArrivalSink {
    ctl: Rc<RefCell<PlaybackControl>>,
    stream: StreamId,
    reasm: Reassembler,
    ts_of: TimestampExtractor,
    /// Frames delivered to the playback controller.
    pub frames: u64,
    /// Frames dropped: reassembly errors or no extractable timestamp.
    pub frames_bad: u64,
}

/// Pulls the source capture timestamp out of a reassembled media frame.
pub type TimestampExtractor = Box<dyn Fn(&[u8]) -> Option<Ns>>;

impl ArrivalSink {
    /// Creates a sink feeding `stream` of `ctl`, using `ts_of` to pull
    /// the capture timestamp out of each reassembled frame.
    pub fn shared(
        ctl: Rc<RefCell<PlaybackControl>>,
        stream: StreamId,
        ts_of: impl Fn(&[u8]) -> Option<Ns> + 'static,
    ) -> Rc<RefCell<ArrivalSink>> {
        Rc::new(RefCell::new(ArrivalSink {
            ctl,
            stream,
            reasm: Reassembler::new(),
            ts_of: Box::new(ts_of),
            frames: 0,
            frames_bad: 0,
        }))
    }
}

impl CellSink for ArrivalSink {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        // Zero-copy receive: a clean frame is a view of the producer's
        // arena buffer; the extractor reads the timestamp in place.
        match self.reasm.push_frame(&cell) {
            None => {}
            Some(Ok(lease)) => match (self.ts_of)(&lease) {
                Some(ts) => {
                    self.frames += 1;
                    let ctl = self.ctl.clone();
                    PlaybackControl::on_arrival(&ctl, sim, self.stream, ts);
                }
                None => self.frames_bad += 1,
            },
            Some(Err(_)) => self.frames_bad += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_sim::time::MS;

    /// Feeds two streams capturing the same instants but with different
    /// transport delays (video slow, audio fast).
    fn drive(
        policy: PlaybackPolicy,
        video_delay: Ns,
        audio_delay: Ns,
    ) -> Rc<RefCell<PlaybackControl>> {
        let ctl = PlaybackControl::shared(policy);
        let (video, audio) = {
            let mut c = ctl.borrow_mut();
            (c.add_stream("video"), c.add_stream("audio"))
        };
        let mut sim = Simulator::new();
        for i in 0..100u64 {
            let capture = i * 40 * MS;
            let ctl_v = ctl.clone();
            sim.schedule_at(capture + video_delay, move |sim| {
                PlaybackControl::on_arrival(&ctl_v, sim, video, capture);
            });
            let ctl_a = ctl.clone();
            sim.schedule_at(capture + audio_delay, move |sim| {
                PlaybackControl::on_arrival(&ctl_a, sim, audio, capture);
            });
        }
        sim.run();
        ctl
    }

    #[test]
    fn free_running_skew_equals_delay_difference() {
        let ctl = drive(PlaybackPolicy::FreeRunning, 30 * MS, 2 * MS);
        let mut c = ctl.borrow_mut();
        assert_eq!(c.skew.count(), 100);
        assert_eq!(c.skew.percentile(50.0), Some(28 * MS));
    }

    #[test]
    fn synchronized_removes_skew() {
        let ctl = drive(
            PlaybackPolicy::Synchronized {
                target_latency: 50 * MS,
            },
            30 * MS,
            2 * MS,
        );
        let c = ctl.borrow();
        assert_eq!(
            c.skew.max(),
            Some(0),
            "synchronized streams present together"
        );
        assert_eq!(c.late_fraction(), 0.0);
    }

    #[test]
    fn two_streams_present_in_due_then_arrival_order() {
        // All eight items arrive at one instant, stream by stream, so
        // the second stream's dues fall between — and on — the first's.
        let ctl = PlaybackControl::shared(PlaybackPolicy::Synchronized {
            target_latency: 100 * MS,
        });
        let (a, b) = {
            let mut c = ctl.borrow_mut();
            (c.add_stream("a"), c.add_stream("b"))
        };
        let mut sim = Simulator::new();
        let arrivals = [
            (a, 0),
            (a, 20),
            (a, 40),
            (b, 10),
            (b, 30),
            (b, 40),
            (b, 50),
            (a, 50),
        ];
        for (stream, capture_ms) in arrivals {
            PlaybackControl::on_arrival(&ctl, &mut sim, stream, capture_ms * MS);
        }
        assert_eq!(sim.pending(), 1, "the holds share one heap entry");
        let mut order = Vec::new();
        while sim.step() {
            let c = ctl.borrow();
            let (stream, at) = *c.presented[&(sim.now() - 100 * MS)]
                .last()
                .expect("each event presents one item");
            assert_eq!(at, sim.now(), "held items present at their due time");
            order.push((stream, at / MS - 100));
        }
        assert_eq!(
            order,
            vec![
                (a, 0),
                (b, 10),
                (a, 20),
                (b, 30),
                (a, 40),
                (b, 40),
                (b, 50),
                (a, 50)
            ]
        );
        assert_eq!(ctl.borrow().late_total(), 0);
    }

    #[test]
    fn synchronized_latency_is_the_target() {
        let ctl = drive(
            PlaybackPolicy::Synchronized {
                target_latency: 50 * MS,
            },
            30 * MS,
            2 * MS,
        );
        let mut c = ctl.borrow_mut();
        let video = StreamId(0);
        let audio = StreamId(1);
        assert_eq!(c.streams[video.0].1.presented, 100);
        let v50 = c.streams[video.0].1.latency.percentile(50.0).unwrap();
        let a50 = c.streams[audio.0].1.latency.percentile(50.0).unwrap();
        assert_eq!(v50, 50 * MS);
        assert_eq!(a50, 50 * MS);
    }

    #[test]
    fn target_below_transport_delay_goes_late() {
        let ctl = drive(
            PlaybackPolicy::Synchronized {
                target_latency: 10 * MS,
            },
            30 * MS, // video cannot make a 10 ms deadline
            2 * MS,
        );
        let c = ctl.borrow();
        assert!(c.late_fraction() > 0.4, "half the items are late");
        // And late items reintroduce skew.
        assert!(c.skew.max().unwrap() > 0);
    }

    #[test]
    fn free_running_minimizes_latency() {
        let free = drive(PlaybackPolicy::FreeRunning, 30 * MS, 2 * MS);
        let synced = drive(
            PlaybackPolicy::Synchronized {
                target_latency: 50 * MS,
            },
            30 * MS,
            2 * MS,
        );
        let mut f = free.borrow_mut();
        let mut s = synced.borrow_mut();
        let fa = f.streams[1].1.latency.percentile(50.0).unwrap();
        let sa = s.streams[1].1.latency.percentile(50.0).unwrap();
        assert!(
            fa < sa,
            "free-running audio latency {fa} < synchronized {sa}"
        );
    }

    #[test]
    fn arrival_sink_feeds_playback_from_cells() {
        use pegasus_atm::aal5::Segmenter;
        use pegasus_atm::link::{Link, SinkRef};

        let ctl = PlaybackControl::shared(PlaybackPolicy::Synchronized {
            target_latency: 20 * MS,
        });
        let stream = ctl.borrow_mut().add_stream("video");
        // Frames carry their capture time as an 8-byte BE prefix.
        let sink = ArrivalSink::shared(ctl.clone(), stream, |bytes| {
            bytes
                .get(..8)
                .map(|b| Ns::from_be_bytes(b.try_into().unwrap()))
        });
        let mut link = Link::new(100_000_000, 1_000, sink.clone() as SinkRef);
        let seg = Segmenter::new(44);
        let mut sim = Simulator::new();
        // The producer leases every frame from one arena and segments by
        // reference — after the first frame the loop allocates nothing.
        let arena = pegasus_sim::arena::Arena::new();
        let mut cells = Vec::new();
        for i in 0..10u64 {
            let capture = i * 5 * MS;
            // Cells leave the device a little after capture; running to
            // that point also drains the previous frame's views, whose
            // buffer the next lease then recycles.
            sim.run_until(capture + MS);
            let mut lease = arena.lease();
            lease.extend_from_slice(&capture.to_be_bytes());
            lease.extend_from_slice(&[0xAB; 100]);
            let frame = lease.freeze();
            seg.segment_frame(&frame.view_all(), &mut cells).unwrap();
            for cell in cells.drain(..) {
                link.send(&mut sim, cell);
            }
        }
        sim.run();
        assert_eq!(
            arena.stats().fresh_allocs,
            1,
            "steady-state capture recycles one buffer"
        );
        let s = sink.borrow();
        assert_eq!(s.frames, 10);
        assert_eq!(s.frames_bad, 0);
        let mut c = ctl.borrow_mut();
        assert_eq!(c.stats(stream).presented, 10);
        assert_eq!(c.stats(stream).late, 0);
        // Synchronized play-out: every frame presents at capture + 20 ms.
        assert_eq!(
            c.streams[stream.0].1.latency.percentile(50.0),
            Some(20 * MS)
        );
    }

    #[test]
    fn arrival_sink_counts_unparseable_frames() {
        let ctl = PlaybackControl::shared(PlaybackPolicy::FreeRunning);
        let stream = ctl.borrow_mut().add_stream("x");
        let sink = ArrivalSink::shared(ctl, stream, |_| None);
        use pegasus_atm::aal5::Segmenter;
        let seg = Segmenter::new(9);
        let mut sim = Simulator::new();
        for cell in seg.segment(&[1, 2, 3]).unwrap() {
            sink.borrow_mut().deliver(&mut sim, cell);
        }
        assert_eq!(sink.borrow().frames, 0);
        assert_eq!(sink.borrow().frames_bad, 1);
    }

    #[test]
    fn stats_accessible_by_id() {
        let ctl = PlaybackControl::shared(PlaybackPolicy::FreeRunning);
        let s = ctl.borrow_mut().add_stream("x");
        assert_eq!(ctl.borrow().stats(s).presented, 0);
    }
}
