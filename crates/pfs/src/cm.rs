//! The continuous-media service stack.
//!
//! "A storage service for multimedia data must have a large storage
//! capacity ... and a guaranteed (fixed) service rate." (§5) And from
//! §2.2: "The Pegasus File Server ... uses the control stream associated
//! with an incoming data stream to generate index information that can
//! later be used to go to specific time offsets into a media file",
//! enabling "reading synchronized streams from a particular point, and
//! fast forward, reverse play, etc."
//!
//! * [`StreamIndex`] — the (timestamp → byte offset) index built from
//!   control-stream sync marks.
//! * [`CmScheduler`] — rate-guaranteed periodic service: admission
//!   control against the array's measured bandwidth, then per-period
//!   reads for every admitted stream; a period whose I/O exceeds the
//!   period length is a deadline miss (which admission prevents).

use crate::log::{FileId, FsError, LogFs};
use pegasus_sim::time::{Ns, SEC};

/// The (timestamp → byte offset) index of one stored stream.
#[derive(Debug, Default, Clone)]
pub struct StreamIndex {
    entries: Vec<(Ns, u64)>,
}

impl StreamIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sync mark: the stream's bytes at `offset` were captured
    /// at `ts`. Marks must be appended in timestamp order.
    pub fn add_mark(&mut self, ts: Ns, offset: u64) {
        if let Some(&(last_ts, last_off)) = self.entries.last() {
            assert!(
                ts >= last_ts && offset >= last_off,
                "marks must be monotone"
            );
        }
        self.entries.push((ts, offset));
    }

    /// Number of marks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Byte offset to start reading from for playback at `ts`: the last
    /// mark at or before `ts` (or the first mark for earlier times).
    pub fn offset_for(&self, ts: Ns) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        match self.entries.binary_search_by_key(&ts, |&(t, _)| t) {
            Ok(i) => Some(self.entries[i].1),
            Err(0) => Some(self.entries[0].1),
            Err(i) => Some(self.entries[i - 1].1),
        }
    }

    /// Marks for fast-forward at `speed`× : every `speed`-th mark.
    pub fn fast_forward(&self, from_ts: Ns, speed: usize) -> Vec<(Ns, u64)> {
        assert!(speed >= 1);
        self.entries
            .iter()
            .filter(|&&(t, _)| t >= from_ts)
            .step_by(speed)
            .copied()
            .collect()
    }

    /// Marks for reverse play starting at `from_ts`.
    pub fn reverse(&self, from_ts: Ns) -> Vec<(Ns, u64)> {
        let mut v: Vec<(Ns, u64)> = self
            .entries
            .iter()
            .filter(|&&(t, _)| t <= from_ts)
            .copied()
            .collect();
        v.reverse();
        v
    }
}

/// One admitted continuous-media stream.
#[derive(Debug, Clone)]
pub struct CmStream {
    /// The stored file backing the stream.
    pub file: FileId,
    /// Guaranteed rate in bytes per second.
    pub rate: u64,
    /// Current playback offset.
    pub offset: u64,
}

/// Why a stream was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmError {
    /// The array cannot sustain the additional rate.
    Oversubscribed {
        /// Requested rate.
        requested: u64,
        /// Rate still available.
        available: u64,
    },
    /// Every concurrent stream slot is taken: one small read still
    /// costs a whole RAID stripe per service period, so the server's
    /// real capacity is a stream *count*, not just a byte rate.
    NoSlots {
        /// The server's slot capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for CmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmError::Oversubscribed {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} B/s, only {available} B/s available"
            ),
            CmError::NoSlots { capacity } => {
                write!(f, "all {capacity} concurrent stream slots in use")
            }
        }
    }
}

/// A concurrent-stream-slot ledger for one file server.
///
/// The CM scheduler's deadline analysis is per-stream: each admitted
/// stream costs one RAID stripe time (~51 ms on the 1994 array) per
/// service period regardless of how few bytes it reads, so a server
/// stays inside its period only while the stream *count* is bounded.
/// The QoS broker reserves from this ledger at session setup; the
/// [`CmScheduler`]'s own `max_streams` cap enforces the same bound from
/// inside the server as defence in depth.
#[derive(Debug, Clone, Copy)]
pub struct StreamSlots {
    capacity: usize,
    used: usize,
}

impl StreamSlots {
    /// Creates a ledger with `capacity` concurrent slots.
    pub fn new(capacity: usize) -> Self {
        StreamSlots { capacity, used: 0 }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently reserved.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Slots still free.
    pub fn available(&self) -> usize {
        self.capacity - self.used
    }

    /// Takes one slot, or reports the exhausted capacity.
    pub fn take(&mut self) -> Result<(), CmError> {
        if self.used >= self.capacity {
            return Err(CmError::NoSlots {
                capacity: self.capacity,
            });
        }
        self.used += 1;
        Ok(())
    }

    /// Returns one slot (saturating).
    pub fn release(&mut self) {
        self.used = self.used.saturating_sub(1);
    }
}

impl std::error::Error for CmError {}

/// Outcome of a played period.
#[derive(Debug, Default, Clone)]
pub struct CmReport {
    /// Periods simulated.
    pub periods: u64,
    /// Periods whose total I/O exceeded the period (missed deadlines).
    pub missed: u64,
    /// Bytes delivered to all streams.
    pub bytes_delivered: u64,
}

/// Usable fraction of the array bandwidth for guarantees.
const RESERVABLE_FRACTION: f64 = 0.8;

/// Rate-guaranteed periodic service over the log.
pub struct CmScheduler {
    /// Service period: each stream receives rate × period bytes per
    /// period.
    period: Ns,
    /// Array bandwidth used for admission (bytes/second).
    array_bandwidth: u64,
    /// Concurrent-stream cap (the slot ledger's bound, enforced from
    /// inside the server as well).
    max_streams: usize,
    streams: Vec<CmStream>,
}

impl CmScheduler {
    /// Creates a scheduler with the given period and admission ceiling.
    pub fn new(period: Ns, array_bandwidth: u64) -> Self {
        CmScheduler {
            period,
            array_bandwidth,
            max_streams: usize::MAX,
            streams: Vec::new(),
        }
    }

    /// Caps the number of concurrently admitted streams (see
    /// [`StreamSlots`]).
    pub fn set_max_streams(&mut self, max_streams: usize) {
        self.max_streams = max_streams;
    }

    /// Total rate currently reserved.
    pub fn reserved(&self) -> u64 {
        self.streams.iter().map(|s| s.rate).sum()
    }

    /// Rate still available to new streams.
    pub fn available(&self) -> u64 {
        (self.array_bandwidth as f64 * RESERVABLE_FRACTION) as u64 - self.reserved()
    }

    /// Admits a stream at `rate` bytes/second from `offset` of `file`.
    pub fn admit(&mut self, file: FileId, rate: u64, offset: u64) -> Result<usize, CmError> {
        if self.streams.len() >= self.max_streams {
            return Err(CmError::NoSlots {
                capacity: self.max_streams,
            });
        }
        if rate > self.available() {
            return Err(CmError::Oversubscribed {
                requested: rate,
                available: self.available(),
            });
        }
        self.streams.push(CmStream { file, rate, offset });
        Ok(self.streams.len() - 1)
    }

    /// Plays `n` periods: every stream reads `rate × period` bytes per
    /// period (stopping at end of file). A period misses when the I/O
    /// time of its reads exceeds the period. The reads are for timing
    /// only: each is walked and charged as any read of the log is, and
    /// no view is taken nor byte copied, so a period allocates nothing,
    /// the first one included.
    pub fn run_periods(&mut self, fs: &mut LogFs, n: u64) -> Result<CmReport, FsError> {
        let read = |fs: &mut LogFs, file, offset, take| fs.read_for_timing(file, offset, take);
        play(&mut self.streams, self.period, fs, n, read)
    }

    /// [`CmScheduler::run_periods`] with a [`crate::tier::TieredCache`] fronting the
    /// log store: every per-period read is served chunk-wise through the
    /// tiers (hot views, warm SSD-class read, cold RAID stripe), and
    /// registered streams get the next second's chunks prefetched into
    /// free hot-tier room. Deadline accounting is unchanged — a period
    /// misses when the I/O its reads actually incurred exceeds the
    /// period.
    pub fn run_periods_tiered(
        &mut self,
        fs: &mut LogFs,
        cache: &mut crate::tier::TieredCache,
        n: u64,
    ) -> Result<CmReport, FsError> {
        // Views live until the stream's next read, then release their
        // pages back toward the cache's and the disks' refcounts.
        let mut served = Vec::new();
        play(
            &mut self.streams,
            self.period,
            fs,
            n,
            |fs, file, offset, take| cache.read(fs, file, offset, take, &mut served),
        )
    }
}

/// The period loop both play-outs share; `read(fs, file, offset, bytes)`
/// is how one stream's share of a period comes off the store.
fn play(
    streams: &mut [CmStream],
    period: Ns,
    fs: &mut LogFs,
    n: u64,
    mut read: impl FnMut(&mut LogFs, FileId, u64, u64) -> Result<(), FsError>,
) -> Result<CmReport, FsError> {
    let mut report = CmReport::default();
    for _ in 0..n {
        let io_before = fs.io_time;
        let mut delivered = 0u64;
        for s in streams.iter_mut() {
            let want = (s.rate as u128 * period as u128 / SEC as u128) as u64;
            let size = fs.pnode(s.file).ok_or(FsError::NoSuchFile)?.size;
            let take = want.min(size.saturating_sub(s.offset));
            if take > 0 {
                read(fs, s.file, s.offset, take)?;
                s.offset += take;
                delivered += take;
            }
        }
        let io = fs.io_time - io_before;
        report.periods += 1;
        report.bytes_delivered += delivered;
        if io > period {
            report.missed += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use crate::log::{FileClass, SEGMENT_BYTES};
    use pegasus_sim::time::MS;

    fn fs_with_titles(titles: usize, megabytes: usize) -> (LogFs, Vec<FileId>) {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        fs.raid_mut().set_store(false);
        let segment = vec![0u8; SEGMENT_BYTES];
        let ids = (0..titles)
            .map(|_| {
                let id = fs.create(FileClass::Continuous);
                for _ in 0..megabytes {
                    fs.append(id, &segment).unwrap();
                }
                id
            })
            .collect();
        fs.sync().unwrap();
        (fs, ids)
    }

    fn fs_with_video(megabytes: usize) -> (LogFs, FileId) {
        let (fs, ids) = fs_with_titles(1, megabytes);
        (fs, ids[0])
    }

    #[test]
    fn index_lookup_rules() {
        let mut idx = StreamIndex::new();
        for i in 0..10u64 {
            idx.add_mark(i * 1_000_000, i * 500_000);
        }
        assert_eq!(idx.offset_for(0), Some(0));
        assert_eq!(idx.offset_for(3_000_000), Some(1_500_000));
        assert_eq!(
            idx.offset_for(3_500_000),
            Some(1_500_000),
            "floor semantics"
        );
        assert_eq!(
            idx.offset_for(99_000_000),
            Some(4_500_000),
            "clamps to last"
        );
        assert_eq!(StreamIndex::new().offset_for(5), None);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn index_rejects_reordered_marks() {
        let mut idx = StreamIndex::new();
        idx.add_mark(100, 10);
        idx.add_mark(50, 20);
    }

    #[test]
    fn fast_forward_skips_marks() {
        let mut idx = StreamIndex::new();
        for i in 0..12u64 {
            idx.add_mark(i * 10, i * 100);
        }
        let ff = idx.fast_forward(20, 4);
        assert_eq!(ff, vec![(20, 200), (60, 600), (100, 1000)]);
    }

    #[test]
    fn reverse_play_walks_backward() {
        let mut idx = StreamIndex::new();
        for i in 0..5u64 {
            idx.add_mark(i * 10, i * 100);
        }
        let rev = idx.reverse(25);
        assert_eq!(rev, vec![(20, 200), (10, 100), (0, 0)]);
    }

    #[test]
    fn admission_respects_bandwidth() {
        let mut sched = CmScheduler::new(500 * MS, 20_000_000);
        // 80 % of 20 MB/s = 16 MB/s reservable.
        let f = FileId(1);
        sched.admit(f, 8_000_000, 0).unwrap();
        sched.admit(f, 8_000_000, 0).unwrap();
        let err = sched.admit(f, 1, 0).unwrap_err();
        assert!(matches!(err, CmError::Oversubscribed { .. }));
    }

    #[test]
    fn admitted_streams_meet_their_periods() {
        let (mut fs, id) = fs_with_video(64);
        let mut sched = CmScheduler::new(SEC, 20_000_000);
        // Three 2 MB/s "videos" = 6 MB/s total, well inside 16 MB/s.
        for _ in 0..3 {
            sched.admit(id, 2_000_000, 0).unwrap();
        }
        let report = sched.run_periods(&mut fs, 8).unwrap();
        assert_eq!(report.missed, 0, "admitted load must meet its deadlines");
        assert_eq!(report.bytes_delivered, 3 * 2_000_000 * 8);
    }

    #[test]
    fn forced_oversubscription_misses() {
        // Bypass admission by lying about the array bandwidth: ask for
        // 40 MB/s from a 20 MB/s array.
        let (mut fs, id) = fs_with_video(96);
        let mut sched = CmScheduler::new(SEC, 100_000_000);
        for _ in 0..5 {
            sched.admit(id, 8_000_000, 0).unwrap();
        }
        let report = sched.run_periods(&mut fs, 2).unwrap();
        assert!(report.missed > 0, "an oversubscribed array must miss");
    }

    #[test]
    fn slot_cap_refuses_extra_streams() {
        let mut sched = CmScheduler::new(500 * MS, 1_000_000_000);
        sched.set_max_streams(2);
        let f = FileId(1);
        sched.admit(f, 1_000, 0).unwrap();
        sched.admit(f, 1_000, 0).unwrap();
        assert_eq!(
            sched.admit(f, 1_000, 0).unwrap_err(),
            CmError::NoSlots { capacity: 2 }
        );
    }

    #[test]
    fn stream_slots_ledger_take_release() {
        let mut slots = StreamSlots::new(2);
        assert_eq!(slots.available(), 2);
        slots.take().unwrap();
        slots.take().unwrap();
        let err = slots.take().unwrap_err();
        assert_eq!(err, CmError::NoSlots { capacity: 2 });
        assert!(err.to_string().contains('2'));
        slots.release();
        assert_eq!(slots.used(), 1);
        slots.take().unwrap();
        // Release saturates at zero.
        slots.release();
        slots.release();
        slots.release();
        assert_eq!(slots.used(), 0);
        assert_eq!(slots.capacity(), 2);
    }

    #[test]
    fn stream_stops_at_end_of_file() {
        let (mut fs, id) = fs_with_video(2);
        let mut sched = CmScheduler::new(SEC, 20_000_000);
        sched.admit(id, 1_000_000, 0).unwrap();
        let report = sched.run_periods(&mut fs, 5).unwrap();
        // Only 2 MB exist.
        assert_eq!(report.bytes_delivered, 2 * SEGMENT_BYTES as u64);
    }

    #[test]
    fn tiered_periods_deliver_same_bytes_with_less_io() {
        use crate::tier::{TierConfig, TieredCache};
        // Ten viewers of one title, all starting at offset 0 — the
        // flash-crowd shape. Uncached, each stream pays the array;
        // tiered, the first fetch fills the hot tier and the other nine
        // get views of the same pages.
        let rate = 1_000_000;
        let viewers = 10;
        let (mut plain_fs, plain_id) = fs_with_video(48);
        let mut plain = CmScheduler::new(SEC, 1_000_000_000);
        for _ in 0..viewers {
            plain.admit(plain_id, rate, 0).unwrap();
        }
        let plain_report = plain.run_periods(&mut plain_fs, 4).unwrap();

        let (mut fs, id) = fs_with_video(48);
        let mut sched = CmScheduler::new(SEC, 1_000_000_000);
        for _ in 0..viewers {
            sched.admit(id, rate, 0).unwrap();
        }
        let mut cache = TieredCache::new(TierConfig {
            hot_chunks: 64,
            warm_chunks: 64,
            ..TierConfig::default()
        });
        cache.register_stream(id, rate);
        let report = sched.run_periods_tiered(&mut fs, &mut cache, 4).unwrap();

        assert_eq!(report.bytes_delivered, plain_report.bytes_delivered);
        assert!(
            fs.io_time * 2 <= plain_fs.io_time,
            "tiered io {} not ≥2× below uncached {}",
            fs.io_time,
            plain_fs.io_time
        );
        let s = cache.stats();
        assert!(s.hot_hits > 0);
        assert!(s.disk_io_saved_cells() > 0);
    }

    #[test]
    fn prefetch_never_costs_a_lockstep_play_out_disk_time() {
        use crate::tier::{TierConfig, TieredCache};
        // Four titles, two lockstep viewers each, at 1 MB/s: a one-chunk
        // horizon per title wants 4 × (1 + 1) chunks resident against a
        // hot tier of 4. A prefetch that evicted would trade the second
        // viewer's hit for a stripe read; one that only fills free room
        // can never cost disk time.
        let play = |registered: bool| {
            let (mut fs, ids) = fs_with_titles(4, 4);
            let mut sched = CmScheduler::new(SEC, 1_000_000_000);
            let mut cache = TieredCache::new(TierConfig {
                hot_chunks: 4,
                warm_chunks: 4,
                ..TierConfig::default()
            });
            for &id in ids.iter().chain(&ids) {
                sched.admit(id, 1_000_000, 0).unwrap();
                if registered {
                    cache.register_stream(id, 1_000_000);
                }
            }
            let report = sched.run_periods_tiered(&mut fs, &mut cache, 4).unwrap();
            (fs.io_time, report.bytes_delivered)
        };
        let (plain_io, plain_bytes) = play(false);
        let (io, bytes) = play(true);
        assert_eq!(bytes, plain_bytes);
        assert!(
            io <= plain_io,
            "registered play-out {io} ns of disk time, unregistered {plain_io} ns"
        );
    }

    #[test]
    fn seek_via_index_reads_from_marked_offset() {
        let (mut fs, id) = fs_with_video(8);
        let mut idx = StreamIndex::new();
        // A mark every "second" of a 1 MB/s recording.
        for i in 0..8u64 {
            idx.add_mark(i * SEC, i * SEGMENT_BYTES as u64);
        }
        let offset = idx.offset_for(5 * SEC).unwrap();
        assert_eq!(offset, 5 * SEGMENT_BYTES as u64);
        let mut sched = CmScheduler::new(SEC, 20_000_000);
        sched.admit(id, 1_000_000, offset).unwrap();
        let report = sched.run_periods(&mut fs, 10).unwrap();
        // Only 3 MB remain after the seek point.
        assert_eq!(report.bytes_delivered, 3 * SEGMENT_BYTES as u64);
    }
}
