//! The tiered content cache: fixing §5's LRU pathology by construction.
//!
//! The paper rules out LRU caching for continuous media — "most video
//! sequences ... are larger than the cache, so, by the time a user has
//! seen ... a video to the end, the beginning has already been evicted"
//! (§5, demonstrated in [`crate::cache`]). This module replaces recency
//! with structure, borrowing the hot/warm/cold layering of modern
//! stream stores:
//!
//! * **Hot tier** — chunks in server memory, each a run of
//!   [`FrameView`]s of the disk pages that hold its bytes
//!   (`LogFs::read_views`): filling it copies nothing, and a hit is a
//!   refcount bump per page. N concurrent viewers of one title therefore
//!   share the log store's own pages — the zero-copy arena makes fan-out
//!   nearly free.
//! * **Warm tier** — an SSD-class per-server store. Admission is by
//!   *popularity* (per-title frequency), not recency, and a candidate
//!   must be **strictly** more popular than the victim it would evict.
//!   A sequential scan — every chunk referenced exactly once — ties with
//!   every incumbent and is denied, so the scan that defeats LRU cannot
//!   flush this tier. A warm hit costs `warm_chunk_ns`, far below a RAID
//!   stripe read.
//! * **Cold tier** — the log store itself ([`LogFs`]); a miss charges
//!   the full RAID stripe time exactly as an uncached read would.
//!
//! On top sits admission-aware sequential prefetch: a playback stream
//! registered with its broker-granted rate has the next second's worth
//! of chunks staged into the hot tier as it is served — but only into
//! free room. A speculative chunk never evicts a resident one: every
//! resident chunk got there by demand, and with viewers in lockstep it
//! is the one the next viewer will read.
//!
//! Everything is deterministic: tiers are `BTreeMap`s keyed by
//! `(FileId, chunk)`, eviction scans are ordered, and every statistic is
//! an integer.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::log::{FileId, FsError, LogFs};
use pegasus_sim::arena::{Arena, FrameView};
use pegasus_sim::time::Ns;

/// Chunk key: a title and a chunk index within it.
type ChunkKey = (FileId, u64);

/// A resident chunk: views of the bytes it holds, in order.
type Chunk = Rc<[FrameView]>;

/// Most chunks sequential prefetch stages after one served read.
const PREFETCH_CHUNKS: u64 = 2;

/// Sizing and timing knobs of a [`TieredCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Hot-tier capacity in chunks (in server memory).
    pub hot_chunks: usize,
    /// Warm-tier capacity in chunks (SSD-class).
    pub warm_chunks: usize,
    /// Chunk size in bytes; reads are served chunk-wise.
    pub chunk_bytes: usize,
    /// Simulated cost of one warm-tier chunk read, charged to the file
    /// system's `io_time` so deadline accounting sees it.
    pub warm_chunk_ns: Ns,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            hot_chunks: 64,
            warm_chunks: 256,
            // One RAID stripe: any smaller cold fetch would still pay a
            // whole stripe read, so the stripe is the natural chunk.
            chunk_bytes: 1 << 20,
            warm_chunk_ns: 50_000,
        }
    }
}

/// Deterministic counters of one [`TieredCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Demand chunk accesses served from the hot tier.
    pub hot_hits: u64,
    /// Demand chunk accesses served from the warm tier.
    pub warm_hits: u64,
    /// Demand chunk accesses that went to the log store.
    pub cold_misses: u64,
    /// Bytes served without touching the RAID array (hot + warm).
    pub bytes_saved: u64,
    /// Chunks staged ahead of the playhead by sequential prefetch.
    pub prefetched_chunks: u64,
    /// Demand chunk accesses on the designated crowd title.
    pub crowd_accesses: u64,
    /// Crowd-title accesses served from the hot tier.
    pub crowd_hot_hits: u64,
}

impl TierStats {
    /// Total demand chunk accesses.
    pub fn accesses(&self) -> u64 {
        self.hot_hits + self.warm_hits + self.cold_misses
    }

    /// Hit ratio of tier `hits` over all accesses, in thousandths.
    fn ratio_milli(hits: u64, total: u64) -> u64 {
        (hits * 1000).checked_div(total).unwrap_or(0)
    }

    /// Hot-tier hit ratio in thousandths.
    pub fn hot_milli(&self) -> u64 {
        Self::ratio_milli(self.hot_hits, self.accesses())
    }

    /// Warm-tier hit ratio in thousandths.
    pub fn warm_milli(&self) -> u64 {
        Self::ratio_milli(self.warm_hits, self.accesses())
    }

    /// Cold-miss ratio in thousandths.
    pub fn cold_milli(&self) -> u64 {
        Self::ratio_milli(self.cold_misses, self.accesses())
    }

    /// Disk I/O saved, in 48-byte ATM cell payloads — the report's
    /// common currency for moved bytes.
    pub fn disk_io_saved_cells(&self) -> u64 {
        self.bytes_saved / 48
    }
}

/// A playback stream registered for prefetch: identity plus the rate
/// the QoS broker actually granted it.
#[derive(Debug, Clone, Copy)]
struct PrefetchReg {
    file: FileId,
    /// Granted playback rate in bytes/second — the prefetch horizon is
    /// one second's worth of chunks at this rate.
    rate: u64,
}

/// The tiered content cache fronting one PFS server's log store.
pub struct TieredCache {
    cfg: TierConfig,
    arena: Arena,
    /// Hot tier: chunk → (views, last-access stamp).
    hot: BTreeMap<ChunkKey, (Chunk, u64)>,
    /// Warm tier: chunk → (views, admission stamp).
    warm: BTreeMap<ChunkKey, (Chunk, u64)>,
    /// Per-title demand access counts — the popularity signal warm
    /// admission compares.
    freq: BTreeMap<FileId, u64>,
    streams: Vec<PrefetchReg>,
    clock: u64,
    crowd: Option<FileId>,
    stats: TierStats,
}

impl TieredCache {
    /// Creates a cache with its own arena, which its copies of bytes
    /// still in an open log segment are leased from.
    pub fn new(cfg: TierConfig) -> Self {
        assert!(cfg.hot_chunks > 0, "hot tier must hold at least one chunk");
        assert!(cfg.chunk_bytes > 0, "chunk size must be positive");
        TieredCache {
            cfg,
            arena: Arena::new(),
            hot: BTreeMap::new(),
            warm: BTreeMap::new(),
            freq: BTreeMap::new(),
            streams: Vec::new(),
            clock: 0,
            crowd: None,
            stats: TierStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// The arena the cache leases copies from: only bytes still in an
    /// open log segment are copied, so on flushed titles it grants none.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Configuration in force.
    pub fn config(&self) -> &TierConfig {
        &self.cfg
    }

    /// Marks `file` as the flash-crowd title whose hot-tier service the
    /// stats track separately.
    pub fn set_crowd_file(&mut self, file: FileId) {
        self.crowd = Some(file);
    }

    /// Registers a playback stream for sequential prefetch at the
    /// broker-granted `rate` (bytes/second).
    pub fn register_stream(&mut self, file: FileId, rate: u64) {
        self.streams.push(PrefetchReg { file, rate });
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Least-recently-touched hot chunk (deterministic: ordered scan,
    /// earliest stamp wins). The CM-awareness of the tier: chunks of
    /// the declared flash-crowd title are evicted only when nothing
    /// else is left — the control plane has told the cache that N
    /// viewers ride each of those chunks, so trading one away for a
    /// single-viewer chunk always loses.
    fn hot_victim(&self) -> Option<ChunkKey> {
        self.hot
            .iter()
            .min_by_key(|(key, (_, stamp))| (self.crowd == Some(key.0), *stamp, **key))
            .map(|(key, _)| *key)
    }

    /// Warm victim: the chunk of the least popular title, oldest first —
    /// popularity decides residence, recency only tiebreaks.
    fn warm_victim(&self) -> Option<ChunkKey> {
        self.warm
            .iter()
            .min_by_key(|((file, chunk), (_, stamp))| {
                (
                    self.freq.get(file).copied().unwrap_or(0),
                    *stamp,
                    *file,
                    *chunk,
                )
            })
            .map(|(key, _)| *key)
    }

    /// Inserts a chunk into the hot tier, demoting the evicted chunk to
    /// the warm tier's *admission filter* (not unconditionally in).
    fn insert_hot(&mut self, key: ChunkKey, chunk: Chunk) {
        let stamp = self.tick();
        if !self.hot.contains_key(&key) && self.hot.len() >= self.cfg.hot_chunks {
            if let Some(victim) = self.hot_victim() {
                if let Some((evicted, _)) = self.hot.remove(&victim) {
                    self.offer_warm(victim, evicted);
                }
            }
        }
        self.hot.insert(key, (chunk, stamp));
    }

    /// Popularity admission: the chunk enters the warm tier only into
    /// free space or over a *strictly* less popular victim. A one-pass
    /// sequential scan ties with every incumbent and is refused — the
    /// construction that makes the tier scan-proof.
    fn offer_warm(&mut self, key: ChunkKey, chunk: Chunk) {
        if self.cfg.warm_chunks == 0 || self.warm.contains_key(&key) {
            return;
        }
        if self.warm.len() >= self.cfg.warm_chunks {
            let candidate_freq = self.freq.get(&key.0).copied().unwrap_or(0);
            let victim = match self.warm_victim() {
                Some(v) => v,
                None => return,
            };
            let victim_freq = self.freq.get(&victim.0).copied().unwrap_or(0);
            if candidate_freq <= victim_freq {
                return; // deny on tie: scans do not displace incumbents
            }
            self.warm.remove(&victim);
        }
        let stamp = self.tick();
        self.warm.insert(key, (chunk, stamp));
    }

    /// Length of chunk `chunk` of a `size`-byte file.
    fn chunk_len(&self, size: u64, chunk: u64) -> usize {
        let start = chunk * self.cfg.chunk_bytes as u64;
        (size.saturating_sub(start)).min(self.cfg.chunk_bytes as u64) as usize
    }

    /// Fetches one chunk from the log store: views, no copy.
    fn fetch_cold(
        &mut self,
        fs: &mut LogFs,
        file: FileId,
        chunk: u64,
        size: u64,
    ) -> Result<Chunk, FsError> {
        let start = chunk * self.cfg.chunk_bytes as u64;
        let len = self.chunk_len(size, chunk);
        let mut views = Vec::new();
        fs.read_views(file, start, len, &self.arena, &mut views)?;
        Ok(views.into())
    }

    /// Serves one demand chunk access, returning the chunk's views.
    /// Tier order: hot, warm (promote), cold (fetch).
    fn access_chunk(
        &mut self,
        fs: &mut LogFs,
        file: FileId,
        chunk: u64,
        size: u64,
    ) -> Result<Chunk, FsError> {
        let key = (file, chunk);
        *self.freq.entry(file).or_insert(0) += 1;
        let crowd = self.crowd == Some(file);
        if crowd {
            self.stats.crowd_accesses += 1;
        }
        let len = self.chunk_len(size, chunk) as u64;
        if let Some((views, stamp)) = self.hot.get_mut(&key) {
            *stamp = self.clock + 1;
            self.clock += 1;
            self.stats.hot_hits += 1;
            self.stats.bytes_saved += len;
            if crowd {
                self.stats.crowd_hot_hits += 1;
            }
            return Ok(views.clone());
        }
        if let Some((views, _)) = self.warm.get(&key) {
            // Served from warm — and *kept* there: residence is decided
            // by popularity, not by a promotion that would drain the
            // tier. The same views ride up into hot for near-term re-use.
            let views = views.clone();
            self.stats.warm_hits += 1;
            self.stats.bytes_saved += len;
            fs.io_time += self.cfg.warm_chunk_ns;
            fs.stats.bytes_read += len;
            self.insert_hot(key, views.clone());
            return Ok(views);
        }
        self.stats.cold_misses += 1;
        let views = self.fetch_cold(fs, file, chunk, size)?;
        self.insert_hot(key, views.clone());
        Ok(views)
    }

    /// Serves a demand read of `[offset, offset + len)` of `file`
    /// chunk-wise through the tiers, pushing views of exactly those
    /// bytes, in order, into `out` (cleared first): refcount bumps on
    /// the pages the chunks hold, never a copy. After the demand chunks,
    /// sequential prefetch stages upcoming chunks for any stream
    /// registered on `file`.
    pub fn read(
        &mut self,
        fs: &mut LogFs,
        file: FileId,
        offset: u64,
        len: u64,
        out: &mut Vec<FrameView>,
    ) -> Result<(), FsError> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        let size = fs.pnode(file).ok_or(FsError::NoSuchFile)?.size;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= size)
            .ok_or(FsError::BadRange)?;
        let cb = self.cfg.chunk_bytes as u64;
        let first = offset / cb;
        let last = (end - 1) / cb;
        for chunk in first..=last {
            let views = self.access_chunk(fs, file, chunk, size)?;
            // The part of the chunk inside the range, as chunk offsets.
            let base = chunk * cb;
            let (lo, hi) = (offset.max(base) - base, end.min(base + cb) - base);
            let mut at = 0;
            for v in views.iter() {
                let (a, b) = (lo.max(at), hi.min(at + v.len() as u64));
                if a < b {
                    out.push(v.slice((a - at) as usize, (b - a) as usize));
                }
                at += v.len() as u64;
            }
        }
        self.prefetch_after(fs, file, last, size)?;
        Ok(())
    }

    /// Stages chunks `last+1 ..` into the hot tier for a stream
    /// registered on `file`: one second's worth at its granted rate
    /// (`rate / chunk_bytes` chunks, at least one, at most
    /// [`PREFETCH_CHUNKS`]), and only while the hot tier has free room.
    /// A prefetch never evicts, so it never demotes a chunk into the
    /// warm tier's admission filter either.
    fn prefetch_after(
        &mut self,
        fs: &mut LogFs,
        file: FileId,
        last: u64,
        size: u64,
    ) -> Result<(), FsError> {
        let rate = match self.streams.iter().find(|s| s.file == file) {
            Some(s) => s.rate,
            None => return Ok(()),
        };
        let per_sec = (rate / self.cfg.chunk_bytes as u64).max(1);
        let horizon = per_sec.min(PREFETCH_CHUNKS);
        let total_chunks = size.div_ceil(self.cfg.chunk_bytes as u64);
        for chunk in last + 1..=(last + horizon).min(total_chunks.saturating_sub(1)) {
            let key = (file, chunk);
            if self.hot.contains_key(&key) || self.warm.contains_key(&key) {
                continue;
            }
            if self.hot.len() >= self.cfg.hot_chunks {
                break;
            }
            let views = self.fetch_cold(fs, file, chunk, size)?;
            self.insert_hot(key, views);
            self.stats.prefetched_chunks += 1;
        }
        Ok(())
    }
}

impl std::fmt::Debug for TieredCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredCache")
            .field("hot", &self.hot.len())
            .field("warm", &self.warm.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LruCache;
    use crate::disk::DiskConfig;
    use crate::log::{FileClass, SEGMENT_BYTES};

    fn fs_with_video(megabytes: usize) -> (LogFs, FileId) {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        fs.raid_mut().set_store(false);
        let id = fs.create(FileClass::Continuous);
        for _ in 0..megabytes {
            fs.append(id, &vec![0u8; SEGMENT_BYTES]).unwrap();
        }
        fs.sync().unwrap();
        (fs, id)
    }

    fn small_cfg() -> TierConfig {
        TierConfig {
            hot_chunks: 4,
            warm_chunks: 8,
            chunk_bytes: 1 << 16,
            warm_chunk_ns: 50_000,
        }
    }

    #[test]
    fn cold_then_hot_round_trip() {
        let (mut fs, id) = fs_with_video(1);
        let mut cache = TieredCache::new(small_cfg());
        let mut out = Vec::new();
        cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(cache.stats().cold_misses, 1);
        let io_after_cold = fs.io_time;
        cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
        assert_eq!(cache.stats().hot_hits, 1);
        assert_eq!(fs.io_time, io_after_cold, "hot hit touches no device");
        assert_eq!(cache.stats().bytes_saved, 1 << 16);
    }

    #[test]
    fn warm_hit_charges_ssd_not_raid() {
        let (mut fs, id) = fs_with_video(2);
        let mut cache = TieredCache::new(TierConfig {
            hot_chunks: 1,
            ..small_cfg()
        });
        let mut out = Vec::new();
        // Touch chunk 0 twice so its title has frequency, then push it
        // out of the one-chunk hot tier.
        cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
        cache.read(&mut fs, id, 1 << 16, 1 << 16, &mut out).unwrap();
        assert_eq!(cache.warm.len(), 1, "evicted hot chunk admitted warm");
        let io_before = fs.io_time;
        cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
        assert_eq!(cache.stats().warm_hits, 1);
        assert_eq!(fs.io_time - io_before, 50_000, "warm hit costs SSD time");
    }

    #[test]
    fn lru_pathology_fixed_by_construction() {
        // §5 regression: looped sequential playback of a video larger
        // than the cache. LRU hit ratio is exactly zero; the tiered
        // cache retains a popularity-admitted prefix in the warm tier,
        // so its hit ratio approaches capacity / video_length.
        let video_chunks = 48u64;
        let passes = 4;

        let mut lru = LruCache::new(12);
        for _ in 0..passes {
            for b in 0..video_chunks {
                if lru.get(&b).is_none() {
                    lru.put(b, ());
                }
            }
        }
        assert_eq!(lru.hits, 0, "LRU never hits on the §5 workload");
        assert!(lru.scans_detected > 0);

        let (mut fs, id) = fs_with_video(3); // 48 chunks of 64 KiB
        let mut cache = TieredCache::new(TierConfig {
            hot_chunks: 4,
            warm_chunks: 8,
            ..small_cfg()
        });
        let mut out = Vec::new();
        for _ in 0..passes {
            for b in 0..video_chunks {
                cache.read(&mut fs, id, b << 16, 1 << 16, &mut out).unwrap();
            }
        }
        let s = cache.stats();
        // Popularity admission pins the first `warm_chunks` of the title
        // in the warm tier for good; from pass 2 on that prefix hits
        // every lap. Predicted floor: (passes−1) × warm capacity hits
        // over passes × length accesses — the capacity/length bound LRU
        // can never reach (it stays at exactly zero).
        let warm_capacity = 8u64;
        let predicted_milli = (passes - 1) * warm_capacity * 1000 / (passes * video_chunks);
        let hit_milli = TierStats::ratio_milli(s.hot_hits + s.warm_hits, s.accesses());
        assert!(
            hit_milli >= predicted_milli,
            "tiered hit ratio {hit_milli}‰ below predicted floor {predicted_milli}‰"
        );
        assert!(s.hot_hits + s.warm_hits > 0);
    }

    #[test]
    fn scan_cannot_flush_popular_titles_from_warm() {
        // A popular title's chunks sit in warm; a cold one-pass scan of
        // a different title must not displace them (deny-on-tie).
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        fs.raid_mut().set_store(false);
        let popular = fs.create(FileClass::Continuous);
        let scan = fs.create(FileClass::Continuous);
        for _ in 0..2 {
            fs.append(popular, &vec![0u8; SEGMENT_BYTES]).unwrap();
            fs.append(scan, &vec![0u8; SEGMENT_BYTES]).unwrap();
        }
        fs.sync().unwrap();
        let mut cache = TieredCache::new(TierConfig {
            hot_chunks: 2,
            warm_chunks: 4,
            ..small_cfg()
        });
        let mut out = Vec::new();
        // Build popularity: several passes over the popular title.
        for _ in 0..4 {
            for b in 0..8u64 {
                cache
                    .read(&mut fs, popular, b << 16, 1 << 16, &mut out)
                    .unwrap();
            }
        }
        let warm_before = cache.warm.len();
        assert!(warm_before > 0);
        // One cold sequential pass over the other title.
        for b in 0..32u64 {
            cache
                .read(&mut fs, scan, b << 16, 1 << 16, &mut out)
                .unwrap();
        }
        // Every warm chunk still belongs to the popular title.
        assert!(
            cache.warm.keys().all(|(f, _)| *f == popular),
            "a one-pass scan displaced popularity-admitted chunks"
        );
    }

    #[test]
    fn viewers_share_one_buffer() {
        // Disks that keep their bytes: a chunk's views are of real pages.
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        let id = fs.create(FileClass::Continuous);
        fs.append(id, &vec![5u8; SEGMENT_BYTES]).unwrap();
        fs.sync().unwrap();
        let mut cache = TieredCache::new(small_cfg());
        let mut first = Vec::new();
        cache.read(&mut fs, id, 0, 1 << 16, &mut first).unwrap();
        // A 64 KiB chunk at a page boundary is one disk page.
        assert_eq!(first.len(), 1);
        let mut handles = Vec::new();
        for _ in 0..9 {
            let mut out = Vec::new();
            cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
            assert!(out.len() == 1 && out[0].same_buffer(&first[0]));
            handles.extend(out);
        }
        assert_eq!(cache.stats().hot_hits, 9);
        // The page's handles: the disk's own, the hot tier's, and the
        // ten viewers'. Nobody copied it.
        assert_eq!(first[0].buf().handle_count(), 12);
        assert_eq!(cache.arena().stats().leases_granted, 0);
        assert!(handles.iter().all(|h| h.iter().all(|&b| b == 5)));
    }

    #[test]
    fn prefetch_stages_next_chunks_for_registered_streams() {
        let (mut fs, id) = fs_with_video(1);
        let mut cache = TieredCache::new(small_cfg());
        cache.register_stream(id, 2 << 16); // two chunks per second
        let mut out = Vec::new();
        cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
        assert_eq!(cache.stats().prefetched_chunks, 2);
        // The next demand read lands entirely in the hot tier.
        cache.read(&mut fs, id, 1 << 16, 2 << 16, &mut out).unwrap();
        let s = cache.stats();
        assert_eq!(s.cold_misses, 1, "only the first chunk was a demand miss");
        assert_eq!(s.hot_hits, 2);
    }

    #[test]
    fn a_prefetch_never_evicts_a_resident_chunk() {
        // Two twins fill a four-chunk hot tier by demand; only one has a
        // registered stream. Its next read finds no free room, so it
        // must leave exactly what the unregistered twin leaves.
        let [(plain_fs, plain), (fs, cache)] = [false, true].map(|registered| {
            let (mut fs, id) = fs_with_video(1);
            let mut cache = TieredCache::new(small_cfg());
            let mut out = Vec::new();
            for b in 0..4u64 {
                cache.read(&mut fs, id, b << 16, 1 << 16, &mut out).unwrap();
            }
            if registered {
                cache.register_stream(id, 2 << 16);
            }
            cache.read(&mut fs, id, 4 << 16, 1 << 16, &mut out).unwrap();
            (fs, cache)
        });
        assert!(cache.hot.keys().eq(plain.hot.keys()));
        assert!(cache.warm.keys().eq(plain.warm.keys()));
        assert_eq!(fs.io_time, plain_fs.io_time);
        assert_eq!(cache.stats(), plain.stats());
        assert_eq!(cache.stats().prefetched_chunks, 0);

        // One free slot: exactly one chunk of the two-chunk horizon is
        // staged, and nothing resident leaves.
        let (mut fs, id) = fs_with_video(1);
        let mut cache = TieredCache::new(small_cfg());
        let mut out = Vec::new();
        for b in 0..3u64 {
            cache.read(&mut fs, id, b << 16, 1 << 16, &mut out).unwrap();
        }
        cache.register_stream(id, 2 << 16);
        cache.read(&mut fs, id, 2 << 16, 1 << 16, &mut out).unwrap();
        assert_eq!(cache.stats().prefetched_chunks, 1);
        let hot: Vec<u64> = cache.hot.keys().map(|&(_, chunk)| chunk).collect();
        assert_eq!(hot, [0, 1, 2, 3]);
    }

    #[test]
    fn crowd_title_tracking() {
        let (mut fs, id) = fs_with_video(1);
        let mut cache = TieredCache::new(small_cfg());
        cache.set_crowd_file(id);
        let mut out = Vec::new();
        for _ in 0..10 {
            cache.read(&mut fs, id, 0, 1 << 16, &mut out).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.crowd_accesses, 10);
        assert_eq!(s.crowd_hot_hits, 9, "all but the first access hit hot");
    }

    #[test]
    fn crowd_title_survives_hot_churn() {
        // The CM-aware eviction: a declared flash-crowd chunk outlives
        // any amount of single-viewer churn through the hot tier, so
        // the crowd keeps hitting the one resident chunk.
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        fs.raid_mut().set_store(false);
        let hit = fs.create(FileClass::Continuous);
        let churn = fs.create(FileClass::Continuous);
        fs.append(hit, &vec![0u8; SEGMENT_BYTES]).unwrap();
        for _ in 0..2 {
            fs.append(churn, &vec![0u8; SEGMENT_BYTES]).unwrap();
        }
        fs.sync().unwrap();
        let mut cache = TieredCache::new(TierConfig {
            hot_chunks: 2,
            ..small_cfg()
        });
        cache.set_crowd_file(hit);
        let mut out = Vec::new();
        cache.read(&mut fs, hit, 0, 1 << 16, &mut out).unwrap();
        // A long sequential pass floods the two-chunk hot tier.
        for b in 0..32u64 {
            cache
                .read(&mut fs, churn, b << 16, 1 << 16, &mut out)
                .unwrap();
        }
        let io_before = fs.io_time;
        cache.read(&mut fs, hit, 0, 1 << 16, &mut out).unwrap();
        let s = cache.stats();
        assert_eq!(s.crowd_accesses, 2);
        assert_eq!(s.crowd_hot_hits, 1, "crowd chunk still hot after the flood");
        assert_eq!(fs.io_time, io_before);
    }

    #[test]
    fn bad_range_and_missing_file_are_errors() {
        let (mut fs, id) = fs_with_video(1);
        let mut cache = TieredCache::new(small_cfg());
        let mut out = Vec::new();
        assert!(cache
            .read(&mut fs, id, SEGMENT_BYTES as u64, 1, &mut out)
            .is_err());
        assert!(cache.read(&mut fs, FileId(999), 0, 1, &mut out).is_err());
        // An end that wraps past zero is outside the file, not inside it.
        for (offset, len) in [(u64::MAX - 3, 8), (8, u64::MAX - 3), (u64::MAX, 1)] {
            assert_eq!(
                cache.read(&mut fs, id, offset, len, &mut out).unwrap_err(),
                FsError::BadRange
            );
        }
        assert_eq!(cache.stats().accesses(), 0);
        // Zero-length reads are a no-op.
        cache.read(&mut fs, id, 0, 0, &mut out).unwrap();
        assert_eq!(cache.stats().accesses(), 0);
    }

    #[test]
    fn stats_ratios_sum_to_one() {
        let (mut fs, id) = fs_with_video(2);
        let mut cache = TieredCache::new(small_cfg());
        let mut out = Vec::new();
        for _ in 0..3 {
            for b in 0..16u64 {
                cache.read(&mut fs, id, b << 16, 1 << 16, &mut out).unwrap();
            }
        }
        let s = cache.stats();
        let total = s.hot_milli() + s.warm_milli() + s.cold_milli();
        assert!(
            (998..=1000).contains(&total),
            "ratios sum to ~1000‰, got {total}"
        );
        assert_eq!(s.disk_io_saved_cells(), s.bytes_saved / 48);
    }
}
