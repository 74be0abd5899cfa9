//! Caching for ordinary data — and why it fails for continuous media.
//!
//! "Locality of reference can be exploited by caching data in client
//! and/or server memory. ... This applies to naming data too, albeit
//! that directories can be cached more effectively when the semantics of
//! directory operations are exploited. ... In contrast, caching video
//! and audio is usually not a good idea: most video sequences ... are
//! larger than the cache, so, by the time a user has seen ... a video to
//! the end, the beginning has already been evicted from the (LRU)
//! cache." (§5)
//!
//! [`LruCache`] is the generic block cache. The sequential-eviction
//! pathology is demonstrated in the tests and measured in experiment
//! E15.

use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used cache with exact LRU ordering.
///
/// # Examples
///
/// ```
/// use pegasus_pfs::cache::LruCache;
///
/// let mut c = LruCache::new(2);
/// c.put("a", 1);
/// c.put("b", 2);
/// c.get(&"a");
/// c.put("c", 3); // evicts "b", the least recently used
/// assert!(c.get(&"b").is_none());
/// assert_eq!(c.get(&"a"), Some(&1));
/// ```
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    clock: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Consecutive misses since the last hit — the signature of a
    /// sequential scan wider than the cache.
    cold_run: u64,
    /// Sequential scans detected: each time the cold run grows past
    /// another full cache capacity of lookups, the caller is walking a
    /// working set the cache cannot hold (§5's continuous-media
    /// pathology). The counter makes the failure *observable*; the
    /// tiered cache (`crate::tier`) makes it *avoidable*.
    pub scans_detected: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            map: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            cold_run: 0,
            scans_detected: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some((v, stamp)) => {
                *stamp = clock;
                self.hits += 1;
                self.cold_run = 0;
                Some(&*v)
            }
            None => {
                self.misses += 1;
                self.cold_run += 1;
                // A miss streak one capacity long means every resident
                // entry was evicted unused since the last hit: a scan.
                if self.cold_run.is_multiple_of(self.capacity as u64) {
                    self.scans_detected += 1;
                }
                None
            }
        }
    }

    /// Checks for `key` without recording a hit/miss or refreshing it.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Inserts `key → value`, evicting the least recently used entry if
    /// the cache is full.
    pub fn put(&mut self, key: K, value: V) {
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the minimum stamp.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (value, self.clock));
    }

    /// Removes `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// Hit rate over all lookups so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_and_miss() {
        let mut c = LruCache::new(4);
        c.put(1u32, "one");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_is_lru() {
        let mut c = LruCache::new(3);
        c.put(1, ());
        c.put(2, ());
        c.put(3, ());
        c.get(&1); // 2 is now LRU
        c.put(4, ());
        assert!(c.peek(&2).is_none());
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
        assert!(c.peek(&4).is_some());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    fn working_set_smaller_than_cache_hits() {
        // Ordinary file traffic: a hot working set re-referenced often.
        let mut c = LruCache::new(64);
        for round in 0..10 {
            for block in 0..32u32 {
                if c.get(&block).is_none() {
                    c.put(block, ());
                }
                let _ = round;
            }
        }
        assert!(c.hit_rate() > 0.85, "hit rate {:.2}", c.hit_rate());
    }

    #[test]
    fn sequential_scan_larger_than_cache_never_hits() {
        // The paper's pathology: stream a "video" of 2× the cache size,
        // twice. LRU evicts each block before its re-reference.
        let mut c = LruCache::new(100);
        let video_blocks = 200u32;
        for _pass in 0..2 {
            for b in 0..video_blocks {
                if c.get(&b).is_none() {
                    c.put(b, ());
                }
            }
        }
        assert_eq!(c.hits, 0, "cyclic sequential access defeats LRU entirely");
        assert_eq!(c.misses, 400);
        // The pathology is now *detected*: 400 consecutive misses over a
        // 100-entry cache is four full capacity-widths of cold scan.
        assert_eq!(c.scans_detected, 4, "sequential scan must be reported");
    }

    #[test]
    fn scan_detector_stays_quiet_on_ordinary_traffic() {
        let mut c = LruCache::new(64);
        for _round in 0..10 {
            for block in 0..32u32 {
                if c.get(&block).is_none() {
                    c.put(block, ());
                }
            }
        }
        assert_eq!(
            c.scans_detected, 0,
            "a cache-resident working set is not a scan"
        );
        // A hit resets the cold run: short miss bursts never add up to one.
        let mut c = LruCache::new(4);
        for i in 0..12u32 {
            let _ = c.get(&i);
            c.put(i, ());
            let _ = c.get(&i); // hit, resetting the run
        }
        assert_eq!(c.scans_detected, 0);
    }

    #[test]
    fn sequential_scan_smaller_than_cache_hits_second_pass() {
        let mut c = LruCache::new(300);
        for _pass in 0..2 {
            for b in 0..200u32 {
                if c.get(&b).is_none() {
                    c.put(b, ());
                }
            }
        }
        assert_eq!(c.hits, 200);
        assert_eq!(c.misses, 200);
    }

    #[test]
    #[should_panic(expected = "cache capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, ()>::new(0);
    }
}
