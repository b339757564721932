//! The server's buffer cache over movie blocks.
//!
//! Two replacement policies:
//!
//! - [`CachePolicy::Lru`] — classic least-recently-used.
//! - [`CachePolicy::Interval`] — interval caching (Dan & Sitaram):
//!   when several viewers watch the same movie closely spaced, the
//!   blocks the leading stream just read are exactly what the
//!   trailing stream needs next, so the victim is the cached block
//!   with the *largest* distance to its nearest trailing consumer.
//!   Blocks nobody is approaching are evicted first.
//!
//! Victim selection is index-backed rather than a full scan: a
//! touch-tick `BTreeMap` orders residents by recency for LRU, and a
//! per-movie ordered block index turns the interval policy into one
//! range probe per consumer interval. An eviction costs
//! O((streams + movies) · log n) instead of the former
//! O(resident × streams) sweep, so block delivery stays cheap when
//! `cache_blocks` and stream counts scale up.

use crate::layout::MovieId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Replacement policy of the buffer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Least-recently-used.
    #[default]
    Lru,
    /// Interval caching: protect blocks a trailing viewer will reuse.
    Interval,
}

/// Key of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Movie the block belongs to.
    pub movie: MovieId,
    /// Logical block index within the movie.
    pub index: u64,
}

/// Counters kept by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Inserts refused because every eviction candidate was pinned.
    pub pin_refusals: u64,
}

/// A bounded cache of movie blocks.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    policy: CachePolicy,
    /// Block → last-touch tick.
    resident: HashMap<BlockKey, u64>,
    /// Recency index: tick → block (ticks are unique).
    by_touch: BTreeMap<u64, BlockKey>,
    /// Interval index: the resident block set of each movie, ordered
    /// by block index for range probes against consumer positions.
    by_movie: HashMap<MovieId, BTreeSet<u64>>,
    /// Pinned ranges `(movie, lo, hi)` — blocks inside `[lo, hi]` are
    /// never evicted (the stream-sharing engine pins the span between
    /// a merge group's trailing follower and its leader).
    pinned: Vec<(MovieId, u64, u64)>,
    tick: u64,
    /// Counters.
    pub stats: CacheStats,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity` blocks.
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        BufferCache {
            capacity,
            policy,
            resident: HashMap::new(),
            by_touch: BTreeMap::new(),
            by_movie: HashMap::new(),
            pinned: Vec::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Replaces the set of pinned ranges wholesale. Each `(movie, lo,
    /// hi)` protects resident blocks with `lo <= index <= hi` from
    /// eviction. Pinning does not prefetch: only blocks that pass
    /// through [`BufferCache::insert`] become resident.
    pub fn set_pinned(&mut self, ranges: &[(MovieId, u64, u64)]) {
        self.pinned = ranges.to_vec();
    }

    /// The current pinned ranges.
    pub fn pinned_ranges(&self) -> &[(MovieId, u64, u64)] {
        &self.pinned
    }

    /// True when `key` lies inside a pinned range.
    pub fn is_pinned(&self, key: BlockKey) -> bool {
        self.pinned
            .iter()
            .any(|&(movie, lo, hi)| movie == key.movie && key.index >= lo && key.index <= hi)
    }

    /// Resident blocks currently protected by a pinned range.
    pub fn pinned_block_count(&self) -> usize {
        let mut counted: std::collections::HashSet<BlockKey> = std::collections::HashSet::new();
        for &(movie, lo, hi) in &self.pinned {
            if let Some(set) = self.by_movie.get(&movie) {
                for &index in set.range(lo..=hi) {
                    counted.insert(BlockKey { movie, index });
                }
            }
        }
        counted.len()
    }

    /// Number of blocks currently resident.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    fn touch(&mut self, key: BlockKey) {
        self.tick += 1;
        if let Some(slot) = self.resident.get_mut(&key) {
            self.by_touch.remove(slot);
            *slot = self.tick;
            self.by_touch.insert(self.tick, key);
        }
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency
    /// on a hit.
    pub fn lookup(&mut self, key: BlockKey) -> bool {
        if self.resident.contains_key(&key) {
            self.touch(key);
            self.stats.hits += 1;
            true
        } else {
            self.tick += 1;
            self.stats.misses += 1;
            false
        }
    }

    /// Inserts `key`, evicting if full. `consumers` lists every active
    /// stream as `(movie, current block position)` — the interval
    /// policy uses it to find each block's nearest trailing viewer.
    pub fn insert(&mut self, key: BlockKey, consumers: &[(MovieId, u64)]) {
        if self.capacity == 0 {
            return;
        }
        if self.resident.contains_key(&key) {
            self.touch(key);
            return;
        }
        self.tick += 1;
        while self.resident.len() >= self.capacity {
            let Some(victim) = self.pick_victim(consumers) else {
                // Every candidate is pinned: refuse the insert rather
                // than break a merge group's cache span. The block is
                // still delivered, just not retained.
                self.stats.pin_refusals += 1;
                return;
            };
            self.remove(victim);
            self.stats.evictions += 1;
        }
        self.resident.insert(key, self.tick);
        self.by_touch.insert(self.tick, key);
        self.by_movie
            .entry(key.movie)
            .or_default()
            .insert(key.index);
        self.stats.insertions += 1;
    }

    fn remove(&mut self, key: BlockKey) {
        if let Some(touch) = self.resident.remove(&key) {
            self.by_touch.remove(&touch);
            if let Some(set) = self.by_movie.get_mut(&key.movie) {
                set.remove(&key.index);
                if set.is_empty() {
                    self.by_movie.remove(&key.movie);
                }
            }
        }
    }

    /// Victim candidates of the interval policy: within each
    /// consumer-to-consumer interval of a movie, the farthest-from-
    /// reuse resident block is the interval's *largest* index, so one
    /// `range(..)` probe per interval covers every resident block
    /// without a scan. Unreachable regions (blocks behind the
    /// trailing consumer, movies with no viewer) surface their
    /// largest index too: all their blocks are equally reuse-free,
    /// and a hypothetical future viewer restarts at block 0, so the
    /// highest block is the least valuable of the class.
    fn interval_candidates(&self, consumers: &[(MovieId, u64)]) -> Vec<(u64, u64, BlockKey)> {
        let mut positions: HashMap<MovieId, Vec<u64>> = HashMap::new();
        for (movie, pos) in consumers {
            positions.entry(*movie).or_default().push(*pos);
        }
        for p in positions.values_mut() {
            p.sort_unstable();
            p.dedup();
        }
        let mut candidates = Vec::new();
        let mut push = |movie: MovieId, index: u64, distance: u64, touch: u64| {
            candidates.push((distance, touch, BlockKey { movie, index }));
        };
        for (movie, set) in &self.by_movie {
            let Some(ps) = positions.get(movie) else {
                // No viewer in this movie at all: every block is
                // unreachable; its largest index stands for the class.
                if let Some(&index) = set.last() {
                    let touch = self.resident[&BlockKey {
                        movie: *movie,
                        index,
                    }];
                    push(*movie, index, u64::MAX, touch);
                }
                continue;
            };
            // Blocks strictly below the trailing consumer: unreachable.
            if let Some(&index) = set.range(..ps[0]).next_back() {
                let touch = self.resident[&BlockKey {
                    movie: *movie,
                    index,
                }];
                push(*movie, index, u64::MAX, touch);
            }
            // One candidate per consumer interval [p_i, p_{i+1}).
            for (i, &p) in ps.iter().enumerate() {
                let found = match ps.get(i + 1) {
                    Some(&next) => set.range(p..next).next_back(),
                    None => set.range(p..).next_back(),
                };
                if let Some(&index) = found {
                    let touch = self.resident[&BlockKey {
                        movie: *movie,
                        index,
                    }];
                    push(*movie, index, index - p, touch);
                }
            }
        }
        candidates
    }

    fn pick_victim(&self, consumers: &[(MovieId, u64)]) -> Option<BlockKey> {
        let victim = match self.policy {
            CachePolicy::Lru => self
                .by_touch
                .values()
                .find(|k| !self.is_pinned(**k))
                .copied(),
            CachePolicy::Interval => {
                // Farthest-reuse candidate first; unreachable regions
                // are farthest of all; across candidates, LRU recency
                // breaks ties (older = evicted).
                self.interval_candidates(consumers)
                    .into_iter()
                    .filter(|&(_, _, key)| !self.is_pinned(key))
                    .max_by_key(|&(distance, touch, _)| (distance, u64::MAX - touch))
                    .map(|(_, _, key)| key)
            }
        };
        // Interval candidates are one per consumer interval; if each
        // interval's representative happens to be pinned there may
        // still be an unpinned resident — fall back to recency order.
        victim.or_else(|| {
            self.by_touch
                .values()
                .find(|k| !self.is_pinned(**k))
                .copied()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(movie: u32, index: u64) -> BlockKey {
        BlockKey {
            movie: MovieId(movie),
            index,
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = BufferCache::new(2, CachePolicy::Lru);
        c.insert(key(1, 0), &[]);
        c.insert(key(1, 1), &[]);
        assert!(c.lookup(key(1, 0))); // refresh block 0
        c.insert(key(1, 2), &[]); // evicts block 1
        assert!(c.lookup(key(1, 0)));
        assert!(!c.lookup(key(1, 1)));
        assert!(c.lookup(key(1, 2)));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn interval_protects_blocks_ahead_of_followers() {
        let mut c = BufferCache::new(2, CachePolicy::Interval);
        // A follower sits at block 4 of movie 1.
        let consumers = [(MovieId(1), 4u64)];
        c.insert(key(1, 5), &consumers); // 1 ahead of the follower
        c.insert(key(1, 90), &consumers); // 86 ahead — farthest reuse
        c.insert(key(1, 6), &consumers); // evicts 90, not 5
        assert!(c.lookup(key(1, 5)));
        assert!(c.lookup(key(1, 6)));
        assert!(!c.lookup(key(1, 90)));
    }

    #[test]
    fn interval_evicts_unreachable_blocks_first() {
        let mut c = BufferCache::new(2, CachePolicy::Interval);
        let consumers = [(MovieId(1), 10u64)];
        c.insert(key(1, 3), &consumers); // behind the only viewer: unreachable
        c.insert(key(1, 11), &consumers);
        c.insert(key(1, 12), &consumers); // evicts 3
        assert!(!c.lookup(key(1, 3)));
        assert!(c.lookup(key(1, 11)));
        assert!(c.lookup(key(1, 12)));
    }

    #[test]
    fn interval_evicts_movies_without_viewers_first() {
        let mut c = BufferCache::new(2, CachePolicy::Interval);
        let consumers = [(MovieId(1), 0u64)];
        c.insert(key(2, 0), &consumers); // nobody watches movie 2
        c.insert(key(1, 1), &consumers);
        c.insert(key(1, 2), &consumers); // evicts movie 2's block
        assert!(!c.lookup(key(2, 0)));
        assert!(c.lookup(key(1, 1)));
        assert!(c.lookup(key(1, 2)));
    }

    #[test]
    fn interval_two_viewers_partition_the_movie() {
        let mut c = BufferCache::new(3, CachePolicy::Interval);
        // Viewers at 0 and 50; block 95 is 45 past the leading viewer
        // while 20 is only 20 past the trailing one.
        let consumers = [(MovieId(1), 0u64), (MovieId(1), 50u64)];
        c.insert(key(1, 20), &consumers);
        c.insert(key(1, 95), &consumers);
        c.insert(key(1, 51), &consumers);
        c.insert(key(1, 1), &consumers); // evicts 95 (farthest reuse)
        assert!(!c.lookup(key(1, 95)));
        assert!(c.lookup(key(1, 20)));
        assert!(c.lookup(key(1, 51)));
        assert!(c.lookup(key(1, 1)));
    }

    #[test]
    fn indexes_stay_consistent_under_churn() {
        let mut c = BufferCache::new(16, CachePolicy::Interval);
        let consumers: Vec<(MovieId, u64)> =
            (0..4).map(|m| (MovieId(m), u64::from(m) * 7)).collect();
        for i in 0..500u64 {
            c.insert(key((i % 5) as u32, i % 61), &consumers);
            c.lookup(key((i % 3) as u32, i % 17));
        }
        assert!(c.len() <= 16);
        assert_eq!(c.by_touch.len(), c.resident.len());
        let indexed: usize = c.by_movie.values().map(BTreeSet::len).sum();
        assert_eq!(indexed, c.resident.len());
        assert_eq!(
            c.stats.insertions,
            c.stats.evictions + c.resident.len() as u64
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = BufferCache::new(4, CachePolicy::Lru);
        c.insert(key(1, 0), &[]);
        assert!(c.lookup(key(1, 0)));
        assert!(!c.lookup(key(1, 1)));
        assert_eq!((c.stats.hits, c.stats.misses), (1, 1));
    }

    #[test]
    fn pinned_blocks_survive_eviction_pressure() {
        let mut c = BufferCache::new(2, CachePolicy::Lru);
        c.insert(key(1, 0), &[]);
        c.insert(key(1, 1), &[]);
        c.set_pinned(&[(MovieId(1), 0, 0)]);
        c.insert(key(1, 2), &[]); // must evict block 1, not pinned block 0
        assert!(c.lookup(key(1, 0)));
        assert!(!c.lookup(key(1, 1)));
        assert!(c.lookup(key(1, 2)));
        assert_eq!(c.pinned_block_count(), 1);
    }

    #[test]
    fn insert_refused_when_everything_pinned() {
        let mut c = BufferCache::new(2, CachePolicy::Interval);
        c.insert(key(1, 0), &[]);
        c.insert(key(1, 1), &[]);
        c.set_pinned(&[(MovieId(1), 0, 1)]);
        c.insert(key(1, 50), &[]); // nowhere to evict: refused
        assert!(!c.lookup(key(1, 50)));
        assert!(c.lookup(key(1, 0)));
        assert!(c.lookup(key(1, 1)));
        assert_eq!(c.stats.pin_refusals, 1);
        assert!(c.len() <= 2);
        // Unpinning restores normal replacement.
        c.set_pinned(&[]);
        c.insert(key(1, 50), &[]);
        assert!(c.lookup(key(1, 50)));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = BufferCache::new(0, CachePolicy::Lru);
        c.insert(key(1, 0), &[]);
        assert!(!c.lookup(key(1, 0)));
        assert!(c.is_empty());
    }
}
