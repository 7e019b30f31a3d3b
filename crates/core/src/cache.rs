//! Generation-invalidated match-result memoization.
//!
//! Real event streams repeat content: the same issue trades at the same
//! price band all day, and every repetition walks the same PST paths to the
//! same link set. The [`MatchCache`] memoizes (spanning tree, *tested*
//! event values) → link set, so repeated content costs one hash and an
//! equality probe instead of a tree walk.
//!
//! Two properties make this sound:
//!
//! - **Keys cover exactly the tested attributes.** The walk's branching
//!   can only depend on the factored attributes plus attributes some live
//!   subscription constrains
//!   ([`LinkMatchEngine::tested_attributes`](crate::LinkMatchEngine::tested_attributes));
//!   star-only attributes cannot change the result. Keying on *all*
//!   attributes would be equally sound but would shatter the hit rate —
//!   two events differing only in an untested attribute must share an
//!   entry. Keying on *fewer* would be unsound.
//! - **Generation invalidation.** The owning engine bumps a generation
//!   counter on every subscription add/remove/re-annotation. A lookup
//!   under a different generation flushes the whole cache before probing,
//!   so a stale hit is impossible by construction — there is no window
//!   where an entry computed under an old subscription set can answer a
//!   query, and the tested-attribute set (which changes with the
//!   subscription set) is always consulted at the current generation.
//!
//! Stored keys are the exact value sequences, not just their hashes: a
//! 64-bit fingerprint collision must degrade to a miss, never misroute an
//! event. The cache is bounded; at capacity it flushes wholesale (the
//! steady state that matters — a hot working set smaller than the cap —
//! never reaches the bound, and flush keeps the structure allocation-light
//! compared to per-entry eviction bookkeeping).
//!
//! Ownership: one cache per broker, a plain field of its engine loop beside
//! the scratch pool — no locks.

// Probed once per event, on the broker's engine thread: the shipped code
// neither unwraps nor indexes nor panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use linkcast_matching::MatchStats;
use linkcast_types::{Event, LinkId, Value};

use crate::TreeId;

/// A bounded memo of (schema, spanning tree, tested event values) → links.
#[derive(Debug, Clone)]
pub struct MatchCache {
    /// Maximum resident entries; `0` disables the cache entirely.
    cap: usize,
    /// Engine generation the resident entries were computed under.
    generation: u64,
    /// Resident entry count (buckets hold few entries each).
    len: usize,
    /// Fingerprint → colliding entries, compared exactly on probe.
    buckets: HashMap<u64, Vec<CacheEntry>>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    schema: usize,
    tree: TreeId,
    /// The event's values at the tested attributes, in sorted-attribute
    /// order — the exact key, so fingerprint collisions stay misses.
    values: Box<[Value]>,
    links: Vec<LinkId>,
}

impl MatchCache {
    /// A cache bounded to `cap` entries; `cap == 0` disables it.
    pub fn new(cap: usize) -> Self {
        MatchCache {
            cap,
            generation: 0,
            len: 0,
            buckets: HashMap::new(),
        }
    }

    /// Whether the cache participates at all.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probes for `event`'s memoized link set. `generation` is the owning
    /// engine's current generation: a mismatch flushes everything first
    /// (counted once into `stats.cache_invalidations` when entries were
    /// dropped), making stale hits impossible. Counts a hit or a miss.
    pub fn lookup(
        &mut self,
        generation: u64,
        schema: usize,
        tree: TreeId,
        event: &Event,
        tested: &[usize],
        stats: &mut MatchStats,
    ) -> Option<&[LinkId]> {
        if !self.enabled() {
            return None;
        }
        self.sync_generation(generation, stats);
        let fp = fingerprint(schema, tree, event, tested);
        let values = event.values();
        let entry = self.buckets.get(&fp).and_then(|bucket| {
            bucket.iter().find(|e| {
                e.schema == schema && e.tree == tree && key_matches(&e.values, values, tested)
            })
        });
        match entry {
            Some(e) => {
                stats.cache_hits += 1;
                Some(&e.links)
            }
            None => {
                stats.cache_misses += 1;
                None
            }
        }
    }

    /// Memoizes a freshly computed link set. Clones the tested values once
    /// (the only allocation the cache performs per new key). At capacity
    /// the cache flushes wholesale before admitting the entry.
    pub fn insert(
        &mut self,
        generation: u64,
        schema: usize,
        tree: TreeId,
        event: &Event,
        tested: &[usize],
        links: &[LinkId],
    ) {
        if !self.enabled() {
            return;
        }
        if self.generation != generation {
            self.buckets.clear();
            self.len = 0;
            self.generation = generation;
        }
        if self.len >= self.cap {
            self.buckets.clear();
            self.len = 0;
        }
        let fp = fingerprint(schema, tree, event, tested);
        let values = event.values();
        let key: Box<[Value]> = tested
            .iter()
            .filter_map(|&attr| values.get(attr).cloned())
            .collect();
        self.buckets.entry(fp).or_default().push(CacheEntry {
            schema,
            tree,
            values: key,
            links: links.to_vec(),
        });
        self.len += 1;
    }

    /// Adopts `generation`, flushing stale entries (and counting the flush)
    /// if the resident ones were computed under an older subscription set.
    fn sync_generation(&mut self, generation: u64, stats: &mut MatchStats) {
        if self.generation == generation {
            return;
        }
        if self.len > 0 {
            stats.cache_invalidations += 1;
        }
        self.buckets.clear();
        self.len = 0;
        self.generation = generation;
    }
}

/// Whether a stored key equals the event's tested values, element-wise.
fn key_matches(key: &[Value], values: &[Value], tested: &[usize]) -> bool {
    key.len() == tested.len()
        && key
            .iter()
            .zip(tested)
            .all(|(k, &attr)| values.get(attr) == Some(k))
}

/// Hashes the borrowed tested values (plus schema and tree) without
/// building an owned key. Owned keys hash element-wise the same way, so
/// probe and insert agree.
fn fingerprint(schema: usize, tree: TreeId, event: &Event, tested: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    schema.hash(&mut h);
    tree.index().hash(&mut h);
    let values = event.values();
    for &attr in tested {
        values.get(attr).hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> linkcast_types::EventSchema {
        linkcast_types::EventSchema::builder("cache")
            .attribute("a", linkcast_types::ValueKind::Int)
            .attribute("b", linkcast_types::ValueKind::Int)
            .build()
            .unwrap()
    }

    fn event(a: i64, b: i64) -> Event {
        Event::from_values(&schema(), [Value::Int(a), Value::Int(b)]).unwrap()
    }

    fn tree() -> TreeId {
        TreeId::from_index(0)
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let mut cache = MatchCache::new(8);
        let mut stats = MatchStats::new();
        let tested = [0usize];
        let links = vec![LinkId::new(3)];
        assert!(cache
            .lookup(1, 0, tree(), &event(7, 0), &tested, &mut stats)
            .is_none());
        cache.insert(1, 0, tree(), &event(7, 0), &tested, &links);
        // Same tested value, different untested value: must hit.
        let hit = cache
            .lookup(1, 0, tree(), &event(7, 99), &tested, &mut stats)
            .map(<[LinkId]>::to_vec);
        assert_eq!(hit, Some(links));
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_invalidations, 0);
    }

    #[test]
    fn generation_change_flushes_and_counts() {
        let mut cache = MatchCache::new(8);
        let mut stats = MatchStats::new();
        let tested = [0usize, 1usize];
        cache.insert(1, 0, tree(), &event(1, 2), &tested, &[LinkId::new(0)]);
        assert_eq!(cache.len(), 1);
        assert!(cache
            .lookup(2, 0, tree(), &event(1, 2), &tested, &mut stats)
            .is_none());
        assert_eq!(stats.cache_invalidations, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!(cache.is_empty());
        // Adopting the same generation again does not count another flush.
        assert!(cache
            .lookup(2, 0, tree(), &event(1, 2), &tested, &mut stats)
            .is_none());
        assert_eq!(stats.cache_invalidations, 1);
    }

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        let mut cache = MatchCache::new(0);
        let mut stats = MatchStats::new();
        cache.insert(1, 0, tree(), &event(1, 2), &[0], &[LinkId::new(0)]);
        assert!(cache
            .lookup(1, 0, tree(), &event(1, 2), &[0], &mut stats)
            .is_none());
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert!(!cache.enabled());
    }

    #[test]
    fn capacity_flushes_wholesale() {
        let mut cache = MatchCache::new(2);
        let mut stats = MatchStats::new();
        let tested = [0usize];
        for a in 0..3 {
            cache.insert(1, 0, tree(), &event(a, 0), &tested, &[LinkId::new(0)]);
        }
        // Third insert flushed the first two; only it remains.
        assert_eq!(cache.len(), 1);
        assert!(cache
            .lookup(1, 0, tree(), &event(2, 0), &tested, &mut stats)
            .is_some());
        assert!(cache
            .lookup(1, 0, tree(), &event(0, 0), &tested, &mut stats)
            .is_none());
    }

    #[test]
    fn distinct_schema_or_tree_do_not_collide() {
        let mut cache = MatchCache::new(8);
        let mut stats = MatchStats::new();
        let tested = [0usize];
        cache.insert(1, 0, tree(), &event(5, 0), &tested, &[LinkId::new(1)]);
        assert!(cache
            .lookup(1, 1, tree(), &event(5, 0), &tested, &mut stats)
            .is_none());
        assert!(cache
            .lookup(
                1,
                0,
                TreeId::from_index(1),
                &event(5, 0),
                &tested,
                &mut stats
            )
            .is_none());
    }
}
