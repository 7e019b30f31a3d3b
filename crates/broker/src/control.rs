//! Control-plane state for subscription churn: the per-broker subscription
//! id allocator and the tombstone set that keeps removed subscriptions
//! from being resurrected by the anti-entropy resync.

use std::collections::{HashMap, HashSet, VecDeque};

use linkcast_types::SubscriptionId;

/// Width of the per-broker counter inside a [`SubscriptionId`] (the low
/// bits; the broker id occupies the bits above).
pub(crate) const SUB_COUNTER_BITS: u32 = 20;
/// Number of subscription ids one broker can have live at once.
pub(crate) const SUB_ID_SPACE: u32 = 1 << SUB_COUNTER_BITS;

/// Allocates the 20-bit per-broker half of subscription ids.
///
/// Fresh ids are preferred; once the counter is exhausted, ids freed by
/// unsubscribes are recycled oldest-first (FIFO recycling maximizes the
/// time between a removal flooding the network and its id reappearing,
/// which keeps stale tombstones from shadowing a recycled id). A broker
/// therefore supports unbounded subscribe/unsubscribe *churn*; only the
/// number of *concurrently live* subscriptions is capped at
/// [`SUB_ID_SPACE`].
#[derive(Debug, Default)]
pub(crate) struct SubIdAllocator {
    /// Next never-used counter value.
    counter: u32,
    /// Freed counter values, oldest first.
    free: VecDeque<u32>,
    /// Mirror of `free` for double-free protection.
    freed: HashSet<u32>,
}

impl SubIdAllocator {
    /// Returns the next counter value, or `None` when every id is live.
    pub(crate) fn allocate(&mut self) -> Option<u32> {
        if self.counter < SUB_ID_SPACE {
            let raw = self.counter;
            self.counter += 1;
            return Some(raw);
        }
        let raw = self.free.pop_front()?;
        self.freed.remove(&raw);
        Some(raw)
    }

    /// Returns a counter value to the pool. Values never handed out and
    /// double frees are ignored.
    pub(crate) fn free(&mut self, raw: u32) {
        if raw >= self.counter || !self.freed.insert(raw) {
            return;
        }
        self.free.push_back(raw);
    }

    /// Marks `raw` as handed out — by this broker in an earlier life, whose
    /// subscription a neighbor's resync has just brought back — so that
    /// [`allocate`](Self::allocate) cannot mint it a second time: the
    /// counter moves past it, and it leaves the free list. The values the
    /// counter skips are neither live nor free; any that were live before
    /// the restart arrive the same way.
    pub(crate) fn reserve(&mut self, raw: u32) {
        if raw >= self.counter {
            self.counter = raw + 1;
        } else if self.freed.remove(&raw) {
            self.free.retain(|freed| *freed != raw);
        }
    }

    /// Checkpoint view for the durable-state snapshot: the never-used
    /// counter and the freed values in recycling (FIFO) order.
    pub(crate) fn checkpoint(&self) -> (u32, Vec<u32>) {
        (self.counter, self.free.iter().copied().collect())
    }

    /// Rebuilds an allocator from a [`SubIdAllocator::checkpoint`].
    pub(crate) fn restore(counter: u32, free: Vec<u32>) -> Self {
        let freed = free.iter().copied().collect();
        SubIdAllocator {
            counter,
            free: free.into(),
            freed,
        }
    }
}

/// A bounded FIFO set of removed subscription ids.
///
/// A `SubRemove` that floods while a broker link is down is lost; on
/// reconnect the `Hello` anti-entropy resync would re-install — and
/// re-flood — the dead subscription. Each broker therefore remembers the
/// last [`TombstoneSet::DEFAULT_CAP`] removals it has seen and filters
/// *resynced* `SubAdd`s against them. Fresh (non-resync) `SubAdd`s instead
/// clear a matching tombstone, so a recycled id is never shadowed by the
/// tombstone of its previous life.
#[derive(Debug)]
pub(crate) struct TombstoneSet {
    /// Live tombstones, each tagged with the generation of its insertion.
    live: HashMap<SubscriptionId, u64>,
    /// Insertion order as `(id, generation)`. An entry whose generation no
    /// longer matches `live` is stale — its tombstone was cleared by
    /// [`TombstoneSet::remove`] (and possibly re-inserted later, under a
    /// newer generation) — and must not evict anything when it surfaces.
    order: VecDeque<(SubscriptionId, u64)>,
    next_gen: u64,
    cap: usize,
}

impl TombstoneSet {
    /// Default retention: enough to cover any realistic resync window while
    /// bounding memory to a few tens of kilobytes.
    pub(crate) const DEFAULT_CAP: usize = 8192;

    pub(crate) fn new(cap: usize) -> Self {
        TombstoneSet {
            live: HashMap::new(),
            order: VecDeque::new(),
            next_gen: 0,
            cap: cap.max(1),
        }
    }

    /// Records a removal. Returns `true` if the id was not already
    /// tombstoned — the caller uses this as flood dedup for removals of
    /// subscriptions it never knew. Evicts the oldest *live* tombstone
    /// beyond the cap; stale order entries are skipped (and purged), so a
    /// cleared-then-re-inserted id can never be evicted by the ghost of
    /// its earlier life.
    pub(crate) fn insert(&mut self, id: SubscriptionId) -> bool {
        if self.live.contains_key(&id) {
            return false;
        }
        self.next_gen += 1;
        self.live.insert(id, self.next_gen);
        self.order.push_back((id, self.next_gen));
        while self.live.len() > self.cap {
            let Some((evicted, generation)) = self.order.pop_front() else {
                break;
            };
            if self.live.get(&evicted) == Some(&generation) {
                self.live.remove(&evicted);
            }
        }
        // Churn of remove()+insert() below the cap accumulates stale order
        // entries without ever reaching the eviction loop; compact before
        // the order queue outgrows the live set by more than the cap.
        if self.order.len() > self.live.len().saturating_add(self.cap) {
            self.order
                .retain(|(id, generation)| self.live.get(id) == Some(generation));
        }
        true
    }

    /// Whether `id` is tombstoned.
    pub(crate) fn contains(&self, id: SubscriptionId) -> bool {
        self.live.contains_key(&id)
    }

    /// Clears a tombstone (a fresh `SubAdd` reuses the id). The entry in
    /// the eviction order goes stale (its generation no longer matches)
    /// and is skipped or compacted away later.
    pub(crate) fn remove(&mut self, id: SubscriptionId) {
        self.live.remove(&id);
    }

    /// Checkpoint view for the durable-state snapshot: live tombstones in
    /// insertion order. Re-`insert`ing these in order into a fresh set
    /// reproduces the same eviction (FIFO) behavior.
    pub(crate) fn checkpoint(&self) -> Vec<SubscriptionId> {
        self.order
            .iter()
            .filter(|(id, generation)| self.live.get(id) == Some(generation))
            .map(|(id, _)| *id)
            .collect()
    }
}

impl Default for TombstoneSet {
    fn default() -> Self {
        TombstoneSet::new(TombstoneSet::DEFAULT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_come_first_and_exhaust() {
        let mut alloc = SubIdAllocator::default();
        assert_eq!(alloc.allocate(), Some(0));
        assert_eq!(alloc.allocate(), Some(1));
        // Nothing freed yet: exhausting the counter exhausts the allocator.
        for expected in 2..SUB_ID_SPACE {
            assert_eq!(alloc.allocate(), Some(expected));
        }
        assert_eq!(alloc.allocate(), None);
    }

    #[test]
    fn churn_past_the_id_space_recycles_fifo() {
        // The pre-fix behavior wedged permanently at SUB_ID_SPACE lifetime
        // subscriptions; recycling must carry allocation well past it.
        let mut alloc = SubIdAllocator::default();
        for raw in 0..SUB_ID_SPACE {
            assert_eq!(alloc.allocate(), Some(raw));
        }
        assert_eq!(alloc.allocate(), None, "counter space exhausted");
        for raw in 0..SUB_ID_SPACE {
            alloc.free(raw);
        }
        // A full second lifetime of the id space, recycled oldest-first.
        for raw in 0..SUB_ID_SPACE {
            assert_eq!(alloc.allocate(), Some(raw));
        }
        assert_eq!(alloc.allocate(), None);
    }

    #[test]
    fn steady_churn_never_wedges() {
        // One live subscription, subscribed/unsubscribed more times than
        // the whole id space.
        let mut alloc = SubIdAllocator::default();
        let mut allocations = 0u64;
        for _ in 0..(SUB_ID_SPACE as u64 + 1000) {
            let raw = alloc.allocate().expect("churn must not exhaust ids");
            allocations += 1;
            alloc.free(raw);
        }
        assert_eq!(allocations, SUB_ID_SPACE as u64 + 1000);
    }

    #[test]
    fn double_free_and_foreign_free_are_ignored() {
        let mut alloc = SubIdAllocator::default();
        let a = alloc.allocate().unwrap();
        alloc.free(a);
        alloc.free(a); // double free
        alloc.free(12345); // never allocated
        for raw in 1..SUB_ID_SPACE {
            assert_eq!(alloc.allocate(), Some(raw));
        }
        // Exactly one recycled id remains, not three.
        assert_eq!(alloc.allocate(), Some(a));
        assert_eq!(alloc.allocate(), None);
    }

    #[test]
    fn reserved_ids_are_never_minted_again() {
        let mut alloc = SubIdAllocator::default();
        // Above the counter: the counter moves past it.
        alloc.reserve(5);
        assert_eq!(alloc.allocate(), Some(6));
        // Below it, live: nothing changes.
        alloc.reserve(5);
        alloc.reserve(6);
        assert_eq!(alloc.checkpoint(), (7, vec![]));
        // A freed value: off the free list, and freeable again later.
        alloc.free(5);
        alloc.free(6);
        alloc.reserve(5);
        assert_eq!(alloc.checkpoint(), (7, vec![6]));
        alloc.free(5);
        assert_eq!(alloc.checkpoint(), (7, vec![6, 5]));
        // The snapshot round-trip is what it was.
        let (counter, free) = alloc.checkpoint();
        let mut restored = SubIdAllocator::restore(counter, free);
        restored.reserve(6);
        alloc.reserve(6);
        assert_eq!(restored.checkpoint(), alloc.checkpoint());
        for _ in 0..4 {
            assert_eq!(restored.allocate(), alloc.allocate());
        }
    }

    #[test]
    fn allocator_checkpoint_restores_identical_behavior() {
        let mut alloc = SubIdAllocator::default();
        for _ in 0..10 {
            alloc.allocate();
        }
        alloc.free(3);
        alloc.free(7);
        alloc.free(1);
        let (counter, free) = alloc.checkpoint();
        let mut restored = SubIdAllocator::restore(counter, free);
        // Both must hand out the same ids in the same order forever.
        for _ in 0..16 {
            assert_eq!(restored.allocate(), alloc.allocate());
        }
        // Double-free protection survives the roundtrip.
        restored.free(3);
        alloc.free(3);
        restored.free(3);
        alloc.free(3);
        assert_eq!(restored.allocate(), alloc.allocate());
        assert_eq!(restored.allocate(), alloc.allocate());
    }

    #[test]
    fn tombstone_checkpoint_is_live_ids_in_insertion_order() {
        let mut t = TombstoneSet::new(8);
        for i in 0..4u32 {
            t.insert(SubscriptionId::new(i));
        }
        t.remove(SubscriptionId::new(1));
        t.insert(SubscriptionId::new(1)); // re-inserted: now newest
        let ids: Vec<u32> = t.checkpoint().iter().map(|id| id.raw()).collect();
        assert_eq!(ids, vec![0, 2, 3, 1]);
    }

    #[test]
    fn tombstones_filter_until_cleared() {
        let mut t = TombstoneSet::new(8);
        let id = SubscriptionId::new(42);
        assert!(t.insert(id), "first removal is new");
        assert!(!t.insert(id), "repeat removal is deduplicated");
        assert!(t.contains(id));
        // A fresh SubAdd for a recycled id clears its tombstone.
        t.remove(id);
        assert!(!t.contains(id));
        assert!(t.insert(id), "post-clear removal is new again");
    }

    #[test]
    fn reinserted_tombstone_survives_its_stale_order_entry() {
        // remove() leaves the id's order entry behind; a later re-insert
        // must not be evicted when that stale entry surfaces, or a resync
        // could resurrect the re-removed subscription.
        let mut t = TombstoneSet::new(4);
        let a = SubscriptionId::new(100);
        assert!(t.insert(a));
        t.remove(a); // order now holds a stale first-generation entry
        assert!(t.insert(a), "re-tombstoned under a new generation");
        for i in 0..3u32 {
            assert!(t.insert(SubscriptionId::new(i)));
        }
        // Exactly at cap (4 live): nothing may be evicted — in particular
        // the stale entry must not count toward the cap or evict `a`.
        assert!(t.contains(a), "live tombstone evicted via its stale entry");
        // One past the cap: the stale entry surfaces first and is skipped;
        // `a`'s live entry is the oldest live tombstone and goes next.
        assert!(t.insert(SubscriptionId::new(3)));
        assert!(!t.contains(a));
        for i in 0..4u32 {
            assert!(t.contains(SubscriptionId::new(i)), "{i} retained");
        }
    }

    #[test]
    fn sub_cap_churn_keeps_order_bounded() {
        // remove()+insert() churn below the cap never reaches the eviction
        // loop; the periodic compaction must still bound the order queue.
        let cap = 8;
        let mut t = TombstoneSet::new(cap);
        let id = SubscriptionId::new(7);
        for _ in 0..10_000 {
            assert!(t.insert(id));
            t.remove(id);
        }
        assert!(
            t.order.len() <= t.live.len() + cap + 1,
            "order queue grew unbounded: {}",
            t.order.len()
        );
    }

    #[test]
    fn tombstones_are_bounded_fifo() {
        let mut t = TombstoneSet::new(4);
        for i in 0..10u32 {
            assert!(t.insert(SubscriptionId::new(i)));
        }
        // Only the newest 4 survive.
        for i in 0..6u32 {
            assert!(!t.contains(SubscriptionId::new(i)), "{i} evicted");
        }
        for i in 6..10u32 {
            assert!(t.contains(SubscriptionId::new(i)), "{i} retained");
        }
    }
}
