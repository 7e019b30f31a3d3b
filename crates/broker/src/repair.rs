//! Topology-repair link-state table.
//!
//! When a broker-broker link is declared dead (redial escalation past
//! [`BrokerConfig::repair_after`](crate::BrokerConfig::repair_after)), the
//! detecting broker floods a `LinkDown` statement;
//! when the link proves live again (a `Hello` arrives over it), a
//! `LinkUp` statement floods. Every broker folds the statements it has
//! seen into this table, rebuilds its spanning forest over the surviving
//! graph, and derives the **topology epoch** from the table. `Forward`
//! frames carry the sender's epoch; receivers drop frames whose epoch
//! differs from their own (without acking, so the sender's next flip
//! re-homes them — see `DESIGN.md` §15 for the no-loss argument).
//!
//! # Statement ordering
//!
//! Each edge carries a scalar state `s = 2·ver + down` where `ver` is a
//! per-edge version counter and `down` the current direction of the
//! statement. A statement **applies** iff its scalar is strictly greater
//! than the stored one — so at equal version a `LinkDown` beats a
//! `LinkUp`, giving every broker the same deterministic winner when both
//! endpoints originate conflicting statements concurrently. Applied
//! statements re-flood; rejected ones are already known and stop.
//!
//! # Epoch convergence
//!
//! The epoch is the **sum** of the per-edge scalars. Because a statement
//! applies only when it strictly raises its edge's scalar, two tables
//! where one dominates the other pointwise have equal sums only if they
//! are equal — and FIFO link ordering (statements flood before any frame
//! stitched under them) guarantees a receiver's table dominates the
//! sender's at frame-processing time. Equal epochs therefore imply
//! identical tables, hence identical forests: a frame is only ever
//! routed under the exact tree its sender stitched it for.

use std::collections::BTreeMap;

use linkcast_types::BrokerId;

/// Normalizes an undirected edge to `(min, max)` endpoint order, the
/// canonical key used in link-state statements and table entries.
pub(crate) fn normalize_edge(a: BrokerId, b: BrokerId) -> (BrokerId, BrokerId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One link-state statement as carried by `LinkDown` / `LinkUp` frames
/// and replayed by the reconnect resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkStatement {
    /// Lower-numbered endpoint of the edge.
    pub a: BrokerId,
    /// Higher-numbered endpoint of the edge.
    pub b: BrokerId,
    /// Per-edge version counter of the statement.
    pub ver: u64,
    /// Whether the statement declares the edge dead.
    pub down: bool,
}

/// The flooded link-state table: per-edge scalar `s = 2·ver + down`.
///
/// A [`BTreeMap`] keeps [`statements`](Self::statements) in a
/// deterministic edge order so reconnect resyncs are reproducible under
/// the deterministic cluster harness.
#[derive(Debug, Default, Clone)]
pub(crate) struct LinkStateTable {
    edges: BTreeMap<(BrokerId, BrokerId), u64>,
}

impl LinkStateTable {
    /// The stored `(ver, down)` for an edge; `(0, false)` when no
    /// statement about it has ever applied.
    pub fn get(&self, a: BrokerId, b: BrokerId) -> (u64, bool) {
        let s = self.edges.get(&normalize_edge(a, b)).copied().unwrap_or(0);
        (s >> 1, s & 1 == 1)
    }

    /// Applies a statement iff it is strictly newer than the stored
    /// state (`2·ver + down` strictly greater), returning whether it
    /// applied. Rejected statements are already known — the caller must
    /// not re-flood them, which is what terminates the flood.
    ///
    /// Versions saturate near `u64::MAX` rather than wrap, so a hostile
    /// peer cannot reset the ordering by overflowing the counter.
    pub fn apply(&mut self, a: BrokerId, b: BrokerId, ver: u64, down: bool) -> bool {
        let s = ver.saturating_mul(2).saturating_add(u64::from(down));
        let cur = self.edges.entry(normalize_edge(a, b)).or_insert(0);
        if s > *cur {
            *cur = s;
            true
        } else {
            false
        }
    }

    /// The topology epoch: sum of the per-edge scalars. Monotone under
    /// [`apply`](Self::apply), and equal across brokers exactly when
    /// their tables are equal (see the module docs).
    pub fn epoch(&self) -> u64 {
        self.edges
            .values()
            .fold(0u64, |acc, &s| acc.saturating_add(s))
    }

    /// The edges currently declared dead, in canonical order — the
    /// exclusion set for the spanning-forest recompute.
    pub fn dead_edges(&self) -> Vec<(BrokerId, BrokerId)> {
        self.edges
            .iter()
            .filter(|&(_, &s)| s & 1 == 1)
            .map(|(&edge, _)| edge)
            .collect()
    }

    /// Every statement with a non-zero version, in canonical edge order,
    /// for replay to a (re)connecting neighbor. A crashed broker reboots
    /// at epoch 0 with an empty table; this resync (sent before any
    /// spool retransmission on the same FIFO link) flips it forward
    /// before it processes replayed frames.
    pub fn statements(&self) -> impl Iterator<Item = LinkStatement> + '_ {
        self.edges.iter().map(|(&(a, b), &s)| LinkStatement {
            a,
            b,
            ver: s >> 1,
            down: s & 1 == 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> BrokerId {
        BrokerId::new(n)
    }

    #[test]
    fn edges_normalize_and_start_up() {
        let t = LinkStateTable::default();
        assert_eq!(t.get(id(3), id(1)), (0, false));
        assert_eq!(t.epoch(), 0);
        assert!(t.dead_edges().is_empty());
        assert_eq!(normalize_edge(id(5), id(2)), (id(2), id(5)));
        assert_eq!(normalize_edge(id(2), id(5)), (id(2), id(5)));
    }

    #[test]
    fn apply_test_is_strictly_monotone() {
        let mut t = LinkStateTable::default();
        assert!(t.apply(id(0), id(1), 1, true));
        // Replays and stale statements reject (flood terminates).
        assert!(!t.apply(id(1), id(0), 1, true));
        assert!(!t.apply(id(0), id(1), 0, true));
        // Same version, up after down: down wins the tie.
        assert!(!t.apply(id(0), id(1), 1, false));
        // Newer version flips it back up.
        assert!(t.apply(id(0), id(1), 2, false));
        assert_eq!(t.get(id(0), id(1)), (2, false));
        // Same version, down beats the stored up.
        assert!(t.apply(id(0), id(1), 2, true));
        assert_eq!(t.get(id(0), id(1)), (2, true));
    }

    #[test]
    fn epoch_sums_edge_scalars_and_converges_regardless_of_order() {
        let mut a = LinkStateTable::default();
        let mut b = LinkStateTable::default();
        let statements = [
            (id(0), id(1), 1, true),
            (id(1), id(2), 1, true),
            (id(0), id(1), 2, false),
        ];
        for &(x, y, v, d) in &statements {
            a.apply(x, y, v, d);
        }
        for &(x, y, v, d) in statements.iter().rev() {
            b.apply(x, y, v, d);
        }
        assert_eq!(a.epoch(), b.epoch());
        // 2*2+0 for edge (0,1) plus 2*1+1 for edge (1,2).
        assert_eq!(a.epoch(), 7);
        assert_eq!(a.dead_edges(), vec![(id(1), id(2))]);
    }

    #[test]
    fn statements_replay_the_whole_table_in_canonical_order() {
        let mut t = LinkStateTable::default();
        t.apply(id(2), id(3), 1, true);
        t.apply(id(0), id(1), 2, false);
        let replay: Vec<LinkStatement> = t.statements().collect();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].a, id(0));
        assert_eq!(replay[0].ver, 2);
        assert!(!replay[0].down);
        assert_eq!(replay[1].a, id(2));
        assert!(replay[1].down);
        // Applying a replayed table onto a fresh one reproduces it.
        let mut fresh = LinkStateTable::default();
        for s in t.statements() {
            fresh.apply(s.a, s.b, s.ver, s.down);
        }
        assert_eq!(fresh.epoch(), t.epoch());
    }
}
