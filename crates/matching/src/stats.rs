//! Matching-cost instrumentation.

use std::fmt;
use std::ops::AddAssign;

/// Counters describing the cost of one or more matching operations.
///
/// The paper's Chart 2 measures **matching steps**, "the visitation of a
/// single node in the matching tree"; [`MatchStats::steps`] counts exactly
/// that for the [`Pst`](crate::Pst). For the baseline matchers, a step is
/// the closest analogue: one predicate evaluation for the naive matcher, one
/// candidate examination for the gating matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// Nodes visited (PST) or candidates examined (baselines).
    pub steps: u64,
    /// Leaves reached whose subscriptions were all reported as matches.
    pub leaf_hits: u64,
    /// Individual attribute-test evaluations.
    pub comparisons: u64,
    /// Nodes the [`Pst`](crate::Pst)'s own walk did not enter because
    /// trivial test elimination (§2.1.2) jumped over them: the `*`-only
    /// nodes a skip pointer passes, and the `*` levels of a tail's chain.
    /// Each would have cost one step and one comparison (the equality
    /// lookup; it has no range edge), so `steps + skipped` and
    /// `comparisons + skipped` are what the same walk costs without
    /// elimination. The link-matching walk does not count it.
    pub skipped: u64,
    /// Events matched (operations counted into this accumulator).
    pub events: u64,
    /// Match-result cache hits (event answered without a tree walk).
    pub cache_hits: u64,
    /// Match-result cache misses (walk ran, result memoized).
    pub cache_misses: u64,
    /// Whole-cache invalidations caused by a subscription-set generation
    /// change (add/remove/re-annotation).
    pub cache_invalidations: u64,
}

impl MatchStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average steps per matched event; zero if no events were counted.
    pub fn steps_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.steps as f64 / self.events as f64
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl AddAssign for MatchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.steps += rhs.steps;
        self.leaf_hits += rhs.leaf_hits;
        self.comparisons += rhs.comparisons;
        self.skipped += rhs.skipped;
        self.events += rhs.events;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.cache_invalidations += rhs.cache_invalidations;
    }
}

impl fmt::Display for MatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps, {} comparisons, {} skipped, {} leaf hits over {} events \
             ({} cache hits, {} cache misses, {} cache invalidations)",
            self.steps,
            self.comparisons,
            self.skipped,
            self.leaf_hits,
            self.events,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut a = MatchStats::new();
        a += MatchStats {
            steps: 3,
            leaf_hits: 1,
            comparisons: 5,
            skipped: 4,
            events: 1,
            cache_hits: 1,
            cache_misses: 2,
            cache_invalidations: 0,
        };
        a += MatchStats {
            steps: 5,
            leaf_hits: 0,
            comparisons: 2,
            skipped: 1,
            events: 1,
            cache_hits: 2,
            cache_misses: 1,
            cache_invalidations: 1,
        };
        assert_eq!(a.steps, 8);
        assert_eq!(a.skipped, 5);
        assert_eq!(a.events, 2);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 3);
        assert_eq!(a.cache_invalidations, 1);
        assert!((a.steps_per_event() - 4.0).abs() < f64::EPSILON);
        a.reset();
        assert_eq!(a, MatchStats::new());
        assert_eq!(a.steps_per_event(), 0.0);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = MatchStats {
            steps: 1,
            leaf_hits: 2,
            comparisons: 3,
            events: 4,
            cache_hits: 5,
            cache_misses: 6,
            cache_invalidations: 7,
            skipped: 8,
        };
        let text = s.to_string();
        for needle in [
            "1 steps",
            "2 leaf hits",
            "3 comparisons",
            "4 events",
            "5 cache hits",
            "6 cache misses",
            "7 cache invalidations",
            "8 skipped",
        ] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
