//! Observed-selectivity attribute order (DESIGN.md §11.2): the model an
//! engine prices its own and a proposed test order with.
//!
//! A walk that reaches a level tests its attribute and goes on below only
//! where a test held or the subscription did not care. Per attribute `a`
//! the engine knows `c[a]`, how many of its `n` subscriptions constrain it,
//! and the walks have counted `t[a]` edge tests evaluated and `p[a]`
//! satisfied, so the share of the subscriptions a level lets through —
//! its *survival* — is estimated as
//!
//! ```text
//! s[a] = 1 − (c[a] / n) · (1 − p[a] / t[a])
//! ```
//!
//! (`p/t := 1` below [`EVIDENCE_FLOOR`] tests: no evidence, no claim.) With
//! every level's test priced the same, an order costs what a pipeline of
//! independent filters costs, `Σ_k Π_{i<k} s[order[i]]`: each level is paid
//! for by the share of the work that survived the levels above it. Sorting
//! ascending by `s` minimises that sum (swap any adjacent pair that is out
//! of order and the sum does not grow), ties going to the attribute more
//! subscriptions constrain — the paper's fewest-`*` heuristic — and then to
//! schema order, so with no evidence at all the proposal *is* the paper's.

use crate::arena::WalkEvidence;

/// Walks between an engine's order checks while nothing has left the order
/// alone yet; doubles with every check that does.
pub(crate) const FIRST_CHECK_WALKS: u64 = 256;

/// Edge tests on an attribute below which its pass rate counts as 1.
const EVIDENCE_FLOOR: u64 = 32;

/// A proposed order is built only if the current one costs at least this
/// many times as much.
pub(crate) const REBUILD_GAIN: f64 = 2.0;

/// One tree level's line of an [`OrderReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelReport {
    /// Schema index of the attribute tested at this level.
    pub attribute: usize,
    /// The level: 0 is tested first (factored attributes sit above it and
    /// are not ordered).
    pub position: usize,
    /// Live subscriptions with a test other than `*` on the attribute.
    pub constrained: u64,
    /// Edge tests on the attribute the walks evaluated.
    pub tested: u64,
    /// Those of them that held.
    pub passed: u64,
    /// Estimated share of the subscriptions an event gets past this level.
    pub survival: f64,
}

/// Why an engine's attribute order is what it is: the evidence per level,
/// what the order costs under the pipelined-filter model, and what the
/// best order for that evidence would.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderReport {
    /// The levels in their current order, root first.
    pub levels: Vec<LevelReport>,
    /// The order the evidence asks for (schema indices, root first).
    pub proposed: Vec<usize>,
    /// Modelled cost of the current order.
    pub current_cost: f64,
    /// Modelled cost of `proposed`.
    pub proposed_cost: f64,
    /// Events that walked the tree since the evidence was last cleared.
    pub walks: u64,
    /// Steps those walks took: what a rebuild is judged by afterwards.
    pub steps: u64,
}

impl OrderReport {
    /// Whether the evidence justifies building `proposed`.
    pub fn worth_rebuilding(&self) -> bool {
        let current = self.levels.iter().map(|level| level.attribute);
        !current.eq(self.proposed.iter().copied())
            && self.current_cost >= REBUILD_GAIN * self.proposed_cost
    }
}

/// Prices `order` (the non-factored attributes, root first) and the order
/// the evidence asks for, given the per-attribute constraint counts of
/// `subscriptions` live subscriptions.
pub(crate) fn assess(
    order: &[usize],
    constrained: &[u64],
    subscriptions: usize,
    evidence: &WalkEvidence,
) -> OrderReport {
    let levels: Vec<LevelReport> = order
        .iter()
        .enumerate()
        .map(|(position, &attribute)| {
            let constrained = constrained.get(attribute).copied().unwrap_or(0);
            let (tested, passed) = evidence.tests(attribute);
            let pass_rate = if tested < EVIDENCE_FLOOR {
                1.0
            } else {
                passed as f64 / tested as f64
            };
            let share = if subscriptions == 0 {
                0.0
            } else {
                constrained as f64 / subscriptions as f64
            };
            LevelReport {
                attribute,
                position,
                constrained,
                tested,
                passed,
                survival: 1.0 - share * (1.0 - pass_rate),
            }
        })
        .collect();
    let mut sorted = levels.clone();
    sorted.sort_by(|a, b| {
        (a.survival.total_cmp(&b.survival))
            .then(b.constrained.cmp(&a.constrained))
            .then(a.attribute.cmp(&b.attribute))
    });
    OrderReport {
        current_cost: cost(&levels),
        proposed_cost: cost(&sorted),
        proposed: sorted.iter().map(|level| level.attribute).collect(),
        levels,
        walks: evidence.walks(),
        steps: evidence.steps(),
    }
}

/// `Σ_k Π_{i<k} s[i]` over the levels, root first.
fn cost(levels: &[LevelReport]) -> f64 {
    let mut reaching = 1.0;
    let mut total = 0.0;
    for level in levels {
        total += reaching;
        reaching *= level.survival;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_evidence_proposes_fewest_stars_first() {
        // Attribute 1 is constrained by all, 2 by some, 0 by none.
        let report = assess(&[0, 1, 2], &[0, 9, 4], 9, &WalkEvidence::default());
        assert_eq!(report.proposed, [1, 2, 0]);
        assert_eq!(report.current_cost, 3.0);
        assert_eq!(report.proposed_cost, 3.0);
        assert!(!report.worth_rebuilding(), "equal cost is no reason");
    }

    #[test]
    fn an_empty_engine_keeps_its_order() {
        let report = assess(&[2, 0, 1], &[0, 0, 0], 0, &WalkEvidence::default());
        assert_eq!(report.proposed, [0, 1, 2], "ties fall back to schema order");
        assert!(!report.worth_rebuilding());
    }
}
