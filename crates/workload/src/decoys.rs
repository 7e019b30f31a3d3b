//! The never-matching deep-chain predicates of the broker benchmarks.

/// The `j`-th decoy predicate over a schema `issue, volume, a1..a6, ..`:
/// six range tests every published event (`volume >= 0`, `a1..a6 = 1..6`)
/// satisfies — with per-chain-distinct constants, so no two chains share a
/// node below `volume` — and a seventh none does. The schema-order PST a
/// broker *starts* in tests `volume` first and `a6` last, so the failing
/// test sits at the deepest level: a node-per-test walk descends the whole
/// chain before it can refine the subscriber's link to No. That is the
/// initial order only — a broker that has walked 256 events through such a
/// table has seen `a6` fail every time and rebuilds with it at the root
/// (DESIGN.md §11.2), after which no chain is entered at all.
pub fn decoy_chain(j: u64) -> String {
    let mut p = format!("volume >= -{j} & ");
    for k in 1..=5u64 {
        p.push_str(&format!("a{k} >= -{} & ", 7 * j + k));
    }
    p.push_str(&format!("a6 >= {}", 100_000 + j));
    p
}
