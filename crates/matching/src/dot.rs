//! Graphviz export of parallel search trees — the debugging view of what
//! the matcher actually built.

use std::fmt::Write as _;

use linkcast_types::{AttrTest, EventSchema, SubscriptionId};

use crate::pst::Pst;

impl Pst {
    /// Renders the tree in Graphviz `dot` syntax. Interior nodes show the
    /// attribute they test; leaves list their subscription ids, tails the
    /// tests of the chain they stand for first; edges are labeled with the
    /// branch test (`*` for don't-care).
    ///
    /// ```
    /// # use linkcast_matching::{Matcher, Pst, PstOptions};
    /// # use linkcast_types::{EventSchema, ValueKind, Value, Predicate,
    /// #     Subscription, SubscriptionId, SubscriberId, BrokerId, ClientId};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let schema = EventSchema::builder("s")
    /// #     .attribute("x", ValueKind::Int)
    /// #     .build()?;
    /// # let mut pst = Pst::new(schema.clone(), PstOptions::default())?;
    /// # pst.insert(Subscription::new(
    /// #     SubscriptionId::new(0),
    /// #     SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
    /// #     Predicate::builder(&schema).eq("x", Value::Int(1))?.build(),
    /// # ))?;
    /// let dot = pst.to_dot();
    /// assert!(dot.starts_with("digraph pst {"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph pst {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
        for (key, root) in self.roots() {
            if !key.is_empty() {
                let label: Vec<String> = key.iter().map(ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "  \"factor_{root}\" [shape=invhouse, label=\"[{}]\"];",
                    label.join(", ")
                );
                let _ = writeln!(out, "  \"factor_{root}\" -> \"{root}\";");
            }
        }
        for id in self.postorder() {
            let node = self.node(id);
            if node.is_leaf() {
                let _ = writeln!(
                    out,
                    "  \"{id}\" [shape=box, label=\"{}\"];",
                    escape(&leaf_label(
                        self.schema(),
                        node.residual(),
                        node.subscription_ids()
                    ))
                );
                continue;
            }
            let attr = node.attribute().expect("interior nodes test an attribute");
            let name = self
                .schema()
                .attribute(attr)
                .map(|a| a.name().to_string())
                .unwrap_or_else(|| format!("a{attr}"));
            let _ = writeln!(out, "  \"{id}\" [shape=ellipse, label=\"{name}?\"];");
            for (value, child) in node.eq_edges() {
                let _ = writeln!(
                    out,
                    "  \"{id}\" -> \"{child}\" [label=\"= {}\"];",
                    escape(&value.to_string())
                );
            }
            for (test, child) in node.range_edges() {
                let _ = writeln!(
                    out,
                    "  \"{id}\" -> \"{child}\" [label=\"{}\"];",
                    escape(&test.display_with(""))
                );
            }
            if let Some(star) = node.star() {
                let _ = writeln!(out, "  \"{id}\" -> \"{star}\" [label=\"*\", style=dashed];");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// What a leaf or tail box shows: the non-`*` tests of the tail's chain,
/// if any, then the parked subscriptions.
fn leaf_label<'a>(
    schema: &EventSchema,
    chain: impl Iterator<Item = (usize, &'a AttrTest)>,
    subs: &[SubscriptionId],
) -> String {
    let tests: Vec<String> = chain
        .filter(|(_, test)| !test.is_wildcard())
        .map(|(attr, test)| test.display_with(schema.attribute(attr).map_or("?", |a| a.name())))
        .collect();
    let subs: Vec<String> = subs.iter().map(ToString::to_string).collect();
    if tests.is_empty() {
        subs.join(", ")
    } else {
        format!("{}: {}", tests.join(" & "), subs.join(", "))
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matcher, PstOptions};
    use linkcast_types::{
        BrokerId, ClientId, EventSchema, Predicate, SubscriberId, Subscription, SubscriptionId,
        Value, ValueKind,
    };

    fn sample() -> Pst {
        let schema = EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap();
        let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
        pst.insert(Subscription::new(
            SubscriptionId::new(0),
            SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
            Predicate::builder(&schema)
                .eq("issue", Value::str("IBM"))
                .unwrap()
                .gt("volume", Value::Int(100))
                .unwrap()
                .build(),
        ))
        .unwrap();
        pst.insert(Subscription::new(
            SubscriptionId::new(1),
            SubscriberId::new(BrokerId::new(0), ClientId::new(1)),
            Predicate::builder(&schema)
                .eq("issue", Value::str("IBM"))
                .unwrap()
                .build(),
        ))
        .unwrap();
        pst
    }

    #[test]
    fn dot_mentions_structure() {
        let dot = sample().to_dot();
        assert!(dot.starts_with("digraph pst {"), "{dot}");
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("issue?"), "{dot}");
        assert!(dot.contains("volume?"), "{dot}");
        assert!(dot.contains("= \\\"IBM\\\""), "{dot}");
        assert!(dot.contains(" > 100"), "{dot}");
        assert!(dot.contains("style=dashed"), "star edges are dashed: {dot}");
        assert!(dot.contains("sub0"), "{dot}");
        assert!(dot.contains("sub1"), "{dot}");
    }

    #[test]
    fn dot_shows_factor_keys() {
        let schema = EventSchema::builder("s")
            .attribute_with_domain("x", ValueKind::Int, (0..2).map(Value::Int))
            .attribute("y", ValueKind::Int)
            .factored(1)
            .build()
            .unwrap();
        let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
        pst.insert(Subscription::new(
            SubscriptionId::new(0),
            SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
            Predicate::builder(&schema)
                .eq("x", Value::Int(1))
                .unwrap()
                .build(),
        ))
        .unwrap();
        let dot = pst.to_dot();
        assert!(dot.contains("invhouse"), "{dot}");
        assert!(dot.contains("[1]"), "{dot}");
    }
}
