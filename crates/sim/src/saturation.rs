//! Saturation-rate search: the measurement behind Chart 1.

use linkcast_workload::EventGenerator;

use crate::{publications, Publisher, SimConfig, Simulation};

/// Finds the saturation publish rate by bisection: the highest aggregate
/// rate (events/second, within `rel_tolerance`) at which no broker's
/// input queue grows past [`OVERLOAD_BACKLOG`](crate::OVERLOAD_BACKLOG).
///
/// Every probe runs on `sim`'s cluster, its subscriptions installed once,
/// and drains before the next. The cores adapt their attribute order as
/// they walk (after 256 events each), so the first probe may see the
/// insertion order where later ones see the adapted one.
///
/// `lo` must be sustainable and `hi` unsustainable — the function widens
/// `hi` (doubling, up to 16×) if the initial `hi` turns out sustainable,
/// and returns `lo` immediately if even `lo` overloads.
pub fn find_saturation_rate(
    sim: &mut Simulation,
    publishers: &[Publisher],
    generator: &EventGenerator,
    base: &SimConfig,
    mut lo: f64,
    mut hi: f64,
    rel_tolerance: f64,
) -> f64 {
    let mut overloaded = |rate: f64| -> bool {
        let config = base.clone().with_rate(rate);
        let schedule = publications(publishers, generator, &config);
        sim.run(&schedule, &config).is_overloaded()
    };
    if overloaded(lo) {
        return lo;
    }
    let mut widen = 0;
    while !overloaded(hi) {
        lo = hi;
        hi *= 2.0;
        widen += 1;
        if widen >= 4 {
            // Even 16× the suggested ceiling is sustainable; report it.
            return lo;
        }
    }
    while (hi - lo) / lo > rel_tolerance {
        let mid = (lo + hi) / 2.0;
        if overloaded(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast::{NetworkBuilder, RoutingFabric};
    use linkcast_types::{BrokerId, Predicate};
    use linkcast_workload::WorkloadConfig;

    #[test]
    fn saturation_is_bracketed_and_monotone_in_cost() {
        // Two brokers, one subscriber interested in everything: every event
        // costs one broker-to-broker hop and one delivery.
        let mut b = NetworkBuilder::new();
        let brokers = b.add_brokers(2);
        b.connect(brokers[0], brokers[1], 5.0).unwrap();
        b.add_client(brokers[0]).unwrap();
        let client = b.add_client(brokers[1]).unwrap();
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();

        let mut wconfig = WorkloadConfig::chart1();
        wconfig.attributes = 3;
        wconfig.values_per_attribute = 3;
        wconfig.factoring_levels = 0;
        let schema = wconfig.schema();
        let subscriptions = [(client, Predicate::match_all(&schema))];
        let mut sim = Simulation::link_matching(fabric, &schema, &subscriptions).unwrap();
        let generator = EventGenerator::new(&wconfig, 1);
        let publishers = [Publisher {
            broker: BrokerId::new(0),
            region: 0,
        }];
        let base = SimConfig::default().with_events(300);
        let rate = find_saturation_rate(
            &mut sim,
            &publishers,
            &generator,
            &base,
            50.0,
            100_000.0,
            0.1,
        );
        // Service time is roughly base + steps + one send ≈ 100 µs, so the
        // saturation rate should be in the thousands per second.
        assert!(rate > 1_000.0, "rate {rate}");
        assert!(rate < 50_000.0, "rate {rate}");
    }
}
