//! Simulation outputs.

use linkcast_types::BrokerId;

/// Per-broker load summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerLoad {
    /// The broker.
    pub broker: BrokerId,
    /// Charged core steps.
    pub processed: u64,
    /// Total time the processor was busy, µs.
    pub busy_us: f64,
    /// Most services queued at once behind the one in progress.
    pub max_queue: usize,
    /// Fraction of the publishing window the processor was busy.
    pub utilization: f64,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Virtual time from the first publication to the last delivery, µs.
    pub duration_us: u64,
    /// Events published.
    pub published: usize,
    /// Client deliveries.
    pub deliveries: u64,
    /// `Forward` frames sent over broker-to-broker links.
    pub broker_messages: u64,
    /// Per delivery: broker hops traveled and publish-to-client latency in
    /// µs.
    pub latencies_us: Vec<(u32, u64)>,
    /// Matching steps summed over every core.
    pub total_steps: u64,
    /// Per-broker loads, indexed by broker.
    pub loads: Vec<BrokerLoad>,
    /// Brokers whose input queue grew past
    /// [`OVERLOAD_BACKLOG`](crate::OVERLOAD_BACKLOG) — "overloaded" in
    /// the paper's sense.
    pub overloaded: Vec<BrokerId>,
    /// Frames carried per directed broker link, as `((from, to), count)`,
    /// sorted by descending count — the paper's "network loading" view.
    pub link_loads: Vec<((BrokerId, BrokerId), u64)>,
}

impl SimReport {
    /// Whether any broker was overloaded.
    pub fn is_overloaded(&self) -> bool {
        !self.overloaded.is_empty()
    }

    /// Mean delivery latency, ms (0 when nothing was delivered).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.latencies_us.iter().map(|(_, l)| *l).sum();
        sum as f64 / self.latencies_us.len() as f64 / 1000.0
    }

    /// Mean delivery latency per broker-hop count, as `(hops, deliveries,
    /// mean ms)`, sorted by hops — the view behind the paper's argument
    /// that link-matching processing time is dwarfed by WAN latency.
    pub fn latency_by_hops(&self) -> Vec<(u32, u64, f64)> {
        let mut acc: std::collections::BTreeMap<u32, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (hops, latency) in &self.latencies_us {
            let entry = acc.entry(*hops).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += latency;
        }
        acc.into_iter()
            .map(|(hops, (n, total))| (hops, n, total as f64 / n as f64 / 1000.0))
            .collect()
    }

    /// A latency percentile in ms (e.g. `0.99`); 0 when nothing was
    /// delivered.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u64> = self.latencies_us.iter().map(|(_, l)| *l).collect();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[rank] as f64 / 1000.0
    }

    /// The highest per-broker utilization.
    pub fn max_utilization(&self) -> f64 {
        self.loads.iter().map(|l| l.utilization).fold(0.0, f64::max)
    }

    /// The busiest directed broker links, most loaded first.
    pub fn hottest_links(&self, n: usize) -> &[((BrokerId, BrokerId), u64)] {
        &self.link_loads[..n.min(self.link_loads.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<(u32, u64)>) -> SimReport {
        SimReport {
            protocol: "test",
            duration_us: 24_000,
            published: 3,
            deliveries: latencies.len() as u64,
            broker_messages: 5,
            latencies_us: latencies,
            total_steps: 7,
            loads: vec![
                BrokerLoad {
                    broker: BrokerId::new(0),
                    processed: 3,
                    busy_us: 100.0,
                    max_queue: 2,
                    utilization: 0.5,
                },
                BrokerLoad {
                    broker: BrokerId::new(1),
                    processed: 3,
                    busy_us: 300.0,
                    max_queue: 9,
                    utilization: 0.9,
                },
            ],
            overloaded: vec![BrokerId::new(1)],
            link_loads: vec![
                ((BrokerId::new(0), BrokerId::new(1)), 9),
                ((BrokerId::new(1), BrokerId::new(0)), 2),
            ],
        }
    }

    #[test]
    fn latency_summaries() {
        let r = report(vec![(0, 1_000), (1, 2_000), (1, 3_000), (2, 10_000)]);
        assert!((r.mean_latency_ms() - 4.0).abs() < 1e-9);
        assert_eq!(r.latency_percentile_ms(0.0), 1.0);
        assert_eq!(r.latency_percentile_ms(1.0), 10.0);
        assert!(r.is_overloaded());
        assert!((r.max_utilization() - 0.9).abs() < 1e-12);
        assert_eq!(
            r.hottest_links(1),
            &[((BrokerId::new(0), BrokerId::new(1)), 9)]
        );
        assert_eq!(r.hottest_links(10).len(), 2);
        assert_eq!(
            r.latency_by_hops(),
            vec![(0, 1, 1.0), (1, 2, 2.5), (2, 1, 10.0)]
        );
    }

    #[test]
    fn empty_latencies_are_zero() {
        let r = report(vec![]);
        assert_eq!(r.mean_latency_ms(), 0.0);
        assert_eq!(r.latency_percentile_ms(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let _ = report(vec![(0, 1)]).latency_percentile_ms(1.5);
    }
}
