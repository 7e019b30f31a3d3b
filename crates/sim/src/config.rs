//! Simulation configuration.

use crate::CostModel;

/// How publishers space their events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Poisson arrivals (the paper's §4.1 default).
    Poisson,
    /// Bursty arrivals (§6 future work): trains of `burst_size` events
    /// `intra_gap_s` apart, idle between trains, same long-run mean rate.
    Bursty {
        /// Events per burst.
        burst_size: u32,
        /// Gap between events inside a burst, seconds.
        intra_gap_s: f64,
    },
}

/// Unfinished services at one core beyond which the broker counts as
/// overloaded — the queue "growing at a rate higher than the broker
/// processor can handle" shows up as depth proportional to the run length,
/// while stable queues stay shallow.
pub const OVERLOAD_BACKLOG: usize = 30;

/// Parameters of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Aggregate publish rate across all publishers, events/second.
    pub publish_rate: f64,
    /// Number of events to publish ("The number of events published is
    /// 500" for Chart 1, 1000 for Chart 2).
    pub events: usize,
    /// What a core step costs (§4.1).
    pub costs: CostModel,
    /// RNG seed for arrival times and event values.
    pub seed: u64,
    /// Arrival process shape.
    pub arrivals: ArrivalKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            publish_rate: 10.0,
            events: 500,
            costs: CostModel {
                base_us: 50.0,
                step_us: 3.0,
                send_us: 20.0,
            },
            seed: 1,
            arrivals: ArrivalKind::Poisson,
        }
    }
}

impl SimConfig {
    /// Sets the aggregate publish rate.
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.publish_rate = rate;
        self
    }

    /// Sets the number of published events.
    #[must_use]
    pub fn with_events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival process shape.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalKind) -> Self {
        self.arrivals = arrivals;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_adds_up() {
        let m = CostModel {
            base_us: 10.0,
            step_us: 2.0,
            send_us: 5.0,
        };
        assert_eq!(m.service_us(0, 0), 10.0);
        assert_eq!(m.service_us(4, 3), 10.0 + 8.0 + 15.0);
    }

    #[test]
    fn builders_set_fields() {
        let c = SimConfig::default()
            .with_rate(123.0)
            .with_events(99)
            .with_seed(7);
        assert_eq!(c.publish_rate, 123.0);
        assert_eq!(c.events, 99);
        assert_eq!(c.seed, 7);
    }
}
