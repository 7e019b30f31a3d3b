//! The open loop's send schedule: burst `k` is due at
//! `start + k * B / R` — computed from `k`, never accumulated, so rounding
//! cannot drift — and every event is stamped with its *due* time. A burst
//! sent late is still sent (never skipped) and its lateness recorded, so a
//! stall is charged to the latency of every event it delayed instead of
//! thinning the offered load.

use std::time::{Duration, Instant};

/// Process-wide clock origin; every timestamp in a run is nanoseconds
/// since the first call.
pub fn now_ns() -> i64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as i64
}

/// An absolute burst schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of burst 0, ns.
    pub start_ns: i64,
    /// Offered events per second (`R`).
    pub rate: u64,
    /// Events per burst (`B`).
    pub burst: u64,
}

impl Schedule {
    /// Due time of burst `k`.
    pub fn due_ns(&self, k: u64) -> i64 {
        // k*B events are due by start + k*B/R seconds.
        let offset = (k as u128 * self.burst as u128 * 1_000_000_000) / self.rate as u128;
        self.start_ns + offset as i64
    }

    /// Bursts needed to cover `seconds` of offered load.
    pub fn bursts_in(&self, seconds: f64) -> u64 {
        (seconds * self.rate as f64 / self.burst as f64).round() as u64
    }
}

/// How late the generator ran, per burst.
#[derive(Debug, Default, Clone)]
pub struct Lateness {
    /// `sent - due` per burst, ns; 0 when the burst went out early or on time.
    pub late_ns: Vec<u64>,
}

impl Lateness {
    /// Room for `bursts` samples, so recording never allocates mid-run.
    pub fn with_capacity(bursts: usize) -> Self {
        Lateness {
            late_ns: Vec::with_capacity(bursts),
        }
    }

    /// Records one burst sent at `sent_ns` that was due at `due_ns`.
    pub fn record(&mut self, due_ns: i64, sent_ns: i64) {
        self.late_ns.push((sent_ns - due_ns).max(0) as u64);
    }
}

/// Sleeps until `due_ns` on the [`now_ns`] clock (returns at once when it
/// is already past).
pub fn sleep_until(due_ns: i64) {
    let wait = due_ns - now_ns();
    if wait > 0 {
        std::thread::sleep(Duration::from_nanos(wait as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_absolute_and_drift_free() {
        // R = 600, B = 1: the period (1.666.. ms) is not a whole number of
        // nanoseconds; an accumulated schedule would drift by ~0.67 ns per
        // burst, an absolute one lands every 600th burst on a whole second.
        let s = Schedule {
            start_ns: 5,
            rate: 600,
            burst: 1,
        };
        assert_eq!(s.due_ns(0), 5);
        assert_eq!(s.due_ns(600), 5 + 1_000_000_000);
        assert_eq!(s.due_ns(600 * 3600), 5 + 3_600_000_000_000);
        for k in 0..10_000 {
            assert!(s.due_ns(k + 1) > s.due_ns(k));
        }
        let bursty = Schedule {
            start_ns: 0,
            rate: 20_000,
            burst: 20,
        };
        assert_eq!(bursty.due_ns(1), 1_000_000);
        assert_eq!(bursty.bursts_in(9.0), 9000);
        assert_eq!(s.bursts_in(2.0), 1200);
    }

    #[test]
    fn lateness_is_never_negative_and_never_skips() {
        let mut l = Lateness::with_capacity(3);
        l.record(1000, 900); // early
        l.record(2000, 2000); // on time
        l.record(3000, 3450); // late
        assert_eq!(l.late_ns, vec![0, 0, 450]);
    }

    #[test]
    fn sleep_until_a_past_deadline_returns_immediately() {
        let t = now_ns();
        sleep_until(t - 1_000_000_000);
        assert!(now_ns() - t < 50_000_000);
    }
}
