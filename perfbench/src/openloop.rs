//! Open-loop load accounting: a request is timed from when it was *due*,
//! not from when the generator managed to send it, so a stall in the
//! generator or in admission shows up in every request it delayed.

use std::time::{Duration, Instant};

/// When the `i`-th operation of a fixed-rate schedule is due, relative to
/// the schedule start.
pub fn due_offset(i: usize, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// Operations a fixed-rate schedule holds within `window`.
pub fn ops_in_window(window: Duration, rate_per_s: f64) -> usize {
    (window.as_secs_f64() * rate_per_s).ceil().max(1.0) as usize
}

/// `later - earlier`, or zero when `later` is not later.
pub fn since(earlier: Instant, later: Instant) -> Duration {
    later.saturating_duration_since(earlier)
}

/// How one request ended, as the load generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// A result arrived; the latency is measured from the due time.
    Completed {
        /// Due time to result arrival.
        latency: Duration,
    },
    /// The request was admitted but resolved as failed, cancelled or
    /// expired, or its result failed an output check.
    Failed,
    /// The server answered the submission with an error.
    Refused,
    /// Held back: never acknowledged, or acknowledged but unresolved when
    /// the drain deadline passed.
    Backpressured,
}

/// The request-level tally behind `req_*`, `goodput_rps` and
/// `error_rate`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accounting {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests completed within the latency limit.
    pub good: usize,
    /// Requests that missed the limit: late, failed, refused or
    /// backpressured.
    pub missed: usize,
    /// Requests that did not complete at all (failed, refused,
    /// backpressured) — the error count.
    pub errors: usize,
    /// Latencies of completed requests (ms), late ones included.
    pub latencies_ms: Vec<f64>,
}

/// Tallies `fates` against the latency `limit`. Anything that did not
/// complete counts as missing the limit, whatever its timing.
pub fn account(fates: &[Fate], limit: Duration) -> Accounting {
    let mut acc = Accounting {
        attempted: fates.len(),
        ..Accounting::default()
    };
    for fate in fates {
        match *fate {
            Fate::Completed { latency } => {
                acc.latencies_ms.push(latency.as_secs_f64() * 1e3);
                if latency <= limit {
                    acc.good += 1;
                } else {
                    acc.missed += 1;
                }
            }
            Fate::Failed | Fate::Refused | Fate::Backpressured => {
                acc.missed += 1;
                acc.errors += 1;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_schedule() {
        assert_eq!(due_offset(0, 4.0), Duration::ZERO);
        assert_eq!(due_offset(3, 4.0), Duration::from_millis(750));
        assert_eq!(ops_in_window(Duration::from_secs(20), 2.5), 50);
        assert_eq!(ops_in_window(Duration::from_millis(10), 2.5), 1);
    }

    #[test]
    fn latency_counts_from_due_not_from_send() {
        let start = Instant::now();
        let due = start + due_offset(2, 10.0); // due at 200 ms
        let sent = start + Duration::from_millis(450); // generator stalled
        let done = start + Duration::from_millis(600);
        assert_eq!(since(due, sent), Duration::from_millis(250)); // lag
        assert_eq!(since(due, done), Duration::from_millis(400)); // latency
        assert_eq!(since(sent, done), Duration::from_millis(150)); // not this
        assert_eq!(since(done, due), Duration::ZERO);
    }

    #[test]
    fn stall_penalises_every_request_it_delayed() {
        // Ten requests due every 100 ms; the generator stalls until 1 s,
        // then sends everything at once and each completes 50 ms later.
        let start = Instant::now();
        let resume = start + Duration::from_secs(1);
        let fates: Vec<Fate> = (0..10)
            .map(|i| {
                let due = start + due_offset(i, 10.0);
                let done = resume.max(due) + Duration::from_millis(50);
                Fate::Completed {
                    latency: since(due, done),
                }
            })
            .collect();
        let acc = account(&fates, Duration::from_millis(500));
        // Due at 0..=500 ms → latency ≥ 550 ms: late. 600..=900 ms → ok.
        assert_eq!(acc.good, 4);
        assert_eq!(acc.missed, 6);
        assert_eq!(acc.errors, 0);
        assert_eq!(acc.latencies_ms.len(), 10);
        assert!((acc.latencies_ms[0] - 1050.0).abs() < 1e-6);
    }

    #[test]
    fn refused_and_backpressured_miss_the_limit() {
        let fast = Fate::Completed {
            latency: Duration::from_millis(1),
        };
        let fates = [fast, Fate::Refused, Fate::Backpressured, Fate::Failed, fast];
        let acc = account(&fates, Duration::from_secs(10));
        assert_eq!(acc.attempted, 5);
        assert_eq!(acc.good, 2);
        assert_eq!(acc.missed, 3);
        assert_eq!(acc.errors, 3);
        // Only completed requests contribute latency samples.
        assert_eq!(acc.latencies_ms.len(), 2);
    }
}
