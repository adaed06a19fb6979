//! The benchmark's own accounting: quantiles with their sample counts,
//! open-loop lateness, failure and SLO shares, and CPU per operation.
//! Every figure the benchmark prints goes through these functions, so
//! the unit tests at the bottom pin the arithmetic on tiny inputs.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the `q` quantile.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    match quantile(sorted, q) {
        Some(v) => sorted.len() - sorted.partition_point(|&s| s <= v),
        None => 0,
    }
}

/// The highest of the standard tail quantiles that still has at least
/// ten samples beyond it, as `(q, value)`. A tail quantile with fewer
/// samples behind it is one or two unlucky operations, not a
/// percentile. `None` when not even p50 qualifies.
pub fn reportable_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(sorted, q) >= 10)
        .and_then(|q| quantile(sorted, q).map(|v| (q, v)))
}

/// Median of unsorted values (mean of the middle pair for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The operations of one measured phase, classified the way the
/// end-to-end metrics count them. `attempted` is every operation the
/// generator issued; each one ends up in exactly one of `ok`,
/// `refused` (typed `Busy`), `errored` or `unanswered` (no answer by
/// the time the benchmark gave the phase up).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Answered `Ok`.
    pub ok: u64,
    /// Answered with a `Busy` refusal.
    pub refused: u64,
    /// Answered with any other error.
    pub errored: u64,
    /// Not answered by the time the phase was given up.
    pub unanswered: u64,
}

impl Tally {
    /// Operations that did not succeed: refused, errored or
    /// unanswered.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.unanswered
    }

    /// `failed / attempted`; zero for an empty phase.
    pub fn fail_share(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Sums two tallies.
    pub fn add(&self, o: &Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            ok: self.ok + o.ok,
            refused: self.refused + o.refused,
            errored: self.errored + o.errored,
            unanswered: self.unanswered + o.unanswered,
        }
    }
}

/// An operation answered `Ok` within this meets the SLO.
pub const SLO_NS: u64 = 1_000_000;

/// Classifies a finished run of `attempted` operations from what came
/// back: one latency per `Ok` answer in `ok_rtt_ns`, plus `refused` and
/// `errored` answers. Every operation with no answer at all is
/// unanswered. An `Ok` answer counts as `ok` however late it came: a
/// stall the benchmark woke the server from keeps its seconds-long
/// latencies in the samples and its SLO misses, and is counted in
/// `event_loop.stalls`. Returns the tally and the `Ok` latencies.
pub fn classify(
    attempted: u64,
    ok_rtt_ns: Vec<u64>,
    refused: u64,
    errored: u64,
) -> (Tally, Vec<u64>) {
    let ok = ok_rtt_ns.len() as u64;
    let tally = Tally {
        attempted,
        ok,
        refused,
        errored,
        unanswered: attempted.saturating_sub(ok + refused + errored),
    };
    (tally, ok_rtt_ns)
}

/// Share of attempted operations answered `Ok` within `limit_ns`.
/// `ok_latencies_ns` holds one latency per `Ok` operation; every
/// refused, errored or unanswered operation is in `attempted` but has
/// no latency, so it counts as a miss.
pub fn slo_share(ok_latencies_ns: &[u64], attempted: u64, limit_ns: u64) -> f64 {
    let hits = ok_latencies_ns.iter().filter(|&&l| l <= limit_ns).count();
    ratio(hits as f64, attempted as f64)
}

/// Which open-loop sub-runs give valid latency figures, from each
/// one's p99 send lateness: those whose generator sent 99% of its
/// operations within `limit_ns` of schedule. Latency is timed from the
/// scheduled send, so a sub-run whose generator was descheduled charges
/// the host's pause to the service. When fewer than a quarter of the
/// sub-runs qualify, the lateness is no longer the host's alone, and
/// every sub-run counts.
pub fn on_schedule(lag_p99_ns: &[u64], limit_ns: u64) -> Vec<bool> {
    let valid: Vec<bool> = lag_p99_ns.iter().map(|&l| l <= limit_ns).collect();
    let n = valid.iter().filter(|&&v| v).count();
    if n == 0 || 4 * n < valid.len() {
        return vec![true; valid.len()];
    }
    valid
}

/// `num / den`, or zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Open-loop send lateness: how far behind its fixed schedule the
/// generator issued each operation. Operation `seq` is due at
/// `origin + seq * gap`; issuing it at `now` is `now - due` late
/// (never negative: an early send is on time).
#[derive(Debug)]
pub struct Lateness {
    origin: Instant,
    gap: Duration,
    /// One lateness sample per issued operation, in nanoseconds.
    pub samples_ns: Vec<u64>,
}

impl Lateness {
    /// A schedule of one operation every `gap`, starting at `origin`.
    pub fn new(origin: Instant, gap: Duration) -> Lateness {
        Lateness {
            origin,
            gap,
            samples_ns: Vec::new(),
        }
    }

    /// Records that operation `seq` was issued at `now`.
    pub fn record(&mut self, seq: u64, now: Instant) {
        let due = self.origin + self.gap.mul_f64(seq as f64);
        let late = now.saturating_duration_since(due);
        self.samples_ns
            .push(u64::try_from(late.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// CPU time per operation in microseconds: the CPU nanoseconds a set
/// of threads consumed between two readings, divided by the operations
/// completed in between. Threads are matched by id; one that appears
/// only in the second reading started during the interval and counts
/// in full, one that vanished is ignored.
pub fn cpu_us_per_op(before: &[(u32, u64)], after: &[(u32, u64)], ops: u64) -> f64 {
    let used: u64 = after
        .iter()
        .map(|&(tid, ns)| {
            let prior = before
                .iter()
                .find(|&&(t, _)| t == tid)
                .map_or(0, |&(_, b)| b);
            ns.saturating_sub(prior)
        })
        .sum();
    ratio(used as f64 / 1e3, ops as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), Some(5));
        assert_eq!(quantile(&v, 0.9), Some(9));
        assert_eq!(quantile(&v, 0.91), Some(10));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&v, 1.0), Some(10));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7], 0.99), Some(7));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p99 has one sample beyond it, p90 has ten.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(reportable_tail(&v), Some((0.9, 90)));
        // 1000 samples: p99 qualifies, p999 does not.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(reportable_tail(&v), Some((0.99, 990)));
        // Ties at the quantile are not "beyond" it.
        let v = vec![5u64; 50];
        assert_eq!(beyond(&v, 0.5), 0);
        assert_eq!(reportable_tail(&v), None);
        assert_eq!(reportable_tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fail_share_counts_refused_and_unanswered() {
        let t = Tally {
            attempted: 100,
            ok: 90,
            refused: 4,
            errored: 1,
            unanswered: 5,
        };
        assert_eq!(t.failed(), 10);
        assert!((t.fail_share() - 0.10).abs() < 1e-12);
        let sum = t.add(&Tally {
            attempted: 100,
            ok: 100,
            ..Tally::default()
        });
        assert_eq!(sum.attempted, 200);
        assert!((sum.fail_share() - 0.05).abs() < 1e-12);
        assert_eq!(Tally::default().fail_share(), 0.0);
    }

    #[test]
    fn missing_answers_are_unanswered_late_ones_are_ok() {
        // 10 issued: 5 Ok (one of them very late), 1 Busy, 1 error, 3
        // never answered.
        let (t, ok) = classify(10, vec![10, 20, 30, 40, 5_000_000_000], 1, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                ok: 5,
                refused: 1,
                errored: 1,
                unanswered: 3,
            }
        );
        assert_eq!(ok, vec![10, 20, 30, 40, 5_000_000_000]);
        assert_eq!(t.failed(), 5);
        // The late answer is kept, and misses the SLO.
        assert!((slo_share(&ok, t.attempted, SLO_NS) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn slo_share_counts_failures_as_misses() {
        // Ten attempted: six Ok, four failed. Of the six, one is slow.
        let ok = [100, 200, 300, 400, 500, 5_000];
        assert!((slo_share(&ok, 10, 1_000) - 0.5).abs() < 1e-12);
        // The limit is inclusive.
        assert!((slo_share(&ok, 6, 500) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(slo_share(&[], 0, 1_000), 0.0);
    }

    #[test]
    fn late_generators_void_their_sub_runs_unless_most_are_late() {
        let ms = 1_000_000;
        assert_eq!(
            on_schedule(&[10, 2 * ms, ms, ms + 1], ms),
            vec![true, false, true, false]
        );
        // One of five on schedule is under a quarter: all count.
        assert_eq!(
            on_schedule(&[10, 2 * ms, 3 * ms, 2 * ms, 2 * ms], ms),
            vec![true; 5]
        );
        assert_eq!(on_schedule(&[2 * ms], ms), vec![true]);
        assert!(on_schedule(&[], ms).is_empty());
    }

    #[test]
    fn lateness_is_measured_from_the_schedule() {
        let t0 = Instant::now();
        let mut l = Lateness::new(t0, Duration::from_micros(10));
        l.record(0, t0 + Duration::from_micros(3)); // 3 us late
        l.record(1, t0 + Duration::from_micros(10)); // on time
        l.record(2, t0 + Duration::from_micros(5)); // early: on time
        l.record(3, t0 + Duration::from_micros(100)); // 70 us late
        assert_eq!(l.samples_ns, vec![3_000, 0, 0, 70_000]);
    }

    #[test]
    fn cpu_per_op_from_task_readings() {
        // Thread 1 ran 2 ms, thread 2 ran 1 ms, thread 3 started
        // during the interval and ran 1 ms, thread 4 exited.
        let before = [(1, 10_000_000), (2, 5_000_000), (4, 9_000_000)];
        let after = [(1, 12_000_000), (2, 6_000_000), (3, 1_000_000)];
        // 4 ms of CPU over 1000 ops = 4 us per op.
        assert!((cpu_us_per_op(&before, &after, 1_000) - 4.0).abs() < 1e-9);
        assert_eq!(cpu_us_per_op(&before, &after, 0), 0.0);
    }
}
