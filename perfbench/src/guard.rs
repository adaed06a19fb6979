//! Deadlines on blocking calls, and reading the server's state from
//! outside through `Connection::introspect`.
//!
//! Every call into the program that can block runs under
//! [`bounded`]: if it has not returned by its deadline, the benchmark
//! treats the phase as stalled and prints what the servers report.
//! A phase that stays stalled ends the run without joining the stuck
//! thread.

use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use bso::client::Connection;
use bso_telemetry::json::{self, Json};

/// Runs `f` on a thread named `name` and waits at most `limit` for it.
/// `None` means it missed the deadline; the thread is left running,
/// since a call blocked inside the program cannot be cancelled, and the
/// caller is expected to report the stall and end the process.
///
/// # Panics
///
/// Re-raises a panic from `f`.
pub fn bounded<T: Send + 'static>(
    limit: Duration,
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn bounded call");
    match rx.recv_timeout(limit) {
        Ok(v) => {
            let _ = handle.join();
            Some(v)
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("sender dropped without sending"),
        },
        Err(RecvTimeoutError::Timeout) => None,
    }
}

/// How long a single administrative round trip may take.
pub const ADMIN_DEADLINE: Duration = Duration::from_secs(3);

/// One `Introspect` snapshot over `conn`, under [`ADMIN_DEADLINE`].
/// Hands the connection back with the parsed document; `None` if the
/// server did not answer in time or answered garbage.
pub fn scrape(conn: Connection) -> Option<(Connection, ServerView)> {
    bounded(ADMIN_DEADLINE, "pb-introspect", move || {
        let mut conn = conn;
        let text = conn.introspect().ok()?;
        let doc = json::parse(&text).ok()?;
        Some((conn, ServerView::from_json(&doc, text)))
    })
    .flatten()
}

/// Opens `loops` fresh connections to `addr` and pings over each,
/// under [`ADMIN_DEADLINE`]. The server hands new connections to its
/// event loops in turn, and each hand-off wakes its loop, so every loop
/// that lost a wakeup drains its inbox. `false` if a ping went
/// unanswered.
pub fn wake_loops(addr: SocketAddr, loops: usize) -> bool {
    bounded(ADMIN_DEADLINE, "pb-wake", move || {
        (0..loops).all(|_| {
            Connection::builder()
                .connect(addr)
                .and_then(|mut c| c.ping())
                .is_ok()
        })
    })
    .unwrap_or(false)
}

/// The parts of a `bso-introspect/v1` document the benchmark reads.
#[derive(Clone, Debug, Default)]
pub struct ServerView {
    /// `stats.requests`.
    pub requests: u64,
    /// `stats.responses`.
    pub responses: u64,
    /// `stats.busy`.
    pub busy: u64,
    /// `stats.wrong_shard`.
    pub wrong_shard: u64,
    /// Sum of per-shard `wakeups`.
    pub wakeups: u64,
    /// Largest per-shard `queue_depth`.
    pub queue_depth: u64,
    /// Sum over shards of `flush_batch.count` and `flush_batch.sum`.
    pub flushes: (u64, u64),
    /// Per shard `(turn_ns.p50, turn_ns.count)`.
    pub turn_p50: Vec<(u64, u64)>,
    /// Per shard `(apply_ns.p50, apply_ns.count)`.
    pub apply_p50: Vec<(u64, u64)>,
    /// `(shard, seq, queue_ns)` of each recent flight record.
    pub flight: Vec<(u64, u64, u64)>,
    /// The raw document, printed when a phase stalls.
    pub raw: String,
}

impl ServerView {
    fn from_json(doc: &Json, raw: String) -> ServerView {
        let u = |j: Option<&Json>| j.and_then(Json::as_u64).unwrap_or(0);
        let stats = doc.get("stats");
        let stat = |k: &str| u(stats.and_then(|s| s.get(k)));
        let mut v = ServerView {
            requests: stat("requests"),
            responses: stat("responses"),
            busy: stat("busy"),
            wrong_shard: stat("wrong_shard"),
            raw,
            ..ServerView::default()
        };
        let shards = doc.get("shards").and_then(Json::items).unwrap_or(&[]);
        for sh in shards {
            let id = u(sh.get("shard"));
            let hist = |k: &str, f: &str| u(sh.get(k).and_then(|h| h.get(f)));
            v.wakeups += u(sh.get("wakeups"));
            v.queue_depth = v.queue_depth.max(u(sh.get("queue_depth")));
            v.flushes.0 += hist("flush_batch", "count");
            v.flushes.1 += hist("flush_batch", "sum");
            v.turn_p50
                .push((hist("turn_ns", "p50"), hist("turn_ns", "count")));
            v.apply_p50
                .push((hist("apply_ns", "p50"), hist("apply_ns", "count")));
            let recent = sh
                .get("flight")
                .and_then(|f| f.get("recent"))
                .and_then(Json::items)
                .unwrap_or(&[]);
            for r in recent {
                v.flight.push((id, u(r.get("seq")), u(r.get("queue_ns"))));
            }
        }
        v
    }
}

/// Count-weighted mean of per-shard medians: a cheap combined median
/// for histograms that are only exposed per shard.
pub fn weighted_p50(per_shard: &[(u64, u64)]) -> f64 {
    let n: u64 = per_shard.iter().map(|p| p.1).sum();
    if n == 0 {
        return 0.0;
    }
    per_shard
        .iter()
        .map(|&(p, c)| p as f64 * c as f64)
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn bounded_returns_in_time_or_gives_up() {
        assert_eq!(bounded(Duration::from_secs(5), "t-ok", || 7), Some(7));
        let t0 = Instant::now();
        let stuck = bounded(Duration::from_millis(50), "t-stuck", || {
            std::thread::sleep(Duration::from_secs(2));
        });
        assert!(stuck.is_none());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn view_reads_stats_shards_and_flight() {
        let doc = r#"{"stats":{"requests":10,"responses":9,"busy":2,"wrong_shard":1},
            "shards":[
              {"shard":0,"wakeups":5,"queue_depth":3,
               "flush_batch":{"count":4,"sum":40},"turn_ns":{"p50":100,"count":1},
               "apply_ns":{"p50":50,"count":3},
               "flight":{"recent":[{"seq":1,"queue_ns":0},{"seq":2,"queue_ns":700}]}},
              {"shard":1,"wakeups":6,"queue_depth":1,
               "flush_batch":{"count":1,"sum":2},"turn_ns":{"p50":300,"count":3},
               "apply_ns":{"p50":90,"count":1},"flight":{"recent":[]}}]}"#;
        let v = ServerView::from_json(&json::parse(doc).unwrap(), String::new());
        assert_eq!(
            (v.requests, v.responses, v.busy, v.wrong_shard),
            (10, 9, 2, 1)
        );
        assert_eq!((v.wakeups, v.queue_depth, v.flushes), (11, 3, (5, 42)));
        assert_eq!(v.flight, vec![(0, 1, 0), (0, 2, 700)]);
        assert!((weighted_p50(&v.turn_p50) - 250.0).abs() < 1e-9);
        assert!((weighted_p50(&v.apply_p50) - 60.0).abs() < 1e-9);
        assert_eq!(weighted_p50(&[]), 0.0);
    }
}
