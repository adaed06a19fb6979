//! Live server introspection: per-loop probes, the flight recorder,
//! and the `bso-introspect/v1` snapshot document.
//!
//! The telemetry [`Registry`](bso_telemetry::Registry) is opt-in and
//! usually disabled, but a production server must be observable *as
//! found* — so every loop also feeds an always-on [`LoopProbe`]:
//! plain (non-atomic) log2 histograms for apply/turn/flush timings
//! plus a fixed-size **flight recorder** ring of recent request
//! records. The request path never touches shared state: each loop
//! buffers its records in a loop-local [`ProbeScratch`] (a plain `Vec`
//! push per request) and [`IntrospectState::commit_turn`] drains the
//! batch into the mutex-guarded probe once per readiness turn — the
//! lock is taken at turn frequency, not request frequency, so the
//! always-on cost per request is a few nanoseconds (measured in
//! EXPERIMENTS.md). An [`Introspect`](crate::wire::Request::Introspect)
//! scrape therefore sees state as of each loop's last completed turn.
//!
//! The flight recorder keeps the last [`RING_CAPACITY`] request
//! records (opcode, object id, cross-shard queue time, apply time,
//! response batch depth) and separately **pins** slow requests: any
//! record whose apply time exceeds the loop's own observed p99
//! (refreshed every [`THRESHOLD_REFRESH`] records, floored at
//! [`SLOW_FLOOR_NS`] so sub-microsecond noise is never pinned). Both
//! rings are dumped through `Introspect`, written to the file named by
//! [`FLIGHT_ENV`] on shutdown, and spilled to stderr if a loop thread
//! panics — the black box a crashed server leaves behind.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

use bso_telemetry::json::Json;
use bso_telemetry::{bucket_index, HistogramSnapshot, HISTOGRAM_BUCKETS};

use crate::event_loop::Shared;
use crate::wire;

/// Environment variable naming the file the server writes its full
/// introspection snapshot (flight recorders included) to on shutdown:
/// `BSO_FLIGHT=path.json`.
pub const FLIGHT_ENV: &str = "BSO_FLIGHT";

/// Flight-recorder ring depth per loop (most recent requests).
pub(crate) const RING_CAPACITY: usize = 256;
/// At most this many slow requests stay pinned per loop (oldest pins
/// are dropped and counted).
pub(crate) const SLOW_PINS: usize = 32;
/// Floor under the slow-pin threshold: the p99 of a healthy loop sits
/// well below this, so only genuine outliers are pinned.
pub(crate) const SLOW_FLOOR_NS: u64 = 10_000;
/// The slow-pin threshold re-derives from the loop's apply histogram
/// every this many records.
pub(crate) const THRESHOLD_REFRESH: u32 = 1024;
/// `Introspect` dumps at most this many recent records per loop (the
/// shutdown/panic dumps are uncapped) so the response stays far below
/// [`crate::wire::MAX_FRAME`] at any shard count.
const SCRAPE_RECENT: usize = 16;
/// `Introspect` dumps at most this many pinned-slow records per loop.
const SCRAPE_SLOW: usize = 8;

/// One flight-recorder entry: what a request did and what it cost.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FlightRecord {
    /// Per-loop sequence number (monotonic, never wraps in practice).
    pub(crate) seq: u64,
    /// The request's wire opcode.
    pub(crate) opcode: u8,
    /// Target object id (or session id for election opcodes).
    pub(crate) object: u64,
    /// Time spent queued in a cross-shard [`Inbox`](crate::inbox::Inbox)
    /// (0 for requests applied inline on the arriving loop).
    pub(crate) queue_ns: u64,
    /// Time inside the shard apply/elect.
    pub(crate) apply_ns: u64,
    /// Responses already staged on the connection when this one was
    /// (i.e. its position in the turn's write batch; 0 for replies
    /// routed back from another loop).
    pub(crate) batch: u64,
}

/// One not-yet-committed flight record, buffered loop-locally between
/// turn commits (no `seq` yet — the probe assigns it at commit).
#[derive(Clone, Copy)]
pub(crate) struct PendingRecord {
    opcode: u8,
    object: u64,
    queue_ns: u64,
    apply_ns: u64,
    batch: u64,
}

/// A loop's private probe buffer. The hot path pushes into plain
/// `Vec`s — no lock, no shared cache line — and the loop hands the
/// whole batch to [`IntrospectState::commit_turn`] once per readiness
/// turn.
#[derive(Default)]
pub(crate) struct ProbeScratch {
    requests: Vec<PendingRecord>,
    flushes: Vec<u64>,
    shed: u64,
}

impl ProbeScratch {
    /// Buffers one served request (the always-on per-request cost: one
    /// `Vec` push).
    #[inline]
    pub(crate) fn push_request(
        &mut self,
        opcode: u8,
        object: u64,
        queue_ns: u64,
        apply_ns: u64,
        batch: u64,
    ) {
        self.requests.push(PendingRecord {
            opcode,
            object,
            queue_ns,
            apply_ns,
            batch,
        });
    }

    /// Buffers one completed response flush of `batch` frames.
    #[inline]
    pub(crate) fn push_flush(&mut self, batch: u64) {
        self.flushes.push(batch);
    }

    /// Counts one deadline-shed op (refused [`Expired`], not applied).
    ///
    /// [`Expired`]: crate::wire::ErrorCode::Expired
    #[inline]
    pub(crate) fn push_shed(&mut self) {
        self.shed += 1;
    }
}

impl FlightRecord {
    fn to_json(self) -> Json {
        Json::obj([
            ("apply_ns", Json::U64(self.apply_ns)),
            ("batch", Json::U64(self.batch)),
            ("object", Json::U64(self.object)),
            ("opcode", Json::U64(u64::from(self.opcode))),
            ("queue_ns", Json::U64(self.queue_ns)),
            ("seq", Json::U64(self.seq)),
        ])
    }
}

/// A plain (single-writer) log2 histogram sharing the bucket layout —
/// and therefore the quantile math — of the telemetry crate's atomic
/// [`Histogram`](bso_telemetry::Histogram), without paying its atomic
/// read-modify-writes on the always-on path.
pub(crate) struct PlainHist {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl PlainHist {
    fn new() -> PlainHist {
        PlainHist {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// A [`HistogramSnapshot`] view, reusing the telemetry crate's
    /// interpolated quantile estimator.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| (i as u32, *n))
                .collect(),
        }
    }
}

fn hist_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::U64(h.count)),
        ("max", Json::U64(h.max)),
        ("min", Json::U64(h.min)),
        ("p50", Json::U64(h.p50())),
        ("p90", Json::U64(h.p90())),
        ("p99", Json::U64(h.p99())),
        ("sum", Json::U64(h.sum)),
    ])
}

/// One event loop's always-on instrumentation, single-writer behind
/// the [`IntrospectState`] mutex.
pub(crate) struct LoopProbe {
    conns: u64,
    wakeups: u64,
    /// Ops this loop shed on deadline expiry (inline or at its apply
    /// site for queued transfers).
    shed: u64,
    turn_ns: PlainHist,
    apply_ns: PlainHist,
    elect_ns: PlainHist,
    flush_batch: PlainHist,
    /// Power-of-two circular buffer written at `seq % RING_CAPACITY`:
    /// one store per record, no length bookkeeping (`seq` already says
    /// how many are live).
    ring: Box<[FlightRecord; RING_CAPACITY]>,
    slow: VecDeque<FlightRecord>,
    seq: u64,
    threshold_ns: u64,
    since_refresh: u32,
    slow_dropped: u64,
}

impl LoopProbe {
    fn new() -> LoopProbe {
        LoopProbe {
            conns: 0,
            wakeups: 0,
            shed: 0,
            turn_ns: PlainHist::new(),
            apply_ns: PlainHist::new(),
            elect_ns: PlainHist::new(),
            flush_batch: PlainHist::new(),
            ring: Box::new([FlightRecord::default(); RING_CAPACITY]),
            slow: VecDeque::with_capacity(SLOW_PINS),
            seq: 0,
            threshold_ns: SLOW_FLOOR_NS,
            since_refresh: 0,
            slow_dropped: 0,
        }
    }

    fn record_request(
        &mut self,
        opcode: u8,
        object: u64,
        queue_ns: u64,
        apply_ns: u64,
        batch: u64,
    ) {
        let rec = FlightRecord {
            seq: self.seq,
            opcode,
            object,
            queue_ns,
            apply_ns,
            batch,
        };
        self.ring[self.seq as usize % RING_CAPACITY] = rec;
        self.seq += 1;
        if opcode == wire::OP_ELECT {
            self.elect_ns.record(apply_ns);
        } else {
            self.apply_ns.record(apply_ns);
        }
        if apply_ns >= self.threshold_ns {
            if self.slow.len() >= SLOW_PINS {
                self.slow.pop_front();
                self.slow_dropped += 1;
            }
            self.slow.push_back(rec);
        }
        self.since_refresh += 1;
        if self.since_refresh >= THRESHOLD_REFRESH {
            self.since_refresh = 0;
            self.threshold_ns = self.apply_ns.snapshot().p99().max(SLOW_FLOOR_NS);
        }
    }

    fn flight_json(&self, recent_cap: usize, slow_cap: usize) -> Json {
        // Newest `take` records end at `seq`, oldest first.
        let live = usize::try_from(self.seq)
            .unwrap_or(usize::MAX)
            .min(RING_CAPACITY);
        let take = live.min(recent_cap);
        let recent = (0..take)
            .map(|i| {
                let back = (take - i) as u64;
                self.ring[(self.seq - back) as usize % RING_CAPACITY].to_json()
            })
            .collect();
        let slow = self
            .slow
            .iter()
            .skip(self.slow.len().saturating_sub(slow_cap))
            .map(|r| r.to_json())
            .collect();
        Json::obj([
            ("recent", Json::Arr(recent)),
            ("seq", Json::U64(self.seq)),
            ("slow", Json::Arr(slow)),
            ("slow_dropped", Json::U64(self.slow_dropped)),
            ("threshold_ns", Json::U64(self.threshold_ns)),
        ])
    }

    fn to_json(&self, shard: usize, queue_depth: usize) -> Json {
        Json::obj([
            ("shard", Json::U64(shard as u64)),
            ("apply_ns", hist_json(&self.apply_ns.snapshot())),
            ("conns", Json::U64(self.conns)),
            ("elect_ns", hist_json(&self.elect_ns.snapshot())),
            ("flight", self.flight_json(SCRAPE_RECENT, SCRAPE_SLOW)),
            ("flush_batch", hist_json(&self.flush_batch.snapshot())),
            ("queue_depth", Json::U64(queue_depth as u64)),
            ("shed", Json::U64(self.shed)),
            ("turn_ns", hist_json(&self.turn_ns.snapshot())),
            ("wakeups", Json::U64(self.wakeups)),
        ])
    }
}

/// The server's bind-time identity, echoed verbatim in every
/// `Introspect` snapshot so a scrape identifies what it is talking to.
pub(crate) struct ConfigInfo {
    pub(crate) shards: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) backend: String,
    pub(crate) read_chunk: usize,
    pub(crate) pin_cores: bool,
}

/// Always-on introspection state hung off the server's `Shared`: the
/// bind-time config plus one [`LoopProbe`] per event loop.
pub(crate) struct IntrospectState {
    started: Instant,
    config: ConfigInfo,
    probes: Vec<Mutex<LoopProbe>>,
}

impl IntrospectState {
    pub(crate) fn new(config: ConfigInfo) -> IntrospectState {
        let probes = (0..config.shards)
            .map(|_| Mutex::new(LoopProbe::new()))
            .collect();
        IntrospectState {
            started: Instant::now(),
            config,
            probes,
        }
    }

    /// Drains loop `index`'s turn scratch into its shared probe and
    /// records the turn itself: one uncontended lock per readiness
    /// turn, regardless of how many requests the turn served.
    pub(crate) fn commit_turn(
        &self,
        index: usize,
        scratch: &mut ProbeScratch,
        turn_ns: u64,
        conns: usize,
    ) {
        let mut p = self.probes[index].lock().unwrap();
        for r in scratch.requests.drain(..) {
            p.record_request(r.opcode, r.object, r.queue_ns, r.apply_ns, r.batch);
        }
        for batch in scratch.flushes.drain(..) {
            p.flush_batch.record(batch);
        }
        p.shed += std::mem::take(&mut scratch.shed);
        p.wakeups += 1;
        p.turn_ns.record(turn_ns);
        p.conns = conns as u64;
    }

    /// Loop `index`'s flight recorder as JSON (uncapped) — the panic
    /// dump.
    pub(crate) fn flight_json(&self, index: usize) -> Json {
        self.probes[index]
            .lock()
            .unwrap()
            .flight_json(RING_CAPACITY, SLOW_PINS)
    }
}

/// Builds the `bso-introspect/v1` document for `shared`'s server.
///
/// Deterministic rendering: keys are emitted in a fixed (sorted)
/// order and the shard array in shard order, so two scrapes of
/// identical state are byte-identical.
pub(crate) fn introspect_doc(shared: &Shared) -> Json {
    let intro = &shared.introspect;
    let stats = &shared.stats;
    let shards: Vec<Json> = intro
        .probes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let depth = shared.loops[i].inbox.work_len();
            p.lock().unwrap().to_json(i, depth)
        })
        .collect();
    Json::obj([
        ("schema", Json::str("bso-introspect/v1")),
        (
            "config",
            Json::obj([
                ("backend", Json::str(&intro.config.backend)),
                ("pin_cores", Json::Bool(intro.config.pin_cores)),
                (
                    "queue_capacity",
                    Json::U64(intro.config.queue_capacity as u64),
                ),
                ("read_chunk", Json::U64(intro.config.read_chunk as u64)),
                ("shards", Json::U64(intro.config.shards as u64)),
            ]),
        ),
        (
            "server",
            Json::obj([
                ("crate", Json::str("bso-server")),
                (
                    "uptime_ms",
                    Json::U64(intro.started.elapsed().as_millis() as u64),
                ),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                ("wire", Json::str(wire::SCHEMA)),
            ]),
        ),
        (
            "stats",
            Json::obj([
                ("busy", Json::U64(stats.busy.load(Ordering::Relaxed))),
                (
                    "connections",
                    Json::U64(stats.connections.load(Ordering::Relaxed)),
                ),
                (
                    "malformed",
                    Json::U64(stats.malformed.load(Ordering::Relaxed)),
                ),
                ("replays", Json::U64(stats.replays.load(Ordering::Relaxed))),
                (
                    "requests",
                    Json::U64(stats.requests.load(Ordering::Relaxed)),
                ),
                (
                    "responses",
                    Json::U64(stats.responses.load(Ordering::Relaxed)),
                ),
                ("resumes", Json::U64(stats.resumes.load(Ordering::Relaxed))),
                ("sessions", Json::U64(shared.sessions.sessions() as u64)),
                ("shed", Json::U64(stats.shed.load(Ordering::Relaxed))),
                (
                    "version_rejects",
                    Json::U64(stats.version_rejects.load(Ordering::Relaxed)),
                ),
                (
                    "wrong_shard",
                    Json::U64(stats.wrong_shard.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        ("routing", shared.route.introspect()),
        ("shards", Json::Arr(shards)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_hist_matches_telemetry_quantile_semantics() {
        let mut h = PlainHist::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1024);
        assert_eq!(s.sum, 1039);
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max && s.p50() >= s.min);
    }

    #[test]
    fn flight_recorder_pins_slow_requests_and_bounds_both_rings() {
        let mut p = LoopProbe::new();
        // Fast requests fill (and wrap) the ring without pinning.
        for i in 0..(RING_CAPACITY as u64 + 10) {
            p.record_request(wire::OP_APPLY, i, 0, 100, 1);
        }
        let full = p.flight_json(RING_CAPACITY, SLOW_PINS);
        let recent = full.get("recent").and_then(Json::items).unwrap();
        assert_eq!(recent.len(), RING_CAPACITY);
        assert_eq!(
            recent[0].get("seq").and_then(Json::as_u64),
            Some(10),
            "oldest dropped"
        );
        assert_eq!(
            recent[RING_CAPACITY - 1].get("seq").and_then(Json::as_u64),
            Some(RING_CAPACITY as u64 + 9),
            "newest last"
        );
        assert!(p.slow.is_empty(), "sub-floor requests are never pinned");
        // Slow requests pin, and the pin ring is bounded too.
        for i in 0..(SLOW_PINS as u64 + 3) {
            p.record_request(wire::OP_APPLY, i, 0, SLOW_FLOOR_NS * 2, 0);
        }
        assert_eq!(p.slow.len(), SLOW_PINS);
        assert_eq!(p.slow_dropped, 3);
        let doc = p.flight_json(4, SLOW_PINS);
        assert_eq!(doc.get("recent").and_then(Json::len), Some(4));
        assert_eq!(doc.get("slow").and_then(Json::len), Some(SLOW_PINS));
        assert_eq!(doc.get("slow_dropped").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn threshold_refreshes_from_the_observed_p99() {
        let mut p = LoopProbe::new();
        // A workload whose p99 sits far above the floor raises the
        // threshold at the refresh boundary.
        for _ in 0..THRESHOLD_REFRESH {
            p.record_request(wire::OP_APPLY, 0, 0, SLOW_FLOOR_NS * 8, 0);
        }
        assert!(p.threshold_ns >= SLOW_FLOOR_NS * 8, "{}", p.threshold_ns);
    }
}
