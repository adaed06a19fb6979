//! An event-driven client swarm: thousands of pipelined connections
//! driven from one thread by a readiness loop, for load generation and
//! saturation testing.
//!
//! A [`Connection`](crate::Connection) is the right tool for a handful
//! of sockets; at 10 000 connections the two-threads-per-connection
//! model (or even one blocking thread each) stops scaling. [`Swarm`]
//! instead keeps every socket nonblocking, multiplexed over the same
//! `epoll(7)`/`poll(2)` shim the server's event loops use
//! ([`bso_server::poll`]), and issues operations from a workload
//! closure.
//!
//! Two pacing modes:
//!
//! * **Closed loop** (default): each connection keeps
//!   [`SwarmBuilder::pipeline`] requests in flight and replaces each
//!   response with a fresh request immediately. Measures peak
//!   sustainable throughput; round trips are timed from the moment the
//!   request is queued.
//! * **Open loop** ([`SwarmBuilder::rate`]): arrivals are scheduled on
//!   a fixed clock at the offered rate, round-robin across
//!   connections, regardless of how fast responses come back. Round
//!   trips are timed from the *scheduled* arrival, so server-side
//!   queueing delay is charged to the latency distribution instead of
//!   silently stretching the arrival gaps (the coordinated-omission
//!   correction).
//!
//! ```no_run
//! use bso_client::Swarm;
//! use bso_objects::{Layout, ObjectInit, Op, Value};
//!
//! let mut layout = Layout::new();
//! let reg = layout.push(ObjectInit::Register(Value::Nil));
//! let report = Swarm::builder()
//!     .connections(1000)
//!     .pipeline(8)
//!     .run("127.0.0.1:4860", |conn, seq| {
//!         (seq < 1_000_000).then(|| (conn, Op::write(reg, Value::Int(conn as i64))))
//!     })
//!     .unwrap();
//! println!("{} ops ok", report.ops_ok);
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bso_objects::rng::SplitMix64;
use bso_objects::Op;
use bso_server::poll::{self, Event, Interest, PollBackend, Poller};
use bso_server::wire::{self, ErrorCode, Request, Response, TraceContext};
use bso_telemetry::trace::{TraceArg, TraceWorker};

use crate::resilient::{alloc_tokens, reconnect_worthy};
use crate::{next_trace_id, ClientError};

/// Bound on each blocking step of bringing a lane up: the TCP connect
/// and every read and write of the `Hello` and `Resume` exchanges. A
/// server that accepts but never answers costs a lane this long (then
/// the reconnect rotation moves on), not the whole multiplexer forever.
pub const DIAL_TIMEOUT: Duration = Duration::from_secs(2);

/// Fluent configuration for a [`Swarm`] run.
#[derive(Clone, Debug)]
pub struct SwarmBuilder {
    connections: usize,
    pipeline: usize,
    backend: PollBackend,
    rate: Option<f64>,
    handshake: bool,
    nodelay: bool,
    trace: TraceWorker,
    resilient: bool,
    session_base: Option<u64>,
    retry_seed: u64,
    fallbacks: Vec<std::net::SocketAddr>,
}

impl Default for SwarmBuilder {
    fn default() -> SwarmBuilder {
        SwarmBuilder {
            connections: 1,
            pipeline: 1,
            backend: PollBackend::Auto,
            rate: None,
            handshake: true,
            nodelay: true,
            trace: TraceWorker::disabled(),
            resilient: false,
            session_base: None,
            retry_seed: 0x5EED,
            fallbacks: Vec::new(),
        }
    }
}

impl SwarmBuilder {
    /// Number of concurrent connections (default 1).
    #[must_use]
    pub fn connections(mut self, n: usize) -> SwarmBuilder {
        self.connections = n.max(1);
        self
    }

    /// Requests kept in flight per connection in closed-loop mode
    /// (default 1). Ignored when a [`SwarmBuilder::rate`] is set —
    /// open-loop arrivals are paced by the clock, not by completions.
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> SwarmBuilder {
        self.pipeline = depth.max(1);
        self
    }

    /// Readiness backend for the swarm's own poller (default
    /// [`PollBackend::Auto`]).
    #[must_use]
    pub fn backend(mut self, backend: PollBackend) -> SwarmBuilder {
        self.backend = backend;
        self
    }

    /// Switches to open-loop pacing at `ops_per_sec` total offered
    /// load across all connections. `None` (the default) is closed
    /// loop.
    #[must_use]
    pub fn rate(mut self, ops_per_sec: Option<f64>) -> SwarmBuilder {
        self.rate = ops_per_sec.filter(|r| *r > 0.0);
        self
    }

    /// Whether each connection negotiates the wire version with a
    /// `Hello` round trip before entering the event loop (default
    /// `true`).
    #[must_use]
    pub fn handshake(mut self, yes: bool) -> SwarmBuilder {
        self.handshake = yes;
        self
    }

    /// Whether to disable Nagle's algorithm on every socket (default
    /// `true`).
    #[must_use]
    pub fn nodelay(mut self, yes: bool) -> SwarmBuilder {
        self.nodelay = yes;
        self
    }

    /// Attaches a trace track shared by every lane. Each issued apply
    /// is then sent as a `TracedApply` with a fresh `trace_id` and its
    /// round trip recorded as a `client.apply` span, matchable against
    /// the server's `server.apply` spans by
    /// [`bso_telemetry::trace::merge_traces`]. The disabled default
    /// keeps the plain `Apply` encoding and costs nothing.
    #[must_use]
    pub fn trace(mut self, worker: TraceWorker) -> SwarmBuilder {
        self.trace = worker;
        self
    }

    /// Fault-tolerant mode (default `false`). Every lane binds a
    /// session token on connect, keeps the encoded bytes of each
    /// in-flight request, and treats broken sockets, EOFs mid-pipeline,
    /// and corrupt response bytes as a cue to reconnect, `Resume`, and
    /// re-send — the server's reply cache turns the re-sends into
    /// replays, so effects stay exactly-once (see DESIGN.md §3.14).
    /// Without it those conditions abort the run, which is what a
    /// clean-room benchmark wants.
    #[must_use]
    pub fn resilient(mut self, yes: bool) -> SwarmBuilder {
        self.resilient = yes;
        self
    }

    /// First session token for resilient lanes: lane `i` binds
    /// `base + i`. Defaults to a process-wide allocator; chaos
    /// harnesses pass a seed-derived base so a run is replayable.
    #[must_use]
    pub fn session_base(mut self, base: u64) -> SwarmBuilder {
        self.session_base = Some(base);
        self
    }

    /// Seed for the reconnect backoff jitter in resilient mode
    /// (default `0x5EED`).
    #[must_use]
    pub fn retry_seed(mut self, seed: u64) -> SwarmBuilder {
        self.retry_seed = seed;
        self
    }

    /// Additional cluster members a resilient lane may fail over to
    /// when its current server stops accepting connections (default
    /// none). Reconnect attempts rotate through the current address
    /// and these fallbacks; landing on a different member re-binds the
    /// lane's session there and re-sends its in-flight frames, and is
    /// tallied in [`SwarmReport::redirects`].
    #[must_use]
    pub fn fallback_addrs(mut self, addrs: Vec<std::net::SocketAddr>) -> SwarmBuilder {
        self.fallbacks = addrs;
        self
    }

    /// Connects the swarm and drives `workload` to exhaustion.
    ///
    /// `workload(conn, seq)` is called once per operation to issue —
    /// `conn` is the connection index it will ride, `seq` the global
    /// 0-based issue counter — and returns the `(pid, op)` to apply,
    /// or `None` to stop issuing (in-flight operations still drain).
    ///
    /// # Errors
    ///
    /// Connect/handshake failures and socket-level I/O errors abort
    /// the run; per-operation server errors do not (they are tallied
    /// in [`SwarmReport::ops_busy`] / [`SwarmReport::ops_err`]).
    pub fn run(
        self,
        addr: impl ToSocketAddrs,
        workload: impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<SwarmReport, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        Swarm::new(self, addr)?.drive(workload)
    }
}

/// What a [`Swarm`] run observed. Round trips are recorded for
/// successful operations only, so `rtt_ns.len() == ops_ok` always
/// holds — a latency distribution is only meaningful over the
/// operations that actually completed.
#[derive(Clone, Debug, Default)]
pub struct SwarmReport {
    /// Operations answered `Ok`.
    pub ops_ok: u64,
    /// Operations answered with retryable [`ErrorCode::Busy`]
    /// backpressure.
    pub ops_busy: u64,
    /// Operations answered with any other typed error.
    pub ops_err: u64,
    /// One round trip per `Ok` operation, in nanoseconds. Closed loop
    /// times from request queueing; open loop from the scheduled
    /// arrival. An operation that survived a reconnect keeps its
    /// original start stamp — the recovery time is real latency.
    pub rtt_ns: Vec<u64>,
    /// Wall-clock span from the first issue to the last response.
    pub elapsed: Duration,
    /// Successful lane reconnects in [`SwarmBuilder::resilient`] mode
    /// (always zero otherwise — a broken socket aborts instead).
    pub reconnects: u64,
    /// Reconnects that landed on a *different* server than the lane
    /// was using — failovers via [`SwarmBuilder::fallback_addrs`].
    pub redirects: u64,
}

impl SwarmReport {
    /// Total operations answered, of any outcome.
    pub fn ops_total(&self) -> u64 {
        self.ops_ok + self.ops_busy + self.ops_err
    }

    /// Achieved `Ok` throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops_ok as f64 / secs
        } else {
            0.0
        }
    }
}

/// One operation in flight on a lane.
struct InflightOp {
    /// The instant latency is measured from.
    started: Instant,
    /// `(trace_id, start on the trace clock)` for a traced apply.
    trace: Option<(u64, u64)>,
    /// The encoded request frame, kept only in resilient mode so the
    /// operation can be re-sent verbatim after a reconnect.
    frame: Vec<u8>,
}

/// Per-connection state inside the readiness loop.
struct Lane {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    next_id: u64,
    inflight: HashMap<u64, InflightOp>,
    write_armed: bool,
    /// On the swarm's `touched` list (freshly queued bytes to pump).
    dirty: bool,
    /// Session token this lane binds with `Resume` (resilient mode).
    token: u64,
    /// The server this lane is currently connected to (it may move in
    /// resilient mode when fallbacks are configured).
    addr: std::net::SocketAddr,
}

impl Lane {
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// The multiplexer itself; normally used through
/// [`SwarmBuilder::run`], which see.
pub struct Swarm {
    cfg: SwarmBuilder,
    poller: Poller,
    lanes: Vec<Lane>,
    report: SwarmReport,
    /// Next connection to receive an open-loop arrival.
    rr: usize,
    /// Global issue counter handed to the workload.
    seq: u64,
    /// Set once the workload returns `None`.
    done_issuing: bool,
    /// Lanes with freshly queued bytes, pumped once per loop turn —
    /// an O(touched) flush instead of an O(connections) scan.
    touched: Vec<usize>,
    /// The server address, kept for resilient-mode reconnects.
    addr: std::net::SocketAddr,
    /// Jitter source for reconnect backoff (resilient mode).
    rng: SplitMix64,
}

impl Swarm {
    /// Starts configuring a swarm.
    pub fn builder() -> SwarmBuilder {
        SwarmBuilder::default()
    }

    fn new(cfg: SwarmBuilder, addr: std::net::SocketAddr) -> Result<Swarm, ClientError> {
        let mut poller = Poller::new(cfg.backend).map_err(ClientError::Io)?;
        let session_base = if cfg.resilient {
            cfg.session_base
                .unwrap_or_else(|| alloc_tokens(cfg.connections as u64))
        } else {
            0
        };
        let mut lanes = Vec::with_capacity(cfg.connections);
        for conn in 0..cfg.connections {
            let token = session_base + conn as u64;
            let stream = dial(
                addr,
                cfg.nodelay,
                cfg.handshake || cfg.resilient,
                cfg.resilient.then_some((token, 0)),
            )?;
            poller.register(poll::raw_fd(&stream), conn as u64, Interest::READ)?;
            lanes.push(Lane {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                // Resilient lanes start at 1: `Resume { last_acked }`
                // prunes ids `<= last_acked`, so id 0 would be
                // indistinguishable from "nothing acked yet".
                next_id: u64::from(cfg.resilient),
                inflight: HashMap::new(),
                write_armed: false,
                dirty: false,
                token,
                addr,
            });
        }
        let retry_seed = cfg.retry_seed;
        Ok(Swarm {
            cfg,
            poller,
            lanes,
            report: SwarmReport::default(),
            rr: 0,
            seq: 0,
            done_issuing: false,
            touched: Vec::new(),
            addr,
            rng: SplitMix64::new(retry_seed),
        })
    }

    /// Queues one workload operation on lane `conn`, stamping its
    /// latency origin at `started`. Returns `false` once the workload
    /// is exhausted.
    fn issue(
        &mut self,
        conn: usize,
        started: Instant,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<bool, ClientError> {
        if self.done_issuing {
            return Ok(false);
        }
        let Some((pid, op)) = workload(conn, self.seq) else {
            self.done_issuing = true;
            return Ok(false);
        };
        self.seq += 1;
        let trace = self.cfg.trace.is_enabled().then(|| {
            let trace_id = next_trace_id();
            (trace_id, self.cfg.trace.now_ns())
        });
        let resilient = self.cfg.resilient;
        let lane = &mut self.lanes[conn];
        let req_id = lane.next_id;
        lane.next_id += 1;
        let req = match trace {
            Some((trace_id, _)) => Request::TracedApply {
                ctx: TraceContext {
                    trace_id,
                    span_id: req_id,
                },
                pid: pid as u32,
                op,
            },
            None => Request::Apply {
                pid: pid as u32,
                op,
            },
        };
        let mark = lane.wbuf.len();
        wire::encode_request(req_id, &req, &mut lane.wbuf)?;
        let frame = if resilient {
            lane.wbuf[mark..].to_vec()
        } else {
            Vec::new()
        };
        lane.inflight.insert(
            req_id,
            InflightOp {
                started,
                trace,
                frame,
            },
        );
        if !lane.dirty {
            lane.dirty = true;
            self.touched.push(conn);
        }
        Ok(true)
    }

    /// Flushes lane `conn`'s write buffer as far as the socket allows,
    /// arming or disarming write interest to match what is left.
    fn pump_write(&mut self, conn: usize) -> Result<(), ClientError> {
        let lane = &mut self.lanes[conn];
        while lane.wants_write() {
            match lane.stream.write(&lane.wbuf[lane.wpos..]) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    )))
                }
                Ok(n) => lane.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        if !lane.wants_write() {
            lane.wbuf.clear();
            lane.wpos = 0;
        }
        let want = lane.wants_write();
        if want != lane.write_armed {
            lane.write_armed = want;
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            self.poller
                .reregister(poll::raw_fd(&lane.stream), conn as u64, interest)?;
        }
        Ok(())
    }

    /// Reads everything the socket has, consumes complete response
    /// frames, and (in closed loop) refills the pipeline.
    fn pump_read(
        &mut self,
        conn: usize,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        let closed_loop = self.cfg.rate.is_none();
        loop {
            let lane = &mut self.lanes[conn];
            let old = lane.rbuf.len();
            lane.rbuf.resize(old + 64 * 1024, 0);
            let got = match lane.stream.read(&mut lane.rbuf[old..]) {
                Ok(0) => {
                    lane.rbuf.truncate(old);
                    if lane.inflight.is_empty() {
                        // Graceful close with nothing owed: fine.
                        return Ok(());
                    }
                    if self.cfg.resilient {
                        // An I/O-class error so `recover` reconnects.
                        return Err(ClientError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            format!(
                                "connection {conn} closed with {} in flight",
                                lane.inflight.len()
                            ),
                        )));
                    }
                    return Err(ClientError::Protocol(format!(
                        "server closed connection {conn} with {} in flight",
                        lane.inflight.len()
                    )));
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    lane.rbuf.truncate(old);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    lane.rbuf.truncate(old);
                    continue;
                }
                Err(e) => return Err(ClientError::Io(e)),
            };
            lane.rbuf.truncate(old + got);

            let mut at = 0;
            let mut refill = 0;
            let mut requeued = false;
            loop {
                let lane = &mut self.lanes[conn];
                match wire::split_frame(&lane.rbuf, at)? {
                    None => break,
                    Some(range) => {
                        at = range.end;
                        let (req_id, resp) = wire::decode_response_current(&lane.rbuf[range])?;
                        let Some(flight) = lane.inflight.remove(&req_id) else {
                            return Err(ClientError::Protocol(format!(
                                "response to unknown req_id {req_id} on connection {conn}"
                            )));
                        };
                        if let Some((trace_id, t0)) = flight.trace {
                            let dur = self.cfg.trace.now_ns().saturating_sub(t0);
                            self.cfg.trace.event_at(
                                t0,
                                Some(dur),
                                "client.apply",
                                [
                                    ("trace_id", TraceArg::U64(trace_id)),
                                    ("conn", TraceArg::U64(conn as u64)),
                                ],
                            );
                        }
                        let mut completed = true;
                        match resp {
                            Response::Ok(_) => {
                                self.report.ops_ok += 1;
                                self.report.rtt_ns.push(
                                    u64::try_from(flight.started.elapsed().as_nanos())
                                        .unwrap_or(u64::MAX),
                                );
                            }
                            Response::Err { code, .. }
                                if self.cfg.resilient && code.retry_in_place() =>
                            {
                                // Busy backpressure or a shed deadline:
                                // not applied yet (or still applying
                                // behind an in-flight marker). Re-send
                                // the same req_id — the session reply
                                // cache converges it to exactly one
                                // effect.
                                completed = false;
                                requeued = true;
                                let lane = &mut self.lanes[conn];
                                lane.wbuf.extend_from_slice(&flight.frame);
                                lane.inflight.insert(req_id, flight);
                            }
                            Response::Err {
                                code: ErrorCode::Busy,
                                ..
                            } => {
                                self.report.ops_busy += 1;
                            }
                            Response::Err { .. } => self.report.ops_err += 1,
                            other => {
                                return Err(ClientError::Protocol(format!(
                                    "non-value response to a swarm apply: {other:?}"
                                )))
                            }
                        }
                        if closed_loop && completed {
                            refill += 1;
                        }
                    }
                }
            }
            let lane = &mut self.lanes[conn];
            lane.rbuf.drain(..at);
            if requeued && !lane.dirty {
                lane.dirty = true;
                self.touched.push(conn);
            }
            for _ in 0..refill {
                if !self.issue(conn, Instant::now(), workload)? {
                    break;
                }
            }
        }
    }

    /// Resilient-mode error triage: transport failures trigger a
    /// reconnect-and-resume of just this lane; everything else (and
    /// every error outside resilient mode) aborts the run.
    fn recover(
        &mut self,
        conn: usize,
        err: ClientError,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        if !self.cfg.resilient || !reconnect_worthy(&err) {
            return Err(err);
        }
        self.reconnect_lane(conn, workload)
    }

    /// Tears down lane `conn`'s socket and rebuilds the session on a
    /// fresh one: backoff-paced connect, `Hello`, `Resume` acking
    /// everything below the oldest in-flight op, then a verbatim
    /// re-send of every in-flight frame (completed ones come back as
    /// replays from the server's reply cache). Closed loop tops the
    /// pipeline back up afterwards.
    fn reconnect_lane(
        &mut self,
        conn: usize,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        let token = self.lanes[conn].token;
        // Only ids at or above the oldest in-flight op may still need a
        // replay; everything below has been consumed.
        let last_acked = self.lanes[conn]
            .inflight
            .keys()
            .min()
            .map(|m| m - 1)
            .unwrap_or(self.lanes[conn].next_id - 1);
        self.poller
            .deregister(poll::raw_fd(&self.lanes[conn].stream))
            .ok();
        // Reconnect attempts rotate through the lane's current server
        // and every configured fallback, starting where the lane was —
        // a dead member stops absorbing attempts after one miss each
        // rotation, and a live one picks the session up via `Resume`.
        let prev = self.lanes[conn].addr;
        let mut candidates = vec![self.addr];
        candidates.extend(self.cfg.fallbacks.iter().copied());
        let start = candidates.iter().position(|a| *a == prev).unwrap_or(0);
        let mut attempt: u32 = 0;
        let (stream, chosen) = loop {
            let target = candidates[(start + attempt as usize) % candidates.len()];
            attempt += 1;
            match dial(target, self.cfg.nodelay, true, Some((token, last_acked))) {
                Ok(s) => break (s, target),
                Err(e) if attempt < 30 && reconnect_worthy(&e) => {
                    // Capped exponential backoff, jittered into the
                    // upper half — deterministic under `retry_seed`.
                    let full = (1_000_000u64 << (attempt - 1).min(6)).min(50_000_000);
                    let jit = full / 2 + self.rng.below(full / 2 + 1);
                    std::thread::sleep(Duration::from_nanos(jit));
                }
                Err(e) => return Err(e),
            }
        };
        self.poller
            .register(poll::raw_fd(&stream), conn as u64, Interest::READ)?;
        if chosen != prev {
            self.report.redirects += 1;
        }
        let lane = &mut self.lanes[conn];
        lane.addr = chosen;
        lane.stream = stream;
        lane.rbuf.clear();
        lane.wbuf.clear();
        lane.wpos = 0;
        lane.write_armed = false;
        let mut ids: Vec<u64> = lane.inflight.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let frame = lane.inflight[&id].frame.clone();
            lane.wbuf.extend_from_slice(&frame);
        }
        if !lane.dirty {
            lane.dirty = true;
            self.touched.push(conn);
        }
        self.report.reconnects += 1;
        // Closed loop: responses eaten by the dead socket never ran
        // their refill, which would shrink the pipeline for good.
        if self.cfg.rate.is_none() {
            while self.lanes[conn].inflight.len() < self.cfg.pipeline {
                if !self.issue(conn, Instant::now(), workload)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// The event loop: prime, then pace arrivals and pump sockets
    /// until the workload is exhausted and every response is in.
    fn drive(
        mut self,
        mut workload: impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<SwarmReport, ClientError> {
        let start = Instant::now();
        // Open-loop arrival clock: seconds per op across the swarm.
        let gap = self.cfg.rate.map(|r| Duration::from_secs_f64(1.0 / r));
        let mut next_arrival = start;

        if gap.is_none() {
            // Closed loop: prime every lane to its pipeline depth.
            'prime: for conn in 0..self.lanes.len() {
                for _ in 0..self.cfg.pipeline {
                    if !self.issue(conn, Instant::now(), &mut workload)? {
                        break 'prime;
                    }
                }
            }
        }

        let mut events: Vec<Event> = Vec::new();
        loop {
            // Open loop: issue every arrival whose scheduled time has
            // passed, charging latency from the schedule, not `now`.
            if let Some(gap) = gap {
                while !self.done_issuing && Instant::now() >= next_arrival {
                    let conn = self.rr;
                    self.rr = (self.rr + 1) % self.lanes.len();
                    if !self.issue(conn, next_arrival, &mut workload)? {
                        break;
                    }
                    next_arrival += gap;
                }
            }
            while let Some(conn) = self.touched.pop() {
                self.lanes[conn].dirty = false;
                if self.lanes[conn].wants_write() && !self.lanes[conn].write_armed {
                    if let Err(e) = self.pump_write(conn) {
                        self.recover(conn, e, &mut workload)?;
                    }
                }
            }

            let inflight: usize = self.lanes.iter().map(|l| l.inflight.len()).sum();
            if self.done_issuing && inflight == 0 {
                break;
            }

            let timeout = match gap {
                // Sleep until the next arrival or a response, but at
                // least 1 ms: an arrival already due waits for the next
                // response event and goes out in the batch it wakes,
                // rather than the generator spinning on zero-timeout
                // polls and taking the CPU the server shares with it.
                Some(_) if !self.done_issuing => Some(
                    next_arrival
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1)),
                ),
                _ => Some(Duration::from_millis(50)),
            };
            self.poller.wait(&mut events, timeout)?;
            let ready = std::mem::take(&mut events);
            for ev in &ready {
                let conn = ev.token as usize;
                if conn >= self.lanes.len() {
                    continue;
                }
                if ev.readable || ev.error {
                    if let Err(e) = self.pump_read(conn, &mut workload) {
                        self.recover(conn, e, &mut workload)?;
                    }
                }
                if ev.writable {
                    if let Err(e) = self.pump_write(conn) {
                        self.recover(conn, e, &mut workload)?;
                    }
                }
            }
            events = ready;
        }

        self.report.elapsed = start.elapsed();
        debug_assert_eq!(self.report.rtt_ns.len() as u64, self.report.ops_ok);
        Ok(self.report)
    }
}

/// Connects a lane's socket and runs its blocking set-up — `Hello`
/// if `hello`, `Resume { token, last_acked }` if `resume` — each step
/// bounded by [`DIAL_TIMEOUT`]; returns the socket nonblocking.
fn dial(
    addr: std::net::SocketAddr,
    nodelay: bool,
    hello: bool,
    resume_from: Option<(u64, u64)>,
) -> Result<TcpStream, ClientError> {
    let mut stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
    stream.set_read_timeout(Some(DIAL_TIMEOUT))?;
    stream.set_write_timeout(Some(DIAL_TIMEOUT))?;
    if nodelay {
        stream.set_nodelay(true)?;
    }
    if hello {
        handshake(&mut stream)?;
    }
    if let Some((token, last_acked)) = resume_from {
        resume(&mut stream, token, last_acked)?;
    }
    poll::set_nonblocking(&stream)?;
    Ok(stream)
}

/// Blocking `Hello` exchange on a fresh socket, before it goes
/// nonblocking.
fn handshake(stream: &mut TcpStream) -> Result<(), ClientError> {
    let mut buf = Vec::new();
    wire::encode_request(
        0,
        &Request::Hello {
            version: wire::VERSION,
        },
        &mut buf,
    )?;
    stream.write_all(&buf)?;
    stream.flush()?;
    buf.clear();
    if !wire::read_frame(stream, &mut buf)? {
        return Err(ClientError::Protocol(
            "server closed during version negotiation".into(),
        ));
    }
    let (req_id, resp) = wire::decode_response_current(&buf)?;
    if req_id != 0 {
        return Err(ClientError::Protocol(format!(
            "handshake response carried req_id {req_id}, expected 0"
        )));
    }
    match resp {
        Response::Hello { version } if version == wire::VERSION => Ok(()),
        Response::Hello { version } => Err(ClientError::Protocol(format!(
            "server accepted version {version}, we speak {}",
            wire::VERSION
        ))),
        Response::Err { code, message } => Err(ClientError::Server { code, message }),
        other => Err(ClientError::Protocol(format!(
            "non-hello response to a hello: {other:?}"
        ))),
    }
}

/// Blocking `Resume` exchange binding `token` to a fresh socket,
/// before it goes nonblocking. Uses a `req_id` far outside the lane's
/// monotonic operation ids.
fn resume(stream: &mut TcpStream, token: u64, last_acked: u64) -> Result<(), ClientError> {
    const RESUME_REQ_ID: u64 = u64::MAX - 1;
    let mut buf = Vec::new();
    wire::encode_request(
        RESUME_REQ_ID,
        &Request::Resume { token, last_acked },
        &mut buf,
    )?;
    stream.write_all(&buf)?;
    stream.flush()?;
    buf.clear();
    if !wire::read_frame(stream, &mut buf)? {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed during session resumption",
        )));
    }
    let (req_id, resp) = wire::decode_response_current(&buf)?;
    if req_id != RESUME_REQ_ID {
        return Err(ClientError::Protocol(format!(
            "resume response carried req_id {req_id}, expected {RESUME_REQ_ID}"
        )));
    }
    match resp {
        Response::Resumed { token: t, .. } if t == token => Ok(()),
        Response::Resumed { token: t, .. } => Err(ClientError::Protocol(format!(
            "server resumed session {t}, we bound {token}"
        ))),
        Response::Err { code, message } => Err(ClientError::Server { code, message }),
        other => Err(ClientError::Protocol(format!(
            "non-resumed response to a resume: {other:?}"
        ))),
    }
}
