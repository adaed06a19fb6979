//! The shard-per-core event loop: nonblocking sockets, readiness
//! polling, inline same-shard applies, and bounded cross-loop routing.
//!
//! # Topology
//!
//! ```text
//! acceptor ──round-robin NewConn──▶ Inbox ─▶ event loop 0 ◀──Xfer/Reply──▶ Inbox ─▶ event loop 1 …
//!                                               │    └──try_lock while 1 is parked──▶ ShardLock 1
//!                                 owns: conns (Slab) + Shard + Poller + Arena
//! ```
//!
//! One loop per shard. Each loop owns *both* a slice of the
//! connections and the shard of objects whose ids land on it
//! (`id % nloops == index`), so the common case — a request arriving
//! on the loop that owns its object — is applied inline between a
//! `read` and a `write` with no queue and no thread handoff.
//!
//! A cross-shard request goes one of two ways. While its owner is
//! parked, the owner's [`Shard`] sits in the [`ShardLock`] of its
//! [`LoopHandle`], and the arriving loop *borrows* it: it applies the
//! request itself, under one uncontended lock, instead of paying two
//! thread wakeups for a round trip through a sleeping owner. It
//! borrows only when all of these hold:
//!
//! - the owner is parked ([`Inbox::is_parked`]);
//! - a `try_lock` on the owner's shard succeeds — a loop never blocks
//!   on a peer's shard, so no lock order with the routing lock can
//!   deadlock;
//! - the connection has no forwarded request outstanding;
//! - the owner's inbox is not closed.
//!
//! Otherwise the request travels to the owner loop's [`Inbox`] as
//! bounded work ([`Msg::Xfer`]); the owner applies it in its next turn,
//! batched with whatever else that turn does, and routes the reply back
//! into the origin loop's inbox ([`Msg::Reply`]). Either way the origin
//! loop is the **single writer** for its sockets, so responses never
//! interleave mid-frame.
//!
//! Own-shard, borrowed and forwarded work all run the same apply site,
//! [`run_work`]: deadline shed, routing check, apply, session outcome.
//! Per-connection order holds because a connection's frames are parsed
//! in order, a borrowed apply completes before the next frame is
//! parsed, and a forwarded one stops its connection from borrowing
//! until its reply is consumed, so nothing later can overtake it. The
//! migration detach barrier holds because every apply, whichever
//! thread runs it, checks the routing table under a guard held across
//! the apply itself.
//!
//! # Batching and wakeups
//!
//! Responses are staged into per-connection write buffers and flushed
//! once per readiness turn (or when a buffer passes the high-water
//! mark), so a pipelined client's burst of `n` requests costs one
//! `write` syscall, not `n`. The per-loop `server.loop<i>.flush_batch`
//! histogram records frames-per-flush; `server.loop<i>.wakeups` counts
//! turns.
//!
//! Waking a peer costs a syscall only when the peer is asleep. Before
//! each wait a loop *parks* ([`Inbox::park`]: set the flag, `SeqCst`
//! fence, re-check the inbox, and — unless a drain is already under
//! way — the shutdown flag); it blocks only if both are clear and
//! otherwise polls without blocking. A producer pushes, then notifies:
//! it swaps the flag off and writes the loop's self-pipe only if it
//! was on. A loop notifies each peer it pushed to once, at the end of
//! its turn, so the peer wakes to the turn's whole batch. A busy loop
//! is therefore fed with no pipe traffic at all, and no push can be
//! stranded behind a sleeping loop whatever order a turn drains its
//! inbox and its pipe in (see [`crate::inbox`] and the model-checked
//! handshake in `tests/wake_handshake.rs`).
//!
//! Hot counters stay loop-local: the `requests`/`responses` totals are
//! committed to the shared [`StatCells`] before any flush (so every
//! response a client can have seen is counted, and `ServerStats` is
//! exact at quiescence), and each loop's count of forwarded-but-
//! unanswered transfers lives in a cache-padded cell only that loop
//! writes.
//!
//! # Observability
//!
//! Independently of the opt-in telemetry registry, every loop feeds an
//! always-on [`LoopProbe`](crate::introspect::LoopProbe) — plain
//! histograms of apply/turn/flush cost plus the flight recorder of
//! recent requests — which [`Request::Introspect`] serializes for any
//! v2 client, and which is spilled to stderr if the loop thread
//! panics. The request path only pushes into a loop-local
//! [`ProbeScratch`]; the batch is committed to the shared probe once
//! per turn, so the probe mutex is taken at turn frequency. Requests carrying a [`TraceContext`] additionally record a
//! `server.apply` span on the *owning* loop's trace track (the span
//! lands where the work ran, not where the bytes arrived), so merged
//! client+server Chrome traces attribute each request's server time to
//! a shard.
//!
//! # Drain
//!
//! Shutdown raises a flag and wakes every loop. Loops keep answering
//! (`ShuttingDown` for new work), finish queued transfers, flush
//! write buffers, and exit when every loop's in-flight count is zero
//! — bounded by [`DRAIN_DEADLINE`] so a stuck peer socket cannot wedge
//! the process.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bso_objects::{Op, Value};
use bso_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::arena::{Arena, Slab};
use crate::inbox::{Inbox, RouteError};
use crate::introspect::{self, IntrospectState, ProbeScratch};
use crate::poll::{self, Interest, Poller, WakeReader, Waker};
use crate::routing::RouteControl;
use crate::session::{Begin, ResumeTable};
use crate::shard::{Shard, ShardLock};
use crate::wire::{self, ErrorCode, Request, Response, TraceContext};

/// Why a loop can count on holding its shard: it takes it back before
/// every turn and lends it out only while parked.
const RUNNING: &str = "the running loop holds its shard";
/// Poller token reserved for the loop's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Poll timeout while draining (loops re-check exit conditions).
const DRAIN_POLL: Duration = Duration::from_millis(2);
/// Hard ceiling on the drain before sockets are closed regardless.
pub(crate) const DRAIN_DEADLINE: Duration = Duration::from_secs(2);
/// A write buffer past this many bytes is flushed mid-turn instead of
/// waiting for the end of the readiness turn.
const FLUSH_HIGH_WATER: usize = 1 << 20;
/// Per-connection, per-turn read budget in multiples of the chunk
/// size; level-triggered polling re-reports leftover kernel data, so
/// a firehose connection cannot starve its siblings on the same loop.
const READ_BUDGET_CHUNKS: usize = 4;

/// Everything other threads hand an event loop, through its [`Inbox`].
pub(crate) enum Msg {
    /// A freshly accepted socket this loop now owns (an obligation).
    NewConn(TcpStream),
    /// The answer to a cross-loop [`Xfer`] (an obligation), addressed
    /// by slot + generation so a recycled slot cannot receive a dead
    /// connection's reply.
    Reply {
        conn: u32,
        gen: u32,
        req_id: u64,
        resp: Response,
    },
    /// Shard work forwarded by a peer loop (bounded by the inbox
    /// capacity).
    Xfer(Xfer),
}

/// Shard work: what runs at the apply site ([`run_work`]), on the
/// owning loop, on a borrowing peer, or carried by a transfer.
pub(crate) enum Work {
    Apply {
        pid: usize,
        op: Op,
        /// Carried so a traced apply's span lands on the owner loop's
        /// trace track, not the origin's.
        trace: Option<TraceContext>,
    },
    OpenElection {
        session: u32,
        k: usize,
    },
    Elect {
        session: u32,
        pid: usize,
    },
    /// Cluster-plane migration ops (`ExportObject` &c.): routed to the
    /// owning loop like applies, but they skip session admission and
    /// the routing ownership check — an export legitimately runs
    /// *after* its range was detached, an install *before* the table
    /// hands the range over.
    ExportObject {
        obj: usize,
    },
    InstallObject {
        obj: usize,
        state: Value,
    },
    ExportSession {
        session: u32,
    },
    InstallSession {
        session: u32,
        k: usize,
        state: Value,
    },
}

impl Job {
    fn new(req_id: u64, sess: Option<u64>, deadline: Option<Instant>, work: Work) -> Job {
        Job {
            req_id,
            deadline,
            sess,
            work,
        }
    }
}

impl Work {
    /// The object or session id whose owner runs this work
    /// (`key % nloops`).
    fn key(&self) -> usize {
        match self {
            Work::Apply { op, .. } => op.obj.0,
            Work::ExportObject { obj } | Work::InstallObject { obj, .. } => *obj,
            Work::OpenElection { session, .. }
            | Work::Elect { session, .. }
            | Work::ExportSession { session }
            | Work::InstallSession { session, .. } => *session as usize,
        }
    }
}

/// One request's shard work plus what its apply site needs to answer
/// it.
pub(crate) struct Job {
    req_id: u64,
    /// Freshness bound from a [`Request::DeadlineApply`]: the apply
    /// site sheds the work (typed [`ErrorCode::Expired`], never
    /// applied) if it reaches it past this instant.
    deadline: Option<Instant>,
    /// Resumable-session token of the issuing connection, if bound.
    /// The apply site records the outcome against `(sess, req_id)`, so
    /// a response that never reaches its (possibly dead) origin
    /// connection is still replayable to the retry.
    sess: Option<u64>,
    work: Work,
}

/// A job forwarded to the loop that owns its object/session.
pub(crate) struct Xfer {
    origin: usize,
    conn: u32,
    gen: u32,
    /// When the transfer was enqueued — the flight recorder reports
    /// the queue wait it implies.
    queued: Instant,
    job: Job,
}

/// Keeps a value on a cache line (pair) of its own.
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

/// One loop's shared-facing surface: its inbox, its shard (in its lock
/// while the loop is parked), and its count of forwarded-but-unanswered
/// transfers.
pub(crate) struct LoopHandle {
    pub(crate) inbox: Inbox<Msg>,
    pub(crate) shard: ShardLock,
    /// Transfers this loop forwarded whose replies it has not yet
    /// consumed (or recognized as stale). Only this loop writes it;
    /// drain completion requires every loop's cell to read zero, so no
    /// queued request is silently dropped during shutdown.
    inflight: Padded<AtomicI64>,
}

impl LoopHandle {
    pub(crate) fn new(capacity: usize, depth: Gauge, waker: Waker, shard: Shard) -> LoopHandle {
        LoopHandle {
            inbox: Inbox::new(capacity, depth, waker),
            shard: ShardLock::new(shard),
            inflight: Padded::default(),
        }
    }
}

/// Exact lifetime totals, tracked by plain atomics (independently
/// mirrored into telemetry counters) so they are right even when
/// telemetry is disabled.
#[derive(Default)]
pub(crate) struct StatCells {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) responses: AtomicU64,
    pub(crate) busy: AtomicU64,
    pub(crate) malformed: AtomicU64,
    pub(crate) version_rejects: AtomicU64,
    /// Deadline-carrying ops refused with [`ErrorCode::Expired`]
    /// because their freshness budget ran out before the apply.
    pub(crate) shed: AtomicU64,
    /// [`Request::Resume`] bindings served.
    pub(crate) resumes: AtomicU64,
    /// Retried requests answered from a session's reply cache instead
    /// of being applied again.
    pub(crate) replays: AtomicU64,
    /// Applies refused with [`ErrorCode::WrongShard`] because the
    /// routing table does not place the object here (never applied).
    pub(crate) wrong_shard: AtomicU64,
}

/// State shared between the acceptor, the event loops, and the handle.
pub(crate) struct Shared {
    pub(crate) loops: Vec<LoopHandle>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) next_session: AtomicU32,
    pub(crate) stats: StatCells,
    /// Always-on introspection: bind-time config plus one probe (plain
    /// histograms + flight recorder) per loop.
    pub(crate) introspect: IntrospectState,
    /// Resumable-session reply caches (exactly-once retries). Shared
    /// across loops because a reconnected client may land anywhere.
    pub(crate) sessions: ResumeTable,
    /// The cluster routing view: which object-id ranges this server
    /// serves, behind the read-across-apply lock that makes migration
    /// drains a barrier (see `routing.rs`). Disabled (serve
    /// everything, no locking) until the first table install.
    pub(crate) route: RouteControl,
}

/// What a parsed frame did to its connection.
enum FrameOutcome {
    /// Keep parsing.
    Next,
    /// Stop reading; flush what is owed, then close (version reject,
    /// peer EOF).
    CloseGraceful,
    /// Stop immediately; the stream cannot be trusted (malformed).
    CloseHard,
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Read buffer. Its length only grows (so reads never re-zero
    /// it); the input lives in `rbuf[..rlen]`.
    rbuf: Vec<u8>,
    /// Bytes read but not yet parsed into frames.
    rlen: usize,
    wbuf: Vec<u8>,
    /// Flush offset into `wbuf` (bytes before it are already written).
    wpos: usize,
    /// Whether the poller currently watches for writability.
    write_armed: bool,
    /// Replies owed by other loops; a graceful close waits for them.
    inflight_remote: u32,
    /// Close once `wbuf` is flushed and `inflight_remote` is zero.
    closing: bool,
    /// Wire version responses are framed at (negotiated via `Hello`).
    version: u8,
    /// Resumable-session token this connection bound via
    /// [`Request::Resume`]; effectful requests then pass through the
    /// shared [`ResumeTable`] for exactly-once retry semantics.
    session: Option<u64>,
    /// Responses staged since the last completed flush.
    batch: u64,
    /// Already on this turn's touched list.
    touched: bool,
}

/// One shard's event loop. Constructed on the binding thread, then
/// moved into its own thread where [`EventLoop::run`] takes over.
pub(crate) struct EventLoop {
    index: usize,
    nloops: usize,
    poller: Poller,
    wake: WakeReader,
    conns: Slab<Conn>,
    /// This loop's shard while it runs a turn; back in its
    /// [`ShardLock`] (and borrowable) while the loop is parked.
    shard: Option<Box<Shard>>,
    arena: Arena,
    shared: Arc<Shared>,
    read_chunk: usize,
    pin_cores: bool,
    // Telemetry mirrors of the StatCells counters, plus loop-local
    // instruments.
    registry: Registry,
    requests: Counter,
    responses: Counter,
    busy: Counter,
    malformed: Counter,
    version_rejects: Counter,
    shed: Counter,
    resumes: Counter,
    replays: Counter,
    wrong_shard: Counter,
    wakeups: Counter,
    forwarded: Counter,
    borrowed: Counter,
    conns_gauge: Gauge,
    /// Created on first completed flush, so loops that never serve a
    /// connection don't leave an empty histogram in the snapshot.
    flush_batch: Option<Histogram>,
    /// Loop-local probe buffer, committed to the shared
    /// [`LoopProbe`](crate::introspect::LoopProbe) once per turn.
    probe: ProbeScratch,
    /// Requests/responses counted since the last commit to
    /// [`StatCells`] (see [`EventLoop::commit_counts`]).
    uncommitted_requests: u64,
    uncommitted_responses: u64,
    /// This loop's forwarded-but-unanswered transfers; mirrored into
    /// its [`LoopHandle`] cell on every change.
    inflight: i64,
    /// Peers this turn pushed to, owed an [`Inbox::notify`] at its
    /// end: a peer wakes once to the turn's whole batch.
    owed_notify: Vec<bool>,
    // Scratch reused across turns.
    events: Vec<poll::Event>,
    mail: Vec<Msg>,
    touched: Vec<u32>,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: usize,
        nloops: usize,
        poller: Poller,
        wake: WakeReader,
        shared: Arc<Shared>,
        registry: &Registry,
        read_chunk: usize,
        pin_cores: bool,
    ) -> EventLoop {
        EventLoop {
            index,
            nloops,
            poller,
            wake,
            conns: Slab::new(),
            shard: None,
            arena: Arena::new(
                read_chunk,
                64,
                registry.gauge(&format!("server.loop{index}.arena_buffers")),
            ),
            shared,
            read_chunk: read_chunk.max(1024),
            pin_cores,
            registry: registry.clone(),
            requests: registry.counter("server.requests"),
            responses: registry.counter("server.responses"),
            busy: registry.counter("server.busy"),
            malformed: registry.counter("server.malformed"),
            version_rejects: registry.counter("server.version_rejects"),
            shed: registry.counter("server.shed"),
            resumes: registry.counter("server.resumes"),
            replays: registry.counter("server.replays"),
            wrong_shard: registry.counter("server.wrong_shard"),
            wakeups: registry.counter(&format!("server.loop{index}.wakeups")),
            forwarded: registry.counter(&format!("server.loop{index}.forwarded")),
            borrowed: registry.counter(&format!("server.loop{index}.borrowed")),
            conns_gauge: registry.gauge(&format!("server.loop{index}.conns")),
            flush_batch: None,
            probe: ProbeScratch::default(),
            uncommitted_requests: 0,
            uncommitted_responses: 0,
            inflight: 0,
            owed_notify: vec![false; nloops],
            events: Vec::with_capacity(256),
            mail: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The loop body. Returns when the server has drained.
    pub(crate) fn run(mut self) {
        if self.pin_cores {
            let _ = poll::pin_to_core(self.index % poll::num_cpus());
        }
        // If this loop's thread panics, its flight recorder is the
        // black box: spill it to stderr on the way down.
        let _flight_guard = FlightDumpGuard {
            shared: Arc::clone(&self.shared),
            index: self.index,
        };
        self.poller
            .register(self.wake.raw_fd(), WAKE_TOKEN, Interest::READ)
            .expect("register wake pipe");
        let shared = Arc::clone(&self.shared);
        let me = &shared.loops[self.index];
        self.shard = Some(me.shard.take());
        let mut drain_started: Option<Instant> = None;
        loop {
            if drain_started.is_none() && self.shared.shutdown.load(Ordering::Acquire) {
                drain_started = Some(Instant::now());
            }
            // Leave the shard for peers to borrow *before* parking: a
            // parked loop never holds it.
            me.shard.put(self.shard.take().expect(RUNNING));
            // Park, then block only if neither the inbox nor (outside a
            // drain) the shutdown flag has news; any push after the
            // park writes the pipe. A drain keeps its bounded poll
            // rather than spinning on the flag it already saw.
            let timeout = if !me.inbox.park() {
                Some(Duration::ZERO)
            } else if drain_started.is_some() {
                Some(DRAIN_POLL)
            } else if self.shared.shutdown.load(Ordering::SeqCst) {
                Some(Duration::ZERO)
            } else {
                None
            };
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                debug_assert!(false, "poller wait failed: {e}");
            }
            me.inbox.unpark();
            // Waits out a peer's borrow (one apply at most).
            self.shard = Some(me.shard.take());
            // Turn time measures the work between poll returns, not
            // the idle wait itself.
            let turn_start = Instant::now();
            self.wakeups.inc();
            self.drain_inbox();
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.wake.drain();
                    continue;
                }
                let slot = ev.token as u32;
                if ev.readable || ev.error {
                    self.read_conn(slot);
                }
                if ev.writable {
                    self.flush_conn(slot);
                }
            }
            self.events = events;
            self.flush_touched();
            self.commit_counts();
            // Commit before notifying peers: a loop woken by our
            // transfer replies then observes this turn's records as
            // committed.
            self.shared.introspect.commit_turn(
                self.index,
                &mut self.probe,
                u64::try_from(turn_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                self.conns.len(),
            );
            self.notify_peers();
            if let Some(since) = drain_started {
                if self.drained(since) {
                    break;
                }
            }
        }
        self.teardown();
    }

    // ------------------------------------------------------------ inbound

    fn drain_inbox(&mut self) {
        let mut mail = std::mem::take(&mut self.mail);
        self.shared.loops[self.index].inbox.drain_into(&mut mail);
        for m in mail.drain(..) {
            match m {
                Msg::NewConn(stream) => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        drop(stream); // accepted during shutdown: refuse
                    } else {
                        self.adopt(stream);
                    }
                }
                Msg::Reply {
                    conn,
                    gen,
                    req_id,
                    resp,
                } => self.settle_remote(conn, gen, req_id, &resp),
                Msg::Xfer(x) => self.serve_xfer(x),
            }
        }
        self.mail = mail;
    }

    /// Consumes the reply to one of this loop's transfers: the
    /// transfer is no longer in flight, and the reply is staged if its
    /// connection is still the one that asked.
    fn settle_remote(&mut self, conn: u32, gen: u32, req_id: u64, resp: &Response) {
        self.add_inflight(-1);
        // If the connection died in the meantime the reply is moot.
        if let Some(c) = self.conns.get_mut_gen(conn, gen) {
            c.inflight_remote = c.inflight_remote.saturating_sub(1);
            self.respond(conn, req_id, resp);
        }
    }

    fn add_inflight(&mut self, delta: i64) {
        self.inflight += delta;
        self.shared.loops[self.index]
            .inflight
            .0
            .store(self.inflight, Ordering::Release);
    }

    fn adopt(&mut self, stream: TcpStream) {
        let _ = poll::set_nonblocking(&stream);
        let fd = poll::raw_fd(&stream);
        let rbuf = self.arena.get();
        let wbuf = self.arena.get();
        let (slot, gen) = self.conns.insert(Conn {
            stream,
            gen: 0,
            rbuf,
            rlen: 0,
            wbuf,
            wpos: 0,
            write_armed: false,
            inflight_remote: 0,
            closing: false,
            version: wire::VERSION,
            session: None,
            batch: 0,
            touched: false,
        });
        let c = self.conns.get_mut(slot).expect("just inserted");
        c.gen = gen;
        if self
            .poller
            .register(fd, u64::from(slot), Interest::READ)
            .is_err()
        {
            let c = self.conns.remove(slot).expect("just inserted");
            self.arena.put(c.rbuf);
            self.arena.put(c.wbuf);
        }
        self.conns_gauge.set(self.conns.len() as u64);
    }

    /// Applies a transfer forwarded by a peer and routes the answer
    /// back to its origin loop.
    fn serve_xfer(&mut self, x: Xfer) {
        let queue_ns = u64::try_from(x.queued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let req_id = x.job.req_id;
        let shard = self.shard.as_deref_mut().expect(RUNNING);
        let done = run_work(shard, &self.shared, x.job, queue_ns);
        // batch 0: the reply is staged by the origin loop, so this loop
        // cannot know its flush position.
        self.note(self.index, &done, queue_ns, 0);
        if x.origin == self.index {
            // Never produced by `dispatch` (own-shard work runs inline),
            // but harmless to answer locally.
            self.settle_remote(x.conn, x.gen, req_id, &done.resp);
        } else {
            self.shared.loops[x.origin].inbox.push(Msg::Reply {
                conn: x.conn,
                gen: x.gen,
                req_id,
                resp: done.resp,
            });
            self.owed_notify[x.origin] = true;
        }
    }

    // ------------------------------------------------------------- reading

    fn read_conn(&mut self, slot: u32) {
        let Some(c) = self.conns.get_mut(slot) else {
            return;
        };
        if c.closing {
            return; // already winding down; ignore further input
        }
        let mut rbuf = std::mem::take(&mut c.rbuf);
        let mut rlen = c.rlen;
        let mut rpos = 0;
        let mut budget = self.read_chunk * READ_BUDGET_CHUNKS;
        let mut outcome = FrameOutcome::Next;
        // A short read means the kernel buffer is empty: stop there
        // instead of paying for a `read` that only returns `EAGAIN`
        // (polling is level-triggered, so later bytes re-report).
        let mut short_read = false;
        'turn: while budget > 0 && !short_read {
            let want = self.read_chunk.min(budget);
            // Grow (zeroing) only past what earlier reads initialized;
            // the buffer keeps its length between reads.
            if rbuf.len() < rlen + want {
                rbuf.resize(rlen + want, 0);
            }
            let Some(c) = self.conns.get_mut(slot) else {
                break;
            };
            match c.stream.read(&mut rbuf[rlen..rlen + want]) {
                Ok(0) => {
                    outcome = FrameOutcome::CloseGraceful;
                    break;
                }
                Ok(n) => {
                    rlen += n;
                    budget -= n;
                    short_read = n < want;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome = FrameOutcome::CloseHard;
                    break;
                }
            }
            // Parse every complete frame buffered so far: deferring
            // parsed-but-unhandled bytes would lose them (the poller
            // only re-reports *kernel*-buffered data).
            loop {
                match wire::split_frame(&rbuf[..rlen], rpos) {
                    Ok(Some(range)) => {
                        rpos = range.end;
                        match self.handle_frame(slot, &rbuf[range]) {
                            FrameOutcome::Next => {}
                            other => {
                                outcome = other;
                                break 'turn;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.note_malformed();
                        outcome = FrameOutcome::CloseHard;
                        break 'turn;
                    }
                }
            }
        }
        // Move the unparsed tail to the front and hand the buffer back.
        rbuf.copy_within(rpos..rlen, 0);
        rlen -= rpos;
        if let Some(c) = self.conns.get_mut(slot) {
            c.rbuf = rbuf;
            c.rlen = rlen;
        }
        match outcome {
            FrameOutcome::Next => {}
            FrameOutcome::CloseGraceful => self.begin_close(slot),
            FrameOutcome::CloseHard => self.close_conn(slot),
        }
    }

    fn handle_frame(&mut self, slot: u32, body: &[u8]) -> FrameOutcome {
        self.uncommitted_requests += 1;
        let spoken = wire::peek_version(body).unwrap_or(0);
        let (req_id, req) = match wire::decode_request(body) {
            Ok(x) => x,
            Err(wire::WireError::BadVersion(v)) => {
                // A version we cannot even decode (v0, or newer than
                // ours): typed rejection framed at our version —
                // best effort, since we cannot know the peer's layout.
                let req_id = wire::peek_req_id(body).unwrap_or(0);
                self.note_version_reject();
                self.respond(
                    slot,
                    req_id,
                    &Response::Err {
                        code: ErrorCode::Version,
                        message: format!(
                            "unsupported wire version {v}; server speaks {}",
                            wire::SCHEMA
                        ),
                    },
                );
                return FrameOutcome::CloseGraceful;
            }
            Err(_) => {
                self.note_malformed();
                return FrameOutcome::CloseHard;
            }
        };
        if let Request::Hello { version: proposed } = req {
            return self.handle_hello(slot, req_id, proposed);
        }
        if spoken != wire::VERSION {
            // Decodable (v1) but unserved: reject with a typed error
            // framed *at the client's version* so the client parses
            // its own rejection instead of seeing a malformed kill.
            self.note_version_reject();
            if let Some(c) = self.conns.get_mut(slot) {
                c.version = spoken;
            }
            self.respond(
                slot,
                req_id,
                &Response::Err {
                    code: ErrorCode::Version,
                    message: format!("server speaks {}; send Hello to negotiate", wire::SCHEMA),
                },
            );
            return FrameOutcome::CloseGraceful;
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.respond(
                slot,
                req_id,
                &Response::Err {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".into(),
                },
            );
            return FrameOutcome::Next;
        }
        match req {
            Request::Hello { .. } => unreachable!("handled above"),
            Request::Ping => self.respond(slot, req_id, &Response::Ok(Value::Nil)),
            Request::Introspect => {
                self.commit_counts();
                let json = introspect::introspect_doc(&self.shared).render();
                self.respond(slot, req_id, &Response::Introspect(json));
            }
            Request::Resume { token, last_acked } => {
                match self.shared.sessions.resume(token, last_acked) {
                    Ok(cached) => {
                        if let Some(c) = self.conns.get_mut(slot) {
                            c.session = Some(token);
                        }
                        self.note_resume();
                        self.respond(slot, req_id, &Response::Resumed { token, cached });
                    }
                    Err(code) => self.respond(
                        slot,
                        req_id,
                        &Response::Err {
                            code,
                            message: "session table at capacity; reconnect and retry".into(),
                        },
                    ),
                }
            }
            Request::Apply { pid, op } => self.serve_apply(slot, req_id, pid, op, None, None),
            Request::TracedApply { ctx, pid, op } => {
                self.serve_apply(slot, req_id, pid, op, Some(ctx), None)
            }
            Request::DeadlineApply { budget_us, pid, op } => {
                let deadline = Instant::now() + Duration::from_micros(u64::from(budget_us));
                self.serve_apply(slot, req_id, pid, op, None, Some(deadline));
            }
            Request::OpenElection { k } => {
                // Session admission *before* the session-id allocation:
                // a replayed OpenElection must return its original id,
                // not mint (and orphan) a second election.
                if let Ok(sess) = self.admit(slot, req_id) {
                    let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
                    let work = Work::OpenElection {
                        session,
                        k: k as usize,
                    };
                    self.dispatch(slot, Job::new(req_id, sess, None, work));
                }
            }
            Request::Elect { session, pid } => {
                if let Ok(sess) = self.admit(slot, req_id) {
                    let work = Work::Elect {
                        session,
                        pid: pid as usize,
                    };
                    self.dispatch(slot, Job::new(req_id, sess, None, work));
                }
            }
            // Cluster-plane requests (coordinator traffic, not client
            // effects): no session admission, no routing check. Table
            // edits answer inline on the arriving loop; object/session
            // transfers route to the owning shard like applies.
            Request::FetchRouting => {
                let (epoch, table) = self.shared.route.snapshot();
                self.respond(slot, req_id, &Response::Routing { epoch, table });
            }
            Request::UpdateRouting {
                epoch,
                ranges,
                table,
            } => {
                let resp = match self.shared.route.update(epoch, ranges, table) {
                    Ok(()) => Response::Ok(Value::Nil),
                    Err(installed) => Response::Err {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "stale routing update: epoch {epoch} <= installed epoch {installed}"
                        ),
                    },
                };
                self.respond(slot, req_id, &resp);
            }
            Request::DetachRanges { epoch, ranges } => {
                let resp = match self.shared.route.detach(epoch, &ranges) {
                    Ok(()) => Response::Ok(Value::Nil),
                    Err(installed) => Response::Err {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "stale detach: epoch {epoch} <= installed epoch {installed}"
                        ),
                    },
                };
                self.respond(slot, req_id, &resp);
            }
            Request::ExportObject { obj } => {
                let work = Work::ExportObject { obj: obj as usize };
                self.dispatch(slot, Job::new(req_id, None, None, work));
            }
            Request::InstallObject { obj, state } => {
                let work = Work::InstallObject {
                    obj: obj as usize,
                    state,
                };
                self.dispatch(slot, Job::new(req_id, None, None, work));
            }
            Request::ExportSession { session } => {
                let work = Work::ExportSession { session };
                self.dispatch(slot, Job::new(req_id, None, None, work));
            }
            Request::InstallSession { session, k, state } => {
                let work = Work::InstallSession {
                    session,
                    k: k as usize,
                    state,
                };
                self.dispatch(slot, Job::new(req_id, None, None, work));
            }
        }
        FrameOutcome::Next
    }

    /// Session admission for an effectful request. `Ok(None)`: the
    /// connection is unbound, serve normally. `Ok(Some(token))`: a
    /// fresh `Pending` marker is installed — the apply site must settle
    /// it. `Err(())`: the request was already answered here (replayed
    /// from cache, refused as in-flight, or refused as unknowable).
    fn admit(&mut self, slot: u32, req_id: u64) -> Result<Option<u64>, ()> {
        let Some(token) = self.conns.get_mut(slot).and_then(|c| c.session) else {
            return Ok(None);
        };
        match self.shared.sessions.begin(token, req_id) {
            Begin::Fresh => Ok(Some(token)),
            Begin::Replay(resp) => {
                self.note_replay();
                self.respond(slot, req_id, &resp);
                Err(())
            }
            Begin::InFlight => {
                self.shared.stats.busy.fetch_add(1, Ordering::Relaxed);
                self.busy.inc();
                self.respond(
                    slot,
                    req_id,
                    &Response::Err {
                        code: ErrorCode::Busy,
                        message: format!("request {req_id} still in flight; retry shortly"),
                    },
                );
                Err(())
            }
            Begin::Pruned => {
                self.respond(
                    slot,
                    req_id,
                    &Response::Err {
                        code: ErrorCode::BadToken,
                        message: format!(
                            "reply cache no longer covers request {req_id}; outcome unknown"
                        ),
                    },
                );
                Err(())
            }
        }
    }

    fn handle_hello(&mut self, slot: u32, req_id: u64, proposed: u8) -> FrameOutcome {
        if proposed == wire::VERSION {
            if let Some(c) = self.conns.get_mut(slot) {
                c.version = wire::VERSION;
            }
            self.respond(
                slot,
                req_id,
                &Response::Hello {
                    version: wire::VERSION,
                },
            );
            return FrameOutcome::Next;
        }
        self.note_version_reject();
        // Frame the refusal at the proposed version when the codec can
        // (a v1 Hello gets a v1-parseable answer); the connection stays
        // open so the client may re-negotiate.
        if (wire::MIN_DECODE_VERSION..=wire::VERSION).contains(&proposed) {
            if let Some(c) = self.conns.get_mut(slot) {
                c.version = proposed;
            }
        }
        self.respond(
            slot,
            req_id,
            &Response::Err {
                code: ErrorCode::Version,
                message: format!(
                    "cannot serve wire version {proposed}; server speaks {}",
                    wire::SCHEMA
                ),
            },
        );
        FrameOutcome::Next
    }

    /// Admits an apply (traced, deadlined or plain) and dispatches it.
    fn serve_apply(
        &mut self,
        slot: u32,
        req_id: u64,
        pid: u32,
        op: Op,
        trace: Option<TraceContext>,
        deadline: Option<Instant>,
    ) {
        if let Ok(sess) = self.admit(slot, req_id) {
            let work = Work::Apply {
                pid: pid as usize,
                op,
                trace,
            };
            self.dispatch(slot, Job::new(req_id, sess, deadline, work));
        }
    }

    /// Runs a job at its apply site: on this loop's own shard, on a
    /// parked owner's shard borrowed for this one apply, or — when the
    /// owner is running, its lock is taken, or this connection already
    /// has a transfer outstanding — on the owner's loop, as a transfer.
    fn dispatch(&mut self, slot: u32, job: Job) {
        let req_id = job.req_id;
        let target = job.work.key() % self.nloops;
        // Position in the connection's current write batch, read
        // before the response is staged; also says whether the
        // connection waits on a transfer (then nothing may overtake it).
        let (batch, quiet) = self
            .conns
            .get_mut(slot)
            .map_or((0, false), |c| (c.batch, c.inflight_remote == 0));
        let done = if target == self.index {
            let shard = self.shard.as_deref_mut().expect(RUNNING);
            run_work(shard, &self.shared, job, 0)
        } else {
            let owner = &self.shared.loops[target];
            let parked = quiet && owner.inbox.is_parked() && !owner.inbox.is_closed();
            let borrowed = match parked.then(|| owner.shard.try_borrow()).flatten() {
                Some(mut shard) => Ok(run_work(&mut shard, &self.shared, job, 0)),
                None => Err(job),
            };
            match borrowed {
                Ok(done) => {
                    self.borrowed.inc();
                    self.probe.borrowed += 1;
                    done
                }
                Err(job) => return self.forward(slot, target, job),
            }
        };
        self.note(target, &done, 0, batch);
        self.respond(slot, req_id, &done.resp);
    }

    /// Records what an apply site reported: counters, and the flight
    /// record for the probe of `shard`, the shard it ran on.
    fn note(&mut self, shard: usize, done: &Done, queue_ns: u64, batch: u64) {
        match done.note {
            Note::Ran {
                opcode,
                key,
                apply_ns,
            } => self
                .probe
                .push_request(shard, opcode, key, queue_ns, apply_ns, batch),
            Note::Quiet => {}
            Note::Shed => self.note_shed(),
            Note::WrongShard => self.note_wrong_shard(),
        }
    }

    fn forward(&mut self, slot: u32, target: usize, job: Job) {
        let (req_id, sess) = (job.req_id, job.sess);
        let Some(c) = self.conns.get_mut(slot) else {
            // The connection vanished between admit and forward; the
            // marker must not outlive it unapplied.
            if let Some(token) = sess {
                self.shared.sessions.abort(token, req_id);
            }
            return;
        };
        let xfer = Xfer {
            origin: self.index,
            conn: slot,
            gen: c.gen,
            queued: Instant::now(),
            job,
        };
        // Counted before the push: the owner may answer at once.
        self.add_inflight(1);
        let (code, message) = match self.shared.loops[target]
            .inbox
            .try_push_work(Msg::Xfer(xfer))
        {
            Ok(()) => {
                if let Some(c) = self.conns.get_mut(slot) {
                    c.inflight_remote += 1;
                }
                self.owed_notify[target] = true;
                self.forwarded.inc();
                self.probe.forwarded += 1;
                return;
            }
            Err(RouteError::Busy) => {
                self.shared.stats.busy.fetch_add(1, Ordering::Relaxed);
                self.busy.inc();
                (ErrorCode::Busy, format!("shard {target} queue is full"))
            }
            Err(RouteError::Closed) => (ErrorCode::ShuttingDown, "server is draining".into()),
        };
        self.add_inflight(-1);
        if let Some(token) = sess {
            self.shared.sessions.abort(token, req_id);
        }
        self.respond(slot, req_id, &Response::Err { code, message });
    }

    // ------------------------------------------------------------- writing

    /// Stages a response on the connection's write buffer (framed at
    /// its negotiated version) and marks it for the end-of-turn flush.
    fn respond(&mut self, slot: u32, req_id: u64, resp: &Response) {
        let Some(c) = self.conns.get_mut(slot) else {
            return;
        };
        if wire::encode_response_at(c.version, req_id, resp, &mut c.wbuf).is_err() {
            // Responses are server-built and bounded; failure here
            // would be a server bug, not client input. Skip the frame.
            debug_assert!(false, "server built an unencodable response");
            return;
        }
        c.batch += 1;
        let backlog = c.wbuf.len() - c.wpos;
        let newly = !c.touched;
        c.touched = true;
        if newly {
            self.touched.push(slot);
        }
        self.uncommitted_responses += 1;
        if backlog >= FLUSH_HIGH_WATER {
            self.flush_conn(slot);
        }
    }

    fn flush_touched(&mut self) {
        let touched = std::mem::take(&mut self.touched);
        for slot in touched {
            if let Some(c) = self.conns.get_mut(slot) {
                c.touched = false;
                self.flush_conn(slot);
            }
        }
    }

    /// Adds this loop's request/response counts to the shared totals
    /// (and their telemetry mirrors). Runs before every flush, so a
    /// response a client has read is always counted.
    fn commit_counts(&mut self) {
        let (req, resp) = (self.uncommitted_requests, self.uncommitted_responses);
        if req != 0 {
            self.uncommitted_requests = 0;
            self.shared.stats.requests.fetch_add(req, Ordering::Relaxed);
            self.requests.add(req);
        }
        if resp != 0 {
            self.uncommitted_responses = 0;
            self.shared
                .stats
                .responses
                .fetch_add(resp, Ordering::Relaxed);
            self.responses.add(resp);
        }
    }

    fn flush_conn(&mut self, slot: u32) {
        self.commit_counts();
        let Some(c) = self.conns.get_mut(slot) else {
            return;
        };
        let mut dead = false;
        while c.wpos < c.wbuf.len() {
            match c.stream.write(&c.wbuf[c.wpos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => c.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let done = c.wpos >= c.wbuf.len();
        let batch = if done {
            std::mem::take(&mut c.batch)
        } else {
            0
        };
        let fd = poll::raw_fd(&c.stream);
        let armed = c.write_armed;
        let close_now = dead || (done && c.closing && c.inflight_remote == 0);
        if done {
            c.wbuf.clear();
            c.wpos = 0;
        }
        if batch > 0 {
            if self.flush_batch.is_none() {
                self.flush_batch = Some(
                    self.registry
                        .histogram(&format!("server.loop{}.flush_batch", self.index)),
                );
            }
            if let Some(h) = &self.flush_batch {
                h.record(batch);
            }
            self.probe.push_flush(batch);
        }
        if close_now {
            self.close_conn(slot);
            return;
        }
        // Arm write interest on a partial flush; disarm once drained.
        if !done && !armed {
            if self
                .poller
                .reregister(fd, u64::from(slot), Interest::READ_WRITE)
                .is_ok()
            {
                if let Some(c) = self.conns.get_mut(slot) {
                    c.write_armed = true;
                }
            }
        } else if done && armed {
            let _ = self.poller.reregister(fd, u64::from(slot), Interest::READ);
            if let Some(c) = self.conns.get_mut(slot) {
                c.write_armed = false;
            }
        }
    }

    // ------------------------------------------------------------- closing

    /// Closes once everything owed has been delivered: pending remote
    /// replies arrive and flush first.
    fn begin_close(&mut self, slot: u32) {
        let Some(c) = self.conns.get_mut(slot) else {
            return;
        };
        if c.inflight_remote == 0 && c.wpos >= c.wbuf.len() {
            self.close_conn(slot);
        } else {
            c.closing = true;
        }
    }

    fn close_conn(&mut self, slot: u32) {
        let Some(c) = self.conns.remove(slot) else {
            return;
        };
        let _ = self.poller.deregister(poll::raw_fd(&c.stream));
        self.arena.put(c.rbuf);
        self.arena.put(c.wbuf);
        self.conns_gauge.set(self.conns.len() as u64);
        // Dropping the stream closes the socket. Replies still in
        // flight for it will miss the generation check and be dropped.
    }

    fn note_malformed(&mut self) {
        self.shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
        self.malformed.inc();
    }

    fn note_version_reject(&mut self) {
        self.shared
            .stats
            .version_rejects
            .fetch_add(1, Ordering::Relaxed);
        self.version_rejects.inc();
    }

    fn note_shed(&mut self) {
        self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.shed.inc();
        self.probe.push_shed();
    }

    fn note_resume(&mut self) {
        self.shared.stats.resumes.fetch_add(1, Ordering::Relaxed);
        self.resumes.inc();
    }

    fn note_replay(&mut self) {
        self.shared.stats.replays.fetch_add(1, Ordering::Relaxed);
        self.replays.inc();
    }

    fn note_wrong_shard(&mut self) {
        self.shared
            .stats
            .wrong_shard
            .fetch_add(1, Ordering::Relaxed);
        self.wrong_shard.inc();
    }

    // ------------------------------------------------------------ shutdown

    /// Settles the notifies this turn's pushes owe (see
    /// [`crate::inbox`]): a swap per peer, a pipe write only to a
    /// parked one.
    fn notify_peers(&mut self) {
        for (peer, owed) in self.owed_notify.iter_mut().enumerate() {
            if std::mem::take(owed) {
                self.shared.loops[peer].inbox.notify();
            }
        }
    }

    /// Whether this loop may exit: every cross-loop obligation in the
    /// whole server is settled and this loop's own buffers are empty.
    /// The deadline caps how long a stuck peer socket can hold us.
    fn drained(&mut self, since: Instant) -> bool {
        if since.elapsed() >= DRAIN_DEADLINE {
            return true;
        }
        let inflight: i64 = self
            .shared
            .loops
            .iter()
            .map(|l| l.inflight.0.load(Ordering::Acquire))
            .sum();
        if inflight != 0 || !self.shared.loops[self.index].inbox.is_empty() {
            return false;
        }
        self.conns.iter_mut().all(|(_, c)| c.wpos >= c.wbuf.len())
    }

    fn teardown(&mut self) {
        self.commit_counts();
        self.shared.loops[self.index].inbox.close();
        for slot in self.conns.live_slots() {
            self.close_conn(slot);
        }
    }
}

/// What an apply site reports to the loop that ran it: the response,
/// and what that loop's counters and probe must record.
struct Done {
    resp: Response,
    note: Note,
}

enum Note {
    /// An apply or elect ran: a flight record for the shard's probe.
    Ran { opcode: u8, key: u64, apply_ns: u64 },
    /// Work the flight recorder does not record (session opens,
    /// cluster-plane transfers).
    Quiet,
    /// Refused with [`ErrorCode::Expired`], not applied.
    Shed,
    /// Refused with [`ErrorCode::WrongShard`], not applied.
    WrongShard,
}

/// The one apply site, whichever thread runs it (the owner, a peer
/// holding the borrowed shard, or the owner serving a transfer):
/// deadline shed, routing check under a guard held across the apply,
/// the apply itself, and the session outcome recorded against
/// `(sess, req_id)` before the response leaves.
fn run_work(shard: &mut Shard, shared: &Shared, job: Job, queue_ns: u64) -> Done {
    let Job {
        req_id,
        deadline,
        sess,
        work,
    } = job;
    let refuse = |code, message, note| {
        if let Some(token) = sess {
            shared.sessions.abort(token, req_id);
        }
        Done {
            resp: Response::Err { code, message },
            note,
        }
    };
    // Work whose freshness budget ran out (in a queue, or before it was
    // even routed) is shed — refused, never applied — so an overloaded
    // shard spends its time on answers clients are still waiting for.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let message = format!(
            "deadline expired after {}us queued; op not applied",
            queue_ns / 1_000
        );
        return refuse(ErrorCode::Expired, message, Note::Shed);
    }
    // Once `DetachRanges` wins the table's write lock, every apply on a
    // detached range has either completed (its effect is visible to
    // the migration's `ExportObject`) or bounces `WrongShard`.
    // Election and cluster-plane work is not range-routed (see
    // `Work::ExportObject`).
    let route = shared.route.guard();
    if let Work::Apply { op, .. } = &work {
        let object = op.obj.0 as u64;
        if let Err(epoch) = route.check(object) {
            drop(route);
            let message = wire::wrong_shard_message(epoch, object);
            return refuse(ErrorCode::WrongShard, message, Note::WrongShard);
        }
    }
    let state = &mut shard.state;
    let (resp, note) = match work {
        Work::Apply { pid, op, trace } => {
            let key = op.obj.0 as u64;
            let t0 = shard.span_start(trace);
            let (resp, apply_ns) = shard.state.apply(pid, &op);
            shard.record_apply(trace, t0, key, apply_ns);
            let note = Note::Ran {
                opcode: wire::OP_APPLY,
                key,
                apply_ns,
            };
            (resp, note)
        }
        Work::Elect { session, pid } => {
            let (resp, apply_ns) = state.elect(session, pid);
            let note = Note::Ran {
                opcode: wire::OP_ELECT,
                key: u64::from(session),
                apply_ns,
            };
            (resp, note)
        }
        Work::OpenElection { session, k } => (state.open_election(session, k), Note::Quiet),
        Work::ExportObject { obj } => (state.export_object(obj), Note::Quiet),
        Work::InstallObject { obj, state: s } => (state.install_object(obj, &s), Note::Quiet),
        Work::ExportSession { session } => (state.export_session(session), Note::Quiet),
        Work::InstallSession {
            session,
            k,
            state: s,
        } => (state.install_session(session, k, &s), Note::Quiet),
    };
    // Recorded *here*, atomically-with-the-apply from the retry's point
    // of view: even if the origin connection died, a retry of this
    // req_id replays this response instead of re-applying the op.
    if let Some(token) = sess {
        shared.sessions.complete(token, req_id, &resp);
    }
    drop(route);
    Done { resp, note }
}

/// Spills a loop's flight recorder to stderr if its thread unwinds —
/// the last 256 requests a crashed loop served are usually the
/// explanation.
struct FlightDumpGuard {
    shared: Arc<Shared>,
    index: usize,
}

impl Drop for FlightDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "bso-loop{} panicked; flight recorder:\n{}",
                self.index,
                self.shared
                    .introspect
                    .flight_json(self.index)
                    .render_pretty()
            );
        }
    }
}
