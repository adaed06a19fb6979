//! The serving surface: [`ServerBuilder`], the acceptor, and the
//! draining [`ServerHandle`].
//!
//! # Thread topology
//!
//! ```text
//! acceptor ──round-robin NewConn + wake──▶ event loop 0..N  (see event_loop.rs)
//! ```
//!
//! The acceptor is the only blocking thread left: it accepts, flips
//! the socket nonblocking, and hands it to the least-recently-fed
//! event loop. Everything else — reads, parsing, applying, batching,
//! writes — happens on the loops.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] raises the drain flag, nudges the
//! acceptor out of `accept()` with a throwaway connection, wakes every
//! loop, and joins them. Loops answer everything already queued
//! (cross-loop obligations are counted; see `event_loop.rs`) before
//! exiting, bounded by a drain deadline.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bso_objects::Layout;
use bso_telemetry::trace::TraceSink;
use bso_telemetry::Registry;

use crate::event_loop::{EventLoop, LoopHandle, Msg, Shared, StatCells};
use crate::introspect::{self, ConfigInfo, IntrospectState};
use crate::poll::{self, PollBackend, Poller, WakeReader};
use crate::routing::RouteControl;
use crate::session::{ResumeTable, DEFAULT_MAX_SESSIONS, DEFAULT_REPLIES_PER_SESSION};

/// Tuning knobs for the deprecated [`Server::bind`] entry point.
#[deprecated(since = "0.2.0", note = "use `Server::builder()` instead")]
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of event loops (objects are owned by `obj.0 % shards`).
    /// Default 4.
    pub shards: usize,
    /// Bounded depth of each loop's cross-shard queue; a route into a
    /// full queue yields a typed `Busy`. Default 128.
    pub queue_capacity: usize,
    /// Telemetry sink for `server.*` metrics. Defaults to the
    /// process-global registry, so `BSO_TELEMETRY=path.json` captures
    /// server metrics with no extra wiring.
    pub registry: Registry,
}

#[allow(deprecated)]
impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            queue_capacity: 128,
            registry: Registry::default(),
        }
    }
}

/// Totals reported by [`ServerHandle::shutdown`]. Tracked by plain
/// atomics (independently mirrored into telemetry counters) so they
/// are exact even when telemetry is disabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Well-formed requests decoded.
    pub requests: u64,
    /// Responses written back to clients.
    pub responses: u64,
    /// Requests refused with a typed `Busy` (cross-shard queue full).
    pub busy: u64,
    /// Malformed frames (each one closes its connection).
    pub malformed: u64,
    /// Frames or `Hello`s refused with a typed `Version` error.
    pub version_rejects: u64,
    /// Deadline-carrying ops shed with a typed `Expired` (budget ran
    /// out before the apply; the op was never applied).
    pub shed: u64,
    /// `Resume` session bindings served.
    pub resumes: u64,
    /// Retried requests answered from a session's reply cache instead
    /// of being applied a second time.
    pub replays: u64,
    /// Applies refused with a typed `WrongShard` because the installed
    /// routing table places the object on another server (never
    /// applied; the client refreshes its table and redirects).
    pub wrong_shard: u64,
}

impl StatCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            version_rejects: self.version_rejects.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            wrong_shard: self.wrong_shard.load(Ordering::Relaxed),
        }
    }
}

/// The entry point: [`Server::builder`] configures and binds an
/// event-driven server over a [`Layout`] of shared objects.
pub struct Server;

impl Server {
    /// Starts configuring a server. See [`ServerBuilder`] for the
    /// knobs and their defaults.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// Binds `addr` with the pre-builder configuration surface.
    ///
    /// # Errors
    ///
    /// Socket errors from [`TcpListener::bind`].
    #[deprecated(since = "0.2.0", note = "use `Server::builder()` instead")]
    #[allow(deprecated)]
    pub fn bind(
        addr: impl ToSocketAddrs,
        layout: &Layout,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        Server::builder()
            .shards(config.shards)
            .queue_capacity(config.queue_capacity)
            .registry(config.registry)
            .bind(addr, layout)
    }
}

/// Fluent configuration for [`Server`], mirroring the `Explorer`
/// builder idiom: construct with [`Server::builder`], chain knobs,
/// finish with [`ServerBuilder::bind`].
///
/// ```no_run
/// use bso_objects::{Layout, ObjectInit};
/// use bso_server::{PollBackend, Server};
///
/// let mut layout = Layout::new();
/// layout.push(ObjectInit::CasK { k: 4 });
/// let handle = Server::builder()
///     .shards(4)
///     .queue_capacity(256)
///     .backend(PollBackend::Auto)
///     .pin_cores(true)
///     .bind("127.0.0.1:0", &layout)
///     .unwrap();
/// # drop(handle);
/// ```
#[derive(Clone, Debug)]
pub struct ServerBuilder {
    shards: usize,
    queue_capacity: usize,
    backend: PollBackend,
    read_chunk: usize,
    pin_cores: bool,
    registry: Registry,
    trace: TraceSink,
}

impl Default for ServerBuilder {
    fn default() -> ServerBuilder {
        ServerBuilder::new()
    }
}

impl ServerBuilder {
    /// The default configuration: one event loop per CPU, queue
    /// capacity 128, 64 KiB read chunks, core pinning on, the poll
    /// backend from `BSO_POLL_BACKEND` (else auto), and the
    /// process-global telemetry registry.
    pub fn new() -> ServerBuilder {
        let backend = std::env::var("BSO_POLL_BACKEND")
            .ok()
            .and_then(|s| PollBackend::parse(&s))
            .unwrap_or_default();
        ServerBuilder {
            shards: poll::num_cpus(),
            queue_capacity: 128,
            backend,
            read_chunk: 64 * 1024,
            pin_cores: true,
            registry: Registry::default(),
            trace: TraceSink::default(),
        }
    }

    /// Number of event loops / shards. Objects are owned by
    /// `obj.0 % shards`; sessions by `session % shards`. Clamped to at
    /// least 1.
    pub fn shards(mut self, n: usize) -> ServerBuilder {
        self.shards = n.max(1);
        self
    }

    /// Bounded depth of each loop's cross-shard queue. A route into a
    /// full queue is answered with a typed `Busy` — it never blocks.
    pub fn queue_capacity(mut self, n: usize) -> ServerBuilder {
        self.queue_capacity = n.max(1);
        self
    }

    /// Readiness backend ([`PollBackend::Auto`] picks `epoll` on
    /// Linux, `poll(2)` elsewhere).
    pub fn backend(mut self, b: PollBackend) -> ServerBuilder {
        self.backend = b;
        self
    }

    /// Socket read chunk (and arena buffer) size in bytes.
    pub fn read_chunk(mut self, bytes: usize) -> ServerBuilder {
        self.read_chunk = bytes.max(1024);
        self
    }

    /// Whether each loop pins itself to core `index % num_cpus`
    /// (best-effort; ignored where unsupported).
    pub fn pin_cores(mut self, pin: bool) -> ServerBuilder {
        self.pin_cores = pin;
        self
    }

    /// Telemetry sink for `server.*` metrics.
    pub fn registry(mut self, r: Registry) -> ServerBuilder {
        self.registry = r;
        self
    }

    /// Trace sink for `server.apply` spans. Each event loop gets a
    /// `server-loop<i>` track. Defaults to [`TraceSink::global`], so
    /// `BSO_TRACE=path.json` enables server-side tracing with no extra
    /// wiring; a disabled sink (the default without that env var)
    /// costs nothing per request.
    pub fn trace_sink(mut self, sink: TraceSink) -> ServerBuilder {
        self.trace = sink;
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral loopback port), spawns
    /// the event loops and the acceptor, and returns the handle.
    ///
    /// # Errors
    ///
    /// Socket errors from [`TcpListener::bind`], or poller-creation
    /// errors (e.g. forcing [`PollBackend::Epoll`] off Linux).
    pub fn bind(self, addr: impl ToSocketAddrs, layout: &Layout) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let nloops = self.shards;

        // Pollers and wake pipes are created up front so the shared
        // handle vector is complete before any loop starts.
        let mut pollers = Vec::with_capacity(nloops);
        let mut handles = Vec::with_capacity(nloops);
        for i in 0..nloops {
            let poller = Poller::new(self.backend)?;
            let (reader, waker) = WakeReader::pair()?;
            handles.push(LoopHandle::new(
                self.queue_capacity,
                self.registry.gauge(&format!("server.shard{i}.queue_depth")),
                waker,
            ));
            pollers.push((poller, reader));
        }
        let shared = Arc::new(Shared {
            loops: handles,
            shutdown: AtomicBool::new(false),
            next_session: AtomicU32::new(0),
            sessions: ResumeTable::new(DEFAULT_MAX_SESSIONS, DEFAULT_REPLIES_PER_SESSION),
            route: RouteControl::new(),
            stats: StatCells::default(),
            introspect: IntrospectState::new(ConfigInfo {
                shards: nloops,
                queue_capacity: self.queue_capacity,
                backend: self.backend.to_string(),
                read_chunk: self.read_chunk,
                pin_cores: self.pin_cores,
            }),
        });
        // BSO_PROGRESS=path.jsonl tails a serving heartbeat with no
        // extra wiring (idempotent; a no-op without the env var).
        bso_telemetry::progress::spawn_global_if_env();

        let mut loops = Vec::with_capacity(nloops);
        for (i, (poller, reader)) in pollers.into_iter().enumerate() {
            let ev = EventLoop::new(
                i,
                nloops,
                layout,
                poller,
                reader,
                Arc::clone(&shared),
                &self.registry,
                self.read_chunk,
                self.pin_cores,
                self.trace.worker(format!("server-loop{i}")),
            );
            loops.push(
                std::thread::Builder::new()
                    .name(format!("bso-loop{i}"))
                    .spawn(move || ev.run())
                    .expect("spawn event loop"),
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            let registry = self.registry.clone();
            std::thread::Builder::new()
                .name("bso-acceptor".into())
                .spawn(move || accept_loop(listener, shared, registry))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            loops,
        })
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] also drains, but discards the stats.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains every loop (queued requests are
    /// answered), joins all threads, and returns the lifetime totals.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.shared.stats.snapshot()
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Nudge the acceptor out of `accept()` with a throwaway
        // connection; it re-checks the flag per iteration.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for l in &self.shared.loops {
            l.inbox.notify();
        }
        for l in self.loops.drain(..) {
            let _ = l.join();
        }
        // BSO_FLIGHT=path.json preserves the final introspection
        // snapshot — flight recorders included — as the server's
        // black box.
        if let Some(path) = std::env::var_os(introspect::FLIGHT_ENV) {
            let doc = introspect::introspect_doc(&self.shared).render_pretty();
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!(
                    "bso-server: failed to write {} snapshot to {}: {e}",
                    introspect::FLIGHT_ENV,
                    std::path::Path::new(&path).display()
                );
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.loops.is_empty() {
            self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, registry: Registry) {
    let accepted = registry.counter("server.connections");
    let nloops = shared.loops.len();
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses are small batched frames; waiting for ACKs (Nagle)
        // would serialize every pipelined window on the RTT.
        let _ = stream.set_nodelay(true);
        if poll::set_nonblocking(&stream).is_err() {
            continue;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        accepted.inc();
        let target = next % nloops;
        next = next.wrapping_add(1);
        shared.loops[target].inbox.push(Msg::NewConn(stream));
        shared.loops[target].inbox.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, ErrorCode, Request, Response};
    use bso_objects::{ObjectId, ObjectInit, Op, OpKind, Value};
    use bso_telemetry::json::Json;
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    fn layout() -> Layout {
        let mut l = Layout::new();
        l.push(ObjectInit::CasK { k: 4 });
        l.push(ObjectInit::Register(Value::Nil));
        l.push(ObjectInit::FetchAdd(0));
        l
    }

    fn serve() -> ServerHandle {
        Server::builder()
            .shards(4)
            .pin_cores(false)
            .bind("127.0.0.1:0", &layout())
            .unwrap()
    }

    fn send(stream: &mut TcpStream, req_id: u64, req: &Request) {
        let mut buf = Vec::new();
        wire::encode_request(req_id, req, &mut buf).unwrap();
        stream.write_all(&buf).unwrap();
    }

    fn recv(stream: &mut TcpStream) -> (u64, Response) {
        let mut buf = Vec::new();
        assert!(wire::read_frame(stream, &mut buf).unwrap());
        wire::decode_response(&buf).unwrap()
    }

    #[test]
    fn serves_applies_and_pings_over_loopback() {
        let handle = serve();
        let mut c = TcpStream::connect(handle.local_addr()).unwrap();
        send(&mut c, 1, &Request::Ping);
        assert_eq!(recv(&mut c), (1, Response::Ok(Value::Nil)));
        send(
            &mut c,
            2,
            &Request::Apply {
                pid: 0,
                op: Op::write(ObjectId(1), Value::Int(9)),
            },
        );
        send(
            &mut c,
            3,
            &Request::Apply {
                pid: 0,
                op: Op::read(ObjectId(1)),
            },
        );
        let mut got = HashMap::new();
        for _ in 0..2 {
            let (id, r) = recv(&mut c);
            got.insert(id, r);
        }
        assert_eq!(got[&2], Response::Ok(Value::Nil));
        assert_eq!(got[&3], Response::Ok(Value::Int(9)));
        drop(c);
        let stats = handle.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.responses, 3);
        assert_eq!(stats.malformed, 0);
    }

    #[test]
    fn work_queued_while_every_loop_is_parked_is_served_within_a_bound() {
        let handle = Server::builder()
            .shards(2)
            .pin_cores(false)
            .bind("127.0.0.1:0", &layout())
            .unwrap();
        for round in 0..20u64 {
            // Let both loops go idle: each parks before its wait, so
            // the acceptor's `NewConn` (and, on loop 1, the cross-shard
            // apply to object 2 and its reply) land on parked loops.
            let idle_by = Instant::now() + Duration::from_secs(10);
            while !handle.shared.loops.iter().all(|l| l.inbox.is_parked()) {
                assert!(Instant::now() < idle_by, "loops never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut c = TcpStream::connect(handle.local_addr()).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            send(&mut c, 1, &Request::Ping);
            send(
                &mut c,
                2,
                &Request::Apply {
                    pid: 0,
                    op: Op::new(ObjectId(2), OpKind::FetchAdd(1)),
                },
            );
            // A lost wakeup leaves the socket unregistered: the read
            // times out and `recv` fails instead of the test hanging.
            assert_eq!(recv(&mut c), (1, Response::Ok(Value::Nil)), "round {round}");
            assert_eq!(
                recv(&mut c),
                (2, Response::Ok(Value::Int(round as i64))),
                "round {round}"
            );
        }
        let stats = handle.shutdown();
        assert_eq!(stats.connections, 20);
        assert_eq!(stats.requests, 40);
        assert_eq!(stats.responses, 40);
    }

    #[test]
    fn malformed_frame_closes_only_that_connection() {
        let handle = serve();
        let mut bad = TcpStream::connect(handle.local_addr()).unwrap();
        let mut good = TcpStream::connect(handle.local_addr()).unwrap();
        // A frame whose body claims 4 GiB: rejected before allocation,
        // connection closed.
        bad.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        let mut probe = [0u8; 1];
        assert_eq!(bad.read(&mut probe).unwrap(), 0, "bad conn sees EOF");
        // The other connection keeps serving.
        send(&mut good, 5, &Request::Ping);
        assert_eq!(recv(&mut good), (5, Response::Ok(Value::Nil)));
        drop(bad);
        drop(good);
        let stats = handle.shutdown();
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.connections, 2);
    }

    #[test]
    fn shutdown_is_idempotent_under_drop_and_reports_totals() {
        let handle = serve();
        let addr = handle.local_addr();
        let mut c = TcpStream::connect(addr).unwrap();
        send(
            &mut c,
            1,
            &Request::Apply {
                pid: 2,
                op: Op::new(ObjectId(2), bso_objects::OpKind::FetchAdd(3)),
            },
        );
        assert_eq!(recv(&mut c), (1, Response::Ok(Value::Int(0))));
        drop(c);
        let stats = handle.shutdown();
        assert_eq!(stats.requests, 1);
        // Post-shutdown connects are refused (or reset immediately).
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        send(&mut s, 9, &Request::Ping);
                        let mut b = [0u8; 1];
                        s.read(&mut b)
                    })
                    .map(|n| n == 0)
                    .unwrap_or(true)
        );
    }

    #[test]
    fn election_over_the_wire_is_consistent() {
        let handle = serve();
        let mut c = TcpStream::connect(handle.local_addr()).unwrap();
        send(&mut c, 1, &Request::OpenElection { k: 4 });
        let (_, resp) = recv(&mut c);
        let Response::Session(session) = resp else {
            panic!("expected session, got {resp:?}");
        };
        let mut winners = Vec::new();
        for pid in 0..3u32 {
            send(&mut c, 10 + pid as u64, &Request::Elect { session, pid });
            match recv(&mut c).1 {
                Response::Ok(v) => winners.push(v.as_pid().unwrap()),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(winners.windows(2).all(|w| w[0] == w[1]));
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn introspect_reports_config_and_per_shard_state() {
        let handle = serve();
        let mut c = TcpStream::connect(handle.local_addr()).unwrap();
        // Generate some owned work first so the snapshot is non-trivial.
        send(
            &mut c,
            1,
            &Request::Apply {
                pid: 0,
                op: Op::write(ObjectId(1), Value::Int(3)),
            },
        );
        assert_eq!(recv(&mut c), (1, Response::Ok(Value::Nil)));
        send(&mut c, 2, &Request::Introspect);
        let (id, resp) = recv(&mut c);
        assert_eq!(id, 2);
        let Response::Introspect(json) = resp else {
            panic!("expected introspect snapshot, got {resp:?}");
        };
        let doc = bso_telemetry::json::parse(&json).expect("snapshot parses");
        assert_eq!(
            doc.get("schema").and_then(|j| j.as_str()),
            Some("bso-introspect/v1")
        );
        let config = doc.get("config").expect("config");
        assert_eq!(config.get("shards").and_then(Json::as_u64), Some(4));
        let shards = doc.get("shards").expect("shards");
        assert_eq!(shards.len(), Some(4), "one entry per event loop");
        // The apply above landed on loop 1 (object 1 % 4): its probe
        // saw it, flight recorder included.
        let probed = &shards.items().unwrap()[1];
        assert_eq!(
            probed
                .get("apply_ns")
                .and_then(|j| j.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(
            probed
                .get("flight")
                .and_then(|f| f.get("seq"))
                .and_then(Json::as_u64)
                >= Some(1)
        );
        // Identity travels with the snapshot.
        let server = doc.get("server").expect("server");
        assert_eq!(
            server.get("wire").and_then(|j| j.as_str()),
            Some(wire::SCHEMA)
        );
        drop(c);
        let stats = handle.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.responses, 2);
    }

    #[test]
    fn hello_negotiates_and_v1_requests_get_typed_rejects() {
        let handle = serve();
        // A well-behaved v2 client negotiates first.
        let mut c = TcpStream::connect(handle.local_addr()).unwrap();
        send(
            &mut c,
            1,
            &Request::Hello {
                version: wire::VERSION,
            },
        );
        assert_eq!(
            recv(&mut c),
            (
                1,
                Response::Hello {
                    version: wire::VERSION
                }
            )
        );
        // A v1 client sending a v1-framed request gets a typed Version
        // error *framed at v1* (parseable by it), then a graceful EOF
        // — not a malformed-frame kill.
        let mut old = TcpStream::connect(handle.local_addr()).unwrap();
        let mut buf = Vec::new();
        wire::encode_request(7, &Request::Ping, &mut buf).unwrap();
        // A v1 client's framing: v1 version byte, no trailing digest.
        buf[4] = 1;
        buf.truncate(buf.len() - wire::CHECKSUM_LEN);
        let body_len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&body_len.to_le_bytes());
        old.write_all(&buf).unwrap();
        let mut body = Vec::new();
        assert!(wire::read_frame(&mut old, &mut body).unwrap());
        assert_eq!(wire::peek_version(&body), Some(1), "rejection framed at v1");
        let (id, resp) = wire::decode_response(&body).unwrap();
        assert_eq!(id, 7);
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::Version,
                ..
            }
        ));
        assert!(!wire::read_frame(&mut old, &mut body).unwrap(), "clean EOF");
        // A Hello proposing an unserved version is refused but the
        // connection survives for re-negotiation.
        send(&mut c, 2, &Request::Hello { version: 1 });
        assert!(matches!(
            recv(&mut c).1,
            Response::Err {
                code: ErrorCode::Version,
                ..
            }
        ));
        send(
            &mut c,
            3,
            &Request::Hello {
                version: wire::VERSION,
            },
        );
        assert_eq!(
            recv(&mut c).1,
            Response::Hello {
                version: wire::VERSION
            }
        );
        drop(c);
        drop(old);
        let stats = handle.shutdown();
        assert_eq!(stats.malformed, 0, "version mismatch is not malformed");
        assert_eq!(stats.version_rejects, 2);
    }

    #[test]
    fn resumed_session_replays_instead_of_reapplying() {
        let handle = serve();
        let addr = handle.local_addr();
        let token = 0xFEED_u64;
        let mut c = TcpStream::connect(addr).unwrap();
        send(
            &mut c,
            1,
            &Request::Resume {
                token,
                last_acked: 0,
            },
        );
        assert_eq!(recv(&mut c), (1, Response::Resumed { token, cached: 0 }));
        // An effectful op under the session: FetchAdd(5) on object 2.
        let add = Request::Apply {
            pid: 0,
            op: Op::new(ObjectId(2), bso_objects::OpKind::FetchAdd(5)),
        };
        send(&mut c, 2, &add);
        assert_eq!(recv(&mut c), (2, Response::Ok(Value::Int(0))));
        // The connection dies before the client sees the ack; it
        // reconnects, resumes the same token, and retries req_id 2.
        drop(c);
        let mut c2 = TcpStream::connect(addr).unwrap();
        send(
            &mut c2,
            10,
            &Request::Resume {
                token,
                last_acked: 1,
            },
        );
        let (_, resumed) = recv(&mut c2);
        assert_eq!(resumed, Response::Resumed { token, cached: 1 });
        send(&mut c2, 2, &add);
        // Replayed from the cache: the counter was NOT bumped again,
        // so the retry sees the original pre-state 0, not 5.
        assert_eq!(recv(&mut c2), (2, Response::Ok(Value::Int(0))));
        // A genuinely fresh op observes exactly one application.
        send(
            &mut c2,
            3,
            &Request::Apply {
                pid: 0,
                op: Op::new(ObjectId(2), bso_objects::OpKind::FetchAdd(0)),
            },
        );
        assert_eq!(recv(&mut c2), (3, Response::Ok(Value::Int(5))));
        drop(c2);
        let stats = handle.shutdown();
        assert_eq!(stats.resumes, 2);
        assert_eq!(stats.replays, 1);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn resume_prunes_acked_replies_and_refuses_pruned_retries() {
        let handle = serve();
        let addr = handle.local_addr();
        let token = 0xB0B_u64;
        let mut c = TcpStream::connect(addr).unwrap();
        send(
            &mut c,
            1,
            &Request::Resume {
                token,
                last_acked: 0,
            },
        );
        recv(&mut c);
        let add = Request::Apply {
            pid: 0,
            op: Op::new(ObjectId(2), OpKind::FetchAdd(1)),
        };
        send(&mut c, 2, &add);
        recv(&mut c);
        drop(c);
        // Resuming with last_acked=2 prunes the cached reply for 2...
        let mut c2 = TcpStream::connect(addr).unwrap();
        send(
            &mut c2,
            3,
            &Request::Resume {
                token,
                last_acked: 2,
            },
        );
        assert_eq!(recv(&mut c2), (3, Response::Resumed { token, cached: 0 }));
        // ...so a (buggy) retry of 2 is refused with BadToken rather
        // than silently re-applied.
        send(&mut c2, 2, &add);
        assert!(matches!(
            recv(&mut c2).1,
            Response::Err {
                code: ErrorCode::BadToken,
                ..
            }
        ));
        drop(c2);
        handle.shutdown();
    }

    #[test]
    fn zero_budget_deadline_apply_is_shed_with_expired() {
        let handle = serve();
        let mut c = TcpStream::connect(handle.local_addr()).unwrap();
        send(
            &mut c,
            1,
            &Request::DeadlineApply {
                budget_us: 0,
                pid: 0,
                op: Op::new(ObjectId(2), bso_objects::OpKind::FetchAdd(7)),
            },
        );
        assert!(matches!(
            recv(&mut c).1,
            Response::Err {
                code: ErrorCode::Expired,
                ..
            }
        ));
        // The shed op was never applied.
        send(
            &mut c,
            2,
            &Request::Apply {
                pid: 0,
                op: Op::new(ObjectId(2), bso_objects::OpKind::FetchAdd(0)),
            },
        );
        assert_eq!(recv(&mut c), (2, Response::Ok(Value::Int(0))));
        // A generous budget sails through.
        send(
            &mut c,
            3,
            &Request::DeadlineApply {
                budget_us: 5_000_000,
                pid: 0,
                op: Op::new(ObjectId(2), bso_objects::OpKind::FetchAdd(7)),
            },
        );
        assert_eq!(recv(&mut c), (3, Response::Ok(Value::Int(0))));
        drop(c);
        let stats = handle.shutdown();
        assert!(stats.shed >= 1);
    }
}
