//! A fault-tolerant, exactly-once client: [`ResilientClient`].
//!
//! The pipelined [`Connection`](crate::Connection) treats a broken
//! socket as fatal — correct for benchmarking, useless under chaos.
//! This module wraps one *logical* client around however many TCP
//! connections it takes: every operation carries a per-session
//! `req_id`, the client binds a session token with
//! [`Request::Resume`] on every (re)connect, and a retry after a
//! broken socket re-sends the *same* `req_id` so the server can answer
//! from its bounded reply cache instead of applying twice. The result
//! is exactly-once *visible* semantics: an operation's effect happens
//! at most once no matter how many times the wire eats the reply.
//!
//! Retry classification follows the wire-level [`ErrorCode`](bso_server::ErrorCode) split:
//!
//! * [`ErrorCode::retry_in_place`](bso_server::ErrorCode::retry_in_place) (`Busy`, `Expired`) — back off and
//!   re-send on the same connection; the server refused without
//!   applying.
//! * [`ErrorCode::retry_after_reconnect`](bso_server::ErrorCode::retry_after_reconnect) (`ShuttingDown`,
//!   `Overloaded`) — drop the socket, back off, reconnect, resume,
//!   re-send.
//! * [`ErrorCode::retry_after_refresh`](bso_server::ErrorCode::retry_after_refresh) (`WrongShard`) — the op was
//!   refused *before* applying because the routing table places its
//!   object on another server. This client has no table, so the error
//!   surfaces; a routing-aware caller (the `bso-cluster` client)
//!   refreshes its table, [`ResilientClient::retarget`]s this session
//!   at the owner, and re-issues the op — duplicate-safe because
//!   `WrongShard` guarantees non-application.
//! * Everything else (`BadToken`, `BadRequest`, …) — terminal: the
//!   outcome is either knowable-and-bad or unknowable, and a blind
//!   retry could duplicate an effect.
//!
//! Backoff is capped exponential with deterministic
//! [`SplitMix64`]-seeded jitter, so a chaos run's retry schedule is as
//! replayable as its fault schedule.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bso_objects::rng::SplitMix64;
use bso_objects::{Op, Value};
use bso_server::wire;
use bso_server::{Request, Response, WireError};
use bso_sim::RecordedOp;

use crate::{ClientError, HistoryRecorder};

/// Process-wide fallback token allocator for builders that never call
/// [`ResilientBuilder::token`] (also consumed by resilient
/// [`Swarm`](crate::Swarm) lanes). Tokens must be unique per server
/// session table, and every resilient client in this process may talk
/// to the same server. Starts above zero so a default token is never
/// confused with "unset" in logs.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Allocates `n` consecutive fresh session tokens, returning the first.
pub(crate) fn alloc_tokens(n: u64) -> u64 {
    NEXT_TOKEN.fetch_add(n, Ordering::Relaxed)
}

/// `req_id`s for the connect-time `Hello`/`Resume` round trips. They
/// live outside the session's monotonic operation ids (the server's
/// reply cache never sees control opcodes) and are consumed
/// synchronously, so reusing them on every reconnect is safe.
const HELLO_REQ_ID: u64 = u64::MAX;
const RESUME_REQ_ID: u64 = u64::MAX - 1;

/// Initial size of a connection's read buffer; it grows (doubling) for
/// larger responses and lives as long as the connection.
const READ_CHUNK: usize = 4096;

/// How hard a [`ResilientClient`] fights for each operation.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). When they
    /// run out, the last refusal surfaces as [`ClientError`].
    pub max_attempts: u32,
    /// Backoff before attempt `n` is `base_backoff * 2^(n-1)`, capped
    /// at [`RetryPolicy::max_backoff`], jittered into the upper half.
    pub base_backoff: Duration,
    /// Ceiling for the exponential backoff.
    pub max_backoff: Duration,
    /// Socket read timeout. A stalled server (or a chaos proxy sitting
    /// on a reply) turns into a timeout, which is treated like a
    /// broken connection: reconnect, resume, re-send. `None` blocks
    /// forever.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            read_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Fluent configuration for a [`ResilientClient`].
#[derive(Clone, Debug, Default)]
pub struct ResilientBuilder {
    token: Option<u64>,
    seed: Option<u64>,
    policy: RetryPolicy,
    recorder: Option<Arc<HistoryRecorder>>,
}

impl ResilientBuilder {
    /// The session token to bind on every connect (default: allocated
    /// from a process-wide counter). Chaos harnesses pass explicit
    /// seed-derived tokens so a whole run is replayable.
    #[must_use]
    pub fn token(mut self, token: u64) -> ResilientBuilder {
        self.token = Some(token);
        self
    }

    /// Seed for the backoff jitter (default: the session token, so a
    /// fixed token fixes the whole retry schedule).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ResilientBuilder {
        self.seed = Some(seed);
        self
    }

    /// The retry policy (attempts, backoff, read timeout).
    #[must_use]
    pub fn policy(mut self, policy: RetryPolicy) -> ResilientBuilder {
        self.policy = policy;
        self
    }

    /// Attaches a (shared) history recorder; every operation that
    /// ultimately succeeds is logged with interval timestamps. The
    /// interval spans first send to final receive, which safely covers
    /// the server-side linearization point even when the effect
    /// happened on an attempt whose reply the wire ate.
    #[must_use]
    pub fn recorder(mut self, rec: Arc<HistoryRecorder>) -> ResilientBuilder {
        self.recorder = Some(rec);
        self
    }

    /// Resolves `addr` and builds the client. No socket is opened yet;
    /// the first operation connects (and reconnects happen the same
    /// way), so a server that is briefly down at build time costs
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when `addr` resolves to nothing.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<ResilientClient, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved to no socket addresses",
            )));
        }
        let token = self
            .token
            .unwrap_or_else(|| NEXT_TOKEN.fetch_add(1, Ordering::Relaxed));
        Ok(ResilientClient {
            addrs,
            token,
            policy: self.policy,
            rng: SplitMix64::new(self.seed.unwrap_or(token)),
            recorder: self.recorder,
            link: None,
            frame: Vec::new(),
            next_req_id: 1,
            last_acked: 0,
            connects: 0,
            reconnects: 0,
            retries: 0,
            replays_resumed: 0,
            redirects: 0,
        })
    }
}

/// One logical session that survives any number of broken sockets.
/// See the [module docs](self) for the retry contract.
pub struct ResilientClient {
    addrs: Vec<SocketAddr>,
    token: u64,
    policy: RetryPolicy,
    rng: SplitMix64,
    recorder: Option<Arc<HistoryRecorder>>,
    /// The live connection, if any. Dropping it (to reconnect) drops
    /// its read buffer too, so no stale bytes outlive their socket.
    link: Option<Link>,
    /// Encode buffer, reused by every operation.
    frame: Vec<u8>,
    /// Next operation `req_id`; monotonic across reconnects — the
    /// server's reply cache is keyed by it.
    next_req_id: u64,
    /// Highest `req_id` whose response this client has consumed;
    /// reported in `Resume` so the server can prune its cache.
    last_acked: u64,
    connects: u64,
    reconnects: u64,
    retries: u64,
    replays_resumed: u64,
    redirects: u64,
}

impl ResilientClient {
    /// Starts configuring a resilient client.
    pub fn builder() -> ResilientBuilder {
        ResilientBuilder::default()
    }

    /// The session token this client binds on every connect.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Reconnects performed so far (the first connect not counted).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Operation attempts beyond the first, across all causes
    /// (backpressure, shed deadlines, broken sockets).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Cached replies the server reported holding for us across all
    /// `Resume` round trips — a cheap signal that replay protection
    /// actually engaged during a run.
    pub fn resumed_cached(&self) -> u64 {
        self.replays_resumed
    }

    /// Times this session was pointed at a different server via
    /// [`ResilientClient::retarget`].
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Points this session at a different server. The live socket (if
    /// any) is dropped; the next operation connects there, re-binds
    /// the same session token with `Resume`, and proceeds. Called by
    /// routing-aware wrappers after a `WrongShard` refusal, and safe
    /// at any time — `req_id`s stay monotonic across targets.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when `addr` resolves to nothing.
    pub fn retarget(&mut self, addr: impl ToSocketAddrs) -> Result<(), ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved to no socket addresses",
            )));
        }
        if addrs != self.addrs {
            self.addrs = addrs;
            self.link = None;
            self.redirects += 1;
        }
        Ok(())
    }

    /// Applies `op` as process `pid`, retrying per the policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when attempts run out or the refusal is
    /// terminal; [`ClientError::Io`] when the wire stays broken.
    pub fn apply(&mut self, pid: usize, op: Op) -> Result<Value, ClientError> {
        self.apply_ref(pid, &op)
    }

    /// [`ResilientClient::apply`] for a borrowed `op`: a caller that
    /// may re-issue the op elsewhere (after a redirect) keeps it
    /// without cloning it per attempt.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::apply`].
    pub fn apply_ref(&mut self, pid: usize, op: &Op) -> Result<Value, ClientError> {
        let invoked_at = self.recorder.as_deref().map(HistoryRecorder::tick);
        let resp = self.call(|id, out| wire::encode_apply(id, pid as u32, op, out))?;
        self.settle_apply(pid, op, invoked_at, resp, "an apply")
    }

    /// Applies `op` with a per-attempt freshness budget: the server
    /// sheds the attempt with a typed `Expired` if the budget runs out
    /// before the apply. Shed attempts are retried in place (each
    /// retry gets a fresh budget) until the policy gives up.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`]; a persistently
    /// overloaded server surfaces as [`ErrorCode::Expired`](bso_server::ErrorCode::Expired).
    pub fn apply_within(
        &mut self,
        pid: usize,
        op: Op,
        budget: Duration,
    ) -> Result<Value, ClientError> {
        let budget_us = u32::try_from(budget.as_micros()).unwrap_or(u32::MAX);
        let req = Request::DeadlineApply {
            budget_us,
            pid: pid as u32,
            op: op.clone(),
        };
        let invoked_at = self.recorder.as_deref().map(HistoryRecorder::tick);
        let resp = self.request(&req)?;
        self.settle_apply(pid, &op, invoked_at, resp, "a deadline apply")
    }

    /// Turns an apply's final response into its value, logging a
    /// success with the recorder (if any).
    fn settle_apply(
        &self,
        pid: usize,
        op: &Op,
        invoked_at: Option<u64>,
        resp: Response,
        what: &str,
    ) -> Result<Value, ClientError> {
        let v = match resp {
            Response::Ok(v) => v,
            Response::Err { code, message } => return Err(ClientError::Server { code, message }),
            other => {
                return Err(ClientError::Protocol(format!(
                    "non-value response to {what}: {other:?}"
                )))
            }
        };
        if let Some(rec) = &self.recorder {
            let responded_at = rec.tick();
            rec.record(RecordedOp {
                pid,
                op: op.clone(),
                resp: v.clone(),
                invoked_at: invoked_at.unwrap_or(0),
                responded_at,
            });
        }
        Ok(v)
    }

    /// Opens a leader-election session over a fresh
    /// `compare&swap-(k)`. Safe under retries: a replayed open returns
    /// the originally minted session id instead of leaking a second
    /// election.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn open_election(&mut self, k: u32) -> Result<u32, ClientError> {
        match self.request(&Request::OpenElection { k })? {
            Response::Session(s) => Ok(s),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "non-session response to an open-election: {other:?}"
            ))),
        }
    }

    /// Runs participant `pid` of `session` to its decision and returns
    /// the elected leader.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn elect(&mut self, session: u32, pid: u32) -> Result<usize, ClientError> {
        match self.request(&Request::Elect { session, pid })? {
            Response::Ok(Value::Pid(winner)) => Ok(winner),
            Response::Ok(v) => Err(ClientError::Protocol(format!(
                "election decided a non-pid value {v}"
            ))),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "non-pid response to an elect: {other:?}"
            ))),
        }
    }

    /// Round-trips a no-op, reconnecting if needed.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Ok(_) => Ok(()),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "non-ack response to a ping: {other:?}"
            ))),
        }
    }

    /// Scrapes the server's `bso-introspect/v1` snapshot.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn introspect(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Introspect)? {
            Response::Introspect(json) => Ok(json),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "non-snapshot response to an introspect: {other:?}"
            ))),
        }
    }

    /// [`ResilientClient::call`] for a request built by value.
    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call(|id, out| wire::encode_request(id, req, out))
    }

    /// One operation, end to end: allocate a `req_id`, encode the
    /// request under it, then attempt until a terminal response lands
    /// or the policy gives up. The `req_id` is *fixed across every
    /// retry* — that is what lets the server distinguish "same op
    /// again, replay it" from new work.
    fn call(
        &mut self,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<Response, ClientError> {
        let req_id = self.next_req_id;
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        let out = match encode(req_id, &mut frame) {
            Ok(()) => self.attempts(req_id, &frame),
            Err(e) => Err(e.into()),
        };
        self.frame = frame;
        out
    }

    fn attempts(&mut self, req_id: u64, frame: &[u8]) -> Result<Response, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let out = self.attempt(req_id, frame);
            let exhausted = attempt >= self.policy.max_attempts;
            match out {
                Ok(Response::Err { code, .. }) if code.retry_in_place() && !exhausted => {
                    self.retries += 1;
                    self.backoff(attempt);
                }
                Ok(Response::Err { code, .. }) if code.retry_after_reconnect() && !exhausted => {
                    self.retries += 1;
                    self.link = None;
                    self.backoff(attempt);
                }
                Ok(resp) => {
                    self.next_req_id += 1;
                    self.last_acked = req_id;
                    return Ok(resp);
                }
                Err(e) if !exhausted && reconnect_worthy(&e) => {
                    self.retries += 1;
                    self.link = None;
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt: (re)connect + resume if needed, write the frame,
    /// read the matching response.
    fn attempt(&mut self, req_id: u64, frame: &[u8]) -> Result<Response, ClientError> {
        self.ensure_connected()?;
        let link = self.link.as_mut().expect("connected above");
        link.stream.write_all(frame)?;
        let (id, resp) = link.recv("server closed the connection mid-operation")?;
        if id != req_id {
            return Err(ClientError::Protocol(format!(
                "response for req_id {id}, expected {req_id}"
            )));
        }
        Ok(resp)
    }

    /// Connect, `Hello`, `Resume` — idempotent when already connected.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.link.is_some() {
            return Ok(());
        }
        let mut last_err: Option<std::io::Error> = None;
        let mut stream = None;
        for addr in &self.addrs {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(ClientError::Io(last_err.unwrap_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::NotConnected, "no address to try")
                })))
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.policy.read_timeout)?;
        if self.connects > 0 {
            self.reconnects += 1;
        }
        self.connects += 1;
        // Handshake, then bind the session. A failure drops the socket
        // so the next attempt starts clean.
        let mut link = Link {
            stream,
            rbuf: vec![0; READ_CHUNK],
            rlen: 0,
        };
        let out = self.handshake(&mut link);
        if out.is_ok() {
            self.link = Some(link);
        }
        out
    }

    fn handshake(&mut self, link: &mut Link) -> Result<(), ClientError> {
        let hello = Request::Hello {
            version: wire::VERSION,
        };
        match link.roundtrip(HELLO_REQ_ID, &hello)? {
            Response::Hello { version } if version == wire::VERSION => {}
            Response::Err { code, message } => return Err(ClientError::Server { code, message }),
            other => {
                return Err(ClientError::Protocol(format!(
                    "non-hello response to a hello: {other:?}"
                )))
            }
        }
        let resume = Request::Resume {
            token: self.token,
            last_acked: self.last_acked,
        };
        match link.roundtrip(RESUME_REQ_ID, &resume)? {
            Response::Resumed { token, cached } if token == self.token => {
                self.replays_resumed += u64::from(cached);
                Ok(())
            }
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "non-resumed response to a resume: {other:?}"
            ))),
        }
    }

    /// Sleep `base * 2^(attempt-1)` capped, jittered into the upper
    /// half so synchronized clients desynchronize deterministically.
    fn backoff(&mut self, attempt: u32) {
        let base = self.policy.base_backoff.as_nanos() as u64;
        let cap = self.policy.max_backoff.as_nanos() as u64;
        let exp = base.saturating_shl(attempt.saturating_sub(1).min(32));
        let full = exp.min(cap).max(1);
        let jittered = full / 2 + self.rng.below(full / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }
}

/// One live connection and its read buffer.
struct Link {
    stream: TcpStream,
    /// Bytes read but not yet consumed live in `rbuf[..rlen]`.
    rbuf: Vec<u8>,
    rlen: usize,
}

impl Link {
    /// Writes one handshake request and reads its answer.
    fn roundtrip(&mut self, req_id: u64, req: &Request) -> Result<Response, ClientError> {
        let mut frame = Vec::new();
        wire::encode_request(req_id, req, &mut frame)?;
        self.stream.write_all(&frame)?;
        let (id, resp) = self.recv("server closed the connection during the handshake")?;
        if id != req_id {
            return Err(ClientError::Protocol(format!(
                "handshake response for req_id {id}, expected {req_id}"
            )));
        }
        Ok(resp)
    }

    /// Reads and decodes the next response frame. A response that
    /// arrives whole costs one `read`; `eof` names an end of stream
    /// before it.
    fn recv(&mut self, eof: &str) -> Result<(u64, Response), ClientError> {
        loop {
            if let Some(range) = wire::split_frame(&self.rbuf[..self.rlen], 0)? {
                let out = wire::decode_response_current(&self.rbuf[range.clone()]);
                self.rbuf.copy_within(range.end..self.rlen, 0);
                self.rlen -= range.end;
                return Ok(out?);
            }
            if self.rlen == self.rbuf.len() {
                self.rbuf.resize(2 * self.rbuf.len(), 0);
            }
            match self.stream.read(&mut self.rbuf[self.rlen..]) {
                Ok(0) => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, eof).into()),
                Ok(n) => self.rlen += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Whether a transport-level failure should trigger
/// reconnect-and-resume. Typed server refusals are classified by
/// [`ErrorCode`](bso_server::ErrorCode) in the caller; this handles the rest.
pub(crate) fn reconnect_worthy(e: &ClientError) -> bool {
    match e {
        // Broken sockets, EOFs, and read timeouts all mean "the wire
        // failed us" — the session protocol makes the resend safe.
        ClientError::Io(_) => true,
        // Corrupt bytes (a chaos proxy flipping bits) poison only the
        // connection, not the session.
        ClientError::Wire(_) => true,
        ClientError::Server { code, .. } => code.retry_after_reconnect(),
        ClientError::Protocol(_) => false,
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= u64::BITS || self.leading_zeros() < shift {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let policy = RetryPolicy::default();
        let base = policy.base_backoff.as_nanos() as u64;
        let cap = policy.max_backoff.as_nanos() as u64;
        // Two RNGs from the same seed walk the same jitter sequence.
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for attempt in 1..20u32 {
            let exp = base.saturating_shl(attempt.saturating_sub(1).min(32));
            let full = exp.min(cap).max(1);
            let ja = full / 2 + a.below(full / 2 + 1);
            let jb = full / 2 + b.below(full / 2 + 1);
            assert_eq!(ja, jb);
            assert!(ja <= cap, "attempt {attempt} exceeded the cap");
            assert!(ja * 2 >= full, "jitter left the upper half");
        }
    }

    #[test]
    fn saturating_shl_never_wraps() {
        assert_eq!(1u64.saturating_shl(3), 8);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!(1u64.saturating_shl(64), u64::MAX);
        assert_eq!((1u64 << 62).saturating_shl(3), u64::MAX);
    }
}
