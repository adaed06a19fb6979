//! The `bso-wire/v2` framed binary protocol.
//!
//! Requests and responses travel as length-prefixed binary frames over
//! any byte stream (the server speaks it over TCP):
//!
//! ```text
//! frame    := len:u32le body
//! body     := version:u8 opcode:u8 req_id:u64le payload sum:u32le   (v2)
//! body     := version:u8 opcode:u8 req_id:u64le payload             (v1)
//! ```
//!
//! `len` counts the body bytes only and is capped at [`MAX_FRAME`]; a
//! peer claiming more is rejected *before* any allocation, mirroring
//! the nesting-depth hardening of the `bso-telemetry` JSON parser.
//! `sum` is the FNV-1a digest ([`checksum`]) of every body byte before
//! it (version through payload), verified — right after the version
//! gate, before any payload interpretation — on every v2 decode:
//! a frame the wire damaged in flight surfaces as a typed
//! [`WireError::Corrupt`] instead of silently decoding to a wrong
//! value, which is what keeps exactly-once retries honest under byte
//! corruption (any single corrupted body byte is detected, including
//! corruption of the digest itself).
//! `req_id` is a client-chosen correlation id: clients may pipeline
//! any number of requests before reading responses, and the server may
//! answer them in any order (shards complete independently), so the id
//! is what ties a response back to its request.
//!
//! ## Versioning and the `Hello` handshake
//!
//! Every body leads with its version byte. v2 keeps v1's payload
//! layout bit-for-bit, appends the integrity digest described above,
//! and adds the [`Request::Hello`] / [`Response::Hello`] negotiation
//! pair plus the [`ErrorCode::Version`] refusal. The codecs here *decode* any version in
//! [`MIN_DECODE_VERSION`]`..=`[`VERSION`] (the layouts coincide) and
//! can encode at either version ([`encode_response_at`]), which is what
//! makes graceful rejection possible: a `bso-server` speaks v2 only,
//! but when a v1 client shows up the server answers — *in v1 framing
//! the old client can still parse* — with a typed
//! [`ErrorCode::Version`] error naming the version it wants, then
//! closes. That replaces the malformed-frame kill a version mismatch
//! used to be. A v2 client opens with `Hello { version: 2 }` and the
//! server answers `Hello` with the negotiated version (the handshake is
//! optional; any other first frame at v2 is simply served).
//!
//! ## Requests
//!
//! | opcode | request | payload |
//! |---|---|---|
//! | `0x01` | [`Request::Apply`] | `pid:u32le` `obj:u32le` opkind |
//! | `0x02` | [`Request::OpenElection`] | `k:u32le` |
//! | `0x03` | [`Request::Elect`] | `session:u32le` `pid:u32le` |
//! | `0x04` | [`Request::Ping`] | — |
//! | `0x05` | [`Request::Hello`] | `version:u8` (v2+) |
//! | `0x06` | [`Request::Introspect`] | — (v2+) |
//! | `0x07` | [`Request::TracedApply`] | `trace_id:u64le` `span_id:u64le` `pid:u32le` `obj:u32le` opkind (v2+) |
//! | `0x08` | [`Request::Resume`] | `token:u64le` `last_acked:u64le` (v2+) |
//! | `0x09` | [`Request::DeadlineApply`] | `budget_us:u32le` `pid:u32le` `obj:u32le` opkind (v2+) |
//! | `0x0A` | [`Request::FetchRouting`] | — (v2+) |
//! | `0x0B` | [`Request::UpdateRouting`] | `epoch:u64le` ranges `len:u32le` utf-8 table (v2+) |
//! | `0x0C` | [`Request::DetachRanges`] | `epoch:u64le` ranges (v2+) |
//! | `0x0D` | [`Request::ExportObject`] | `obj:u32le` (v2+) |
//! | `0x0E` | [`Request::InstallObject`] | `obj:u32le` value (v2+) |
//! | `0x0F` | [`Request::ExportSession`] | `session:u32le` (v2+) |
//! | `0x10` | [`Request::InstallSession`] | `session:u32le` `k:u32le` value (v2+) |
//!
//! where `ranges := count:u32le (lo:u64le hi:u64le)*` is a list of
//! inclusive object-id ranges. Opcodes `0x0A`–`0x10` are the cluster
//! plane (`bso-routing/v1`): routing-table distribution, migration
//! drain, and serialized object/session state transfer between
//! servers. See `DESIGN.md` §3.15.
//!
//! The v2-only opcodes (`Hello`, `Introspect`, `TracedApply`,
//! `Resume`, `DeadlineApply`, and the cluster plane) still *decode* at a v1 version byte —
//! the layouts coincide — but a server refuses to serve them below
//! [`VERSION`], answering the typed [`ErrorCode::Version`] rejection
//! in the client's own framing.
//!
//! ## Responses
//!
//! | opcode | response | payload |
//! |---|---|---|
//! | `0x81` | [`Response::Ok`] | value |
//! | `0x82` | [`Response::Err`] | `code:u8` `len:u32le` utf-8 message |
//! | `0x83` | [`Response::Session`] | `session:u32le` |
//! | `0x84` | [`Response::Hello`] | `version:u8` (v2+) |
//! | `0x85` | [`Response::Introspect`] | `len:u32le` utf-8 JSON (v2+) |
//! | `0x86` | [`Response::Resumed`] | `token:u64le` `cached:u32le` (v2+) |
//! | `0x87` | [`Response::Routing`] | `epoch:u64le` `len:u32le` utf-8 JSON (v2+) |
//!
//! ## Session resumption and exactly-once retries
//!
//! A client that wants its retries to be safe binds its connection to
//! a *session token* with [`Request::Resume`] (a client-chosen `u64`,
//! plus the highest request id below which everything was already
//! acknowledged). The server keeps a bounded per-token reply cache:
//! an operation on a bound connection that was already applied answers
//! from the cache instead of applying again, so a retry after a lost
//! response observes exactly the original effect. After a reconnect
//! the client re-sends `Resume` with the same token, then re-issues
//! its unacknowledged requests under their original request ids. See
//! `DESIGN.md` §3.14 for the full protocol and its retry table.
//!
//! ## Values and operations
//!
//! [`Value`]s are tagged: `0` Nil, `1` Bool(`u8`), `2` Int(`i64le`),
//! `3` Sym(code `u8`), `4` Pid(`u64le`), `5` Pair(value value), `6`
//! Seq(`count:u32le` values). Nesting is capped at
//! [`MAX_VALUE_DEPTH`] and sequence counts at [`MAX_SEQ_LEN`] — both
//! on *encode and decode*, so a malicious frame can neither recurse
//! the decoder to death nor make it allocate a phantom gigabyte.
//! [`bso_objects::OpKind`]s are tagged `0..=12` in declaration order
//! (`Read`, `Write`, `Cas`, `TestAndSet`, `Reset`, `FetchAdd`, `Swap`,
//! `SnapshotScan`, `SnapshotUpdate`, `StickyWrite`, `Enqueue`,
//! `Dequeue`, `Rmw`).

use std::fmt;
use std::io::{self, Read, Write};

use bso_objects::{ObjectId, Op, OpKind, Sym, Value};

/// The schema name of this protocol revision.
pub const SCHEMA: &str = "bso-wire/v2";

/// The version byte this revision's encoders write.
pub const VERSION: u8 = 2;

/// The oldest version byte the codecs still *decode* (v1 and v2 share
/// their layout). The server refuses to *serve* anything below
/// [`VERSION`] — but it refuses in framing the old client can parse.
pub const MIN_DECODE_VERSION: u8 = 1;

/// Hard cap on a frame body's length. A length prefix above this is a
/// [`WireError::FrameTooLarge`] before any buffer is grown.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of the trailing [`checksum`] digest a v2 body carries.
pub const CHECKSUM_LEN: usize = 4;

/// First protocol version whose bodies carry the trailing digest.
const CHECKSUM_VERSION: u8 = 2;

/// The frame integrity digest: 32-bit FNV-1a over the body bytes
/// preceding the digest (version byte through payload). Appended by
/// the v2 encoders and verified by the decoders before any payload
/// interpretation; a mismatch is [`WireError::Corrupt`].
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// Hard cap on [`Value`] nesting (pairs within sequences within …).
pub const MAX_VALUE_DEPTH: usize = 32;

/// Hard cap on one [`Value::Seq`]'s element count.
pub const MAX_SEQ_LEN: usize = 1 << 16;

/// The trace context a tracing client stamps into a
/// [`Request::TracedApply`] frame, correlating the client's span with
/// the span the server records on the owning shard's track.
///
/// `trace_id` names one end-to-end request; both sides attach it to
/// their Chrome-trace span (`args.trace_id`), which is what
/// [`bso_telemetry::trace::merge_traces`] joins on. `span_id` is the
/// client-side span's identifier (clients use the request id), carried
/// so a server span can name its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// End-to-end request identifier, unique within the issuing client.
    pub trace_id: u64,
    /// The client span this request belongs to.
    pub span_id: u64,
}

/// A client-to-server request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Apply one shared-object operation on behalf of process `pid`.
    Apply {
        /// The invoking process id (snapshot slots are per-process).
        pid: u32,
        /// The operation, aimed at one of the server's objects.
        op: Op,
    },
    /// Open a leader-election session over a fresh
    /// `compare&swap-(k)`: the server instantiates the
    /// Burns–Cruz–Loui [`bso_protocols::CasOnlyElection`] for
    /// `k − 1` participants and returns a session id.
    OpenElection {
        /// Domain size of the session's register (`2 ..= 255`).
        k: u32,
    },
    /// Run participant `pid`'s side of an election session to its
    /// decision; the response is `Value::Pid(winner)`.
    Elect {
        /// The session, as returned by [`Request::OpenElection`].
        session: u32,
        /// The participant (`pid < k − 1`).
        pid: u32,
    },
    /// Liveness / flush probe; the response is `Ok(Value::Nil)`.
    Ping,
    /// Version negotiation (v2+): the highest wire version the client
    /// speaks. The server answers [`Response::Hello`] with the version
    /// the connection will use, or a typed [`ErrorCode::Version`]
    /// error if no common version exists.
    Hello {
        /// The highest version the client can speak.
        version: u8,
    },
    /// Observability scrape (v2+): ask the server for its live metrics
    /// snapshot. The answer is [`Response::Introspect`] carrying a
    /// deterministic `bso-introspect/v1` JSON document (build/config
    /// identity, exact serving counters, per-shard queue depths,
    /// connection counts, turn/apply timings and flight-recorder
    /// contents).
    Introspect,
    /// [`Request::Apply`] carrying a [`TraceContext`] (v2+): the server
    /// executes it identically but additionally records the apply as a
    /// span on the owning shard's trace track, stamped with the
    /// context's ids, so client and server traces can be merged into
    /// one per-request timeline.
    TracedApply {
        /// The client's trace context for this request.
        ctx: TraceContext,
        /// The invoking process id (snapshot slots are per-process).
        pid: u32,
        /// The operation, aimed at one of the server's objects.
        op: Op,
    },
    /// Bind this connection to a resumable session (v2+). `token` is a
    /// client-chosen session identifier; `last_acked` is the highest
    /// request id for which this client has seen every response up to
    /// and including it, letting the server prune its reply cache.
    /// Answered with [`Response::Resumed`], or a typed
    /// [`ErrorCode::Overloaded`] when the session table is full.
    Resume {
        /// Client-chosen session identifier, stable across reconnects.
        token: u64,
        /// Highest request id with everything at or below it answered.
        last_acked: u64,
    },
    /// [`Request::Apply`] carrying a freshness budget (v2+): if more
    /// than `budget_us` microseconds elapse between the server decoding
    /// the frame and the owning shard reaching it, the op is *shed* —
    /// refused with [`ErrorCode::Expired`] and never applied — instead
    /// of consuming shard time on an answer the client has already
    /// given up on.
    DeadlineApply {
        /// Freshness budget in microseconds, measured server-side from
        /// frame decode.
        budget_us: u32,
        /// The invoking process id (snapshot slots are per-process).
        pid: u32,
        /// The operation, aimed at one of the server's objects.
        op: Op,
    },
    /// Ask the server for its current `bso-routing/v1` table (v2+).
    /// Answered with [`Response::Routing`]; clients refresh through
    /// this after a [`ErrorCode::WrongShard`] redirect. A server that
    /// was never given a table answers epoch `0` with an empty table.
    FetchRouting,
    /// Install a new routing view on this server (v2+): the epoch, the
    /// inclusive object-id ranges *this server* now owns, and the full
    /// serialized table (opaque to the server; redistributed verbatim
    /// via [`Request::FetchRouting`]). Refused with
    /// [`ErrorCode::BadRequest`] if `epoch` is below the installed one
    /// — epochs only move forward.
    UpdateRouting {
        /// The table's epoch; must be ≥ the currently installed epoch.
        epoch: u64,
        /// Inclusive `(lo, hi)` object-id ranges this server owns.
        ranges: Vec<(u64, u64)>,
        /// The serialized `bso-routing/v1` table, stored verbatim.
        table: String,
    },
    /// Migration drain (v2+): atomically stop serving the given
    /// object-id ranges, bumping the local epoch to `epoch`. When this
    /// request is answered, every apply on a detached range has either
    /// completed (its effect is in the state a subsequent
    /// [`Request::ExportObject`] observes) or was refused with
    /// [`ErrorCode::WrongShard`] — there is no in-between.
    DetachRanges {
        /// The epoch the detach belongs to (≥ the installed epoch).
        epoch: u64,
        /// Inclusive `(lo, hi)` object-id ranges to stop serving.
        ranges: Vec<(u64, u64)>,
    },
    /// Serialize one object's state for migration (v2+). Answered with
    /// `Ok(value)` carrying the self-describing encoding of
    /// `bso_objects::spec::ObjectState::export`.
    ExportObject {
        /// The object to export.
        obj: u32,
    },
    /// Install a migrated object's state (v2+), overwriting whatever
    /// state this server held for that id. The value must be an
    /// `ObjectState::export` encoding.
    InstallObject {
        /// The object to (over)write.
        obj: u32,
        /// The exported state.
        state: Value,
    },
    /// Serialize one election session's state for replication (v2+).
    /// Answered with `Ok(Seq[Int(k), register])` — the session's domain
    /// size and its `compare&swap-(k)` register contents.
    ExportSession {
        /// The session to export.
        session: u32,
    },
    /// Install an election session under an explicit id (v2+): the
    /// replication path that lets a cluster place the *same* session on
    /// several servers. `state` is the register contents (as exported),
    /// or `Nil` for a fresh session.
    InstallSession {
        /// The session id to install under (client-chosen).
        session: u32,
        /// Domain size of the session's register (`2 ..= 255`).
        k: u32,
        /// Exported register contents, or `Nil` to start fresh.
        state: Value,
    },
}

/// A server-to-client response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The operation's response value.
    Ok(Value),
    /// A typed failure; the request had no effect (except that a
    /// [`ErrorCode::Object`] error reports the shared object's own
    /// refusal, which is itself effect-free per the object specs).
    Err {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A fresh election session id.
    Session(u32),
    /// The negotiated wire version (answering [`Request::Hello`]).
    Hello {
        /// The version the server will speak on this connection.
        version: u8,
    },
    /// The server's metrics snapshot (answering
    /// [`Request::Introspect`]): a `bso-introspect/v1` JSON document.
    Introspect(String),
    /// The session is bound (answering [`Request::Resume`]): echoes the
    /// token and reports how many cached replies the server still holds
    /// for it — replies to requests the client may be about to retry.
    Resumed {
        /// The session token this connection is now bound to.
        token: u64,
        /// Cached replies retained after pruning at `last_acked`.
        cached: u32,
    },
    /// The server's routing view (answering [`Request::FetchRouting`]):
    /// the installed epoch and the serialized `bso-routing/v1` table.
    Routing {
        /// The installed routing epoch (`0` if none was ever installed).
        epoch: u64,
        /// The serialized table (empty if none was ever installed).
        table: String,
    },
}

/// Typed error classes a server can answer with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The target shard's queue is full — backpressure, try again.
    /// The request was *not* enqueued.
    Busy = 1,
    /// The shared object rejected the operation
    /// ([`bso_objects::ObjectError`] rendered in the message).
    Object = 2,
    /// The request is well-framed but semantically invalid (unknown
    /// object, bad election parameters, pid out of range…).
    BadRequest = 3,
    /// The server is draining and no longer accepts work.
    ShuttingDown = 4,
    /// No such election session.
    UnknownSession = 5,
    /// Wire-version mismatch: the server does not serve the version
    /// this connection (or its [`Request::Hello`]) speaks. The message
    /// names the version the server wants.
    Version = 6,
    /// The request outlived its validity window: a
    /// [`Request::DeadlineApply`] whose freshness budget ran out before
    /// the owning shard reached it. The op was shed, *not* applied, so
    /// retrying it (with a fresh budget) is safe.
    Expired = 7,
    /// The server refused new resumable state — the session table is at
    /// capacity. Existing sessions keep working; a client seeing this
    /// should back off, reconnect and try binding again.
    Overloaded = 8,
    /// The session token cannot answer this request: the retried
    /// request id predates what the bounded reply cache still covers,
    /// so the server can no longer tell whether it was applied.
    /// Retrying would risk a duplicate effect — the client must treat
    /// the op's outcome as unknown.
    BadToken = 9,
    /// This server does not (or no longer does) own the object the
    /// request targets — the cluster's routing table moved the range,
    /// or the client's cached table is stale. The request was *not*
    /// applied. The message carries the refusing server's routing
    /// epoch in `epoch=N` form ([`wrong_shard_epoch`] parses it); a
    /// client whose cached epoch is older must refresh its table
    /// ([`Request::FetchRouting`]) and re-route the op — the
    /// [`ErrorCode::retry_after_refresh`] class.
    WrongShard = 10,
}

impl ErrorCode {
    /// The wire byte for this code (the inverse of
    /// [`ErrorCode::from_u8`]).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte into a typed code.
    pub fn from_u8(c: u8) -> Option<ErrorCode> {
        match c {
            1 => Some(ErrorCode::Busy),
            2 => Some(ErrorCode::Object),
            3 => Some(ErrorCode::BadRequest),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::UnknownSession),
            6 => Some(ErrorCode::Version),
            7 => Some(ErrorCode::Expired),
            8 => Some(ErrorCode::Overloaded),
            9 => Some(ErrorCode::BadToken),
            10 => Some(ErrorCode::WrongShard),
            _ => None,
        }
    }

    /// Whether a request refused with this code had no effect and is
    /// worth retrying at all: the union of [`retry_in_place`],
    /// [`retry_after_reconnect`] and [`retry_after_refresh`].
    ///
    /// [`retry_in_place`]: ErrorCode::retry_in_place
    /// [`retry_after_reconnect`]: ErrorCode::retry_after_reconnect
    /// [`retry_after_refresh`]: ErrorCode::retry_after_refresh
    pub fn is_retryable(self) -> bool {
        self.retry_in_place() || self.retry_after_reconnect() || self.retry_after_refresh()
    }

    /// Retryable on the *same* connection: transient refusals
    /// ([`ErrorCode::Busy`] backpressure, an [`ErrorCode::Expired`]
    /// shed) where the connection itself is healthy — back off briefly
    /// and re-send.
    pub fn retry_in_place(self) -> bool {
        matches!(self, ErrorCode::Busy | ErrorCode::Expired)
    }

    /// Retryable only through a *new* connection: this server instance
    /// ([`ErrorCode::ShuttingDown`]) or its resumable-session capacity
    /// ([`ErrorCode::Overloaded`]) is refusing the connection's future
    /// work, not just this request — re-sending in place can only
    /// repeat the refusal.
    pub fn retry_after_reconnect(self) -> bool {
        matches!(self, ErrorCode::ShuttingDown | ErrorCode::Overloaded)
    }

    /// Retryable only after refreshing the cluster routing table
    /// ([`ErrorCode::WrongShard`]): the server is healthy and the
    /// connection is fine, but the *placement* the client assumed is
    /// stale — re-sending to the same server (in place or reconnected)
    /// can only repeat the refusal. Re-route through a fresher table.
    pub fn retry_after_refresh(self) -> bool {
        matches!(self, ErrorCode::WrongShard)
    }
}

/// Renders the message of a [`ErrorCode::WrongShard`] refusal: carries
/// the refusing server's routing epoch in the `epoch=N` form
/// [`wrong_shard_epoch`] parses back out.
pub fn wrong_shard_message(epoch: u64, obj: u64) -> String {
    format!("epoch={epoch}; object {obj} is not owned by this server")
}

/// Extracts the routing epoch a [`ErrorCode::WrongShard`] message
/// carries (the `epoch=N` prefix written by [`wrong_shard_message`]).
/// `None` if the message does not carry one — a client should then
/// refresh unconditionally.
pub fn wrong_shard_epoch(message: &str) -> Option<u64> {
    let rest = message.strip_prefix("epoch=")?;
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Object => "object",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::Version => "version",
            ErrorCode::Expired => "expired",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadToken => "bad-token",
            ErrorCode::WrongShard => "wrong-shard",
        };
        f.write_str(s)
    }
}

/// Why a frame failed to encode or decode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The body ended before the payload was complete.
    Truncated,
    /// The payload decoded fully but bytes remain.
    Trailing(usize),
    /// The version byte is outside
    /// [`MIN_DECODE_VERSION`]`..=`[`VERSION`].
    BadVersion(u8),
    /// Unknown request/response opcode.
    BadOpcode(u8),
    /// Unknown [`Value`] tag.
    BadValueTag(u8),
    /// Unknown [`OpKind`] tag.
    BadOpTag(u8),
    /// Unknown [`ErrorCode`] byte.
    BadErrorCode(u8),
    /// Value nesting beyond [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// A sequence claimed more than [`MAX_SEQ_LEN`] elements.
    SeqTooLong(usize),
    /// A frame length prefix beyond [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// An error message was not valid UTF-8.
    BadUtf8,
    /// The body's trailing [`checksum`] digest does not match its
    /// bytes — the frame was damaged in flight.
    Corrupt {
        /// The digest recomputed over the received body.
        expected: u32,
        /// The digest the body actually carried.
        found: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v} (want {VERSION})"),
            WireError::BadOpcode(c) => write!(f, "unknown opcode {c:#04x}"),
            WireError::BadValueTag(t) => write!(f, "unknown value tag {t}"),
            WireError::BadOpTag(t) => write!(f, "unknown operation tag {t}"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::TooDeep => write!(f, "value nesting deeper than {MAX_VALUE_DEPTH}"),
            WireError::SeqTooLong(n) => write!(f, "sequence of {n} elements (max {MAX_SEQ_LEN})"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes (max {MAX_FRAME})"),
            WireError::BadUtf8 => write!(f, "message is not valid UTF-8"),
            WireError::Corrupt { expected, found } => write!(
                f,
                "frame checksum mismatch (computed {expected:#010x}, carried {found:#010x})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

pub(crate) const OP_APPLY: u8 = 0x01;
pub(crate) const OP_OPEN_ELECTION: u8 = 0x02;
pub(crate) const OP_ELECT: u8 = 0x03;
const OP_PING: u8 = 0x04;
const OP_HELLO: u8 = 0x05;
const OP_INTROSPECT: u8 = 0x06;
const OP_APPLY_TRACED: u8 = 0x07;
const OP_RESUME: u8 = 0x08;
const OP_APPLY_DEADLINE: u8 = 0x09;
const OP_FETCH_ROUTING: u8 = 0x0A;
const OP_UPDATE_ROUTING: u8 = 0x0B;
const OP_DETACH_RANGES: u8 = 0x0C;
const OP_EXPORT_OBJECT: u8 = 0x0D;
const OP_INSTALL_OBJECT: u8 = 0x0E;
const OP_EXPORT_SESSION: u8 = 0x0F;
const OP_INSTALL_SESSION: u8 = 0x10;
const RESP_OK: u8 = 0x81;
const RESP_ERR: u8 = 0x82;
const RESP_SESSION: u8 = 0x83;
const RESP_HELLO: u8 = 0x84;
const RESP_INTROSPECT: u8 = 0x85;
const RESP_RESUMED: u8 = 0x86;
const RESP_ROUTING: u8 = 0x87;

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value, depth: usize) -> Result<(), WireError> {
    if depth >= MAX_VALUE_DEPTH {
        return Err(WireError::TooDeep);
    }
    match v {
        Value::Nil => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Sym(s) => {
            out.push(3);
            out.push(s.code());
        }
        Value::Pid(p) => {
            out.push(4);
            put_u64(out, *p as u64);
        }
        Value::Pair(a, b) => {
            out.push(5);
            put_value(out, a, depth + 1)?;
            put_value(out, b, depth + 1)?;
        }
        Value::Seq(items) => {
            if items.len() > MAX_SEQ_LEN {
                return Err(WireError::SeqTooLong(items.len()));
            }
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item, depth + 1)?;
            }
        }
    }
    Ok(())
}

fn put_ranges(out: &mut Vec<u8>, ranges: &[(u64, u64)]) {
    put_u32(out, ranges.len() as u32);
    for &(lo, hi) in ranges {
        put_u64(out, lo);
        put_u64(out, hi);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_op_kind(out: &mut Vec<u8>, kind: &OpKind) -> Result<(), WireError> {
    match kind {
        OpKind::Read => out.push(0),
        OpKind::Write(v) => {
            out.push(1);
            put_value(out, v, 0)?;
        }
        OpKind::Cas { expect, new } => {
            out.push(2);
            put_value(out, expect, 0)?;
            put_value(out, new, 0)?;
        }
        OpKind::TestAndSet => out.push(3),
        OpKind::Reset => out.push(4),
        OpKind::FetchAdd(d) => {
            out.push(5);
            out.extend_from_slice(&d.to_le_bytes());
        }
        OpKind::Swap(v) => {
            out.push(6);
            put_value(out, v, 0)?;
        }
        OpKind::SnapshotScan => out.push(7),
        OpKind::SnapshotUpdate(v) => {
            out.push(8);
            put_value(out, v, 0)?;
        }
        OpKind::StickyWrite(v) => {
            out.push(9);
            put_value(out, v, 0)?;
        }
        OpKind::Enqueue(v) => {
            out.push(10);
            put_value(out, v, 0)?;
        }
        OpKind::Dequeue => out.push(11),
        OpKind::Rmw { func } => {
            out.push(12);
            put_u32(out, *func as u32);
        }
    }
    Ok(())
}

/// Appends one framed [`Request::Apply`] of a borrowed `op` to `out`:
/// the bytes [`encode_request`] writes, without building (or cloning
/// an `Op` into) the request first.
///
/// # Errors
///
/// As [`encode_request`].
pub fn encode_apply(req_id: u64, pid: u32, op: &Op, out: &mut Vec<u8>) -> Result<(), WireError> {
    frame(out, VERSION, |body| put_apply(body, req_id, pid, op))
}

fn put_apply(body: &mut Vec<u8>, req_id: u64, pid: u32, op: &Op) -> Result<(), WireError> {
    body.push(OP_APPLY);
    put_u64(body, req_id);
    put_u32(body, pid);
    put_u32(body, op.obj.0 as u32);
    put_op_kind(body, &op.kind)
}

/// Appends one framed request (length prefix included) to `out`.
///
/// # Errors
///
/// [`WireError::TooDeep`]/[`WireError::SeqTooLong`] if an operand
/// value breaks the encoding limits, [`WireError::FrameTooLarge`] if
/// the body would exceed [`MAX_FRAME`].
pub fn encode_request(req_id: u64, req: &Request, out: &mut Vec<u8>) -> Result<(), WireError> {
    frame(out, VERSION, |body| {
        match req {
            Request::Apply { pid, op } => put_apply(body, req_id, *pid, op)?,
            Request::OpenElection { k } => {
                body.push(OP_OPEN_ELECTION);
                put_u64(body, req_id);
                put_u32(body, *k);
            }
            Request::Elect { session, pid } => {
                body.push(OP_ELECT);
                put_u64(body, req_id);
                put_u32(body, *session);
                put_u32(body, *pid);
            }
            Request::Ping => {
                body.push(OP_PING);
                put_u64(body, req_id);
            }
            Request::Hello { version } => {
                body.push(OP_HELLO);
                put_u64(body, req_id);
                body.push(*version);
            }
            Request::Introspect => {
                body.push(OP_INTROSPECT);
                put_u64(body, req_id);
            }
            Request::TracedApply { ctx, pid, op } => {
                body.push(OP_APPLY_TRACED);
                put_u64(body, req_id);
                put_u64(body, ctx.trace_id);
                put_u64(body, ctx.span_id);
                put_u32(body, *pid);
                put_u32(body, op.obj.0 as u32);
                put_op_kind(body, &op.kind)?;
            }
            Request::Resume { token, last_acked } => {
                body.push(OP_RESUME);
                put_u64(body, req_id);
                put_u64(body, *token);
                put_u64(body, *last_acked);
            }
            Request::DeadlineApply { budget_us, pid, op } => {
                body.push(OP_APPLY_DEADLINE);
                put_u64(body, req_id);
                put_u32(body, *budget_us);
                put_u32(body, *pid);
                put_u32(body, op.obj.0 as u32);
                put_op_kind(body, &op.kind)?;
            }
            Request::FetchRouting => {
                body.push(OP_FETCH_ROUTING);
                put_u64(body, req_id);
            }
            Request::UpdateRouting {
                epoch,
                ranges,
                table,
            } => {
                body.push(OP_UPDATE_ROUTING);
                put_u64(body, req_id);
                put_u64(body, *epoch);
                put_ranges(body, ranges);
                put_str(body, table);
            }
            Request::DetachRanges { epoch, ranges } => {
                body.push(OP_DETACH_RANGES);
                put_u64(body, req_id);
                put_u64(body, *epoch);
                put_ranges(body, ranges);
            }
            Request::ExportObject { obj } => {
                body.push(OP_EXPORT_OBJECT);
                put_u64(body, req_id);
                put_u32(body, *obj);
            }
            Request::InstallObject { obj, state } => {
                body.push(OP_INSTALL_OBJECT);
                put_u64(body, req_id);
                put_u32(body, *obj);
                put_value(body, state, 0)?;
            }
            Request::ExportSession { session } => {
                body.push(OP_EXPORT_SESSION);
                put_u64(body, req_id);
                put_u32(body, *session);
            }
            Request::InstallSession { session, k, state } => {
                body.push(OP_INSTALL_SESSION);
                put_u64(body, req_id);
                put_u32(body, *session);
                put_u32(body, *k);
                put_value(body, state, 0)?;
            }
        }
        Ok(())
    })
}

/// Appends one framed response (length prefix included) to `out`.
///
/// # Errors
///
/// Same limit violations as [`encode_request`].
pub fn encode_response(req_id: u64, resp: &Response, out: &mut Vec<u8>) -> Result<(), WireError> {
    encode_response_at(VERSION, req_id, resp, out)
}

/// [`encode_response`] with an explicit version byte — how the server
/// answers a connection at the version *it* speaks (in particular the
/// typed [`ErrorCode::Version`] rejection of a v1 client must arrive
/// in v1 framing to be parseable by that client).
///
/// # Errors
///
/// [`WireError::BadVersion`] for a version outside
/// [`MIN_DECODE_VERSION`]`..=`[`VERSION`], plus everything
/// [`encode_response`] can fail with.
pub fn encode_response_at(
    version: u8,
    req_id: u64,
    resp: &Response,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    if !(MIN_DECODE_VERSION..=VERSION).contains(&version) {
        return Err(WireError::BadVersion(version));
    }
    frame(out, version, |body| {
        match resp {
            Response::Ok(v) => {
                body.push(RESP_OK);
                put_u64(body, req_id);
                put_value(body, v, 0)?;
            }
            Response::Err { code, message } => {
                body.push(RESP_ERR);
                put_u64(body, req_id);
                body.push(*code as u8);
                put_u32(body, message.len() as u32);
                body.extend_from_slice(message.as_bytes());
            }
            Response::Session(s) => {
                body.push(RESP_SESSION);
                put_u64(body, req_id);
                put_u32(body, *s);
            }
            Response::Hello { version } => {
                body.push(RESP_HELLO);
                put_u64(body, req_id);
                body.push(*version);
            }
            Response::Introspect(json) => {
                body.push(RESP_INTROSPECT);
                put_u64(body, req_id);
                put_u32(body, json.len() as u32);
                body.extend_from_slice(json.as_bytes());
            }
            Response::Resumed { token, cached } => {
                body.push(RESP_RESUMED);
                put_u64(body, req_id);
                put_u64(body, *token);
                put_u32(body, *cached);
            }
            Response::Routing { epoch, table } => {
                body.push(RESP_ROUTING);
                put_u64(body, req_id);
                put_u64(body, *epoch);
                put_str(body, table);
            }
        }
        Ok(())
    })
}

/// Reserves the length prefix, writes `version` + the body via `fill`,
/// appends the integrity digest (v2+), then patches the prefix in.
fn frame(
    out: &mut Vec<u8>,
    version: u8,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(version);
    if let Err(e) = fill(out) {
        out.truncate(at);
        return Err(e);
    }
    if version >= CHECKSUM_VERSION {
        let sum = checksum(&out[at + 4..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    let body_len = out.len() - at - 4;
    if body_len > MAX_FRAME {
        out.truncate(at);
        return Err(WireError::FrameTooLarge(body_len));
    }
    out[at..at + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------- decode

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth >= MAX_VALUE_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Value::Nil),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Sym(Sym::from_code(self.u8()?))),
            4 => Ok(Value::Pid(self.u64()? as usize)),
            5 => {
                let a = self.value(depth + 1)?;
                let b = self.value(depth + 1)?;
                Ok(Value::pair(a, b))
            }
            6 => {
                let n = self.u32()? as usize;
                if n > MAX_SEQ_LEN {
                    return Err(WireError::SeqTooLong(n));
                }
                // Each element takes at least one byte: a count beyond
                // the remaining bytes is a lie, reject it before
                // reserving capacity for it.
                if n > self.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            t => Err(WireError::BadValueTag(t)),
        }
    }

    fn ranges(&mut self) -> Result<Vec<(u64, u64)>, WireError> {
        let n = self.u32()? as usize;
        // Each range is 16 payload bytes: a count beyond the remaining
        // bytes is a lie, reject it before reserving capacity for it.
        if n.checked_mul(16).is_none_or(|b| b > self.remaining()) {
            return Err(WireError::Truncated);
        }
        let mut ranges = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = self.u64()?;
            let hi = self.u64()?;
            ranges.push((lo, hi));
        }
        Ok(ranges)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| WireError::BadUtf8)
    }

    fn op_kind(&mut self) -> Result<OpKind, WireError> {
        match self.u8()? {
            0 => Ok(OpKind::Read),
            1 => Ok(OpKind::Write(self.value(0)?)),
            2 => {
                let expect = self.value(0)?;
                let new = self.value(0)?;
                Ok(OpKind::Cas { expect, new })
            }
            3 => Ok(OpKind::TestAndSet),
            4 => Ok(OpKind::Reset),
            5 => Ok(OpKind::FetchAdd(self.i64()?)),
            6 => Ok(OpKind::Swap(self.value(0)?)),
            7 => Ok(OpKind::SnapshotScan),
            8 => Ok(OpKind::SnapshotUpdate(self.value(0)?)),
            9 => Ok(OpKind::StickyWrite(self.value(0)?)),
            10 => Ok(OpKind::Enqueue(self.value(0)?)),
            11 => Ok(OpKind::Dequeue),
            12 => Ok(OpKind::Rmw {
                func: self.u32()? as usize,
            }),
            t => Err(WireError::BadOpTag(t)),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

fn body_cursor(body: &[u8]) -> Result<(Cursor<'_>, u8, u64), WireError> {
    let mut c = Cursor { buf: body, at: 0 };
    let version = c.u8()?;
    if !(MIN_DECODE_VERSION..=VERSION).contains(&version) {
        return Err(WireError::BadVersion(version));
    }
    if version >= CHECKSUM_VERSION {
        // Integrity gates interpretation: strip and verify the trailing
        // digest before a single payload byte is trusted.
        let Some(split) = body.len().checked_sub(CHECKSUM_LEN).filter(|&s| s >= 1) else {
            return Err(WireError::Truncated);
        };
        let (covered, sum) = body.split_at(split);
        let found = u32::from_le_bytes(sum.try_into().expect("CHECKSUM_LEN bytes"));
        let expected = checksum(covered);
        if found != expected {
            return Err(WireError::Corrupt { expected, found });
        }
        c.buf = covered;
    }
    let opcode = c.u8()?;
    let req_id = c.u64()?;
    Ok((c, opcode, req_id))
}

/// The version byte of a frame body, if present.
///
/// Never fails on garbage — this is the *pre*-decode peek the server
/// uses to decide whether a rejected frame deserves a typed
/// [`ErrorCode::Version`] reply (framed at the client's own version so
/// the client can parse it) or is simply malformed.
pub fn peek_version(body: &[u8]) -> Option<u8> {
    body.first().copied()
}

/// Best-effort request id of a frame body (`None` when truncated).
///
/// Used together with [`peek_version`] on frames that fail version
/// admission, so the rejection can still correlate to the request that
/// provoked it.
pub fn peek_req_id(body: &[u8]) -> Option<u64> {
    let bytes = body.get(2..10)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Decodes one request body (without the length prefix).
///
/// # Errors
///
/// Any [`WireError`]: wrong version, unknown opcode or tags, truncated
/// or oversized payloads, excess trailing bytes.
pub fn decode_request(body: &[u8]) -> Result<(u64, Request), WireError> {
    let (mut c, opcode, req_id) = body_cursor(body)?;
    let req = match opcode {
        OP_APPLY => {
            let pid = c.u32()?;
            let obj = ObjectId(c.u32()? as usize);
            let kind = c.op_kind()?;
            Request::Apply {
                pid,
                op: Op::new(obj, kind),
            }
        }
        OP_OPEN_ELECTION => Request::OpenElection { k: c.u32()? },
        OP_ELECT => {
            let session = c.u32()?;
            let pid = c.u32()?;
            Request::Elect { session, pid }
        }
        OP_PING => Request::Ping,
        OP_HELLO => Request::Hello { version: c.u8()? },
        OP_INTROSPECT => Request::Introspect,
        OP_APPLY_TRACED => {
            let trace_id = c.u64()?;
            let span_id = c.u64()?;
            let pid = c.u32()?;
            let obj = ObjectId(c.u32()? as usize);
            let kind = c.op_kind()?;
            Request::TracedApply {
                ctx: TraceContext { trace_id, span_id },
                pid,
                op: Op::new(obj, kind),
            }
        }
        OP_RESUME => {
            let token = c.u64()?;
            let last_acked = c.u64()?;
            Request::Resume { token, last_acked }
        }
        OP_APPLY_DEADLINE => {
            let budget_us = c.u32()?;
            let pid = c.u32()?;
            let obj = ObjectId(c.u32()? as usize);
            let kind = c.op_kind()?;
            Request::DeadlineApply {
                budget_us,
                pid,
                op: Op::new(obj, kind),
            }
        }
        OP_FETCH_ROUTING => Request::FetchRouting,
        OP_UPDATE_ROUTING => {
            let epoch = c.u64()?;
            let ranges = c.ranges()?;
            let table = c.string()?;
            Request::UpdateRouting {
                epoch,
                ranges,
                table,
            }
        }
        OP_DETACH_RANGES => {
            let epoch = c.u64()?;
            let ranges = c.ranges()?;
            Request::DetachRanges { epoch, ranges }
        }
        OP_EXPORT_OBJECT => Request::ExportObject { obj: c.u32()? },
        OP_INSTALL_OBJECT => {
            let obj = c.u32()?;
            let state = c.value(0)?;
            Request::InstallObject { obj, state }
        }
        OP_EXPORT_SESSION => Request::ExportSession { session: c.u32()? },
        OP_INSTALL_SESSION => {
            let session = c.u32()?;
            let k = c.u32()?;
            let state = c.value(0)?;
            Request::InstallSession { session, k, state }
        }
        other => return Err(WireError::BadOpcode(other)),
    };
    c.finish()?;
    Ok((req_id, req))
}

/// [`decode_response`] that additionally *requires* the body to be at
/// the current [`VERSION`] — what every in-repo client uses to read a
/// stream it negotiated at v2.
///
/// The distinction matters under byte corruption: v1 bodies carry no
/// integrity digest, so a client lenient enough to accept one would
/// accept any desynchronized garbage whose first byte happens to be
/// `1` — a silent-corruption hole. A v2 speaker never legitimately
/// receives a v1 response (the server answers at the version the
/// client spoke), so the strict decoder turns that garbage into a
/// typed [`WireError::BadVersion`] the client treats as a broken
/// connection.
///
/// # Errors
///
/// [`WireError::BadVersion`] for any version byte other than
/// [`VERSION`], plus everything [`decode_response`] can fail with.
pub fn decode_response_current(body: &[u8]) -> Result<(u64, Response), WireError> {
    match peek_version(body) {
        Some(VERSION) => decode_response(body),
        Some(v) => Err(WireError::BadVersion(v)),
        None => Err(WireError::Truncated),
    }
}

/// Decodes one response body (without the length prefix), accepting
/// any version in [`MIN_DECODE_VERSION`]`..=`[`VERSION`] — the
/// lenient codec a *v1* peer would hold. Clients reading a stream they
/// negotiated at v2 must use [`decode_response_current`] instead.
///
/// # Errors
///
/// Same classes as [`decode_request`].
pub fn decode_response(body: &[u8]) -> Result<(u64, Response), WireError> {
    let (mut c, opcode, req_id) = body_cursor(body)?;
    let resp = match opcode {
        RESP_OK => Response::Ok(c.value(0)?),
        RESP_ERR => {
            let code = c.u8()?;
            let code = ErrorCode::from_u8(code).ok_or(WireError::BadErrorCode(code))?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadUtf8)?
                .to_string();
            Response::Err { code, message }
        }
        RESP_SESSION => Response::Session(c.u32()?),
        RESP_HELLO => Response::Hello { version: c.u8()? },
        RESP_INTROSPECT => {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let json = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadUtf8)?
                .to_string();
            Response::Introspect(json)
        }
        RESP_RESUMED => {
            let token = c.u64()?;
            let cached = c.u32()?;
            Response::Resumed { token, cached }
        }
        RESP_ROUTING => {
            let epoch = c.u64()?;
            let table = c.string()?;
            Response::Routing { epoch, table }
        }
        other => return Err(WireError::BadOpcode(other)),
    };
    c.finish()?;
    Ok((req_id, resp))
}

// ---------------------------------------------------------------- framing I/O

/// Reads one frame body from `r` into `buf` (reused across calls).
///
/// Returns `Ok(false)` on a clean EOF *at a frame boundary* — the
/// peer closed the connection between frames. An EOF inside a frame is
/// an [`io::ErrorKind::UnexpectedEof`] error.
///
/// # Errors
///
/// I/O errors from `r`; a length prefix above [`MAX_FRAME`] surfaces
/// as [`io::ErrorKind::InvalidData`] wrapping
/// [`WireError::FrameTooLarge`] **without** the oversized allocation
/// being attempted.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    // Hand-rolled first read so a boundary EOF is distinguishable from
    // a mid-prefix one.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Writes pre-encoded frame bytes (as produced by [`encode_request`] /
/// [`encode_response`]) and clears the buffer.
///
/// # Errors
///
/// I/O errors from `w`.
pub fn write_frames(w: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
    w.write_all(buf)?;
    buf.clear();
    Ok(())
}

/// Locates the next complete frame body in `buf` starting at byte
/// `at`, without copying — the event loop's zero-copy counterpart of
/// [`read_frame`]. Bytes are read off the socket into a per-loop arena
/// buffer once; decoding happens directly on the returned slice range.
///
/// Returns `Ok(None)` while the frame is still incomplete (keep the
/// bytes, read more), or `Ok(Some(range))` with the body's range in
/// `buf`; the caller resumes scanning at `range.end`.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] as soon as the length prefix is
/// readable and over [`MAX_FRAME`] — before waiting for (or buffering)
/// the oversized payload.
pub fn split_frame(buf: &[u8], at: usize) -> Result<Option<std::ops::Range<usize>>, WireError> {
    let rest = &buf[at.min(buf.len())..];
    if rest.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(rest[..4].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    if rest.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some(at + 4..at + 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(7, &req, &mut buf).unwrap();
        let body = &buf[4..];
        assert_eq!(
            u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize,
            body.len()
        );
        let (id, back) = decode_request(body).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, req);
    }

    #[test]
    fn requests_round_trip() {
        for kind in [
            OpKind::Read,
            OpKind::Write(Value::Int(-3)),
            OpKind::Cas {
                expect: Sym::BOTTOM.into(),
                new: Sym::new(2).into(),
            },
            OpKind::TestAndSet,
            OpKind::Reset,
            OpKind::FetchAdd(-9),
            OpKind::Swap(Value::Pid(4)),
            OpKind::SnapshotScan,
            OpKind::SnapshotUpdate(Value::pair(Value::Bool(true), Value::Nil)),
            OpKind::StickyWrite(Value::Seq(vec![Value::Int(1), Value::Nil])),
            OpKind::Enqueue(Value::Pid(0)),
            OpKind::Dequeue,
            OpKind::Rmw { func: 3 },
        ] {
            round_trip_request(Request::Apply {
                pid: 2,
                op: Op::new(ObjectId(5), kind),
            });
        }
        round_trip_request(Request::OpenElection { k: 6 });
        round_trip_request(Request::Elect { session: 9, pid: 1 });
        round_trip_request(Request::Ping);
        round_trip_request(Request::Hello { version: VERSION });
        round_trip_request(Request::Introspect);
        round_trip_request(Request::TracedApply {
            ctx: TraceContext {
                trace_id: 0xDEAD_BEEF,
                span_id: 7,
            },
            pid: 2,
            op: Op::new(ObjectId(5), OpKind::TestAndSet),
        });
        round_trip_request(Request::Resume {
            token: 0xFACE_0FFE,
            last_acked: 41,
        });
        round_trip_request(Request::DeadlineApply {
            budget_us: 1_500,
            pid: 3,
            op: Op::new(ObjectId(2), OpKind::FetchAdd(1)),
        });
        round_trip_request(Request::FetchRouting);
        round_trip_request(Request::UpdateRouting {
            epoch: 3,
            ranges: vec![(0, 21), (64, u64::MAX)],
            table: "{\"schema\":\"bso-routing/v1\"}".into(),
        });
        round_trip_request(Request::UpdateRouting {
            epoch: 0,
            ranges: vec![],
            table: String::new(),
        });
        round_trip_request(Request::DetachRanges {
            epoch: 4,
            ranges: vec![(22, 42)],
        });
        round_trip_request(Request::ExportObject { obj: 7 });
        round_trip_request(Request::InstallObject {
            obj: 7,
            state: Value::Seq(vec![Value::Int(4), Value::Int(1_000)]),
        });
        round_trip_request(Request::ExportSession { session: 5 });
        round_trip_request(Request::InstallSession {
            session: 5,
            k: 6,
            state: Value::Sym(Sym::new(2)),
        });
    }

    #[test]
    fn range_counts_beyond_the_body_are_refused() {
        // A ranges count larger than the remaining bytes must be
        // rejected before any capacity is reserved for it.
        let mut buf = Vec::new();
        encode_request(
            1,
            &Request::DetachRanges {
                epoch: 1,
                ranges: vec![(0, 9)],
            },
            &mut buf,
        )
        .unwrap();
        // Patch the count (after version+opcode+req_id+epoch) to a lie
        // and re-stamp the digest so only the count check can object.
        let count_at = 4 + 1 + 1 + 8 + 8;
        buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum_at = buf.len() - CHECKSUM_LEN;
        let sum = checksum(&buf[4..sum_at]);
        buf[sum_at..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_request(&buf[4..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok(Value::Sym(Sym::new(1))),
            Response::Ok(Value::Seq(vec![Value::Nil; 3])),
            Response::Err {
                code: ErrorCode::Busy,
                message: "shard 3 queue full".into(),
            },
            Response::Session(17),
            Response::Hello { version: VERSION },
            Response::Introspect("{\"schema\":\"bso-introspect/v1\"}".into()),
            Response::Resumed {
                token: u64::MAX - 1,
                cached: 12,
            },
            Response::Routing {
                epoch: 9,
                table: "{\"schema\":\"bso-routing/v1\",\"epoch\":9}".into(),
            },
            Response::Routing {
                epoch: 0,
                table: String::new(),
            },
            Response::Err {
                code: ErrorCode::WrongShard,
                message: wrong_shard_message(3, 77),
            },
        ] {
            let mut buf = Vec::new();
            encode_response(u64::MAX, &resp, &mut buf).unwrap();
            let (id, back) = decode_response(&buf[4..]).unwrap();
            assert_eq!(id, u64::MAX);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn strict_response_decode_refuses_digestless_versions() {
        // A v2-negotiated client must not accept a v1 (digest-less)
        // response: desynchronized garbage starting with a `1` byte
        // would otherwise bypass the integrity gate entirely.
        let resp = Response::Ok(Value::Int(7));
        let mut v1 = Vec::new();
        encode_response_at(1, 9, &resp, &mut v1).unwrap();
        assert!(
            decode_response(&v1[4..]).is_ok(),
            "lenient codec accepts v1"
        );
        assert_eq!(
            decode_response_current(&v1[4..]).unwrap_err(),
            WireError::BadVersion(1)
        );
        let mut v2 = Vec::new();
        encode_response(9, &resp, &mut v2).unwrap();
        assert_eq!(decode_response_current(&v2[4..]).unwrap(), (9, resp));
        assert_eq!(
            decode_response_current(&[]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        // The whole point of the trailing digest: no single damaged
        // body byte — version, opcode, req_id, payload, or the digest
        // itself — may decode, on either codec.
        let mut rbuf = Vec::new();
        encode_request(
            5,
            &Request::Apply {
                pid: 1,
                op: Op::new(ObjectId(2), OpKind::FetchAdd(1)),
            },
            &mut rbuf,
        )
        .unwrap();
        let mut sbuf = Vec::new();
        encode_response(5, &Response::Ok(Value::Int(41)), &mut sbuf).unwrap();
        assert!(decode_request(&rbuf[4..]).is_ok());
        assert!(decode_response(&sbuf[4..]).is_ok());
        for body in [&rbuf[4..], &sbuf[4..]] {
            for i in 0..body.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut evil = body.to_vec();
                    evil[i] ^= mask;
                    assert!(
                        decode_request(&evil).is_err() && decode_response(&evil).is_err(),
                        "corruption at byte {i} mask {mask:#04x} decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn v1_frames_still_decode() {
        // A v1 client's frame differs in the version byte and carries
        // no trailing digest — the payload layouts coincide.
        // MIN_DECODE_VERSION pins that promise.
        let mut buf = Vec::new();
        encode_request(3, &Request::OpenElection { k: 4 }, &mut buf).unwrap();
        buf[4] = 1; // rewrite the version byte to v1…
        buf.truncate(buf.len() - CHECKSUM_LEN); // …and drop the v2 digest
        let (id, req) = decode_request(&buf[4..]).unwrap();
        assert_eq!((id, req), (3, Request::OpenElection { k: 4 }));

        // Versions outside MIN_DECODE_VERSION..=VERSION are rejected.
        for bad in [0, VERSION + 1] {
            buf[4] = bad;
            assert_eq!(
                decode_request(&buf[4..]).unwrap_err(),
                WireError::BadVersion(bad)
            );
        }
    }

    #[test]
    fn v2_opcodes_decode_at_a_v1_version_byte() {
        // The server's serve-time version gate — not the codec — is
        // what refuses v2-only opcodes from a v1 peer, so the refusal
        // can be a typed Version error instead of a malformed-frame
        // kill. The codec therefore decodes them at either version.
        let mut buf = Vec::new();
        encode_request(11, &Request::Introspect, &mut buf).unwrap();
        buf[4] = 1;
        buf.truncate(buf.len() - CHECKSUM_LEN);
        let (id, req) = decode_request(&buf[4..]).unwrap();
        assert_eq!((id, req), (11, Request::Introspect));
    }

    #[test]
    fn responses_encode_at_the_clients_version() {
        // The typed Version rejection of a v1 client must itself be a
        // v1 frame, or the client could not parse its own rejection.
        let resp = Response::Err {
            code: ErrorCode::Version,
            message: format!("server speaks v{VERSION}"),
        };
        let mut buf = Vec::new();
        encode_response_at(1, 42, &resp, &mut buf).unwrap();
        assert_eq!(buf[4], 1, "framed at the requested version");
        let (id, back) = decode_response(&buf[4..]).unwrap();
        assert_eq!((id, back), (42, resp));

        let err = encode_response_at(VERSION + 1, 0, &Response::Session(1), &mut Vec::new());
        assert_eq!(err.unwrap_err(), WireError::BadVersion(VERSION + 1));
    }

    #[test]
    fn peeks_survive_truncation_and_garbage() {
        let mut buf = Vec::new();
        encode_request(0xABCD, &Request::Ping, &mut buf).unwrap();
        let body = &buf[4..];
        assert_eq!(peek_version(body), Some(VERSION));
        assert_eq!(peek_req_id(body), Some(0xABCD));
        assert_eq!(peek_version(&[]), None);
        assert_eq!(peek_req_id(&body[..9]), None);
    }

    #[test]
    fn encode_apply_matches_encode_request() {
        let op = Op::cas(ObjectId(3), Value::Int(1), Value::Pid(2));
        let (mut borrowed, mut owned) = (Vec::new(), Vec::new());
        encode_apply(9, 4, &op, &mut borrowed).unwrap();
        encode_request(9, &Request::Apply { pid: 4, op }, &mut owned).unwrap();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn split_frame_walks_a_pipelined_buffer() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            encode_request(i, &Request::Ping, &mut buf).unwrap();
        }
        // Append a partial frame: prefix promising more than present.
        let tail = buf.len();
        buf.extend_from_slice(&20u32.to_le_bytes());
        buf.extend_from_slice(&[0; 7]);

        let mut at = 0;
        for i in 0..5u64 {
            let range = split_frame(&buf, at).unwrap().expect("complete frame");
            let (id, req) = decode_request(&buf[range.clone()]).unwrap();
            assert_eq!((id, req), (i, Request::Ping));
            at = range.end;
        }
        assert_eq!(at, tail);
        assert_eq!(split_frame(&buf, at).unwrap(), None, "incomplete frame");
        assert_eq!(split_frame(&buf, buf.len()).unwrap(), None, "empty rest");

        // An oversized prefix errors immediately, before the payload.
        let mut evil = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        evil.push(0);
        assert_eq!(
            split_frame(&evil, 0).unwrap_err(),
            WireError::FrameTooLarge(MAX_FRAME + 1)
        );
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::Busy,
            ErrorCode::Object,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::UnknownSession,
            ErrorCode::Version,
            ErrorCode::Expired,
            ErrorCode::Overloaded,
            ErrorCode::BadToken,
            ErrorCode::WrongShard,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            // The three retry classes partition the retryable codes:
            // in-place retries are for transient per-request refusals on
            // a healthy connection; after-reconnect retries are for
            // refusals that condemn the connection's future work too;
            // after-refresh retries are for stale *placement* — the
            // op must be re-routed through a fresher cluster table.
            let in_place = matches!(code, ErrorCode::Busy | ErrorCode::Expired);
            let reconnect = matches!(code, ErrorCode::ShuttingDown | ErrorCode::Overloaded);
            let refresh = matches!(code, ErrorCode::WrongShard);
            assert_eq!(code.retry_in_place(), in_place);
            assert_eq!(code.retry_after_reconnect(), reconnect);
            assert_eq!(code.retry_after_refresh(), refresh);
            assert!(
                [in_place, reconnect, refresh]
                    .iter()
                    .filter(|&&c| c)
                    .count()
                    <= 1,
                "classes are disjoint"
            );
            assert_eq!(code.is_retryable(), in_place || reconnect || refresh);
        }
        // BadToken means "outcome unknowable" — the one failure where a
        // blind retry could duplicate an effect, so it must never be
        // classified retryable.
        assert!(!ErrorCode::BadToken.is_retryable());
        assert_eq!(ErrorCode::from_u8(200), None);
    }

    #[test]
    fn wrong_shard_messages_carry_a_parseable_epoch() {
        assert_eq!(wrong_shard_epoch(&wrong_shard_message(0, 3)), Some(0));
        assert_eq!(
            wrong_shard_epoch(&wrong_shard_message(u64::MAX, 9)),
            Some(u64::MAX)
        );
        // Foreign or hand-written messages degrade to None, which
        // clients treat as "refresh unconditionally".
        assert_eq!(wrong_shard_epoch("not owned here"), None);
        assert_eq!(wrong_shard_epoch("epoch=x"), None);
        assert_eq!(wrong_shard_epoch(""), None);
    }

    #[test]
    fn pipelined_frames_read_back_in_order() {
        let mut buf = Vec::new();
        for i in 0..10u64 {
            encode_request(i, &Request::Ping, &mut buf).unwrap();
        }
        let mut r = io::Cursor::new(buf);
        let mut body = Vec::new();
        for i in 0..10u64 {
            assert!(read_frame(&mut r, &mut body).unwrap());
            let (id, req) = decode_request(&body).unwrap();
            assert_eq!((id, req), (i, Request::Ping));
        }
        assert!(!read_frame(&mut r, &mut body).unwrap());
    }

    #[test]
    fn deep_values_are_rejected_on_encode() {
        let mut v = Value::Nil;
        for _ in 0..MAX_VALUE_DEPTH + 1 {
            v = Value::pair(v, Value::Nil);
        }
        let mut buf = Vec::new();
        let err = encode_request(
            0,
            &Request::Apply {
                pid: 0,
                op: Op::write(ObjectId(0), v),
            },
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err, WireError::TooDeep);
        // The failed encode leaves no partial frame behind.
        assert!(buf.is_empty());
    }
}
