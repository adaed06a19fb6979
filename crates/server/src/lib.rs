//! `bso-server`: an event-driven, shard-per-core shared-object service.
//!
//! Everything this repository studies — read/write registers,
//! `compare&swap-(k)` objects over the bounded domain
//! Σ = {⊥, 0, …, k−2} (Afek & Stupp, *Delimiting the Power of Bounded
//! Size Synchronization Objects*, PODC 1994), atomic snapshots, and
//! the Burns–Cruz–Loui leader-election protocol — has so far lived
//! inside the simulator. This crate serves the same objects to real
//! clients over TCP, using only `std::net` and `std::thread` (plus a
//! thin, self-contained FFI shim over `epoll(7)`/`poll(2)` in
//! [`poll`]) so the workspace still builds fully offline.
//!
//! * [`wire`] — the `bso-wire/v2` length-prefixed binary protocol:
//!   framing, request/response codecs, `Hello` version negotiation,
//!   and the hardening limits ([`wire::MAX_FRAME`],
//!   [`wire::MAX_VALUE_DEPTH`], [`wire::MAX_SEQ_LEN`]).
//! * [`poll`] — readiness polling: level-triggered `epoll` with a
//!   portable `poll(2)` fallback, a self-pipe [`poll::Waker`], and
//!   best-effort core pinning.
//! * [`routing`] — the `bso-routing/v1` cluster plane: the
//!   epoch-stamped table mapping object-id ranges to servers, and the
//!   in-server enforcement that makes live shard migration a barrier
//!   (the `bso-cluster` crate drives it). See DESIGN.md §3.15.
//! * [`Server`] / [`ServerBuilder`] / [`ServerHandle`] — the serving
//!   surface: one nonblocking event loop per shard, each owning both a
//!   slice of the connections and the shard of objects whose ids land
//!   on it, so same-shard requests apply inline with no queueing and
//!   cross-shard requests travel bounded queues with typed `Busy`
//!   backpressure. Frames parse in place out of per-loop arenas;
//!   responses batch per readiness wakeup.
//! * Observability: a running server is never a black box. Any v2
//!   client can scrape a deterministic `bso-introspect/v1` JSON
//!   snapshot with [`Request::Introspect`] (per-shard queue depths,
//!   connection counts, turn/apply quantiles, flight recorder);
//!   requests may carry a [`TraceContext`] so client and server spans
//!   of the same request share a `trace_id` across merged Chrome
//!   traces; and `BSO_FLIGHT=path.json` preserves the final snapshot
//!   on shutdown. See DESIGN.md §3.13.
//!
//! The companion `bso-client` crate provides the pipelined client
//! handle, the event-driven `Swarm` for thousands of concurrent
//! connections, and the op-recording mode that feeds the Wing–Gong
//! linearizability checker in `bso-sim`.
//!
//! # Quick start
//!
//! ```
//! use bso_objects::{Layout, ObjectInit, ObjectId, Op, Value};
//! use bso_server::Server;
//!
//! let mut layout = Layout::new();
//! layout.push(ObjectInit::CasK { k: 4 });
//! let handle = Server::builder()
//!     .shards(2)
//!     .queue_capacity(256)
//!     .bind("127.0.0.1:0", &layout)
//!     .unwrap();
//! let addr = handle.local_addr();
//! // ... point bso_client::Connection at `addr` ...
//! let stats = handle.shutdown();
//! assert_eq!(stats.malformed, 0);
//! ```

// `poll` needs FFI; everything else stays safe. The unsafe surface is
// confined to that one module and audited there.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod event_loop;
mod inbox;
mod introspect;
pub mod poll;
pub mod routing;
mod server;
mod session;
mod shard;
pub mod wire;

pub use introspect::FLIGHT_ENV;
pub use poll::PollBackend;
pub use routing::{RouteEntry, RoutingTable};
#[allow(deprecated)] // the historical config surface stays re-exported
pub use server::ServerConfig;
pub use server::{Server, ServerBuilder, ServerHandle, ServerStats};
pub use wire::{ErrorCode, Request, Response, TraceContext, WireError};
