//! One event loop's inbox: everything other threads hand a loop —
//! accepted sockets, replies owed, cross-shard work — in one queue,
//! plus the parked flag that decides whether a push must wake it.
//!
//! # Capacity
//!
//! Only *work* ([`Inbox::try_push_work`]) is bounded: a full inbox
//! refuses it with [`RouteError::Busy`], which the router turns into a
//! typed wire response. *Obligations* ([`Inbox::push`]: a socket
//! already accepted, a reply already computed) are never refused —
//! refusing them is never correct. The work count is the loop's
//! `server.shard<i>.queue_depth` gauge and its `Introspect`
//! `queue_depth`.
//!
//! # The wake handshake
//!
//! A loop announces it is about to wait by [`Inbox::park`]: it sets
//! `parked`, issues a `SeqCst` fence and re-checks the queue. A
//! producer pushes, then calls [`Inbox::notify`], which `swap`s
//! `parked` to false and writes the self-pipe only if the swap
//! returned `true`. A producer may push several items before one
//! notify (an event loop notifies each peer once per turn, so a peer
//! wakes to the turn's whole batch); what matters is that every push
//! is followed by a notify. This is Dekker's
//! pattern: either the loop's re-check sees the push (so it polls
//! without blocking) or the producer's swap sees the loop parked (so
//! it writes the pipe, and the wait returns). No interleaving leaves a
//! message queued behind a sleeping loop, whatever order the loop
//! drains its inbox and its pipe in — `tests/wake_handshake.rs` checks
//! exactly that with the model checker. While a loop runs, `parked` is
//! false and a notify costs one swap: no syscall on either side. The
//! flag is a one-bit swap object, the bounded-size kind of object this
//! repository studies.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Mutex;

use bso_telemetry::Gauge;

use crate::poll::Waker;

const POISONED: &str = "inbox mutex poisoned by a panicking loop";

/// Why work could not be queued on an [`Inbox`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RouteError {
    /// The inbox holds `capacity` work items already.
    Busy,
    /// The owning loop has exited.
    Closed,
}

struct Queue<T> {
    items: VecDeque<T>,
    /// How many of `items` arrived through [`Inbox::try_push_work`].
    work: usize,
}

/// A multi-producer, single-consumer inbox with a parked-flag wakeup.
/// See the module docs for the protocol.
pub(crate) struct Inbox<T> {
    q: Mutex<Queue<T>>,
    /// Set by the loop just before it may block; cleared by the first
    /// producer that sees it set (that producer writes the pipe).
    parked: AtomicBool,
    capacity: usize,
    closed: AtomicBool,
    depth: Gauge,
    waker: Waker,
}

impl<T> Inbox<T> {
    /// An inbox admitting at most `capacity` queued work items,
    /// reporting their count through `depth` and waking its loop
    /// through `waker`.
    pub(crate) fn new(capacity: usize, depth: Gauge, waker: Waker) -> Inbox<T> {
        Inbox {
            q: Mutex::new(Queue {
                items: VecDeque::new(),
                work: 0,
            }),
            parked: AtomicBool::new(false),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            depth,
            waker,
        }
    }

    /// Queues an obligation — never refused, not counted against the
    /// capacity. The caller owes a [`Inbox::notify`].
    pub(crate) fn push(&self, item: T) {
        self.q.lock().expect(POISONED).items.push_back(item);
    }

    /// Queues work without blocking, or says why not; the item was
    /// *not* queued on `Err`. On `Ok` the caller owes a
    /// [`Inbox::notify`].
    pub(crate) fn try_push_work(&self, item: T) -> Result<(), RouteError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(RouteError::Closed);
        }
        {
            let mut q = self.q.lock().expect(POISONED);
            if q.work >= self.capacity {
                return Err(RouteError::Busy);
            }
            q.items.push_back(item);
            q.work += 1;
            self.depth.set(q.work as u64);
        }
        Ok(())
    }

    /// Wakes the loop if it is parked: the producer half of the
    /// handshake, owed after pushes, also used on its own to make a
    /// loop re-read shared flags (shutdown).
    pub(crate) fn notify(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// Moves everything queued into `out` (appending), in FIFO order.
    pub(crate) fn drain_into(&self, out: &mut Vec<T>) {
        let mut q = self.q.lock().expect(POISONED);
        out.extend(q.items.drain(..));
        if q.work != 0 {
            q.work = 0;
            self.depth.set(0);
        }
    }

    /// The loop half of the handshake, called just before it waits:
    /// marks the loop parked and re-checks the queue. Returns `true`
    /// when the queue is empty, so the loop may block — any later push
    /// writes the pipe. On `false` the loop must poll without
    /// blocking.
    pub(crate) fn park(&self) -> bool {
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.is_empty()
    }

    /// Marks the loop running again (after its wait returned), so
    /// pushes stop writing the pipe.
    pub(crate) fn unpark(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Whether the loop is parked right now.
    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Refuses further work with [`RouteError::Closed`]. Obligations
    /// and already-queued items stay accepted and drainable.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether nothing at all is queued right now.
    pub(crate) fn is_empty(&self) -> bool {
        self.q.lock().expect(POISONED).items.is_empty()
    }

    /// How many work items are queued right now (an instantaneous
    /// depth reading for `Introspect` scrapes).
    pub(crate) fn work_len(&self) -> usize {
        self.q.lock().expect(POISONED).work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Event, Interest, PollBackend, Poller, WakeReader};
    use bso_telemetry::Registry;
    use std::time::Duration;

    fn inbox(capacity: usize) -> (Inbox<u64>, WakeReader, Poller) {
        let (reader, waker) = WakeReader::pair().unwrap();
        let mut poller = Poller::new(PollBackend::Auto).unwrap();
        poller.register(reader.raw_fd(), 0, Interest::READ).unwrap();
        let depth = Registry::disabled().gauge("test.depth");
        (Inbox::new(capacity, depth, waker), reader, poller)
    }

    /// Whether the wake pipe is readable, by a nonblocking poll.
    fn pipe_readable(poller: &mut Poller) -> bool {
        let mut events: Vec<Event> = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        events.iter().any(|e| e.token == 0 && e.readable)
    }

    #[test]
    fn push_between_park_and_wait_leaves_the_pipe_readable() {
        let (inbox, reader, mut poller) = inbox(4);
        // The loop parks on an empty inbox: it may block...
        assert!(inbox.park());
        // ...and a producer pushes before the loop reaches its wait.
        inbox.push(1);
        inbox.notify();
        // The wait must not sleep: the pipe is readable.
        assert!(pipe_readable(&mut poller));
        assert!(!inbox.is_parked(), "the waking producer cleared the flag");
        reader.drain();
        let mut out = Vec::new();
        inbox.drain_into(&mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn push_before_park_is_seen_by_the_recheck() {
        let (inbox, _reader, mut poller) = inbox(4);
        // A running loop: the push writes no pipe byte...
        assert_eq!(inbox.try_push_work(1), Ok(()));
        inbox.notify();
        assert!(!pipe_readable(&mut poller));
        // ...and the park re-check sees the item, so the loop polls
        // without blocking.
        assert!(!inbox.park());
        inbox.unpark();
    }

    #[test]
    fn only_the_first_notify_to_a_parked_loop_writes_the_pipe() {
        let (inbox, reader, mut poller) = inbox(4);
        assert!(inbox.park());
        inbox.push(1);
        inbox.notify();
        reader.drain();
        // The loop has not woken yet, but the flag is already clear:
        // the second push's notify does not write.
        inbox.push(2);
        inbox.notify();
        assert!(!pipe_readable(&mut poller));
        let mut out = Vec::new();
        inbox.drain_into(&mut out);
        assert_eq!(out, vec![1, 2]);
        // A notify with nobody parked is silent too.
        inbox.unpark();
        inbox.notify();
        assert!(!pipe_readable(&mut poller));
    }

    #[test]
    fn capacity_bounds_work_but_not_obligations() {
        let (inbox, _reader, _poller) = inbox(2);
        assert_eq!(inbox.try_push_work(0), Ok(()));
        assert_eq!(inbox.try_push_work(1), Ok(()));
        assert_eq!(inbox.try_push_work(2), Err(RouteError::Busy));
        inbox.push(3);
        inbox.push(4);
        assert_eq!(inbox.work_len(), 2);
        let mut out = Vec::new();
        inbox.drain_into(&mut out);
        assert_eq!(out, vec![0, 1, 3, 4], "FIFO, refused work not queued");
        assert!(inbox.is_empty());
        assert_eq!(inbox.work_len(), 0);
        assert_eq!(
            inbox.try_push_work(5),
            Ok(()),
            "drained inbox accepts again"
        );
    }

    #[test]
    fn closed_inbox_refuses_work_but_keeps_obligations() {
        let (inbox, _reader, _poller) = inbox(4);
        assert_eq!(inbox.try_push_work(0), Ok(()));
        inbox.close();
        assert_eq!(inbox.try_push_work(1), Err(RouteError::Closed));
        inbox.push(2);
        let mut out = Vec::new();
        inbox.drain_into(&mut out);
        assert_eq!(out, vec![0, 2], "pre-close work and obligations drain");
    }
}
