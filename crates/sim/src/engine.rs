//! The parallel sharded state-space exploration engine.
//!
//! This module is the machinery behind [`crate::explore`] and its
//! parallel/symmetric variants; the public API and the semantics of a
//! verdict live in [`crate::explore`]. The engine replaces the seed's
//! recursive DFS with a *dataflow* formulation that parallelizes and
//! never recurses:
//!
//! * Every distinct (canonicalized) global state becomes a [`Node`] in
//!   a sharded visited table. Workers pull *expand* jobs from
//!   work-stealing deques: expanding a node generates its successors,
//!   deduplicates them against the table, and either combines an
//!   already-finished child's step bounds immediately or registers a
//!   *waiter* on the child.
//! * The longest-path DP (`max_steps_per_proc`) flows **backwards**:
//!   when a node's last obligation resolves (its own expansion plus
//!   one per awaited child), it fires its waiters, which may complete
//!   their parents in turn — a chain processed iteratively, so stack
//!   depth never grows with state-graph depth.
//! * **Cycle detection by quiescence**: in an acyclic graph every node
//!   eventually completes. If all queues drain with no violation, no
//!   budget exhaustion, and the root still incomplete, every
//!   incomplete node is waiting on an incomplete child — so the wait
//!   digraph has minimum out-degree 1 and therefore contains a cycle,
//!   which is exactly a schedule on which some process runs forever:
//!   the protocol is not wait-free. Conversely a cycle keeps its nodes
//!   incomplete forever, so quiescence-with-incomplete-root occurs
//!   *iff* the graph is cyclic — the check is sound and complete.
//! * **Deterministic counterexamples**: workers race, so the first
//!   violation a parallel pass hits depends on timing. After a pass
//!   that more than one worker helped with, [`serial_counterexample`]
//!   replays the serial depth-first order on the calling thread,
//!   skipping every state the pass completed, and reports the serial
//!   run's counterexample.
//! * Counterexample schedules come from first-discovery parent links:
//!   each node remembers the concrete edge that created it, so the
//!   path to any node is a genuine executable schedule even under
//!   fingerprinting (a fingerprint collision can merge states and skip
//!   work, but never fabricates an edge) and under symmetry reduction
//!   (nodes expand a concrete *representative* of their orbit, never
//!   an abstract canonical form).
//!
//! # Crash faults, resource guards, panic isolation
//!
//! * With [`ExploreConfig::faults`] `> 0` each enabled process also
//!   gets a **crash successor**: an edge that only sets the process's
//!   crashed bit (memory, locals, and decisions are untouched).
//!   Crashed processes are disabled forever, so the adversary explores
//!   every placement of up to `f` crashes. Crash edges contribute no
//!   steps to the DP and cannot create cycles (the crashed mask grows
//!   strictly along them), so a `Verified`/`NotWaitFree` verdict is
//!   never *caused* by a crash — but [`ViolationKind::StepBound`]
//!   counterexamples may require one (a process spinning on a crashed
//!   peer), and a node's path records its crash edges so the schedule
//!   replays deterministically.
//! * A wall-clock **deadline** or approximate **memory budget**
//!   interrupts the run: the queues are drained into a *frontier* of
//!   unexpanded states, each identified by the schedule (and crashes)
//!   reaching it, from which a later run can resume. Before declaring
//!   the run merely interrupted, a least-fixpoint pass checks whether
//!   some already-complete region proves a cycle *now* (see
//!   [`Shared::cycle_violation`]).
//! * Worker expansion runs under `catch_unwind`: a panicking protocol
//!   implementation surfaces as a [`ViolationKind::Panic`] violation
//!   carrying the panic message and the schedule to the state whose
//!   expansion panicked, instead of poisoning the pool or aborting the
//!   process. All engine locks tolerate poisoning (the engine holds no
//!   lock across protocol calls, so a panic cannot leave a guarded
//!   invariant broken).
//!
//! Under symmetry reduction a node's identity is its orbit-minimal
//! canonical form while its expansion uses the first concrete member
//! discovered (the *representative*). The DP vector of a node is kept
//! in representative coordinates; each dedup edge therefore carries a
//! pid-coordinate translation composed from the two permutations
//! involved, applied when the child's bounds are combined upward.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use bso_objects::spec::ObjectState;
use bso_telemetry::{Counter, Gauge, Histogram, TraceArg, TraceWorker};

use crate::dpor::{self, StepFp};
use crate::explore::{
    check_decision, CrashEvent, DedupMode, ExploreConfig, ExploreOutcome, ExploreStats,
    FrontierEntry, InterruptReason, Report, Seeds, StateKey, Violation, ViolationKind,
};
use crate::fingerprint::{component_hash, FxBuildHasher};
use crate::symmetry::Canonicalizer;
use crate::{Action, Pid, Protocol};

/// Number of visited-table shards (a power of two; selected by the top
/// bits of the key fingerprint).
const SHARDS: usize = 64;

/// How long an idle worker sleeps before re-polling, as a backstop
/// against any lost wakeup.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Locks a mutex, tolerating poisoning: engine invariants never span a
/// protocol call while a lock is held, so a guard abandoned by a
/// panicking worker protects data that is still consistent.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a generated state is keyed in the visited table.
///
/// Every shard map is keyed by the state's 64-bit fingerprint, which
/// is computed exactly once per generated successor (it also selects
/// the shard) — the map itself only ever re-hashes one word. The two
/// modes differ in what a map *entry* holds: exact mode keeps the full
/// states alongside their nodes and resolves fingerprint collisions by
/// equality, fingerprint mode trusts the fingerprint and stores the
/// node alone.
pub(crate) trait KeyMode<S: Hash> {
    /// Everything stored under one fingerprint.
    type Entry;
    /// Finds `state` within an entry.
    fn find<'a>(entry: &'a Self::Entry, state: &StateKey<S>) -> Option<&'a Arc<Node>>;
    /// Records `state → node` under `fp`.
    fn insert(
        map: &mut HashMap<u64, Self::Entry, FxBuildHasher>,
        fp: u64,
        state: &StateKey<S>,
        node: Arc<Node>,
    );
    /// Visits every node in an entry.
    fn for_each_node(entry: &Self::Entry, f: &mut dyn FnMut(&Arc<Node>));
}

/// Full-state keys: exact deduplication, no collisions possible.
pub(crate) struct ExactKeys;

impl<S: Hash + Eq + Clone> KeyMode<S> for ExactKeys {
    /// Almost always a single element; colliding states chain.
    type Entry = Vec<(StateKey<S>, Arc<Node>)>;
    fn find<'a>(entry: &'a Self::Entry, state: &StateKey<S>) -> Option<&'a Arc<Node>> {
        entry
            .iter()
            .find_map(|(k, node)| (k == state).then_some(node))
    }
    fn insert(
        map: &mut HashMap<u64, Self::Entry, FxBuildHasher>,
        fp: u64,
        state: &StateKey<S>,
        node: Arc<Node>,
    ) {
        map.entry(fp).or_default().push((state.clone(), node));
    }
    fn for_each_node(entry: &Self::Entry, f: &mut dyn FnMut(&Arc<Node>)) {
        for (_, node) in entry {
            f(node);
        }
    }
}

/// 64-bit fingerprint keys: no per-state clone is retained, at the
/// price of a ≈ `states²/2⁶⁵` probability of a collision silently
/// merging two distinct states (see `DESIGN.md` §3.2).
pub(crate) struct FingerprintKeys;

impl<S: Hash> KeyMode<S> for FingerprintKeys {
    type Entry = Arc<Node>;
    fn find<'a>(entry: &'a Self::Entry, _state: &StateKey<S>) -> Option<&'a Arc<Node>> {
        Some(entry)
    }
    fn insert(
        map: &mut HashMap<u64, Self::Entry, FxBuildHasher>,
        fp: u64,
        _state: &StateKey<S>,
        node: Arc<Node>,
    ) {
        map.insert(fp, node);
    }
    fn for_each_node(entry: &Self::Entry, f: &mut dyn FnMut(&Arc<Node>)) {
        f(entry);
    }
}

/// The concrete edge that discovered a node.
#[derive(Clone, Copy)]
enum Edge {
    /// The parent stepped `pid`.
    Step(Pid),
    /// `pid` crashed (no step taken; only the crashed mask changed).
    Crash(Pid),
}

/// What `record_successor` found in the visited table.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Recorded {
    /// A fresh state: node created and enqueued.
    New,
    /// Dedup hit on a completed node.
    HitDone,
    /// Dedup hit on a node whose subtree is still in progress — a
    /// back/cross edge into open work, relevant to the cycle proviso.
    HitIncomplete,
}

/// One distinct (canonicalized) global state.
pub(crate) struct Node {
    /// Steps from the initial state along the first-discovery path
    /// (including a resume prefix, excluding crash edges).
    depth: u32,
    /// The edge that discovered this node from the parent's
    /// representative. `None` for a root.
    parent: Option<(Arc<Node>, Edge)>,
    /// For roots seeded from a resumed checkpoint: the already-
    /// executed path from the true initial state to this seed.
    prefix: Option<Arc<FrontierEntry>>,
    /// Under symmetry reduction: the permutation mapping this node's
    /// representative coordinates to canonical coordinates (`None` =
    /// identity, always so without reduction).
    rep_perm: Option<Box<[Pid]>>,
    /// DPOR sleep set, in this node's representative coordinates: pids
    /// whose step from here is already covered by an explored sibling
    /// order. Shrinks monotonically (by intersection) as further edges
    /// reach this node; a strict shrink re-enqueues a supplementary
    /// expansion for the woken pids. Always 0 outside DPOR mode.
    sleep: AtomicU64,
    /// Context switches along the discovery path (meaningful only
    /// under a context bound).
    switches: u32,
    /// The last process stepped along the discovery path.
    last_pid: Option<Pid>,
    /// Outstanding obligations before this node's DP value is final:
    /// 1 for the node's own expansion plus 1 per awaited child.
    pending: AtomicU32,
    inner: Mutex<NodeInner>,
}

struct NodeInner {
    /// DP accumulator: max further steps per process, in this node's
    /// *representative* coordinates.
    best: Vec<u32>,
    /// Parents awaiting this node's completion.
    waiters: Vec<Waiter>,
    /// Whether `best` is final.
    done: bool,
}

/// A parent's registration on an in-progress child.
struct Waiter {
    parent: Arc<Node>,
    /// The pid the parent stepped to reach the child; `None` for a
    /// crash edge (which contributes no step to the DP).
    step_pid: Option<Pid>,
    /// Coordinate translation: the parent-side bound of process `p`
    /// is the child's bound of process `map[p]` (`None` = identity).
    map: Option<Box<[Pid]>>,
}

/// The hash of the bookkeeping ("meta") component of a state: the
/// stepped mask, the crashed mask, and the per-process step counters.
/// These always change together with at most one other component, so
/// folding them into a single Zobrist component keeps the incremental
/// fingerprint update O(1).
fn meta_hash<S>(state: &StateKey<S>) -> u64 {
    component_hash(0, &(state.stepped, state.crashed, &state.steps))
}

/// The Zobrist fingerprint of a full state: the XOR of per-component
/// salted hashes (see [`component_hash`]). Component indices: 0 is
/// the meta component ([`meta_hash`]), `1..=n` the local states,
/// `n+1..=2n` the decisions, `2n+1..` the objects. One process step
/// changes at most three components, so [`Shared::apply_step`]
/// maintains the fingerprint in O(1) instead of re-walking the state
/// per generated successor.
fn zobrist<S: Hash>(state: &StateKey<S>) -> u64 {
    let n = state.states.len();
    let mut fp = meta_hash(state);
    for (i, s) in state.states.iter().enumerate() {
        fp ^= component_hash(1 + i, s);
    }
    for (i, d) in state.decisions.iter().enumerate() {
        fp ^= component_hash(1 + n + i, d);
    }
    for (j, o) in state.mem.objects().iter().enumerate() {
        fp ^= component_hash(1 + 2 * n + j, o);
    }
    fp
}

/// Live telemetry handles for the hot loop, resolved once per run
/// from [`ExploreConfig::telemetry`]. `enabled` gates the clock reads
/// (and the histogram branches) so a disabled registry costs one
/// predictable branch per expansion.
struct EngineTel {
    enabled: bool,
    /// Depth (steps from the root) of each expanded node.
    frontier_depth: Histogram,
    /// Nanoseconds an empty-handed worker spent until a successful
    /// steal.
    steal_wait_ns: Histogram,
    /// Monotone state count, updated as states are discovered (the
    /// `explore.live.*` namespace feeds the progress reporter while a
    /// run is still going; the aggregate `explore.*` metrics land only
    /// in the final report).
    live_states: Counter,
    /// Monotone dedup-hit count, updated live.
    live_dedup_hits: Counter,
    /// Current frontier size (jobs queued, unexpanded).
    live_frontier: Gauge,
    /// Deepest level reached so far.
    live_deepest: Gauge,
    /// Milliseconds left until the deadline (absent without one).
    budget_remaining_ms: Gauge,
    /// Worker panics converted into [`ViolationKind::Panic`].
    fault_panics: Counter,
    /// Deadline expirations observed (at most 1 per run).
    budget_deadline_hits: Counter,
    /// Resource-guard interrupts (deadline or memory budget).
    budget_interrupts: Counter,
    /// Per-worker deque length, `explore.live.queue_len.w{i}`.
    queue_len: Vec<Gauge>,
    /// Size of each computed persistent set (DPOR mode only).
    dpor_set_size: Histogram,
    /// Steps pruned because the pid slept, updated live.
    live_sleep_prunes: Counter,
    /// Sleep-shrink re-expansions plus proviso escalations, live.
    live_backtracks: Counter,
}

impl EngineTel {
    fn new(config: &ExploreConfig, workers: usize) -> EngineTel {
        let reg = &config.telemetry;
        EngineTel {
            enabled: reg.is_enabled(),
            frontier_depth: reg.histogram("explore.frontier_depth"),
            steal_wait_ns: reg.histogram("explore.steal_wait_ns"),
            live_states: reg.counter("explore.live.states"),
            live_dedup_hits: reg.counter("explore.live.dedup_hits"),
            live_frontier: reg.gauge("explore.live.frontier"),
            live_deepest: reg.gauge("explore.live.deepest"),
            // Registered only under a deadline: progress heartbeats
            // omit the field entirely when there is no budget, and a
            // pre-registered gauge would surface as a misleading 0.
            budget_remaining_ms: if config.deadline.is_some() {
                reg.gauge("explore.live.budget_remaining_ms")
            } else {
                bso_telemetry::Registry::disabled().gauge("explore.live.budget_remaining_ms")
            },
            fault_panics: reg.counter("explore.fault.panics"),
            budget_deadline_hits: reg.counter("explore.budget.deadline_hits"),
            budget_interrupts: reg.counter("explore.budget.interrupts"),
            queue_len: (0..workers)
                .map(|i| reg.gauge(&format!("explore.live.queue_len.w{i}")))
                .collect(),
            // Registered only in DPOR mode, for the same reason as the
            // budget gauge: heartbeats and reports should omit the
            // dpor fields entirely when the mode is off.
            dpor_set_size: if config.dpor {
                reg.histogram("explore.dpor.persistent_set_size")
            } else {
                bso_telemetry::Registry::disabled().histogram("explore.dpor.persistent_set_size")
            },
            live_sleep_prunes: if config.dpor {
                reg.counter("explore.live.dpor.sleep_prunes")
            } else {
                bso_telemetry::Registry::disabled().counter("explore.live.dpor.sleep_prunes")
            },
            live_backtracks: if config.dpor {
                reg.counter("explore.live.dpor.backtrack_points")
            } else {
                bso_telemetry::Registry::disabled().counter("explore.live.dpor.backtrack_points")
            },
        }
    }
}

/// A unit of work: expand `node`, whose representative state is
/// `state` with Zobrist fingerprint `fp`.
struct Job<S> {
    state: StateKey<S>,
    fp: u64,
    node: Arc<Node>,
    /// `Some(mask)`: a *supplementary* DPOR re-expansion of an
    /// already-visited node whose sleep set strictly shrank, using
    /// `mask` as the sleep set (in `state`'s coordinates).
    /// Supplementary jobs only discover edges the first expansion
    /// slept through: they skip terminal counting, the DP best-merge,
    /// and the final pending-token decrement.
    sleep_override: Option<u64>,
}

/// What one in-place step changed, for exact reversal.
struct Undo<S> {
    pid: Pid,
    /// The stepping process's prior local state (`None` for a decide,
    /// which leaves the local state untouched).
    old_local: Option<S>,
    /// The targeted object's prior state (layout index, state).
    old_object: Option<(usize, ObjectState)>,
    old_stepped: u64,
    old_fp: u64,
    /// Whether the step incremented `steps[pid]` (step counters are
    /// tracked only under a step bound).
    counted_step: bool,
    /// Whether the step filled `decisions[pid]`.
    decided: bool,
}

impl<S> Undo<S> {
    /// Restores `state` (and its fingerprint) to exactly the pre-step
    /// values.
    fn revert(self, state: &mut StateKey<S>, fp: &mut u64) {
        *fp = self.old_fp;
        state.stepped = self.old_stepped;
        if self.counted_step {
            state.steps[self.pid] -= 1;
        }
        if let Some(local) = self.old_local {
            state.states[self.pid] = local;
        }
        if let Some((idx, object)) = self.old_object {
            *state.mem.object_state_mut(idx) = object;
        }
        if self.decided {
            state.decisions[self.pid] = None;
        }
    }
}

/// Everything shared between workers.
struct Shared<'p, P: Protocol, C, KM: KeyMode<P::State>>
where
    P::State: Hash,
{
    proto: &'p P,
    config: &'p ExploreConfig,
    canon: C,
    n: usize,
    /// Crash budget, clamped to `n − 1` (crashing everyone leaves
    /// nothing to check).
    faults: usize,
    /// Dynamic partial-order reduction with sleep sets.
    dpor: bool,
    /// Skip step successors whose discovery path would exceed this
    /// many context switches (an under-approximation).
    context_bound: Option<usize>,
    /// Effective state cap: `max_states`, possibly lowered by the
    /// memory budget.
    state_cap: usize,
    /// Whether hitting `state_cap` means the *memory budget* (a
    /// resumable interrupt) rather than `max_states` (exhaustion).
    cap_is_memory: bool,
    /// Absolute deadline, resolved at construction.
    deadline: Option<Instant>,
    shards: Vec<Mutex<HashMap<u64, KM::Entry, FxBuildHasher>>>,
    /// Per-worker deques: the owner pushes/pops at the back (LIFO, so
    /// a lone worker performs plain DFS); thieves steal from the
    /// front, taking the shallowest — largest — subproblems.
    queues: Vec<Mutex<VecDeque<Job<P::State>>>>,
    /// Overflow/start queue any worker may pull from.
    injector: Mutex<VecDeque<Job<P::State>>>,
    park: Mutex<()>,
    wakeup: Condvar,
    /// Jobs pushed but not yet fully processed; 0 means quiescent.
    outstanding: AtomicUsize,
    stop: AtomicBool,
    exhausted: AtomicBool,
    /// Which resource guard fired, if any.
    interrupted: Mutex<Option<InterruptReason>>,
    /// Nodes whose expansion was cut short by a stop signal; they are
    /// still unexpanded for checkpoint purposes.
    aborted: Mutex<Vec<Arc<Node>>>,
    /// Frontier entries that never became nodes because the budget ran
    /// out during seeding.
    unseeded: Mutex<Vec<FrontierEntry>>,
    states: AtomicUsize,
    terminals: AtomicUsize,
    deepest: AtomicUsize,
    dedup_hits: AtomicUsize,
    steals: AtomicUsize,
    contention: AtomicUsize,
    crash_branches: AtomicUsize,
    sleep_prunes: AtomicUsize,
    backtrack_points: AtomicUsize,
    frontier: AtomicUsize,
    peak_frontier: AtomicUsize,
    /// Workers that expanded at least one job. A run with one expander
    /// took exactly the serial run's steps (that worker's queue
    /// discipline is the serial one, and no other worker touched the
    /// table).
    expanders: AtomicUsize,
    /// States visited by the serial-order replay of this run's
    /// counterexample (parallel runs only).
    replay_states: AtomicUsize,
    violation: Mutex<Option<Violation>>,
    /// Set only on a serial-order replay (see [`serial_counterexample`]):
    /// whether the parallel pass before it *settled* a state (by its
    /// canonical form and fingerprint), i.e. completed it and everything
    /// reachable from it without a violation. The replay skips such
    /// states.
    settled: Option<&'p Settled<'p, P::State>>,
    tel: EngineTel,
}

/// The settled-state oracle a serial-order replay consults.
type Settled<'a, S> = dyn Fn(&StateKey<S>, u64) -> bool + Sync + 'a;

impl<'p, P, C, KM> Shared<'p, P, C, KM>
where
    P: Protocol,
    P::State: Clone + Hash + Eq,
    C: Canonicalizer<P>,
    KM: KeyMode<P::State>,
{
    fn new(proto: &'p P, config: &'p ExploreConfig, canon: C, workers: usize) -> Self {
        let n = proto.processes();
        // Per-state footprint estimate for the memory budget: the key
        // clone (exact mode's dominant cost), the node, and amortized
        // map/queue overhead. Deliberately rough — the budget is a
        // guard rail, not an allocator.
        let state_bytes = std::mem::size_of::<StateKey<P::State>>()
            + std::mem::size_of::<Node>()
            + std::mem::size_of::<NodeInner>()
            + n * (std::mem::size_of::<P::State>()
                + std::mem::size_of::<Option<bso_objects::Value>>()
                + 6)
            + 48;
        let mem_cap = config
            .memory_budget
            .map(|bytes| (bytes / state_bytes).max(1));
        let state_cap = config.max_states.min(mem_cap.unwrap_or(usize::MAX));
        Shared {
            proto,
            config,
            canon,
            n,
            faults: config.faults.min(n.saturating_sub(1)),
            dpor: config.dpor,
            context_bound: config.context_bound,
            state_cap,
            cap_is_memory: mem_cap.is_some_and(|m| m < config.max_states),
            deadline: config.deadline.map(|d| Instant::now() + d),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            park: Mutex::new(()),
            wakeup: Condvar::new(),
            outstanding: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            exhausted: AtomicBool::new(false),
            interrupted: Mutex::new(None),
            aborted: Mutex::new(Vec::new()),
            unseeded: Mutex::new(Vec::new()),
            states: AtomicUsize::new(0),
            terminals: AtomicUsize::new(0),
            deepest: AtomicUsize::new(0),
            dedup_hits: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            contention: AtomicUsize::new(0),
            crash_branches: AtomicUsize::new(0),
            sleep_prunes: AtomicUsize::new(0),
            backtrack_points: AtomicUsize::new(0),
            frontier: AtomicUsize::new(0),
            peak_frontier: AtomicUsize::new(0),
            expanders: AtomicUsize::new(0),
            replay_states: AtomicUsize::new(0),
            violation: Mutex::new(None),
            settled: None,
            tel: EngineTel::new(config, workers),
        }
    }

    /// The trace lane for worker `idx` (disabled unless the run's
    /// [`TraceSink`](bso_telemetry::TraceSink) is live).
    fn trace_worker(&self, idx: usize) -> TraceWorker {
        if self.config.trace.is_enabled() {
            self.config.trace.worker(format!("explore-w{idx}"))
        } else {
            TraceWorker::disabled()
        }
    }

    /// Locks a shard, counting contended acquisitions.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, HashMap<u64, KM::Entry, FxBuildHasher>> {
        match self.shards[idx].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                plock(&self.shards[idx])
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Records a violation, keeping the lexicographically smallest
    /// schedule (then crash list) if several workers report one, and
    /// halts exploration. Which violations the workers reach depends on
    /// timing; [`serial_counterexample`] then settles which one a
    /// parallel run reports.
    fn record_violation(&self, v: Violation) {
        let mut slot = plock(&self.violation);
        let replace = match slot.as_ref() {
            None => true,
            Some(cur) => (&v.schedule, &v.crashes) < (&cur.schedule, &cur.crashes),
        };
        if replace {
            *slot = Some(v);
        }
        drop(slot);
        self.stop.store(true, Ordering::Relaxed);
        self.wakeup.notify_all();
    }

    /// Records a resource-guard interrupt (first reason wins) and
    /// halts exploration.
    fn interrupt(&self, reason: InterruptReason) {
        {
            let mut slot = plock(&self.interrupted);
            if slot.is_none() {
                *slot = Some(reason);
                if self.tel.enabled {
                    self.tel.budget_interrupts.inc();
                    if reason == InterruptReason::Deadline {
                        self.tel.budget_deadline_hits.inc();
                    }
                }
            }
        }
        self.stop.store(true, Ordering::Relaxed);
        self.wakeup.notify_all();
    }

    /// Parks `node` as still-unexpanded for checkpoint collection
    /// (called when a stop signal cuts its expansion short).
    fn abort_job(&self, node: &Arc<Node>) {
        plock(&self.aborted).push(node.clone());
    }

    /// The concrete schedule reaching `node`'s representative — pids
    /// stepped plus crash events, including any resume prefix — with
    /// an optional extra step appended.
    fn schedule_of(&self, node: &Arc<Node>, extra: Option<Pid>) -> (Vec<Pid>, Vec<CrashEvent>) {
        let mut edges = Vec::with_capacity(node.depth as usize + 1);
        let mut cur = node.clone();
        let prefix = loop {
            match &cur.parent {
                Some((parent, edge)) => {
                    edges.push(*edge);
                    let parent = parent.clone();
                    cur = parent;
                }
                None => break cur.prefix.clone(),
            }
        };
        edges.reverse();
        let (mut sched, mut crashes) = match prefix {
            Some(p) => (p.schedule.clone(), p.crashes.clone()),
            None => (Vec::new(), Vec::new()),
        };
        for edge in edges {
            match edge {
                Edge::Step(pid) => sched.push(pid),
                Edge::Crash(pid) => crashes.push(CrashEvent {
                    at: sched.len(),
                    pid,
                }),
            }
        }
        sched.extend(extra);
        (sched, crashes)
    }

    fn push_job(&self, worker: usize, job: Job<P::State>) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let len = self.frontier.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_frontier.fetch_max(len, Ordering::Relaxed);
        {
            let mut q = plock(&self.queues[worker]);
            q.push_back(job);
            if self.tel.enabled {
                self.tel.queue_len[worker].set(q.len() as u64);
            }
        }
        if self.tel.enabled {
            self.tel.live_frontier.set(len as u64);
        }
        if self.queues.len() > 1 {
            self.wakeup.notify_one();
        }
    }

    fn pop_job(&self, worker: usize, tw: &TraceWorker) -> Option<Job<P::State>> {
        {
            let mut q = plock(&self.queues[worker]);
            if let Some(job) = q.pop_back() {
                if self.tel.enabled {
                    self.tel.queue_len[worker].set(q.len() as u64);
                }
                drop(q);
                let len = self.frontier.fetch_sub(1, Ordering::Relaxed) - 1;
                if self.tel.enabled {
                    self.tel.live_frontier.set(len as u64);
                }
                return Some(job);
            }
        }
        if let Some(job) = plock(&self.injector).pop_front() {
            self.frontier.fetch_sub(1, Ordering::Relaxed);
            return Some(job);
        }
        // Steal half of some victim's queue (from the front: the
        // shallowest, largest subproblems).
        let steal_started = self.tel.enabled.then(Instant::now);
        let workers = self.queues.len();
        for offset in 1..workers {
            let victim = (worker + offset) % workers;
            let mut stolen: VecDeque<Job<P::State>> = {
                let mut q = plock(&self.queues[victim]);
                let take = q.len().div_ceil(2);
                let stolen: VecDeque<Job<P::State>> = q.drain(..take).collect();
                if self.tel.enabled && take > 0 {
                    self.tel.queue_len[victim].set(q.len() as u64);
                }
                stolen
            };
            if let Some(job) = stolen.pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.frontier.fetch_sub(1, Ordering::Relaxed);
                let kept = stolen.len();
                if !stolen.is_empty() {
                    let mut q = plock(&self.queues[worker]);
                    q.extend(stolen);
                    if self.tel.enabled {
                        self.tel.queue_len[worker].set(q.len() as u64);
                    }
                }
                if let Some(started) = steal_started {
                    self.tel
                        .steal_wait_ns
                        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                if tw.is_enabled() {
                    tw.instant_with(
                        "steal",
                        [
                            ("victim", TraceArg::U64(victim as u64)),
                            ("jobs", TraceArg::U64(kept as u64 + 1)),
                        ],
                    );
                }
                return Some(job);
            }
        }
        None
    }

    /// Checks the wall-clock deadline; returns `true` if it fired.
    fn check_deadline(&self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        let now = Instant::now();
        if now >= deadline {
            self.interrupt(InterruptReason::Deadline);
            return true;
        }
        if self.tel.enabled {
            self.tel
                .budget_remaining_ms
                .set(u64::try_from((deadline - now).as_millis()).unwrap_or(u64::MAX));
        }
        false
    }

    /// Converts a worker panic during `expand` into a structured
    /// violation carrying the panic message and the schedule of the
    /// state whose expansion panicked.
    fn record_panic(&self, node: &Arc<Node>, payload: Box<dyn std::any::Any + Send>) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        if self.tel.enabled {
            self.tel.fault_panics.inc();
        }
        let (schedule, crashes) = self.schedule_of(node, None);
        self.record_violation(Violation {
            kind: ViolationKind::Panic,
            description: format!("protocol panicked while the explorer expanded a state: {msg}"),
            schedule,
            crashes,
        });
    }

    /// The worker main loop: pull, expand, repeat; park when idle.
    /// Expansion runs under `catch_unwind` so a panicking protocol
    /// surfaces as a [`ViolationKind::Panic`] violation and the pool
    /// drains cleanly.
    fn worker(&self, idx: usize) {
        let tw = self.trace_worker(idx);
        let mut scratch = vec![0u32; self.n];
        let mut expanded = false;
        loop {
            self.check_deadline();
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            match self.pop_job(idx, &tw) {
                Some(job) => {
                    expanded = true;
                    let node = job.node.clone();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        self.expand(idx, job, &mut scratch, &tw)
                    }));
                    if let Err(payload) = result {
                        self.record_panic(&node, payload);
                    }
                    if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                        self.wakeup.notify_all();
                    }
                }
                None => {
                    if self.outstanding.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    let guard = plock(&self.park);
                    if self.outstanding.load(Ordering::SeqCst) == 0
                        || self.stop.load(Ordering::Relaxed)
                    {
                        break;
                    }
                    let _ = self
                        .wakeup
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        if expanded {
            self.expanders.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One step of `pid` applied to `state` **in place**; checks the
    /// specification (and the step bound) and records any violation
    /// (returning `Err`).
    ///
    /// States are only cloned when a genuinely new one enters the
    /// visited table — the dominant dedup-hit case costs one local
    /// state (and at most one object) clone instead of a full global
    /// state. The Zobrist fingerprint `fp` is updated in O(1): only
    /// the changed components are XORed out and back in. The returned
    /// [`Undo`] restores `state` and `fp` exactly.
    fn apply_step(
        &self,
        node: &Arc<Node>,
        state: &mut StateKey<P::State>,
        fp: &mut u64,
        pid: Pid,
    ) -> Result<Undo<P::State>, ()> {
        let old_stepped = state.stepped;
        let old_fp = *fp;
        let track_steps = !state.steps.is_empty();
        if let Some(bound) = self.config.step_bound {
            let taken = state.steps[pid] as usize + 1;
            if taken > bound {
                let (schedule, crashes) = self.schedule_of(node, Some(pid));
                self.record_violation(Violation {
                    kind: ViolationKind::StepBound,
                    description: format!(
                        "p{pid} takes its step #{taken} without deciding, exceeding the \
                         wait-freedom bound of {bound} steps per process"
                    ),
                    schedule,
                    crashes,
                });
                return Err(());
            }
        }
        // The meta component (stepped/crashed/steps) changes iff the
        // stepped bit flips or step counters are tracked; hash it
        // before mutating in either case.
        let meta_changes = track_steps || old_stepped >> pid & 1 == 0;
        let old_meta = meta_changes.then(|| meta_hash(state));
        let bump_meta = |state: &mut StateKey<P::State>, fp: &mut u64| {
            state.stepped |= 1 << pid;
            if track_steps {
                state.steps[pid] += 1;
            }
            if let Some(old) = old_meta {
                *fp ^= old ^ meta_hash(state);
            }
        };
        match self.proto.next_action(&state.states[pid]) {
            Action::Invoke(op) => {
                let obj_idx = op.obj.0;
                let old_object = state.mem.object(op.obj).cloned().map(|o| (obj_idx, o));
                match state.mem.apply(pid, &op) {
                    Ok(resp) => {
                        let old_local = state.states[pid].clone();
                        self.proto.on_response(&mut state.states[pid], resp);
                        *fp ^= component_hash(1 + pid, &old_local)
                            ^ component_hash(1 + pid, &state.states[pid]);
                        if let Some((idx, old)) = &old_object {
                            let c = 1 + 2 * self.n + idx;
                            *fp ^= component_hash(c, old)
                                ^ component_hash(c, &state.mem.objects()[*idx]);
                        }
                        bump_meta(state, fp);
                        Ok(Undo {
                            pid,
                            old_local: Some(old_local),
                            old_object,
                            old_stepped,
                            old_fp,
                            counted_step: track_steps,
                            decided: false,
                        })
                    }
                    Err(err) => {
                        let (schedule, crashes) = self.schedule_of(node, Some(pid));
                        self.record_violation(Violation {
                            kind: ViolationKind::IllegalOperation,
                            description: format!("p{pid} applied {op}: {err}"),
                            schedule,
                            crashes,
                        });
                        Err(())
                    }
                }
            }
            Action::Decide(v) => {
                // `check_decision` sees `stepped` including the decider.
                if let Err((kind, description)) = check_decision(
                    &self.config.spec,
                    &state.decisions,
                    state.stepped | 1 << pid,
                    pid,
                    &v,
                ) {
                    let (schedule, crashes) = self.schedule_of(node, Some(pid));
                    self.record_violation(Violation {
                        kind,
                        description,
                        schedule,
                        crashes,
                    });
                    return Err(());
                }
                let c = 1 + self.n + pid;
                *fp ^= component_hash(c, &state.decisions[pid]);
                state.decisions[pid] = Some(v);
                *fp ^= component_hash(c, &state.decisions[pid]);
                bump_meta(state, fp);
                Ok(Undo {
                    pid,
                    old_local: None,
                    old_object: None,
                    old_stepped,
                    old_fp,
                    counted_step: track_steps,
                    decided: true,
                })
            }
        }
    }

    /// Deduplicates the successor currently materialized in `state`
    /// against the visited table: a hit attaches the child to `node`,
    /// a miss creates, registers, and enqueues a new child node.
    /// Returns `Err` when the state budget is exceeded (exploration
    /// halts).
    ///
    /// `child_sleep` is the DPOR sleep set the child inherits along
    /// this edge, in `state`'s coordinates (0 outside DPOR mode, for
    /// crash edges, and during escalations). On a dedup hit the
    /// stored sleep set is intersected with it; pids the stored set
    /// slept on but this edge does not are *woken*: a supplementary
    /// re-expansion of the child is enqueued so the newly required
    /// orders get explored (the state-caching fix for sleep sets).
    #[allow(clippy::too_many_arguments)]
    fn record_successor(
        &self,
        worker: usize,
        node: &Arc<Node>,
        edge: Edge,
        state: &StateKey<P::State>,
        fp: u64,
        child_sleep: u64,
        local_best: &mut [u32],
        tw: &TraceWorker,
    ) -> Result<Recorded, ()> {
        debug_assert_eq!(fp, zobrist(state), "incremental fingerprint diverged");
        let step_pid = match edge {
            Edge::Step(pid) => Some(pid),
            Edge::Crash(_) => None,
        };
        let canonical = self.canon.canonicalize(state);
        let (canon_state, succ_perm, canon_fp) = match &canonical {
            Some((c, perm)) => (c, Some(&**perm), zobrist(c)),
            None => (state, None, fp),
        };
        let shard_idx = (canon_fp >> 58) as usize % SHARDS;
        let mut shard = self.lock_shard(shard_idx);
        let hit = shard
            .get(&canon_fp)
            .and_then(|e| KM::find(e, canon_state))
            .cloned();
        if let Some(child) = hit {
            drop(shard);
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            if self.tel.enabled {
                self.tel.live_dedup_hits.inc();
            }
            if tw.is_enabled() {
                if let Some(pid) = step_pid {
                    tw.instant_with(
                        "dedup_hit",
                        [
                            ("pid", TraceArg::U64(pid as u64)),
                            ("depth", TraceArg::U64(u64::from(node.depth) + 1)),
                        ],
                    );
                }
                if succ_perm.is_some() {
                    tw.instant_with("symmetry_hit", []);
                }
            }
            if self.dpor {
                // Translate the arriving sleep set into the child's
                // representative coordinates, shrink the stored set,
                // and re-expand for any pids this wakes.
                let map = rep_map(child.rep_perm.as_deref(), succ_perm, self.n);
                let translated = match map.as_deref() {
                    Some(m) => dpor::permute_mask(child_sleep, m),
                    None => child_sleep,
                };
                let prev = child.sleep.fetch_and(translated, Ordering::SeqCst);
                if prev & !translated != 0 {
                    self.backtrack_points.fetch_add(1, Ordering::Relaxed);
                    if self.tel.enabled {
                        self.tel.live_backtracks.inc();
                    }
                    let woken = match map.as_deref() {
                        Some(m) => dpor::permute_mask_inv(prev, m),
                        None => prev,
                    } & child_sleep;
                    self.push_job(
                        worker,
                        Job {
                            state: state.clone(),
                            fp,
                            node: child.clone(),
                            sleep_override: Some(woken),
                        },
                    );
                }
            }
            let done = self.attach_child(node, step_pid, &child, succ_perm, local_best);
            return Ok(if done {
                Recorded::HitDone
            } else {
                Recorded::HitIncomplete
            });
        }
        // A replay never enters a settled state: no violation is
        // reachable from it, so the serial search would find none there.
        if self
            .settled
            .is_some_and(|settled| settled(canon_state, canon_fp))
        {
            return Ok(Recorded::HitDone);
        }
        let count = self.states.fetch_add(1, Ordering::Relaxed) + 1;
        if count > self.state_cap {
            drop(shard);
            if self.cap_is_memory {
                self.interrupt(InterruptReason::MemoryBudget);
            } else {
                self.exhausted.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
                self.wakeup.notify_all();
            }
            return Err(());
        }
        node.pending.fetch_add(1, Ordering::SeqCst);
        // A crash edge takes no step: the child sits at the same depth
        // (and at the same context-switch count).
        let depth = node.depth + u32::from(step_pid.is_some());
        let (switches, last_pid) = match step_pid {
            Some(pid) => (
                node.switches + u32::from(node.last_pid.is_some_and(|lp| lp != pid)),
                Some(pid),
            ),
            None => (node.switches, node.last_pid),
        };
        let child = Arc::new(Node {
            depth,
            parent: Some((node.clone(), edge)),
            prefix: None,
            rep_perm: succ_perm.map(Box::from),
            sleep: AtomicU64::new(child_sleep),
            switches,
            last_pid,
            pending: AtomicU32::new(1),
            inner: Mutex::new(NodeInner {
                best: vec![0; self.n],
                // The discovery edge's waiter, registered at
                // construction (the node is not yet visible to
                // any other worker). The child's representative
                // is the *uncanonical* successor, whose
                // coordinates already match the parent's — no
                // translation needed.
                waiters: vec![Waiter {
                    parent: node.clone(),
                    step_pid,
                    map: None,
                }],
                done: false,
            }),
        });
        KM::insert(&mut shard, canon_fp, canon_state, child.clone());
        drop(shard);
        self.deepest.fetch_max(depth as usize, Ordering::Relaxed);
        if self.tel.enabled {
            self.tel.live_states.inc();
            self.tel.live_deepest.max(u64::from(depth));
        }
        self.push_job(
            worker,
            Job {
                state: state.clone(),
                fp,
                node: child,
                sleep_override: None,
            },
        );
        Ok(Recorded::New)
    }

    /// Looks the successor materialized in `state` up in the visited
    /// table **without inserting**, and reports whether it is a known
    /// but not-yet-completed node — the signal that a DPOR-pruned edge
    /// might close a cycle through work still in progress (the cycle
    /// proviso; see `expand`).
    fn peek_incomplete(&self, state: &StateKey<P::State>, fp: u64) -> bool {
        let canonical = self.canon.canonicalize(state);
        let (canon_state, canon_fp) = match &canonical {
            Some((c, _)) => (c, zobrist(c)),
            None => (state, fp),
        };
        let shard_idx = (canon_fp >> 58) as usize % SHARDS;
        let hit = {
            let shard = self.lock_shard(shard_idx);
            shard
                .get(&canon_fp)
                .and_then(|e| KM::find(e, canon_state))
                .cloned()
        };
        hit.is_some_and(|node| !plock(&node.inner).done)
    }

    /// Expands `job.node` by generating every enabled successor of its
    /// representative state — one step per non-decided, non-crashed
    /// process, plus (under a crash budget) one crash successor each.
    ///
    /// In DPOR mode only a subset of the enabled processes gets a step
    /// successor: the smallest persistent set (computed from future
    /// footprints) minus the sleep set. Pruned processes still get
    /// crash successors (the fault adversary is orthogonal to step
    /// commutation), and their step successors are *peeked*: if a
    /// pruned step would land on a node whose subtree is still in
    /// progress, the pruned order might be the only one closing a
    /// cycle, so the node escalates to a full expansion (the cycle
    /// proviso). A supplementary job (`sleep_override`) re-expands a
    /// previously visited node with a smaller sleep set and skips the
    /// terminal/DP bookkeeping its first expansion already did.
    fn expand(&self, worker: usize, job: Job<P::State>, local_best: &mut [u32], tw: &TraceWorker) {
        let Job {
            mut state,
            mut fp,
            node,
            sleep_override,
        } = job;
        let supplementary = sleep_override.is_some();
        if self.tel.enabled {
            self.tel.frontier_depth.record(u64::from(node.depth));
        }
        let mut span = tw.begin("expand");
        span.arg("depth", u64::from(node.depth));
        let n = self.n;
        local_best.fill(0);
        let crash_budget = self.faults > state.crashed.count_ones() as usize;
        let mut enabled = 0u64;
        for pid in 0..n {
            if state.decisions[pid].is_none() && state.crashed >> pid & 1 == 0 {
                enabled |= 1 << pid;
            }
        }
        // The DPOR plan: which enabled pids get step successors, and
        // the exact one-step footprints for sleep-set propagation.
        // Sleep is re-read at expansion time (it may have shrunk since
        // the job was pushed — expanding more than planned is sound
        // and subsumes the pending supplementary job's work).
        let plan = if self.dpor && enabled != 0 {
            let sleep = sleep_override.unwrap_or_else(|| node.sleep.load(Ordering::SeqCst));
            let futs: Vec<StepFp> = (0..n)
                .map(|pid| {
                    if enabled >> pid & 1 == 1 {
                        dpor::future_fp(self.proto, &state, &self.config.spec, pid)
                    } else {
                        StepFp::inert()
                    }
                })
                .collect();
            let dset = dpor::smallest_persistent_set(enabled, &futs);
            if self.tel.enabled {
                self.tel.dpor_set_size.record(u64::from(dset.count_ones()));
            }
            let now: Vec<StepFp> = (0..n)
                .map(|pid| {
                    if enabled >> pid & 1 == 1 {
                        dpor::immediate_fp(self.proto, &state, &self.config.spec, pid)
                    } else {
                        StepFp::inert()
                    }
                })
                .collect();
            Some((dset & !sleep, sleep, now))
        } else {
            None
        };
        let mut expanded = 0u64;
        let mut proviso = false;
        // Reverse pid order: the owner pops its deque LIFO, so pushing
        // high pids first makes a lone worker explore pid 0 first —
        // keeping serial violation discovery in lowest-schedule order.
        // (The sleep-set construction below relies on the *logical*
        // ascending order matching this discovery order.) Within one
        // pid the crash successor is pushed last (= popped first), so
        // crashy branches are probed before fault-free ones and the
        // first step-bound counterexample found serially exhibits an
        // actual crash whenever one suffices.
        for pid in (0..n).rev() {
            if enabled >> pid & 1 == 0 {
                continue;
            }
            if self.stop.load(Ordering::Relaxed) {
                self.abort_job(&node);
                return;
            }
            // A step successor whose discovery path would exceed the
            // context bound is skipped outright (an under-approximation
            // — the final report says `Exhausted`, never `Verified`).
            let ctx_ok = self.context_bound.is_none_or(|b| {
                let switches = node.switches + u32::from(node.last_pid.is_some_and(|lp| lp != pid));
                switches as usize <= b
            });
            if ctx_ok {
                let step_planned = match &plan {
                    Some((expand_set, _, _)) => expand_set >> pid & 1 == 1,
                    None => true,
                };
                if step_planned {
                    // The child's sleep set: pids explored before `pid`
                    // in logical (ascending) order — or inherited
                    // asleep — whose pending step commutes with
                    // `pid`'s, minus `pid` itself.
                    let child_sleep = match &plan {
                        Some((expand_set, sleep, now)) => {
                            let before =
                                (sleep | (expand_set & ((1u64 << pid) - 1))) & !(1u64 << pid);
                            let mut cs = 0u64;
                            let mut m = before;
                            while m != 0 {
                                let q = m.trailing_zeros() as usize;
                                m &= m - 1;
                                if !dpor::conflict(&now[q], &now[pid]) {
                                    cs |= 1 << q;
                                }
                            }
                            cs
                        }
                        None => 0,
                    };
                    let Ok(undo) = self.apply_step(&node, &mut state, &mut fp, pid) else {
                        self.abort_job(&node);
                        return;
                    };
                    let stepped = self.record_successor(
                        worker,
                        &node,
                        Edge::Step(pid),
                        &state,
                        fp,
                        child_sleep,
                        local_best,
                        tw,
                    );
                    undo.revert(&mut state, &mut fp);
                    match stepped {
                        Ok(Recorded::HitIncomplete) => proviso = true,
                        Ok(_) => {}
                        Err(()) => {
                            self.abort_job(&node);
                            return;
                        }
                    }
                    expanded |= 1 << pid;
                } else {
                    // Pruned: the step is covered by a commuting order
                    // — unless it closes a cycle through open work,
                    // which a peek (lookup without insert) detects.
                    self.sleep_prunes.fetch_add(1, Ordering::Relaxed);
                    if self.tel.enabled {
                        self.tel.live_sleep_prunes.inc();
                    }
                    let Ok(undo) = self.apply_step(&node, &mut state, &mut fp, pid) else {
                        self.abort_job(&node);
                        return;
                    };
                    if self.peek_incomplete(&state, fp) {
                        proviso = true;
                    }
                    undo.revert(&mut state, &mut fp);
                }
            }
            // Crash successors are generated for *every* enabled pid,
            // pruned or not: a crash is independent of everything but
            // its own process's steps, so the fault adversary's
            // placements stay complete under reduction. Supplementary
            // jobs skip them — the first expansion already did this.
            if crash_budget && !supplementary {
                self.crash_branches.fetch_add(1, Ordering::Relaxed);
                let old_meta = meta_hash(&state);
                let old_fp = fp;
                state.crashed |= 1 << pid;
                fp ^= old_meta ^ meta_hash(&state);
                let crashed = self.record_successor(
                    worker,
                    &node,
                    Edge::Crash(pid),
                    &state,
                    fp,
                    0,
                    local_best,
                    tw,
                );
                state.crashed &= !(1 << pid);
                fp = old_fp;
                if crashed.is_err() {
                    self.abort_job(&node);
                    return;
                }
            }
        }
        // Cycle proviso escalation: some skipped order may be the only
        // one closing a cycle through in-progress work, so expand every
        // remaining enabled pid (with empty child sleep). The woken
        // edges land on already-visited nodes in the common case.
        if self.dpor && proviso && expanded != enabled {
            self.backtrack_points.fetch_add(1, Ordering::Relaxed);
            if self.tel.enabled {
                self.tel.live_backtracks.inc();
            }
            for pid in (0..n).rev() {
                if enabled >> pid & 1 == 0 || expanded >> pid & 1 == 1 {
                    continue;
                }
                if self.stop.load(Ordering::Relaxed) {
                    self.abort_job(&node);
                    return;
                }
                let ctx_ok = self.context_bound.is_none_or(|b| {
                    let switches =
                        node.switches + u32::from(node.last_pid.is_some_and(|lp| lp != pid));
                    switches as usize <= b
                });
                if !ctx_ok {
                    continue;
                }
                let Ok(undo) = self.apply_step(&node, &mut state, &mut fp, pid) else {
                    self.abort_job(&node);
                    return;
                };
                let stepped = self.record_successor(
                    worker,
                    &node,
                    Edge::Step(pid),
                    &state,
                    fp,
                    0,
                    local_best,
                    tw,
                );
                undo.revert(&mut state, &mut fp);
                if stepped.is_err() {
                    self.abort_job(&node);
                    return;
                }
            }
        }
        if supplementary {
            // The node's first expansion already counted the terminal,
            // merged its DP contribution, and dropped its pending
            // token; a supplementary pass only adds the woken edges.
            return;
        }
        if enabled == 0 {
            self.terminals.fetch_add(1, Ordering::Relaxed);
        } else {
            let mut inner = plock(&node.inner);
            for (b, l) in inner.best.iter_mut().zip(local_best.iter()) {
                *b = (*b).max(*l);
            }
        }
        // Drop the expansion's own obligation token.
        if node.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.finish(node);
        }
    }

    /// Handles a dedup hit: combine a finished child's bounds now, or
    /// register a waiter on an in-progress child. Returns whether the
    /// child was already done.
    fn attach_child(
        &self,
        parent: &Arc<Node>,
        step_pid: Option<Pid>,
        child: &Arc<Node>,
        succ_perm: Option<&[Pid]>,
        local_best: &mut [u32],
    ) -> bool {
        let map = rep_map(child.rep_perm.as_deref(), succ_perm, self.n);
        // Combining under the child's lock avoids cloning its bounds on
        // the (dominant) already-finished path; `local_best` is
        // worker-local and no other lock is held, so this cannot
        // deadlock.
        let mut inner = plock(&child.inner);
        if inner.done {
            combine(local_best, &inner.best, map_ref(&map), step_pid);
            true
        } else {
            parent.pending.fetch_add(1, Ordering::SeqCst);
            inner.waiters.push(Waiter {
                parent: parent.clone(),
                step_pid,
                map,
            });
            false
        }
    }

    /// Marks `node` done and fires its waiters, iteratively completing
    /// any parents whose last obligation this resolves. Idempotent: a
    /// DPOR supplementary expansion can register fresh obligations on
    /// an already-done node, whose resolution re-fires `finish` (the
    /// second pass finds no waiters and the DP garbage is harmless —
    /// step bounds are not reported in DPOR mode).
    fn finish(&self, node: Arc<Node>) {
        let mut worklist = vec![node];
        while let Some(nd) = worklist.pop() {
            let (bounds, waiters) = {
                let mut inner = plock(&nd.inner);
                if inner.done {
                    debug_assert!(self.dpor, "node finished twice outside DPOR mode");
                    continue;
                }
                inner.done = true;
                (inner.best.clone(), std::mem::take(&mut inner.waiters))
            };
            for w in waiters {
                {
                    let mut inner = plock(&w.parent.inner);
                    combine(&mut inner.best, &bounds, map_ref(&w.map), w.step_pid);
                }
                if w.parent.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    worklist.push(w.parent);
                }
            }
        }
    }

    /// Whether the canonical state `state` (fingerprint `fp`) is a
    /// completed node: expanded, and everything reachable from it too,
    /// without a violation.
    fn is_settled(&self, state: &StateKey<P::State>, fp: u64) -> bool {
        let shard_idx = (fp >> 58) as usize % SHARDS;
        let hit = plock(&self.shards[shard_idx])
            .get(&fp)
            .and_then(|e| KM::find(e, state))
            .cloned();
        hit.is_some_and(|node| plock(&node.inner).done)
    }

    /// Every generated-but-unexpanded node: the queued jobs plus any
    /// whose expansion a stop signal cut short. Drains the queues.
    fn frontier_nodes(&self) -> Vec<Arc<Node>> {
        let mut nodes: Vec<Arc<Node>> = Vec::new();
        for q in &self.queues {
            nodes.extend(plock(q).drain(..).map(|j| j.node));
        }
        nodes.extend(plock(&self.injector).drain(..).map(|j| j.node));
        nodes.append(&mut plock(&self.aborted));
        let mut seen = HashSet::new();
        nodes.retain(|nd| seen.insert(Arc::as_ptr(nd) as usize));
        nodes
    }

    /// Decides, after the workers have stopped, whether the incomplete
    /// region proves a cycle **now** — and if so exhibits one.
    ///
    /// `frontier` holds the unexpanded nodes, whose subtrees are
    /// unknown; treat them *optimistically* as able to complete. A
    /// non-frontier incomplete node can then complete iff **all** its
    /// awaited (incomplete) children can: compute the least fixpoint
    /// of that rule by counting, per parent, awaited children not yet
    /// known completable, seeded with the frontier. Any incomplete
    /// node left outside the fixpoint — *stuck* — waits (transitively)
    /// on no frontier node, so no future work can complete it: each
    /// stuck node awaits a stuck child, and following those edges must
    /// revisit a node, exhibiting a genuine cycle. At quiescence the
    /// frontier is empty, so this degenerates to the classical
    /// incomplete-root-implies-cycle argument of the module docs; at a
    /// resource interrupt it keeps cycles that are already fully
    /// explored from being deferred (or lost) across a resume.
    fn cycle_violation(
        &self,
        preferred_start: Option<&Arc<Node>>,
        frontier: &[Arc<Node>],
    ) -> Option<Violation> {
        let ptr_of = |nd: &Arc<Node>| Arc::as_ptr(nd) as usize;
        let mut incomplete: Vec<Arc<Node>> = Vec::new();
        for shard in &self.shards {
            for entry in plock(shard).values() {
                KM::for_each_node(entry, &mut |node| {
                    if !plock(&node.inner).done {
                        incomplete.push(node.clone());
                    }
                });
            }
        }
        let mut completable: HashSet<usize> = frontier.iter().map(&ptr_of).collect();
        // Reverse wait edges (child → awaiting parents) and per-parent
        // counts of awaited children not yet known completable.
        let mut parents_of: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut pending_cnt: HashMap<usize, usize> = HashMap::new();
        for child in &incomplete {
            let c = ptr_of(child);
            let child_completable = completable.contains(&c);
            for w in plock(&child.inner).waiters.iter() {
                let p = ptr_of(&w.parent);
                parents_of.entry(c).or_default().push(p);
                if !child_completable {
                    *pending_cnt.entry(p).or_insert(0) += 1;
                }
            }
        }
        let mut work: Vec<usize> = incomplete
            .iter()
            .map(&ptr_of)
            .filter(|p| !completable.contains(p) && pending_cnt.get(p).is_none_or(|&c| c == 0))
            .collect();
        while let Some(u) = work.pop() {
            if !completable.insert(u) {
                continue;
            }
            for &p in parents_of.get(&u).into_iter().flatten() {
                if let Some(cnt) = pending_cnt.get_mut(&p) {
                    *cnt -= 1;
                    if *cnt == 0 && !completable.contains(&p) {
                        work.push(p);
                    }
                }
            }
        }
        let stuck: HashSet<usize> = incomplete
            .iter()
            .map(&ptr_of)
            .filter(|p| !completable.contains(p))
            .collect();
        if stuck.is_empty() {
            return None;
        }
        // One outgoing wait edge per stuck parent, into a stuck child.
        let mut waits_on: HashMap<usize, Arc<Node>> = HashMap::new();
        for child in &incomplete {
            if !stuck.contains(&ptr_of(child)) {
                continue;
            }
            for w in plock(&child.inner).waiters.iter() {
                if stuck.contains(&ptr_of(&w.parent)) {
                    waits_on.insert(ptr_of(&w.parent), child.clone());
                }
            }
        }
        let start = match preferred_start {
            Some(root) if stuck.contains(&ptr_of(root)) => root.clone(),
            _ => incomplete
                .iter()
                .find(|nd| stuck.contains(&ptr_of(nd)))
                .expect("stuck set is nonempty")
                .clone(),
        };
        let mut seen = HashSet::new();
        let mut cur = start;
        while seen.insert(ptr_of(&cur)) {
            cur = waits_on
                .get(&ptr_of(&cur))
                .expect("a stuck node awaits a stuck child")
                .clone();
        }
        let (schedule, crashes) = self.schedule_of(&cur, None);
        Some(Violation {
            kind: ViolationKind::NotWaitFree,
            description: "state graph cycle: a schedule exists on which a process \
                          takes unboundedly many steps without deciding"
                .into(),
            schedule,
            crashes,
        })
    }

    /// Creates and enqueues the root nodes, one per seed (deduplicating
    /// seeds that canonicalize to the same state). Budget overruns stop
    /// seeding; with a memory budget the unseeded tail is preserved for
    /// the checkpoint.
    fn seed(&self, seeds: Seeds<P::State>) -> Vec<Arc<Node>> {
        let mut roots = Vec::new();
        let mut pending = seeds.into_iter();
        while let Some((init, prefix)) = pending.next() {
            let init_fp = zobrist(&init);
            let canonical = self.canon.canonicalize(&init);
            let (canon_state, canon_fp) = match canonical.as_ref() {
                Some((c, _)) => (c, zobrist(c)),
                None => (&init, init_fp),
            };
            let shard_idx = (canon_fp >> 58) as usize % SHARDS;
            {
                let shard = plock(&self.shards[shard_idx]);
                if shard
                    .get(&canon_fp)
                    .and_then(|e| KM::find(e, canon_state))
                    .is_some()
                {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let count = self.states.fetch_add(1, Ordering::Relaxed) + 1;
            if count > self.state_cap {
                if self.cap_is_memory {
                    self.interrupt(InterruptReason::MemoryBudget);
                    let mut unseeded = plock(&self.unseeded);
                    unseeded.push(prefix);
                    unseeded.extend(pending.map(|(_, p)| p));
                } else {
                    self.exhausted.store(true, Ordering::Relaxed);
                    self.stop.store(true, Ordering::Relaxed);
                }
                break;
            }
            let depth = u32::try_from(prefix.schedule.len()).unwrap_or(u32::MAX);
            let root = Arc::new(Node {
                depth,
                parent: None,
                prefix: (!prefix.schedule.is_empty() || !prefix.crashes.is_empty())
                    .then(|| Arc::new(prefix)),
                rep_perm: canonical.as_ref().map(|(_, perm)| perm.clone()),
                // Roots sleep on nothing and (conservatively, for a
                // resumed mid-schedule seed) start at zero switches.
                sleep: AtomicU64::new(0),
                switches: 0,
                last_pid: None,
                pending: AtomicU32::new(1),
                inner: Mutex::new(NodeInner {
                    best: vec![0; self.n],
                    waiters: Vec::new(),
                    done: false,
                }),
            });
            {
                let mut shard = plock(&self.shards[shard_idx]);
                KM::insert(&mut shard, canon_fp, canon_state, root.clone());
            }
            self.deepest.fetch_max(depth as usize, Ordering::Relaxed);
            self.outstanding.fetch_add(1, Ordering::SeqCst);
            let len = self.frontier.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_frontier.fetch_max(len, Ordering::Relaxed);
            plock(&self.injector).push_back(Job {
                state: init,
                fp: init_fp,
                node: root.clone(),
                sleep_override: None,
            });
            roots.push(root);
        }
        roots
    }

    /// Assembles the final report once all workers have returned.
    fn report(&self, roots: &[Arc<Node>], started: Instant, workers: usize) -> Report {
        let duration = started.elapsed();
        let states = self.states.load(Ordering::Relaxed).min(self.state_cap);
        let stats = ExploreStats {
            workers,
            duration,
            states_per_sec: states as f64 / duration.as_secs_f64().max(1e-9),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            peak_frontier: self.peak_frontier.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            shard_contention: self.contention.load(Ordering::Relaxed),
            crash_branches: self.crash_branches.load(Ordering::Relaxed),
            dpor_sleep_prunes: self.sleep_prunes.load(Ordering::Relaxed),
            dpor_backtrack_points: self.backtrack_points.load(Ordering::Relaxed),
            replay_states: self.replay_states.load(Ordering::Relaxed),
        };
        let terminals = self.terminals.load(Ordering::Relaxed);
        let deepest = self.deepest.load(Ordering::Relaxed);
        let violation = plock(&self.violation).take();
        let interrupted = *plock(&self.interrupted);
        let (outcome, bounds) = if let Some(v) = violation {
            (ExploreOutcome::Violated(v), Vec::new())
        } else if !roots.is_empty() && roots.iter().all(|r| plock(&r.inner).done) {
            if self.context_bound.is_some() {
                // A context-bounded pass skips schedules: completing it
                // proves nothing about the full space, so report the
                // under-approximation honestly.
                (ExploreOutcome::Exhausted { states, deepest }, Vec::new())
            } else {
                // Exact step bounds are only meaningful for a run
                // rooted at the true initial state, and not under DPOR
                // (a pruned order can realize a higher per-process
                // count than any explored one; supplementary passes
                // can also leave partial DP contributions behind).
                let bounds = match roots {
                    [root] if root.prefix.is_none() && !self.dpor => plock(&root.inner)
                        .best
                        .iter()
                        .map(|&b| b as usize)
                        .collect(),
                    _ => Vec::new(),
                };
                (ExploreOutcome::Verified, bounds)
            }
        } else if let Some(reason) = interrupted {
            let frontier_nodes = self.frontier_nodes();
            match self.cycle_violation(roots.first(), &frontier_nodes) {
                Some(v) => (ExploreOutcome::Violated(v), Vec::new()),
                None => {
                    let mut frontier: Vec<FrontierEntry> = frontier_nodes
                        .iter()
                        .map(|nd| {
                            let (schedule, crashes) = self.schedule_of(nd, None);
                            FrontierEntry { schedule, crashes }
                        })
                        .collect();
                    frontier.append(&mut plock(&self.unseeded));
                    (
                        ExploreOutcome::Interrupted {
                            reason,
                            states,
                            deepest,
                            frontier,
                        },
                        Vec::new(),
                    )
                }
            }
        } else if self.exhausted.load(Ordering::Relaxed) || roots.is_empty() {
            (ExploreOutcome::Exhausted { states, deepest }, Vec::new())
        } else {
            let start = roots.iter().find(|r| !plock(&r.inner).done);
            let v = self
                .cycle_violation(start, &[])
                .expect("quiescence with an incomplete root implies a cycle");
            (ExploreOutcome::Violated(v), Vec::new())
        };
        let report = Report {
            outcome,
            states,
            terminals,
            max_steps_per_proc: bounds,
            stats,
        };
        report.record_to(&self.config.telemetry);
        report
    }
}

/// Runs the engine single-threaded on the calling thread (no `Send`
/// or `Sync` requirements; with one LIFO deque this is a plain DFS).
pub(crate) fn run_serial<P, C, KM>(
    proto: &P,
    seeds: Seeds<P::State>,
    config: &ExploreConfig,
    canon: C,
) -> Report
where
    P: Protocol,
    P::State: Clone + Hash + Eq,
    C: Canonicalizer<P>,
    KM: KeyMode<P::State>,
{
    let started = Instant::now();
    let shared: Shared<'_, P, C, KM> = Shared::new(proto, config, canon, 1);
    let roots = shared.seed(seeds);
    if !roots.is_empty() && !shared.stop.load(Ordering::Relaxed) {
        shared.worker(0);
    }
    shared.report(&roots, started, 1)
}

/// Runs the engine on `workers` scoped threads with work stealing.
pub(crate) fn run_parallel<P, C, KM>(
    proto: &P,
    seeds: Seeds<P::State>,
    config: &ExploreConfig,
    canon: C,
    workers: usize,
) -> Report
where
    P: Protocol + Sync,
    P::State: Clone + Hash + Eq + Send,
    C: Canonicalizer<P> + Sync,
    KM: KeyMode<P::State>,
    KM::Entry: Send,
{
    debug_assert!(workers >= 2);
    let started = Instant::now();
    let shared: Shared<'_, P, C, KM> = Shared::new(proto, config, canon, workers);
    let replay_seeds = seeds.clone();
    let roots = shared.seed(seeds);
    if !roots.is_empty() && !shared.stop.load(Ordering::Relaxed) {
        // Worker 0 runs on the calling thread: it starts at once, and a
        // search small enough to finish before the others are up costs
        // no more than a serial one.
        std::thread::scope(|s| {
            for idx in 1..workers {
                let shared = &shared;
                s.spawn(move || shared.worker(idx));
            }
            shared.worker(0);
        });
    }
    if shared.expanders.load(Ordering::Relaxed) > 1 && plock(&shared.violation).is_some() {
        if let Some(v) = serial_counterexample(&shared, replay_seeds) {
            *plock(&shared.violation) = Some(v);
        }
    }
    shared.report(&roots, started, workers)
}

/// The counterexample a serial run of `parallel`'s search reports,
/// found by replaying the serial search after the parallel pass.
///
/// Parallel workers race, so the violation they hit first, and with it
/// its kind and schedule, depends on timing. A serial run reports the
/// first violation of its depth-first order. The replay runs that
/// serial search on the calling thread, but it skips every state the
/// parallel pass *settled*. A settled node is complete: it and every
/// state reachable from it were expanded without a violation, and its
/// successors are settled too. So a serial search finds no violation
/// inside a settled region, and it discovers every unsettled state from
/// an unsettled parent. Leaving the settled states out therefore keeps
/// the order of the unsettled expansions, and the replay ends at the
/// serial run's counterexample, schedule and all.
///
/// That argument needs a node's subtree to be independent of the path
/// that reached it. DPOR sleep sets and context-switch counts are not,
/// so under either the replay settles nothing and repeats the whole
/// serial search. Returns `None` (keep the parallel counterexample)
/// when the replay runs out of time or states first.
fn serial_counterexample<P, C, KM>(
    parallel: &Shared<'_, P, C, KM>,
    seeds: Seeds<P::State>,
) -> Option<Violation>
where
    P: Protocol + Sync,
    P::State: Clone + Hash + Eq + Send,
    C: Canonicalizer<P> + Sync,
    KM: KeyMode<P::State>,
    KM::Entry: Send,
{
    let quiet = ExploreConfig {
        telemetry: bso_telemetry::Registry::disabled(),
        trace: bso_telemetry::TraceSink::disabled(),
        ..parallel.config.clone()
    };
    let settled = |state: &StateKey<P::State>, fp: u64| parallel.is_settled(state, fp);
    let mut replay: Shared<'_, P, &C, KM> = Shared::new(parallel.proto, &quiet, &parallel.canon, 1);
    replay.deadline = parallel.deadline;
    if !parallel.dpor && parallel.context_bound.is_none() {
        replay.settled = Some(&settled);
    }
    let roots = replay.seed(seeds);
    if !roots.is_empty() && !replay.stop.load(Ordering::Relaxed) {
        replay.worker(0);
    }
    parallel
        .replay_states
        .store(replay.states.load(Ordering::Relaxed), Ordering::Relaxed);
    replay
        .violation
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Dispatches on [`DedupMode`] for the serial engine.
pub(crate) fn dispatch_serial<P, C>(
    proto: &P,
    seeds: Seeds<P::State>,
    config: &ExploreConfig,
    canon: C,
) -> Report
where
    P: Protocol,
    P::State: Clone + Hash + Eq,
    C: Canonicalizer<P>,
{
    match config.dedup {
        DedupMode::Exact => run_serial::<P, C, ExactKeys>(proto, seeds, config, canon),
        DedupMode::Fingerprint => run_serial::<P, C, FingerprintKeys>(proto, seeds, config, canon),
    }
}

/// Dispatches on [`DedupMode`] for the parallel engine.
pub(crate) fn dispatch_parallel<P, C>(
    proto: &P,
    seeds: Seeds<P::State>,
    config: &ExploreConfig,
    canon: C,
    workers: usize,
) -> Report
where
    P: Protocol + Sync,
    P::State: Clone + Hash + Eq + Send,
    C: Canonicalizer<P> + Sync,
{
    match config.dedup {
        DedupMode::Exact => run_parallel::<P, C, ExactKeys>(proto, seeds, config, canon, workers),
        DedupMode::Fingerprint => {
            run_parallel::<P, C, FingerprintKeys>(proto, seeds, config, canon, workers)
        }
    }
}

fn map_ref(map: &Option<Box<[Pid]>>) -> Option<&[Pid]> {
    map.as_deref()
}

/// `parent_best[p] = max(parent_best[p], child_best[map(p)] + (p == step_pid))`
/// — `step_pid` is `None` for crash edges, which contribute no step.
fn combine(
    parent_best: &mut [u32],
    child_best: &[u32],
    map: Option<&[Pid]>,
    step_pid: Option<Pid>,
) {
    for (p, b) in parent_best.iter_mut().enumerate() {
        let idx = map.map_or(p, |m| m[p]);
        let total = child_best[idx] + u32::from(step_pid == Some(p));
        if total > *b {
            *b = total;
        }
    }
}

/// Composes the coordinate translation for a dedup edge.
///
/// `child_perm` maps the child's representative coordinates to
/// canonical coordinates; `succ_perm` maps the generated successor's
/// coordinates (= the parent side) to the same canonical coordinates.
/// The parent-side bound of process `p` is the child's bound of
/// process `child_perm⁻¹(succ_perm(p))`. Returns `None` for the
/// identity.
fn rep_map(child_perm: Option<&[Pid]>, succ_perm: Option<&[Pid]>, n: usize) -> Option<Box<[Pid]>> {
    if child_perm.is_none() && succ_perm.is_none() {
        return None;
    }
    let mut inv: Vec<Pid> = (0..n).collect();
    if let Some(cp) = child_perm {
        for (p, &q) in cp.iter().enumerate() {
            inv[q] = p;
        }
    }
    let map: Vec<Pid> = (0..n)
        .map(|p| inv[succ_perm.map_or(p, |sp| sp[p])])
        .collect();
    if map.iter().enumerate().all(|(i, &v)| i == v) {
        None
    } else {
        Some(map.into_boxed_slice())
    }
}
