//! `serve_pipelined`: one server at two shards serving the loadgen
//! object mix to one `Swarm` thread over two connections.
//!
//! One phase is closed loop at pipeline 64 per connection; the other is
//! open loop at a fixed 150k ops/s, each operation timed from its
//! scheduled send. Each phase is a series of sub-runs (one `Swarm` run
//! each, on fresh connections to the same server), the two phases'
//! sub-runs alternate, and the end-to-end figures are medians over
//! sub-runs.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bso::client::{ClientError, Connection, Swarm, SwarmReport};
use bso::objects::rng::SplitMix64;
use bso::objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Sym, Value};
use bso::server::{Server, ServerHandle};

use crate::guard::{bounded, scrape, wake_loops, weighted_p50, ServerView, ADMIN_DEADLINE};
use crate::procfs::{self, CpuReading};
use crate::report::Report;
use crate::spans::{self, span};
use crate::stats::{self, median, quantile, ratio, reportable_tail, Lateness, Tally, SLO_NS};
use crate::{replay, Args};

/// Event loops of the server (its default on a 2-CPU machine, fixed
/// here so the workload does not change with the machine).
const SHARDS: usize = 2;
/// Client connections, all driven by one `Swarm` thread.
const CONNS: usize = 2;
/// Requests in flight per connection in the closed-loop phase.
const PIPELINE: usize = 64;
/// Offered load of the open-loop phase, ops/s. A constant, not a share
/// of the measured peak, so every build sees the same offered load.
const OPEN_RATE: f64 = 150_000.0;
/// Capacity of each loop's cross-shard queue. At the default 128, a
/// loop the host deschedules for about a millisecond refuses part of
/// the open loop's arrivals with `Busy`, so the refusal count measured
/// the scheduler of a shared machine. This holds every operation an
/// open-loop sub-run issues (`OPEN_RATE` x `OPEN_LEN` = 75 000): such
/// a burst waits in the queue instead, and its cost shows as latency
/// (`lat_p90_us`, `slo_share`) and queue depth (`shard.queue_depth`).
const QUEUE_CAPACITY: usize = 1 << 17;
/// Domain size of the served `compare&swap-(k)`.
const CAS_K: u8 = 6;
/// Registers the traffic spreads over.
const REGISTERS: usize = 64;
const CAS: ObjectId = ObjectId(0);
const CTR: ObjectId = ObjectId(1);
/// Server start-ups timed for `setup_s`; the last one is kept.
const SETUPS: usize = 101;
/// Length of one closed-loop and one open-loop `Swarm` run. Each phase
/// is as many runs as the run has seconds, so the closed-loop phase
/// takes 40% of the measuring time and the open-loop phase 50%.
const CLOSED_LEN: Duration = Duration::from_millis(400);
const OPEN_LEN: Duration = Duration::from_millis(500);
/// How long a sub-run may overrun its length before it counts as
/// stalled, and how long a stalled one gets to finish once the
/// benchmark has read the server's state.
const GRACE: Duration = Duration::from_secs(2);
const RECOVERY: Duration = Duration::from_secs(2);
/// Election sessions run after the traffic phases, and their size.
const ELECTIONS: u32 = 3;
const ELECTION_K: u32 = 4;
/// Operations replayed through the codec and the sequential spec.
const REPLAY_OPS: usize = 100_000;

/// The served objects: one CAS-(6), one contended counter, 64
/// registers.
fn layout() -> Layout {
    let mut l = Layout::new();
    l.push(ObjectInit::CasK { k: CAS_K as usize });
    l.push(ObjectInit::FetchAdd(0));
    for _ in 0..REGISTERS {
        l.push(ObjectInit::Register(Value::Nil));
    }
    l
}

/// The loadgen traffic mix, deterministic in its seed: 40% CAS-(6)
/// updates, 20% counter increments, 10% CAS reads, 30% register reads
/// and writes.
struct Mix {
    rng: SplitMix64,
    seq: i64,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: SplitMix64::new(seed),
            seq: 0,
        }
    }

    fn next(&mut self) -> Op {
        self.seq += 1;
        let register = |rng: &mut SplitMix64| ObjectId(2 + rng.usize_below(REGISTERS));
        let sym = |rng: &mut SplitMix64| Value::Sym(Sym::new(rng.range_u8(0, CAS_K - 1)));
        match self.rng.usize_below(10) {
            0..=2 => Op::cas(CAS, Value::Sym(Sym::BOTTOM), sym(&mut self.rng)),
            3 => Op::cas(CAS, sym(&mut self.rng), Value::Sym(Sym::BOTTOM)),
            4..=5 => Op::new(CTR, OpKind::FetchAdd(1)),
            6 => Op::read(CAS),
            7..=8 => Op::read(register(&mut self.rng)),
            _ => Op::write(register(&mut self.rng), Value::Int(self.seq)),
        }
    }
}

fn is_increment(op: &Op) -> bool {
    op.obj == CTR && op.kind == OpKind::FetchAdd(1)
}

/// What the loadgen thread hands back after one `Swarm` run.
struct SwarmOut {
    result: Result<SwarmReport, ClientError>,
    lateness: Vec<u64>,
    increments: u64,
    cpu_ns: u64,
}

/// One measured sub-run.
struct Sub {
    open: bool,
    /// Missed its deadline and did not recover: the run ends with it.
    stalled: bool,
    /// Missed its deadline and needed every event loop woken.
    woken: bool,
    traced: bool,
    tally: Tally,
    /// Swarm wall time from first issue to last response.
    elapsed: Duration,
    /// Round trips of `Ok` operations, ns.
    rtt: Vec<u64>,
    lateness: Vec<u64>,
    increments: u64,
    client_cpu_ns: u64,
    loops_cpu: (CpuReading, CpuReading),
    views: (ServerView, ServerView),
    /// Largest queue depth and flight records sampled during the run.
    depth_max: u64,
    flight: Vec<(u64, u64, u64)>,
}

impl Sub {
    fn ops_per_s(&self) -> f64 {
        ratio(self.tally.ok as f64, self.elapsed.as_secs_f64())
    }

    fn lag_p99_ns(&self) -> u64 {
        let mut v = self.lateness.clone();
        v.sort_unstable();
        quantile(&v, 0.99).unwrap_or(0)
    }
}

/// The server plus the admin connection the benchmark reads it with.
struct Served {
    handle: ServerHandle,
    addr: SocketAddr,
    admin: Option<Connection>,
}

/// Starts the server and waits until it answers a ping: the set-up a
/// user of the service pays before the first operation.
fn start() -> Result<Served, String> {
    let handle = Server::builder()
        .shards(SHARDS)
        .queue_capacity(QUEUE_CAPACITY)
        .bind("127.0.0.1:0", &layout())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();
    let mut admin = Connection::builder()
        .connect(addr)
        .map_err(|e| format!("connect: {e}"))?;
    admin.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(Served {
        handle,
        addr,
        admin: Some(admin),
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();

    // Set-up, timed several times; the last server stays up.
    let mut setup_s = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = bounded(ADMIN_DEADLINE, "pb-setup", start)
            .unwrap_or_else(|| Err("server start-up missed its deadline".into()))
            .unwrap_or_else(|e| crate::abort(&format!("serve_pipelined set-up: {e}")));
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(s.admin);
            if bounded(ADMIN_DEADLINE, "pb-shutdown", move || s.handle.shutdown()).is_none() {
                crate::abort("a set-up server did not shut down");
            }
        } else {
            served = Some(s);
        }
    }
    let mut served = served.expect("SETUPS > 0");
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));

    let mut subs: Vec<Sub> = Vec::new();
    // Closed- and open-loop sub-runs alternate, one pair per second of
    // measuring time, so a noisy stretch of the machine hits both
    // phases alike instead of all of one.
    for i in 0..2 * args.seconds.max(2) {
        let open = i % 2 == 1;
        // With --trace 1, every other pair is traced; the untraced
        // pairs give the baseline for the tracing overhead.
        let traced = args.trace && i % 4 >= 2;
        let seed = args
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i);
        let len = if open { OPEN_LEN } else { CLOSED_LEN };
        let sub = subrun(&mut served, open, traced, seed, len);
        if sub.stalled {
            subs.push(sub);
            summarize(&mut report, args, &subs, None);
            eprintln!(
                "serve_pipelined stalled in sub-run {i}; unanswered operations count \
                 as failed, the remaining sub-runs did not run"
            );
            crate::finish(report, args);
        }
        let mut rtt = sub.rtt.clone();
        rtt.sort_unstable();
        let mut lag = sub.lateness.clone();
        lag.sort_unstable();
        let us = |v: &[u64], q| quantile(v, q).unwrap_or(0) as f64 / 1e3;
        eprintln!(
            "sub-run {i} ({}{}): {:.0} ok ops/s, {:?}, p50 {:.1} us, p90 {:.1} us, \
             lag p99 {:.1} us",
            if open { "open" } else { "closed" },
            if traced { ", traced" } else { "" },
            sub.ops_per_s(),
            sub.tally,
            us(&rtt, 0.5),
            us(&rtt, 0.9),
            us(&lag, 0.99),
        );
        subs.push(sub);
    }
    spans::set_enabled(args.trace);

    // Elections over the session layer.
    let admin = served.admin.take().expect("admin connection");
    let elections = bounded(ADMIN_DEADLINE * 4, "pb-elect", move || {
        let mut admin = admin;
        let mut times = Vec::new();
        let mut rounds = Vec::new();
        for _ in 0..ELECTIONS {
            let sid = admin.open_election(ELECTION_K).map_err(|e| e.to_string())?;
            let mut winners = Vec::new();
            for pid in 0..ELECTION_K - 1 {
                let t = Instant::now();
                let w = span("session", "elect", || admin.elect(sid, pid))
                    .map_err(|e| e.to_string())?;
                times.push(t.elapsed().as_secs_f64() * 1e6);
                winners.push(w);
            }
            rounds.push(winners);
        }
        let ledger = admin
            .apply(0, Op::new(CTR, OpKind::FetchAdd(0)))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((admin, times, rounds, ledger))
    });
    let Some(elections) = elections else {
        summarize(&mut report, args, &subs, None);
        eprintln!("serve_pipelined stalled in the election round");
        crate::finish(report, args);
    };
    match elections {
        Ok((admin, times, rounds, ledger)) => {
            drop(admin);
            for w in &rounds {
                report.check(w.iter().all(|x| *x == w[0]), || {
                    format!("election participants disagree: {w:?}")
                });
            }
            report.set("session.elect_us", median(&times).unwrap_or(0.0));
            // The counter holds every acked increment and nothing more:
            // a refused increment was never applied, an unanswered one
            // may or may not have been.
            let issued: u64 = subs.iter().map(|s| s.increments).sum();
            let failed: u64 = subs.iter().map(|s| s.tally.failed()).sum();
            let got = ledger.as_int().unwrap_or(-1);
            let lo = issued.saturating_sub(failed) as i64;
            report.check(got >= lo && got <= issued as i64, || {
                format!(
                    "counter ledger {got} outside [{lo}, {issued}] \
                     ({issued} increments issued, {failed} operations failed)"
                )
            });
        }
        Err(e) => report.check(false, || format!("election round: {e}")),
    }

    let replayed = args.trace.then(|| {
        let mut mix = Mix::new(args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ops: Vec<Op> = (0..REPLAY_OPS).map(|_| mix.next()).collect();
        replay::measure(&layout(), &ops, 5)
    });
    match replayed {
        Some(Ok(c)) => {
            report.set("objects.spec_apply_ns", c.spec_apply_ns);
            report.set("wire.encode_ns_per_op", c.encode_ns);
            report.set("wire.decode_ns_per_op", c.decode_ns);
            report.set("wire.bytes_per_op", c.bytes);
        }
        Some(Err(e)) => report.check(false, || format!("op-stream replay: {e}")),
        None => {}
    }

    let handle = served.handle;
    let Some(stats) = bounded(ADMIN_DEADLINE, "pb-shutdown", move || handle.shutdown()) else {
        summarize(&mut report, args, &subs, None);
        eprintln!("serve_pipelined: the server did not shut down in time");
        crate::finish(report, args);
    };
    report.check(stats.requests == stats.responses, || {
        format!(
            "server answered {} of {} requests",
            stats.responses, stats.requests
        )
    });
    report.check(stats.malformed == 0 && stats.version_rejects == 0, || {
        format!(
            "{} malformed frames and {} version rejects",
            stats.malformed, stats.version_rejects
        )
    });
    summarize(&mut report, args, &subs, Some(stats.wrong_shard));
    report
}

/// One `Swarm` run of length `len`. A sub-run that stays stalled past
/// its deadline and the wake-up comes back marked `stalled`, with its
/// unanswered operations counted from the server's own tallies and the
/// stuck state printed.
fn subrun(served: &mut Served, open: bool, traced: bool, seed: u64, len: Duration) -> Sub {
    let (admin, before) = scrape(served.admin.take().expect("admin connection"))
        .unwrap_or_else(|| crate::abort("introspect before a sub-run missed its deadline"));
    served.admin = Some(admin);
    let loops_before = procfs::threads_cpu("bso-loop");
    spans::set_enabled(traced);

    let issued = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    let addr = served.addr;
    let counter = Arc::clone(&issued);
    std::thread::Builder::new()
        .name("pb-loadgen".into())
        .spawn(move || {
            let cpu0 = procfs::this_thread_cpu_ns();
            let gap = Duration::from_secs_f64(1.0 / OPEN_RATE);
            let mut mix = Mix::new(seed);
            let mut increments = 0u64;
            let mut late: Option<Lateness> = None;
            let mut stop: Option<Instant> = None;
            let result = span("client", "swarm_run", || {
                Swarm::builder()
                    .connections(CONNS)
                    .pipeline(PIPELINE)
                    .rate(open.then_some(OPEN_RATE))
                    .run(addr, |_conn, seq| {
                        // The closed loop reads the clock every 64 ops,
                        // the open loop on every op to time lateness.
                        if open || seq % 64 == 0 {
                            let now = Instant::now();
                            let end = *stop.get_or_insert(now + len);
                            if now >= end {
                                return None;
                            }
                            if open {
                                late.get_or_insert_with(|| Lateness::new(now, gap))
                                    .record(seq, now);
                            }
                        }
                        let op = mix.next();
                        increments += u64::from(is_increment(&op));
                        counter.store(seq + 1, Ordering::Relaxed);
                        Some((0, op))
                    })
            });
            let _ = tx.send(SwarmOut {
                result,
                lateness: late.map(|l| l.samples_ns).unwrap_or_default(),
                increments,
                cpu_ns: procfs::this_thread_cpu_ns().saturating_sub(cpu0),
            });
        })
        .expect("spawn loadgen thread");

    // Wait for the run, sampling queue depth and flight records while
    // a traced open-loop run is in progress.
    let deadline = Instant::now() + len + GRACE;
    let mut depth_max = 0;
    let mut flight = Vec::new();
    let mut scrapes = 0u64;
    let mut out = loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(out) => break Some(out),
            Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                if traced && open {
                    let Some((admin, v)) = scrape(served.admin.take().expect("admin")) else {
                        break None;
                    };
                    served.admin = Some(admin);
                    scrapes += 1;
                    depth_max = depth_max.max(v.queue_depth);
                    flight.extend(v.flight);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => break None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                crate::abort("the loadgen thread died without reporting")
            }
        }
    };
    let mut stuck_view = None;
    let woken = out.is_none();
    if woken {
        eprintln!(
            "STALL: {} sub-run issued {} operations and missed its deadline",
            if open { "open-loop" } else { "closed-loop" },
            issued.load(Ordering::Relaxed)
        );
        match served.admin.take().and_then(scrape) {
            Some((admin, v)) => {
                eprintln!("server state: {}", v.raw);
                served.admin = Some(admin);
                scrapes += 1;
                stuck_view = Some(v);
            }
            None => eprintln!("server state: introspect did not answer within its deadline"),
        }
        // New connections wake every loop; if the run then completes,
        // its late operations keep their latency and the run goes on.
        if !wake_loops(served.addr, SHARDS) {
            eprintln!("the server did not answer fresh connections");
        }
        out = rx.recv_timeout(RECOVERY).ok();
        if out.is_some() {
            eprintln!("the sub-run completed once every loop was woken");
        }
    }
    let after = served.admin.take().and_then(scrape);
    let loops_after = procfs::threads_cpu("bso-loop");
    let mut sub = Sub {
        open,
        stalled: false,
        woken,
        traced,
        tally: Tally::default(),
        elapsed: len,
        rtt: Vec::new(),
        lateness: Vec::new(),
        increments: 0,
        client_cpu_ns: 0,
        loops_cpu: (loops_before, loops_after),
        views: (before.clone(), ServerView::default()),
        depth_max,
        flight,
    };
    let attempted = issued.load(Ordering::Relaxed);
    if let Some((admin, v)) = after {
        served.admin = Some(admin);
        sub.views.1 = v;
    }
    match out {
        Some(SwarmOut {
            result: Ok(rep),
            lateness,
            increments,
            cpu_ns,
        }) => {
            (sub.tally, sub.rtt) =
                stats::classify(attempted, rep.rtt_ns, rep.ops_busy, rep.ops_err);
            sub.elapsed = rep.elapsed;
            sub.lateness = lateness;
            sub.increments = increments;
            sub.client_cpu_ns = cpu_ns;
        }
        Some(SwarmOut {
            result: Err(e),
            increments,
            ..
        }) => {
            // The swarm aborted (a socket-level error): its own tallies
            // are lost, so count from the server's.
            eprintln!("swarm run failed: {e}");
            sub.tally = server_tally(attempted, &before, &sub.views.1, scrapes);
            sub.increments = increments;
        }
        None => {
            // Still stuck: the loadgen thread stays blocked, so the
            // caller reports and exits without the ledger check.
            eprintln!("STALL: the sub-run did not recover");
            let view = stuck_view.as_ref().unwrap_or(&sub.views.1);
            sub.tally = server_tally(attempted, &before, view, scrapes);
            sub.stalled = true;
            return sub;
        }
    }
    if served.admin.is_none() {
        eprintln!("STALL: the server did not answer introspect within its deadline");
        sub.stalled = true;
    }
    sub
}

/// Classifies a sub-run's operations from the server's counters when
/// the swarm's own report is not available. `admin` requests made
/// during the run are not workload operations. Without a second
/// reading, every issued operation counts as unanswered.
fn server_tally(attempted: u64, before: &ServerView, after: &ServerView, admin: u64) -> Tally {
    if after.responses == 0 {
        return Tally {
            attempted,
            unanswered: attempted,
            ..Tally::default()
        };
    }
    let answered = (after.responses - before.responses)
        .saturating_sub(admin)
        .min(attempted);
    let refused = (after.busy - before.busy).min(answered);
    Tally {
        attempted,
        ok: answered - refused,
        refused,
        errored: 0,
        unanswered: attempted - answered,
    }
}

/// Fills the report's metrics from the sub-runs measured so far.
fn summarize(report: &mut Report, args: &Args, subs: &[Sub], wrong_shard: Option<u64>) {
    let total = subs
        .iter()
        .fold(Tally::default(), |acc, s| acc.add(&s.tally));
    report.attempted = total.attempted;
    report.failed = total.failed();
    report.set("ok_share", 1.0 - total.fail_share());

    let plain = |open: bool| subs.iter().filter(move |s| s.open == open && !s.traced);
    let traced = |open: bool| subs.iter().filter(move |s| s.open == open && s.traced);
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);

    report.set("ops_per_s", med(plain(false).map(Sub::ops_per_s).collect()));
    // Open-loop figures: per sub-run quantiles, median over the
    // sub-runs whose generator kept to its schedule. A sub-run with no
    // successful operation, or a phase that never ran because an
    // earlier one stalled, reads as the time the benchmark waits for a
    // stalled sub-run.
    let open: Vec<&Sub> = plain(true).collect();
    let lags: Vec<u64> = open.iter().map(|s| s.lag_p99_ns()).collect();
    let timed: Vec<&Sub> = open
        .iter()
        .zip(stats::on_schedule(&lags, SLO_NS))
        .filter_map(|(s, ok)| ok.then_some(*s))
        .collect();
    if timed.len() < open.len() {
        eprintln!(
            "{} of {} open-loop sub-runs sent 1% of their operations over {} us late; \
             their latency is left out",
            open.len() - timed.len(),
            open.len(),
            SLO_NS / 1000
        );
    }
    let censored = (GRACE + RECOVERY).as_secs_f64() * 1e6;
    let open_q = |q: f64| {
        if timed.is_empty() {
            return censored;
        }
        med(timed
            .iter()
            .map(|s| {
                let mut v = s.rtt.clone();
                v.sort_unstable();
                quantile(&v, q).map_or(censored, |ns| ns as f64 / 1e3)
            })
            .collect())
    };
    report.set("lat_p50_us", open_q(0.5));
    report.set("lat_p90_us", open_q(0.9));
    report.set(
        "slo_share",
        med(timed
            .iter()
            .map(|s| stats::slo_share(&s.rtt, s.tally.attempted, SLO_NS))
            .collect()),
    );

    let woken = subs.iter().filter(|s| s.woken).count();
    if woken > 0 {
        eprintln!("{woken} sub-runs stalled until every event loop was woken");
    }
    if !args.trace {
        return;
    }
    report.set("event_loop.stalls", woken as f64);
    let mut lag: Vec<u64> = traced(true)
        .flat_map(|s| s.lateness.iter().copied())
        .collect();
    lag.sort_unstable();
    report.set(
        "loadgen.lag_p99_us",
        quantile(&lag, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    report.set("loadgen.lag_samples", lag.len() as f64);
    let mut rtt: Vec<u64> = traced(true).flat_map(|s| s.rtt.iter().copied()).collect();
    rtt.sort_unstable();
    report.set(
        "client.lat_p99_us",
        quantile(&rtt, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    report.set(
        "client.lat_p999_us",
        quantile(&rtt, 0.999).unwrap_or(0) as f64 / 1e3,
    );
    report.set("client.lat_samples", rtt.len() as f64);
    if let Some((q, v)) = reportable_tail(&rtt) {
        eprintln!(
            "serve tail: p{} = {:.1} us over {} samples",
            q * 100.0,
            v as f64 / 1e3,
            rtt.len()
        );
    }

    let closed: Vec<&Sub> = traced(false).collect();
    let answered = |s: &Sub| s.tally.ok + s.tally.refused + s.tally.errored;
    report.set(
        "client.cpu_us_per_op",
        med(closed
            .iter()
            .map(|s| ratio(s.client_cpu_ns as f64 / 1e3, answered(s) as f64))
            .collect()),
    );
    report.set(
        "event_loop.cpu_us_per_op",
        med(closed
            .iter()
            .map(|s| stats::cpu_us_per_op(&s.loops_cpu.0, &s.loops_cpu.1, answered(s)))
            .collect()),
    );
    let delta = |s: &Sub, f: fn(&ServerView) -> u64| f(&s.views.1).saturating_sub(f(&s.views.0));
    report.set(
        "event_loop.turns_per_kop",
        med(closed
            .iter()
            .map(|s| {
                1e3 * ratio(
                    delta(s, |v| v.wakeups) as f64,
                    delta(s, |v| v.requests) as f64,
                )
            })
            .collect()),
    );
    report.set(
        "event_loop.flush_batch_mean",
        med(closed
            .iter()
            .map(|s| {
                ratio(
                    delta(s, |v| v.flushes.1) as f64,
                    delta(s, |v| v.flushes.0) as f64,
                )
            })
            .collect()),
    );
    if let Some(last) = subs.iter().rev().find(|s| s.views.1.responses > 0) {
        report.set(
            "event_loop.turn_p50_ns",
            weighted_p50(&last.views.1.turn_p50),
        );
        report.set(
            "objects.apply_p50_ns",
            weighted_p50(&last.views.1.apply_p50),
        );
    }

    let open: Vec<&Sub> = traced(true).collect();
    let (busy, reqs) = open.iter().fold((0, 0), |(b, r), s| {
        (b + delta(s, |v| v.busy), r + delta(s, |v| v.requests))
    });
    report.set("shard.busy_share", ratio(busy as f64, reqs as f64));
    report.set(
        "shard.queue_depth",
        open.iter().map(|s| s.depth_max).max().unwrap_or(0) as f64,
    );
    // Cross-shard queue waits from the flight recorders, each record
    // counted once however many scrapes saw it.
    let mut seen: Vec<(u64, u64, u64)> = open.iter().flat_map(|s| s.flight.clone()).collect();
    seen.sort_unstable();
    seen.dedup_by_key(|r| (r.0, r.1));
    let mut waits: Vec<u64> = seen.iter().map(|r| r.2).filter(|&q| q > 0).collect();
    waits.sort_unstable();
    report.set(
        "shard.xq_wait_p50_ns",
        quantile(&waits, 0.5).unwrap_or(0) as f64,
    );
    report.set("shard.xq_wait_samples", waits.len() as f64);
    if let Some(w) = wrong_shard {
        report.set("routing.wrong_shard", w as f64);
    }

    let plain_rate = med(plain(false).map(Sub::ops_per_s).collect());
    let traced_rate = med(closed.iter().map(|s| s.ops_per_s()).collect());
    report.set(
        "telemetry.trace_overhead_share",
        1.0 - ratio(traced_rate, plain_rate),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_in_its_seed() {
        let ops = |seed| {
            let mut m = Mix::new(seed);
            (0..1000).map(|_| m.next()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        let incs = ops(7).iter().filter(|op| is_increment(op)).count();
        assert!((150..250).contains(&incs), "{incs} increments in 1000");
    }

    #[test]
    fn stalled_sub_run_counts_from_server_tallies() {
        let before = ServerView {
            responses: 100,
            busy: 5,
            ..ServerView::default()
        };
        let after = ServerView {
            responses: 1100,
            busy: 15,
            ..ServerView::default()
        };
        // 1000 responses, 2 of them to admin requests, 10 refusals.
        let t = server_tally(1200, &before, &after, 2);
        assert_eq!(
            t,
            Tally {
                attempted: 1200,
                ok: 988,
                refused: 10,
                errored: 0,
                unanswered: 202,
            }
        );
        // Without a second reading, everything issued is unanswered.
        let t = server_tally(50, &before, &ServerView::default(), 0);
        assert_eq!((t.ok, t.unanswered, t.failed()), (0, 50, 50));
    }
}
