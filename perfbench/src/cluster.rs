//! `cluster_migrate`: two cluster members over 12 counters, one
//! synchronous `ClusterClient` with one operation in flight, and two
//! live migrations per round while traffic runs.
//!
//! The run is a sequence of rounds of [`ROUND_OPS`] increments. In
//! each round the coordinator (this thread) moves member 0's ranges to
//! member 1 once a third of the round's operations are done and moves
//! them back at two thirds; the client opens and decides one
//! replicated election before the first migration. End-to-end figures are medians over
//! rounds.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bso::client::Connection;
use bso::cluster::{Cluster, ClusterClient};
use bso::objects::rng::SplitMix64;
use bso::objects::{Layout, ObjectId, ObjectInit, Op, OpKind};

use crate::guard::{bounded, scrape, wake_loops, weighted_p50, ServerView, ADMIN_DEADLINE};
use crate::procfs::{self, CpuReading};
use crate::report::Report;
use crate::spans::{self, span};
use crate::stats::{self, median, quantile, ratio, Tally, SLO_NS};
use crate::{replay, Args};

const MEMBERS: usize = 2;
/// Event loops per member (`Cluster::launch` starts two).
const LOOPS: usize = 2;
const OBJECTS: usize = 12;
/// Increments per round.
const ROUND_OPS: u64 = 20_000;
/// Participants + 1 of each round's replicated election.
const ELECTION_K: u32 = 4;
/// Cluster start-ups timed for `setup_s`; the last one is kept.
const SETUPS: usize = 41;
/// How long after the measuring time the last round may run on.
const HARD_STOP_AFTER: Duration = Duration::from_secs(60);
/// A round whose client makes no progress for this long has stalled.
const STALL_AFTER: Duration = Duration::from_secs(3);

fn layout() -> Layout {
    let mut l = Layout::new();
    for _ in 0..OBJECTS {
        l.push(ObjectInit::FetchAdd(0));
    }
    l
}

/// The object each increment of a round targets, from the round seed.
fn targets(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = SplitMix64::new(seed);
    (0..ROUND_OPS).map(move |_| rng.usize_below(OBJECTS))
}

/// What the client thread hands back after a round.
struct ClientOut {
    /// Increments issued: the whole round unless it hit the hard stop.
    attempted: u64,
    /// Latency of each `Ok` increment, ns.
    lat: Vec<u64>,
    /// `(start, end)` of each `Ok` increment, ns since the round began.
    spans: Vec<(u64, u64)>,
    acked: [u64; OBJECTS],
    failed: [u64; OBJECTS],
    elapsed: Duration,
    cpu_ns: u64,
    elect_us: Vec<f64>,
    winners: Result<Vec<usize>, String>,
    redirects: u64,
    refreshes: u64,
}

/// One measured round.
struct Round {
    traced: bool,
    /// Stalled until every event loop was woken.
    woken: bool,
    tally: Tally,
    out: ClientOut,
    migrate_ms: Vec<f64>,
    windows: Vec<(u64, u64)>,
    loops_cpu: (CpuReading, CpuReading),
    views: Vec<(ServerView, ServerView)>,
}

impl Round {
    fn ops_per_s(&self) -> f64 {
        ratio(self.tally.ok as f64, self.out.elapsed.as_secs_f64())
    }
}

/// Launches the cluster and completes one routed operation: the
/// set-up a cluster user pays before traffic flows.
fn start() -> Result<(Cluster, ClusterClient, Vec<Connection>), String> {
    let cluster = Cluster::launch(MEMBERS, &layout()).map_err(|e| format!("launch: {e}"))?;
    let seeds: Vec<String> = (0..MEMBERS).map(|i| cluster.addr(i).to_string()).collect();
    let mut client = ClusterClient::connect(&seeds).map_err(|e| format!("client: {e}"))?;
    client
        .apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(0)))
        .map_err(|e| format!("first op: {e}"))?;
    let admins = (0..MEMBERS)
        .map(|i| cluster.admin(i).map_err(|e| format!("admin {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((cluster, client, admins))
}

/// Scrapes every member; `None` if one did not answer in time.
fn scrape_all(admins: Vec<Connection>) -> Option<(Vec<Connection>, Vec<ServerView>)> {
    let mut conns = Vec::new();
    let mut views = Vec::new();
    for a in admins {
        let (c, v) = scrape(a)?;
        conns.push(c);
        views.push(v);
    }
    Some((conns, views))
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = bounded(ADMIN_DEADLINE * 2, "pb-setup", start)
            .unwrap_or_else(|| Err("cluster start-up missed its deadline".into()))
            .unwrap_or_else(|e| crate::abort(&format!("cluster_migrate set-up: {e}")));
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            let (cluster, client, admins) = s;
            drop((client, admins));
            if bounded(ADMIN_DEADLINE * 2, "pb-shutdown", move || {
                cluster.shutdown()
            })
            .is_none()
            {
                crate::abort("a set-up cluster did not shut down");
            }
        } else {
            kept = Some(s);
        }
    }
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    let (mut cluster, mut client, mut admins) = kept.expect("SETUPS > 0");
    let epoch_initial = cluster.epoch();
    let addrs: Vec<SocketAddr> = (0..MEMBERS).map(|m| cluster.addr(m)).collect();
    let moving = cluster.owned_ranges(0);

    let measure_until = Instant::now() + Duration::from_secs(args.seconds);
    // However slow the service, a round ends by this time, so the run
    // ends well inside its time limit.
    let hard_stop = measure_until + HARD_STOP_AFTER;
    let mut rounds: Vec<Round> = Vec::new();
    let mut migrations = 0u64;
    let mut i = 0u64;
    while Instant::now() < measure_until || rounds.len() < 2 {
        let traced = args.trace && i % 2 == 1;
        let seed = args
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i);
        i += 1;
        spans::set_enabled(traced);
        let (a, before) = scrape_all(admins)
            .unwrap_or_else(|| crate::abort("introspect before a round missed its deadline"));
        admins = a;
        let loops_before = procfs::threads_cpu("bso-loop");

        let progress = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let seen = Arc::clone(&progress);
        std::thread::Builder::new()
            .name("pb-cluster-client".into())
            .spawn(move || {
                let _ = tx.send(client_round(client, seed, &seen, hard_stop));
            })
            .expect("spawn cluster client");
        let t0 = Instant::now();

        // A client that makes no progress for STALL_AFTER gets one
        // reading of every member's state, fresh connections that wake
        // every event loop, and one more STALL_AFTER; then the run ends.
        let mut poked = false;
        let mut on_stall = |what: &str| -> bool {
            if poked {
                return false;
            }
            poked = true;
            eprintln!("STALL: cluster client made no progress for {STALL_AFTER:?} {what}");
            admins = poke(std::mem::take(&mut admins));
            // New connections wake every loop of every member.
            let woken = (0..MEMBERS).all(|m| wake_loops(addrs[m], LOOPS));
            !admins.is_empty() && woken
        };
        let mut migrate_ms = Vec::new();
        let mut windows = Vec::new();
        let mut stuck = false;
        let mut got = None;
        for (gate, from, to) in [(ROUND_OPS / 3, 0, 1), (2 * ROUND_OPS / 3, 1, 0)] {
            // A client that ran out of time ends its round early.
            while !watch(&progress, || {
                got = got.take().or_else(|| rx.try_recv().ok());
                got.is_some() || progress.load(Ordering::Relaxed) >= gate
            }) {
                if !on_stall(&format!("before the {from}->{to} migration")) {
                    stuck = true;
                    break;
                }
            }
            if stuck || got.is_some() {
                break;
            }
            let ranges = moving.clone();
            let start = t0.elapsed();
            let moved = bounded(ADMIN_DEADLINE * 2, "pb-migrate", move || {
                let r = span("cluster", "migrate", || cluster.migrate(from, to, &ranges));
                (cluster, r)
            });
            let Some((c, result)) = moved else {
                eprintln!("STALL: migration {from}->{to} missed its deadline");
                summarize(&mut report, args, &rounds);
                crate::finish(report, args);
            };
            cluster = c;
            let end = t0.elapsed();
            windows.push((nanos(start), nanos(end)));
            migrate_ms.push((end - start).as_secs_f64() * 1e3);
            match result {
                Ok(()) => migrations += 1,
                Err(e) => report.check(false, || format!("migration {from}->{to}: {e}")),
            }
        }
        while !stuck
            && !watch(&progress, || {
                got = got.take().or_else(|| rx.try_recv().ok());
                got.is_some()
            })
        {
            stuck = !on_stall("to the end of the round");
        }
        let Some((c, mut out)) = got else {
            let done = progress.load(Ordering::Relaxed);
            eprintln!("STALL: round {i} stuck after {done} of {ROUND_OPS} operations");
            // The stuck round's completed operations count as attempted;
            // the one in flight is the unanswered one.
            summarize(&mut report, args, &rounds);
            report.attempted += done + 1;
            report.failed += 1;
            report.set(
                "ok_share",
                1.0 - ratio(report.failed as f64, report.attempted as f64),
            );
            crate::finish(report, args);
        };
        if poked {
            eprintln!("round {i} completed once every loop was woken");
        }
        client = c;
        let (a, after) = scrape_all(admins)
            .unwrap_or_else(|| crate::abort("introspect after a round missed its deadline"));
        admins = a;
        let loops_after = procfs::threads_cpu("bso-loop");

        let (tally, lat) = stats::classify(
            out.attempted,
            std::mem::take(&mut out.lat),
            0,
            out.failed.iter().sum(),
        );
        out.lat = lat;
        match &out.winners {
            Ok(w) => report.check(w.iter().all(|x| *x == w[0]), || {
                format!("replicated election winners disagree: {w:?}")
            }),
            Err(e) => report.check(false, || format!("replicated election: {e}")),
        }
        rounds.push(Round {
            traced,
            woken: poked,
            tally,
            out,
            migrate_ms,
            windows,
            loops_cpu: (loops_before, loops_after),
            views: before.into_iter().zip(after).collect(),
        });
    }
    spans::set_enabled(args.trace);
    drop(client);

    // Ledgers and routing epochs, read from the members themselves.
    let mut acked = [0u64; OBJECTS];
    let mut failed = [0u64; OBJECTS];
    for r in &rounds {
        for o in 0..OBJECTS {
            acked[o] += r.out.acked[o];
            failed[o] += r.out.failed[o];
        }
    }
    let owners: Vec<usize> = (0..OBJECTS)
        .map(|o| {
            (0..MEMBERS)
                .find(|&m| {
                    cluster
                        .owned_ranges(m)
                        .iter()
                        .any(|&(lo, hi)| lo <= o as u64 && o as u64 <= hi)
                })
                .unwrap_or(usize::MAX)
        })
        .collect();
    let epoch = cluster.epoch();
    let checked = bounded(ADMIN_DEADLINE * 2, "pb-ledger", move || {
        let mut admins = admins;
        let mut values = Vec::new();
        for (o, &m) in owners.iter().enumerate() {
            let a = admins
                .get_mut(m)
                .ok_or(format!("object {o} has no owner"))?;
            let v = a
                .apply(0, Op::new(ObjectId(o), OpKind::FetchAdd(0)))
                .map_err(|e| e.to_string())?;
            values.push(v.as_int().unwrap_or(-1));
        }
        let epochs = admins
            .iter_mut()
            .map(|a| a.fetch_routing().map(|(e, _)| e).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((values, epochs))
    });
    match checked {
        None => {
            eprintln!("STALL: reading the ledgers missed its deadline");
            summarize(&mut report, args, &rounds);
            crate::finish(report, args);
        }
        Some(Err(e)) => report.check(false, || format!("ledger read: {e}")),
        Some(Ok((values, epochs))) => {
            for (o, &got) in values.iter().enumerate() {
                let (lo, hi) = (acked[o] as i64, (acked[o] + failed[o]) as i64);
                report.check(got >= lo && got <= hi, || {
                    format!("object {o} holds {got}, acked increments allow [{lo}, {hi}]")
                });
            }
            report.check(epoch - epoch_initial == migrations, || {
                format!(
                    "routing epoch moved {} for {migrations} migrations",
                    epoch - epoch_initial
                )
            });
            report.check(epochs.iter().all(|&e| e == epoch), || {
                format!("members report epochs {epochs:?}, the table is at {epoch}")
            });
        }
    }

    if args.trace {
        let ops: Vec<Op> = targets(args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .map(|o| Op::new(ObjectId(o), OpKind::FetchAdd(1)))
            .collect();
        match replay::measure(&layout(), &ops, 5) {
            Ok(c) => {
                report.set("objects.spec_apply_ns", c.spec_apply_ns);
                report.set("wire.encode_ns_per_op", c.encode_ns);
                report.set("wire.decode_ns_per_op", c.decode_ns);
                report.set("wire.bytes_per_op", c.bytes);
            }
            Err(e) => report.check(false, || format!("op-stream replay: {e}")),
        }
    }

    if bounded(ADMIN_DEADLINE * 2, "pb-shutdown", move || {
        cluster.shutdown()
    })
    .is_none()
    {
        eprintln!("STALL: the cluster did not shut down in time");
    }
    summarize(&mut report, args, &rounds);
    report
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Polls `done` until it holds (`true`) or the client has made no
/// progress for [`STALL_AFTER`] (`false`).
fn watch(progress: &AtomicU64, mut done: impl FnMut() -> bool) -> bool {
    let mut last = (progress.load(Ordering::Relaxed), Instant::now());
    loop {
        if done() {
            return true;
        }
        let now = progress.load(Ordering::Relaxed);
        if now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() > STALL_AFTER {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Reads and prints every member's state. Hands the connections back,
/// or none if a member did not answer in time.
fn poke(admins: Vec<Connection>) -> Vec<Connection> {
    match scrape_all(admins) {
        Some((conns, views)) => {
            for (m, v) in views.iter().enumerate() {
                eprintln!("member {m} state: {}", v.raw);
            }
            conns
        }
        None => {
            eprintln!("member state: introspect did not answer within its deadline");
            Vec::new()
        }
    }
}

/// One round of synchronous increments, with a replicated election
/// halfway through.
fn client_round(
    mut client: ClusterClient,
    seed: u64,
    progress: &AtomicU64,
    hard_stop: Instant,
) -> (ClusterClient, ClientOut) {
    let cpu0 = procfs::this_thread_cpu_ns();
    let (redirects0, refreshes0) = (client.redirects(), client.refreshes());
    let mut out_lat = Vec::with_capacity(ROUND_OPS as usize);
    let mut out_spans = Vec::with_capacity(ROUND_OPS as usize);
    let mut acked = [0u64; OBJECTS];
    let mut failed = [0u64; OBJECTS];
    let mut elect_us = Vec::new();
    let mut winners = Ok(Vec::new());
    let t0 = Instant::now();
    let mut attempted = 0;
    for (seq, obj) in targets(seed).enumerate() {
        if Instant::now() >= hard_stop {
            break;
        }
        attempted += 1;
        // Before the first migration, while both members own ranges:
        // a replicated election needs two members in the table.
        if seq as u64 == ROUND_OPS / 6 {
            winners = elect(&mut client, &mut elect_us);
        }
        let start = t0.elapsed();
        let r = span("client", "apply", || {
            client.apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
        });
        let end = t0.elapsed();
        match r {
            Ok(_) => {
                acked[obj] += 1;
                out_lat.push(nanos(end - start));
                out_spans.push((nanos(start), nanos(end)));
            }
            Err(e) => {
                failed[obj] += 1;
                eprintln!("cluster apply failed: {e}");
            }
        }
        progress.store(seq as u64 + 1, Ordering::Relaxed);
    }
    let out = ClientOut {
        attempted,
        elapsed: t0.elapsed(),
        cpu_ns: procfs::this_thread_cpu_ns().saturating_sub(cpu0),
        redirects: client.redirects() - redirects0,
        refreshes: client.refreshes() - refreshes0,
        lat: out_lat,
        spans: out_spans,
        acked,
        failed,
        elect_us,
        winners,
    };
    (client, out)
}

/// Opens one replicated election and runs every participant.
fn elect(client: &mut ClusterClient, times: &mut Vec<f64>) -> Result<Vec<usize>, String> {
    let sid = client
        .open_election(ELECTION_K)
        .map_err(|e| format!("open: {e}"))?;
    (0..ELECTION_K - 1)
        .map(|pid| {
            let t = Instant::now();
            let w = span("session", "elect", || client.elect(sid, pid));
            times.push(t.elapsed().as_secs_f64() * 1e6);
            w.map_err(|e| format!("elect p{pid}: {e}"))
        })
        .collect()
}

/// Fills the report's metrics from the rounds measured so far.
fn summarize(report: &mut Report, args: &Args, rounds: &[Round]) {
    let total = rounds.iter().fold(Tally::default(), |a, r| a.add(&r.tally));
    report.attempted = total.attempted;
    report.failed = total.failed();
    report.set("ok_share", 1.0 - total.fail_share());
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    // Per-round quantiles, median over rounds. With no round complete
    // (the first one stalled), latency reads as the stall limit.
    let censored = STALL_AFTER.as_secs_f64() * 1e6;
    let round_q = |q: f64| {
        if plain.is_empty() {
            return censored;
        }
        med(plain
            .iter()
            .map(|r| {
                let mut v = r.out.lat.clone();
                v.sort_unstable();
                quantile(&v, q).map_or(censored, |ns| ns as f64 / 1e3)
            })
            .collect())
    };
    report.set(
        "ops_per_s",
        med(plain.iter().map(|r| r.ops_per_s()).collect()),
    );
    report.set("lat_p50_us", round_q(0.5));
    report.set("lat_p90_us", round_q(0.9));
    report.set(
        "slo_share",
        med(plain
            .iter()
            .map(|r| stats::slo_share(&r.out.lat, r.tally.attempted, SLO_NS))
            .collect()),
    );
    if !args.trace {
        return;
    }
    report.set(
        "event_loop.stalls",
        rounds.iter().filter(|r| r.woken).count() as f64,
    );

    let mut lat: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.out.lat.iter().copied())
        .collect();
    lat.sort_unstable();
    report.set(
        "client.lat_p99_us",
        quantile(&lat, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    report.set(
        "client.lat_p999_us",
        quantile(&lat, 0.999).unwrap_or(0) as f64 / 1e3,
    );
    report.set("client.lat_samples", lat.len() as f64);
    let ops = |r: &Round| r.tally.ok + r.tally.errored;
    report.set(
        "client.cpu_us_per_op",
        med(traced
            .iter()
            .map(|r| ratio(r.out.cpu_ns as f64 / 1e3, ops(r) as f64))
            .collect()),
    );
    report.set(
        "event_loop.cpu_us_per_op",
        med(traced
            .iter()
            .map(|r| stats::cpu_us_per_op(&r.loops_cpu.0, &r.loops_cpu.1, ops(r)))
            .collect()),
    );
    let delta = |r: &Round, f: fn(&ServerView) -> u64| -> u64 {
        r.views.iter().map(|(b, a)| f(a).saturating_sub(f(b))).sum()
    };
    report.set(
        "event_loop.turns_per_kop",
        med(traced
            .iter()
            .map(|r| {
                1e3 * ratio(
                    delta(r, |v| v.wakeups) as f64,
                    delta(r, |v| v.requests) as f64,
                )
            })
            .collect()),
    );
    report.set(
        "event_loop.flush_batch_mean",
        med(traced
            .iter()
            .map(|r| {
                ratio(
                    delta(r, |v| v.flushes.1) as f64,
                    delta(r, |v| v.flushes.0) as f64,
                )
            })
            .collect()),
    );
    if let Some(last) = traced.last() {
        let per_shard = |f: fn(&ServerView) -> &Vec<(u64, u64)>| -> Vec<(u64, u64)> {
            last.views.iter().flat_map(|(_, a)| f(a).clone()).collect()
        };
        report.set(
            "event_loop.turn_p50_ns",
            weighted_p50(&per_shard(|v| &v.turn_p50)),
        );
        report.set(
            "objects.apply_p50_ns",
            weighted_p50(&per_shard(|v| &v.apply_p50)),
        );
    }
    let (busy, reqs) = traced.iter().fold((0, 0), |(b, q), r| {
        (b + delta(r, |v| v.busy), q + delta(r, |v| v.requests))
    });
    report.set("shard.busy_share", ratio(busy as f64, reqs as f64));
    report.set(
        "shard.queue_depth",
        traced
            .iter()
            .flat_map(|r| r.views.iter().map(|(_, a)| a.queue_depth))
            .max()
            .unwrap_or(0) as f64,
    );
    let mut waits: Vec<u64> = traced
        .iter()
        .flat_map(|r| {
            r.views
                .iter()
                .flat_map(|(_, a)| a.flight.iter().map(|f| f.2))
        })
        .filter(|&q| q > 0)
        .collect();
    waits.sort_unstable();
    report.set(
        "shard.xq_wait_p50_ns",
        quantile(&waits, 0.5).unwrap_or(0) as f64,
    );
    report.set("shard.xq_wait_samples", waits.len() as f64);

    report.set(
        "cluster.migrate_ms",
        med(traced.iter().flat_map(|r| r.migrate_ms.clone()).collect()),
    );
    // The slowest operation that overlapped a migration.
    let window_max = traced
        .iter()
        .flat_map(|r| {
            r.out
                .spans
                .iter()
                .filter(move |&&(s, e)| r.windows.iter().any(|&(ws, we)| s <= we && e >= ws))
        })
        .map(|&(s, e)| e - s)
        .max()
        .unwrap_or(0);
    report.set("cluster.migration_window_max_us", window_max as f64 / 1e3);
    report.set(
        "cluster.redirects",
        traced.iter().map(|r| r.out.redirects).sum::<u64>() as f64,
    );
    report.set(
        "cluster.refreshes",
        traced.iter().map(|r| r.out.refreshes).sum::<u64>() as f64,
    );
    report.set(
        "routing.wrong_shard",
        traced
            .iter()
            .map(|r| delta(r, |v| v.wrong_shard))
            .sum::<u64>() as f64,
    );
    report.set(
        "session.elect_us",
        med(traced.iter().flat_map(|r| r.out.elect_us.clone()).collect()),
    );
    let plain_rate = med(plain.iter().map(|r| r.ops_per_s()).collect());
    let traced_rate = med(traced.iter().map(|r| r.ops_per_s()).collect());
    report.set(
        "telemetry.trace_overhead_share",
        1.0 - ratio(traced_rate, plain_rate),
    );
}
