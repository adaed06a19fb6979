//! Validates `bso-telemetry` observability artifacts.
//!
//! ```text
//! validate_telemetry <snapshot.json> [min_total] [prefix=N ...]
//! validate_telemetry --trace <trace.json> [min_events]
//! validate_telemetry --progress <progress.jsonl> [min_lines]
//! validate_telemetry --checkpoint <cp.json>
//! validate_telemetry --serve <snapshot.json> [BENCH_serve.json]
//! validate_telemetry --explore <BENCH_explore.json>
//! validate_telemetry --introspect
//! validate_telemetry --chaos
//! validate_telemetry --cluster
//! ```
//!
//! The default mode exits nonzero unless the file parses as a
//! `bso-telemetry/v1` document whose metrics all carry a known type,
//! holds at least `min_total` metrics (a bare number), and, for each
//! `prefix=N` argument, has at least `N` metrics whose names start
//! with `prefix`. `--trace` checks a `BSO_TRACE` export for Chrome
//! trace-event shape (phases, ids, timestamps) with at least
//! `min_events` data events; `--progress` checks a `BSO_PROGRESS`
//! stream for well-formed `bso-progress/v1` heartbeats; `--checkpoint`
//! checks that a `BSO_CHECKPOINT` file is a loadable, resumable
//! `bso-checkpoint/v1` document with a non-empty frontier; `--serve`
//! checks a snapshot captured from a live `bso-server` run for the
//! `server.*` metric contract (request accounting that balances,
//! per-shard queue-depth gauges, latency histograms with consistent
//! quantiles), and with an optional second file also checks a
//! `BENCH_serve.json` for the `bso-serve-bench/v2` shape — including
//! that the peak latency distribution holds exactly one sample per
//! successful op; `--explore` checks a `BENCH_explore.json` written by
//! the explore bench for record shape *and* for the partial-order
//! reduction acceptance bar (a ≥ 10× state cut at k ≥ 6), so a
//! reduction regression fails the build instead of silently eroding
//! the speedup; `--introspect` is self-contained — it starts a
//! loopback `bso-server`, scrapes the wire-level `Introspect` request
//! *while traffic is flowing*, and validates the `bso-introspect/v1`
//! snapshot (key presence, quantile ordering, exactly one per-shard
//! entry per configured shard — the DESIGN.md §3.13 contract);
//! `--chaos` is likewise self-contained — it starts a loopback
//! `bso-server` and drives the DESIGN.md §3.14 fault-recovery
//! contract deterministically over a raw wire connection: a `Resume`
//! session bind, a duplicate-`req_id` retry that must be *replayed*
//! from the reply cache (not re-applied), and a zero-budget
//! `DeadlineApply` that must be shed with a typed `Expired` — then
//! checks that the `Introspect` snapshot and shutdown stats account
//! for all three (`resumes`, `replays`, `sessions`, and aggregate
//! plus per-shard `shed`); `--cluster` is also self-contained — it
//! launches a three-member `bso-cluster`, serves recorded traffic
//! through one live shard migration and one evacuated-member kill,
//! and checks the DESIGN.md §3.15 contract: typed `WrongShard`
//! redirects observed, routing epochs monotone at every member,
//! per-object ledgers exactly balancing the acked increments, and
//! the merged multi-server history linearizable. CI runs all nine
//! over the artifacts the examples, the loadgen smoke job and the
//! smoke bench write.

use std::process::ExitCode;

use bso::sim::Checkpoint;
use bso_telemetry::json::{self, Json};

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_telemetry: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: validate_telemetry <snapshot.json> [min_total] [prefix=N ...] \
     | --trace <trace.json> [min_events] | --progress <progress.jsonl> [min_lines] \
     | --checkpoint <cp.json> | --serve <snapshot.json> [BENCH_serve.json] \
     | --explore <BENCH_explore.json> | --introspect | --chaos | --cluster";

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let path = args.next().ok_or(USAGE)?;
    if path == "--trace" {
        let file = args.next().ok_or(USAGE)?;
        let min = parse_count(args.next())?;
        return validate_trace(&file, min);
    }
    if path == "--progress" {
        let file = args.next().ok_or(USAGE)?;
        let min = parse_count(args.next())?;
        return validate_progress(&file, min);
    }
    if path == "--checkpoint" {
        let file = args.next().ok_or(USAGE)?;
        return validate_checkpoint(&file);
    }
    if path == "--serve" {
        let file = args.next().ok_or(USAGE)?;
        let summary = validate_serve(&file)?;
        return match args.next() {
            Some(bench) => Ok(format!("{summary}\n{}", validate_serve_bench(&bench)?)),
            None => Ok(summary),
        };
    }
    if path == "--explore" {
        let file = args.next().ok_or(USAGE)?;
        return validate_explore(&file);
    }
    if path == "--introspect" {
        return validate_introspect();
    }
    if path == "--chaos" {
        return validate_chaos();
    }
    if path == "--cluster" {
        return validate_cluster();
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;

    if !matches!(doc.get("schema"), Some(Json::Str(s)) if s == "bso-telemetry/v1") {
        return Err(format!("{path}: missing or unknown \"schema\""));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{path}: \"metrics\" is missing or not an object"))?;
    for (name, m) in metrics {
        let known = matches!(
            m.get("type"),
            Some(Json::Str(t)) if t == "counter" || t == "gauge" || t == "histogram"
        );
        if !known {
            return Err(format!("{path}: metric {name:?} has no known \"type\""));
        }
    }

    for arg in args {
        match arg.split_once('=') {
            Some((prefix, n)) => {
                let want: usize = n
                    .parse()
                    .map_err(|_| format!("bad argument {arg:?}: expected prefix=N"))?;
                let got = metrics
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .count();
                if got < want {
                    return Err(format!(
                        "{path}: {got} metrics match prefix {prefix:?}, need at least {want}"
                    ));
                }
            }
            None => {
                let want: usize = arg
                    .parse()
                    .map_err(|_| format!("bad argument {arg:?}: expected a count or prefix=N"))?;
                if metrics.len() < want {
                    return Err(format!(
                        "{path}: {} metrics in total, need at least {want}",
                        metrics.len()
                    ));
                }
            }
        }
    }
    Ok(format!("{path}: ok ({} metrics)", metrics.len()))
}

fn parse_count(arg: Option<String>) -> Result<usize, String> {
    match arg {
        None => Ok(1),
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad count {s:?}: expected a number")),
    }
}

/// Checks a `BSO_TRACE` export for Chrome trace-event shape.
fn validate_trace(path: &str, min_events: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(doc.get("schema"), Some(Json::Str(s)) if s == "bso-trace/v1") {
        return Err(format!("{path}: missing or unknown \"schema\""));
    }
    let events = doc
        .get("traceEvents")
        .and_then(Json::items)
        .ok_or_else(|| format!("{path}: \"traceEvents\" is missing or not an array"))?;
    let mut data_events = 0;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: event #{i} has no \"ph\""))?;
        if !matches!(ph, "X" | "i" | "M" | "B" | "E") {
            return Err(format!("{path}: event #{i} has unknown phase {ph:?}"));
        }
        if e.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{path}: event #{i} has no \"name\""));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("{path}: event #{i} has no integer {key:?}"));
            }
        }
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        data_events += 1;
        if e.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("{path}: event #{i} has no numeric \"ts\""));
        }
        if ph == "X" && e.get("dur").and_then(Json::as_f64).is_none() {
            return Err(format!("{path}: complete event #{i} has no \"dur\""));
        }
    }
    if data_events < min_events {
        return Err(format!(
            "{path}: {data_events} data events, need at least {min_events}"
        ));
    }
    Ok(format!(
        "{path}: ok ({data_events} data events, {} records)",
        events.len()
    ))
}

/// Checks a `BSO_CHECKPOINT` file: it must load through the same
/// typed path `Explorer::resume` uses, and describe something a
/// resume could actually continue (a non-empty frontier).
fn validate_checkpoint(path: &str) -> Result<String, String> {
    let cp = Checkpoint::load(path).map_err(|e| e.to_string())?;
    if cp.frontier.is_empty() {
        return Err(format!("{path}: checkpoint has an empty frontier"));
    }
    for (i, entry) in cp.frontier.iter().enumerate() {
        for c in &entry.crashes {
            if c.at > entry.schedule.len() {
                return Err(format!(
                    "{path}: frontier entry #{i} crashes p{} after step {} of a \
                     {}-step schedule",
                    c.pid,
                    c.at,
                    entry.schedule.len()
                ));
            }
        }
    }
    Ok(format!(
        "{path}: ok ({:?} interrupted by {} at {} states, {} frontier entries)",
        cp.protocol,
        cp.reason,
        cp.states,
        cp.frontier.len()
    ))
}

/// Checks a snapshot from a live `bso-server` run for the `server.*`
/// metric contract.
fn validate_serve(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(doc.get("schema"), Some(Json::Str(s)) if s == "bso-telemetry/v1") {
        return Err(format!("{path}: missing or unknown \"schema\""));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{path}: \"metrics\" is missing or not an object"))?;
    let counter = |name: &str| -> Result<u64, String> {
        let m = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{path}: missing counter {name:?}"))?;
        if !matches!(m.get("type"), Some(Json::Str(t)) if t == "counter") {
            return Err(format!("{path}: {name:?} is not a counter"));
        }
        m.get("value")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: {name:?} has no integer value"))
    };

    // The request ledger must balance: everything decoded was either
    // answered or refused, and refusals are answered too — so the
    // server can never owe more responses than it got requests.
    let requests = counter("server.requests")?;
    let responses = counter("server.responses")?;
    let busy = counter("server.busy")?;
    if requests == 0 {
        return Err(format!(
            "{path}: server.requests is 0 — no traffic captured"
        ));
    }
    if responses > requests {
        return Err(format!(
            "{path}: {responses} responses for {requests} requests"
        ));
    }
    if busy > requests {
        return Err(format!(
            "{path}: {busy} busy refusals for {requests} requests"
        ));
    }
    if counter("server.connections")? == 0 {
        return Err(format!("{path}: server.connections is 0"));
    }

    // Queue-depth gauges: one per shard, contiguously numbered from 0.
    let shards = metrics
        .iter()
        .filter(|(k, m)| {
            k.starts_with("server.shard")
                && k.ends_with(".queue_depth")
                && matches!(m.get("type"), Some(Json::Str(t)) if t == "gauge")
        })
        .count();
    if shards == 0 {
        return Err(format!("{path}: no server.shard<i>.queue_depth gauges"));
    }
    for i in 0..shards {
        let name = format!("server.shard{i}.queue_depth");
        if !metrics.iter().any(|(k, _)| *k == name) {
            return Err(format!(
                "{path}: shard gauges are not contiguous: no {name:?}"
            ));
        }
    }

    // Latency histograms: present, non-empty, quantiles ordered and
    // inside [min, max].
    let mut histograms = 0;
    for (name, m) in metrics {
        if !(name.starts_with("server.") || name.starts_with("client."))
            || !matches!(m.get("type"), Some(Json::Str(t)) if t == "histogram")
        {
            continue;
        }
        histograms += 1;
        let field = |key: &str| -> Result<u64, String> {
            m.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: histogram {name:?} has no integer {key:?}"))
        };
        let (count, min, max) = (field("count")?, field("min")?, field("max")?);
        let (p50, p90, p99) = (field("p50")?, field("p90")?, field("p99")?);
        if count == 0 {
            return Err(format!("{path}: histogram {name:?} is empty"));
        }
        if !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
            return Err(format!(
                "{path}: histogram {name:?} has disordered quantiles \
                 (min {min}, p50 {p50}, p90 {p90}, p99 {p99}, max {max})"
            ));
        }
    }
    if histograms == 0 {
        return Err(format!("{path}: no server-side latency histograms"));
    }
    Ok(format!(
        "{path}: ok ({requests} requests over {shards} shards, {histograms} histograms)"
    ))
}

/// Checks a `BENCH_serve.json` written by the loadgen bench: the
/// `bso-serve-bench/v2` shape — a peak block whose latency histogram
/// counts *exactly* one sample per successful op, and a non-empty
/// latency-under-load curve with ordered quantiles per point.
fn validate_serve_bench(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(doc.get("schema"), Some(Json::Str(s)) if s == "bso-serve-bench/v2") {
        return Err(format!("{path}: missing or unknown \"schema\""));
    }
    let peak = doc
        .get("peak")
        .ok_or_else(|| format!("{path}: no \"peak\" block"))?;
    let peak_u64 = |key: &str| -> Result<u64, String> {
        peak.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: peak has no integer {key:?}"))
    };
    if peak
        .get("ops_per_sec")
        .and_then(Json::as_f64)
        .is_none_or(|r| r <= 0.0)
    {
        return Err(format!(
            "{path}: peak.ops_per_sec is missing or not positive"
        ));
    }
    let ops_ok = peak_u64("ops_ok")?;
    let latency = peak
        .get("latency")
        .ok_or_else(|| format!("{path}: peak has no \"latency\""))?;
    let lat = |key: &str| -> Result<u64, String> {
        latency
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: peak.latency has no integer {key:?}"))
    };
    // The sampling contract: exactly one latency sample per successful
    // op — a histogram that over- or under-counts is lying about the
    // distribution it claims to summarize.
    let count = lat("count")?;
    if count != ops_ok {
        return Err(format!(
            "{path}: peak.latency.count is {count} but ops_ok is {ops_ok} — \
             the distribution must hold exactly one sample per successful op"
        ));
    }
    let (min, p50, p99, p999, max) = (
        lat("min_ns")?,
        lat("p50_ns")?,
        lat("p99_ns")?,
        lat("p999_ns")?,
        lat("max_ns")?,
    );
    if !(min <= p50 && p50 <= p99 && p99 <= p999 && p999 <= max) {
        return Err(format!(
            "{path}: peak latency quantiles are disordered \
             (min {min}, p50 {p50}, p99 {p99}, p999 {p999}, max {max})"
        ));
    }

    let curve = doc
        .get("curve")
        .and_then(Json::items)
        .ok_or_else(|| format!("{path}: \"curve\" is missing or not an array"))?;
    if curve.is_empty() {
        return Err(format!("{path}: the latency-under-load curve is empty"));
    }
    for (i, point) in curve.iter().enumerate() {
        for key in ["offered_ops_per_sec", "achieved_ops_per_sec"] {
            if point
                .get(key)
                .and_then(Json::as_f64)
                .is_none_or(|r| r <= 0.0)
            {
                return Err(format!("{path}: curve point #{i} has no positive {key:?}"));
            }
        }
        let q = |key: &str| -> Result<u64, String> {
            point
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: curve point #{i} has no integer {key:?}"))
        };
        let (p50, p99, p999) = (q("p50_ns")?, q("p99_ns")?, q("p999_ns")?);
        if !(p50 <= p99 && p99 <= p999) {
            return Err(format!(
                "{path}: curve point #{i} has disordered quantiles \
                 (p50 {p50}, p99 {p99}, p999 {p999})"
            ));
        }
        if q("count")? == 0 {
            return Err(format!("{path}: curve point #{i} sampled nothing"));
        }
    }
    // A cluster section (written by `loadgen --cluster N`) is
    // optional, but when present it must carry the
    // bso-cluster-bench/v1 shape: real members, real throughput, at
    // least one live migration, and a routing epoch that moved
    // forward to pay for it.
    let mut cluster_note = String::new();
    if let Some(cluster) = doc.get("cluster") {
        if !matches!(cluster.get("schema"), Some(Json::Str(s)) if s == "bso-cluster-bench/v1") {
            return Err(format!(
                "{path}: cluster section has missing or unknown \"schema\""
            ));
        }
        let cu = |key: &str| -> Result<u64, String> {
            cluster
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: cluster section has no integer {key:?}"))
        };
        let members = cu("members")?;
        if members < 2 {
            return Err(format!(
                "{path}: a {members}-member cluster is not a cluster"
            ));
        }
        if cu("ops")? == 0 {
            return Err(format!("{path}: cluster bench served no ops"));
        }
        if cluster
            .get("ops_per_sec")
            .and_then(Json::as_f64)
            .is_none_or(|r| r <= 0.0)
        {
            return Err(format!(
                "{path}: cluster.ops_per_sec is missing or not positive"
            ));
        }
        let migrations = cu("migrations")?;
        if migrations == 0 {
            return Err(format!("{path}: cluster bench performed no migration"));
        }
        let (e0, e1) = (cu("epoch_initial")?, cu("epoch_final")?);
        if e1 < e0 + migrations {
            return Err(format!(
                "{path}: routing epoch went {e0} -> {e1} across {migrations} migrations \
                 — each flip must bump it"
            ));
        }
        cluster_note = format!(", {members}-member cluster across {migrations} migrations");
    }
    Ok(format!(
        "{path}: ok ({ops_ok} sampled ops at peak, {}-point curve{cluster_note})",
        curve.len()
    ))
}

/// Checks a `BENCH_explore.json` written by the explore bench: record
/// shape, the groups the acceptance checks read, and the DPOR state
/// cuts (strictly fewer states everywhere it ran, ≥ 10× at k ≥ 6).
fn validate_explore(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(doc.get("bench"), Some(Json::Str(s)) if s == "explore") {
        return Err(format!("{path}: missing or unknown \"bench\""));
    }
    let records = doc
        .get("records")
        .and_then(Json::items)
        .ok_or_else(|| format!("{path}: \"records\" is missing or not an array"))?;
    for (i, r) in records.iter().enumerate() {
        if r.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{path}: record #{i} has no \"name\""));
        }
        for key in ["median_ns", "min_ns"] {
            if r.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("{path}: record #{i} has no integer {key:?}"));
            }
        }
    }
    let has = |name: &str| {
        records
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some(name))
    };
    for group in [
        "explore_seed_baseline/6",
        "explore_cas_only/6",
        "explore_cas_only_fp/6",
        "explore_dpor/6",
        "explore_faults/disabled",
        "explore_faults/f1",
    ] {
        if !has(group) {
            return Err(format!("{path}: no record for {group:?}"));
        }
    }
    let cuts = doc
        .get("dpor")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{path}: \"dpor\" is missing or not an object"))?;
    if cuts.is_empty() {
        return Err(format!("{path}: \"dpor\" has no per-instance cuts"));
    }
    let mut checked = 0;
    for (name, entry) in cuts {
        let k: u64 = name
            .strip_prefix('k')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{path}: dpor key {name:?} is not k<N>"))?;
        let field = |key: &str| -> Result<u64, String> {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: dpor.{name} has no integer {key:?}"))
        };
        let (full, dpor) = (field("states_full")?, field("states_dpor")?);
        let cut = entry
            .get("cut")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: dpor.{name} has no numeric \"cut\""))?;
        if dpor >= full {
            return Err(format!(
                "{path}: dpor.{name} explored {dpor} states of {full} — no reduction"
            ));
        }
        if k >= 6 && cut < 10.0 {
            return Err(format!(
                "{path}: dpor.{name} cut is {cut:.1}x, the acceptance bar is 10x at k >= 6"
            ));
        }
        checked += 1;
    }
    Ok(format!(
        "{path}: ok ({} records, {checked} dpor cuts)",
        records.len()
    ))
}

/// Checks a `BSO_PROGRESS` stream for well-formed heartbeats.
fn validate_progress(path: &str, min_lines: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if !matches!(doc.get("schema"), Some(Json::Str(s)) if s == "bso-progress/v1") {
            return Err(format!("{path}:{}: missing or unknown \"schema\"", i + 1));
        }
        for key in ["seq", "elapsed_ms", "states", "frontier"] {
            if doc.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("{path}:{}: no integer {key:?}", i + 1));
            }
        }
        lines += 1;
    }
    if lines < min_lines {
        return Err(format!(
            "{path}: {lines} heartbeat lines, need at least {min_lines}"
        ));
    }
    Ok(format!("{path}: ok ({lines} heartbeats)"))
}

/// The self-contained `Introspect` contract check: a loopback server
/// is scraped over the wire while traffic flows, and the snapshot
/// must match the `bso-introspect/v1` schema of DESIGN.md §3.13 —
/// key presence, ordered quantiles, and exactly one per-shard entry
/// per configured shard.
fn validate_introspect() -> Result<String, String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use bso::client::Connection;
    use bso::objects::{Layout, ObjectId, ObjectInit, Op, OpKind};
    use bso::server::Server;

    const SHARDS: usize = 2;
    // One counter per shard, so traffic exercises every event loop.
    let mut layout = Layout::new();
    for _ in 0..SHARDS {
        layout.push(ObjectInit::FetchAdd(0));
    }
    let handle = Server::builder()
        .shards(SHARDS)
        .pin_cores(false)
        .bind("127.0.0.1:0", &layout)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let traffic = std::thread::spawn(move || -> Result<u64, String> {
        let mut conn = Connection::builder()
            .connect(addr)
            .map_err(|e| format!("traffic connect: {e}"))?;
        let mut sent = 0u64;
        while !flag.load(Ordering::Relaxed) {
            for obj in 0..SHARDS {
                conn.apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
                    .map_err(|e| format!("traffic apply: {e}"))?;
                sent += 1;
            }
        }
        Ok(sent)
    });

    // Scrape from a second connection, mid-traffic.
    let scrape = (|| -> Result<String, String> {
        let mut conn = Connection::builder()
            .connect(addr)
            .map_err(|e| format!("connect: {e}"))?;
        std::thread::sleep(std::time::Duration::from_millis(50));
        conn.introspect().map_err(|e| format!("introspect: {e}"))
    })();
    stop.store(true, Ordering::Relaxed);
    let sent = traffic.join().expect("traffic thread panicked")?;
    let text = scrape?;

    let doc = json::parse(&text).map_err(|e| format!("introspect: {e}"))?;
    if !matches!(doc.get("schema"), Some(Json::Str(s)) if s == "bso-introspect/v1") {
        return Err("introspect: missing or unknown \"schema\"".to_string());
    }
    let config = doc.get("config").ok_or("introspect: no \"config\"")?;
    if config.get("shards").and_then(Json::as_u64) != Some(SHARDS as u64) {
        return Err(format!("introspect: config.shards != {SHARDS}"));
    }
    for key in ["backend", "pin_cores", "queue_capacity", "read_chunk"] {
        if config.get(key).is_none() {
            return Err(format!("introspect: config lacks {key:?}"));
        }
    }
    let server = doc.get("server").ok_or("introspect: no \"server\"")?;
    for key in ["crate", "uptime_ms", "version", "wire"] {
        if server.get(key).is_none() {
            return Err(format!("introspect: server lacks {key:?}"));
        }
    }
    let requests = doc
        .get("stats")
        .and_then(|s| s.get("requests"))
        .and_then(Json::as_u64)
        .ok_or("introspect: no integer stats.requests")?;
    if requests == 0 {
        return Err("introspect: stats.requests is 0 mid-traffic".to_string());
    }

    let shards = doc
        .get("shards")
        .and_then(Json::items)
        .ok_or("introspect: no \"shards\" array")?;
    if shards.len() != SHARDS {
        return Err(format!(
            "introspect: {} shard entries for {SHARDS} shards",
            shards.len()
        ));
    }
    let mut applies = 0u64;
    for (i, entry) in shards.iter().enumerate() {
        if entry.get("shard").and_then(Json::as_u64) != Some(i as u64) {
            return Err(format!("introspect: shard entry {i} misnumbered"));
        }
        for key in ["borrowed", "conns", "forwarded", "queue_depth", "wakeups"] {
            if entry.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("introspect: shard {i} lacks integer {key:?}"));
            }
        }
        for hist in ["apply_ns", "elect_ns", "flush_batch", "turn_ns"] {
            let h = entry
                .get(hist)
                .ok_or_else(|| format!("introspect: shard {i} lacks {hist:?}"))?;
            let field = |key: &str| {
                h.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("introspect: shard {i} {hist}.{key} missing"))
            };
            let count = field("count")?;
            field("sum")?;
            let (min, p50, p90, p99, max) = (
                field("min")?,
                field("p50")?,
                field("p90")?,
                field("p99")?,
                field("max")?,
            );
            if count > 0 && !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
                return Err(format!(
                    "introspect: shard {i} {hist} quantiles out of order: \
                     min {min}, p50 {p50}, p90 {p90}, p99 {p99}, max {max}"
                ));
            }
            if hist == "apply_ns" {
                applies += count;
            }
        }
        let flight = entry
            .get("flight")
            .ok_or_else(|| format!("introspect: shard {i} lacks \"flight\""))?;
        for key in ["seq", "slow_dropped", "threshold_ns"] {
            if flight.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!(
                    "introspect: shard {i} flight lacks integer {key:?}"
                ));
            }
        }
        for key in ["recent", "slow"] {
            if flight.get(key).and_then(Json::items).is_none() {
                return Err(format!("introspect: shard {i} flight lacks array {key:?}"));
            }
        }
    }
    if applies == 0 {
        return Err("introspect: no applies recorded on any shard mid-traffic".to_string());
    }

    let stats = handle.shutdown();
    if stats.requests != stats.responses {
        return Err(format!(
            "server answered {} of {} requests",
            stats.responses, stats.requests
        ));
    }
    Ok(format!(
        "introspect contract ok: {SHARDS} shards, {requests} requests in snapshot, \
         {sent} traffic ops drained"
    ))
}

/// The self-contained fault-recovery contract check (DESIGN.md
/// §3.14): every recovery path the chaos harness exercises
/// probabilistically is forced here *deterministically*, over a raw
/// wire connection, and the accounting is checked end to end — in
/// the live `Introspect` snapshot and in the shutdown stats.
///
/// The script: bind a session (`Resume`), apply an effectful op
/// under it, shed a zero-budget `DeadlineApply` with a typed
/// `Expired`, then "crash" (drop the socket), reconnect, resume, and
/// retry the effectful op with its original `req_id`. The retry must
/// be replayed from the per-session reply cache — the counter must
/// show exactly one application — and the server must report
/// `resumes`, `replays`, `sessions`, and `shed` (aggregate and
/// per-shard) for all of it.
fn validate_chaos() -> Result<String, String> {
    use std::io::Write;
    use std::net::TcpStream;

    use bso::objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Value};
    use bso::server::{wire, ErrorCode, Request, Response, Server};

    fn send(c: &mut TcpStream, id: u64, req: &Request) -> Result<(), String> {
        let mut buf = Vec::new();
        wire::encode_request(id, req, &mut buf).map_err(|e| format!("chaos: encode: {e}"))?;
        c.write_all(&buf).map_err(|e| format!("chaos: send: {e}"))
    }
    fn recv(c: &mut TcpStream) -> Result<(u64, Response), String> {
        let mut body = Vec::new();
        if !wire::read_frame(c, &mut body).map_err(|e| format!("chaos: read: {e}"))? {
            return Err("chaos: unexpected EOF mid-conversation".to_string());
        }
        wire::decode_response(&body).map_err(|e| format!("chaos: decode: {e}"))
    }

    const SHARDS: usize = 2;
    let mut layout = Layout::new();
    for _ in 0..SHARDS {
        layout.push(ObjectInit::FetchAdd(0));
    }
    let handle = Server::builder()
        .shards(SHARDS)
        .pin_cores(false)
        .bind("127.0.0.1:0", &layout)
        .map_err(|e| format!("chaos: bind: {e}"))?;
    let addr = handle.local_addr();

    let token = 0xC4A0_5EEDu64;
    let add = Request::Apply {
        pid: 0,
        op: Op::new(ObjectId(0), OpKind::FetchAdd(7)),
    };

    // Life 1: bind the session, apply one effectful op, and get one
    // zero-budget op shed.
    let mut c = TcpStream::connect(addr).map_err(|e| format!("chaos: connect: {e}"))?;
    send(
        &mut c,
        1,
        &Request::Resume {
            token,
            last_acked: 0,
        },
    )?;
    match recv(&mut c)? {
        (
            1,
            Response::Resumed {
                token: t,
                cached: 0,
            },
        ) if t == token => {}
        other => return Err(format!("chaos: fresh resume answered {other:?}")),
    }
    send(&mut c, 2, &add)?;
    if recv(&mut c)? != (2, Response::Ok(Value::Int(0))) {
        return Err("chaos: first application did not see pre-state 0".to_string());
    }
    send(
        &mut c,
        3,
        &Request::DeadlineApply {
            budget_us: 0,
            pid: 0,
            op: Op::new(ObjectId(0), OpKind::FetchAdd(1)),
        },
    )?;
    match recv(&mut c)? {
        (
            3,
            Response::Err {
                code: ErrorCode::Expired,
                ..
            },
        ) => {}
        other => {
            return Err(format!(
                "chaos: zero-budget op answered {other:?}, not Expired"
            ))
        }
    }
    // The "crash": the ack for req 2 was sent but (we pretend) never
    // processed, so the client comes back only sure of req 1.
    drop(c);

    // Life 2: resume the session and retry req 2 verbatim. The reply
    // cache must answer — the original pre-state, not a re-applied 7.
    let mut c2 = TcpStream::connect(addr).map_err(|e| format!("chaos: reconnect: {e}"))?;
    send(
        &mut c2,
        10,
        &Request::Resume {
            token,
            last_acked: 1,
        },
    )?;
    match recv(&mut c2)? {
        (
            10,
            Response::Resumed {
                token: t,
                cached: 1,
            },
        ) if t == token => {}
        other => return Err(format!("chaos: re-resume answered {other:?}")),
    }
    send(&mut c2, 2, &add)?;
    if recv(&mut c2)? != (2, Response::Ok(Value::Int(0))) {
        return Err("chaos: retry was not replayed from the cache".to_string());
    }
    send(
        &mut c2,
        11,
        &Request::Apply {
            pid: 0,
            op: Op::new(ObjectId(0), OpKind::FetchAdd(0)),
        },
    )?;
    if recv(&mut c2)? != (11, Response::Ok(Value::Int(7))) {
        return Err("chaos: duplicate retry was applied twice (exactly-once broken)".to_string());
    }

    // The introspection plane must account for all of the above.
    send(&mut c2, 12, &Request::Introspect)?;
    let text = match recv(&mut c2)? {
        (12, Response::Introspect(json)) => json,
        other => return Err(format!("chaos: introspect answered {other:?}")),
    };
    let doc = json::parse(&text).map_err(|e| format!("chaos: introspect: {e}"))?;
    let stats = doc
        .get("stats")
        .ok_or("chaos: introspect has no \"stats\"")?;
    let stat = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("chaos: no integer stats.{key}"))
    };
    for (key, want) in [("resumes", 2), ("replays", 1), ("sessions", 1), ("shed", 1)] {
        let got = stat(key)?;
        if got < want {
            return Err(format!("chaos: stats.{key} = {got}, expected >= {want}"));
        }
    }
    let shards = doc
        .get("shards")
        .and_then(Json::items)
        .ok_or("chaos: introspect has no \"shards\" array")?;
    let mut shard_shed = 0u64;
    for (i, entry) in shards.iter().enumerate() {
        shard_shed += entry
            .get("shed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("chaos: shard {i} lacks integer \"shed\""))?;
    }
    if shard_shed != stat("shed")? {
        return Err(format!(
            "chaos: per-shard shed sums to {shard_shed}, stats.shed says {}",
            stat("shed")?
        ));
    }
    drop(c2);

    let stats = handle.shutdown();
    if stats.requests != stats.responses {
        return Err(format!(
            "chaos: server answered {} of {} requests",
            stats.responses, stats.requests
        ));
    }
    let checks = [
        ("resumes", stats.resumes, 2),
        ("replays", stats.replays, 1),
        ("shed", stats.shed, 1),
        ("malformed", stats.malformed, 0),
        ("version_rejects", stats.version_rejects, 0),
    ];
    for (name, got, want) in checks {
        if got != want {
            return Err(format!(
                "chaos: shutdown stats.{name} = {got}, expected {want}"
            ));
        }
    }
    Ok(format!(
        "chaos contract ok: {} requests all answered; resume bound, duplicate retry \
         replayed not re-applied, zero-budget op shed with Expired",
        stats.requests
    ))
}

/// The cluster contract (DESIGN.md §3.15), self-contained: a
/// three-member `bso-cluster` serves recorded traffic across one live
/// migration and one member kill; routing epochs must be monotone at
/// every member, stale clients must be redirected with typed
/// `WrongShard` (counted by the source), the merged multi-server
/// history must be linearizable, and the per-object ledgers must
/// balance to the acked increments exactly.
fn validate_cluster() -> Result<String, String> {
    use std::sync::Arc;

    use bso::client::HistoryRecorder;
    use bso::cluster::{Cluster, ClusterClient};
    use bso::objects::{Layout, ObjectId, ObjectInit, Op, OpKind};
    use bso::sim::check_history;

    const MEMBERS: usize = 3;
    const OBJECTS: usize = 6;
    const ROUNDS: usize = 40;
    const VICTIM: usize = 2;

    let mut layout = Layout::new();
    for _ in 0..OBJECTS {
        layout.push(ObjectInit::FetchAdd(0));
    }
    let mut cluster =
        Cluster::launch(MEMBERS, &layout).map_err(|e| format!("cluster: launch: {e}"))?;
    let seeds: Vec<String> = (0..MEMBERS).map(|i| cluster.addr(i).to_string()).collect();

    // Epoch monotonicity is checked at every member after every
    // table-changing step.
    let mut last_epochs = vec![0u64; MEMBERS];
    let check_epochs = |cluster: &Cluster, last: &mut Vec<u64>, step: &str| -> Result<(), String> {
        for (idx, seen) in last.iter_mut().enumerate() {
            if !cluster.live(idx) {
                continue;
            }
            let (epoch, _) = cluster
                .admin(idx)
                .and_then(|mut c| c.fetch_routing())
                .map_err(|e| format!("cluster: fetch_routing({idx}) after {step}: {e}"))?;
            if epoch < *seen {
                return Err(format!(
                    "cluster: member {idx} routing epoch went BACKWARD {seen} -> {epoch} \
                     after {step}"
                ));
            }
            *seen = epoch;
        }
        Ok(())
    };
    check_epochs(&cluster, &mut last_epochs, "launch")?;

    let rec = Arc::new(HistoryRecorder::new());
    let mut client = ClusterClient::connect(&seeds)
        .map_err(|e| format!("cluster: client connect: {e}"))?
        .with_recorder(Arc::clone(&rec));
    let mut acked = vec![0i64; OBJECTS];
    let pass = |client: &mut ClusterClient, acked: &mut Vec<i64>| -> Result<(), String> {
        for round in 0..ROUNDS {
            let obj = round % OBJECTS;
            client
                .apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
                .map_err(|e| format!("cluster: apply: {e}"))?;
            acked[obj] += 1;
        }
        Ok(())
    };

    // Traffic against the launch table, then one live migration the
    // client only discovers through a WrongShard bounce.
    pass(&mut client, &mut acked)?;
    let slice = cluster.owned_ranges(0);
    cluster
        .migrate(0, 1, &slice)
        .map_err(|e| format!("cluster: migrate: {e}"))?;
    check_epochs(&cluster, &mut last_epochs, "migration")?;
    pass(&mut client, &mut acked)?;
    if client.redirects() == 0 {
        return Err("cluster: the stale client was never redirected".into());
    }

    // Planned member loss: evacuate, kill, keep serving.
    cluster
        .evacuate(VICTIM)
        .map_err(|e| format!("cluster: evacuate: {e}"))?;
    let stats = cluster.kill(VICTIM);
    if stats.wrong_shard == 0 && client.redirects() == 0 {
        return Err("cluster: no member ever counted a WrongShard refusal".into());
    }
    check_epochs(&cluster, &mut last_epochs, "kill")?;
    pass(&mut client, &mut acked)?;

    // Exact ledgers on the survivors.
    for (obj, &expect) in acked.iter().enumerate() {
        let owner = (0..MEMBERS)
            .find(|&i| {
                cluster.live(i)
                    && cluster
                        .owned_ranges(i)
                        .iter()
                        .any(|&(lo, hi)| lo <= obj as u64 && obj as u64 <= hi)
            })
            .ok_or_else(|| format!("cluster: object {obj} has no live owner"))?;
        let got = cluster
            .admin(owner)
            .and_then(|mut c| c.apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(0))))
            .map_err(|e| format!("cluster: ledger read {obj}: {e}"))?
            .as_int()
            .ok_or("cluster: non-integer ledger")?;
        if got != expect {
            return Err(format!(
                "cluster: LEDGER VIOLATION on object {obj}: {got} for {expect} acked"
            ));
        }
    }

    // The merged multi-server history is one linearizable whole.
    let log = rec.take_log();
    if log.len() != 3 * ROUNDS {
        return Err(format!(
            "cluster: recorded {} ops for {} acked",
            log.len(),
            3 * ROUNDS
        ));
    }
    check_history(&layout, &log).map_err(|e| format!("cluster: NOT LINEARIZABLE\n{e}"))?;
    let final_epoch = cluster.epoch();
    cluster.shutdown();
    Ok(format!(
        "cluster contract ok: {MEMBERS} members, 1 migration + 1 kill survived; \
         {} merged ops linearizable, ledgers exact, routing epochs monotone to {final_epoch}",
        3 * ROUNDS
    ))
}
