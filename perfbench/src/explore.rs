//! `explore`: the model checker alone, in passes of a verify phase and
//! a refute phase.
//!
//! The verify phase runs two election protocols to `Verified` in every
//! engine mode: serial exact, 2-worker parallel fingerprint, DPOR, and
//! (where the protocol declares its symmetry) symmetric. The refute
//! phase runs searches that end in a counterexample, each serially and
//! in parallel: the hierarchy's refuted candidates, plus step-bound and
//! wrong-specification refutations of the verify instances. Every
//! counterexample is replayed.

use std::hash::Hash;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use bso::hierarchy::candidates::{
    FaaThreeEagerCandidate, QueueThreeCandidate, RwElection, TasThreeCandidate,
    TasThreeEagerCandidate,
};
use bso::objects::Value;
use bso::protocols::consensus::RwConsensus;
use bso::sim::{
    verify_replay, DedupMode, ExploreOutcome, ExploreStats, Explorer, Protocol, TaskSpec,
    ViolationKind,
};
use bso::{CasOnlyElection, LabelElection};

use crate::report::Report;
use crate::spans::{self, span};
use crate::stats::{median, quantile, ratio};
use crate::Args;

/// Worker threads of every parallel search.
const WORKERS: usize = 2;
/// A search still running after this is interrupted and counts as
/// failed.
const SEARCH_DEADLINE: Duration = Duration::from_secs(30);
/// When the run's last pass must end: the measuring time plus this.
const HARD_STOP_AFTER: Duration = Duration::from_secs(60);
static HARD_STOP: OnceLock<Instant> = OnceLock::new();
/// A search meets the SLO when it reaches its verdict within this.
const SEARCH_SLO: Duration = Duration::from_secs(5);
/// Timed set-ups for `setup_s` before each pass.
const SETUPS_PER_PASS: usize = 51;
/// Repetitions of the refute phase per pass: its searches take well
/// under a millisecond each, so each is timed several times.
const REFUTE_REPS: usize = 10;

/// Exact state counts of each verify search. They are properties of
/// the state graph: any other count is a wrong answer.
const LABEL_STATES: usize = 114_415;
const LABEL_DPOR_STATES: usize = 114_004;
const CAS_STATES: usize = 34_993;
const CAS_DPOR_STATES: usize = 129;

/// The engine configurations of the verify phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    SerialExact,
    ParallelFp,
    Dpor,
    Symmetric,
}

/// One finished search.
struct Search {
    name: &'static str,
    mode: Mode,
    /// Wall time to the verdict.
    secs: f64,
    states: usize,
    /// `Some(kind)` for a counterexample, `None` for `Verified`.
    violation: Option<ViolationKind>,
    /// Whether the search reached a verdict at all.
    decided: bool,
    stats: ExploreStats,
}

/// Every protocol instance a pass explores.
struct Instances {
    label: LabelElection,
    cas: CasOnlyElection,
}

fn instances() -> Instances {
    Instances {
        label: LabelElection::new(3, 5).expect("LabelElection(3,5) exists"),
        cas: CasOnlyElection::new(8, 9).expect("CasOnlyElection(8,9) exists"),
    }
}

/// Runs one search to its verdict under a span.
fn search<P>(name: &'static str, mode: Mode, ex: &Explorer<'_, P>) -> (Search, ExploreOutcome)
where
    P: Protocol,
    P::State: Hash + Eq,
{
    let t = Instant::now();
    // However slow the engine, the run ends well inside its time limit:
    // searches past the hard stop are interrupted and count as failed.
    let left = HARD_STOP
        .get()
        .map_or(SEARCH_DEADLINE, |stop| stop.saturating_duration_since(t))
        .clamp(Duration::from_millis(1), SEARCH_DEADLINE);
    let rep = span("sim", name, || ex.clone().deadline(left).run());
    let secs = t.elapsed().as_secs_f64();
    let search = Search {
        name,
        mode,
        secs,
        states: rep.states,
        violation: rep.outcome.violation().map(|v| v.kind.clone()),
        decided: matches!(
            rep.outcome,
            ExploreOutcome::Verified | ExploreOutcome::Violated(_)
        ),
        stats: rep.stats,
    };
    (search, rep.outcome)
}

/// A verify search: must be `Verified` with exactly `states` states.
fn verify<P>(
    report: &mut Report,
    name: &'static str,
    mode: Mode,
    ex: &Explorer<'_, P>,
    states: usize,
) -> Search
where
    P: Protocol,
    P::State: Hash + Eq,
{
    let (s, outcome) = search(name, mode, ex);
    report.check(!s.decided || (outcome.is_verified() && s.states == states), || {
        format!(
            "{name} ({mode:?}): expected Verified with {states} states, got {} states and {outcome:?}",
            s.states
        )
    });
    s
}

/// A refute search: must find a counterexample that replays, of kind
/// `kind` when run serially.
fn refute<P>(
    report: &mut Report,
    name: &'static str,
    ex: &Explorer<'_, P>,
    parallel: bool,
    kind: &ViolationKind,
) -> Search
where
    P: Protocol,
    P::State: Hash + Eq,
{
    let mode = if parallel {
        Mode::ParallelFp
    } else {
        Mode::SerialExact
    };
    let (s, outcome) = search(name, mode, ex);
    if !s.decided {
        return s;
    }
    match outcome.violation() {
        None => report.check(false, || {
            format!("{name}: expected a counterexample, got Verified")
        }),
        Some(v) => {
            let artifact = ex.artifact_for(v);
            let replayed = span("sim", "replay", || {
                verify_replay(&artifact, &ex.replay(&artifact))
            });
            report.check(replayed.is_ok(), || {
                format!("{name} ({mode:?}): counterexample does not replay: {replayed:?}")
            });
            report.check(parallel || v.kind == *kind, || {
                format!(
                    "{name}: serial search found {:?}, expected {kind:?}",
                    v.kind
                )
            });
        }
    }
    s
}

/// Adds the serial and the parallel refutation of `ex` to `out`.
fn refute_both<P>(
    report: &mut Report,
    out: &mut Vec<(Search, Search)>,
    name: &'static str,
    ex: Explorer<'_, P>,
    kind: ViolationKind,
) where
    P: Protocol + Sync,
    P::State: Hash + Eq + Send,
{
    let serial = refute(report, name, &ex, false, &kind);
    let par = ex
        .parallel(true)
        .workers(WORKERS)
        .dedup(DedupMode::Fingerprint);
    let parallel = refute(report, name, &par, true, &kind);
    out.push((serial, parallel));
}

/// One pass: the verify phase, then the refute phase.
struct Pass {
    traced: bool,
    verify_s: f64,
    verify: Vec<Search>,
    /// Time of one repetition of the refute phase.
    refute_s: f64,
    /// `(serial, parallel)` refutation of each instance, for every
    /// repetition in turn.
    refute: Vec<(Search, Search)>,
}

/// An election search over `proto`.
fn election<P: Protocol>(proto: &P) -> Explorer<'_, P> {
    Explorer::new(proto).spec(TaskSpec::Election)
}

/// The 2-worker fingerprint variant of `ex`.
fn par<'p, P>(ex: &Explorer<'p, P>) -> Explorer<'p, P>
where
    P: Protocol + Sync,
    P::State: Hash + Eq + Send,
{
    ex.clone()
        .parallel(true)
        .workers(WORKERS)
        .dedup(DedupMode::Fingerprint)
}

/// A search of the hierarchy's candidate catalogue.
fn candidate<'p, P: Protocol>(proto: &'p P, inputs: &[Value], spec: TaskSpec) -> Explorer<'p, P> {
    Explorer::new(proto)
        .inputs(inputs)
        .spec(spec)
        .max_states(10_000_000)
}

fn pass(report: &mut Report, inst: &Instances, traced: bool) -> Pass {
    let t = Instant::now();
    let le = election(&inst.label);
    let cas = election(&inst.cas);
    let verify = vec![
        verify(
            report,
            "verify.label_3_5",
            Mode::SerialExact,
            &le,
            LABEL_STATES,
        ),
        verify(
            report,
            "verify.label_3_5",
            Mode::ParallelFp,
            &par(&le),
            LABEL_STATES,
        ),
        verify(
            report,
            "verify.label_3_5",
            Mode::Dpor,
            &le.clone().dpor(true),
            LABEL_DPOR_STATES,
        ),
        verify(
            report,
            "verify.cas_only_8_9",
            Mode::SerialExact,
            &cas,
            CAS_STATES,
        ),
        verify(
            report,
            "verify.cas_only_8_9",
            Mode::ParallelFp,
            &par(&cas),
            CAS_STATES,
        ),
        verify(
            report,
            "verify.cas_only_8_9",
            Mode::Dpor,
            &cas.clone().dpor(true),
            CAS_DPOR_STATES,
        ),
        verify(
            report,
            "verify.cas_only_8_9",
            Mode::Symmetric,
            &cas.clone().symmetric(true),
            CAS_STATES,
        ),
    ];
    let verify_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut out = Vec::new();
    for _ in 0..REFUTE_REPS {
        refute_phase(report, &le, &cas, &mut out);
    }
    Pass {
        traced,
        verify_s,
        verify,
        refute_s: t.elapsed().as_secs_f64() / REFUTE_REPS as f64,
        refute: out,
    }
}

/// Every refutation, serial and parallel, appended to `out`.
fn refute_phase(
    r: &mut Report,
    le: &Explorer<'_, LabelElection>,
    cas: &Explorer<'_, CasOnlyElection>,
    out: &mut Vec<(Search, Search)>,
) {
    let pids2 = [Value::Pid(0), Value::Pid(1)];
    let ints2 = [Value::Int(1), Value::Int(2)];
    let ints3 = [Value::Int(1), Value::Int(2), Value::Int(3)];
    let consensus3 = TaskSpec::Consensus(ints3.to_vec());
    use ViolationKind::{Agreement, NotWaitFree, StepBound, Validity};
    refute_both(
        r,
        out,
        "refute.rw_election",
        candidate(&RwElection, &pids2, TaskSpec::Election),
        Agreement,
    );
    refute_both(
        r,
        out,
        "refute.rw_consensus",
        candidate(&RwConsensus, &ints2, TaskSpec::Consensus(ints2.to_vec())),
        Agreement,
    );
    refute_both(
        r,
        out,
        "refute.tas_three",
        candidate(&TasThreeCandidate, &ints3, consensus3.clone()),
        NotWaitFree,
    );
    refute_both(
        r,
        out,
        "refute.tas_three_eager",
        candidate(&TasThreeEagerCandidate, &ints3, consensus3.clone()),
        Agreement,
    );
    refute_both(
        r,
        out,
        "refute.faa_three_eager",
        candidate(&FaaThreeEagerCandidate, &ints3, consensus3.clone()),
        Agreement,
    );
    refute_both(
        r,
        out,
        "refute.queue_three",
        candidate(&QueueThreeCandidate, &ints3, consensus3),
        Agreement,
    );
    // One step below the exact wait-freedom bound LabelElection(3,5)
    // takes (28), and any step bound for CasOnlyElection (it takes 2).
    refute_both(
        r,
        out,
        "refute.label_3_5_steps",
        le.clone().step_bound(27),
        StepBound,
    );
    refute_both(
        r,
        out,
        "refute.cas_only_8_9_steps",
        cas.clone().step_bound(1),
        StepBound,
    );
    // The wrong specification: consensus on a value nobody proposed.
    refute_both(
        r,
        out,
        "refute.label_3_5_spec",
        le.clone().spec(TaskSpec::Consensus(vec![Value::Int(7); 3])),
        Validity,
    );
    refute_both(
        r,
        out,
        "refute.cas_only_8_9_spec",
        cas.clone()
            .spec(TaskSpec::Consensus(vec![Value::Int(7); 8])),
        Validity,
    );
}

/// What a user of the model checker pays before the first verdict:
/// building the protocol instances, and a first (smallest) search.
fn set_up() -> bool {
    let inst = std::hint::black_box(instances());
    let first = CasOnlyElection::new(2, 3).expect("CasOnlyElection(2,3) exists");
    let verified = election(&first).run().outcome.is_verified();
    drop(inst);
    verified
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inst = instances();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    HARD_STOP.get_or_init(|| until + HARD_STOP_AFTER);
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    while Instant::now() < until || passes.len() < 2 {
        // Set-up is a few microseconds, so it is timed many times, in
        // batches spread over the run rather than all at its start.
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let verified = set_up();
            setup_s.push(t.elapsed().as_secs_f64());
            report.check(verified, || "CasOnlyElection(2,3) did not verify".into());
        }
        let traced = args.trace && passes.len() % 2 == 1;
        spans::set_enabled(traced);
        passes.push(pass(&mut report, &inst, traced));
        spans::set_enabled(false);
    }
    spans::set_enabled(args.trace);
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    summarize(&mut report, args, &passes);
    report
}

/// The verify searches of each pass.
fn verify_runs<'a>(passes: &[&'a Pass]) -> Vec<Vec<&'a Search>> {
    passes.iter().map(|p| p.verify.iter().collect()).collect()
}

/// The refute searches of each repetition of each pass.
fn refute_runs<'a>(passes: &[&'a Pass]) -> Vec<Vec<&'a Search>> {
    passes
        .iter()
        .flat_map(|p| p.refute.chunks(p.refute.len() / REFUTE_REPS))
        .map(|c| c.iter().flat_map(|(s, q)| [s, q]).collect())
        .collect()
}

/// The median time of each search (in run order) over `runs`, which
/// all hold the same searches.
fn per_search(runs: &[Vec<&Search>]) -> Vec<f64> {
    let n = runs.first().map_or(0, Vec::len);
    (0..n)
        .map(|j| median(&runs.iter().map(|r| r[j].secs).collect::<Vec<_>>()).unwrap_or(0.0))
        .collect()
}

/// Every search of a pass.
fn searches(p: &Pass) -> Vec<&Search> {
    p.verify
        .iter()
        .chain(p.refute.iter().flat_map(|(s, q)| [s, q]))
        .collect()
}

fn summarize(report: &mut Report, args: &Args, passes: &[Pass]) {
    let all: Vec<&Search> = passes.iter().flat_map(searches).collect();
    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|s| !s.decided).count() as u64;
    report.set(
        "ok_share",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
    );
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    // Each search's median time over the untraced passes: a pass slowed
    // by outside load moves no median on its own.
    let verify_medians = per_search(&verify_runs(&plain));
    report.set(
        "ops_per_s",
        ratio(verify_medians.len() as f64, verify_medians.iter().sum()),
    );
    let mut ttc: Vec<u64> = per_search(&refute_runs(&plain))
        .into_iter()
        .map(|s| (s * 1e9) as u64)
        .collect();
    ttc.sort_unstable();
    report.set("lat_p50_us", quantile(&ttc, 0.5).unwrap_or(0) as f64 / 1e3);
    report.set("lat_p90_us", quantile(&ttc, 0.9).unwrap_or(0) as f64 / 1e3);
    let plain_searches: Vec<&Search> = plain.iter().flat_map(|p| searches(p)).collect();
    let in_slo = plain_searches
        .iter()
        .filter(|s| s.decided && s.secs <= SEARCH_SLO.as_secs_f64())
        .count();
    report.set(
        "slo_share",
        ratio(in_slo as f64, plain_searches.len() as f64),
    );

    // Parallel counterexamples of another kind than the serial one.
    let mismatches = passes
        .iter()
        .flat_map(|p| &p.refute)
        .filter(|(s, q)| s.decided && q.decided && s.violation != q.violation)
        .inspect(|(s, q)| {
            eprintln!(
                "{}: serial found {:?}, parallel {:?}",
                s.name, s.violation, q.violation
            )
        })
        .count();
    if !args.trace {
        return;
    }
    report.set("sim.refute_kind_mismatch", mismatches as f64);
    let verify: Vec<&Search> = traced.iter().flat_map(|p| &p.verify).collect();
    for (search, metric) in [
        ("verify.label_3_5", "sim.states.label_election_3_5"),
        ("verify.cas_only_8_9", "sim.states.cas_only_election_8_9"),
    ] {
        if let Some(s) = verify
            .iter()
            .find(|s| s.name == search && s.mode == Mode::SerialExact)
        {
            report.set(metric, s.states as f64);
        }
    }
    let per_mode = |mode: Mode| {
        let (n, t) = verify
            .iter()
            .filter(|s| s.mode == mode)
            .fold((0.0, 0.0), |(n, t), s| (n + s.states as f64, t + s.secs));
        ratio(n, t)
    };
    report.set("sim.states_per_s.serial_exact", per_mode(Mode::SerialExact));
    report.set("sim.states_per_s.parallel_fp", per_mode(Mode::ParallelFp));
    report.set("sim.states_per_s.dpor", per_mode(Mode::Dpor));
    report.set("sim.states_per_s.symmetric", per_mode(Mode::Symmetric));
    let (hits, generated) = verify.iter().fold((0, 0), |(h, g), s| {
        (h + s.stats.dedup_hits, g + s.states + s.stats.dedup_hits)
    });
    report.set("sim.dedup_hit_share", ratio(hits as f64, generated as f64));
    let per_pass = |f: fn(&Search) -> f64| {
        med(traced
            .iter()
            .map(|p| p.verify.iter().map(f).sum::<f64>())
            .collect())
    };
    report.set("sim.steals", per_pass(|s| s.stats.steals as f64));
    report.set(
        "sim.shard_contention",
        per_pass(|s| s.stats.shard_contention as f64),
    );
    // Serial-exact time over the time of WORKERS parallel workers on
    // the same instances (the parallel runs also fingerprint).
    let secs = |mode: Mode| {
        verify
            .iter()
            .filter(|s| s.mode == mode)
            .map(|s| s.secs)
            .sum::<f64>()
    };
    report.set(
        "sim.parallel_efficiency",
        ratio(
            secs(Mode::SerialExact),
            WORKERS as f64 * secs(Mode::ParallelFp),
        ),
    );
    let states = |mode: Mode| {
        verify
            .iter()
            .filter(|s| s.mode == mode)
            .map(|s| s.states)
            .sum::<usize>()
    };
    report.set(
        "sim.dpor_cut",
        ratio(states(Mode::SerialExact) as f64, states(Mode::Dpor) as f64),
    );
    report.set(
        "sim.verify_s",
        med(traced.iter().map(|p| p.verify_s).collect()),
    );
    report.set(
        "sim.refute_s",
        med(traced.iter().map(|p| p.refute_s).collect()),
    );
    report.set(
        "sim.refute_states",
        med(traced
            .iter()
            .map(|p| {
                let states: usize = p.refute.iter().map(|(s, q)| s.states + q.states).sum();
                states as f64 / REFUTE_REPS as f64
            })
            .collect()),
    );
    let rate = |passes: &[&Pass]| {
        let t = per_search(&verify_runs(passes));
        ratio(t.len() as f64, t.iter().sum())
    };
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    report.set(
        "telemetry.trace_overhead_share",
        1.0 - ratio(traced_rate, plain_rate),
    );
}
