//! The metrics the benchmark declares, and the one-line JSON result
//! every run ends with.
//!
//! Both tables must match `BENCHMARK.json` at the repository root (a
//! unit test checks it). Every workload reports every end-to-end
//! metric; a per-layer metric of a layer the workload never calls
//! reads 0.

use std::collections::BTreeMap;

use bso_telemetry::json::Json;

/// `(name, unit, better)` of every end-to-end metric, printed with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("lat_p50_us", "us", "lower"),
    ("lat_p90_us", "us", "lower"),
    ("slo_share", "share", "higher"),
    ("ok_share", "share", "higher"),
    ("setup_s", "s", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed with
/// `--trace 1`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("loadgen.lag_p99_us", "us", "lower"),
    ("loadgen.lag_samples", "count", "higher"),
    ("client.cpu_us_per_op", "us", "lower"),
    ("client.lat_p99_us", "us", "lower"),
    ("client.lat_p999_us", "us", "lower"),
    ("client.lat_samples", "count", "higher"),
    ("event_loop.cpu_us_per_op", "us", "lower"),
    ("event_loop.turns_per_kop", "count", "lower"),
    ("event_loop.flush_batch_mean", "count", "higher"),
    ("event_loop.turn_p50_ns", "ns", "lower"),
    ("event_loop.stalls", "count", "lower"),
    ("shard.busy_share", "share", "lower"),
    ("shard.queue_depth", "count", "lower"),
    ("shard.xq_wait_p50_ns", "ns", "lower"),
    ("shard.xq_wait_samples", "count", "higher"),
    ("objects.apply_p50_ns", "ns", "lower"),
    ("objects.spec_apply_ns", "ns", "lower"),
    ("wire.encode_ns_per_op", "ns", "lower"),
    ("wire.decode_ns_per_op", "ns", "lower"),
    ("wire.bytes_per_op", "bytes", "lower"),
    ("cluster.migrate_ms", "ms", "lower"),
    ("cluster.migration_window_max_us", "us", "lower"),
    ("cluster.redirects", "count", "lower"),
    ("cluster.refreshes", "count", "lower"),
    ("routing.wrong_shard", "count", "lower"),
    ("session.elect_us", "us", "lower"),
    ("sim.states.label_election_3_5", "count", "lower"),
    ("sim.states.cas_only_election_8_9", "count", "lower"),
    ("sim.states_per_s.serial_exact", "1/s", "higher"),
    ("sim.states_per_s.parallel_fp", "1/s", "higher"),
    ("sim.states_per_s.dpor", "1/s", "higher"),
    ("sim.states_per_s.symmetric", "1/s", "higher"),
    ("sim.dedup_hit_share", "share", "lower"),
    ("sim.steals", "count", "lower"),
    ("sim.shard_contention", "count", "lower"),
    ("sim.parallel_efficiency", "share", "higher"),
    ("sim.dpor_cut", "ratio", "higher"),
    ("sim.verify_s", "s", "lower"),
    ("sim.refute_s", "s", "lower"),
    ("sim.refute_states", "count", "lower"),
    ("sim.refute_kind_mismatch", "count", "lower"),
    ("telemetry.trace_overhead_share", "share", "lower"),
];

/// What a workload measured and checked; rendered as the run's last
/// line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
    /// Operations (or searches) the workload attempted.
    pub attempted: u64,
    /// Of those, the ones that failed (refused, errored, unanswered or
    /// without a verdict).
    pub failed: u64,
}

fn declared(name: &str) -> Option<&'static (&'static str, &'static str, &'static str)> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.0 == name)
}

impl Report {
    /// Records metric `name`, which must be declared in one of the
    /// tables above.
    ///
    /// # Panics
    ///
    /// On an undeclared name: that is a typo in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = declared(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(m.0, value);
    }

    /// Records a correctness check; a failed one fails the run, and
    /// `why` is printed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            let why = why();
            eprintln!("CHECK FAILED: {why}");
            self.problems.push(why);
        }
    }

    /// The result line: end-to-end metrics without tracing, per-layer
    /// metrics with it. A missing end-to-end metric or a non-finite
    /// value fails the run; a missing per-layer metric reads 0.
    pub fn render(&mut self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit, _) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems.push(format!("{name} is {v}"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push((
                name,
                Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))]),
            ));
        }
        for p in &self.problems {
            eprintln!("incorrect: {p}");
        }
        Json::obj([
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bso_telemetry::json;

    /// The tables here and `BENCHMARK.json` name the same metrics with
    /// the same units and directions, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = doc.get(key).and_then(Json::items).unwrap();
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, &(name, unit, better)) in items.iter().zip(table) {
                assert_eq!(item.get("name").and_then(Json::as_str), Some(name));
                assert_eq!(item.get("unit").and_then(Json::as_str), Some(unit));
                assert_eq!(item.get("better").and_then(Json::as_str), Some(better));
            }
        }
    }

    #[test]
    fn render_reports_every_declared_metric() {
        let mut r = Report::default();
        for &(name, _, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 10;
        r.failed = 1;
        let line = r.render(false);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = doc.get("metrics").and_then(Json::entries).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // Per-layer metrics default to 0; end-to-end ones must be set.
        assert!(Report::default().render(true).contains("\"correct\":true"));
        assert!(Report::default()
            .render(false)
            .contains("\"correct\":false"));
    }

    #[test]
    fn failed_check_fails_the_run() {
        let mut r = Report::default();
        for &(name, _, _) in END_TO_END {
            r.set(name, 1.0);
        }
        r.check(true, || unreachable!());
        r.check(false, || "ledger off by one".into());
        assert!(r.render(false).contains("\"correct\":false"));
    }
}
