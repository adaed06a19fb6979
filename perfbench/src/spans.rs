//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(layer, name, start, end, parent)`; the parent is the
//! span open on the same thread when it began. Spans are recorded only
//! while tracing is switched on (the traced half of a `--trace 1` run)
//! and written out once, at the end, as a Chrome trace-event file with
//! a per-layer summary of span count, total and self time. The first
//! [`MAX_SPANS`] spans are kept; later ones are only counted.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bso_telemetry::json::Json;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer called (a module name of the program, or `loadgen`).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Recording thread's name.
    pub thread: String,
}

/// Spans kept per run; later ones are counted, not kept, so a long
/// traced run writes a file of bounded size.
const MAX_SPANS: usize = 50_000;

struct Recorder {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        origin: Instant::now(),
        on: AtomicBool::new(false),
        spans: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    })
}

thread_local! {
    /// Indices of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Switches recording on or off for every thread.
pub fn set_enabled(on: bool) {
    recorder().on.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

fn now_ns(r: &Recorder) -> u64 {
    u64::try_from(r.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` inside a span of `layer`. Costs one flag load when
/// recording is off.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let r = recorder();
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let idx = {
        let mut spans = r.spans.lock().expect("span recorder poisoned");
        if spans.len() >= MAX_SPANS {
            r.dropped.fetch_add(1, Ordering::Relaxed);
            drop(spans);
            return f();
        }
        spans.push(Span {
            layer,
            name,
            start_ns: now_ns(r),
            end_ns: 0,
            parent,
            thread: std::thread::current().name().unwrap_or("?").to_string(),
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    let end = now_ns(r);
    r.spans.lock().expect("span recorder poisoned")[idx].end_ns = end;
    out
}

/// Every span kept so far, and how many more were only counted.
pub fn take() -> (Vec<Span>, u64) {
    let r = recorder();
    let spans = std::mem::take(&mut *r.spans.lock().expect("span recorder poisoned"));
    (spans, r.dropped.swap(0, Ordering::Relaxed))
}

/// Per layer: `(spans, total ns, self ns)`, where a span's self time
/// is its duration minus the durations of its direct children.
pub fn layer_summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut self_ns: Vec<u64> = spans.iter().map(dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(dur(s));
        }
    }
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.layer).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur(s);
        e.2 += own;
    }
    out
}

/// Renders spans as a Chrome trace-event document (open it in
/// Perfetto) with a `layers` summary of the kept spans alongside.
pub fn render(spans: &[Span], dropped: u64) -> String {
    let mut tids: Vec<&str> = spans.iter().map(|s| s.thread.as_str()).collect();
    tids.sort_unstable();
    tids.dedup();
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let tid = tids.iter().position(|t| *t == s.thread).unwrap_or(0);
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::F64(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(tid as u64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::U64(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("thread", Json::str(&s.thread)),
                    ]),
                ),
            ])
        })
        .collect();
    let layers = layer_summary(spans)
        .into_iter()
        .map(|(layer, (n, total, own))| {
            (
                layer,
                Json::obj([
                    ("spans", Json::U64(n)),
                    ("total_ms", Json::F64(total as f64 / 1e6)),
                    ("self_ms", Json::F64(own as f64 / 1e6)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("layers", Json::obj(layers)),
        ("dropped_spans", Json::U64(dropped)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            thread: "t".into(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            s("client", 0, 100, None),
            s("wire", 10, 30, Some(0)),
            s("wire", 40, 50, Some(0)),
            s("objects", 12, 20, Some(1)),
        ];
        let sum = layer_summary(&spans);
        assert_eq!(sum["client"], (1, 100, 70));
        assert_eq!(sum["wire"], (2, 30, 22));
        assert_eq!(sum["objects"], (1, 8, 8));
        let doc = bso_telemetry::json::parse(&render(&spans, 0)).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(Json::len), Some(4));
    }
}
