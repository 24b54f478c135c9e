//! Traced runs: an in-memory span recorder installed as the telemetry
//! sink, and the per-layer self-time roll-up computed from it.
//!
//! The recorder keeps one aggregate per span path (count, total and self
//! time), where a span's self time is its duration minus the time its
//! child spans on the same thread cover. Everything it sees is also
//! forwarded to a Chrome trace-event sink writing to nowhere, so a
//! traced run pays the same event-formatting cost as
//! `RHB_TELEMETRY=trace` without writing a trace file.

use rhb_telemetry::{Sink, TraceSink, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The layers (crates) the benchmark attributes time to.
pub const LAYERS: [&str; 6] = ["nn", "core", "models", "dram", "par", "serve"];

#[derive(Debug, Default, Clone, Copy)]
struct PathStat {
    count: u64,
    total: Duration,
    self_time: Duration,
}

struct Open {
    start: Instant,
    children: Duration,
}

#[derive(Default)]
struct State {
    open: HashMap<ThreadId, Vec<Open>>,
    paths: BTreeMap<String, PathStat>,
    observations: BTreeMap<String, (u64, f64)>,
}

/// Span and histogram recorder; see the module docs.
pub struct Recorder {
    state: Mutex<State>,
    trace: TraceSink,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            state: Mutex::new(State::default()),
            trace: TraceSink::to_writer(Box::new(std::io::sink())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Sink for Recorder {
    fn span_start(&self, path: &str, depth: usize, fields: &[(&'static str, Value)]) {
        self.trace.span_start(path, depth, fields);
        let id = std::thread::current().id();
        self.lock().open.entry(id).or_default().push(Open {
            start: Instant::now(),
            children: Duration::ZERO,
        });
    }

    fn span_end(&self, path: &str, depth: usize, elapsed: Duration) {
        self.trace.span_end(path, depth, elapsed);
        let id = std::thread::current().id();
        let mut state = self.lock();
        let stack = state.open.entry(id).or_default();
        let Some(open) = stack.pop() else { return };
        let total = open.start.elapsed();
        if let Some(parent) = stack.last_mut() {
            parent.children += total;
        }
        let stat = state.paths.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total += total;
        stat.self_time += total.saturating_sub(open.children);
    }

    fn counter(&self, name: &str, delta: u64, total: u64) {
        self.trace.counter(name, delta, total);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.trace.gauge(name, value);
    }

    fn observation(&self, name: &str, value: f64) {
        self.trace.observation(name, value);
        let mut state = self.lock();
        let entry = state.observations.entry(name.to_string()).or_default();
        entry.0 += 1;
        entry.1 += value;
    }

    fn event(&self, path: &str, name: &str, fields: &[(&'static str, Value)]) {
        self.trace.event(path, name, fields);
    }

    fn message(&self, text: &str) {
        self.trace.message(text);
    }
}

/// What one traced section recorded.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    paths: BTreeMap<String, PathStat>,
    observations: BTreeMap<String, (u64, f64)>,
    counters: BTreeMap<String, u64>,
}

impl Capture {
    /// Total of a program counter, `0` when it never moved.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the counters whose names start with `prefix` and end with
    /// `suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Sample count and sum of a histogram.
    pub fn observed(&self, name: &str) -> (u64, f64) {
        self.observations.get(name).copied().unwrap_or((0, 0.0))
    }

    /// Self time per layer, in seconds, keyed by [`LAYERS`] entries
    /// (`par` excluded: the pool has no spans, see [`layer_of`]).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (path, stat) in &self.paths {
            if let Some(layer) = layer_of(path) {
                *out.get_mut(layer).expect("known layer") += stat.self_time.as_secs_f64();
            }
        }
        out
    }
}

/// The layer a span belongs to, from the last segment of its path.
///
/// Benchmark spans are named `<layer>.<call>` after the crate whose
/// public function they wrap. Program spans are mapped by name: the
/// attack pipeline's phases belong to `core`, templating and the online
/// phases to `dram`, training and evaluation loops to `models`,
/// `nn/deploy` to `nn`, and `serve/batch` to `serve`.
pub fn layer_of(path: &str) -> Option<&'static str> {
    let last = path.rsplit('/').next().unwrap_or(path);
    if let Some((layer, _)) = last.split_once('.') {
        return LAYERS.iter().copied().find(|l| *l == layer);
    }
    match last {
        "pipeline" | "offline" | "cft" | "evaluation" => Some("core"),
        "templating" | "matching" | "placement" | "hammering" | "recovery" => Some("dram"),
        "train" | "epoch" | "evaluate" => Some("models"),
        "deploy" => Some("nn"),
        "batch" => Some("serve"),
        _ => None,
    }
}

/// Runs `f` with telemetry collecting into a fresh [`Recorder`] and
/// returns its result with the capture. Telemetry is off again after.
///
/// Counters are taken as the difference of the registry's totals around
/// `f`: the pool's per-worker busy/idle counters are handles that keep
/// counting while collection is off and would be orphaned by a reset.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Capture) {
    let before: BTreeMap<String, u64> = rhb_telemetry::report().counters.into_iter().collect();
    let recorder = Arc::new(Recorder::new());
    rhb_telemetry::install(recorder.clone());
    let out = f();
    rhb_telemetry::shutdown();
    let counters = rhb_telemetry::report()
        .counters
        .into_iter()
        .map(|(k, v)| {
            let delta = v.saturating_sub(before.get(&k).copied().unwrap_or(0));
            (k, delta)
        })
        .collect();
    let state = std::mem::take(&mut *recorder.lock());
    let capture = Capture {
        paths: state.paths,
        observations: state.observations,
        counters,
    };
    (out, capture)
}

/// Opens a benchmark span (a no-op while telemetry is off).
pub fn span(name: &'static str) -> rhb_telemetry::SpanGuard<'static> {
    rhb_telemetry::start_span(name, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let ((), capture) = traced(|| {
            let _outer = span("core.outer");
            std::thread::sleep(Duration::from_millis(20));
            let _inner = span("dram.inner");
            std::thread::sleep(Duration::from_millis(20));
        });
        let selfs = capture.self_seconds();
        assert!(selfs["core"] >= 0.015 && selfs["core"] < 0.035, "{selfs:?}");
        assert!(selfs["dram"] >= 0.015, "{selfs:?}");
    }

    #[test]
    fn program_spans_map_to_layers() {
        assert_eq!(layer_of("pipeline/offline/cft"), Some("core"));
        assert_eq!(layer_of("pipeline/matching"), Some("dram"));
        assert_eq!(layer_of("train/epoch"), Some("models"));
        assert_eq!(layer_of("serve/batch"), Some("serve"));
        assert_eq!(layer_of("core.attack/pipeline"), Some("core"));
        assert_eq!(layer_of("unknown"), None);
    }
}
