//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a
//! [`Tracer::span`]: name, start, end, the span that was open on the same
//! thread when it began (its parent), and the run id the tracer was in.
//! Spans stay in a mutex-guarded vector and are written out once, as JSON
//! lines, when the run ends. A disabled tracer costs one branch per call
//! and records nothing, so the timed runs share the traced code paths.
//!
//! Parents come from a thread-local stack. That is sound for this
//! workload because a pool thread runs one cell at a time: a thread that
//! submits nested per-node work only helps with its own job while it
//! waits, so spans on one thread always nest.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u32,
    /// The span open on the same thread when this one began.
    pub parent: Option<u32>,
    /// Layer name, e.g. `local.rounds`.
    pub name: &'static str,
    /// Run id shared by every span of one set-up, iteration or probe.
    pub run: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work the call did, in the layer's own unit (edges, bytes, …).
    pub work: f64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a pass-through when not.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    run: AtomicU32,
    runs: Mutex<Vec<String>>,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<HashMap<(u32, &'static str), f64>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            run: AtomicU32::new(0),
            runs: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(HashMap::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id labelled `label` (e.g. `setup`, `iter`) and
    /// returns it; later spans carry it until the next call.
    pub fn begin_run(&self, label: &str) -> u32 {
        let mut runs = self.runs.lock().expect("trace runs lock");
        runs.push(label.to_string());
        let id = u32::try_from(runs.len() - 1).expect("run count fits u32");
        self.run.store(id, Ordering::Relaxed);
        id
    }

    /// Runs `f` inside a span called `name` with no work count.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_work(name, f, |_| 0.0)
    }

    /// Runs `f` inside a span called `name`; `work` derives the span's
    /// work count from the result once `f` has returned (outside the
    /// timed interval).
    pub fn span_work<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> f64,
    ) -> T {
        let parent = self.current();
        self.span_in(parent, name, f, work)
    }

    /// The span open on this thread, if any: the parent to hand to
    /// [`Tracer::span_in`] for work that runs on pool threads.
    #[must_use]
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|s| s.borrow().last().copied())
    }

    /// [`Tracer::span_work`] with an explicit parent, for spans opened on
    /// a pool thread on behalf of a span of the submitting thread.
    pub fn span_in<T>(
        &self,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> f64,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        let run = self.run.load(Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        OPEN.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            run,
            start_ns: u64::try_from(start.as_nanos()).unwrap_or(u64::MAX),
            end_ns: u64::try_from(end.as_nanos()).unwrap_or(u64::MAX),
            work: work(&out),
        };
        self.spans.lock().expect("trace spans lock").push(span);
        out
    }

    /// Adds `value` to the counter `name` of the current run (recorded
    /// only when enabled).
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            let run = self.run.load(Ordering::Relaxed);
            *self.counters.lock().expect("trace counters lock").entry((run, name)).or_default() +=
                value;
        }
    }

    /// The counter `name` of run `run` (0 if never counted).
    #[must_use]
    pub fn counter(&self, run: u32, name: &'static str) -> f64 {
        self.counters.lock().expect("trace counters lock").get(&(run, name)).copied().unwrap_or(0.0)
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("trace spans lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The label of every run id, indexed by id.
    #[must_use]
    pub fn run_labels(&self) -> Vec<String> {
        self.runs.lock().expect("trace runs lock").clone()
    }

    /// Writes every span as one JSON line (after a `header` line).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let labels = self.run_labels();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"run\":{},\"run_label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.id, s.name, s.run, labels[s.run as usize], s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

/// Per-run, per-layer totals derived from a span list.
#[derive(Debug, Default)]
pub struct Summary {
    /// `(run, name)` → Σ self seconds.
    self_s: HashMap<(u32, &'static str), f64>,
    /// `(run, name)` → Σ wall seconds.
    wall_s: HashMap<(u32, &'static str), f64>,
    /// `(run, name)` → Σ work.
    work: HashMap<(u32, &'static str), f64>,
}

impl Summary {
    /// Folds spans into per-run, per-layer totals. A span's self time is
    /// its duration minus the sum of its direct children's durations.
    /// That is the uncovered time when the children run one after another
    /// on the parent's thread, as every layer call inside a cell does.
    /// Cells run in parallel under `bench.engine`, whose self time
    /// therefore clamps at 0.
    #[must_use]
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_s: HashMap<u32, f64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_s.entry(p).or_default() += s.secs();
            }
        }
        let mut sum = Summary::default();
        for s in spans {
            let key = (s.run, s.name);
            let own = (s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            *sum.self_s.entry(key).or_default() += own;
            *sum.wall_s.entry(key).or_default() += s.secs();
            *sum.work.entry(key).or_default() += s.work;
        }
        sum
    }

    /// Σ self seconds of `name` in `run` (0 when the layer never ran).
    #[must_use]
    pub fn self_secs(&self, run: u32, name: &'static str) -> f64 {
        self.self_s.get(&(run, name)).copied().unwrap_or(0.0)
    }

    /// Σ wall seconds of `name` in `run`.
    #[must_use]
    pub fn wall_secs(&self, run: u32, name: &'static str) -> f64 {
        self.wall_s.get(&(run, name)).copied().unwrap_or(0.0)
    }

    /// Σ work of `name` in `run`.
    #[must_use]
    pub fn work(&self, run: u32, name: &'static str) -> f64 {
        self.work.get(&(run, name)).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let t = Tracer::new(true);
        let run = t.begin_run("iter");
        t.span("outer", || {
            t.span_work(
                "inner",
                || std::thread::sleep(std::time::Duration::from_millis(5)),
                |()| 7.0,
            );
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let sum = Summary::of(&spans);
        let total = sum.self_secs(run, "outer") + sum.self_secs(run, "inner");
        assert!((total - outer.secs()).abs() < 1e-9);
        assert!((sum.work(run, "inner") - 7.0).abs() < f64::EPSILON);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
