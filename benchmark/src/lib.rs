//! End-to-end benchmark of the LCL experiment system.
//!
//! Three workloads run through the entry points users call:
//!
//! * [`Workload::Landscape`] — Π₂ and sinkless orientation, the paper's
//!   own measurement ([`landscape`]);
//! * [`Workload::ScenarioGrid`] — `run_spec` over the generator zoo from a
//!   warm snapshot cache ([`scenario`]);
//! * [`Workload::HugeStore`] — `run_spec --shard` with cells above a
//!   lowered huge threshold running from sharded stores ([`scenario`]).
//!
//! A run repeats, for the requested seconds, a batch of set-ups from
//! scratch followed by a timed pass over every cell, and reports medians.
//! Interleaving the set-ups with the passes makes both medians sample the
//! same stretch of machine time. Every pass's rows are hashed; the digest
//! must match the recorded value for the seed when there is one, and
//! every other pass of the run. A traced run (`--trace 1`) adds, after
//! each timed pass, a pass composed from the layers' public calls with
//! the tracer off and the same pass inside [`trace::Tracer`] spans, and
//! reports per-layer metrics ([`metrics::LAYER_METRICS`]).

pub mod digest;
pub mod landscape;
pub mod metrics;
pub mod scenario;
pub mod sys;
pub mod trace;

use lcl_bench::{CliOpts, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Before each pass the run sets up from scratch, again and again until
/// the batch has taken this many seconds (at least once); the pass uses
/// the last set-up, and `setup_s` is the median over every set-up.
pub const SETUP_BATCH_SECONDS: f64 = 0.4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Π₂ det/rand and sinkless det/rand cells.
    Landscape,
    /// The generator zoo through `run_spec`.
    ScenarioGrid,
    /// Store-backed huge cells next to small cells through `run_spec`.
    HugeStore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Landscape, Workload::ScenarioGrid, Workload::HugeStore];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Landscape => "landscape",
            Workload::ScenarioGrid => "scenario-grid",
            Workload::HugeStore => "huge-store",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes: the benchmark's own, or tiny ones for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// Seconds-scale sizes for the benchmark's own tests.
    Tiny,
}

/// The `k` cell seeds workload seed `seed` expands to: `k·seed … k·seed +
/// k − 1`. Instances derive from these alone.
#[must_use]
pub fn cell_seeds(seed: u64, k: u64) -> Vec<u64> {
    (0..k).map(|i| seed.wrapping_mul(k).wrapping_add(i)).collect()
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
    /// Scratch directory of this run (created, then removed).
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
}

/// Predicted against measured per-cell milliseconds of a scheduled pass.
#[derive(Clone, Debug)]
pub struct SchedCheck {
    /// The plan's per-cell predictions.
    pub predicted_ms: Vec<f64>,
    /// Measured per-cell wall time.
    pub actual_ms: Vec<f64>,
}

/// One pass over every cell of a workload.
#[derive(Debug)]
pub struct Pass {
    /// The rows, in canonical cell order.
    pub report: Report,
    /// Cells attempted.
    pub cells: usize,
    /// One line per failed cell.
    pub failures: Vec<String>,
    /// Instances the pass had to build (must be 0: set-up built them).
    pub cache_misses: usize,
    /// The schedule's predictions, when the pass planned one in view.
    pub sched: Option<SchedCheck>,
}

/// A workload as [`run`] drives it: set-ups, passes, checks.
pub trait Bench {
    /// What set-up leaves for the passes.
    type Prepared;
    /// The workload's effective configuration, as JSON object members.
    fn describe(&self) -> String;
    /// Prepares every instance under `dir` (empty on entry).
    ///
    /// # Errors
    ///
    /// Any instance that cannot be prepared.
    fn setup(&self, t: &Tracer, dir: &Path) -> Result<Self::Prepared, String>;
    /// One timed pass through the user entry points, persisted under `out`.
    ///
    /// # Errors
    ///
    /// A failure that stops the whole pass (not a failed cell).
    fn pass(&self, p: &Self::Prepared, out: &Path) -> Result<Pass, String>;
    /// One pass composed from the layers' public calls, each in a span.
    ///
    /// # Errors
    ///
    /// As [`Bench::pass`].
    fn traced_pass(&self, p: &Self::Prepared, t: &Tracer, out: &Path) -> Result<Pass, String>;
    /// Extra traced measurements outside the passes.
    fn probe(&self, _p: &Self::Prepared, _t: &Tracer) {}
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Cells attempted over all passes.
    pub attempted: u64,
    /// Cells failed over all passes.
    pub failed: u64,
    /// The metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: configuration, checks, extra figures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line the benchmark prints last.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs `f`, turning a panic into an error so that one bad cell fails one
/// cell instead of the pool.
pub(crate) fn run_guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// `Report::persist` in a `report.store.persist` span (work: bytes
/// written).
pub(crate) fn persist(
    t: &Tracer,
    report: &Report,
    experiment: &str,
    opts: &CliOpts,
) -> Result<(), String> {
    t.span_work(
        "report.store.persist",
        || report.persist(experiment, opts),
        |dir| dir.as_ref().map_or(0.0, |d| sys::dir_bytes(d, "jsonl").0 as f64),
    )
    .map(|_| ())
    .map_err(|e| format!("persist: {e}"))
}

/// Runs one workload per `cfg` and returns its result. The work
/// directory is removed afterwards, whatever happened.
///
/// # Errors
///
/// A set-up or pass that could not run at all.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let out = match cfg.workload {
        Workload::Landscape => drive(&landscape::Landscape::new(cfg.scale, cfg.seed), cfg),
        Workload::ScenarioGrid => drive(&scenario::ScenarioBench::grid(cfg.scale, cfg.seed), cfg),
        Workload::HugeStore => drive(&scenario::ScenarioBench::huge(cfg.scale, cfg.seed), cfg),
    };
    std::fs::remove_dir_all(&cfg.work_dir).ok();
    out
}

/// Tallies passes: attempted and failed cells, and the checks on each
/// pass's output. A pass whose rows digest differs from the expected one
/// fails every cell it ran.
#[derive(Debug)]
pub struct PassCheck {
    expected: Option<u64>,
    recorded: bool,
    /// Cells attempted so far.
    pub attempted: u64,
    /// Cells failed so far.
    pub failed: u64,
    /// No check has failed yet.
    pub correct: bool,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl PassCheck {
    /// A tally expecting the recorded digest `recorded`, or, without one,
    /// the first pass's digest.
    #[must_use]
    pub fn new(recorded: Option<u64>) -> Self {
        PassCheck {
            expected: recorded,
            recorded: recorded.is_some(),
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
        }
    }

    /// Checks one pass (`what` names it in notes).
    pub fn check(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.cells as u64;
        let got = digest::rows_digest(&pass.report);
        let expected = *self.expected.get_or_insert(got);
        if got != expected {
            self.failed += pass.cells as u64;
            self.correct = false;
            self.notes.push(format!(
                "{what}: rows digest {got:016x} != {} {expected:016x}",
                if self.recorded { "recorded" } else { "first pass" }
            ));
            return;
        }
        self.failed += pass.failures.len() as u64;
        for f in &pass.failures {
            self.correct = false;
            self.notes.push(format!("{what}: cell failed: {f}"));
        }
        if pass.cache_misses > 0 {
            self.correct = false;
            self.notes
                .push(format!("{what}: {} snapshot-cache misses after set-up", pass.cache_misses));
        }
    }
}

/// One set-up: what it left for the passes, and its scratch directory.
struct Setup<P> {
    prepared: P,
    dir: PathBuf,
}

fn drive<B: Bench>(b: &B, cfg: &Config) -> Result<Outcome, String> {
    let tracer = Tracer::new(cfg.trace);
    let untraced = Tracer::new(false);
    let pool_width = lcl_bench::pool_width();
    let (rev, src) = sys::provenance(Path::new("."));
    let config = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"scale\":\"{:?}\",\"trace\":{},\"seconds\":{},\"pool_width\":{pool_width},\"git_rev\":\"{rev}\",\"src_hash\":\"{src}\",{}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
        cfg.trace,
        cfg.seconds,
        b.describe()
    );

    let mut setup_s: Vec<f64> = Vec::new();
    // Peak RSS of the first set-up, the only one that starts from a fresh
    // process: later set-ups start with the heap the passes left.
    let mut setup_rss = 0.0;
    let mut setup_runs = Vec::new();
    let mut current: Option<Setup<B::Prepared>> = None;
    let mut checker = PassCheck::new(digest::recorded(cfg.workload, cfg.seed, cfg.scale));
    let mut run_s = Vec::new();
    let mut cpu_s = Vec::new();
    let mut pass_rss = Vec::new();
    // Traced runs: per iteration, the composed pass with the tracer off
    // and the same pass traced.
    let mut composed_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut pass_runs = Vec::new();
    let mut sched = Vec::new();
    let started = Instant::now();
    let mut k = 0;
    while k == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let batch = Instant::now();
        loop {
            // Only one set-up is held at a time, so each one's peak RSS is
            // its own.
            if let Some(old) = current.take() {
                drop(old.prepared);
                std::fs::remove_dir_all(&old.dir).ok();
            }
            let dir = cfg.work_dir.join(format!("setup{}", setup_s.len()));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            setup_runs.push(tracer.begin_run("setup"));
            sys::reset_peak_rss();
            let start = Instant::now();
            let prepared = b.setup(&tracer, &dir)?;
            if setup_s.is_empty() {
                setup_rss = sys::peak_rss_mb();
            }
            setup_s.push(start.elapsed().as_secs_f64());
            current = Some(Setup { prepared, dir });
            if batch.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS {
                break;
            }
        }
        let p = &current.as_ref().expect("a set-up ran").prepared;

        let out = cfg.work_dir.join(format!("runs{k}"));
        sys::reset_peak_rss();
        let (cpu0, t0) = (sys::cpu_secs(), Instant::now());
        let pass = b.pass(p, &out)?;
        run_s.push(t0.elapsed().as_secs_f64());
        cpu_s.push(sys::cpu_secs() - cpu0);
        pass_rss.push(sys::peak_rss_mb());
        std::fs::remove_dir_all(&out).ok();
        checker.check(&format!("pass {k}"), &pass);
        if cfg.trace {
            let out = cfg.work_dir.join(format!("composed{k}"));
            let t0 = Instant::now();
            let pass = b.traced_pass(p, &untraced, &out)?;
            composed_s.push(t0.elapsed().as_secs_f64());
            std::fs::remove_dir_all(&out).ok();
            checker.check(&format!("composed pass {k}"), &pass);

            let out = cfg.work_dir.join(format!("traced{k}"));
            pass_runs.push(tracer.begin_run("pass"));
            let t0 = Instant::now();
            let pass = tracer.span("bench.pass", || b.traced_pass(p, &tracer, &out))?;
            traced_s.push(t0.elapsed().as_secs_f64());
            std::fs::remove_dir_all(&out).ok();
            checker.check(&format!("traced pass {k}"), &pass);
            if let Some(s) = pass.sched {
                sched.push(s);
            }
        }
        k += 1;
    }
    let current = current.expect("a set-up ran");
    let probe_run = cfg.trace.then(|| {
        let run = tracer.begin_run("probe");
        b.probe(&current.prepared, &tracer);
        run
    });
    drop(current);
    // The first set-up's peak, or a pass's taken as its median over the
    // run, whichever is larger: a single lifetime maximum would depend on
    // how allocations of concurrent cells happened to interleave in the
    // worst pass.
    let peak = setup_rss.max(sys::median(&pass_rss));

    let mut notes = vec![format!("config {config}")];
    let digest_note = match (checker.recorded, checker.expected) {
        (true, Some(d)) => format!("rows digest {d:016x} matches the recorded value in {k} passes"),
        (_, Some(d)) => format!(
            "rows digest {d:016x} (no recorded value for this seed; checked equal across passes)"
        ),
        _ => "no passes".to_string(),
    };
    notes.push(digest_note);
    notes.append(&mut checker.notes);
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    notes.push(format!(
        "failed_frac {failed_frac} (fraction of {} attempted cells)",
        checker.attempted
    ));

    let metrics = if cfg.trace {
        notes.push(format!(
            "composed pass with the tracer off minus the timed pass: {} s (median)",
            sys::median(&composed_s) - sys::median(&run_s)
        ));
        let runs = metrics::Runs { setup: setup_runs, pass: pass_runs, probe: probe_run };
        let overhead: Vec<f64> = traced_s.iter().zip(&composed_s).map(|(t, c)| t - c).collect();
        let m = metrics::per_layer(
            &tracer,
            &runs,
            &metrics::Derived { trace_overhead_s: sys::median(&overhead), sched },
        );
        let header = format!("{{\"trace\":{config}}}");
        tracer
            .write_jsonl(&cfg.trace_file, &header)
            .map_err(|e| format!("{}: {e}", cfg.trace_file.display()))?;
        notes.push(format!("spans written to {}", cfg.trace_file.display()));
        m
    } else {
        vec![
            Metric { name: "run_s".into(), value: sys::median(&run_s), unit: "s" },
            Metric { name: "setup_s".into(), value: sys::median(&setup_s), unit: "s" },
            Metric { name: "cpu_s".into(), value: sys::median(&cpu_s), unit: "s" },
            Metric { name: "peak_rss_mb".into(), value: peak, unit: "MB" },
        ]
    };
    notes.push(format!(
        "passes {k}; set-ups {}; run_s samples {run_s:?}; setup_s samples {setup_s:?}",
        setup_s.len()
    ));
    notes.push(format!(
        "peak RSS MiB: first set-up {setup_rss}; pass median {} (samples {pass_rss:?})",
        sys::median(&pass_rss)
    ));
    Ok(Outcome {
        correct: checker.correct,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
    })
}
