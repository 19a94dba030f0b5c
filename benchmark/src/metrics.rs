//! The metrics a run prints: the end-to-end ones of a timed run, and the
//! per-layer ones a traced run derives from its spans and counters.
//!
//! Per-layer values are medians over the runs of one phase: the set-ups,
//! the traced passes, or the probe. Within a run, a layer's busy time is
//! the sum of its spans' self times (summed across pool threads, so it
//! can exceed wall time), and a rate is the layer's work divided by that
//! busy time. A layer a workload never calls reads 0.

use crate::sys::median;
use crate::trace::{Summary, Tracer};
use crate::{Metric, SchedCheck};

/// End-to-end metrics of a timed run (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] =
    [("run_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Which runs a per-layer metric is taken over.
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    /// The set-up repetitions.
    Setup,
    /// The traced passes.
    Pass,
    /// The probe after the passes.
    Probe,
}

/// How a per-layer metric folds one run's spans or counters.
#[derive(Clone, Copy, Debug)]
pub enum Fold {
    /// Σ self seconds of the named spans.
    Busy(&'static str),
    /// Σ work of the named spans.
    Work(&'static str),
    /// Σ work / Σ self seconds of the named spans.
    Rate(&'static str),
    /// A counter.
    Counter(&'static str),
}

/// Per-layer metrics folded straight from spans and counters: name, unit,
/// phase, fold.
pub const LAYER_METRICS: [(&str, &str, Phase, Fold); 35] = [
    ("graph.gen.busy_s", "s", Phase::Setup, Fold::Busy("graph.gen")),
    ("graph.gen.edges_per_s", "1/s", Phase::Setup, Fold::Rate("graph.gen")),
    ("graph.shard_store.write_s", "s", Phase::Setup, Fold::Busy("graph.shard_store.write")),
    ("graph.shard_store.bytes", "bytes", Phase::Setup, Fold::Work("graph.shard_store.write")),
    (
        "graph.shard_store.bytes_per_s",
        "bytes/s",
        Phase::Setup,
        Fold::Rate("graph.shard_store.write"),
    ),
    (
        "graph.shard_store.shard_files",
        "count",
        Phase::Setup,
        Fold::Counter("graph.shard_store.shard_files"),
    ),
    ("graph.snapshot.write_s", "s", Phase::Setup, Fold::Busy("graph.snapshot.write")),
    ("graph.snapshot.load_s", "s", Phase::Pass, Fold::Busy("graph.snapshot.load")),
    ("graph.snapshot.load_bytes_per_s", "bytes/s", Phase::Pass, Fold::Rate("graph.snapshot.load")),
    ("scenario.cache.hits", "count", Phase::Pass, Fold::Counter("scenario.cache.hits")),
    ("scenario.cache.misses", "count", Phase::Pass, Fold::Counter("scenario.cache.misses")),
    ("local.network.busy_s", "s", Phase::Pass, Fold::Busy("local.network")),
    ("local.rounds.busy_s", "s", Phase::Pass, Fold::Busy("local.rounds")),
    ("local.rounds.node_rounds", "count", Phase::Pass, Fold::Work("local.rounds")),
    ("local.rounds.node_rounds_per_s", "1/s", Phase::Pass, Fold::Rate("local.rounds")),
    ("local.views.busy_s", "s", Phase::Pass, Fold::Busy("local.views")),
    ("local.views.node_rounds_per_s", "1/s", Phase::Pass, Fold::Rate("local.views")),
    ("algos.sinkless_det.busy_s", "s", Phase::Pass, Fold::Busy("algos.sinkless_det")),
    ("algos.sinkless_det.edges_per_s", "1/s", Phase::Pass, Fold::Rate("algos.sinkless_det")),
    ("algos.sinkless_rand.busy_s", "s", Phase::Pass, Fold::Busy("algos.sinkless_rand")),
    ("gadget.verifier.busy_s", "s", Phase::Probe, Fold::Busy("gadget.verifier")),
    ("gadget.verifier.nodes_per_s", "1/s", Phase::Probe, Fold::Rate("gadget.verifier")),
    ("padding.hard.busy_s", "s", Phase::Setup, Fold::Busy("padding.hard")),
    ("padding.solver.det_s", "s", Phase::Pass, Fold::Busy("padding.solver.det")),
    ("padding.solver.rand_s", "s", Phase::Pass, Fold::Busy("padding.solver.rand")),
    ("padding.solver.physical_rounds_det", "count", Phase::Pass, Fold::Work("padding.solver.det")),
    (
        "padding.solver.physical_rounds_rand",
        "count",
        Phase::Pass,
        Fold::Work("padding.solver.rand"),
    ),
    ("padding.lifted.check_s", "s", Phase::Pass, Fold::Busy("padding.lifted.check")),
    ("certify.busy_s", "s", Phase::Pass, Fold::Busy("certify")),
    ("certify.edges_per_s", "1/s", Phase::Pass, Fold::Rate("certify")),
    ("bench.sched.plan_s", "s", Phase::Pass, Fold::Busy("bench.sched.plan")),
    ("bench.engine.cells", "count", Phase::Pass, Fold::Counter("bench.engine.cells")),
    ("bench.engine.failed", "count", Phase::Pass, Fold::Counter("bench.engine.failed")),
    ("report.store.persist_s", "s", Phase::Pass, Fold::Busy("report.store.persist")),
    ("report.store.bytes", "bytes", Phase::Pass, Fold::Work("report.store.persist")),
];

/// Per-layer metrics computed from more than one layer's spans, with
/// units.
pub const DERIVED_METRICS: [(&str, &str); 4] = [
    ("bench.sched.pred_err", "ratio"),
    ("bench.engine.busy_frac", "ratio"),
    ("bench.trace.overhead_s", "s"),
    ("bench.trace.unattributed_frac", "ratio"),
];

/// The run ids of each phase.
#[derive(Clone, Debug, Default)]
pub struct Runs {
    /// Set-up repetitions.
    pub setup: Vec<u32>,
    /// Traced passes.
    pub pass: Vec<u32>,
    /// The probe, if one ran.
    pub probe: Option<u32>,
}

/// Inputs of [`DERIVED_METRICS`] that do not come from spans.
#[derive(Clone, Debug)]
pub struct Derived {
    /// Median over iterations of the traced pass's wall time minus that of
    /// the same composed pass with the tracer off.
    pub trace_overhead_s: f64,
    /// Each scheduled traced pass's predictions and measurements.
    pub sched: Vec<SchedCheck>,
}

/// Every per-layer metric of a traced run.
#[must_use]
pub fn per_layer(t: &Tracer, runs: &Runs, d: &Derived) -> Vec<Metric> {
    let sum = Summary::of(&t.spans());
    let mut out = Vec::with_capacity(LAYER_METRICS.len() + DERIVED_METRICS.len());
    for (name, unit, phase, fold) in LAYER_METRICS {
        let ids: Vec<u32> = match phase {
            Phase::Setup => runs.setup.clone(),
            Phase::Pass => runs.pass.clone(),
            Phase::Probe => runs.probe.into_iter().collect(),
        };
        let per_run: Vec<f64> = ids
            .iter()
            .map(|&r| match fold {
                Fold::Busy(s) => sum.self_secs(r, s),
                Fold::Work(s) => sum.work(r, s),
                Fold::Rate(s) => {
                    let busy = sum.self_secs(r, s);
                    if busy > 0.0 {
                        sum.work(r, s) / busy
                    } else {
                        0.0
                    }
                }
                Fold::Counter(c) => t.counter(r, c),
            })
            .collect();
        out.push(Metric { name: name.into(), value: median(&per_run), unit });
    }

    // Median over cells of |predicted − actual| / actual, per pass.
    let pred_err: Vec<f64> = d
        .sched
        .iter()
        .map(|s| {
            let errs: Vec<f64> = s
                .predicted_ms
                .iter()
                .zip(&s.actual_ms)
                .filter(|(_, &a)| a > 0.0)
                .map(|(&p, &a)| (p - a).abs() / a)
                .collect();
            median(&errs)
        })
        .collect();
    // Σ cell time / (workers × pass wall time), per pass.
    let busy_frac: Vec<f64> = runs
        .pass
        .iter()
        .map(|&r| {
            let wall = sum.wall_secs(r, "bench.pass");
            if wall > 0.0 {
                sum.wall_secs(r, "bench.cell") / (lcl_bench::pool_width() as f64 * wall)
            } else {
                0.0
            }
        })
        .collect();
    // Share of cell time no layer span covers: the cells' own self time.
    let unattributed: Vec<f64> = runs
        .pass
        .iter()
        .map(|&r| {
            let cells = sum.wall_secs(r, "bench.cell");
            if cells > 0.0 {
                sum.self_secs(r, "bench.cell") / cells
            } else {
                0.0
            }
        })
        .collect();
    let values = [median(&pred_err), median(&busy_frac), d.trace_overhead_s, median(&unattributed)];
    for ((name, unit), value) in DERIVED_METRICS.into_iter().zip(values) {
        out.push(Metric { name: name.into(), value, unit });
    }
    out
}
