//! Scenario execution: spec → grid → [`lcl_bench::BatchRunner`] → rows.
//!
//! A scenario run is the same deterministic pipeline every experiment
//! binary uses — independent `(family, n, seed)` cells fanned across the
//! worker pool, per-node work threaded through the cell's
//! [`lcl_local::NodeExecutor`] — so a pooled run's report and persisted
//! `rows.jsonl` are byte-identical to a `--seq` run's (gated in CI).
//!
//! Pooled runs are placed by the cost-model grid scheduler by default
//! (`lcl_bench::sched`): per-item costs predicted from persisted timing
//! history (static degree-weighted estimates when there is none) drive a
//! makespan-balanced worker assignment, dispatched through
//! `BatchRunner::try_run_parts` — a whole cell is one item, a store-backed
//! cell one item per shard — and output bytes are unaffected because
//! rows are stitched back in canonical cell order. Every run, scheduled
//! or not, records per-cell wall clock into the manifest meta
//! (`cell_ms:<family>:<n>:<seed>`), which is exactly the history the next
//! run's model trains on; scheduled runs additionally record
//! `predicted_ms:`/`actual_ms:` pairs so `results show` can report how
//! wrong the model was. `--no-sched` restores chunked claiming,
//! `--sched` forces planning even under `--seq` (the plan is still
//! executed on one thread, but predictions land in the manifest).

use crate::cache::SnapshotCache;
use crate::spec::{AlgoSpec, FamilySpec, ScenarioSpec};
use lcl_bench::{
    build_schedule, grid, predict_costs, BatchRunner, Cell, CliOpts, CostModel, EngineExec, Report,
    Row, Schedule,
};
use lcl_core::problems::{MatchingLabel, MisLabel};
use lcl_graph::ShardedSnapshot;
use lcl_local::{assigned_ids, IdAssignment, Network};
use lcl_report::{bench_history, cost_history, RunStore};
use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Experiment id stamped on every scenario row (the run-store directory
/// carries the scenario name: `scenario-<name>`).
pub const EXPERIMENT_ID: &str = "SCN";

/// One grid cell that produced no rows: which `(family, n, seed)` point
/// failed and why — a generator refusal, a typed algorithm error, or (with
/// `--certify`) a certifier violation. Surfaced per cell instead of
/// panicking the shared worker pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// Family slug of the failing cell.
    pub family: String,
    /// Instance size of the failing cell.
    pub n: usize,
    /// Run seed of the failing cell.
    pub seed: u64,
    /// Human-readable cause.
    pub detail: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at n={} seed={}: {}", self.family, self.n, self.seed, self.detail)
    }
}

/// How cells are measured, beyond the executor: the switches `run_spec`
/// derives from the CLI surface (`--certify`, `--shard`,
/// `--snapshot-dir` / `LCL_SNAPSHOT_DIR`, `LCL_HUGE_THRESHOLD`).
#[derive(Debug)]
pub struct MeasureOpts {
    /// Re-check every algorithm output with the independent `lcl_certify`
    /// checkers before accepting its row.
    pub certify: bool,
    /// Route the round-engine algorithms (Luby, matching) through
    /// component-sharded execution ([`lcl_local::run_rounds_sharded_with`]):
    /// the worker pool claims whole components, with bit-identical rows.
    /// View-engine algorithms (Linial) are unaffected.
    pub shard: bool,
    /// Frozen-snapshot cache for built instances, if enabled.
    pub snapshots: Option<SnapshotCache>,
    /// Cells with `n` above this run **store-backed** when `shard` and
    /// `snapshots` are both on: the instance streams into (or loads from)
    /// a per-component sharded snapshot, each shard runs as its own
    /// schedulable work item, and only one shard's bytes are mapped per
    /// worker at a time. Rows stay byte-identical to the in-memory path.
    pub huge_threshold: usize,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        // 2^20 nodes: comfortably in-memory below, streaming territory
        // above (a derived 0 would silently route *every* cell through
        // the store).
        MeasureOpts { certify: false, shard: false, snapshots: None, huge_threshold: 1 << 20 }
    }
}

impl MeasureOpts {
    /// Derives the measurement switches from parsed CLI options:
    /// `--certify`, `--shard`, and `--snapshot-dir DIR` (falling back to
    /// the `LCL_SNAPSHOT_DIR` environment variable); the store cut-over
    /// size comes from `LCL_HUGE_THRESHOLD` (default `2^20`).
    ///
    /// # Panics
    ///
    /// Panics if a requested snapshot directory cannot be created — a
    /// run asked to cache must not silently run uncached — or if
    /// `LCL_HUGE_THRESHOLD` is set but not a number.
    #[must_use]
    pub fn from_cli(opts: &CliOpts) -> MeasureOpts {
        let dir = opts
            .value_of("--snapshot-dir")
            .map(PathBuf::from)
            .or_else(|| std::env::var_os("LCL_SNAPSHOT_DIR").map(PathBuf::from));
        let snapshots = dir.map(|d| {
            SnapshotCache::open(&d)
                .unwrap_or_else(|e| panic!("cannot open snapshot dir {}: {e}", d.display()))
        });
        let huge_threshold = opts
            .value_of("--huge-threshold")
            .map(ToString::to_string)
            .or_else(|| std::env::var("LCL_HUGE_THRESHOLD").ok())
            .map(|v| v.parse().unwrap_or_else(|_| panic!("huge threshold `{v}` not a size")))
            .unwrap_or(1 << 20);
        MeasureOpts {
            certify: opts.has("--certify"),
            shard: opts.has("--shard"),
            snapshots,
            huge_threshold,
        }
    }
}

/// A measured cell: its rows plus the content hash of the instance they
/// were measured on (what `run_spec` records into the manifest meta as
/// `graph:<family>:<n>:<seed>`).
#[derive(Clone, Debug)]
pub struct CellMeasurement {
    /// One row per algorithm, in spec order.
    pub rows: Vec<Row>,
    /// `Graph::content_hash()` of the instance (slab-layout independent,
    /// identical whether the graph was generated or snapshot-loaded).
    pub graph_hash: u64,
}

/// Runs one `(family, n, seed)` cell: builds the instance once, wraps it
/// in a [`Network`] (shuffled ids from the cell seed), and runs every
/// requested algorithm on it — one row per algorithm. Panicking wrapper
/// around [`try_measure_cell`] for callers that treat any failure as fatal.
#[must_use]
pub fn measure_cell(cell: &Cell<FamilySpec>, algos: &[AlgoSpec], exec: EngineExec) -> Vec<Row> {
    try_measure_cell(cell, algos, exec, false).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`measure_cell`]: an infeasible instance or failing algorithm
/// yields a structured [`CellError`] naming the cell, and with `certify`
/// set every algorithm's output is re-checked by the independent
/// `lcl_certify` checkers before its row is accepted.
///
/// # Errors
///
/// [`CellError`] naming the `(family, n, seed)` cell and the cause.
pub fn try_measure_cell(
    cell: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    exec: EngineExec,
    certify: bool,
) -> Result<Vec<Row>, CellError> {
    let m = MeasureOpts { certify, ..MeasureOpts::default() };
    try_measure_cell_full(cell, algos, exec, &m).map(|out| out.rows)
}

/// [`try_measure_cell`] with the full switch set ([`MeasureOpts`]),
/// returning the instance's content hash alongside the rows.
///
/// # Errors
///
/// [`CellError`] naming the `(family, n, seed)` cell and the cause.
pub fn try_measure_cell_full(
    cell: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<CellMeasurement, CellError> {
    let fail = |detail: String| CellError {
        family: cell.family.slug(),
        n: cell.n,
        seed: cell.seed,
        detail,
    };
    let g = match &m.snapshots {
        Some(cache) => cache.load_or_build(&cell.family, cell.n, cell.seed),
        None => cell.family.build(cell.n, cell.seed),
    }
    .map_err(|e| fail(e.to_string()))?;
    let graph_hash = g.content_hash();
    let net = Network::new(g, IdAssignment::Shuffled { seed: cell.seed });
    let nodes = net.len() as f64;
    let edges = net.graph().edge_count() as f64;
    let mut rows = Vec::with_capacity(algos.len());
    for algo in algos {
        let (measured, mut extra) = try_run_algo(*algo, &net, cell.seed, exec, m)
            .map_err(|e| fail(format!("{}: {e}", algo.slug())))?;
        extra.push(("nodes".to_string(), nodes));
        extra.push(("edges".to_string(), edges));
        rows.push(Row {
            experiment: EXPERIMENT_ID,
            series: format!("{}/{}", cell.family.slug(), algo.slug()),
            n: cell.n,
            seed: cell.seed,
            measured,
            extra,
        });
    }
    Ok(CellMeasurement { rows, graph_hash })
}

/// Runs a [`lcl_certify::Solution`] (or a decode failure) through the
/// independent checker, flattening any violation into the error string.
fn recheck(
    g: &lcl_graph::Graph,
    decoded: Result<lcl_certify::Solution, lcl_certify::Violation>,
) -> Result<(), String> {
    let sol = decoded.map_err(|v| format!("certify [{}]: {v}", v.kind()))?;
    lcl_certify::certify(g, &sol).map(|_| ()).map_err(|v| format!("certify [{}]: {v}", v.kind()))
}

fn try_run_algo(
    algo: AlgoSpec,
    net: &Network,
    seed: u64,
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<(f64, Vec<(String, f64)>), String> {
    let certify = m.certify;
    let n = net.len() as f64;
    match algo {
        AlgoSpec::Luby => {
            let out = if m.shard {
                lcl_algos::luby_rounds::try_run_sharded_with(net, seed, &exec)
            } else {
                lcl_algos::luby_rounds::try_run_with(net, seed, &exec)
            }
            .map_err(|e| e.to_string())?;
            if certify {
                recheck(net.graph(), out.solution(net.graph()))?;
            }
            let in_set =
                net.graph().nodes().filter(|&v| *out.labeling.node(v) == MisLabel::InSet).count();
            Ok((f64::from(out.rounds), vec![("mis_frac".to_string(), in_set as f64 / n)]))
        }
        AlgoSpec::Matching => {
            let out = if m.shard {
                lcl_algos::matching_rounds::try_run_sharded_with(net, seed, &exec)
            } else {
                lcl_algos::matching_rounds::try_run_with(net, seed, &exec)
            }
            .map_err(|e| e.to_string())?;
            if certify {
                recheck(net.graph(), out.solution(net.graph()))?;
            }
            let matched = net
                .graph()
                .nodes()
                .filter(|&v| *out.labeling.node(v) == MatchingLabel::Matched)
                .count();
            Ok((f64::from(out.rounds), vec![("matched_frac".to_string(), matched as f64 / n)]))
        }
        AlgoSpec::Linial => {
            let out = lcl_algos::linial::try_run_with(net, &exec).map_err(|e| e.to_string())?;
            if certify {
                recheck(net.graph(), Ok(out.solution(net.graph())))?;
            }
            let mut palette = out.colors.clone();
            palette.sort_unstable();
            palette.dedup();
            Ok((f64::from(out.total_rounds()), vec![("colors".to_string(), palette.len() as f64)]))
        }
    }
}

/// Measures a store-backed cell **sequentially in-cell**: every shard of
/// the published sharded snapshot in order, reassembled into the exact
/// rows [`try_measure_cell_full`] emits on the unsharded instance (the
/// byte-identity this is pinned to in `tests/store_equiv.rs`). `run_spec`
/// instead spreads the shards across the scheduler pool as individual
/// work items; this entry point is the reference path and what external
/// callers (verify, tests) use.
///
/// # Errors
///
/// [`CellError`] naming the cell, with the failing shard in the detail.
pub fn try_measure_cell_store(
    cell: &Cell<FamilySpec>,
    snap: &ShardedSnapshot,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<CellMeasurement, CellError> {
    let mut shards = Vec::with_capacity(snap.shard_count());
    for part in 0..snap.shard_count() {
        shards.push(measure_shard(cell, snap, part, algos, exec, m)?);
    }
    Ok(CellMeasurement {
        rows: assemble_store_cell(cell, snap, algos, &shards),
        graph_hash: snap.graph_hash(),
    })
}

/// How one grid cell will execute: in memory as one unit, or backed by a
/// per-component sharded snapshot with every shard its own work item.
#[derive(Clone, Debug)]
enum CellPlan {
    /// Build (or snapshot-load) the whole instance and measure in one go
    /// — every cell below the huge threshold.
    Whole,
    /// Run from the published sharded store: shards are the schedulable
    /// unit, and only a shard's own bytes are mapped while it runs.
    Store(Arc<ShardedSnapshot>),
    /// The store could not be built/opened; the cell fails with this
    /// detail (it is too big to fall back to the in-memory path).
    StoreFailed(String),
}

/// One algorithm's contribution from one shard, sufficient to reassemble
/// the cell row exactly: components are independent, so the global run's
/// rounds are the max over shards and its fractions sum over shards.
#[derive(Clone, Debug)]
struct AlgoPart {
    rounds: u32,
    /// Nodes labeled `InSet` (Luby) / `Matched` (matching) in the shard.
    count: u64,
    /// Distinct colors used in the shard (Linial); the cell's palette is
    /// the union.
    palette: Vec<u32>,
}

/// What one work item returns: a whole cell's measurement, or one shard's
/// per-algorithm contributions.
#[derive(Clone, Debug)]
enum PartResult {
    Whole(CellMeasurement),
    Shard(Vec<AlgoPart>),
}

/// Measures one shard of a store-backed cell: maps the shard image, wraps
/// it in a [`Network`] carrying the **global** identifiers (sliced from
/// the full permutation via [`lcl_local::assigned_ids`] and the member
/// table) and the global `(n, Δ)` announcements, and runs every algorithm
/// on it. Per-node behavior depends only on the local id, the port order,
/// and the announced globals — all preserved — so reassembled rows are
/// byte-identical to the unsharded run's.
fn measure_shard(
    cell: &Cell<FamilySpec>,
    snap: &ShardedSnapshot,
    part: usize,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<Vec<AlgoPart>, CellError> {
    let fail = |detail: String| CellError {
        family: cell.family.slug(),
        n: cell.n,
        seed: cell.seed,
        detail: format!("shard {part}: {detail}"),
    };
    let g = snap.load_shard(part).map_err(|e| fail(e.to_string()))?;
    let ids = assigned_ids(snap.node_count(), IdAssignment::Shuffled { seed: cell.seed });
    let shard_ids: Vec<u64> = snap.members(part).iter().map(|&v| ids[v as usize]).collect();
    let net = Network::with_ids(g, shard_ids)
        .with_known_n(snap.node_count())
        .with_announced_max_degree(snap.max_degree());
    let mut parts = Vec::with_capacity(algos.len());
    for algo in algos {
        let with_algo = |e: String| fail(format!("{}: {e}", algo.slug()));
        let part = match algo {
            AlgoSpec::Luby => {
                let out = lcl_algos::luby_rounds::try_run_with(&net, cell.seed, &exec)
                    .map_err(|e| with_algo(e.to_string()))?;
                if m.certify {
                    recheck(net.graph(), out.solution(net.graph())).map_err(with_algo)?;
                }
                let count = net
                    .graph()
                    .nodes()
                    .filter(|&v| *out.labeling.node(v) == MisLabel::InSet)
                    .count() as u64;
                AlgoPart { rounds: out.rounds, count, palette: Vec::new() }
            }
            AlgoSpec::Matching => {
                let out = lcl_algos::matching_rounds::try_run_with(&net, cell.seed, &exec)
                    .map_err(|e| with_algo(e.to_string()))?;
                if m.certify {
                    recheck(net.graph(), out.solution(net.graph())).map_err(with_algo)?;
                }
                let count = net
                    .graph()
                    .nodes()
                    .filter(|&v| *out.labeling.node(v) == MatchingLabel::Matched)
                    .count() as u64;
                AlgoPart { rounds: out.rounds, count, palette: Vec::new() }
            }
            AlgoSpec::Linial => {
                let out = lcl_algos::linial::try_run_with(&net, &exec)
                    .map_err(|e| with_algo(e.to_string()))?;
                if m.certify {
                    recheck(net.graph(), Ok(out.solution(net.graph()))).map_err(with_algo)?;
                }
                let mut palette = out.colors.clone();
                palette.sort_unstable();
                palette.dedup();
                AlgoPart { rounds: out.total_rounds(), count: 0, palette }
            }
        };
        parts.push(part);
    }
    Ok(parts)
}

/// Reassembles a store-backed cell's rows from its shard contributions —
/// the exact rows [`try_measure_cell_full`] would emit on the unsharded
/// instance: rounds are the max over shards (components are independent;
/// the global engine runs until its slowest component settles), fractions
/// sum, and Linial's palette is the union.
#[allow(clippy::cast_precision_loss)]
fn assemble_store_cell(
    cell: &Cell<FamilySpec>,
    snap: &ShardedSnapshot,
    algos: &[AlgoSpec],
    shards: &[Vec<AlgoPart>],
) -> Vec<Row> {
    let n = snap.node_count() as f64;
    let nodes = n;
    let edges = snap.edge_count() as f64;
    let mut rows = Vec::with_capacity(algos.len());
    for (k, algo) in algos.iter().enumerate() {
        let rounds = shards.iter().map(|s| s[k].rounds).max().unwrap_or(0);
        let total: u64 = shards.iter().map(|s| s[k].count).sum();
        let metric = match algo {
            AlgoSpec::Luby => ("mis_frac".to_string(), total as f64 / n),
            AlgoSpec::Matching => ("matched_frac".to_string(), total as f64 / n),
            AlgoSpec::Linial => {
                let mut palette: Vec<u32> =
                    shards.iter().flat_map(|s| s[k].palette.iter().copied()).collect();
                palette.sort_unstable();
                palette.dedup();
                ("colors".to_string(), palette.len() as f64)
            }
        };
        rows.push(Row {
            experiment: EXPERIMENT_ID,
            series: format!("{}/{}", cell.family.slug(), algo.slug()),
            n: cell.n,
            seed: cell.seed,
            measured: f64::from(rounds),
            extra: vec![metric, ("nodes".to_string(), nodes), ("edges".to_string(), edges)],
        });
    }
    rows
}

/// Expands the spec into its cell grid (family outermost, seed innermost
/// — the canonical row-major order every bin uses).
#[must_use]
pub fn expand(spec: &ScenarioSpec, quick: bool) -> Vec<Cell<FamilySpec>> {
    let (sizes, seeds) = spec.grid_axes(quick);
    grid(&spec.families, &sizes, &seeds)
}

/// Plans the makespan-balanced schedule for a cell grid, or `None` when
/// scheduling is off: the planner [`run_spec`] uses, with every cell one
/// work item.
#[must_use]
pub fn schedule_for(
    cells: &[Cell<FamilySpec>],
    algos: &[AlgoSpec],
    opts: &CliOpts,
    runner: &BatchRunner,
) -> Option<Schedule> {
    let items: Vec<(usize, usize)> = cells.iter().enumerate().map(|(ci, c)| (ci, c.n)).collect();
    plan_items(cells, &items, algos, opts, runner)
}

/// Plans the makespan-balanced schedule over work items, where
/// `items[j] = (cell, size)`: a whole cell is one item of the cell's size,
/// and a store-backed cell contributes one item per shard, costed like a
/// small cell of the shard's size. Returns `None` when scheduling is off.
/// Pooled runs schedule by default (safe: output bytes are stitched in
/// cell order either way); `--no-sched` always wins, and `--sched` forces
/// planning even for a `--seq` run so predictions land in the manifest.
///
/// The cost model trains on every run persisted under `opts.out` (their
/// `cell_ms:`/`actual_ms:` manifest meta via [`cost_history`]) plus any
/// `BENCH_*.json` wall times under `LCL_BENCH_JSON_DIR` ([`bench_history`]);
/// items whose `(family, algo-set)` class has no history fall back to the
/// static degree-weighted estimate [`FamilySpec::cost_weight`] ×
/// Σ [`AlgoSpec::cost_factor`], calibrated onto the model's scale.
fn plan_items(
    cells: &[Cell<FamilySpec>],
    items: &[(usize, usize)],
    algos: &[AlgoSpec],
    opts: &CliOpts,
    runner: &BatchRunner,
) -> Option<Schedule> {
    if opts.has("--no-sched") || !(opts.has("--sched") || runner.is_parallel()) {
        return None;
    }
    let mut samples = cost_history(&RunStore::new(&opts.out)).unwrap_or_default();
    if let Some(dir) = std::env::var_os("LCL_BENCH_JSON_DIR") {
        samples.extend(bench_history(Path::new(&dir)));
    }
    let model = CostModel::fit(&samples);
    let algo_set = algos.iter().map(AlgoSpec::slug).collect::<Vec<_>>().join("+");
    let classes: Vec<(String, String, usize)> =
        items.iter().map(|&(ci, n)| (cells[ci].family.slug(), algo_set.clone(), n)).collect();
    let statics: Vec<f64> = items
        .iter()
        .map(|&(ci, n)| {
            cells[ci].family.cost_weight(n) * algos.iter().map(|a| a.cost_factor(n)).sum::<f64>()
        })
        .collect();
    let costs = predict_costs(&model, &classes, &statics);
    Some(build_schedule(&costs, lcl_bench::pool_width()))
}

/// Runs a whole scenario through the batch engine and returns the report
/// plus any per-cell failures (in cell order), with the scenario name,
/// spec hash, full canonical spec JSON, and per-cell wall clock
/// (`cell_ms:<cell>`) recorded as manifest meta — the caller exits
/// through [`Report::finish`] to render and persist, and should exit
/// nonzero if any cell failed. Passing `--certify` re-checks every
/// algorithm output with the independent `lcl_certify` checkers before
/// its row is accepted. Pooled runs go through the grid scheduler
/// ([`schedule_for`]) and additionally record `predicted_ms:`/
/// `actual_ms:` meta per cell plus a `sched` provenance line.
///
/// Every grid takes one dispatch path: each store-backed cell contributes
/// one work item per shard, every other cell one item, and all items
/// share the single scheduler pool
/// ([`lcl_bench::BatchRunner::try_run_parts`]). Without a schedule
/// (`--seq` / `--no-sched`) items run as individual pool jobs in
/// canonical order.
#[must_use]
pub fn run_spec(spec: &ScenarioSpec, opts: &CliOpts) -> (Report, Vec<CellError>) {
    let cells = expand(spec, opts.quick);
    let runner = BatchRunner::from_opts(opts);
    let exec = runner.node_executor();
    let algos = &spec.algos;
    let m = MeasureOpts::from_cli(opts);
    // Plan every cell up front: huge cells (above the threshold, with
    // sharding and a snapshot dir on) run store-backed, everything else
    // in memory. Opening/streaming the stores here also hands the
    // scheduler the per-shard sizes it needs.
    let plans: Vec<CellPlan> = cells
        .iter()
        .map(|c| {
            if !m.shard || c.n <= m.huge_threshold {
                return CellPlan::Whole;
            }
            let Some(cache) = &m.snapshots else { return CellPlan::Whole };
            match cache.load_or_build_sharded(&c.family, c.n, c.seed) {
                Ok(s) => CellPlan::Store(Arc::new(s)),
                Err(e) => CellPlan::StoreFailed(e),
            }
        })
        .collect();
    // Work items, cell-major: `(cell, size)` per shard of a store cell,
    // one per other cell.
    let items: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ci, p)| -> Vec<(usize, usize)> {
            match p {
                CellPlan::Store(s) => {
                    (0..s.shard_count().max(1)).map(|k| (ci, s.shard_meta(k).n)).collect()
                }
                CellPlan::Whole | CellPlan::StoreFailed(_) => vec![(ci, cells[ci].n)],
            }
        })
        .collect();
    let mut parts_per_cell = vec![0; cells.len()];
    for &(ci, _) in &items {
        parts_per_cell[ci] += 1;
    }
    let sched = plan_items(&cells, &items, algos, opts, &runner);
    let groups: Vec<Vec<usize>> = match &sched {
        Some(s) => s.groups.clone(),
        // No plan: one pool job per item (chunk-claimed when parallel,
        // canonical order when sequential).
        None => (0..items.len()).map(|j| vec![j]).collect(),
    };
    let measure_part = |ci: usize, part: usize| -> Result<PartResult, CellError> {
        match &plans[ci] {
            CellPlan::Whole => {
                try_measure_cell_full(&cells[ci], algos, exec, &m).map(PartResult::Whole)
            }
            CellPlan::Store(s) => {
                measure_shard(&cells[ci], s, part, algos, exec, &m).map(PartResult::Shard)
            }
            CellPlan::StoreFailed(e) => Err(CellError {
                family: cells[ci].family.slug(),
                n: cells[ci].n,
                seed: cells[ci].seed,
                detail: e.clone(),
            }),
        }
    };
    // Assembly runs on the stitching thread, in cell order; it records
    // each measured cell's instance hash for the manifest.
    let hashes: RefCell<Vec<Option<u64>>> = RefCell::new(vec![None; cells.len()]);
    let assemble = |ci: usize, mut parts: Vec<PartResult>| -> Result<Vec<Row>, CellError> {
        match &plans[ci] {
            CellPlan::Whole => {
                let Some(PartResult::Whole(out)) = parts.pop() else {
                    unreachable!("whole cells are single-part")
                };
                hashes.borrow_mut()[ci] = Some(out.graph_hash);
                Ok(out.rows)
            }
            CellPlan::Store(s) => {
                let shards: Vec<Vec<AlgoPart>> = parts
                    .into_iter()
                    .map(|p| match p {
                        PartResult::Shard(v) => v,
                        PartResult::Whole(_) => unreachable!("store cells yield shard parts"),
                    })
                    .collect();
                hashes.borrow_mut()[ci] = Some(s.graph_hash());
                Ok(assemble_store_cell(&cells[ci], s, algos, &shards))
            }
            CellPlan::StoreFailed(_) => unreachable!("failed stores never reach assembly"),
        }
    };
    let run = runner.try_run_parts(&cells, &parts_per_cell, &groups, measure_part, assemble);
    let (mut report, failures, cell_ms) = (run.report, run.failures, run.cell_ms);
    report.push_meta("scenario", spec.name.clone());
    report.push_meta("spec_hash", spec.hash());
    report.push_meta("spec_json", spec.to_json());
    for (cell, h) in cells.iter().zip(hashes.into_inner()) {
        if let Some(h) = h {
            report.push_meta(format!("graph:{}", cell.key()), format!("{h:016x}"));
        }
    }
    // Store-backed cells leave a shard-count marker, so `results show`
    // and verify know which rows came through the snapshot store.
    for (cell, plan) in cells.iter().zip(&plans) {
        if let CellPlan::Store(s) = plan {
            report.push_meta(format!("shards:{}", cell.key()), s.shard_count().to_string());
        }
    }
    // Per-cell wall clock, in every run: the next run's training data.
    for (cell, ms) in cells.iter().zip(&cell_ms) {
        report.push_meta(format!("cell_ms:{}", cell.key()), format!("{ms:.3}"));
    }
    if let Some(s) = &sched {
        report.push_meta(
            "sched",
            format!("workers={} predicted_makespan_ms={:.3}", s.workers, s.predicted_makespan_ms),
        );
        // Predicted vs. actual per cell — the self-improvement record
        // `results show` aggregates into a prediction error. A store
        // cell's prediction is the sum over its shard items.
        let mut predicted_cell_ms = vec![0.0; cells.len()];
        for (&(ci, _), ms) in items.iter().zip(&s.predicted_ms) {
            predicted_cell_ms[ci] += ms;
        }
        for (i, cell) in cells.iter().enumerate() {
            report.push_meta(
                format!("predicted_ms:{}", cell.key()),
                format!("{:.3}", predicted_cell_ms[i]),
            );
            report.push_meta(format!("actual_ms:{}", cell.key()), format!("{:.3}", cell_ms[i]));
        }
    }
    if let Some(cache) = &m.snapshots {
        let (hits, misses) = cache.stats();
        eprintln!("snapshot cache: {hits} hits, {misses} misses in {}", cache.dir().display());
    }
    (report, failures.into_iter().map(|(_, e)| e).collect())
}

/// The run-store experiment name for a scenario.
#[must_use]
pub fn experiment_name(spec: &ScenarioSpec) -> String {
    format!("scenario-{}", spec.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecError;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            description: "unit fixture".into(),
            families: vec![FamilySpec::Torus, FamilySpec::Caterpillar { leaf_frac: 0.4 }],
            sizes: vec![16, 25],
            seeds: vec![1, 2],
            algos: vec![AlgoSpec::Luby, AlgoSpec::Linial],
        }
    }

    #[test]
    fn expand_is_row_major_family_outermost() {
        let cells = expand(&tiny_spec(), false);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].family, FamilySpec::Torus);
        assert_eq!((cells[0].n, cells[0].seed), (16, 1));
        assert_eq!((cells[1].n, cells[1].seed), (16, 2));
        assert_eq!(cells[4].family, FamilySpec::Caterpillar { leaf_frac: 0.4 });
    }

    #[test]
    fn measure_cell_emits_one_row_per_algo() {
        let spec = tiny_spec();
        let cells = expand(&spec, false);
        let rows = measure_cell(&cells[0], &spec.algos, EngineExec::Sequential);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].series, "torus/luby");
        assert_eq!(rows[1].series, "torus/linial");
        for row in &rows {
            assert!(row.measured >= 0.0);
            let nodes = row.extra.iter().find(|(k, _)| k == "nodes").unwrap().1;
            assert!(nodes >= 9.0);
        }
        // Luby on a torus: the MIS is non-empty.
        let mis = rows[0].extra.iter().find(|(k, _)| k == "mis_frac").unwrap().1;
        assert!(mis > 0.0);
        // Linial colors a 4-regular torus with at most Δ+1 = 5 colors.
        let colors = rows[1].extra.iter().find(|(k, _)| k == "colors").unwrap().1;
        assert!((1.0..=5.0).contains(&colors), "colors = {colors}");
    }

    #[test]
    fn parallel_and_sequential_scenario_reports_are_identical() {
        let spec = tiny_spec();
        let cells = expand(&spec, false);
        let algos = spec.algos.clone();
        let seq = BatchRunner::sequential()
            .run(&cells, |c| measure_cell(c, &algos, EngineExec::Sequential));
        let par =
            BatchRunner::parallel().run(&cells, |c| measure_cell(c, &algos, EngineExec::Parallel));
        assert_eq!(seq.render(true), par.render(true));
        assert_eq!(seq.render(false), par.render(false));
        assert_eq!(seq.rows().len(), 16);
    }

    #[test]
    fn experiment_name_prefixes_scenario() {
        assert_eq!(experiment_name(&tiny_spec()), "scenario-tiny");
        let _: Result<(), SpecError> = tiny_spec().validate();
    }

    #[test]
    fn infeasible_cell_is_a_structured_error() {
        // A G(n,m) density no simple 16-node graph can hold: the generator
        // refuses, and the refusal comes back attributed to the cell
        // instead of panicking the worker pool.
        let cell = Cell { family: FamilySpec::Gnm { avg_deg: 1000.0 }, n: 16, seed: 1 };
        let err =
            try_measure_cell(&cell, &[AlgoSpec::Luby], EngineExec::Sequential, false).unwrap_err();
        assert_eq!((err.family.as_str(), err.n, err.seed), ("gnm-d1000", 16, 1));
        assert!(format!("{err}").starts_with("gnm-d1000 at n=16 seed=1:"), "{err}");
    }

    #[test]
    fn certify_flag_rechecks_every_row() {
        let spec = tiny_spec();
        let cells = expand(&spec, false);
        for cell in &cells {
            let rows = try_measure_cell(cell, &spec.algos, EngineExec::Sequential, true).unwrap();
            assert_eq!(rows.len(), spec.algos.len());
        }
    }
}
