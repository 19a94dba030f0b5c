//! `scenario-grid` and `huge-store`: `run_spec` over a scenario grid,
//! from a warm snapshot cache, with `--certify`, pooled under the
//! cost-model scheduler, and persisted.
//!
//! Set-up opens a fresh snapshot directory and builds every cell's
//! instance into it through the scenario's own [`SnapshotCache`]
//! (`load_or_build`, or `load_or_build_sharded` for cells above the huge
//! threshold), so the timed passes hit the cache on every cell. The timed
//! pass is exactly what `scenarios run` does minus printing: `run_spec`
//! then `Report::persist`.
//!
//! The traced pass rebuilds the same pass from the layers' public calls —
//! cache loads, `Network` construction, the round and view engines,
//! `lcl_certify::certify`, `schedule_for` / `build_schedule`, the
//! `BatchRunner` dispatch and `Report::persist` — each in a span. Its rows
//! must hash to the timed pass's digest.

use crate::landscape::certify;
use crate::trace::Tracer;
use crate::{cell_seeds, persist, run_guarded, Bench, Pass, Scale, SchedCheck};
use lcl_bench::{
    build_schedule, predict_costs, BatchRunner, Cell, CliOpts, CostModel, EngineExec, Row,
};
use lcl_core::problems::{MatchingLabel, MisLabel};
use lcl_graph::{Graph, GraphSink, NodeId, ShardedSnapshot};
use lcl_local::{assigned_ids, IdAssignment, Network};
use lcl_report::{cost_history, RunStore};
use lcl_scenario::{
    experiment_name, run_spec, schedule_for, AlgoSpec, FamilySpec, ScenarioSpec, SnapshotCache,
    EXPERIMENT_ID,
};
use std::path::{Path, PathBuf};

/// A `run_spec` workload: the spec, and the huge threshold when cells
/// above it run store-backed (`--shard`).
#[derive(Debug)]
pub struct ScenarioBench {
    spec: ScenarioSpec,
    huge_threshold: Option<usize>,
}

/// The warm snapshot directory set-up left behind.
#[derive(Debug)]
pub struct Prepared {
    snapshots: PathBuf,
}

impl ScenarioBench {
    /// `scenario-grid`: the seven zoo families at two sizes, two cell
    /// seeds, Luby / matching / Linial.
    #[must_use]
    pub fn grid(scale: Scale, seed: u64) -> Self {
        let sizes = match scale {
            Scale::Full => vec![1 << 13, 1 << 14],
            Scale::Tiny => vec![64, 128],
        };
        let spec = ScenarioSpec {
            name: "bench-scenario-grid".into(),
            description: "generator zoo under Luby, matching and Linial (benchmark)".into(),
            families: vec![
                FamilySpec::RandomRegular { d: 3 },
                FamilySpec::Gnm { avg_deg: 3.0 },
                FamilySpec::Torus,
                FamilySpec::Hypercube,
                FamilySpec::Caterpillar { leaf_frac: 0.5 },
                FamilySpec::LiftedGadget { delta: 3, height: 2 },
                FamilySpec::Pods { pod_size: 8, cross_links: 2 },
            ],
            sizes,
            seeds: cell_seeds(seed, 2),
            algos: vec![AlgoSpec::Luby, AlgoSpec::Matching, AlgoSpec::Linial],
        };
        ScenarioBench { spec, huge_threshold: None }
    }

    /// `huge-store`: disconnected pods (one component per pod, grouped
    /// into the store's shard cap) and a connected 3-regular graph, each
    /// at a small size next to a size above the lowered huge threshold,
    /// four cell seeds.
    #[must_use]
    pub fn huge(scale: Scale, seed: u64) -> Self {
        let (small, big) = match scale {
            Scale::Full => (1 << 12, 1 << 16),
            Scale::Tiny => (64, 1024),
        };
        let spec = ScenarioSpec {
            name: "bench-huge-store".into(),
            description: "store-backed huge cells next to small cells (benchmark)".into(),
            families: vec![
                FamilySpec::Pods { pod_size: 8, cross_links: 0 },
                FamilySpec::RandomRegular { d: 3 },
            ],
            sizes: vec![small, big],
            seeds: cell_seeds(seed, 4),
            algos: vec![AlgoSpec::Luby, AlgoSpec::Matching, AlgoSpec::Linial],
        };
        ScenarioBench { spec, huge_threshold: Some(big / 2) }
    }

    fn cells(&self) -> Vec<Cell<FamilySpec>> {
        lcl_scenario::expand(&self.spec, false)
    }

    fn is_huge(&self, n: usize) -> bool {
        self.huge_threshold.is_some_and(|t| n > t)
    }

    /// The `scenarios run` flags of a pass.
    fn opts(&self, p: &Prepared, out: &Path) -> CliOpts {
        let mut args: Vec<String> = ["--certify", "--snapshot-dir"].map(String::from).to_vec();
        args.push(p.snapshots.to_string_lossy().into_owned());
        args.extend(["--out".to_string(), out.to_string_lossy().into_owned()]);
        args.extend(["--run-id".to_string(), "pass".to_string()]);
        if let Some(t) = self.huge_threshold {
            args.extend(["--shard".to_string(), "--huge-threshold".to_string(), t.to_string()]);
        }
        CliOpts::from_args(args)
    }
}

impl Bench for ScenarioBench {
    type Prepared = Prepared;

    fn describe(&self) -> String {
        format!(
            "\"spec\":{},\"spec_hash\":\"{}\",\"huge_threshold\":{}",
            self.spec.to_json(),
            self.spec.hash(),
            self.huge_threshold.map_or_else(|| "null".to_string(), |t| t.to_string())
        )
    }

    fn setup(&self, t: &Tracer, dir: &Path) -> Result<Prepared, String> {
        use rayon::prelude::*;
        let snapshots = dir.join("snapshots");
        let cache = SnapshotCache::open(&snapshots).map_err(|e| e.to_string())?;
        let cells = self.cells();
        let built: Vec<Result<(), String>> = cells
            .par_iter()
            .map(|c| {
                if t.enabled() {
                    return traced_build(t, &cache, c, self.is_huge(c.n));
                }
                if self.is_huge(c.n) {
                    cache.load_or_build_sharded(&c.family, c.n, c.seed).map(|_| ())
                } else {
                    cache
                        .load_or_build(&c.family, c.n, c.seed)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                }
            })
            .collect();
        built.into_iter().collect::<Result<(), String>>()?;
        Ok(Prepared { snapshots })
    }

    fn pass(&self, p: &Prepared, out: &Path) -> Result<Pass, String> {
        let before = crate::sys::dir_bytes(&p.snapshots, "lclg").1;
        let opts = self.opts(p, out);
        let (report, failures) = run_spec(&self.spec, &opts);
        report.persist(&experiment_name(&self.spec), &opts).map_err(|e| e.to_string())?;
        let after = crate::sys::dir_bytes(&p.snapshots, "lclg").1;
        Ok(Pass {
            report,
            cells: self.cells().len(),
            failures: failures.iter().map(ToString::to_string).collect(),
            cache_misses: after.saturating_sub(before),
            sched: None,
        })
    }

    fn traced_pass(&self, p: &Prepared, t: &Tracer, out: &Path) -> Result<Pass, String> {
        let cells = self.cells();
        let algos = &self.spec.algos;
        let opts = self.opts(p, out);
        let runner = BatchRunner::parallel();
        let exec = runner.node_executor();
        let shard = self.huge_threshold.is_some();
        let cache = SnapshotCache::open(&p.snapshots).map_err(|e| e.to_string())?;
        // Store-backed cells open their published store up front, as
        // `run_spec` does; every other cell is one whole work item.
        let mut stores: Vec<Option<ShardedSnapshot>> = Vec::with_capacity(cells.len());
        for c in &cells {
            stores.push(if self.is_huge(c.n) {
                Some(t.span("graph.shard_store.open", || {
                    cache.load_or_build_sharded(&c.family, c.n, c.seed)
                })?)
            } else {
                None
            });
        }
        let (cache, cells, stores) = (&cache, &cells, &stores);
        // A cell span's parent is the `bench.engine` span open on the
        // submitting thread, handed to whichever pool thread runs it.
        let whole = |engine: Option<u32>| {
            move |c: &Cell<FamilySpec>| {
                t.span_in(
                    engine,
                    "bench.cell",
                    || run_guarded(|| measure_whole(t, cache, c, algos, exec, shard)),
                    |_| 0.0,
                )
            }
        };
        let (run, predicted) = if stores.iter().all(Option::is_none) {
            let sched = t
                .span("bench.sched.plan", || schedule_for(cells, algos, &opts, &runner))
                .ok_or("a pooled run must plan a schedule")?;
            let run = t.span("bench.engine", || {
                runner.try_run_groups(cells, &sched.groups, whole(t.current()))
            });
            (run, sched.predicted_ms)
        } else {
            // Item-level plan, as `run_spec` makes for mixed grids: a
            // shard is costed like a small cell of the shard's size.
            let items: Vec<(usize, usize)> = stores
                .iter()
                .enumerate()
                .flat_map(|(ci, s)| match s {
                    Some(s) => {
                        (0..s.shard_count().max(1)).map(|k| (ci, s.shard_meta(k).n)).collect()
                    }
                    None => vec![(ci, cells[ci].n)],
                })
                .collect();
            let sched = t.span("bench.sched.plan", || {
                let model =
                    CostModel::fit(&cost_history(&RunStore::new(&opts.out)).unwrap_or_default());
                let algo_set = algos.iter().map(AlgoSpec::slug).collect::<Vec<_>>().join("+");
                let classes: Vec<(String, String, usize)> = items
                    .iter()
                    .map(|&(ci, n)| (cells[ci].family.slug(), algo_set.clone(), n))
                    .collect();
                let statics: Vec<f64> = items
                    .iter()
                    .map(|&(ci, n)| {
                        cells[ci].family.cost_weight(n)
                            * algos.iter().map(|a| a.cost_factor(n)).sum::<f64>()
                    })
                    .collect();
                build_schedule(&predict_costs(&model, &classes, &statics), lcl_bench::pool_width())
            });
            let parts: Vec<usize> =
                stores.iter().map(|s| s.as_ref().map_or(1, |s| s.shard_count().max(1))).collect();
            let measure_part = |engine: Option<u32>| {
                move |ci: usize, part: usize| -> Result<Part, String> {
                    t.span_in(
                        engine,
                        "bench.cell",
                        || {
                            run_guarded(|| match &stores[ci] {
                                Some(s) => measure_shard(t, &cells[ci], s, part, algos, exec)
                                    .map(Part::Shard),
                                None => measure_whole(t, cache, &cells[ci], algos, exec, shard)
                                    .map(Part::Whole),
                            })
                        },
                        |_| 0.0,
                    )
                }
            };
            let assemble = |ci: usize, parts: Vec<Part>| -> Result<Vec<Row>, String> {
                Ok(match &stores[ci] {
                    Some(s) => assemble_store_cell(&cells[ci], s, algos, parts),
                    None => parts.into_iter().flat_map(Part::into_rows).collect(),
                })
            };
            let run = t.span("bench.engine", || {
                runner.try_run_parts(
                    cells,
                    &parts,
                    &sched.groups,
                    measure_part(t.current()),
                    assemble,
                )
            });
            let mut per_cell = vec![0.0; cells.len()];
            for (j, &(ci, _)) in items.iter().enumerate() {
                per_cell[ci] += sched.predicted_ms[j];
            }
            (run, per_cell)
        };
        let (hits, misses) = cache.stats();
        t.count("scenario.cache.hits", hits as f64);
        t.count("scenario.cache.misses", misses as f64);
        t.count("bench.engine.cells", cells.len() as f64);
        t.count("bench.engine.failed", run.failures.len() as f64);
        persist(t, &run.report, &experiment_name(&self.spec), &opts)?;
        Ok(Pass {
            cells: cells.len(),
            failures: run
                .failures
                .iter()
                .map(|(k, e)| format!("{}:{}:{}: {e}", k.family, k.n, k.seed))
                .collect(),
            cache_misses: misses,
            sched: Some(SchedCheck { predicted_ms: predicted, actual_ms: run.cell_ms }),
            report: run.report,
        })
    }
}

/// Traced set-up of one cell, on the path the timed set-up takes.
///
/// A small cell is built in memory (`graph.gen`), then frozen through a
/// temp file renamed to the exact file the cache looks up
/// (`graph.snapshot.write`), as `load_or_build` does. A huge cell is
/// streamed by `load_or_build_sharded` itself (`graph.shard_store.write`),
/// generator and writer fused as in the timed set-up; `graph.gen` times
/// the same generator streaming into a sink that only counts edges.
fn traced_build(
    t: &Tracer,
    cache: &SnapshotCache,
    c: &Cell<FamilySpec>,
    huge: bool,
) -> Result<(), String> {
    if huge {
        t.span_work(
            "graph.gen",
            || {
                let mut edges = EdgeCount(0);
                c.family.build_into(c.n, c.seed, &mut edges).map(|()| edges.0)
            },
            |m| m.as_ref().map_or(0.0, |&m| m as f64),
        )
        .map_err(|e| e.to_string())?;
        let dir = cache.sharded_dir_for(&c.family, c.n, c.seed);
        let store = t.span_work(
            "graph.shard_store.write",
            || cache.load_or_build_sharded(&c.family, c.n, c.seed),
            |_| crate::sys::dir_bytes(&dir, "lclg").0 as f64,
        )?;
        t.count("graph.shard_store.shard_files", store.shard_count() as f64);
        return Ok(());
    }
    let g = t
        .span_work(
            "graph.gen",
            || c.family.build(c.n, c.seed),
            |g| g.as_ref().map_or(0.0, |g| g.edge_count() as f64),
        )
        .map_err(|e| e.to_string())?;
    let path = cache.path_for(&c.family, c.n, c.seed);
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    t.span_work(
        "graph.snapshot.write",
        || g.freeze(&tmp).and_then(|_| std::fs::rename(&tmp, &path)),
        |_| std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    )
    .map_err(|e| format!("freezing {}: {e}", path.display()))
}

/// A sink that discards a generator's events and counts its edges.
struct EdgeCount(usize);

impl GraphSink for EdgeCount {
    fn add_nodes(&mut self, _count: usize) {}

    fn add_edge(&mut self, _u: NodeId, _v: NodeId) {
        self.0 += 1;
    }
}

/// One shard's (or one whole cell's) contribution.
enum Part {
    Whole(Vec<Row>),
    Shard(Vec<AlgoPart>),
}

impl Part {
    fn into_rows(self) -> Vec<Row> {
        match self {
            Part::Whole(rows) => rows,
            Part::Shard(_) => unreachable!("store cells assemble their shards"),
        }
    }
}

/// One algorithm's result on one shard.
struct AlgoPart {
    rounds: u32,
    count: u64,
    palette: Vec<u32>,
}

/// What one algorithm run left: rounds, labelled-node count, palette.
fn run_algo(
    t: &Tracer,
    net: &Network,
    algo: AlgoSpec,
    seed: u64,
    exec: EngineExec,
    shard: bool,
) -> Result<AlgoPart, String> {
    let g = net.graph();
    let n = g.node_count() as f64;
    let fail = |e: String| format!("{}: {e}", algo.slug());
    match algo {
        AlgoSpec::Luby => {
            let out = t
                .span_work(
                    "local.rounds",
                    || {
                        if shard {
                            lcl_algos::luby_rounds::try_run_sharded_with(net, seed, &exec)
                        } else {
                            lcl_algos::luby_rounds::try_run_with(net, seed, &exec)
                        }
                    },
                    |o| o.as_ref().map_or(0.0, |o| n * f64::from(o.rounds)),
                )
                .map_err(|e| fail(e.to_string()))?;
            certify(t, g, out.solution(g)).map_err(fail)?;
            let count = g.nodes().filter(|&v| *out.labeling.node(v) == MisLabel::InSet).count();
            Ok(AlgoPart { rounds: out.rounds, count: count as u64, palette: Vec::new() })
        }
        AlgoSpec::Matching => {
            let out = t
                .span_work(
                    "local.rounds",
                    || {
                        if shard {
                            lcl_algos::matching_rounds::try_run_sharded_with(net, seed, &exec)
                        } else {
                            lcl_algos::matching_rounds::try_run_with(net, seed, &exec)
                        }
                    },
                    |o| o.as_ref().map_or(0.0, |o| n * f64::from(o.rounds)),
                )
                .map_err(|e| fail(e.to_string()))?;
            certify(t, g, out.solution(g)).map_err(fail)?;
            let count =
                g.nodes().filter(|&v| *out.labeling.node(v) == MatchingLabel::Matched).count();
            Ok(AlgoPart { rounds: out.rounds, count: count as u64, palette: Vec::new() })
        }
        AlgoSpec::Linial => {
            let out = t
                .span_work(
                    "local.views",
                    || lcl_algos::linial::try_run_with(net, &exec),
                    |o| o.as_ref().map_or(0.0, |o| n * f64::from(o.total_rounds())),
                )
                .map_err(|e| fail(e.to_string()))?;
            certify(t, g, Ok(out.solution(g))).map_err(fail)?;
            let mut palette = out.colors.clone();
            palette.sort_unstable();
            palette.dedup();
            Ok(AlgoPart { rounds: out.total_rounds(), count: 0, palette })
        }
    }
}

/// A whole cell, as `try_measure_cell_full` runs it: the cached instance,
/// a `Network` with shuffled ids from the cell seed, every algorithm.
fn measure_whole(
    t: &Tracer,
    cache: &SnapshotCache,
    c: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    exec: EngineExec,
    shard: bool,
) -> Result<Vec<Row>, String> {
    let path = cache.path_for(&c.family, c.n, c.seed);
    let g = t
        .span_work(
            "graph.snapshot.load",
            || cache.load_or_build(&c.family, c.n, c.seed),
            |_| std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        )
        .map_err(|e| e.to_string())?;
    let net = t.span("local.network", || Network::new(g, IdAssignment::Shuffled { seed: c.seed }));
    let n = net.len() as f64;
    let edges = net.graph().edge_count() as f64;
    let mut rows = Vec::with_capacity(algos.len());
    for &algo in algos {
        let part = run_algo(t, &net, algo, c.seed, exec, shard)?;
        rows.push(cell_row(c, algo, part.rounds, part.count, &part.palette, n, edges));
    }
    Ok(rows)
}

/// One shard of a store-backed cell, as `run_spec` measures it: the
/// mapped shard image, global ids sliced from the cell's permutation, and
/// the global `(n, Δ)` announced.
fn measure_shard(
    t: &Tracer,
    c: &Cell<FamilySpec>,
    snap: &ShardedSnapshot,
    part: usize,
    algos: &[AlgoSpec],
    exec: EngineExec,
) -> Result<Vec<AlgoPart>, String> {
    let bytes = snap.shard_meta(part);
    let file = snap.dir().join(&bytes.file);
    let g: Graph = t
        .span_work(
            "graph.snapshot.load",
            || snap.load_shard(part),
            |_| std::fs::metadata(&file).map_or(0.0, |m| m.len() as f64),
        )
        .map_err(|e| format!("shard {part}: {e}"))?;
    let net = t.span("local.network", || {
        let ids = assigned_ids(snap.node_count(), IdAssignment::Shuffled { seed: c.seed });
        let shard_ids: Vec<u64> = snap.members(part).iter().map(|&v| ids[v as usize]).collect();
        Network::with_ids(g, shard_ids)
            .with_known_n(snap.node_count())
            .with_announced_max_degree(snap.max_degree())
    });
    algos
        .iter()
        .map(|&algo| {
            run_algo(t, &net, algo, c.seed, exec, false).map_err(|e| format!("shard {part}: {e}"))
        })
        .collect()
}

/// Folds a store-backed cell's shard results into the rows the whole
/// instance would give: rounds are the max over shards, counts sum, and
/// the palette is the union.
fn assemble_store_cell(
    c: &Cell<FamilySpec>,
    snap: &ShardedSnapshot,
    algos: &[AlgoSpec],
    parts: Vec<Part>,
) -> Vec<Row> {
    let shards: Vec<Vec<AlgoPart>> = parts
        .into_iter()
        .map(|p| match p {
            Part::Shard(v) => v,
            Part::Whole(_) => unreachable!("store cells yield shard parts"),
        })
        .collect();
    let n = snap.node_count() as f64;
    let edges = snap.edge_count() as f64;
    algos
        .iter()
        .enumerate()
        .map(|(k, &algo)| {
            let rounds = shards.iter().map(|s| s[k].rounds).max().unwrap_or(0);
            let count = shards.iter().map(|s| s[k].count).sum();
            let palette: Vec<u32> =
                shards.iter().flat_map(|s| s[k].palette.iter().copied()).collect();
            cell_row(c, algo, rounds, count, &palette, n, edges)
        })
        .collect()
}

/// The scenario row of one algorithm on one cell (extras in the order
/// `run_spec` writes them).
fn cell_row(
    c: &Cell<FamilySpec>,
    algo: AlgoSpec,
    rounds: u32,
    count: u64,
    palette: &[u32],
    n: f64,
    edges: f64,
) -> Row {
    let metric = match algo {
        AlgoSpec::Luby => ("mis_frac".to_string(), count as f64 / n),
        AlgoSpec::Matching => ("matched_frac".to_string(), count as f64 / n),
        AlgoSpec::Linial => {
            let mut palette = palette.to_vec();
            palette.sort_unstable();
            palette.dedup();
            ("colors".to_string(), palette.len() as f64)
        }
    };
    Row {
        experiment: EXPERIMENT_ID,
        series: format!("{}/{}", c.family.slug(), algo.slug()),
        n: c.n,
        seed: c.seed,
        measured: f64::from(rounds),
        extra: vec![metric, ("nodes".to_string(), n), ("edges".to_string(), edges)],
    }
}
