//! `landscape`: the paper's Figure 1 / Theorem 11 cells.
//!
//! Π₂ on Lemma-5 hard instances, solved deterministically and randomized
//! (`pi2_det(3)` / `pi2_rand(3)`), with every output checked by
//! `check_padded`; plus deterministic and randomized sinkless orientation
//! on random 3-regular graphs, certified by `lcl_certify`. The rows are
//! the ones the `landscape` binary reports for the same cells. Set-up
//! builds the instances; a pass measures every cell through the pooled
//! batch engine and persists the report.
//!
//! There is no single library entry point for these cells (the
//! `landscape` binary composes the same calls in its own `main`), so the
//! timed pass and the traced pass share this code: the timed pass runs it
//! with a disabled [`Tracer`].

use crate::trace::Tracer;
use crate::{cell_seeds, persist, run_guarded, Bench, Pass, Scale};
use lcl_algos::{sinkless_det, sinkless_rand};
use lcl_bench::{BatchRunner, Cell, CliOpts, EngineExec, FamilySlug, Row};
use lcl_gadget::GadgetFamily;
use lcl_graph::{gen, Graph};
use lcl_local::{IdAssignment, Network};
use lcl_padding::hard::hard_pi2_instance;
use lcl_padding::hierarchy::{pi2, pi2_det, pi2_rand};
use lcl_padding::{check_padded, PaddedInstance};
use std::path::Path;

/// Degree of the Π₂ gadget family and of the sinkless base graphs.
const DELTA: usize = 3;

/// The two cell kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Π₂ det + rand on a hard instance of about `n` nodes.
    Pi2,
    /// Sinkless orientation det + rand on a random 3-regular graph.
    Sinkless,
}

impl FamilySlug for Kind {
    fn family_slug(&self) -> String {
        match self {
            Kind::Pi2 => "pi2-hard".into(),
            Kind::Sinkless => "sinkless-3-regular".into(),
        }
    }
}

/// A prepared instance.
enum Instance {
    Pi2(Box<PaddedInstance<()>>),
    Sinkless(Graph),
}

/// The workload: its cell list, in dispatch order.
#[derive(Debug)]
pub struct Landscape {
    cells: Vec<Cell<Kind>>,
}

/// Instances, indexed like [`Landscape`]'s cells.
pub struct Prepared {
    instances: Vec<Instance>,
}

impl Landscape {
    /// The cells for `scale` and workload seed `seed`: Π₂ and sinkless
    /// cells at each size, for each of four cell seeds. Seeds are the
    /// outer loop, so the contiguous chunks the pool hands its workers
    /// carry whole seeds; four seeds keep one instance's luck from
    /// setting the makespan.
    #[must_use]
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (pi2_sizes, sinkless_sizes): (&[usize], &[usize]) = match scale {
            Scale::Full => (&[8_000, 16_000], &[1024, 1536]),
            Scale::Tiny => (&[400], &[64]),
        };
        let mut cells = Vec::new();
        for s in cell_seeds(seed, 4) {
            cells.extend(pi2_sizes.iter().map(|&n| Cell { family: Kind::Pi2, n, seed: s }));
            cells.extend(sinkless_sizes.iter().map(|&n| Cell {
                family: Kind::Sinkless,
                n,
                seed: s,
            }));
        }
        Landscape { cells }
    }
}

impl Bench for Landscape {
    type Prepared = Prepared;

    fn describe(&self) -> String {
        let list = |k: Kind| {
            let mut v: Vec<usize> =
                self.cells.iter().filter(|c| c.family == k).map(|c| c.n).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut seeds: Vec<u64> = self.cells.iter().map(|c| c.seed).collect();
        seeds.dedup();
        format!(
            "\"pi2_n_target\":{:?},\"sinkless_n\":{:?},\"cell_seeds\":{:?},\"cells\":{}",
            list(Kind::Pi2),
            list(Kind::Sinkless),
            seeds,
            self.cells.len()
        )
    }

    fn setup(&self, t: &Tracer, _dir: &Path) -> Result<Prepared, String> {
        use rayon::prelude::*;
        let instances = self
            .cells
            .par_iter()
            .map(|c| match c.family {
                Kind::Pi2 => Instance::Pi2(Box::new(t.span_work(
                    "padding.hard",
                    || hard_pi2_instance(c.n, DELTA, c.seed),
                    |i| i.graph.node_count() as f64,
                ))),
                Kind::Sinkless => Instance::Sinkless(t.span_work(
                    "graph.gen",
                    || gen::random_regular(c.n, DELTA, c.seed).expect("3-regular graph generable"),
                    |g| g.edge_count() as f64,
                )),
            })
            .collect();
        Ok(Prepared { instances })
    }

    fn pass(&self, p: &Prepared, out: &Path) -> Result<Pass, String> {
        self.traced_pass(p, &Tracer::new(false), out)
    }

    fn traced_pass(&self, p: &Prepared, t: &Tracer, out: &Path) -> Result<Pass, String> {
        let runner = BatchRunner::parallel();
        let exec = runner.node_executor();
        let index = |c: &Cell<Kind>| {
            self.cells.iter().position(|x| x == c).expect("cell belongs to the workload")
        };
        let run = t.span("bench.engine", || {
            let engine = t.current();
            runner.try_run_timed(&self.cells, |c| {
                t.span_in(
                    engine,
                    "bench.cell",
                    || run_guarded(|| measure(c, &p.instances[index(c)], exec, t)),
                    |_| 0.0,
                )
            })
        });
        let failures: Vec<String> = run
            .failures
            .iter()
            .map(|(k, e)| format!("{}:{}:{}: {e}", k.family, k.n, k.seed))
            .collect();
        t.count("bench.engine.cells", self.cells.len() as f64);
        t.count("bench.engine.failed", failures.len() as f64);
        let opts = persist_opts(out);
        persist(t, &run.report, "bench-landscape", &opts)?;
        Ok(Pass {
            report: run.report,
            cells: self.cells.len(),
            failures,
            cache_misses: 0,
            sched: None,
        })
    }

    /// Times `GadgetFamily::verify` on `build_gadget` gadgets of each Π₂
    /// instance's gadget size, once per gadget the instance holds — the
    /// verification work the padding solver's step 1 does, isolated.
    fn probe(&self, p: &Prepared, t: &Tracer) {
        let family = lcl_gadget::LogGadgetFamily::new(DELTA);
        for (c, inst) in self.cells.iter().zip(&p.instances) {
            let Instance::Pi2(inst) = inst else { continue };
            let gadgets = inst.centers.len();
            let gadget = family.balanced(inst.len() / gadgets.max(1));
            let known_n = inst.graph.node_count();
            t.span_work(
                "gadget.verifier",
                || {
                    (0..gadgets)
                        .filter(|_| family.verify(&gadget.graph, &gadget.input, known_n).all_ok())
                        .count()
                },
                |ok| {
                    assert_eq!(*ok, gadgets, "a valid gadget failed verification at {c:?}");
                    (gadgets * gadget.len()) as f64
                },
            );
        }
    }
}

fn persist_opts(out: &Path) -> CliOpts {
    CliOpts::from_args(
        ["--out", &out.to_string_lossy(), "--run-id", "pass"].into_iter().map(String::from),
    )
}

/// One cell: both solvers (or both orientation algorithms), each output
/// checked, rows as the `landscape` binary reports them.
fn measure(
    c: &Cell<Kind>,
    inst: &Instance,
    exec: EngineExec,
    t: &Tracer,
) -> Result<Vec<Row>, String> {
    match inst {
        Instance::Pi2(inst) => {
            let net = t.span("local.network", || {
                Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: c.seed })
            });
            let problem = pi2(DELTA);
            let rounds =
                |r: &lcl_padding::solver::PaddedRun<_, _>| f64::from(r.stats.physical_rounds());
            let det = t.span_work(
                "padding.solver.det",
                || pi2_det(DELTA).run_with(&net, &inst.input, c.seed, &exec),
                rounds,
            );
            let bad = t.span("padding.lifted.check", || {
                check_padded(&problem, net.graph(), &inst.input, &det.output).len()
            });
            if bad > 0 {
                return Err(format!("pi2-det: {bad} check_padded violations"));
            }
            let rand = t.span_work(
                "padding.solver.rand",
                || pi2_rand(DELTA).run_with(&net, &inst.input, c.seed, &exec),
                rounds,
            );
            let bad = t.span("padding.lifted.check", || {
                check_padded(&problem, net.graph(), &inst.input, &rand.output).len()
            });
            if bad > 0 {
                return Err(format!("pi2-rand: {bad} check_padded violations"));
            }
            let n = inst.graph.node_count();
            Ok(vec![
                row(
                    "pi2-det",
                    n,
                    c.seed,
                    f64::from(det.stats.physical_rounds()),
                    vec![
                        ("virtual".into(), f64::from(det.stats.inner_rounds)),
                        ("diam".into(), f64::from(det.stats.gadget_diameter)),
                    ],
                ),
                row(
                    "pi2-rand",
                    n,
                    c.seed,
                    f64::from(rand.stats.physical_rounds()),
                    vec![("virtual".into(), f64::from(rand.stats.inner_rounds))],
                ),
            ])
        }
        Instance::Sinkless(g) => {
            let net = t.span("local.network", || {
                Network::new(g.clone(), IdAssignment::Shuffled { seed: c.seed })
            });
            let m = net.graph().edge_count() as f64;
            let det = t.span_work(
                "algos.sinkless_det",
                || sinkless_det::run_with(&net, &sinkless_det::Params::default(), &exec),
                |_| m,
            );
            certify(t, net.graph(), det.solution(net.graph()))
                .map_err(|e| format!("sinkless-det: {e}"))?;
            let params = sinkless_rand::Params::default();
            let rand = t.span_work(
                "algos.sinkless_rand",
                || sinkless_rand::run_with(&net, &params, c.seed, &exec),
                |_| m,
            );
            certify(t, net.graph(), rand.solution(net.graph(), params.min_constrained_degree))
                .map_err(|e| format!("sinkless-rand: {e}"))?;
            Ok(vec![
                row("sinkless-det", c.n, c.seed, f64::from(det.trace.max_radius()), vec![]),
                row(
                    "sinkless-rand",
                    c.n,
                    c.seed,
                    f64::from(rand.total_rounds()),
                    vec![
                        ("phase1".into(), f64::from(rand.phase1_rounds)),
                        ("finish".into(), f64::from(rand.finish_radius)),
                    ],
                ),
            ])
        }
    }
}

fn row(series: &str, n: usize, seed: u64, measured: f64, extra: Vec<(String, f64)>) -> Row {
    Row { experiment: "E1", series: series.into(), n, seed, measured, extra }
}

/// Runs a decoded solution through `lcl_certify::certify` inside a
/// `certify` span (work: edges checked).
pub(crate) fn certify(
    t: &Tracer,
    g: &Graph,
    decoded: Result<lcl_certify::Solution, lcl_certify::Violation>,
) -> Result<(), String> {
    let sol = decoded.map_err(|v| format!("certify [{}]: {v}", v.kind()))?;
    t.span_work("certify", || lcl_certify::certify(g, &sol), |_| g.edge_count() as f64)
        .map(|_| ())
        .map_err(|v| format!("certify [{}]: {v}", v.kind()))
}
