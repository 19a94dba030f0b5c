//! The benchmark's own tests: every workload runs at a tiny size, the
//! metric names it prints are exactly those `BENCHMARK.json` declares, and
//! a tampered row fails the digest check.

use lcl_bench::{Report, Row};
use lcl_e2e_bench::metrics::{DERIVED_METRICS, END_TO_END, LAYER_METRICS};
use lcl_e2e_bench::{run, Config, Outcome, Pass, PassCheck, Scale, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    tiny_traced(workload, trace).0
}

/// A tiny run and the path of its span file.
fn tiny_traced(workload: Workload, trace: bool) -> (Outcome, PathBuf) {
    // Tests run concurrently: every run gets its own scratch directory.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let stem = format!(
        "{}-{}-{}",
        workload.name(),
        if trace { "traced" } else { "timed" },
        RUNS.fetch_add(1, Ordering::Relaxed)
    );
    let cfg = Config {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_dir: dir.join(&stem),
        trace_file: dir.join(format!("{stem}.jsonl")),
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{stem}: {e}"));
    assert!(!cfg.work_dir.exists(), "{stem}: scratch directory left behind");
    (out, cfg.trace_file)
}

/// `(id, parent, name, start_ns, end_ns)` of every span in a span file.
fn spans(path: &PathBuf) -> Vec<(u64, Option<u64>, String, u64, u64)> {
    let text = std::fs::read_to_string(path).expect("span file written");
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\":")).expect("span field") + key.len() + 3;
        let rest = &line[at..];
        let end = rest.find([',', '}']).expect("field ends");
        rest[..end].trim_matches('"').to_string()
    };
    text.lines()
        .skip(1)
        .map(|l| {
            let num = |k: &str| field(l, k).parse::<u64>().expect("numeric field");
            let parent = field(l, "parent");
            (num("id"), parent.parse().ok(), field(l, "name"), num("start_ns"), num("end_ns"))
        })
        .collect()
}

#[test]
fn cell_spans_nest_under_the_engine_span_and_layer_spans_under_cells() {
    for w in Workload::ALL {
        let (out, path) = tiny_traced(w, true);
        assert!(out.correct);
        let all = spans(&path);
        let by_id: std::collections::HashMap<u64, &(u64, Option<u64>, String, u64, u64)> =
            all.iter().map(|s| (s.0, s)).collect();
        let mut cells = 0;
        for s in &all {
            let parent = s.1.map(|p| by_id[&p]);
            if s.2 == "bench.cell" {
                cells += 1;
                assert_eq!(parent.map(|p| p.2.as_str()), Some("bench.engine"), "{}", w.name());
            }
            if let Some(p) = parent {
                assert!(
                    p.3 <= s.3 && s.4 <= p.4,
                    "{}: {} outside its parent {}",
                    w.name(),
                    s.2,
                    p.2
                );
            }
        }
        assert!(cells > 0, "{}: no cell spans", w.name());
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        rest[..rest.find('"').expect("closed string")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn printed(out: &Outcome) -> BTreeSet<(String, String)> {
    out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

#[test]
fn every_workload_runs_correctly_at_a_tiny_size() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(w, trace);
            assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.notes);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            let line = out.json_line();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}

#[test]
fn printed_metric_names_are_exactly_the_declared_ones() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let code_e2e: BTreeSet<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    let code_layer: BTreeSet<(String, String)> = LAYER_METRICS
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(DERIVED_METRICS)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(code_e2e, end_to_end);
    assert_eq!(code_layer, per_layer);
    for w in Workload::ALL {
        assert_eq!(printed(&tiny(w, false)), end_to_end, "{}", w.name());
        assert_eq!(printed(&tiny(w, true)), per_layer, "{}", w.name());
    }
}

#[test]
fn traced_run_reports_the_layers_each_workload_exercises() {
    let value = |out: &Outcome, name: &str| {
        out.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect("metric printed")
    };
    let landscape = tiny(Workload::Landscape, true);
    for name in [
        "padding.solver.det_s",
        "padding.lifted.check_s",
        "algos.sinkless_det.busy_s",
        "gadget.verifier.busy_s",
    ] {
        assert!(value(&landscape, name) > 0.0, "landscape {name}");
    }
    let grid = tiny(Workload::ScenarioGrid, true);
    for name in
        ["local.rounds.busy_s", "local.views.busy_s", "certify.busy_s", "graph.snapshot.load_s"]
    {
        assert!(value(&grid, name) > 0.0, "scenario-grid {name}");
    }
    assert!(value(&grid, "scenario.cache.hits") > 0.0);
    assert!(value(&grid, "scenario.cache.misses").abs() < f64::EPSILON);
    let huge = tiny(Workload::HugeStore, true);
    for name in [
        "graph.gen.busy_s",
        "graph.shard_store.write_s",
        "graph.shard_store.shard_files",
        "local.rounds.node_rounds",
    ] {
        assert!(value(&huge, name) > 0.0, "huge-store {name}");
    }
    for out in [&landscape, &grid, &huge] {
        let unattributed = value(out, "bench.trace.unattributed_frac");
        assert!(
            (0.0..0.25).contains(&unattributed),
            "cell time outside layer spans: {unattributed}"
        );
    }
}

fn pass(rows: Vec<Row>) -> Pass {
    let mut report = Report::new();
    let cells = rows.len();
    for r in rows {
        report.push(r);
    }
    Pass { report, cells, failures: Vec::new(), cache_misses: 0, sched: None }
}

fn rows() -> Vec<Row> {
    (0..3)
        .map(|i| Row {
            experiment: "SCN",
            series: format!("torus/luby{i}"),
            n: 64,
            seed: 7,
            measured: 5.0 + f64::from(i),
            extra: vec![("mis_frac".into(), 0.25)],
        })
        .collect()
}

#[test]
fn a_tampered_row_trips_the_digest_check() {
    let recorded = lcl_e2e_bench::digest::rows_digest(&pass(rows()).report);
    let mut check = PassCheck::new(Some(recorded));
    check.check("clean", &pass(rows()));
    assert!(check.correct && check.failed == 0);

    let tamper: [fn(&mut Vec<Row>); 3] =
        [|r| r[1].measured += 1.0, |r| r[2].extra[0].1 = 0.5, |r| r.swap(0, 2)];
    for t in tamper {
        let mut bad = rows();
        t(&mut bad);
        let mut check = PassCheck::new(Some(recorded));
        check.check("tampered", &pass(bad));
        assert!(!check.correct);
        assert_eq!(check.failed, 3, "a digest mismatch fails every cell of the pass");
    }

    // Without a recorded value the first pass is the reference.
    let mut check = PassCheck::new(None);
    check.check("first", &pass(rows()));
    let mut bad = rows();
    bad[0].seed = 8;
    check.check("second", &pass(bad));
    assert!(!check.correct);
    assert_eq!((check.attempted, check.failed), (6, 3));
}
