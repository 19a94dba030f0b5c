//! Criterion benchmarks for the graph substrate's hot primitives: ball
//! extraction (the inner loop of the view engine), shortest-cycle search
//! (the inner loop of deterministic sinkless orientation), on a scratch
//! reused across edges as the orientation sweep does, and every node's
//! eccentricity (algorithm V's radii, gadget diameters, sinkless radius
//! accounting) by the bit-parallel kernel next to one BFS per node.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_gadget::{build_gadget, GadgetSpec};
use lcl_graph::{bfs_distances, gen, Ball, CycleScratch, CycleSearch, EccScratch, Graph, NodeId};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph-primitives");
    group.sample_size(20);
    for &n in &[1024usize, 8192] {
        let g = gen::random_regular(n, 3, 1).expect("generable");
        for &r in &[4u32, 8] {
            group.bench_with_input(BenchmarkId::new(format!("ball-r{r}"), n), &g, |b, g| {
                b.iter(|| Ball::extract(g, NodeId(0), r));
            });
        }
        let s = CycleSearch::default();
        let mut scratch = CycleScratch::new();
        group.bench_with_input(BenchmarkId::new("girth-capped-25", n), &g, |b, g| {
            b.iter(|| {
                g.edges()
                    .take(64)
                    .filter_map(|e| s.shortest_len_with(&mut scratch, g, e, 25))
                    .count()
            });
        });
        let keys: Vec<u64> = (0..g.node_count().max(g.edge_count()) as u64).collect();
        group.bench_with_input(BenchmarkId::new("min-cycle-capped-25", n), &g, |b, g| {
            b.iter(|| {
                g.edges()
                    .take(64)
                    .filter_map(|e| s.min_cycle_with(&mut scratch, g, e, 25, &keys, &keys))
                    .count()
            });
        });
        group.bench_with_input(BenchmarkId::new("bfs-full", n), &g, |b, g| {
            b.iter(|| lcl_graph::bfs_distances(g, NodeId(0)));
        });
    }
    group.finish();
}

/// All-node eccentricities, kernel vs per-node BFS. The long path and
/// cycle are the kernel's worst case (64 sources there share little
/// frontier); the grid, the 3-regular graph and the balanced Δ=3 gadget
/// are the shapes the callers see.
fn bench_eccentricities(c: &mut Criterion) {
    let mut group = c.benchmark_group("eccentricities");
    group.sample_size(10);
    let graphs: [(&str, Graph); 5] = [
        ("path-2048", gen::path(2048)),
        ("cycle-2048", gen::cycle(2048)),
        ("grid-64x32", gen::grid(64, 32)),
        ("3-regular-1536", gen::random_regular(1536, 3, 1).expect("generable")),
        ("gadget-d3-h9", build_gadget(&GadgetSpec::uniform(3, 9)).graph),
    ];
    for (name, g) in &graphs {
        let sources: Vec<NodeId> = g.nodes().collect();
        let mut scratch = EccScratch::new();
        group.bench_with_input(BenchmarkId::new("kernel", name), g, |b, g| {
            b.iter(|| scratch.eccentricities(g, &sources));
        });
        group.bench_with_input(BenchmarkId::new("per-node-bfs", name), g, |b, g| {
            b.iter(|| {
                sources
                    .iter()
                    .map(|&v| bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0))
                    .collect::<Vec<u32>>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_eccentricities);
criterion_main!(benches);
