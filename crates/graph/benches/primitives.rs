//! Criterion benchmarks for the graph substrate's hot primitives: ball
//! extraction (the inner loop of the view engine) and shortest-cycle
//! search (the inner loop of deterministic sinkless orientation), on a
//! scratch reused across edges as the orientation sweep does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_graph::{gen, Ball, CycleScratch, CycleSearch, NodeId};

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

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
