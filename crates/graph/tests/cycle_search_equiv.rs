//! Equivalence proptests for the bidirectional short-cycle search: every
//! `CycleSearch` answer — capped shortest-cycle lengths, `girth`, and the
//! canonical minimum cycle at small enumeration caps (which pin the
//! enumeration order under truncation) — equals what a reference oracle
//! computes. The oracle is the one-sided implementation the search
//! replaced: a BFS from one endpoint of `e` in `G − e`, then a stack DFS
//! down the BFS distances from the other endpoint, canonicalizing every
//! path by materializing all of its rotations. Its bodies are kept as they
//! were, only lifted out of `CycleSearch` into free functions.
//!
//! Inputs: arbitrary multigraphs (self-loops, parallel edges), the
//! generator zoo, and random 3-regular graphs, under unique and colliding
//! node keys. A pooled sweep with one scratch per worker must match the
//! sequential sweep (run it with `LCL_POOL_THREADS` pinned to force the
//! pool on small machines).

use lcl_graph::{gen, girth, CanonicalCycle, CycleScratch, CycleSearch, EdgeId, Graph, NodeId};
use proptest::prelude::*;
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::VecDeque;

// --- Reference oracle ----------------------------------------------------

/// An oracle cycle: `(node keys, edge keys, nodes, edges)` of the
/// canonical rotation.
type Rotation = (Vec<u64>, Vec<u64>, Vec<NodeId>, Vec<EdgeId>);

fn oracle_from_closed_walk(
    nodes: &[NodeId],
    edges: &[EdgeId],
    node_key: &[u64],
    edge_key: &[u64],
) -> Rotation {
    assert_eq!(nodes.len(), edges.len(), "cycle must have equal node/edge counts");
    assert!(!nodes.is_empty(), "cycle must be nonempty");
    let len = nodes.len();
    let mut best: Option<Rotation> = None;
    // All rotations in both directions.
    for start in 0..len {
        for &dir in &[1isize, -1] {
            let mut ns = Vec::with_capacity(len);
            let mut es = Vec::with_capacity(len);
            let mut i = start as isize;
            for _ in 0..len {
                ns.push(nodes[i.rem_euclid(len as isize) as usize]);
                // Forward: edge i joins node i -> i+1. Backward from
                // position i we traverse edge (i-1) to reach node i-1.
                let e = if dir == 1 {
                    edges[i.rem_euclid(len as isize) as usize]
                } else {
                    edges[(i - 1).rem_euclid(len as isize) as usize]
                };
                es.push(e);
                i += dir;
            }
            let nk: Vec<u64> = ns.iter().map(|v| node_key[v.index()]).collect();
            let ek: Vec<u64> = es.iter().map(|e| edge_key[e.index()]).collect();
            let cand = (nk, ek, ns, es);
            if best.as_ref().is_none_or(|b| {
                (cand.0.as_slice(), cand.1.as_slice()) < (b.0.as_slice(), b.1.as_slice())
            }) {
                best = Some(cand);
            }
        }
    }
    best.expect("nonempty cycle")
}

/// The oracle's cycle order: `(length, node keys, edge keys)`.
fn oracle_cmp(a: &Rotation, b: &Rotation) -> Ordering {
    (a.2.len(), &a.0, &a.1).cmp(&(b.2.len(), &b.0, &b.1))
}

/// BFS distance from `u` to `v` not using edge `skip`.
fn dist_avoiding_edge(g: &Graph, u: NodeId, v: NodeId, skip: EdgeId) -> Option<u32> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[u.index()] = Some(0u32);
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        let d = dist[x.index()].expect("queued node has distance");
        if x == v {
            return Some(d);
        }
        for &h in g.ports(x) {
            if h.edge() == skip {
                continue;
            }
            let w = g.half_edge_peer(h);
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    None
}

fn bfs_avoiding_edge_capped(g: &Graph, source: NodeId, skip: EdgeId, cap: u32) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0u32);
    queue.push_back(source);
    while let Some(x) = queue.pop_front() {
        let d = dist[x.index()].expect("queued");
        if d >= cap {
            continue;
        }
        for &h in g.ports(x) {
            if h.edge() == skip {
                continue;
            }
            let w = g.half_edge_peer(h);
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

fn oracle_shortest_len(g: &Graph, e: EdgeId) -> Option<u32> {
    let [u, v] = g.endpoints(e);
    if u == v {
        return Some(1);
    }
    dist_avoiding_edge(g, u, v, e).map(|d| d + 1)
}

fn oracle_shortest_len_capped(g: &Graph, e: EdgeId, cap: u32) -> Option<u32> {
    let [u, v] = g.endpoints(e);
    if u == v {
        return (cap >= 1).then_some(1);
    }
    if cap < 2 {
        return None;
    }
    let dist = bfs_avoiding_edge_capped(g, u, e, cap - 1);
    dist[v.index()].map(|d| d + 1).filter(|&c| c <= cap)
}

fn oracle_girth(g: &Graph) -> Option<u32> {
    let mut best: Option<u32> = None;
    for e in g.edges() {
        let [u, v] = g.endpoints(e);
        if u == v {
            return Some(1); // cannot do better
        }
        // Shortest u-v distance avoiding edge e, +1, is the shortest cycle
        // through e.
        if let Some(d) = dist_avoiding_edge(g, u, v, e) {
            let c = d + 1;
            if best.is_none_or(|b| c < b) {
                best = Some(c);
                if c == 2 {
                    // Only a self-loop beats this, and we bail on those above
                    // within this loop anyway; keep scanning for loops.
                    continue;
                }
            }
        }
    }
    best
}

/// The oracle's canonical minimum over at most `cap` enumerated shortest
/// cycles through `e`, with the number of cycles it enumerated.
fn oracle_min_cycle(
    g: &Graph,
    e: EdgeId,
    cap: usize,
    node_key: &[u64],
    edge_key: &[u64],
) -> (Option<Rotation>, usize) {
    let [u, v] = g.endpoints(e);
    if u == v {
        return (Some(oracle_from_closed_walk(&[u], &[e], node_key, edge_key)), 1);
    }
    // Shortest u..v path length in G - e.
    let Some(target_len) = dist_avoiding_edge(g, u, v, e) else {
        return (None, 0);
    };
    // BFS from v avoiding e: dist_v[x] = dist(x, v) in G - e. Nodes
    // farther than the shortest path cannot lie on a shortest cycle, so
    // the search is capped.
    let dist_v = bfs_avoiding_edge_capped(g, v, e, target_len);
    // Enumerate shortest u-v paths by walking the BFS DAG from u,
    // decreasing dist_v by one per step; each parallel edge choice is a
    // distinct path. Bounded by `cap` completed paths.
    let mut best: Option<Rotation> = None;
    let mut produced = 0usize;
    // Iterative DFS stack: (current node, path nodes, path edges).
    let mut stack: Vec<(NodeId, Vec<NodeId>, Vec<EdgeId>)> = vec![(u, vec![u], Vec::new())];
    while let Some((x, pnodes, pedges)) = stack.pop() {
        if produced >= cap {
            break;
        }
        if x == v {
            // Close the cycle with edge e: nodes u..v, edges path + e.
            debug_assert_eq!(pedges.len() as u32, target_len);
            let mut edges = pedges.clone();
            edges.push(e);
            let c = oracle_from_closed_walk(&pnodes, &edges, node_key, edge_key);
            if best.as_ref().is_none_or(|b| oracle_cmp(&c, b).is_lt()) {
                best = Some(c);
            }
            produced += 1;
            continue;
        }
        let dx = match dist_v[x.index()] {
            Some(d) => d,
            None => continue,
        };
        for &h in g.ports(x) {
            if h.edge() == e {
                continue;
            }
            let w = g.half_edge_peer(h);
            if dist_v[w.index()] == Some(dx.wrapping_sub(1)) && dx > 0 {
                let mut ns = pnodes.clone();
                let mut es = pedges.clone();
                ns.push(w);
                es.push(h.edge());
                stack.push((w, ns, es));
            }
        }
    }
    (best, produced)
}

// --- Inputs ----------------------------------------------------------------

/// A random multigraph on `n` nodes with `m` edges (endpoints arbitrary, so
/// self-loops and parallels occur).
fn arb_multigraph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..40).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), m).prop_map(move |edges| {
            let mut g = Graph::new();
            g.add_nodes(n);
            for (a, b) in edges {
                g.add_edge(NodeId(a), NodeId(b));
            }
            g
        })
    })
}

/// One graph of the sparse generator zoo. Every family keeps the number of
/// shortest cycles through an edge small (the cap claim below).
fn build_zoo(kind: u8, a: usize, b: usize, seed: u64) -> Graph {
    match kind {
        0 => gen::cycle(a + 3),
        1 => gen::path(a + 2),
        2 => gen::random_tree(2 * a + 2, seed),
        3 => gen::grid(a % 6 + 2, b % 6 + 2),
        4 => gen::torus(a % 4 + 3, b % 4 + 3),
        5 => gen::disjoint_cycles(a % 4 + 1, b % 5 + 3),
        6 => gen::random_regular(2 * (a + 3), 3, seed).expect("generable"),
        7 => gen::random_regular_multigraph(2 * (a + 2), 3, seed).expect("generable"),
        8 => gen::hypercube((a % 5) as u32 + 1),
        9 => gen::margulis(a % 4 + 2),
        10 => gen::caterpillar(a + 2, b % 3, seed),
        11 => gen::random_lift(&gen::complete(4), a % 4 + 1, seed),
        12 => gen::gnm(a + 5, 2 * (a + 5), seed).expect("generable"),
        13 => gen::pods(a % 4 + 2, b % 4 + 3, 0, seed).expect("generable"),
        _ => gen::complete(a % 6 + 2),
    }
}

fn zoo() -> impl Strategy<Value = Graph> {
    (0u8..15, 0usize..10, 0usize..10, 0u64..8)
        .prop_map(|(kind, a, b, seed)| build_zoo(kind, a, b, seed))
}

/// Random 3-regular graphs, the deterministic algorithm's own inputs.
fn regular3() -> impl Strategy<Value = Graph> {
    (4usize..60, 0u64..1000)
        .prop_map(|(half, seed)| gen::random_regular(2 * half, 3, seed).expect("generable"))
}

/// Keys: node keys a seeded permutation of `1..=n` (unique, like LOCAL
/// ids) and edge keys the edge indices reversed; or, with `collide`, node
/// keys from 3 values and edge keys from 2 (ties between rotations and
/// between paths exercise tie-breaking).
fn keys(g: &Graph, seed: u64, collide: bool) -> (Vec<u64>, Vec<u64>) {
    let mix = |i: u64| (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
    if collide {
        return ((0..n).map(|i| mix(i) % 3).collect(), (0..m).map(|e| mix(e + n) % 2).collect());
    }
    let mut order: Vec<u64> = (0..n).collect();
    order.sort_by_key(|&i| mix(i));
    let mut node_keys = vec![0; n as usize];
    for (rank, &i) in order.iter().enumerate() {
        node_keys[i as usize] = rank as u64 + 1;
    }
    (node_keys, (0..m).map(|e| m - e).collect())
}

/// `L = 2⌈log₂ n⌉ + 1`, the deterministic algorithm's threshold.
fn threshold(g: &Graph) -> u32 {
    2 * g.node_count().max(2).next_power_of_two().trailing_zeros() + 1
}

fn as_rotation(c: &CanonicalCycle, node_key: &[u64], edge_key: &[u64]) -> Rotation {
    (
        c.nodes().iter().map(|v| node_key[v.index()]).collect(),
        c.edges().iter().map(|e| edge_key[e.index()]).collect(),
        c.nodes().to_vec(),
        c.edges().to_vec(),
    )
}

// --- Checks ----------------------------------------------------------------

/// Capped lengths at caps {1, 2, 3, L, ∞} through the convenience API and a
/// scratch shared across every query (and first used on another graph).
fn check_lengths(g: &Graph) -> Result<(), TestCaseError> {
    let s = CycleSearch::default();
    let mut scratch = CycleScratch::new();
    let warm = gen::cycle(5);
    prop_assert_eq!(s.shortest_len_with(&mut scratch, &warm, EdgeId(0), 9), Some(5));
    for e in g.edges() {
        prop_assert_eq!(s.shortest_len_through_edge(g, e), oracle_shortest_len(g, e));
        for cap in [1, 2, 3, threshold(g), u32::MAX] {
            let expect = oracle_shortest_len_capped(g, e, cap);
            prop_assert_eq!(s.shortest_len_through_edge_capped(g, e, cap), expect);
            prop_assert_eq!(s.shortest_len_with(&mut scratch, g, e, cap), expect, "cap {}", cap);
        }
    }
    prop_assert_eq!(girth(g), oracle_girth(g));
    Ok(())
}

/// Canonical minimum cycles at enumeration caps {1, 2, 4, 64}: the
/// convenience API, and `min_cycle_with` on a shared scratch, uncapped and
/// capped at `L` (`None` exactly when `γ(e) > L`).
fn check_min_cycles(g: &Graph, key_seed: u64, collide: bool) -> Result<(), TestCaseError> {
    let (nk, ek) = keys(g, key_seed, collide);
    let el = threshold(g);
    let mut scratch = CycleScratch::new();
    for cap in [1usize, 2, 4, 64] {
        let s = CycleSearch::new(cap);
        for e in g.edges() {
            let (expect, _) = oracle_min_cycle(g, e, cap, &nk, &ek);
            let got = s.min_cycle_through_edge(g, e, &nk, &ek);
            prop_assert_eq!(got.as_ref().map(|c| as_rotation(c, &nk, &ek)), expect.clone());
            let with = s.min_cycle_with(&mut scratch, g, e, u32::MAX, &nk, &ek);
            prop_assert_eq!(&with, &got, "cap {} edge {:?}", cap, e);
            let within = s.min_cycle_with(&mut scratch, g, e, el, &nk, &ek);
            let short = oracle_shortest_len_capped(g, e, el).is_some();
            prop_assert_eq!(within, if short { got } else { None });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lengths_match_oracle_on_multigraphs(g in arb_multigraph()) {
        check_lengths(&g)?;
    }

    #[test]
    fn lengths_match_oracle_on_zoo(g in zoo()) {
        check_lengths(&g)?;
    }

    #[test]
    fn min_cycles_match_oracle_on_multigraphs(
        g in arb_multigraph(), key_seed in 0u64..1000, collide in 0u8..2
    ) {
        check_min_cycles(&g, key_seed, collide == 1)?;
    }

    #[test]
    fn min_cycles_match_oracle_on_zoo(
        g in zoo(), key_seed in 0u64..1000, collide in 0u8..2
    ) {
        check_min_cycles(&g, key_seed, collide == 1)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lengths_match_oracle_on_3_regular(g in regular3()) {
        check_lengths(&g)?;
    }

    #[test]
    fn min_cycles_match_oracle_on_3_regular(g in regular3(), key_seed in 0u64..1000) {
        check_min_cycles(&g, key_seed, false)?;
    }

    /// The `CycleSearch` docs' claim: on the sparse zoo no edge has more
    /// than 64 shortest cycles, so the default cap never truncates there.
    #[test]
    fn default_cap_is_not_reached_on_the_sparse_zoo(g in zoo()) {
        let (nk, ek) = keys(&g, 7, false);
        for e in g.edges() {
            let (_, count) = oracle_min_cycle(&g, e, usize::MAX, &nk, &ek);
            prop_assert!(count <= 64, "{} shortest cycles through {:?}", count, e);
        }
    }

    /// A pooled per-edge sweep with one scratch per worker chunk (how
    /// `orient_globally` fans out) equals the sequential sweep.
    #[test]
    fn pooled_sweep_matches_sequential(g in regular3(), key_seed in 0u64..1000) {
        let (nk, ek) = keys(&g, key_seed, false);
        let s = CycleSearch::new(4);
        let el = threshold(&g);
        let sweep = |scratch: &mut CycleScratch, i: usize| {
            s.min_cycle_with(scratch, &g, EdgeId(i as u32), el, &nk, &ek)
        };
        let mut one = CycleScratch::new();
        let seq: Vec<_> = (0..g.edge_count()).map(|i| sweep(&mut one, i)).collect();
        let par: Vec<_> =
            (0..g.edge_count()).into_par_iter().map_init(CycleScratch::new, sweep).collect();
        prop_assert_eq!(seq, par);
    }
}

/// Complete graphs are where the cap binds: `K_n` has `n − 2` triangles
/// through every edge, and truncated enumeration still matches the oracle.
#[test]
fn cap_binds_on_complete_graphs() {
    let g = gen::complete(9);
    let (nk, ek) = keys(&g, 3, false);
    let (_, count) = oracle_min_cycle(&g, EdgeId(0), usize::MAX, &nk, &ek);
    assert_eq!(count, 7);
    for cap in [1usize, 2, 4, 64] {
        let s = CycleSearch::new(cap);
        for e in g.edges() {
            let got = s.min_cycle_through_edge(&g, e, &nk, &ek).map(|c| as_rotation(&c, &nk, &ek));
            assert_eq!(got, oracle_min_cycle(&g, e, cap, &nk, &ek).0);
        }
    }
}
