//! Equivalence proptests for the bit-parallel eccentricity kernel: every
//! eccentricity it reports, and every number computed from those, equals
//! what one `bfs_distances` per node computes. The oracles are the per-node
//! loops the kernel replaced, kept here as they were:
//!
//! * the kernel itself and `diameter` against one BFS per source / node;
//! * `run_verifier`'s radii (exact branch and triangle-inequality branch)
//!   on valid gadgets, every `corrupt::Corruption` variant, and disjoint
//!   unions of gadgets;
//! * `sinkless_det`'s full radius vector, under `&Sequential` and a pooled
//!   executor with one scratch per worker, at `cycle_cap` ∈ {1, 4, 64}
//!   (run it with `LCL_POOL_THREADS` pinned to force the pool on small
//!   machines). Random 3-regular graphs take the small caps only on fixed
//!   instances: there a cap below a shortest-cycle multiplicity can break
//!   the orientation, which debug builds' self-certification rejects.
//!
//! Inputs: arbitrary multigraphs (self-loops, parallel edges, isolated
//! nodes, disconnected), the generator zoo, random 3-regular graphs, and
//! short cycles with long legs (where scheduled radii and eccentricities
//! cross);
//! source lists of length 0, 1, 63, 64, 65 and 200 with duplicates, in
//! arbitrary order.

use lcl_algos::rules::{Branch, NodeAnalysis};
use lcl_algos::sinkless_det;
use lcl_gadget::corrupt::{self, Corruption};
use lcl_gadget::verifier::gather_bound;
use lcl_gadget::{build_gadget, run_verifier, Dir, GadgetIn, GadgetSpec};
use lcl_graph::{
    bfs_distances, connected_components, diameter, eccentricities, gen, EccScratch, Graph, NodeId,
    Side,
};
use lcl_local::{IdAssignment, Network, NodeExecutor, Sequential};
use proptest::prelude::*;
use rayon::prelude::*;

// --- Reference oracles ---------------------------------------------------

/// Eccentricity of `v` within its component: one full BFS.
fn oracle_ecc(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)
}

/// The BFS-from-every-node diameter.
fn oracle_diameter(g: &Graph) -> u32 {
    let mut best = 0;
    for v in g.nodes() {
        for d in bfs_distances(g, v).into_iter().flatten() {
            best = best.max(d);
        }
    }
    best
}

/// Algorithm V's radii: `min(R, ecc)` by one BFS per node on components of
/// at most 2048 nodes, the triangle-inequality bound above.
fn oracle_verifier_radii(g: &Graph, known_n: usize) -> Vec<u32> {
    let r_bound = gather_bound(known_n);
    let mut radii = vec![0u32; g.node_count()];
    for comp in &connected_components(g) {
        if comp.nodes.len() <= 2048 {
            for &v in &comp.nodes {
                let ecc = {
                    let d = bfs_distances(g, v);
                    comp.nodes.iter().filter_map(|w| d[w.index()]).max().unwrap_or(0)
                };
                radii[v.index()] = r_bound.min(ecc);
            }
        } else {
            let anchor = comp.nodes[0];
            let d = bfs_distances(g, anchor);
            let ecc_anchor = comp.nodes.iter().filter_map(|w| d[w.index()]).max().unwrap_or(0);
            for &v in &comp.nodes {
                let bound = d[v.index()].unwrap_or(0) + ecc_anchor;
                radii[v.index()] = r_bound.min(bound);
            }
        }
    }
    radii
}

/// `sinkless_det`'s certification radii from its rule analysis: the
/// scheduled radius when the anchor bound proves it below saturation,
/// otherwise one BFS for the exact eccentricity.
fn oracle_sinkless_radii(g: &Graph, analysis: &[NodeAnalysis], el: u32) -> Vec<u32> {
    let mut ecc_lb: Vec<u32> = vec![0; g.node_count()];
    for comp in connected_components(g) {
        let anchor = comp.nodes[0];
        let d = bfs_distances(g, anchor);
        let ecc_anchor = comp.nodes.iter().filter_map(|w| d[w.index()]).max().unwrap_or(0);
        for &v in &comp.nodes {
            let dav = d[v.index()].expect("component member reachable");
            ecc_lb[v.index()] = dav.max(ecc_anchor.saturating_sub(dav));
        }
    }
    g.nodes()
        .map(|v| {
            let need = {
                let mut worst = analysis[v.index()].dist_to_core;
                let infinite_core = analysis[v.index()].branch != Branch::Core;
                for (w, _) in g.neighbors(v) {
                    worst = worst.max(analysis[w.index()].dist_to_core);
                }
                if infinite_core {
                    None
                } else {
                    let target = worst + el + 2;
                    let step = el + 1;
                    let mut r = el + 3;
                    while r < target {
                        r += step;
                    }
                    Some(r)
                }
            };
            match need {
                Some(r) if r <= ecc_lb[v.index()] => r,
                _ => {
                    let ecc = bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0);
                    need.map_or(ecc, |r| r.min(ecc))
                }
            }
        })
        .collect()
}

/// Worker-pool executor with rayon's per-worker scratch, as the experiment
/// engine's `Parallel` fans out.
struct Pooled;

impl NodeExecutor for Pooled {
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..len).into_par_iter().map(f).collect()
    }

    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        items.par_iter_mut().enumerate().for_each(|(i, item)| f(i, item));
    }

    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        (0..len).into_par_iter().map_init(init, f).collect()
    }
}

// --- Inputs --------------------------------------------------------------

fn arb_multigraph() -> impl Strategy<Value = Graph> {
    (1usize..40, 0usize..60).prop_flat_map(|(n, m)| {
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
    (0u8..15, 0usize..40, 0usize..10, 0u64..8)
        .prop_map(|(kind, a, b, seed)| build_zoo(kind, a, b, seed))
}

fn regular3() -> impl Strategy<Value = Graph> {
    (4usize..80, 0u64..1000)
        .prop_map(|(half, seed)| gen::random_regular(2 * half, 3, seed).expect("generable"))
}

/// A short cycle through node 0 with long paths hanging off its nodes:
/// one core, long distances to it, and an anchor (node 0) whose
/// triangle-inequality bound is loose for nodes out on the legs, so
/// scheduled radii fall on both sides of the exact eccentricities.
fn spider() -> impl Strategy<Value = Graph> {
    (3usize..6, proptest::collection::vec((0usize..6, 1usize..40), 1..5)).prop_map(
        |(cycle_len, legs)| {
            let mut g = gen::cycle(cycle_len);
            for (at, len) in legs {
                let mut prev = NodeId((at % cycle_len) as u32);
                for _ in 0..len {
                    let v = g.add_node();
                    g.add_edge(prev, v);
                    prev = v;
                }
            }
            g
        },
    )
}

/// The source-list lengths: empty, one, and either side of a 64-bit batch
/// boundary, then several batches.
const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 200];

/// A source list of length `len` drawn with repetition from `g`'s nodes
/// (so duplicates are certain on small graphs), in seeded order.
fn sources(g: &Graph, len: usize, seed: u64) -> Vec<NodeId> {
    let n = g.node_count() as u64;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            NodeId((x % n) as u32)
        })
        .collect()
}

/// Kernel vs oracle for every source length, through a fresh scratch per
/// call and through one scratch shared by all the calls.
fn check_kernel(g: &Graph, seed: u64, shared: &mut EccScratch) -> Result<(), TestCaseError> {
    for (i, len) in LENGTHS.into_iter().enumerate() {
        let src = sources(g, len, seed + i as u64);
        let want: Vec<u32> = src.iter().map(|&v| oracle_ecc(g, v)).collect();
        prop_assert_eq!(&eccentricities(g, &src), &want, "len {}", len);
        prop_assert_eq!(&shared.eccentricities(g, &src), &want, "shared scratch, len {}", len);
    }
    let all: Vec<NodeId> = g.nodes().collect();
    let want: Vec<u32> = all.iter().map(|&v| oracle_ecc(g, v)).collect();
    prop_assert_eq!(shared.eccentricities(g, &all), want, "every node in index order");
    prop_assert_eq!(diameter(g), oracle_diameter(g));
    Ok(())
}

/// The enumeration caps the radii are pinned at.
const CAPS: [usize; 3] = [1, 4, 64];

/// `sinkless_det`'s radii under both executors equal the oracle's, and the
/// pooled run equals the sequential one in full.
fn check_sinkless(g: Graph, seed: u64, caps: &[usize]) -> Result<(), TestCaseError> {
    let net = Network::new(g, IdAssignment::Shuffled { seed });
    let el = sinkless_det::short_cycle_threshold(net.known_n());
    for &cycle_cap in caps {
        let params = sinkless_det::Params { cycle_cap, ..Default::default() };
        let seq = sinkless_det::run_with(&net, &params, &Sequential);
        let want = oracle_sinkless_radii(net.graph(), &seq.analysis, el);
        prop_assert_eq!(seq.trace.radii(), &want[..], "sequential, cap {}", cycle_cap);
        let par = sinkless_det::run_with(&net, &params, &Pooled);
        prop_assert_eq!(par.trace.radii(), &want[..], "pooled, cap {}", cycle_cap);
        prop_assert_eq!(&par.labeling, &seq.labeling);
        prop_assert_eq!(&par.analysis, &seq.analysis);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernel_matches_oracle_on_multigraphs(g in arb_multigraph(), seed in 0u64..1000) {
        check_kernel(&g, seed, &mut EccScratch::new())?;
    }

    #[test]
    fn kernel_matches_oracle_on_zoo(g in zoo(), seed in 0u64..1000) {
        check_kernel(&g, seed, &mut EccScratch::new())?;
    }

    /// A scratch that served one graph answers the next exactly, larger
    /// or smaller (its tables must all be zero again between queries).
    #[test]
    fn scratch_carries_over_between_graphs(a in zoo(), b in arb_multigraph(), seed in 0u64..1000) {
        let mut shared = EccScratch::new();
        check_kernel(&a, seed, &mut shared)?;
        check_kernel(&b, seed, &mut shared)?;
    }

    #[test]
    fn verifier_radii_match_oracle_on_corruptions(
        delta in 1usize..4, height in 1u32..5, seed in 0u64..10_000
    ) {
        let b = build_gadget(&GadgetSpec::uniform(delta, height));
        let c = corrupt::random_corruption(&b, seed);
        let (g, input) = corrupt::apply(&b, &c);
        for known_n in [g.node_count(), 3, 1 << 20] {
            let out = run_verifier(&g, &input, delta, known_n);
            prop_assert_eq!(
                out.trace.radii(), &oracle_verifier_radii(&g, known_n)[..], "{:?}", c
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matches_oracle_on_3_regular(g in regular3(), seed in 0u64..1000) {
        check_kernel(&g, seed, &mut EccScratch::new())?;
    }

    /// At the default cap only: on random 3-regular graphs a cap below a
    /// node's shortest-cycle multiplicity can break the rule's endpoint
    /// consistency (see `lcl_algos::rules`), and debug builds self-certify
    /// every run. The small caps run on the fixed instances below.
    #[test]
    fn sinkless_det_radii_match_oracle_on_3_regular(g in regular3(), seed in 0u64..1000) {
        check_sinkless(g, seed, &[64])?;
    }

    #[test]
    fn sinkless_det_radii_match_oracle_on_multigraphs(g in arb_multigraph(), seed in 0u64..1000) {
        check_sinkless(g, seed, &CAPS)?;
    }

    #[test]
    fn sinkless_det_radii_match_oracle_on_zoo(g in zoo(), seed in 0u64..1000) {
        check_sinkless(g, seed, &CAPS)?;
    }

    #[test]
    fn sinkless_det_radii_match_oracle_on_spiders(g in spider(), seed in 0u64..1000) {
        check_sinkless(g, seed, &CAPS)?;
    }
}

/// Every cap on the engine-determinism suite's 3-regular instances (they
/// certify at every cap), and the default cap at the benchmark's larger
/// sinkless size, where many 64-source batches fan across the pool.
#[test]
fn sinkless_det_radii_match_oracle_at_every_cap_on_3_regular() {
    for (n, seed, caps) in [(96, 2u64, &CAPS[..]), (96, 11, &CAPS[..]), (1536, 4, &[64][..])] {
        let g = gen::random_regular(n, 3, seed).expect("generable");
        check_sinkless(g, seed, caps).unwrap_or_else(|e| panic!("n {n}, seed {seed}: {e}"));
    }
}

/// Every `Corruption` variant, on gadgets of every family size used here,
/// alone and next to a valid gadget in one disconnected input.
#[test]
fn verifier_radii_match_oracle_on_every_corruption_variant() {
    for delta in 1..=3usize {
        for height in 1..=4u32 {
            let b = build_gadget(&GadgetSpec::uniform(delta, height));
            let n = b.graph.node_count() as u32;
            let m = b.graph.edge_count() as u32;
            let variants = [
                Corruption::DeleteEdge(0),
                Corruption::RelabelHalf { edge: m / 2, side: Side::B, dir: Dir::Right },
                Corruption::ChangeIndex { node: n - 1, index: delta as u8 },
                Corruption::TogglePort(n / 2),
                Corruption::AddEdge { a: 0, b: n - 1, dir_a: Dir::Right, dir_b: Dir::Left },
                Corruption::CopyColor { from: 0, to: n - 1 },
            ];
            let valid = run_verifier(&b.graph, &b.input, delta, b.len());
            assert_eq!(valid.trace.radii(), &oracle_verifier_radii(&b.graph, b.len())[..]);
            assert_eq!(diameter(&b.graph), oracle_diameter(&b.graph));
            for c in &variants {
                let (g, input) = corrupt::apply(&b, c);
                let out = run_verifier(&g, &input, delta, g.node_count());
                assert_eq!(out.trace.radii(), &oracle_verifier_radii(&g, g.node_count())[..]);
                let (ug, uin) = union((&g, &input), (&b.graph, &b.input));
                let out = run_verifier(&ug, &uin, delta, ug.node_count());
                assert_eq!(out.trace.radii(), &oracle_verifier_radii(&ug, ug.node_count())[..]);
            }
        }
    }
}

/// A gadget above the exact branch's 2048-node limit keeps the triangle
/// bound; a smaller one next to it in the same input stays exact.
#[test]
fn verifier_radii_match_oracle_across_the_exact_limit() {
    let big = build_gadget(&GadgetSpec::uniform(2, 11));
    let small = build_gadget(&GadgetSpec::uniform(3, 6));
    assert!(big.len() > 2048 && small.len() <= 2048);
    let (g, input) = union((&big.graph, &big.input), (&small.graph, &small.input));
    let out = run_verifier(&g, &input, 2, g.node_count());
    assert_eq!(out.trace.radii(), &oracle_verifier_radii(&g, g.node_count())[..]);
}

/// The disjoint union of two labeled gadget graphs.
fn union(
    a: (&Graph, &lcl_core::Labeling<GadgetIn>),
    b: (&Graph, &lcl_core::Labeling<GadgetIn>),
) -> (Graph, lcl_core::Labeling<GadgetIn>) {
    let mut g = a.0.clone();
    let off = g.append(b.0);
    let m = a.0.edge_count() as u32;
    let input = lcl_core::Labeling::build(
        &g,
        |v| if v.0 < off.0 { *a.1.node(v) } else { *b.1.node(NodeId(v.0 - off.0)) },
        |e| if e.0 < m { *a.1.edge(e) } else { *b.1.edge(lcl_graph::EdgeId(e.0 - m)) },
        |h| {
            if h.edge().0 < m {
                *a.1.half(h)
            } else {
                *b.1.half(lcl_graph::HalfEdge::new(lcl_graph::EdgeId(h.edge().0 - m), h.side()))
            }
        },
    );
    (g, input)
}
