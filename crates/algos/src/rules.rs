//! The global orientation rule `F` of the deterministic algorithm.
//!
//! `F` maps `(graph, identifiers, L)` to an orientation of every edge such
//! that every node lying in or hanging off the "short-cycle core"
//! `C = {u : γ(u) ≤ L}` (where `γ(u)` is the length of the shortest cycle
//! through `u`) receives an out-edge. The rule is **edge-decomposable**:
//! the direction of each edge is a function of quantities (`d`, `γ`, the
//! canonical cycle `f(e)`, identifiers) that a node can compute exactly
//! from a sufficiently large ball, which is what makes the distributed
//! simulation in [`crate::sinkless_det`] legal. (The randomized algorithm's
//! finisher does not use `F`: [`crate::sinkless_rand`] orients residual
//! components with its own `solve_residual_component`.)
//!
//! **Why core nodes get out-edges.** Write `f(e)` for the canonical minimum
//! among the shortest cycles through `e` (the [`CycleSearch`] order: length,
//! then canonical key sequences), and for a core node `v` let `K*(v)` be
//! the minimum of `f(e)` over the edges `e` at `v` with `γ(e) ≤ L`. `K*(v)`
//! passes through `v` along two edges `e₁, e₂` (one, for a self-loop), and
//! `f(eᵢ) = K*(v)`: a cycle through `eᵢ` shorter than `K*(v)` would also
//! pass through `v` and undercut `K*(v)`, so `K*(v)` is among the shortest
//! cycles through `eᵢ` and `f(eᵢ) ≤ K*(v)`; minimality gives `≥`. Every
//! edge with `γ(e) ≤ L` (both its endpoints are then core) is oriented
//! along `f(e)`, and `K*(v)`'s canonical direction leaves `v` through
//! exactly one of `e₁, e₂`, so `v` has an out-edge. Both endpoints of `e`
//! evaluate `f(e)` on the same certified ball, so they agree on its
//! direction. The argument assumes `K*(v)` is among the cycles enumerated
//! for `eᵢ`; an enumeration cap below the number of shortest cycles
//! through `eᵢ` can break that (endpoint agreement survives any cap). The
//! unit test `fixed_point_property_on_two_triangles_sharing_an_edge` in
//! `lcl-graph` checks the fixed point on a small instance.
//!
//! Per-component case analysis:
//!
//! 1. **Core component** (`C` intersects it): distances `d(·)` to `C` are
//!    finite. Edges orient *downhill* in `d` (ties above 0 by identifier,
//!    larger to smaller); edges with both endpoints in `C` orient along the
//!    canonical minimum shortest cycle `f(e)` when `γ(e) ≤ L`, otherwise by
//!    identifier. Every node gets an out-edge: downhill nodes via a parent,
//!    core nodes via their minimum cycle `K*(v)` (both `K*`-edges at `v`
//!    select `K*`, whose canonical direction leaves `v` exactly once).
//! 2. **Cyclic component without core nodes** (all cycles longer than `L`):
//!    the canonical minimum girth cycle of the component plays the role of
//!    `C`. Only reachable by saturation (the component is smaller than its
//!    cycles' certification radius), so the global computation is honest.
//! 3. **Forest component**: root at the minimum-identifier node, orient all
//!    edges parent→child; internal nodes (the only ones of degree ≥ 3)
//!    have children, hence out-edges.

use lcl_core::problems::Orient;
use lcl_core::Labeling;
use lcl_graph::{CycleScratch, CycleSearch, EdgeId, Graph, NodeId, Side};
use lcl_local::NodeExecutor;
use std::collections::VecDeque;

/// Per-node analysis produced alongside the orientation: which rule branch
/// its component used and its distance to the core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeAnalysis {
    /// Distance to the core set of the node's component (`0` for core
    /// nodes; `u32::MAX` markers never escape: forests use the root as a
    /// pseudo-core).
    pub dist_to_core: u32,
    /// Which branch of the rule the node's component fell into.
    pub branch: Branch,
}

/// The rule branch a component fell into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Short-cycle core exists (case 1).
    Core,
    /// No short cycles, but some cycle (case 2).
    LongCycle,
    /// Acyclic (case 3).
    Forest,
}

/// The global orientation function `F`.
///
/// `ids` are the LOCAL identifiers (`ids[v]` for node `v`), `short_cycle_cap`
/// is the threshold `L`, and `search` bounds canonical-cycle enumeration.
/// Returns the orientation (as a sinkless-orientation output labeling) and
/// the per-node analysis.
///
/// The per-edge short-cycle work — `γ(e) ≤ L` and, for those edges, the
/// canonical cycle `f(e)` — fans across `exec` with one [`CycleScratch`]
/// per worker. Each edge's result is a pure function of the input, so the
/// output is bit-identical under any executor.
#[must_use]
pub fn orient_globally<X: NodeExecutor>(
    g: &Graph,
    ids: &[u64],
    short_cycle_cap: u32,
    search: &CycleSearch,
    exec: &X,
) -> (Labeling<Orient>, Vec<NodeAnalysis>) {
    assert_eq!(ids.len(), g.node_count(), "one id per node");
    let edge_keys: Vec<u64> = g.edges().map(|e| u64::from(e.0)).collect();
    // Per edge with γ(e) ≤ L: the endpoint that `f(e)`'s canonical
    // direction leaves from (`None` iff γ(e) > L).
    let cycle_source: Vec<Option<NodeId>> =
        exec.map_nodes_init(g.edge_count(), CycleScratch::new, |scratch, ei| {
            let e = EdgeId(ei as u32);
            let k = search.min_cycle_with(scratch, g, e, short_cycle_cap, ids, &edge_keys)?;
            let i = k.edges().iter().position(|&x| x == e).expect("e on its own cycle");
            Some(k.nodes()[i])
        });

    // Node memberships: γ(u) ≤ L iff some incident edge has γ(e) ≤ L.
    let mut is_core = vec![false; g.node_count()];
    for e in g.edges() {
        if cycle_source[e.index()].is_some() {
            let [a, b] = g.endpoints(e);
            is_core[a.index()] = true;
            is_core[b.index()] = true;
        }
    }

    let comps = lcl_graph::connected_components(g);
    let mut analysis: Vec<NodeAnalysis> =
        vec![NodeAnalysis { dist_to_core: 0, branch: Branch::Forest }; g.node_count()];
    let mut dist: Vec<u32> = vec![u32::MAX; g.node_count()];
    // Per-edge orientation: Some(side) = the side that is the source.
    let mut source: Vec<Option<Side>> = vec![None; g.edge_count()];

    for comp in &comps {
        let branch;
        let core_nodes: Vec<NodeId> =
            comp.nodes.iter().copied().filter(|v| is_core[v.index()]).collect();
        let core_set: Vec<NodeId> = if !core_nodes.is_empty() {
            branch = Branch::Core;
            core_nodes
        } else {
            // Any cycle at all? The component is acyclic iff |E| = |V| - 1
            // within it (connected).
            let internal_edges = comp.nodes.iter().map(|&v| g.ports(v).len()).sum::<usize>() / 2;
            if internal_edges >= comp.nodes.len() {
                branch = Branch::LongCycle;
                // Canonical minimum girth cycle of the component: cycles
                // order by length first, so the minimum over all edges'
                // `f(e)` is the minimum over the girth edges'.
                let mut scratch = CycleScratch::new();
                let k = comp
                    .nodes
                    .iter()
                    .flat_map(|&v| g.ports(v).iter().map(|h| h.edge()))
                    .filter_map(|e| {
                        search.min_cycle_with(&mut scratch, g, e, u32::MAX, ids, &edge_keys)
                    })
                    .min()
                    .expect("cyclic component has a cycle");
                // Orient K canonically right away.
                for (i, &e) in k.edges().iter().enumerate() {
                    let src = k.nodes()[i];
                    let [a, _] = g.endpoints(e);
                    source[e.index()] = Some(if a == src { Side::A } else { Side::B });
                }
                k.nodes().to_vec()
            } else {
                branch = Branch::Forest;
                // Pseudo-core: the minimum-id node of the component.
                let root = comp
                    .nodes
                    .iter()
                    .copied()
                    .min_by_key(|v| ids[v.index()])
                    .expect("nonempty component");
                vec![root]
            }
        };

        // Multi-source BFS from the core set within the component.
        let mut queue = VecDeque::new();
        for &c in &core_set {
            dist[c.index()] = 0;
            queue.push_back(c);
        }
        while let Some(x) = queue.pop_front() {
            let dx = dist[x.index()];
            for (w, _) in g.neighbors(x) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = dx + 1;
                    queue.push_back(w);
                }
            }
        }
        for &v in &comp.nodes {
            analysis[v.index()] = NodeAnalysis { dist_to_core: dist[v.index()], branch };
        }
    }

    // Orient every remaining edge.
    for e in g.edges() {
        if source[e.index()].is_some() {
            continue; // long-cycle K edges already oriented
        }
        let [u, v] = g.endpoints(e);
        if u == v {
            source[e.index()] = Some(Side::A);
            continue;
        }
        let (du, dv) = (dist[u.index()], dist[v.index()]);
        let branch = analysis[u.index()].branch;
        let src_node = if branch == Branch::Forest {
            // Parent→child: the endpoint closer to the root is the source.
            if du <= dv {
                u
            } else {
                v
            }
        } else if du > dv {
            u
        } else if dv > du {
            v
        } else if du == 0 && branch == Branch::Core {
            // Both in the core: canonical-cycle rule when γ(e) ≤ L.
            if let Some(src) = cycle_source[e.index()] {
                src
            } else if ids[u.index()] > ids[v.index()] {
                u
            } else {
                v
            }
        } else {
            // Equal positive distance (or both on the long cycle's BFS
            // frontier): break ties by identifier, larger is the source.
            if ids[u.index()] > ids[v.index()] {
                u
            } else {
                v
            }
        };
        source[e.index()] = Some(if src_node == u { Side::A } else { Side::B });
    }

    let labeling = Labeling::build(
        g,
        |_| Orient::Blank,
        |_| Orient::Blank,
        |h| {
            let src = source[h.edge().index()].expect("all edges oriented");
            if h.side() == src {
                Orient::Out
            } else {
                Orient::In
            }
        },
    );
    (labeling, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problems::SinklessOrientation;
    use lcl_core::{check, Labeling as L};
    use lcl_graph::gen;
    use lcl_local::Sequential;

    fn ids_for(g: &Graph) -> Vec<u64> {
        g.nodes().map(|v| u64::from(v.0) + 1).collect()
    }

    fn assert_sinkless(g: &Graph, min_deg: usize) {
        let ids = ids_for(g);
        let (out, _) = orient_globally(g, &ids, 9, &CycleSearch::default(), &Sequential);
        let input = L::uniform(g, ());
        let problem = SinklessOrientation { min_constrained_degree: min_deg };
        check(&problem, g, &input, &out).expect_ok();
    }

    #[test]
    fn orients_cycles_without_sinks() {
        assert_sinkless(&gen::cycle(7), 2);
        assert_sinkless(&gen::cycle(30), 2);
    }

    #[test]
    fn orients_random_regular_without_sinks() {
        for seed in 0..5 {
            let g = gen::random_regular(40, 3, seed).unwrap();
            assert_sinkless(&g, 3);
        }
    }

    #[test]
    fn orients_multigraphs_with_loops() {
        let mut g = gen::cycle(4);
        g.add_edge(NodeId(0), NodeId(0));
        g.add_edge(NodeId(1), NodeId(2));
        assert_sinkless(&g, 3);
    }

    #[test]
    fn forest_branch_has_no_high_degree_sinks() {
        let g = gen::complete_binary_tree(5);
        let ids = ids_for(&g);
        let (out, analysis) = orient_globally(&g, &ids, 9, &CycleSearch::default(), &Sequential);
        assert!(analysis.iter().all(|a| a.branch == Branch::Forest));
        let input = L::uniform(&g, ());
        check(&SinklessOrientation::new(), &g, &input, &out).expect_ok();
    }

    #[test]
    fn long_cycle_branch_kicks_in() {
        // Cycle of length 40 with cap 9: no short cycles, not a forest.
        let g = gen::cycle(40);
        let ids = ids_for(&g);
        let (out, analysis) = orient_globally(&g, &ids, 9, &CycleSearch::default(), &Sequential);
        assert!(analysis.iter().all(|a| a.branch == Branch::LongCycle));
        let input = L::uniform(&g, ());
        check(&SinklessOrientation { min_constrained_degree: 2 }, &g, &input, &out).expect_ok();
    }

    #[test]
    fn core_branch_reports_distances() {
        // Triangle with a path of length 3 hanging off.
        let mut g = gen::cycle(3);
        let p0 = g.add_node();
        let p1 = g.add_node();
        g.add_edge(NodeId(0), p0);
        g.add_edge(p0, p1);
        let ids = ids_for(&g);
        let (_, analysis) = orient_globally(&g, &ids, 9, &CycleSearch::default(), &Sequential);
        assert_eq!(analysis[0].branch, Branch::Core);
        assert_eq!(analysis[0].dist_to_core, 0);
        assert_eq!(analysis[p0.index()].dist_to_core, 1);
        assert_eq!(analysis[p1.index()].dist_to_core, 2);
    }

    #[test]
    fn hanging_trees_point_toward_core() {
        let mut g = gen::cycle(3);
        let p0 = g.add_node();
        let e = g.add_edge(NodeId(0), p0);
        let ids = ids_for(&g);
        let (out, _) = orient_globally(&g, &ids, 9, &CycleSearch::default(), &Sequential);
        // The hanging edge must be oriented p0 -> node0 (downhill).
        use lcl_graph::HalfEdge;
        assert_eq!(*out.half(HalfEdge::new(e, Side::B)), lcl_core::problems::Orient::Out);
    }

    #[test]
    fn disconnected_inputs_handled_per_component() {
        let mut g = gen::cycle(5);
        g.append(&gen::complete_binary_tree(3));
        g.append(&gen::cycle(20));
        assert_sinkless(&g, 3);
    }
}
