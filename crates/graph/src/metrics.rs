//! Global graph metrics: girth and diameter.

use crate::{bfs_distances, eccentricities, CycleScratch, CycleSearch, Graph, NodeId};

/// Length of a shortest cycle, or `None` if the graph is acyclic.
///
/// Multigraph conventions: a self-loop is a cycle of length 1; a pair of
/// parallel edges is a cycle of length 2. One [`CycleScratch`] serves every
/// edge, and each edge's search is capped below the best length so far.
#[must_use]
pub fn girth(g: &Graph) -> Option<u32> {
    let search = CycleSearch::default();
    let mut scratch = CycleScratch::new();
    let mut best: Option<u32> = None;
    for e in g.edges() {
        let cap = best.map_or(u32::MAX, |b| b - 1);
        if let Some(c) = search.shortest_len_with(&mut scratch, g, e, cap) {
            best = Some(c);
            if c == 1 {
                break;
            }
        }
    }
    best
}

/// Maximum over nodes of the eccentricity within their component, i.e. the
/// largest finite BFS distance in the graph. Returns 0 for graphs with at
/// most one node per component.
///
/// Exact: every node's eccentricity through the bit-parallel kernel
/// ([`crate::EccScratch`]), 64 nodes per BFS. It never visits more nodes
/// than one BFS per node would, and one visit serves up to 64 sources
/// when they reach a node at the same level, so it is fast on
/// low-diameter graphs such as gadgets (the padding solver calls it once
/// per valid gadget). It is still quadratic on long paths; for large
/// experiment instances [`diameter_estimate`] is linear.
#[must_use]
pub fn diameter(g: &Graph) -> u32 {
    let sources: Vec<NodeId> = g.nodes().collect();
    eccentricities(g, &sources).into_iter().max().unwrap_or(0)
}

/// Double-sweep diameter estimate: per component, BFS from the first node,
/// then BFS from a farthest node found; the largest distance seen is a
/// lower bound on the true diameter (exact on trees, and within a factor 2
/// always). Linear time — use for large experiment instances where
/// [`diameter`]'s all-pairs sweep is too slow.
#[must_use]
pub fn diameter_estimate(g: &Graph) -> u32 {
    let mut best = 0;
    let mut seen = vec![false; g.node_count()];
    for s in g.nodes() {
        if seen[s.index()] {
            continue;
        }
        let d1 = bfs_distances(g, s);
        let mut far = s;
        let mut far_d = 0;
        for v in g.nodes() {
            if let Some(d) = d1[v.index()] {
                seen[v.index()] = true;
                if d > far_d {
                    far_d = d;
                    far = v;
                }
            }
        }
        for d in bfs_distances(g, far).into_iter().flatten() {
            best = best.max(d);
        }
        best = best.max(far_d);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn girth_of_cycles() {
        for n in 3..8 {
            assert_eq!(girth(&gen::cycle(n)), Some(n as u32), "C_{n}");
        }
    }

    #[test]
    fn girth_of_tree_is_none() {
        assert_eq!(girth(&gen::path(6)), None);
        assert_eq!(girth(&gen::complete_binary_tree(4)), None);
    }

    #[test]
    fn self_loop_gives_girth_one() {
        let mut g = gen::path(3);
        g.add_edge(NodeId(2), NodeId(2));
        assert_eq!(girth(&g), Some(1));
    }

    #[test]
    fn parallel_edges_give_girth_two() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(girth(&g), Some(2));
    }

    #[test]
    fn girth_of_complete_graph_is_three() {
        assert_eq!(girth(&gen::complete(5)), Some(3));
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&gen::path(5)), 4);
        assert_eq!(diameter(&gen::cycle(8)), 4);
        assert_eq!(diameter(&gen::cycle(9)), 4);
    }

    #[test]
    fn diameter_estimate_brackets_truth() {
        for g in [gen::cycle(9), gen::path(12), gen::grid(5, 4), gen::complete(6)] {
            let exact = diameter(&g);
            let est = diameter_estimate(&g);
            assert!(est <= exact);
            assert!(est * 2 >= exact, "estimate {est} too far below exact {exact}");
        }
        // Exact on trees.
        let t = gen::complete_binary_tree(5);
        assert_eq!(diameter_estimate(&t), diameter(&t));
    }

    #[test]
    fn diameter_ignores_disconnection() {
        let mut g = gen::path(4);
        g.add_node();
        assert_eq!(diameter(&g), 3);
    }
}
