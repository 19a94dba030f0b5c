//! Breadth-first traversal utilities: distances, eccentricities,
//! components.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance from `source` to every node, `None` for unreachable nodes.
///
/// Self-loops never shorten distances; parallel edges are harmless.
#[must_use]
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<u32>> {
    bfs_distances_capped(g, source, u32::MAX)
}

/// Like [`bfs_distances`] but stops expanding beyond distance `cap`.
/// Nodes farther than `cap` report `None`.
#[must_use]
pub fn bfs_distances_capped(g: &Graph, source: NodeId, cap: u32) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued node has a distance");
        if d >= cap {
            continue;
        }
        for (w, _) in g.neighbors(v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Eccentricity of every source within its component (0 for an isolated
/// node), in source order. Sources may repeat and come in any order. See
/// [`EccScratch`] for the kernel; this call uses a fresh scratch.
#[must_use]
pub fn eccentricities(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    EccScratch::new().eccentricities(g, sources)
}

/// Reusable state of the bit-parallel eccentricity kernel.
///
/// Up to 64 sources share one BFS: bit `k` of a node's word says source `k`
/// has reached it. Each level pushes only from the nodes whose frontier
/// word is nonzero, so a level costs the degrees of its frontier, not of
/// the whole graph; sources that sit close together (consecutive nodes of
/// a component's BFS order) share most of their frontier. A source's
/// eccentricity is the last level at which its bit reached a new node.
///
/// Every word is zero again when a batch ends (only the touched nodes are
/// cleared), so the tables grow to the largest graph seen and answers
/// never depend on earlier queries: one scratch per worker is safe under
/// any executor.
#[derive(Debug, Default)]
pub struct EccScratch {
    /// Per node: the sources that have reached it.
    seen: Vec<u64>,
    /// Per node: the sources that reached it at the current level.
    front: Vec<u64>,
    /// Per node: the sources that reach it at the next level.
    next: Vec<u64>,
    /// Nodes with a nonzero `front` word. This list and the next two hold
    /// a node at most once and keep one spare slot (see `batch`).
    active: Vec<NodeId>,
    /// Nodes with a nonzero `next` word.
    next_active: Vec<NodeId>,
    /// Nodes with a nonzero `seen` word.
    touched: Vec<NodeId>,
}

impl EccScratch {
    /// An empty scratch; its tables grow on first use.
    #[must_use]
    pub fn new() -> Self {
        EccScratch::default()
    }

    /// Eccentricity of every source within its component, in source
    /// order; sources run in batches of 64.
    pub fn eccentricities(&mut self, g: &Graph, sources: &[NodeId]) -> Vec<u32> {
        let n = g.node_count();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.front.resize(n, 0);
            self.next.resize(n, 0);
            for list in [&mut self.active, &mut self.next_active, &mut self.touched] {
                list.resize(n + 1, NodeId(0));
            }
        }
        let mut ecc = vec![0; sources.len()];
        for (batch, out) in sources.chunks(64).zip(ecc.chunks_mut(64)) {
            self.batch(g, batch, out);
        }
        ecc
    }

    fn batch(&mut self, g: &Graph, sources: &[NodeId], ecc: &mut [u32]) {
        let EccScratch { seen, front, next, active, next_active, touched } = self;
        let (mut n_active, mut n_touched) = (0, 0);
        for (k, &s) in sources.iter().enumerate() {
            let i = s.index();
            if seen[i] == 0 {
                active[n_active] = s;
                touched[n_touched] = s;
                n_active += 1;
                n_touched += 1;
            }
            seen[i] |= 1 << k;
            front[i] |= 1 << k;
        }
        let mut level = 0;
        while n_active > 0 {
            level += 1;
            let mut reached = 0u64;
            let mut n_next = 0;
            for &v in &active[..n_active] {
                let f = std::mem::take(&mut front[v.index()]);
                for (w, _) in g.neighbors(v) {
                    let wi = w.index();
                    let (s, x) = (seen[wi], next[wi]);
                    let new = f & !s;
                    if new == 0 {
                        continue;
                    }
                    // Branch-free appends: write into the spare slot and
                    // keep it only on a node's first bit (the first-bit
                    // tests mispredict on dense frontiers).
                    touched[n_touched] = w;
                    n_touched += usize::from(s == 0);
                    next_active[n_next] = w;
                    n_next += usize::from(x == 0);
                    seen[wi] = s | new;
                    next[wi] = x | new;
                    reached |= new;
                }
            }
            // Every `front` word is zero now: the tables trade places.
            std::mem::swap(front, next);
            std::mem::swap(active, next_active);
            n_active = n_next;
            while reached != 0 {
                ecc[reached.trailing_zeros() as usize] = level;
                reached &= reached - 1;
            }
        }
        for &v in &touched[..n_touched] {
            seen[v.index()] = 0;
        }
    }
}

/// A connected component: its nodes, in BFS discovery order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Nodes of the component in discovery order (the first is the
    /// smallest-id node of the component).
    pub nodes: Vec<NodeId>,
}

impl Component {
    /// Number of nodes in the component.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the component is empty (never produced by
    /// [`connected_components`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// All connected components, ordered by their smallest node id.
#[must_use]
pub fn connected_components(g: &Graph) -> Vec<Component> {
    let mut seen = vec![false; g.node_count()];
    let mut out = Vec::new();
    for s in g.nodes() {
        if seen[s.index()] {
            continue;
        }
        let mut nodes = Vec::new();
        let mut queue = VecDeque::new();
        seen[s.index()] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            nodes.push(v);
            for (w, _) in g.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
        out.push(Component { nodes });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn distances_on_path() {
        let g = gen::path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn capped_distances_stop() {
        let g = gen::path(5);
        let d = bfs_distances_capped(&g, NodeId(0), 2);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None, None]);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut g = gen::path(3);
        g.add_node(); // isolated
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[3], None);
    }

    #[test]
    fn self_loop_does_not_affect_distances() {
        let mut g = gen::path(3);
        g.add_edge(NodeId(1), NodeId(1));
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn eccentricities_on_path_and_disjoint_union() {
        let mut g = gen::path(5);
        g.add_node(); // isolated
        g.add_edge(NodeId(2), NodeId(2));
        let sources = [4, 0, 5, 2, 2, 1].map(NodeId);
        assert_eq!(eccentricities(&g, &sources), vec![4, 4, 0, 2, 2, 3]);
        assert!(eccentricities(&g, &[]).is_empty());
    }

    #[test]
    fn scratch_reuse_spans_batches_and_graphs() {
        let mut scratch = EccScratch::new();
        let big = gen::cycle(150);
        let sources: Vec<NodeId> = (0..150).chain((0..150).rev()).map(NodeId).collect();
        assert_eq!(scratch.eccentricities(&big, &sources), vec![75; 300]);
        let small = gen::path(3);
        assert_eq!(scratch.eccentricities(&small, &[NodeId(1), NodeId(0)]), vec![1, 2]);
    }

    #[test]
    fn components_of_disjoint_union() {
        let mut g = gen::cycle(3);
        g.append(&gen::path(2));
        g.add_node();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 2);
        assert_eq!(comps[2].len(), 1);
        assert!(!comps[2].is_empty());
    }
}
