//! Shortest-cycle search and canonical cycle orientation.
//!
//! The deterministic `O(log n)` sinkless-orientation algorithm (see
//! `lcl-algos`) orients the edges of "cycle-core" nodes along canonically
//! chosen shortest cycles. Consistency between the two endpoints of an edge
//! requires a *total order* on cycles that every node computes identically
//! from its view; this module provides that order ([`CanonicalCycle`]) and
//! the bounded enumeration of shortest cycles through an edge
//! ([`CycleSearch`]).
//!
//! All functions take explicit `node_key` / `edge_key` slices: the keys are
//! the LOCAL-model identifiers (which are globally unique), **not** the dense
//! graph indices, so that the order is the same no matter which node's ball
//! the computation happens in.
//!
//! Every query runs one search per edge `e = {u, v}`: a bidirectional BFS
//! from `u` and `v` in `G − e` that grows the side with the smaller outer
//! layer and stops when the two balls meet. A shortest `u`–`v` path of
//! length `D` is found once the two radii sum to `D`, so the work is bounded
//! by two half-balls of radius about `D / 2`, not one ball of radius `D`.
//! The balls live in a reusable, stamped [`CycleScratch`]: a new search
//! bumps an epoch instead of clearing, so a sweep over all edges allocates
//! nothing after its first search.

use crate::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;

/// A simple cycle in canonical orientation.
///
/// `nodes[i]` and `nodes[(i+1) % len]` are joined by `edges[i]`. The
/// canonical form is the rotation/direction minimizing the pair
/// `(node key sequence, edge key sequence)` lexicographically, which makes
/// cycles totally ordered by `(length, canonical node keys, canonical edge
/// keys)` — a well-defined order even in multigraphs (two distinct cycles on
/// the same node sequence differ in some edge key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalCycle {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    node_keys: Vec<u64>,
    edge_keys: Vec<u64>,
}

impl CanonicalCycle {
    /// Canonicalizes a closed walk given as `nodes[0..L]` and `edges[0..L]`
    /// with `edges[i]` joining `nodes[i]` and `nodes[(i+1) % L]`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` and `edges` have different lengths or are empty, or
    /// if a key slice is too short.
    #[must_use]
    pub fn from_closed_walk(
        nodes: &[NodeId],
        edges: &[EdgeId],
        node_key: &[u64],
        edge_key: &[u64],
    ) -> CanonicalCycle {
        assert_eq!(nodes.len(), edges.len(), "cycle must have equal node/edge counts");
        assert!(!nodes.is_empty(), "cycle must be nonempty");
        let walk = Walk { nodes, edges };
        walk.materialize(walk.min_rotation(node_key, edge_key), node_key, edge_key)
    }

    /// Cycle length (number of edges = number of nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cycle is empty (never: cycles have length ≥ 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes in canonical order.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edges in canonical order (`edges()[i]` joins `nodes()[i]` and
    /// `nodes()[(i+1) % len]`).
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The edge leaving `v` in the canonical direction, if `v` lies on the
    /// cycle. For a self-loop cycle this is the loop itself.
    #[must_use]
    pub fn successor_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.nodes.iter().position(|&x| x == v).map(|i| self.edges[i])
    }

    /// True if `e` is one of the cycle's edges.
    #[must_use]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    fn order_key(&self) -> (usize, &[u64], &[u64]) {
        (self.nodes.len(), &self.node_keys, &self.edge_keys)
    }
}

impl PartialOrd for CanonicalCycle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CanonicalCycle {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

/// One of the `2·len` ways to read a closed walk: a start position and a
/// direction.
#[derive(Clone, Copy, Debug)]
struct Rotation {
    start: usize,
    forward: bool,
}

/// A closed walk (`edges[i]` joins `nodes[i]` and `nodes[(i+1) % len]`),
/// read in place under any [`Rotation`].
#[derive(Clone, Copy)]
struct Walk<'a> {
    nodes: &'a [NodeId],
    edges: &'a [EdgeId],
}

impl Walk<'_> {
    fn node(self, r: Rotation, i: usize) -> NodeId {
        let len = self.nodes.len();
        self.nodes[if r.forward { (r.start + i) % len } else { (r.start + len - i) % len }]
    }

    /// Forward, step `i` leaves through edge `start + i`; backward, step `i`
    /// goes from position `start − i` to `start − i − 1` through edge
    /// `start − i − 1`.
    fn edge(self, r: Rotation, i: usize) -> EdgeId {
        let len = self.edges.len();
        self.edges[if r.forward { (r.start + i) % len } else { (r.start + 2 * len - i - 1) % len }]
    }

    /// Compares rotation `r` of `self` with rotation `or` of `other` (same
    /// length) by `(node key sequence, edge key sequence)`.
    fn cmp_rotations(
        self,
        r: Rotation,
        other: Walk<'_>,
        or: Rotation,
        node_key: &[u64],
        edge_key: &[u64],
    ) -> Ordering {
        let len = self.nodes.len();
        debug_assert_eq!(len, other.nodes.len());
        (0..len)
            .map(|i| node_key[self.node(r, i).index()].cmp(&node_key[other.node(or, i).index()]))
            .chain((0..len).map(|i| {
                edge_key[self.edge(r, i).index()].cmp(&edge_key[other.edge(or, i).index()])
            }))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The first (in start-then-direction order) of the rotations with the
    /// smallest key sequences.
    fn min_rotation(self, node_key: &[u64], edge_key: &[u64]) -> Rotation {
        let mut best = Rotation { start: 0, forward: true };
        for start in 0..self.nodes.len() {
            for forward in [true, false] {
                let r = Rotation { start, forward };
                if self.cmp_rotations(r, self, best, node_key, edge_key).is_lt() {
                    best = r;
                }
            }
        }
        best
    }

    fn materialize(self, r: Rotation, node_key: &[u64], edge_key: &[u64]) -> CanonicalCycle {
        let len = self.nodes.len();
        let nodes: Vec<NodeId> = (0..len).map(|i| self.node(r, i)).collect();
        let edges: Vec<EdgeId> = (0..len).map(|i| self.edge(r, i)).collect();
        let node_keys = nodes.iter().map(|v| node_key[v.index()]).collect();
        let edge_keys = edges.iter().map(|e| edge_key[e.index()]).collect();
        CanonicalCycle { nodes, edges, node_keys, edge_keys }
    }
}

/// One side of the bidirectional search: a BFS ball grown layer by layer.
#[derive(Debug, Default)]
struct HalfBall {
    /// `(stamp, dist)`: the node is in the ball, at distance `dist` from
    /// the root, iff `stamp` equals the scratch's epoch.
    mark: Vec<(u32, u32)>,
    /// Members in BFS order; layer `d` is `order[starts[d]..starts[d + 1]]`.
    order: Vec<NodeId>,
    starts: Vec<usize>,
}

impl HalfBall {
    fn reset(&mut self, root: NodeId, epoch: u32) {
        self.order.clear();
        self.order.push(root);
        self.starts.clear();
        self.starts.extend([0, 1]);
        self.mark[root.index()] = (epoch, 0);
    }

    fn radius(&self) -> u32 {
        (self.starts.len() - 2) as u32
    }

    fn layer(&self, d: usize) -> &[NodeId] {
        &self.order[self.starts[d]..self.starts[d + 1]]
    }

    fn dist(&self, w: NodeId, epoch: u32) -> Option<u32> {
        let (stamp, d) = self.mark[w.index()];
        (stamp == epoch).then_some(d)
    }

    /// Adds the next layer, skipping edge `skip`; returns whether it reached
    /// a node of `other`.
    fn expand(&mut self, g: &Graph, skip: EdgeId, other: &HalfBall, epoch: u32) -> bool {
        let d = self.radius() + 1;
        let (lo, hi) = (self.starts[self.starts.len() - 2], self.order.len());
        let mut met = false;
        for i in lo..hi {
            for &h in g.ports(self.order[i]) {
                if h.edge() == skip {
                    continue;
                }
                let w = g.half_edge_peer(h);
                if self.mark[w.index()].0 != epoch {
                    self.mark[w.index()] = (epoch, d);
                    self.order.push(w);
                    met |= other.mark[w.index()].0 == epoch;
                }
            }
        }
        self.starts.push(self.order.len());
        met
    }
}

/// Reusable state for [`CycleSearch`]'s `*_with` queries: the two half-balls
/// of the bidirectional search, the on-path marks, and the enumeration's
/// path buffers. All tables grow to the largest graph seen and are
/// invalidated in `O(1)` by bumping an epoch. The scratch is a pure
/// accelerator — answers never depend on which queries it served before —
/// so one scratch per worker is safe under any executor.
#[derive(Debug, Default)]
pub struct CycleScratch {
    epoch: u32,
    /// Ball around `u` (index 0) and around `v` (index 1) in `G − e`.
    balls: [HalfBall; 2],
    /// Stamp: the node lies on a shortest `u`–`v` path and in `u`'s ball.
    on_path: Vec<u32>,
    path_nodes: Vec<NodeId>,
    path_edges: Vec<EdgeId>,
    /// Per path position: ports of that node not yet tried, counting down.
    cursors: Vec<usize>,
    best_nodes: Vec<NodeId>,
    best_edges: Vec<EdgeId>,
}

impl CycleScratch {
    /// An empty scratch; its tables grow on first use.
    #[must_use]
    pub fn new() -> Self {
        CycleScratch::default()
    }

    fn begin(&mut self, n: usize) {
        if self.on_path.len() < n {
            self.on_path.resize(n, 0);
            for b in &mut self.balls {
                b.mark.resize(n, (0, 0));
            }
        }
        if self.epoch == u32::MAX {
            self.on_path.fill(0);
            for b in &mut self.balls {
                b.mark.fill((0, 0));
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The distance `D` from `u` to `v` in `G − e` if `D ≤ max_d` (`u ≠ v`).
    ///
    /// Invariant: before a meeting, the balls are disjoint, so `D` exceeds
    /// the sum of their radii. When growing one ball from radius `a` to
    /// `a + 1` reaches the other ball (radius `b`), every node it reaches
    /// there is at distance `a + 1 + b ≥ D` through it, and a shortest path
    /// of length `a + b + 1` has its node at position `a + 1` inside the
    /// other ball — so `D = a + 1 + b`. The meeting layer is completed, so
    /// on success both balls are exact and complete to radii summing to
    /// `D`. An exhausted side means `v` is unreachable.
    fn search(&mut self, g: &Graph, e: EdgeId, max_d: u32) -> Option<u32> {
        let [u, v] = g.endpoints(e);
        self.begin(g.node_count());
        let epoch = self.epoch;
        let [a, b] = &mut self.balls;
        a.reset(u, epoch);
        b.reset(v, epoch);
        loop {
            let d = a.radius() + b.radius();
            if d >= max_d {
                return None;
            }
            let (fa, fb) = (a.layer(a.radius() as usize).len(), b.layer(b.radius() as usize).len());
            if fa == 0 || fb == 0 {
                return None;
            }
            let met = if fb < fa { b.expand(g, e, a, epoch) } else { a.expand(g, e, b, epoch) };
            if met {
                return Some(d + 1);
            }
        }
    }

    /// After a successful [`CycleScratch::search`], marks the nodes of `u`'s
    /// ball (radius `ra`) that lie on a shortest `u`–`v` path: the meeting
    /// layer (distance `ra` from `u`, inside `v`'s ball), then, layer by
    /// layer towards `u`, every node with an on-path neighbor one layer out.
    fn mark_paths(&mut self, g: &Graph, skip: EdgeId) {
        let epoch = self.epoch;
        let [a, b] = &self.balls;
        let top = a.radius() as usize;
        for &w in a.layer(top) {
            if b.dist(w, epoch).is_some() {
                self.on_path[w.index()] = epoch;
            }
        }
        for k in (0..top).rev() {
            let next = k as u32 + 1;
            for &w in a.layer(k) {
                let on = g.ports(w).iter().any(|&h| {
                    let x = g.half_edge_peer(h);
                    h.edge() != skip
                        && self.on_path[x.index()] == epoch
                        && a.mark[x.index()].1 == next
                });
                if on {
                    self.on_path[w.index()] = epoch;
                }
            }
        }
    }

    /// Position of `w` on a shortest `u`–`v` path of length `d`, if it lies
    /// on one in reach of the balls: its distance from `u` on `u`'s side,
    /// `d` minus its distance from `v` on `v`'s side. Given an on-path
    /// predecessor at position `k`, a neighbor at position `k + 1` is
    /// exactly a next node of a shortest path.
    fn position(&self, w: NodeId, d: u32) -> Option<u32> {
        if self.on_path[w.index()] == self.epoch {
            Some(self.balls[0].mark[w.index()].1)
        } else {
            self.balls[1].dist(w, self.epoch).map(|dv| d - dv)
        }
    }

    /// Enumerates shortest `u`–`v` paths of length `d` (marked by
    /// [`CycleScratch::mark_paths`]) depth-first, trying each node's ports
    /// from last to first, and stops after `cap` paths; returns the
    /// canonically smallest of the cycles they close with `e`. Ties keep
    /// the earliest path and, within a path, the earliest rotation.
    fn min_enumerated(
        &mut self,
        g: &Graph,
        e: EdgeId,
        d: u32,
        cap: usize,
        node_key: &[u64],
        edge_key: &[u64],
    ) -> CanonicalCycle {
        let [u, v] = g.endpoints(e);
        self.path_nodes.clear();
        self.path_edges.clear();
        self.cursors.clear();
        self.path_nodes.push(u);
        self.cursors.push(g.degree(u));
        let mut best: Option<Rotation> = None;
        let mut produced = 0usize;
        while let Some(&x) = self.path_nodes.last() {
            let step = if x == v {
                debug_assert_eq!(self.path_edges.len() as u32, d);
                self.path_edges.push(e);
                let path = Walk { nodes: &self.path_nodes, edges: &self.path_edges };
                let r = path.min_rotation(node_key, edge_key);
                let kept = Walk { nodes: &self.best_nodes, edges: &self.best_edges };
                if best.is_none_or(|b| path.cmp_rotations(r, kept, b, node_key, edge_key).is_lt()) {
                    self.best_nodes.clone_from(&self.path_nodes);
                    self.best_edges.clone_from(&self.path_edges);
                    best = Some(r);
                }
                self.path_edges.pop();
                produced += 1;
                if produced >= cap {
                    break;
                }
                None
            } else {
                let next = self.path_nodes.len() as u32;
                let mut p = *self.cursors.last().expect("one cursor per path node");
                let step = loop {
                    if p == 0 {
                        break None;
                    }
                    p -= 1;
                    let h = g.ports(x)[p];
                    let w = g.half_edge_peer(h);
                    if h.edge() != e && self.position(w, d) == Some(next) {
                        break Some((w, h.edge()));
                    }
                };
                *self.cursors.last_mut().expect("one cursor per path node") = p;
                step
            };
            if let Some((w, f)) = step {
                self.path_nodes.push(w);
                self.path_edges.push(f);
                self.cursors.push(g.degree(w));
            } else {
                self.path_nodes.pop();
                self.path_edges.pop();
                self.cursors.pop();
            }
        }
        let best = best.expect("u lies on a shortest path to v");
        Walk { nodes: &self.best_nodes, edges: &self.best_edges }
            .materialize(best, node_key, edge_key)
    }
}

/// Bounded shortest-cycle enumeration.
///
/// `cap` bounds how many shortest cycles through an edge are enumerated; the
/// minimum over the enumerated set is still a deterministic function of the
/// input (both endpoints of an edge compute the same set, in the same
/// order), so endpoint agreement is preserved even when the cap truncates.
/// The cap binds only where more than `cap` shortest cycles pass through
/// one edge: dense graphs such as `K_n` for `n > cap + 2`, or heavy
/// multi-edges. No edge of the sparse generator zoo in the
/// `cycle_search_equiv` tests reaches the default of 64, and the `ablations`
/// experiment finds the orientation of a random 3-regular graph at
/// `n = 4096` unchanged for every cap from 16 up.
#[derive(Clone, Copy, Debug)]
pub struct CycleSearch {
    cap: usize,
}

impl Default for CycleSearch {
    fn default() -> Self {
        CycleSearch { cap: 64 }
    }
}

impl CycleSearch {
    /// Creates a search with the given enumeration cap (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "cap must be at least 1");
        CycleSearch { cap }
    }

    /// Length of a shortest cycle through edge `e`, or `None` if `e` lies on
    /// no cycle. Self-loops yield 1, parallel pairs 2.
    #[must_use]
    pub fn shortest_len_through_edge(&self, g: &Graph, e: EdgeId) -> Option<u32> {
        self.shortest_len_through_edge_capped(g, e, u32::MAX)
    }

    /// Like [`CycleSearch::shortest_len_through_edge`], but only reports
    /// cycles of length at most `cap` (the search stops early): returns
    /// `None` when the shortest cycle through `e` is longer than `cap` or
    /// absent. This is the length-`L`-bounded girth query the deterministic
    /// sinkless-orientation rule uses ("is `γ(e) ≤ L`?") without paying for
    /// a full-graph search.
    #[must_use]
    pub fn shortest_len_through_edge_capped(&self, g: &Graph, e: EdgeId, cap: u32) -> Option<u32> {
        self.shortest_len_with(&mut CycleScratch::new(), g, e, cap)
    }

    /// [`CycleSearch::shortest_len_through_edge_capped`] on a caller-owned
    /// scratch: the form to use in sweeps over many edges.
    #[must_use]
    pub fn shortest_len_with(
        &self,
        scratch: &mut CycleScratch,
        g: &Graph,
        e: EdgeId,
        cap: u32,
    ) -> Option<u32> {
        let [u, v] = g.endpoints(e);
        if u == v {
            return (cap >= 1).then_some(1);
        }
        if cap < 2 {
            return None;
        }
        scratch.search(g, e, cap - 1).map(|d| d + 1)
    }

    /// Length of a shortest cycle through node `v`.
    #[must_use]
    pub fn shortest_len_through_node(&self, g: &Graph, v: NodeId) -> Option<u32> {
        let mut scratch = CycleScratch::new();
        g.ports(v)
            .iter()
            .filter_map(|h| self.shortest_len_with(&mut scratch, g, h.edge(), u32::MAX))
            .min()
    }

    /// The canonically smallest cycle among the shortest cycles through `e`
    /// (at most `cap` of them are examined), or `None` if `e` lies on no
    /// cycle.
    ///
    /// Both endpoints of `e`, given the same graph (e.g. the ball around
    /// `e`), compute the same answer.
    #[must_use]
    pub fn min_cycle_through_edge(
        &self,
        g: &Graph,
        e: EdgeId,
        node_key: &[u64],
        edge_key: &[u64],
    ) -> Option<CanonicalCycle> {
        self.min_cycle_with(&mut CycleScratch::new(), g, e, u32::MAX, node_key, edge_key)
    }

    /// [`CycleSearch::min_cycle_through_edge`] on a caller-owned scratch,
    /// restricted to `γ(e) ≤ max_len`: `None` if every cycle through `e` is
    /// longer (so `.len()` of the answer is `γ(e)` whenever `γ(e) ≤
    /// max_len`). One bidirectional search yields both `γ(e)` and the
    /// shortest-path structure the enumeration walks.
    #[must_use]
    pub fn min_cycle_with(
        &self,
        scratch: &mut CycleScratch,
        g: &Graph,
        e: EdgeId,
        max_len: u32,
        node_key: &[u64],
        edge_key: &[u64],
    ) -> Option<CanonicalCycle> {
        let [u, v] = g.endpoints(e);
        if u == v {
            return (max_len >= 1)
                .then(|| CanonicalCycle::from_closed_walk(&[u], &[e], node_key, edge_key));
        }
        if max_len < 2 {
            return None;
        }
        let d = scratch.search(g, e, max_len - 1)?;
        scratch.mark_paths(g, e);
        Some(scratch.min_enumerated(g, e, d, self.cap, node_key, edge_key))
    }
}

/// Convenience: shortest cycle length through `e` with the default search.
#[must_use]
pub fn shortest_cycle_through_edge(g: &Graph, e: EdgeId) -> Option<u32> {
    CycleSearch::default().shortest_len_through_edge(g, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn identity_keys(g: &Graph) -> (Vec<u64>, Vec<u64>) {
        (g.nodes().map(|v| v.0 as u64).collect(), g.edges().map(|e| e.0 as u64).collect())
    }

    #[test]
    fn shortest_cycle_on_cycle_graph() {
        let g = gen::cycle(7);
        for e in g.edges() {
            assert_eq!(shortest_cycle_through_edge(&g, e), Some(7));
        }
    }

    #[test]
    fn tree_edges_lie_on_no_cycle() {
        let g = gen::path(5);
        for e in g.edges() {
            assert_eq!(shortest_cycle_through_edge(&g, e), None);
        }
    }

    #[test]
    fn min_cycle_is_consistent_for_all_edges_of_unique_cycle() {
        let g = gen::cycle(5);
        let (nk, ek) = identity_keys(&g);
        let search = CycleSearch::default();
        let cycles: Vec<_> =
            g.edges().map(|e| search.min_cycle_through_edge(&g, e, &nk, &ek).unwrap()).collect();
        for c in &cycles {
            assert_eq!(c, &cycles[0], "all edges of C5 share the canonical cycle");
        }
        // Canonical orientation gives every node exactly one successor edge.
        for v in g.nodes() {
            assert!(cycles[0].successor_edge(v).is_some());
        }
    }

    #[test]
    fn fixed_point_property_on_two_triangles_sharing_an_edge() {
        // Nodes 0,1 shared; triangle A = {0,1,2}, triangle B = {0,1,3}.
        let mut g = Graph::new();
        let n0 = g.add_node();
        let n1 = g.add_node();
        let n2 = g.add_node();
        let n3 = g.add_node();
        g.add_edge(n0, n1); // shared
        g.add_edge(n1, n2);
        g.add_edge(n2, n0);
        g.add_edge(n1, n3);
        g.add_edge(n3, n0);
        let (nk, ek) = identity_keys(&g);
        let search = CycleSearch::default();
        // For each node v, K*(v) = min over incident shortest cycle-edges.
        // Both K*(v)-edges at v must map back to K*(v) (Lemma used by the
        // deterministic sinkless-orientation algorithm).
        for v in g.nodes() {
            let best = g
                .ports(v)
                .iter()
                .filter_map(|h| search.min_cycle_through_edge(&g, h.edge(), &nk, &ek))
                .min()
                .unwrap();
            let incident_on_best: Vec<_> =
                g.ports(v).iter().filter(|h| best.contains_edge(h.edge())).collect();
            assert_eq!(incident_on_best.len(), 2, "node {v:?} has two cycle edges");
            for h in incident_on_best {
                let fc = search.min_cycle_through_edge(&g, h.edge(), &nk, &ek).unwrap();
                assert_eq!(fc, best, "fixed point violated at {v:?}");
            }
        }
    }

    #[test]
    fn self_loop_cycle_has_length_one() {
        let mut g = Graph::new();
        let v = g.add_node();
        let e = g.add_edge(v, v);
        let (nk, ek) = identity_keys(&g);
        let c = CycleSearch::default().min_cycle_through_edge(&g, e, &nk, &ek).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.successor_edge(v), Some(e));
        assert!(!c.is_empty());
    }

    #[test]
    fn parallel_pair_cycle_has_length_two() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        let (nk, ek) = identity_keys(&g);
        let search = CycleSearch::default();
        let c1 = search.min_cycle_through_edge(&g, e1, &nk, &ek).unwrap();
        let c2 = search.min_cycle_through_edge(&g, e2, &nk, &ek).unwrap();
        assert_eq!(c1.len(), 2);
        assert_eq!(c1, c2);
        // Canonical orientation: each endpoint gets one successor edge, and
        // they are the two distinct parallel edges.
        let sa = c1.successor_edge(a).unwrap();
        let sb = c1.successor_edge(b).unwrap();
        assert_ne!(sa, sb);
    }

    #[test]
    fn canonicalization_is_rotation_and_direction_invariant() {
        let g = gen::cycle(6);
        let (nk, ek) = identity_keys(&g);
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let edges: Vec<EdgeId> = (0..6).map(EdgeId).collect();
        let a = CanonicalCycle::from_closed_walk(&nodes, &edges, &nk, &ek);
        // Rotate by 2.
        let rn: Vec<_> = (0..6).map(|i| nodes[(i + 2) % 6]).collect();
        let re: Vec<_> = (0..6).map(|i| edges[(i + 2) % 6]).collect();
        let b = CanonicalCycle::from_closed_walk(&rn, &re, &nk, &ek);
        assert_eq!(a, b);
        // Reverse direction starting at node 0:
        // vn = [n0, n5, n4, n3, n2, n1]; vn[i] -> vn[i+1] uses edges[5-i].
        let vn: Vec<_> = (0..6).map(|i| nodes[(6 - i) % 6]).collect();
        let ve: Vec<_> = (0..6).map(|i| edges[5 - i]).collect();
        let c = CanonicalCycle::from_closed_walk(&vn, &ve, &nk, &ek);
        assert_eq!(a, c);
    }

    #[test]
    fn cycle_order_prefers_shorter() {
        let mut g = gen::cycle(3);
        let off = g.append(&gen::cycle(4));
        let (nk, ek) = identity_keys(&g);
        let tri = CycleSearch::default().min_cycle_through_edge(&g, EdgeId(0), &nk, &ek).unwrap();
        let quad = CycleSearch::default().min_cycle_through_edge(&g, EdgeId(3), &nk, &ek).unwrap();
        assert!(tri < quad);
        let _ = off;
    }

    #[test]
    fn scratch_reuse_survives_epoch_wraparound() {
        let g = gen::torus(4, 5);
        let (nk, ek) = identity_keys(&g);
        let s = CycleSearch::default();
        let fresh: Vec<_> = g.edges().map(|e| s.min_cycle_through_edge(&g, e, &nk, &ek)).collect();
        // Leave epoch-1 stamps behind, then wrap: the restarted epochs must
        // not mistake them for their own marks.
        let mut scratch = CycleScratch::new();
        let _ = s.min_cycle_with(&mut scratch, &g, EdgeId(0), u32::MAX, &nk, &ek);
        scratch.epoch = u32::MAX;
        for e in (0..g.edge_count() as u32).rev().map(EdgeId) {
            let got = s.min_cycle_with(&mut scratch, &g, e, u32::MAX, &nk, &ek);
            assert_eq!(got, fresh[e.index()], "edge {e:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cap must be at least 1")]
    fn zero_cap_rejected() {
        let _ = CycleSearch::new(0);
    }

    #[test]
    fn capped_length_query_respects_cap() {
        let g = gen::cycle(8);
        let s = CycleSearch::default();
        assert_eq!(s.shortest_len_through_edge_capped(&g, EdgeId(0), 7), None);
        assert_eq!(s.shortest_len_through_edge_capped(&g, EdgeId(0), 8), Some(8));
        assert_eq!(s.shortest_len_through_edge_capped(&g, EdgeId(0), 20), Some(8));
        // Self-loop under a cap.
        let mut h = Graph::new();
        let v = h.add_node();
        let e = h.add_edge(v, v);
        assert_eq!(s.shortest_len_through_edge_capped(&h, e, 1), Some(1));
    }
}
