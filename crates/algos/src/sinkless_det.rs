//! Deterministic sinkless orientation in `Θ(log n)` rounds.
//!
//! **Algorithm** (folklore; the upper bound side of the `Θ(log n)` entry in
//! the paper's Figure 1). Fix `L = 2⌈log₂ n⌉ + 1`. Call a node a *core*
//! node if some cycle of length ≤ `L` passes through it. In a graph of
//! minimum degree 3 every node is within distance `⌈log₂ n⌉` of a core node
//! (a ball of that radius cannot be a tree), so the following terminates in
//! `O(log n)` rounds:
//!
//! * each node `v` grows its view until, for itself and each neighbor, the
//!   distance to the core (`d`) is *certified* — all closer nodes have been
//!   checked for core membership, which needs `L + 1` extra radius beyond
//!   the distance itself;
//! * each incident edge is then oriented by the global rule `F` of
//!   [`crate::rules`], every ingredient of which (`d`, `γ`, the canonical
//!   cycle `f(e)`, identifiers) the node now knows exactly — so the two
//!   endpoints of an edge, deciding independently at possibly different
//!   radii, always agree;
//! * a node whose view saturates (covers its whole component) before
//!   certification applies `F` to the component directly.
//!
//! The per-node radius recorded by [`run`] is exactly the certification
//! radius this scheme needs, and the orientation is computed by one global
//! evaluation of `F` — which equals what each node computes locally, since
//! every ingredient is certified-exact (the *locality audit* integration
//! test validates this by mutating graphs outside reported radii).

use crate::rules::{orient_globally, NodeAnalysis};
use lcl_core::problems::Orient;
use lcl_core::Labeling;
use lcl_graph::{CycleSearch, EccScratch, NodeId};
use lcl_local::{LocalityTrace, Network, NodeExecutor, Sequential};

/// Tuning knobs for the deterministic algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Canonical-cycle enumeration cap (see `lcl_graph::CycleSearch`).
    pub cycle_cap: usize,
    /// Override for the short-cycle threshold `L`; `None` computes
    /// `2⌈log₂ n⌉ + 1` from the announced `n`.
    pub short_cycle_cap: Option<u32>,
}

impl Default for Params {
    fn default() -> Self {
        Params { cycle_cap: 64, short_cycle_cap: None }
    }
}

/// The threshold `L = 2⌈log₂ n⌉ + 1` (at least 3).
#[must_use]
pub fn short_cycle_threshold(known_n: usize) -> u32 {
    let log = usize::BITS - known_n.max(2).next_power_of_two().leading_zeros() - 1;
    2 * log + 1
}

/// Result of a deterministic sinkless-orientation run.
#[derive(Clone, Debug)]
pub struct DetOutcome {
    /// The orientation (passes the `SinklessOrientation` checker on
    /// instances whose constrained nodes all have degree ≥ 3).
    pub labeling: Labeling<Orient>,
    /// Honest per-node certification radii.
    pub trace: LocalityTrace,
    /// Per-node rule analysis (for experiments).
    pub analysis: Vec<NodeAnalysis>,
}

impl DetOutcome {
    /// Decodes the orientation into a plain certifiable
    /// [`lcl_certify::Solution`] (nodes of degree ≥ 3 constrained).
    ///
    /// # Errors
    ///
    /// [`lcl_certify::Violation::Decode`] if the labeling is malformed.
    pub fn solution(
        &self,
        g: &lcl_graph::Graph,
    ) -> Result<lcl_certify::Solution, lcl_certify::Violation> {
        lcl_certify::decode::orientation(g, &self.labeling, 3)
    }
}

/// Runs deterministic sinkless orientation on the network.
#[must_use]
pub fn run(net: &Network, params: &Params) -> DetOutcome {
    run_with(net, params, &Sequential)
}

/// [`run`] with a pluggable [`NodeExecutor`]: the per-edge short-cycle
/// search inside [`orient_globally`] and the certification-radius
/// accounting (exact eccentricities, 64 nodes per bit-parallel BFS) both
/// fan across the executor. On random 3-regular graphs (one thread,
/// 2-vCPU box) the accounting is still the larger share: about half the
/// run at n = 1536, 1.45 s against the search's 0.40 s at n = 16384.
/// Cycles and radii are pure per-edge / per-node functions of the input,
/// so the outcome is bit-identical under any executor.
#[must_use]
pub fn run_with<X: NodeExecutor>(net: &Network, params: &Params, exec: &X) -> DetOutcome {
    let g = net.graph();
    let el = params.short_cycle_cap.unwrap_or_else(|| short_cycle_threshold(net.known_n()));
    let search = CycleSearch::new(params.cycle_cap);
    let (labeling, analysis) = orient_globally(g, net.ids(), el, &search, exec);

    // Honest radius accounting. Node v decides once
    //   max_{x ∈ {v} ∪ N(v)} d(x) ≤ r − L − 2
    // on its growth schedule r ∈ {L+3, 2L+4, 3L+5, …}, or once its view
    // saturates, whichever happens first. Saturation radius = eccentricity,
    // which we only compute exactly when the certification radius might
    // exceed it: a cheap per-component eccentricity lower bound (triangle
    // inequality from one anchor BFS) prunes the nodes whose schedule ends
    // well inside their component. On random 3-regular graphs views
    // saturate before the first scheduled radius, so every node is exact.
    let mut ecc_lb: Vec<u32> = vec![0; g.node_count()];
    for comp in lcl_graph::connected_components(g) {
        let anchor = comp.nodes[0];
        let d = lcl_graph::bfs_distances(g, anchor);
        let ecc_anchor = comp.nodes.iter().filter_map(|w| d[w.index()]).max().unwrap_or(0);
        for &v in &comp.nodes {
            let dav = d[v.index()].expect("component member reachable");
            ecc_lb[v.index()] = dav.max(ecc_anchor.saturating_sub(dav));
        }
    }
    let need: Vec<Option<u32>> = g
        .nodes()
        .map(|v| {
            if analysis[v.index()].branch != crate::rules::Branch::Core {
                return None; // only saturation decides for non-core components
            }
            let mut worst = analysis[v.index()].dist_to_core;
            for (w, _) in g.neighbors(v) {
                worst = worst.max(analysis[w.index()].dist_to_core);
            }
            // Smallest scheduled radius with worst ≤ r - L - 2.
            let target = worst + el + 2;
            let step = el + 1;
            let mut r = el + 3;
            while r < target {
                r += step;
            }
            Some(r)
        })
        .collect();
    let mut radii: Vec<u32> = need.iter().map(|r| r.unwrap_or(0)).collect();
    // Nodes whose schedule may outrun saturation need their exact
    // eccentricity: 64 per bit-parallel sweep, one scratch per worker.
    let exact: Vec<NodeId> =
        g.nodes().filter(|v| need[v.index()].is_none_or(|r| r > ecc_lb[v.index()])).collect();
    let batches = exec.map_nodes_init(exact.len().div_ceil(64), EccScratch::new, |scratch, b| {
        scratch.eccentricities(g, &exact[b * 64..exact.len().min(b * 64 + 64)])
    });
    for (&v, ecc) in exact.iter().zip(batches.into_iter().flatten()) {
        radii[v.index()] = need[v.index()].map_or(ecc, |r| r.min(ecc));
    }

    let outcome = DetOutcome { labeling, trace: LocalityTrace::new(radii), analysis };
    if lcl_certify::enabled() {
        crate::error::self_certify_decoded(g, outcome.solution(g));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problems::SinklessOrientation;
    use lcl_core::{check, Labeling as L};
    use lcl_graph::gen;
    use lcl_local::IdAssignment;

    #[test]
    fn orients_random_regular_graphs() {
        for seed in 0..4 {
            let g = gen::random_regular(64, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default());
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
            assert!(out.trace.max_radius() >= 1);
        }
    }

    #[test]
    fn radius_scales_like_log_n() {
        // The certification radius is at most d + 2L + 3 where d ≤ ⌈log₂ n⌉
        // and L = 2⌈log₂ n⌉ + 1, so ≈ 5 log₂ n + o(log n); and at least L+3
        // whenever the graph is bigger than one ball.
        let mut prev = 0;
        for (n, seed) in [(64usize, 1u64), (256, 2), (1024, 3)] {
            let g = gen::random_regular(n, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default());
            let r = out.trace.max_radius();
            let log = (n as f64).log2();
            assert!(
                f64::from(r) <= 6.0 * log,
                "radius {r} too large for n={n} (6 log₂ n = {})",
                6.0 * log
            );
            assert!(r >= prev, "radius should not shrink as n grows");
            prev = r;
        }
    }

    #[test]
    fn works_on_degree_4_torus() {
        let net = Network::new(gen::torus(6, 6), IdAssignment::Shuffled { seed: 9 });
        let out = run(&net, &Params::default());
        let input = L::uniform(net.graph(), ());
        check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        // Tori are full of 4-cycles: everyone is a core node and certifies
        // at the first scheduled radius.
        let el = short_cycle_threshold(36);
        assert!(out.trace.max_radius() <= el + 3);
    }

    #[test]
    fn multigraph_hard_instances_are_handled() {
        // The virtual graphs of the padding construction can have loops and
        // parallel edges; the algorithm must cope (Section 2 of the paper).
        for seed in 0..4 {
            let g = gen::random_regular_multigraph(32, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default());
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn threshold_formula() {
        assert_eq!(short_cycle_threshold(2), 3);
        assert_eq!(short_cycle_threshold(8), 7);
        assert_eq!(short_cycle_threshold(1024), 21);
        // Non-powers of two round up.
        assert_eq!(short_cycle_threshold(1000), 21);
    }
}
