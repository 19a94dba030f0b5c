//! The inner-problem interface consumed by the padding construction.
//!
//! The paper's Theorem 1 takes an arbitrary ne-LCL `Π`. The construction
//! needs three capabilities from `Π`:
//!
//! 1. a **full checker** on concrete instances (to validate end-to-end
//!    runs),
//! 2. **configuration checks** — the node constraint `C_N^Π` on a
//!    hypothetical virtual node and the edge constraint `C_E^Π` on a
//!    hypothetical virtual edge, exactly as quoted in constraints 5 and 6
//!    of Section 3.3,
//! 3. **filler labels** for the positions the paper leaves arbitrary
//!    (outputs inside invalid gadgets, `Σ_list` entries of ports outside
//!    `S`).
//!
//! [`SinklessInner`] is the base of the Theorem-11 hierarchy; padded
//! problems implement the trait too (in [`crate::lifted`]), closing the
//! recursion.

use lcl_core::problems::{Orient, SinklessOrientation};
use lcl_core::{check, EdgeView, Labeling, NeLcl, NodeView, Violation};
use lcl_graph::Graph;
use lcl_local::{Network, NodeExecutor, Sequential};
use std::fmt;

/// An LCL problem as consumed by the padding construction.
pub trait InnerProblem {
    /// Input alphabet (`Send + Sync` so padded instances can fan V-runs
    /// and flag computation across a `NodeExecutor`).
    type In: Clone + fmt::Debug + PartialEq + Send + Sync;
    /// Output alphabet.
    type Out: Clone + fmt::Debug + PartialEq;

    /// Full checker on a concrete labeled instance.
    fn check_instance(
        &self,
        g: &Graph,
        input: &Labeling<Self::In>,
        output: &Labeling<Self::Out>,
    ) -> Vec<Violation>;

    /// The node constraint on a hypothetical node of degree
    /// `edges.len()`: per-port `(input, output)` pairs for edges and
    /// half-edges (the node's own side).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the configuration violates `C_N`.
    fn check_node_config(
        &self,
        node_in: &Self::In,
        node_out: &Self::Out,
        edges: &[(Self::In, Self::Out)],
        halves: &[(Self::In, Self::Out)],
    ) -> Result<(), String>;

    /// The edge constraint on a hypothetical edge `{u', v'}`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the configuration violates `C_E`.
    #[allow(clippy::too_many_arguments)]
    fn check_edge_config(
        &self,
        nodes_in: [&Self::In; 2],
        nodes_out: [&Self::Out; 2],
        edge_in: &Self::In,
        edge_out: &Self::Out,
        halves_in: [&Self::In; 2],
        halves_out: [&Self::Out; 2],
    ) -> Result<(), String>;

    /// Filler input for positions without a meaningful `Π`-input
    /// (gadget-internal elements of a padded graph).
    fn filler_in(&self) -> Self::In;

    /// Filler output for positions the paper completes arbitrarily.
    fn filler_out(&self) -> Self::Out;

    /// Output for the edge position of a dangling virtual half-edge: an
    /// in-`S` port (a `NoPortErr` input port of a valid gadget) whose port
    /// edge does not reach an in-`S` port of another gadget, so the virtual
    /// graph has no edge there and the paper leaves the output arbitrary.
    fn dangler_edge_out(&self) -> Self::Out {
        self.filler_out()
    }

    /// Output for the node-side half position of a dangling virtual
    /// half-edge. Must make the node constraint satisfiable irrespective
    /// of the dangler (for sinkless orientation: `Out`).
    fn dangler_half_out(&self) -> Self::Out {
        self.filler_out()
    }
}

/// An algorithm solving an inner problem on a network, with honest round
/// accounting — the thing Lemma 4 simulates on the virtual graph.
pub trait PiAlgorithm<P: InnerProblem> {
    /// Solves the problem; `seed` drives randomized algorithms.
    fn solve(&self, net: &Network, input: &Labeling<P::In>, seed: u64) -> PiRun<P::Out> {
        self.solve_with(net, input, seed, &Sequential)
    }

    /// [`PiAlgorithm::solve`] with a pluggable [`NodeExecutor`]: the
    /// padded solver threads its executor through here, so the inner
    /// algorithm of a padded run — the virtual-graph simulation — fans
    /// its per-node work across the same worker pool as the outer steps.
    /// Implementations must be bit-identical under **any** executor (the
    /// engine determinism suite gates this).
    fn solve_with<X: NodeExecutor>(
        &self,
        net: &Network,
        input: &Labeling<P::In>,
        seed: u64,
        exec: &X,
    ) -> PiRun<P::Out>;
}

/// Result of one inner-problem run.
#[derive(Clone, Debug)]
pub struct PiRun<O> {
    /// The produced output labeling.
    pub output: Labeling<O>,
    /// Measured complexity (rounds / max view radius).
    pub rounds: u32,
}

/// Sinkless orientation as an inner problem — `Π_1` of the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinklessInner(pub SinklessOrientation);

impl SinklessInner {
    /// The standard (degree ≥ 3) sinkless orientation.
    #[must_use]
    pub fn new() -> Self {
        SinklessInner(SinklessOrientation::new())
    }
}

impl InnerProblem for SinklessInner {
    type In = ();
    type Out = Orient;

    fn check_instance(
        &self,
        g: &Graph,
        input: &Labeling<()>,
        output: &Labeling<Orient>,
    ) -> Vec<Violation> {
        check(&self.0, g, input, output).violations
    }

    fn check_node_config(
        &self,
        node_in: &(),
        node_out: &Orient,
        edges: &[((), Orient)],
        halves: &[((), Orient)],
    ) -> Result<(), String> {
        let edges_in: Vec<&()> = edges.iter().map(|(i, _)| i).collect();
        let edges_out: Vec<&Orient> = edges.iter().map(|(_, o)| o).collect();
        let halves_in: Vec<&()> = halves.iter().map(|(i, _)| i).collect();
        let halves_out: Vec<&Orient> = halves.iter().map(|(_, o)| o).collect();
        self.0.check_node(&NodeView {
            degree: edges.len(),
            node_in,
            node_out,
            edges_in: &edges_in,
            edges_out: &edges_out,
            halves_in: &halves_in,
            halves_out: &halves_out,
        })
    }

    fn check_edge_config(
        &self,
        nodes_in: [&(); 2],
        nodes_out: [&Orient; 2],
        edge_in: &(),
        edge_out: &Orient,
        halves_in: [&(); 2],
        halves_out: [&Orient; 2],
    ) -> Result<(), String> {
        self.0.check_edge(&EdgeView {
            self_loop: false,
            nodes_in,
            nodes_out,
            edge_in,
            edge_out,
            halves_in,
            halves_out,
        })
    }

    fn filler_in(&self) {}

    fn filler_out(&self) -> Orient {
        Orient::Blank
    }

    fn dangler_edge_out(&self) -> Orient {
        Orient::Blank
    }

    fn dangler_half_out(&self) -> Orient {
        // An `Out` half satisfies the non-sink constraint unconditionally.
        Orient::Out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    #[test]
    fn sinkless_inner_node_config() {
        let p = SinklessInner::new();
        // Degree-3 node, one half Out: fine.
        let e = vec![((), Orient::Blank); 3];
        let h = vec![((), Orient::Out), ((), Orient::In), ((), Orient::In)];
        assert!(p.check_node_config(&(), &Orient::Blank, &e, &h).is_ok());
        // All-In degree-3: sink.
        let h = vec![((), Orient::In); 3];
        assert!(p.check_node_config(&(), &Orient::Blank, &e, &h).is_err());
        // Degree 0 (isolated virtual node): unconstrained.
        assert!(p.check_node_config(&(), &Orient::Blank, &[], &[]).is_ok());
    }

    #[test]
    fn sinkless_inner_edge_config() {
        let p = SinklessInner::new();
        let ok = p.check_edge_config(
            [&(), &()],
            [&Orient::Blank, &Orient::Blank],
            &(),
            &Orient::Blank,
            [&(), &()],
            [&Orient::Out, &Orient::In],
        );
        assert!(ok.is_ok());
        let bad = p.check_edge_config(
            [&(), &()],
            [&Orient::Blank, &Orient::Blank],
            &(),
            &Orient::Blank,
            [&(), &()],
            [&Orient::Out, &Orient::Out],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn sinkless_inner_full_check_delegates() {
        let g = gen::cycle(4);
        let input = Labeling::uniform(&g, ());
        let bad = Labeling::uniform(&g, Orient::Out);
        let v = SinklessInner::new().check_instance(&g, &input, &bad);
        assert!(!v.is_empty());
    }

    #[test]
    fn danglers_are_satisfying() {
        let p = SinklessInner::new();
        // A degree-3 virtual node whose halves are all danglers must pass.
        let e = vec![((), p.dangler_edge_out()); 3];
        let h = vec![((), p.dangler_half_out()); 3];
        assert!(p.check_node_config(&(), &Orient::Blank, &e, &h).is_ok());
    }
}
