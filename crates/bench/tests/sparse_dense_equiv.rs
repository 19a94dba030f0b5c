//! Dense-vs-sparse round-engine equivalence, proptest-pinned.
//!
//! The event-driven sparse engine (`run_rounds` / `run_rounds_with`) must
//! be **bit-identical** to the sequential dense oracle (`run_rounds_dense`)
//! for every algorithm honoring the
//! sparse-execution contract: same outputs, same `RoundTrace.rounds`,
//! same `completed`, same undecided attribution. This suite sweeps the
//! six-family generator zoo, multigraphs, and self-loops, under both the
//! sequential engine and the pooled executor (the CI determinism job
//! re-runs it with `LCL_POOL_THREADS` pinned).

use lcl_algos::luby_rounds::DistributedLuby;
use lcl_algos::matching_rounds::DistributedMatching;
use lcl_bench::Parallel;
use lcl_graph::{gen, Graph, NodeId};
use lcl_local::{
    run_rounds, run_rounds_dense, run_rounds_with, IdAssignment, Network, NodeCtx, RoundAlgorithm,
};
use proptest::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Runs the dense oracle and the sparse engine (sequential and pooled) on
/// one instance and asserts both sparse runs are bit-identical to the
/// oracle.
fn assert_engines_agree<A>(net: &Network, alg: &A, seed: u64, cap: u32, label: &str)
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Clone + Send + PartialEq + std::fmt::Debug,
{
    let dense = run_rounds_dense(net, alg, seed, cap);
    let sparse = run_rounds(net, alg, seed, cap);
    assert_eq!(sparse.outputs, dense.outputs, "{label}: sparse outputs diverged from dense oracle");
    assert_eq!(sparse.trace, dense.trace, "{label}: sparse trace diverged from dense oracle");
    assert_eq!(sparse.undecided, dense.undecided, "{label}: undecided attribution diverged");

    let sparse_p = run_rounds_with(net, alg, seed, cap, &Parallel);
    assert_eq!(sparse_p.outputs, dense.outputs, "{label}: pooled sparse outputs diverged");
    assert_eq!(sparse_p.trace, dense.trace, "{label}: pooled sparse trace diverged");
    assert_eq!(sparse_p.undecided, dense.undecided, "{label}: pooled undecided diverged");
}

/// One instance per generator-zoo family, sized and seeded from proptest
/// inputs.
fn zoo_graph(family: usize, size: usize, seed: u64) -> (&'static str, Graph) {
    match family {
        0 => {
            let max_m = size * (size - 1) / 2;
            ("gnm", gen::gnm(size, (2 * size).min(max_m), seed).expect("m <= n(n-1)/2"))
        }
        1 => ("hypercube", gen::hypercube((size % 5 + 1) as u32)),
        2 => ("caterpillar", gen::caterpillar(size / 2 + 1, size / 2, seed)),
        3 => ("lift", gen::random_lift(&gen::complete(4), size / 4 + 1, seed)),
        4 => {
            let n = (size & !1).max(4);
            ("3reg", gen::random_regular(n, 3, seed).expect("even n >= 4 is generable"))
        }
        5 => ("torus", gen::torus(size / 4 + 2, 4)),
        _ => unreachable!("family selector out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn luby_sparse_equals_dense_across_zoo(
        family in 0usize..6,
        size in 8usize..48,
        seed in 0u64..1000,
    ) {
        let (name, g) = zoo_graph(family, size, seed);
        let net = Network::new(g, IdAssignment::Shuffled { seed });
        assert_engines_agree(&net, &DistributedLuby, seed, 400, name);
    }

    #[test]
    fn matching_sparse_equals_dense_across_zoo(
        family in 0usize..6,
        size in 8usize..48,
        seed in 0u64..1000,
    ) {
        let (name, g) = zoo_graph(family, size, seed);
        let net = Network::new(g, IdAssignment::Shuffled { seed });
        assert_engines_agree(&net, &DistributedMatching, seed, 400, name);
    }

    /// Multigraphs (parallel edges) and self-loops go straight at the
    /// engines — the `try_run` wrappers reject loops, but the engines
    /// themselves must stay equivalent on them (matching never resolves a
    /// loop, so these runs also exercise cap-hit undecided attribution).
    #[test]
    fn multigraphs_and_self_loops_agree(
        n in 4usize..24,
        d in 2usize..5,
        seed in 0u64..1000,
    ) {
        let n = (n & !1).max(4);
        let multi = gen::random_regular_multigraph(n, d, seed).expect("even n is generable");
        let mut looped = multi.clone();
        looped.add_edge(NodeId(0), NodeId(0));
        looped.add_edge(NodeId((n - 1) as u32), NodeId((n - 1) as u32));
        for (name, g) in [("multigraph", multi), ("self-loops", looped)] {
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            assert_engines_agree(&net, &DistributedLuby, seed, 200, name);
            assert_engines_agree(&net, &DistributedMatching, seed, 200, name);
        }
    }
}

/// A contract-conforming protocol that goes **quiescent while undecided**:
/// nodes broadcast a decaying TTL and fall silent at zero, and nobody ever
/// outputs. The sparse engine's frontier empties after the pulses die out
/// and it fast-forwards to the round cap — accounting must match the dense
/// oracle spinning there, under every executor.
struct Pulse;

impl RoundAlgorithm for Pulse {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> u64 {
        ctx.id % 7
    }

    fn send(&self, state: &u64, ctx: &NodeCtx) -> Vec<(usize, u64)> {
        if *state > 0 {
            (0..ctx.degree).map(|p| (p, *state)).collect()
        } else {
            Vec::new()
        }
    }

    fn receive(
        &self,
        state: &mut u64,
        _ctx: &NodeCtx,
        inbox: &[(usize, u64)],
        _r: &mut ChaCha8Rng,
    ) {
        // A node that sent nothing (state 0) and heard nothing computes
        // max(0, 0) = 0: exactly the inertness the contract demands.
        let heard = inbox.iter().map(|&(_, m)| m - 1).max().unwrap_or(0);
        *state = heard.max(state.saturating_sub(1));
    }

    fn output(&self, _state: &u64, _ctx: &NodeCtx) -> Option<u64> {
        None
    }
}

#[test]
fn quiescent_pulse_fast_forwards_identically_to_dense() {
    for (name, g) in [
        ("cycle", gen::cycle(64)),
        ("caterpillar", gen::caterpillar(24, 24, 3)),
        ("disjoint", gen::disjoint_cycles(4, 9)),
    ] {
        let net = Network::new(g, IdAssignment::Shuffled { seed: 13 });
        assert_engines_agree(&net, &Pulse, 13, 5000, name);
        let out = run_rounds(&net, &Pulse, 13, 5000);
        assert_eq!(out.trace.rounds, 5000, "{name}: fast-forward must land on the cap");
        assert!(!out.trace.completed, "{name}: a quiescent undecided run is not completed");
        assert_eq!(out.undecided.len(), net.len(), "{name}: every node stays undecided");
    }
}
