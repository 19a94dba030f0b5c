//! In-place color-class elimination vs the round-by-round sweep,
//! proptest-pinned.
//!
//! `linial::try_run_with` eliminates the classes above the `(Δ+1)`-palette
//! by recoloring only the nodes that hold them, top class first, in place;
//! `linial::try_run_round_by_round` keeps the sweep over every node per
//! eliminated class as the oracle. Both must agree on `colors`,
//! `reduction_rounds` and `elimination_rounds`, under the sequential and
//! the pooled executor (the CI determinism job re-runs this suite with
//! `LCL_POOL_THREADS` pinned), across the seven-family generator zoo, tiny
//! cells where the Linial reduction never starts, and the `Δ = 14`
//! hypercube.

use lcl_algos::linial::{self, LinialOutcome};
use lcl_bench::Parallel;
use lcl_graph::{gen, Graph};
use lcl_local::{IdAssignment, Network, Sequential};
use proptest::prelude::*;

/// Runs the oracle and the in-place elimination (sequential and pooled)
/// and asserts they agree; returns the oracle's outcome.
fn assert_eliminations_agree(net: &Network, label: &str) -> LinialOutcome {
    let oracle = linial::try_run_round_by_round(net).expect("zoo graphs are loopless");
    for (exec, out) in [
        ("sequential", linial::try_run_with(net, &Sequential)),
        ("pooled", linial::try_run_with(net, &Parallel)),
    ] {
        let out = out.expect("zoo graphs are loopless");
        assert_eq!(out.colors, oracle.colors, "{label} ({exec}): colors diverged");
        assert_eq!(
            (out.reduction_rounds, out.elimination_rounds),
            (oracle.reduction_rounds, oracle.elimination_rounds),
            "{label} ({exec}): round split diverged"
        );
        assert_eq!(out.labeling, oracle.labeling, "{label} ({exec}): labeling diverged");
    }
    let palette = net.graph().max_degree().max(1) as u32 + 1;
    assert!(oracle.colors.iter().all(|&c| c < palette), "{label}: colors outside the palette");
    oracle
}

/// One instance per generator-zoo family (the scenario zoo's seven),
/// sized and seeded from proptest inputs.
fn zoo_graph(family: usize, size: usize, seed: u64) -> (&'static str, Graph) {
    match family {
        0 => {
            let n = (size & !1).max(4);
            ("3-regular", gen::random_regular(n, 3, seed).expect("even n >= 4 is generable"))
        }
        1 => ("gnm", gen::gnm(size, 3 * size / 2, seed).expect("m <= n(n-1)/2")),
        2 => ("torus", gen::torus(size / 4 + 3, 4)),
        3 => ("hypercube", gen::hypercube((size % 8 + 1) as u32)),
        4 => ("caterpillar", gen::caterpillar(size / 2 + 1, size / 2, seed)),
        5 => ("lift", gen::random_lift(&gen::complete(4), size / 4 + 1, seed)),
        6 => ("pods", gen::pods(size / 8 + 5, 8, 2, seed).expect("2 links < pods")),
        _ => unreachable!("family selector out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn in_place_elimination_matches_sweep_across_zoo(
        family in 0usize..7,
        size in 8usize..200,
        seed in 0u64..1000,
        sparse_ids in 0u8..2,
    ) {
        let (name, g) = zoo_graph(family, size, seed);
        let ids = if sparse_ids == 1 {
            IdAssignment::SparseShuffled { seed }
        } else {
            IdAssignment::Shuffled { seed }
        };
        assert_eliminations_agree(&Network::new(g, ids), name);
    }
}

/// Tiny pods and caterpillar cells: the identifier palette is too small
/// for any Linial step, so the whole run is the elimination, with about
/// `n` rounds.
#[test]
fn tiny_cells_are_all_elimination() {
    for seed in [1u64, 9001] {
        for (name, g) in [
            ("pods-p8x2 n=64", gen::pods(8, 8, 2, seed).expect("2 links < 8 pods")),
            ("pods-p8x2 n=128", gen::pods(16, 8, 2, seed).expect("2 links < 16 pods")),
            ("caterpillar n=50", gen::caterpillar(25, 25, seed)),
            ("caterpillar n=128", gen::caterpillar(64, 64, seed)),
        ] {
            let n = g.node_count() as u32;
            let delta = g.max_degree() as u32;
            let out =
                assert_eliminations_agree(&Network::new(g, IdAssignment::Shuffled { seed }), name);
            assert_eq!(out.reduction_rounds, 0, "{name}: the reduction never starts");
            // Identifiers 1..=n: classes Δ+1..=n are eliminated.
            assert_eq!(out.elimination_rounds, n - delta, "{name}: one round per class");
        }
    }
}

/// The `Δ = 14` hypercube: hundreds of eliminated classes over 2¹⁴ nodes.
#[test]
fn delta_14_hypercube_matches_sweep() {
    let net = Network::new(gen::hypercube(14), IdAssignment::Shuffled { seed: 1 });
    let out = assert_eliminations_agree(&net, "hypercube d=14");
    assert!(out.reduction_rounds > 0);
    assert!(out.elimination_rounds >= 100, "{} classes", out.elimination_rounds);
}
