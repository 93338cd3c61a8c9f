//! Differential property suite for the worst-case-optimal leapfrog
//! enumeration of cyclic query cores.
//!
//! The enumerator intersects wherever two or more bound constraints meet
//! the variable it extends. For random CRPQs over the classic cyclic
//! shapes — triangles, diamonds (4-cycles), 4-cliques, and mixed
//! tree+cycle patterns — and for simple CXRPQs whose free-edge core is
//! cyclic, the pipeline must return answer relations byte-for-byte
//! identical to the naive reference path (the binary backtracker, where
//! only one edge proposes), in both full and projection-pushdown
//! enumeration, and must agree on early-exit `boolean()`. Deterministic
//! cases additionally check that cyclic cores and trees with a doubly
//! bound middle variable really intersect, and drive governed aborts
//! through the leapfrog loop: a run tripped mid-intersection yields a
//! sound partial under-approximation and leaves no stale state behind.

use cxrpq::core::{
    AbortReason, Crpq, CrpqEvaluator, Cxrpq, Evaluate, Governor, GraphPattern, Outcome,
    PipelineStats, Request, SimpleEvaluator, SolveOptions,
};
use cxrpq::graph::{Alphabet, NodeId};
use cxrpq::workloads::graphs::random_labeled;
use cxrpq::workloads::rand_queries::{random_classical, random_simple, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 32 };

type Solve<'a> = dyn Fn(Request<'_>, &SolveOptions) -> Outcome + 'a;

/// The answer relation and pipeline stats of an `Answers` run.
fn split(out: Outcome) -> (BTreeSet<Vec<NodeId>>, Option<PipelineStats>) {
    (out.value.into_tuples(), out.pipeline)
}

/// Asserts that the pipeline agrees with the naive reference: the answer
/// relation full and projected, and the early-exit Boolean verdict with
/// and without projection.
fn assert_agrees_with_naive(solve: &Solve) {
    let (reference, _) = split(solve(Request::Answers, &SolveOptions::naive()));
    let (full, _) = split(solve(Request::Answers, &SolveOptions::pipeline()));
    assert_eq!(reference, full, "the pipeline changed the answers");
    let (projected, _) = split(solve(
        Request::Answers,
        &SolveOptions::pipeline().projected(),
    ));
    assert_eq!(reference, projected, "projection pushdown diverged");

    let naive = solve(Request::Boolean, &SolveOptions::naive())
        .value
        .into_bool();
    assert_eq!(naive, !reference.is_empty());
    for opts in [
        SolveOptions::early_exit(),
        SolveOptions::early_exit().projected(),
    ] {
        let verdict = solve(Request::Boolean, &opts).value.into_bool();
        assert_eq!(naive, verdict, "early-exit boolean diverged");
    }
}

/// A graph pattern with the given `(src, dst)` atoms over `vars` node
/// variables, each labelled by a fresh random classical regex.
fn shaped_pattern(
    rng: &mut StdRng,
    vars: usize,
    atoms: &[(usize, usize)],
) -> GraphPattern<cxrpq::automata::Regex> {
    let mut pattern = GraphPattern::new();
    let nodes: Vec<_> = (0..vars).map(|i| pattern.node(&format!("n{i}"))).collect();
    for &(s, t) in atoms {
        pattern.add_edge(nodes[s], 0usize, nodes[t]);
    }
    pattern.map_labels(|_, _| random_classical(rng, 2, 2))
}

/// Builds a CRPQ with the given shape and output variables, then runs the
/// naive-agreement harness against a random multigraph.
fn check_shape(seed: u64, vars: usize, atoms: &[(usize, usize)], outs: &[usize]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = random_labeled(alpha, 5, 14, seed ^ 0x0c03);
    let pattern = shaped_pattern(&mut rng, vars, atoms);
    let outputs: Vec<_> = outs
        .iter()
        .map(|&i| pattern.node_var(&format!("n{i}")).unwrap())
        .collect();
    let q = Crpq::new(pattern, outputs);
    let ev = CrpqEvaluator::new(&q);
    assert_agrees_with_naive(&|r, o| ev.run(&db, r, o));
}

const TRIANGLE: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0)];
const DIAMOND: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 3), (3, 0)];
const CLIQUE4: &[(usize, usize)] = &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
/// Triangle core with a pendant 2-chain hanging off one corner.
const MIXED: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn triangle_strategies_agree(seed in 0u64..100_000) {
        check_shape(seed, 3, TRIANGLE, &[0, 1]);
    }

    #[test]
    fn diamond_strategies_agree(seed in 0u64..100_000) {
        check_shape(seed, 4, DIAMOND, &[0, 2]);
    }

    #[test]
    fn clique4_strategies_agree(seed in 0u64..100_000) {
        check_shape(seed, 4, CLIQUE4, &[0, 3]);
    }

    #[test]
    fn mixed_tree_and_cycle_strategies_agree(seed in 0u64..100_000) {
        check_shape(seed, 5, MIXED, &[0, 4]);
    }

    /// A cyclic core next to a disjoint chain: answers are the cross
    /// product of the two.
    #[test]
    fn disjoint_cycle_and_chain_strategies_agree(seed in 0u64..100_000) {
        check_shape(seed, 6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], &[0, 3]);
    }

    /// Simple CXRPQs: string-variable atoms compile to groups plus middle
    /// edges, so the free-edge core is typically a tree — the pipeline must
    /// still agree with the naive path everywhere.
    #[test]
    fn simple_cxrpq_strategies_agree(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = QueryShape { dims: 3, vars: 2, sigma: 2, alt_prob: 0.0 };
        let cx = random_simple(&mut rng, &shape);
        let mut pattern = GraphPattern::new();
        let nodes: Vec<_> = (0..3).map(|i| pattern.node(&format!("n{i}"))).collect();
        for (i, &(s, t)) in TRIANGLE.iter().enumerate() {
            pattern.add_edge(nodes[s], i, nodes[t]);
        }
        let q = Cxrpq::from_parts(pattern, cx, vec![nodes[0], nodes[1]]);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 4, 10, seed ^ 0x51e9);
        let ev = SimpleEvaluator::new(&q).expect("generated queries are simple");
        assert_agrees_with_naive(&|r, o| ev.run(&db, r, o));
    }
}

/// Deterministic instance dense enough that the triangle actually matches:
/// the pipeline performs real multiway seeks, the naive path never seeks,
/// and both agree on the answers and on `boolean()`.
#[test]
fn triangle_routes_to_leapfrog_and_counts_seeks() {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let db = random_labeled(alpha, 12, 120, 9);
    let mut a2 = db.alphabet().clone();
    let q = Crpq::build(
        &[("x", "a", "y"), ("y", "b", "z"), ("z", "c", "x")],
        &["x", "y", "z"],
        &mut a2,
    )
    .unwrap();
    let ev = CrpqEvaluator::new(&q);

    let (ans, stats) = split(ev.run(&db, Request::Answers, &SolveOptions::pipeline()));
    assert!(
        stats.expect("planned runs report stats").intersection_seeks > 0,
        "a matching triangle must drive the leapfrog intersection"
    );
    let naive = ev.run(&db, Request::Answers, &SolveOptions::naive());
    assert!(naive.pipeline.is_none_or(|s| s.intersection_seeks == 0));
    assert_eq!(ans, naive.value.into_tuples());
    assert!(!ans.is_empty(), "vacuous instance: no triangle matched");
    assert!(ev
        .run(&db, Request::Boolean, &SolveOptions::early_exit())
        .value
        .into_bool());
}

/// A tree whose middle variable `y` has bound edges to both pinned outputs
/// intersects too: the choice follows the bound constraints at `y`, not a
/// static cycle test. Without projection the analyzer contracts nothing,
/// so `y` reaches the enumerator. Every pair's verdict must match the
/// naive path's.
#[test]
fn tree_middle_variable_with_two_bound_edges_intersects() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = random_labeled(alpha, 12, 60, 3);
    let mut a2 = db.alphabet().clone();
    let q = Crpq::build(&[("x", "a+", "y"), ("y", "b", "z")], &["x", "z"], &mut a2).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let mut seeks = 0;
    let mut hits = 0;
    for x in db.nodes() {
        for z in db.nodes() {
            let tuple = [x, z];
            let out = ev.run(&db, Request::Check(&tuple), &SolveOptions::early_exit());
            seeks += out
                .pipeline
                .expect("planned runs report stats")
                .intersection_seeks;
            let verdict = out.value.into_bool();
            let naive = ev.run(&db, Request::Check(&tuple), &SolveOptions::naive());
            assert_eq!(verdict, naive.value.into_bool(), "check({x:?}, {z:?})");
            hits += usize::from(verdict);
        }
    }
    assert!(seeks > 0, "a doubly bound middle variable must intersect");
    assert!(hits > 0, "vacuous instance: no pair matched");
}

/// Governed aborts through the leapfrog loop: trip the governor at every
/// checkpoint a dry run passes and require (1) a sound partial relation,
/// (2) the `Aborted(Injected)` verdict, (3) a clean re-solve afterwards —
/// no partially-built sorted row or intersection state may leak.
#[test]
fn leapfrog_aborts_are_sound() {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let db = random_labeled(alpha, 12, 120, 9);
    let mut a2 = db.alphabet().clone();
    let q = Crpq::build(
        &[("x", "a", "y"), ("y", "b", "z"), ("z", "c", "x")],
        &["x", "y", "z"],
        &mut a2,
    )
    .unwrap();
    let ev = CrpqEvaluator::new(&q);
    let leap = SolveOptions::pipeline();
    let (complete, stats) = split(ev.run(&db, Request::Answers, &leap));
    assert!(
        stats.unwrap().intersection_seeks > 0,
        "the sweep must actually exercise the leapfrog loop"
    );

    let dry = Arc::new(Governor::unlimited());
    let governed = ev
        .run(&db, Request::Answers, &leap.clone().governed(dry.clone()))
        .value
        .into_tuples();
    assert_eq!(governed, complete, "an untripped governor changed answers");
    let seen = dry.checkpoints_seen();
    assert!(seen > 0, "vacuous sweep: no checkpoints passed");

    for k in 1..=seen {
        let gov = Arc::new(Governor::unlimited().with_injection(k));
        let partial = ev
            .run(&db, Request::Answers, &leap.clone().governed(gov.clone()))
            .value
            .into_tuples();
        assert_eq!(gov.abort_reason(), Some(AbortReason::Injected), "k={k}");
        assert!(partial.is_subset(&complete), "k={k}: partial ⊄ complete");
        let repeat = ev.run(&db, Request::Answers, &leap).value.into_tuples();
        assert_eq!(repeat, complete, "k={k}: post-abort re-solve diverged");
    }
}
