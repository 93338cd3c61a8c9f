//! Differential property suite for the worst-case-optimal leapfrog
//! enumeration of cyclic query cores.
//!
//! For random CRPQs over the classic cyclic shapes — triangles, diamonds
//! (4-cycles), 4-cliques, and mixed tree+cycle patterns — and for simple
//! CXRPQs whose free-edge core is cyclic, the leapfrog intersection
//! ([`Strategy::Auto`] routing and forced [`Strategy::Leapfrog`]) must
//! return answer relations byte-for-byte identical to the forced
//! backtracker ([`Strategy::Backtrack`]) and the naive reference path, in
//! both full and projection-pushdown enumeration, and must agree on
//! `boolean()`. Deterministic cases additionally pin the routing stats
//! (cyclic cores go to leapfrog, forced backtrack performs zero
//! intersection seeks) and drive governed aborts through the leapfrog
//! loop: a run tripped mid-intersection yields a sound partial
//! under-approximation and leaves no stale state behind.

use cxrpq::core::{
    AbortReason, Crpq, CrpqEvaluator, Cxrpq, Evaluate, Governor, GraphPattern, Outcome,
    PipelineStats, Request, SimpleEvaluator, SolveOptions, Strategy,
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

type Solve<'a> = dyn Fn(&SolveOptions) -> Outcome + 'a;

/// The answer relation and pipeline stats of an `Answers` run.
fn split(out: Outcome) -> (BTreeSet<Vec<NodeId>>, Option<PipelineStats>) {
    (out.value.into_tuples(), out.pipeline)
}

/// Asserts that every strategy agrees with the naive reference — full and
/// projected — and that the forced backtracker never seeks. Returns the
/// Auto-routed pipeline stats for shape-specific assertions.
fn assert_strategies_agree(solve: &Solve) -> PipelineStats {
    let (reference, _) = split(solve(&SolveOptions::naive()));
    let auto = SolveOptions::pipeline();
    let back = SolveOptions::pipeline().with_strategy(Strategy::Backtrack);
    let leap = SolveOptions::pipeline().with_strategy(Strategy::Leapfrog);

    let (ans_auto, stats) = split(solve(&auto));
    assert_eq!(reference, ans_auto, "auto strategy changed the answers");
    let (ans_back, back_stats) = split(solve(&back));
    assert_eq!(reference, ans_back, "forced backtrack changed the answers");
    let (ans_leap, _) = split(solve(&leap));
    assert_eq!(reference, ans_leap, "forced leapfrog changed the answers");
    assert_eq!(
        back_stats
            .as_ref()
            .expect("planned runs report stats")
            .intersection_seeks,
        0,
        "forced backtrack must not perform intersection seeks"
    );

    for opts in [auto, back, leap] {
        let strategy = opts.strategy;
        let (projected, _) = split(solve(&opts.projected()));
        assert_eq!(
            reference, projected,
            "projection pushdown diverged under {strategy:?}"
        );
    }
    stats.expect("planned runs report stats")
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
/// full strategy-agreement harness against a random multigraph. Returns
/// the Auto stats only when the analyzer left the constraint graph intact
/// — a dropped subsumed atom or a merged variable pair legitimately breaks
/// the cycle before planning, so shape assertions would be wrong there.
fn check_shape(
    seed: u64,
    vars: usize,
    atoms: &[(usize, usize)],
    outs: &[usize],
) -> Option<PipelineStats> {
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
    let stats = assert_strategies_agree(&|o| ev.run(&db, Request::Answers, o));
    let intact = stats
        .analysis
        .as_ref()
        .is_none_or(|r| r.stats.atoms_dropped == 0 && r.stats.vars_merged == 0 && !r.stats.unsat);
    intact.then_some(stats)
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
        if let Some(stats) = check_shape(seed, 3, TRIANGLE, &[0, 1]) {
            prop_assert_eq!(stats.leapfrog_components, 1);
            prop_assert_eq!(stats.tree_components, 0);
        }
    }

    #[test]
    fn diamond_strategies_agree(seed in 0u64..100_000) {
        if let Some(stats) = check_shape(seed, 4, DIAMOND, &[0, 2]) {
            prop_assert_eq!(stats.leapfrog_components, 1);
            prop_assert_eq!(stats.tree_components, 0);
        }
    }

    #[test]
    fn clique4_strategies_agree(seed in 0u64..100_000) {
        if let Some(stats) = check_shape(seed, 4, CLIQUE4, &[0, 3]) {
            prop_assert_eq!(stats.leapfrog_components, 1);
            prop_assert_eq!(stats.tree_components, 0);
        }
    }

    #[test]
    fn mixed_tree_and_cycle_strategies_agree(seed in 0u64..100_000) {
        // The pendant chain shares the triangle's full component, so the
        // whole core counts as one cyclic component with no pure tree.
        if let Some(stats) = check_shape(seed, 5, MIXED, &[0, 4]) {
            prop_assert_eq!(stats.leapfrog_components, 1);
            prop_assert_eq!(stats.tree_components, 0);
        }
    }

    /// A cyclic core next to a disjoint chain: one leapfrog component, one
    /// tree component, answers the cross product of the two.
    #[test]
    fn disjoint_cycle_and_chain_strategies_agree(seed in 0u64..100_000) {
        let atoms = &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)];
        if let Some(stats) = check_shape(seed, 6, atoms, &[0, 3]) {
            prop_assert_eq!(stats.leapfrog_components, 1);
            prop_assert_eq!(stats.tree_components, 1);
        }
    }

    /// Simple CXRPQs: string-variable atoms compile to groups plus middle
    /// edges, so the free-edge core is typically a tree — the strategies
    /// must still agree everywhere (forced leapfrog marks every constrained
    /// variable eligible and must change nothing).
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
        assert_strategies_agree(&|o| ev.run(&db, Request::Answers, o));
    }
}

/// Deterministic instance dense enough that the triangle actually matches:
/// pins the routing stats end to end — Auto performs real multiway seeks,
/// forced backtrack reports the whole core as tree and never seeks — and
/// checks `boolean()` agreement on top.
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

    let (auto_ans, stats) = split(ev.run(&db, Request::Answers, &SolveOptions::pipeline()));
    let s = stats.expect("planned runs report stats");
    assert_eq!(s.leapfrog_components, 1);
    assert_eq!(s.tree_components, 0);
    assert!(
        s.intersection_seeks > 0,
        "a matching triangle must drive the leapfrog intersection"
    );

    let back = SolveOptions::pipeline().with_strategy(Strategy::Backtrack);
    let (back_ans, back_stats) = split(ev.run(&db, Request::Answers, &back));
    assert_eq!(auto_ans, back_ans);
    let bs = back_stats.unwrap();
    assert_eq!(bs.leapfrog_components, 0);
    assert_eq!(bs.intersection_seeks, 0);

    let naive_ans = ev
        .run(&db, Request::Answers, &SolveOptions::naive())
        .value
        .into_tuples();
    assert_eq!(auto_ans, naive_ans);
    assert!(
        !auto_ans.is_empty(),
        "vacuous instance: no triangle matched"
    );

    for opts in [
        SolveOptions::early_exit(),
        SolveOptions::early_exit().with_strategy(Strategy::Backtrack),
        SolveOptions::early_exit().with_strategy(Strategy::Leapfrog),
    ] {
        assert!(ev.run(&db, Request::Boolean, &opts).value.into_bool());
    }
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
    let leap = SolveOptions::pipeline().with_strategy(Strategy::Leapfrog);
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
