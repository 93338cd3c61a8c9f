//! Differential property test for the plan/prune/enumerate solver pipeline.
//!
//! The pipeline ([`SolveOptions::pipeline`]) must return results identical
//! to the retained naive-order reference path ([`SolveOptions::naive`] —
//! query-text join order, no domain pruning) on every query family that
//! reduces to the shared constraint solver:
//!
//! - random **CRPQs** (free edges only),
//! - random **simple CXRPQs** (equality groups per string variable,
//!   Lemma 3),
//! - random **ECRPQs** (regular-relation groups),
//!
//! over random multigraphs, comparing `answers()` byte-for-byte and
//! `boolean()`/`check()` across the naive, full-pipeline,
//! early-exit-capped and **projection-pushdown** configurations — the
//! pushdown-projected answer relation must equal the naive
//! full-enumerate-then-project reference on every family (with and without
//! plan/prune, so the dynamic existential cutoff is exercised on both
//! paths) — including `check` on out-of-range node ids (which must be
//! quietly empty, never a panic). Dedicated cases drive the adversarial
//! long-chain shape, where every reach row spans a long stretch of the
//! chain, and the dedup-correctness edge case where an output variable is
//! also the last shared variable of the plan order.

use cxrpq::core::{
    Crpq, CrpqEvaluator, Cxrpq, Ecrpq, EcrpqEvaluator, Evaluate, GraphPattern, PipelineStats,
    RegularRelation, Request, SimpleEvaluator, SolveOptions,
};
use cxrpq::graph::{Alphabet, GraphDb, NodeId, Symbol};
use cxrpq::workloads::graphs::{labeled_path, random_labeled};
use cxrpq::workloads::rand_queries::{random_classical, random_simple, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 10 } else { 48 };

/// Asserts naive ≡ pipeline ≡ early-exit on one (query, database) pair and
/// returns the pipeline stats for shape-specific assertions. `arity` is the
/// query's output arity, so the random and out-of-range `check` probes run
/// even when the answer relation is empty.
fn assert_agreement(
    ev: &dyn Evaluate,
    db: &GraphDb,
    rng: &mut StdRng,
    arity: usize,
) -> Option<PipelineStats> {
    let answers = |o: &SolveOptions| {
        let out = ev.run(db, Request::Answers, o);
        (out.value.into_tuples(), out.pipeline)
    };
    let boolean = |o: &SolveOptions| ev.run(db, Request::Boolean, o).value.into_bool();
    let check = |t: &[NodeId], o: &SolveOptions| ev.run(db, Request::Check(t), o).value.into_bool();
    let naive = SolveOptions::naive();
    let piped = SolveOptions::pipeline();
    let early = SolveOptions::early_exit();

    let (ans_naive, no_stats) = answers(&naive);
    assert!(
        no_stats.is_none(),
        "naive runs must not report pipeline stats"
    );
    let (ans_piped, stats) = answers(&piped);
    assert_eq!(ans_naive, ans_piped, "pipeline changed the answer relation");
    // Projection pushdown (existential elimination + enumerator dedup) must
    // reproduce the full-enumerate-then-project reference — both on top of
    // the pipeline and on the bare naive path (no plan, no domains), which
    // isolates the dynamic cutoff logic.
    let (ans_proj, _) = answers(&piped.clone().projected());
    assert_eq!(
        ans_naive, ans_proj,
        "projection pushdown changed the answer relation"
    );
    let (ans_proj_naive, _) = answers(&naive.clone().projected());
    assert_eq!(
        ans_naive, ans_proj_naive,
        "unplanned projection pushdown changed the answer relation"
    );

    let b_naive = boolean(&naive);
    assert_eq!(b_naive, boolean(&piped), "pipeline changed boolean()");
    assert_eq!(b_naive, boolean(&early), "early-exit cap changed boolean()");
    assert_eq!(
        b_naive,
        boolean(&early.clone().projected()),
        "all-existential boolean fast path changed boolean()"
    );

    // check() on up to three real answers, one random tuple, and one tuple
    // with an out-of-range node id (must be false everywhere, no panic —
    // probed on unsatisfiable queries too).
    let mut probes: Vec<Vec<NodeId>> = ans_naive.iter().take(3).cloned().collect();
    probes.push(
        (0..arity)
            .map(|_| NodeId(rng.random_range(0..db.node_count() as u32)))
            .collect(),
    );
    probes.push(vec![NodeId(db.node_count() as u32 + 7); arity]);
    for t in &probes {
        let expected = ans_naive.contains(t);
        assert_eq!(check(t, &naive), expected, "naive check disagrees on {t:?}");
        assert_eq!(check(t, &piped), expected, "piped check disagrees on {t:?}");
        assert_eq!(check(t, &early), expected, "early check disagrees on {t:?}");
        assert_eq!(
            check(t, &early.clone().projected()),
            expected,
            "projected check disagrees on {t:?}"
        );
    }
    stats
}

/// A random graph pattern over `vars` node variables with `edges` edges
/// labelled by component indices `0..edges`.
fn random_pattern(rng: &mut StdRng, vars: usize, edges: usize) -> GraphPattern<usize> {
    let mut pattern = GraphPattern::new();
    let nodes: Vec<_> = (0..vars).map(|i| pattern.node(&format!("n{i}"))).collect();
    for i in 0..edges {
        let s = nodes[rng.random_range(0..nodes.len())];
        let t = nodes[rng.random_range(0..nodes.len())];
        pattern.add_edge(s, i, t);
    }
    pattern
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn crpq_pipeline_matches_naive(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 5, 12, seed ^ 0x5eed);
        let edges = rng.random_range(2..=3usize);
        let pattern = random_pattern(&mut rng, 3, edges)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Crpq::new(pattern, vec![out0, out1]);
        let ev = CrpqEvaluator::new(&q);
        let stats = assert_agreement(&ev, &db, &mut rng, 2);
        if let Some(s) = stats {
            prop_assert!(s.total_after() <= s.total_before());
        }
    }

    #[test]
    fn simple_cxrpq_pipeline_matches_naive(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = QueryShape { dims: 2, vars: 2, sigma: 2, alt_prob: 0.0 };
        let cx = random_simple(&mut rng, &shape);
        let pattern = random_pattern(&mut rng, 3, shape.dims);
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Cxrpq::from_parts(pattern, cx, vec![out0, out1]);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 4, 10, seed ^ 0x9e37_79b9);
        let ev = SimpleEvaluator::new(&q).expect("generated queries are simple");
        assert_agreement(&ev, &db, &mut rng, 2);
    }

    #[test]
    fn ecrpq_pipeline_matches_naive(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 4, 10, seed ^ 0xec);
        // Three edges; the first two constrained by a regular relation.
        let pattern = random_pattern(&mut rng, 3, 3)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let rel = if rng.random_bool(0.5) {
            RegularRelation::equality(2)
        } else {
            RegularRelation::equal_length(2)
        };
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Ecrpq::new(pattern, vec![(rel, vec![0, 1])], vec![out0, out1])
            .expect("well-formed relation tuple");
        let ev = EcrpqEvaluator::new(&q);
        assert_agreement(&ev, &db, &mut rng, 2);
    }
}

/// A long-diameter chain: every prune row and every enumeration row spans
/// a long stretch of the chain, and the pipeline must still agree with the
/// naive reference.
#[test]
fn long_chain_pipeline_agrees_with_naive() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let word: Vec<Symbol> = alpha.parse_word(&"ab".repeat(60)).unwrap();
    let (db, _, _) = labeled_path(alpha, &word); // 121 nodes, diameter 120
    let mut rng = StdRng::seed_from_u64(7);

    let mut pattern = GraphPattern::new();
    let x = pattern.node("x");
    let y = pattern.node("y");
    let z = pattern.node("z");
    pattern.add_edge(x, 0usize, y);
    pattern.add_edge(y, 1usize, z);
    let mut a2 = db.alphabet().clone();
    let re = |a: &mut Alphabet, s: &str| cxrpq::automata::parse_regex(s, a).unwrap();
    let labels = [re(&mut a2, "(ab)+"), re(&mut a2, "a(ba)*b")];
    let pattern = pattern.map_labels(|i, _| labels[i].clone());
    let q = Crpq::new(pattern, vec![x, z]);
    let ev = CrpqEvaluator::new(&q);

    let stats =
        assert_agreement(&ev, &db, &mut rng, 2).expect("free-edge query records pipeline stats");
    assert!(stats.rounds >= 1);
}

/// The dedup-correctness edge case called out in the plan's projection
/// split: the output variable `z` is also the *last shared variable* — it
/// closes two constraints at the end of the plan order, and the non-output
/// middle variable `y` is bound before it. Distinct `y`-branches then reach
/// identical `(x, z)` projections, which the enumerator must emit exactly
/// once while still reporting every distinct tuple.
#[test]
fn output_as_last_shared_variable_dedups_correctly() {
    // Diamond fan: s -a-> {m1, m2} -b-> {t1, t2}, plus s -c-> t1 so the
    // join edge (x, c, z) shares z with the chain's last hop.
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let (db, names) = {
        let mut b = cxrpq::graph::GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let bb = b.alphabet().sym("b");
        let c = b.alphabet().sym("c");
        let s = b.add_node();
        let m1 = b.add_node();
        let m2 = b.add_node();
        let t1 = b.add_node();
        let t2 = b.add_node();
        b.add_edge(s, a, m1);
        b.add_edge(s, a, m2);
        b.add_edge(m1, bb, t1);
        b.add_edge(m2, bb, t1);
        b.add_edge(m2, bb, t2);
        b.add_edge(s, c, t1);
        (b.freeze(), (s, t1, t2))
    };
    let mut alpha2 = db.alphabet().clone();
    let q = Crpq::build(
        &[("x", "a", "y"), ("y", "b", "z"), ("x", "c", "z")],
        &["x", "z"],
        &mut alpha2,
    )
    .unwrap();
    let ev = CrpqEvaluator::new(&q);
    let naive = ev
        .run(&db, Request::Answers, &SolveOptions::naive())
        .value
        .into_tuples();
    let projected = ev
        .run(&db, Request::Answers, &SolveOptions::pipeline().projected())
        .value
        .into_tuples();
    assert_eq!(naive, projected);
    // Both a-branches reach t1, but only via the c-edge-consistent pair.
    let (s, t1, _) = names;
    assert_eq!(naive, BTreeSet::from([vec![s, t1]]));
    let mut rng = StdRng::seed_from_u64(11);
    assert_agreement(&ev, &db, &mut rng, 2);
}
