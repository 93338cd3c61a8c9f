//! Differential property test for the static query analyzer.
//!
//! The analyzer ([`cxrpq::core::analyze`]) rewrites a query before any
//! search — dropping statically empty or subsumed atoms, unifying
//! ε-connected node variables, flagging Σ*-universal atoms — and the
//! rewrite must be **semantics-preserving**: analyzed and unanalyzed runs
//! must return identical results on every query family that reduces to the
//! shared constraint solver (CRPQs, simple CXRPQs, ECRPQs), for the
//! pipeline and the naive reference path, projected and full.
//!
//! The CRPQ generator injects the adversarial shapes the analyzer
//! explicitly targets: empty-language atoms (`!`), ε atoms and ε
//! self-loops (`_`), duplicated atoms (mutual containment), and
//! incomparable language pairs (no containment either way).

use cxrpq::automata::parse_regex;
use cxrpq::core::{
    Crpq, CrpqEvaluator, Cxrpq, Ecrpq, EcrpqEvaluator, Evaluate, GraphPattern, PipelineStats,
    RegularRelation, Request, SimpleEvaluator, SolveOptions,
};
use cxrpq::graph::{Alphabet, GraphDb, NodeId};
use cxrpq::workloads::graphs::random_labeled;
use cxrpq::workloads::rand_queries::{random_classical, random_simple, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 10 } else { 48 };

/// Asserts analyzed ≡ unanalyzed on one (query, database) pair across the
/// pipeline and naive paths, projected and full, and returns the analyzed
/// pipeline stats for shape-specific assertions.
fn assert_analyzer_agreement(
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
    let piped = SolveOptions::pipeline(); // analyze on
    let naive = SolveOptions::naive(); // analyze off — the reference
    let naive_analyzed = {
        let mut o = SolveOptions::naive();
        o.analyze = true;
        o
    };

    let (ans_ref, _) = answers(&naive);
    let (ans_analyzed, stats) = answers(&piped);
    assert_eq!(
        ans_ref, ans_analyzed,
        "analyzer changed the answer relation"
    );
    let (ans_plain, _) = answers(&piped.clone().unanalyzed());
    assert_eq!(
        ans_ref, ans_plain,
        "unanalyzed pipeline disagrees with naive"
    );
    let (ans_naive_an, _) = answers(&naive_analyzed);
    assert_eq!(
        ans_ref, ans_naive_an,
        "analyzer changed the naive answer relation"
    );
    let (ans_proj, _) = answers(&piped.clone().projected());
    assert_eq!(
        ans_ref, ans_proj,
        "analyzer + projection pushdown changed the answer relation"
    );
    let (ans_proj_plain, _) = answers(&piped.clone().projected().unanalyzed());
    assert_eq!(
        ans_ref, ans_proj_plain,
        "unanalyzed projection pushdown changed the answer relation"
    );

    let b = boolean(&naive);
    assert_eq!(b, boolean(&piped), "analyzer changed boolean()");
    assert_eq!(
        b,
        boolean(&naive_analyzed),
        "analyzer changed naive boolean()"
    );
    assert_eq!(
        b,
        boolean(&SolveOptions::early_exit()),
        "analyzed early-exit changed boolean()"
    );

    // check() on up to three real answers, one random tuple, and one tuple
    // with an out-of-range node id (must be false everywhere, no panic).
    let mut probes: Vec<Vec<NodeId>> = ans_ref.iter().take(3).cloned().collect();
    probes.push(
        (0..arity)
            .map(|_| NodeId(rng.random_range(0..db.node_count() as u32)))
            .collect(),
    );
    probes.push(vec![NodeId(db.node_count() as u32 + 7); arity]);
    for t in &probes {
        let expected = ans_ref.contains(t);
        assert_eq!(
            check(t, &piped),
            expected,
            "analyzed check disagrees on {t:?}"
        );
        assert_eq!(
            check(t, &piped.clone().unanalyzed()),
            expected,
            "unanalyzed check disagrees on {t:?}"
        );
        assert_eq!(
            check(t, &naive_analyzed),
            expected,
            "analyzed naive check disagrees on {t:?}"
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

    /// Random CRPQs with the adversarial atoms the analyzer targets.
    #[test]
    fn crpq_analyzer_preserves_semantics(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 5, 12, seed ^ 0xa11a);
        let edges = rng.random_range(2..=3usize);
        let mut pattern = random_pattern(&mut rng, 3, edges)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let nodes = [
            pattern.node_var("n0").unwrap(),
            pattern.node_var("n1").unwrap(),
            pattern.node_var("n2").unwrap(),
        ];
        let mut a = Alphabet::from_chars("ab");
        let mut re = |s: &str| parse_regex(s, &mut a).unwrap();
        // Duplicated atom: mutual containment, exactly one copy survives.
        if rng.random_bool(0.5) {
            let s = nodes[rng.random_range(0..3usize)];
            let t = nodes[rng.random_range(0..3usize)];
            let l = random_classical(&mut rng, 2, 2);
            pattern.add_edge(s, l.clone(), t);
            pattern.add_edge(s, l, t);
        }
        // ε atom (sometimes a self-loop): variable unification.
        if rng.random_bool(0.4) {
            let s = nodes[rng.random_range(0..3usize)];
            let t = if rng.random_bool(0.5) { s } else { nodes[rng.random_range(0..3usize)] };
            pattern.add_edge(s, re("_"), t);
        }
        // Empty-language atom: statically unsatisfiable either way.
        if rng.random_bool(0.25) {
            let s = nodes[rng.random_range(0..3usize)];
            let t = nodes[rng.random_range(0..3usize)];
            pattern.add_edge(s, re("!"), t);
        }
        // Incomparable pair: neither contains the other, both must stay.
        if rng.random_bool(0.4) {
            let s = nodes[rng.random_range(0..3usize)];
            let t = nodes[rng.random_range(0..3usize)];
            pattern.add_edge(s, re("a(a|b)"), t);
            pattern.add_edge(s, re("(a|b)b"), t);
        }
        let q = Crpq::new(pattern, vec![nodes[0], nodes[1]]);
        let ev = CrpqEvaluator::new(&q);
        let stats = assert_analyzer_agreement(&ev, &db, &mut rng, 2);
        if let Some(s) = stats {
            prop_assert!(s.analysis.is_some(), "analyzed runs must report the analysis");
        }
    }

    /// Random simple CXRPQs: string-variable groups must survive the
    /// analyzer's per-member emptiness/footprint checks untouched.
    #[test]
    fn simple_cxrpq_analyzer_preserves_semantics(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = QueryShape { dims: 2, vars: 2, sigma: 2, alt_prob: 0.0 };
        let cx = random_simple(&mut rng, &shape);
        let pattern = random_pattern(&mut rng, 3, shape.dims);
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Cxrpq::from_parts(pattern, cx, vec![out0, out1]);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 4, 10, seed ^ 0x51e5);
        let ev = SimpleEvaluator::new(&q).expect("generated queries are simple");
        assert_analyzer_agreement(&ev, &db, &mut rng, 2);
    }

    /// Random ECRPQs with adversarial *free* atoms alongside the
    /// relation-constrained group.
    #[test]
    fn ecrpq_analyzer_preserves_semantics(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = random_labeled(alpha, 4, 10, seed ^ 0xeca);
        let mut pattern = random_pattern(&mut rng, 3, 3)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let nodes = [
            pattern.node_var("n0").unwrap(),
            pattern.node_var("n1").unwrap(),
            pattern.node_var("n2").unwrap(),
        ];
        let mut a = Alphabet::from_chars("ab");
        let mut re = |s: &str| parse_regex(s, &mut a).unwrap();
        if rng.random_bool(0.4) {
            let s = nodes[rng.random_range(0..3usize)];
            pattern.add_edge(s, re("_"), nodes[rng.random_range(0..3usize)]);
        }
        if rng.random_bool(0.25) {
            let s = nodes[rng.random_range(0..3usize)];
            pattern.add_edge(s, re("!"), nodes[rng.random_range(0..3usize)]);
        }
        let rel = if rng.random_bool(0.5) {
            RegularRelation::equality(2)
        } else {
            RegularRelation::equal_length(2)
        };
        let q = Ecrpq::new(pattern, vec![(rel, vec![0, 1])], vec![nodes[0], nodes[1]])
            .expect("well-formed relation tuple");
        let ev = EcrpqEvaluator::new(&q);
        assert_analyzer_agreement(&ev, &db, &mut rng, 2);
    }
}

/// A fixed worst-case composite — ε self-loop, ε bridge, duplicated atom,
/// incomparable pair, and a subsumed wider atom, all in one query. The
/// analyzer must drop exactly the redundant atoms, merge exactly the
/// ε-bridged pair, and leave the answers untouched.
#[test]
fn composite_adversarial_crpq_agrees_and_reports() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = random_labeled(alpha, 6, 18, 0xbead);
    let mut a = Alphabet::from_chars("ab");
    let q = Crpq::build(
        &[
            ("x", "ab*", "y"),
            ("x", "ab*", "y"),     // duplicate of the previous atom
            ("x", "(a|b)b*", "y"), // strictly wider: subsumed by ab*
            ("y", "_", "z"),       // ε bridge: y and z unify
            ("z", "_", "z"),       // ε self-loop: trivially dropped
            ("x", "a(a|b)", "z"),  // incomparable pair: both stay
            ("x", "(a|b)b", "z"),
        ],
        &["x", "y", "z"],
        &mut a,
    )
    .unwrap();
    let ev = CrpqEvaluator::new(&q);
    let mut rng = StdRng::seed_from_u64(3);
    let stats = assert_analyzer_agreement(&ev, &db, &mut rng, 3)
        .expect("free-edge query records pipeline stats");
    let report = stats
        .analysis
        .as_ref()
        .expect("analyzed run reports analysis");
    // One duplicate + one wider atom + two ε atoms dropped; y/z merged.
    assert_eq!(report.stats.atoms_dropped, 4);
    assert_eq!(report.stats.vars_merged, 1);
    assert!(!report.stats.unsat);
}

/// A statically empty atom refutes the query with zero search on the
/// analyzed path while the unanalyzed reference still agrees.
#[test]
fn statically_empty_composite_agrees() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = random_labeled(alpha, 5, 12, 0xdead);
    let mut a = Alphabet::from_chars("ab");
    let q = Crpq::build(&[("x", "a*b", "y"), ("y", "!", "z")], &["x", "y"], &mut a).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let mut rng = StdRng::seed_from_u64(5);
    let stats = assert_analyzer_agreement(&ev, &db, &mut rng, 2)
        .expect("analyzed run records pipeline stats");
    assert_eq!(stats.backtrack_steps, 0, "refutation must be search-free");
    let report = stats.analysis.as_ref().unwrap();
    assert!(report.stats.unsat);
}
