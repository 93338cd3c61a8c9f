//! Integration sweeps: the hardness reductions against brute force, and
//! the §7 translations against direct evaluation.

use cxrpq::core::{
    translate, BoundedEvaluator, CrpqEvaluator, EcrpqEvaluator, Evaluate, GenericEvaluator,
    GenericOutcome, VsfEvaluator,
};
use cxrpq::graph::Alphabet;
use cxrpq::workloads::{graphs, reductions, witnesses};
use std::sync::Arc;

#[test]
fn theorem1_reduction_agreement_sweep() {
    for k in 1..=3usize {
        for seed in 0..5u64 {
            let inst = reductions::random_nfa_intersection(k, 3, seed * 13 + k as u64);
            let (db, s, t) = reductions::theorem1_database(&inst);
            let mut alpha = db.alphabet().clone();
            let q = reductions::alpha_ni(&mut alpha);
            let expected = inst.intersection_nonempty();
            let cap = inst.shortest_witness().map(|w| w.len()).unwrap_or(5).max(1);
            let got = matches!(
                GenericEvaluator::new(&q, cap).check(&db, &[s, t]),
                GenericOutcome::Match { .. }
            );
            assert_eq!(got, expected, "k={k} seed={seed}");
        }
    }
}

#[test]
fn theorem3_vstar_free_reduction_agreement() {
    for seed in 0..6u64 {
        let inst = reductions::random_nfa_intersection(2, 4, seed);
        let (db, s, t) = reductions::theorem1_database(&inst);
        let mut alpha = db.alphabet().clone();
        let q = reductions::alpha_kni(2, &mut alpha);
        let got = VsfEvaluator::new(&q).unwrap().check(&db, &[s, t]);
        assert_eq!(got, inst.intersection_nonempty(), "seed {seed}");
    }
}

#[test]
fn hitting_set_agreement_sweep() {
    for seed in 0..8u64 {
        let inst = reductions::random_hitting_set(3, 3, 2, 1, seed);
        let (db, q) = reductions::theorem7_reduction(&inst);
        assert_eq!(
            BoundedEvaluator::new(&q, 1).boolean(&db),
            inst.brute_force(),
            "seed {seed}"
        );
    }
    // And with k = 2 (more variables, still tractable for n = 2).
    for seed in 0..3u64 {
        let inst = reductions::random_hitting_set(2, 3, 1, 2, seed + 50);
        let (db, q) = reductions::theorem7_reduction(&inst);
        assert_eq!(
            BoundedEvaluator::new(&q, 1).boolean(&db),
            inst.brute_force(),
            "k=2 seed {seed}"
        );
    }
}

#[test]
fn reachability_reduction_sweep() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..10 {
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..12)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let s = rng.random_range(0..n);
        let t = rng.random_range(0..n);
        // Ground truth by DFS.
        let mut seen = vec![false; n];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &(a, b) in &edges {
                if a == u && !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
            }
        }
        let mut alpha = Alphabet::new();
        let (db, q) = reductions::reachability_reduction(n, &edges, s, t, &mut alpha);
        assert_eq!(CrpqEvaluator::new(&q).boolean(&db), seen[t]);
    }
}

#[test]
fn lemma12_translation_on_random_graphs() {
    for seed in 0..4u64 {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = graphs::random_labeled(alpha.clone(), 20, 40, seed);
        let mut a2 = db.alphabet().clone();
        let mut pattern = cxrpq::core::GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let u = pattern.node("u");
        let v = pattern.node("v");
        let r1 = cxrpq_automata::parse_regex("a(a|b)*", &mut a2).unwrap();
        let r2 = cxrpq_automata::parse_regex("(a|b)*b", &mut a2).unwrap();
        pattern.add_edge(x, r1, y);
        pattern.add_edge(u, r2, v);
        let er = cxrpq::core::Ecrpq::new(
            pattern,
            vec![(cxrpq::core::RegularRelation::equality(2), vec![0, 1])],
            vec![x, y, u, v],
        )
        .unwrap();
        let translated = translate::ecrpq_er_to_cxrpq(&er).unwrap();
        let lhs = EcrpqEvaluator::new(&er).answers(&db);
        let rhs = VsfEvaluator::new(&translated).unwrap().answers(&db);
        assert_eq!(lhs, rhs, "seed {seed}");
    }
}

#[test]
fn lemma13_translation_round_trip() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = graphs::random_labeled(alpha, 16, 32, 9);
    let mut a2 = db.alphabet().clone();
    let q = cxrpq::core::CxrpqBuilder::new(&mut a2)
        .edge("x", "z{ab|ba}z", "y")
        .edge("u", "z|aa", "v")
        .build()
        .unwrap();
    let direct = VsfEvaluator::new(&q).unwrap().boolean(&db);
    let union = translate::cxrpq_vsf_to_union_ecrpq_er(&q).unwrap();
    assert_eq!(direct, translate::union_ecrpq_boolean(&union, &db));
}

#[test]
fn lemma14_union_equivalence_on_random_graphs() {
    for seed in 0..3u64 {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = graphs::random_labeled(alpha.clone(), 16, 32, seed + 40);
        let mut a2 = db.alphabet().clone();
        let q = cxrpq::core::CxrpqBuilder::new(&mut a2)
            .edge("x", "z{(a|b)+}az", "y")
            .build()
            .unwrap();
        for k in 0..=2usize {
            let union = translate::cxrpq_bounded_to_union_crpq(&q, k, 2);
            assert_eq!(
                BoundedEvaluator::new(&q, k).boolean(&db),
                translate::union_crpq_boolean(&union, &db),
                "seed {seed} k {k}"
            );
        }
    }
}

#[test]
fn figure5_matrix_full() {
    // q_anbn — equal-length only.
    let mut alpha = Alphabet::from_chars("abcd");
    let q_anbn = witnesses::q_anbn(&mut alpha);
    for n in 0..5usize {
        for m in 0..5usize {
            let (db, _, _) = graphs::d_anbm(n, m);
            assert_eq!(
                EcrpqEvaluator::new(&q_anbn).boolean(&db),
                n == m,
                "q_anbn n={n} m={m}"
            );
        }
    }
    // q1 matrix.
    let mut alpha = Alphabet::from_chars("abcd");
    let q1 = witnesses::q1(&mut alpha);
    for s1 in ['a', 'b'] {
        for s2 in ['a', 'b', 'c'] {
            let db = witnesses::d_sigma(s1, s2);
            assert_eq!(
                BoundedEvaluator::new(&q1, 1).boolean(&db),
                s1 == s2 || s2 == 'c',
                "q1 {s1}/{s2}"
            );
        }
    }
}
