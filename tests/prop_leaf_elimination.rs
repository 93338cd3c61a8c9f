//! Differential suite for existential-variable elimination: degree-2
//! contraction (phase 0) and the leaf peel (phase 2), beside the semi-join
//! passes over the edges that remain.
//!
//! Both rewrites run exactly when the analyzer and projection pushdown
//! do, which is how every request's default options run. On random small
//! graphs and random chain, star, tree and cycle CRPQs with random output
//! subsets, the default options must agree with [`SolveOptions::naive`]
//! on the answer relation, on Boolean evaluation and on Check — Check
//! pins the outputs, so leaves next to a pinned output and tuples that
//! repeat a node are both covered. Witness requests output every
//! variable, so nothing is eliminated: each witness must bind and certify
//! every variable.

use cxrpq::automata::{Nfa, Regex};
use cxrpq::core::{Crpq, CrpqEvaluator, Evaluate, GraphPattern, Request, SolveOptions};
use cxrpq::graph::{Alphabet, GraphDb, NodeId};
use cxrpq::workloads::graphs::random_labeled;
use cxrpq::workloads::rand_queries::random_classical;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 192 };

/// Query shapes as `(src, dst)` atoms over variables `n0..`.
const SHAPES: &[&[(usize, usize)]] = &[
    // Chain.
    &[(0, 1), (1, 2), (2, 3)],
    // Star around n0, one arm pointing in.
    &[(0, 1), (0, 2), (3, 0)],
    // Tree: two leaves under n1, which hangs off n0.
    &[(0, 1), (1, 2), (1, 3), (4, 1)],
    // Triangle.
    &[(0, 1), (1, 2), (2, 0)],
    // A 2-cycle through n1: contracting n1 would give a self-loop.
    &[(0, 1), (1, 0), (0, 2)],
    // Square with a pendant leaf.
    &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)],
];

fn query(rng: &mut StdRng, shape: &[(usize, usize)], outputs: &[usize]) -> Crpq {
    let vars = shape.iter().map(|&(s, d)| s.max(d)).max().unwrap() + 1;
    let mut pattern = GraphPattern::new();
    let nodes: Vec<_> = (0..vars).map(|i| pattern.node(&format!("n{i}"))).collect();
    for &(s, d) in shape {
        pattern.add_edge(nodes[s], random_classical(rng, 2, 2), nodes[d]);
    }
    Crpq::new(pattern, outputs.iter().map(|&i| nodes[i]).collect())
}

fn db(seed: u64) -> GraphDb {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    random_labeled(alpha, 6, 14, seed ^ 0x9ee1)
}

/// Every request under its default options against the naive reference;
/// returns the default answer run's pipeline counters
/// `[vars contracted, leaves peeled, semi-join passes]`.
fn assert_agrees(q: &Crpq, db: &GraphDb, rng: &mut StdRng) -> Result<[usize; 3], TestCaseError> {
    let ev = CrpqEvaluator::new(q);
    let naive = SolveOptions::naive();
    let run = |req: Request<'_>, opts: &SolveOptions| ev.run(db, req, opts);

    let fast = run(Request::Answers, &Request::Answers.default_options());
    let counts = fast.pipeline.as_ref().map_or([0; 3], |p| {
        let contracted = p.analysis.as_ref().map_or(0, |a| a.stats.vars_contracted);
        [contracted, p.peeled_vars, p.rounds]
    });
    let answers = fast.value.into_tuples();
    let reference = run(Request::Answers, &naive).value.into_tuples();
    prop_assert_eq!(&answers, &reference, "answers");

    let boolean = run(Request::Boolean, &Request::Boolean.default_options()).value;
    prop_assert_eq!(boolean.into_bool(), !reference.is_empty(), "boolean");
    prop_assert_eq!(
        run(Request::Boolean, &naive).value.into_bool(),
        !reference.is_empty()
    );

    // Check: every answer, plus random tuples, some repeating a node.
    let arity = q.output().len();
    let n = db.node_count() as u32;
    let mut tuples: Vec<Vec<NodeId>> = reference.iter().take(4).cloned().collect();
    for _ in 0..4 {
        let mut t: Vec<NodeId> = (0..arity).map(|_| NodeId(rng.random_range(0..n))).collect();
        if arity >= 2 && rng.random_bool(0.5) {
            t[1] = t[0];
        }
        tuples.push(t);
    }
    for t in &tuples {
        let check = Request::Check(t);
        let got = run(check, &check.default_options()).value.into_bool();
        prop_assert_eq!(got, reference.contains(t), "check {:?}", t);
        prop_assert_eq!(run(check, &naive).value.into_bool(), got);
    }

    // Witnesses bind and certify every variable.
    let certify = |w: &cxrpq::core::QueryWitness| -> Result<(), TestCaseError> {
        prop_assert_eq!(
            w.morphism.len(),
            q.pattern().node_count(),
            "unbound variable"
        );
        prop_assert!(
            w.verify(db, q.pattern()).is_ok(),
            "{:?}",
            w.verify(db, q.pattern())
        );
        for (p, (_, re, _)) in w.paths.iter().zip(q.pattern().edges()) {
            prop_assert!(accepts(re, p.label()), "path label outside its atom");
        }
        Ok(())
    };
    let any = Request::Witness(None);
    let w = run(any, &any.default_options()).value.into_witness();
    prop_assert_eq!(w.is_some(), !reference.is_empty(), "witness iff match");
    if let Some(w) = &w {
        certify(w)?;
    }
    if let Some(t) = reference.iter().next() {
        let pinned = Request::Witness(Some(t));
        let w = run(pinned, &pinned.default_options()).value.into_witness();
        let w = w.expect("an answer has a witness");
        certify(&w)?;
        for (v, &node) in q.output().iter().zip(t) {
            let name = q.pattern().node_name(*v);
            prop_assert!(w.morphism.contains(&(name.to_string(), node)));
        }
    }
    Ok(counts)
}

fn accepts(re: &Regex, word: &[cxrpq::graph::Symbol]) -> bool {
    Nfa::from_regex(re).accepts(word)
}

/// A random instance: a shape, its outputs (each variable with
/// probability 0.4) and a database.
fn instance(seed: u64) -> (Crpq, GraphDb, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = SHAPES[rng.random_range(0..SHAPES.len())];
    let vars = shape.iter().map(|&(s, d)| s.max(d)).max().unwrap() + 1;
    let outputs: Vec<usize> = (0..vars).filter(|_| rng.random_bool(0.4)).collect();
    let q = query(&mut rng, shape, &outputs);
    (q, db(seed), rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn elimination_agrees_with_naive(seed in 0u64..1_000_000) {
        let (q, db, mut rng) = instance(seed);
        assert_agrees(&q, &db, &mut rng)?;
    }
}

/// The random suite exercises every rewrite: across a fixed batch of
/// instances some answer runs contract, some peel and some join the edges
/// left over.
#[test]
fn suite_contracts_and_peels() {
    let mut total = [0; 3];
    for seed in 0..64 {
        let (q, db, mut rng) = instance(seed);
        let counts = assert_agrees(&q, &db, &mut rng).expect("agrees with naive");
        for (t, c) in total.iter_mut().zip(counts) {
            *t += c;
        }
    }
    assert!(total.iter().all(|&t| t > 0), "{total:?}");
}

/// A pinned run keeps the semi-join path: the Check pins `x`, so the
/// leaf `y` is not peeled; the unpinned answer run peels it.
#[test]
fn leaf_next_to_a_pinned_output_is_not_peeled() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = random_labeled(alpha, 8, 20, 3);
    let mut a2 = db.alphabet().clone();
    let q = Crpq::build(&[("x", "a(a|b)*", "y")], &["x"], &mut a2).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let all = ev.run(&db, Request::Answers, &Request::Answers.default_options());
    assert_eq!(all.pipeline.as_ref().unwrap().peeled_vars, 1);
    let answers = all.value.into_tuples();
    assert_eq!(
        answers,
        ev.run(&db, Request::Answers, &SolveOptions::naive())
            .value
            .into_tuples()
    );
    let hits: BTreeSet<Vec<NodeId>> = db
        .nodes()
        .map(|n| vec![n])
        .filter(|t| {
            let check = Request::Check(t);
            let out = ev.run(&db, check, &check.default_options());
            assert_eq!(out.pipeline.as_ref().map_or(0, |p| p.peeled_vars), 0);
            out.value.into_bool()
        })
        .collect();
    assert_eq!(hits, answers);
}
