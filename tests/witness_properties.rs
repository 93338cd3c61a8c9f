//! Property tests for witness extraction: on randomly planted path
//! databases and a pool of single-edge/two-edge queries, every engine's
//! witness must (a) exist exactly when Boolean evaluation succeeds, and
//! (b) certify against the pattern and the independent conjunctive-match
//! oracle.

use cxrpq::core::{BoundedEvaluator, CxrpqBuilder, Evaluate, SimpleEvaluator, VsfEvaluator};
use cxrpq::graph::{Alphabet, GraphBuilder, GraphDb, Symbol};
use cxrpq::xregex::matcher::MatchConfig;
use proptest::prelude::*;
use std::sync::Arc;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 96 };

/// A database made of 2–4 disjoint labelled paths over {a, b, c}.
fn db_strategy() -> impl Strategy<Value = Vec<Vec<Symbol>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..3, 1..=6)
            .prop_map(|v| v.into_iter().map(Symbol).collect::<Vec<Symbol>>()),
        2..=4,
    )
}

fn build_db(words: &[Vec<Symbol>]) -> GraphDb {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut db = GraphBuilder::new(alpha);
    for w in words {
        let s = db.add_node();
        let t = db.add_node();
        db.add_word_path(s, w, t);
    }
    db.freeze()
}

/// Simple-fragment query pool (all engines applicable; k = 3 is exact for
/// every definition body below, whose images never exceed 3 symbols).
const SIMPLE_QUERIES: &[&str] = &[
    "z{(a|b)+}cz",
    "z{ab|ba}cz",
    "y{a+}by",
    "z{(a|b)(a|b)}z",
    "a*z{b+}c",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// witness() is Some iff boolean(); when Some it certifies. Across the
    /// simple, vsf and bounded engines.
    #[test]
    fn witness_iff_boolean_and_certifies(
        words in db_strategy(),
        qidx in 0usize..SIMPLE_QUERIES.len(),
    ) {
        let db = build_db(&words);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", SIMPLE_QUERIES[qidx], "y")
            .build()
            .unwrap();

        let simple = SimpleEvaluator::new(&q).unwrap();
        let expected = simple.boolean(&db);
        let w_simple = simple.witness(&db);
        prop_assert_eq!(w_simple.is_some(), expected);
        // Same input, same witness: a freshly built evaluator picks the
        // same morphism.
        let again = SimpleEvaluator::new(&q).unwrap().witness(&db);
        prop_assert_eq!(
            again.map(|w| w.morphism),
            w_simple.as_ref().map(|w| w.morphism.clone()),
            "witness morphism changed between calls"
        );
        if let Some(w) = &w_simple {
            prop_assert!(q.certifies(&db, w, &MatchConfig::default()).is_ok());
        }

        let vsf = VsfEvaluator::new(&q).unwrap();
        let w_vsf = vsf.witness(&db);
        prop_assert_eq!(w_vsf.is_some(), expected);
        if let Some(w) = &w_vsf {
            prop_assert!(q.certifies(&db, w, &MatchConfig::default()).is_ok());
        }

        let bounded = BoundedEvaluator::new(&q, 3);
        let w_bounded = bounded.witness(&db);
        prop_assert_eq!(w_bounded.is_some(), bounded.boolean(&db));
        if let Some(w) = &w_bounded {
            prop_assert!(q.certifies(&db, w, &MatchConfig::default()).is_ok());
            // The bounded engine reports the guessed mapping: image ≤ k.
            prop_assert!(w.images.iter().all(|(_, img)| img.len() <= 3));
        }
    }

    /// Cross-edge equality: two-edge queries sharing a variable produce
    /// witnesses whose two paths carry compatible words (the definition
    /// body's word equals every reference's word).
    #[test]
    fn cross_edge_witness_words_equal(words in db_strategy()) {
        let db = build_db(&words);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("p", "x{(a|b)+}", "q")
            .edge("r", "x", "s")
            .build()
            .unwrap();
        let simple = SimpleEvaluator::new(&q).unwrap();
        if let Some(w) = simple.witness(&db) {
            prop_assert_eq!(w.paths[0].label(), w.paths[1].label());
            prop_assert!(q.certifies(&db, &w, &MatchConfig::default()).is_ok());
            // The reported image is exactly the shared word.
            let img = &w.images.iter().find(|(n, _)| n == "x").unwrap().1;
            prop_assert_eq!(img.as_slice(), w.paths[0].label());
        }
    }

    /// Check-witnesses agree with check(): witness_for(t̄) is Some iff
    /// t̄ ∈ q(D), and the witness paths start/end at the tuple.
    #[test]
    fn witness_for_matches_check(
        words in db_strategy(),
        qidx in 0usize..SIMPLE_QUERIES.len(),
    ) {
        let db = build_db(&words);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", SIMPLE_QUERIES[qidx], "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let simple = SimpleEvaluator::new(&q).unwrap();
        // Probe the endpoints of the first planted path plus a mismatched
        // pair.
        let nodes: Vec<_> = db.nodes().collect();
        for tuple in [vec![nodes[0], nodes[1]], vec![nodes[1], nodes[0]]] {
            let member = simple.check(&db, &tuple);
            let w = simple.witness_for(&db, &tuple);
            prop_assert_eq!(w.is_some(), member);
            if let Some(w) = w {
                prop_assert_eq!(w.paths[0].start(), tuple[0]);
                prop_assert_eq!(w.paths[0].end(), tuple[1]);
            }
        }
    }
}
