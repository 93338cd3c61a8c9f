//! Unrestricted CXRPQ evaluation by iterative image-bound deepening.
//!
//! The paper proves PSpace-hardness in data complexity (Theorem 1) and
//! leaves the upper bound open (§8). This engine is a pragmatic
//! substitute: evaluate `D ⊨_{≤k} q` for growing
//! `k`; a hit at any `k` is a hit for the unrestricted semantics (since
//! `L^{≤k}(ᾱ) ⊆ L(ᾱ)`), and a caller-supplied cap bounds the search. For
//! instances with a known witness-size bound (e.g. the Theorem 1 reduction,
//! where images are words of the NFA-intersection) the cap makes the
//! procedure complete.

use crate::bounded::{BoundedEvaluator, BoundedStats};
use crate::cxrpq::Cxrpq;
use crate::evaluate::{Evaluate, Request};
use cxrpq_graph::GraphDb;

/// Outcome of iterative deepening.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GenericOutcome {
    /// A match exists; `k` is the smallest image bound that exhibited it.
    Match {
        /// Smallest successful image bound.
        k: usize,
    },
    /// No match with any image bound ≤ the cap. Definitive only when the
    /// caller knows a witness-size bound ≤ cap.
    NoMatchUpTo {
        /// The exhausted cap.
        cap: usize,
    },
}

/// The iterative-deepening engine for unrestricted CXRPQs.
pub struct GenericEvaluator<'q> {
    q: &'q Cxrpq,
    cap: usize,
}

impl<'q> GenericEvaluator<'q> {
    /// Creates the engine with an image-size cap.
    pub fn new(q: &'q Cxrpq, cap: usize) -> Self {
        Self { q, cap }
    }

    /// Runs the deepening loop.
    pub fn evaluate(&self, db: &GraphDb) -> GenericOutcome {
        for k in 0..=self.cap {
            if BoundedEvaluator::new(self.q, k).boolean(db) {
                return GenericOutcome::Match { k };
            }
        }
        GenericOutcome::NoMatchUpTo { cap: self.cap }
    }

    /// Iterative-deepening Check: `t̄ ∈ q(D)`?
    pub fn check(&self, db: &GraphDb, tuple: &[cxrpq_graph::NodeId]) -> GenericOutcome {
        for k in 0..=self.cap {
            if BoundedEvaluator::new(self.q, k).check(db, tuple) {
                return GenericOutcome::Match { k };
            }
        }
        GenericOutcome::NoMatchUpTo { cap: self.cap }
    }

    /// Runs the deepening loop, accumulating enumeration counters.
    pub fn evaluate_with_stats(&self, db: &GraphDb) -> (GenericOutcome, BoundedStats) {
        let mut total = BoundedStats::default();
        let opts = Request::Boolean.default_options();
        for k in 0..=self.cap {
            let (out, stats) =
                BoundedEvaluator::new(self.q, k).run_with_stats(db, Request::Boolean, &opts);
            total.mappings += stats.mappings;
            total.crpqs_evaluated += stats.crpqs_evaluated;
            if out.value.into_bool() {
                return (GenericOutcome::Match { k }, total);
            }
        }
        (GenericOutcome::NoMatchUpTo { cap: self.cap }, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use cxrpq_graph::{Alphabet, GraphBuilder};
    use std::sync::Arc;

    #[test]
    fn finds_minimal_image_bound() {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let m1 = db.add_node();
        let m2 = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word("ab").unwrap();
        let c = db.alphabet().parse_word("c").unwrap();
        db.add_word_path(s, &w, m1);
        db.add_word_path(m1, &c, m2);
        db.add_word_path(m2, &w, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .unwrap();
        // No w c w subpath with |w| = 1 exists on this chain ("a c a" would
        // need an a-edge into m1); the minimal witness is z = ab.
        assert_eq!(
            GenericEvaluator::new(&q, 5).evaluate(&db),
            GenericOutcome::Match { k: 2 }
        );
    }

    #[test]
    fn cap_exhaustion_reported() {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = db.add_node();
        let a = db.alphabet().sym("a");
        db.add_edge(s, a, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{b+}z", "y")
            .build()
            .unwrap();
        assert_eq!(
            GenericEvaluator::new(&q, 3).evaluate(&db),
            GenericOutcome::NoMatchUpTo { cap: 3 }
        );
    }

    #[test]
    fn check_deepens_like_evaluate() {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let m = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word("ab").unwrap();
        db.add_word_path(s, &w, m);
        db.add_word_path(m, &w, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        // z{Σ+} z with the only repeated word being "ab" end to end.
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{.+}z", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        assert_eq!(
            GenericEvaluator::new(&q, 4).check(&db, &[s, t]),
            GenericOutcome::Match { k: 2 }
        );
        // m is only reachable by odd-length splits: w w with |w| = 1 fails
        // (a then b differ), so (s, m) needs… in fact no split works.
        assert_eq!(
            GenericEvaluator::new(&q, 2).check(&db, &[s, m]),
            GenericOutcome::NoMatchUpTo { cap: 2 }
        );
    }

    #[test]
    fn stats_accumulate_across_depths() {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word("abab").unwrap();
        db.add_word_path(s, &w, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{(a|b)(a|b)}z", "y")
            .build()
            .unwrap();
        let (outcome, stats) = GenericEvaluator::new(&q, 4).evaluate_with_stats(&db);
        assert_eq!(outcome, GenericOutcome::Match { k: 2 });
        // Depths 0, 1, 2 all enumerate at least the ε mapping each.
        assert!(stats.mappings >= 3, "mappings = {}", stats.mappings);
        assert!(stats.crpqs_evaluated >= 1);
    }

    #[test]
    fn soundness_against_vsf_on_vsf_queries() {
        // On vstar-free queries, a Match outcome must agree with the exact
        // engine; NoMatchUpTo must never contradict a vsf "no".
        use crate::vsf_eval::VsfEvaluator;
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        for word in ["abab", "ba", "bb"] {
            let s = db.add_node();
            let t = db.add_node();
            let w = db.alphabet().parse_word(word).unwrap();
            db.add_word_path(s, &w, t);
        }
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        for pat in ["z{ab|ba}z", "z{a+}bz", "z{bb}z"] {
            let q = CxrpqBuilder::new(&mut alpha2)
                .edge("x", pat, "y")
                .build()
                .unwrap();
            let exact = VsfEvaluator::new(&q).unwrap().boolean(&db);
            match GenericEvaluator::new(&q, 4).evaluate(&db) {
                GenericOutcome::Match { .. } => assert!(exact, "{pat}"),
                GenericOutcome::NoMatchUpTo { .. } => {
                    // Image words here are ≤ 2 symbols, so cap 4 is complete.
                    assert!(!exact, "{pat}");
                }
            }
        }
    }
}
