//! Corollary 1: `CXRPQ^{log}` — image sizes bounded by `log |D|`.
//!
//! Same machinery as Theorem 6, with `k = ⌈log₂ |D|⌉` chosen per database:
//! NP combined complexity, `O(log² |D|)` space in data complexity.

use crate::bounded::BoundedEvaluator;
use crate::cxrpq::Cxrpq;
use crate::evaluate::{Evaluate, Outcome, Request};
use crate::solve::SolveOptions;
use cxrpq_graph::GraphDb;

/// The `CXRPQ^{log}` engine.
pub struct LogEvaluator<'q> {
    q: &'q Cxrpq,
}

impl<'q> LogEvaluator<'q> {
    /// Creates the engine.
    pub fn new(q: &'q Cxrpq) -> Self {
        Self { q }
    }

    /// The image bound used for `db`: `⌈log₂ |D|⌉` (at least 1).
    pub fn bound_for(db: &GraphDb) -> usize {
        let n = db.size().max(2);
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Every request runs the bounded engine with `k = ⌈log₂ |D|⌉`.
impl Evaluate for LogEvaluator<'_> {
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome {
        BoundedEvaluator::new(self.q, Self::bound_for(db)).run(db, req, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    #[test]
    fn bound_grows_with_database() {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let mut prev = db.add_node();
        for _ in 0..2 {
            let n = db.add_node();
            db.add_edge(prev, a, n);
            prev = n;
        }
        let small = LogEvaluator::bound_for(&db.clone().freeze());
        for _ in 0..60 {
            let n = db.add_node();
            db.add_edge(prev, a, n);
            prev = n;
        }
        let big = LogEvaluator::bound_for(&db.freeze());
        assert!(big > small);
        assert_eq!(big, 7); // |D| = 63 nodes + 62 edges = 125 → ⌈log₂⌉ = 7
    }

    #[test]
    fn log_images_admit_longer_witnesses_on_bigger_dbs() {
        // z{(a|b)+} c z with witness image length 4 works once |D| ≥ 16.
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let m1 = db.add_node();
        let m2 = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word("abab").unwrap();
        let c = db.alphabet().parse_word("c").unwrap();
        db.add_word_path(s, &w, m1);
        db.add_word_path(m1, &c, m2);
        db.add_word_path(m2, &w, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{(a|b)+}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        // |D| = 10 nodes + 9 edges = 19 → k = 5 ≥ 4: the witness fits.
        assert!(LogEvaluator::bound_for(&db) >= 4);
        assert!(LogEvaluator::new(&q).check(&db, &[s, t]));
    }

    #[test]
    fn log_agrees_with_explicit_bounded() {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word("abcab").unwrap();
        db.add_word_path(s, &w, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{(a|b)+}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let k = LogEvaluator::bound_for(&db);
        let log = LogEvaluator::new(&q);
        let explicit = BoundedEvaluator::new(&q, k);
        assert_eq!(log.answers(&db), explicit.answers(&db));
        let opts = Request::Boolean.default_options();
        let b1 = log.run(&db, Request::Boolean, &opts);
        let b2 = explicit.run(&db, Request::Boolean, &opts);
        assert_eq!((b1.value, b1.states), (b2.value, b2.states));
    }

    #[test]
    fn log_witness_certifies() {
        use cxrpq_xregex::matcher::MatchConfig;
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word("abcab").unwrap();
        db.add_word_path(s, &w, t);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .unwrap();
        let w = LogEvaluator::new(&q).witness(&db).expect("match exists");
        q.certifies(&db, &w, &MatchConfig::default()).unwrap();
        // The image respects the log bound.
        let k = LogEvaluator::bound_for(&db);
        assert!(w.images.iter().all(|(_, img)| img.len() <= k));
    }

    #[test]
    fn minimum_bound_is_one() {
        let alpha = Arc::new(Alphabet::from_chars("a"));
        let mut db = GraphBuilder::new(alpha);
        db.add_node();
        assert_eq!(LogEvaluator::bound_for(&db.freeze()), 1);
    }
}
