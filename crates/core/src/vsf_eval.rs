//! Lemma 7: evaluation of `CXRPQ^{vsf}` (NL data complexity, Theorem 2).
//!
//! The proof's nondeterministic alternation-resolution is derandomized into
//! an enumeration: each combination of variable-simple branches (Step 1 /
//! Lemma 4), flattened per Lemma 6 into a *simple* conjunctive xregex, is
//! handed to the Lemma 3 engine; the query matches iff some combination
//! does. For flat-variable queries (`CXRPQ^{vsf,fl}`, Theorem 5) the
//! flattened choices stay polynomial (Lemma 8) — same code path, smaller
//! intermediate queries.

use crate::cxrpq::Cxrpq;
use crate::evaluate::{verdict_of, Answer, Evaluate, Outcome, Request};
use crate::governor::Governor;
use crate::simple_eval::SimpleEvaluator;
use crate::solve::SolveOptions;
use cxrpq_graph::GraphDb;
use cxrpq_xregex::normal_form::{simple_choices, NormalFormError};

/// The `CXRPQ^{vsf}` engine.
pub struct VsfEvaluator<'q> {
    q: &'q Cxrpq,
}

impl<'q> VsfEvaluator<'q> {
    /// Creates the engine; errors unless every component is vstar-free.
    pub fn new(q: &'q Cxrpq) -> Result<Self, NormalFormError> {
        // Validate up front (simple_choices re-checks per call).
        let _ = simple_choices(q.conjunctive())?;
        Ok(Self { q })
    }

    /// Number of branch combinations the evaluator may explore.
    pub fn combination_count(&self) -> usize {
        simple_choices(self.q.conjunctive())
            .expect("validated at construction")
            .combination_count()
    }
}

/// The query matches iff some simple branch combination does: every
/// request runs the Lemma 3 engine per combination and unites the answers,
/// stopping at the first match or witness, or when the governor trips (a
/// sound partial result). Witness images refer to the *normalized* query's
/// variables (Step 2/3 renaming).
impl Evaluate for VsfEvaluator<'_> {
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome {
        let gov = opts.governor.as_deref().unwrap_or(Governor::disabled());
        let mut out = Outcome::new(Answer::none(req), opts);
        for choice in simple_choices(self.q.conjunctive()).expect("validated") {
            if gov.is_aborted() || out.value.is_settled() {
                break;
            }
            let q2 = self.q.with_conjunctive(choice);
            let ev = SimpleEvaluator::new(&q2).expect("choices are simple");
            out.absorb(ev.run(db, req, opts));
        }
        out.verdict = verdict_of(opts);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use cxrpq_graph::GraphBuilder;
    use cxrpq_graph::{Alphabet, GraphDb, NodeId};
    use std::sync::Arc;

    fn db_words(words: &[&str]) -> (GraphDb, Vec<(NodeId, NodeId)>) {
        let alpha = Arc::new(Alphabet::from_chars("abcd"));
        let mut db = GraphBuilder::new(alpha);
        let mut ends = Vec::new();
        for w in words {
            let s = db.add_node();
            let t = db.add_node();
            let word = db.alphabet().parse_word(w).unwrap();
            db.add_word_path(s, &word, t);
            ends.push((s, t));
        }
        (db.freeze(), ends)
    }

    #[test]
    fn figure_2_g2_triangle() {
        // G2: v1 -x{aa|b}-> v2, v2 -y{(c|d)*}-> v3, v3 -(x|y)-> v1.
        // Plant a triangle matching via the x-branch: aa / cd / aa.
        let alpha = Arc::new(Alphabet::from_chars("abcd"));
        let mut db = GraphBuilder::new(alpha);
        let v1 = db.add_node();
        let v2 = db.add_node();
        let v3 = db.add_node();
        let aa = db.alphabet().parse_word("aa").unwrap();
        let cd = db.alphabet().parse_word("cd").unwrap();
        db.add_word_path(v1, &aa, v2);
        db.add_word_path(v2, &cd, v3);
        db.add_word_path(v3, &aa, v1);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("v1", "x{aa|b}", "v2")
            .edge("v2", "y{(c|d)*}", "v3")
            .edge("v3", "x|y", "v1")
            .output(&["v1", "v2", "v3"])
            .build()
            .unwrap();
        let ev = VsfEvaluator::new(&q).unwrap();
        // x|y splits into 2 combinations.
        assert_eq!(ev.combination_count(), 2);
        assert!(ev.check(&db, &[v1, v2, v3]));
        // Break the return path: v3 -ba-> v1 matches neither x=aa nor y=cd.
        let alpha3 = Arc::new(Alphabet::from_chars("abcd"));
        let mut db2 = GraphBuilder::new(alpha3);
        let u1 = db2.add_node();
        let u2 = db2.add_node();
        let u3 = db2.add_node();
        let aa2 = db2.alphabet().parse_word("aa").unwrap();
        let cd2 = db2.alphabet().parse_word("cd").unwrap();
        let ba2 = db2.alphabet().parse_word("ba").unwrap();
        db2.add_word_path(u1, &aa2, u2);
        db2.add_word_path(u2, &cd2, u3);
        db2.add_word_path(u3, &ba2, u1);
        let db2 = db2.freeze();
        assert!(!ev.check(&db2, &[u1, u2, u3]));
    }

    #[test]
    fn return_via_y_branch() {
        // Same G2 query; triangle whose return path equals the y-word.
        let alpha = Arc::new(Alphabet::from_chars("abcd"));
        let mut db = GraphBuilder::new(alpha);
        let v1 = db.add_node();
        let v2 = db.add_node();
        let v3 = db.add_node();
        let b = db.alphabet().parse_word("b").unwrap();
        let ccd = db.alphabet().parse_word("ccd").unwrap();
        db.add_word_path(v1, &b, v2);
        db.add_word_path(v2, &ccd, v3);
        db.add_word_path(v3, &ccd, v1);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha2)
            .edge("v1", "x{aa|b}", "v2")
            .edge("v2", "y{(c|d)*}", "v3")
            .edge("v3", "x|y", "v1")
            .build()
            .unwrap();
        assert!(VsfEvaluator::new(&q).unwrap().boolean(&db));
    }

    #[test]
    fn agrees_with_bounded_on_small_instances() {
        use crate::bounded::BoundedEvaluator;
        let (db, _) = db_words(&["abab", "ab", "ba", "aabb"]);
        let mut alpha = db.alphabet().clone();
        // vstar-free query with a non-trivial alternation structure.
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{ab|ba}z", "y")
            .edge("u", "z|ab", "v")
            .build()
            .unwrap();
        let vsf = VsfEvaluator::new(&q).unwrap().boolean(&db);
        // Images here have length ≤ 2, so CXRPQ^{≤2} coincides.
        let bnd = BoundedEvaluator::new(&q, 2).boolean(&db);
        assert_eq!(vsf, bnd);
        assert!(vsf);
    }

    #[test]
    fn rejects_non_vstar_free() {
        let mut alpha = Alphabet::from_chars("ab");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{a}(z|b)+", "y")
            .build()
            .unwrap();
        assert!(VsfEvaluator::new(&q).is_err());
    }

    #[test]
    fn nested_definitions_normalize() {
        // Figure 2 G4-style nesting: the flattening of Lemma 6 kicks in.
        let (db, ends) = db_words(&["acd", "c", "acd"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("p", "x{a y{c}d}", "q")
            .edge("r", "y", "s")
            .edge("t", "x", "w")
            .output(&["p", "q", "r", "s", "t", "w"])
            .build()
            .unwrap();
        let ev = VsfEvaluator::new(&q).unwrap();
        assert!(ev.check(
            &db,
            &[ends[0].0, ends[0].1, ends[1].0, ends[1].1, ends[2].0, ends[2].1]
        ));
        // y-path must be "c": a "d" path for r>s fails.
        let (db2, e2) = db_words(&["acd", "d", "acd"]);
        assert!(!ev.check(
            &db2,
            &[e2[0].0, e2[0].1, e2[1].0, e2[1].1, e2[2].0, e2[2].1]
        ));
    }
}
