//! Unions of conjunctive path queries — the `∪-Q` classes of §7.
//!
//! For a class `Q`, a union query is `q = q₁ ∨ … ∨ q_r` with
//! `q(D) = ⋃ᵢ qᵢ(D)`. The paper compares `CXRPQ` fragments against
//! `∪-CRPQ`, `∪-ECRPQ^er` and `∪-ECRPQ` (Figure 5); the translations of
//! Lemmas 13 and 14 produce values of these types.

use crate::crpq::{Crpq, CrpqEvaluator};
use crate::ecrpq::{Ecrpq, EcrpqEvaluator};
use crate::evaluate::Evaluate;
use crate::witness::QueryWitness;
use cxrpq_graph::{GraphDb, NodeId};
use std::collections::BTreeSet;

/// A union of CRPQs (`∪-CRPQ`).
#[derive(Clone, Debug, Default)]
pub struct UnionCrpq {
    members: Vec<Crpq>,
}

impl UnionCrpq {
    /// Wraps member queries. All members must agree on output arity.
    pub fn new(members: Vec<Crpq>) -> Self {
        if let Some(first) = members.first() {
            let arity = first.output().len();
            assert!(
                members.iter().all(|q| q.output().len() == arity),
                "union members must have equal output arity"
            );
        }
        Self { members }
    }

    /// The member queries.
    pub fn members(&self) -> &[Crpq] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the union is empty (denotes the empty query: never matches).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total size `Σ|qᵢ|` — the measured quantity in the §8 conciseness
    /// discussion (exponential blow-ups of Lemmas 13/14).
    pub fn size(&self) -> usize {
        self.members.iter().map(Crpq::size).sum()
    }

    /// Boolean evaluation: `D ⊨ q` iff some member matches.
    pub fn boolean(&self, db: &GraphDb) -> bool {
        self.members
            .iter()
            .any(|q| CrpqEvaluator::new(q).boolean(db))
    }

    /// The union of the members' answer relations.
    pub fn answers(&self, db: &GraphDb) -> BTreeSet<Vec<NodeId>> {
        let mut out = BTreeSet::new();
        for q in &self.members {
            out.extend(CrpqEvaluator::new(q).answers(db));
        }
        out
    }

    /// The Check problem: `t̄ ∈ q(D)` iff some member admits the tuple.
    pub fn check(&self, db: &GraphDb, tuple: &[NodeId]) -> bool {
        self.members
            .iter()
            .any(|q| CrpqEvaluator::new(q).check(db, tuple))
    }

    /// A witness from the first matching member, with its index.
    pub fn witness(&self, db: &GraphDb) -> Option<(usize, QueryWitness)> {
        self.members
            .iter()
            .enumerate()
            .find_map(|(i, q)| CrpqEvaluator::new(q).witness(db).map(|w| (i, w)))
    }
}

impl From<Vec<Crpq>> for UnionCrpq {
    fn from(members: Vec<Crpq>) -> Self {
        Self::new(members)
    }
}

/// A union of ECRPQs (`∪-ECRPQ`; all-equality members make it `∪-ECRPQ^er`).
#[derive(Clone, Debug, Default)]
pub struct UnionEcrpq {
    members: Vec<Ecrpq>,
}

impl UnionEcrpq {
    /// Wraps member queries. All members must agree on output arity.
    pub fn new(members: Vec<Ecrpq>) -> Self {
        if let Some(first) = members.first() {
            let arity = first.output().len();
            assert!(
                members.iter().all(|q| q.output().len() == arity),
                "union members must have equal output arity"
            );
        }
        Self { members }
    }

    /// The member queries.
    pub fn members(&self) -> &[Ecrpq] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the union is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total size `Σ|qᵢ|`.
    pub fn size(&self) -> usize {
        self.members.iter().map(Ecrpq::size).sum()
    }

    /// Whether every member is an `ECRPQ^er` (the union is `∪-ECRPQ^er`).
    pub fn is_er(&self) -> bool {
        self.members.iter().all(Ecrpq::is_er)
    }

    /// Boolean evaluation.
    pub fn boolean(&self, db: &GraphDb) -> bool {
        self.members
            .iter()
            .any(|q| EcrpqEvaluator::new(q).boolean(db))
    }

    /// The union of the members' answer relations.
    pub fn answers(&self, db: &GraphDb) -> BTreeSet<Vec<NodeId>> {
        let mut out = BTreeSet::new();
        for q in &self.members {
            out.extend(EcrpqEvaluator::new(q).answers(db));
        }
        out
    }

    /// The Check problem.
    pub fn check(&self, db: &GraphDb, tuple: &[NodeId]) -> bool {
        self.members
            .iter()
            .any(|q| EcrpqEvaluator::new(q).check(db, tuple))
    }

    /// A witness from the first matching member, with its index.
    pub fn witness(&self, db: &GraphDb) -> Option<(usize, QueryWitness)> {
        self.members
            .iter()
            .enumerate()
            .find_map(|(i, q)| EcrpqEvaluator::new(q).witness(db).map(|w| (i, w)))
    }
}

impl From<Vec<Ecrpq>> for UnionEcrpq {
    fn from(members: Vec<Ecrpq>) -> Self {
        Self::new(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::GraphPattern;
    use crate::relation::RegularRelation;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    fn db_word(word: &str) -> (GraphDb, NodeId, NodeId) {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word(word).unwrap();
        db.add_word_path(s, &w, t);
        (db.freeze(), s, t)
    }

    fn single(alpha: &mut Alphabet, re: &str) -> Crpq {
        Crpq::build(&[("x", re, "y")], &["x", "y"], alpha).unwrap()
    }

    #[test]
    fn union_crpq_is_a_disjunction() {
        let (db, s, t) = db_word("abba");
        let mut alpha = db.alphabet().clone();
        let u = UnionCrpq::new(vec![single(&mut alpha, "aa"), single(&mut alpha, "abba")]);
        assert!(u.boolean(&db));
        assert!(u.check(&db, &[s, t]));
        assert!(u.answers(&db).contains(&vec![s, t]));
        let (i, w) = u.witness(&db).unwrap();
        assert_eq!(i, 1); // first matching member
        assert_eq!(w.paths[0].len(), 4);
        // Queries are unanchored: pick a member whose language avoids every
        // sub-path of abba.
        let empty = UnionCrpq::new(vec![single(&mut alpha, "aa")]);
        assert!(!empty.boolean(&db));
        assert!(empty.witness(&db).is_none());
    }

    #[test]
    fn empty_union_never_matches() {
        let (db, s, t) = db_word("ab");
        let u = UnionCrpq::default();
        assert!(u.is_empty());
        assert!(!u.boolean(&db));
        assert!(u.answers(&db).is_empty());
        assert!(!u.check(&db, &[s, t]));
    }

    #[test]
    #[should_panic(expected = "equal output arity")]
    fn mixed_arities_rejected() {
        let mut alpha = Alphabet::from_chars("ab");
        let q1 = Crpq::build(&[("x", "a", "y")], &["x", "y"], &mut alpha).unwrap();
        let q2 = Crpq::build(&[("x", "a", "y")], &["x"], &mut alpha).unwrap();
        let _ = UnionCrpq::new(vec![q1, q2]);
    }

    #[test]
    fn union_ecrpq_er_detection() {
        let mut alpha = Alphabet::from_chars("ab");
        let mk = |alpha: &mut Alphabet, rel: RegularRelation| {
            let mut p = GraphPattern::new();
            let x = p.node("x");
            let y = p.node("y");
            let z = p.node("z");
            let r1 = parse_regex("(a|b)+", alpha).unwrap();
            let r2 = parse_regex("(a|b)+", alpha).unwrap();
            p.add_edge(x, r1, y);
            p.add_edge(x, r2, z);
            Ecrpq::new(p, vec![(rel, vec![0, 1])], vec![]).unwrap()
        };
        let er = UnionEcrpq::new(vec![
            mk(&mut alpha, RegularRelation::equality(2)),
            mk(&mut alpha, RegularRelation::equality(2)),
        ]);
        assert!(er.is_er());
        let not_er = UnionEcrpq::new(vec![
            mk(&mut alpha, RegularRelation::equality(2)),
            mk(&mut alpha, RegularRelation::equal_length(2)),
        ]);
        assert!(!not_er.is_er());
        assert_eq!(not_er.len(), 2);
        assert!(not_er.size() > 0);
    }

    #[test]
    fn union_ecrpq_evaluates_members() {
        // Member 1 wants two equal (a|b)+ paths from a shared source;
        // member 2 wants equal lengths. A database with ab/ba branches
        // satisfies only the second.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t1 = db.add_node();
        let t2 = db.add_node();
        let ab = db.alphabet().parse_word("ab").unwrap();
        let ba = db.alphabet().parse_word("ba").unwrap();
        db.add_word_path(s, &ab, t1);
        db.add_word_path(s, &ba, t2);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let mk = |alpha: &mut Alphabet, rel: RegularRelation, out: bool| {
            let mut p = GraphPattern::new();
            let x = p.node("x");
            let y = p.node("y");
            let z = p.node("z");
            let r1 = parse_regex("(a|b)(a|b)", alpha).unwrap();
            let r2 = parse_regex("(a|b)(a|b)", alpha).unwrap();
            p.add_edge(x, r1, y);
            p.add_edge(x, r2, z);
            let output = if out { vec![y, z] } else { vec![] };
            Ecrpq::new(p, vec![(rel, vec![0, 1])], output).unwrap()
        };
        // Equality alone fails on distinct 2-letter branches unless y = z.
        let eq_only = UnionEcrpq::new(vec![mk(&mut alpha2, RegularRelation::equality(2), true)]);
        let ans = eq_only.answers(&db);
        assert!(ans.contains(&vec![t1, t1]));
        assert!(!ans.contains(&vec![t1, t2]));
        // Adding the equal-length member admits the mixed pair.
        let both = UnionEcrpq::new(vec![
            mk(&mut alpha2, RegularRelation::equality(2), true),
            mk(&mut alpha2, RegularRelation::equal_length(2), true),
        ]);
        assert!(both.answers(&db).contains(&vec![t1, t2]));
        let (i, w) = both.witness(&db).unwrap();
        assert!(i <= 1);
        assert_eq!(w.paths.len(), 2);
    }
}
