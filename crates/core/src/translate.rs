//! The expressiveness translations of §7 (Figure 5's inclusion arrows).
//!
//! - Lemma 12: `⟦ECRPQ^er⟧ ⊆ ⟦CXRPQ^{vsf,fl}⟧` — every equality class gets
//!   one string variable: the designated edge defines `z_j{β_j}` with
//!   `β_j ≡ ⋂ᵢ L(αᵢ)`, every other edge becomes a bare reference.
//! - Lemma 13: `⟦CXRPQ^{vsf}⟧ ⊆ ⟦∪-ECRPQ^er⟧` — per simple branch choice,
//!   subdivide components into factor edges and put each variable group
//!   under an equality relation.
//! - Lemma 14: `⟦CXRPQ^{≤k}⟧ ⊆ ⟦∪-CRPQ⟧` — one specialized CRPQ per
//!   candidate variable mapping (the exponential conciseness gap measured
//!   in experiment E11).

use crate::bounded::BoundedEvaluator;
use crate::crpq::Crpq;
use crate::cxrpq::Cxrpq;
use crate::ecrpq::{Ecrpq, EcrpqError};
use crate::evaluate::Evaluate;
use crate::pattern::GraphPattern;
use crate::relation::RegularRelation;
use crate::simple_eval::{deref_basic_chains, factorize, Factor};
use cxrpq_automata::{nfa_to_regex, Nfa, Regex};
use cxrpq_graph::Symbol;
use cxrpq_xregex::normal_form::{simple_choices, NormalFormError};
use cxrpq_xregex::specialize::{specialize, VarMapping};
use cxrpq_xregex::{ConjunctiveXregex, VarTable, Xregex};
use std::fmt;

/// The ECRPQ is not in the equality-relation fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotEr;

impl fmt::Display for NotEr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lemma 12 applies to ECRPQ^er (equality relations only)")
    }
}

impl std::error::Error for NotEr {}

/// Lemma 12: translates an `ECRPQ^er` into an equivalent `CXRPQ^{vsf,fl}`.
pub fn ecrpq_er_to_cxrpq(q: &Ecrpq) -> Result<Cxrpq, NotEr> {
    if !q.is_er() {
        return Err(NotEr);
    }
    let m = q.pattern().edge_count();
    let mut comps: Vec<Option<Xregex>> = q
        .pattern()
        .edges()
        .iter()
        .map(|(_, re, _)| Some(Xregex::from_regex(re)))
        .collect();
    let mut vars = VarTable::new();
    for (j, (_, edges)) in q.relations().iter().enumerate() {
        let z = vars.fresh(&format!("z{}", j + 1));
        // β = regex for ⋂ L(α_i) over the class.
        let nfas: Vec<Nfa> = edges
            .iter()
            .map(|&e| Nfa::from_regex(&q.pattern().edges()[e].1))
            .collect();
        let beta = nfa_to_regex(&Nfa::intersect_all(&nfas));
        for (slot, &e) in edges.iter().enumerate() {
            comps[e] = Some(if slot == 0 {
                Xregex::VarDef(z, Box::new(Xregex::from_regex(&beta)))
            } else {
                Xregex::VarRef(z)
            });
        }
    }
    let comps: Vec<Xregex> = comps.into_iter().map(Option::unwrap).collect();
    debug_assert_eq!(comps.len(), m);
    let cxre =
        ConjunctiveXregex::new(comps, vars).expect("translation yields a valid conjunctive xregex");
    let pattern = q.pattern().map_labels(|i, _| i);
    Ok(Cxrpq::from_parts(pattern, cxre, q.output().to_vec()))
}

/// Lemma 13: translates a `CXRPQ^{vsf}` into an equivalent union of
/// `ECRPQ^er` (one per simple branch choice; exponentially many in general).
pub fn cxrpq_vsf_to_union_ecrpq_er(q: &Cxrpq) -> Result<Vec<Ecrpq>, NormalFormError> {
    let mut union = Vec::new();
    for choice in simple_choices(q.conjunctive())? {
        let mut comps: Vec<Xregex> = choice.components().to_vec();
        deref_basic_chains(&mut comps);
        let mut pattern: GraphPattern<Regex> = GraphPattern::new();
        // Re-intern original node variables by name, preserving indices.
        for v in q.pattern().node_vars() {
            pattern.node(q.pattern().node_name(v));
        }
        let mut var_members: std::collections::BTreeMap<cxrpq_xregex::Var, Vec<(usize, bool)>> =
            std::collections::BTreeMap::new();
        let mut fresh = 0usize;
        for (edge_idx, (src, _, dst)) in q.pattern().edges().iter().enumerate() {
            let factors = factorize(&comps[edge_idx]);
            if factors.is_empty() {
                pattern.add_edge(*src, Regex::Epsilon, *dst);
                continue;
            }
            let t = factors.len();
            let mut prev = *src;
            for (j, f) in factors.into_iter().enumerate() {
                let next = if j + 1 == t {
                    *dst
                } else {
                    fresh += 1;
                    pattern.node(&format!("·{edge_idx}_{fresh}"))
                };
                match f {
                    Factor::Classical(re) => {
                        pattern.add_edge(prev, re, next);
                    }
                    Factor::Ref(x) => {
                        let e = pattern.add_edge(prev, Regex::sigma_star(), next);
                        var_members.entry(x).or_default().push((e, false));
                    }
                    Factor::Def(x, re) => {
                        let e = pattern.add_edge(prev, re, next);
                        var_members.entry(x).or_default().push((e, true));
                    }
                }
                prev = next;
            }
        }
        let mut relations = Vec::new();
        for (_, mut mem) in var_members {
            if mem.len() >= 2 {
                mem.sort_by_key(|(_, is_def)| !*is_def);
                let edges: Vec<usize> = mem.iter().map(|(e, _)| *e).collect();
                relations.push((RegularRelation::equality(edges.len()), edges));
            }
        }
        let ecrpq = Ecrpq::new(pattern, relations, q.output().to_vec())
            .expect("translation yields a valid ECRPQ");
        debug_assert!(ecrpq.is_er());
        union.push(ecrpq);
    }
    Ok(union)
}

/// Lemma 14: translates a `CXRPQ^{≤k}` into an equivalent union of CRPQs —
/// one per (pruned) candidate mapping with non-empty specialization.
pub fn cxrpq_bounded_to_union_crpq(q: &Cxrpq, k: usize, sigma: usize) -> Vec<Crpq> {
    let mut out = Vec::new();
    for_each_pruned_mapping(q, k, sigma, &mut |psi| {
        if let Some(regexes) = specialize(q.conjunctive(), psi) {
            out.push(q.to_crpq(&regexes));
        }
    });
    out
}

/// Enumerates the pruned candidate mappings of [`BoundedEvaluator`] (shared
/// with Lemma 14).
fn for_each_pruned_mapping(q: &Cxrpq, k: usize, sigma: usize, f: &mut dyn FnMut(&VarMapping)) {
    // Reuse the evaluator's enumeration via its public fixed-mapping probe:
    // re-derive candidates exactly as BoundedEvaluator does.
    let _ = BoundedEvaluator::new(q, k); // sanity: constructible
    use cxrpq_xregex::specialize::substituted_body;
    let order = q.conjunctive().topological_vars();
    fn all_words(k: usize, sigma: usize) -> Vec<Vec<Symbol>> {
        let mut out: Vec<Vec<Symbol>> = vec![Vec::new()];
        let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
        for _ in 0..k {
            let mut next = Vec::new();
            for w in &frontier {
                for s in 0..sigma as u32 {
                    let mut v = w.clone();
                    v.push(Symbol(s));
                    next.push(v);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }
    fn rec(
        q: &Cxrpq,
        order: &[cxrpq_xregex::Var],
        idx: usize,
        k: usize,
        sigma: usize,
        psi: &mut VarMapping,
        f: &mut dyn FnMut(&VarMapping),
    ) {
        if idx == order.len() {
            f(psi);
            return;
        }
        let x = order[idx];
        let mut bodies = Vec::new();
        for c in q.conjunctive().components() {
            c.walk(&mut |n| {
                if let Xregex::VarDef(y, body) = n {
                    if *y == x {
                        bodies.push((**body).clone());
                    }
                }
            });
        }
        let candidates: Vec<Vec<Symbol>> = if bodies.is_empty() {
            all_words(k, sigma)
        } else {
            let mut set: std::collections::BTreeSet<Vec<Symbol>> =
                std::collections::BTreeSet::new();
            set.insert(Vec::new());
            for body in &bodies {
                let re = substituted_body(body, psi);
                for w in Nfa::from_regex(&re).enumerate_upto(k, sigma) {
                    set.insert(w);
                }
            }
            set.into_iter().collect()
        };
        for c in candidates {
            psi.insert(x, c);
            rec(q, order, idx + 1, k, sigma, psi, f);
            psi.remove(&x);
        }
    }
    let mut psi = VarMapping::new();
    rec(q, &order, 0, k, sigma, &mut psi, f);
}

/// Lemma 13 packaged as a first-class `∪-ECRPQ^er` value.
pub fn cxrpq_vsf_to_union(q: &Cxrpq) -> Result<crate::union_query::UnionEcrpq, NormalFormError> {
    Ok(crate::union_query::UnionEcrpq::new(
        cxrpq_vsf_to_union_ecrpq_er(q)?,
    ))
}

/// Lemma 14 packaged as a first-class `∪-CRPQ` value.
pub fn cxrpq_bounded_to_union(q: &Cxrpq, k: usize, sigma: usize) -> crate::union_query::UnionCrpq {
    crate::union_query::UnionCrpq::new(cxrpq_bounded_to_union_crpq(q, k, sigma))
}

/// Evaluates a union of CRPQs (Boolean).
pub fn union_crpq_boolean(union: &[Crpq], db: &cxrpq_graph::GraphDb) -> bool {
    union
        .iter()
        .any(|q| crate::crpq::CrpqEvaluator::new(q).boolean(db))
}

/// Evaluates a union of ECRPQs (Boolean).
pub fn union_ecrpq_boolean(union: &[Ecrpq], db: &cxrpq_graph::GraphDb) -> bool {
    union
        .iter()
        .any(|q| crate::ecrpq::EcrpqEvaluator::new(q).boolean(db))
}

/// Re-export for callers building unions of answers.
pub use crate::ecrpq::EcrpqEvaluator as UnionMemberEvaluator;

#[allow(unused)]
fn _doc_anchor(_: EcrpqError) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use crate::ecrpq::EcrpqEvaluator;
    use crate::vsf_eval::VsfEvaluator;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId};
    use std::sync::Arc;

    fn db_words(words: &[&str]) -> (GraphDb, Vec<(NodeId, NodeId)>) {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
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

    fn er_query(alpha: &mut Alphabet, re1: &str, re2: &str) -> Ecrpq {
        let mut pattern = GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let u = pattern.node("u");
        let v = pattern.node("v");
        let r1 = parse_regex(re1, alpha).unwrap();
        let r2 = parse_regex(re2, alpha).unwrap();
        pattern.add_edge(x, r1, y);
        pattern.add_edge(u, r2, v);
        Ecrpq::new(
            pattern,
            vec![(RegularRelation::equality(2), vec![0, 1])],
            vec![x, y, u, v],
        )
        .unwrap()
    }

    #[test]
    fn lemma12_preserves_answers() {
        let (db, _) = db_words(&["aab", "aab", "abb", "ab"]);
        let mut alpha = db.alphabet().clone();
        let q = er_query(&mut alpha, "a*b", "a+b*");
        let translated = ecrpq_er_to_cxrpq(&q).unwrap();
        // The translation is vstar-free with flat variables.
        use cxrpq_xregex::{classification, Fragment};
        let c = classification(translated.conjunctive());
        assert!(c.vstar_free && c.all_flat);
        assert_ne!(c.fragment(), Fragment::General);
        let lhs = EcrpqEvaluator::new(&q).answers(&db);
        let rhs = VsfEvaluator::new(&translated).unwrap().answers(&db);
        assert_eq!(lhs, rhs);
        assert!(!lhs.is_empty());
    }

    #[test]
    fn lemma13_preserves_boolean() {
        let (db, _) = db_words(&["abab", "ab", "ba", "aabb", "bb"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{ab|ba}z", "y")
            .edge("u", "z|ab", "v")
            .build()
            .unwrap();
        let union = cxrpq_vsf_to_union_ecrpq_er(&q).unwrap();
        assert!(union.iter().all(Ecrpq::is_er));
        let direct = VsfEvaluator::new(&q).unwrap().boolean(&db);
        assert_eq!(direct, union_ecrpq_boolean(&union, &db));
        assert!(direct);
        // A database without any matching word pair.
        let (db2, _) = db_words(&["aa", "bb"]);
        assert_eq!(
            VsfEvaluator::new(&q).unwrap().boolean(&db2),
            union_ecrpq_boolean(&union, &db2)
        );
    }

    #[test]
    fn lemma13_answers_match() {
        let (db, ends) = db_words(&["abab", "aabb"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{ab}z", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let union = cxrpq_vsf_to_union_ecrpq_er(&q).unwrap();
        let direct = VsfEvaluator::new(&q).unwrap().answers(&db);
        let mut from_union = std::collections::BTreeSet::new();
        for e in &union {
            from_union.extend(EcrpqEvaluator::new(e).answers(&db));
        }
        assert_eq!(direct, from_union);
        assert!(direct.contains(&vec![ends[0].0, ends[0].1]));
    }

    #[test]
    fn lemma14_union_equivalence() {
        let (db, _) = db_words(&["abcab".replace('c', "a").as_str(), "aa", "bb"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}az", "y")
            .build()
            .unwrap();
        for k in 0..=2usize {
            let union = cxrpq_bounded_to_union_crpq(&q, k, db.alphabet().len());
            let direct = BoundedEvaluator::new(&q, k).boolean(&db);
            assert_eq!(
                direct,
                union_crpq_boolean(&union, &db),
                "mismatch at k={k} (union size {})",
                union.len()
            );
        }
    }

    #[test]
    fn lemma14_union_grows_with_k() {
        let mut alpha = Alphabet::from_chars("ab");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)*}z", "y")
            .build()
            .unwrap();
        let sizes: Vec<usize> = (0..=3)
            .map(|k| cxrpq_bounded_to_union_crpq(&q, k, 2).len())
            .collect();
        // 1, 3, 7, 15: all words up to length k plus ε-only mapping.
        assert!(sizes.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(sizes[0], 1);
        assert_eq!(sizes[1], 3);
    }
}
