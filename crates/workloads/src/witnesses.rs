//! The expressiveness witnesses of §7 (Figures 6 and 7) and their database
//! families — the separation instances behind Figure 5's strict inclusions.

use cxrpq_automata::parse_regex;
use cxrpq_core::{Cxrpq, CxrpqBuilder, Ecrpq, GraphPattern, RegularRelation};
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use std::sync::Arc;

/// Figure 6: `q_{aⁿbⁿ}` — an ECRPQ (equal-length relation) matching
/// databases containing `c aⁿ c` and `d bⁿ d` paths with the *same* n.
/// Witnesses `⟦ECRPQ^er⟧ ⊊ ⟦ECRPQ⟧` (Theorem 9).
pub fn q_anbn(alphabet: &mut Alphabet) -> Ecrpq {
    let mut pattern = GraphPattern::new();
    let edges = [
        ("x", "c", "y1"),
        ("y1", "a*", "y2"),
        ("y2", "c", "z"),
        ("x2", "d", "y12"),
        ("y12", "b*", "y22"),
        ("y22", "d", "z2"),
    ];
    for (s, l, d) in edges {
        let r = parse_regex(l, alphabet).unwrap();
        let sv = pattern.node(s);
        let dv = pattern.node(d);
        pattern.add_edge(sv, r, dv);
    }
    Ecrpq::new(
        pattern,
        vec![(RegularRelation::equal_length(2), vec![1, 4])],
        vec![],
    )
    .expect("static query")
}

/// Figure 6 variant: `q_{aⁿaⁿ}` — the same pattern with both repetition
/// edges labelled `a*` under an *equality* relation. Witnesses
/// `⟦CRPQ⟧ ⊊ ⟦ECRPQ^er⟧` (Theorem 9, Claim 2).
pub fn q_anan(alphabet: &mut Alphabet) -> Ecrpq {
    let mut pattern = GraphPattern::new();
    let edges = [
        ("x", "c", "y1"),
        ("y1", "a*", "y2"),
        ("y2", "c", "z"),
        ("x2", "d", "y12"),
        ("y12", "a*", "y22"),
        ("y22", "d", "z2"),
    ];
    for (s, l, d) in edges {
        let r = parse_regex(l, alphabet).unwrap();
        let sv = pattern.node(s);
        let dv = pattern.node(d);
        pattern.add_edge(sv, r, dv);
    }
    Ecrpq::new(
        pattern,
        vec![(RegularRelation::equality(2), vec![1, 4])],
        vec![],
    )
    .expect("static query")
}

/// Figure 7: `q₁ ∈ CXRPQ^{≤1}` — `u1 -x{a|b}-> u2`, `u3 -d-> u2`,
/// `u3 -(x|c)-> u4`. Witnesses `⟦CRPQ⟧ ⊊ ⟦CXRPQ^{≤k}⟧` (Lemma 15).
pub fn q1(alphabet: &mut Alphabet) -> Cxrpq {
    CxrpqBuilder::new(alphabet)
        .edge("u1", "x{a|b}", "u2")
        .edge("u3", "d", "u2")
        .edge("u3", "x|c", "u4")
        .build()
        .expect("static query")
}

/// The Lemma 15 database family `D_{σ₁,σ₂}`: `v1 -σ₁-> v2`, `v3 -d-> v2`,
/// `v3 -σ₂-> v4`. `D_{σ₁,σ₂} ⊨ q₁` iff σ₁ ∈ {a, b} and (σ₂ = σ₁ or σ₂ = c).
pub fn d_sigma(s1: char, s2: char) -> GraphDb {
    let alphabet = Arc::new(Alphabet::from_chars("abcd"));
    let mut db = GraphBuilder::new(alphabet);
    let v1 = db.add_node();
    let v2 = db.add_node();
    let v3 = db.add_node();
    let v4 = db.add_node();
    let sym1 = db.alphabet().sym(&s1.to_string());
    let sym2 = db.alphabet().sym(&s2.to_string());
    let d = db.alphabet().sym("d");
    db.add_edge(v1, sym1, v2);
    db.add_edge(v3, d, v2);
    db.add_edge(v3, sym2, v4);
    db.freeze()
}

/// Figure 7: `q₂ ∈ CXRPQ` — the single-edge query
/// `# y{x{a⁺b}x*} c y #`, matching paths labelled
/// `#(aⁿ¹b)ⁿ² c (aⁿ¹b)ⁿ² #`. Witnesses `⟦ECRPQ^er⟧ ⊊ ⟦CXRPQ⟧` (Lemma 16).
pub fn q2(alphabet: &mut Alphabet) -> Cxrpq {
    CxrpqBuilder::new(alphabet)
        .edge("u1", "#y{x{a+b}x*}cy#", "u2")
        .build()
        .expect("static query")
}

/// The Lemma 16 path family: a simple path labelled
/// `# (aᵖb)^q c (aʳb)^s #`; returns `(db, source, sink)`.
pub fn pumping_path(p: usize, q: usize, r: usize, s: usize) -> (GraphDb, NodeId, NodeId) {
    let alphabet = Arc::new(Alphabet::from_chars("abc#"));
    let a = alphabet.sym("a");
    let b = alphabet.sym("b");
    let c = alphabet.sym("c");
    let hash = alphabet.sym("#");
    let mut word: Vec<Symbol> = vec![hash];
    for _ in 0..q {
        word.extend(std::iter::repeat_n(a, p));
        word.push(b);
    }
    word.push(c);
    for _ in 0..s {
        word.extend(std::iter::repeat_n(a, r));
        word.push(b);
    }
    word.push(hash);
    let mut db = GraphBuilder::new(alphabet);
    let src = db.add_node();
    let snk = db.add_node();
    db.add_word_path(src, &word, snk);
    (db.freeze(), src, snk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{d_anam, d_anbm};
    use cxrpq_core::{
        BoundedEvaluator, EcrpqEvaluator, Evaluate, GenericEvaluator, GenericOutcome,
    };

    #[test]
    fn q_anbn_separates_lengths() {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = q_anbn(&mut alpha);
        for (n, m, expect) in [
            (0, 0, true),
            (2, 2, true),
            (4, 4, true),
            (2, 3, false),
            (5, 1, false),
        ] {
            let (db, _, _) = d_anbm(n, m);
            assert_eq!(EcrpqEvaluator::new(&q).boolean(&db), expect, "n={n} m={m}");
        }
    }

    #[test]
    fn q_anan_needs_equal_words() {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = q_anan(&mut alpha);
        for (n, m, expect) in [(3, 3, true), (0, 0, true), (3, 2, false)] {
            let (db, _, _) = d_anam(n, m);
            assert_eq!(EcrpqEvaluator::new(&q).boolean(&db), expect, "n={n} m={m}");
        }
    }

    #[test]
    fn q1_matrix_matches_lemma_15() {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = q1(&mut alpha);
        // D_{σ1,σ2} ⊨ q1 iff σ1 ∈ {a,b} ∧ (σ2 = σ1 ∨ σ2 = c).
        for s1 in ['a', 'b'] {
            for s2 in ['a', 'b', 'c'] {
                let db = d_sigma(s1, s2);
                let expect = s2 == s1 || s2 == 'c';
                assert_eq!(
                    BoundedEvaluator::new(&q, 1).boolean(&db),
                    expect,
                    "σ=({s1},{s2})"
                );
            }
        }
    }

    #[test]
    fn q2_matches_pumped_family_iff_halves_agree() {
        let mut alpha = Alphabet::from_chars("abc#");
        let q = q2(&mut alpha);
        // #(ab)²c(ab)²#: match with images x = ab, y = abab (k = 4).
        let (db, _, _) = pumping_path(1, 2, 1, 2);
        assert_eq!(
            GenericEvaluator::new(&q, 4).evaluate(&db),
            GenericOutcome::Match { k: 4 }
        );
        // Unequal inner exponents: #(ab)²c(a²b)²# — never a match (the cap
        // exceeds the path length, so the verdict is definitive).
        let (db2, _, _) = pumping_path(1, 2, 2, 2);
        assert!(matches!(
            GenericEvaluator::new(&q, 8).evaluate(&db2),
            GenericOutcome::NoMatchUpTo { .. }
        ));
        // Unequal repetition counts: #(ab)¹c(ab)²# — no match.
        let (db3, _, _) = pumping_path(1, 1, 1, 2);
        assert!(matches!(
            GenericEvaluator::new(&q, 8).evaluate(&db3),
            GenericOutcome::NoMatchUpTo { .. }
        ));
    }
}
