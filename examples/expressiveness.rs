//! Figure 5 of the paper: the expressive-power map, demonstrated with the
//! separation witnesses of §7 (Figures 6 and 7) evaluated on the database
//! families from the proofs.
//!
//! Run with: `cargo run --example expressiveness`

use cxrpq::core::{
    translate, BoundedEvaluator, EcrpqEvaluator, Evaluate, GenericEvaluator, GenericOutcome,
    VsfEvaluator,
};
use cxrpq::graph::Alphabet;
use cxrpq::workloads::{graphs, witnesses};

fn main() {
    println!("Figure 5 separations, witnessed empirically:\n");

    // ⟦CRPQ⟧ ⊊ ⟦CXRPQ^≤1⟧ (Lemma 15): q1 distinguishes D_{a,a} from
    // D_{a,b}, which agree on every CRPQ-visible feature used in the proof.
    let mut alpha = Alphabet::from_chars("abcd");
    let q1 = witnesses::q1(&mut alpha);
    println!("q₁ ∈ CXRPQ^≤1  (u1 -x{{a|b}}-> u2, u3 -d-> u2, u3 -(x|c)-> u4)");
    for (s1, s2) in [('a', 'a'), ('a', 'c'), ('a', 'b'), ('b', 'b')] {
        let db = witnesses::d_sigma(s1, s2);
        let m = BoundedEvaluator::new(&q1, 1).boolean(&db);
        println!("  D_(σ₁={s1}, σ₂={s2}) ⊨ q₁ ?  {m}");
    }
    println!("  → matches exactly when σ₂ = σ₁ or σ₂ = c: a value correlation\n    between two arcs that share no endpoint — beyond any single CRPQ.\n");

    // ⟦CRPQ⟧ ⊊ ⟦ECRPQ^er⟧ (Theorem 9, Claim 2): q_anan needs path equality.
    let mut alpha = Alphabet::from_chars("abcd");
    let q_anan = witnesses::q_anan(&mut alpha);
    println!("q_aⁿaⁿ ∈ ECRPQ^er  (two caⁿc / daⁿd paths, equality relation)");
    for (n, m) in [(3, 3), (3, 2)] {
        let (db, _, _) = graphs::d_anam(n, m);
        println!(
            "  D(caⁿc, daᵐd) n={n} m={m} ⊨ q ?  {}",
            EcrpqEvaluator::new(&q_anan).boolean(&db)
        );
    }
    println!();

    // ⟦ECRPQ^er⟧ ⊊ ⟦ECRPQ⟧ (Theorem 9, Claim 1): q_anbn uses equal-LENGTH,
    // which no equality-only query can express.
    let mut alpha = Alphabet::from_chars("abcd");
    let q_anbn = witnesses::q_anbn(&mut alpha);
    println!("q_aⁿbⁿ ∈ ECRPQ  (equal-length relation over an a-path and a b-path)");
    for (n, m) in [(4, 4), (4, 2)] {
        let (db, _, _) = graphs::d_anbm(n, m);
        println!(
            "  D(caⁿc, dbᵐd) n={n} m={m} ⊨ q ?  {}",
            EcrpqEvaluator::new(&q_anbn).boolean(&db)
        );
    }
    println!();

    // ⟦ECRPQ^er⟧ ⊊ ⟦CXRPQ⟧ (Lemma 16): q2's nested definitions express
    // (aⁿ¹b)ⁿ² c (aⁿ¹b)ⁿ² — doubly-parameterized repetition.
    let mut alpha = Alphabet::from_chars("abc#");
    let q2 = witnesses::q2(&mut alpha);
    println!("q₂ ∈ CXRPQ  (#y{{x{{a⁺b}}x*}}cy#)");
    for (p, q, r, s) in [(1usize, 2usize, 1usize, 2usize), (1, 2, 2, 2)] {
        let (db, _, _) = witnesses::pumping_path(p, q, r, s);
        let verdict = match GenericEvaluator::new(&q2, 8).evaluate(&db) {
            GenericOutcome::Match { k } => format!("true (min image bound {k})"),
            GenericOutcome::NoMatchUpTo { .. } => "false".to_string(),
        };
        println!("  #(a^{p}b)^{q}c(a^{r}b)^{s}# ⊨ q₂ ?  {verdict}");
    }
    println!();

    // The inclusion arrows: Lemma 12 and Lemma 13 translations round-trip.
    println!("Inclusion arrows (Lemmas 12/13): ECRPQ^er → CXRPQ^vsf,fl → ∪-ECRPQ^er");
    let translated = translate::ecrpq_er_to_cxrpq(&q_anan).unwrap();
    println!(
        "  Lemma 12 on q_aⁿaⁿ yields fragment {:?}",
        translated.fragment()
    );
    let (db, _, _) = graphs::d_anam(2, 2);
    let direct = EcrpqEvaluator::new(&q_anan).boolean(&db);
    let via = VsfEvaluator::new(&translated).unwrap().boolean(&db);
    let union = translate::cxrpq_vsf_to_union_ecrpq_er(&translated).unwrap();
    let back = translate::union_ecrpq_boolean(&union, &db);
    println!("  D(ca²c, da²d): native {direct}, via CXRPQ {via}, via ∪-ECRPQ^er {back}");
    assert!(direct && via && back);
}
