//! ECRPQ with non-equality regular relations: approximate path comparison.
//!
//! The paper positions ECRPQ (Barceló et al.) as the class with regular
//! relations *beyond* equality (§1.3): CXRPQ string variables can say "these
//! paths carry the same word", ECRPQ can also say "almost the same word".
//! This example compares three relations on a message network:
//!
//! - equality            (what a CXRPQ variable expresses),
//! - Hamming distance ≤ 1 (one corrupted message allowed),
//! - equal length         (only the traffic volume matches).
//!
//! Run with: `cargo run --example approximate_paths`

use cxrpq::automata::parse_regex;
use cxrpq::core::{Ecrpq, EcrpqEvaluator, Evaluate, GraphPattern, RegularRelation};
use cxrpq::graph::{Alphabet, GraphBuilder};
use std::sync::Arc;

fn main() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let mut db = GraphBuilder::new(alpha);

    // One sender s with four outgoing message streams.
    let s = db.add_named_node("sender");
    let streams = [
        ("exact", "abab"), // reference stream
        ("noisy", "abbb"), // one flipped message
        ("burst", "bbbb"), // two flips
        ("short", "aba"),  // different length
    ];
    let mut sinks = Vec::new();
    for (name, word) in streams {
        let t = db.add_named_node(name);
        let w = db.alphabet().parse_word(word).unwrap();
        db.add_word_path(s, &w, t);
        sinks.push(t);
    }
    let db = db.freeze();
    let reference = sinks[0];

    // Pattern: two streams out of the same sender, jointly constrained.
    let build = |rel: RegularRelation| {
        let mut alpha2 = db.alphabet().clone();
        let mut p = GraphPattern::new();
        let x = p.node("x");
        let y = p.node("y");
        let z = p.node("z");
        let r1 = parse_regex("(a|b)+", &mut alpha2).unwrap();
        let r2 = parse_regex("(a|b)+", &mut alpha2).unwrap();
        p.add_edge(x, r1, y);
        p.add_edge(x, r2, z);
        Ecrpq::new(p, vec![(rel, vec![0, 1])], vec![y, z]).unwrap()
    };

    for (label, rel) in [
        ("equality           ", RegularRelation::equality(2)),
        ("hamming distance ≤1", RegularRelation::hamming_leq(1)),
        ("equal length       ", RegularRelation::equal_length(2)),
    ] {
        let q = build(rel);
        let answers = EcrpqEvaluator::new(&q).answers(&db);
        let partners: Vec<String> = sinks
            .iter()
            .filter(|&&t| answers.contains(&vec![reference, t]))
            .map(|&t| db.node_name(t))
            .collect();
        println!("{label}: exact ~ {{{}}}", partners.join(", "));
    }

    // A witness for the approximate match shows where the words differ.
    let q = build(RegularRelation::hamming_leq(1));
    let w = EcrpqEvaluator::new(&q)
        .witness_for(&db, &[reference, sinks[1]])
        .expect("noisy is within distance 1");
    let (a, b) = (w.paths[0].label(), w.paths[1].label());
    println!(
        "\nwitness words: \"{}\" vs \"{}\" (differ in {} position)",
        db.alphabet().render_word(a),
        db.alphabet().render_word(b),
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    );
}
