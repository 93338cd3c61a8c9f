//! Figure 2 / §1.1 of the paper: discovering hidden communication in a
//! message network with the CXRPQ G3 — pairs (v1, v2) that exchange
//! code-word message sequences and share a contact reached by repetitions
//! of those code words. Not expressible as a CRPQ: both the code-word
//! length and the number of repetitions are unbounded, and the paths must
//! agree letter-for-letter.
//!
//! Run with: `cargo run --example covert_channels`

use cxrpq::core::{BoundedEvaluator, Evaluate};
use cxrpq::workloads::messages;

fn main() {
    let net = messages::generate(24, 3, 25, 3, 99);
    println!(
        "message network: {} nodes, {} messages sent, {} covert pairs planted",
        net.db.node_count(),
        net.db.edge_count(),
        net.planted.len()
    );

    let mut alpha = net.db.alphabet().clone();
    let q = messages::fig2_g3(&mut alpha);
    println!("query (Figure 2, G3), one edge per line:");
    for line in q.render(&alpha) {
        println!("  {line}");
    }

    // The paper suggests interpreting G3 as CXRPQ^{≤10}: code words of
    // length ≤ 10, repetitions unbounded. Our planted codes are ≤ 3 long.
    let ev = BoundedEvaluator::new(&q, 3);
    let answers = ev.answers(&net.db);
    println!();
    println!("suspicious pairs found: {}", answers.len());
    let mut hits = 0;
    for (v1, v2, friend) in &net.planted {
        let found = answers.contains(&vec![*v1, *v2]);
        hits += usize::from(found);
        println!(
            "  planted ({}, {}) via mutual contact {} — {}",
            net.db.node_name(*v1),
            net.db.node_name(*v2),
            net.db.node_name(*friend),
            if found { "FOUND" } else { "missed" }
        );
    }
    assert_eq!(
        hits,
        net.planted.len(),
        "all planted channels must be found"
    );
    let extra = answers
        .iter()
        .filter(|t| !net.planted.iter().any(|(a, b, _)| vec![*a, *b] == **t))
        .count();
    println!("  plus {extra} coincidental channels arising from noise");
}
