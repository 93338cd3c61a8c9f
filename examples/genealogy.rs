//! Figure 1 of the paper: the four genealogy graph patterns (RPQs and
//! CRPQs) evaluated on a synthetic academic-family graph.
//!
//! Run with: `cargo run --example genealogy`

use cxrpq::core::{CrpqEvaluator, Evaluate, Request};
use cxrpq::workloads::genealogy;

fn main() {
    let g = genealogy::generate(5, 6, 0.8, 2024);
    println!(
        "population: {} people across {} generations ({} arcs)",
        g.db.node_count(),
        g.generations.len(),
        g.db.edge_count()
    );
    let mut alpha = g.db.alphabet().clone();

    let queries = [
        (
            "G1  (v1 -ps-> sup, sup -p-> v2): v1's child supervised by v2's parent",
            genealogy::fig1_g1(&mut alpha),
        ),
        (
            "G2  (v1 -(p+|s+)-> v2): biological ancestor or academic descendant",
            genealogy::fig1_g2(&mut alpha),
        ),
        (
            "G3  (m -p+-> v1, v1 -s+-> m): a biological ancestor that is an academic ancestor",
            genealogy::fig1_g3(&mut alpha),
        ),
        (
            "G4  (common biological + common academic ancestor)",
            genealogy::fig1_g4(&mut alpha),
        ),
    ];
    for (desc, q) in &queries {
        let ev = CrpqEvaluator::new(q);
        let decided = ev.run(&g.db, Request::Boolean, &Request::Boolean.default_options());
        let (found, states) = (decided.value.into_bool(), decided.states);
        let answers = ev.answers(&g.db);
        println!();
        println!("{desc}");
        println!(
            "  matches: {found}; distinct answers: {}; product states explored: {states}",
            answers.len()
        );
        for t in answers.iter().take(4) {
            let names: Vec<String> = t.iter().map(|n| g.db.node_name(*n)).collect();
            println!("  answer: ({})", names.join(", "));
        }
        if answers.len() > 4 {
            println!("  … and {} more", answers.len() - 4);
        }
    }
}
