//! The paper's hardness reductions, end to end: Theorem 1 (NFA
//! intersection → fixed CXRPQ, PSpace-hardness in data complexity) and
//! Theorem 7 / Figure 4 (Hitting Set → single-edge CXRPQ^{≤1},
//! NP-hardness in combined complexity).
//!
//! Run with: `cargo run --example reductions_gallery`

use cxrpq::core::{BoundedEvaluator, Evaluate, GenericEvaluator, GenericOutcome};
use cxrpq::graph::dot::to_dot;
use cxrpq::workloads::reductions;

fn main() {
    println!("=== Theorem 1: NFA intersection as a fixed graph query ===\n");
    let inst = reductions::random_nfa_intersection(3, 3, 7);
    let expected = inst.intersection_nonempty();
    println!("3 random NFAs over {{a,b}}; ⋂L(Mᵢ) non-empty (ground truth): {expected}");
    if let Some(w) = inst.shortest_witness() {
        println!("shortest common word length: {}", w.len());
    }
    let (db, s, t) = reductions::theorem1_database(&inst);
    println!(
        "reduction database: {} nodes, {} arcs (state graphs + #/##/### connectors)",
        db.node_count(),
        db.edge_count()
    );
    let mut alpha = db.alphabet().clone();
    let q = reductions::alpha_ni(&mut alpha);
    println!("fixed query: (x , #z{{(a|b)*}}(##z)*### , y), checked at (s, t)");
    let cap = inst.shortest_witness().map(|w| w.len()).unwrap_or(5).max(1);
    match GenericEvaluator::new(&q, cap).check(&db, &[s, t]) {
        GenericOutcome::Match { k } => {
            println!("query matches with image bound {k} → intersection non-empty ✓");
        }
        GenericOutcome::NoMatchUpTo { cap } => {
            println!("no match up to image bound {cap} → intersection empty ✓");
        }
    }

    println!("\n=== Theorem 7 / Figure 4: Hitting Set as a single-edge query ===\n");
    let hs = reductions::HittingSet {
        universe: 3,
        sets: vec![vec![0, 1], vec![1, 2], vec![0, 2]],
        k: 2,
    };
    println!(
        "instance: U = {{z0,z1,z2}}, sets {{z0,z1}}, {{z1,z2}}, {{z0,z2}}, k = {}",
        hs.k
    );
    println!("brute force says hitting set exists: {}", hs.brute_force());
    let (db, q) = reductions::theorem7_reduction(&hs);
    println!(
        "Figure 4 database: {} nodes, {} arcs; query has {} string variables",
        db.node_count(),
        db.edge_count(),
        q.conjunctive().var_count()
    );
    let got = BoundedEvaluator::new(&q, 1).boolean(&db);
    println!("CXRPQ^≤1 evaluation: {got} ✓");
    assert_eq!(got, hs.brute_force());

    // Export a small instance of the Figure 4 database for inspection.
    let tiny = reductions::HittingSet {
        universe: 2,
        sets: vec![vec![0], vec![1]],
        k: 1,
    };
    let (tiny_db, _) = reductions::theorem7_reduction(&tiny);
    let dot = to_dot(&tiny_db, "figure4");
    println!(
        "\nGraphviz export of the tiny Figure 4 database ({} lines) — first 5:",
        dot.lines().count()
    );
    for line in dot.lines().take(5) {
        println!("  {line}");
    }
}
