//! The Figure 2 motivating domain: a phone-message network where some
//! individuals hide their communication by encoding messages as sequences
//! of simple text messages relayed via intermediaries (Figure 2, G3).

use cxrpq_core::{Cxrpq, CxrpqBuilder};
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A synthetic message network with planted hidden channels.
pub struct MessageNetwork {
    /// The database (labels = message types).
    pub db: GraphDb,
    /// Planted covert pairs `(v1, v2, mutual_friend)`.
    pub planted: Vec<(NodeId, NodeId, NodeId)>,
}

/// Generates a message network over `messages` message types with
/// `population` people, `noise_edges` random messages, plus `planted`
/// covert triples satisfying Figure 2's G3: v1 reaches v2 by a sequence x
/// of ≥ 2 messages, v2 reaches v1 by a sequence y of ≥ 2 messages, and a
/// mutual contact is reached from v1 by repetitions of x and from v2 by
/// repetitions of y.
pub fn generate(
    population: usize,
    messages: usize,
    noise_edges: usize,
    planted: usize,
    seed: u64,
) -> MessageNetwork {
    assert!(messages >= 2 && population >= 4);
    let names: Vec<String> = (0..messages).map(|i| format!("m{i}")).collect();
    let alphabet = Arc::new(Alphabet::from_names(names.iter()));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = GraphBuilder::new(alphabet);
    for _ in 0..population {
        db.add_node();
    }
    let sigma = db.alphabet().len() as u32;
    let mut planted_out = Vec::new();
    for _ in 0..planted {
        let v1 = NodeId(rng.random_range(0..population as u32));
        let v2 = NodeId(rng.random_range(0..population as u32));
        let friend = NodeId(rng.random_range(0..population as u32));
        let xlen = rng.random_range(2..=3usize);
        let ylen = rng.random_range(2..=3usize);
        let x: Vec<Symbol> = (0..xlen)
            .map(|_| Symbol(rng.random_range(0..sigma)))
            .collect();
        let y: Vec<Symbol> = (0..ylen)
            .map(|_| Symbol(rng.random_range(0..sigma)))
            .collect();
        db.add_word_path(v1, &x, v2);
        db.add_word_path(v2, &y, v1);
        // Repetitions of the code words reach the mutual contact.
        let reps_x = rng.random_range(1..=2usize);
        let reps_y = rng.random_range(1..=2usize);
        let xx: Vec<Symbol> = x.iter().copied().cycle().take(x.len() * reps_x).collect();
        let yy: Vec<Symbol> = y.iter().copied().cycle().take(y.len() * reps_y).collect();
        db.add_word_path(v1, &xx, friend);
        db.add_word_path(v2, &yy, friend);
        planted_out.push((v1, v2, friend));
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < noise_edges && attempts < noise_edges * 10 {
        attempts += 1;
        let u = NodeId(rng.random_range(0..db.node_count() as u32));
        let v = NodeId(rng.random_range(0..db.node_count() as u32));
        let a = Symbol(rng.random_range(0..sigma));
        if db.add_edge(u, a, v) {
            added += 1;
        }
    }
    MessageNetwork {
        db: db.freeze(),
        planted: planted_out,
    }
}

/// Figure 2 G3 — the hidden-communication query: pairs `(v1, v2)` with
/// mutual code-word paths and a common contact reached by repetitions.
/// Evaluated as `CXRPQ^{≤k}` (the paper's example uses k = 10: code words
/// of bounded length, repetitions unbounded).
pub fn fig2_g3(alphabet: &mut Alphabet) -> Cxrpq {
    CxrpqBuilder::new(alphabet)
        .edge("v1", "x{..+}", "v2")
        .edge("v2", "y{..+}", "v1")
        .edge("v1", "(x|y)+", "m")
        .edge("v2", "(x|y)+", "m")
        .output(&["v1", "v2"])
        .build()
        .expect("static query")
}

/// Figure 2 G1 over message types `a`, `b`, `c` (requires those symbols in
/// the alphabet): w has a direct x ∈ {a,b} arc to v1 and reaches v2 via
/// `(x|c)+`.
pub fn fig2_g1(alphabet: &mut Alphabet) -> Cxrpq {
    CxrpqBuilder::new(alphabet)
        .edge("w", "x{a|b}", "v1")
        .edge("w", "(x|c)+", "v2")
        .output(&["v1", "v2"])
        .build()
        .expect("static query")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_core::{BoundedEvaluator, Evaluate};

    #[test]
    fn planted_channels_are_found() {
        let net = generate(12, 3, 10, 2, 21);
        let mut alpha = net.db.alphabet().clone();
        let q = fig2_g3(&mut alpha);
        let ev = BoundedEvaluator::new(&q, 3);
        let answers = ev.answers(&net.db);
        for (v1, v2, _) in &net.planted {
            assert!(
                answers.contains(&vec![*v1, *v2]),
                "planted pair ({v1:?}, {v2:?}) not found"
            );
        }
    }

    #[test]
    fn no_channels_in_pure_noise() {
        // A sparse random network without planted pairs only rarely
        // satisfies G3 (occasionally a short random cycle does, which is
        // correct behaviour); this seed is verified clean.
        let net = generate(16, 3, 8, 0, 1);
        let mut alpha = net.db.alphabet().clone();
        let q = fig2_g3(&mut alpha);
        let ev = BoundedEvaluator::new(&q, 2);
        assert!(ev.answers(&net.db).is_empty());
    }

    #[test]
    fn fig2_g1_semantics() {
        // Hand-built: w -a-> v1, w -a-> u -c-> v2 (x = a works);
        // and w -b-> v1' with only a-path onwards (x = b fails).
        let alphabet = Arc::new(Alphabet::from_chars("abc"));
        let a = alphabet.sym("a");
        let b = alphabet.sym("b");
        let c = alphabet.sym("c");
        let mut db = GraphBuilder::new(alphabet);
        let w = db.add_node();
        let v1 = db.add_node();
        let u = db.add_node();
        let v2 = db.add_node();
        db.add_edge(w, a, v1);
        db.add_edge(w, a, u);
        db.add_edge(u, c, v2);
        let v1b = db.add_node();
        db.add_edge(w, b, v1b);
        let db = db.freeze();
        let mut alpha = db.alphabet().clone();
        let q = fig2_g1(&mut alpha);
        let ev = BoundedEvaluator::new(&q, 1);
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![v1, v2])); // x = a
        assert!(ans.contains(&vec![v1, u]));
        // x = b: w -b-> v1b but no (b|c)+ path from w to v2.
        assert!(!ans.contains(&vec![v1b, v2]));
    }
}
