//! The Figure 1 motivating domain: persons with biological-parent arcs
//! `(u, p, v)` ("u is a (biological) parent of v") and supervision arcs
//! `(u, s, v)` ("v is u's PhD-supervisor"), exactly as in the paper's
//! introduction.

use cxrpq_core::Crpq;
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A synthetic academic-genealogy population.
pub struct Genealogy {
    /// The database (labels `p`, `s`).
    pub db: GraphDb,
    /// Persons by generation (roots first).
    pub generations: Vec<Vec<NodeId>>,
}

/// Generates `gens` generations of `width` persons each. Every non-root has
/// one parent in the previous generation; every person has a supervisor
/// drawn from the previous generation with probability `supervised`.
pub fn generate(gens: usize, width: usize, supervised: f64, seed: u64) -> Genealogy {
    let alphabet = Arc::new(Alphabet::from_chars("ps"));
    let p = alphabet.sym("p");
    let s = alphabet.sym("s");
    let mut db = GraphBuilder::new(alphabet);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generations: Vec<Vec<NodeId>> = Vec::with_capacity(gens);
    for g in 0..gens {
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            let person = db.add_node();
            if g > 0 {
                let parent = generations[g - 1][rng.random_range(0..width)];
                db.add_edge(parent, p, person);
                if rng.random_bool(supervised) {
                    let supervisor = generations[g - 1][rng.random_range(0..width)];
                    // (person, s, supervisor): supervisor is person's
                    // PhD-supervisor.
                    db.add_edge(person, s, supervisor);
                }
            }
            layer.push(person);
        }
        generations.push(layer);
    }
    Genealogy {
        db: db.freeze(),
        generations,
    }
}

/// Figure 1 G1: pairs `(v1, v2)` where v1's child has been supervised by
/// v2's parent. With `(u,p,v)` = "u is parent of v" and `(u,s,v)` = "v is
/// u's supervisor", the chain is `v1 -p-> child -s-> sup -p-> v2`.
pub fn fig1_g1(alphabet: &mut Alphabet) -> Crpq {
    Crpq::build(
        &[("v1", "ps", "sup"), ("sup", "p", "v2")],
        &["v1", "v2"],
        alphabet,
    )
    .expect("static query")
}

/// Figure 1 G2: `v1 -(p⁺ ∨ s⁺)-> v2` — biological ancestor or academical
/// descendant.
pub fn fig1_g2(alphabet: &mut Alphabet) -> Crpq {
    Crpq::build(&[("v1", "p+|s+", "v2")], &["v1", "v2"], alphabet).expect("static query")
}

/// Figure 1 G3: persons with a biological ancestor that is also their
/// academical ancestor: `m -p+-> v1` and `v1 -s+-> m`.
pub fn fig1_g3(alphabet: &mut Alphabet) -> Crpq {
    Crpq::build(&[("m", "p+", "v1"), ("v1", "s+", "m")], &["v1"], alphabet).expect("static query")
}

/// Figure 1 G4: pairs `(v1, v2)` biologically and academically related:
/// a common biological ancestor and a common academic ancestor.
pub fn fig1_g4(alphabet: &mut Alphabet) -> Crpq {
    Crpq::build(
        &[
            ("b", "p+", "v1"),
            ("b", "p+", "v2"),
            ("v1", "s+", "m"),
            ("v2", "s+", "m"),
        ],
        &["v1", "v2"],
        alphabet,
    )
    .expect("static query")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_core::{CrpqEvaluator, Evaluate};

    #[test]
    fn generator_shapes() {
        let g = generate(4, 6, 0.8, 3);
        assert_eq!(g.generations.len(), 4);
        assert_eq!(g.db.node_count(), 24);
        // Every non-root has exactly one parent.
        let p = g.db.alphabet().sym("p");
        for layer in &g.generations[1..] {
            for &person in layer {
                let parents = g.db.in_edges(person).filter(|(l, _)| *l == p).count();
                assert_eq!(parents, 1);
            }
        }
    }

    #[test]
    fn g2_finds_ancestors() {
        let g = generate(3, 4, 0.5, 11);
        let mut alpha = g.db.alphabet().clone();
        let q = fig1_g2(&mut alpha);
        let ans = CrpqEvaluator::new(&q).answers(&g.db);
        // Every root-grandchild pair along parent chains must appear.
        let root = g.generations[0][0];
        let has_descendant = ans.iter().any(|t| t[0] == root);
        assert!(has_descendant);
    }

    #[test]
    fn hand_built_g1_matches() {
        // Deterministic miniature: r -p-> c, c -s-> sup, sup -p-> v2.
        let alphabet = Arc::new(Alphabet::from_chars("ps"));
        let p = alphabet.sym("p");
        let s = alphabet.sym("s");
        let mut db = GraphBuilder::new(alphabet);
        let v1 = db.add_node();
        let c = db.add_node();
        let sup = db.add_node();
        let v2 = db.add_node();
        db.add_edge(v1, p, c);
        db.add_edge(c, s, sup);
        db.add_edge(sup, p, v2);
        let db = db.freeze();
        let mut alpha = db.alphabet().clone();
        let q = fig1_g1(&mut alpha);
        let ans = CrpqEvaluator::new(&q).answers(&db);
        assert_eq!(ans, std::collections::BTreeSet::from([vec![v1, v2]]));
    }

    #[test]
    fn g3_detects_incestuous_lineage() {
        // m -p-> v1 and v1 -s-> m: the ancestor supervises the descendant.
        let alphabet = Arc::new(Alphabet::from_chars("ps"));
        let p = alphabet.sym("p");
        let s = alphabet.sym("s");
        let mut db = GraphBuilder::new(alphabet);
        let m = db.add_node();
        let v1 = db.add_node();
        db.add_edge(m, p, v1);
        db.add_edge(v1, s, m);
        let db = db.freeze();
        let mut alpha = db.alphabet().clone();
        let q = fig1_g3(&mut alpha);
        let ans = CrpqEvaluator::new(&q).answers(&db);
        assert!(ans.contains(&vec![v1]));
    }
}
