//! The paper's hardness reductions, as executable instance builders with
//! brute-force baselines:
//!
//! - Theorem 1: NFA-intersection → single-edge CXRPQ with
//!   `α_ni = # z{(a|b)*} (## z)* ###` (PSpace-hardness in data complexity);
//! - Theorem 3: the vstar-free variant `α^k_ni` with `(## z)^{k-1}` spelled
//!   out (PSpace-hardness in combined complexity);
//! - Theorem 7 / Figure 4: Hitting Set → single-edge `CXRPQ^{≤1}` with a
//!   simple xregex over Σ = {a, b, #} (NP-hardness in combined complexity);
//! - Theorem 3/7: graph reachability → CRPQ `a b* a a` (NL-hardness in data
//!   complexity).

use cxrpq_automata::{Label, Nfa, StateId};
use cxrpq_core::{Crpq, Cxrpq, CxrpqBuilder};
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use cxrpq_xregex::{ConjunctiveXregex, VarTable, Xregex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Theorem 1 / Theorem 3: NFA intersection
// ---------------------------------------------------------------------

/// An NFA-intersection instance over {a, b}: ε-free automata with a single
/// final state each (as assumed in the Theorem 1 proof).
pub struct NfaIntersection {
    /// The automata `M₁, …, M_k`.
    pub nfas: Vec<Nfa>,
}

impl NfaIntersection {
    /// Ground truth: is `⋂ᵢ L(Mᵢ)` non-empty? Computed directly on the
    /// product automaton.
    pub fn intersection_nonempty(&self) -> bool {
        !Nfa::intersect_all(&self.nfas).is_empty()
    }

    /// A shortest common word, when one exists.
    pub fn shortest_witness(&self) -> Option<Vec<Symbol>> {
        Nfa::intersect_all(&self.nfas).shortest_word(2)
    }
}

/// Generates `k` random ε-free NFAs over {a, b} with `states` states each.
/// Transition density is tuned so intersections are non-trivially often
/// non-empty.
pub fn random_nfa_intersection(k: usize, states: usize, seed: u64) -> NfaIntersection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nfas = Vec::with_capacity(k);
    for _ in 0..k {
        let mut m = Nfa::with_states(states);
        // Single final state: the last one.
        m.set_final(StateId(states as u32 - 1), true);
        let transitions = (states as f64 * 2.5) as usize;
        for _ in 0..transitions {
            let from = StateId(rng.random_range(0..states as u32));
            let to = StateId(rng.random_range(0..states as u32));
            let sym = Symbol(rng.random_range(0..2));
            m.add_transition(from, Label::Sym(sym), to);
        }
        nfas.push(m);
    }
    NfaIntersection { nfas }
}

/// The Theorem 1 graph database: state graphs of all `Mᵢ` chained with
/// `#`/`##`/`###` connector paths from `s` to `t`. Returns `(D, s, t)`.
///
/// The alphabet is Δ = {a, b, #}.
pub fn theorem1_database(inst: &NfaIntersection) -> (GraphDb, NodeId, NodeId) {
    let alphabet = Arc::new(Alphabet::from_chars("ab#"));
    let hash = alphabet.sym("#");
    let mut db = GraphBuilder::new(alphabet);
    let s = db.add_named_node("s");
    let t = db.add_named_node("t");
    let mut starts = Vec::new();
    let mut finals = Vec::new();
    for m in &inst.nfas {
        let base: Vec<NodeId> = (0..m.state_count()).map(|_| db.add_node()).collect();
        for st in m.states() {
            for &(l, to) in m.transitions(st) {
                match l {
                    Label::Sym(a) => {
                        db.add_edge(base[st.index()], a, base[to.index()]);
                    }
                    Label::Eps | Label::Any => {
                        panic!("Theorem 1 reduction requires ε-free symbol NFAs")
                    }
                }
            }
        }
        starts.push(base[m.start().index()]);
        let f = m
            .final_states()
            .next()
            .expect("single final state by construction");
        finals.push(base[f.index()]);
    }
    db.add_word_path(s, &[hash], starts[0]);
    for i in 0..inst.nfas.len() - 1 {
        db.add_word_path(finals[i], &[hash, hash], starts[i + 1]);
    }
    db.add_word_path(finals[inst.nfas.len() - 1], &[hash, hash, hash], t);
    (db.freeze(), s, t)
}

/// The Theorem 1 query: the single-edge CXRPQ with
/// `α_ni = # z{(a|b)*} (## z)* ###` (a *fixed* query — the hardness is in
/// data complexity).
///
/// Output = (x, y): the paper treats the `##`/`###` connectors as atomic
/// arcs, which our databases realize as length-2/3 paths; checking the
/// tuple `(s, t)` (rather than Boolean evaluation) excludes paths that
/// start at a connector midpoint, exactly matching the proof's "path from
/// s to t" argument.
pub fn alpha_ni(alphabet: &mut Alphabet) -> Cxrpq {
    CxrpqBuilder::new(alphabet)
        .edge("x", "#z{(a|b)*}(##z)*###", "y")
        .output(&["x", "y"])
        .build()
        .expect("static query")
}

/// The Theorem 3 query `α^k_ni`: `(## z)^{k-1}` spelled out — vstar-free,
/// size Θ(k).
pub fn alpha_kni(k: usize, alphabet: &mut Alphabet) -> Cxrpq {
    assert!(k >= 1);
    let mut label = String::from("#z{(a|b)*}");
    for _ in 0..k - 1 {
        label.push_str("##z");
    }
    label.push_str("###");
    CxrpqBuilder::new(alphabet)
        .edge("x", &label, "y")
        .output(&["x", "y"])
        .build()
        .expect("static query")
}

// ---------------------------------------------------------------------
// Theorem 7 / Figure 4: Hitting Set
// ---------------------------------------------------------------------

/// A Hitting Set instance: sets `A₁, …, A_m ⊆ U = {0, …, n-1}`, bound `k`.
#[derive(Clone, Debug)]
pub struct HittingSet {
    /// Universe size n.
    pub universe: usize,
    /// The subsets to hit.
    pub sets: Vec<Vec<usize>>,
    /// Maximum hitting-set size.
    pub k: usize,
}

impl HittingSet {
    /// Brute force: does a hitting set of size ≤ k exist?
    pub fn brute_force(&self) -> bool {
        fn rec(hs: &HittingSet, chosen: &mut Vec<usize>, next: usize) -> bool {
            if hs.sets.iter().all(|s| s.iter().any(|z| chosen.contains(z))) {
                return true;
            }
            if chosen.len() == hs.k || next == hs.universe {
                return false;
            }
            for z in next..hs.universe {
                chosen.push(z);
                if rec(hs, chosen, z + 1) {
                    return true;
                }
                chosen.pop();
            }
            false
        }
        rec(self, &mut Vec::new(), 0)
    }
}

/// Generates a random Hitting Set instance.
pub fn random_hitting_set(
    universe: usize,
    sets: usize,
    set_size: usize,
    k: usize,
    seed: u64,
) -> HittingSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets = (0..sets)
        .map(|_| {
            let mut s: Vec<usize> = Vec::new();
            while s.len() < set_size.min(universe) {
                let z = rng.random_range(0..universe);
                if !s.contains(&z) {
                    s.push(z);
                }
            }
            s
        })
        .collect();
    HittingSet { universe, sets, k }
}

/// The Theorem 7 reduction: database (Figure 4) and Boolean single-edge
/// `CXRPQ^{≤1}` query, over Σ = {a, b, #} with `⟨zᵢ⟩ = b aⁱ⁺¹ b`.
///
/// `D ⊨_{≤1} q` iff the instance has a hitting set of size ≤ k.
pub fn theorem7_reduction(inst: &HittingSet) -> (GraphDb, Cxrpq) {
    let alphabet = Arc::new(Alphabet::from_chars("ab#"));
    let a = alphabet.sym("a");
    let b = alphabet.sym("b");
    let hash = alphabet.sym("#");
    let encode = |z: usize| -> Vec<Symbol> {
        let mut w = vec![b];
        w.extend(std::iter::repeat_n(a, z + 1));
        w.push(b);
        w
    };
    let mut db = GraphBuilder::new(alphabet);
    let s = db.add_named_node("s");
    let u: Vec<NodeId> = (0..=inst.k)
        .map(|i| db.add_named_node(&format!("u{i}")))
        .collect();
    let v: Vec<NodeId> = (0..=inst.sets.len())
        .map(|i| db.add_named_node(&format!("v{i}")))
        .collect();
    let t = db.add_named_node("t");
    db.add_edge(s, hash, u[0]);
    for i in 1..=inst.k {
        for z in 0..inst.universe {
            db.add_word_path(u[i - 1], &encode(z), u[i]);
        }
    }
    db.add_edge(u[inst.k], hash, v[0]);
    for (i, set) in inst.sets.iter().enumerate() {
        for &z in set {
            db.add_word_path(v[i], &encode(z), v[i + 1]);
        }
    }
    for vi in &v {
        for z in 0..inst.universe {
            db.add_word_path(*vi, &encode(z), *vi);
        }
    }
    db.add_edge(v[inst.sets.len()], hash, t);

    // α = # Π xᵢ{a|b|ε} # (Π xᵢ)^m #  with (n+2)·k variables.
    let nvars = (inst.universe + 2) * inst.k;
    let mut vars = VarTable::new();
    let xs: Vec<_> = (0..nvars).map(|i| vars.intern(&format!("x{i}"))).collect();
    let abeps = Xregex::alt(vec![Xregex::Sym(a), Xregex::Sym(b), Xregex::Epsilon]);
    let mut parts = vec![Xregex::Sym(hash)];
    for &x in &xs {
        parts.push(Xregex::def(x, abeps.clone()));
    }
    parts.push(Xregex::Sym(hash));
    for _ in 0..inst.sets.len() {
        for &x in &xs {
            parts.push(Xregex::VarRef(x));
        }
    }
    parts.push(Xregex::Sym(hash));
    let comp = Xregex::concat(parts);
    let cxre = ConjunctiveXregex::new(vec![comp], vars).expect("valid by construction");
    let mut pattern = cxrpq_core::GraphPattern::new();
    let x = pattern.node("x");
    let y = pattern.node("y");
    pattern.add_edge(x, 0usize, y);
    let q = Cxrpq::from_parts(pattern, cxre, vec![]);
    (db.freeze(), q)
}

// ---------------------------------------------------------------------
// NL-hardness: reachability
// ---------------------------------------------------------------------

/// The Theorem 3/7 NL-hardness gadget: an unlabelled digraph (edge list
/// over `0..n`) plus `s`/`t` becomes a database over {a, b} where `s′ →* t″`
/// via `a b* a a` iff `t` is reachable from `s`. Returns `(D, query)`.
pub fn reachability_reduction(
    n: usize,
    edges: &[(usize, usize)],
    s: usize,
    t: usize,
    alphabet_out: &mut Alphabet,
) -> (GraphDb, Crpq) {
    let alphabet = Arc::new(Alphabet::from_chars("ab"));
    let a = alphabet.sym("a");
    let b = alphabet.sym("b");
    let mut db = GraphBuilder::new(alphabet);
    let base: Vec<NodeId> = (0..n).map(|_| db.add_node()).collect();
    for &(u, v) in edges {
        db.add_edge(base[u], b, base[v]);
    }
    let sp = db.add_named_node("s'");
    let tp = db.add_named_node("t'");
    let tpp = db.add_named_node("t''");
    db.add_edge(sp, a, base[s]);
    db.add_edge(base[t], a, tp);
    db.add_edge(tp, a, tpp);
    let q = Crpq::build(&[("x", "ab*aa", "z")], &[], alphabet_out).expect("static query");
    (db.freeze(), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_core::{
        BoundedEvaluator, CrpqEvaluator, Evaluate, GenericEvaluator, GenericOutcome, VsfEvaluator,
    };

    #[test]
    fn theorem1_reduction_correct_on_random_instances() {
        for seed in 0..12u64 {
            let inst = random_nfa_intersection(2, 3, seed);
            let (db, s, t) = theorem1_database(&inst);
            let mut alpha = db.alphabet().clone();
            let q = alpha_ni(&mut alpha);
            let expected = inst.intersection_nonempty();
            // Witness length bounds the needed image size.
            let cap = inst.shortest_witness().map(|w| w.len()).unwrap_or(6).max(1);
            let outcome = GenericEvaluator::new(&q, cap).check(&db, &[s, t]);
            let got = matches!(outcome, GenericOutcome::Match { .. });
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn theorem3_reduction_correct() {
        for seed in [1u64, 3, 5, 8] {
            let inst = random_nfa_intersection(2, 3, seed);
            let (db, s, t) = theorem1_database(&inst);
            let mut alpha = db.alphabet().clone();
            let q = alpha_kni(2, &mut alpha);
            assert_ne!(q.fragment(), cxrpq_xregex::Fragment::General);
            let expected = inst.intersection_nonempty();
            // α^k_ni is vstar-free: the Lemma 7 engine evaluates it exactly,
            // with unbounded variable images.
            let got = VsfEvaluator::new(&q).unwrap().check(&db, &[s, t]);
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn hitting_set_reduction_positive_and_negative() {
        // {0,1}, {1,2} with k = 1: z = 1 hits both.
        let yes = HittingSet {
            universe: 3,
            sets: vec![vec![0, 1], vec![1, 2]],
            k: 1,
        };
        assert!(yes.brute_force());
        let (db, q) = theorem7_reduction(&yes);
        assert!(BoundedEvaluator::new(&q, 1).boolean(&db));

        // {0}, {1} with k = 1: impossible.
        let no = HittingSet {
            universe: 2,
            sets: vec![vec![0], vec![1]],
            k: 1,
        };
        assert!(!no.brute_force());
        let (db2, q2) = theorem7_reduction(&no);
        assert!(!BoundedEvaluator::new(&q2, 1).boolean(&db2));
    }

    #[test]
    fn hitting_set_reduction_random_agreement() {
        for seed in 0..6u64 {
            let inst = random_hitting_set(3, 2, 2, 1, seed);
            let (db, q) = theorem7_reduction(&inst);
            assert_eq!(
                BoundedEvaluator::new(&q, 1).boolean(&db),
                inst.brute_force(),
                "seed {seed}: {inst:?}"
            );
        }
    }

    #[test]
    fn reachability_reduction_correct() {
        let mut alpha = Alphabet::new();
        // 0 → 1 → 2, 3 isolated.
        let (db, q) = reachability_reduction(4, &[(0, 1), (1, 2)], 0, 2, &mut alpha);
        assert!(CrpqEvaluator::new(&q).boolean(&db));
        let mut alpha2 = Alphabet::new();
        let (db2, q2) = reachability_reduction(4, &[(0, 1), (1, 2)], 3, 0, &mut alpha2);
        assert!(!CrpqEvaluator::new(&q2).boolean(&db2));
    }

    #[test]
    fn theorem1_query_is_fixed_size() {
        let mut a1 = Alphabet::from_chars("ab#");
        let mut a2 = Alphabet::from_chars("ab#");
        let q = alpha_ni(&mut a1);
        let q3 = alpha_kni(4, &mut a2);
        assert!(q.size() < q3.size());
        // α^k_ni grows linearly in k.
        let mut a3 = Alphabet::from_chars("ab#");
        let q8 = alpha_kni(8, &mut a3);
        assert!(q8.size() > q3.size());
    }
}
