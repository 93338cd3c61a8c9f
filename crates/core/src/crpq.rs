//! Conjunctive regular path queries (CRPQ) — the paper's baseline class
//! (§2.3, Lemma 1: NP-complete combined / NL-complete data complexity).

use crate::evaluate::{Evaluate, Outcome, Request};
use crate::governor::Governor;
use crate::pattern::{GraphPattern, NodeVar};
use crate::reach::ReachCache;
use crate::solve::{run_solver, FreeEdge, Problem, SolveOptions, SolverBacked};
use crate::witness::{edge_path_governed, morphism_of, QueryWitness};
use cxrpq_automata::{parse_regex, Nfa, ParseError, Regex};
use cxrpq_graph::{Alphabet, GraphDb, NodeId};

/// A CRPQ `z̄ ← G_q` with classical regular expressions as edge labels.
#[derive(Clone, Debug)]
pub struct Crpq {
    pattern: GraphPattern<Regex>,
    output: Vec<NodeVar>,
}

impl Crpq {
    /// Wraps a pattern and output tuple.
    pub fn new(pattern: GraphPattern<Regex>, output: Vec<NodeVar>) -> Self {
        Self { pattern, output }
    }

    /// Builds a CRPQ from `(src, regex, dst)` string triples plus output
    /// node names. Symbols are interned into `alphabet`.
    pub fn build(
        edges: &[(&str, &str, &str)],
        output: &[&str],
        alphabet: &mut Alphabet,
    ) -> Result<Self, ParseError> {
        let mut pattern = GraphPattern::new();
        for (src, re, dst) in edges {
            let s = pattern.node(src);
            let d = pattern.node(dst);
            let r = parse_regex(re, alphabet)?;
            pattern.add_edge(s, r, d);
        }
        let output = output
            .iter()
            .map(|n| {
                pattern.node_var(n).unwrap_or_else(|| {
                    panic!("output variable {n:?} does not occur in the pattern")
                })
            })
            .collect();
        Ok(Self { pattern, output })
    }

    /// The graph pattern.
    pub fn pattern(&self) -> &GraphPattern<Regex> {
        &self.pattern
    }

    /// The output tuple `z̄` (empty for Boolean queries).
    pub fn output(&self) -> &[NodeVar] {
        &self.output
    }

    /// Whether the query is Boolean.
    pub fn is_boolean(&self) -> bool {
        self.output.is_empty()
    }

    /// Query size `|q|` (pattern nodes + total regex size).
    pub fn size(&self) -> usize {
        self.pattern.node_count()
            + self
                .pattern
                .edges()
                .iter()
                .map(|(_, r, _)| r.size())
                .sum::<usize>()
    }

    /// Quick syntactic emptiness: some edge label denotes ∅.
    pub fn has_empty_edge(&self) -> bool {
        self.pattern
            .edges()
            .iter()
            .any(|(_, r, _)| r.is_empty_lang())
    }
}

/// Evaluator for CRPQs: one reachability cache per edge + conjunctive join.
///
/// Answers every [`Request`] through the shared solver driver; the answer
/// relation uses projection pushdown (variables outside the output tuple
/// are existentially eliminated and each projected tuple is emitted once).
pub struct CrpqEvaluator<'q> {
    q: &'q Crpq,
}

impl<'q> CrpqEvaluator<'q> {
    /// Creates the evaluator.
    pub fn new(q: &'q Crpq) -> Self {
        Self { q }
    }
}

impl SolverBacked for CrpqEvaluator<'_> {
    fn problem(&self) -> Problem {
        let mut p = Problem::new(self.q.pattern.node_count());
        for (src, re, dst) in self.q.pattern.edges() {
            p.free_edges.push(FreeEdge {
                src: *src,
                dst: *dst,
                cache: ReachCache::new(Nfa::from_regex(re)),
            });
        }
        p
    }

    fn output(&self) -> &[NodeVar] {
        &self.q.output
    }

    /// The morphism plus one witnessing path per edge (§8's
    /// path-extraction extension).
    fn assemble(&self, db: &GraphDb, b: &[Option<NodeId>], gov: &Governor) -> Option<QueryWitness> {
        let node = |v: NodeVar| b[v.index()].expect("required variables are bound");
        let mut paths = Vec::with_capacity(self.q.pattern.edge_count());
        for (src, re, dst) in self.q.pattern.edges() {
            let nfa = Nfa::from_regex(re);
            paths.push(edge_path_governed(db, &nfa, node(*src), node(*dst), gov)?);
        }
        Some(QueryWitness {
            morphism: morphism_of(&self.q.pattern, b),
            paths,
            images: Vec::new(),
        })
    }
}

impl Evaluate for CrpqEvaluator<'_> {
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome {
        run_solver(self, db, req, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_graph::GraphBuilder;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The genealogy example of Figure 1: p = parent, s = supervisor.
    fn family_db() -> (GraphDb, Vec<NodeId>) {
        let alpha = Arc::new(Alphabet::from_chars("ps"));
        let mut db = GraphBuilder::new(alpha);
        let p = db.alphabet().sym("p");
        let s = db.alphabet().sym("s");
        // 0 -p-> 1 -p-> 2 (grandchild chain), 1 -s-> 3, 3 -p-> 4.
        let n: Vec<NodeId> = (0..5).map(|_| db.add_node()).collect();
        db.add_edge(n[0], p, n[1]);
        db.add_edge(n[1], p, n[2]);
        db.add_edge(n[1], s, n[3]);
        db.add_edge(n[3], p, n[4]);
        (db.freeze(), n)
    }

    #[test]
    fn figure_1_g1_psp() {
        // G1: v1 -p-> · -s-> · with p again: pairs (v1, v2) where v1's child
        // was supervised by v2's parent — expressed as v1 -psp̄…: here we use
        // the chain query v1 -ps-> w, v2 -p-> w.
        let (db, n) = family_db();
        let mut alpha = db.alphabet().clone();
        // v1 -ps-> w (v1's child's supervisor) and w -p-> v2 (w is v2's
        // parent): pairs (v1, v2) where v1's child was supervised by v2's
        // parent.
        let q = Crpq::build(
            &[("v1", "ps", "w"), ("w", "p", "v2")],
            &["v1", "v2"],
            &mut alpha,
        )
        .unwrap();
        let ans = CrpqEvaluator::new(&q).answers(&db);
        assert!(ans.contains(&vec![n[0], n[4]]));
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn boolean_and_check() {
        let (db, n) = family_db();
        let mut alpha = db.alphabet().clone();
        let q = Crpq::build(&[("x", "p+", "y")], &["x", "y"], &mut alpha).unwrap();
        let ev = CrpqEvaluator::new(&q);
        assert!(ev.boolean(&db));
        assert!(ev.check(&db, &[n[0], n[2]]));
        assert!(!ev.check(&db, &[n[2], n[0]]));
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![n[0], n[2]]));
        assert!(ans.contains(&vec![n[3], n[4]]));
    }

    #[test]
    fn empty_edge_never_matches() {
        let (db, _) = family_db();
        let mut alpha = db.alphabet().clone();
        let q = Crpq::build(&[("x", "!", "y")], &[], &mut alpha).unwrap();
        assert!(!CrpqEvaluator::new(&q).boolean(&db));
    }

    #[test]
    fn epsilon_edge_forces_equality() {
        let (db, n) = family_db();
        let mut alpha = db.alphabet().clone();
        let q = Crpq::build(
            &[("x", "p", "y"), ("y", "_", "z"), ("z", "s", "w")],
            &["x", "w"],
            &mut alpha,
        )
        .unwrap();
        let ans = CrpqEvaluator::new(&q).answers(&db);
        assert_eq!(ans, BTreeSet::from([vec![n[0], n[3]]]));
    }

    #[test]
    fn cyclic_pattern() {
        // Figure 1 G3-style: v1 -p+-> m and v1 -s+-> m (a biological
        // ancestor that is also an academic ancestor — here we test the
        // shape on a small graph where it fails).
        let (db, _) = family_db();
        let mut alpha = db.alphabet().clone();
        let q = Crpq::build(&[("v1", "p+", "m"), ("v1", "s+", "m")], &[], &mut alpha).unwrap();
        assert!(!CrpqEvaluator::new(&q).boolean(&db));
    }

    #[test]
    fn stats_reported() {
        let (db, _) = family_db();
        let mut alpha = db.alphabet().clone();
        let q = Crpq::build(&[("x", "p+", "y")], &[], &mut alpha).unwrap();
        let out = CrpqEvaluator::new(&q).run(&db, Request::Boolean, &SolveOptions::early_exit());
        assert!(out.value.into_bool());
        assert!(out.states > 0);
    }
}
