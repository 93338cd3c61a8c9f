//! Extended conjunctive regular path queries (ECRPQ) of Barceló et al. \[8\]
//! — the paper's main comparison class (§1.3, §7).
//!
//! An ECRPQ is a CRPQ plus regular relations `R_j(ω̄_j)` over tuples of the
//! matched paths. Evaluation is PSpace-complete in combined complexity and
//! NL-complete in data complexity; the engine here instantiates the shared
//! constraint solver with one synchronized group per relation.
//!
//! `ECRPQ^er` — only equality relations — is the fragment CXRPQ subsumes
//! (Lemma 12).

use crate::evaluate::{Evaluate, Outcome, Request};
use crate::governor::Governor;
use crate::pattern::{GraphPattern, NodeVar};
use crate::reach::ReachCache;
use crate::relation::RegularRelation;
use crate::solve::{run_solver, FreeEdge, Group, Problem, SolveOptions, SolverBacked};
use crate::sync::SyncSpec;
use crate::witness::{edge_path_governed, group_paths, morphism_of, QueryWitness};
use cxrpq_automata::{Nfa, Regex};
use cxrpq_graph::{GraphDb, NodeId};
use std::fmt;

/// Errors from assembling an ECRPQ.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EcrpqError {
    /// Relation arity does not match the number of edges it constrains.
    ArityMismatch,
    /// A relation references a nonexistent edge.
    BadEdgeIndex,
    /// An edge occurs in more than one relation (not supported by this
    /// engine; the paper's examples never need it).
    OverlappingRelations,
}

impl fmt::Display for EcrpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcrpqError::ArityMismatch => write!(f, "relation arity ≠ edge tuple length"),
            EcrpqError::BadEdgeIndex => write!(f, "relation references unknown edge"),
            EcrpqError::OverlappingRelations => {
                write!(f, "an edge may occur in at most one relation")
            }
        }
    }
}

impl std::error::Error for EcrpqError {}

/// An ECRPQ `z̄ ← G_q, ∧_j R_j(ω̄_j)`.
#[derive(Clone, Debug)]
pub struct Ecrpq {
    pattern: GraphPattern<Regex>,
    relations: Vec<(RegularRelation, Vec<usize>)>,
    output: Vec<NodeVar>,
}

impl Ecrpq {
    /// Validates and assembles the query.
    pub fn new(
        pattern: GraphPattern<Regex>,
        relations: Vec<(RegularRelation, Vec<usize>)>,
        output: Vec<NodeVar>,
    ) -> Result<Self, EcrpqError> {
        let m = pattern.edge_count();
        let mut used = vec![false; m];
        for (rel, edges) in &relations {
            if rel.arity() != edges.len() {
                return Err(EcrpqError::ArityMismatch);
            }
            for &e in edges {
                if e >= m {
                    return Err(EcrpqError::BadEdgeIndex);
                }
                if used[e] {
                    return Err(EcrpqError::OverlappingRelations);
                }
                used[e] = true;
            }
        }
        Ok(Self {
            pattern,
            relations,
            output,
        })
    }

    /// The graph pattern.
    pub fn pattern(&self) -> &GraphPattern<Regex> {
        &self.pattern
    }

    /// The relations with their edge tuples.
    pub fn relations(&self) -> &[(RegularRelation, Vec<usize>)] {
        &self.relations
    }

    /// The output tuple.
    pub fn output(&self) -> &[NodeVar] {
        &self.output
    }

    /// Whether every relation is an equality relation (`ECRPQ^er`),
    /// detected structurally ([`RegularRelation::is_equality`]).
    pub fn is_er(&self) -> bool {
        self.relations.iter().all(|(rel, _)| rel.is_equality())
    }

    /// Query size (nodes + regex sizes + relation states).
    pub fn size(&self) -> usize {
        self.pattern.node_count()
            + self
                .pattern
                .edges()
                .iter()
                .map(|(_, r, _)| r.size())
                .sum::<usize>()
            + self
                .relations
                .iter()
                .map(|(r, _)| r.state_count())
                .sum::<usize>()
    }
}

/// The ECRPQ evaluation engine.
pub struct EcrpqEvaluator<'q> {
    q: &'q Ecrpq,
}

impl<'q> EcrpqEvaluator<'q> {
    /// Creates the engine.
    pub fn new(q: &'q Ecrpq) -> Self {
        Self { q }
    }
}

impl SolverBacked for EcrpqEvaluator<'_> {
    fn problem(&self) -> Problem {
        let mut p = Problem::new(self.q.pattern.node_count());
        let mut in_relation = vec![false; self.q.pattern.edge_count()];
        for (rel, edges) in &self.q.relations {
            for &e in edges {
                in_relation[e] = true;
            }
            let nfas: Vec<Nfa> = edges
                .iter()
                .map(|&e| Nfa::from_regex(&self.q.pattern.edges()[e].1))
                .collect();
            let srcs: Vec<NodeVar> = edges.iter().map(|&e| self.q.pattern.edges()[e].0).collect();
            let dsts: Vec<NodeVar> = edges.iter().map(|&e| self.q.pattern.edges()[e].2).collect();
            p.groups.push(Group::new(
                srcs,
                dsts,
                SyncSpec {
                    nfas,
                    relation: rel.clone(),
                },
            ));
        }
        for (i, (src, re, dst)) in self.q.pattern.edges().iter().enumerate() {
            if !in_relation[i] {
                p.free_edges.push(FreeEdge {
                    src: *src,
                    dst: *dst,
                    cache: ReachCache::new(Nfa::from_regex(re)),
                });
            }
        }
        p
    }

    fn output(&self) -> &[NodeVar] {
        &self.q.output
    }

    /// One path per edge, with relation-constrained edges witnessed
    /// jointly so their labels satisfy the relation.
    fn assemble(&self, db: &GraphDb, b: &[Option<NodeId>], gov: &Governor) -> Option<QueryWitness> {
        let node = |v: NodeVar| b[v.index()].expect("required variables are bound");
        let m = self.q.pattern.edge_count();
        let mut paths: Vec<Option<cxrpq_graph::Path>> = vec![None; m];
        for (rel, edges) in &self.q.relations {
            let spec = SyncSpec {
                nfas: edges
                    .iter()
                    .map(|&e| Nfa::from_regex(&self.q.pattern.edges()[e].1))
                    .collect(),
                relation: rel.clone(),
            };
            let starts: Vec<NodeId> = edges
                .iter()
                .map(|&e| node(self.q.pattern.edges()[e].0))
                .collect();
            let ends: Vec<NodeId> = edges
                .iter()
                .map(|&e| node(self.q.pattern.edges()[e].2))
                .collect();
            let group = group_paths(db, &spec, &starts, &ends, gov)?;
            for (&e, path) in edges.iter().zip(group) {
                paths[e] = Some(path);
            }
        }
        for (i, (src, re, dst)) in self.q.pattern.edges().iter().enumerate() {
            if paths[i].is_none() {
                let nfa = Nfa::from_regex(re);
                paths[i] = Some(edge_path_governed(db, &nfa, node(*src), node(*dst), gov)?);
            }
        }
        Some(QueryWitness {
            morphism: morphism_of(&self.q.pattern, b),
            paths: paths.into_iter().map(Option::unwrap).collect(),
            images: Vec::new(),
        })
    }
}

impl Evaluate for EcrpqEvaluator<'_> {
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome {
        run_solver(self, db, req, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    /// Builds the Figure 6 query q_{aⁿbⁿ}: x -c-> y1 -a*-> y2 -c-> z and
    /// x' -d-> y1' -b*-> y2' -d-> z' with |a-path| = |b-path|.
    fn q_anbn(alpha: &mut Alphabet) -> Ecrpq {
        let mut pattern = GraphPattern::new();
        let nodes = ["x", "y1", "y2", "z", "x2", "y12", "y22", "z2"];
        for n in nodes {
            pattern.node(n);
        }
        let nv = |p: &GraphPattern<Regex>, n: &str| p.node_var(n).unwrap();
        let re = |alpha: &mut Alphabet, s: &str| parse_regex(s, alpha).unwrap();
        let edges = [
            ("x", "c", "y1"),
            ("y1", "a*", "y2"), // edge 1
            ("y2", "c", "z"),
            ("x2", "d", "y12"),
            ("y12", "b*", "y22"), // edge 4
            ("y22", "d", "z2"),
        ];
        for (s, l, d) in edges {
            let r = re(alpha, l);
            let sv = pattern.node(s);
            let dv = pattern.node(d);
            pattern.add_edge(sv, r, dv);
        }
        let _ = nv;
        Ecrpq::new(
            pattern,
            vec![(RegularRelation::equal_length(2), vec![1, 4])],
            vec![],
        )
        .unwrap()
    }

    /// A database with a `c aⁿ c` path and a `d bᵐ d` path.
    fn d_nm(n: usize, m: usize) -> GraphDb {
        let alpha = Arc::new(Alphabet::from_chars("abcd"));
        let mut db = GraphBuilder::new(alpha);
        let c = db.alphabet().sym("c");
        let d = db.alphabet().sym("d");
        let a = db.alphabet().sym("a");
        let b = db.alphabet().sym("b");
        let mut prev = db.add_node();
        let mut next = db.add_node();
        db.add_edge(prev, c, next);
        prev = next;
        for _ in 0..n {
            next = db.add_node();
            db.add_edge(prev, a, next);
            prev = next;
        }
        next = db.add_node();
        db.add_edge(prev, c, next);
        let mut prev2 = db.add_node();
        let mut next2 = db.add_node();
        db.add_edge(prev2, d, next2);
        prev2 = next2;
        for _ in 0..m {
            next2 = db.add_node();
            db.add_edge(prev2, b, next2);
            prev2 = next2;
        }
        next2 = db.add_node();
        db.add_edge(prev2, d, next2);
        db.freeze()
    }

    #[test]
    fn q_anbn_requires_equal_lengths() {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = q_anbn(&mut alpha);
        assert!(!q.is_er());
        let ev = EcrpqEvaluator::new(&q);
        assert!(ev.boolean(&d_nm(3, 3)));
        assert!(ev.boolean(&d_nm(0, 0)));
        assert!(!ev.boolean(&d_nm(3, 2)));
        assert!(!ev.boolean(&d_nm(1, 4)));
    }

    #[test]
    fn equality_relation_query() {
        // Two (a|b)* edges from shared source, equal words → same target
        // word; build D where the only equal pair is planted.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t1 = db.add_node();
        let t2 = db.add_node();
        let ab = db.alphabet().parse_word("ab").unwrap();
        let ba = db.alphabet().parse_word("ba").unwrap();
        db.add_word_path(s, &ab, t1);
        db.add_word_path(s, &ba, t2);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let mut pattern = GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let z = pattern.node("z");
        let r1 = parse_regex("(a|b)+", &mut alpha2).unwrap();
        let r2 = parse_regex("(a|b)+", &mut alpha2).unwrap();
        pattern.add_edge(x, r1, y);
        pattern.add_edge(x, r2, z);
        let q = Ecrpq::new(
            pattern,
            vec![(RegularRelation::equality(2), vec![0, 1])],
            vec![x, y, z],
        )
        .unwrap();
        assert!(q.is_er());
        let ans = EcrpqEvaluator::new(&q).answers(&db);
        assert!(ans.contains(&vec![s, t1, t1]));
        assert!(ans.contains(&vec![s, t2, t2]));
        assert!(!ans.contains(&vec![s, t1, t2]));
    }

    #[test]
    fn prefix_relation_query() {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t1 = db.add_node();
        let t2 = db.add_node();
        let ab = db.alphabet().parse_word("ab").unwrap();
        let abba = db.alphabet().parse_word("abba").unwrap();
        db.add_word_path(s, &ab, t1);
        db.add_word_path(s, &abba, t2);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let mut pattern = GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let z = pattern.node("z");
        let r1 = parse_regex("(a|b)+", &mut alpha2).unwrap();
        let r2 = parse_regex("(a|b)+", &mut alpha2).unwrap();
        pattern.add_edge(x, r1, y);
        pattern.add_edge(x, r2, z);
        let q = Ecrpq::new(
            pattern,
            vec![(RegularRelation::prefix(), vec![0, 1])],
            vec![y, z],
        )
        .unwrap();
        let ans = EcrpqEvaluator::new(&q).answers(&db);
        assert!(ans.contains(&vec![t1, t2])); // ab prefix of abba
        assert!(!ans.contains(&vec![t2, t1]));
    }

    #[test]
    fn hamming_relation_query_finds_near_duplicates() {
        // Two branches ab / aa from s: within Hamming distance 1 of each
        // other, but not equal — the approximate-equality ECRPQ accepts the
        // mixed pair, the exact-equality one does not.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t1 = db.add_node();
        let t2 = db.add_node();
        let ab = db.alphabet().parse_word("ab").unwrap();
        let aa = db.alphabet().parse_word("aa").unwrap();
        db.add_word_path(s, &ab, t1);
        db.add_word_path(s, &aa, t2);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let build = |alpha: &mut Alphabet, rel: RegularRelation| {
            let mut pattern = GraphPattern::new();
            let x = pattern.node("x");
            let y = pattern.node("y");
            let z = pattern.node("z");
            let r1 = parse_regex("(a|b)+", alpha).unwrap();
            let r2 = parse_regex("(a|b)+", alpha).unwrap();
            pattern.add_edge(x, r1, y);
            pattern.add_edge(x, r2, z);
            Ecrpq::new(pattern, vec![(rel, vec![0, 1])], vec![y, z]).unwrap()
        };
        let approx = build(&mut alpha2, RegularRelation::hamming_leq(1));
        let exact = build(&mut alpha2, RegularRelation::equality(2));
        let approx_ans = EcrpqEvaluator::new(&approx).answers(&db);
        let exact_ans = EcrpqEvaluator::new(&exact).answers(&db);
        assert!(approx_ans.contains(&vec![t1, t2]));
        assert!(!exact_ans.contains(&vec![t1, t2]));
        // Exact answers are a subset of approximate ones (d_H = 0 ⊆ d_H ≤ 1).
        assert!(exact_ans.is_subset(&approx_ans));
        // Witness paths differ in exactly one position.
        let w = EcrpqEvaluator::new(&approx)
            .witness_for(&db, &[t1, t2])
            .unwrap();
        let (w1, w2) = (w.paths[0].label(), w.paths[1].label());
        assert_eq!(w1.len(), w2.len());
        let dist = w1.iter().zip(w2).filter(|(a, b)| a != b).count();
        assert_eq!(dist, 1);
    }

    #[test]
    fn validation_rejects_overlap() {
        let mut alpha = Alphabet::from_chars("ab");
        let mut pattern = GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let r = parse_regex("a", &mut alpha).unwrap();
        pattern.add_edge(x, r, y);
        assert!(matches!(
            Ecrpq::new(
                pattern.clone(),
                vec![
                    (RegularRelation::equality(1), vec![0]),
                    (RegularRelation::equal_length(1), vec![0])
                ],
                vec![],
            ),
            Err(EcrpqError::OverlappingRelations)
        ));
        assert!(matches!(
            Ecrpq::new(
                pattern.clone(),
                vec![(RegularRelation::equality(2), vec![0])],
                vec![],
            ),
            Err(EcrpqError::ArityMismatch)
        ));
        assert!(matches!(
            Ecrpq::new(
                pattern,
                vec![(RegularRelation::equality(1), vec![5])],
                vec![],
            ),
            Err(EcrpqError::BadEdgeIndex)
        ));
    }
}
