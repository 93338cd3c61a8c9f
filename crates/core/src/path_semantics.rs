//! RPQ evaluation under alternative path semantics.
//!
//! The paper evaluates queries under *arbitrary* path semantics (walks),
//! and its introduction points to the line of work on simple-path and trail
//! semantics \[34, 36, 35\] where "such semantics make the evaluation of
//! RPQs much more difficult": arbitrary-path RPQs are NL, while simple-path
//! and trail evaluation are NP-complete in general. This module implements
//! all three for single-edge queries (RPQs), so the engines' default
//! semantics can be contrasted experimentally with the restricted ones.
//!
//! - [`PathSemantics::Arbitrary`]: product BFS (polynomial; the default
//!   everywhere else in this crate);
//! - [`PathSemantics::SimplePath`]: no repeated *node* — backtracking over
//!   the product, worst-case exponential (NP-hard in general);
//! - [`PathSemantics::Trail`]: no repeated *edge* — same search over edge
//!   sets.

use crate::governor::Governor;
use crate::reach::{reach_row, visited_bytes, Direction};
use crate::witness::edge_path_governed;
use cxrpq_automata::{Label, Nfa, StateId};
use cxrpq_graph::{GraphDb, NodeId, Path, Symbol};
use std::collections::BTreeSet;

/// Which paths count as matches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathSemantics {
    /// Any walk (nodes and edges may repeat) — the paper's semantics.
    Arbitrary,
    /// Paths with pairwise-distinct nodes.
    SimplePath,
    /// Paths with pairwise-distinct edges.
    Trail,
}

/// Is there a path `from →* to` labelled by a word of `L(nfa)` under the
/// given semantics?
pub fn rpq_holds(db: &GraphDb, nfa: &Nfa, from: NodeId, to: NodeId, sem: PathSemantics) -> bool {
    rpq_witness(db, nfa, from, to, sem).is_some()
}

/// A witnessing path, if any.
pub fn rpq_witness(
    db: &GraphDb,
    nfa: &Nfa,
    from: NodeId,
    to: NodeId,
    sem: PathSemantics,
) -> Option<Path> {
    rpq_witness_governed(db, nfa, from, to, sem, Governor::disabled())
}

/// [`rpq_witness`] under a [`Governor`]: the arbitrary-semantics BFS and
/// the restricted backtracking search both checkpoint per expanded node;
/// an abort yields `None` (sound failure — the search never fabricates a
/// path) and the reason is readable from the governor's verdict.
pub fn rpq_witness_governed(
    db: &GraphDb,
    nfa: &Nfa,
    from: NodeId,
    to: NodeId,
    sem: PathSemantics,
    gov: &Governor,
) -> Option<Path> {
    match sem {
        PathSemantics::Arbitrary => edge_path_governed(db, nfa, from, to, gov),
        PathSemantics::SimplePath | PathSemantics::Trail => {
            let mut search = RestrictedSearch {
                db,
                nfa,
                to,
                sem,
                gov,
                visited_nodes: vec![false; db.node_count()],
                used_edges: BTreeSet::new(),
                path: Path::trivial(from),
            };
            search.visited_nodes[from.index()] = true;
            let start_states = nfa.eps_closure_of(nfa.start());
            for s in start_states {
                if search.dfs(from, s) {
                    return Some(search.path);
                }
            }
            None
        }
    }
}

/// All pairs `(u, v)` connected under the semantics.
///
/// Arbitrary semantics runs one product BFS over `D × M` per source
/// ([`reach_set_governed`](crate::reach::reach_set_governed)) on the
/// thread's search scratch, so the sweep costs `O(|V| · |D| · |M|)` and
/// allocates nothing per source but its row; the governor is charged for
/// the BFS's visited set once per sweep. Each row is read once, so no [`ReachCache`](crate::reach::ReachCache)
/// memo holds them. The restricted semantics stay a quadratic sweep
/// (exponential per source in the worst case).
pub fn rpq_pairs(db: &GraphDb, nfa: &Nfa, sem: PathSemantics) -> BTreeSet<(NodeId, NodeId)> {
    rpq_pairs_governed(db, nfa, sem, Governor::disabled())
}

/// [`rpq_pairs`] under a [`Governor`]: the sweeps stop at the first aborted
/// source (an aborted BFS keeps the targets it settled), so the returned
/// relation is always a sound subset of the complete one.
pub fn rpq_pairs_governed(
    db: &GraphDb,
    nfa: &Nfa,
    sem: PathSemantics,
    gov: &Governor,
) -> BTreeSet<(NodeId, NodeId)> {
    let mut out = BTreeSet::new();
    match sem {
        PathSemantics::Arbitrary => {
            gov.charge_mem(visited_bytes(db, nfa));
            for u in db.nodes() {
                if gov.is_aborted() {
                    break;
                }
                let row = reach_row(db, nfa, u, Direction::Forward, None, gov);
                out.extend(row.iter().map(|&v| (u, v)));
            }
        }
        PathSemantics::SimplePath | PathSemantics::Trail => {
            for u in db.nodes() {
                if gov.is_aborted() {
                    break;
                }
                for v in db.nodes() {
                    if gov.is_aborted() {
                        break;
                    }
                    if rpq_witness_governed(db, nfa, u, v, sem, gov).is_some() {
                        out.insert((u, v));
                    }
                }
            }
        }
    }
    out
}

struct RestrictedSearch<'a> {
    db: &'a GraphDb,
    nfa: &'a Nfa,
    to: NodeId,
    sem: PathSemantics,
    gov: &'a Governor,
    visited_nodes: Vec<bool>,
    used_edges: BTreeSet<(NodeId, Symbol, NodeId)>,
    path: Path,
}

impl RestrictedSearch<'_> {
    /// Extends the current path from `node` in NFA state `st` (already
    /// ε-closed on entry by the caller's iteration over closures).
    /// A governor abort reports "no path" up the whole stack — a sound
    /// under-approximation, mirroring the solver's enumeration.
    fn dfs(&mut self, node: NodeId, st: StateId) -> bool {
        if !self.gov.checkpoint() {
            return false;
        }
        if node == self.to && self.nfa.is_final(st) {
            return true;
        }
        // Collect the symbol transitions reachable through ε-closure first:
        // (symbol-or-any, target state).
        let mut moves: Vec<(Label, StateId)> = Vec::new();
        for &cs in &self.nfa.eps_closure_of(st) {
            if cs != st && self.to == node && self.nfa.is_final(cs) {
                return true;
            }
            for &(l, t) in self.nfa.transitions(cs) {
                if l != Label::Eps {
                    moves.push((l, t));
                }
            }
        }
        for (l, t) in moves {
            // Sym moves expand over the merged per-label run (base CSR
            // range + delta overlay); Any moves take the whole merged row.
            let range = match l {
                Label::Sym(a) => self.db.successors_with(node, a),
                Label::Any => self.db.out_edges(node),
                Label::Eps => unreachable!("ε filtered above"),
            };
            for (b, next) in range {
                match self.sem {
                    PathSemantics::SimplePath => {
                        if self.visited_nodes[next.index()] {
                            continue;
                        }
                        self.visited_nodes[next.index()] = true;
                        self.path.push(b, next);
                        if self.dfs(next, t) {
                            return true;
                        }
                        self.path.pop();
                        self.visited_nodes[next.index()] = false;
                    }
                    PathSemantics::Trail => {
                        let edge = (node, b, next);
                        if self.used_edges.contains(&edge) {
                            continue;
                        }
                        self.used_edges.insert(edge);
                        self.path.push(b, next);
                        if self.dfs(next, t) {
                            return true;
                        }
                        self.path.pop();
                        self.used_edges.remove(&edge);
                    }
                    PathSemantics::Arbitrary => unreachable!("handled by BFS"),
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    fn nfa(db: &GraphDb, pattern: &str) -> Nfa {
        let mut a = db.alphabet().clone();
        Nfa::from_regex(&parse_regex(pattern, &mut a).unwrap())
    }

    /// s ⇄ m plus s → t: the word aaa reaches t only by revisiting s.
    fn lollipop() -> (GraphDb, NodeId, NodeId, NodeId) {
        let alpha = Arc::new(Alphabet::from_chars("a"));
        let mut db = GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let s = db.add_node();
        let m = db.add_node();
        let t = db.add_node();
        db.add_edge(s, a, m);
        db.add_edge(m, a, s);
        db.add_edge(s, a, t);
        (db.freeze(), s, m, t)
    }

    #[test]
    fn semantics_separate_on_the_lollipop() {
        let (db, s, _, t) = lollipop();
        let m = nfa(&db, "aaa");
        // Arbitrary: s→m→s→t. Trail: the three arcs are distinct. Simple: s
        // repeats — impossible.
        assert!(rpq_holds(&db, &m, s, t, PathSemantics::Arbitrary));
        assert!(rpq_holds(&db, &m, s, t, PathSemantics::Trail));
        assert!(!rpq_holds(&db, &m, s, t, PathSemantics::SimplePath));
    }

    #[test]
    fn trail_refuses_edge_reuse() {
        let (db, s, _, t) = lollipop();
        // aaaaa needs the s→m→s loop twice: trail fails, arbitrary works.
        let m = nfa(&db, "aaaaa");
        assert!(rpq_holds(&db, &m, s, t, PathSemantics::Arbitrary));
        assert!(!rpq_holds(&db, &m, s, t, PathSemantics::Trail));
    }

    #[test]
    fn all_semantics_agree_on_dags() {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let w = db.alphabet().parse_word("abab").unwrap();
        let s = db.add_node();
        let t = db.add_node();
        db.add_word_path(s, &w, t);
        let db = db.freeze();
        let m = nfa(&db, "(ab)+");
        for sem in [
            PathSemantics::Arbitrary,
            PathSemantics::SimplePath,
            PathSemantics::Trail,
        ] {
            assert!(rpq_holds(&db, &m, s, t, sem), "{sem:?}");
        }
        let pairs_arb = rpq_pairs(&db, &m, PathSemantics::Arbitrary);
        let pairs_simple = rpq_pairs(&db, &m, PathSemantics::SimplePath);
        assert_eq!(pairs_arb, pairs_simple);
    }

    #[test]
    fn witnesses_respect_their_semantics() {
        let (db, s, _, t) = lollipop();
        let m = nfa(&db, "a+");
        let w_simple = rpq_witness(&db, &m, s, t, PathSemantics::SimplePath).unwrap();
        assert!(w_simple.is_valid_in(&db));
        let mut nodes = w_simple.nodes().to_vec();
        nodes.sort();
        nodes.dedup();
        assert_eq!(
            nodes.len(),
            w_simple.nodes().len(),
            "nodes must be distinct"
        );
        let m3 = nfa(&db, "aaa");
        let w_trail = rpq_witness(&db, &m3, s, t, PathSemantics::Trail).unwrap();
        assert!(w_trail.is_valid_in(&db));
        let mut edges: Vec<_> = (0..w_trail.len())
            .map(|i| {
                (
                    w_trail.nodes()[i],
                    w_trail.label()[i],
                    w_trail.nodes()[i + 1],
                )
            })
            .collect();
        edges.sort();
        edges.dedup();
        assert_eq!(edges.len(), w_trail.len(), "edges must be distinct");
    }

    #[test]
    fn epsilon_matches_under_every_semantics() {
        let (db, s, _, _) = lollipop();
        let m = nfa(&db, "a*");
        for sem in [
            PathSemantics::Arbitrary,
            PathSemantics::SimplePath,
            PathSemantics::Trail,
        ] {
            assert!(rpq_holds(&db, &m, s, s, sem), "{sem:?}");
        }
    }

    /// A `side × side` grid: `a` arcs run right, `b` arcs run down.
    fn grid(side: u32) -> GraphDb {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let (a, b) = (db.alphabet().sym("a"), db.alphabet().sym("b"));
        let n: Vec<NodeId> = (0..side * side).map(|_| db.add_node()).collect();
        for r in 0..side {
            for c in 0..side {
                let i = (r * side + c) as usize;
                if c + 1 < side {
                    db.add_edge(n[i], a, n[i + 1]);
                }
                if r + 1 < side {
                    db.add_edge(n[i], b, n[i + side as usize]);
                }
            }
        }
        db.freeze()
    }

    /// `nodes` nodes and `edges` arcs with labels and endpoints drawn from
    /// a fixed linear congruential stream (self-loops and parallel arcs
    /// included).
    fn random_graph(nodes: u32, edges: usize, seed: u64) -> GraphDb {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let labels = [db.alphabet().sym("a"), db.alphabet().sym("b")];
        let n: Vec<NodeId> = (0..nodes).map(|_| db.add_node()).collect();
        let mut x = seed;
        let mut next = |bound: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % bound
        };
        for _ in 0..edges {
            let (u, l, v) = (next(n.len()), next(2), next(n.len()));
            db.add_edge(n[u], labels[l], n[v]);
        }
        db.freeze()
    }

    #[test]
    fn rpq_pairs_equals_pairwise_witness_search() {
        // The reference asks the witness BFS (`rpq_holds`, a search of its
        // own) about every pair of nodes.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let nodes: Vec<NodeId> = (0..150).map(|_| b.add_node()).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], a, w[1]);
        }
        let chain = b.freeze();
        let graphs = [
            ("chain", chain),
            ("lollipop", lollipop().0),
            ("grid", grid(4)),
            ("random", random_graph(12, 30, 7)),
        ];
        for (shape, db) in &graphs {
            for pat in ["aaa", "a+", "(a|b)*a", "..", "_"] {
                let m = nfa(db, pat);
                let pairs = rpq_pairs(db, &m, PathSemantics::Arbitrary);
                let reference: BTreeSet<(NodeId, NodeId)> = db
                    .nodes()
                    .flat_map(|u| db.nodes().map(move |v| (u, v)))
                    .filter(|&(u, v)| rpq_holds(db, &m, u, v, PathSemantics::Arbitrary))
                    .collect();
                assert_eq!(pairs, reference, "{shape}, pattern {pat}");
            }
        }
        let (_, chain) = &graphs[0];
        let m = nfa(chain, "aaa");
        // Every node three hops from the end.
        assert_eq!(rpq_pairs(chain, &m, PathSemantics::Arbitrary).len(), 147);
    }

    #[test]
    fn governed_pairs_are_sound_partial_subsets() {
        let (db, _, _, _) = lollipop();
        let m = nfa(&db, "a+");
        for sem in [
            PathSemantics::Arbitrary,
            PathSemantics::SimplePath,
            PathSemantics::Trail,
        ] {
            let complete = rpq_pairs(&db, &m, sem);
            for fuel in 0..12 {
                let gov = Governor::unlimited().with_max_steps(fuel);
                let partial = rpq_pairs_governed(&db, &m, sem, &gov);
                assert!(
                    partial.is_subset(&complete),
                    "{sem:?} fuel {fuel}: partial must under-approximate"
                );
            }
        }
    }

    #[test]
    fn restricted_pairs_are_subsets_of_arbitrary() {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let b = db.alphabet().sym("b");
        // A small tangle: triangle + chord.
        let n: Vec<NodeId> = (0..4).map(|_| db.add_node()).collect();
        db.add_edge(n[0], a, n[1]);
        db.add_edge(n[1], b, n[2]);
        db.add_edge(n[2], a, n[0]);
        db.add_edge(n[0], b, n[3]);
        db.add_edge(n[3], a, n[1]);
        let db = db.freeze();
        let m = nfa(&db, "(a|b)(a|b)+");
        let arb = rpq_pairs(&db, &m, PathSemantics::Arbitrary);
        let simple = rpq_pairs(&db, &m, PathSemantics::SimplePath);
        let trail = rpq_pairs(&db, &m, PathSemantics::Trail);
        assert!(simple.is_subset(&arb));
        assert!(trail.is_subset(&arb));
        assert!(simple.is_subset(&trail), "simple paths are trails");
    }
}
