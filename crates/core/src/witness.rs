//! Witness extraction — matching morphisms together with the concrete
//! paths, matching words, and variable images that certify them.
//!
//! §8 of the paper notes that all Bool-Eval algorithms extend to the Check
//! problem and, with more machinery, to extracting the *paths* behind a
//! match. This module implements that extension for every engine in the
//! crate: re-running the product searches with parent pointers and reading
//! the paths back off the BFS forest. The cost stays within the same
//! product-space bounds as the decision procedures.

use crate::governor::Governor;
use crate::pattern::{GraphPattern, NodeVar};
use crate::sync::{SyncSearch, SyncSpec, SyncState};
use cxrpq_automata::Nfa;
use cxrpq_graph::{GraphDb, NodeId, Path, Symbol};
use std::collections::{HashMap, HashSet, VecDeque};

/// A complete certificate for one matching morphism.
///
/// Produced by [`crate::Evaluate`]'s witness requests; checkable
/// independently of the engine that produced it via [`QueryWitness::verify`]
/// (structure) and the conjunctive-match oracle (semantics).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryWitness {
    /// The matching morphism `h`, restricted to the query's named pattern
    /// variables (in pattern-variable order).
    pub morphism: Vec<(String, NodeId)>,
    /// One witnessing path per pattern edge, in edge order. `paths[i]` runs
    /// from `h(x_i)` to `h(y_i)` and its label is the matching word `w_i`.
    pub paths: Vec<Path>,
    /// String-variable images `ψ(x)` backing the match (CXRPQ engines only;
    /// empty for CRPQ/ECRPQ). Names refer to the variables of the evaluated
    /// query — for the vstar-free engine that is the normalized query, whose
    /// fresh variables carry derived names.
    pub images: Vec<(String, Vec<Symbol>)>,
}

impl QueryWitness {
    /// The matching words `(w_1, …, w_m)` (one label per pattern edge).
    pub fn matching_words(&self) -> Vec<Vec<Symbol>> {
        self.paths.iter().map(|p| p.label().to_vec()).collect()
    }

    /// Structural verification against a pattern: every path must exist in
    /// `db` and connect the morphism's images of its edge endpoints.
    pub fn verify<L>(&self, db: &GraphDb, pattern: &GraphPattern<L>) -> Result<(), String> {
        if self.paths.len() != pattern.edge_count() {
            return Err(format!(
                "witness has {} paths for {} pattern edges",
                self.paths.len(),
                pattern.edge_count()
            ));
        }
        let mut h: HashMap<&str, NodeId> = HashMap::new();
        for (name, node) in &self.morphism {
            h.insert(name.as_str(), *node);
        }
        for (i, (src, _, dst)) in pattern.edges().iter().enumerate() {
            let p = &self.paths[i];
            if !p.is_valid_in(db) {
                return Err(format!("path {i} is not a path of the database"));
            }
            let (sn, dn) = (pattern.node_name(*src), pattern.node_name(*dst));
            match (h.get(sn), h.get(dn)) {
                (Some(&s), _) if p.start() != s => {
                    return Err(format!(
                        "path {i} starts at {:?}, h({sn}) = {s:?}",
                        p.start()
                    ))
                }
                (_, Some(&d)) if p.end() != d => {
                    return Err(format!("path {i} ends at {:?}, h({dn}) = {d:?}", p.end()))
                }
                (None, _) | (_, None) => {
                    return Err(format!("morphism misses an endpoint of edge {i}"))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Renders the witness for human consumption.
    pub fn render(&self, db: &GraphDb) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "morphism:");
        for (name, node) in &self.morphism {
            let _ = writeln!(out, "  {name} -> {}", db.node_name(*node));
        }
        let _ = writeln!(out, "paths:");
        for (i, p) in self.paths.iter().enumerate() {
            let _ = writeln!(
                out,
                "  e{i}: {}  (word \"{}\")",
                p.render(db, db.alphabet()),
                db.alphabet().render_word(p.label())
            );
        }
        if !self.images.is_empty() {
            let _ = writeln!(out, "variable images:");
            for (x, w) in &self.images {
                let _ = writeln!(out, "  {x} = \"{}\"", db.alphabet().render_word(w));
            }
        }
        out
    }
}

/// Finds a path `from →* to` labelled by a word of `L(nfa)`, by BFS over the
/// product `D × M` with parent pointers. Returns a shortest such path (in
/// number of product steps). `None` iff no such path exists.
///
/// This is the state BFS of [`crate::reach`], run on the thread's search
/// scratch: a dense visited bit per `node · |Q| + state` cell, transitions
/// expanded over contiguous per-label CSR ranges, and beside each queued
/// cell its parent's queue index and the symbol read, so the path is read
/// back off the queue. The search stops when `(to, final)` is popped.
pub fn edge_path(db: &GraphDb, nfa: &Nfa, from: NodeId, to: NodeId) -> Option<Path> {
    edge_path_governed(db, nfa, from, to, Governor::disabled())
}

/// [`edge_path`] under a [`Governor`]: one checkpoint per 64 popped product
/// cells. An abort returns `None` — the caller's witness extraction fails
/// soundly (no spurious path is ever produced) and the top level reports
/// the abort from the governor's verdict.
pub fn edge_path_governed(
    db: &GraphDb,
    nfa: &Nfa,
    from: NodeId,
    to: NodeId,
    gov: &Governor,
) -> Option<Path> {
    crate::reach::product_path(db, nfa, from, to, gov)
}

/// Finds one tuple of jointly-constrained paths: walker `i` runs
/// `starts[i] →* ends[i]`, accepted by `spec.nfas[i]`, with the tuple of
/// labels in `spec.relation`. Parent-tracked variant of the synchronized
/// product search, with one [`Governor`] checkpoint per popped product
/// configuration; an abort returns `None` (sound failure, never a spurious
/// tuple of paths).
pub(crate) fn group_paths(
    db: &GraphDb,
    spec: &SyncSpec,
    starts: &[NodeId],
    ends: &[NodeId],
    gov: &Governor,
) -> Option<Vec<Path>> {
    let search = SyncSearch::forward(db, spec);
    let init = search.initial(starts);
    let mut parent: HashMap<SyncState, (SyncState, Vec<Option<Symbol>>)> = HashMap::new();
    let mut visited: HashSet<SyncState> = HashSet::new();
    let mut queue: VecDeque<SyncState> = VecDeque::new();
    visited.insert(init.clone());
    queue.push_back(init.clone());
    let mut goal: Option<SyncState> = None;
    while let Some(st) = queue.pop_front() {
        if !gov.checkpoint() {
            return None;
        }
        if st.positions == ends && search.accepting(&st) {
            goal = Some(st);
            break;
        }
        search.expand_moves(&st, Some(ends), &mut |next, moves| {
            if visited.insert(next.clone()) {
                parent.insert(next.clone(), (st.clone(), moves.to_vec()));
                queue.push_back(next);
            }
        });
    }
    let mut cur = goal?;
    // Collect the forward chain of (state, moves-into-state).
    let mut chain: Vec<(SyncState, Vec<Option<Symbol>>)> = Vec::new();
    while cur != init {
        let (prev, moves) = parent[&cur].clone();
        chain.push((cur, moves));
        cur = prev;
    }
    chain.reverse();
    let s = search.spec().arity();
    let mut paths: Vec<Path> = starts.iter().map(|&n| Path::trivial(n)).collect();
    for (state, moves) in chain {
        for i in 0..s {
            if let Some(a) = moves[i] {
                paths[i].push(a, state.positions[i]);
            }
        }
    }
    for (i, p) in paths.iter().enumerate() {
        debug_assert_eq!(p.end(), ends[i]);
    }
    Some(paths)
}

/// Builds the `morphism` field of a witness from solver bindings, keeping
/// only the query's named pattern variables.
pub(crate) fn morphism_of<L>(
    pattern: &GraphPattern<L>,
    bindings: &[Option<NodeId>],
) -> Vec<(String, NodeId)> {
    pattern
        .node_vars()
        .filter_map(|v| bindings[v.index()].map(|n| (pattern.node_name(v).to_string(), n)))
        .collect()
}

/// Concatenates consecutive path segments (witness assembly for subdivided
/// edges). Panics if the segments do not chain.
pub(crate) fn concat_paths(segments: Vec<Path>) -> Path {
    let mut iter = segments.into_iter();
    let mut out = iter.next().expect("at least one segment");
    for seg in iter {
        assert_eq!(out.end(), seg.start(), "segments must chain");
        for (i, &a) in seg.label().iter().enumerate() {
            out.push(a, seg.nodes()[i + 1]);
        }
    }
    out
}

/// Pins output variables to a tuple (the Check and pinned witness requests
/// of the solver-backed engines); `None` when repeated output variables get
/// different nodes.
pub(crate) fn pin_tuple(output: &[NodeVar], tuple: &[NodeId]) -> Option<HashMap<NodeVar, NodeId>> {
    assert_eq!(tuple.len(), output.len(), "tuple arity mismatch");
    let mut pinned = HashMap::new();
    for (v, n) in output.iter().zip(tuple) {
        if let Some(&prev) = pinned.get(v) {
            if prev != *n {
                return None;
            }
        }
        pinned.insert(*v, *n);
    }
    Some(pinned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    fn line_db(word: &str) -> (GraphDb, Vec<NodeId>) {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let w = db.alphabet().parse_word(word).unwrap();
        let nodes: Vec<NodeId> = (0..=w.len()).map(|_| db.add_node()).collect();
        for (i, &s) in w.iter().enumerate() {
            db.add_edge(nodes[i], s, nodes[i + 1]);
        }
        (db.freeze(), nodes)
    }

    #[test]
    fn edge_path_reconstructs_word_and_nodes() {
        let (db, nodes) = line_db("abcab");
        let mut alpha = db.alphabet().clone();
        let nfa = Nfa::from_regex(&parse_regex("a(b|c)c*ab", &mut alpha).unwrap());
        let p = edge_path(&db, &nfa, nodes[0], nodes[5]).unwrap();
        assert!(p.is_valid_in(&db));
        assert_eq!(p.start(), nodes[0]);
        assert_eq!(p.end(), nodes[5]);
        assert_eq!(db.alphabet().render_word(p.label()), "abcab");
    }

    #[test]
    fn edge_path_none_when_unreachable() {
        let (db, nodes) = line_db("ab");
        let mut alpha = db.alphabet().clone();
        let nfa = Nfa::from_regex(&parse_regex("ba", &mut alpha).unwrap());
        assert!(edge_path(&db, &nfa, nodes[0], nodes[2]).is_none());
    }

    #[test]
    fn edge_path_epsilon_self() {
        let (db, nodes) = line_db("ab");
        let mut alpha = db.alphabet().clone();
        let nfa = Nfa::from_regex(&parse_regex("a*", &mut alpha).unwrap());
        let p = edge_path(&db, &nfa, nodes[1], nodes[1]).unwrap();
        assert_eq!(p.len(), 0);
        assert_eq!(p.start(), nodes[1]);
    }

    #[test]
    fn edge_path_prefers_short_witnesses() {
        // A cycle a·a plus a direct a edge: shortest accepted path is len 1.
        let alpha = Arc::new(Alphabet::from_chars("a"));
        let mut db = GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let u = db.add_node();
        let v = db.add_node();
        db.add_edge(u, a, v);
        db.add_edge(v, a, u);
        let db = db.freeze();
        let mut alpha2 = db.alphabet().clone();
        let nfa = Nfa::from_regex(&parse_regex("a(aa)*", &mut alpha2).unwrap());
        let p = edge_path(&db, &nfa, u, v).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn group_paths_equal_words() {
        // Two parallel abc paths; equality group must return equal labels.
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let w = db.alphabet().parse_word("abc").unwrap();
        let s1 = db.add_node();
        let t1 = db.add_node();
        let s2 = db.add_node();
        let t2 = db.add_node();
        db.add_word_path(s1, &w, t1);
        db.add_word_path(s2, &w, t2);
        // The mismatched acb path is planted up front so the database can
        // be frozen once.
        let w2 = db.alphabet().parse_word("acb").unwrap();
        let s3 = db.add_node();
        let t3 = db.add_node();
        db.add_word_path(s3, &w2, t3);
        let db = db.freeze();
        let spec = SyncSpec::equality_group(None, 2);
        let paths = group_paths(&db, &spec, &[s1, s2], &[t1, t2], Governor::disabled()).unwrap();
        assert_eq!(paths[0].label(), paths[1].label());
        assert_eq!(db.alphabet().render_word(paths[0].label()), "abc");
        assert!(paths.iter().all(|p| p.is_valid_in(&db)));
        // Mismatched paths: no witness.
        assert!(group_paths(&db, &spec, &[s1, s3], &[t1, t3], Governor::disabled()).is_none());
    }

    #[test]
    fn concat_paths_chains() {
        let (db, nodes) = line_db("abc");
        let mut a1 = db.alphabet().clone();
        let p1 = edge_path(
            &db,
            &Nfa::from_regex(&parse_regex("ab", &mut a1).unwrap()),
            nodes[0],
            nodes[2],
        )
        .unwrap();
        let p2 = edge_path(
            &db,
            &Nfa::from_regex(&parse_regex("c", &mut a1).unwrap()),
            nodes[2],
            nodes[3],
        )
        .unwrap();
        let joined = concat_paths(vec![p1, p2]);
        assert_eq!(db.alphabet().render_word(joined.label()), "abc");
        assert_eq!(joined.start(), nodes[0]);
        assert_eq!(joined.end(), nodes[3]);
    }

    #[test]
    fn governed_edge_path_aborts_to_none() {
        let (db, nodes) = line_db("abcab");
        let mut alpha = db.alphabet().clone();
        let nfa = Nfa::from_regex(&parse_regex("a(b|c)c*ab", &mut alpha).unwrap());
        let gov = Governor::unlimited().with_max_steps(1);
        assert!(edge_path_governed(&db, &nfa, nodes[0], nodes[5], &gov).is_none());
        assert!(gov.is_aborted());
        // Ungoverned, the same instance yields a witness.
        assert!(edge_path(&db, &nfa, nodes[0], nodes[5]).is_some());
    }

    #[test]
    fn pin_tuple_rejects_inconsistent() {
        let out = [NodeVar(0), NodeVar(0)];
        assert!(pin_tuple(&out, &[NodeId(1), NodeId(2)]).is_none());
        assert!(pin_tuple(&out, &[NodeId(1), NodeId(1)]).is_some());
    }
}
