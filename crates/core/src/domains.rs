//! Phase 2 of the solver pipeline: semi-join domain reduction.
//!
//! Every node variable starts with the full node set as its *candidate
//! domain* (a [`DenseBitSet`] over node ids; pinned variables collapse to a
//! singleton). Each free edge `(x, M, y)` is a reachability relation
//! `R_M ⊆ V × V`, and one semi-join pass enforces arc consistency in both
//! directions from a single batch of fills *joined from the smaller
//! endpoint domain* — forward when `|dom(x)| ≤ |dom(y)|`:
//!
//! - `dom(x) ← { u ∈ dom(x) : targets_M(u) ∩ dom(y) ≠ ∅ }`
//! - `dom(y) ← dom(y) ∩ ⋃_{u ∈ dom(x)} targets_M(u)`
//!
//! and the mirror image via the reversed automaton otherwise (so a pinned
//! destination costs one backward search from the singleton, never one
//! forward search per node). Singleton pairs cost one bidirectional
//! search: an edge whose endpoint domains are both singletons `{u}`, `{v}`
//! is decided by
//! [`ReachCache::connects_pair`](crate::reach::ReachCache::connects_pair),
//! never by `u`'s whole forward closure, and the memoized verdict also
//! answers the enumerator's later check of the edge. Passes repeat to a
//! fixpoint (capped by the caller — early-exiting `boolean`/`check` calls
//! cap low), visiting edges cheapest-first per the plan so the sharpest
//! filters narrow the domains other edges then fill over. Fills are
//! *domain-restricted*: [`ReachCache::fill_targets`] stripes cover only
//! the current domain, never all of `db.nodes()`, so every later round
//! costs traffic proportional to what pruning has already achieved.
//! Under streaming appends the caches invalidate per label
//! ([`GraphDb::delta_since`]): an edge automaton whose alphabet misses
//! every appended label keeps its fills across generations.
//!
//! **Adaptive probe.** Batched wavefront fills win ~3–4× on random and
//! label-dense shapes but lose to per-source sweeps on long-diameter chains
//! (staggered membership arrivals re-expand cells; see `BENCH_parallel.json`).
//! [`probe_long_diameter`] runs one cheap plain-graph BFS and routes the
//! fills: past [`LONG_DIAMETER_LEVELS`] levels the graph is chain-like and
//! every fill falls back to per-source [`ReachScratch`] sweeps.
//!
//! Groups do not run their synchronized product search per candidate (it
//! would cost more than it saves), but they still prune through *necessary
//! conditions*: the solver synthesizes one pruning-only [`FreeEdge`] per
//! group walker whose endpoints must be connected under the walker's own
//! automaton (for equality groups, under the definition automaton every
//! equal word must match — see
//! [`Problem::group_prune_edges`](crate::solve::Problem)). Unselective
//! (Σ*-like) walker automata are skipped; the synthesized edges join the
//! semi-join fixpoint here exactly like real edges and are dropped before
//! enumeration. This is what makes existential leaves sound and cheap for
//! CXRPQ groups: a group variable's domain is already def-language
//! consistent when the enumerator asks for a single witness.

use crate::governor::Governor;
use crate::pattern::NodeVar;
use crate::solve::FreeEdge;
use cxrpq_graph::{DenseBitSet, GraphDb, NodeId};

/// BFS depth past which a graph counts as long-diameter and batched
/// wavefronts are routed to per-source sweeps.
pub const LONG_DIAMETER_LEVELS: usize = 96;

/// Cheap shape probe: plain-graph BFS (labels ignored) from two spread
/// sample nodes, stopping as soon as [`LONG_DIAMETER_LEVELS`] levels are
/// exceeded — routes fills between wavefront batching and per-source
/// sweeps. The verdict is memoized on the frozen database
/// ([`GraphDb::long_diameter_hint`]), so repeated solver calls against the
/// same `GraphDb` pay the `O(|V| + |E|)` walk once.
pub fn probe_long_diameter(db: &GraphDb) -> bool {
    db.long_diameter_hint(LONG_DIAMETER_LEVELS)
}

/// Per-variable candidate domains over one database's node set.
pub struct Domains {
    doms: Vec<DenseBitSet>,
    sizes: Vec<usize>,
    universe: usize,
}

/// What one pruning run did, for [`PipelineStats`](crate::solve::PipelineStats).
#[derive(Clone, Debug, Default)]
pub struct PruneOutcome {
    /// Semi-join passes executed (0 = nothing to prune).
    pub rounds: usize,
    /// Whether the adaptive probe routed fills to per-source sweeps.
    pub per_source_sweeps: bool,
    /// Whether some constrained domain emptied (the problem is
    /// unsatisfiable and enumeration can be skipped).
    pub emptied: bool,
}

impl Domains {
    /// Full domains: every variable may take any of `db_nodes` nodes.
    pub fn full(node_vars: usize, db_nodes: usize) -> Self {
        Self {
            doms: (0..node_vars)
                .map(|_| DenseBitSet::full(db_nodes))
                .collect(),
            sizes: vec![db_nodes; node_vars],
            universe: db_nodes,
        }
    }

    /// Collapses `v`'s domain to the singleton `{n}` (a pinned binding).
    /// Returns `false` when `n` is out of range for the database — no
    /// morphism can map `v` there, so the problem has no solutions.
    pub fn pin(&mut self, v: NodeVar, n: NodeId) -> bool {
        if n.index() >= self.universe {
            return false;
        }
        let d = &mut self.doms[v.index()];
        d.clear();
        d.insert(n.index());
        self.sizes[v.index()] = 1;
        true
    }

    /// Whether `n` is still a candidate for `v`.
    #[inline]
    pub fn contains(&self, v: NodeVar, n: NodeId) -> bool {
        self.doms[v.index()].contains(n.index())
    }

    /// Current domain size of `v`.
    pub fn size(&self, v: NodeVar) -> usize {
        self.sizes[v.index()]
    }

    /// Domain sizes for all variables (index = variable index).
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The candidates of `v` in ascending node order.
    pub fn members(&self, v: NodeVar) -> Vec<NodeId> {
        self.iter(v).collect()
    }

    /// The raw domain bitset of `v` — a sorted ascending candidate set with
    /// `seek_ge`, which lets the leapfrog enumerator join the semi-joined
    /// domain into its multiway intersection as one more sorted iterator.
    #[inline]
    pub fn bits(&self, v: NodeVar) -> &DenseBitSet {
        &self.doms[v.index()]
    }

    /// Iterates the candidates of `v` in ascending node order without
    /// materializing them (the solver's seed sweeps consume this chunkwise).
    pub fn iter(&self, v: NodeVar) -> impl Iterator<Item = NodeId> + '_ {
        self.doms[v.index()].ones().map(|i| NodeId(i as u32))
    }

    /// One semi-join pass over `edges` in the given visit order; returns
    /// whether any domain shrank. `per_source` routes cache fills (see the
    /// module docs).
    ///
    /// Each edge is joined *from its smaller endpoint domain*: forward
    /// (targets from `dom(src)`) or backward (sources from `dom(dst)`,
    /// via the reversed automaton) — so a pinned destination costs one
    /// backward search from the singleton, never one forward search per
    /// node of the universe. An edge between two singleton domains is
    /// decided by one pinned-pair search and empties both on a miss.
    fn pass(
        &mut self,
        db: &GraphDb,
        edges: &mut [FreeEdge],
        order: &[usize],
        per_source: bool,
        gov: &Governor,
    ) -> bool {
        let mut changed = false;
        for &i in order {
            if !gov.checkpoint() {
                break; // drain: an aborted pass only ever shrank domains
            }
            let (src, dst) = (edges[i].src, edges[i].dst);
            if self.sizes[src.index()] == 1 && self.sizes[dst.index()] == 1 {
                // Both endpoints decided: one bidirectional pair search.
                let u = self.iter(src).next().expect("singleton domain");
                let v = self.iter(dst).next().expect("singleton domain");
                if !edges[i].cache.connects_pair(db, u, v) {
                    for x in [src, dst] {
                        self.doms[x.index()].clear();
                        self.sizes[x.index()] = 0;
                    }
                    changed = true;
                }
                continue;
            }
            let forward = self.sizes[src.index()] <= self.sizes[dst.index()];
            // The joined-from side (`near`) and the derived side (`far`).
            let (near, far) = if forward { (src, dst) } else { (dst, src) };
            let near_members = self.members(near);
            if near_members.is_empty() {
                // Already empty; the caller bails after the pass.
                continue;
            }
            if forward {
                edges[i]
                    .cache
                    .fill_targets_with(db, &near_members, per_source);
            } else {
                edges[i]
                    .cache
                    .fill_sources_with(db, &near_members, per_source);
            }
            gov.charge_mem(self.universe.div_ceil(8));
            let mut new_far = DenseBitSet::new(self.universe);
            let mut new_far_size = 0usize;
            let mut kept_near = 0usize;
            for &u in &near_members {
                let across = if forward {
                    edges[i].cache.targets(db, u)
                } else {
                    edges[i].cache.sources(db, u)
                };
                let mut supported = false;
                for &v in across.iter() {
                    if self.doms[far.index()].contains(v.index()) {
                        supported = true;
                        if new_far.insert(v.index()) {
                            new_far_size += 1;
                        }
                    }
                }
                if supported {
                    kept_near += 1;
                } else {
                    self.doms[near.index()].remove(u.index());
                    changed = true;
                }
            }
            self.sizes[near.index()] = kept_near;
            // A self-loop edge (src == dst) must intersect with the
            // near-side removals above, so re-derive instead of overwrite.
            if src == dst {
                let d = &mut self.doms[far.index()];
                d.intersect_with(&new_far);
                let size = d.count();
                if size != self.sizes[far.index()] {
                    changed = true;
                }
                self.sizes[far.index()] = size;
            } else {
                if new_far_size != self.sizes[far.index()] {
                    changed = true;
                }
                self.doms[far.index()] = new_far;
                self.sizes[far.index()] = new_far_size;
            }
        }
        changed
    }

    /// Runs semi-join passes to a fixpoint or `max_rounds`, cheapest edge
    /// first when per-edge `costs` (index-aligned with `edges`, which may
    /// include synthesized group-walker edges beyond the plan's real ones)
    /// are given. Domains of variables in no free edge are untouched.
    /// `per_source` is the caller's adaptive-probe verdict
    /// ([`probe_long_diameter`]) routing the fills.
    pub fn prune(
        &mut self,
        db: &GraphDb,
        edges: &mut [FreeEdge],
        costs: Option<&[u64]>,
        max_rounds: usize,
        per_source: bool,
        gov: &Governor,
    ) -> PruneOutcome {
        let mut out = PruneOutcome::default();
        if edges.is_empty() || max_rounds == 0 {
            return out;
        }
        out.per_source_sweeps = per_source;
        let mut order: Vec<usize> = (0..edges.len()).collect();
        if let Some(c) = costs {
            debug_assert_eq!(c.len(), edges.len());
            order.sort_by_key(|&i| (c[i], i));
        }
        for _ in 0..max_rounds {
            if gov.is_aborted() {
                break; // fixpoint abandoned; domains only ever shrank
            }
            out.rounds += 1;
            let changed = self.pass(db, edges, &order, out.per_source_sweeps, gov);
            let emptied = edges
                .iter()
                .any(|e| self.sizes[e.src.index()] == 0 || self.sizes[e.dst.index()] == 0);
            if emptied {
                out.emptied = true;
                return out;
            }
            if !changed {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::ReachCache;
    use cxrpq_automata::{parse_regex, Nfa};
    use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb};
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

    fn edge(db: &GraphDb, src: u32, dst: u32, re: &str) -> FreeEdge {
        let mut a = db.alphabet().clone();
        FreeEdge {
            src: NodeVar(src),
            dst: NodeVar(dst),
            cache: ReachCache::new(Nfa::from_regex(&parse_regex(re, &mut a).unwrap())),
        }
    }

    #[test]
    fn semi_join_restricts_both_endpoints() {
        let (db, nodes) = line_db("abc");
        // x -ab-> y: only x = n0 (reads ab to n2), only y = n2.
        let mut edges = vec![edge(&db, 0, 1, "ab")];
        let mut doms = Domains::full(2, db.node_count());
        let out = doms.prune(&db, &mut edges, None, 8, false, Governor::disabled());
        assert!(!out.emptied);
        assert_eq!(doms.members(NodeVar(0)), vec![nodes[0]]);
        assert_eq!(doms.members(NodeVar(1)), vec![nodes[2]]);
        assert_eq!(doms.size(NodeVar(0)), 1);
    }

    #[test]
    fn fixpoint_propagates_across_edges() {
        let (db, nodes) = line_db("aab");
        // x -a-> y, y -b-> z on the chain a,a,b: y must simultaneously be
        // an a-target ({n1, n2}) and a b-source ({n2}), so y = n2, which
        // forces x = n1 and z = n3.
        let mut edges = vec![edge(&db, 0, 1, "a"), edge(&db, 1, 2, "b")];
        let mut doms = Domains::full(3, db.node_count());
        let out = doms.prune(&db, &mut edges, None, 8, false, Governor::disabled());
        assert!(!out.emptied);
        assert!(out.rounds >= 2);
        assert_eq!(doms.members(NodeVar(0)), vec![nodes[1]]);
        assert_eq!(doms.members(NodeVar(1)), vec![nodes[2]]);
        assert_eq!(doms.members(NodeVar(2)), vec![nodes[3]]);
    }

    #[test]
    fn unsatisfiable_edge_empties_and_reports() {
        let (db, _) = line_db("ab");
        let mut edges = vec![edge(&db, 0, 1, "cc")];
        let mut doms = Domains::full(2, db.node_count());
        let out = doms.prune(&db, &mut edges, None, 8, false, Governor::disabled());
        assert!(out.emptied);
    }

    #[test]
    fn singleton_pairs_are_decided_by_one_pair_search() {
        let (db, nodes) = line_db("abcab");
        let mut edges = vec![edge(&db, 0, 1, "a(b|c)*")];
        let mut doms = Domains::full(2, db.node_count());
        doms.pin(NodeVar(0), nodes[0]);
        doms.pin(NodeVar(1), nodes[3]);
        let out = doms.prune(&db, &mut edges, None, 8, false, Governor::disabled());
        assert!(!out.emptied);
        assert_eq!(out.rounds, 1, "a kept pair changes nothing");
        // Decided as a pair (memoized), not by filling n0's closure.
        assert!(edges[0].cache.connects(&db, nodes[0], nodes[3]));
        let explored = edges[0].cache.stats.states();
        edges[0].cache.targets(&db, nodes[0]);
        assert!(
            edges[0].cache.stats.states() > explored,
            "no forward fill ran"
        );

        let mut doms = Domains::full(2, db.node_count());
        doms.pin(NodeVar(0), nodes[1]);
        doms.pin(NodeVar(1), nodes[3]);
        let out = doms.prune(&db, &mut edges, None, 8, false, Governor::disabled());
        assert!(out.emptied);
        assert_eq!((doms.size(NodeVar(0)), doms.size(NodeVar(1))), (0, 0));
    }

    #[test]
    fn pinning_out_of_range_is_rejected() {
        let (db, nodes) = line_db("ab");
        let mut doms = Domains::full(2, db.node_count());
        assert!(doms.pin(NodeVar(0), nodes[1]));
        assert_eq!(doms.members(NodeVar(0)), vec![nodes[1]]);
        assert!(!doms.pin(NodeVar(1), NodeId(500)));
    }

    #[test]
    fn self_loop_edge_intersects_not_overwrites() {
        // Cycle a-a: x -aa-> x holds for both nodes; x -ab-> x for neither.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let n0 = b.add_node();
        let n1 = b.add_node();
        b.add_edge(n0, a, n1);
        b.add_edge(n1, a, n0);
        let db = b.freeze();
        let mut edges = vec![edge(&db, 0, 0, "aa")];
        let mut doms = Domains::full(1, db.node_count());
        let out = doms.prune(&db, &mut edges, None, 8, false, Governor::disabled());
        assert!(!out.emptied);
        assert_eq!(doms.members(NodeVar(0)), vec![n0, n1]);

        let mut edges2 = vec![edge(&db, 0, 0, "ab")];
        let mut doms2 = Domains::full(1, db.node_count());
        let out2 = doms2.prune(&db, &mut edges2, None, 8, false, Governor::disabled());
        assert!(out2.emptied);
    }

    #[test]
    fn probe_classifies_shapes() {
        let (chain, _) = line_db(&"abc".repeat(50)); // diameter 150
        assert!(probe_long_diameter(&chain));
        let (short, _) = line_db("abcabc");
        assert!(!probe_long_diameter(&short));
        // A chain whose arcs run from high ids to low ids is invisible to
        // a forward walk from node 0; the backward walk must catch it.
        let alpha = Arc::new(Alphabet::from_chars("a"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let nodes: Vec<NodeId> = (0..150).map(|_| b.add_node()).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[1], a, w[0]);
        }
        assert!(probe_long_diameter(&b.freeze()));
    }
}
