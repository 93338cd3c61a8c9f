//! Phase 2 of the solver pipeline: semi-join domain reduction.
//!
//! Every node variable starts with the full node set as its *candidate
//! domain* (a [`DenseBitSet`] over node ids; pinned variables collapse to a
//! singleton). Each free edge `(x, M, y)` is a reachability relation
//! `R_M ⊆ V × V`, and one semi-join pass enforces arc consistency in both
//! directions from one reach row per member *of the smaller endpoint
//! domain* — forward when `|dom(x)| ≤ |dom(y)|`:
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
//! filters narrow the domains other edges then read rows over. Rows are
//! *domain-restricted*: a pass reads the row of each member of the
//! current near-side domain, never of all of `db.nodes()`, so every later
//! round costs traffic proportional to what pruning has already achieved.
//! Under streaming appends the caches invalidate per label
//! ([`GraphDb::delta_since`]): an edge automaton whose alphabet misses
//! every appended label keeps its rows across generations.
//!
//! **One row per member.** A pass reads each near member's row once,
//! through [`ReachCache::row`](crate::reach::ReachCache::row): a memo hit,
//! or one per-source product BFS on the thread's search scratch (see
//! [`crate::reach`]).
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
//!
//! **Leaf peel.** Under projection pushdown an *existential leaf* — a
//! variable that is neither output nor pinned, in no group, and an
//! endpoint of exactly one remaining edge `(x, M, z)` (or `(z, M, x)`)
//! with `x ≠ z` — only asks whether *some* partner exists. [`Domains::peel`]
//! answers that for all of `dom(x)` at once with one set-level product
//! sweep, `dom(x) ∩= Pre_M(dom(z))` (or `Post_M(dom(z))`;
//! [`ReachCache::image`](crate::reach::ReachCache::image)), instead of one
//! reach row per candidate. The edge is then satisfied by construction:
//! the semi-join passes skip it and the enumerator starts with it done.
//! Peeling repeats, so whole existential trees peel from the leaves up.
//! The solver peels only unpinned runs: in a pinned run (Check) the
//! semi-join from the pinned singletons is cheaper than a sweep over a
//! full domain. The analyzer's degree-2 contraction is another matter: it
//! rewrites Check and Boolean runs too, since they also run under
//! projection pushdown.
//!
//! **Source narrowing.** The first pass over an edge between two full
//! domains fills a row for every node. For an atom whose words all have
//! two or more letters most of those rows are empty, so on unpinned runs
//! [`Domains::narrow_sources`] first keeps only `Pre_M(dom(y))` in
//! `dom(x)`, by one backward sweep. The rows the pass then fills are the
//! ones the enumerator reads; one-letter atoms skip this, since their
//! first fill costs no more than the sweep.

use crate::governor::Governor;
use crate::pattern::NodeVar;
use crate::reach::Direction;
use crate::solve::FreeEdge;
use cxrpq_graph::{DenseBitSet, GraphDb, NodeId};

/// Per-variable candidate domains over one database's node set.
pub struct Domains {
    doms: Vec<DenseBitSet>,
    sizes: Vec<usize>,
    universe: usize,
}

/// What a leaf peel did ([`Domains::peel`]).
#[derive(Clone, Debug, Default)]
pub struct Peel {
    /// Per edge: peeled, so satisfied by every value left in its kept
    /// endpoint's domain.
    pub peeled: Vec<bool>,
    /// Leaf variables peeled.
    pub vars: usize,
    /// Whether a neighbour's domain emptied (no solutions).
    pub emptied: bool,
}

/// What source narrowing did ([`Domains::narrow_sources`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Narrowed {
    /// Source domains narrowed by a sweep.
    pub domains: usize,
    /// Whether a domain emptied (no solutions).
    pub emptied: bool,
}

/// What one pruning run did, for [`PipelineStats`](crate::solve::PipelineStats).
#[derive(Clone, Debug, Default)]
pub struct PruneOutcome {
    /// Semi-join passes executed (0 = nothing to prune).
    pub rounds: usize,
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
    /// materializing them (the solver's seed sweeps consume this lazily).
    pub fn iter(&self, v: NodeVar) -> impl Iterator<Item = NodeId> + '_ {
        self.doms[v.index()].ones().map(|i| NodeId(i as u32))
    }

    /// One semi-join pass over `edges` in the given visit order; returns
    /// whether any domain shrank.
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
            // The joined-from side (`near`) and the derived side (`far`).
            let (dir, near, far) = if self.sizes[src.index()] <= self.sizes[dst.index()] {
                (Direction::Forward, src, dst)
            } else {
                (Direction::Backward, dst, src)
            };
            let near_members = self.members(near);
            if near_members.is_empty() {
                // Already empty; the caller bails after the pass.
                continue;
            }
            gov.charge_mem(self.universe.div_ceil(8));
            let mut new_far = DenseBitSet::new(self.universe);
            let mut new_far_size = 0usize;
            let mut kept_near = 0usize;
            for &u in &near_members {
                let across = edges[i].cache.row(db, u, dir);
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

    /// Peels existential leaves bottom-up (see the module docs). A
    /// variable `v` with `frozen[v]` (an output or a group endpoint) is
    /// never peeled. A governor trip stops the peel before the interrupted
    /// sweep touches any domain.
    pub fn peel(
        &mut self,
        db: &GraphDb,
        edges: &mut [FreeEdge],
        frozen: &[bool],
        gov: &Governor,
    ) -> Peel {
        let mut degree = vec![0usize; frozen.len()];
        for e in edges.iter() {
            degree[e.src.index()] += 1;
            degree[e.dst.index()] += 1;
        }
        let mut out = Peel {
            peeled: vec![false; edges.len()],
            ..Peel::default()
        };
        let leaf = |v: usize, degree: &[usize]| degree[v] == 1 && !frozen[v];
        let mut stack: Vec<usize> = (0..frozen.len())
            .rev()
            .filter(|&v| leaf(v, &degree))
            .collect();
        while let Some(z) = stack.pop() {
            if !leaf(z, &degree) {
                continue; // its one edge was peeled from the other side
            }
            let i = (0..edges.len())
                .find(|&i| {
                    !out.peeled[i] && (edges[i].src.index() == z || edges[i].dst.index() == z)
                })
                .expect("a leaf has one remaining edge");
            // `z` as the source keeps the targets `Post_M(dom(z))` for `x`.
            let (x, dir) = if edges[i].src.index() == z {
                (edges[i].dst, Direction::Forward)
            } else {
                (edges[i].src, Direction::Backward)
            };
            let Some(image) = edges[i].cache.image(db, &self.doms[z], dir) else {
                break; // tripped: the domains stay as they were
            };
            gov.charge_mem(self.universe.div_ceil(8));
            let d = &mut self.doms[x.index()];
            d.intersect_with(&image);
            self.sizes[x.index()] = d.count();
            out.peeled[i] = true;
            out.vars += 1;
            degree[z] -= 1;
            degree[x.index()] -= 1;
            if self.sizes[x.index()] == 0 {
                out.emptied = true;
                break;
            }
            if leaf(x.index(), &degree) {
                stack.push(x.index());
            }
        }
        out
    }

    /// Narrows the source domain of every edge not flagged in `skip` that
    /// runs between two full domains and whose words all have two or more
    /// letters: `dom(src) ∩= Pre_M(dom(dst))` by one set sweep, so the
    /// first semi-join pass fills rows only for sources that reach
    /// something. A governor trip stops before the interrupted sweep
    /// touches any domain.
    pub fn narrow_sources(
        &mut self,
        db: &GraphDb,
        edges: &mut [FreeEdge],
        skip: &[bool],
        gov: &Governor,
    ) -> Narrowed {
        let mut out = Narrowed::default();
        for (i, e) in edges.iter_mut().enumerate() {
            let (s, d) = (e.src.index(), e.dst.index());
            if skip.get(i).copied().unwrap_or(false)
                || s == d
                || self.sizes[s] != self.universe
                || self.sizes[d] != self.universe
                || !crate::plan::multi_step(e.cache.nfa())
            {
                continue;
            }
            let Some(image) = e.cache.image(db, &self.doms[d], Direction::Backward) else {
                break;
            };
            gov.charge_mem(self.universe.div_ceil(8));
            self.doms[s].intersect_with(&image);
            self.sizes[s] = self.doms[s].count();
            out.domains += 1;
            if self.sizes[s] == 0 {
                out.emptied = true;
                break;
            }
        }
        out
    }

    /// Runs semi-join passes to a fixpoint or `max_rounds`, cheapest edge
    /// first when per-edge `costs` (index-aligned with `edges`, which may
    /// include synthesized group-walker edges beyond the plan's real ones)
    /// are given. Edges flagged in `skip` (a [`Peel`]'s `peeled`, possibly
    /// shorter than `edges`) are left out. Domains of variables in no
    /// visited edge are untouched.
    pub fn prune(
        &mut self,
        db: &GraphDb,
        edges: &mut [FreeEdge],
        costs: Option<&[u64]>,
        skip: &[bool],
        max_rounds: usize,
        gov: &Governor,
    ) -> PruneOutcome {
        let mut out = PruneOutcome::default();
        let mut order: Vec<usize> = (0..edges.len())
            .filter(|&i| !skip.get(i).copied().unwrap_or(false))
            .collect();
        if order.is_empty() || max_rounds == 0 {
            return out;
        }
        if let Some(c) = costs {
            debug_assert_eq!(c.len(), edges.len());
            order.sort_by_key(|&i| (c[i], i));
        }
        for _ in 0..max_rounds {
            if gov.is_aborted() {
                break; // fixpoint abandoned; domains only ever shrank
            }
            out.rounds += 1;
            let changed = self.pass(db, edges, &order, gov);
            let emptied = order.iter().any(|&i| {
                self.sizes[edges[i].src.index()] == 0 || self.sizes[edges[i].dst.index()] == 0
            });
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
        let out = doms.prune(&db, &mut edges, None, &[], 8, Governor::disabled());
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
        let out = doms.prune(&db, &mut edges, None, &[], 8, Governor::disabled());
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
        let out = doms.prune(&db, &mut edges, None, &[], 8, Governor::disabled());
        assert!(out.emptied);
    }

    #[test]
    fn singleton_pairs_are_decided_by_one_pair_search() {
        let (db, nodes) = line_db("abcab");
        let mut edges = vec![edge(&db, 0, 1, "a(b|c)*")];
        let mut doms = Domains::full(2, db.node_count());
        doms.pin(NodeVar(0), nodes[0]);
        doms.pin(NodeVar(1), nodes[3]);
        let out = doms.prune(&db, &mut edges, None, &[], 8, Governor::disabled());
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
        let out = doms.prune(&db, &mut edges, None, &[], 8, Governor::disabled());
        assert!(out.emptied);
        assert_eq!((doms.size(NodeVar(0)), doms.size(NodeVar(1))), (0, 0));
    }

    #[test]
    fn peel_discharges_existential_trees_bottom_up() {
        let (db, nodes) = line_db("abc");
        let frozen = [true, false, false];
        let off = Governor::disabled();
        // Star around the output x: x -b-> y and z -a-> x.
        let mut star = vec![edge(&db, 0, 1, "b"), edge(&db, 2, 0, "a")];
        let mut doms = Domains::full(3, db.node_count());
        let out = doms.peel(&db, &mut star, &frozen, off);
        assert_eq!(
            (out.peeled, out.vars, out.emptied),
            (vec![true, true], 2, false)
        );
        assert_eq!(doms.members(NodeVar(0)), vec![nodes[1]]);
        // Chain x -a-> y -b-> z with output x: z peels into y, then y into x.
        let mut chain = vec![edge(&db, 0, 1, "a"), edge(&db, 1, 2, "b")];
        let mut doms = Domains::full(3, db.node_count());
        let out = doms.peel(&db, &mut chain, &frozen, off);
        assert_eq!(out.vars, 2);
        assert_eq!(doms.members(NodeVar(1)), vec![nodes[1]]);
        assert_eq!(doms.members(NodeVar(0)), vec![nodes[0]]);
        // The semi-join passes skip the peeled edges.
        let pruned = doms.prune(&db, &mut chain, None, &out.peeled, 8, off);
        assert_eq!(pruned.rounds, 0);
    }

    #[test]
    fn peel_keeps_frozen_variables_and_reports_emptied() {
        let (db, _) = line_db("abc");
        let mut edges = vec![edge(&db, 0, 1, "a")];
        let mut doms = Domains::full(2, db.node_count());
        let out = doms.peel(&db, &mut edges, &[true, true], Governor::disabled());
        assert_eq!((out.peeled, out.vars), (vec![false], 0));
        let mut dead = vec![edge(&db, 0, 1, "cc")];
        let mut doms = Domains::full(2, db.node_count());
        let out = doms.peel(&db, &mut dead, &[true, false], Governor::disabled());
        assert!(out.emptied);
        assert_eq!(doms.size(NodeVar(0)), 0);
    }

    #[test]
    fn narrowing_keeps_sources_that_reach_a_target() {
        let (db, nodes) = line_db(&"abcab".repeat(20));
        let off = Governor::disabled();
        // ab is multi-step: only the nodes before each ab start an ab path.
        let mut edges = vec![edge(&db, 0, 1, "ab"), edge(&db, 1, 2, "c")];
        let mut doms = Domains::full(3, db.node_count());
        let out = doms.narrow_sources(&db, &mut edges, &[], off);
        assert_eq!((out.domains, out.emptied), (1, false));
        let starts: Vec<NodeId> = (0..20)
            .flat_map(|k| [nodes[5 * k], nodes[5 * k + 3]])
            .collect();
        assert_eq!(doms.members(NodeVar(0)), starts);
        // The one-letter atom and the touched domain are left alone.
        assert_eq!(doms.size(NodeVar(1)), db.node_count());
        let mut dead = vec![edge(&db, 0, 1, "cc")];
        let mut doms = Domains::full(2, db.node_count());
        assert!(
            doms.narrow_sources(&db, &mut dead, &[], off).emptied,
            "no cc path"
        );
        // Narrowing is the same on a graph of a few nodes.
        let (db, nodes) = line_db("cab");
        let mut edges = vec![edge(&db, 0, 1, "ab")];
        let mut doms = Domains::full(2, db.node_count());
        assert_eq!(doms.narrow_sources(&db, &mut edges, &[], off).domains, 1);
        assert_eq!(doms.members(NodeVar(0)), vec![nodes[1]]);
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
        let out = doms.prune(&db, &mut edges, None, &[], 8, Governor::disabled());
        assert!(!out.emptied);
        assert_eq!(doms.members(NodeVar(0)), vec![n0, n1]);

        let mut edges2 = vec![edge(&db, 0, 0, "ab")];
        let mut doms2 = Domains::full(1, db.node_count());
        let out2 = doms2.prune(&db, &mut edges2, None, &[], 8, Governor::disabled());
        assert!(out2.emptied);
    }
}
