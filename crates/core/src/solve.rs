//! A three-phase pipeline solver for conjunctive path constraints.
//!
//! All evaluators in this crate reduce to the same search problem: find a
//! matching morphism `h : V_q → V_D` such that
//!
//! - every *free edge* `(x, M, y)` is witnessed by a path `h(x) →* h(y)`
//!   labelled by a word of `L(M)` (single-walker product reachability), and
//! - every *group* `((x₁…x_s), (y₁…y_s), spec)` is witnessed by a tuple of
//!   paths `h(xᵢ) →* h(yᵢ)` whose labels jointly satisfy the group's
//!   [`SyncSpec`] (synchronized product search).
//!
//! CRPQs use only free edges; simple CXRPQs (Lemma 3) add equality groups
//! per string variable; ECRPQs add arbitrary regular-relation groups.
//!
//! [`Problem::solve`] runs three phases (see [`SolveOptions`] for the
//! knobs; [`SolveOptions::naive`] restores the historical single-pass
//! backtracker as a differential-testing reference):
//!
//! 1. **Plan** ([`crate::plan`]) — build the constraint graph over node
//!    variables, estimate per-constraint selectivity from CSR label
//!    statistics, emit a connected cheapest-first variable order.
//! 2. **Prune** ([`crate::domains`]) — semi-join reduction of per-variable
//!    candidate domains to a (capped) fixpoint, reading one memoized reach
//!    row per member of each edge's smaller endpoint domain. Pinned
//!    bindings collapse their domains to
//!    singletons first; an emptied domain ends the search without
//!    enumeration. Groups contribute necessary conditions: one synthesized
//!    pruning-only edge per selective group walker (def-language
//!    reachability for equality groups), joined into the same fixpoint and
//!    dropped before enumeration.
//!    On unpinned runs under projection pushdown with the analyzer on,
//!    existential leaves are peeled first, one set sweep each
//!    ([`Domains::peel`]), and their edges start enumeration done; the
//!    analyzer has already contracted degree-2 existential variables into
//!    concatenated atoms in phase 0.
//! 3. **Enumerate** — bind variables one at a time in plan order, checking
//!    fully bound constraints eagerly; early-exit semantics (`on_solution`
//!    returning `true`) are unchanged.
//!
//! **One candidate loop.** Outside the group step, every variable is bound
//! by one routine, `Problem::extend`. Its *proposers* are the pending free
//! edges whose other endpoint is already bound; each supports a sorted set
//! of candidates for the variable, and binding a candidate they all
//! support discharges all of them at once (they are marked done for the
//! subtree). The candidate stream follows the number of proposers:
//!
//! - none (a seed, or a required variable no constraint mentions): the
//!   pruned domain, or every node;
//! - one: its memoized reach row, filtered by the domain;
//! - two or more: a worst-case-optimal leapfrog intersection. Binary
//!   extension along one edge would materialize every `(x, y, z)` wedge of
//!   a triangle `x -a-> y -b-> z -c-> x` before the closing atom filters
//!   it; instead every proposer contributes its sorted set, the pruned
//!   domain joins as one more, and a seek-to-max sweep with binary-search
//!   `seek_ge` emits exactly the common members. Two set kinds feed it:
//!   direct merged CSR [`EdgeRun`]s for atoms whose language is a set of
//!   single-symbol words (the database rows *are* their reach adjacency),
//!   and the [`ReachCache`]'s memoized rows (ascending) for general
//!   regular-path atoms.
//!
//! Whether a core is cyclic is thus decided at run time, by how many bound
//! constraints meet the variable being extended, not by a static
//! classification. The naive reference ([`SolveOptions::naive`]) lets only
//! the first half-bound edge in query-text order propose, which keeps it
//! the historical binary backtracker. Governor checkpoints and
//! projection-pushdown dedup are the same on every stream — an intersected
//! binding is a binding like any other.
//!
//! **Projection pushdown** ([`SolveOptions::projected`]): when on, the
//! `required` tuple is treated as an *output projection*. Variables outside
//! it are *existential* — the moment every output variable is bound, the
//! projected tuple of the whole subtree below is fixed, so the enumerator
//! asks for a single witness of the remaining constraints (an early-exiting
//! sub-search) instead of backtracking over every completion, and emits
//! each distinct projected tuple exactly once (deduplicated at the
//! enumerator with packed-key sets, never by materializing full morphisms).
//! When the last output variable is bound and every pending constraint is
//! one of its proposers, the candidate stream itself is the witness
//! (after a leapfrog intersection too): candidates are
//! emitted leaf-positioned with no sub-search at all. Boolean calls (empty
//! output) are the degenerate case where *every* variable is existential —
//! on satisfiable arc-consistent instances the enumerator then performs
//! zero backtracking steps ([`PipelineStats::backtrack_steps`]).
//!
//! Under projection, `on_solution` observes bindings in which all
//! *required* variables are bound; existential variables may be `None`
//! (they are restored by the witness sub-search on its way out).

use crate::domains::{Domains, Peel};
use crate::evaluate::{Answer, Outcome, Request};
use crate::governor::Governor;
use crate::pattern::NodeVar;
use crate::plan::{single_step_symbols, SolvePlan};
use crate::reach::{NodeHashSeed, ReachCache, ReachRow, ReachStats};
use crate::sync::{sync_sources_governed, sync_targets_governed, SyncSearch, SyncSpec};
use crate::witness::{pin_tuple, QueryWitness};
use cxrpq_automata::Nfa;
use cxrpq_graph::{DenseBitSet, EdgeRun, GraphDb, NodeId, Symbol};
use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A single-walker constraint `(src) -L(M)-> (dst)`.
pub struct FreeEdge {
    /// Source node variable.
    pub src: NodeVar,
    /// Target node variable.
    pub dst: NodeVar,
    /// Reachability cache for the edge automaton.
    pub cache: ReachCache,
}

impl FreeEdge {
    /// The edge's candidate targets (or sources, `forward: false`) of
    /// `from`: the memoized reach row, ascending.
    fn row(&mut self, db: &GraphDb, from: NodeId, forward: bool) -> ReachRow {
        if forward {
            self.cache.targets(db, from)
        } else {
            self.cache.sources(db, from)
        }
    }
}

/// A synchronized multi-walker constraint.
pub struct Group {
    /// Source node variable per walker.
    pub srcs: Vec<NodeVar>,
    /// Target node variable per walker.
    pub dsts: Vec<NodeVar>,
    /// The group specification (per-walker NFAs + relation).
    pub spec: SyncSpec,
    reversed: Option<SyncSpec>,
}

impl Group {
    /// Creates a group constraint.
    pub fn new(srcs: Vec<NodeVar>, dsts: Vec<NodeVar>, spec: SyncSpec) -> Self {
        assert_eq!(srcs.len(), spec.arity());
        assert_eq!(dsts.len(), spec.arity());
        Self {
            srcs,
            dsts,
            spec,
            reversed: None,
        }
    }

    /// Computes and caches the reversed spec; later uses borrow the cached
    /// value instead of cloning it.
    fn ensure_reversed(&mut self) {
        if self.reversed.is_none() {
            self.reversed = Some(self.spec.reversed());
        }
    }
}

/// Knobs for [`Problem::solve_with`]: which pipeline phases run.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Phase 1: order variables and constraints by estimated cost (off =
    /// query-text order).
    pub plan: bool,
    /// Phase 2: semi-join domain reduction before enumeration.
    pub prune: bool,
    /// A safety cap on semi-join passes: the prune stops by itself at its
    /// fixpoint or once a pass stops shrinking the domains by much (see
    /// [`crate::domains`]), so the cap only bounds what a pathological
    /// problem can cost.
    pub max_prune_rounds: usize,
    /// Skip the prune phase when no binding is pinned: without a pinned
    /// singleton to seed the fixpoint, the first pass builds a row for
    /// every node of every edge — one BFS per node per edge — which can
    /// dwarf a search that exits on its first candidates. Early-exiting
    /// calls (`boolean`) set this and stay lazy; pinned calls
    /// (`check`/`witness_for`) still prune, because a singleton-seeded
    /// semi-join is one search from the pinned side. Exhaustive
    /// enumeration leaves it off (it sweeps most sources anyway, so the
    /// rows are never wasted).
    pub lazy_unpinned: bool,
    /// Projection pushdown: treat `required` as the output projection,
    /// existentially eliminate every other variable (one witness instead
    /// of full backtracking once all outputs are bound) and report each
    /// distinct projected tuple exactly once. Off in every preset —
    /// callers that only read the required variables opt in via
    /// [`SolveOptions::projected`]; callers that read the full morphism
    /// (witness extraction, raw `solve` uses) must leave it off.
    pub project: bool,
    /// Phase 0: static query analysis ([`crate::analyze`]) before
    /// planning — emptiness/footprint refutation (empty answers with zero
    /// search steps), ε-only variable unification, containment-based atom
    /// subsumption and Σ*-universality flagging, with a
    /// [`Diagnostics`](crate::diagnostics::Diagnostics) report in
    /// [`PipelineStats::analysis`]. On in the pipeline presets; the naive
    /// preset stays unanalyzed as the differential reference.
    pub analyze: bool,
    /// Resource governor for this run (`None` = ungoverned): every search
    /// phase checkpoints against it, and a trip drains the whole pipeline
    /// cooperatively — `solve_with` then returns having reported only a
    /// (sound, partial) subset of solutions, with every [`ReachCache`]
    /// guaranteed free of partially-filled entries. Read the verdict from
    /// the governor afterwards ([`Governor::verdict`]).
    pub governor: Option<Arc<Governor>>,
    /// A previously built [`SolvePlan`] to reuse instead of rebuilding in
    /// phase 1 (the [`crate::cache::QueryCache`] hit path). Only consulted
    /// on unpinned runs whose problem shape matches the seed (variable,
    /// edge, and group counts) — a pinned binding or a shape mismatch
    /// falls back to a fresh build, so a stale seed can cost time but
    /// never correctness: the plan only orders the search.
    pub plan_seed: Option<Arc<SolvePlan>>,
}

impl SolveOptions {
    /// State budget per bounded inclusion/universality check in the
    /// analyzer; checks that exceed it are abandoned (both atoms kept,
    /// `containment-capped` diagnostic).
    pub const DEFAULT_CONTAINMENT_BUDGET: usize = 512;

    /// The full pipeline for exhaustive enumeration (`answers`-style calls).
    pub fn pipeline() -> Self {
        Self {
            plan: true,
            prune: true,
            max_prune_rounds: 8,
            lazy_unpinned: false,
            project: false,
            analyze: true,
            governor: None,
            plan_seed: None,
        }
    }

    /// The pipeline with a low round cap, for early-exiting calls
    /// (`boolean`/`check`/`witness`) where a long fixpoint chase can cost
    /// more than the search it prunes; unpinned calls skip pruning
    /// entirely and stay lazy (see [`SolveOptions::lazy_unpinned`]).
    pub fn early_exit() -> Self {
        Self {
            plan: true,
            prune: true,
            max_prune_rounds: 2,
            lazy_unpinned: true,
            project: false,
            analyze: true,
            governor: None,
            plan_seed: None,
        }
    }

    /// The historical behavior: no planning, no pruning, no analysis,
    /// query-text order, and only the first half-bound edge proposes
    /// candidates (binary extension, never an intersection). Retained as
    /// the reference path for differential tests and the
    /// `e18_solver_pipeline` baseline.
    pub fn naive() -> Self {
        Self {
            plan: false,
            prune: false,
            max_prune_rounds: 0,
            lazy_unpinned: false,
            project: false,
            analyze: false,
            governor: None,
            plan_seed: None,
        }
    }

    /// Turns on projection pushdown (see [`SolveOptions::project`]);
    /// composes with any preset, e.g.
    /// `SolveOptions::pipeline().projected()`.
    pub fn projected(mut self) -> Self {
        self.project = true;
        self
    }

    /// Turns off the static analyzer (see [`SolveOptions::analyze`]);
    /// composes with any preset. The differential property suite runs
    /// every preset both analyzed and unanalyzed.
    pub fn unanalyzed(mut self) -> Self {
        self.analyze = false;
        self
    }

    /// Attaches a resource governor (see [`SolveOptions::governor`]);
    /// composes with any preset, e.g.
    /// `SolveOptions::pipeline().governed(gov)`.
    pub fn governed(mut self, gov: Arc<Governor>) -> Self {
        self.governor = Some(gov);
        self
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self::pipeline()
    }
}

/// Per-phase observability for one [`Problem::solve_with`] run.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// The plan's variable order (empty when planning was off).
    pub var_order: Vec<NodeVar>,
    /// Estimated cost per free edge (plan phase).
    pub edge_cost: Vec<u64>,
    /// Estimated cost per group (plan phase).
    pub group_cost: Vec<u64>,
    /// Semi-join passes that joined at least one edge (0 when pruning was
    /// off or trivial). A pass joins only the edges whose endpoint domains
    /// shrank since their last join, so a one-edge problem reads 1.
    pub rounds: usize,
    /// Domain size per node variable before pruning (pinned variables are
    /// already singletons here).
    pub domain_before: Vec<usize>,
    /// Domain size per node variable after pruning.
    pub domain_after: Vec<usize>,
    /// Existential leaf variables peeled in phase 2: each leaf's edge was
    /// discharged by one set-level sweep into its neighbour's domain
    /// ([`Domains::peel`]) and never enumerated (0 without projection
    /// pushdown or analysis).
    pub peeled_vars: usize,
    /// Variables in the plan's existential suffix, eliminated by
    /// projection pushdown instead of being backtracked over (0 when
    /// [`SolveOptions::project`] is off; the whole variable order for
    /// Boolean calls).
    pub eliminated_vars: usize,
    /// Enumeration-phase backtracking steps: candidate bindings retracted
    /// after their subtree was exhausted without reporting any solution
    /// (a candidate whose subtree emitted tuples and then continued is
    /// productive, not a backtrack). Zero on satisfiable arc-consistent
    /// Boolean instances (the existential fast path takes the first
    /// supported candidate at every level).
    pub backtrack_steps: usize,
    /// `seek_ge` probes issued by leapfrog intersections during
    /// enumeration (0 when no variable had two or more proposers).
    pub intersection_seeks: usize,
    /// The static analyzer's report (`None` when [`SolveOptions::analyze`]
    /// was off). A statically refuted query records `analysis` with
    /// `stats.unsat == true` and all other fields empty: no plan, no
    /// prune, `backtrack_steps == 0`.
    pub analysis: Option<crate::analyze::AnalysisReport>,
    /// The phase-1 plan this run used (freshly built or replayed from
    /// [`SolveOptions::plan_seed`]); `None` when planning and pruning were
    /// both off. The [`crate::cache::QueryCache`] harvests this to seed
    /// later runs of the same query.
    pub plan_artifact: Option<Arc<SolvePlan>>,
}

impl PipelineStats {
    /// Sum of domain sizes before pruning.
    pub fn total_before(&self) -> usize {
        self.domain_before.iter().sum()
    }

    /// Sum of domain sizes after pruning.
    pub fn total_after(&self) -> usize {
        self.domain_after.iter().sum()
    }
}

/// What phase 0 (the analyzer) hands phases 1–3; the default when no
/// analysis ran.
#[derive(Clone, Copy, Default)]
struct PhaseZero<'a> {
    /// Σ*-universal free edges, which the planner orders last.
    universal: &'a [bool],
    /// Under projection pushdown, the variables elimination keeps
    /// (outputs, pinned variables and group endpoints, on the rewritten
    /// problem's representatives); an unpinned run peels every other
    /// leaf before the semi-join passes.
    frozen: Option<&'a [bool]>,
}

/// The constraint-solving problem.
pub struct Problem {
    /// Number of node variables.
    pub node_count: usize,
    /// Single-walker constraints.
    pub free_edges: Vec<FreeEdge>,
    /// Synchronized-group constraints.
    pub groups: Vec<Group>,
    /// Exploration statistics (product states visited across all searches).
    pub stats: ReachStats,
    /// Per-phase statistics of the most recent [`Problem::solve_with`] run
    /// (`None` for naive runs).
    pub pipeline: Option<PipelineStats>,
}

/// Shared read-only context for one enumeration (phase 3).
struct EnumCtx<'a> {
    plan: Option<&'a SolvePlan>,
    domains: Option<&'a Domains>,
    /// The run's governor (the shared disabled one when ungoverned): one
    /// checkpoint per recursion node, candidate loops drain on a trip.
    gov: &'a Governor,
    /// Per free edge: the accepted symbols when the atom's language is a
    /// set of single-symbol words, so its intersection sets are direct CSR
    /// runs ([`single_step_symbols`]); `None` routes through the memoized
    /// reach rows. Built by the first intersection.
    single_step: OnceCell<Vec<Option<Vec<Symbol>>>>,
}

impl EnumCtx<'_> {
    #[inline]
    fn admits(&self, v: NodeVar, n: NodeId) -> bool {
        self.domains.is_none_or(|d| d.contains(v, n))
    }
}

/// A pending free edge whose other endpoint is bound: `(edge, forward,
/// from)`, where `forward` says the edge runs from `from` to the variable.
type Proposer = (usize, bool, NodeId);

/// One sorted ascending candidate set of a leapfrog intersection, with a
/// monotone `seek_ge` cursor (see the module docs).
enum SortedSet<'a> {
    /// A single-step atom's candidates straight off the CSR: one merged
    /// base+delta run per accepted symbol, each `(label, neighbour)`-sorted
    /// — the union view seeks every run and takes the minimum.
    Runs(Vec<(Symbol, EdgeRun<'a>)>),
    /// A general regular-path atom's reach row, shared with the
    /// [`ReachCache`]'s memo.
    Row(ReachRow, usize),
    /// The variable's pruned domain.
    Bits(&'a DenseBitSet),
}

impl SortedSet<'_> {
    /// The smallest member `≥ n`, or `None` when the set is exhausted
    /// above it. Callers seek with non-decreasing `n` (the leapfrog
    /// frontier), which lets the row cursor advance monotonically.
    #[inline]
    fn seek_ge(&mut self, n: NodeId) -> Option<NodeId> {
        match self {
            SortedSet::Runs(runs) => runs
                .iter()
                .filter_map(|&(a, r)| r.seek_ge((a, n)).map(|(_, v)| v))
                .min(),
            SortedSet::Row(row, pos) => {
                *pos += row[*pos..].partition_point(|&v| v < n);
                row.get(*pos).copied()
            }
            SortedSet::Bits(b) => b.seek_ge(n.index()).map(|i| NodeId(i as u32)),
        }
    }
}

/// The candidate stream of one `Problem::extend` call, by the number of
/// proposers; every stream is ascending in node order.
enum Candidates<'a> {
    /// No proposer: the pruned domain, or every node.
    Sweep(Box<dyn Iterator<Item = NodeId> + 'a>),
    /// One proposer: its memoized row, filtered by the domain.
    Row(ReachRow, usize),
    /// Two or more: the leapfrog over their sets and the domain's. `hi`
    /// is the frontier (`None` once exhausted), `idx` the set to seek
    /// next.
    Leapfrog {
        sets: Vec<SortedSet<'a>>,
        hi: Option<NodeId>,
        idx: usize,
    },
}

impl Candidates<'_> {
    /// The next candidate for `var`. The reach rows the recursion reads
    /// after binding a swept candidate are built one source at a time, on
    /// demand, so a call that succeeds among the first candidates (the
    /// common early exit) builds no more rows than it reads. An
    /// intersection counts its seeks and checkpoints once per 64 of them,
    /// so governed runs drain mid-intersection too.
    fn next(&mut self, var: NodeVar, ctx: &EnumCtx<'_>, st: &mut EnumState) -> Option<NodeId> {
        match self {
            Candidates::Sweep(nodes) => nodes.next(),
            Candidates::Row(row, pos) => {
                while let Some(&c) = row.get(*pos) {
                    *pos += 1;
                    if ctx.admits(var, c) {
                        return Some(c);
                    }
                }
                None
            }
            Candidates::Leapfrog { sets, hi, idx } => {
                let mut frontier = (*hi)?;
                let mut matched = 0;
                while matched < sets.len() {
                    if st.seeks.is_multiple_of(64) && !ctx.gov.checkpoint() {
                        *hi = None;
                        return None;
                    }
                    st.seeks += 1;
                    let Some(n) = sets[*idx].seek_ge(frontier) else {
                        *hi = None;
                        return None;
                    };
                    if n == frontier {
                        matched += 1;
                    } else {
                        frontier = n;
                        matched = 1;
                    }
                    *idx = (*idx + 1) % sets.len();
                }
                // `frontier` is in every candidate set (and the domain).
                *hi = frontier.0.checked_add(1).map(NodeId);
                Some(frontier)
            }
        }
    }
}

/// Projected tuples already emitted, keyed exactly: arities ≤ 4 pack the
/// `u32` node ids into one `u128` (collision-free), wider tuples fall back
/// to boxed slices (probed without allocating via `Borrow<[NodeId]>`).
enum ProjSeen {
    Small(HashSet<u128, NodeHashSeed>),
    Wide(HashSet<Box<[NodeId]>, NodeHashSeed>),
}

impl ProjSeen {
    fn new(arity: usize) -> Self {
        if arity <= 4 {
            Self::Small(HashSet::default())
        } else {
            Self::Wide(HashSet::default())
        }
    }
}

/// Mutable enumeration state threaded through the recursion.
struct EnumState {
    bindings: Vec<Option<NodeId>>,
    edge_done: Vec<bool>,
    group_done: Vec<bool>,
    /// The required (output) tuple, in projection order.
    required: Vec<NodeVar>,
    /// `is_output[v]` — whether variable `v` occurs in `required`.
    is_output: Vec<bool>,
    /// Distinct required variables currently unbound; the existential
    /// cutoff fires when this reaches zero under projection.
    unbound_outputs: usize,
    /// Projection pushdown on for this run.
    project: bool,
    /// Inside a one-witness sub-search (suppresses nested cutoffs).
    existential: bool,
    /// Whether duplicate projections are possible at all: false when every
    /// constrained variable is an output variable (distinct full
    /// assignments then project to distinct tuples), letting hot loops
    /// skip the seen-set entirely.
    dedup_needed: bool,
    seen: ProjSeen,
    /// Reusable projection buffer for wide-arity probes.
    proj_buf: Vec<NodeId>,
    /// Solutions reported plus duplicates suppressed so far; loops compare
    /// it across a recursion to tell a fruitless subtree from one that
    /// either emitted and continued or was pruned as pure redundancy.
    progress: u64,
    /// Candidate bindings retracted after a fruitless subtree.
    backtracks: usize,
    /// `seek_ge` probes issued by leapfrog intersections.
    seeks: usize,
}

impl EnumState {
    #[inline]
    fn bind(&mut self, v: NodeVar, n: NodeId) {
        debug_assert!(self.bindings[v.index()].is_none());
        self.bindings[v.index()] = Some(n);
        if self.is_output[v.index()] {
            self.unbound_outputs -= 1;
        }
    }

    #[inline]
    fn unbind(&mut self, v: NodeVar) {
        debug_assert!(self.bindings[v.index()].is_some());
        if self.is_output[v.index()] {
            self.unbound_outputs += 1;
        }
        self.bindings[v.index()] = None;
    }

    /// Whether the current projection (all required variables are bound
    /// when this is called) was already emitted; with `insert`, it is
    /// marked emitted as well. Small arities pack the ids into one `u128`
    /// key: the leading 1 bit distinguishes shorter tuples from
    /// zero-padded longer ones at arities ≤ 3; at arity 4 the four 32-bit
    /// ids fill the `u128` exactly and the sentinel shifts out, which is
    /// still collision-free because every key of one run has the same
    /// arity — the seen-set never mixes arities. (Raising the small-arity
    /// bound past 4 would truncate ids; `ProjSeen::new` gates on it.)
    fn probe_seen(&mut self, insert: bool) -> bool {
        let Self {
            seen,
            required,
            bindings,
            proj_buf,
            ..
        } = self;
        let node = |v: &NodeVar| bindings[v.index()].expect("projection variable bound");
        match seen {
            ProjSeen::Small(s) => {
                let key = required
                    .iter()
                    .fold(1u128, |key, v| (key << 32) | node(v).0 as u128);
                if insert {
                    !s.insert(key)
                } else {
                    s.contains(&key)
                }
            }
            ProjSeen::Wide(s) => {
                proj_buf.clear();
                proj_buf.extend(required.iter().map(node));
                let hit = s.contains(proj_buf.as_slice());
                if insert && !hit {
                    s.insert(proj_buf.as_slice().into());
                }
                hit
            }
        }
    }
}

impl Problem {
    /// An empty problem over `node_count` node variables.
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            free_edges: Vec::new(),
            groups: Vec::new(),
            stats: ReachStats::default(),
            pipeline: None,
        }
    }

    /// Synthesized pruning-only edges from the groups' necessary
    /// conditions: every walker `i` of a group must connect `srcs[i]` to
    /// `dsts[i]` under its own automaton `nfas[i]`; for equality relations
    /// the shared word lies in *every* member language, so each member
    /// automaton is a necessary condition for every walker and the most
    /// selective one serves all endpoint pairs (an undefined equality
    /// group's Σ* members therefore borrow the definition, and a Σ*-first
    /// member list still benefits from a selective reference). Unselective
    /// automata ([`walker_prune_cost`](crate::plan) returns `None`) are
    /// skipped: their semi-join would sweep everything and keep everything.
    ///
    /// Each walker gets its own [`ReachCache`] even when several share one
    /// automaton: rows are built only over each walker's own
    /// endpoint domain, so the overlap a shared memo would save is
    /// partial, and group arities are small. Revisit if wide groups show
    /// up in profiles.
    fn group_prune_edges(&self, db: &GraphDb) -> (Vec<FreeEdge>, Vec<u64>) {
        let mut edges = Vec::new();
        let mut costs = Vec::new();
        for g in &self.groups {
            if g.spec.relation.is_equality() {
                let best = (0..g.spec.arity())
                    .filter_map(|j| {
                        crate::plan::walker_prune_cost(&g.spec.nfas[j], db).map(|c| (c, j))
                    })
                    .min();
                if let Some((cost, j)) = best {
                    for i in 0..g.spec.arity() {
                        edges.push(FreeEdge {
                            src: g.srcs[i],
                            dst: g.dsts[i],
                            cache: ReachCache::new(g.spec.nfas[j].clone()),
                        });
                        costs.push(cost);
                    }
                }
            } else {
                for i in 0..g.spec.arity() {
                    let Some(cost) = crate::plan::walker_prune_cost(&g.spec.nfas[i], db) else {
                        continue;
                    };
                    edges.push(FreeEdge {
                        src: g.srcs[i],
                        dst: g.dsts[i],
                        cache: ReachCache::new(g.spec.nfas[i].clone()),
                    });
                    costs.push(cost);
                }
            }
        }
        (edges, costs)
    }

    /// Runs the solver with the default (full) pipeline. `pinned` pre-binds
    /// node variables (the Check problem); `required` lists variables that
    /// must be bound in every reported solution even when unconstrained
    /// (output variables). `on_solution` returns `true` to stop the search.
    pub fn solve(
        &mut self,
        db: &GraphDb,
        pinned: &HashMap<NodeVar, NodeId>,
        required: &[NodeVar],
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        self.solve_with(db, pinned, required, &SolveOptions::default(), on_solution)
    }

    /// [`Problem::solve`] with explicit pipeline knobs.
    ///
    /// When [`SolveOptions::analyze`] is on, phase 0 runs the static
    /// analyzer ([`crate::analyze`]) first: a statically refuted query
    /// (empty-language atom, footprint miss, conflicting pins on unified
    /// variables) returns `false` with no search at all; ε-only atoms
    /// unify their endpoint variables; subsumed parallel atoms are
    /// dropped; under [`SolveOptions::project`] existential degree-2
    /// variables are contracted away. The rewrite is applied for the
    /// duration of this call only — the problem's constraints are restored
    /// on the way out, so repeated `solve_with` calls observe the original
    /// query. Merged-away variables inherit their representative's image in
    /// what `on_solution` sees; contracted variables, like eliminated and
    /// peeled ones, stay `None` (only `required` variables are always
    /// bound).
    pub fn solve_with(
        &mut self,
        db: &GraphDb,
        pinned: &HashMap<NodeVar, NodeId>,
        required: &[NodeVar],
        opts: &SolveOptions,
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        self.pipeline = None;
        // A pinned node outside the database can never be the image of a
        // morphism: no solutions (and no out-of-bounds product search).
        if pinned.values().any(|n| n.index() >= db.node_count()) {
            return false;
        }
        if !opts.analyze {
            return self.solve_core(
                db,
                pinned,
                required,
                opts,
                PhaseZero::default(),
                on_solution,
            );
        }

        // Phase 0: static analysis. Under projection pushdown the outputs,
        // the pinned variables and the group endpoints are kept; the
        // analyzer contracts other degree-2 variables and phase 2 peels
        // other leaves.
        let frozen: Option<Vec<bool>> = opts.project.then(|| {
            let mut frozen = vec![false; self.node_count];
            let group_vars = self
                .groups
                .iter()
                .flat_map(|g| g.srcs.iter().chain(&g.dsts));
            for v in required.iter().chain(pinned.keys()).chain(group_vars) {
                frozen[v.index()] = true;
            }
            frozen
        });
        let crate::analyze::Analysis {
            mut report,
            var_rep,
            drop_edges,
            universal,
            contractions,
        } = crate::analyze::analyze(
            self.node_count,
            &self.free_edges,
            &self.groups,
            db,
            &crate::analyze::AnalyzeOptions {
                containment_budget: SolveOptions::DEFAULT_CONTAINMENT_BUDGET,
            },
            frozen.as_deref(),
        );

        // Pins on ε-unified variables must agree on one image; a conflict
        // is as unsatisfiable as an empty atom.
        let mut pinned_rep: HashMap<NodeVar, NodeId> = HashMap::with_capacity(pinned.len());
        for (&v, &n) in pinned {
            let rep = NodeVar(var_rep[v.index()] as u32);
            if *pinned_rep.entry(rep).or_insert(n) != n {
                report.stats.unsat = true;
            }
        }
        if report.stats.unsat {
            // Statically refuted: empty answers, zero search steps, no
            // plan/prune/enumerate at all.
            self.pipeline = Some(PipelineStats {
                analysis: Some(report),
                ..PipelineStats::default()
            });
            return false;
        }

        // Apply the rewrite: build the contracted atoms, park dropped and
        // contracted atoms, remap surviving endpoints onto their
        // union-find representatives, and remember enough to restore the
        // original query afterwards.
        let merged: Vec<(usize, usize)> = (0..self.node_count)
            .map(|v| (v, var_rep[v]))
            .filter(|&(v, r)| v != r)
            .collect();
        let contracted = self.contracted_edges(&contractions);
        let mut park = drop_edges;
        for c in &contractions {
            for i in [c.first, c.second] {
                if let Some(p) = park.get_mut(i) {
                    *p = true;
                }
            }
        }
        let mut parked: Vec<(usize, FreeEdge)> = Vec::new();
        for i in (0..park.len()).rev() {
            if park[i] {
                parked.push((i, self.free_edges.remove(i)));
            }
        }
        let mut universal_kept: Vec<bool> = universal
            .iter()
            .enumerate()
            .filter(|&(i, _)| !park[i])
            .map(|(_, &u)| u)
            .collect();
        let mut saved_edge_ends: Vec<(NodeVar, NodeVar)> = Vec::new();
        let mut saved_group_ends: Vec<(Vec<NodeVar>, Vec<NodeVar>)> = Vec::new();
        let required_rep: Vec<NodeVar>;
        let mut required_eff = required;
        if !merged.is_empty() {
            for e in &mut self.free_edges {
                saved_edge_ends.push((e.src, e.dst));
                e.src = NodeVar(var_rep[e.src.index()] as u32);
                e.dst = NodeVar(var_rep[e.dst.index()] as u32);
            }
            for g in &mut self.groups {
                saved_group_ends.push((g.srcs.clone(), g.dsts.clone()));
                for v in g.srcs.iter_mut().chain(g.dsts.iter_mut()) {
                    *v = NodeVar(var_rep[v.index()] as u32);
                }
            }
            required_rep = required
                .iter()
                .map(|v| NodeVar(var_rep[v.index()] as u32))
                .collect();
            required_eff = &required_rep;
        }
        let kept_edges = self.free_edges.len();
        universal_kept.resize(kept_edges + contracted.len(), false);
        self.free_edges.extend(contracted);
        // The kept variables on the rewritten problem's representatives.
        let frozen_rep: Option<Vec<bool>> = frozen.map(|frozen| {
            let mut kept = vec![false; self.node_count];
            for (v, f) in frozen.into_iter().enumerate() {
                kept[var_rep[v]] |= f;
            }
            kept
        });
        let phase0 = PhaseZero {
            universal: &universal_kept,
            frozen: frozen_rep.as_deref(),
        };

        let result = if merged.is_empty() {
            self.solve_core(db, pinned, required_eff, opts, phase0, on_solution)
        } else {
            // Merged-away variables inherit their representative's image
            // before the caller observes the solution.
            let mut buf: Vec<Option<NodeId>> = Vec::with_capacity(self.node_count);
            let mut wrapped = |b: &[Option<NodeId>]| {
                buf.clear();
                buf.extend_from_slice(b);
                for &(v, r) in &merged {
                    buf[v] = buf[r];
                }
                on_solution(&buf)
            };
            self.solve_core(db, &pinned_rep, required_eff, opts, phase0, &mut wrapped)
        };

        // Restore the original query shape; the contracted atoms' search
        // work stays counted in the problem's statistics.
        for e in self.free_edges.drain(kept_edges..) {
            self.stats.bump(e.cache.stats.states());
        }
        for (e, (s, d)) in self.free_edges.iter_mut().zip(saved_edge_ends) {
            e.src = s;
            e.dst = d;
        }
        for (g, (ss, ds)) in self.groups.iter_mut().zip(saved_group_ends) {
            g.srcs = ss;
            g.dsts = ds;
        }
        for (i, e) in parked.into_iter().rev() {
            self.free_edges.insert(i, e);
        }

        // Attach the analyzer's report to whatever the core recorded (a
        // bare stats shell when the plan/prune phases were off).
        match &mut self.pipeline {
            Some(ps) => ps.analysis = Some(report),
            none => {
                *none = Some(PipelineStats {
                    analysis: Some(report),
                    ..PipelineStats::default()
                });
            }
        }
        result
    }

    /// The atoms the analyzer's degree-2 contractions leave behind, over
    /// the concatenated automata of their parts (atoms a later
    /// contraction consumes are not built).
    fn contracted_edges(&self, contractions: &[crate::analyze::Contraction]) -> Vec<FreeEdge> {
        let n = self.free_edges.len();
        let mut nfas: Vec<Nfa> = Vec::with_capacity(contractions.len());
        for c in contractions {
            let part = |i: usize| match i.checked_sub(n) {
                None => self.free_edges[i].cache.nfa(),
                Some(k) => &nfas[k],
            };
            let joined = Nfa::concat(part(c.first), part(c.second));
            nfas.push(joined);
        }
        let mut consumed = vec![false; contractions.len()];
        for c in contractions {
            for i in [c.first, c.second] {
                if let Some(k) = i.checked_sub(n) {
                    consumed[k] = true;
                }
            }
        }
        contractions
            .iter()
            .zip(nfas)
            .zip(consumed)
            .filter(|&(_, used)| !used)
            .map(|((c, nfa), _)| FreeEdge {
                src: NodeVar(c.src as u32),
                dst: NodeVar(c.dst as u32),
                cache: ReachCache::new(nfa),
            })
            .collect()
    }

    /// Phases 1–3 (plan / prune / enumerate) over the problem as stored,
    /// with what phase 0 found (the default when no analysis ran).
    ///
    /// The run's governor (if any) is attached to every free-edge cache for
    /// the duration of the call and detached afterwards, so a tripped
    /// governor from an aborted run can never silently empty the searches
    /// of a later, ungoverned call against the same problem.
    fn solve_core(
        &mut self,
        db: &GraphDb,
        pinned: &HashMap<NodeVar, NodeId>,
        required: &[NodeVar],
        opts: &SolveOptions,
        phase0: PhaseZero<'_>,
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        for e in &mut self.free_edges {
            e.cache.govern(opts.governor.clone());
        }
        let r = self.solve_phases(db, pinned, required, opts, phase0, on_solution);
        for e in &mut self.free_edges {
            e.cache.govern(None);
        }
        r
    }

    fn solve_phases(
        &mut self,
        db: &GraphDb,
        pinned: &HashMap<NodeVar, NodeId>,
        required: &[NodeVar],
        opts: &SolveOptions,
        phase0: PhaseZero<'_>,
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        let govh = opts.governor.clone();
        let gov: &Governor = govh.as_deref().unwrap_or(Governor::disabled());
        let mut bindings: Vec<Option<NodeId>> = vec![None; self.node_count];
        for (&v, &n) in pinned {
            bindings[v.index()] = Some(n);
        }

        // Phase 1: plan (output-aware: the order splits into the enumerate
        // prefix and the existential suffix). A compatible cached seed
        // replays instead of rebuilding: seeds are keyed per query by the
        // cache, so compatibility only needs the unpinned-shape guard (a
        // pinned binding changes cost estimates, and shape mismatches mean
        // the seed came from a different rewrite of the query).
        let plan = (opts.plan || opts.prune).then(|| {
            let seed = opts.plan_seed.as_deref().filter(|s| {
                pinned.is_empty()
                    && s.var_order.len() == self.node_count
                    && s.edge_cost.len() == self.free_edges.len()
                    && s.group_cost.len() == self.groups.len()
            });
            match seed {
                Some(s) => s.clone(),
                None => SolvePlan::build(
                    self.node_count,
                    &self.free_edges,
                    &self.groups,
                    required,
                    phase0.universal,
                    db,
                ),
            }
        });
        let eliminated_vars = match (&plan, opts.project) {
            (Some(p), true) => p.existential_vars(),
            _ => 0,
        };

        // Phase 2: prune. Groups contribute synthesized necessary-condition
        // edges (def-language reachability per walker); with neither real
        // nor synthesized edges the domains could never shrink below the
        // universe, so construction is skipped entirely. Early-exiting
        // unpinned calls stay lazy (see `SolveOptions::lazy_unpinned`).
        let want_prune = opts.prune && !(opts.lazy_unpinned && pinned.is_empty());
        let (aux_edges, aux_costs) = if want_prune && !self.groups.is_empty() {
            self.group_prune_edges(db)
        } else {
            (Vec::new(), Vec::new())
        };
        let real_edges = self.free_edges.len();
        let prune_now = want_prune && (real_edges > 0 || !aux_edges.is_empty());
        // One base stats value per plan; the prune branch patches in the
        // fixpoint outcome.
        let base_stats = move |p: &SolvePlan| PipelineStats {
            var_order: if opts.plan {
                p.var_order.clone()
            } else {
                Vec::new()
            },
            edge_cost: p.edge_cost.clone(),
            group_cost: p.group_cost.clone(),
            rounds: 0,
            domain_before: Vec::new(),
            domain_after: Vec::new(),
            peeled_vars: 0,
            eliminated_vars,
            backtrack_steps: 0,
            intersection_seeks: 0,
            analysis: None,
            plan_artifact: Some(Arc::new(p.clone())),
        };
        let mut edge_done = vec![false; self.free_edges.len()];
        let domains = if prune_now {
            gov.charge_mem(self.node_count * db.node_count().div_ceil(8));
            let mut doms = Domains::full(self.node_count, db.node_count());
            for (&v, &n) in pinned {
                // In range per the check above; collapse to a singleton so
                // the fixpoint starts from the pinned world.
                doms.pin(v, n);
            }
            let before = doms.sizes().to_vec();
            let p = plan.as_ref().expect("prune implies plan construction");
            // Existential leaves first: one set sweep each, and their edges
            // are done before the semi-join passes and the enumeration. A
            // pinned run keeps the semi-join from its singletons, which is
            // cheaper than any sweep over a full domain.
            let frozen = phase0.frozen.filter(|_| pinned.is_empty());
            let eliminate = frozen.is_some();
            let leaves = match frozen {
                Some(frozen) => doms.peel(db, &mut self.free_edges, frozen, gov),
                None => Peel::default(),
            };
            if leaves.emptied {
                self.pipeline = Some(PipelineStats {
                    domain_before: before,
                    domain_after: doms.sizes().to_vec(),
                    peeled_vars: leaves.vars,
                    ..base_stats(p)
                });
                return false;
            }
            // Real edges first (plan costs), then the synthesized group
            // walkers; the fixpoint visits all of them cheapest-first and
            // the synthesized tail is dropped again before enumeration.
            let mut costs = p.edge_cost.clone();
            costs.extend(aux_costs);
            self.free_edges.extend(aux_edges);
            // Synthesized group-walker edges build their rows under the same
            // governor as the real ones (they are truncated right after, so
            // no detach is needed for the tail).
            for e in &mut self.free_edges[real_edges..] {
                e.cache.govern(govh.clone());
            }
            let outcome = doms.prune(
                db,
                &mut self.free_edges,
                Some(&costs),
                &leaves.peeled,
                opts.max_prune_rounds,
                gov,
            );
            self.free_edges.truncate(real_edges);
            self.pipeline = Some(PipelineStats {
                rounds: outcome.rounds,
                domain_before: before,
                domain_after: doms.sizes().to_vec(),
                peeled_vars: leaves.vars,
                ..base_stats(p)
            });
            if outcome.emptied {
                return false;
            }
            if eliminate {
                edge_done = leaves.peeled;
            }
            Some(doms)
        } else {
            self.pipeline = plan.as_ref().map(base_stats);
            None
        };

        // Phase 3: enumerate.
        let ctx = EnumCtx {
            plan: if opts.plan { plan.as_ref() } else { None },
            domains: domains.as_ref(),
            gov,
            single_step: OnceCell::new(),
        };
        let mut is_output = vec![false; self.node_count];
        for v in required {
            is_output[v.index()] = true;
        }
        let unbound_outputs = (0..self.node_count)
            .filter(|&i| is_output[i] && bindings[i].is_none())
            .count();
        // Duplicates are impossible when every variable the enumeration
        // binds (those of pending constraints, and outputs) is an output
        // variable: distinct full assignments then project to distinct
        // tuples, so the hot loops skip the seen-set.
        let dedup_needed = self
            .free_edges
            .iter()
            .zip(&edge_done)
            .filter(|(_, done)| !**done)
            .flat_map(|(e, _)| [e.src, e.dst])
            .chain(
                self.groups
                    .iter()
                    .flat_map(|g| g.srcs.iter().chain(g.dsts.iter()).copied()),
            )
            .any(|v| !is_output[v.index()]);
        let mut st = EnumState {
            bindings,
            edge_done,
            group_done: vec![false; self.groups.len()],
            required: required.to_vec(),
            is_output,
            unbound_outputs,
            project: opts.project,
            existential: false,
            dedup_needed,
            seen: ProjSeen::new(required.len()),
            proj_buf: Vec::with_capacity(required.len()),
            progress: 0,
            backtracks: 0,
            seeks: 0,
        };
        let r = self.recurse(db, &ctx, &mut st, on_solution);
        if let Some(ps) = &mut self.pipeline {
            ps.backtrack_steps = st.backtracks;
            ps.intersection_seeks = st.seeks;
        }
        r
    }

    fn recurse(
        &mut self,
        db: &GraphDb,
        ctx: &EnumCtx<'_>,
        st: &mut EnumState,
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        // Governor checkpoint, one per recursion node. An abort reports
        // "no hit" so every caller treats the subtree as exhausted — an
        // under-approximation (never a spurious witness: the existential
        // sub-search of the projection cutoff must see `false` here).
        if !ctx.gov.checkpoint() {
            return false;
        }
        // 0. Projection cutoff: every output variable is bound, so the
        // projection of everything below is already decided. A previously
        // emitted tuple makes the whole subtree redundant; a fresh one
        // needs exactly one witness of the remaining (existential)
        // variables and constraints — an early-exiting sub-search, after
        // which the prefix backtracks without enumerating further
        // completions.
        if st.project && !st.existential && st.unbound_outputs == 0 {
            if st.dedup_needed && st.probe_seen(false) {
                // Redundancy pruned in O(1), not wasted search: the parent
                // loops must not book this retraction as a backtrack.
                st.progress += 1;
                return false;
            }
            st.existential = true;
            let witnessed = self.recurse(db, ctx, st, &mut |_| true);
            st.existential = false;
            if witnessed {
                if st.dedup_needed {
                    st.probe_seen(true);
                    ctx.gov.charge_mem(32); // dedup-table growth (approx.)
                }
                st.progress += 1;
                return on_solution(&st.bindings);
            }
            return false;
        }
        // 1. Check any fully bound free edge.
        for i in 0..self.free_edges.len() {
            if st.edge_done[i] {
                continue;
            }
            let e = &mut self.free_edges[i];
            if let (Some(u), Some(v)) = (st.bindings[e.src.index()], st.bindings[e.dst.index()]) {
                if !e.cache.connects(db, u, v) {
                    return false;
                }
                st.edge_done[i] = true;
                let r = self.recurse(db, ctx, st, on_solution);
                st.edge_done[i] = false;
                return r;
            }
        }
        // 2. Check any fully bound group.
        for i in 0..self.groups.len() {
            if st.group_done[i] {
                continue;
            }
            let all_bound = self.groups[i]
                .srcs
                .iter()
                .chain(self.groups[i].dsts.iter())
                .all(|v| st.bindings[v.index()].is_some());
            if all_bound {
                let starts: Vec<NodeId> = self.groups[i]
                    .srcs
                    .iter()
                    .map(|v| st.bindings[v.index()].unwrap())
                    .collect();
                let ends: Vec<NodeId> = self.groups[i]
                    .dsts
                    .iter()
                    .map(|v| st.bindings[v.index()].unwrap())
                    .collect();
                let ok = !SyncSearch::forward(db, &self.groups[i].spec)
                    .with_governor(ctx.gov)
                    .run(&starts, Some(&ends), Some(&self.stats))
                    .is_empty();
                if !ok {
                    return false;
                }
                st.group_done[i] = true;
                let r = self.recurse(db, ctx, st, on_solution);
                st.group_done[i] = false;
                return r;
            }
        }
        // 3. Extend the unbound end of a half-bound free edge — the
        // cheapest one when a plan is present, the first in query-text
        // order otherwise (the naive reference path).
        let mut half: Option<usize> = None;
        for (i, (e, done)) in self.free_edges.iter().zip(st.edge_done.iter()).enumerate() {
            if *done {
                continue;
            }
            if st.bindings[e.src.index()].is_some() || st.bindings[e.dst.index()].is_some() {
                match (half, ctx.plan) {
                    (None, _) => half = Some(i),
                    (Some(j), Some(p)) if p.edge_cost[i] < p.edge_cost[j] => half = Some(i),
                    _ => {}
                }
                if ctx.plan.is_none() {
                    break;
                }
            }
        }
        if let Some(i) = half {
            let e = &self.free_edges[i];
            let var = if st.bindings[e.src.index()].is_some() {
                e.dst
            } else {
                e.src
            };
            // Every pending edge whose other end is bound proposes (a
            // self-loop at `var` never does: its other end is `var`); the
            // naive path keeps to the one edge it picked.
            let mut proposers: Vec<Proposer> = Vec::new();
            for (j, (e, done)) in self.free_edges.iter().zip(st.edge_done.iter()).enumerate() {
                if *done || (ctx.plan.is_none() && j != i) {
                    continue;
                }
                if e.dst == var {
                    if let Some(u) = st.bindings[e.src.index()] {
                        proposers.push((j, true, u));
                    }
                } else if e.src == var {
                    if let Some(u) = st.bindings[e.dst.index()] {
                        proposers.push((j, false, u));
                    }
                }
            }
            return self.extend(db, ctx, st, var, &proposers, on_solution);
        }
        // 4. Extend along a group with one side fully bound.
        for i in 0..self.groups.len() {
            if st.group_done[i] {
                continue;
            }
            let srcs_bound = self.groups[i]
                .srcs
                .iter()
                .all(|v| st.bindings[v.index()].is_some());
            let dsts_bound = self.groups[i]
                .dsts
                .iter()
                .all(|v| st.bindings[v.index()].is_some());
            if srcs_bound || dsts_bound {
                st.group_done[i] = true;
                let (open_vars, tuples) = if srcs_bound {
                    let starts: Vec<NodeId> = self.groups[i]
                        .srcs
                        .iter()
                        .map(|v| st.bindings[v.index()].unwrap())
                        .collect();
                    let tuples = sync_targets_governed(
                        db,
                        &self.groups[i].spec,
                        &starts,
                        Some(&self.stats),
                        ctx.gov,
                    );
                    (self.groups[i].dsts.clone(), tuples)
                } else {
                    let ends: Vec<NodeId> = self.groups[i]
                        .dsts
                        .iter()
                        .map(|v| st.bindings[v.index()].unwrap())
                        .collect();
                    // Walk the database *backwards* under the reversed spec
                    // to enumerate source tuples; the walk borrows the
                    // cached reversed spec.
                    self.groups[i].ensure_reversed();
                    let tuples = {
                        let rev = self.groups[i].reversed.as_ref().expect("just ensured");
                        sync_sources_governed(db, rev, &ends, Some(&self.stats), ctx.gov)
                    };
                    (self.groups[i].srcs.clone(), tuples)
                };
                // Extend in sorted order, not the hash set's: the first
                // solution (a witness) and the work spent reaching it must
                // not vary from run to run.
                let mut tuples: Vec<Vec<NodeId>> = tuples.into_iter().collect();
                tuples.sort_unstable();
                'tuple: for tup in tuples {
                    if ctx.gov.is_aborted() {
                        break;
                    }
                    // Bind open vars consistently (a variable may repeat and
                    // may already be bound), respecting pruned domains.
                    let mut newly: Vec<NodeVar> = Vec::new();
                    for (var, node) in open_vars.iter().zip(tup.iter()) {
                        match st.bindings[var.index()] {
                            Some(b) if b != *node => {
                                for v in newly.drain(..) {
                                    st.unbind(v);
                                }
                                continue 'tuple;
                            }
                            Some(_) => {}
                            None => {
                                if !ctx.admits(*var, *node) {
                                    for v in newly.drain(..) {
                                        st.unbind(v);
                                    }
                                    continue 'tuple;
                                }
                                st.bind(*var, *node);
                                newly.push(*var);
                            }
                        }
                    }
                    let before = st.progress;
                    let hit = self.recurse(db, ctx, st, on_solution);
                    if !hit && !newly.is_empty() && st.progress == before {
                        st.backtracks += 1;
                    }
                    for v in newly {
                        st.unbind(v);
                    }
                    if hit {
                        st.group_done[i] = false;
                        return true;
                    }
                }
                st.group_done[i] = false;
                return false;
            }
        }
        // 5. Seed: bind some variable occurring in a pending constraint —
        // the minimum-rank unbound variable of the plan's cheapest-first
        // order (one pass over the pending constraints via `seed_rank`), or
        // (naive) the first source variable of a pending constraint.
        let seed_var = if let Some(p) = ctx.plan {
            let mut best: Option<(usize, NodeVar)> = None;
            let consider =
                |v: NodeVar, bindings: &[Option<NodeId>], best: &mut Option<(usize, NodeVar)>| {
                    if bindings[v.index()].is_none() {
                        let rank = p.seed_rank[v.index()];
                        if best.is_none_or(|(r, _)| rank < r) {
                            *best = Some((rank, v));
                        }
                    }
                };
            for (e, done) in self.free_edges.iter().zip(st.edge_done.iter()) {
                if !*done {
                    consider(e.src, &st.bindings, &mut best);
                    consider(e.dst, &st.bindings, &mut best);
                }
            }
            for (g, done) in self.groups.iter().zip(st.group_done.iter()) {
                if !*done {
                    for &v in g.srcs.iter().chain(g.dsts.iter()) {
                        consider(v, &st.bindings, &mut best);
                    }
                }
            }
            best.map(|(_, v)| v)
        } else {
            self.free_edges
                .iter()
                .zip(st.edge_done.iter())
                .filter(|(_, d)| !**d)
                .map(|(e, _)| e.src)
                .chain(
                    self.groups
                        .iter()
                        .zip(st.group_done.iter())
                        .filter(|(_, d)| !**d)
                        .flat_map(|(g, _)| g.srcs.iter().copied()),
                )
                .find(|v| st.bindings[v.index()].is_none())
        };
        // 6. All constraints satisfied: bind required-but-unbound
        // variables over their domains (a peeled leaf's neighbour keeps its
        // sweep there).
        let var = seed_var.or_else(|| {
            st.required
                .iter()
                .find(|v| st.bindings[v.index()].is_none())
                .copied()
        });
        if let Some(var) = var {
            return self.extend(db, ctx, st, var, &[], on_solution);
        }
        st.progress += 1;
        on_solution(&st.bindings)
    }

    /// Binds `var` to each candidate its `proposers` all support, in
    /// ascending node order, and searches below each (see the module docs'
    /// candidate-loop section). The proposers' edges are marked done for
    /// the subtree and restored on the way out. When `var` is the last
    /// unbound output and nothing else is pending, every admitted
    /// candidate is its own existential witness, so it is emitted directly
    /// with no sub-search; small-arity tuples with `var` at a single
    /// position then probe the dedup set against a hoisted key template.
    fn extend(
        &mut self,
        db: &GraphDb,
        ctx: &EnumCtx<'_>,
        st: &mut EnumState,
        var: NodeVar,
        proposers: &[Proposer],
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        let mut cands = match *proposers {
            [] => Candidates::Sweep(match ctx.domains {
                Some(d) => Box::new(d.iter(var)),
                None => Box::new(db.nodes()),
            }),
            [(j, forward, from)] => Candidates::Row(self.free_edges[j].row(db, from, forward), 0),
            _ => {
                let single_step = ctx.single_step.get_or_init(|| {
                    self.free_edges
                        .iter()
                        .map(|e| single_step_symbols(e.cache.nfa()))
                        .collect()
                });
                let mut sets: Vec<SortedSet<'_>> = Vec::with_capacity(proposers.len() + 1);
                for &(j, forward, from) in proposers {
                    sets.push(match &single_step[j] {
                        Some(syms) => SortedSet::Runs(
                            syms.iter()
                                .map(|&a| {
                                    let run = if forward {
                                        db.successors_with(from, a)
                                    } else {
                                        db.predecessors_with(from, a)
                                    };
                                    (a, run)
                                })
                                .collect(),
                        ),
                        None => SortedSet::Row(self.free_edges[j].row(db, from, forward), 0),
                    });
                }
                if let Some(d) = ctx.domains {
                    sets.push(SortedSet::Bits(d.bits(var)));
                }
                Candidates::Leapfrog {
                    sets,
                    hi: Some(NodeId(0)),
                    idx: 0,
                }
            }
        };
        for &(j, ..) in proposers {
            st.edge_done[j] = true;
        }
        let terminal = st.project
            && !st.existential
            && st.unbound_outputs == 1
            && st.is_output[var.index()]
            && st.edge_done.iter().all(|d| *d)
            && st.group_done.iter().all(|d| *d);
        let template = (terminal
            && st.dedup_needed
            && matches!(st.seen, ProjSeen::Small(_))
            && st.required.iter().filter(|v| **v == var).count() == 1)
            .then(|| {
                let pos = st.required.iter().position(|v| *v == var).unwrap();
                let key = st.required.iter().fold(1u128, |key, v| {
                    let n = if *v == var {
                        0
                    } else {
                        st.bindings[v.index()].expect("output bound").0
                    };
                    (key << 32) | n as u128
                });
                (key, 32 * (st.required.len() - 1 - pos) as u32)
            });
        let mut hit = false;
        while let Some(c) = cands.next(var, ctx, st) {
            if ctx.gov.is_aborted() {
                break; // drain: emitted tuples stand
            }
            st.bind(var, c);
            let before = st.progress;
            hit = if terminal {
                // A duplicate is pruned, not wasted: it counts as progress.
                st.progress += 1;
                let fresh = match (template, st.dedup_needed) {
                    (Some((key, shift)), _) => {
                        let ProjSeen::Small(s) = &mut st.seen else {
                            unreachable!("template implies small keys")
                        };
                        s.insert(key | ((c.0 as u128) << shift))
                    }
                    (None, true) => !st.probe_seen(true),
                    (None, false) => true,
                };
                if fresh && st.dedup_needed {
                    ctx.gov.charge_mem(32); // dedup-table growth
                }
                fresh && on_solution(&st.bindings)
            } else {
                self.recurse(db, ctx, st, on_solution)
            };
            if !hit && st.progress == before {
                st.backtracks += 1;
            }
            st.unbind(var);
            if hit {
                break;
            }
        }
        for &(j, ..) in proposers {
            st.edge_done[j] = false;
        }
        hit
    }
}

/// What a solver-backed engine (CRPQ, simple CXRPQ, ECRPQ) supplies to
/// [`run_solver`]: its constraint problem, its output tuple and the way a
/// solution becomes a witness.
pub(crate) trait SolverBacked {
    /// A fresh constraint problem for one run (its reachability caches
    /// start empty).
    fn problem(&self) -> Problem;

    /// The output tuple `z̄`, over the problem's node variables.
    fn output(&self) -> &[NodeVar];

    /// Turns a solution binding every problem variable into a witness:
    /// one path per pattern edge plus variable images. `None` when a path
    /// search fails, which happens only when `gov` trips.
    fn assemble(
        &self,
        db: &GraphDb,
        bindings: &[Option<NodeId>],
        gov: &Governor,
    ) -> Option<QueryWitness>;
}

/// Answers `req` for a solver-backed engine with one
/// [`Problem::solve_with`] run: Boolean and Check stop at the first
/// solution (Check pins the output variables to the tuple), the answer
/// relation collects every projected tuple, and a witness binds every
/// variable of the first solution and asks the engine to assemble it.
pub(crate) fn run_solver(
    engine: &impl SolverBacked,
    db: &GraphDb,
    req: Request<'_>,
    opts: &SolveOptions,
) -> Outcome {
    let pinned = match req {
        Request::Check(tuple) | Request::Witness(Some(tuple)) => {
            match pin_tuple(engine.output(), tuple) {
                Some(pinned) => pinned,
                // Repeated output variables pinned to different nodes.
                None => return Outcome::new(Answer::none(req), opts),
            }
        }
        _ => HashMap::new(),
    };
    let mut p = engine.problem();
    let required: Vec<NodeVar> = match req {
        Request::Answers => engine.output().to_vec(),
        Request::Witness(_) => (0..p.node_count as u32).map(NodeVar).collect(),
        _ => Vec::new(),
    };
    let mut tuples = BTreeSet::new();
    let mut first: Option<Vec<Option<NodeId>>> = None;
    p.solve_with(db, &pinned, &required, opts, &mut |b| {
        if req == Request::Answers {
            tuples.insert(
                required
                    .iter()
                    .map(|v| b[v.index()].expect("required var bound"))
                    .collect(),
            );
            return false;
        }
        first = Some(b.to_vec());
        true
    });
    let (value, pipeline) = match req {
        Request::Boolean | Request::Check(_) => (Answer::Bool(first.is_some()), p.pipeline.take()),
        Request::Answers => (Answer::Tuples(tuples), p.pipeline.take()),
        Request::Witness(_) => {
            let gov = opts.governor.as_deref().unwrap_or(Governor::disabled());
            let w = first.and_then(|b| engine.assemble(db, &b, gov));
            (Answer::Witness(w), None)
        }
    };
    let mut out = Outcome::new(value, opts);
    out.pipeline = pipeline;
    out.states = p.stats.states()
        + p.free_edges
            .iter()
            .map(|e| e.cache.stats.states())
            .sum::<usize>();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_automata::{parse_regex, Nfa};
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    fn db_cycle(word: &str) -> (GraphDb, Vec<NodeId>) {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let w = db.alphabet().parse_word(word).unwrap();
        let nodes: Vec<NodeId> = (0..w.len()).map(|_| db.add_node()).collect();
        for (i, &s) in w.iter().enumerate() {
            db.add_edge(nodes[i], s, nodes[(i + 1) % w.len()]);
        }
        (db.freeze(), nodes)
    }

    fn nfa(db: &GraphDb, s: &str) -> Nfa {
        let mut a = db.alphabet().clone();
        Nfa::from_regex(&parse_regex(s, &mut a).unwrap())
    }

    #[test]
    fn single_edge_boolean() {
        let (db, _) = db_cycle("abcabc");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "abca")),
        });
        let mut found = false;
        p.solve(&db, &HashMap::new(), &[], &mut |_| {
            found = true;
            true
        });
        assert!(found);
        // No path labelled "aa" on the cycle.
        let mut p2 = Problem::new(2);
        p2.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "aa")),
        });
        let mut found2 = false;
        p2.solve(&db, &HashMap::new(), &[], &mut |_| {
            found2 = true;
            true
        });
        assert!(!found2);
    }

    #[test]
    fn conjunction_shares_nodes() {
        // x -ab-> y and y -ca-> x on the cycle abcabc: y = x+2, and from y
        // reading "ca" lands on y+2 = x+4 ≠ x… on a 6-cycle with word
        // abcabc: positions 0..5; x=0: ab leads to 2; from 2, "ca" = c,a →
        // 2:c->3, 3:a->4 ≠ 0. x=3: ab: 3 is 'a'? word abcabc: edge i labelled
        // w[i]. x=3: a at 3, b at 4 → y=5; from 5: c at 5, a at 0 → 1 ≠ 3.
        // So unsatisfiable; but x -ab-> y, y -cabc-> x is satisfiable (x=0).
        let (db, nodes) = db_cycle("abcabc");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "ab")),
        });
        p.free_edges.push(FreeEdge {
            src: NodeVar(1),
            dst: NodeVar(0),
            cache: ReachCache::new(nfa(&db, "ca")),
        });
        let mut found = false;
        p.solve(&db, &HashMap::new(), &[], &mut |_| {
            found = true;
            true
        });
        assert!(!found);

        let mut p2 = Problem::new(2);
        p2.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "ab")),
        });
        p2.free_edges.push(FreeEdge {
            src: NodeVar(1),
            dst: NodeVar(0),
            cache: ReachCache::new(nfa(&db, "cabc")),
        });
        let mut sol = None;
        p2.solve(&db, &HashMap::new(), &[], &mut |b| {
            sol = Some((b[0].unwrap(), b[1].unwrap()));
            true
        });
        assert_eq!(sol, Some((nodes[0], nodes[2])));
    }

    #[test]
    fn pinned_bindings_check() {
        let (db, nodes) = db_cycle("abcabc");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "abc")),
        });
        let pinned: HashMap<NodeVar, NodeId> =
            [(NodeVar(0), nodes[0]), (NodeVar(1), nodes[3])].into();
        let mut found = false;
        p.solve(&db, &pinned, &[], &mut |_| {
            found = true;
            true
        });
        assert!(found);
        let pinned2: HashMap<NodeVar, NodeId> =
            [(NodeVar(0), nodes[0]), (NodeVar(1), nodes[4])].into();
        let mut found2 = false;
        p.solve(&db, &pinned2, &[], &mut |_| {
            found2 = true;
            true
        });
        assert!(!found2);
    }

    #[test]
    fn pinned_out_of_range_yields_no_solutions() {
        // Regression: a pinned NodeId beyond the database used to index the
        // product visited-set out of bounds; now it simply has no solutions
        // (under both the pipeline and the naive reference path).
        let (db, nodes) = db_cycle("abcabc");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "abc")),
        });
        let bad: HashMap<NodeVar, NodeId> =
            [(NodeVar(0), nodes[0]), (NodeVar(1), NodeId(1_000))].into();
        for opts in [SolveOptions::default(), SolveOptions::naive()] {
            let mut found = false;
            let hit = p.solve_with(&db, &bad, &[], &opts, &mut |_| {
                found = true;
                true
            });
            assert!(!hit && !found, "out-of-range pin must yield no solutions");
        }
    }

    #[test]
    fn group_constraint_in_pattern() {
        // Pattern: x -w-> y, x -w-> z with the same word w ∈ a(b|c): on a
        // graph where only one branch exists, y = z is forced.
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let b = db.alphabet().sym("b");
        let c = db.alphabet().sym("c");
        let s = db.add_node();
        let m = db.add_node();
        let t1 = db.add_node();
        let t2 = db.add_node();
        db.add_edge(s, a, m);
        db.add_edge(m, b, t1);
        db.add_edge(m, c, t2);
        let db = db.freeze();
        let mut p = Problem::new(3); // x=0, y=1, z=2
        let def = nfa(&db, "a(b|c)");
        p.groups.push(Group::new(
            vec![NodeVar(0), NodeVar(0)],
            vec![NodeVar(1), NodeVar(2)],
            SyncSpec::equality_group(Some(def), 2),
        ));
        let mut sols = Vec::new();
        p.solve(&db, &HashMap::new(), &[], &mut |bnd| {
            sols.push((bnd[0].unwrap(), bnd[1].unwrap(), bnd[2].unwrap()));
            false
        });
        // Solutions: (s, t1, t1) and (s, t2, t2) — never (s, t1, t2).
        assert!(sols.contains(&(s, t1, t1)));
        assert!(sols.contains(&(s, t2, t2)));
        assert!(!sols.contains(&(s, t1, t2)));
        assert!(!sols.contains(&(s, t2, t1)));
    }

    #[test]
    fn group_solved_backwards_from_pinned_dsts() {
        // Regression: when only the group's *destinations* are pinned, the
        // solver must enumerate source tuples by a backward walk (an earlier
        // version ran the reversed spec forward and produced false
        // negatives).
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let w = db.alphabet().parse_word("abc").unwrap();
        let s1 = db.add_node();
        let t1 = db.add_node();
        let s2 = db.add_node();
        let t2 = db.add_node();
        db.add_word_path(s1, &w, t1);
        db.add_word_path(s2, &w, t2);
        // A third path labelled acb, used by the mismatch check below (built
        // up front so the database can be frozen once).
        let w2 = db.alphabet().parse_word("acb").unwrap();
        let s3 = db.add_node();
        let t3 = db.add_node();
        db.add_word_path(s3, &w2, t3);
        let db = db.freeze();
        let mut p = Problem::new(4); // x=0, y=1, u=2, v=3
        p.groups.push(Group::new(
            vec![NodeVar(0), NodeVar(2)],
            vec![NodeVar(1), NodeVar(3)],
            SyncSpec::equality_group(None, 2),
        ));
        // Pin the two destinations; the sources must be found backwards.
        let pinned: HashMap<NodeVar, NodeId> = [(NodeVar(1), t1), (NodeVar(3), t2)].into();
        let mut sols = Vec::new();
        p.solve(&db, &pinned, &[], &mut |b| {
            sols.push((b[0].unwrap(), b[2].unwrap()));
            false
        });
        assert!(sols.contains(&(s1, s2)), "missing backward-derived sources");
        // Distinct-word destinations are rejected.
        let pinned2: HashMap<NodeVar, NodeId> = [(NodeVar(1), t1), (NodeVar(3), t3)].into();
        let mut sols2 = Vec::new();
        p.solve(&db, &pinned2, &[], &mut |b| {
            sols2.push((b[0].unwrap(), b[2].unwrap()));
            false
        });
        // Short equal suffixes (e.g. ε at the sinks) are fine, but the full
        // chains read abc vs acb and must not pair up.
        assert!(!sols2.contains(&(s1, s3)), "abc cannot equal acb");
    }

    #[test]
    fn required_vars_enumerated() {
        let (db, _) = db_cycle("ab");
        let mut p = Problem::new(1);
        let mut count = 0;
        p.solve(&db, &HashMap::new(), &[NodeVar(0)], &mut |_| {
            count += 1;
            false
        });
        assert_eq!(count, 2); // both cycle nodes
    }

    #[test]
    fn projection_emits_each_tuple_once_with_one_witness() {
        // x -a-> {m1, m2} -b-> t: two full morphisms that project onto the
        // same (x, t). Pushdown emits the tuple once (the middle variable
        // is deduplicated at the enumerator); the unprojected reference
        // reports both morphisms.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let bb = b.alphabet().sym("b");
        let s = b.add_node();
        let m1 = b.add_node();
        let m2 = b.add_node();
        let t = b.add_node();
        b.add_edge(s, a, m1);
        b.add_edge(s, a, m2);
        b.add_edge(m1, bb, t);
        b.add_edge(m2, bb, t);
        let db = b.freeze();
        let build = || {
            let mut p = Problem::new(3);
            p.free_edges.push(FreeEdge {
                src: NodeVar(0),
                dst: NodeVar(1),
                cache: ReachCache::new(nfa(&db, "a")),
            });
            p.free_edges.push(FreeEdge {
                src: NodeVar(1),
                dst: NodeVar(2),
                cache: ReachCache::new(nfa(&db, "b")),
            });
            p
        };
        let run = |opts: SolveOptions| {
            let mut p = build();
            let mut calls = 0usize;
            let mut tuples: Vec<(NodeId, NodeId)> = Vec::new();
            p.solve_with(
                &db,
                &HashMap::new(),
                &[NodeVar(0), NodeVar(2)],
                &opts,
                &mut |b| {
                    calls += 1;
                    tuples.push((b[0].unwrap(), b[2].unwrap()));
                    false
                },
            );
            tuples.sort();
            tuples.dedup();
            (calls, tuples, p.pipeline)
        };
        let (calls_proj, tuples_proj, stats) = run(SolveOptions::pipeline().projected());
        let (calls_full, tuples_full, _) = run(SolveOptions::naive());
        assert_eq!(tuples_proj, tuples_full);
        assert_eq!(tuples_proj, vec![(s, t)]);
        assert_eq!(calls_proj, 1, "pushdown must emit the projection once");
        assert_eq!(calls_full, 2, "the reference enumerates both morphisms");
        // Productive candidates (subtrees that emitted and continued) are
        // not backtracks; this enumeration wastes no search at all.
        assert_eq!(stats.expect("stats recorded").backtrack_steps, 0);
    }

    #[test]
    fn boolean_fast_path_is_backtrack_free_when_arc_consistent() {
        // Chain x -a-> y -b-> z on the path a·b: satisfiable, and the prune
        // phase reaches arc consistency, so the Boolean call (empty output
        // under projection = every variable existential) takes the first
        // supported candidate at every level: zero backtracking steps.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let bb = b.alphabet().sym("b");
        let n0 = b.add_node();
        let n1 = b.add_node();
        let n2 = b.add_node();
        b.add_edge(n0, a, n1);
        b.add_edge(n1, bb, n2);
        let db = b.freeze();
        let mut p = Problem::new(3);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "a")),
        });
        p.free_edges.push(FreeEdge {
            src: NodeVar(1),
            dst: NodeVar(2),
            cache: ReachCache::new(nfa(&db, "b")),
        });
        // Unanalyzed, the three-variable chain is enumerated as written.
        let mut run = |opts: SolveOptions| {
            let mut found = false;
            let hit = p.solve_with(&db, &HashMap::new(), &[], &opts, &mut |_| {
                found = true;
                true
            });
            assert!(hit && found);
            let stats = p.pipeline.take().expect("pipeline stats recorded");
            assert_eq!(
                stats.backtrack_steps, 0,
                "arc-consistent satisfiable Boolean must not backtrack"
            );
            // Every variable of the order is existential for a Boolean call.
            assert_eq!(stats.eliminated_vars, stats.var_order.len());
            stats
        };
        let plain = run(SolveOptions::pipeline().projected().unanalyzed());
        assert_eq!(plain.eliminated_vars, 3);
        // Analyzed, `y` contracts into one `ab` atom and `x` peels into `z`.
        let analyzed = run(SolveOptions::pipeline().projected());
        let report = analyzed.analysis.expect("analysis ran");
        assert_eq!(report.stats.vars_contracted, 1);
        assert_eq!(analyzed.eliminated_vars, 2);
        assert_eq!(analyzed.peeled_vars, 1);
    }

    #[test]
    fn group_def_language_semi_join_prunes_domains() {
        // A group-only problem used to skip pruning entirely; with the
        // def-language necessary condition, every member's endpoints
        // collapse to the ab-path before the synchronized search runs.
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let bb = b.alphabet().sym("b");
        let c = b.alphabet().sym("c");
        let s = b.add_node();
        let m = b.add_node();
        let t = b.add_node();
        b.add_edge(s, a, m);
        b.add_edge(m, bb, t);
        // Noise the def language rejects.
        let x = b.add_node();
        let y = b.add_node();
        b.add_edge(x, c, y);
        let db = b.freeze();
        let mut p = Problem::new(4);
        let def = nfa(&db, "ab");
        p.groups.push(Group::new(
            vec![NodeVar(0), NodeVar(2)],
            vec![NodeVar(1), NodeVar(3)],
            SyncSpec::equality_group(Some(def), 2),
        ));
        let mut sols = Vec::new();
        p.solve_with(
            &db,
            &HashMap::new(),
            &[],
            &SolveOptions::pipeline(),
            &mut |b| {
                sols.push((b[0].unwrap(), b[1].unwrap(), b[2].unwrap(), b[3].unwrap()));
                false
            },
        );
        assert_eq!(sols, vec![(s, t, s, t)]);
        let stats = p.pipeline.expect("group semi-joins record stats");
        assert!(stats.rounds >= 1, "group walkers must drive prune rounds");
        // 4 variables × 5 nodes before; singletons after.
        assert_eq!(stats.total_before(), 20);
        assert_eq!(stats.total_after(), 4);
    }

    #[test]
    fn equality_group_borrows_most_selective_member_for_pruning() {
        // Equality relation with members [Σ⁺-like, "ab"]: the first member
        // is unselective, but the shared word must also match the second,
        // so *both* walkers prune under "ab" — a group-only problem still
        // collapses its domains.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let bb = b.alphabet().sym("b");
        let s = b.add_node();
        let m = b.add_node();
        let t = b.add_node();
        b.add_edge(s, a, m);
        b.add_edge(m, bb, t);
        b.add_edge(t, a, s); // extra arcs so (a|b)+ stays unselective
        let db = b.freeze();
        let mut p = Problem::new(4);
        p.groups.push(Group::new(
            vec![NodeVar(0), NodeVar(2)],
            vec![NodeVar(1), NodeVar(3)],
            SyncSpec {
                nfas: vec![nfa(&db, "(a|b)+"), nfa(&db, "ab")],
                relation: crate::relation::RegularRelation::equality(2),
            },
        ));
        let mut sols = Vec::new();
        p.solve_with(
            &db,
            &HashMap::new(),
            &[],
            &SolveOptions::pipeline(),
            &mut |b| {
                sols.push((b[0].unwrap(), b[1].unwrap(), b[2].unwrap(), b[3].unwrap()));
                false
            },
        );
        assert_eq!(sols, vec![(s, t, s, t)]);
        let stats = p.pipeline.expect("selective member drives pruning");
        assert!(stats.rounds >= 1);
        // 4 variables × 3 nodes before; ab-path endpoints only after.
        assert_eq!(stats.total_before(), 12);
        assert_eq!(stats.total_after(), 4);
    }

    #[test]
    fn pipeline_and_naive_agree_and_stats_report() {
        let (db, _) = db_cycle("abcabc");
        let build = |db: &GraphDb| {
            let mut p = Problem::new(3);
            p.free_edges.push(FreeEdge {
                src: NodeVar(0),
                dst: NodeVar(1),
                cache: ReachCache::new(nfa(db, "ab")),
            });
            p.free_edges.push(FreeEdge {
                src: NodeVar(1),
                dst: NodeVar(2),
                cache: ReachCache::new(nfa(db, "ca")),
            });
            p
        };
        let collect = |opts: &SolveOptions| {
            let mut p = build(&db);
            let mut sols = Vec::new();
            p.solve_with(&db, &HashMap::new(), &[], opts, &mut |b| {
                sols.push(b.to_vec());
                false
            });
            sols.sort();
            (sols, p.pipeline)
        };
        let (fast, stats) = collect(&SolveOptions::pipeline());
        let (slow, naive_stats) = collect(&SolveOptions::naive());
        assert_eq!(fast, slow);
        let stats = stats.expect("pipeline records stats");
        assert!(naive_stats.is_none());
        assert_eq!(stats.var_order.len(), 3);
        assert!(stats.rounds >= 1);
        assert!(stats.total_after() <= stats.total_before());
    }

    #[test]
    fn statically_unsat_short_circuits_with_zero_search() {
        let (db, _) = db_cycle("abcabc");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "ab")),
        });
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "!")),
        });
        let mut found = false;
        let hit = p.solve(&db, &HashMap::new(), &[], &mut |_| {
            found = true;
            true
        });
        assert!(!hit && !found);
        // The refutation is purely static: no reach or sync search ran.
        assert_eq!(p.stats.states(), 0);
        for e in &p.free_edges {
            assert_eq!(e.cache.stats.states(), 0);
        }
        let ps = p.pipeline.as_ref().unwrap();
        assert_eq!(ps.backtrack_steps, 0);
        assert!(ps.var_order.is_empty());
        let report = ps.analysis.as_ref().unwrap();
        assert!(report.stats.unsat);
        assert!(report.diagnostics.has(crate::diagnostics::Lint::EmptyAtom));
    }

    #[test]
    fn footprint_miss_short_circuits_with_zero_search() {
        // Alphabet is "abc" but the graph only has a/b arcs: any atom that
        // *must* read a `c` is refuted without searching.
        let (db, _) = db_cycle("abab");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "a*cb*")),
        });
        let hit = p.solve(&db, &HashMap::new(), &[], &mut |_| true);
        assert!(!hit);
        assert_eq!(p.stats.states(), 0);
        assert_eq!(p.free_edges[0].cache.stats.states(), 0);
        let ps = p.pipeline.as_ref().unwrap();
        assert_eq!(ps.backtrack_steps, 0);
        let report = ps.analysis.as_ref().unwrap();
        assert!(report.stats.unsat);
        assert!(report
            .diagnostics
            .has(crate::diagnostics::Lint::FootprintMiss));
    }

    #[test]
    fn epsilon_atom_merges_vars_and_restores_problem() {
        let (db, nodes) = db_cycle("abcabc");
        let mut p = Problem::new(3);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "ab")),
        });
        p.free_edges.push(FreeEdge {
            src: NodeVar(1),
            dst: NodeVar(2),
            cache: ReachCache::new(nfa(&db, "_")),
        });
        let required = [NodeVar(0), NodeVar(1), NodeVar(2)];
        let mut sols: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        p.solve(&db, &HashMap::new(), &required, &mut |b| {
            sols.push((b[0].unwrap(), b[1].unwrap(), b[2].unwrap()));
            false
        });
        assert!(!sols.is_empty());
        // The merged-away variable is bound to its representative's node.
        for &(_, y, z) in &sols {
            assert_eq!(y, z);
        }
        assert!(sols.contains(&(nodes[0], nodes[2], nodes[2])));
        let report = p.pipeline.as_ref().unwrap().analysis.as_ref().unwrap();
        assert_eq!(report.stats.vars_merged, 1);
        assert_eq!(report.stats.atoms_dropped, 1);
        // The ε atom was parked during the rewrite and restored afterwards,
        // endpoints intact, so the problem can be solved again.
        assert_eq!(p.free_edges.len(), 2);
        assert_eq!(p.free_edges[1].src, NodeVar(1));
        assert_eq!(p.free_edges[1].dst, NodeVar(2));
        let mut again: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        p.solve(&db, &HashMap::new(), &required, &mut |b| {
            again.push((b[0].unwrap(), b[1].unwrap(), b[2].unwrap()));
            false
        });
        assert_eq!(sols, again);
    }

    #[test]
    fn conflicting_pins_on_unified_vars_are_unsat() {
        let (db, nodes) = db_cycle("abcabc");
        let mut p = Problem::new(2);
        p.free_edges.push(FreeEdge {
            src: NodeVar(0),
            dst: NodeVar(1),
            cache: ReachCache::new(nfa(&db, "_")),
        });
        let mut pins = HashMap::new();
        pins.insert(NodeVar(0), nodes[0]);
        pins.insert(NodeVar(1), nodes[1]);
        let hit = p.solve(&db, &pins, &[], &mut |_| true);
        assert!(!hit);
        let report = p.pipeline.as_ref().unwrap().analysis.as_ref().unwrap();
        assert!(report.stats.unsat);
        // Agreeing pins on the unified pair still match.
        pins.insert(NodeVar(1), nodes[0]);
        let hit2 = p.solve(&db, &pins, &[], &mut |_| true);
        assert!(hit2);
    }

    #[test]
    fn subsumed_atom_dropped_without_changing_answers() {
        let (db, _) = db_cycle("abcabc");
        let build = || {
            let mut p = Problem::new(2);
            // L(ab) ⊆ L(a(b|c)): the wider atom is redundant and dropped.
            p.free_edges.push(FreeEdge {
                src: NodeVar(0),
                dst: NodeVar(1),
                cache: ReachCache::new(nfa(&db, "ab")),
            });
            p.free_edges.push(FreeEdge {
                src: NodeVar(0),
                dst: NodeVar(1),
                cache: ReachCache::new(nfa(&db, "a(b|c)")),
            });
            p
        };
        let required = [NodeVar(0), NodeVar(1)];
        let mut analyzed: Vec<(NodeId, NodeId)> = Vec::new();
        let mut p = build();
        p.solve(&db, &HashMap::new(), &required, &mut |b| {
            analyzed.push((b[0].unwrap(), b[1].unwrap()));
            false
        });
        let report = p.pipeline.as_ref().unwrap().analysis.as_ref().unwrap();
        assert_eq!(report.stats.atoms_dropped, 1);
        assert!(report
            .diagnostics
            .has(crate::diagnostics::Lint::SubsumedAtom));
        assert_eq!(p.free_edges.len(), 2, "dropped atom restored after solve");
        let mut plain: Vec<(NodeId, NodeId)> = Vec::new();
        let mut p2 = build();
        p2.solve_with(
            &db,
            &HashMap::new(),
            &required,
            &SolveOptions::default().unanalyzed(),
            &mut |b| {
                plain.push((b[0].unwrap(), b[1].unwrap()));
                false
            },
        );
        analyzed.sort_unstable();
        plain.sort_unstable();
        assert_eq!(analyzed, plain);
    }
}
