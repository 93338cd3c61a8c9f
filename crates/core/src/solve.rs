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
//!    candidate domains to a (capped) fixpoint, with batched
//!    domain-restricted wavefront fills and an adaptive per-source fallback
//!    on long-diameter graphs. Pinned bindings collapse their domains to
//!    singletons first; an emptied domain ends the search without
//!    enumeration. Groups contribute necessary conditions: one synthesized
//!    pruning-only edge per selective group walker (def-language
//!    reachability for equality groups), joined into the same fixpoint and
//!    dropped before enumeration.
//! 3. **Enumerate** — backtrack over the pruned domains in plan order,
//!    checking fully bound constraints eagerly and extending along the
//!    cheapest half-bound constraint; early-exit semantics (`on_solution`
//!    returning `true`) are unchanged.
//!
//! **Worst-case-optimal leapfrog intersection.** On *cyclic* constraint
//! components (detected by the planner's cycle-rank classification — see
//! [`crate::plan`]) binary extension is provably suboptimal: extending a
//! triangle `x -a-> y -b-> z -c-> x` along one edge materializes every
//! `(x, y, z)` wedge before the closing atom filters it. The enumerator
//! therefore switches to a multiway sorted-set intersection when several
//! pending constraints have already bound their other endpoint on the
//! variable being extended: every such constraint contributes a sorted
//! candidate set, the pruned domain joins as one more sorted set, and a
//! leapfrog (seek-to-max) sweep with binary-search `seek_ge` emits exactly
//! the common members — the candidates that *every* incident constraint
//! supports — binding each and marking all participating constraints
//! satisfied at once. Two iterator kinds feed the intersection: direct
//! merged CSR [`EdgeRun`]s for atoms whose language is a set of
//! single-symbol words (the database rows *are* their reach adjacency), and
//! sorted reach-adjacency rows materialized once per `(source, atom)` from
//! the [`ReachCache`] for general regular-path atoms. [`Strategy`] selects
//! the routing: `Auto` (cyclic components leapfrog, trees keep the plain
//! backtracker), or a forced `Leapfrog`/`Backtrack` override for the
//! differential suites. Governor checkpoints and projection-pushdown dedup
//! carry over unchanged — a leapfrog binding is a binding like any other.
//!
//! **Projection pushdown** ([`SolveOptions::projected`]): when on, the
//! `required` tuple is treated as an *output projection*. Variables outside
//! it are *existential* — the moment every output variable is bound, the
//! projected tuple of the whole subtree below is fixed, so the enumerator
//! asks for a single witness of the remaining constraints (an early-exiting
//! sub-search) instead of backtracking over every completion, and emits
//! each distinct projected tuple exactly once (deduplicated at the
//! enumerator with packed-key sets, never by materializing full morphisms).
//! When the last output variable is bound by the final pending constraint,
//! the semi-joined candidate set itself is the witness: candidates are
//! emitted leaf-positioned with no sub-search at all. Boolean calls (empty
//! output) are the degenerate case where *every* variable is existential —
//! on satisfiable arc-consistent instances the enumerator then performs
//! zero backtracking steps ([`PipelineStats::backtrack_steps`]).
//!
//! Under projection, `on_solution` observes bindings in which all
//! *required* variables are bound; existential variables may be `None`
//! (they are restored by the witness sub-search on its way out).

use crate::domains::Domains;
use crate::evaluate::{Answer, Outcome, Request};
use crate::governor::Governor;
use crate::pattern::NodeVar;
use crate::plan::{single_step_symbols, SolvePlan};
use crate::reach::{ReachCache, ReachStats};
use crate::sync::{sync_sources_governed, sync_targets_governed, SyncSearch, SyncSpec};
use crate::witness::{pin_tuple, QueryWitness};
use cxrpq_graph::{DenseBitSet, EdgeRun, GraphDb, NodeId, Symbol};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::rc::Rc;
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
    /// `from`, sorted ascending for deterministic extension order.
    fn targets_sorted(&mut self, db: &GraphDb, from: NodeId, forward: bool) -> Vec<NodeId> {
        let set = if forward {
            self.cache.targets(db, from)
        } else {
            self.cache.sources(db, from)
        };
        let mut v: Vec<NodeId> = set.iter().copied().collect();
        v.sort();
        v
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

/// Enumeration strategy for phase 3 (see the module docs' leapfrog
/// section).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Route cyclic constraint components to the leapfrog multiway
    /// intersection, keep trees on the plain backtracker.
    #[default]
    Auto,
    /// Force the leapfrog intersection wherever several bound constraints
    /// meet an unbound variable, cyclic or not (differential testing).
    Leapfrog,
    /// Never intersect multiway — the PR 5 binary-extension backtracker
    /// (differential testing and the bench baseline).
    Backtrack,
}

/// Knobs for [`Problem::solve_with`]: which pipeline phases run.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Phase 1: order variables and constraints by estimated cost (off =
    /// query-text order).
    pub plan: bool,
    /// Phase 2: semi-join domain reduction before enumeration.
    pub prune: bool,
    /// Cap on semi-join passes (the fixpoint usually lands earlier).
    pub max_prune_rounds: usize,
    /// Skip the prune phase when no binding is pinned: without a pinned
    /// singleton to seed the fixpoint, the first pass fills the full
    /// universe of every edge — on long-diameter shapes one BFS per node
    /// per edge — which can dwarf a search that exits on its first
    /// candidates. Early-exiting calls (`boolean`) set this and stay
    /// lazy; pinned calls (`check`/`witness_for`) still prune, because a
    /// singleton-seeded semi-join is one search from the pinned side.
    /// Exhaustive enumeration leaves it off (it sweeps most sources
    /// anyway, so the fills are never wasted).
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
    /// State budget per bounded inclusion/universality check in the
    /// analyzer; checks that exceed it are abandoned (both atoms kept,
    /// `containment-capped` diagnostic).
    pub containment_budget: usize,
    /// Resource governor for this run (`None` = ungoverned): every search
    /// phase checkpoints against it, and a trip drains the whole pipeline
    /// cooperatively — `solve_with` then returns having reported only a
    /// (sound, partial) subset of solutions, with every [`ReachCache`]
    /// guaranteed free of partially-filled entries. Read the verdict from
    /// the governor afterwards ([`Governor::verdict`]).
    pub governor: Option<Arc<Governor>>,
    /// Enumeration strategy (see [`Strategy`]). Leapfrog routing needs the
    /// plan's component classification, so under `plan: false` every
    /// strategy degrades to the backtracker.
    pub strategy: Strategy,
    /// A previously built [`SolvePlan`] to reuse instead of rebuilding in
    /// phase 1 (the [`crate::cache::QueryCache`] hit path). Only consulted
    /// on unpinned runs whose problem shape matches the seed (variable,
    /// edge, and group counts) — a pinned binding or a shape mismatch
    /// falls back to a fresh build, so a stale seed can cost time but
    /// never correctness: the plan only orders the search.
    pub plan_seed: Option<Arc<SolvePlan>>,
}

impl SolveOptions {
    /// Default state budget for the analyzer's bounded containment checks.
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
            containment_budget: Self::DEFAULT_CONTAINMENT_BUDGET,
            governor: None,
            strategy: Strategy::Auto,
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
            containment_budget: Self::DEFAULT_CONTAINMENT_BUDGET,
            governor: None,
            strategy: Strategy::Auto,
            plan_seed: None,
        }
    }

    /// The historical behavior: no planning, no pruning, no analysis,
    /// query-text order. Retained as the reference path for differential
    /// tests and the `e18_solver_pipeline` baseline.
    pub fn naive() -> Self {
        Self {
            plan: false,
            prune: false,
            max_prune_rounds: 0,
            lazy_unpinned: false,
            project: false,
            analyze: false,
            containment_budget: Self::DEFAULT_CONTAINMENT_BUDGET,
            governor: None,
            strategy: Strategy::Backtrack,
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

    /// Overrides the enumeration strategy (see [`Strategy`]); composes with
    /// any preset, e.g.
    /// `SolveOptions::pipeline().with_strategy(Strategy::Backtrack)`.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
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
    /// Semi-join passes executed (0 when pruning was off or trivial).
    pub rounds: usize,
    /// Whether the adaptive probe routed prune fills to per-source sweeps
    /// (long-diameter graphs) instead of batched wavefronts.
    pub per_source_sweeps: bool,
    /// Domain size per node variable before pruning (pinned variables are
    /// already singletons here).
    pub domain_before: Vec<usize>,
    /// Domain size per node variable after pruning.
    pub domain_after: Vec<usize>,
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
    /// Constraint components routed to the leapfrog multiway intersection
    /// ([`Strategy`]): the cyclic components under `Auto`, every component
    /// under `Leapfrog`, zero under `Backtrack` or without a plan.
    pub leapfrog_components: usize,
    /// Constraint components kept on the plain backtracker.
    pub tree_components: usize,
    /// `seek_ge` probes issued by leapfrog intersections during
    /// enumeration (0 when no variable took the leapfrog path).
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

/// Candidate sweeps prewarm reachability caches in batches of one
/// source-membership stripe (the `u64` word width of `reach_all`), so a
/// batch costs one wavefront pass and an early-exiting search wastes at
/// most the rest of one stripe.
const SEED_BATCH: usize = 64;

/// Shared read-only context for one enumeration (phase 3).
struct EnumCtx<'a> {
    plan: Option<&'a SolvePlan>,
    domains: Option<&'a Domains>,
    /// The prune phase's probe decision, reused by seed-sweep prewarms.
    per_source_sweeps: bool,
    /// The run's governor (the shared disabled one when ungoverned): one
    /// checkpoint per recursion node, candidate loops drain on a trip.
    gov: &'a Governor,
    /// Per-variable: extend by leapfrog multiway intersection instead of
    /// binary extension (empty = all backtrack, e.g. naive runs).
    lf_vars: Vec<bool>,
    /// Per free edge: the accepted symbols when the atom's language is a
    /// set of single-symbol words, so its candidate sets are direct CSR
    /// runs ([`single_step_symbols`]); `None` routes through materialized
    /// sorted reach rows. Only populated when some variable leapfrogs.
    single_step: Vec<Option<Vec<Symbol>>>,
}

impl EnumCtx<'_> {
    #[inline]
    fn admits(&self, v: NodeVar, n: NodeId) -> bool {
        self.domains.is_none_or(|d| d.contains(v, n))
    }

    #[inline]
    fn leapfrogs(&self, v: NodeVar) -> bool {
        self.lf_vars.get(v.index()).copied().unwrap_or(false)
    }
}

/// One sorted ascending candidate set of a leapfrog intersection, with a
/// monotone `seek_ge` cursor (see the module docs' leapfrog section).
enum SortedSet<'a> {
    /// A single-step atom's candidates straight off the CSR: one merged
    /// base+delta run per accepted symbol, each `(label, neighbour)`-sorted
    /// — the union view seeks every run and takes the minimum.
    Runs(Vec<(Symbol, EdgeRun<'a>)>),
    /// A materialized sorted reach-adjacency row (general regular-path
    /// atom), shared with the [`ReachCache`]'s per-source memo.
    Row(Rc<[NodeId]>, usize),
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

/// A multiply–rotate hasher for the projection dedup sets: keys are either
/// exact packed integers (arity ≤ 4) or short node-id slices, probed once
/// per enumeration leaf, so a few-ns mix beats SipHash by an order of
/// magnitude on the hot shapes.
struct ProjHasher(u64);

impl ProjHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ProjHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[derive(Clone, Default)]
struct BuildProjHasher;

impl BuildHasher for BuildProjHasher {
    type Hasher = ProjHasher;
    fn build_hasher(&self) -> ProjHasher {
        ProjHasher(0x9e37_79b9_7f4a_7c15)
    }
}

/// Projected tuples already emitted, keyed exactly: arities ≤ 4 pack the
/// `u32` node ids into one `u128` (collision-free), wider tuples fall back
/// to boxed slices (probed without allocating via `Borrow<[NodeId]>`).
enum ProjSeen {
    Small(HashSet<u128, BuildProjHasher>),
    Wide(HashSet<Box<[NodeId]>, BuildProjHasher>),
}

impl ProjSeen {
    fn new(arity: usize) -> Self {
        if arity <= 4 {
            Self::Small(HashSet::with_hasher(BuildProjHasher))
        } else {
            Self::Wide(HashSet::with_hasher(BuildProjHasher))
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

    /// Packs the current projection (all required variables are bound when
    /// this is called) into the small-arity key. The leading 1 bit
    /// distinguishes shorter tuples from zero-padded longer ones at
    /// arities ≤ 3; at arity 4 the four 32-bit ids fill the `u128` exactly
    /// and the sentinel shifts out, which is still collision-free because
    /// every key of one run has the same arity — the seen-set never mixes
    /// arities. (Raising the small-arity bound past 4 would truncate ids;
    /// `ProjSeen::new` gates on it.)
    #[inline]
    fn proj_key(&self) -> u128 {
        let mut key = 1u128;
        for v in &self.required {
            let n = self.bindings[v.index()].expect("projection variable bound");
            key = (key << 32) | n.0 as u128;
        }
        key
    }

    /// Fills the wide-arity probe buffer with the current projection.
    fn fill_proj_buf(&mut self) {
        self.proj_buf.clear();
        for i in 0..self.required.len() {
            let v = self.required[i];
            self.proj_buf
                .push(self.bindings[v.index()].expect("projection variable bound"));
        }
    }

    /// Whether the current projection was already emitted.
    fn seen_contains(&mut self) -> bool {
        match &self.seen {
            ProjSeen::Small(_) => {
                let key = self.proj_key();
                let ProjSeen::Small(s) = &self.seen else {
                    unreachable!()
                };
                s.contains(&key)
            }
            ProjSeen::Wide(_) => {
                self.fill_proj_buf();
                let ProjSeen::Wide(s) = &self.seen else {
                    unreachable!()
                };
                s.contains(self.proj_buf.as_slice())
            }
        }
    }

    /// Marks the current projection emitted; returns `true` when it was
    /// new.
    fn seen_insert(&mut self) -> bool {
        match &self.seen {
            ProjSeen::Small(_) => {
                let key = self.proj_key();
                let ProjSeen::Small(s) = &mut self.seen else {
                    unreachable!()
                };
                s.insert(key)
            }
            ProjSeen::Wide(_) => {
                self.fill_proj_buf();
                let ProjSeen::Wide(s) = &mut self.seen else {
                    unreachable!()
                };
                if s.contains(self.proj_buf.as_slice()) {
                    false
                } else {
                    s.insert(self.proj_buf.clone().into_boxed_slice())
                }
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
    /// automaton: fills are domain-restricted to each walker's own
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
    /// dropped. The rewrite is applied for the duration of this call only
    /// — the problem's constraints are restored on the way out, so
    /// repeated `solve_with` calls observe the original query, and
    /// `on_solution` still sees every original variable bound (merged-away
    /// variables inherit their representative's image).
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
            return self.solve_core(db, pinned, required, opts, &[], on_solution);
        }

        // Phase 0: static analysis.
        let crate::analyze::Analysis {
            mut report,
            var_rep,
            drop_edges,
            universal,
        } = crate::analyze::analyze(
            self.node_count,
            &self.free_edges,
            &self.groups,
            db,
            &crate::analyze::AnalyzeOptions {
                containment_budget: opts.containment_budget,
            },
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

        // Apply the rewrite: park dropped atoms, remap surviving endpoints
        // onto their union-find representatives, and remember enough to
        // restore the original query afterwards.
        let merged: Vec<(usize, usize)> = (0..self.node_count)
            .map(|v| (v, var_rep[v]))
            .filter(|&(v, r)| v != r)
            .collect();
        let mut parked: Vec<(usize, FreeEdge)> = Vec::new();
        for i in (0..drop_edges.len()).rev() {
            if drop_edges[i] {
                parked.push((i, self.free_edges.remove(i)));
            }
        }
        let universal_kept: Vec<bool> = universal
            .iter()
            .enumerate()
            .filter(|&(i, _)| !drop_edges[i])
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

        let result = if merged.is_empty() {
            self.solve_core(db, pinned, required_eff, opts, &universal_kept, on_solution)
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
            self.solve_core(
                db,
                &pinned_rep,
                required_eff,
                opts,
                &universal_kept,
                &mut wrapped,
            )
        };

        // Restore the original query shape.
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

    /// Phases 1–3 (plan / prune / enumerate) over the problem as stored.
    /// `universal` flags Σ*-universal free edges the planner orders last
    /// (`&[]` when no analysis ran).
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
        universal: &[bool],
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        for e in &mut self.free_edges {
            e.cache.govern(opts.governor.clone());
        }
        let r = self.solve_phases(db, pinned, required, opts, universal, on_solution);
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
        universal: &[bool],
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
                    universal,
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
        // The adaptive probe's verdict — memoized on the frozen database —
        // routes the prune fills and the seed-sweep prewarms in every
        // pipeline mode; the naive reference path never consults it.
        let want_prune = opts.prune && !(opts.lazy_unpinned && pinned.is_empty());
        let (aux_edges, aux_costs) = if want_prune && !self.groups.is_empty() {
            self.group_prune_edges(db)
        } else {
            (Vec::new(), Vec::new())
        };
        let real_edges = self.free_edges.len();
        let has_prunable = real_edges > 0 || !aux_edges.is_empty();
        let probe =
            (opts.plan || opts.prune) && has_prunable && crate::domains::probe_long_diameter(db);
        let prune_now = want_prune && has_prunable;
        let mut per_source_sweeps = probe;
        // One base stats value per plan; the prune branch patches in the
        // fixpoint outcome (including its per-source verdict — the `move`
        // capture of the probe value only feeds the prune-skipped branch).
        // Strategy routing: which variables extend by leapfrog multiway
        // intersection. `Auto` follows the plan's cycle-rank verdict;
        // forced overrides flip every constrained variable one way. The
        // naive path (no plan) has no component map and always backtracks.
        let (lf_vars, leapfrog_components, tree_components) = match (&plan, opts.strategy) {
            (Some(p), Strategy::Auto) if opts.plan => {
                (p.cyclic_var.clone(), p.cyclic_components, p.tree_components)
            }
            (Some(p), Strategy::Leapfrog) if opts.plan => (
                p.seed_rank.iter().map(|&r| r != usize::MAX).collect(),
                p.cyclic_components + p.tree_components,
                0,
            ),
            (Some(p), _) => (Vec::new(), 0, p.cyclic_components + p.tree_components),
            (None, _) => (Vec::new(), 0, 0),
        };
        let single_step: Vec<Option<Vec<Symbol>>> = if lf_vars.contains(&true) {
            self.free_edges
                .iter()
                .map(|e| single_step_symbols(e.cache.nfa()))
                .collect()
        } else {
            Vec::new()
        };
        let base_stats = move |p: &SolvePlan| PipelineStats {
            var_order: if opts.plan {
                p.var_order.clone()
            } else {
                Vec::new()
            },
            edge_cost: p.edge_cost.clone(),
            group_cost: p.group_cost.clone(),
            rounds: 0,
            per_source_sweeps,
            domain_before: Vec::new(),
            domain_after: Vec::new(),
            eliminated_vars,
            backtrack_steps: 0,
            leapfrog_components,
            tree_components,
            intersection_seeks: 0,
            analysis: None,
            plan_artifact: Some(Arc::new(p.clone())),
        };
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
            // Real edges first (plan costs), then the synthesized group
            // walkers; the fixpoint visits all of them cheapest-first and
            // the synthesized tail is dropped again before enumeration.
            let mut costs = p.edge_cost.clone();
            costs.extend(aux_costs);
            self.free_edges.extend(aux_edges);
            // Synthesized group-walker edges run their fills under the same
            // governor as the real ones (they are truncated right after, so
            // no detach is needed for the tail).
            for e in &mut self.free_edges[real_edges..] {
                e.cache.govern(govh.clone());
            }
            let outcome = doms.prune(
                db,
                &mut self.free_edges,
                Some(&costs),
                opts.max_prune_rounds,
                probe,
                gov,
            );
            self.free_edges.truncate(real_edges);
            per_source_sweeps = outcome.per_source_sweeps;
            self.pipeline = Some(PipelineStats {
                rounds: outcome.rounds,
                per_source_sweeps: outcome.per_source_sweeps,
                domain_before: before,
                domain_after: doms.sizes().to_vec(),
                ..base_stats(p)
            });
            if outcome.emptied {
                return false;
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
            per_source_sweeps,
            gov,
            lf_vars,
            single_step,
        };
        let mut is_output = vec![false; self.node_count];
        for v in required {
            is_output[v.index()] = true;
        }
        let unbound_outputs = (0..self.node_count)
            .filter(|&i| is_output[i] && bindings[i].is_none())
            .count();
        // Duplicates are impossible when every constrained variable is an
        // output variable: distinct full assignments then project to
        // distinct tuples, so the hot loops skip the seen-set.
        let dedup_needed = self
            .free_edges
            .iter()
            .flat_map(|e| [e.src, e.dst])
            .chain(
                self.groups
                    .iter()
                    .flat_map(|g| g.srcs.iter().chain(g.dsts.iter()).copied()),
            )
            .any(|v| !is_output[v.index()]);
        let mut st = EnumState {
            bindings,
            edge_done: vec![false; self.free_edges.len()],
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
            if st.dedup_needed && st.seen_contains() {
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
                    st.seen_insert();
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
        // 3. Extend along a half-bound free edge — the cheapest one when a
        // plan is present, the first in query-text order otherwise (the
        // naive reference path).
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
            let (src, dst) = (self.free_edges[i].src, self.free_edges[i].dst);
            let (bs, bd) = (st.bindings[src.index()], st.bindings[dst.index()]);
            let var = if bs.is_some() { dst } else { src };
            // Worst-case-optimal routing: when `var` lies in a leapfrog
            // component and two or more pending constraints have already
            // bound their other endpoint on it, intersect all their sorted
            // candidate sets at once instead of extending along one edge
            // and filtering with the rest (which materializes every wedge
            // of a cyclic core). With a single incident bound constraint
            // the intersection degenerates to the plain extension below.
            if ctx.leapfrogs(var) {
                let mut parts: Vec<(usize, bool, NodeId)> = Vec::new();
                for (j, (e, done)) in self.free_edges.iter().zip(st.edge_done.iter()).enumerate() {
                    if *done || e.src == e.dst {
                        continue;
                    }
                    if e.dst == var {
                        if let Some(u) = st.bindings[e.src.index()] {
                            parts.push((j, true, u));
                        }
                    } else if e.src == var {
                        if let Some(u) = st.bindings[e.dst.index()] {
                            parts.push((j, false, u));
                        }
                    }
                }
                if parts.len() >= 2 {
                    return self.leapfrog_extend(db, ctx, st, var, &parts, on_solution);
                }
            }
            // Terminal projection leaf: binding `var` completes the output
            // tuple and nothing else is pending, so every admitted
            // candidate is its own existential witness — the semi-joined
            // candidate set is emitted directly, with no sub-search and no
            // sorting (the answer set is order-free).
            let terminal = st.project
                && !st.existential
                && st.unbound_outputs == 1
                && st.is_output[var.index()]
                && st.group_done.iter().all(|d| *d)
                && st.edge_done.iter().enumerate().all(|(j, d)| j == i || *d);
            if terminal {
                let from = bs.or(bd).unwrap();
                let set = if bs.is_some() {
                    self.free_edges[i].cache.targets(db, from)
                } else {
                    self.free_edges[i].cache.sources(db, from)
                };
                // Small-arity tuples with `var` at a single position pack
                // against a hoisted key template: the per-candidate dedup
                // probe is one shift-or plus a hash insert, and duplicate
                // candidates never even bind.
                let template = (st.dedup_needed
                    && matches!(st.seen, ProjSeen::Small(_))
                    && st.required.iter().filter(|v| **v == var).count() == 1)
                    .then(|| {
                        let pos = st.required.iter().position(|v| *v == var).unwrap();
                        let shift = 32 * (st.required.len() - 1 - pos) as u32;
                        let mut key = 1u128;
                        for v in &st.required {
                            let part = if *v == var {
                                0
                            } else {
                                st.bindings[v.index()].expect("output bound").0 as u128
                            };
                            key = (key << 32) | part;
                        }
                        (key, shift)
                    });
                for &c in set.iter() {
                    if ctx.gov.is_aborted() {
                        return false; // drain: emitted tuples stand
                    }
                    if !ctx.admits(var, c) {
                        continue;
                    }
                    let fresh = match (&template, st.dedup_needed) {
                        (Some((key, shift)), _) => {
                            let ProjSeen::Small(s) = &mut st.seen else {
                                unreachable!("template implies small keys")
                            };
                            s.insert(key | ((c.0 as u128) << shift))
                        }
                        (None, true) => {
                            st.bind(var, c);
                            let fresh = st.seen_insert();
                            st.unbind(var);
                            fresh
                        }
                        (None, false) => true,
                    };
                    if fresh {
                        if st.dedup_needed {
                            ctx.gov.charge_mem(32); // dedup-table growth
                        }
                        st.bind(var, c);
                        st.progress += 1;
                        let stop = on_solution(&st.bindings);
                        st.unbind(var);
                        if stop {
                            return true;
                        }
                    } else {
                        st.progress += 1; // duplicate pruned, not wasted
                    }
                }
                return false;
            }
            st.edge_done[i] = true;
            // Per-call sort, not the memoized sorted rows: binary extension
            // visits most sources once, so the row memo's hash-and-share
            // overhead never amortizes here (the leapfrog intersection, with
            // its repeated per-(source, atom) seeks, is where it pays).
            let candidates: Vec<NodeId> = if let Some(u) = bs {
                self.free_edges[i].targets_sorted(db, u, true)
            } else {
                self.free_edges[i].targets_sorted(db, bd.unwrap(), false)
            };
            for c in candidates {
                if ctx.gov.is_aborted() {
                    break; // drain the candidate sweep
                }
                if !ctx.admits(var, c) {
                    continue;
                }
                st.bind(var, c);
                let before = st.progress;
                if self.recurse(db, ctx, st, on_solution) {
                    st.unbind(var);
                    st.edge_done[i] = false;
                    return true;
                }
                if st.progress == before {
                    st.backtracks += 1;
                }
                st.unbind(var);
            }
            st.edge_done[i] = false;
            return false;
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
        if let Some(var) = seed_var {
            // Sweep the candidate nodes (the pruned domain when phase 2
            // ran, all database nodes otherwise) in stripe-sized chunks,
            // prewarming the cache of every pending free edge touching
            // `var` with one batched wavefront per chunk: the
            // `connects`/`targets` calls the recursion makes after binding
            // `var` are then memo hits. The first chunk stays per-source —
            // a boolean/check call that succeeds among the first candidates
            // (the common early exit) then never pays for a wavefront, and
            // a sweep that gets past it batches everything from the second
            // chunk on. On long-diameter graphs the prune probe's verdict
            // carries over and the prewarm is skipped entirely (per-source
            // sweeps happen lazily inside the recursion). Only the current
            // chunk is ever materialized.
            let mut candidates: Box<dyn Iterator<Item = NodeId> + '_> = match ctx.domains {
                Some(d) => Box::new(d.iter(var)),
                None => Box::new(db.nodes()),
            };
            let mut chunk: Vec<NodeId> = Vec::with_capacity(SEED_BATCH);
            let mut chunk_idx = 0usize;
            loop {
                chunk.clear();
                chunk.extend(candidates.by_ref().take(SEED_BATCH));
                if chunk.is_empty() {
                    break;
                }
                if chunk_idx > 0 && !ctx.per_source_sweeps {
                    for (i, e) in self.free_edges.iter_mut().enumerate() {
                        if st.edge_done[i] {
                            continue;
                        }
                        if e.src == var {
                            e.cache.fill_targets(db, &chunk);
                        }
                        if e.dst == var {
                            e.cache.fill_sources(db, &chunk);
                        }
                    }
                }
                for &node in &chunk {
                    if ctx.gov.is_aborted() {
                        return false;
                    }
                    st.bind(var, node);
                    let before = st.progress;
                    if self.recurse(db, ctx, st, on_solution) {
                        st.unbind(var);
                        return true;
                    }
                    if st.progress == before {
                        st.backtracks += 1;
                    }
                    st.unbind(var);
                }
                chunk_idx += 1;
            }
            return false;
        }
        // All constraints satisfied: bind required-but-unbound variables.
        let unbound_required = st
            .required
            .iter()
            .find(|v| st.bindings[v.index()].is_none())
            .copied();
        if let Some(var) = unbound_required {
            for node in db.nodes() {
                if ctx.gov.is_aborted() {
                    return false;
                }
                st.bind(var, node);
                let before = st.progress;
                if self.recurse(db, ctx, st, on_solution) {
                    st.unbind(var);
                    return true;
                }
                if st.progress == before {
                    st.backtracks += 1;
                }
                st.unbind(var);
            }
            return false;
        }
        st.progress += 1;
        on_solution(&st.bindings)
    }

    /// Extends `var` by leapfrog multiway intersection. Each `parts` entry
    /// `(edge, forward, from)` is a pending constraint whose other endpoint
    /// is bound to `from`; it contributes the sorted set of `var`-candidates
    /// it supports — a direct CSR run union for single-step atoms, a
    /// materialized sorted reach row otherwise — and the pruned domain
    /// joins as one more set. The sweep seeks every set to the running
    /// maximum (binary-search `seek_ge`, counted in
    /// [`PipelineStats::intersection_seeks`]); a value all `k` sets agree
    /// on is a candidate every incident constraint supports, so binding it
    /// discharges all participating edges at once — they are marked done
    /// for the subtree and restored on the way out. Early-exit, progress
    /// accounting and governor drains mirror the binary extension path.
    fn leapfrog_extend(
        &mut self,
        db: &GraphDb,
        ctx: &EnumCtx<'_>,
        st: &mut EnumState,
        var: NodeVar,
        parts: &[(usize, bool, NodeId)],
        on_solution: &mut dyn FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        let mut sets: Vec<SortedSet<'_>> = Vec::with_capacity(parts.len() + 1);
        for &(j, forward, from) in parts {
            match ctx.single_step.get(j).and_then(|o| o.as_ref()) {
                Some(syms) => {
                    let runs = syms
                        .iter()
                        .map(|&a| {
                            let run = if forward {
                                db.successors_with(from, a)
                            } else {
                                db.predecessors_with(from, a)
                            };
                            (a, run)
                        })
                        .collect();
                    sets.push(SortedSet::Runs(runs));
                }
                None => {
                    let row = if forward {
                        self.free_edges[j].cache.targets_sorted(db, from)
                    } else {
                        self.free_edges[j].cache.sources_sorted(db, from)
                    };
                    sets.push(SortedSet::Row(row, 0));
                }
            }
        }
        if let Some(d) = ctx.domains {
            sets.push(SortedSet::Bits(d.bits(var)));
        }
        for &(j, ..) in parts {
            st.edge_done[j] = true;
        }
        let k = sets.len();
        let mut hi = NodeId(0);
        let mut matched = 0usize;
        let mut idx = 0usize;
        let mut hit = false;
        loop {
            // Seeks are cheap but unbounded in count: checkpoint one per
            // stripe so governed runs drain mid-intersection too.
            if st.seeks.is_multiple_of(64) && !ctx.gov.checkpoint() {
                break;
            }
            st.seeks += 1;
            let Some(n) = sets[idx].seek_ge(hi) else {
                break;
            };
            if n == hi {
                matched += 1;
            } else {
                hi = n;
                matched = 1;
            }
            idx = (idx + 1) % k;
            if matched < k {
                continue;
            }
            // `hi` is in every candidate set (and the pruned domain).
            if ctx.gov.is_aborted() {
                break; // drain: emitted tuples stand
            }
            st.bind(var, hi);
            let before = st.progress;
            let stop = self.recurse(db, ctx, st, on_solution);
            if !stop && st.progress == before {
                st.backtracks += 1;
            }
            st.unbind(var);
            if stop {
                hit = true;
                break;
            }
            matched = 0;
            let Some(next) = hi.0.checked_add(1) else {
                break;
            };
            hi = NodeId(next);
        }
        for &(j, ..) in parts {
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
        let mut found = false;
        let hit = p.solve_with(
            &db,
            &HashMap::new(),
            &[],
            &SolveOptions::pipeline().projected(),
            &mut |_| {
                found = true;
                true
            },
        );
        assert!(hit && found);
        let stats = p.pipeline.expect("pipeline stats recorded");
        assert_eq!(
            stats.backtrack_steps, 0,
            "arc-consistent satisfiable Boolean must not backtrack"
        );
        // Every variable of the order is existential for a Boolean call.
        assert_eq!(stats.eliminated_vars, stats.var_order.len());
        assert_eq!(stats.eliminated_vars, 3);
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
