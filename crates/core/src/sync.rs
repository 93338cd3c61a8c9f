//! Synchronized multi-walker product search.
//!
//! This is the algorithmic heart of both the Lemma 3 evaluator (simple
//! CXRPQs: all edges of a variable group must be labelled by the *same*
//! word, i.e. an equality relation whose definition edge additionally
//! satisfies a regular constraint) and the ECRPQ evaluator (arbitrary
//! regular relations over tuples of paths).
//!
//! A [`SyncSpec`] bundles one NFA per walker plus a [`RegularRelation`] over
//! the walkers' words. The search explores the product
//! `V^s × 2^{Q₁} × … × 2^{Q_s} × Q_rel × 2^s` (positions, per-walker NFA
//! state sets, relation state, finished mask) on the fly — the explicit form
//! of the `G_{q′,D}` graph in the proof of Lemma 3, which underlies the
//! `O(|q| log |D|)` nondeterministic space bound.
//!
//! Representation: per-walker state sets are [`MaskSim`] bitmasks
//! (`⌈|Qᵢ|/64⌉` words each, concatenated into one flat `Vec<u64>` per
//! configuration), adjacency is expanded over merged per-label runs (base
//! CSR range + delta overlay, [`cxrpq_graph::EdgeRun`]), and — whenever
//! positions, masks, relation state and finished
//! bits together fit in 128 bits — the visited set is keyed by a packed
//! `u128` instead of hashing whole configurations.
//!
//! The search is level-synchronous: each BFS level is expanded as a batch,
//! and levels above the [`FrontierConfig`] threshold are sharded across
//! scoped worker threads (the shared frontier engine of
//! [`crate::frontier`]). Workers dedup their discoveries in private
//! per-level sets; the level barrier merges them into the global visited
//! set, so results are identical to the serial walk regardless of thread
//! count.

use crate::frontier::{expand_sharded_governed, FrontierConfig};
use crate::governor::Governor;
use crate::reach::{reverse_nfa, Direction, ReachStats};
use crate::relation::{RegularRelation, RelLabel, TupComp};
use cxrpq_automata::{MaskSim, Nfa};
use cxrpq_graph::{GraphDb, NodeId, Symbol};
use std::collections::HashSet;

/// A synchronized group: per-walker automata plus a relation over their
/// words.
#[derive(Clone, Debug)]
pub struct SyncSpec {
    /// One automaton per walker (walker `i`'s path label must be accepted).
    pub nfas: Vec<Nfa>,
    /// The relation constraining the tuple of path labels.
    pub relation: RegularRelation,
}

impl SyncSpec {
    /// A spec requiring all walkers to read the same word, with walker 0
    /// additionally constrained by `def_nfa` (the CXRPQ variable-group
    /// shape: one definition edge + references).
    pub fn equality_group(mut def_nfa: Option<Nfa>, arity: usize) -> Self {
        let mut nfas = Vec::with_capacity(arity);
        for i in 0..arity {
            match (i, def_nfa.take()) {
                (0, Some(m)) => nfas.push(m),
                _ => nfas.push(sigma_star_nfa()),
            }
        }
        Self {
            nfas,
            relation: RegularRelation::equality(arity),
        }
    }

    /// Arity (number of walkers).
    pub fn arity(&self) -> usize {
        self.nfas.len()
    }

    /// The reversed spec, for backward search.
    pub fn reversed(&self) -> Self {
        Self {
            nfas: self.nfas.iter().map(reverse_nfa).collect(),
            relation: self.relation.reversed(),
        }
    }
}

/// A 2-state automaton for Σ*.
pub fn sigma_star_nfa() -> Nfa {
    let mut m = Nfa::with_states(1);
    m.add_transition(
        cxrpq_automata::StateId(0),
        cxrpq_automata::Label::Any,
        cxrpq_automata::StateId(0),
    );
    m.set_final(cxrpq_automata::StateId(0), true);
    m
}

/// One configuration of the synchronized product (crate-internal: the
/// witness extractor re-runs the search with parent tracking).
///
/// `statesets` concatenates the per-walker [`MaskSim`] bitmasks (walker `i`
/// occupies the word range the owning [`SyncSearch`] assigns it).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct SyncState {
    pub(crate) positions: Vec<NodeId>,
    pub(crate) finished: u64,
    pub(crate) statesets: Vec<u64>,
    pub(crate) rstate: u32,
}

/// Packs configurations into `u128` visited keys when the product's
/// coordinates are jointly narrow enough.
struct Packer {
    node_bits: u32,
    state_bits: Vec<u32>,
    rel_bits: u32,
}

impl Packer {
    /// A packer for the given sizes, or `None` when a configuration cannot
    /// fit in 128 bits (multi-word masks never pack).
    fn try_new(db: &GraphDb, sims: &[MaskSim], relation: &RegularRelation) -> Option<Self> {
        let bits_for = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
        if sims.iter().any(|s| s.words() > 1) {
            return None;
        }
        let node_bits = bits_for(db.node_count()).max(1);
        let rel_bits = bits_for(relation.state_count()).max(1);
        let state_bits: Vec<u32> = sims.iter().map(|s| s.state_count().max(1) as u32).collect();
        let total = sims.len() as u32 * node_bits
            + state_bits.iter().sum::<u32>()
            + rel_bits
            + sims.len() as u32;
        (total <= 128).then_some(Self {
            node_bits,
            state_bits,
            rel_bits,
        })
    }

    fn pack(&self, st: &SyncState) -> u128 {
        let mut acc: u128 = 0;
        for (i, p) in st.positions.iter().enumerate() {
            acc = (acc << self.node_bits) | p.0 as u128;
            acc = (acc << self.state_bits[i]) | st.statesets[i] as u128;
        }
        acc = (acc << self.rel_bits) | st.rstate as u128;
        (acc << st.positions.len()) | st.finished as u128
    }
}

/// The visited set of a synchronized search: packed keys when the product
/// fits, whole configurations otherwise.
enum Visited {
    Packed(HashSet<u128>, Packer),
    General(HashSet<SyncState>),
}

impl Visited {
    fn new(db: &GraphDb, sims: &[MaskSim], relation: &RegularRelation) -> Self {
        match Packer::try_new(db, sims, relation) {
            Some(p) => Visited::Packed(HashSet::new(), p),
            None => Visited::General(HashSet::new()),
        }
    }

    fn insert(&mut self, st: &SyncState) -> bool {
        match self {
            Visited::Packed(set, packer) => set.insert(packer.pack(st)),
            Visited::General(set) => set.insert(st.clone()),
        }
    }

    /// Read-only membership test — shard workers use it to drop states
    /// discovered in earlier levels without cloning them into their
    /// private lists.
    fn contains(&self, st: &SyncState) -> bool {
        match self {
            Visited::Packed(set, packer) => set.contains(&packer.pack(st)),
            Visited::General(set) => set.contains(st),
        }
    }

    /// An empty per-level dedup set sharing this visited set's key scheme —
    /// the private structure each shard worker fills before the barrier
    /// merge.
    fn level_seen(&self) -> LevelSeen<'_> {
        match self {
            Visited::Packed(_, packer) => LevelSeen::Packed(HashSet::new(), packer),
            Visited::General(_) => LevelSeen::General(HashSet::new()),
        }
    }
}

/// A shard worker's private discovery set for one level (same keying as the
/// global [`Visited`], merged serially at the level barrier).
enum LevelSeen<'p> {
    Packed(HashSet<u128>, &'p Packer),
    General(HashSet<SyncState>),
}

impl LevelSeen<'_> {
    fn insert(&mut self, st: &SyncState) -> bool {
        match self {
            LevelSeen::Packed(set, packer) => set.insert(packer.pack(st)),
            LevelSeen::General(set) => set.insert(st.clone()),
        }
    }
}

/// The synchronized product searcher.
pub struct SyncSearch<'a> {
    db: &'a GraphDb,
    spec: &'a SyncSpec,
    dir: Direction,
    /// Bitmask simulation tables, one per walker.
    sims: Vec<MaskSim>,
    /// Word offset of walker `i`'s mask inside `SyncState::statesets`.
    offsets: Vec<usize>,
    total_words: usize,
    cfg: FrontierConfig,
    gov: &'a Governor,
}

impl<'a> SyncSearch<'a> {
    fn new(db: &'a GraphDb, spec: &'a SyncSpec, dir: Direction) -> Self {
        let sims: Vec<MaskSim> = spec.nfas.iter().map(MaskSim::new).collect();
        let mut offsets = Vec::with_capacity(sims.len());
        let mut total_words = 0;
        for sim in &sims {
            offsets.push(total_words);
            total_words += sim.words();
        }
        Self {
            db,
            spec,
            dir,
            sims,
            offsets,
            total_words,
            cfg: FrontierConfig::auto(),
            gov: Governor::disabled(),
        }
    }

    /// Overrides the frontier-engine knobs (thread count / serial
    /// threshold) for this search.
    pub fn with_config(mut self, cfg: FrontierConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Runs the search under a [`Governor`]: the level loop checkpoints
    /// with fuel proportional to each level, sharded workers observe the
    /// abort flag and drain, and an aborted run returns the (sound,
    /// partial) tuples settled so far — for a membership check that means
    /// "not found", an under-approximation.
    pub fn with_governor(mut self, gov: &'a Governor) -> Self {
        self.gov = gov;
        self
    }

    /// Forward search over `db`.
    pub fn forward(db: &'a GraphDb, spec: &'a SyncSpec) -> Self {
        Self::new(db, spec, Direction::Forward)
    }

    /// Backward search (pass a [`SyncSpec::reversed`] spec).
    pub fn backward(db: &'a GraphDb, reversed_spec: &'a SyncSpec) -> Self {
        Self::new(db, reversed_spec, Direction::Backward)
    }

    pub(crate) fn spec(&self) -> &SyncSpec {
        self.spec
    }

    /// Walker `i`'s mask inside `statesets`.
    #[inline]
    fn mask_of<'s>(&self, st: &'s SyncState, i: usize) -> &'s [u64] {
        &st.statesets[self.offsets[i]..self.offsets[i] + self.sims[i].words()]
    }

    /// Merged `a`-labelled run of `p`'s row in search direction.
    fn adj_with(&self, p: NodeId, a: Symbol) -> cxrpq_graph::EdgeRun<'a> {
        match self.dir {
            Direction::Forward => self.db.successors_with(p, a),
            Direction::Backward => self.db.predecessors_with(p, a),
        }
    }

    /// Maximal equal-label runs of `p`'s row in search direction.
    fn label_runs(&self, p: NodeId) -> cxrpq_graph::LabelRuns<'a> {
        match self.dir {
            Direction::Forward => self.db.out_label_runs(p),
            Direction::Backward => self.db.in_label_runs(p),
        }
    }

    pub(crate) fn initial(&self, starts: &[NodeId]) -> SyncState {
        let mut statesets = Vec::with_capacity(self.total_words);
        for sim in &self.sims {
            statesets.extend_from_slice(sim.start_mask());
        }
        SyncState {
            positions: starts.to_vec(),
            finished: 0,
            statesets,
            rstate: self.spec.relation.start(),
        }
    }

    pub(crate) fn accepting(&self, st: &SyncState) -> bool {
        if !self.spec.relation.is_final(st.rstate) {
            return false;
        }
        (0..self.spec.arity())
            .all(|i| st.finished & (1 << i) != 0 || self.sims[i].any_final(self.mask_of(st, i)))
    }

    /// All end-position tuples reachable from `starts` under the spec.
    ///
    /// When `ends` is given, the search prunes frozen walkers against it and
    /// stops at the first hit (membership check).
    ///
    /// The walk is level-synchronous; levels above the configured threshold
    /// (see [`SyncSearch::with_config`]) are sharded across scoped worker
    /// threads, with per-worker dedup sets merged into the global visited
    /// set at each level barrier. The result is identical for every thread
    /// count.
    pub fn run(
        &self,
        starts: &[NodeId],
        ends: Option<&[NodeId]>,
        stats: Option<&ReachStats>,
    ) -> HashSet<Vec<NodeId>> {
        let s = self.spec.arity();
        assert_eq!(starts.len(), s);
        assert!(s <= 64, "at most 64 synchronized walkers");
        let init = self.initial(starts);
        let mut out = HashSet::new();
        let mut visited = Visited::new(self.db, &self.sims, &self.spec.relation);
        visited.insert(&init);
        let mut level = vec![init];
        while !level.is_empty() {
            if !self.gov.checkpoint_n(level.len() as u64) {
                return out; // drain: partial tuples are a sound subset
            }
            for st in &level {
                if let Some(stats) = stats {
                    stats.bump(1);
                }
                if self.accepting(st) {
                    match ends {
                        Some(e) => {
                            if st.positions == e {
                                out.insert(st.positions.clone());
                                return out;
                            }
                        }
                        None => {
                            out.insert(st.positions.clone());
                        }
                    }
                }
            }
            let shards = self.cfg.shards_for(level.len());
            let mut next: Vec<SyncState> = Vec::new();
            if shards <= 1 {
                // Serial fast path: dedup directly against the global
                // visited set, exactly like the pre-level-synchronous
                // queue walk (no per-level shadow set, no re-cloning).
                for st in &level {
                    if self.gov.is_aborted() {
                        break;
                    }
                    self.expand_moves(st, ends, &mut |nxt, _| {
                        if visited.insert(&nxt) {
                            next.push(nxt);
                        }
                    });
                }
            } else {
                let discovered = expand_sharded_governed(
                    &level,
                    shards,
                    self.cfg.pool(),
                    self.gov,
                    |_, slice| {
                        let mut seen = visited.level_seen();
                        let mut found: Vec<SyncState> = Vec::new();
                        for (i, st) in slice.iter().enumerate() {
                            if i & 15 == 0 && self.gov.is_aborted() {
                                break; // worker observes the flag and drains
                            }
                            self.expand_moves(st, ends, &mut |nxt, _| {
                                // Read-only pre-filter against earlier levels,
                                // then private intra-level dedup.
                                if !visited.contains(&nxt) && seen.insert(&nxt) {
                                    found.push(nxt);
                                }
                            });
                        }
                        found
                    },
                );
                // Level barrier: global dedup (and cross-worker dedup)
                // builds the next level.
                for found in discovered {
                    for st in found {
                        if visited.insert(&st) {
                            next.push(st);
                        }
                    }
                }
            }
            level = next;
        }
        out
    }

    /// Expands a configuration, reporting each successor together with the
    /// per-walker symbol consumed (`None` = the walker padded / stayed
    /// frozen) — the information the witness extractor needs to reconstruct
    /// paths.
    pub(crate) fn expand_moves(
        &self,
        st: &SyncState,
        ends: Option<&[NodeId]>,
        emit: &mut impl FnMut(SyncState, &[Option<Symbol>]),
    ) {
        let s = self.spec.arity();
        let rel = &self.spec.relation;
        for (label, rnext) in rel.transitions(st.rstate) {
            match label {
                RelLabel::AllEqualSym => {
                    if st.finished != 0 {
                        continue; // all components must read a symbol
                    }
                    // Degenerate arity 0: no walker can read a symbol, so
                    // the label contributes no successors.
                    let Some(&p0) = st.positions.first() else {
                        continue;
                    };
                    // Candidate symbols: walker 0's distinct labels (the
                    // merged label runs across both storage layers), kept
                    // only when every other walker has a matching run.
                    'sym: for (a, run0) in self.label_runs(p0) {
                        let mut succs: Vec<cxrpq_graph::EdgeRun<'a>> = Vec::with_capacity(s);
                        succs.push(run0);
                        for i in 1..s {
                            let range = self.adj_with(st.positions[i], a);
                            if range.is_empty() {
                                continue 'sym;
                            }
                            succs.push(range);
                        }
                        // Step every walker's mask on the shared symbol.
                        let mut next_states = vec![0u64; self.total_words];
                        let mut dead = false;
                        for i in 0..s {
                            let (lo, hi) =
                                (self.offsets[i], self.offsets[i] + self.sims[i].words());
                            if !self.sims[i].step_into(
                                self.mask_of(st, i),
                                a,
                                &mut next_states[lo..hi],
                            ) {
                                dead = true;
                                break;
                            }
                        }
                        if dead {
                            continue;
                        }
                        self.emit_combos(&succs, &next_states, st.finished, *rnext, a, emit);
                    }
                }
                RelLabel::Tuple(comps) => {
                    // Build per-walker move options.
                    //   Pad: freeze (must be finishable), position unchanged.
                    //   Sym/Any: advance on a compatible edge.
                    // The stepped mask depends only on (walker, symbol), so
                    // options over the same label run share one Rc'd mask
                    // instead of cloning it per adjacent edge.
                    type Opt = (NodeId, std::rc::Rc<[u64]>, bool, Option<Symbol>);
                    let mut per_walker: Vec<Vec<Opt>> = Vec::with_capacity(s);
                    let mut dead = false;
                    for i in 0..s {
                        let already = st.finished & (1 << i) != 0;
                        let cur = self.mask_of(st, i);
                        let mut opts: Vec<Opt> = Vec::new();
                        match comps[i] {
                            TupComp::Pad => {
                                if already {
                                    opts.push((st.positions[i], cur.into(), true, None));
                                } else {
                                    match self.dir {
                                        // Left-to-right reading pads after
                                        // the word *ends*: freeze, and the
                                        // frozen mask must accept. With a
                                        // known end, prune.
                                        Direction::Forward => {
                                            if self.sims[i].any_final(cur)
                                                && ends
                                                    .map(|e| e[i] == st.positions[i])
                                                    .unwrap_or(true)
                                            {
                                                opts.push((
                                                    st.positions[i],
                                                    cur.into(),
                                                    true,
                                                    None,
                                                ));
                                            }
                                        }
                                        // Right-to-left reading pads before
                                        // the word *starts* (reversal moves
                                        // padding to the front): stay put,
                                        // unfrozen, and begin reading on a
                                        // later level.
                                        Direction::Backward => {
                                            opts.push((st.positions[i], cur.into(), false, None));
                                        }
                                    }
                                }
                            }
                            TupComp::Sym(a) => {
                                if !already {
                                    let ns = self.sims[i].step(cur, a);
                                    if ns.iter().any(|&b| b != 0) {
                                        let ns: std::rc::Rc<[u64]> = ns.into();
                                        for (_, v) in self.adj_with(st.positions[i], a) {
                                            opts.push((v, ns.clone(), false, Some(a)));
                                        }
                                    }
                                }
                            }
                            TupComp::Any => {
                                if !already {
                                    for (b, run) in self.label_runs(st.positions[i]) {
                                        let ns = self.sims[i].step(cur, b);
                                        if ns.iter().any(|&x| x != 0) {
                                            let ns: std::rc::Rc<[u64]> = ns.into();
                                            for (_, v) in run {
                                                opts.push((v, ns.clone(), false, Some(b)));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        if opts.is_empty() {
                            dead = true;
                            break;
                        }
                        per_walker.push(opts);
                    }
                    if dead {
                        continue;
                    }
                    // Cartesian combination.
                    let mut combo: Vec<usize> = vec![0; s];
                    loop {
                        let mut positions = Vec::with_capacity(s);
                        let mut statesets = Vec::with_capacity(self.total_words);
                        let mut moves = Vec::with_capacity(s);
                        let mut finished = 0u64;
                        for i in 0..s {
                            let (p, ss, fin, mv) = &per_walker[i][combo[i]];
                            positions.push(*p);
                            statesets.extend_from_slice(ss);
                            moves.push(*mv);
                            if *fin {
                                finished |= 1 << i;
                            }
                        }
                        emit(
                            SyncState {
                                positions,
                                finished,
                                statesets,
                                rstate: *rnext,
                            },
                            &moves,
                        );
                        if !advance_odometer(&mut combo, |k| per_walker[k].len()) {
                            break;
                        }
                    }
                }
            }
        }
    }

    fn emit_combos(
        &self,
        succs: &[cxrpq_graph::EdgeRun<'_>],
        next_states: &[u64],
        finished: u64,
        rnext: u32,
        shared_sym: Symbol,
        emit: &mut impl FnMut(SyncState, &[Option<Symbol>]),
    ) {
        let s = succs.len();
        if succs.iter().any(|r| r.is_empty()) {
            return;
        }
        let moves: Vec<Option<Symbol>> = vec![Some(shared_sym); s];
        let mut combo = vec![0usize; s];
        loop {
            let positions: Vec<NodeId> = (0..s).map(|i| succs[i].get(combo[i]).1).collect();
            emit(
                SyncState {
                    positions,
                    finished,
                    statesets: next_states.to_vec(),
                    rstate: rnext,
                },
                &moves,
            );
            if !advance_odometer(&mut combo, |k| succs[k].len()) {
                break;
            }
        }
    }
}

/// Advances a mixed-radix counter; `false` once every combination has been
/// produced.
fn advance_odometer(combo: &mut [usize], radix: impl Fn(usize) -> usize) -> bool {
    for k in (0..combo.len()).rev() {
        combo[k] += 1;
        if combo[k] < radix(k) {
            return true;
        }
        combo[k] = 0;
    }
    false
}

/// Convenience: end tuples reachable from `starts` (forward).
pub fn sync_targets(
    db: &GraphDb,
    spec: &SyncSpec,
    starts: &[NodeId],
    stats: Option<&ReachStats>,
) -> HashSet<Vec<NodeId>> {
    SyncSearch::forward(db, spec).run(starts, None, stats)
}

/// Convenience: start tuples that reach `ends` (backward on a reversed spec).
pub fn sync_sources(
    db: &GraphDb,
    reversed_spec: &SyncSpec,
    ends: &[NodeId],
    stats: Option<&ReachStats>,
) -> HashSet<Vec<NodeId>> {
    SyncSearch::backward(db, reversed_spec).run(ends, None, stats)
}

/// Convenience: does some tuple of identically-constrained paths connect
/// `starts` to `ends`?
pub fn sync_check(
    db: &GraphDb,
    spec: &SyncSpec,
    starts: &[NodeId],
    ends: &[NodeId],
    stats: Option<&ReachStats>,
) -> bool {
    !SyncSearch::forward(db, spec)
        .run(starts, Some(ends), stats)
        .is_empty()
}

/// [`sync_targets`] under a [`Governor`] (see
/// [`SyncSearch::with_governor`]).
pub fn sync_targets_governed(
    db: &GraphDb,
    spec: &SyncSpec,
    starts: &[NodeId],
    stats: Option<&ReachStats>,
    gov: &Governor,
) -> HashSet<Vec<NodeId>> {
    SyncSearch::forward(db, spec)
        .with_governor(gov)
        .run(starts, None, stats)
}

/// [`sync_sources`] under a [`Governor`] (see
/// [`SyncSearch::with_governor`]).
pub fn sync_sources_governed(
    db: &GraphDb,
    reversed_spec: &SyncSpec,
    ends: &[NodeId],
    stats: Option<&ReachStats>,
    gov: &Governor,
) -> HashSet<Vec<NodeId>> {
    SyncSearch::backward(db, reversed_spec)
        .with_governor(gov)
        .run(ends, None, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::{Alphabet, GraphBuilder};
    use std::sync::Arc;

    /// Two disjoint labelled paths from fresh sources to fresh sinks.
    fn two_path_db(w1: &str, w2: &str) -> (GraphDb, [NodeId; 4]) {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s1 = db.add_node();
        let t1 = db.add_node();
        let s2 = db.add_node();
        let t2 = db.add_node();
        let p1 = db.alphabet().parse_word(w1).unwrap();
        let p2 = db.alphabet().parse_word(w2).unwrap();
        db.add_word_path(s1, &p1, t1);
        db.add_word_path(s2, &p2, t2);
        (db.freeze(), [s1, t1, s2, t2])
    }

    /// Label-oblivious BFS distance, `None` when unreachable — robust on
    /// dead-end nodes and branching graphs, unlike chasing `out_edges[0]`.
    fn bfs_distance(db: &GraphDb, from: NodeId, to: NodeId) -> Option<usize> {
        let mut dist = vec![usize::MAX; db.node_count()];
        let mut queue = std::collections::VecDeque::from([from]);
        dist[from.index()] = 0;
        while let Some(n) = queue.pop_front() {
            if n == to {
                return Some(dist[n.index()]);
            }
            for (_, t) in db.out_edges(n) {
                if dist[t.index()] == usize::MAX {
                    dist[t.index()] = dist[n.index()] + 1;
                    queue.push_back(t);
                }
            }
        }
        None
    }

    #[test]
    fn equality_group_requires_equal_words() {
        let (db, [s1, t1, s2, t2]) = two_path_db("abc", "abc");
        let spec = SyncSpec::equality_group(None, 2);
        assert!(sync_check(&db, &spec, &[s1, s2], &[t1, t2], None));
        let (db2, [s1, t1, s2, t2]) = two_path_db("abc", "abb");
        assert!(!sync_check(&db2, &spec, &[s1, s2], &[t1, t2], None));
        // Equal prefixes of different length do not connect the sinks.
        let (db3, [s1, t1, s2, t2]) = two_path_db("ab", "abc");
        assert!(!sync_check(&db3, &spec, &[s1, s2], &[t1, t2], None));
    }

    #[test]
    fn definition_constrains_the_shared_word() {
        let (db, [s1, t1, s2, t2]) = two_path_db("aab", "aab");
        let mut alpha = db.alphabet().clone();
        let good = Nfa::from_regex(&parse_regex("a*b", &mut alpha).unwrap());
        let bad = Nfa::from_regex(&parse_regex("b+", &mut alpha).unwrap());
        let spec_good = SyncSpec::equality_group(Some(good), 2);
        let spec_bad = SyncSpec::equality_group(Some(bad), 2);
        assert!(sync_check(&db, &spec_good, &[s1, s2], &[t1, t2], None));
        assert!(!sync_check(&db, &spec_bad, &[s1, s2], &[t1, t2], None));
    }

    #[test]
    fn targets_enumerates_tuples() {
        let (db, [s1, _, s2, _]) = two_path_db("ab", "ab");
        let spec = SyncSpec::equality_group(None, 2);
        let tuples = sync_targets(&db, &spec, &[s1, s2], None);
        // Tuples after reading ε, a, ab — 3 synchronized frontier tuples.
        assert_eq!(tuples.len(), 3);
        assert!(tuples.contains(&vec![s1, s2]));
    }

    #[test]
    fn backward_sources_mirror_forward() {
        let (db, [s1, t1, s2, t2]) = two_path_db("abc", "abc");
        let spec = SyncSpec::equality_group(None, 2);
        let rev = spec.reversed();
        let sources = sync_sources(&db, &rev, &[t1, t2], None);
        assert!(sources.contains(&vec![s1, s2]));
        // And prefix-aligned interior tuples, but never mixed-offset ones:
        // both walkers must sit at the same BFS distance from their sinks.
        for tup in &sources {
            let d0 = bfs_distance(&db, tup[0], t1).expect("walker 0 reaches its sink");
            let d1 = bfs_distance(&db, tup[1], t2).expect("walker 1 reaches its sink");
            assert_eq!(d0, d1, "mixed-offset tuple {tup:?}");
        }
    }

    #[test]
    fn single_walker_reduces_to_reachability() {
        let (db, [s1, t1, _, _]) = two_path_db("abc", "c");
        let mut alpha = db.alphabet().clone();
        let m = Nfa::from_regex(&parse_regex("abc", &mut alpha).unwrap());
        let spec = SyncSpec {
            nfas: vec![m],
            relation: RegularRelation::equal_length(1),
        };
        assert!(sync_check(&db, &spec, &[s1], &[t1], None));
    }

    #[test]
    fn prefix_relation_group() {
        // Walker 1's word must be a prefix of walker 2's word.
        let (db, [s1, t1, s2, t2]) = two_path_db("ab", "abca");
        let spec = SyncSpec {
            nfas: vec![sigma_star_nfa(), sigma_star_nfa()],
            relation: RegularRelation::prefix(),
        };
        assert!(sync_check(&db, &spec, &[s1, s2], &[t1, t2], None));
        let (db2, [s1, t1, s2, t2]) = two_path_db("ba", "abca");
        assert!(!sync_check(&db2, &spec, &[s1, s2], &[t1, t2], None));
    }

    #[test]
    fn epsilon_tuple_accepts_in_place() {
        let (db, [s1, _, s2, _]) = two_path_db("a", "a");
        let spec = SyncSpec::equality_group(None, 2);
        assert!(sync_check(&db, &spec, &[s1, s2], &[s1, s2], None));
    }

    #[test]
    fn three_walker_equality_on_branching_graph() {
        // A diamond: s -a-> m1 -b-> t ; s -a-> m2 -c-> t. Three walkers from
        // s must all pick the same labels.
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let b = db.alphabet().sym("b");
        let c = db.alphabet().sym("c");
        let s = db.add_node();
        let m1 = db.add_node();
        let m2 = db.add_node();
        let t = db.add_node();
        db.add_edge(s, a, m1);
        db.add_edge(s, a, m2);
        db.add_edge(m1, b, t);
        db.add_edge(m2, c, t);
        let db = db.freeze();
        let spec = SyncSpec::equality_group(None, 3);
        let tuples = sync_targets(&db, &spec, &[s, s, s], None);
        // Walkers can diverge in position (m1 vs m2 after 'a') but words stay
        // equal; all-at-t requires ab/ab/ab or ac/ac/ac — both fine.
        assert!(tuples.contains(&vec![t, t, t]));
        assert!(tuples.contains(&vec![m1, m2, m1]));
    }

    #[test]
    fn arity_zero_spec_is_degenerate_not_panicking() {
        // An empty equality group has one configuration (the empty tuple),
        // which the empty relation accepts immediately.
        let (db, _) = two_path_db("a", "a");
        let spec = SyncSpec::equality_group(None, 0);
        let tuples = sync_targets(&db, &spec, &[], None);
        assert_eq!(tuples, HashSet::from([vec![]]));
    }

    #[test]
    fn forced_parallel_levels_match_serial() {
        // Force sharding on every level (threshold 0, 4 workers): the
        // tuple sets must match the serial search exactly, with and
        // without a known end.
        let (db, [s1, t1, s2, t2]) = two_path_db("abcabc", "abcabc");
        let mut alpha = db.alphabet().clone();
        let def = Nfa::from_regex(&parse_regex("(a|b|c)+", &mut alpha).unwrap());
        let spec = SyncSpec::equality_group(Some(def), 2);
        let parallel = FrontierConfig::with_threads(4).with_serial_threshold(0);
        let serial_tuples = SyncSearch::forward(&db, &spec)
            .with_config(FrontierConfig::serial())
            .run(&[s1, s2], None, None);
        let parallel_tuples =
            SyncSearch::forward(&db, &spec)
                .with_config(parallel)
                .run(&[s1, s2], None, None);
        assert_eq!(serial_tuples, parallel_tuples);
        assert!(parallel_tuples.contains(&vec![t1, t2]));
        let hit = SyncSearch::forward(&db, &spec).with_config(parallel).run(
            &[s1, s2],
            Some(&[t1, t2]),
            None,
        );
        assert_eq!(hit, HashSet::from([vec![t1, t2]]));
    }

    #[test]
    fn packed_and_general_visited_agree() {
        // A definition NFA with > 64 Thompson states forces the general
        // (unpacked) visited representation; results must match the packed
        // run of an equivalent small automaton.
        let (db, [s1, t1, s2, t2]) = two_path_db("abcabc", "abcabc");
        let mut alpha = db.alphabet().clone();
        let small = Nfa::from_regex(&parse_regex("(abc)+", &mut alpha).unwrap());
        // Same language, inflated state count (> 64 states ⇒ 2 mask words):
        // a redundant union of many copies of the same automaton.
        let big = Nfa::union(&vec![small.clone(); 10]);
        assert!(big.state_count() > 64, "need a multi-word mask");
        let spec_small = SyncSpec::equality_group(Some(small), 2);
        let spec_big = SyncSpec::equality_group(Some(big), 2);
        let a = sync_targets(&db, &spec_small, &[s1, s2], None);
        let b = sync_targets(&db, &spec_big, &[s1, s2], None);
        assert_eq!(a, b);
        assert!(a.contains(&vec![t1, t2]));
    }

    #[test]
    fn backward_walk_handles_padded_relations() {
        // Prefix relation over words of different lengths: reversal moves
        // the padding to the *front* of the tuple word, so the backward
        // walk must let the shorter walker idle unfrozen before it starts
        // reading — freezing it (forward Pad semantics) loses the answer.
        let (db, [s1, t1, s2, t2]) = two_path_db("ab", "abba");
        let mut alpha = db.alphabet().clone();
        let sigma = |a: &mut _| Nfa::from_regex(&parse_regex("(a|b)+", a).unwrap());
        let spec = SyncSpec {
            nfas: vec![sigma(&mut alpha), sigma(&mut alpha)],
            relation: RegularRelation::prefix(),
        };
        let fwd = sync_targets(&db, &spec, &[s1, s2], None);
        assert!(fwd.contains(&vec![t1, t2]), "ab prefix of abba (forward)");
        let bwd = sync_sources(&db, &spec.reversed(), &[t1, t2], None);
        assert!(bwd.contains(&vec![s1, s2]), "ab prefix of abba (backward)");
        // And the non-prefix direction stays rejected both ways.
        let fwd_rev = sync_targets(&db, &spec, &[s2, s1], None);
        assert!(!fwd_rev.contains(&vec![t2, t1]));
        let bwd_rev = sync_sources(&db, &spec.reversed(), &[t2, t1], None);
        assert!(!bwd_rev.contains(&vec![s2, s1]));
    }
}
