//! Product reachability over `D × M`: the search underlying RPQ evaluation
//! (and the NL data-complexity bound of Lemma 1 / Lemma 3), in two forms.
//!
//! **Single-source** ([`reach_set`]): a BFS from one `(u, q₀)` seed that
//! visits each `(node, state)` pair at most once. The pair space is a dense
//! rectangle `|V_D| × |Q|`, so the visited set is a [`DenseBitSet`] indexed
//! by `node · |Q| + state` — no hashing — and each `Sym(a)` transition
//! expands over the merged per-`(node, a)` run (contiguous base-CSR range
//! chained with the delta-overlay range;
//! [`GraphDb::successors_with`] / [`GraphDb::predecessors_with`]) instead
//! of filtering the whole adjacency row.
//!
//! **Batched multi-source** ([`reach_all`]): the wavefront form. The solver's
//! candidate loops want `targets` for *many* sources of the *same* automaton;
//! running one BFS per source re-walks the shared explored region once per
//! source. `reach_all` instead runs ONE level-synchronous label-propagation
//! pass: every `(node, state)` cell carries a `u64` source-membership word
//! (sources are processed in stripes of 64, so arbitrarily many sources
//! cost `⌈k/64⌉` passes), a frontier cell ORs its membership into each
//! successor cell, and a cell re-enters the frontier only when its
//! membership grows. A sweep over `k` sources thus costs one pass over the
//! explored region per stripe instead of `k` passes.
//!
//! Frontier levels large enough to amortize thread spawns are sharded
//! across scoped workers via the shared frontier engine
//! ([`crate::frontier`]): membership words are merged with relaxed
//! `fetch_or`, and each worker records the cells it grew in a private
//! next-frontier structure merged at the level barrier — dense
//! [`DenseBitSet`]s OR-merged word-by-word when the frontier is a sizable
//! fraction of the rectangle, sparse dirty lists deduped through one
//! reused bitset otherwise, so per-level cost stays proportional to the
//! frontier, never to the whole `|V| · |Q|` rectangle.
//!
//! **Pinned pair** ([`ReachCache::connects_pair`]): the Check question
//! "is `(u, v)` in `R_M`?" when both endpoints are fixed. Instead of
//! `u`'s whole forward closure it runs one meet-in-the-middle search:
//! forward from `(u, closure(q₀))` over `M` and backward from
//! `(v, finals)` over the reversed automaton. Each side keeps one
//! ε-closed state set per explored node as a [`MaskSim`] bitmask in a
//! sparse map sized to the explored region, and each step expands the
//! side with the smaller frontier by one level, in insertion order. The
//! search stops as soon as some node's forward and backward masks share
//! a state (a word of `L(M)` splits there) or one side runs dry. Its
//! [`ReachStats`] count is the number of nodes expanded, not product
//! cells.

use crate::frontier::{expand_sharded_governed, FrontierConfig};
use crate::governor::Governor;
use cxrpq_automata::{Label, MaskSim, Nfa, StateId};
use cxrpq_graph::{DenseBitSet, GraphDb, NodeId, Symbol};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Walk direction through the database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Follow out-edges (words read left to right).
    Forward,
    /// Follow in-edges with a reversed automaton.
    Backward,
}

/// Counts product states explored — the measured proxy for the paper's
/// space bounds in EXPERIMENTS.md. A pinned-pair search
/// ([`ReachCache::connects_pair`]) counts the nodes it expands instead.
///
/// The counter is atomic so sharded frontier workers can bump it directly;
/// all accesses are relaxed (it is a statistic, not a synchronization
/// point).
#[derive(Default, Debug)]
pub struct ReachStats {
    states: AtomicUsize,
}

impl ReachStats {
    /// States explored so far.
    pub fn states(&self) -> usize {
        self.states.load(Ordering::Relaxed)
    }

    pub(crate) fn bump(&self, n: usize) {
        self.states.fetch_add(n, Ordering::Relaxed);
    }

    /// Resets the counter.
    pub fn reset(&self) {
        self.states.store(0, Ordering::Relaxed);
    }
}

/// Reverses an NFA (language reversal): fresh start ε-connected to the old
/// finals; the old start becomes the unique final.
pub fn reverse_nfa(nfa: &Nfa) -> Nfa {
    let n = nfa.state_count();
    let mut out = Nfa::with_states(n + 1);
    let fresh = StateId(n as u32);
    out.set_start(fresh);
    for s in nfa.states() {
        for &(l, t) in nfa.transitions(s) {
            out.add_transition(t, l, s);
        }
    }
    for f in nfa.final_states() {
        out.add_transition(fresh, Label::Eps, f);
    }
    out.set_final(nfa.start(), true);
    out
}

/// Nodes `v` such that some path `u →* v` is labelled by a word of `L(M)`
/// (for `Direction::Backward`: nodes `v` with a path `v →* u` labelled by a
/// word of the *original* language — pass a reversed automaton).
///
/// Runs a BFS over the product `D × M` from `(u, closure(q₀))`, visiting
/// each `(node, state)` pair once: `O(|D| · |M|)` per call, the textbook
/// witness of the NL data-complexity upper bound.
pub fn reach_set(
    db: &GraphDb,
    nfa: &Nfa,
    u: NodeId,
    dir: Direction,
    stats: Option<&ReachStats>,
) -> HashSet<NodeId> {
    reach_set_scratch(db, nfa, u, dir, stats, &mut ReachScratch::default())
}

/// Reusable visited-set storage for repeated [`reach_set_scratch`] calls.
///
/// Zeroing a fresh `|V| · |Q|`-bit set per call costs `O(|V| · |Q| / 64)`
/// even when the explored region is tiny; a sweep over many sources (one
/// BFS per node) pays that memset per source. A scratch records the cells
/// it touched and clears exactly those afterwards, so the full zeroing
/// happens once and each search costs memory traffic proportional to the
/// region it actually explored.
#[derive(Default)]
pub struct ReachScratch {
    visited: DenseBitSet,
    touched: Vec<usize>,
}

impl ReachScratch {
    /// An all-clear visited set of capacity ≥ `cells` (grown on demand).
    fn ensure(&mut self, cells: usize) -> &mut DenseBitSet {
        if self.visited.capacity() < cells {
            self.visited = DenseBitSet::new(cells);
        }
        debug_assert!(self.touched.is_empty());
        &mut self.visited
    }
}

/// [`reach_set`] with caller-provided scratch storage (see
/// [`ReachScratch`]); the scratch is left all-clear for the next call.
pub fn reach_set_scratch(
    db: &GraphDb,
    nfa: &Nfa,
    u: NodeId,
    dir: Direction,
    stats: Option<&ReachStats>,
    scratch: &mut ReachScratch,
) -> HashSet<NodeId> {
    reach_set_governed(db, nfa, u, dir, stats, scratch, Governor::disabled())
}

/// [`reach_set_scratch`] under a [`Governor`]: the BFS checkpoints once per
/// popped product state and, when the governor trips, drains immediately —
/// returning the (sound, partial) subset of targets settled so far. The
/// scratch invariant (all-clear visited set) is restored on every exit
/// path, abort included.
pub fn reach_set_governed(
    db: &GraphDb,
    nfa: &Nfa,
    u: NodeId,
    dir: Direction,
    stats: Option<&ReachStats>,
    scratch: &mut ReachScratch,
    gov: &Governor,
) -> HashSet<NodeId> {
    let q = nfa.state_count();
    let cells = db.node_count() * q;
    if scratch.visited.capacity() < cells {
        gov.charge_mem(cells.div_ceil(8));
    }
    scratch.ensure(cells);
    let ReachScratch { visited, touched } = scratch;
    let mut out = HashSet::new();
    let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
    let push = |queue: &mut VecDeque<(NodeId, StateId)>,
                visited: &mut DenseBitSet,
                touched: &mut Vec<usize>,
                node: NodeId,
                st: StateId| {
        let cell = node.index() * q + st.index();
        if visited.insert(cell) {
            touched.push(cell);
            queue.push_back((node, st));
        }
    };
    push(&mut queue, visited, touched, u, nfa.start());
    while let Some((node, st)) = queue.pop_front() {
        if !gov.checkpoint() {
            break; // drain: partial `out` is a sound subset
        }
        if let Some(s) = stats {
            s.bump(1);
        }
        if nfa.is_final(st) {
            out.insert(node);
        }
        for &(l, t) in nfa.transitions(st) {
            match l {
                Label::Eps => push(&mut queue, visited, touched, node, t),
                Label::Sym(a) => {
                    let adj = match dir {
                        Direction::Forward => db.successors_with(node, a),
                        Direction::Backward => db.predecessors_with(node, a),
                    };
                    for (_, next) in adj {
                        push(&mut queue, visited, touched, next, t);
                    }
                }
                Label::Any => {
                    let adj = match dir {
                        Direction::Forward => db.out_edges(node),
                        Direction::Backward => db.in_edges(node),
                    };
                    for (_, next) in adj {
                        push(&mut queue, visited, touched, next, t);
                    }
                }
            }
        }
    }
    for cell in touched.drain(..) {
        visited.remove(cell);
    }
    out
}

/// Batched multi-source product reachability: for each `sources[i]`, the
/// same set [`reach_set`] would compute — but all sources of one stripe
/// share a single level-synchronous wavefront over `D × M` instead of
/// running `k` independent BFS walks.
///
/// Every `(node, state)` cell carries a source-membership `u64` (bit `i` =
/// "reachable from the stripe's `i`-th source in this product state");
/// frontier cells OR their membership into successor cells, and a cell
/// re-enters the frontier only when its membership grew. Sources beyond 64
/// are handled in stripes, so `k` sources cost `⌈k/64⌉` passes over the
/// explored region. Frontier levels are sharded across worker threads per
/// [`FrontierConfig::auto`]; use [`reach_all_with`] to pin the thread count
/// or force the serial path.
pub fn reach_all(
    db: &GraphDb,
    nfa: &Nfa,
    sources: &[NodeId],
    dir: Direction,
    stats: Option<&ReachStats>,
) -> Vec<HashSet<NodeId>> {
    reach_all_with(db, nfa, sources, dir, stats, &FrontierConfig::auto())
}

/// [`reach_all`] with explicit frontier-engine knobs (thread count and
/// serial-fallback threshold).
pub fn reach_all_with(
    db: &GraphDb,
    nfa: &Nfa,
    sources: &[NodeId],
    dir: Direction,
    stats: Option<&ReachStats>,
    cfg: &FrontierConfig,
) -> Vec<HashSet<NodeId>> {
    reach_all_scratch(
        db,
        nfa,
        sources,
        dir,
        stats,
        cfg,
        &mut WaveScratch::default(),
    )
}

/// Reusable membership storage for repeated [`reach_all_scratch`] calls
/// (the wavefront analogue of [`ReachScratch`]).
///
/// The membership array spans the full `|V| · |Q|` rectangle; zeroing it
/// per call (or per 64-source stripe) would cost `O(|V| · |Q| / 8)` bytes
/// of traffic even when the explored region is tiny. The scratch records
/// which cells each stripe brought to life and clears exactly those
/// afterwards, so the full zeroing happens once per capacity growth and
/// every wavefront costs memory traffic proportional to the region it
/// actually explored. Same story for the barrier-dedup bitset.
#[derive(Default)]
pub struct WaveScratch {
    member: Vec<AtomicU64>,
    dirty_seen: DenseBitSet,
}

impl WaveScratch {
    /// Grows the all-clear buffers to cover ≥ `cells` product cells.
    fn ensure(&mut self, cells: usize) {
        if self.member.len() < cells {
            let add = cells - self.member.len();
            self.member
                .extend(std::iter::repeat_with(|| AtomicU64::new(0)).take(add));
        }
        if self.dirty_seen.capacity() < cells {
            self.dirty_seen = DenseBitSet::new(cells);
        }
        debug_assert!(self.member[..cells]
            .iter()
            .all(|w| w.load(Ordering::Relaxed) == 0));
    }
}

/// [`reach_all_with`] with caller-provided membership storage (see
/// [`WaveScratch`]); the scratch is left all-clear for the next call.
pub fn reach_all_scratch(
    db: &GraphDb,
    nfa: &Nfa,
    sources: &[NodeId],
    dir: Direction,
    stats: Option<&ReachStats>,
    cfg: &FrontierConfig,
    scratch: &mut WaveScratch,
) -> Vec<HashSet<NodeId>> {
    reach_all_governed(
        db,
        nfa,
        sources,
        dir,
        stats,
        cfg,
        scratch,
        Governor::disabled(),
    )
}

/// [`reach_all_scratch`] under a [`Governor`]: one checkpoint per wavefront
/// level (fuel proportional to the level's size), with sharded workers
/// observing the abort flag mid-slice and draining. An aborted stripe still
/// harvests what it settled — a sound partial subset per source — and the
/// scratch invariant (all-clear membership words) is restored on every exit
/// path, abort included.
#[allow(clippy::too_many_arguments)]
pub fn reach_all_governed(
    db: &GraphDb,
    nfa: &Nfa,
    sources: &[NodeId],
    dir: Direction,
    stats: Option<&ReachStats>,
    cfg: &FrontierConfig,
    scratch: &mut WaveScratch,
    gov: &Governor,
) -> Vec<HashSet<NodeId>> {
    let q = nfa.state_count();
    let n = db.node_count();
    let cells = n * q;
    let mut out: Vec<HashSet<NodeId>> = vec![HashSet::new(); sources.len()];
    if cells == 0 {
        return out;
    }
    let mut is_final = vec![false; q];
    for f in nfa.final_states() {
        is_final[f.index()] = true;
    }
    if scratch.member.len() < cells {
        gov.charge_mem((cells - scratch.member.len()) * 8);
    }
    if scratch.dirty_seen.capacity() < cells {
        gov.charge_mem(cells.div_ceil(8));
    }
    scratch.ensure(cells);
    let WaveScratch { member, dirty_seen } = scratch;
    let member = &member[..cells];
    // Cells whose membership went 0 → nonzero this stripe — exactly the
    // explored region, recorded so the harvest and the clearing pass never
    // touch the rest of the rectangle. Exactly one `fetch_or` observes the
    // zero, so each cell is recorded once even under sharding.
    let mut touched: Vec<usize> = Vec::new();
    for (stripe, chunk) in sources.chunks(64).enumerate() {
        if gov.is_aborted() {
            break; // later stripes stay empty (sound) — nothing to zero yet
        }
        // OR `bits` into a cell's membership; a cell whose membership
        // grows is marked dirty and re-enters the frontier at the next
        // level, and a cell alive for the first time lands in `born`.
        // Returns the number of membership bits that were new — summed
        // up, that is exactly the `(state, source)` visit count a
        // per-source sweep would report to [`ReachStats`]. Relaxed
        // ordering suffices: membership words only ever grow, and the
        // level barrier (thread join) orders the final reads.
        let propagate =
            |cell: usize, bits: u64, mark: &mut dyn FnMut(usize), born: &mut Vec<usize>| {
                let prev = member[cell].fetch_or(bits, Ordering::Relaxed);
                if prev == 0 && bits != 0 {
                    born.push(cell);
                }
                let fresh = bits & !prev;
                if fresh != 0 {
                    mark(cell);
                }
                fresh.count_ones() as usize
            };
        // Expand one frontier cell over the automaton's transitions and
        // the CSR adjacency, reporting grown cells through `mark` and
        // first-time cells through `born`.
        let expand_cell = |cell: usize, mark: &mut dyn FnMut(usize), born: &mut Vec<usize>| {
            let (node, st) = (NodeId((cell / q) as u32), StateId((cell % q) as u32));
            // The freshest membership available: bits merged by concurrent
            // workers this level ride along early, bits that land after
            // this load re-dirty the cell and re-propagate next level.
            let bits = member[cell].load(Ordering::Relaxed);
            let mut visits = 0usize;
            for &(l, t) in nfa.transitions(st) {
                match l {
                    Label::Eps => {
                        visits += propagate(node.index() * q + t.index(), bits, mark, born);
                    }
                    Label::Sym(a) => {
                        let adj = match dir {
                            Direction::Forward => db.successors_with(node, a),
                            Direction::Backward => db.predecessors_with(node, a),
                        };
                        for (_, next) in adj {
                            visits += propagate(next.index() * q + t.index(), bits, mark, born);
                        }
                    }
                    Label::Any => {
                        let adj = match dir {
                            Direction::Forward => db.out_edges(node),
                            Direction::Backward => db.in_edges(node),
                        };
                        for (_, next) in adj {
                            visits += propagate(next.index() * q + t.index(), bits, mark, born);
                        }
                    }
                }
            }
            visits
        };
        let mut seeds: Vec<usize> = Vec::new();
        let mut visits = 0usize;
        for (i, &src) in chunk.iter().enumerate() {
            let cell = src.index() * q + nfa.start().index();
            visits += propagate(cell, 1 << i, &mut |c| seeds.push(c), &mut touched);
        }
        let mut frontier: Vec<usize> = Vec::with_capacity(seeds.len());
        for cell in seeds {
            if dirty_seen.insert(cell) {
                frontier.push(cell);
            }
        }
        for &cell in &frontier {
            dirty_seen.remove(cell);
        }
        while !frontier.is_empty() {
            if !gov.checkpoint_n(frontier.len() as u64) {
                break; // drain: harvest what this stripe settled so far
            }
            let shards = cfg.shards_for(frontier.len());
            if frontier.len() >= cells / 8 {
                // Fat frontier: private dense next-frontier bitsets whose
                // words are OR-merged at the level barrier — O(cells/64)
                // words per shard, amortized by the frontier itself.
                let shard_results =
                    expand_sharded_governed(&frontier, shards, cfg.pool(), gov, |_, slice| {
                        gov.charge_mem(cells.div_ceil(8));
                        let mut dirty = DenseBitSet::new(cells);
                        let mut born: Vec<usize> = Vec::new();
                        let mut shard_visits = 0usize;
                        for (i, &cell) in slice.iter().enumerate() {
                            if i & 63 == 0 && gov.is_aborted() {
                                break; // worker observes the flag and drains
                            }
                            shard_visits += expand_cell(
                                cell,
                                &mut |c| {
                                    dirty.insert(c);
                                },
                                &mut born,
                            );
                        }
                        (dirty, born, shard_visits)
                    });
                let mut merged: Option<DenseBitSet> = None;
                for (d, born, v) in shard_results {
                    visits += v;
                    touched.extend(born);
                    match &mut merged {
                        None => merged = Some(d),
                        Some(m) => m.union_with(&d),
                    }
                }
                frontier = merged.expect("at least one shard").ones().collect();
            } else {
                // Thin frontier: private sparse dirty lists (possibly with
                // duplicates), deduped through the reused scratch bitset —
                // per-level cost proportional to the frontier, never to
                // the whole `|V| · |Q|` rectangle.
                let shard_results =
                    expand_sharded_governed(&frontier, shards, cfg.pool(), gov, |_, slice| {
                        let mut dirty: Vec<usize> = Vec::with_capacity(slice.len());
                        let mut born: Vec<usize> = Vec::new();
                        let mut shard_visits = 0usize;
                        for (i, &cell) in slice.iter().enumerate() {
                            if i & 63 == 0 && gov.is_aborted() {
                                break; // worker observes the flag and drains
                            }
                            shard_visits += expand_cell(cell, &mut |c| dirty.push(c), &mut born);
                        }
                        (dirty, born, shard_visits)
                    });
                let mut next: Vec<usize> = Vec::new();
                for (dirty, born, shard_visits) in shard_results {
                    visits += shard_visits;
                    touched.extend(born);
                    for cell in dirty {
                        if dirty_seen.insert(cell) {
                            next.push(cell);
                        }
                    }
                }
                for &cell in &next {
                    dirty_seen.remove(cell);
                }
                frontier = next;
            }
        }
        if let Some(s) = stats {
            s.bump(visits);
        }
        // Harvest over the explored region only: a touched cell in a final
        // state contributes its node to every member source's answer set.
        // Then restore the scratch invariant by zeroing exactly the
        // touched cells.
        for &cell in &touched {
            if is_final[cell % q] {
                let mut bits = member[cell].load(Ordering::Relaxed);
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out[stripe * 64 + i].insert(NodeId((cell / q) as u32));
                }
            }
        }
        for cell in touched.drain(..) {
            member[cell].store(0, Ordering::Relaxed);
        }
    }
    out
}

/// Folded-multiply hasher for the `NodeId` keys of the pinned-pair search:
/// a few instructions per key where SipHash costs tens, keyed once per
/// process from the standard library's random state so that a crafted
/// graph cannot aim the explored nodes at one bucket. The maps are only
/// probed, never iterated, so the search order does not depend on the key.
struct NodeHasher(u64);

impl NodeHasher {
    fn mix(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * u128::from(0x9e37_79b9_7f4a_7c15_u64);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
}

#[derive(Clone, Copy, Default)]
struct NodeHashSeed;

impl BuildHasher for NodeHashSeed {
    type Hasher = NodeHasher;

    fn build_hasher(&self) -> NodeHasher {
        static SEED: OnceLock<u64> = OnceLock::new();
        NodeHasher(*SEED.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

/// One direction of the pinned-pair search. Per explored node (a *slot*,
/// numbered in discovery order) it keeps `2 · words` mask words: the
/// ε-closed states reached so far, then those not yet expanded.
struct PairSide<'a> {
    sim: &'a MaskSim,
    forward: bool,
    words: usize,
    /// Node → slot index, built once the side outgrows [`PAIR_SLOTS`]
    /// (below that a scan of `nodes` is cheaper than hashing).
    slot_of: HashMap<NodeId, u32, NodeHashSeed>,
    nodes: Vec<NodeId>,
    masks: Vec<u64>,
    /// Slots with pending states, in the order they gained them: the
    /// next level to expand.
    queue: Vec<u32>,
    /// The level being expanded (kept to reuse its allocation).
    level: Vec<u32>,
}

/// Slots a search side allocates up front and finds by a linear scan:
/// most pinned checks settle within a handful of nodes, where a hash map
/// and containers grown from empty cost more than the search itself.
const PAIR_SLOTS: usize = 16;

impl<'a> PairSide<'a> {
    fn new(sim: &'a MaskSim, forward: bool) -> Self {
        let words = sim.words();
        Self {
            sim,
            forward,
            words,
            slot_of: HashMap::default(),
            nodes: Vec::with_capacity(PAIR_SLOTS),
            masks: Vec::with_capacity(PAIR_SLOTS * 2 * words),
            queue: Vec::with_capacity(PAIR_SLOTS),
            level: Vec::new(),
        }
    }

    /// The slot of `node`, if explored.
    fn slot(&self, node: NodeId) -> Option<usize> {
        if self.nodes.len() <= PAIR_SLOTS {
            self.nodes.iter().position(|&n| n == node)
        } else {
            self.slot_of.get(&node).map(|&s| s as usize)
        }
    }

    /// The states reached at `node`, if explored.
    fn seen_at(&self, node: NodeId) -> Option<&[u64]> {
        let w = self.words;
        self.slot(node).map(|s| &self.masks[s * 2 * w..][..w])
    }

    /// ORs the closed state set `bits` into `node`'s mask, queueing the
    /// node when it gains states it has none pending of. Returns whether a
    /// gained state also lies in `theirs` (the other side's mask at
    /// `node`) — the two searches meet there.
    fn add(&mut self, node: NodeId, bits: &[u64], theirs: Option<&[u64]>, gov: &Governor) -> bool {
        let w = self.words;
        let slot = match self.slot(node) {
            Some(s) => s,
            None => {
                let s = self.nodes.len();
                self.nodes.push(node);
                self.masks.resize(self.masks.len() + 2 * w, 0);
                gov.charge_mem(2 * w * 8 + 16);
                if s == PAIR_SLOTS {
                    let index = self.nodes.iter().enumerate().map(|(i, &n)| (n, i as u32));
                    self.slot_of.extend(index);
                } else if s > PAIR_SLOTS {
                    self.slot_of.insert(node, s as u32);
                }
                s
            }
        };
        let (seen, pending) = self.masks[slot * 2 * w..][..2 * w].split_at_mut(w);
        let (mut grew, mut idle, mut met) = (false, true, false);
        for (i, &b) in bits.iter().enumerate() {
            let fresh = b & !seen[i];
            idle &= pending[i] == 0;
            if fresh != 0 {
                grew = true;
                seen[i] |= fresh;
                pending[i] |= fresh;
                met |= theirs.is_some_and(|t| t.get(i).is_some_and(|&tw| tw & fresh != 0));
            }
        }
        if grew && idle {
            self.queue.push(slot as u32);
        }
        met
    }

    /// Expands every queued node by one arc over its pending states, with
    /// `theirs` giving the other side's mask at a node and `buf` as scratch
    /// of at least `2 · words` words. `Some(met)` when the level ran (or
    /// stopped at a meet), `None` when the governor tripped.
    fn expand_level<'b>(
        &mut self,
        theirs: impl Fn(NodeId) -> Option<&'b [u64]>,
        db: &GraphDb,
        stats: &ReachStats,
        gov: &Governor,
        buf: &mut [u64],
    ) -> Option<bool> {
        let w = self.words;
        let (delta, step) = buf[..2 * w].split_at_mut(w);
        std::mem::swap(&mut self.level, &mut self.queue);
        for i in 0..self.level.len() {
            if !gov.checkpoint() {
                return None;
            }
            stats.bump(1);
            let slot = self.level[i] as usize;
            let pending = &mut self.masks[slot * 2 * w + w..][..w];
            delta.copy_from_slice(pending);
            pending.fill(0);
            let node = self.nodes[slot];
            let runs = if self.forward {
                db.out_label_runs(node)
            } else {
                db.in_label_runs(node)
            };
            for (a, run) in runs {
                step.fill(0);
                if !self.sim.step_into(delta, a, step) {
                    continue;
                }
                for (_, next) in run {
                    if self.add(next, step, theirs(next), gov) {
                        return Some(true);
                    }
                }
            }
        }
        self.level.clear();
        Some(false)
    }
}

/// Bidirectional product search for one pinned pair: whether some path
/// `u →* v` spells a word of the automaton behind `fwd`. The backward side
/// runs over the tables `bwd` returns (those of [`reverse_nfa`], whose
/// states `0..|Q|` are the original ones), asked for only when the search
/// gets past its first forward levels. Returns `false` on a governor trip
/// (the caller must not memoize that verdict).
fn pair_search<'t>(
    db: &GraphDb,
    fwd: &MaskSim,
    bwd: impl FnOnce() -> &'t MaskSim,
    u: NodeId,
    v: NodeId,
    stats: &ReachStats,
    gov: &Governor,
) -> bool {
    let words = (fwd.state_count() + 1).div_ceil(64);
    let mut inline = [0u64; 8];
    let mut heap = Vec::new();
    let buf: &mut [u64] = if 2 * words <= inline.len() {
        &mut inline
    } else {
        heap.resize(2 * words, 0);
        &mut heap
    };
    let mut f = PairSide::new(fwd, true);
    f.add(u, fwd.start_mask(), None, gov);
    // While the forward frontier is a single node the smaller side is the
    // forward one, and the backward side is still its seed `(v, finals)`:
    // on forward-closed masks, meeting it means reaching `v` in a final
    // state. Most checks end here, so the backward tables wait.
    let seed = |n: NodeId| (n == v).then(|| fwd.final_mask());
    while f.queue.len() == 1 {
        match f.expand_level(seed, db, stats, gov, buf) {
            Some(false) => {}
            Some(true) => return true,
            None => return false,
        }
    }
    if f.queue.is_empty() {
        return false; // the forward closure is complete without a meet
    }
    let bwd = bwd();
    let mut b = PairSide::new(bwd, false);
    b.add(v, bwd.start_mask(), None, gov); // no meet: the loop above saw it
    loop {
        if f.queue.is_empty() || b.queue.is_empty() {
            return false; // one side's closure is complete without a meet
        }
        let step = if f.queue.len() <= b.queue.len() {
            f.expand_level(|n| b.seen_at(n), db, stats, gov, buf)
        } else {
            b.expand_level(|n| f.seen_at(n), db, stats, gov, buf)
        };
        match step {
            Some(false) => {}
            Some(true) => return true,
            None => return false,
        }
    }
}

/// Memoizing wrapper around [`reach_set`] for repeated queries against the
/// same database (one cache per `(edge automaton, direction)`).
///
/// Entries are keyed by [`NodeId`] alone, so the cache is only meaningful
/// against one database: on first use it binds to that database's
/// [`GraphDb::generation`], and any later call against a database with a
/// different generation rebinds (stale node-keyed answers are never
/// served).
///
/// Invalidation is *label-aware*: on a generation change the cache asks
/// [`GraphDb::delta_since`] which labels were appended since the bound
/// generation. When the answer is known and disjoint from the automaton's
/// symbol footprint (its `Sym` labels; an automaton with any `Any`
/// transition touches every label), the memoized fills are provably still
/// correct and are kept. Unknown ancestry — a different database, a
/// divergent clone, or truncated append history — drops everything
/// wholesale, as before.
pub struct ReachCache {
    nfa: Nfa,
    /// The reversed automaton, built the first time a backward fill or a
    /// pinned-pair search reaches its backward side: most short-lived
    /// caches never get there.
    rev: OnceCell<Nfa>,
    /// Sorted distinct `Sym` labels of `nfa` (the automaton's footprint).
    syms: Vec<Symbol>,
    /// Whether `nfa` has an `Any` transition (footprint = whole alphabet).
    uses_any: bool,
    generation: Option<u64>,
    fwd: HashMap<NodeId, std::rc::Rc<HashSet<NodeId>>>,
    bwd: HashMap<NodeId, std::rc::Rc<HashSet<NodeId>>>,
    /// Sorted ascending views of `fwd`/`bwd` entries, materialized lazily
    /// once per `(source, direction)` for the leapfrog enumerator's
    /// multiway intersections and the solver's sorted candidate sweeps.
    /// Invalidation rides the same label-aware `bind` as the sets.
    fwd_sorted: HashMap<NodeId, std::rc::Rc<[NodeId]>>,
    bwd_sorted: HashMap<NodeId, std::rc::Rc<[NodeId]>>,
    /// Pinned-pair verdicts of [`ReachCache::connects_pair`]; invalidation
    /// rides the same label-aware `bind` as the fills.
    pairs: HashMap<(NodeId, NodeId), bool>,
    /// Forward and reversed [`MaskSim`] tables of the pinned-pair search,
    /// each built the first time a search needs it.
    pair_fwd: Option<MaskSim>,
    pair_bwd: Option<MaskSim>,
    scratch: ReachScratch,
    wave: WaveScratch,
    gov: Option<Arc<Governor>>,
    /// Exploration statistics shared by both directions.
    pub stats: ReachStats,
}

impl ReachCache {
    /// Builds the cache for an edge automaton.
    pub fn new(nfa: Nfa) -> Self {
        let mut syms = Vec::new();
        let mut uses_any = false;
        for s in 0..nfa.state_count() {
            for &(l, _) in nfa.transitions(StateId(s as u32)) {
                match l {
                    Label::Sym(a) => syms.push(a),
                    Label::Any => uses_any = true,
                    Label::Eps => {}
                }
            }
        }
        syms.sort_unstable();
        syms.dedup();
        Self {
            nfa,
            rev: OnceCell::new(),
            syms,
            uses_any,
            generation: None,
            fwd: HashMap::new(),
            bwd: HashMap::new(),
            fwd_sorted: HashMap::new(),
            bwd_sorted: HashMap::new(),
            pairs: HashMap::new(),
            pair_fwd: None,
            pair_bwd: None,
            scratch: ReachScratch::default(),
            wave: WaveScratch::default(),
            gov: None,
            stats: ReachStats::default(),
        }
    }

    /// Attaches (or detaches, with `None`) a [`Governor`]: every search the
    /// cache runs checkpoints against it, and a fill interrupted by a trip
    /// is **never memoized** — no partially-filled stripe survives an
    /// abort, so a query repeated after an abort recomputes from a
    /// consistent cache instead of serving truncated reach sets.
    pub fn govern(&mut self, gov: Option<Arc<Governor>>) {
        self.gov = gov;
    }

    fn governor(&self) -> &Governor {
        self.gov.as_deref().unwrap_or(Governor::disabled())
    }

    /// The underlying forward automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The generation of the database this cache is bound to (`None` until
    /// first use).
    pub fn bound_generation(&self) -> Option<u64> {
        self.generation
    }

    /// Binds the cache to `db`, dropping memoized entries when they may
    /// have been computed against different adjacency.
    ///
    /// Fills survive a rebind when `db` proves (via
    /// [`GraphDb::delta_since`]) that every label appended since the bound
    /// generation lies outside the automaton's symbol footprint — those
    /// arcs can never appear in this automaton's product searches, so the
    /// cached reach sets are unchanged.
    fn bind(&mut self, db: &GraphDb) {
        match self.generation {
            Some(g) if g == db.generation() => {}
            Some(g) => {
                let keep = match db.delta_since(g) {
                    Some(changed) => {
                        changed.is_empty()
                            || (!self.uses_any
                                && changed.iter().all(|a| self.syms.binary_search(a).is_err()))
                    }
                    None => false,
                };
                if !keep {
                    self.fwd.clear();
                    self.bwd.clear();
                    self.fwd_sorted.clear();
                    self.bwd_sorted.clear();
                    self.pairs.clear();
                }
                self.generation = Some(db.generation());
            }
            None => self.generation = Some(db.generation()),
        }
    }

    /// Targets reachable from `u` via an accepted word.
    pub fn targets(&mut self, db: &GraphDb, u: NodeId) -> std::rc::Rc<HashSet<NodeId>> {
        self.bind(db);
        if let Some(r) = self.fwd.get(&u) {
            return r.clone();
        }
        let r = std::rc::Rc::new(reach_set_governed(
            db,
            &self.nfa,
            u,
            Direction::Forward,
            Some(&self.stats),
            &mut self.scratch,
            self.gov.as_deref().unwrap_or(Governor::disabled()),
        ));
        if !self.governor().is_aborted() {
            self.governor().charge_mem(r.len() * 8 + 48);
            self.fwd.insert(u, r.clone());
        }
        r
    }

    /// [`ReachCache::fill_targets`] with an explicit fill strategy.
    ///
    /// `per_source = true` memoizes each missing source with its own
    /// scratch BFS instead of the shared wavefront — the right call on
    /// long-diameter graphs, where staggered membership arrivals make the
    /// wavefront re-expand cells (see the adaptive probe in
    /// [`crate::domains`]). Both strategies leave the cache in the same
    /// state; only the traversal cost differs.
    pub fn fill_targets_with(&mut self, db: &GraphDb, sources: &[NodeId], per_source: bool) {
        if per_source {
            self.bind(db);
            for u in self.missing(sources, true) {
                if self.governor().is_aborted() {
                    break;
                }
                self.targets(db, u);
            }
        } else {
            self.fill_targets(db, sources);
        }
    }

    /// The backward counterpart of [`ReachCache::fill_targets_with`].
    pub fn fill_sources_with(&mut self, db: &GraphDb, sinks: &[NodeId], per_source: bool) {
        if per_source {
            self.bind(db);
            for v in self.missing(sinks, false) {
                if self.governor().is_aborted() {
                    break;
                }
                self.sources(db, v);
            }
        } else {
            self.fill_sources(db, sinks);
        }
    }

    /// Batch path: memoizes `targets` for every node of `sources` that is
    /// not already cached, in one multi-source wavefront ([`reach_all`])
    /// instead of one BFS per node.
    ///
    /// Solver candidate loops that are about to sweep many sources of this
    /// automaton call this first — typically restricted to the current
    /// candidate domain of the source variable (see [`crate::domains`]),
    /// never blindly to all of `db.nodes()`; the per-source
    /// [`ReachCache::targets`] lookups that follow are then memo hits.
    pub fn fill_targets(&mut self, db: &GraphDb, sources: &[NodeId]) {
        self.bind(db);
        let missing = self.missing(sources, true);
        match missing.len() {
            0 => {}
            1 => {
                self.targets(db, missing[0]);
            }
            _ => {
                let sets = reach_all_governed(
                    db,
                    &self.nfa,
                    &missing,
                    Direction::Forward,
                    Some(&self.stats),
                    &FrontierConfig::auto(),
                    &mut self.wave,
                    self.gov.as_deref().unwrap_or(Governor::disabled()),
                );
                if self.governor().is_aborted() {
                    return; // abort hygiene: never retain a partial stripe
                }
                for (src, set) in missing.into_iter().zip(sets) {
                    self.governor().charge_mem(set.len() * 8 + 48);
                    self.fwd.insert(src, std::rc::Rc::new(set));
                }
            }
        }
    }

    /// Batch path for the backward direction: memoizes `sources` for every
    /// node of `sinks` not already cached, via one wavefront over the
    /// reversed automaton.
    pub fn fill_sources(&mut self, db: &GraphDb, sinks: &[NodeId]) {
        self.bind(db);
        let missing = self.missing(sinks, false);
        match missing.len() {
            0 => {}
            1 => {
                self.sources(db, missing[0]);
            }
            _ => {
                let sets = reach_all_governed(
                    db,
                    self.rev.get_or_init(|| reverse_nfa(&self.nfa)),
                    &missing,
                    Direction::Backward,
                    Some(&self.stats),
                    &FrontierConfig::auto(),
                    &mut self.wave,
                    self.gov.as_deref().unwrap_or(Governor::disabled()),
                );
                if self.governor().is_aborted() {
                    return; // abort hygiene: never retain a partial stripe
                }
                for (v, set) in missing.into_iter().zip(sets) {
                    self.governor().charge_mem(set.len() * 8 + 48);
                    self.bwd.insert(v, std::rc::Rc::new(set));
                }
            }
        }
    }

    /// [`ReachCache::targets`] as a sorted ascending row, materialized once
    /// per source and memoized alongside the set (shared via `Rc`, so
    /// repeat visits and concurrent leapfrog sets cost one clone). An
    /// aborted fill returns its (sound, partial) row unmemoized — the same
    /// abort hygiene as the sets.
    pub fn targets_sorted(&mut self, db: &GraphDb, u: NodeId) -> std::rc::Rc<[NodeId]> {
        self.bind(db);
        if let Some(r) = self.fwd_sorted.get(&u) {
            return r.clone();
        }
        let set = self.targets(db, u);
        let mut row: Vec<NodeId> = set.iter().copied().collect();
        row.sort_unstable();
        let row: std::rc::Rc<[NodeId]> = row.into();
        if !self.governor().is_aborted() {
            self.governor().charge_mem(row.len() * 4 + 48);
            self.fwd_sorted.insert(u, row.clone());
        }
        row
    }

    /// The backward counterpart of [`ReachCache::targets_sorted`].
    pub fn sources_sorted(&mut self, db: &GraphDb, v: NodeId) -> std::rc::Rc<[NodeId]> {
        self.bind(db);
        if let Some(r) = self.bwd_sorted.get(&v) {
            return r.clone();
        }
        let set = self.sources(db, v);
        let mut row: Vec<NodeId> = set.iter().copied().collect();
        row.sort_unstable();
        let row: std::rc::Rc<[NodeId]> = row.into();
        if !self.governor().is_aborted() {
            self.governor().charge_mem(row.len() * 4 + 48);
            self.bwd_sorted.insert(v, row.clone());
        }
        row
    }

    /// The distinct nodes of `keys` with no memoized entry in the given
    /// direction.
    fn missing(&self, keys: &[NodeId], forward: bool) -> Vec<NodeId> {
        let map = if forward { &self.fwd } else { &self.bwd };
        let mut seen = HashSet::new();
        keys.iter()
            .copied()
            .filter(|k| !map.contains_key(k) && seen.insert(*k))
            .collect()
    }

    /// Sources that reach `v` via an accepted word.
    pub fn sources(&mut self, db: &GraphDb, v: NodeId) -> std::rc::Rc<HashSet<NodeId>> {
        self.bind(db);
        if let Some(r) = self.bwd.get(&v) {
            return r.clone();
        }
        let r = std::rc::Rc::new(reach_set_governed(
            db,
            self.rev.get_or_init(|| reverse_nfa(&self.nfa)),
            v,
            Direction::Backward,
            Some(&self.stats),
            &mut self.scratch,
            self.gov.as_deref().unwrap_or(Governor::disabled()),
        ));
        if !self.governor().is_aborted() {
            self.governor().charge_mem(r.len() * 8 + 48);
            self.bwd.insert(v, r.clone());
        }
        r
    }

    /// Whether some path `u →* v` is labelled by an accepted word, decided
    /// by one bidirectional search (see the module docs) instead of a
    /// closure, and memoized per `(u, v)`.
    ///
    /// A memoized fill of `u` (forward) or `v` (backward) answers first;
    /// `u == v` under an automaton accepting ε needs no search. The search
    /// checkpoints once per expanded node and bumps [`ReachStats`] by one
    /// per node. A verdict interrupted by a governor trip is `false` and is
    /// not memoized, so an abort only ever under-approximates.
    pub fn connects_pair(&mut self, db: &GraphDb, u: NodeId, v: NodeId) -> bool {
        self.bind(db);
        if let Some(&hit) = self.pairs.get(&(u, v)) {
            return hit;
        }
        if let Some(r) = self.fwd.get(&u) {
            return r.contains(&v);
        }
        if let Some(r) = self.bwd.get(&v) {
            return r.contains(&u);
        }
        let hit = if u == v && self.nfa.accepts_epsilon() {
            true
        } else {
            let nfa = &self.nfa;
            let fwd = self.pair_fwd.get_or_insert_with(|| MaskSim::new(nfa));
            let gov = self.gov.as_deref().unwrap_or(Governor::disabled());
            let (rev, pair_bwd) = (&self.rev, &mut self.pair_bwd);
            let bwd = move || {
                let slot = pair_bwd;
                &*slot.get_or_insert_with(|| MaskSim::new(rev.get_or_init(|| reverse_nfa(nfa))))
            };
            pair_search(db, fwd, bwd, u, v, &self.stats, gov)
        };
        if !self.governor().is_aborted() {
            self.governor().charge_mem(16);
            self.pairs.insert((u, v), hit);
        }
        hit
    }

    /// Whether some path `u →* v` is labelled by an accepted word.
    ///
    /// A memoized fill of either endpoint or a pinned-pair verdict of
    /// [`ReachCache::connects_pair`] answers without a search — the
    /// enumerator's check of an edge whose endpoints the semi-join pass
    /// already decided as a pair costs a lookup.
    ///
    /// Otherwise, the direction is picked by
    /// CSR degree — but only when the comparison is decisive: a `v` with an
    /// empty in-row makes the backward search trivially cheap (the product
    /// never leaves `v`'s row, `O(|Q|)` instead of `u`'s full forward
    /// cone). For any nonzero in-degree the search stays forward, because
    /// `fwd[u]` is reused by every later probe against the same `u` —
    /// flipping direction per call would trade one memoized forward BFS
    /// for a fresh backward BFS per distinct `v`.
    pub fn connects(&mut self, db: &GraphDb, u: NodeId, v: NodeId) -> bool {
        self.bind(db);
        if let Some(r) = self.fwd.get(&u) {
            return r.contains(&v);
        }
        if let Some(r) = self.bwd.get(&v) {
            return r.contains(&u);
        }
        if let Some(&hit) = self.pairs.get(&(u, v)) {
            return hit;
        }
        if db.in_edges(v).is_empty() && !db.out_edges(u).is_empty() {
            self.sources(db, v).contains(&u)
        } else {
            self.targets(db, u).contains(&v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::{Alphabet, GraphBuilder};
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

    fn nfa_of(db: &GraphDb, s: &str) -> Nfa {
        let mut a = db.alphabet().clone();
        Nfa::from_regex(&parse_regex(s, &mut a).unwrap())
    }

    #[test]
    fn forward_reach_on_line() {
        let (db, nodes) = line_db("aabba");
        let m = nfa_of(&db, "a*");
        let r = reach_set(&db, &m, nodes[0], Direction::Forward, None);
        assert_eq!(r, HashSet::from([nodes[0], nodes[1], nodes[2]]));
        let m2 = nfa_of(&db, "a*b");
        let r2 = reach_set(&db, &m2, nodes[0], Direction::Forward, None);
        assert_eq!(r2, HashSet::from([nodes[3]]));
    }

    #[test]
    fn backward_reach_matches_forward() {
        let (db, nodes) = line_db("abcab");
        let m = nfa_of(&db, "a(b|c)");
        let mut cache = ReachCache::new(m);
        // Forward from n0: {n2}; so sources of n2 must contain n0.
        assert!(cache.targets(&db, nodes[0]).contains(&nodes[2]));
        assert!(cache.sources(&db, nodes[2]).contains(&nodes[0]));
        assert!(!cache.sources(&db, nodes[1]).contains(&nodes[0]));
        assert!(cache.connects(&db, nodes[3], nodes[5])); // "ab"? n3-a->n4-b->n5 ✓
    }

    #[test]
    fn epsilon_language_reaches_self() {
        let (db, nodes) = line_db("ab");
        let m = nfa_of(&db, "_");
        let r = reach_set(&db, &m, nodes[1], Direction::Forward, None);
        assert_eq!(r, HashSet::from([nodes[1]]));
    }

    #[test]
    fn any_transitions_work_backwards() {
        let (db, nodes) = line_db("abc");
        let m = nfa_of(&db, "..");
        let mut cache = ReachCache::new(m);
        assert!(cache.sources(&db, nodes[2]).contains(&nodes[0]));
        assert!(cache.sources(&db, nodes[3]).contains(&nodes[1]));
        assert!(!cache.sources(&db, nodes[3]).contains(&nodes[0]));
    }

    #[test]
    fn stats_count_states() {
        let (db, nodes) = line_db("aaaa");
        let m = nfa_of(&db, "a*");
        let stats = ReachStats::default();
        reach_set(&db, &m, nodes[0], Direction::Forward, Some(&stats));
        assert!(stats.states() > 0);
    }

    #[test]
    fn reverse_nfa_reverses_language() {
        let alpha = Alphabet::from_chars("ab");
        let mut a2 = alpha.clone();
        let r = parse_regex("ab*", &mut a2).unwrap();
        let m = Nfa::from_regex(&r);
        let rev = reverse_nfa(&m);
        // Reverse of a·b* is b*·a.
        let w = |s: &str| alpha.parse_word(s).unwrap();
        assert!(rev.accepts(&w("a")));
        assert!(rev.accepts(&w("bba")));
        assert!(!rev.accepts(&w("ab")));
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let (db, nodes) = line_db("aabba");
        let m = nfa_of(&db, "a*b");
        let mut scratch = ReachScratch::default();
        for &n in &nodes {
            let fresh = reach_set(&db, &m, n, Direction::Forward, None);
            let reused = reach_set_scratch(&db, &m, n, Direction::Forward, None, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn reach_all_matches_per_source_everywhere() {
        let (db, nodes) = line_db("aabbaacab");
        for pat in ["a*", "a*b", "(a|b)*c", "..", "_"] {
            let m = nfa_of(&db, pat);
            let batched = reach_all(&db, &m, &nodes, Direction::Forward, None);
            for (i, &n) in nodes.iter().enumerate() {
                let single = reach_set(&db, &m, n, Direction::Forward, None);
                assert_eq!(batched[i], single, "pattern {pat}, source {i}");
            }
            let rev = reverse_nfa(&m);
            let bwd = reach_all(&db, &rev, &nodes, Direction::Backward, None);
            for (i, &n) in nodes.iter().enumerate() {
                let single = reach_set(&db, &rev, n, Direction::Backward, None);
                assert_eq!(bwd[i], single, "backward pattern {pat}, source {i}");
            }
        }
    }

    #[test]
    fn reach_all_stripes_beyond_64_sources() {
        // 81 edges → 82 nodes: two membership stripes.
        let (db, nodes) = line_db(&"abc".repeat(27));
        assert!(nodes.len() > 64);
        let m = nfa_of(&db, "(abc)*");
        let batched = reach_all(&db, &m, &nodes, Direction::Forward, None);
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(
                batched[i],
                reach_set(&db, &m, n, Direction::Forward, None),
                "source {i}"
            );
        }
        // Duplicate sources each get their own (equal) answer set.
        let dup = [nodes[0], nodes[0], nodes[3]];
        let sets = reach_all(&db, &m, &dup, Direction::Forward, None);
        assert_eq!(sets[0], sets[1]);
        assert_eq!(
            sets[2],
            reach_set(&db, &m, nodes[3], Direction::Forward, None)
        );
    }

    #[test]
    fn reach_all_forced_parallel_matches_serial() {
        let (db, nodes) = line_db(&"ab".repeat(40));
        let m = nfa_of(&db, "(ab)*(a|_)");
        let parallel = FrontierConfig::with_threads(4).with_serial_threshold(0);
        let fast = reach_all_with(&db, &m, &nodes, Direction::Forward, None, &parallel);
        let slow = reach_all_with(
            &db,
            &m,
            &nodes,
            Direction::Forward,
            None,
            &FrontierConfig::serial(),
        );
        assert_eq!(fast, slow);
    }

    #[test]
    fn fill_targets_prememoizes_the_sweep() {
        let (db, nodes) = line_db("abcabc");
        let m = nfa_of(&db, "(a|b|c)+");
        let mut cache = ReachCache::new(m.clone());
        cache.fill_targets(&db, &nodes);
        cache.fill_sources(&db, &nodes);
        for &n in &nodes {
            assert_eq!(
                *cache.targets(&db, n),
                reach_set(&db, &m, n, Direction::Forward, None)
            );
            assert_eq!(
                *cache.sources(&db, n),
                reach_set(&db, &reverse_nfa(&m), n, Direction::Backward, None)
            );
        }
        assert!(cache.stats.states() > 0);
    }

    #[test]
    fn connects_from_the_sparser_endpoint_agrees() {
        // A fan: hub -a-> leaf_i; from the hub the out-row is wide, every
        // leaf's in-row has one arc — both directions must agree.
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let hub = b.add_node();
        let leaves: Vec<NodeId> = (0..8).map(|_| b.add_node()).collect();
        for &l in &leaves {
            b.add_edge(hub, a, l);
        }
        let db = b.freeze();
        let m = nfa_of(&db, "a");
        let mut cache = ReachCache::new(m);
        for &l in &leaves {
            assert!(cache.connects(&db, hub, l));
            assert!(!cache.connects(&db, l, hub));
        }
    }

    #[test]
    fn pair_search_matches_the_closure_on_every_pair() {
        let (db, nodes) = line_db("aabbaacab");
        for pat in ["a*", "a*b", "(a|b)*c", "..", "_", "b(a|c)*"] {
            let m = nfa_of(&db, pat);
            for &u in &nodes {
                let closure = reach_set(&db, &m, u, Direction::Forward, None);
                for &v in &nodes {
                    let mut cache = ReachCache::new(m.clone());
                    assert_eq!(
                        cache.connects_pair(&db, u, v),
                        closure.contains(&v),
                        "pattern {pat}, {u:?} -> {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_verdicts_are_memoized_and_read_by_connects() {
        let (db, nodes) = line_db("abcab");
        let mut cache = ReachCache::new(nfa_of(&db, "a(b|c)*"));
        assert!(cache.connects_pair(&db, nodes[0], nodes[3]));
        assert!(!cache.connects_pair(&db, nodes[1], nodes[3]));
        let explored = cache.stats.states();
        assert!(explored > 0);
        assert!(cache.connects_pair(&db, nodes[0], nodes[3]));
        assert!(cache.connects(&db, nodes[0], nodes[3]));
        assert!(!cache.connects(&db, nodes[1], nodes[3]));
        assert_eq!(cache.stats.states(), explored, "memo hits search nothing");
        // ε-accepting automaton, u == v: no search at all.
        let mut eps = ReachCache::new(nfa_of(&db, "a*"));
        assert!(eps.connects_pair(&db, nodes[2], nodes[2]));
        assert_eq!(eps.stats.states(), 0);
    }

    #[test]
    fn pair_verdicts_follow_label_aware_invalidation() {
        let (mut db, n) = line_db("aa");
        let (a, c) = (db.alphabet().sym("a"), db.alphabet().sym("c"));
        let mut cache = ReachCache::new(nfa_of(&db, "aa"));
        assert!(!cache.connects_pair(&db, n[1], n[0]));
        let explored = cache.stats.states();
        // Outside the footprint: the verdict survives as a memo hit.
        assert!(db.append(n[2], c, n[0]));
        assert!(!cache.connects_pair(&db, n[1], n[0]));
        assert_eq!(cache.stats.states(), explored);
        // Overlapping the footprint: n1 -a-> n2 -a-> n0 now spells `aa`.
        assert!(db.append(n[2], a, n[0]));
        assert!(cache.connects_pair(&db, n[1], n[0]));
        assert!(cache.stats.states() > explored);
        db.compact();
        assert!(cache.connects_pair(&db, n[1], n[0]));
    }

    #[test]
    fn cache_invalidates_across_databases() {
        // Same node ids, different graphs: a stale cache would claim n0
        // reaches n2 in the second database too.
        let (db1, n1) = line_db("aa");
        let (db2, n2) = line_db("bb");
        assert_ne!(db1.generation(), db2.generation());
        let m = nfa_of(&db1, "aa");
        let mut cache = ReachCache::new(m);
        assert!(cache.targets(&db1, n1[0]).contains(&n1[2]));
        assert_eq!(cache.bound_generation(), Some(db1.generation()));
        // Rebinding against db2 must not serve db1's memoized answer.
        assert!(!cache.targets(&db2, n2[0]).contains(&n2[2]));
        assert_eq!(cache.bound_generation(), Some(db2.generation()));
        assert!(!cache.connects(&db2, n2[0], n2[2]));
        // And back: recomputed, still correct.
        assert!(cache.connects(&db1, n1[0], n1[2]));
    }

    #[test]
    fn cache_survives_appends_outside_its_footprint() {
        let (mut db, n) = line_db("aa");
        let c = db.alphabet().sym("c");
        let m = nfa_of(&db, "aa");
        let mut cache = ReachCache::new(m);
        let before = cache.targets(&db, n[0]);
        assert!(before.contains(&n[2]));
        let explored = cache.stats.states();
        // A `c`-labelled arc can never participate in an `aa` product
        // search: the fill must survive the rebind as a memo hit.
        assert!(db.append(n[2], c, n[0]));
        let after = cache.targets(&db, n[0]);
        assert_eq!(before, after);
        assert_eq!(
            cache.stats.states(),
            explored,
            "unrelated-label append must not trigger recomputation"
        );
        assert_eq!(cache.bound_generation(), Some(db.generation()));
        // Node-only appends are label-free and also keep the fills.
        db.append_node();
        cache.targets(&db, n[0]);
        assert_eq!(cache.stats.states(), explored);
    }

    #[test]
    fn cache_invalidates_on_footprint_overlap() {
        let (mut db, n) = line_db("aa");
        let a = db.alphabet().sym("a");
        let m = nfa_of(&db, "aa");
        let mut cache = ReachCache::new(m);
        assert!(cache.targets(&db, n[1]).is_empty());
        let explored = cache.stats.states();
        // Close the a-cycle: n1 -a-> n2 -a-> n0 now spells `aa`. The cached
        // answer is stale and must be recomputed, not served.
        assert!(db.append(n[2], a, n[0]));
        assert!(cache.targets(&db, n[1]).contains(&n[0]));
        assert!(cache.stats.states() > explored);
    }

    #[test]
    fn any_automaton_invalidates_on_every_label() {
        let (mut db, n) = line_db("aa");
        let c = db.alphabet().sym("c");
        // Σ-step automaton: reads exactly one arc of any label.
        let mut m = Nfa::with_states(2);
        m.add_transition(StateId(0), Label::Any, StateId(1));
        m.set_final(StateId(1), true);
        let mut cache = ReachCache::new(m);
        assert!(!cache.targets(&db, n[2]).contains(&n[0]));
        // `c` is outside the automaton's Sym set, but `Any` reads it.
        assert!(db.append(n[2], c, n[0]));
        assert!(cache.targets(&db, n[2]).contains(&n[0]));
    }

    #[test]
    fn divergent_clone_drops_the_cache() {
        let (db1, n) = line_db("aa");
        let b_sym = db1.alphabet().sym("b");
        let mut db2 = db1.clone();
        let m = nfa_of(&db1, "b");
        let mut cache = ReachCache::new(m);
        assert!(cache.targets(&db1, n[0]).is_empty());
        // db2 diverged: its generation is unknown to db1's history and
        // vice versa, so the cache must not trust label reasoning.
        assert!(db2.append(n[0], b_sym, n[1]));
        assert!(cache.targets(&db2, n[0]).contains(&n[1]));
        assert!(cache.targets(&db1, n[0]).is_empty());
    }

    #[test]
    fn governed_reach_set_returns_sound_subset() {
        let (db, nodes) = line_db("aabbaacab");
        let m = nfa_of(&db, "(a|b|c)*");
        let full = reach_set(&db, &m, nodes[0], Direction::Forward, None);
        let mut scratch = ReachScratch::default();
        for fuel in 0..20u64 {
            let gov = Governor::unlimited().with_max_steps(fuel);
            let partial = reach_set_governed(
                &db,
                &m,
                nodes[0],
                Direction::Forward,
                None,
                &mut scratch,
                &gov,
            );
            assert!(
                partial.is_subset(&full),
                "fuel {fuel}: partial must under-approximate"
            );
            // The scratch invariant survives the abort: an ungoverned rerun
            // through the same scratch still computes the full answer.
            let again =
                reach_set_scratch(&db, &m, nodes[0], Direction::Forward, None, &mut scratch);
            assert_eq!(again, full, "fuel {fuel}: scratch left dirty by abort");
        }
    }

    #[test]
    fn aborted_fill_targets_leaves_no_partial_stripe() {
        // Regression (abort hygiene): a fill_targets batch interrupted at
        // ANY checkpoint must memoize nothing — every later `connects`
        // answer must match a never-aborted cache exactly.
        let (db, nodes) = line_db(&"abc".repeat(27)); // >64 sources: 2 stripes
        let m = nfa_of(&db, "(a|b|c)+");
        let mut reference = ReachCache::new(m.clone());
        reference.fill_targets(&db, &nodes);
        // Learn the checkpoint span of one ungoverned fill via a dry run.
        let counting = Arc::new(Governor::unlimited());
        let mut dry = ReachCache::new(m.clone());
        dry.govern(Some(counting.clone()));
        dry.fill_targets(&db, &nodes);
        let span = counting.checkpoints_seen();
        assert!(span > 0);
        for k in 1..=span {
            let gov = Arc::new(Governor::unlimited().with_injection(k));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            cache.fill_targets(&db, &nodes);
            assert!(gov.is_aborted(), "injection at {k} must trip");
            // Detach the governor: the cache must now answer from scratch,
            // identically to the never-aborted reference.
            cache.govern(None);
            for &u in &nodes {
                for &v in &nodes {
                    assert_eq!(
                        cache.connects(&db, u, v),
                        reference.connects(&db, u, v),
                        "inject k={k}: partial stripe retained for ({u:?}, {v:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn aborted_fill_sources_leaves_no_partial_stripe() {
        let (db, nodes) = line_db(&"abc".repeat(27));
        let m = nfa_of(&db, "(abc)*");
        let mut reference = ReachCache::new(m.clone());
        reference.fill_sources(&db, &nodes);
        let counting = Arc::new(Governor::unlimited());
        let mut dry = ReachCache::new(m.clone());
        dry.govern(Some(counting.clone()));
        dry.fill_sources(&db, &nodes);
        let span = counting.checkpoints_seen();
        // Sample the span (every k would be quadratic in test time).
        for k in (1..=span).step_by((span as usize / 16).max(1)) {
            let gov = Arc::new(Governor::unlimited().with_injection(k));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            cache.fill_sources(&db, &nodes);
            assert!(gov.is_aborted());
            cache.govern(None);
            for &v in &nodes {
                assert_eq!(
                    *cache.sources(&db, v),
                    *reference.sources(&db, v),
                    "inject k={k}: partial backward stripe retained at {v:?}"
                );
            }
        }
    }

    #[test]
    fn aborted_single_source_search_is_not_memoized() {
        let (db, nodes) = line_db("aabbaacab");
        let m = nfa_of(&db, "(a|b|c)*");
        let mut cache = ReachCache::new(m.clone());
        let gov = Arc::new(Governor::unlimited().with_max_steps(2));
        cache.govern(Some(gov.clone()));
        let partial = cache.targets(&db, nodes[0]);
        assert!(gov.is_aborted());
        cache.govern(None);
        let full = cache.targets(&db, nodes[0]);
        assert_eq!(
            *full,
            reach_set(&db, &m, nodes[0], Direction::Forward, None),
            "truncated reach set was memoized"
        );
        assert!(partial.is_subset(&full));
    }

    #[test]
    fn cancelled_wavefront_drains_and_zeroes_scratch() {
        let (db, nodes) = line_db(&"ab".repeat(40));
        let m = nfa_of(&db, "(ab)*(a|_)");
        let gov = Governor::unlimited();
        gov.cancel();
        let mut wave = WaveScratch::default();
        let parallel = FrontierConfig::with_threads(4).with_serial_threshold(0);
        let partial = reach_all_governed(
            &db,
            &m,
            &nodes,
            Direction::Forward,
            None,
            &parallel,
            &mut wave,
            &gov,
        );
        let full = reach_all(&db, &m, &nodes, Direction::Forward, None);
        for (p, f) in partial.iter().zip(&full) {
            assert!(p.is_subset(f));
        }
        // Scratch must be all-clear again: an ungoverned rerun through the
        // same scratch reproduces the full answer.
        let again = reach_all_scratch(
            &db,
            &m,
            &nodes,
            Direction::Forward,
            None,
            &parallel,
            &mut wave,
        );
        assert_eq!(again, full);
    }
}
