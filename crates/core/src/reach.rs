//! Product reachability over `D × M`: the search underlying RPQ evaluation
//! (and the NL data-complexity bound of Lemma 1 / Lemma 3).
//!
//! **One row type.** A source's (or, backward, a sink's) slice of the
//! relation `R_M` is a [`ReachRow`]: an `Rc<[NodeId]>`, strictly ascending
//! and duplicate-free. The searches below build rows in that form,
//! [`ReachCache`] memoizes each row once per `(source, direction)`, and
//! every reader — membership probes by binary search, semi-join scans,
//! leapfrog seeks, candidate loops — uses the row as is, so the same input
//! is always walked in the same order.
//!
//! **Single-source** ([`reach_set`]): a BFS from one `(u, q₀)` seed that
//! visits each `(node, state)` pair at most once. The pair space is a dense
//! rectangle `|V_D| × |Q|`, so the visited set is a [`DenseBitSet`] indexed
//! by `node · |Q| + state` — no hashing — and each `Sym(a)` transition
//! expands over the merged per-`(node, a)` run (contiguous base-CSR range
//! chained with the delta-overlay range;
//! [`GraphDb::successors_with`] / [`GraphDb::predecessors_with`]) instead
//! of filtering the whole adjacency row. The final hits are sorted once
//! at the end. This is the only way the solver builds rows: every
//! [`ReachCache::row`] is one such search on the cache's reused
//! [`ReachScratch`], checkpointing the governor once per 64 product
//! states.
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
//!
//! **Set image** ([`ReachCache::image`]): `Pre_M(S)` or `Post_M(S)` for a
//! whole node set `S` — the question an existential leaf asks of its
//! neighbour. One sweep seeds every member of `S` with the start set and
//! walks the same [`MaskSim`] masks as the pinned-pair search, dense per
//! node but cleared along a touched list, so no per-member row is filled.

use crate::governor::Governor;
use cxrpq_automata::{Label, MaskSim, Nfa, StateId};
use cxrpq_graph::{DenseBitSet, GraphDb, NodeId, Symbol};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// Every bump happens on the searching thread: the sharded
/// [`SyncSearch`](crate::sync::SyncSearch) counts a level's states on the
/// calling thread before it shards the level. The counter is atomic only
/// so that searches can bump it through a shared `&ReachStats`; all
/// accesses are relaxed (it is a statistic, not a synchronization point).
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

/// One memoized row of the product relation `R_M`: the nodes one source
/// reaches (or, backward, the nodes that reach one sink), strictly
/// ascending and deduplicated. Every producer builds rows in this form and
/// every reader — membership probes, semi-join passes, leapfrog
/// intersections, candidate loops — uses it as is.
pub type ReachRow = Rc<[NodeId]>;

/// The empty row. Most rows of a selective atom are empty, and they all
/// share this one allocation.
fn empty_row() -> ReachRow {
    thread_local!(static EMPTY: ReachRow = Rc::new([]));
    EMPTY.with(Rc::clone)
}

/// Nodes `v` such that some path `u →* v` is labelled by a word of `L(M)`
/// (for `Direction::Backward`: nodes `v` with a path `v →* u` labelled by a
/// word of the *original* language — pass a reversed automaton), as a
/// [`ReachRow`].
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
) -> ReachRow {
    let scratch = &mut ReachScratch::default();
    reach_set_governed(db, nfa, u, dir, stats, scratch, Governor::disabled())
}

/// Reusable buffers for repeated [`reach_set_governed`] calls.
///
/// Zeroing a fresh `|V| · |Q|`-bit set per call costs `O(|V| · |Q| / 64)`
/// even when the explored region is tiny; a sweep over many sources (one
/// BFS per node) pays that memset per source. A scratch keeps the visited
/// set, the BFS queue and the buffer of final hits across calls: the queue
/// doubles as the list of visited cells, which are cleared one by one
/// afterwards, so the full zeroing happens once, no search allocates
/// anything but its row, and each search costs memory traffic
/// proportional to the region it actually explored.
#[derive(Default)]
pub struct ReachScratch {
    visited: DenseBitSet,
    /// Every product state pushed, in BFS order: popped from a head index,
    /// then walked once more to clear `visited`.
    queue: Vec<(NodeId, StateId)>,
    /// Nodes popped in a final state, before the sort into a row.
    hits: Vec<NodeId>,
}

impl ReachScratch {
    /// An all-clear visited set of capacity ≥ `cells` (grown on demand).
    fn ensure(&mut self, cells: usize) {
        if self.visited.capacity() < cells {
            self.visited = DenseBitSet::new(cells);
        }
        debug_assert!(self.queue.is_empty() && self.hits.is_empty());
    }
}

/// Product states a [`reach_set_governed`] search pops between two
/// governor checkpoints.
const CHECK_STRIDE: usize = 64;

/// [`reach_set`] with caller-provided scratch storage (see
/// [`ReachScratch`]; the scratch is left all-clear for the next call) under
/// a [`Governor`].
///
/// The BFS checkpoints once per 64 popped product states, charging 64
/// steps of fuel and bumping [`ReachStats`] by as many, and charges the
/// remainder when the search ends: fuel and state counts stay exact while
/// the atomic traffic falls 64-fold. A governor that trips stops the
/// search within 64 states, and one already tripped stops it before the
/// first; either way the (sound, partial) row of targets settled so far
/// is returned. The scratch invariant is restored on every exit path,
/// abort included.
pub fn reach_set_governed(
    db: &GraphDb,
    nfa: &Nfa,
    u: NodeId,
    dir: Direction,
    stats: Option<&ReachStats>,
    scratch: &mut ReachScratch,
    gov: &Governor,
) -> ReachRow {
    if gov.is_aborted() {
        return empty_row();
    }
    let q = nfa.state_count();
    let cells = db.node_count() * q;
    if scratch.visited.capacity() < cells {
        gov.charge_mem(cells.div_ceil(8));
    }
    scratch.ensure(cells);
    let ReachScratch {
        visited,
        queue,
        hits,
    } = scratch;
    let push = |queue: &mut Vec<(NodeId, StateId)>,
                visited: &mut DenseBitSet,
                node: NodeId,
                st: StateId| {
        if visited.insert(node.index() * q + st.index()) {
            queue.push((node, st));
        }
    };
    let charge = |n: usize| {
        if let Some(s) = stats {
            s.bump(n);
        }
        gov.checkpoint_n(n as u64)
    };
    push(queue, visited, u, nfa.start());
    let (mut head, mut batch) = (0, 0);
    while let Some(&(node, st)) = queue.get(head) {
        head += 1;
        if nfa.is_final(st) {
            hits.push(node);
        }
        for &(l, t) in nfa.transitions(st) {
            match l {
                Label::Eps => push(queue, visited, node, t),
                Label::Sym(a) => {
                    let adj = match dir {
                        Direction::Forward => db.successors_with(node, a),
                        Direction::Backward => db.predecessors_with(node, a),
                    };
                    for (_, next) in adj {
                        push(queue, visited, next, t);
                    }
                }
                Label::Any => {
                    let adj = match dir {
                        Direction::Forward => db.out_edges(node),
                        Direction::Backward => db.in_edges(node),
                    };
                    for (_, next) in adj {
                        push(queue, visited, next, t);
                    }
                }
            }
        }
        batch += 1;
        if batch == CHECK_STRIDE {
            batch = 0;
            if !charge(CHECK_STRIDE) {
                break; // drain: the hits so far are a sound subset
            }
        }
    }
    if batch > 0 {
        charge(batch);
    }
    for &(node, st) in queue.iter() {
        visited.remove(node.index() * q + st.index());
    }
    queue.clear();
    // A node reached in several final states was popped once per state.
    hits.sort_unstable();
    hits.dedup();
    let row = if hits.is_empty() {
        empty_row()
    } else {
        Rc::from(&hits[..])
    };
    hits.clear();
    row
}

/// Folded-multiply hasher for node-keyed maps — the pinned-pair search's
/// slots, the [`ReachCache`] memos and the solver's projection dedup: a
/// few instructions per key where SipHash costs tens, keyed once per
/// process from the standard library's random state so that a crafted
/// graph cannot aim the keys at one bucket. Every such map is only
/// probed, never iterated, so no search order depends on the key.
pub(crate) struct NodeHasher(u64);

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

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// The [`BuildHasher`] of [`NodeHasher`].
#[derive(Clone, Copy, Default)]
pub(crate) struct NodeHashSeed;

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

/// Per-node state masks for [`ReachCache::image`]: `2 · words` words per
/// node (the ε-closed states reached, then those not yet expanded), grown
/// once to the database and cleared node by node along the touched list,
/// so a sweep costs memory traffic proportional to the region it explored.
#[derive(Default)]
struct SetSweep {
    masks: Vec<u64>,
    /// Nodes whose masks went nonzero, in discovery order.
    touched: Vec<u32>,
    /// Nodes with pending states, first in first out from `head`.
    queue: Vec<u32>,
}

impl SetSweep {
    /// ORs the closed state set `bits` into `node`'s mask, queueing the
    /// node when it gains states and had none pending.
    fn add(&mut self, node: u32, bits: &[u64]) {
        let w = bits.len();
        let (seen, pending) = self.masks[node as usize * 2 * w..][..2 * w].split_at_mut(w);
        let (mut grew, mut idle, mut fresh_node) = (false, true, true);
        for (i, &b) in bits.iter().enumerate() {
            fresh_node &= seen[i] == 0;
            idle &= pending[i] == 0;
            let fresh = b & !seen[i];
            if fresh != 0 {
                grew = true;
                seen[i] |= fresh;
                pending[i] |= fresh;
            }
        }
        if grew && fresh_node {
            self.touched.push(node);
        }
        if grew && idle {
            self.queue.push(node);
        }
    }

    /// One multi-source product sweep: every node of `seeds` starts in
    /// the ε-closed start set of `sim`, and the walk follows out-arcs
    /// (`forward`) or in-arcs. Returns the nodes reached in a final state,
    /// or `None` when the governor tripped. Leaves the masks all-clear.
    fn run(
        &mut self,
        db: &GraphDb,
        sim: &MaskSim,
        seeds: impl Iterator<Item = NodeId>,
        forward: bool,
        stats: &ReachStats,
        gov: &Governor,
    ) -> Option<DenseBitSet> {
        let w = sim.words();
        let cells = db.node_count() * 2 * w;
        if self.masks.len() < cells {
            gov.charge_mem((cells - self.masks.len()) * 8);
            self.masks.resize(cells, 0);
        }
        for s in seeds {
            self.add(s.0, sim.start_mask());
        }
        let (mut delta, mut step) = (vec![0u64; w], vec![0u64; w]);
        let mut head = 0;
        let mut complete = true;
        while head < self.queue.len() {
            if !gov.checkpoint() {
                complete = false;
                break;
            }
            stats.bump(1);
            let node = self.queue[head];
            head += 1;
            let pending = &mut self.masks[node as usize * 2 * w + w..][..w];
            delta.copy_from_slice(pending);
            pending.fill(0);
            let runs = if forward {
                db.out_label_runs(NodeId(node))
            } else {
                db.in_label_runs(NodeId(node))
            };
            for (a, run) in runs {
                step.fill(0);
                if !sim.step_into(&delta, a, &mut step) {
                    continue;
                }
                for (_, next) in run {
                    self.add(next.0, &step);
                }
            }
        }
        let mut out = complete.then(|| DenseBitSet::new(db.node_count()));
        for &node in &self.touched {
            let row = &mut self.masks[node as usize * 2 * w..][..2 * w];
            if let Some(out) = &mut out {
                if sim.any_final(&row[..w]) {
                    out.insert(node as usize);
                }
            }
            row.fill(0);
        }
        self.touched.clear();
        self.queue.clear();
        out
    }
}

/// The automaton a `dir` search runs: `nfa` forward, its reversal
/// backward (built on first use).
fn oriented<'a>(nfa: &'a Nfa, rev: &'a OnceCell<Nfa>, dir: Direction) -> &'a Nfa {
    match dir {
        Direction::Forward => nfa,
        Direction::Backward => rev.get_or_init(|| reverse_nfa(nfa)),
    }
}

/// Memoizing wrapper around [`reach_set`] for repeated
/// queries against the same database (one cache per edge automaton): one
/// [`ReachRow`] map per direction, keyed by source (`fwd`) or sink (`bwd`),
/// plus the pinned-pair verdicts of [`ReachCache::connects_pair`]. Rows are
/// handed out by `Rc` clone; every empty row shares one allocation.
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
/// transition touches every label), the memoized rows are provably still
/// correct and are kept. Unknown ancestry — a different database, a
/// divergent clone, or truncated append history — drops everything
/// wholesale, as before.
pub struct ReachCache {
    nfa: Nfa,
    /// The reversed automaton, built the first time a backward row or a
    /// pinned-pair search reaches its backward side: most short-lived
    /// caches never get there.
    rev: OnceCell<Nfa>,
    /// Sorted distinct `Sym` labels of `nfa` (the automaton's footprint).
    syms: Vec<Symbol>,
    /// Whether `nfa` has an `Any` transition (footprint = whole alphabet).
    uses_any: bool,
    generation: Option<u64>,
    /// Memoized rows per source (`fwd`) and per sink (`bwd`).
    fwd: HashMap<NodeId, ReachRow, NodeHashSeed>,
    bwd: HashMap<NodeId, ReachRow, NodeHashSeed>,
    /// Pinned-pair verdicts of [`ReachCache::connects_pair`]; invalidation
    /// rides the same label-aware `bind` as the rows.
    pairs: HashMap<(NodeId, NodeId), bool, NodeHashSeed>,
    /// Forward and reversed [`MaskSim`] tables of the pinned-pair search,
    /// each built the first time a search needs it.
    pair_fwd: Option<MaskSim>,
    pair_bwd: Option<MaskSim>,
    sweep: SetSweep,
    scratch: ReachScratch,
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
            fwd: HashMap::default(),
            bwd: HashMap::default(),
            pairs: HashMap::default(),
            pair_fwd: None,
            pair_bwd: None,
            sweep: SetSweep::default(),
            scratch: ReachScratch::default(),
            gov: None,
            stats: ReachStats::default(),
        }
    }

    /// Attaches (or detaches, with `None`) a [`Governor`]: every search the
    /// cache runs checkpoints against it, and a row interrupted by a trip
    /// is **never memoized** — no partial row survives an abort, so a
    /// query repeated after an abort recomputes from a consistent cache
    /// instead of serving truncated rows.
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
    /// Rows survive a rebind when `db` proves (via
    /// [`GraphDb::delta_since`]) that every label appended since the bound
    /// generation lies outside the automaton's symbol footprint — those
    /// arcs can never appear in this automaton's product searches, so the
    /// cached rows are unchanged.
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
                    self.pairs.clear();
                }
                self.generation = Some(db.generation());
            }
            None => self.generation = Some(db.generation()),
        }
    }

    /// Targets reachable from `u` via an accepted word: the forward
    /// [`ReachCache::row`].
    pub fn targets(&mut self, db: &GraphDb, u: NodeId) -> ReachRow {
        self.row(db, u, Direction::Forward)
    }

    /// Sources that reach `v` via an accepted word: the backward
    /// [`ReachCache::row`].
    pub fn sources(&mut self, db: &GraphDb, v: NodeId) -> ReachRow {
        self.row(db, v, Direction::Backward)
    }

    /// The memoized [`ReachRow`] of `key`: the nodes it reaches
    /// (`Forward`) or the nodes reaching it (`Backward`, over the reversed
    /// automaton), shared via `Rc` so repeat visits cost one clone. A
    /// search cut short by a governor trip returns its (sound, partial)
    /// row unmemoized.
    pub fn row(&mut self, db: &GraphDb, key: NodeId, dir: Direction) -> ReachRow {
        self.bind(db);
        if let Some(r) = self.memo(dir).get(&key) {
            return r.clone();
        }
        let r = reach_set_governed(
            db,
            oriented(&self.nfa, &self.rev, dir),
            key,
            dir,
            Some(&self.stats),
            &mut self.scratch,
            self.gov.as_deref().unwrap_or(Governor::disabled()),
        );
        self.memoize(dir, key, &r);
        r
    }

    /// The row memo of one direction.
    fn memo(&self, dir: Direction) -> &HashMap<NodeId, ReachRow, NodeHashSeed> {
        match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        }
    }

    /// Stores a complete row, charged to the governor; a row cut short by
    /// a trip is never kept.
    fn memoize(&mut self, dir: Direction, key: NodeId, row: &ReachRow) {
        let gov = self.gov.as_deref().unwrap_or(Governor::disabled());
        if gov.is_aborted() {
            return;
        }
        gov.charge_mem(row.len() * 4 + 48);
        let memo = match dir {
            Direction::Forward => &mut self.fwd,
            Direction::Backward => &mut self.bwd,
        };
        memo.insert(key, row.clone());
    }

    /// Whether some path `u →* v` is labelled by an accepted word, decided
    /// by one bidirectional search (see the module docs) instead of a
    /// closure, and memoized per `(u, v)`.
    ///
    /// A memoized row of `u` (forward) or `v` (backward) answers first;
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
            return r.binary_search(&v).is_ok();
        }
        if let Some(r) = self.bwd.get(&v) {
            return r.binary_search(&u).is_ok();
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

    /// The image of a node set under the automaton's relation `R_M`, by one
    /// multi-source product sweep: `Post_M(set)`, the nodes some member
    /// reaches by an accepted word (`Forward`), or `Pre_M(set)`, the nodes
    /// that reach some member (`Backward`, over the reversed automaton).
    /// It runs on the [`MaskSim`] tables of the pinned-pair search, one bit
    /// per `(node, state)`, and costs `O((|V| + |E|) · |Q|)` at most where
    /// one row per member would cost that per member.
    ///
    /// Nothing is memoized. The search checkpoints once per expanded node
    /// and bumps [`ReachStats`] by one per node; a governor trip returns
    /// `None`.
    pub fn image(
        &mut self,
        db: &GraphDb,
        set: &DenseBitSet,
        dir: Direction,
    ) -> Option<DenseBitSet> {
        let nfa = &self.nfa;
        let sim = match dir {
            Direction::Forward => &*self.pair_fwd.get_or_insert_with(|| MaskSim::new(nfa)),
            Direction::Backward => {
                let rev = &self.rev;
                &*self
                    .pair_bwd
                    .get_or_insert_with(|| MaskSim::new(rev.get_or_init(|| reverse_nfa(nfa))))
            }
        };
        let gov = self.gov.as_deref().unwrap_or(Governor::disabled());
        let seeds = set.ones().map(|i| NodeId(i as u32));
        self.sweep
            .run(db, sim, seeds, dir == Direction::Forward, &self.stats, gov)
    }

    /// Whether some path `u →* v` is labelled by an accepted word.
    ///
    /// A memoized row of either endpoint or a pinned-pair verdict of
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
            return r.binary_search(&v).is_ok();
        }
        if let Some(r) = self.bwd.get(&v) {
            return r.binary_search(&u).is_ok();
        }
        if let Some(&hit) = self.pairs.get(&(u, v)) {
            return hit;
        }
        if db.in_edges(v).is_empty() && !db.out_edges(u).is_empty() {
            self.sources(db, v).binary_search(&u).is_ok()
        } else {
            self.targets(db, u).binary_search(&v).is_ok()
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

    /// The row invariant: strictly ascending, hence duplicate-free.
    fn ascending(row: &[NodeId]) -> bool {
        row.windows(2).all(|w| w[0] < w[1])
    }

    fn is_subset(part: &[NodeId], whole: &[NodeId]) -> bool {
        part.iter().all(|n| whole.binary_search(n).is_ok())
    }

    /// Every row `cache` serves on `db`, both directions, is ascending and
    /// equals a fresh search.
    fn assert_rows_fresh(cache: &mut ReachCache, db: &GraphDb) {
        let nfa = cache.nfa().clone();
        let rev = reverse_nfa(&nfa);
        for u in db.nodes() {
            let (fwd, bwd) = (cache.targets(db, u), cache.sources(db, u));
            assert!(ascending(&fwd) && ascending(&bwd), "row order at {u:?}");
            assert_eq!(fwd, reach_set(db, &nfa, u, Direction::Forward, None));
            assert_eq!(bwd, reach_set(db, &rev, u, Direction::Backward, None));
        }
    }

    #[test]
    fn forward_reach_on_line() {
        let (db, nodes) = line_db("aabba");
        let m = nfa_of(&db, "a*");
        let r = reach_set(&db, &m, nodes[0], Direction::Forward, None);
        assert_eq!(*r, [nodes[0], nodes[1], nodes[2]]);
        let m2 = nfa_of(&db, "a*b");
        let r2 = reach_set(&db, &m2, nodes[0], Direction::Forward, None);
        assert_eq!(*r2, [nodes[3]]);
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
        assert_eq!(*r, [nodes[1]]);
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
        let gov = Governor::disabled();
        for &n in &nodes {
            let fresh = reach_set(&db, &m, n, Direction::Forward, None);
            let reused =
                reach_set_governed(&db, &m, n, Direction::Forward, None, &mut scratch, gov);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn image_is_the_union_of_rows() {
        // A line with a back arc, so the sweeps revisit nodes with new states.
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut b = GraphBuilder::new(alpha);
        let w = b.alphabet().parse_word("aabbaacab").unwrap();
        let nodes: Vec<NodeId> = (0..=w.len()).map(|_| b.add_node()).collect();
        for (i, &s) in w.iter().enumerate() {
            b.add_edge(nodes[i], s, nodes[i + 1]);
        }
        let c = b.alphabet().sym("c");
        b.add_edge(nodes[7], c, nodes[2]);
        let db = b.freeze();
        let subsets: [&[usize]; 3] = [&[], &[0, 3], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]];
        for pat in ["a*", "a*b", "(a|b)*c", "..", "_", "c(a|b)*"] {
            let m = nfa_of(&db, pat);
            let mut cache = ReachCache::new(m.clone());
            for members in subsets {
                let mut set = DenseBitSet::new(db.node_count());
                for &i in members {
                    set.insert(i);
                }
                for dir in [Direction::Forward, Direction::Backward] {
                    let nfa = match dir {
                        Direction::Forward => m.clone(),
                        Direction::Backward => reverse_nfa(&m),
                    };
                    let mut want: Vec<usize> = members
                        .iter()
                        .flat_map(|&i| reach_set(&db, &nfa, nodes[i], dir, None).to_vec())
                        .map(NodeId::index)
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    let got = cache.image(&db, &set, dir).expect("ungoverned");
                    let got: Vec<usize> = got.ones().collect();
                    assert_eq!(got, want, "{pat} {members:?} {dir:?}");
                }
            }
            assert!(
                cache.fwd.is_empty() && cache.bwd.is_empty() && cache.pairs.is_empty(),
                "an image memoizes nothing"
            );
        }
    }

    #[test]
    fn tripped_image_returns_none_and_leaves_the_scratch_clear() {
        let (db, _) = line_db("aabbaacab");
        let mut cache = ReachCache::new(nfa_of(&db, "(a|b)*c"));
        let all = DenseBitSet::full(db.node_count());
        let want = cache.image(&db, &all, Direction::Backward).unwrap();
        let gov = Arc::new(Governor::unlimited().with_injection(3));
        cache.govern(Some(gov.clone()));
        assert!(cache.image(&db, &all, Direction::Backward).is_none());
        assert!(gov.is_aborted());
        cache.govern(None);
        let again = cache.image(&db, &all, Direction::Backward).unwrap();
        assert_eq!(
            again.ones().collect::<Vec<_>>(),
            want.ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rows_are_memoized_and_match_fresh_searches() {
        let (db, nodes) = line_db("abcabc");
        let m = nfa_of(&db, "(a|b|c)+");
        let mut cache = ReachCache::new(m);
        assert_rows_fresh(&mut cache, &db);
        let explored = cache.stats.states();
        assert!(explored > 0);
        // Every row is now a memo hit: no search runs again.
        for &n in &nodes {
            cache.row(&db, n, Direction::Forward);
            cache.row(&db, n, Direction::Backward);
        }
        assert_eq!(cache.stats.states(), explored);
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
        assert_rows_fresh(&mut cache, &db1);
        assert_rows_fresh(&mut cache, &db2);
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
        assert_rows_fresh(&mut cache, &db);
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
        assert_rows_fresh(&mut cache, &db);
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
        assert_rows_fresh(&mut cache, &db);
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
        assert_rows_fresh(&mut cache, &db2);
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
                ascending(&partial) && is_subset(&partial, &full),
                "fuel {fuel}: partial must under-approximate"
            );
            // The scratch invariant survives the abort: an ungoverned rerun
            // through the same scratch still computes the full answer.
            let again = reach_set_governed(
                &db,
                &m,
                nodes[0],
                Direction::Forward,
                None,
                &mut scratch,
                Governor::disabled(),
            );
            assert_eq!(again, full, "fuel {fuel}: scratch left dirty by abort");
        }
    }

    /// The checkpoints one sweep of `dir` rows over `nodes` passes.
    fn checkpoint_span(m: &Nfa, db: &GraphDb, nodes: &[NodeId], dir: Direction) -> u64 {
        let counting = Arc::new(Governor::unlimited());
        let mut dry = ReachCache::new(m.clone());
        dry.govern(Some(counting.clone()));
        for &n in nodes {
            dry.row(db, n, dir);
        }
        counting.checkpoints_seen()
    }

    #[test]
    fn aborted_target_rows_leave_no_partial_row() {
        // Regression (abort hygiene): a sweep of forward rows interrupted
        // at ANY checkpoint must memoize nothing partial — every later
        // `connects` answer must match a never-aborted cache exactly.
        let (db, nodes) = line_db(&"abc".repeat(27));
        let m = nfa_of(&db, "(a|b|c)+");
        let mut reference = ReachCache::new(m.clone());
        let span = checkpoint_span(&m, &db, &nodes, Direction::Forward);
        assert!(span > nodes.len() as u64, "long rows checkpoint mid-search");
        for k in 1..=span {
            let gov = Arc::new(Governor::unlimited().with_injection(k));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            for &u in &nodes {
                cache.targets(&db, u);
            }
            assert!(gov.is_aborted(), "injection at {k} must trip");
            // Detach the governor: the cache must now answer from scratch,
            // identically to the never-aborted reference.
            cache.govern(None);
            for &u in &nodes {
                for &v in &nodes {
                    assert_eq!(
                        cache.connects(&db, u, v),
                        reference.connects(&db, u, v),
                        "inject k={k}: partial row retained for ({u:?}, {v:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn aborted_source_rows_leave_no_partial_row() {
        let (db, nodes) = line_db(&"abc".repeat(27));
        let m = nfa_of(&db, "(abc)*");
        let mut reference = ReachCache::new(m.clone());
        let span = checkpoint_span(&m, &db, &nodes, Direction::Backward);
        // Sample the span (every k would be quadratic in test time).
        for k in (1..=span).step_by((span as usize / 16).max(1)) {
            let gov = Arc::new(Governor::unlimited().with_injection(k));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            for &v in &nodes {
                cache.sources(&db, v);
            }
            assert!(gov.is_aborted(), "injection at {k} must trip");
            cache.govern(None);
            for &v in &nodes {
                assert_eq!(
                    *cache.sources(&db, v),
                    *reference.sources(&db, v),
                    "inject k={k}: partial backward row retained at {v:?}"
                );
            }
        }
    }

    #[test]
    fn governed_rows_charge_one_step_per_state() {
        let (db, nodes) = line_db(&"abc".repeat(40));
        let m = nfa_of(&db, "(a|b|c)+");
        // Rows short and long, so both the 64-state stride and the
        // remainder charged at the end are exercised.
        for &u in &[nodes[0], nodes[20], nodes[100], nodes[119]] {
            // Batching loses no fuel: the charge equals the state count.
            let gov = Arc::new(Governor::unlimited());
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            let row = cache.targets(&db, u);
            let states = cache.stats.states() as u64;
            assert_eq!(gov.steps_taken(), states, "fuel at {u:?}");
            assert!(!gov.is_aborted() && cache.fwd.contains_key(&u));
            // A budget one step short trips the search and memoizes
            // nothing.
            let gov = Arc::new(Governor::unlimited().with_max_steps(states - 1));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            let partial = cache.targets(&db, u);
            assert_eq!(
                gov.abort_reason(),
                Some(crate::governor::AbortReason::Fuel),
                "budget {} at {u:?}",
                states - 1
            );
            assert!(cache.fwd.is_empty(), "tripped row memoized at {u:?}");
            assert!(is_subset(&partial, &row));
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
            full,
            reach_set(&db, &m, nodes[0], Direction::Forward, None),
            "truncated reach set was memoized"
        );
        assert!(is_subset(&partial, &full));
    }
}
