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
//! **Two kernels.** Every product search here runs one of two kernels:
//!
//! - The *state BFS* visits `(node, state)` cells from one seed
//!   `(u, q₀)`, each at most once. The cell space is a dense rectangle
//!   `|V_D| × |Q|`, so the visited set is a [`DenseBitSet`] indexed by
//!   `node · |Q| + state` — no hashing — and each `Sym(a)` transition
//!   expands over the merged per-`(node, a)` run (contiguous base-CSR
//!   range chained with the delta-overlay range;
//!   [`GraphDb::successors_with`] / [`GraphDb::predecessors_with`])
//!   instead of filtering the whole adjacency row. A path search also
//!   records, beside each queued cell, the queue index of the cell it was
//!   pushed from and the symbol read on that step. The BFS builds every
//!   row ([`reach_set`], [`ReachCache::row`]), sorting the final hits once
//!   at the end, and every arbitrary-path witness
//!   ([`edge_path`](crate::witness::edge_path)), stopping when
//!   `(to, final)` is popped and walking back through the parents. It
//!   checkpoints the governor once per 64 popped cells.
//! - The *mask sweep* keeps one ε-closed [`MaskSim`] state set per node
//!   and expands level by level, in FIFO order, one checkpoint and one
//!   [`ReachStats`] count per expanded node. [`ReachCache::image`] seeds
//!   one sweep with a whole node set `S` and runs it dry: `Pre_M(S)` or
//!   `Post_M(S)` without one row per member. [`ReachCache::connects_pair`]
//!   (the Check question "is `(u, v)` in `R_M`?") runs two sweeps that
//!   meet in the middle: forward from `(u, closure(q₀))` over `M` and
//!   backward from `(v, finals)` over the reversed automaton, the side
//!   with the smaller frontier expanding one level at a time. It stops as
//!   soon as a state one sweep gains at a node is already in the other
//!   sweep's mask there (a word of `L(M)` splits there), or one side runs
//!   dry.
//!
//! **One scratch per thread.** Both kernels run on the calling thread's
//! search scratch: the BFS's visited set, queue and hit buffer, and two
//! mask sweeps with dense per-node masks. It grows to the largest graph
//! it has served and is zero-filled only when it grows: every search
//! clears what it touched — along the BFS queue or the sweep's touched
//! list — before it returns, aborted searches included, and a search that
//! panics drops the scratch instead of putting it back. An exiting thread
//! leaves its scratch on a spare list, and a thread without one takes it
//! from there on its first search, so threads spawned per request or per
//! shard search on grown buffers too. A search thus costs memory traffic
//! proportional to the region it explored, and a short-lived
//! [`ReachCache`] allocates nothing to search.
//!
//! **Charges depend on the query alone.** How far a scratch has grown
//! depends on what its threads searched before, so its growth is charged
//! to nobody. A search is charged what it would allocate on buffers of its
//! own instead: the state BFS's `|V| · |Q|`-bit visited set once per owner
//! of a run of searches (a [`ReachCache`], one [`reach_set_governed`]
//! call, one `rpq_pairs` sweep, one witness path), and a mask sweep
//! `2 · words · 8 + 16` bytes per node it touches. The same query gets the
//! same charges, and the same memory verdict, on any thread.

use crate::governor::Governor;
use cxrpq_automata::{Label, MaskSim, Nfa, StateId};
use cxrpq_graph::{DenseBitSet, GraphDb, NodeId, Path, Symbol};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Walk direction through the database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Follow out-edges (words read left to right).
    Forward,
    /// Follow in-edges with a reversed automaton.
    Backward,
}

/// Counts product states explored — the measured proxy for the paper's
/// space bounds in EXPERIMENTS.md. The state BFS of a row counts the
/// cells it pops; a mask sweep ([`ReachCache::connects_pair`],
/// [`ReachCache::image`]) counts the nodes it expands instead. Witness
/// paths count nothing.
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
    reach_set_governed(db, nfa, u, dir, stats, Governor::disabled())
}

/// [`reach_set`] under a [`Governor`]: one state BFS on the thread's search
/// scratch.
///
/// The BFS checkpoints once per 64 popped product states, charging 64
/// steps of fuel and bumping [`ReachStats`] by as many, and charges the
/// remainder when the search ends: fuel and state counts stay exact while
/// the atomic traffic falls 64-fold. A governor that trips stops the
/// search within 64 states, and one already tripped stops it before the
/// first; either way the (sound, partial) row of targets settled so far
/// is returned.
pub fn reach_set_governed(
    db: &GraphDb,
    nfa: &Nfa,
    u: NodeId,
    dir: Direction,
    stats: Option<&ReachStats>,
    gov: &Governor,
) -> ReachRow {
    gov.charge_mem(visited_bytes(db, nfa));
    reach_row(db, nfa, u, dir, stats, gov)
}

/// The bytes of the `|V| · |Q|`-bit visited set of a state BFS on `db`
/// and `nfa`. Every owner of a run of row searches — a [`ReachCache`], one
/// [`reach_set_governed`] call, one `rpq_pairs` sweep, one witness path —
/// charges it once, whatever the thread's scratch already holds.
pub(crate) fn visited_bytes(db: &GraphDb, nfa: &Nfa) -> usize {
    (db.node_count() * nfa.state_count()).div_ceil(8)
}

/// [`reach_set_governed`] without the charge for the visited set, for an
/// owner that charged it already ([`visited_bytes`]).
pub(crate) fn reach_row(
    db: &GraphDb,
    nfa: &Nfa,
    u: NodeId,
    dir: Direction,
    stats: Option<&ReachStats>,
    gov: &Governor,
) -> ReachRow {
    with_scratch(|s, empty| {
        let hits = &mut s.hits;
        s.bfs.run::<false>(db, nfa, u, dir, stats, gov, |node| {
            hits.push(node);
            false
        });
        s.bfs.clear(nfa.state_count());
        // A node reached in several final states was popped once per state.
        hits.sort_unstable();
        hits.dedup();
        let row = if hits.is_empty() {
            empty.clone()
        } else {
            Rc::from(&hits[..])
        };
        hits.clear();
        row
    })
}

/// A path `from →* to` labelled by a word of `L(nfa)`, shortest in product
/// steps: the state BFS stopped when `(to, final)` is popped, read back
/// through the parents. `None` when there is no such path or the governor
/// tripped.
pub(crate) fn product_path(
    db: &GraphDb,
    nfa: &Nfa,
    from: NodeId,
    to: NodeId,
    gov: &Governor,
) -> Option<Path> {
    gov.charge_mem(visited_bytes(db, nfa));
    with_scratch(|s, _| {
        let bfs = &mut s.bfs;
        let goal = bfs.run::<true>(db, nfa, from, Direction::Forward, None, gov, |n| n == to);
        let path = goal.filter(|_| !gov.is_aborted()).map(|mut at| {
            let mut steps = Vec::new();
            while at != 0 {
                let (parent, sym) = bfs.links[at];
                if sym != NO_SYM {
                    steps.push((Symbol(sym), bfs.queue[at].0));
                }
                at = parent as usize;
            }
            let mut path = Path::trivial(from);
            for &(a, v) in steps.iter().rev() {
                path.push(a, v);
            }
            path
        });
        bfs.clear(nfa.state_count());
        path
    })
}

/// The search scratch of one thread (see the module docs).
#[derive(Default)]
struct Scratch {
    bfs: StateBfs,
    /// Nodes a row search popped in a final state, before the sort.
    hits: Vec<NodeId>,
    /// The forward sweep of a pinned pair, and the sweep of an image.
    fwd: MaskSweep,
    /// The backward sweep of a pinned pair.
    bwd: MaskSweep,
}

/// A thread's place for its scratch between searches, and the empty row
/// its searches share: most rows of a selective atom are empty, and they
/// all share this one allocation.
struct Slot {
    scratch: RefCell<Option<Scratch>>,
    empty: ReachRow,
}

impl Drop for Slot {
    /// Hands the exiting thread's scratch on to the next thread that
    /// searches.
    fn drop(&mut self) {
        if let Some(s) = self.scratch.get_mut().take() {
            spare().push(s);
        }
    }
}

/// Scratches of exited threads. A thread with none takes one on its first
/// search, so threads spawned per request or per shard search on buffers
/// that earlier threads grew.
static SPARE: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

/// The spare list. A poisoned lock is taken as is: a scratch goes on the
/// list only from an exiting thread's slot, never mid-search.
fn spare() -> MutexGuard<'static, Vec<Scratch>> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static SLOT: Slot = Slot {
        scratch: RefCell::new(None),
        empty: ReachRow::default(),
    };
}

/// Runs `f` on the calling thread's search scratch and shared empty row.
/// If `f` panics the scratch, perhaps dirty, is dropped, and the thread's
/// next search starts on an all-clear one.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch, &ReachRow) -> R) -> R {
    /// Empties the slot when dropped during a panic.
    struct Discard<'a>(&'a RefCell<Option<Scratch>>);
    impl Drop for Discard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Ok(mut s) = self.0.try_borrow_mut() {
                    *s = None;
                }
            }
        }
    }
    SLOT.with(|slot| {
        let _discard = Discard(&slot.scratch);
        let mut s = slot.scratch.borrow_mut();
        let s = s.get_or_insert_with(|| spare().pop().unwrap_or_default());
        f(s, &slot.empty)
    })
}

/// Product states a state BFS pops between two governor checkpoints.
const CHECK_STRIDE: usize = 64;

/// The symbol of a cell entered by an ε-move, and of the seed.
const NO_SYM: u32 = u32::MAX;

/// The state BFS over `(node, state)` cells.
#[derive(Default)]
struct StateBfs {
    visited: DenseBitSet,
    /// Every cell pushed, in BFS order: popped from a head index, then
    /// walked once more to clear `visited`.
    queue: Vec<(NodeId, StateId)>,
    /// Beside each queued cell, for a path search only: the queue index
    /// of the cell it was pushed from and the symbol read on that step.
    /// Kept out of `queue` so that row searches, which never read them,
    /// push 8-byte cells.
    links: Vec<(u32, u32)>,
}

impl StateBfs {
    /// Pushes the cell `(node, state)`, entered from queue index `parent`
    /// by reading `sym`, unless it was visited.
    fn push<const LINKS: bool>(
        &mut self,
        q: usize,
        node: NodeId,
        state: StateId,
        parent: u32,
        sym: u32,
    ) {
        if self.visited.insert(node.index() * q + state.index()) {
            self.queue.push((node, state));
            if LINKS {
                self.links.push((parent, sym));
            }
        }
    }

    /// Runs the BFS from `(u, q₀)` over `nfa`, along out-arcs (`Forward`)
    /// or in-arcs (`Backward`). `on_final` sees the node of every cell
    /// popped in a final state; when it returns `true` the search stops and
    /// returns that cell's queue index. The queue keeps every pushed cell
    /// until [`StateBfs::clear`]; with `LINKS`, so do the links.
    #[allow(clippy::too_many_arguments)]
    fn run<const LINKS: bool>(
        &mut self,
        db: &GraphDb,
        nfa: &Nfa,
        u: NodeId,
        dir: Direction,
        stats: Option<&ReachStats>,
        gov: &Governor,
        mut on_final: impl FnMut(NodeId) -> bool,
    ) -> Option<usize> {
        if gov.is_aborted() {
            return None;
        }
        let q = nfa.state_count();
        let cells = db.node_count() * q;
        if self.visited.capacity() < cells {
            self.visited = DenseBitSet::new(cells);
        }
        let charge = |n: usize| {
            if let Some(s) = stats {
                s.bump(n);
            }
            gov.checkpoint_n(n as u64)
        };
        self.push::<LINKS>(q, u, nfa.start(), 0, NO_SYM);
        let (mut head, mut batch, mut goal) = (0, 0, None);
        while let Some(&(node, state)) = self.queue.get(head) {
            let parent = head as u32;
            head += 1;
            batch += 1;
            if nfa.is_final(state) && on_final(node) {
                goal = Some(head - 1);
                break;
            }
            for &(l, t) in nfa.transitions(state) {
                match l {
                    Label::Eps => self.push::<LINKS>(q, node, t, parent, NO_SYM),
                    Label::Sym(a) => {
                        let adj = match dir {
                            Direction::Forward => db.successors_with(node, a),
                            Direction::Backward => db.predecessors_with(node, a),
                        };
                        for (_, next) in adj {
                            self.push::<LINKS>(q, next, t, parent, a.0);
                        }
                    }
                    Label::Any => {
                        let adj = match dir {
                            Direction::Forward => db.out_edges(node),
                            Direction::Backward => db.in_edges(node),
                        };
                        for (b, next) in adj {
                            self.push::<LINKS>(q, next, t, parent, b.0);
                        }
                    }
                }
            }
            if batch == CHECK_STRIDE {
                batch = 0;
                if !charge(CHECK_STRIDE) {
                    break; // drain: what was settled so far is sound
                }
            }
        }
        if batch > 0 {
            charge(batch);
        }
        goal
    }

    /// Clears the visited bits of the queued cells, the queue and the
    /// links.
    fn clear(&mut self, q: usize) {
        for (node, state) in self.queue.drain(..) {
            self.visited.remove(node.index() * q + state.index());
        }
        self.links.clear();
    }
}

/// Folded-multiply hasher for node-keyed maps — the [`ReachCache`] memos
/// and the solver's projection dedup: a few instructions per key where
/// SipHash costs tens, keyed once per process from the standard library's
/// random state so that a crafted graph cannot aim the keys at one bucket.
/// Every such map is only probed, never iterated, so no search order
/// depends on the key.
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

/// The mask sweep: per node `2 · words` mask words, the ε-closed
/// [`MaskSim`] states reached, then those not yet expanded. The masks are
/// dense over the database and cleared along the touched list. A sweep
/// charges its governor `2 · words · 8 + 16` bytes per node it touches,
/// whatever the scratch already holds.
#[derive(Default)]
struct MaskSweep {
    masks: Vec<u64>,
    words: usize,
    /// Nodes whose masks went nonzero, in discovery order.
    touched: Vec<NodeId>,
    /// Nodes in the order they gained pending states; `queue[head..]` is
    /// the frontier.
    queue: Vec<NodeId>,
    head: usize,
    /// The expanded node's pending states, then one label's step.
    buf: Vec<u64>,
}

impl MaskSweep {
    /// Starts a sweep of `words`-word masks on `db`.
    fn begin(&mut self, db: &GraphDb, words: usize) {
        let cells = db.node_count() * 2 * words;
        if self.masks.len() < cells {
            self.masks.resize(cells, 0);
        }
        self.words = words;
        self.buf.resize(2 * words, 0);
    }

    /// Nodes queued and not yet expanded.
    fn frontier(&self) -> usize {
        self.queue.len() - self.head
    }

    /// The states reached at `node`.
    fn seen(&self, node: NodeId) -> &[u64] {
        &self.masks[node.index() * 2 * self.words..][..self.words]
    }

    /// ORs the closed state set `bits` into `node`'s mask, queueing the
    /// node when it gains states and had none pending. Returns whether a
    /// gained state also lies in `theirs` (the other sweep's mask at
    /// `node`): the two sweeps meet there.
    fn add(&mut self, node: NodeId, bits: &[u64], theirs: &[u64], gov: &Governor) -> bool {
        let w = self.words;
        let (seen, pending) = self.masks[node.index() * 2 * w..][..2 * w].split_at_mut(w);
        let (mut grew, mut idle, mut untouched, mut met) = (false, true, true, false);
        for (i, &b) in bits.iter().enumerate() {
            untouched &= seen[i] == 0;
            idle &= pending[i] == 0;
            let fresh = b & !seen[i];
            if fresh != 0 {
                grew = true;
                seen[i] |= fresh;
                pending[i] |= fresh;
                met |= theirs.get(i).is_some_and(|&t| t & fresh != 0);
            }
        }
        if grew && untouched {
            self.touched.push(node);
            gov.charge_mem(2 * w * 8 + 16);
        }
        if grew && idle {
            self.queue.push(node);
        }
        met
    }

    /// Expands one level: every node queued when the call starts, over its
    /// pending states, by one arc (out-arcs if `forward`, else in-arcs),
    /// with `theirs` giving the other sweep's mask at a node. `Some(true)`
    /// at the first meet, `Some(false)` when the level ran through, `None`
    /// when the governor tripped.
    fn expand_level<'t>(
        &mut self,
        db: &GraphDb,
        sim: &MaskSim,
        forward: bool,
        theirs: impl Fn(NodeId) -> &'t [u64],
        stats: &ReachStats,
        gov: &Governor,
    ) -> Option<bool> {
        let (w, end) = (self.words, self.queue.len());
        let mut buf = std::mem::take(&mut self.buf);
        let (delta, step) = buf.split_at_mut(w);
        let verdict = 'level: {
            while self.head < end {
                if !gov.checkpoint() {
                    break 'level None;
                }
                stats.bump(1);
                let node = self.queue[self.head];
                self.head += 1;
                let pending = &mut self.masks[node.index() * 2 * w + w..][..w];
                delta.copy_from_slice(pending);
                pending.fill(0);
                let runs = if forward {
                    db.out_label_runs(node)
                } else {
                    db.in_label_runs(node)
                };
                for (a, run) in runs {
                    step.fill(0);
                    if !sim.step_into(delta, a, step) {
                        continue;
                    }
                    for (_, next) in run {
                        if self.add(next, step, theirs(next), gov) {
                            break 'level Some(true);
                        }
                    }
                }
            }
            Some(false)
        };
        self.buf = buf;
        verdict
    }

    /// Shows every touched node and its reached states to `visit`, then
    /// clears the masks and the queue.
    fn clear(&mut self, mut visit: impl FnMut(NodeId, &[u64])) {
        let w = self.words;
        for &node in &self.touched {
            let row = &mut self.masks[node.index() * 2 * w..][..2 * w];
            visit(node, &row[..w]);
            row.fill(0);
        }
        self.touched.clear();
        self.queue.clear();
        self.head = 0;
    }
}

/// Bidirectional product search for one pinned pair: whether some path
/// `u →* v` spells a word of the automaton behind `fwd`, by two mask
/// sweeps on the thread's scratch. The backward sweep runs over the tables
/// `bwd` returns (those of [`reverse_nfa`], whose states `0..|Q|` are the
/// original ones), asked for only when the search gets past its first
/// forward levels. Returns `false` on a governor trip (the caller must not
/// memoize that verdict).
fn pair_search<'t>(
    db: &GraphDb,
    fwd: &MaskSim,
    bwd: impl FnOnce() -> &'t MaskSim,
    u: NodeId,
    v: NodeId,
    stats: &ReachStats,
    gov: &Governor,
) -> bool {
    with_scratch(|s, _| {
        let (f, b) = (&mut s.fwd, &mut s.bwd);
        let hit = 'search: {
            f.begin(db, fwd.words());
            f.add(u, fwd.start_mask(), &[], gov);
            // While the forward frontier is a single node the smaller side
            // is the forward one, and the backward side is still its seed
            // `(v, finals)`: on forward-closed masks, meeting it means
            // reaching `v` in a final state. Most checks end here, so the
            // backward tables wait.
            let seed = |n: NodeId| if n == v { fwd.final_mask() } else { &[] };
            while f.frontier() == 1 {
                match f.expand_level(db, fwd, true, seed, stats, gov) {
                    Some(false) => {}
                    met => break 'search met.is_some(),
                }
            }
            if f.frontier() == 0 {
                break 'search false; // the forward closure is complete without a meet
            }
            let bwd = bwd();
            b.begin(db, bwd.words());
            b.add(v, bwd.start_mask(), &[], gov); // no meet: the loop above saw it
            while f.frontier() > 0 && b.frontier() > 0 {
                let met = if f.frontier() <= b.frontier() {
                    f.expand_level(db, fwd, true, |n| b.seen(n), stats, gov)
                } else {
                    b.expand_level(db, bwd, false, |n| f.seen(n), stats, gov)
                };
                if met != Some(false) {
                    break 'search met.is_some();
                }
            }
            false // one side's closure is complete without a meet
        };
        f.clear(|_, _| {});
        b.clear(|_, _| {});
        hit
    })
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
    /// Forward and reversed [`MaskSim`] tables of the mask sweeps (pinned
    /// pairs and images), each built the first time a sweep needs it.
    pair_fwd: Option<MaskSim>,
    pair_bwd: Option<MaskSim>,
    /// The visited-set bytes charged so far ([`visited_bytes`]): the
    /// cache's row searches are charged as if it owned their buffer.
    visited_charged: usize,
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
            visited_charged: 0,
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
        let nfa = oriented(&self.nfa, &self.rev, dir);
        let gov = self.gov.as_deref().unwrap_or(Governor::disabled());
        let bytes = visited_bytes(db, nfa);
        if self.visited_charged < bytes {
            gov.charge_mem(bytes);
            self.visited_charged = bytes;
        }
        let r = reach_row(db, nfa, key, dir, Some(&self.stats), gov);
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
        let (stats, gov) = (
            &self.stats,
            self.gov.as_deref().unwrap_or(Governor::disabled()),
        );
        with_scratch(|s, _| {
            let sweep = &mut s.fwd;
            sweep.begin(db, sim.words());
            for i in set.ones() {
                sweep.add(NodeId(i as u32), sim.start_mask(), &[], gov);
            }
            let forward = dir == Direction::Forward;
            let mut complete = true;
            while complete && sweep.frontier() > 0 {
                complete = sweep
                    .expand_level(db, sim, forward, |_| &[], stats, gov)
                    .is_some();
            }
            let mut out = complete.then(|| DenseBitSet::new(db.node_count()));
            sweep.clear(|node, seen| {
                if let Some(out) = &mut out {
                    if sim.any_final(seen) {
                        out.insert(node.index());
                    }
                }
            });
            out
        })
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
    use crate::governor::AbortReason;
    use crate::witness::{edge_path, edge_path_governed};
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::{Alphabet, GraphBuilder};
    use std::collections::HashSet;
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

    /// One cell of [`naive_bfs`]: node, state, the index of the cell it was
    /// pushed from, and the symbol read into it.
    type NaiveCell = (NodeId, StateId, usize, Option<Symbol>);

    /// The product BFS written out naively — a `HashSet` of visited cells
    /// and no shared scratch — in the kernels' visit order: every reachable
    /// cell from `(u, q₀)`, in the order it is pushed.
    fn naive_bfs(db: &GraphDb, nfa: &Nfa, u: NodeId, dir: Direction) -> Vec<NaiveCell> {
        let mut seen = HashSet::from([(u, nfa.start())]);
        let mut order = vec![(u, nfa.start(), 0, None)];
        let mut head = 0;
        while let Some(&(node, st, ..)) = order.get(head) {
            for &(l, t) in nfa.transitions(st) {
                let arcs: Vec<(Option<Symbol>, NodeId)> = match (l, dir) {
                    (Label::Eps, _) => vec![(None, node)],
                    (_, Direction::Forward) => {
                        db.out_edges(node).map(|(b, n)| (Some(b), n)).collect()
                    }
                    (_, Direction::Backward) => {
                        db.in_edges(node).map(|(b, n)| (Some(b), n)).collect()
                    }
                };
                for (sym, next) in arcs {
                    if sym.is_none_or(|b| l.reads(b)) && seen.insert((next, t)) {
                        order.push((next, t, head, sym));
                    }
                }
            }
            head += 1;
        }
        order
    }

    /// The row of `u`, from [`naive_bfs`].
    fn naive_closure(db: &GraphDb, nfa: &Nfa, u: NodeId, dir: Direction) -> Vec<NodeId> {
        let cells = naive_bfs(db, nfa, u, dir);
        let mut row: Vec<NodeId> = cells
            .iter()
            .filter(|c| nfa.is_final(c.1))
            .map(|c| c.0)
            .collect();
        row.sort_unstable();
        row.dedup();
        row
    }

    /// The path the forward BFS `cells` pops first at `(to, final)`.
    fn naive_path(cells: &[NaiveCell], nfa: &Nfa, to: NodeId) -> Option<Path> {
        let mut at = cells.iter().position(|c| c.0 == to && nfa.is_final(c.1))?;
        let mut steps = Vec::new();
        while at != 0 {
            let (node, _, parent, sym) = cells[at];
            steps.extend(sym.map(|a| (a, node)));
            at = parent;
        }
        let mut path = Path::trivial(cells[0].0);
        for (a, v) in steps.into_iter().rev() {
            path.push(a, v);
        }
        Some(path)
    }

    /// A random multigraph over `abc`, from a fixed xorshift stream.
    fn random_db(nodes: usize, arcs: usize, mut seed: u64) -> GraphDb {
        let mut next = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let mut b = GraphBuilder::new(Arc::new(Alphabet::from_chars("abc")));
        let ids: Vec<NodeId> = (0..nodes).map(|_| b.add_node()).collect();
        for _ in 0..arcs {
            let (u, a, v) = (ids[next(nodes)], Symbol(next(3) as u32), ids[next(nodes)]);
            b.add_edge(u, a, v);
        }
        b.freeze()
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
        let gov = Governor::disabled();
        for _ in 0..2 {
            for &n in &nodes {
                let reused = reach_set_governed(&db, &m, n, Direction::Forward, None, gov);
                assert_eq!(*reused, naive_closure(&db, &m, n, Direction::Forward));
            }
        }
    }

    #[test]
    fn one_scratch_serves_every_search_across_graph_sizes_and_aborts() {
        // Rows both ways, pinned pairs, images and witness paths on one
        // thread: a large graph, then a small one, then the large one
        // again, each search checked against the naive BFS.
        let (large, small) = (random_db(2_000, 5_000, 0x9e37), random_db(12, 30, 0x51));
        let (mut pair_tripped, mut path_tripped) = (false, false);
        for db in [&large, &small, &large] {
            let sample: Vec<NodeId> = db.nodes().step_by(db.node_count() / 12).collect();
            for pat in ["a(b|c)*", "(a|b)*c", "..", "c(a|b)*a"] {
                let m = nfa_of(db, pat);
                let rev = reverse_nfa(&m);
                let mut cache = ReachCache::new(m.clone());
                let mut set = DenseBitSet::new(db.node_count());
                let (mut post, mut pre) = (Vec::new(), Vec::new());
                for &u in &sample {
                    set.insert(u.index());
                    let cells = naive_bfs(db, &m, u, Direction::Forward);
                    let row = naive_closure(db, &m, u, Direction::Forward);
                    let back = naive_closure(db, &rev, u, Direction::Backward);
                    assert_eq!(*cache.targets(db, u), row, "{pat} row of {u:?}");
                    assert_eq!(*cache.sources(db, u), back, "{pat} sources of {u:?}");
                    post.extend(row.iter().copied());
                    pre.extend(back);
                    for &v in &sample {
                        let mut fresh = ReachCache::new(m.clone());
                        let hit = row.binary_search(&v).is_ok();
                        assert_eq!(fresh.connects_pair(db, u, v), hit, "{pat} {u:?}->{v:?}");
                        let path = edge_path(db, &m, u, v);
                        assert_eq!(path, naive_path(&cells, &m, v), "{pat} path {u:?}->{v:?}");
                        // Trip one long pair search and one long path
                        // search mid-way; every later search must agree.
                        if !pair_tripped && fresh.stats.states() > 3 {
                            let gov = Arc::new(Governor::unlimited().with_injection(3));
                            let mut tripped = ReachCache::new(m.clone());
                            tripped.govern(Some(gov.clone()));
                            assert!(!tripped.connects_pair(db, u, v) && gov.is_aborted());
                            assert!(tripped.pairs.is_empty());
                            pair_tripped = true;
                        }
                        let counting = Governor::unlimited();
                        edge_path_governed(db, &m, u, v, &counting);
                        if !path_tripped && counting.steps_taken() > 2 * CHECK_STRIDE as u64 {
                            let gov = Governor::unlimited().with_max_steps(100);
                            assert!(edge_path_governed(db, &m, u, v, &gov).is_none());
                            assert_eq!(gov.abort_reason(), Some(AbortReason::Fuel));
                            path_tripped = true;
                        }
                    }
                }
                for (dir, want) in [(Direction::Forward, post), (Direction::Backward, pre)] {
                    let mut want: Vec<usize> = want.into_iter().map(NodeId::index).collect();
                    want.sort_unstable();
                    want.dedup();
                    let got = cache.image(db, &set, dir).expect("ungoverned");
                    assert_eq!(got.ones().collect::<Vec<_>>(), want, "{pat} image {dir:?}");
                }
            }
        }
        assert!(pair_tripped && path_tripped, "both trips happened");
    }

    #[test]
    fn charges_depend_on_the_query_not_the_thread() {
        // The same governed searches, here after this thread searched a
        // larger graph and on another thread, are charged alike.
        let (db, nodes) = line_db(&"abc".repeat(333));
        assert_eq!(db.node_count(), 1_000);
        let m = nfa_of(&db, "(a|b|c)+");
        let visited = (db.node_count() * m.state_count()).div_ceil(8);
        let run = move || {
            // A first row under a ceiling below the visited set trips,
            // and its row is not memoized.
            let gov = Arc::new(Governor::unlimited().with_mem_limit(visited - 1));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            cache.targets(&db, nodes[0]);
            assert_eq!(gov.abort_reason(), Some(AbortReason::Memory));
            assert!(cache.fwd.is_empty(), "a tripped row is memoized");
            // Rows, a pinned pair, an image and a witness path, metered.
            let gov = Arc::new(Governor::unlimited().with_mem_limit(1 << 40));
            let mut cache = ReachCache::new(m.clone());
            cache.govern(Some(gov.clone()));
            let row = cache.targets(&db, nodes[0]);
            assert_eq!(row.len(), 999);
            let memo = row.len() * 4 + 48;
            assert_eq!(gov.mem_charged(), visited + memo, "the visited set once");
            cache.targets(&db, nodes[1]);
            let mut fresh = ReachCache::new(m.clone());
            fresh.govern(Some(gov.clone()));
            assert!(fresh.connects_pair(&db, nodes[10], nodes[20]));
            let mut set = DenseBitSet::new(db.node_count());
            set.insert(nodes[500].index());
            assert!(fresh.image(&db, &set, Direction::Backward).is_some());
            assert!(edge_path_governed(&db, &m, nodes[0], nodes[9], &gov).is_some());
            assert!(!gov.is_aborted());
            gov.mem_charged()
        };
        let big = random_db(3_000, 9_000, 0x2545);
        reach_set(
            &big,
            &nfa_of(&big, "(a|b|c)+"),
            NodeId(0),
            Direction::Forward,
            None,
        );
        let here = run();
        let there = std::thread::spawn(run).join().unwrap();
        assert_eq!(here, there);
    }

    #[test]
    fn pinned_check_on_a_large_graph_fits_a_small_ceiling_on_a_fresh_thread() {
        // 100k nodes, arcs `i -a-> i+1` and `i -b-> i+2`: a pinned check ten
        // nodes apart touches a few dozen nodes on both sweeps, and is
        // charged for those alone — far below 1 MiB, however large the
        // graph is or however cold the thread's scratch.
        std::thread::spawn(|| {
            let mut b = GraphBuilder::new(Arc::new(Alphabet::from_chars("ab")));
            let (a, bb) = (b.alphabet().sym("a"), b.alphabet().sym("b"));
            let nodes: Vec<NodeId> = (0..100_000).map(|_| b.add_node()).collect();
            for w in nodes.windows(3) {
                b.add_edge(w[0], a, w[1]);
                b.add_edge(w[0], bb, w[2]);
            }
            let db = b.freeze();
            let m = nfa_of(&db, "(a|b)+a");
            let gov = Arc::new(Governor::unlimited().with_mem_limit(1 << 20));
            let mut cache = ReachCache::new(m);
            cache.govern(Some(gov.clone()));
            assert!(cache.connects_pair(&db, nodes[50_000], nodes[50_010]));
            assert!(!cache.connects_pair(&db, nodes[99_999], nodes[50_000]));
            assert!(!gov.is_aborted(), "charged {} bytes", gov.mem_charged());
            assert!(
                gov.mem_charged() < 16 << 10,
                "charged {} bytes",
                gov.mem_charged()
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_search_that_panics_leaves_the_thread_a_clean_scratch() {
        let (db, nodes) = line_db("aabbaab");
        let m = nfa_of(&db, "a*b");
        let bwd = reverse_nfa(&m);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scratch(|s, _| {
                let gov = Governor::disabled();
                let dir = Direction::Forward;
                s.bfs
                    .run::<false>(&db, &m, nodes[0], dir, None, gov, |_| panic!("mid search"));
            });
        }));
        assert!(panicked.is_err());
        // Sources other than the one that panicked come first.
        for &u in nodes.iter().rev() {
            let row = naive_closure(&db, &m, u, Direction::Forward);
            assert_eq!(*reach_set(&db, &m, u, Direction::Forward, None), row);
            let back = naive_closure(&db, &bwd, u, Direction::Backward);
            assert_eq!(*reach_set(&db, &bwd, u, Direction::Backward, None), back);
            for &v in &nodes {
                let hit = row.binary_search(&v).is_ok();
                assert_eq!(ReachCache::new(m.clone()).connects_pair(&db, u, v), hit);
            }
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
        for fuel in 0..20u64 {
            let gov = Governor::unlimited().with_max_steps(fuel);
            let partial = reach_set_governed(&db, &m, nodes[0], Direction::Forward, None, &gov);
            assert!(
                ascending(&partial) && is_subset(&partial, &full),
                "fuel {fuel}: partial must under-approximate"
            );
            // The scratch invariant survives the abort: an ungoverned rerun
            // on the same thread's scratch still computes the full answer.
            let again = reach_set_governed(
                &db,
                &m,
                nodes[0],
                Direction::Forward,
                None,
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
                Some(AbortReason::Fuel),
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
