//! The graph-database multigraph `D = (V_D, E_D)`.
//!
//! Storage is split into two forms:
//!
//! - [`GraphBuilder`] — the bulk construction side. Nodes and arcs are
//!   appended freely (duplicate arcs are rejected, parallel arcs with
//!   distinct labels are allowed, per §2.2 of the paper).
//! - [`GraphDb`] — the query side, produced by [`GraphBuilder::freeze`].
//!
//! # Layered snapshot storage
//!
//! A `GraphDb` is a *layered* snapshot, LSM-style:
//!
//! - **Base CSR** — adjacency in CSR (compressed sparse row) form,
//!   label-sorted within each row, in both directions. All arcs of a node
//!   carrying a given label occupy one contiguous range.
//! - **Delta overlay** ([`DeltaOverlay`]) — a small mutable per-node,
//!   label-sorted adjacency overlay on top of the base, fed by
//!   [`GraphDb::append`] / [`GraphDb::append_batch`] /
//!   [`GraphDb::append_node`]. Streaming ingestion lands here without
//!   touching the base arrays.
//! - **Compaction** ([`GraphDb::compact`]) — merges the overlay into the
//!   base CSR *row by row*: untouched rows are copied wholesale, touched
//!   rows are two-pointer merged with their (already sorted) delta rows, so
//!   no re-sort of the whole edge list ever happens after the initial
//!   freeze. Compaction does not change the edge set, so it does not mint a
//!   new generation — caches bound to the snapshot stay valid.
//!
//! Row access ([`GraphDb::successors_with`] / [`GraphDb::predecessors_with`]
//! / [`GraphDb::out_edges`] / [`GraphDb::in_edges`]) returns an [`EdgeRun`]:
//! one contiguous base-CSR run chained with one contiguous delta run. On a
//! compacted database the delta side is empty and iteration degenerates to
//! the plain slice walk — the per-transition inner loop of every product
//! search in `cxrpq-core` pays only a predictable branch for the layering.
//!
//! # Generations
//!
//! Every snapshot carries a process-wide unique [`GraphDb::generation`] id
//! identifying its *edge-set content*: freezing mints one, and every
//! successful append mints a fresh one (compaction does not). The freeze-
//! time generation doubles as the database's [`GraphDb::lineage`]. Alongside
//! the global id the database tracks **per-label generations**
//! ([`GraphDb::label_generation`]) — the generation at which arcs of that
//! label last changed — and a bounded append history, so caches can ask
//! [`GraphDb::delta_since`] exactly which labels changed between a snapshot
//! they were filled at and the present one. `ReachCache` in `cxrpq-core`
//! uses this to keep memoized fills across appends that touch no label of
//! its automaton, instead of invalidating wholesale.

use crate::alphabet::{Alphabet, Symbol};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A node (vertex) of a graph database.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

static GENERATION: AtomicU64 = AtomicU64::new(1);

/// The mutable construction side of a graph database.
///
/// Append nodes and arcs, then call [`GraphBuilder::freeze`] to obtain the
/// immutable, CSR-indexed [`GraphDb`]. A frozen database can be thawed back
/// into a builder with [`GraphDb::to_builder`] (used by the rare callers
/// that extend a database after querying it).
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    alphabet: Arc<Alphabet>,
    edges: Vec<(NodeId, Symbol, NodeId)>,
    edge_set: HashSet<(NodeId, Symbol, NodeId)>,
    node_names: Vec<Option<String>>,
}

impl GraphBuilder {
    /// Creates an empty builder over `alphabet`.
    pub fn new(alphabet: Arc<Alphabet>) -> Self {
        Self {
            alphabet,
            edges: Vec::new(),
            edge_set: HashSet::new(),
            node_names: Vec::new(),
        }
    }

    /// The database alphabet Σ.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// A shareable handle to the database alphabet.
    pub fn alphabet_arc(&self) -> Arc<Alphabet> {
        Arc::clone(&self.alphabet)
    }

    /// Adds a fresh anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(None);
        id
    }

    /// Adds a fresh named node (names are for display/debugging only).
    pub fn add_named_node(&mut self, name: &str) -> NodeId {
        let id = self.add_node();
        self.node_names[id.index()] = Some(name.to_string());
        id
    }

    /// Adds the arc `(u, a, v)`. Returns `false` if it was already present.
    pub fn add_edge(&mut self, u: NodeId, a: Symbol, v: NodeId) -> bool {
        assert!(u.index() < self.node_names.len(), "unknown source node");
        assert!(v.index() < self.node_names.len(), "unknown target node");
        if !self.edge_set.insert((u, a, v)) {
            return false;
        }
        self.edges.push((u, a, v));
        true
    }

    /// Adds a path from `u` to `v` labelled by `word`, creating
    /// `|word| - 1` fresh intermediate nodes.
    ///
    /// This is the convention used throughout the paper's reductions, where
    /// "an arc labelled with `##`" stands for a length-2 path. An empty word
    /// is rejected (graph databases have no ε-arcs; length-0 paths exist
    /// implicitly on every node).
    pub fn add_word_path(&mut self, u: NodeId, word: &[Symbol], v: NodeId) {
        assert!(!word.is_empty(), "cannot add an ε-labelled arc");
        let mut cur = u;
        for (i, &a) in word.iter().enumerate() {
            let next = if i + 1 == word.len() {
                v
            } else {
                self.add_node()
            };
            self.add_edge(cur, a, next);
            cur = next;
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of distinct arcs added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable CSR-indexed database.
    ///
    /// Both adjacency directions are built with a counting sort over the
    /// edge list, then each row is sorted by `(label, neighbour)` so that
    /// per-`(node, label)` ranges are contiguous. Runs in
    /// `O(|V| + |E| log deg_max)`.
    pub fn freeze(self) -> GraphDb {
        let n = self.node_names.len();
        let m = self.edges.len();
        let mut label_counts: Vec<u32> = vec![0; self.alphabet.len()];
        for &(_, a, _) in &self.edges {
            if a.index() >= label_counts.len() {
                label_counts.resize(a.index() + 1, 0);
            }
            label_counts[a.index()] += 1;
        }
        let build = |key: fn(&(NodeId, Symbol, NodeId)) -> NodeId,
                     val: fn(&(NodeId, Symbol, NodeId)) -> (Symbol, NodeId)| {
            let mut off: Vec<u32> = vec![0; n + 1];
            for e in &self.edges {
                off[key(e).index() + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            let mut cursor = off.clone();
            let mut adj: Vec<(Symbol, NodeId)> = vec![(Symbol(0), NodeId(0)); m];
            for e in &self.edges {
                let k = key(e).index();
                adj[cursor[k] as usize] = val(e);
                cursor[k] += 1;
            }
            for i in 0..n {
                adj[off[i] as usize..off[i + 1] as usize].sort_unstable();
            }
            (off, adj)
        };
        let (out_off, out_adj) = build(|e| e.0, |e| (e.1, e.2));
        let (in_off, in_adj) = build(|e| e.2, |e| (e.1, e.0));
        let generation = GENERATION.fetch_add(1, Ordering::Relaxed);
        GraphDb {
            alphabet: self.alphabet,
            generation,
            lineage: generation,
            out_off,
            out_adj,
            in_off,
            in_adj,
            label_counts,
            label_generations: Vec::new(),
            node_names: self.node_names,
            delta: DeltaOverlay::default(),
            appends: Vec::new(),
            history_complete: true,
        }
    }
}

/// The mutable delta layer of a [`GraphDb`]: per-node adjacency rows (both
/// directions) holding the arcs appended since the last freeze/compaction,
/// each row sorted by `(label, neighbour)` exactly like a base CSR row —
/// so per-`(node, label)` delta runs are contiguous and merge with base
/// runs by simple chaining.
///
/// Rows are keyed sparsely by node id: the overlay's memory footprint and
/// [`GraphDb::compact`]'s merge work are both proportional to the set of
/// *touched* rows, never to `|V|`.
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay {
    out: std::collections::HashMap<u32, Vec<(Symbol, NodeId)>>,
    inn: std::collections::HashMap<u32, Vec<(Symbol, NodeId)>>,
    len: usize,
}

impl DeltaOverlay {
    /// Number of arcs currently in the overlay.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the overlay holds no arcs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of adjacency rows touched (summed over both directions).
    pub fn touched_rows(&self) -> usize {
        self.out.len() + self.inn.len()
    }

    /// Inserts into one direction's row, keeping it `(label, neighbour)`
    /// sorted. Returns `false` when the arc was already present.
    fn insert(
        rows: &mut std::collections::HashMap<u32, Vec<(Symbol, NodeId)>>,
        key: NodeId,
        val: (Symbol, NodeId),
    ) -> bool {
        let row = rows.entry(key.0).or_default();
        match row.binary_search(&val) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(pos, val);
                debug_assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "delta row must stay strictly (label, neighbour)-sorted"
                );
                true
            }
        }
    }
}

/// One merged adjacency run: a contiguous base-CSR run chained with the
/// matching contiguous delta-overlay run. This is what every row accessor
/// of [`GraphDb`] returns instead of a bare slice.
///
/// `EdgeRun` is itself the iterator (it is `Copy`; iterate it directly or
/// via [`IntoIterator`]), yielding `(Symbol, NodeId)` pairs — base arcs
/// first, then delta arcs. Within each layer pairs are `(label, neighbour)`
/// sorted; across the whole run they are *not* globally sorted (the layers
/// are concatenated, not merged), which no product search relies on. On a
/// compacted database the delta side is empty and iteration is exactly the
/// old slice walk.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeRun<'a> {
    base: &'a [(Symbol, NodeId)],
    delta: &'a [(Symbol, NodeId)],
}

impl<'a> EdgeRun<'a> {
    #[inline]
    fn new(base: &'a [(Symbol, NodeId)], delta: &'a [(Symbol, NodeId)]) -> Self {
        Self { base, delta }
    }

    /// Total number of arcs in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// Whether the run holds no arcs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.delta.is_empty()
    }

    /// Random access (base arcs first, then delta arcs) — the synchronized
    /// search's odometer indexes runs directly.
    #[inline]
    pub fn get(&self, i: usize) -> (Symbol, NodeId) {
        if i < self.base.len() {
            self.base[i]
        } else {
            self.delta[i - self.base.len()]
        }
    }

    /// Membership test by binary search of both layers.
    #[inline]
    pub fn contains(&self, pair: (Symbol, NodeId)) -> bool {
        self.base.binary_search(&pair).is_ok() || self.delta.binary_search(&pair).is_ok()
    }

    /// The smallest pair `≥ pair` in `(label, neighbour)` order, by binary
    /// search of both layers (the minimum of the two per-layer successors).
    /// On a single-label run this seeks through neighbours in ascending
    /// `NodeId` order — the sorted-set view a leapfrog intersection needs.
    #[inline]
    pub fn seek_ge(&self, pair: (Symbol, NodeId)) -> Option<(Symbol, NodeId)> {
        let b = self.base[self.base.partition_point(|&e| e < pair)..]
            .first()
            .copied();
        let d = self.delta[self.delta.partition_point(|&e| e < pair)..]
            .first()
            .copied();
        match (b, d) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// The run materialized as a vector (tests and diagnostics).
    pub fn to_vec(self) -> Vec<(Symbol, NodeId)> {
        self.collect()
    }
}

impl Iterator for EdgeRun<'_> {
    type Item = (Symbol, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(Symbol, NodeId)> {
        if let Some((&e, rest)) = self.base.split_first() {
            self.base = rest;
            Some(e)
        } else if let Some((&e, rest)) = self.delta.split_first() {
            self.delta = rest;
            Some(e)
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for EdgeRun<'_> {}

/// A layered, CSR-indexed, directed, edge-labelled multigraph over an
/// interned alphabet: an immutable label-sorted base CSR plus a small
/// mutable [`DeltaOverlay`] (see the module docs).
///
/// Nodes are dense `u32` ids; edges are `(source, symbol, target)` triples.
/// Both forward and backward adjacency are maintained so that product
/// searches can run in either direction; each adjacency row (base and
/// delta) is sorted by `(label, neighbour)`.
#[derive(Clone, Debug)]
pub struct GraphDb {
    alphabet: Arc<Alphabet>,
    generation: u64,
    /// The freeze-time generation: shared by every snapshot descended from
    /// the same freeze via appends, never by separately frozen databases.
    lineage: u64,
    out_off: Vec<u32>,
    out_adj: Vec<(Symbol, NodeId)>,
    in_off: Vec<u32>,
    in_adj: Vec<(Symbol, NodeId)>,
    label_counts: Vec<u32>,
    /// Per-label generation ids: `label_generations[a]` is the generation
    /// minted by the last append that added an `a`-labelled arc (absent or
    /// 0 = unchanged since freeze, i.e. effectively `lineage`).
    label_generations: Vec<u64>,
    node_names: Vec<Option<String>>,
    delta: DeltaOverlay,
    /// Append history since freeze: one `(generation, changed labels)`
    /// entry per minted generation, ascending, bounded by
    /// [`APPEND_HISTORY_CAP`]. [`GraphDb::delta_since`] answers from it.
    appends: Vec<(u64, Vec<Symbol>)>,
    /// Whether `appends` still reaches back to the freeze (false once the
    /// cap truncated it — `delta_since(lineage)` then answers `None`).
    history_complete: bool,
}

/// Append-history entries retained before the oldest are dropped; snapshots
/// older than the retained window invalidate caches wholesale (the sound
/// fallback). Generous against any realistic cache-refresh cadence.
const APPEND_HISTORY_CAP: usize = 256;

/// The contiguous `(label, neighbour)` range of one label within a
/// label-sorted adjacency row.
#[inline]
fn label_range(row: &[(Symbol, NodeId)], a: Symbol) -> &[(Symbol, NodeId)] {
    let lo = row.partition_point(|&(s, _)| s < a);
    let hi = lo + row[lo..].partition_point(|&(s, _)| s == a);
    &row[lo..hi]
}

/// Iterator over the maximal equal-label runs of a layered adjacency row,
/// yielding `(label, merged run)` pairs in ascending label order — each run
/// chains the label's base-CSR range with its delta range. See
/// [`GraphDb::out_label_runs`].
pub struct LabelRuns<'a> {
    base: &'a [(Symbol, NodeId)],
    delta: &'a [(Symbol, NodeId)],
}

impl<'a> Iterator for LabelRuns<'a> {
    type Item = (Symbol, EdgeRun<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let a = match (self.base.first(), self.delta.first()) {
            (Some(&(b, _)), Some(&(d, _))) => b.min(d),
            (Some(&(b, _)), None) => b,
            (None, Some(&(d, _))) => d,
            (None, None) => return None,
        };
        // Both layers are label-sorted and `a` is the smaller head label,
        // so each layer's `a`-run (possibly empty) is a prefix.
        let blen = self.base.partition_point(|&(s, _)| s == a);
        let (brun, brest) = self.base.split_at(blen);
        self.base = brest;
        let dlen = self.delta.partition_point(|&(s, _)| s == a);
        let (drun, drest) = self.delta.split_at(dlen);
        self.delta = drest;
        Some((a, EdgeRun::new(brun, drun)))
    }
}

impl GraphDb {
    /// The database alphabet Σ.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// A shareable handle to the database alphabet.
    pub fn alphabet_arc(&self) -> Arc<Alphabet> {
        Arc::clone(&self.alphabet)
    }

    /// A process-wide unique id identifying this snapshot's edge-set
    /// content: minted at freeze time and re-minted by every successful
    /// append ([`GraphDb::compact`] keeps it — compaction changes layout,
    /// not content).
    ///
    /// Two databases frozen separately never share a generation (clones
    /// do — they are the same content until one of them is appended to).
    /// Caches keyed by node ids bind to this id to detect being replayed
    /// against different content.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The freeze-time generation, shared by every snapshot descended from
    /// the same freeze via appends — the coarse "same database?" test
    /// underneath the per-label [`GraphDb::delta_since`] refinement.
    #[inline]
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The generation at which arcs labelled `a` last changed: the lineage
    /// (freeze) generation until some append adds an `a`-arc, then that
    /// append's generation.
    #[inline]
    pub fn label_generation(&self, a: Symbol) -> u64 {
        match self.label_generations.get(a.index()) {
            Some(&g) if g != 0 => g,
            _ => self.lineage,
        }
    }

    /// The labels whose arc sets changed after the snapshot `generation`,
    /// in ascending order — or `None` when `generation` is not a known
    /// ancestor of this snapshot (a different lineage, a divergently
    /// appended clone, or history truncated past it), in which case callers
    /// must assume everything changed.
    ///
    /// `Some(vec![])` means the edge content is identical (only node
    /// additions, or no change at all): label-keyed caches may keep
    /// everything.
    pub fn delta_since(&self, generation: u64) -> Option<Vec<Symbol>> {
        if generation == self.generation {
            return Some(Vec::new());
        }
        let start = if generation == self.lineage {
            if !self.history_complete {
                return None;
            }
            0
        } else {
            match self.appends.binary_search_by_key(&generation, |e| e.0) {
                Ok(i) => i + 1,
                Err(_) => return None,
            }
        };
        let mut changed: Vec<Symbol> = Vec::new();
        for (_, labels) in &self.appends[start..] {
            for &l in labels {
                if !changed.contains(&l) {
                    changed.push(l);
                }
            }
        }
        changed.sort_unstable();
        Some(changed)
    }

    /// Thaws the database back into a builder holding the same nodes and
    /// arcs (the resulting builder freezes into a *new* generation).
    pub fn to_builder(&self) -> GraphBuilder {
        let mut b = GraphBuilder::new(self.alphabet_arc());
        b.node_names = self.node_names.clone();
        for (u, a, v) in self.edges() {
            b.add_edge(u, a, v);
        }
        b
    }

    /// The display name of a node (its id when unnamed).
    pub fn node_name(&self, v: NodeId) -> String {
        match &self.node_names[v.index()] {
            Some(n) => n.clone(),
            None => format!("v{}", v.0),
        }
    }

    /// Number of nodes |V_D|.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of arcs |E_D| (base CSR plus delta overlay).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_adj.len() + self.delta.len
    }

    /// Number of arcs in the frozen base CSR alone.
    #[inline]
    pub fn base_edge_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of arcs in the delta overlay alone (0 on a compacted
    /// database).
    #[inline]
    pub fn delta_edge_count(&self) -> usize {
        self.delta.len
    }

    /// Whether the delta overlay is empty (every arc lives in the base
    /// CSR).
    #[inline]
    pub fn is_compacted(&self) -> bool {
        self.delta.is_empty()
    }

    /// Number of arcs labelled `a` — maintained incrementally across
    /// appends, so plan-time statistics stay delta-aware for free.
    #[inline]
    pub fn label_edge_count(&self, a: Symbol) -> usize {
        self.label_counts.get(a.index()).copied().unwrap_or(0) as usize
    }

    /// Per-label arc counts (base + delta), indexed by [`Symbol::index`].
    pub fn label_edge_counts(&self) -> &[u32] {
        &self.label_counts
    }

    /// Size measure |D| = |V_D| + |E_D| used for data-complexity sweeps.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// `u`'s base-CSR outgoing row (no delta).
    #[inline]
    fn base_out_row(&self, u: NodeId) -> &[(Symbol, NodeId)] {
        &self.out_adj[self.out_off[u.index()] as usize..self.out_off[u.index() + 1] as usize]
    }

    /// `v`'s base-CSR incoming row (no delta).
    #[inline]
    fn base_in_row(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        &self.in_adj[self.in_off[v.index()] as usize..self.in_off[v.index() + 1] as usize]
    }

    /// `u`'s delta outgoing row (empty unless appends touched `u`).
    #[inline]
    fn delta_out_row(&self, u: NodeId) -> &[(Symbol, NodeId)] {
        if self.delta.len == 0 {
            return &[];
        }
        self.delta.out.get(&u.0).map_or(&[][..], Vec::as_slice)
    }

    /// `v`'s delta incoming row (empty unless appends touched `v`).
    #[inline]
    fn delta_in_row(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        if self.delta.len == 0 {
            return &[];
        }
        self.delta.inn.get(&v.0).map_or(&[][..], Vec::as_slice)
    }

    /// Outgoing arcs of `u` as `(label, target)` pairs: the base run
    /// chained with the delta run, each `(label, target)`-sorted.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> EdgeRun<'_> {
        EdgeRun::new(self.base_out_row(u), self.delta_out_row(u))
    }

    /// Incoming arcs of `v` as `(label, source)` pairs: the base run
    /// chained with the delta run, each `(label, source)`-sorted.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> EdgeRun<'_> {
        EdgeRun::new(self.base_in_row(v), self.delta_in_row(v))
    }

    /// Arcs `u -a-> ·` as a merged run: the contiguous `a`-range of the
    /// base CSR row chained with the contiguous `a`-range of the delta row
    /// (every pair's symbol equals `a`); no per-call filtering.
    #[inline]
    pub fn successors_with(&self, u: NodeId, a: Symbol) -> EdgeRun<'_> {
        EdgeRun::new(
            label_range(self.base_out_row(u), a),
            label_range(self.delta_out_row(u), a),
        )
    }

    /// Arcs `· -a-> v` as a merged run over the reverse rows.
    #[inline]
    pub fn predecessors_with(&self, v: NodeId, a: Symbol) -> EdgeRun<'_> {
        EdgeRun::new(
            label_range(self.base_in_row(v), a),
            label_range(self.delta_in_row(v), a),
        )
    }

    /// The maximal equal-label runs of `u`'s outgoing row — one
    /// `(label, merged run)` pair per distinct outgoing label, ascending.
    pub fn out_label_runs(&self, u: NodeId) -> LabelRuns<'_> {
        LabelRuns {
            base: self.base_out_row(u),
            delta: self.delta_out_row(u),
        }
    }

    /// The maximal equal-label runs of `v`'s incoming row.
    pub fn in_label_runs(&self, v: NodeId) -> LabelRuns<'_> {
        LabelRuns {
            base: self.base_in_row(v),
            delta: self.delta_in_row(v),
        }
    }

    /// Whether the arc `(u, a, v)` exists (binary search of the base CSR
    /// row, then the delta row).
    pub fn has_edge(&self, u: NodeId, a: Symbol, v: NodeId) -> bool {
        self.out_edges(u).contains((a, v))
    }

    /// All arcs, grouped by source; within each source the base arcs come
    /// label-sorted first, then any delta arcs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Symbol, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).map(move |(a, v)| (u, a, v)))
    }

    /// Appends the arc `(u, a, v)` to the delta overlay, minting a fresh
    /// generation. Returns `false` (and mints nothing) if the arc was
    /// already present. See [`GraphDb::append_batch`] for bulk ingestion.
    pub fn append(&mut self, u: NodeId, a: Symbol, v: NodeId) -> bool {
        self.append_batch(&[(u, a, v)]) == 1
    }

    /// Appends a batch of arcs to the delta overlay, minting ONE fresh
    /// generation for the whole batch (none if every arc was a duplicate).
    /// Returns the number of arcs actually added.
    ///
    /// Per arc: `O(log)` duplicate check against both layers plus a sorted
    /// insert into the touched delta rows — no base CSR traffic at all.
    /// Call [`GraphDb::compact`] once the overlay has grown past the point
    /// where merged iteration hurts (measured in `BENCH_streaming.json`).
    pub fn append_batch(&mut self, batch: &[(NodeId, Symbol, NodeId)]) -> usize {
        let mut added = 0usize;
        let mut labels: Vec<Symbol> = Vec::new();
        for &(u, a, v) in batch {
            assert!(u.index() < self.node_names.len(), "unknown source node");
            assert!(v.index() < self.node_names.len(), "unknown target node");
            if self.has_edge(u, a, v) {
                continue;
            }
            DeltaOverlay::insert(&mut self.delta.out, u, (a, v));
            DeltaOverlay::insert(&mut self.delta.inn, v, (a, u));
            self.delta.len += 1;
            if a.index() >= self.label_counts.len() {
                self.label_counts.resize(a.index() + 1, 0);
            }
            self.label_counts[a.index()] += 1;
            if !labels.contains(&a) {
                labels.push(a);
            }
            added += 1;
        }
        if added > 0 {
            labels.sort_unstable();
            let gen = self.mint_generation(labels.clone());
            for a in labels {
                if a.index() >= self.label_generations.len() {
                    self.label_generations.resize(a.index() + 1, 0);
                }
                self.label_generations[a.index()] = gen;
            }
        }
        added
    }

    /// Adds a fresh anonymous node to the live snapshot (its adjacency
    /// rows start empty). Mints a fresh generation with an empty change
    /// set — label-keyed caches survive it.
    pub fn append_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(None);
        let out_end = *self.out_off.last().expect("offsets nonempty");
        self.out_off.push(out_end);
        let in_end = *self.in_off.last().expect("offsets nonempty");
        self.in_off.push(in_end);
        self.mint_generation(Vec::new());
        id
    }

    /// [`GraphDb::append_node`] with a display name.
    pub fn append_named_node(&mut self, name: &str) -> NodeId {
        let id = self.append_node();
        self.node_names[id.index()] = Some(name.to_string());
        id
    }

    /// Mints and installs a fresh generation recording `labels` as changed.
    fn mint_generation(&mut self, labels: Vec<Symbol>) -> u64 {
        let gen = GENERATION.fetch_add(1, Ordering::Relaxed);
        self.generation = gen;
        self.appends.push((gen, labels));
        if self.appends.len() > APPEND_HISTORY_CAP {
            let excess = self.appends.len() - APPEND_HISTORY_CAP;
            self.appends.drain(..excess);
            self.history_complete = false;
        }
        gen
    }

    /// Merges the delta overlay into the base CSR, re-freezing only the
    /// touched rows: untouched rows are copied wholesale, touched rows are
    /// two-pointer merged with their sorted delta rows (no re-sort). The
    /// edge set is unchanged, so the generation is kept and bound caches
    /// stay valid; [`GraphDb::delta_since`] keeps answering for the whole
    /// retained append history.
    pub fn compact(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta);
        let n = self.node_names.len();
        merge_side(n, &mut self.out_off, &mut self.out_adj, &delta.out);
        merge_side(n, &mut self.in_off, &mut self.in_adj, &delta.inn);
        debug_assert!(
            self.delta.is_empty() && self.delta.touched_rows() == 0,
            "compact must leave no touched delta rows behind"
        );
        debug_assert_eq!(
            self.out_adj.len(),
            self.in_adj.len(),
            "both directions must hold the same arc multiset after compaction"
        );
    }

    /// Checks whether there is a path from `u` to `v` labelled exactly `word`.
    ///
    /// Runs a breadth-first frontier scan over `word` (length-0 paths match
    /// the empty word on `u == v`, per §2.2).
    pub fn has_path_labelled(&self, u: NodeId, word: &[Symbol], v: NodeId) -> bool {
        // One bitset dedups every frontier: before each step the previous
        // frontier's bits are removed (O(|frontier|)), so only the initial
        // zeroing touches all |V| bits.
        let mut seen = crate::bitset::DenseBitSet::new(self.node_count());
        let mut nodes = vec![u];
        seen.insert(u.index());
        for &a in word {
            for &n in &nodes {
                seen.remove(n.index());
            }
            let mut next_nodes = Vec::new();
            for &n in &nodes {
                for (_, t) in self.successors_with(n, a) {
                    if seen.insert(t.index()) {
                        next_nodes.push(t);
                    }
                }
            }
            if next_nodes.is_empty() {
                return false;
            }
            nodes = next_nodes;
        }
        seen.contains(v.index())
    }

    /// Plain (label-oblivious) reachability from `u` to `v`.
    pub fn reachable(&self, u: NodeId, v: NodeId) -> bool {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![u];
        seen[u.index()] = true;
        while let Some(n) = stack.pop() {
            if n == v {
                return true;
            }
            for (_, t) in self.out_edges(n) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        false
    }
}

/// Merges one direction's delta rows into its base CSR arrays: untouched
/// rows are copied wholesale, touched rows two-pointer merged (both layers
/// are `(label, neighbour)`-sorted, so the result is too).
fn merge_side(
    n: usize,
    off: &mut Vec<u32>,
    adj: &mut Vec<(Symbol, NodeId)>,
    delta_rows: &std::collections::HashMap<u32, Vec<(Symbol, NodeId)>>,
) {
    let extra: usize = delta_rows.values().map(Vec::len).sum();
    if extra == 0 {
        return;
    }
    let mut new_adj: Vec<(Symbol, NodeId)> = Vec::with_capacity(adj.len() + extra);
    let mut new_off: Vec<u32> = Vec::with_capacity(n + 1);
    new_off.push(0);
    for i in 0..n {
        let base = &adj[off[i] as usize..off[i + 1] as usize];
        debug_assert!(
            base.windows(2).all(|w| w[0] < w[1]),
            "base CSR row must be strictly (label, neighbour)-sorted"
        );
        let row_start = new_adj.len();
        match delta_rows.get(&(i as u32)) {
            None => new_adj.extend_from_slice(base),
            Some(d) => {
                debug_assert!(
                    d.windows(2).all(|w| w[0] < w[1]),
                    "delta row must be strictly (label, neighbour)-sorted"
                );
                debug_assert!(
                    d.iter().all(|v| base.binary_search(v).is_err()),
                    "delta row must be disjoint from its base row"
                );
                let (mut bi, mut di) = (0usize, 0usize);
                while bi < base.len() && di < d.len() {
                    if base[bi] <= d[di] {
                        new_adj.push(base[bi]);
                        bi += 1;
                    } else {
                        new_adj.push(d[di]);
                        di += 1;
                    }
                }
                new_adj.extend_from_slice(&base[bi..]);
                new_adj.extend_from_slice(&d[di..]);
            }
        }
        debug_assert!(
            new_adj[row_start..].windows(2).all(|w| w[0] < w[1]),
            "merged row must come out strictly (label, neighbour)-sorted"
        );
        new_off.push(new_adj.len() as u32);
    }
    *off = new_off;
    *adj = new_adj;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_builder() -> GraphBuilder {
        GraphBuilder::new(Arc::new(Alphabet::from_chars("abc")))
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut b = abc_builder();
        let a = b.alphabet().sym("a");
        let u = b.add_node();
        let v = b.add_node();
        assert!(b.add_edge(u, a, v));
        assert!(!b.add_edge(u, a, v), "duplicate arc rejected");
        let d = b.freeze();
        assert_eq!(d.node_count(), 2);
        assert_eq!(d.edge_count(), 1);
        assert!(d.has_edge(u, a, v));
        assert!(!d.has_edge(v, a, u));
    }

    #[test]
    fn parallel_edges_with_distinct_labels() {
        let mut bld = abc_builder();
        let (a, b) = (bld.alphabet().sym("a"), bld.alphabet().sym("b"));
        let u = bld.add_node();
        let v = bld.add_node();
        assert!(bld.add_edge(u, a, v));
        assert!(bld.add_edge(u, b, v));
        let d = bld.freeze();
        assert_eq!(d.edge_count(), 2);
        assert_eq!(d.successors_with(u, a).to_vec(), vec![(a, v)]);
        assert_eq!(d.label_edge_count(a), 1);
        assert_eq!(d.label_edge_count(b), 1);
    }

    #[test]
    fn word_path_creates_intermediates() {
        let mut b = abc_builder();
        let w = b.alphabet().parse_word("abc").unwrap();
        let u = b.add_node();
        let v = b.add_node();
        b.add_word_path(u, &w, v);
        let d = b.freeze();
        assert_eq!(d.node_count(), 4); // u, v + 2 intermediates
        assert!(d.has_path_labelled(u, &w, v));
        assert!(!d.has_path_labelled(u, &w[..2], v));
    }

    #[test]
    fn empty_word_path_matches_only_self() {
        let mut b = abc_builder();
        let u = b.add_node();
        let v = b.add_node();
        let d = b.freeze();
        assert!(d.has_path_labelled(u, &[], u));
        assert!(!d.has_path_labelled(u, &[], v));
    }

    #[test]
    fn reachable_follows_any_labels() {
        let mut bld = abc_builder();
        let (a, b) = (bld.alphabet().sym("a"), bld.alphabet().sym("b"));
        let u = bld.add_node();
        let m = bld.add_node();
        let v = bld.add_node();
        let w = bld.add_node();
        bld.add_edge(u, a, m);
        bld.add_edge(m, b, v);
        let d = bld.freeze();
        assert!(d.reachable(u, v));
        assert!(!d.reachable(u, w));
        assert!(d.reachable(u, u));
    }

    #[test]
    fn seek_ge_over_base_delta_and_straddling_runs() {
        let mut bld = abc_builder();
        let (a, b) = (bld.alphabet().sym("a"), bld.alphabet().sym("b"));
        let base = bld.add_node(); // 0: base-layer arcs only
        let fresh = bld.add_node(); // 1: delta-layer arcs only
        let mixed = bld.add_node(); // 2: arcs in both layers
        for _ in 0..8 {
            bld.add_node(); // targets 3..=10
        }
        for t in [4, 6, 8] {
            bld.add_edge(base, a, NodeId(t));
            bld.add_edge(mixed, a, NodeId(t));
        }
        let mut d = bld.freeze();
        for (s, t) in [(fresh, 5), (fresh, 7), (mixed, 5), (mixed, 9)] {
            assert!(d.append(s, a, NodeId(t)));
        }

        let base_only = d.successors_with(base, a); // {4, 6, 8}, all base
        assert_eq!(base_only.seek_ge((a, NodeId(0))), Some((a, NodeId(4))));
        assert_eq!(base_only.seek_ge((a, NodeId(5))), Some((a, NodeId(6))));
        assert_eq!(base_only.seek_ge((a, NodeId(8))), Some((a, NodeId(8))));
        assert_eq!(base_only.seek_ge((a, NodeId(9))), None);
        assert!(base_only.contains((a, NodeId(6))));
        assert!(!base_only.contains((a, NodeId(5))));

        let delta_only = d.successors_with(fresh, a); // {5, 7}, all delta
        assert_eq!(delta_only.seek_ge((a, NodeId(0))), Some((a, NodeId(5))));
        assert_eq!(delta_only.seek_ge((a, NodeId(6))), Some((a, NodeId(7))));
        assert_eq!(delta_only.seek_ge((a, NodeId(8))), None);
        assert!(delta_only.contains((a, NodeId(7))));

        // Straddling: {4, 6, 8} base ∪ {5, 9} delta — the successor is the
        // minimum across both layers, whichever holds it.
        let both = d.successors_with(mixed, a);
        assert_eq!(both.seek_ge((a, NodeId(0))), Some((a, NodeId(4)))); // base
        assert_eq!(both.seek_ge((a, NodeId(5))), Some((a, NodeId(5)))); // delta
        assert_eq!(both.seek_ge((a, NodeId(7))), Some((a, NodeId(8)))); // base
        assert_eq!(both.seek_ge((a, NodeId(9))), Some((a, NodeId(9)))); // delta
        assert_eq!(both.seek_ge((a, NodeId(10))), None);
        assert!(both.contains((a, NodeId(9))) && both.contains((a, NodeId(8))));
        // An empty run seeks to nothing.
        assert_eq!(d.successors_with(base, b).seek_ge((b, NodeId(0))), None);
        // Compacting merges the layers without changing the answers.
        d.compact();
        let merged = d.successors_with(mixed, a);
        assert_eq!(merged.seek_ge((a, NodeId(5))), Some((a, NodeId(5))));
        assert_eq!(merged.seek_ge((a, NodeId(10))), None);
    }

    #[test]
    fn in_edges_mirror_out_edges() {
        let mut b = abc_builder();
        let a = b.alphabet().sym("a");
        let u = b.add_node();
        let v = b.add_node();
        b.add_edge(u, a, v);
        let d = b.freeze();
        assert_eq!(d.in_edges(v).to_vec(), vec![(a, u)]);
        assert_eq!(d.out_edges(u).to_vec(), vec![(a, v)]);
        assert_eq!(d.predecessors_with(v, a).to_vec(), vec![(a, u)]);
    }

    #[test]
    fn named_nodes_display() {
        let mut b = abc_builder();
        let s = b.add_named_node("s");
        let t = b.add_node();
        let d = b.freeze();
        assert_eq!(d.node_name(s), "s");
        assert_eq!(d.node_name(t), "v1");
    }

    #[test]
    fn rows_are_label_sorted_and_ranges_contiguous() {
        let mut bld = abc_builder();
        let (a, b, c) = (
            bld.alphabet().sym("a"),
            bld.alphabet().sym("b"),
            bld.alphabet().sym("c"),
        );
        let u = bld.add_node();
        let xs: Vec<NodeId> = (0..4).map(|_| bld.add_node()).collect();
        // Insert out of label order on purpose.
        bld.add_edge(u, c, xs[0]);
        bld.add_edge(u, a, xs[1]);
        bld.add_edge(u, b, xs[2]);
        bld.add_edge(u, a, xs[3]);
        let d = bld.freeze();
        let row = d.out_edges(u).to_vec();
        assert!(row.windows(2).all(|w| w[0] <= w[1]), "row sorted");
        assert_eq!(d.successors_with(u, a).len(), 2);
        assert_eq!(d.successors_with(u, b).to_vec(), vec![(b, xs[2])]);
        let runs: Vec<(Symbol, usize)> = d.out_label_runs(u).map(|(s, r)| (s, r.len())).collect();
        assert_eq!(runs, vec![(a, 2), (b, 1), (c, 1)]);
    }

    #[test]
    fn generations_are_distinct_and_thaw_extends() {
        let mut b = abc_builder();
        let a = b.alphabet().sym("a");
        let u = b.add_node();
        let v = b.add_node();
        b.add_edge(u, a, v);
        let d1 = b.freeze();
        let d2 = d1.clone();
        assert_eq!(d1.generation(), d2.generation(), "clones share content");
        let mut t = d1.to_builder();
        let w = t.add_node();
        t.add_edge(v, a, w);
        let d3 = t.freeze();
        assert_ne!(d1.generation(), d3.generation());
        assert_eq!(d3.edge_count(), 2);
        assert!(d3.has_edge(u, a, v));
        assert!(d3.has_edge(v, a, w));
        assert_eq!(d3.node_name(u), d1.node_name(u));
    }

    /// a-line over three nodes frozen, then appends on top.
    fn line3() -> (GraphDb, Symbol, Symbol, [NodeId; 3]) {
        let mut bld = abc_builder();
        let (a, b) = (bld.alphabet().sym("a"), bld.alphabet().sym("b"));
        let n0 = bld.add_node();
        let n1 = bld.add_node();
        let n2 = bld.add_node();
        bld.add_edge(n0, a, n1);
        bld.add_edge(n1, a, n2);
        (bld.freeze(), a, b, [n0, n1, n2])
    }

    #[test]
    fn append_lands_in_merged_runs_both_directions() {
        let (mut d, a, b, [n0, n1, n2]) = line3();
        let g0 = d.generation();
        assert!(d.append(n0, b, n2));
        assert!(!d.append(n0, b, n2), "duplicate append rejected");
        assert!(!d.append(n0, a, n1), "base duplicate rejected too");
        assert_ne!(d.generation(), g0, "append mints a generation");
        assert_eq!(d.lineage(), g0, "lineage sticks to the freeze");
        assert_eq!(d.edge_count(), 3);
        assert_eq!(d.base_edge_count(), 2);
        assert_eq!(d.delta_edge_count(), 1);
        assert!(!d.is_compacted());
        assert_eq!(d.label_edge_count(b), 1, "counts are delta-aware");
        assert!(d.has_edge(n0, b, n2));
        assert_eq!(d.successors_with(n0, b).to_vec(), vec![(b, n2)]);
        assert_eq!(d.predecessors_with(n2, b).to_vec(), vec![(b, n0)]);
        assert_eq!(d.out_edges(n0).to_vec(), vec![(a, n1), (b, n2)]);
        assert_eq!(d.in_edges(n2).to_vec(), vec![(a, n1), (b, n0)]);
        // Merged label runs stay ascending with per-label merged ranges.
        let runs: Vec<(Symbol, Vec<(Symbol, NodeId)>)> =
            d.out_label_runs(n0).map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(runs, vec![(a, vec![(a, n1)]), (b, vec![(b, n2)])]);
        // Paths can cross layer boundaries.
        assert!(d.has_path_labelled(n0, &[b], n2));
        assert!(d.reachable(n0, n2));
    }

    #[test]
    fn append_batch_mints_one_generation_and_merges_label_runs() {
        let (mut d, a, b, [n0, n1, n2]) = line3();
        let g0 = d.generation();
        let added = d.append_batch(&[(n0, a, n2), (n0, b, n1), (n0, a, n1)]);
        assert_eq!(added, 2, "one duplicate skipped");
        assert_eq!(d.delta_since(g0), Some(vec![a, b]));
        // The a-run now spans both layers: base (a, n1) + delta (a, n2).
        assert_eq!(d.successors_with(n0, a).to_vec(), vec![(a, n1), (a, n2)]);
        let runs: Vec<(Symbol, usize)> = d.out_label_runs(n0).map(|(s, r)| (s, r.len())).collect();
        assert_eq!(runs, vec![(a, 2), (b, 1)]);
    }

    #[test]
    fn compact_preserves_content_and_generation() {
        let (mut d, a, b, [n0, n1, n2]) = line3();
        d.append(n0, b, n2);
        d.append(n2, a, n0);
        let before: std::collections::BTreeSet<_> = d.edges().collect();
        let gen = d.generation();
        d.compact();
        assert!(d.is_compacted());
        assert_eq!(d.generation(), gen, "compaction keeps the generation");
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.base_edge_count(), 4);
        let after: std::collections::BTreeSet<_> = d.edges().collect();
        assert_eq!(before, after);
        // Compacted rows are globally (label, neighbour)-sorted again.
        let row = d.out_edges(n0).to_vec();
        assert!(row.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(d.successors_with(n0, b).to_vec(), vec![(b, n2)]);
        assert_eq!(d.predecessors_with(n0, a).to_vec(), vec![(a, n2)]);
        // History survives compaction: a cache bound before the appends
        // still learns exactly which labels changed.
        assert_eq!(d.delta_since(gen), Some(vec![]));
        d.compact(); // idempotent
        assert_eq!(d.edge_count(), 4);
        let _ = n1;
    }

    #[test]
    fn append_node_extends_the_live_snapshot() {
        let (mut d, a, _, [n0, _, n2]) = line3();
        let g0 = d.generation();
        let w = d.append_node();
        assert_eq!(w.index(), 3);
        assert_eq!(d.node_count(), 4);
        assert!(d.out_edges(w).is_empty());
        assert!(d.in_edges(w).is_empty());
        assert_eq!(
            d.delta_since(g0),
            Some(vec![]),
            "node additions change no label"
        );
        assert!(d.append(n2, a, w));
        assert!(d.has_path_labelled(n0, &[a, a, a], w));
        let named = d.append_named_node("fresh");
        assert_eq!(d.node_name(named), "fresh");
        // Thawing a layered snapshot carries delta arcs and new nodes.
        let thawed = d.to_builder().freeze();
        assert_eq!(thawed.node_count(), 5);
        assert!(thawed.has_edge(n2, a, w));
    }

    #[test]
    fn per_label_generations_track_appends() {
        let (mut d, a, b, [n0, _, n2]) = line3();
        let g0 = d.generation();
        assert_eq!(d.label_generation(a), g0);
        assert_eq!(d.label_generation(b), g0);
        d.append(n0, b, n2);
        let g1 = d.generation();
        assert_eq!(d.label_generation(a), g0, "a untouched by the append");
        assert_eq!(d.label_generation(b), g1);
        assert_eq!(d.delta_since(g0), Some(vec![b]));
        assert_eq!(d.delta_since(g1), Some(vec![]));
        d.append(n2, a, n0);
        assert_eq!(d.delta_since(g0), Some(vec![a, b]));
        assert_eq!(d.delta_since(g1), Some(vec![a]));
    }

    #[test]
    fn delta_since_rejects_foreign_and_divergent_snapshots() {
        let (mut d1, a, b, [n0, _, n2]) = line3();
        let (other, _, _, _) = line3();
        assert_eq!(
            d1.delta_since(other.generation()),
            None,
            "separately frozen database is not an ancestor"
        );
        // Divergent clones: a generation minted on one branch is unknown
        // to the other, even though both share the lineage.
        let mut d2 = d1.clone();
        d1.append(n0, a, n2);
        let g_d1 = d1.generation();
        d2.append(n0, b, n2);
        assert_eq!(d2.delta_since(g_d1), None);
        assert_eq!(d1.delta_since(d2.generation()), None);
        // But the shared freeze generation answers on both branches.
        assert_eq!(d1.delta_since(d1.lineage()), Some(vec![a]));
        assert_eq!(d2.delta_since(d2.lineage()), Some(vec![b]));
    }

    #[test]
    fn history_truncation_falls_back_to_unknown() {
        let mut bld = abc_builder();
        let a = bld.alphabet().sym("a");
        let nodes: Vec<NodeId> = (0..300).map(|_| bld.add_node()).collect();
        let mut d = bld.freeze();
        let lineage = d.generation();
        let mut mid_gen = 0;
        for (i, w) in nodes.windows(2).enumerate() {
            d.append(w[0], a, w[1]);
            if i == 10 {
                mid_gen = d.generation();
            }
        }
        // 299 appends overflow the 256-entry history: neither the lineage
        // nor an early append generation is answerable any more.
        assert_eq!(d.delta_since(lineage), None);
        assert_eq!(d.delta_since(mid_gen), None);
        // Recent generations still are.
        assert_eq!(d.delta_since(d.generation()), Some(vec![]));
    }
}
