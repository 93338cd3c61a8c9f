//! Graph inputs as a user hands them to the program: a snapshot in the
//! text format plus an append log, loaded with `read_graph`, replayed with
//! `append_batch` and folded into the base with `compact`.

use crate::reference::RefGraph;
use crate::trace::Tracer;
use crate::util::Rng;
use cxrpq_graph::{read_graph, GraphDb, NodeId, Symbol};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Arcs per `append_batch` call while replaying a log.
pub const LOG_BATCH: usize = 64;

/// One graph as text: the snapshot and the arcs appended after it, by
/// node and label name.
pub struct GraphSource {
    pub text: String,
    pub log: Vec<(String, String, String)>,
}

impl GraphSource {
    /// Splits `db` into a snapshot and a log holding about `log_share` of
    /// its arcs (drawn by `rng`). The snapshot declares every node first,
    /// in id order, so `read_graph` gives each node the id it has in `db`;
    /// the log adds arcs only.
    pub fn split(db: &GraphDb, log_share: f64, rng: &mut Rng) -> Self {
        let alphabet = db.alphabet();
        let mut text = String::from("alphabet");
        for s in alphabet.symbols() {
            let _ = write!(text, " {}", alphabet.name(s));
        }
        text.push('\n');
        for v in db.nodes() {
            let _ = writeln!(text, "node {}", db.node_name(v));
        }
        let mut log = Vec::new();
        for (u, a, v) in db.edges() {
            let (u, a, v) = (db.node_name(u), alphabet.name(a), db.node_name(v));
            if rng.unit() < log_share {
                log.push((u, a.to_string(), v));
            } else {
                let _ = writeln!(text, "edge {u} {a} {v}");
            }
        }
        GraphSource { text, log }
    }

    /// The reference copy of the full graph (snapshot plus log).
    pub fn reference(&self, names: &HashMap<String, NodeId>) -> RefGraph {
        let mut g = RefGraph::from_text(&self.text, names);
        for (u, a, v) in &self.log {
            g.add_edge(names[u].0, a, names[v].0);
        }
        g
    }
}

/// A loaded graph with the name map `read_graph` returned.
pub struct Loaded {
    pub db: GraphDb,
    pub names: HashMap<String, NodeId>,
    /// Arcs the log replay added, and the time it spent in
    /// `append_batch` plus `compact`.
    pub appended: usize,
    pub ingest_s: f64,
}

/// The log's arcs by node and symbol id.
fn decode(
    src: &GraphSource,
    db: &GraphDb,
    names: &HashMap<String, NodeId>,
) -> Vec<(NodeId, Symbol, NodeId)> {
    let sym: HashMap<String, Symbol> = db
        .alphabet()
        .symbols()
        .map(|s| (db.alphabet().name(s).to_string(), s))
        .collect();
    src.log
        .iter()
        .map(|(u, a, v)| (names[u], sym[a.as_str()], names[v]))
        .collect()
}

/// Replays `arcs` into `db` in batches, then compacts. Returns the arcs
/// added and the seconds spent in `append_batch` plus `compact`.
fn replay(db: &mut GraphDb, arcs: &[(NodeId, Symbol, NodeId)], tr: &mut Tracer) -> (usize, f64) {
    let mut appended = 0;
    let t = Instant::now();
    for batch in arcs.chunks(LOG_BATCH) {
        let span = tr.enter("db.append_batch");
        appended += db.append_batch(batch);
        tr.exit(span);
    }
    let span = tr.enter("db.compact");
    db.compact();
    tr.exit(span);
    (appended, t.elapsed().as_secs_f64())
}

/// Loads one graph: `read_graph`, then the log in batches, then `compact`.
pub fn load(src: &GraphSource, tr: &mut Tracer) -> Loaded {
    let span = tr.enter("io.read_graph");
    let (mut db, names) = read_graph(&src.text).expect("benchmark graph text parses");
    tr.exit(span);
    let arcs = decode(src, &db, &names);
    let (appended, ingest_s) = replay(&mut db, &arcs, tr);
    Loaded {
        db,
        names,
        appended,
        ingest_s,
    }
}

/// One graph's snapshot as `read_graph` builds it and its log as arcs,
/// kept to time the log replay many more times than there are set-ups.
pub struct Replayer {
    snapshot: GraphDb,
    arcs: Vec<(NodeId, Symbol, NodeId)>,
}

impl Replayer {
    pub fn new(src: &GraphSource) -> Self {
        let (snapshot, names) = read_graph(&src.text).expect("benchmark graph text parses");
        let arcs = decode(src, &snapshot, &names);
        Replayer { snapshot, arcs }
    }

    /// Replays the log into a copy of the snapshot, untraced. Returns the
    /// seconds spent in `append_batch` plus `compact`; the copy is made
    /// before the clock starts.
    pub fn time(&self) -> f64 {
        let mut db = self.snapshot.clone();
        replay(&mut db, &self.arcs, &mut Tracer::new(false)).1
    }
}
