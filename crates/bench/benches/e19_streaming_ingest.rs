//! E19: streaming ingest over the layered delta-CSR storage.
//!
//! **Ingest strategy crossover** — an interleaved insert/query workload
//! (batches of appended arcs, a fixed query mix after every batch) run
//! under three maintenance strategies:
//! - `refreeze`: rebuild the whole CSR from scratch after every batch
//!   (the only option before the delta overlay);
//! - `delta`: append into the overlay, queries iterate merged runs;
//! - `compact`: append into the overlay, then fold touched rows back
//!   into the base before querying (incremental freeze).
//!
//! The workload runs over a growing random multigraph at several delta
//! sizes (small overlays favour `delta`; large overlays amortize the row
//! merges) plus streaming line and grid shapes. All three strategies must
//! produce identical answer sets.
//!
//! Run: `cargo bench -p cxrpq-bench --bench e19_streaming_ingest` (add
//! `-- --fast` for the CI smoke configuration). Full runs record
//! `BENCH_streaming.json` at the workspace root; override the path (and
//! enable recording in fast mode) with `BENCH_STREAMING_OUT`.

use cxrpq_automata::{parse_regex, Nfa};
use cxrpq_bench::median_ms;
use cxrpq_core::reach::{reach_set, Direction, ReachRow};
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn nfa_of(alpha: &Alphabet, pattern: &str) -> Nfa {
    let mut a = alpha.clone();
    Nfa::from_regex(&parse_regex(pattern, &mut a).unwrap())
}

/// Deterministic splitmix-style stream (no RNG dependency).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    }
}

/// One streaming scenario: a frozen seed graph, a stream of arc batches,
/// and a query mix to run after every batch.
struct Scenario {
    shape: &'static str,
    seed_db: GraphDb,
    stream: Vec<Vec<(NodeId, Symbol, NodeId)>>,
    nfa: Nfa,
    sources: Vec<NodeId>,
}

impl Scenario {
    fn query(&self, db: &GraphDb) -> usize {
        let mut total = 0;
        for &s in &self.sources {
            total += reach_set(db, &self.nfa, s, Direction::Forward, None).len();
        }
        total
    }

    fn final_answers(&self, db: &GraphDb) -> Vec<ReachRow> {
        self.sources
            .iter()
            .map(|&s| reach_set(db, &self.nfa, s, Direction::Forward, None))
            .collect()
    }
}

struct StrategyRun {
    ingest_ms: f64,
    query_ms: f64,
}

impl StrategyRun {
    fn total_ms(&self) -> f64 {
        self.ingest_ms + self.query_ms
    }
}

/// Runs the interleaved workload once per strategy, asserting all three
/// converge on the same final answers. Per-phase times are medians over
/// `iters` full workload replays.
fn run_scenario(sc: &Scenario, iters: usize) -> (StrategyRun, StrategyRun, StrategyRun, usize) {
    // Answer agreement on the final graph, once.
    let final_db = {
        let mut db = sc.seed_db.clone();
        for batch in &sc.stream {
            db.append_batch(batch);
        }
        db
    };
    let reference = sc.final_answers(&final_db);
    {
        let mut compacted = sc.seed_db.clone();
        for batch in &sc.stream {
            compacted.append_batch(batch);
            compacted.compact();
        }
        assert_eq!(
            sc.final_answers(&compacted),
            reference,
            "{}: compact diverged",
            sc.shape
        );
        let refrozen = final_db.to_builder().freeze();
        assert_eq!(
            sc.final_answers(&refrozen),
            reference,
            "{}: refreeze diverged",
            sc.shape
        );
    }

    type IngestFn = Box<dyn FnMut(&[(NodeId, Symbol, NodeId)]) -> GraphDb>;
    let timed = |mut ingest: IngestFn| {
        let mut ingest_ms = 0.0;
        let mut query_ms = 0.0;
        let run = median_ms(iters, || {
            let mut i_acc = Duration::ZERO;
            let mut q_acc = Duration::ZERO;
            for batch in &sc.stream {
                let t0 = Instant::now();
                let db = ingest(batch);
                i_acc += t0.elapsed();
                let t1 = Instant::now();
                std::hint::black_box(sc.query(&db));
                q_acc += t1.elapsed();
            }
            ingest_ms = i_acc.as_secs_f64() * 1e3;
            query_ms = q_acc.as_secs_f64() * 1e3;
        });
        let _ = run;
        StrategyRun {
            ingest_ms,
            query_ms,
        }
    };

    // refreeze: accumulate arcs, rebuild the whole CSR every batch.
    let refreeze = {
        let mut acc: Vec<(NodeId, Symbol, NodeId)> = Vec::new();
        let seed = sc.seed_db.clone();
        timed(Box::new(move |batch| {
            acc.extend_from_slice(batch);
            let mut b = seed.to_builder();
            for &(u, a, v) in &acc {
                b.add_edge(u, a, v);
            }
            b.freeze()
        }))
    };
    // delta: append into the overlay, query merged runs. The overlay is
    // carried across batches (worst case for merged iteration).
    let delta = {
        let mut db = sc.seed_db.clone();
        timed(Box::new(move |batch| {
            db.append_batch(batch);
            db.clone()
        }))
    };
    // compact: append, then fold touched rows back before querying.
    let compact = {
        let mut db = sc.seed_db.clone();
        timed(Box::new(move |batch| {
            db.append_batch(batch);
            db.compact();
            db.clone()
        }))
    };
    (refreeze, delta, compact, sc.stream.len())
}

/// A growing random multigraph: `n` nodes, `base` frozen arcs, `extra`
/// streamed arcs in `batches` equal batches.
fn random_scenario(
    shape: &'static str,
    n: usize,
    base: usize,
    extra: usize,
    batches: usize,
    seed: u64,
) -> Scenario {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| alpha.sym(s)).collect();
    let mut mix = Mix(seed);
    let mut b = GraphBuilder::new(alpha);
    for _ in 0..n {
        b.add_node();
    }
    for _ in 0..base {
        let (u, v) = (mix.next() % n, mix.next() % n);
        b.add_edge(NodeId(u as u32), syms[mix.next() % 3], NodeId(v as u32));
    }
    let seed_db = b.freeze();
    let per = extra.div_ceil(batches);
    let stream: Vec<Vec<(NodeId, Symbol, NodeId)>> = (0..batches)
        .map(|_| {
            (0..per)
                .map(|_| {
                    (
                        NodeId((mix.next() % n) as u32),
                        syms[mix.next() % 3],
                        NodeId((mix.next() % n) as u32),
                    )
                })
                .collect()
        })
        .collect();
    let nfa = nfa_of(seed_db.alphabet(), "a(a|b)*c");
    let sources: Vec<NodeId> = (0..4).map(|i| NodeId((i * (n / 4)) as u32)).collect();
    Scenario {
        shape,
        seed_db,
        stream,
        nfa,
        sources,
    }
}

/// A line shape, streamed: the second `(ab)^m` path is appended arc
/// by arc onto a frozen first path.
fn line_scenario(m: usize, batches: usize) -> Scenario {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let word: Vec<Symbol> = alpha.parse_word(&"ab".repeat(m)).unwrap();
    let mut b = GraphBuilder::new(alpha);
    let s1 = b.add_node();
    let mut prev = s1;
    for &a in &word {
        let next = b.add_node();
        b.add_edge(prev, a, next);
        prev = next;
    }
    // Pre-allocate the second path's nodes; its arcs arrive as the stream.
    let s2 = b.add_node();
    let mut arcs = Vec::with_capacity(word.len());
    let mut p = s2;
    for &a in &word {
        let next = b.add_node();
        arcs.push((p, a, next));
        p = next;
    }
    let seed_db = b.freeze();
    let per = arcs.len().div_ceil(batches);
    let stream = arcs.chunks(per).map(<[_]>::to_vec).collect();
    let nfa = nfa_of(seed_db.alphabet(), "(ab)*");
    Scenario {
        shape: "line",
        seed_db,
        stream,
        nfa,
        sources: vec![s1, s2],
    }
}

/// A grid shape, streamed: a frozen `rows × cols` grid gains random
/// labelled shortcut arcs.
fn grid_scenario(side: usize, extra: usize, batches: usize, seed: u64) -> Scenario {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let seed_db = graphs::grid_labeled(alpha, side, side, 7);
    let n = seed_db.node_count();
    let syms: Vec<Symbol> = ["a", "b"]
        .iter()
        .map(|s| seed_db.alphabet().sym(s))
        .collect();
    let mut mix = Mix(seed);
    let per = extra.div_ceil(batches);
    let stream: Vec<Vec<(NodeId, Symbol, NodeId)>> = (0..batches)
        .map(|_| {
            (0..per)
                .map(|_| {
                    (
                        NodeId((mix.next() % n) as u32),
                        syms[mix.next() % 2],
                        NodeId((mix.next() % n) as u32),
                    )
                })
                .collect()
        })
        .collect();
    let nfa = nfa_of(seed_db.alphabet(), "(a|b)*a");
    Scenario {
        shape: "grid",
        seed_db,
        stream,
        nfa,
        sources: vec![NodeId(0), NodeId((n / 2) as u32)],
    }
}

struct StreamResult {
    shape: String,
    nodes: usize,
    base_edges: usize,
    delta_edges: usize,
    batches: usize,
    refreeze: StrategyRun,
    delta: StrategyRun,
    compact: StrategyRun,
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let iters = if fast { 3 } else { 9 };
    let scale = if fast { 4 } else { 1 };

    // Ingest strategies over growing graphs. The random family sweeps the
    // overlay size to expose the delta-vs-compact crossover.
    let scenarios: Vec<Scenario> = vec![
        random_scenario(
            "random-small-delta",
            512 / scale,
            2048 / scale,
            128 / scale,
            8,
            0xe19,
        ),
        random_scenario(
            "random-mid-delta",
            512 / scale,
            2048 / scale,
            1024 / scale,
            8,
            0xe19,
        ),
        random_scenario(
            "random-large-delta",
            512 / scale,
            2048 / scale,
            4096 / scale,
            8,
            0xe19,
        ),
        line_scenario(600 / scale, 6),
        grid_scenario(24 / scale.min(2), 256 / scale, 8, 0x61d),
    ];
    let mut results = Vec::new();
    for sc in &scenarios {
        let (refreeze, delta, compact, batches) = run_scenario(sc, iters);
        results.push(StreamResult {
            shape: sc.shape.to_string(),
            nodes: sc.seed_db.node_count(),
            base_edges: sc.seed_db.edge_count(),
            delta_edges: sc.stream.iter().map(Vec::len).sum(),
            batches,
            refreeze,
            delta,
            compact,
        });
    }

    println!(
        "\n{:<20} {:>6} {:>6} {:>6} | {:>9} {:>9} {:>9} | best",
        "stream", "nodes", "base", "delta", "refreeze", "delta", "compact"
    );
    for r in &results {
        let (rf, dl, cp) = (
            r.refreeze.total_ms(),
            r.delta.total_ms(),
            r.compact.total_ms(),
        );
        let best = if dl <= rf && dl <= cp {
            "delta"
        } else if cp <= rf {
            "compact"
        } else {
            "refreeze"
        };
        println!(
            "{:<20} {:>6} {:>6} {:>6} | {:>7.2}ms {:>7.2}ms {:>7.2}ms | {}",
            r.shape, r.nodes, r.base_edges, r.delta_edges, rf, dl, cp, best
        );
    }

    let explicit = std::env::var("BENCH_STREAMING_OUT").ok();
    if fast && explicit.is_none() {
        println!(
            "\nfast mode: BENCH_streaming.json not rewritten (set BENCH_STREAMING_OUT to record)"
        );
        return;
    }
    let out_path = explicit
        .unwrap_or_else(|| format!("{}/../../BENCH_streaming.json", env!("CARGO_MANIFEST_DIR")));
    let mut json = String::from("{\n  \"bench\": \"e19_streaming_ingest\",\n  \"mode\": ");
    json.push_str(if fast { "\"fast\"" } else { "\"full\"" });
    json.push_str(",\n  \"streaming\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"nodes\": {}, \"base_edges\": {}, \"delta_edges\": {}, \
             \"batches\": {}, \
             \"refreeze_ingest_ms\": {:.4}, \"refreeze_query_ms\": {:.4}, \
             \"delta_ingest_ms\": {:.4}, \"delta_query_ms\": {:.4}, \
             \"compact_ingest_ms\": {:.4}, \"compact_query_ms\": {:.4}}}{}\n",
            r.shape,
            r.nodes,
            r.base_edges,
            r.delta_edges,
            r.batches,
            r.refreeze.ingest_ms,
            r.refreeze.query_ms,
            r.delta.ingest_ms,
            r.delta.query_ms,
            r.compact.ingest_ms,
            r.compact.query_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        println!("\nrecorded {out_path}");
    }
}
