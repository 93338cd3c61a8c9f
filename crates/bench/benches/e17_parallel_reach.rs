//! E17: batched multi-source + parallel frontier product reachability.
//!
//! Two questions, on four shapes (line, grid, random, label-dense — those
//! of `BENCH_reach.json`) plus one deliberately large random shape:
//!
//! 1. **Batching** — a candidate sweep over `k` sources of one automaton:
//!    `k` independent [`reach_set_governed`] walks through one reused
//!    scratch (the per-source path) vs ONE [`reach_all`] wavefront
//!    with 64-source membership stripes. Both run single-threaded, so the
//!    ratio isolates the algorithmic batching win.
//! 2. **Parallel frontiers** — [`reach_all_with`] and the sharded
//!    [`SyncSearch`] pinned to 1 thread vs all available cores on the
//!    largest shape (levels below the serial threshold never shard, so
//!    only genuinely fat frontiers engage the workers).
//!
//! Each measurement is preceded by an equality assertion (batched =
//! per-source, N-thread = 1-thread), and the single-source `reach_set`
//! numbers of the four shapes are re-recorded as a regression anchor
//! against `BENCH_reach.json`'s `reach_csr_ms`.
//!
//! Run: `cargo bench -p cxrpq-bench --bench e17_parallel_reach` (add
//! `-- --fast` for the CI smoke configuration). Full runs record
//! `BENCH_parallel.json` at the workspace root; override the path (and
//! enable recording in fast mode) with `BENCH_PARALLEL_OUT`.

use cxrpq_automata::{parse_regex, Nfa};
use cxrpq_bench::{median_ms, scoped_spawn_sharded};
use cxrpq_core::frontier::{expand_sharded, FrontierConfig};
use cxrpq_core::reach::{reach_all_with, reach_set, reach_set_governed, Direction, ReachScratch};
use cxrpq_core::sync::{SyncSearch, SyncSpec};
use cxrpq_core::Governor;
use cxrpq_core::WorkerPool;
use cxrpq_graph::{Alphabet, GraphDb, NodeId, Symbol};
use cxrpq_workloads::graphs;
use std::sync::Arc;

fn nfa_of(alpha: &Alphabet, pattern: &str) -> Nfa {
    let mut a = alpha.clone();
    Nfa::from_regex(&parse_regex(pattern, &mut a).unwrap())
}

/// Evenly spaced source sample of size ≤ `k`.
fn spread_sources(db: &GraphDb, k: usize) -> Vec<NodeId> {
    let n = db.node_count();
    let k = k.min(n).max(1);
    (0..k).map(|i| NodeId((i * n / k) as u32)).collect()
}

struct BatchResult {
    shape: &'static str,
    nodes: usize,
    edges: usize,
    sources: usize,
    per_source_ms: f64,
    batched_ms: f64,
    single_source_ms: f64,
}

/// Batched-vs-per-source on one shape (both single-threaded); also
/// re-anchors the single-source time for comparison with BENCH_reach.json.
fn run_batch_shape(
    shape: &'static str,
    db: &GraphDb,
    reach_nfa: &Nfa,
    anchor: NodeId,
    k: usize,
    iters: usize,
) -> BatchResult {
    let sources = spread_sources(db, k);
    let serial = FrontierConfig::serial();

    // Agreement first: the wavefront must reproduce every per-source set.
    let batched = reach_all_with(db, reach_nfa, &sources, Direction::Forward, None, &serial);
    let gov = Governor::disabled();
    let mut scratch = ReachScratch::default();
    for (i, &u) in sources.iter().enumerate() {
        let single = reach_set_governed(
            db,
            reach_nfa,
            u,
            Direction::Forward,
            None,
            &mut scratch,
            gov,
        );
        assert_eq!(batched[i], single, "{shape}: source {i} mismatch");
    }

    let per_source_ms = median_ms(iters, || {
        let mut scratch = ReachScratch::default();
        for &u in &sources {
            let row = reach_set_governed(
                db,
                reach_nfa,
                u,
                Direction::Forward,
                None,
                &mut scratch,
                gov,
            );
            std::hint::black_box(row);
        }
    });
    let batched_ms = median_ms(iters, || {
        std::hint::black_box(reach_all_with(
            db,
            reach_nfa,
            &sources,
            Direction::Forward,
            None,
            &serial,
        ));
    });
    let single_source_ms = median_ms(iters, || {
        std::hint::black_box(reach_set(db, reach_nfa, anchor, Direction::Forward, None));
    });
    BatchResult {
        shape,
        nodes: db.node_count(),
        edges: db.edge_count(),
        sources: sources.len(),
        per_source_ms,
        batched_ms,
        single_source_ms,
    }
}

struct ParallelResult {
    shape: &'static str,
    nodes: usize,
    edges: usize,
    threads: usize,
    reach_t1_ms: f64,
    reach_tn_ms: f64,
    sync_t1_ms: f64,
    sync_tn_ms: f64,
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let iters = if fast { 3 } else { 7 };
    let scale = if fast { 4 } else { 1 };
    let threads = FrontierConfig::auto().worker_count();
    let mut results = Vec::new();

    // The four shapes of `BENCH_reach.json`, same constructions, for the
    // batching question.
    {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let n = 1200 / scale;
        let word: Vec<Symbol> = alpha.parse_word(&"ab".repeat(n)).unwrap();
        let (db, (s1, _), _) = graphs::two_paths(alpha, &word, &word);
        let reach_nfa = nfa_of(db.alphabet(), "(ab)*");
        results.push(run_batch_shape("line", &db, &reach_nfa, s1, 128, iters));
    }
    {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let side = 28 / scale.min(2);
        let db = graphs::grid_labeled(alpha, side, side, 7);
        let reach_nfa = nfa_of(db.alphabet(), "(a|b)*a");
        results.push(run_batch_shape(
            "grid",
            &db,
            &reach_nfa,
            NodeId(0),
            128,
            iters,
        ));
    }
    {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let n = 200 / scale.min(2);
        let db = graphs::random_labeled(alpha, n, 4 * n, 99);
        let reach_nfa = nfa_of(db.alphabet(), "a(a|b)*c");
        results.push(run_batch_shape(
            "random",
            &db,
            &reach_nfa,
            NodeId(0),
            128,
            iters,
        ));
    }
    {
        let alpha = Arc::new(Alphabet::from_chars("abcdefghijklmnop"));
        let n = 96 / scale.min(2);
        let db = graphs::random_labeled(alpha, n, 24 * n, 41);
        let reach_nfa = nfa_of(db.alphabet(), "(a|b)(a|b|c|d)*");
        results.push(run_batch_shape(
            "label-dense",
            &db,
            &reach_nfa,
            NodeId(0),
            96,
            iters,
        ));
    }

    // The largest shape: a random multigraph big enough that BFS levels
    // clear the serial threshold and the sharded expansion engages.
    let parallel_result = {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let n = 30_000 / scale;
        let db = graphs::random_labeled(alpha, n, 6 * n, 1234);
        let reach_nfa = nfa_of(db.alphabet(), "(a|b)*c");
        let sources = spread_sources(&db, 64);
        let t1 = FrontierConfig::with_threads(1);
        let tn = FrontierConfig::with_threads(threads);

        let r1 = reach_all_with(&db, &reach_nfa, &sources, Direction::Forward, None, &t1);
        let rn = reach_all_with(&db, &reach_nfa, &sources, Direction::Forward, None, &tn);
        assert_eq!(r1, rn, "random-xl: thread count changed reach_all");
        let reach_t1_ms = median_ms(iters, || {
            std::hint::black_box(reach_all_with(
                &db,
                &reach_nfa,
                &sources,
                Direction::Forward,
                None,
                &t1,
            ));
        });
        let reach_tn_ms = median_ms(iters, || {
            std::hint::black_box(reach_all_with(
                &db,
                &reach_nfa,
                &sources,
                Direction::Forward,
                None,
                &tn,
            ));
        });

        // Synchronized search on the same database: two equality walkers
        // produce fat configuration levels.
        let def = nfa_of(db.alphabet(), "(a|b|c)(a|b|c)(a|b|c)(a|b|c)");
        let spec = SyncSpec::equality_group(Some(def), 2);
        let sync_t1_cfg = FrontierConfig::with_threads(1)
            .with_serial_threshold(FrontierConfig::SYNC_SERIAL_THRESHOLD);
        let sync_tn_cfg = FrontierConfig::with_threads(threads)
            .with_serial_threshold(FrontierConfig::SYNC_SERIAL_THRESHOLD);
        let starts = [sources[0], sources[1]];
        let s1 = SyncSearch::forward(&db, &spec)
            .with_config(sync_t1_cfg)
            .run(&starts, None, None);
        let sn = SyncSearch::forward(&db, &spec)
            .with_config(sync_tn_cfg)
            .run(&starts, None, None);
        assert_eq!(s1, sn, "random-xl: thread count changed SyncSearch");
        let sync_t1_ms = median_ms(iters, || {
            std::hint::black_box(
                SyncSearch::forward(&db, &spec)
                    .with_config(sync_t1_cfg)
                    .run(&starts, None, None),
            );
        });
        let sync_tn_ms = median_ms(iters, || {
            std::hint::black_box(
                SyncSearch::forward(&db, &spec)
                    .with_config(sync_tn_cfg)
                    .run(&starts, None, None),
            );
        });
        ParallelResult {
            shape: "random-xl",
            nodes: db.node_count(),
            edges: db.edge_count(),
            threads,
            reach_t1_ms,
            reach_tn_ms,
            sync_t1_ms,
            sync_tn_ms,
        }
    };

    // Dispatch A/B: the persistent pool's `expand_sharded` (what the
    // frontier engine calls per level since the pool PR) against the old
    // per-level scoped-spawn dispatch it replaced, on an identical
    // frontier-expansion workload. The old numbers in BENCH_parallel.json
    // history were measured through scoped spawns; this section keeps
    // both paths side by side.
    let dispatch = {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let n = 8_000 / scale;
        let db = graphs::random_labeled(alpha, n, 6 * n, 77);
        let frontier: Vec<NodeId> = (0..db.node_count() as u32).map(NodeId).collect();
        let levels = if fast { 40 } else { 160 };
        let shards = threads.max(2);
        let pool = WorkerPool::global();
        let expand = |_: usize, slice: &[NodeId]| -> usize {
            slice.iter().map(|&u| db.out_edges(u).count()).sum()
        };
        let pooled: usize = expand_sharded(&frontier, shards, pool, expand)
            .into_iter()
            .sum();
        let scoped: usize = scoped_spawn_sharded(&frontier, shards, expand)
            .into_iter()
            .sum();
        assert_eq!(pooled, scoped, "dispatch paths disagree on the workload");
        let scoped_ms = median_ms(iters, || {
            for _ in 0..levels {
                std::hint::black_box(scoped_spawn_sharded(&frontier, shards, expand));
            }
        });
        let pool_ms = median_ms(iters, || {
            for _ in 0..levels {
                std::hint::black_box(expand_sharded(&frontier, shards, pool, expand));
            }
        });
        (levels, shards, scoped_ms, pool_ms)
    };

    // Report.
    println!(
        "{:<12} {:>7} {:>7} {:>5} | {:>11} {:>10} {:>7} | {:>10}",
        "shape", "nodes", "edges", "srcs", "per-source", "batched", "x", "1-source"
    );
    for r in &results {
        println!(
            "{:<12} {:>7} {:>7} {:>5} | {:>9.3}ms {:>8.3}ms {:>6.2}x | {:>8.4}ms",
            r.shape,
            r.nodes,
            r.edges,
            r.sources,
            r.per_source_ms,
            r.batched_ms,
            r.per_source_ms / r.batched_ms,
            r.single_source_ms,
        );
    }
    let p = &parallel_result;
    println!(
        "\n{} ({} nodes, {} edges), {} thread(s) detected:",
        p.shape, p.nodes, p.edges, p.threads
    );
    println!(
        "  reach_all  1t {:>9.3}ms  {}t {:>9.3}ms  {:>5.2}x",
        p.reach_t1_ms,
        p.threads,
        p.reach_tn_ms,
        p.reach_t1_ms / p.reach_tn_ms
    );
    println!(
        "  sync       1t {:>9.3}ms  {}t {:>9.3}ms  {:>5.2}x",
        p.sync_t1_ms,
        p.threads,
        p.sync_tn_ms,
        p.sync_t1_ms / p.sync_tn_ms
    );
    let (d_levels, d_shards, d_scoped_ms, d_pool_ms) = dispatch;
    println!(
        "\ndispatch ({d_levels} levels x {d_shards} shards):\n  \
         scoped spawns {d_scoped_ms:>9.3}ms\n  \
         worker pool   {d_pool_ms:>9.3}ms  {:>5.2}x",
        d_scoped_ms / d_pool_ms
    );
    if p.threads == 1 {
        println!();
        println!("  ============================= WARNING =============================");
        println!("  Only ONE worker thread was detected on this host. The \"parallel\"");
        println!("  numbers above are PLACEHOLDERS: both configurations ran the same");
        println!("  single-threaded code path, so the speedup column says nothing");
        println!("  about the frontier parallelism. Re-run on a multi-core host before");
        println!("  quoting any parallel figure from this bench or its JSON record.");
        println!("  ===================================================================");
    }

    // JSON record at the workspace root.
    let explicit = std::env::var("BENCH_PARALLEL_OUT").ok();
    if fast && explicit.is_none() {
        println!(
            "\nfast mode: BENCH_parallel.json not rewritten (set BENCH_PARALLEL_OUT to record)"
        );
        return;
    }
    let out_path = explicit
        .unwrap_or_else(|| format!("{}/../../BENCH_parallel.json", env!("CARGO_MANIFEST_DIR")));
    // Single-thread containers can't demonstrate parallel speedups; flag
    // the numbers as placeholders both at the top level and inside the
    // summary object, so consumers reading either stay honest.
    let placeholder = threads == 1;
    let mut json = String::from("{\n  \"bench\": \"e17_parallel_reach\",\n  \"mode\": ");
    json.push_str(if fast { "\"fast\"" } else { "\"full\"" });
    json.push_str(&format!(
        ",\n  \"threads_detected\": {threads},\n  \"parallel_numbers_are_placeholder\": {placeholder},\n  \"shapes\": [\n",
    ));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"sources\": {}, \
             \"per_source_ms\": {:.4}, \"batched_ms\": {:.4}, \"batched_speedup\": {:.2}, \
             \"single_source_ms\": {:.4}}}{}\n",
            r.shape,
            r.nodes,
            r.edges,
            r.sources,
            r.per_source_ms,
            r.batched_ms,
            r.per_source_ms / r.batched_ms,
            r.single_source_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"dispatch\": {{\"levels\": {}, \"shards\": {}, \"scoped_spawn_ms\": {:.4}, \
         \"pool_ms\": {:.4}, \"pool_speedup\": {:.2}}},\n",
        d_levels,
        d_shards,
        d_scoped_ms,
        d_pool_ms,
        d_scoped_ms / d_pool_ms,
    ));
    json.push_str(&format!(
        "  \"parallel\": {{\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"threads\": {}, \
         \"parallel_numbers_are_placeholder\": {placeholder}, \
         \"reach_t1_ms\": {:.4}, \"reach_tn_ms\": {:.4}, \"reach_parallel_speedup\": {:.2}, \
         \"sync_t1_ms\": {:.4}, \"sync_tn_ms\": {:.4}, \"sync_parallel_speedup\": {:.2}}}\n}}\n",
        p.shape,
        p.nodes,
        p.edges,
        p.threads,
        p.reach_t1_ms,
        p.reach_tn_ms,
        p.reach_t1_ms / p.reach_tn_ms,
        p.sync_t1_ms,
        p.sync_tn_ms,
        p.sync_t1_ms / p.sync_tn_ms,
    ));
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        println!("\nrecorded {out_path}");
    }
}
