//! E17: all-pairs product reachability and parallel frontiers.
//!
//! Two questions, on four shapes (line, grid, random, label-dense — those
//! of `BENCH_reach.json`) plus one deliberately large random shape:
//!
//! 1. **All pairs** — [`rpq_pairs`] under arbitrary-path semantics over
//!    every node of each shape: one product BFS per source on a reused
//!    scratch. The table reports the sweep's time and its pair count,
//!    plus the single-source [`reach_set`] time as a regression anchor
//!    against `BENCH_reach.json`'s `reach_csr_ms`.
//! 2. **Parallel frontiers** — the sharded [`SyncSearch`] pinned to 1
//!    thread vs all available cores on the largest shape (levels below
//!    the serial threshold never shard, so only genuinely fat frontiers
//!    engage the workers), and the worker pool's dispatch against the
//!    per-level scoped spawns it replaced.
//!
//! Each parallel measurement is preceded by an equality assertion
//! (N-thread = 1-thread, pool = scoped spawns).
//!
//! Run: `cargo bench -p cxrpq-bench --bench e17_parallel_reach` (add
//! `-- --fast` for the CI smoke configuration). Full runs record
//! `BENCH_parallel.json` at the workspace root; override the path (and
//! enable recording in fast mode) with `BENCH_PARALLEL_OUT`.

use cxrpq_automata::{parse_regex, Nfa};
use cxrpq_bench::{env_fingerprint, median_ms, scoped_spawn_sharded};
use cxrpq_core::frontier::{expand_sharded, FrontierConfig};
use cxrpq_core::path_semantics::{rpq_pairs, PathSemantics};
use cxrpq_core::reach::{reach_set, Direction};
use cxrpq_core::sync::{SyncSearch, SyncSpec};
use cxrpq_core::WorkerPool;
use cxrpq_graph::{Alphabet, GraphDb, NodeId, Symbol};
use cxrpq_workloads::graphs;
use std::sync::Arc;

fn nfa_of(alpha: &Alphabet, pattern: &str) -> Nfa {
    let mut a = alpha.clone();
    Nfa::from_regex(&parse_regex(pattern, &mut a).unwrap())
}

struct PairsResult {
    shape: &'static str,
    nodes: usize,
    edges: usize,
    pairs: usize,
    rpq_pairs_ms: f64,
    single_source_ms: f64,
}

/// All-pairs reachability over one shape; also re-anchors the
/// single-source time for comparison with BENCH_reach.json.
fn run_pairs_shape(
    shape: &'static str,
    db: &GraphDb,
    reach_nfa: &Nfa,
    anchor: NodeId,
    iters: usize,
) -> PairsResult {
    let pairs = rpq_pairs(db, reach_nfa, PathSemantics::Arbitrary).len();
    let rpq_pairs_ms = median_ms(iters, || {
        std::hint::black_box(rpq_pairs(db, reach_nfa, PathSemantics::Arbitrary));
    });
    let single_source_ms = median_ms(iters, || {
        std::hint::black_box(reach_set(db, reach_nfa, anchor, Direction::Forward, None));
    });
    PairsResult {
        shape,
        nodes: db.node_count(),
        edges: db.edge_count(),
        pairs,
        rpq_pairs_ms,
        single_source_ms,
    }
}

struct ParallelResult {
    shape: &'static str,
    nodes: usize,
    edges: usize,
    threads: usize,
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
    // all-pairs question.
    {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let n = 1200 / scale;
        let word: Vec<Symbol> = alpha.parse_word(&"ab".repeat(n)).unwrap();
        let (db, (s1, _), _) = graphs::two_paths(alpha, &word, &word);
        let reach_nfa = nfa_of(db.alphabet(), "(ab)*");
        results.push(run_pairs_shape("line", &db, &reach_nfa, s1, iters));
    }
    {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let side = 28 / scale.min(2);
        let db = graphs::grid_labeled(alpha, side, side, 7);
        let reach_nfa = nfa_of(db.alphabet(), "(a|b)*a");
        results.push(run_pairs_shape("grid", &db, &reach_nfa, NodeId(0), iters));
    }
    {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let n = 200 / scale.min(2);
        let db = graphs::random_labeled(alpha, n, 4 * n, 99);
        let reach_nfa = nfa_of(db.alphabet(), "a(a|b)*c");
        results.push(run_pairs_shape("random", &db, &reach_nfa, NodeId(0), iters));
    }
    {
        let alpha = Arc::new(Alphabet::from_chars("abcdefghijklmnop"));
        let n = 96 / scale.min(2);
        let db = graphs::random_labeled(alpha, n, 24 * n, 41);
        let reach_nfa = nfa_of(db.alphabet(), "(a|b)(a|b|c|d)*");
        results.push(run_pairs_shape(
            "label-dense",
            &db,
            &reach_nfa,
            NodeId(0),
            iters,
        ));
    }

    // The largest shape: a random multigraph big enough that the
    // synchronized search's configuration levels clear the serial
    // threshold and the sharded expansion engages.
    let parallel_result = {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let n = 30_000 / scale;
        let db = graphs::random_labeled(alpha, n, 6 * n, 1234);
        // Two equality walkers produce fat configuration levels.
        let def = nfa_of(db.alphabet(), "(a|b|c)(a|b|c)(a|b|c)(a|b|c)");
        let spec = SyncSpec::equality_group(Some(def), 2);
        let t1 = FrontierConfig::with_threads(1);
        let tn = FrontierConfig::with_threads(threads);
        let starts = [NodeId(0), NodeId((n / 64) as u32)];
        let s1 = SyncSearch::forward(&db, &spec)
            .with_config(t1)
            .run(&starts, None, None);
        let sn = SyncSearch::forward(&db, &spec)
            .with_config(tn)
            .run(&starts, None, None);
        assert_eq!(s1, sn, "random-xl: thread count changed SyncSearch");
        let sync_t1_ms = median_ms(iters, || {
            std::hint::black_box(
                SyncSearch::forward(&db, &spec)
                    .with_config(t1)
                    .run(&starts, None, None),
            );
        });
        let sync_tn_ms = median_ms(iters, || {
            std::hint::black_box(
                SyncSearch::forward(&db, &spec)
                    .with_config(tn)
                    .run(&starts, None, None),
            );
        });
        ParallelResult {
            shape: "random-xl",
            nodes: db.node_count(),
            edges: db.edge_count(),
            threads,
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
        "{:<12} {:>7} {:>7} {:>9} | {:>11} | {:>10}",
        "shape", "nodes", "edges", "pairs", "rpq_pairs", "1-source"
    );
    for r in &results {
        println!(
            "{:<12} {:>7} {:>7} {:>9} | {:>9.3}ms | {:>8.4}ms",
            r.shape, r.nodes, r.edges, r.pairs, r.rpq_pairs_ms, r.single_source_ms,
        );
    }
    let p = &parallel_result;
    println!(
        "\n{} ({} nodes, {} edges), {} thread(s) detected:",
        p.shape, p.nodes, p.edges, p.threads
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
        ",\n  \"env\": {},\n  \"parallel_numbers_are_placeholder\": {placeholder},\n  \"shapes\": [\n",
        env_fingerprint()
    ));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"pairs\": {}, \
             \"rpq_pairs_ms\": {:.4}, \"single_source_ms\": {:.4}}}{}\n",
            r.shape,
            r.nodes,
            r.edges,
            r.pairs,
            r.rpq_pairs_ms,
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
         \"sync_t1_ms\": {:.4}, \"sync_tn_ms\": {:.4}, \"sync_parallel_speedup\": {:.2}}}\n}}\n",
        p.shape,
        p.nodes,
        p.edges,
        p.threads,
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
