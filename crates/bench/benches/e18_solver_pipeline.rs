//! E18: the plan/prune/enumerate solver pipeline (with projection
//! pushdown) vs the naive-order full-enumerate-then-project reference.
//!
//! Query shapes over the e16/e17 graph families, all evaluated
//! exhaustively (`answers`) by [`CrpqEvaluator`] under both solver
//! configurations (the pipeline side runs `.projected()` — the production
//! default of `answers()`):
//!
//! - **star** — three atoms sharing a source variable, one labelled by a
//!   rare symbol: planning fills the rare atom first and the prune phase
//!   collapses the shared variable's domain before the expensive fills run;
//! - **star_proj** — a wider fan-out star projecting onto the hub only:
//!   every spoke variable is existential and the enumerator replaces the
//!   spoke cross-product with one witness probe per hub candidate;
//! - **chain** — three atoms in a line ending in a rare symbol: the naive
//!   path discovers the dead end only after enumerating every prefix
//!   binding (with one per-source backward/forward search per intermediate
//!   node), while semi-joins kill the prefixes up front;
//! - **diamond** — two branches re-joining on a rare atom;
//! - **single** — one atom, the pipeline-overhead regression guard (the
//!   acceptance bar is staying within 10% of naive);
//!
//! plus the **line** shape from e17's adversarial batching case, where the
//! adaptive probe must route prune fills to per-source sweeps (asserted)
//! and the middle variable makes naive enumeration morphism-cubic while
//! the projected run deduplicates `(x, z)` at the enumerator, and
//! **line_proj** — the same graph projected onto `x` alone, the extreme
//! 1-of-N case. Every measurement is preceded by an equality assertion
//! between the two configurations' answer relations.
//!
//! Run: `cargo bench -p cxrpq-bench --bench e18_solver_pipeline` (add
//! `-- --fast` for the CI smoke configuration). Full runs record
//! `BENCH_solver.json` at the workspace root; override the path (and
//! enable recording in fast mode) with `BENCH_SOLVER_OUT`.
//!
//! Setting `CXRPQ_SMOKE_MAX_STEPS=<fuel>` additionally re-runs every shape
//! under a resource governor with that step budget and asserts bounded,
//! panic-free termination with a clean verdict: an aborted run must report
//! `Aborted` and return a subset of the complete answers, an untripped run
//! must return them all — the CI guard for the governed abort paths.

use cxrpq_core::{Crpq, CrpqEvaluator, Evaluate, Governor, Request, SolveOptions, Strategy};
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn median_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// A random multigraph over `{a, b}` with `edges` arcs plus `rare` arcs
/// labelled `c` — the label skew the planner's CSR statistics pick up.
/// Deterministic (splitmix-style) so runs are comparable without an RNG
/// dependency.
fn random_ab_rare_c(nodes: usize, edges: usize, rare: usize, seed: u64) -> GraphDb {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut b = GraphBuilder::new(alpha);
    let syms: Vec<Symbol> = ["a", "b", "c"]
        .iter()
        .map(|s| b.alphabet().sym(s))
        .collect();
    for _ in 0..nodes {
        b.add_node();
    }
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    };
    for _ in 0..edges {
        let u = NodeId((next() % nodes) as u32);
        let v = NodeId((next() % nodes) as u32);
        let s = syms[next() % 2]; // a or b only
        b.add_edge(u, s, v);
    }
    for _ in 0..rare {
        let u = NodeId((next() % nodes) as u32);
        let v = NodeId((next() % nodes) as u32);
        b.add_edge(u, syms[2], v);
    }
    b.freeze()
}

/// The AGM worst-case triangle instance over three m-node blocks X, Y, Z:
/// each relation is a double star (`x_0` reaches every `y`, every `x`
/// reaches `y_0`, and likewise Y→Z via `b` and Z→X via `a`). Every
/// pairwise join has Θ(m²) tuples while the triangle output is Θ(m) — the
/// regime where any join-at-a-time plan is provably suboptimal and the
/// multiway intersection skips the dead hub bindings in one seek.
fn spoke_triangle(m: usize) -> GraphDb {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let mut bld = GraphBuilder::new(alpha);
    let a = bld.alphabet().sym("a");
    let b = bld.alphabet().sym("b");
    for _ in 0..3 * m {
        bld.add_node();
    }
    let x = |i: usize| NodeId(i as u32);
    let y = |i: usize| NodeId((m + i) as u32);
    let z = |i: usize| NodeId((2 * m + i) as u32);
    for i in 0..m {
        bld.add_edge(x(0), a, y(i));
        bld.add_edge(x(i), a, y(0));
        bld.add_edge(y(0), b, z(i));
        bld.add_edge(y(i), b, z(0));
        bld.add_edge(z(0), a, x(i));
        bld.add_edge(z(i), a, x(0));
    }
    bld.freeze()
}

struct ShapeResult {
    shape: &'static str,
    nodes: usize,
    edges: usize,
    atoms: usize,
    answers: usize,
    naive_ms: f64,
    pipeline_ms: f64,
    per_source_sweeps: bool,
    eliminated_vars: usize,
    /// Cyclic cores routed to the leapfrog intersection by the Auto
    /// strategy (0 on tree shapes).
    leapfrog_components: usize,
    /// Median of the same pipeline run with the leapfrog intersection
    /// disabled (`Strategy::Backtrack`) — only measured on cyclic shapes,
    /// where `pipeline_ms` is the leapfrog lane.
    backtrack_ms: Option<f64>,
    /// Governed smoke outcome when `CXRPQ_SMOKE_MAX_STEPS` is set:
    /// (aborted?, partial answer count).
    governed: Option<(bool, usize)>,
}

/// The governed-smoke fuel budget, when the env var is set.
fn smoke_budget() -> Option<u64> {
    std::env::var("CXRPQ_SMOKE_MAX_STEPS")
        .ok()
        .map(|v| v.parse().expect("CXRPQ_SMOKE_MAX_STEPS must be a number"))
}

fn run_shape(
    shape: &'static str,
    db: &GraphDb,
    query_edges: &[(&str, &str, &str)],
    output: &[&str],
    iters: usize,
) -> ShapeResult {
    let mut alpha = db.alphabet().clone();
    let q = Crpq::build(query_edges, output, &mut alpha).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let naive = SolveOptions::naive();
    let piped = SolveOptions::pipeline().projected();

    // Agreement first: the projected pipeline must reproduce the naive
    // full-enumerate-then-project answers.
    let ans_naive = ev.run(db, Request::Answers, &naive).value.into_tuples();
    let piped_out = ev.run(db, Request::Answers, &piped);
    assert_eq!(
        ans_naive,
        piped_out.value.into_tuples(),
        "{shape}: pipeline changed the answers"
    );
    let stats = piped_out.pipeline.as_ref();
    let per_source_sweeps = stats.map(|s| s.per_source_sweeps).unwrap_or(false);
    let eliminated_vars = stats.map(|s| s.eliminated_vars).unwrap_or(0);
    let leapfrog_components = stats.map(|s| s.leapfrog_components).unwrap_or(0);

    // Governed smoke: the same solve under an aggressive fuel budget must
    // terminate (bounded by the budget), never panic, and only ever
    // under-approximate; an untripped governor must change nothing.
    let governed = smoke_budget().map(|budget| {
        let gov = Arc::new(Governor::unlimited().with_max_steps(budget));
        let partial = ev
            .run(db, Request::Answers, &piped.clone().governed(gov.clone()))
            .value
            .into_tuples();
        assert!(
            partial.is_subset(&ans_naive),
            "{shape}: governed smoke produced tuples outside the complete relation"
        );
        if gov.is_aborted() {
            assert!(
                gov.verdict().to_string().contains("aborted"),
                "{shape}: tripped governor must report an Aborted verdict"
            );
        } else {
            assert_eq!(
                partial, ans_naive,
                "{shape}: untripped governor changed the answers"
            );
        }
        (gov.is_aborted(), partial.len())
    });

    let naive_ms = median_ms(iters, || {
        std::hint::black_box(ev.run(db, Request::Answers, &naive));
    });
    let pipeline_ms = median_ms(iters, || {
        std::hint::black_box(ev.run(db, Request::Answers, &piped));
    });
    ShapeResult {
        shape,
        nodes: db.node_count(),
        edges: db.edge_count(),
        atoms: query_edges.len(),
        answers: ans_naive.len(),
        naive_ms,
        pipeline_ms,
        per_source_sweeps,
        eliminated_vars,
        leapfrog_components,
        backtrack_ms: None,
        governed,
    }
}

/// A cyclic shape measured under three enumeration lanes: the naive
/// reference, the pipeline with the leapfrog intersection (the Auto
/// routing — asserted), and the same pipeline with leapfrog disabled.
fn run_cyclic_shape(
    shape: &'static str,
    db: &GraphDb,
    query_edges: &[(&str, &str, &str)],
    output: &[&str],
    iters: usize,
) -> ShapeResult {
    let mut r = run_shape(shape, db, query_edges, output, iters);
    assert!(
        r.leapfrog_components >= 1,
        "{shape}: a cyclic core must route to leapfrog under Auto"
    );
    let mut alpha = db.alphabet().clone();
    let q = Crpq::build(query_edges, output, &mut alpha).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let back = SolveOptions::pipeline()
        .projected()
        .with_strategy(Strategy::Backtrack);
    let ans_back = ev.run(db, Request::Answers, &back).value.into_tuples();
    let ans_leap = ev
        .run(db, Request::Answers, &SolveOptions::pipeline().projected())
        .value
        .into_tuples();
    assert_eq!(
        ans_back, ans_leap,
        "{shape}: forced backtrack disagrees with leapfrog"
    );
    r.backtrack_ms = Some(median_ms(iters, || {
        std::hint::black_box(ev.run(db, Request::Answers, &back));
    }));
    r
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let iters = if fast { 3 } else { 7 };
    let scale = if fast { 4 } else { 1 };
    let mut results = Vec::new();

    // Star: three atoms out of one variable, the c-atom rare.
    {
        let n = 480 / scale;
        let db = random_ab_rare_c(n, 4 * n, n / 40, 0xe18);
        results.push(run_shape(
            "star",
            &db,
            &[("x", "ab", "y1"), ("x", "ba", "y2"), ("x", "c", "y3")],
            &["x", "y3"],
            iters,
        ));
    }
    // Star with wide fan-out, projected onto the hub only: all four spoke
    // variables are existential (1-of-N output).
    {
        let n = 480 / scale;
        let db = random_ab_rare_c(n, 4 * n, n / 40, 0xe18);
        let r = run_shape(
            "star_proj",
            &db,
            &[
                ("x", "ab", "y1"),
                ("x", "ba", "y2"),
                ("x", "(ab|ba)", "y3"),
                ("x", "c", "y4"),
            ],
            &["x"],
            iters,
        );
        assert_eq!(r.eliminated_vars, 4, "star_proj: all spokes existential");
        results.push(r);
    }
    // Chain: naive discovers the rare tail only after enumerating every
    // prefix binding.
    {
        let n = 480 / scale;
        let db = random_ab_rare_c(n, 4 * n, n / 40, 0xc4a1);
        results.push(run_shape(
            "chain",
            &db,
            &[
                ("x1", "ab", "x2"),
                ("x2", "ab", "x3"),
                ("x3", "ba", "x4"),
                ("x4", "c", "x5"),
            ],
            &["x1", "x5"],
            iters,
        ));
    }
    // Chain projected onto its tail: the planner's output-biased
    // tie-breaking places x5 first within the cheap c-atom, so every other
    // variable falls into the existential suffix (1-of-N output).
    {
        let n = 480 / scale;
        let db = random_ab_rare_c(n, 4 * n, n / 40, 0xc4a1);
        let r = run_shape(
            "chain_tail",
            &db,
            &[
                ("x1", "ab", "x2"),
                ("x2", "ab", "x3"),
                ("x3", "ba", "x4"),
                ("x4", "c", "x5"),
            ],
            &["x5"],
            iters,
        );
        assert_eq!(
            r.eliminated_vars, 4,
            "chain_tail: output bias must leave only x5 in the prefix"
        );
        results.push(r);
    }
    // Diamond: two branches re-joining on a rare atom.
    {
        let n = 480 / scale;
        let db = random_ab_rare_c(n, 4 * n, n / 40, 0xd1a);
        results.push(run_shape(
            "diamond",
            &db,
            &[
                ("x", "ab", "y"),
                ("x", "ba", "z"),
                ("y", "ab", "w"),
                ("z", "c", "w"),
            ],
            &["x", "w"],
            iters,
        ));
    }
    // Single atom: the overhead guard.
    {
        let n = 480 / scale;
        let db = random_ab_rare_c(n, 4 * n, n / 40, 0x51);
        results.push(run_shape(
            "single",
            &db,
            &[("x", "ab", "y")],
            &["x", "y"],
            iters,
        ));
    }
    // Line (e17's adversarial batching shape): the adaptive probe must
    // route prune fills to per-source sweeps.
    {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let m = 400 / scale;
        let word: Vec<Symbol> = alpha.parse_word(&"ab".repeat(m)).unwrap();
        let (db, _, _) = graphs::two_paths(alpha, &word, &word);
        let r = run_shape(
            "line",
            &db,
            &[("x", "(ab)+", "y"), ("y", "(ab)+", "z")],
            &["x", "z"],
            iters,
        );
        assert!(
            r.per_source_sweeps,
            "line: the probe must pick per-source sweeps on a long chain"
        );
        results.push(r);
        // The same graph projected onto x alone: y and z are both
        // existential (1-of-N output) and each x needs one witness probe.
        let r2 = run_shape(
            "line_proj",
            &db,
            &[("x", "(ab)+", "y"), ("y", "(ab)+", "z")],
            &["x"],
            iters,
        );
        assert_eq!(r2.eliminated_vars, 2, "line_proj: y and z existential");
        results.push(r2);
    }
    // Cyclic cores: the worst-case-optimal leapfrog lane vs the forced
    // backtracker vs naive.
    //
    // The triangle runs on the AGM worst-case "spoke" instance, where any
    // join-at-a-time plan is provably Θ(m²) while the output (and the
    // leapfrog run) is near-linear; the dense diamond and 4-clique run on
    // a uniform random multigraph, where candidate sets are wide but the
    // multiway intersections are narrow.
    {
        let m = 400 / scale.min(2);
        let db = spoke_triangle(m);
        results.push(run_cyclic_shape(
            "triangle",
            &db,
            &[("x", "a", "y"), ("y", "b", "z"), ("z", "a", "x")],
            &["x", "y", "z"],
            iters,
        ));
    }
    let dense = |seed: u64| {
        let n = 480 / scale;
        random_ab_rare_c(n, 16 * n, 0, seed)
    };
    // Dense diamond: a 4-cycle with both joins on common labels (unlike
    // the tree-narrowed "diamond" shape above, nothing is rare here).
    {
        let db = dense(0xdd);
        results.push(run_cyclic_shape(
            "diamond_dense",
            &db,
            &[
                ("x", "a", "y"),
                ("y", "b", "w"),
                ("x", "b", "z"),
                ("z", "a", "w"),
            ],
            &["x", "w"],
            iters,
        ));
    }
    // 4-clique: six atoms, every variable in three cycles.
    {
        let db = dense(0xc14);
        results.push(run_cyclic_shape(
            "clique4",
            &db,
            &[
                ("x", "a", "y"),
                ("x", "b", "z"),
                ("x", "a", "w"),
                ("y", "b", "z"),
                ("y", "a", "w"),
                ("z", "b", "w"),
            ],
            &["x", "w"],
            iters,
        ));
    }

    println!(
        "{:<10} {:>6} {:>6} {:>5} {:>8} {:>5} | {:>10} {:>11} {:>7} | fills",
        "shape", "nodes", "edges", "atoms", "answers", "elim", "naive", "pipeline", "x"
    );
    for r in &results {
        println!(
            "{:<10} {:>6} {:>6} {:>5} {:>8} {:>5} | {:>8.3}ms {:>9.3}ms {:>6.2}x | {}",
            r.shape,
            r.nodes,
            r.edges,
            r.atoms,
            r.answers,
            r.eliminated_vars,
            r.naive_ms,
            r.pipeline_ms,
            r.naive_ms / r.pipeline_ms,
            if r.per_source_sweeps {
                "per-source"
            } else {
                "wavefront"
            },
        );
    }

    // The strategy comparison on cyclic shapes: pipeline_ms above is the
    // leapfrog lane; this table adds the forced-backtrack lane.
    if results.iter().any(|r| r.backtrack_ms.is_some()) {
        println!(
            "\n{:<14} {:>11} {:>11} {:>7}",
            "cyclic shape", "backtrack", "leapfrog", "x"
        );
        for r in results.iter().filter(|r| r.backtrack_ms.is_some()) {
            let back = r.backtrack_ms.unwrap();
            println!(
                "{:<14} {:>9.3}ms {:>9.3}ms {:>6.2}x",
                r.shape,
                back,
                r.pipeline_ms,
                back / r.pipeline_ms,
            );
        }
    }

    if let Some(budget) = smoke_budget() {
        let aborted = results
            .iter()
            .filter(|r| matches!(r.governed, Some((true, _))))
            .count();
        println!(
            "\ngoverned smoke (max-steps {budget}): {aborted}/{} shapes aborted cleanly, \
             every partial relation ⊆ complete",
            results.len()
        );
        assert!(
            aborted > 0,
            "governed smoke budget {budget} too generous: no shape aborted"
        );
    }

    let explicit = std::env::var("BENCH_SOLVER_OUT").ok();
    if fast && explicit.is_none() {
        println!("\nfast mode: BENCH_solver.json not rewritten (set BENCH_SOLVER_OUT to record)");
        return;
    }
    let out_path = explicit
        .unwrap_or_else(|| format!("{}/../../BENCH_solver.json", env!("CARGO_MANIFEST_DIR")));
    let mut json = String::from("{\n  \"bench\": \"e18_solver_pipeline\",\n  \"mode\": ");
    json.push_str(if fast { "\"fast\"" } else { "\"full\"" });
    json.push_str(",\n  \"shapes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let strategy = match r.backtrack_ms {
            Some(back) => format!(
                ", \"leapfrog_components\": {}, \"backtrack_ms\": {:.4}, \
                 \"leapfrog_speedup\": {:.2}",
                r.leapfrog_components,
                back,
                back / r.pipeline_ms
            ),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"atoms\": {}, \
             \"answers\": {}, \"eliminated_vars\": {}, \"naive_ms\": {:.4}, \
             \"pipeline_ms\": {:.4}, \"pipeline_speedup\": {:.2}, \
             \"per_source_sweeps\": {}{}}}{}\n",
            r.shape,
            r.nodes,
            r.edges,
            r.atoms,
            r.answers,
            r.eliminated_vars,
            r.naive_ms,
            r.pipeline_ms,
            r.naive_ms / r.pipeline_ms,
            r.per_source_sweeps,
            strategy,
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
