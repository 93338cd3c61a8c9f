//! E18: the plan/prune/enumerate solver pipeline (with projection
//! pushdown) vs the naive-order full-enumerate-then-project reference.
//!
//! Query shapes over the e17 graph families, all evaluated
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
//! - **unary_star** and **chain3** — a single star-regex atom projected
//!   onto its target, and three one-letter atoms in a line projected onto
//!   both ends: the existential-elimination shapes. The source variable of
//!   `unary_star` is a leaf the prune phase peels with one set sweep; the
//!   middle variables of `chain3` contract into one `abc` atom. Both run a
//!   same-run A/B against the pipeline with the analyzer off (which turns
//!   both eliminations off), interleaved sample by sample, recorded with
//!   min/median/max;
//!
//! plus the **line** shape from e17's adversarial batching case, where
//! every reach row spans a long stretch of the chain and the middle
//! variable makes naive enumeration morphism-cubic while
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

use cxrpq_bench::{env_fingerprint, median_ms};
use cxrpq_core::{Crpq, CrpqEvaluator, Evaluate, Governor, Request, SolveOptions};
use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    eliminated_vars: usize,
    /// Variables the analyzer contracted away in phase 0.
    contracted_vars: usize,
    /// Existential leaves the prune phase peeled.
    peeled_vars: usize,
    /// The existential-elimination A/B (see [`run_elimination_shape`]).
    elimination: Option<EliminationAb>,
    /// Leapfrog `seek_ge` probes of one pipeline run (0 when no variable
    /// met two bound constraints).
    intersection_seeks: usize,
    /// Governed smoke outcome when `CXRPQ_SMOKE_MAX_STEPS` is set:
    /// (aborted?, partial answer count).
    governed: Option<(bool, usize)>,
}

/// Same-run A/B of existential elimination: the pipeline with the
/// analyzer off (`off`, no contraction and no peel) against the default
/// pipeline (`on`), as `[min, median, max]` milliseconds.
struct EliminationAb {
    off: [f64; 3],
    on: [f64; 3],
}

/// `[min, median, max]` of `samples` in milliseconds.
fn spread_ms(mut samples: Vec<Duration>) -> [f64; 3] {
    samples.sort();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    [
        ms(samples[0]),
        ms(samples[samples.len() / 2]),
        ms(samples[samples.len() - 1]),
    ]
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
    let eliminated_vars = stats.map(|s| s.eliminated_vars).unwrap_or(0);
    let contracted_vars = stats
        .and_then(|s| s.analysis.as_ref())
        .map_or(0, |a| a.stats.vars_contracted);
    let peeled_vars = stats.map_or(0, |s| s.peeled_vars);
    let intersection_seeks = stats.map_or(0, |s| s.intersection_seeks);

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
        eliminated_vars,
        contracted_vars,
        peeled_vars,
        elimination: None,
        intersection_seeks,
        governed,
    }
}

/// An existential-elimination shape: [`run_shape`], then the same-run A/B
/// of the pipeline with the analyzer off against the default pipeline,
/// one sample of each in turn.
fn run_elimination_shape(
    shape: &'static str,
    db: &GraphDb,
    query_edges: &[(&str, &str, &str)],
    output: &[&str],
    iters: usize,
) -> ShapeResult {
    let mut r = run_shape(shape, db, query_edges, output, iters);
    assert!(
        r.contracted_vars + r.peeled_vars > 0,
        "{shape}: nothing was eliminated"
    );
    let mut alpha = db.alphabet().clone();
    let q = Crpq::build(query_edges, output, &mut alpha).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let on = SolveOptions::pipeline().projected();
    let off = on.clone().unanalyzed();
    assert_eq!(
        ev.run(db, Request::Answers, &off).value.into_tuples(),
        ev.run(db, Request::Answers, &on).value.into_tuples(),
        "{shape}: elimination changed the answers"
    );
    let time = |opts: &SolveOptions| {
        let t0 = Instant::now();
        std::hint::black_box(ev.run(db, Request::Answers, opts));
        t0.elapsed()
    };
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for _ in 0..2 * iters + 1 {
        offs.push(time(&off));
        ons.push(time(&on));
    }
    r.elimination = Some(EliminationAb {
        off: spread_ms(offs),
        on: spread_ms(ons),
    });
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
        assert_eq!(r.peeled_vars, 4, "star_proj: every spoke is a leaf");
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
            r.eliminated_vars + r.contracted_vars,
            4,
            "chain_tail: only x5 may stay in the prefix (x2..x4 contract)"
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
    // Line (e17's adversarial batching shape): long rows on a long chain.
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
        assert_eq!(
            r2.eliminated_vars + r2.contracted_vars,
            2,
            "line_proj: y and z existential (y contracts)"
        );
        results.push(r2);
    }
    // Existential elimination: a unary star-regex query (its source is a
    // peeled leaf) and a three-letter chain projected onto its ends (its
    // middle variables contract).
    {
        let n = 1000 / scale;
        let db = random_ab_rare_c(n, 3 * n, n / 10, 0x57a);
        results.push(run_elimination_shape(
            "unary_star",
            &db,
            &[("x", "(a|b)*c(a|b)*", "y")],
            &["y"],
            iters,
        ));
    }
    {
        let n = 4000 / scale;
        let db = random_ab_rare_c(n, 3 * n, n / 2, 0xc3a);
        results.push(run_elimination_shape(
            "chain3",
            &db,
            &[("x", "a", "y"), ("y", "b", "z"), ("z", "c", "w")],
            &["x", "w"],
            iters,
        ));
    }
    // Cyclic cores, where the enumerator intersects the bound atoms at
    // each variable (worst-case-optimal leapfrog) instead of extending
    // along one of them.
    //
    // The triangle runs on the AGM worst-case "spoke" instance, where any
    // join-at-a-time plan is provably Θ(m²) while the output (and the
    // leapfrog run) is near-linear; the dense diamond and 4-clique run on
    // a uniform random multigraph, where candidate sets are wide but the
    // multiway intersections are narrow.
    {
        let m = 400 / scale.min(2);
        let db = spoke_triangle(m);
        results.push(run_shape(
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
        results.push(run_shape(
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
        results.push(run_shape(
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
        "{:<10} {:>6} {:>6} {:>5} {:>8} {:>5} | {:>10} {:>11} {:>7}",
        "shape", "nodes", "edges", "atoms", "answers", "elim", "naive", "pipeline", "x"
    );
    for r in &results {
        println!(
            "{:<10} {:>6} {:>6} {:>5} {:>8} {:>5} | {:>8.3}ms {:>9.3}ms {:>6.2}x",
            r.shape,
            r.nodes,
            r.edges,
            r.atoms,
            r.answers,
            r.eliminated_vars,
            r.naive_ms,
            r.pipeline_ms,
            r.naive_ms / r.pipeline_ms,
        );
    }

    if results.iter().any(|r| r.elimination.is_some()) {
        println!(
            "\n{:<14} {:>24} {:>24} {:>7}",
            "elimination", "off min/p50/max", "on min/p50/max", "x"
        );
        for r in &results {
            let Some(ab) = &r.elimination else { continue };
            let fmt = |s: &[f64; 3]| format!("{:.2}/{:.2}/{:.2}ms", s[0], s[1], s[2]);
            println!(
                "{:<14} {:>24} {:>24} {:>6.2}x",
                r.shape,
                fmt(&ab.off),
                fmt(&ab.on),
                ab.off[1] / ab.on[1]
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
    json.push_str(&format!(",\n  \"env\": {}", env_fingerprint()));
    json.push_str(",\n  \"shapes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let elimination = match &r.elimination {
            Some(ab) => format!(
                ", \"elimination_off_ms\": [{:.4}, {:.4}, {:.4}], \
                 \"elimination_on_ms\": [{:.4}, {:.4}, {:.4}], \
                 \"elimination_speedup\": {:.2}",
                ab.off[0],
                ab.off[1],
                ab.off[2],
                ab.on[0],
                ab.on[1],
                ab.on[2],
                ab.off[1] / ab.on[1]
            ),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"atoms\": {}, \
             \"answers\": {}, \"eliminated_vars\": {}, \"contracted_vars\": {}, \
             \"peeled_vars\": {}, \"naive_ms\": {:.4}, \
             \"pipeline_ms\": {:.4}, \"pipeline_speedup\": {:.2}, \
             \"intersection_seeks\": {}{}}}{}\n",
            r.shape,
            r.nodes,
            r.edges,
            r.atoms,
            r.answers,
            r.eliminated_vars,
            r.contracted_vars,
            r.peeled_vars,
            r.naive_ms,
            r.pipeline_ms,
            r.naive_ms / r.pipeline_ms,
            r.intersection_seeks,
            elimination,
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
