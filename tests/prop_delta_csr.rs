//! Differential property test for the layered delta-CSR storage.
//!
//! A [`GraphDb`] grown through an arbitrary interleaving of streaming
//! mutations — `append` / `append_batch` / `append_node` / `compact`, with
//! duplicate arcs re-offered along the way — must be indistinguishable
//! from the same final graph frozen from scratch in one
//! [`GraphBuilder::freeze`]:
//!
//! - identical adjacency (edge sets, per-row merged runs, per-`(node,
//!   label)` runs, both directions, label statistics),
//! - identical product-reachability sets under random automata
//!   ([`reach_set`], both directions, every node),
//! - identical `answers()`/`boolean()` for random CRPQ and simple-CXRPQ
//!   instances under both the naive and the plan/prune/enumerate solver
//!   configurations,
//! - and a [`ReachCache`] consulted *between* the mutation steps (so its
//!   label-aware invalidation is exercised mid-stream) always agrees with
//!   a fresh uncached search against the current snapshot.

use cxrpq::automata::Nfa;
use cxrpq::core::reach::{reach_set, Direction, ReachCache};
use cxrpq::core::{
    Crpq, CrpqEvaluator, Cxrpq, Evaluate, GraphPattern, Request, SimpleEvaluator, SolveOptions,
};
use cxrpq::graph::{Alphabet, GraphBuilder, GraphDb, NodeId, Symbol};
use cxrpq::workloads::rand_queries::{random_classical, random_simple, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 10 } else { 40 };

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_chars("abc"))
}

fn random_edges(
    rng: &mut StdRng,
    syms: &[Symbol],
    nodes: usize,
    count: usize,
) -> Vec<(NodeId, Symbol, NodeId)> {
    (0..count)
        .map(|_| {
            (
                NodeId(rng.random_range(0..nodes as u32)),
                syms[rng.random_range(0..syms.len())],
                NodeId(rng.random_range(0..nodes as u32)),
            )
        })
        .collect()
}

/// Grows a database via a random interleaving of appends and compactions
/// (watched by `watch` between steps), alongside the freeze-from-scratch
/// reference over the same nodes and edges.
fn build_pair(seed: u64, mut watch: impl FnMut(&GraphDb)) -> (GraphDb, GraphDb) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = alphabet();
    let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| alpha.sym(s)).collect();
    let n0 = rng.random_range(2..6usize); // frozen seed nodes
    let extra = rng.random_range(0..3usize); // appended nodes
    let n = n0 + extra;
    let base_count = rng.random_range(0..10usize);
    let base = random_edges(&mut rng, &syms, n0, base_count);
    let delta_count = rng.random_range(1..12usize);
    let delta = random_edges(&mut rng, &syms, n, delta_count);

    // Layered: freeze the seed, then stream the rest.
    let mut b = GraphBuilder::new(alpha.clone());
    for _ in 0..n0 {
        b.add_node();
    }
    for &(u, a, v) in &base {
        b.add_edge(u, a, v);
    }
    let mut layered = b.freeze();
    watch(&layered);
    for _ in 0..extra {
        layered.append_node();
    }
    let mut rest = delta.as_slice();
    while !rest.is_empty() {
        let k = rng.random_range(1..=rest.len());
        let (batch, tail) = rest.split_at(k);
        if rng.random_bool(0.5) {
            layered.append_batch(batch);
        } else {
            for &(u, a, v) in batch {
                layered.append(u, a, v);
            }
        }
        rest = tail;
        watch(&layered);
        // Re-offer an already-present arc: must be a no-op.
        if let Some(&(u, a, v)) = base.first() {
            assert!(!layered.append(u, a, v));
        }
        if rng.random_bool(0.3) {
            layered.compact();
            watch(&layered);
        }
    }
    if rng.random_bool(0.5) {
        layered.compact();
        watch(&layered);
    }

    // Reference: everything in one freeze.
    let mut b = GraphBuilder::new(alpha);
    for _ in 0..n {
        b.add_node();
    }
    for &(u, a, v) in base.iter().chain(delta.iter()) {
        b.add_edge(u, a, v);
    }
    (layered, b.freeze())
}

/// Structural equality of two databases (rows compared as sorted vecs —
/// a merged run orders base before delta within a label).
fn assert_same_adjacency(layered: &GraphDb, oneshot: &GraphDb) {
    assert_eq!(layered.node_count(), oneshot.node_count());
    assert_eq!(layered.edge_count(), oneshot.edge_count());
    let all_l: BTreeSet<_> = layered.edges().collect();
    let all_o: BTreeSet<_> = oneshot.edges().collect();
    assert_eq!(all_l, all_o, "edge sets diverge");
    assert_eq!(layered.label_edge_counts(), oneshot.label_edge_counts());
    let sorted = |run: cxrpq::graph::EdgeRun<'_>| {
        let mut v = run.to_vec();
        v.sort_unstable();
        v
    };
    for u in layered.nodes() {
        assert_eq!(sorted(layered.out_edges(u)), sorted(oneshot.out_edges(u)));
        assert_eq!(sorted(layered.in_edges(u)), sorted(oneshot.in_edges(u)));
        for &a in &[0, 1, 2].map(|i| Symbol(i as u32)) {
            assert_eq!(
                sorted(layered.successors_with(u, a)),
                sorted(oneshot.successors_with(u, a)),
                "successors_with({u:?}, {a:?})"
            );
            assert_eq!(
                sorted(layered.predecessors_with(u, a)),
                sorted(oneshot.predecessors_with(u, a)),
                "predecessors_with({u:?}, {a:?})"
            );
        }
        let runs_l: Vec<_> = layered
            .out_label_runs(u)
            .map(|(s, r)| (s, sorted(r)))
            .collect();
        let runs_o: Vec<_> = oneshot
            .out_label_runs(u)
            .map(|(s, r)| (s, sorted(r)))
            .collect();
        assert_eq!(runs_l, runs_o, "out_label_runs({u:?})");
    }
}

/// A random graph pattern over `vars` node variables with `edges` edges
/// labelled by component indices `0..edges`.
fn random_pattern(rng: &mut StdRng, vars: usize, edges: usize) -> GraphPattern<usize> {
    let mut pattern = GraphPattern::new();
    let nodes: Vec<_> = (0..vars).map(|i| pattern.node(&format!("n{i}"))).collect();
    for i in 0..edges {
        let s = nodes[rng.random_range(0..nodes.len())];
        let t = nodes[rng.random_range(0..nodes.len())];
        pattern.add_edge(s, i, t);
    }
    pattern
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn interleaved_appends_equal_one_freeze(seed in 0u64..100_000) {
        let (layered, oneshot) = build_pair(seed, |_| {});
        assert_same_adjacency(&layered, &oneshot);

        // Reach sets under random automata, every node, both directions.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1ab1e);
        for _ in 0..3 {
            let nfa = Nfa::from_regex(&random_classical(&mut rng, 3, 2));
            for u in layered.nodes() {
                for dir in [Direction::Forward, Direction::Backward] {
                    prop_assert_eq!(
                        reach_set(&layered, &nfa, u, dir, None),
                        reach_set(&oneshot, &nfa, u, dir, None),
                        "reach diverges from {:?}", u
                    );
                }
            }
        }
    }

    #[test]
    fn solver_agrees_on_layered_and_oneshot(seed in 0u64..100_000) {
        let (layered, oneshot) = build_pair(seed, |_| {});
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);

        // Random CRPQ under both solver configurations.
        let pat_edges = rng.random_range(2..=3usize);
        let pattern = random_pattern(&mut rng, 3, pat_edges)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Crpq::new(pattern, vec![out0, out1]);
        let ev = CrpqEvaluator::new(&q);
        for opts in [SolveOptions::naive(), SolveOptions::pipeline().projected()] {
            let ans_l = ev.run(&layered, Request::Answers, &opts).value.into_tuples();
            let ans_o = ev.run(&oneshot, Request::Answers, &opts).value.into_tuples();
            prop_assert_eq!(ans_l, ans_o, "CRPQ answers diverge");
            prop_assert_eq!(
                ev.run(&layered, Request::Boolean, &opts).value.into_bool(),
                ev.run(&oneshot, Request::Boolean, &opts).value.into_bool(),
                "CRPQ boolean diverges"
            );
        }

        // Random simple CXRPQ (equality groups drive the synchronized
        // product search over merged runs).
        let shape = QueryShape { dims: 2, vars: 2, sigma: 2, alt_prob: 0.0 };
        let cx = random_simple(&mut rng, &shape);
        let pattern = random_pattern(&mut rng, 3, shape.dims);
        let out0 = pattern.node_var("n0").unwrap();
        let q = Cxrpq::from_parts(pattern, cx, vec![out0]);
        let ev = SimpleEvaluator::new(&q).expect("generated queries are simple");
        let ans_l = ev.run(&layered, Request::Answers, &SolveOptions::pipeline()).value.into_tuples();
        let ans_o = ev.run(&oneshot, Request::Answers, &SolveOptions::pipeline()).value.into_tuples();
        prop_assert_eq!(ans_l, ans_o, "CXRPQ answers diverge");
    }

    #[test]
    fn reach_cache_agrees_mid_stream(seed in 0u64..100_000) {
        // Query a long-lived cache between every mutation step: its
        // label-aware invalidation must never serve a stale fill.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcac4e);
        let nfa = Nfa::from_regex(&random_classical(&mut rng, 3, 2));
        let mut cache = ReachCache::new(nfa.clone());
        build_pair(seed, |db| {
            for u in db.nodes() {
                let cached = cache.targets(db, u);
                let fresh = reach_set(db, &nfa, u, Direction::Forward, None);
                assert_eq!(*cached, fresh, "stale cache fill from {u:?}");
                let cached = cache.sources(db, u);
                let fresh = reach_set(
                    db,
                    &cxrpq::core::reach::reverse_nfa(&nfa),
                    u,
                    Direction::Backward,
                    None,
                );
                assert_eq!(*cached, fresh, "stale cache source fill from {u:?}");
            }
        });
    }
}
