//! Differential property test for pinned-pair checks.
//!
//! When the semi-join pass meets an edge whose endpoint domains are both
//! singletons `{u}`, `{v}`, it decides the edge with one bidirectional
//! search ([`ReachCache::connects_pair`]) instead of `u`'s forward
//! closure. On random graphs grown through delta-overlay appends and
//! compactions, and random regexes (ε-accepting ones, `.`/`_` wildcards,
//! automata past 64 Thompson states, `u == v` pairs among them), that
//! verdict must equal
//!
//! - membership of `v` in `u`'s forward closure ([`reach_set`]), and
//! - the naive solver's `check` (no planning, no pruning, so no pair
//!   search at all),
//!
//! for the CRPQ, simple CXRPQ and ECRPQ front-ends alike. A fixed wide
//! check is then aborted at every checkpoint (each abort is
//! `Aborted(Injected)`, memoizes nothing, and an ungoverned re-check is
//! clean), and the same pair searched twice gives the same verdict,
//! [`ReachStats`](cxrpq::core::reach::ReachStats) count and checkpoint
//! count.

use cxrpq::automata::{parse_regex, Nfa, Regex};
use cxrpq::core::reach::{reach_set, Direction, ReachCache};
use cxrpq::core::{
    parse_query, AbortReason, Crpq, CrpqEvaluator, Ecrpq, EcrpqEvaluator, Governor, GraphPattern,
    RegularRelation, SimpleEvaluator, SolveOptions, Verdict,
};
use cxrpq::graph::{Alphabet, GraphBuilder, GraphDb, NodeId};
use cxrpq::workloads::graphs::random_labeled;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 12 } else { 48 };

/// Pairs checked per case (the first is always a `u == v` pair).
const PAIRS: usize = 8;

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_chars("abc"))
}

/// A random regex over `abc`, the `.` (any symbol) and `_` (ε)
/// wildcards, alternation, concatenation, `*` and `+`.
fn random_regex(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.random_bool(0.3) {
        return ["a", "b", "c", ".", "_"][rng.random_range(0..5usize)].to_string();
    }
    let inner = random_regex(rng, depth - 1);
    match rng.random_range(0..5u32) {
        0 => format!("({inner}|{})", random_regex(rng, depth - 1)),
        1 => format!("{inner}{}", random_regex(rng, depth - 1)),
        2 => format!("({inner})*"),
        3 => format!("({inner})+"),
        _ => format!("{inner}({})*", random_regex(rng, depth - 1)),
    }
}

/// A regex for one case: usually small, sometimes ε-accepting by
/// construction, sometimes repeated past 64 Thompson states.
fn case_regex(rng: &mut StdRng) -> String {
    let base = random_regex(rng, 3);
    match rng.random_range(0..4u32) {
        0 => format!("({base})*"),
        1 => {
            let parts: Vec<String> = (0..8)
                .map(|_| format!("({base}|{})", random_regex(rng, 1)))
                .collect();
            parts.concat()
        }
        _ => base,
    }
}

fn regex(db: &GraphDb, text: &str) -> Regex {
    let mut a = db.alphabet().clone();
    parse_regex(text, &mut a).expect("generated regexes parse")
}

/// A random graph grown past its freeze: appends into the delta overlay,
/// sometimes a compaction, then more appends (so the final snapshot has
/// both base and delta arcs).
fn grown_db(rng: &mut StdRng, nodes: usize, arcs: usize) -> GraphDb {
    let mut db = random_labeled(alphabet(), nodes, arcs, rng.random_range(0..u64::MAX));
    let syms: Vec<_> = ["a", "b", "c"].map(|s| db.alphabet().sym(s)).to_vec();
    for round in 0..2 {
        for _ in 0..nodes {
            let u = NodeId(rng.random_range(0..nodes as u32));
            let v = NodeId(rng.random_range(0..nodes as u32));
            db.append(u, syms[rng.random_range(0..3usize)], v);
        }
        if round == 0 && rng.random_bool(0.5) {
            db.compact();
        }
    }
    db
}

fn pairs(rng: &mut StdRng, nodes: usize) -> Vec<(NodeId, NodeId)> {
    let node = |rng: &mut StdRng| NodeId(rng.random_range(0..nodes as u32));
    let mut out = Vec::with_capacity(PAIRS);
    let u = node(rng);
    out.push((u, u));
    while out.len() < PAIRS {
        let (u, v) = (node(rng), node(rng));
        out.push((u, v));
    }
    out
}

/// The options of an engine's `check`: planned, pruned, early exit —
/// the path that routes singleton pairs to the bidirectional search.
fn pruned() -> SolveOptions {
    SolveOptions::early_exit().projected()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn pair_search_agrees_with_closure_and_naive_crpq(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.random_range(4..=24usize);
        let db = grown_db(&mut rng, nodes, 2 * nodes);
        let text = case_regex(&mut rng);
        let re = regex(&db, &text);
        let nfa = Nfa::from_regex(&re);
        let mut a2 = db.alphabet().clone();
        let q = Crpq::build(&[("x", text.as_str(), "y")], &["x", "y"], &mut a2).unwrap();
        let ev = CrpqEvaluator::new(&q);
        let self_loop = Crpq::build(&[("x", text.as_str(), "x")], &["x"], &mut a2).unwrap();
        let ev_loop = CrpqEvaluator::new(&self_loop);
        for (u, v) in pairs(&mut rng, nodes) {
            let bidirectional = ReachCache::new(nfa.clone()).connects_pair(&db, u, v);
            let closure = reach_set(&db, &nfa, u, Direction::Forward, None).contains(&v);
            let naive = ev.check_opts(&db, &[u, v], &SolveOptions::naive()).0;
            let planned = ev.check_opts(&db, &[u, v], &pruned()).0;
            prop_assert_eq!(bidirectional, closure, "{} from {:?} to {:?}", &text, u, v);
            prop_assert_eq!(naive, closure, "naive check of {} on {:?}", &text, (u, v));
            prop_assert_eq!(planned, closure, "pruned check of {} on {:?}", &text, (u, v));
            if u == v {
                let naive = ev_loop.check_opts(&db, &[u], &SolveOptions::naive()).0;
                let planned = ev_loop.check_opts(&db, &[u], &pruned()).0;
                prop_assert_eq!(naive, closure, "naive self-loop {}", &text);
                prop_assert_eq!(planned, closure, "pruned self-loop {}", &text);
            }
        }
    }

    #[test]
    fn pair_search_agrees_under_simple_cxrpq(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.random_range(4..=16usize);
        let db = grown_db(&mut rng, nodes, 2 * nodes);
        let text = case_regex(&mut rng);
        let query = format!("ans(x, y) <- (x) -[ {text} ]-> (y), (y) -[ z{{a|b}}cz ]-> (w)");
        let mut a2 = db.alphabet().clone();
        let q = parse_query(&query, &mut a2).unwrap();
        let ev = SimpleEvaluator::new(&q).expect("the query is simple");
        for (u, v) in pairs(&mut rng, nodes) {
            let naive = ev.check_opts(&db, &[u, v], &SolveOptions::naive()).0;
            let planned = ev.check_opts(&db, &[u, v], &pruned()).0;
            prop_assert_eq!(planned, naive, "{} on {:?}", &query, (u, v));
        }
    }

    #[test]
    fn pair_search_agrees_under_ecrpq(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.random_range(4..=16usize);
        let db = grown_db(&mut rng, nodes, 2 * nodes);
        let text = case_regex(&mut rng);
        let mut pattern = GraphPattern::new();
        let [x, y, w1, w2] = ["x", "y", "w1", "w2"].map(|n| pattern.node(n));
        pattern.add_edge(x, regex(&db, &text), y);
        pattern.add_edge(x, regex(&db, "(a|b)+"), w1);
        pattern.add_edge(y, regex(&db, "(b|c)+"), w2);
        let q = Ecrpq::new(pattern, vec![(RegularRelation::equal_length(2), vec![1, 2])], vec![x, y])
            .expect("well-formed relation tuple");
        let ev = EcrpqEvaluator::new(&q);
        for (u, v) in pairs(&mut rng, nodes) {
            let naive = ev.check_opts(&db, &[u, v], &SolveOptions::naive()).0;
            let planned = ev.check_opts(&db, &[u, v], &pruned()).0;
            prop_assert_eq!(planned, naive, "{} on {:?}", &text, (u, v));
        }
    }
}

/// A fixed wide check: a connected pair of `a(b|c)*a` whose search expands
/// dozens of nodes.
fn wide_check() -> (GraphDb, Nfa, NodeId, NodeId) {
    let db = random_labeled(alphabet(), 400, 1200, 11);
    let nfa = Nfa::from_regex(&regex(&db, "a(b|c)*a"));
    let mut best: Option<(usize, NodeId, NodeId)> = None;
    for u in (0..40).map(NodeId) {
        for v in (0..40).map(NodeId) {
            let mut cache = ReachCache::new(nfa.clone());
            if cache.connects_pair(&db, u, v) && best.is_none_or(|b| cache.stats.states() > b.0) {
                best = Some((cache.stats.states(), u, v));
            }
        }
    }
    let (expanded, u, v) = best.expect("some pair is connected");
    assert!(
        expanded >= 20,
        "the fixed check is not wide: {expanded} nodes"
    );
    (db, nfa, u, v)
}

#[test]
fn every_checkpoint_abort_memoizes_nothing_and_rechecks_clean() {
    let (db, nfa, u, v) = wide_check();
    let dry = Arc::new(Governor::unlimited());
    let mut cache = ReachCache::new(nfa.clone());
    cache.govern(Some(dry.clone()));
    assert!(cache.connects_pair(&db, u, v));
    let span = dry.checkpoints_seen();
    assert!(span > 1);
    for k in 1..=span {
        let gov = Arc::new(Governor::unlimited().with_injection(k));
        let mut cache = ReachCache::new(nfa.clone());
        cache.govern(Some(gov.clone()));
        assert!(
            !cache.connects_pair(&db, u, v),
            "k={k}: abort reads `false`"
        );
        assert_eq!(
            gov.verdict(),
            Verdict::Aborted(AbortReason::Injected),
            "k={k}"
        );
        // Nothing was memoized: the ungoverned re-check searches again
        // (its count grows) and finds the pair.
        cache.govern(None);
        let before = cache.stats.states();
        assert!(cache.connects_pair(&db, u, v), "k={k}: dirty re-check");
        assert!(
            cache.stats.states() > before,
            "k={k}: an aborted verdict was memoized"
        );
        assert!(cache.connects(&db, u, v), "k={k}: enumerator lookup");
    }

    // The same sweep through the solver front-end.
    let mut a2 = db.alphabet().clone();
    let q = Crpq::build(&[("x", "a(b|c)*a", "y")], &["x", "y"], &mut a2).unwrap();
    let ev = CrpqEvaluator::new(&q);
    let dry = Arc::new(Governor::unlimited());
    assert!(
        ev.check_opts(&db, &[u, v], &pruned().governed(dry.clone()))
            .0
    );
    for k in 1..=dry.checkpoints_seen() {
        let gov = Arc::new(Governor::unlimited().with_injection(k));
        let (out, _) = ev.check_outcome(&db, &[u, v], &pruned().governed(gov.clone()));
        assert_eq!(
            out.verdict,
            Verdict::Aborted(AbortReason::Injected),
            "k={k}"
        );
        assert!(!out.value, "k={k}: an aborted check never invents a match");
        assert!(
            ev.check_opts(&db, &[u, v], &pruned()).0,
            "k={k}: clean re-check"
        );
    }
}

#[test]
fn same_pair_twice_gives_same_verdict_stats_and_checkpoints() {
    let (db, nfa, u, v) = wide_check();
    let run = |pair: (NodeId, NodeId)| {
        let gov = Arc::new(Governor::unlimited());
        let mut cache = ReachCache::new(nfa.clone());
        cache.govern(Some(gov.clone()));
        let hit = cache.connects_pair(&db, pair.0, pair.1);
        (
            hit,
            cache.stats.states(),
            gov.checkpoints_seen(),
            gov.steps_taken(),
        )
    };
    for pair in [(u, v), (v, u), (u, u)] {
        assert_eq!(run(pair), run(pair), "{pair:?}");
    }
    // A repeat on one cache is a memo hit: no further search.
    let gov = Arc::new(Governor::unlimited());
    let mut cache = ReachCache::new(nfa);
    cache.govern(Some(gov.clone()));
    let first = cache.connects_pair(&db, u, v);
    let (states, checkpoints) = (cache.stats.states(), gov.checkpoints_seen());
    assert_eq!(cache.connects_pair(&db, u, v), first);
    assert_eq!(cache.stats.states(), states);
    assert_eq!(gov.checkpoints_seen(), checkpoints);
}

#[test]
fn automata_past_64_states_take_the_same_path() {
    let db = random_labeled(alphabet(), 60, 200, 5);
    let text = "((a|b)c|.)".repeat(12);
    let nfa = Nfa::from_regex(&regex(&db, &text));
    assert!(nfa.state_count() > 64, "{} states", nfa.state_count());
    for u in (0..60).step_by(7).map(NodeId) {
        let closure = reach_set(&db, &nfa, u, Direction::Forward, None);
        for v in (0..60).map(NodeId) {
            let hit = ReachCache::new(nfa.clone()).connects_pair(&db, u, v);
            assert_eq!(hit, closure.contains(&v), "{u:?} -> {v:?}");
        }
    }
    // A path spelling a 102-symbol word: the searches can only meet in
    // states far past the first mask word.
    let word = "abc".repeat(34);
    let mut b = GraphBuilder::new(alphabet());
    let w = b.alphabet().parse_word(&word).unwrap();
    let path: Vec<NodeId> = (0..=w.len()).map(|_| b.add_node()).collect();
    for (i, &a) in w.iter().enumerate() {
        b.add_edge(path[i], a, path[i + 1]);
    }
    let line = b.freeze();
    let nfa = Nfa::from_regex(&regex(&line, &word));
    assert!(nfa.state_count() > 128, "{} states", nfa.state_count());
    let last = path.len() - 1;
    assert!(ReachCache::new(nfa.clone()).connects_pair(&line, path[0], path[last]));
    assert!(!ReachCache::new(nfa.clone()).connects_pair(&line, path[0], path[last - 1]));
    assert!(!ReachCache::new(nfa).connects_pair(&line, path[1], path[last]));
}
