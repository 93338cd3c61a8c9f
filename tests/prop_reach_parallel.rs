//! Equivalence properties of the frontier engine.
//!
//! Sharding the level-synchronous `SyncSearch` is a pure optimization:
//! over random start tuples and random / grid / label-dense databases,
//!
//! 1. the sharded search must return identical tuple sets for 1 and 4
//!    workers, with sharding forced on every level (serial threshold 0),
//!    in both directions, and
//! 2. routing the same sharded expansions through explicitly pinned
//!    [`WorkerPool`]s — a 1-worker pool (the submitter does all the
//!    helping) vs a 4-worker pool — must not change any result.
//!
//! Thread counts beyond the machine's cores are deliberate: correctness of
//! the shard/merge protocol may not depend on physical parallelism.

use cxrpq::automata::{parse_regex, Nfa};
use cxrpq::core::frontier::FrontierConfig;
use cxrpq::core::sync::{SyncSearch, SyncSpec};
use cxrpq::core::WorkerPool;
use cxrpq::graph::{Alphabet, GraphDb, NodeId};
use cxrpq::workloads::graphs::{grid_labeled, random_labeled};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 48 };

/// A small database of one of three shapes, plus a regex matched to its
/// alphabet.
fn db_and_pattern(seed: u64) -> (GraphDb, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let patterns = ["a*", "a*b", "(a|b)*", "a(a|b)*b", "(ab)*", "..", "_"];
    let pat = patterns[rng.random_range(0..patterns.len())].to_string();
    let db = match rng.random_range(0..3u32) {
        0 => {
            // Random sparse multigraph.
            let alpha = Arc::new(Alphabet::from_chars("ab"));
            let n = rng.random_range(2..30usize);
            random_labeled(alpha, n, rng.random_range(1..4 * n), seed ^ 0xa5a5)
        }
        1 => {
            // Grid: bounded degree, longer diameter.
            let alpha = Arc::new(Alphabet::from_chars("ab"));
            let side = rng.random_range(2..7usize);
            grid_labeled(alpha, side, side, seed ^ 0x5a5a)
        }
        _ => {
            // Label-dense: few nodes, many parallel arcs.
            let alpha = Arc::new(Alphabet::from_chars("abcdefgh"));
            let n = rng.random_range(2..10usize);
            random_labeled(alpha, n, rng.random_range(n..20 * n), seed ^ 0x3c3c)
        }
    };
    (db, pat)
}

fn nfa_of(db: &GraphDb, pattern: &str) -> Nfa {
    let mut a = db.alphabet().clone();
    Nfa::from_regex(&parse_regex(pattern, &mut a).unwrap())
}

/// Forced-parallel configuration: more workers than this container has
/// cores, sharding on every level.
fn forced_parallel() -> FrontierConfig {
    FrontierConfig::with_threads(4).with_serial_threshold(0)
}

/// A process-lifetime pool of exactly `N` workers, for pinned-pool runs.
fn pool_of_one() -> &'static WorkerPool {
    static POOL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(1))
}

fn pool_of_four() -> &'static WorkerPool {
    static POOL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn parallel_sync_equals_serial(seed in 0u64..1_000_000) {
        let (db, pat) = db_and_pattern(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3333);
        let n = db.node_count();
        let arity = rng.random_range(1..=3usize);
        // Half the groups carry a definition automaton, half are pure
        // equality (Σ* walkers).
        let def = (rng.random_range(0..2u32) == 0).then(|| nfa_of(&db, &pat));
        let spec = SyncSpec::equality_group(def, arity);
        let starts: Vec<NodeId> = (0..arity)
            .map(|_| NodeId(rng.random_range(0..n) as u32))
            .collect();
        let serial = SyncSearch::forward(&db, &spec)
            .with_config(FrontierConfig::serial())
            .run(&starts, None, None);
        let parallel = SyncSearch::forward(&db, &spec)
            .with_config(forced_parallel())
            .run(&starts, None, None);
        prop_assert_eq!(&serial, &parallel, "thread count changed SyncSearch (seed {})", seed);
        // Backward over the reversed spec must agree across thread counts
        // too (the solver's enumerate-sources path).
        let rev = spec.reversed();
        let serial_b = SyncSearch::backward(&db, &rev)
            .with_config(FrontierConfig::serial())
            .run(&starts, None, None);
        let parallel_b = SyncSearch::backward(&db, &rev)
            .with_config(forced_parallel())
            .run(&starts, None, None);
        prop_assert_eq!(&serial_b, &parallel_b, "backward sync mismatch (seed {})", seed);
    }

    #[test]
    fn pool_size_does_not_change_results(seed in 0u64..1_000_000) {
        let (db, pat) = db_and_pattern(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4444);
        // Same sharded expansion (4 shards, shard every level), routed
        // through explicitly pinned pools of different sizes. With one
        // worker the submitting thread runs most chunks itself via
        // help-while-wait; the merged result must be identical.
        let one = forced_parallel().with_pool(pool_of_one());
        let four = forced_parallel().with_pool(pool_of_four());
        let arity = rng.random_range(1..=3usize);
        let def = (rng.random_range(0..2u32) == 0).then(|| nfa_of(&db, &pat));
        let spec = SyncSpec::equality_group(def, arity);
        let n = db.node_count();
        let starts: Vec<NodeId> = (0..arity)
            .map(|_| NodeId(rng.random_range(0..n) as u32))
            .collect();
        let s1 = SyncSearch::forward(&db, &spec)
            .with_config(one)
            .run(&starts, None, None);
        let s4 = SyncSearch::forward(&db, &spec)
            .with_config(four)
            .run(&starts, None, None);
        prop_assert_eq!(&s1, &s4, "pool size changed SyncSearch (seed {})", seed);
    }
}
