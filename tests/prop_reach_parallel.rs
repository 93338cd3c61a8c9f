//! Equivalence properties of the frontier engine.
//!
//! The batched multi-source wavefront (`reach_all`) and the sharded
//! level-synchronous searches are pure optimizations: over random source
//! sets and random / grid / label-dense databases,
//!
//! 1. `reach_all` must equal one `reach_set` per source (both directions),
//! 2. `reach_all` pinned to 1 worker must equal a forced-parallel run
//!    (4 workers, serial threshold 0, so every level shards), and
//! 3. the sharded `SyncSearch` must return identical tuple sets for 1 and
//!    4 workers, again with sharding forced on every level, and
//! 4. routing the same sharded expansions through explicitly pinned
//!    [`WorkerPool`]s — a 1-worker pool (the submitter does all the
//!    helping) vs a 4-worker pool — must not change any result.
//!
//! Every row these runs return, in both directions and at every worker
//! count, must be strictly ascending (the one reach-row invariant).
//!
//! Thread counts beyond the machine's cores are deliberate: correctness of
//! the shard/merge protocol may not depend on physical parallelism.

use cxrpq::automata::{parse_regex, Nfa};
use cxrpq::core::frontier::FrontierConfig;
use cxrpq::core::reach::{reach_all_with, reach_set, reverse_nfa, Direction, ReachRow};
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

/// Random multiset of sources — duplicates and >64 sizes exercise the
/// membership stripes.
fn random_sources(rng: &mut StdRng, db: &GraphDb) -> Vec<NodeId> {
    let n = db.node_count();
    let k = rng.random_range(1..=(2 * n).min(90));
    (0..k)
        .map(|_| NodeId(rng.random_range(0..n) as u32))
        .collect()
}

/// Whether every row is strictly ascending (sorted and duplicate-free).
fn ascending(rows: &[ReachRow]) -> bool {
    rows.iter().all(|r| r.windows(2).all(|w| w[0] < w[1]))
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
    fn batched_reach_equals_per_source(seed in 0u64..1_000_000) {
        let (db, pat) = db_and_pattern(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1111);
        let nfa = nfa_of(&db, &pat);
        let rev = reverse_nfa(&nfa);
        let sources = random_sources(&mut rng, &db);
        let serial = FrontierConfig::serial();
        let fwd = reach_all_with(&db, &nfa, &sources, Direction::Forward, None, &serial);
        let bwd = reach_all_with(&db, &rev, &sources, Direction::Backward, None, &serial);
        prop_assert!(ascending(&fwd) && ascending(&bwd), "unsorted row (seed {})", seed);
        for (i, &u) in sources.iter().enumerate() {
            prop_assert_eq!(
                &fwd[i],
                &reach_set(&db, &nfa, u, Direction::Forward, None),
                "forward mismatch at source {} of {:?} (seed {})", i, u, seed
            );
            prop_assert_eq!(
                &bwd[i],
                &reach_set(&db, &rev, u, Direction::Backward, None),
                "backward mismatch at source {} of {:?} (seed {})", i, u, seed
            );
        }
    }

    #[test]
    fn parallel_reach_equals_serial(seed in 0u64..1_000_000) {
        let (db, pat) = db_and_pattern(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2222);
        let nfa = nfa_of(&db, &pat);
        let sources = random_sources(&mut rng, &db);
        let serial = reach_all_with(
            &db, &nfa, &sources, Direction::Forward, None, &FrontierConfig::serial(),
        );
        let parallel = reach_all_with(
            &db, &nfa, &sources, Direction::Forward, None, &forced_parallel(),
        );
        prop_assert!(ascending(&serial) && ascending(&parallel), "unsorted row (seed {})", seed);
        prop_assert_eq!(serial, parallel, "thread count changed reach_all (seed {})", seed);
        let rev = reverse_nfa(&nfa);
        let serial = reach_all_with(
            &db, &rev, &sources, Direction::Backward, None, &FrontierConfig::serial(),
        );
        let parallel = reach_all_with(
            &db, &rev, &sources, Direction::Backward, None, &forced_parallel(),
        );
        prop_assert!(ascending(&serial) && ascending(&parallel), "unsorted row (seed {})", seed);
        prop_assert_eq!(serial, parallel, "thread count changed backward reach_all (seed {})", seed);
    }

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
        let nfa = nfa_of(&db, &pat);
        let sources = random_sources(&mut rng, &db);
        // Same sharded expansion (4 shards, shard every level), routed
        // through explicitly pinned pools of different sizes. With one
        // worker the submitting thread runs most chunks itself via
        // help-while-wait; the merged result must be identical.
        let one = forced_parallel().with_pool(pool_of_one());
        let four = forced_parallel().with_pool(pool_of_four());
        let r1 = reach_all_with(&db, &nfa, &sources, Direction::Forward, None, &one);
        let r4 = reach_all_with(&db, &nfa, &sources, Direction::Forward, None, &four);
        prop_assert!(ascending(&r1) && ascending(&r4), "unsorted row (seed {})", seed);
        prop_assert_eq!(r1, r4, "pool size changed reach_all (seed {})", seed);

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
