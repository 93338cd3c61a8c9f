//! Abort-safety property suite for the resource governor.
//!
//! For random instances of every query family that reduces to the shared
//! constraint solver (CRPQ, simple CXRPQ, ECRPQ), and for every solver
//! configuration (naive/pipeline × full/projected enumeration), aborting
//! the solve at an arbitrary checkpoint must be *safe*:
//!
//! 1. **Soundness** — the partial answer relation of an aborted run is a
//!    subset of the complete relation (aborts only under-approximate; no
//!    spurious tuples, ever).
//! 2. **Verdict** — an injected abort is reported as `Aborted(Injected)`,
//!    and a run whose governor never trips stays `Complete` with answers
//!    identical to the ungoverned run.
//! 3. **Hygiene** — re-solving ungoverned on the *same* evaluator after an
//!    abort returns exactly the fresh-solve relation (no partial cache
//!    stripe or stale state survives the abort).
//!
//! The abort points are exact: a dry governed run counts the checkpoints
//! the instance passes, then fault injection trips the governor at sampled
//! 1-based checkpoint indices across that range. Checkpoint totals are not
//! reproducible for projected solves (witness searches early-exit out of
//! hash-ordered reach sets), so an injection index beyond what a given run
//! reaches legitimately leaves the governor untripped — such runs must be
//! indistinguishable from ungoverned ones.

use cxrpq::core::{
    AbortReason, Crpq, CrpqEvaluator, Cxrpq, Ecrpq, EcrpqEvaluator, Evaluate, Governor,
    GraphPattern, RegularRelation, Request, SimpleEvaluator, SolveOptions, Verdict,
};
use cxrpq::graph::{Alphabet, GraphDb, NodeId};
use cxrpq::workloads::graphs::random_labeled;
use cxrpq::workloads::rand_queries::{random_classical, random_simple, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Debug builds pay ~10× on the product searches; keep CI-debug runs fast
/// and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 32 };

/// Abort points sampled per (instance, configuration) pair.
const INJECTIONS: usize = 3;

/// The solver configurations every family is probed under.
fn configurations() -> [SolveOptions; 4] {
    [
        SolveOptions::naive(),
        SolveOptions::naive().projected(),
        SolveOptions::pipeline(),
        SolveOptions::pipeline().projected(),
    ]
}

/// Drives the three properties for one evaluator (behind a closure so the
/// same instance is re-solved after aborts — the hygiene check).
fn assert_abort_safety(
    solve: &dyn Fn(&SolveOptions) -> BTreeSet<Vec<NodeId>>,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    for base in configurations() {
        let complete = solve(&base);

        // Dry governed run: counts checkpoints and must change nothing.
        let dry = Arc::new(Governor::unlimited());
        let governed = solve(&base.clone().governed(dry.clone()));
        prop_assert_eq!(dry.verdict(), Verdict::Complete);
        prop_assert_eq!(
            &governed,
            &complete,
            "an untripped governor changed the answers"
        );

        let seen = dry.checkpoints_seen();
        if seen == 0 {
            continue;
        }
        for probe in 0..INJECTIONS {
            // Always cover the first and last checkpoint; sample between.
            let k = match probe {
                0 => 1,
                1 => seen,
                _ => rng.random_range(1..=seen),
            };
            let gov = Arc::new(Governor::unlimited().with_injection(k));
            let partial = solve(&base.clone().governed(gov.clone()));
            if gov.abort_reason().is_none() {
                // Projected witness searches early-exit out of hash-ordered
                // reach sets, so the amount of governed work varies run to
                // run and a high injection index can overshoot this run's
                // checkpoint count. The governor then never trips and the
                // run must be indistinguishable from an ungoverned solve.
                prop_assert_eq!(gov.verdict(), Verdict::Complete);
                prop_assert_eq!(
                    &partial,
                    &complete,
                    "untripped injection at {}/{} changed the answers",
                    k,
                    seen
                );
                continue;
            }
            prop_assert_eq!(gov.abort_reason(), Some(AbortReason::Injected));
            prop_assert!(
                partial.is_subset(&complete),
                "abort at checkpoint {}/{} produced tuples outside the \
                 complete relation: {:?} ⊄ {:?}",
                k,
                seen,
                partial,
                complete
            );
            // Hygiene: the same evaluator, ungoverned again, recovers the
            // full relation — nothing partial leaked into a cache.
            let repeat = solve(&base);
            prop_assert_eq!(
                &repeat,
                &complete,
                "re-solve after abort at checkpoint {}/{} diverged from the \
                 fresh solve",
                k,
                seen
            );
        }
    }
    Ok(())
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

fn random_db(seed: u64, salt: u64) -> GraphDb {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    random_labeled(alpha, 5, 12, seed ^ salt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn crpq_aborts_are_safe(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(seed, 0xab57);
        let edges = rng.random_range(2..=3usize);
        let pattern = random_pattern(&mut rng, 3, edges)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Crpq::new(pattern, vec![out0, out1]);
        let ev = CrpqEvaluator::new(&q);
        assert_abort_safety(&|o| ev.run(&db, Request::Answers, o).value.into_tuples(), &mut rng)?;
    }

    #[test]
    fn simple_cxrpq_aborts_are_safe(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = QueryShape { dims: 2, vars: 2, sigma: 2, alt_prob: 0.0 };
        let cx = random_simple(&mut rng, &shape);
        let pattern = random_pattern(&mut rng, 3, shape.dims);
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Cxrpq::from_parts(pattern, cx, vec![out0, out1]);
        let db = random_db(seed, 0xc04b_1d22);
        let ev = SimpleEvaluator::new(&q).expect("generated queries are simple");
        assert_abort_safety(&|o| ev.run(&db, Request::Answers, o).value.into_tuples(), &mut rng)?;
    }

    #[test]
    fn ecrpq_aborts_are_safe(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(seed, 0xeca1);
        let pattern = random_pattern(&mut rng, 3, 3)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let rel = if rng.random_bool(0.5) {
            RegularRelation::equality(2)
        } else {
            RegularRelation::equal_length(2)
        };
        let out0 = pattern.node_var("n0").unwrap();
        let out1 = pattern.node_var("n1").unwrap();
        let q = Ecrpq::new(pattern, vec![(rel, vec![0, 1])], vec![out0, out1])
            .expect("well-formed relation tuple");
        let ev = EcrpqEvaluator::new(&q);
        assert_abort_safety(&|o| ev.run(&db, Request::Answers, o).value.into_tuples(), &mut rng)?;
    }

    /// Boolean early-exit under injected aborts: `false` may stand for an
    /// unexplored `true` (sound under-approximation), but `true` must imply
    /// a genuine match — and the verdict must say which case applies.
    #[test]
    fn boolean_aborts_never_invent_matches(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(seed, 0xb001);
        let pattern = random_pattern(&mut rng, 3, 2)
            .map_labels(|_, _| random_classical(&mut rng, 2, 2));
        let out0 = pattern.node_var("n0").unwrap();
        let q = Crpq::new(pattern, vec![out0]);
        let ev = CrpqEvaluator::new(&q);
        let complete = ev.run(&db, Request::Boolean, &SolveOptions::early_exit()).value.into_bool();
        let dry = Arc::new(Governor::unlimited());
        let _ = ev.run(&db, Request::Boolean, &SolveOptions::early_exit().governed(dry.clone()));
        let seen = dry.checkpoints_seen().max(1);
        for _ in 0..INJECTIONS {
            let k = rng.random_range(1..=seen);
            let gov = Arc::new(Governor::unlimited().with_injection(k));
            let opts = SolveOptions::early_exit().governed(gov.clone());
            let found = ev.run(&db, Request::Boolean, &opts).value.into_bool();
            if found {
                prop_assert!(complete, "aborted boolean() invented a match");
            }
            if gov.is_aborted() {
                prop_assert_eq!(gov.verdict(), Verdict::Aborted(AbortReason::Injected));
            } else {
                prop_assert_eq!(found, complete);
            }
        }
    }
}

/// Deterministic exhaustive sweep on one small instance: abort at *every*
/// checkpoint index (not a sample) and check soundness plus post-abort
/// hygiene at each — the strongest form of the property, kept cheap by a
/// fixed 6-node database.
#[test]
fn exhaustive_abort_sweep_on_fixed_instance() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = random_labeled(alpha, 6, 14, 42);
    let mut a2 = db.alphabet().clone();
    let q = Crpq::build(
        &[("x", "a(a|b)*", "y"), ("y", "b+", "z")],
        &["x", "z"],
        &mut a2,
    )
    .unwrap();
    let ev = CrpqEvaluator::new(&q);
    let opts = SolveOptions::pipeline();
    let complete = ev.run(&db, Request::Answers, &opts).value.into_tuples();

    let dry = Arc::new(Governor::unlimited());
    let _ = ev.run(&db, Request::Answers, &opts.clone().governed(dry.clone()));
    let seen = dry.checkpoints_seen();
    assert!(seen > 0, "vacuous sweep: no checkpoints passed");

    for k in 1..=seen {
        let gov = Arc::new(Governor::unlimited().with_injection(k));
        let partial = ev
            .run(&db, Request::Answers, &opts.clone().governed(gov.clone()))
            .value
            .into_tuples();
        assert_eq!(gov.abort_reason(), Some(AbortReason::Injected), "k={k}");
        assert!(partial.is_subset(&complete), "k={k}: partial ⊄ complete");
        let repeat = ev.run(&db, Request::Answers, &opts).value.into_tuples();
        assert_eq!(repeat, complete, "k={k}: post-abort re-solve diverged");
    }
}
