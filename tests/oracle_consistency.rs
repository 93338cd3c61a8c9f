//! Property-based consistency tests between the executable semantics
//! (backtracking oracles, samplers) and the evaluation engines.

use cxrpq::core::{BoundedEvaluator, CxrpqBuilder, Evaluate, SimpleEvaluator, VsfEvaluator};
use cxrpq::graph::{Alphabet, GraphBuilder, NodeId, Symbol};
use cxrpq::workloads::rand_queries::{random_vstar_free, QueryShape};
use cxrpq::xregex::matcher::MatchConfig;
use cxrpq::xregex::normal_form::normal_form;
use cxrpq::xregex::sample::{sample_conjunctive_match, SampleConfig};
use cxrpq::xregex::specialize::{specialize, VarMapping};
use cxrpq_automata::Nfa;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn word_strategy(max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0u32..2, 0..=max_len)
        .prop_map(|v| v.into_iter().map(Symbol).collect())
}

/// Debug builds run the exponential oracles ~10× slower; keep CI-debug runs
/// fast and let release runs explore more of the space.
const CASES: u32 = if cfg!(debug_assertions) { 6 } else { 48 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Sampled conjunctive matches of random vstar-free queries are
    /// accepted by the normal form (language preservation, Theorem 4).
    /// The backtracking oracle is exponential; instances where it runs out
    /// of fuel are skipped (the oracle reports fuel exhaustion rather than
    /// answer unsoundly).
    #[test]
    fn normal_form_preserves_random_matches(seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cx = random_vstar_free(&mut rng, &QueryShape {
            dims: 2, vars: 2, sigma: 2, alt_prob: 0.25,
        });
        let (nf, _) = normal_form(&cx).unwrap();
        let cfg = SampleConfig { rep_continue: 0.4, max_reps: 2, free_image_max: 1 };
        let check = |hay: &cxrpq::xregex::ConjunctiveXregex, words: &[Vec<Symbol>]| {
            // None = oracle fuel exhausted → skip this direction.
            hay.try_is_match(words, &MatchConfig::default())
                .map(|r| r.is_some())
        };
        if let Some((words, _)) = sample_conjunctive_match(&cx, 2, &cfg, &mut rng) {
            if let Some(accepted) = check(&nf, &words) {
                prop_assert!(accepted, "normal form lost a sampled match");
            }
        }
        if let Some((words, _)) = sample_conjunctive_match(&nf, 2, &cfg, &mut rng) {
            if let Some(accepted) = check(&cx, &words) {
                prop_assert!(accepted, "normal form gained a match");
            }
        }
    }

    /// Lemma 10 specialization agrees with the pinned-mapping oracle on
    /// random words and random small mappings.
    #[test]
    fn specialization_agrees_with_pinned_oracle(
        seed in 0u64..3_000,
        w1 in word_strategy(4),
        w2 in word_strategy(4),
        img in word_strategy(2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cx = random_vstar_free(&mut rng, &QueryShape {
            dims: 2, vars: 1, sigma: 2, alt_prob: 0.4,
        });
        let x = cx.vars().var("x0").unwrap();
        let psi: VarMapping = [(x, img)].into_iter().collect();
        let via_beta = match specialize(&cx, &psi) {
            None => false,
            Some(regexes) => {
                Nfa::from_regex(&regexes[0]).accepts(&w1)
                    && Nfa::from_regex(&regexes[1]).accepts(&w2)
            }
        };
        let via_oracle = cx
            .is_match(&[w1, w2], &MatchConfig::pinned(psi))
            .unwrap()
            .is_some();
        prop_assert_eq!(via_beta, via_oracle);
    }

    /// The bounded evaluator agrees with the L^{≤k} matcher oracle on
    /// single-edge queries over path databases.
    #[test]
    fn bounded_engine_matches_string_oracle(word in word_strategy(7)) {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = if word.is_empty() { s } else { db.add_node() };
        if !word.is_empty() {
            db.add_word_path(s, &word, t);
        }
        let db = db.freeze();
        let mut a2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut a2)
            .edge("u", "x{(a|b)+}bx", "v")
            .output(&["u", "v"])
            .build()
            .unwrap();
        let engine = BoundedEvaluator::new(&q, 3).check(&db, &[s, t]);
        let (xr, vt) = cxrpq::xregex::parse_xregex("x{(a|b)+}bx", &mut db.alphabet().clone()).unwrap();
        let oracle = cxrpq::xregex::matcher::match_single(
            &xr, &word, vt.len(), &MatchConfig::bounded(3)).unwrap().is_some();
        prop_assert_eq!(engine, oracle);
    }
}

/// Deterministic cross-engine agreement: vsf vs bounded on small planted
/// databases (images in these queries never exceed 2, so CXRPQ^{≤2}
/// evaluation is exact for them).
#[test]
fn engines_agree_on_small_vsf_queries() {
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let mut rng = StdRng::seed_from_u64(77);
    let words = ["abab", "ab", "ba", "aabb", "bb", "aa"];
    let mut db = GraphBuilder::new(alpha);
    let mut _ends: Vec<(NodeId, NodeId)> = Vec::new();
    for w in words {
        let s = db.add_node();
        let t = db.add_node();
        let word = db.alphabet().parse_word(w).unwrap();
        db.add_word_path(s, &word, t);
        _ends.push((s, t));
    }
    let db = db.freeze();
    for round in 0..14 {
        let cx = random_vstar_free(
            &mut rng,
            &QueryShape {
                dims: 2,
                vars: 2,
                sigma: 2,
                alt_prob: 0.3,
            },
        );
        // Skip shapes whose synchronized product is exponential by design
        // (Theorem 2 is ExpSpace in combined complexity): a variable with
        // g occurrences costs |V|^g product states in the vsf engine.
        let occurrences_bounded = cx.vars().vars().all(|x| {
            let occ: usize = cx
                .components()
                .iter()
                .map(|c| c.def_count(x) + c.ref_count(x))
                .sum();
            occ <= 3
        });
        if !occurrences_bounded {
            continue;
        }
        let mut pattern = cxrpq::core::GraphPattern::new();
        let u = pattern.node("u");
        let v = pattern.node("v");
        let w = pattern.node("w");
        pattern.add_edge(u, 0usize, v);
        pattern.add_edge(v, 1usize, w);
        let q = cxrpq::core::Cxrpq::from_parts(pattern, cx, vec![]);
        let vsf = VsfEvaluator::new(&q).unwrap().boolean(&db);
        // The implications below hold for *every* k (⊨_{≤k} under-approximates
        // ⊨), so a small k keeps the test sound while staying fast.
        let bounded = BoundedEvaluator::new(&q, 2).boolean(&db);
        // vsf is exact; bounded is a lower bound; they agree when bounded
        // finds a match, and when vsf finds none.
        if bounded {
            assert!(vsf, "round {round}: bounded found a match vsf missed");
        }
        if !vsf {
            assert!(!bounded, "round {round}: impossible");
        }
    }
}

/// Simple-engine vs bounded-engine agreement on simple queries with small
/// witnesses.
#[test]
fn simple_engine_agrees_with_bounded() {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut db = GraphBuilder::new(alpha);
    for w in ["abcab", "aab", "cc", "abab", "bcb"] {
        let s = db.add_node();
        let t = db.add_node();
        let word = db.alphabet().parse_word(w).unwrap();
        db.add_word_path(s, &word, t);
    }
    let db = db.freeze();
    for pattern in ["z{(a|b)+}cz", "x{a+}bx", "z{ab}z", "a*z{b+}c"] {
        let mut a2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut a2)
            .edge("u", pattern, "v")
            .build()
            .unwrap();
        let simple = SimpleEvaluator::new(&q).unwrap().boolean(&db);
        let bounded = BoundedEvaluator::new(&q, 5).boolean(&db);
        assert_eq!(simple, bounded, "pattern {pattern}");
    }
}
