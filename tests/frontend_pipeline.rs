//! End-to-end front-end pipeline: text graph → text query → planner →
//! engine → witness → certification, plus round-trips of both text formats
//! and cross-engine agreement through the planner.

use cxrpq::core::engine::{AutoEvaluator, EngineKind, EvalOptions};
use cxrpq::core::query_text::{parse_query, render_query};
use cxrpq::core::{BoundedEvaluator, Evaluate, Request, SimpleEvaluator, VsfEvaluator};
use cxrpq::graph::{read_graph, write_graph};
use cxrpq::xregex::matcher::MatchConfig;

const GRAPH: &str = "\
alphabet a b c
edge u  a m1
edge m1 b m2
edge m2 c m3
edge m3 a m4
edge m4 b v
edge p  b q1
edge q1 a q2
edge q2 c q3
edge q3 a q4
edge q4 a w
";

#[test]
fn pipeline_text_to_certified_witness() {
    let (db, names) = read_graph(GRAPH).unwrap();
    let mut alphabet = db.alphabet().clone();
    let q = parse_query("ans(x, y) <- (x) -[ z{(a|b)(a|b)}cz ]-> (y)", &mut alphabet).unwrap();
    let auto = AutoEvaluator::new(&q);
    assert_eq!(auto.plan(), EngineKind::Simple);
    let answers = auto.answers(&db).value;
    // Only the u…v chain repeats its two-symbol prefix after c.
    assert!(answers.contains(&vec![names["u"], names["v"]]));
    assert!(!answers.contains(&vec![names["p"], names["w"]]));
    let w = auto.witness(&db).value.expect("match exists");
    q.certifies(&db, &w, &MatchConfig::default()).unwrap();
}

#[test]
fn graph_round_trip_preserves_query_results() {
    let (db, names) = read_graph(GRAPH).unwrap();
    let (db2, names2) = read_graph(&write_graph(&db)).unwrap();
    let mut alphabet = db.alphabet().clone();
    let q = parse_query("ans(x, y) <- (x) -[ z{(a|b)(a|b)}cz ]-> (y)", &mut alphabet).unwrap();
    let mut alphabet2 = db2.alphabet().clone();
    let q2 = parse_query(
        "ans(x, y) <- (x) -[ z{(a|b)(a|b)}cz ]-> (y)",
        &mut alphabet2,
    )
    .unwrap();
    let a1 = SimpleEvaluator::new(&q).unwrap().answers(&db);
    let a2 = SimpleEvaluator::new(&q2).unwrap().answers(&db2);
    // Compare through node names (ids may differ across parses).
    let render = |ans: &std::collections::BTreeSet<Vec<cxrpq::graph::NodeId>>,
                  db: &cxrpq::graph::GraphDb| {
        ans.iter()
            .map(|t| {
                t.iter()
                    .map(|&n| db.node_name(n))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(render(&a1, &db), render(&a2, &db2));
    assert_eq!(names.len(), names2.len());
}

#[test]
fn query_render_round_trip_preserves_answers() {
    let (db, _) = read_graph(GRAPH).unwrap();
    let mut alphabet = db.alphabet().clone();
    let text = "ans(x, y) <- (x) -[ z{(a|b)+}cz ]-> (y)";
    let q = parse_query(text, &mut alphabet).unwrap();
    let rendered = render_query(&q, &alphabet);
    let mut alphabet2 = db.alphabet().clone();
    let q2 = parse_query(&rendered, &mut alphabet2).unwrap();
    assert_eq!(
        SimpleEvaluator::new(&q).unwrap().answers(&db),
        SimpleEvaluator::new(&q2).unwrap().answers(&db)
    );
}

#[test]
fn planner_matches_forced_engines_on_shared_fragment() {
    let (db, _) = read_graph(GRAPH).unwrap();
    let mut alphabet = db.alphabet().clone();
    // A simple query is in every engine's domain: all must agree.
    let q = parse_query("ans(x, y) <- (x) -[ z{(a|b)+}cz ]-> (y)", &mut alphabet).unwrap();
    let reference = SimpleEvaluator::new(&q).unwrap().answers(&db);
    assert_eq!(VsfEvaluator::new(&q).unwrap().answers(&db), reference);
    // Image length is exactly 2 here, so ≤2-bounded evaluation coincides.
    assert_eq!(BoundedEvaluator::new(&q, 2).answers(&db), reference);
    for force in [EngineKind::Simple, EngineKind::Vsf, EngineKind::Bounded] {
        let auto = AutoEvaluator::with_options(
            &q,
            EvalOptions {
                bounded_k: 2,
                force: Some(force),
                governor: None,
                plan_seed: None,
            },
        )
        .unwrap();
        assert_eq!(auto.answers(&db).value, reference, "{force:?}");
    }
}

#[test]
fn parallel_bounded_in_pipeline() {
    let (db, names) = read_graph(GRAPH).unwrap();
    let mut alphabet = db.alphabet().clone();
    let q = parse_query("ans(x, y) <- (x) -[ z{(a|b)+}cz ]-> (y)", &mut alphabet).unwrap();
    let ev = BoundedEvaluator::new(&q, 2);
    let serial = ev.answers(&db);
    let opts = Request::Answers.default_options();
    for threads in [2, 4] {
        let parallel = ev.run_parallel(&db, Request::Answers, &opts, threads);
        assert_eq!(parallel.value.into_tuples(), serial);
    }
    assert!(serial.contains(&vec![names["u"], names["v"]]));
}
