//! End-to-end witness extraction tests: every engine must return
//! certificates that verify structurally (paths exist in the database and
//! connect the morphism) and semantically (the matching words are a
//! conjunctive match, checked by the independent backtracking oracle).

use cxrpq::core::{
    BoundedEvaluator, Crpq, CrpqEvaluator, CxrpqBuilder, Ecrpq, EcrpqEvaluator, Evaluate,
    GraphPattern, RegularRelation, SimpleEvaluator, VsfEvaluator,
};
use cxrpq::graph::{Alphabet, GraphBuilder, GraphDb, NodeId};
use cxrpq::xregex::matcher::MatchConfig;
use cxrpq_automata::{parse_regex, Nfa};
use std::collections::HashMap;
use std::sync::Arc;

fn db_with_words(words: &[(&str, &str)]) -> (GraphDb, HashMap<String, NodeId>) {
    let alpha = Arc::new(Alphabet::from_chars("abcd"));
    let mut db = GraphBuilder::new(alpha);
    let mut names: HashMap<String, NodeId> = HashMap::new();
    for (pair, w) in words {
        let (s, t) = pair.split_once('>').unwrap();
        let sn = *names.entry(s.to_string()).or_insert_with(|| db.add_node());
        let tn = *names.entry(t.to_string()).or_insert_with(|| db.add_node());
        let word = db.alphabet().parse_word(w).unwrap();
        db.add_word_path(sn, &word, tn);
    }
    (db.freeze(), names)
}

#[test]
fn crpq_witness_words_match_edge_regexes() {
    let (db, names) = db_with_words(&[("u>v", "aab"), ("v>w", "cd")]);
    let mut alpha = db.alphabet().clone();
    let q = Crpq::build(
        &[("x", "a+b", "y"), ("y", "c(d|a)", "z")],
        &["x", "z"],
        &mut alpha,
    )
    .unwrap();
    let w = CrpqEvaluator::new(&q).witness(&db).expect("match exists");
    w.verify(&db, q.pattern()).unwrap();
    // Each path's label is accepted by the corresponding edge automaton.
    for (i, (_, re, _)) in q.pattern().edges().iter().enumerate() {
        assert!(Nfa::from_regex(re).accepts(w.paths[i].label()), "edge {i}");
    }
    assert!(w.images.is_empty());
    // witness_for respects the pinned tuple.
    let wf = CrpqEvaluator::new(&q)
        .witness_for(&db, &[names["u"], names["w"]])
        .expect("tuple is an answer");
    assert_eq!(wf.paths[0].start(), names["u"]);
    assert_eq!(wf.paths[1].end(), names["w"]);
    // And rejects a non-answer.
    assert!(CrpqEvaluator::new(&q)
        .witness_for(&db, &[names["v"], names["w"]])
        .is_none());
}

#[test]
fn simple_witness_reports_variable_images() {
    // z{(a|b)+} c z on a path ab·c·ab: ψ(z) = ab.
    let (db, names) = db_with_words(&[("u>m", "abc"), ("m>v", "ab")]);
    let mut alpha = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut alpha)
        .edge("x", "z{(a|b)+}cz", "y")
        .output(&["x", "y"])
        .build()
        .unwrap();
    let ev = SimpleEvaluator::new(&q).unwrap();
    let w = ev
        .witness_for(&db, &[names["u"], names["v"]])
        .expect("match exists");
    q.certifies(&db, &w, &MatchConfig::default()).unwrap();
    assert_eq!(w.paths.len(), 1);
    assert_eq!(db.alphabet().render_word(w.paths[0].label()), "abcab");
    let img: HashMap<&str, String> = w
        .images
        .iter()
        .map(|(x, v)| (x.as_str(), db.alphabet().render_word(v)))
        .collect();
    assert_eq!(img["z"], "ab");
}

#[test]
fn simple_witness_chain_variables_get_images() {
    // y{a+} / x{y} / x: the chain x{y} is eliminated internally but the
    // witness still reports ψ(x) = ψ(y).
    let (db, names) = db_with_words(&[("p>q", "aa"), ("r>s", "aa"), ("t>w", "aa")]);
    let mut alpha = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut alpha)
        .edge("p", "y{a+}", "q")
        .edge("r", "x{y}", "s")
        .edge("t", "x", "w")
        .output(&["p", "q", "r", "s", "t", "w"])
        .build()
        .unwrap();
    let ev = SimpleEvaluator::new(&q).unwrap();
    let w = ev
        .witness_for(
            &db,
            &[
                names["p"], names["q"], names["r"], names["s"], names["t"], names["w"],
            ],
        )
        .expect("match exists");
    q.certifies(&db, &w, &MatchConfig::default()).unwrap();
    let img: HashMap<&str, String> = w
        .images
        .iter()
        .map(|(x, v)| (x.as_str(), db.alphabet().render_word(v)))
        .collect();
    assert_eq!(img["y"], "aa");
    assert_eq!(img["x"], "aa");
}

#[test]
fn vsf_witness_on_figure_2_g2_triangle() {
    let alpha = Arc::new(Alphabet::from_chars("abcd"));
    let mut db = GraphBuilder::new(alpha);
    let v1 = db.add_node();
    let v2 = db.add_node();
    let v3 = db.add_node();
    let aa = db.alphabet().parse_word("aa").unwrap();
    let cd = db.alphabet().parse_word("cd").unwrap();
    db.add_word_path(v1, &aa, v2);
    db.add_word_path(v2, &cd, v3);
    db.add_word_path(v3, &aa, v1);
    let db = db.freeze();
    let mut alpha2 = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut alpha2)
        .edge("v1", "x{aa|b}", "v2")
        .edge("v2", "y{(c|d)*}", "v3")
        .edge("v3", "x|y", "v1")
        .output(&["v1", "v2", "v3"])
        .build()
        .unwrap();
    let ev = VsfEvaluator::new(&q).unwrap();
    let w = ev
        .witness_for(&db, &[v1, v2, v3])
        .expect("triangle matches");
    // Structural validity against the original pattern.
    w.verify(&db, q.pattern()).unwrap();
    // Semantic: the words form a conjunctive match of the original query.
    let words = w.matching_words();
    assert!(q
        .conjunctive()
        .is_match(&words, &MatchConfig::default())
        .unwrap()
        .is_some());
    // The return path must equal the x-word (aa).
    assert_eq!(db.alphabet().render_word(w.paths[2].label()), "aa");
}

#[test]
fn bounded_witness_images_are_the_guessed_mapping() {
    let (db, names) = db_with_words(&[("u>m", "abc"), ("m>v", "ab")]);
    let mut alpha = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut alpha)
        .edge("x", "z{(a|b)+}cz", "y")
        .output(&["x", "y"])
        .build()
        .unwrap();
    let ev = BoundedEvaluator::new(&q, 2);
    let w = ev
        .witness_for(&db, &[names["u"], names["v"]])
        .expect("k=2 suffices");
    q.certifies(&db, &w, &MatchConfig::bounded(2)).unwrap();
    let img: HashMap<&str, String> = w
        .images
        .iter()
        .map(|(x, v)| (x.as_str(), db.alphabet().render_word(v)))
        .collect();
    assert_eq!(img["z"], "ab");
    // k = 1 cannot witness the match at all.
    assert!(BoundedEvaluator::new(&q, 1)
        .witness_for(&db, &[names["u"], names["v"]])
        .is_none());
}

#[test]
fn ecrpq_witness_satisfies_the_relation() {
    // Equal-length relation: the two witnessed paths must have equal length.
    let (db, names) = db_with_words(&[("u>v", "aaa"), ("p>q", "bdb")]);
    let mut alpha = db.alphabet().clone();
    let mut pattern = GraphPattern::new();
    let x = pattern.node("x");
    let y = pattern.node("y");
    let u = pattern.node("u");
    let v = pattern.node("v");
    let r1 = parse_regex("a*", &mut alpha).unwrap();
    let r2 = parse_regex("(b|d)*", &mut alpha).unwrap();
    pattern.add_edge(x, r1, y);
    pattern.add_edge(u, r2, v);
    let q = Ecrpq::new(
        pattern,
        vec![(RegularRelation::equal_length(2), vec![0, 1])],
        vec![x, y, u, v],
    )
    .unwrap();
    let w = EcrpqEvaluator::new(&q)
        .witness_for(&db, &[names["u"], names["v"], names["p"], names["q"]])
        .expect("3 = 3");
    w.verify(&db, q.pattern()).unwrap();
    assert_eq!(w.paths[0].len(), w.paths[1].len());
    assert_eq!(w.paths[0].len(), 3);
}

#[test]
fn no_witness_when_no_match() {
    let (db, _) = db_with_words(&[("u>v", "ab")]);
    let mut alpha = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut alpha)
        .edge("x", "z{c+}z", "y")
        .build()
        .unwrap();
    assert!(SimpleEvaluator::new(&q).unwrap().witness(&db).is_none());
    assert!(BoundedEvaluator::new(&q, 3).witness(&db).is_none());
    assert!(VsfEvaluator::new(&q).unwrap().witness(&db).is_none());
}

#[test]
fn witness_render_mentions_images() {
    let (db, _) = db_with_words(&[("u>m", "abc"), ("m>v", "ab")]);
    let mut alpha = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut alpha)
        .edge("x", "z{(a|b)+}cz", "y")
        .build()
        .unwrap();
    let w = SimpleEvaluator::new(&q).unwrap().witness(&db).unwrap();
    let text = w.render(&db);
    assert!(text.contains("morphism:"));
    assert!(text.contains("z = \"ab\""));
}

/// Witnesses agree with boolean evaluation on a grid of planted instances:
/// witness() is Some iff boolean() — and when Some, it certifies.
#[test]
fn witness_existence_matches_boolean_across_engines() {
    // Queries are unanchored, so counterexamples must exclude *every*
    // sub-path — two-letter images pinned by the definition do that.
    let cases = [
        (
            vec![("u>m", "ab"), ("m>v", "d"), ("v>w", "ab")],
            "z{ab|ba}dz",
            true,
        ),
        (
            vec![("u>m", "ab"), ("m>v", "d"), ("v>w", "ba")],
            "z{ab|ba}dz",
            false,
        ),
        (vec![("u>v", "abab")], "z{ab}z", true),
        (vec![("u>v", "abba")], "z{ab}z", false),
    ];
    for (edges, pat, expect) in cases {
        let (db, _) = db_with_words(&edges);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", pat, "y")
            .build()
            .unwrap();
        let simple = SimpleEvaluator::new(&q).unwrap();
        assert_eq!(simple.boolean(&db), expect, "simple bool {pat}");
        let w = simple.witness(&db);
        assert_eq!(w.is_some(), expect, "simple witness {pat}");
        if let Some(w) = w {
            q.certifies(&db, &w, &MatchConfig::default()).unwrap();
        }
        let bounded = BoundedEvaluator::new(&q, 2);
        let wb = bounded.witness(&db);
        assert_eq!(wb.is_some(), expect, "bounded witness {pat}");
        if let Some(wb) = wb {
            q.certifies(&db, &wb, &MatchConfig::default()).unwrap();
        }
    }
}
