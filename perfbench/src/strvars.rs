//! `strvars`: the paper's string-variable fragments on small graphs.
//!
//! Simple queries (Lemma 3) with finite and starred variable images, a
//! cross-atom backreference, a vstar-free query (Lemma 7), a bounded-image
//! query (Theorem 6) and Figure 2's G3 on message networks, each asked as
//! `answers`, Boolean, `check(tuple)` and `witness`. The synchronized
//! product search, the vstar-free and bounded engines do nearly all the
//! work; graph loading and the cache are nearly idle.

use crate::load::{load, GraphSource, Loaded};
use crate::ops::{measure, Kind, Res, Spec};
use crate::reference::{join, rpq_from, rpq_pairs, words, Atom, Nfa, Re, RefGraph};
use crate::trace::Tracer;
use crate::util::Rng;
use crate::Outcome;
use cxrpq_core::parse_query;
use cxrpq_graph::{Alphabet, NodeId};
use cxrpq_workloads::{graphs::random_labeled, messages};
use cxrpq_xregex::matcher::MatchConfig;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Graphs answered in full (4 arcs per node): this many of each size.
/// Many small graphs rather than a few larger ones, so that no single
/// graph's shape moves a run's medians.
const ANSWER_SIZES: [usize; 5] = [12, 14, 16, 18, 20];
const ANSWER_COPIES: usize = 5;
/// The cross-atom query is answered in full up to this size; its cost
/// climbs steeply with the graph (tens of ms at 18 nodes, seconds at 60).
const CROSS_ATOM_ANSWERS_UP_TO: usize = 18;
/// Graphs asked only Boolean, check and witness requests.
const PROBE_SIZES: [usize; 6] = [30, 40, 60, 80, 100, 150];
const PROBE_COPIES: usize = 8;
/// Figure 2 message networks: population, noise messages. G3's answers
/// take 80–120 ms whatever the population (the ≤3 image enumeration
/// dominates); with 24 networks they are the 1.5% most expensive ops, so
/// the 99th percentile lies inside that one narrow class.
const NETWORKS: [(usize, usize); 24] = [(16, 32); 24];
/// Share of each graph's arcs delivered through the append log.
const LOG_SHARE: f64 = 0.5;
/// Image bound of the bounded engine (`EvalOptions::default().bounded_k`).
const K: usize = 3;

/// The string-variable queries over `{a, b, c}`.
pub const QUERIES: [&str; 5] = [
    // Lemma 3, finite image.
    "ans(x, y) <- (x) -[ z{(a|b)(a|b)}cz ]-> (y)",
    // Lemma 3, starred image context.
    "ans(x, y) <- (x) -[ z{a|b}(c)*z ]-> (y)",
    // Lemma 3, cross-atom backreference with an unbounded image.
    "ans(x, y) <- (x) -[ z{(a|b)+} ]-> (y), (y) -[ cz ]-> (x)",
    // Lemma 7, vstar-free.
    "ans(x, y) <- (x) -[ z{ab}(z|c) ]-> (y)",
    // Theorem 6, bounded image.
    "ans(x, y) <- (x) -[ z{ab}(z)+ ]-> (y)",
];

/// Figure 2, G3: covert channels in a message network.
pub const G3: &str = "ans(v1, v2) <- (v1) -[ x{..+} ]-> (v2), (v2) -[ y{..+} ]-> (v1), \
                      (v1) -[ (x|y)+ ]-> (m), (v2) -[ (x|y)+ ]-> (m)";

/// The inputs one seed makes.
pub struct Inputs {
    pub sources: Vec<GraphSource>,
    /// Message labels of each graph that is a message network.
    pub networks: Vec<Option<Vec<String>>>,
    pub specs: Vec<Spec>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::fork(seed, 1);
    let abc = Arc::new(Alphabet::from_chars("abc"));
    let mut sources = Vec::new();
    let mut networks = Vec::new();
    let mut sizes = Vec::new();
    let answer = ANSWER_SIZES.iter().flat_map(|&n| [n; ANSWER_COPIES]);
    let probe = PROBE_SIZES.iter().flat_map(|&n| [n; PROBE_COPIES]);
    for n in answer.chain(probe) {
        let db = random_labeled(abc.clone(), n, 4 * n, rng.next_u64());
        sources.push(GraphSource::split(&db, LOG_SHARE, &mut rng));
        networks.push(None);
        sizes.push(n);
    }
    for &(pop, noise) in &NETWORKS {
        let net = messages::generate(pop, 3, noise, 3, rng.next_u64());
        let labels = net
            .db
            .alphabet()
            .symbols()
            .map(|s| net.db.alphabet().name(s).to_string());
        networks.push(Some(labels.collect()));
        sizes.push(net.db.node_count());
        sources.push(GraphSource::split(&net.db, LOG_SHARE, &mut rng));
    }
    let mut specs = Vec::new();
    for (g, &n) in sizes.iter().enumerate() {
        let texts: &[&str] = if networks[g].is_some() {
            &[G3]
        } else {
            &QUERIES
        };
        let full = g < ANSWER_SIZES.len() * ANSWER_COPIES || networks[g].is_some();
        for text in texts {
            // The cross-atom query's Boolean and witness searches take up
            // to seconds on single graphs of this size, which would let a
            // few seeds dominate every figure; it runs on the small graphs.
            if !full && *text == QUERIES[2] {
                continue;
            }
            let mut pair = || vec![NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)];
            let mut kinds = vec![Kind::Boolean, Kind::Check(pair()), Kind::Witness];
            // One check per network: G3's check costs ~40 ms.
            if networks[g].is_none() {
                kinds.push(Kind::Check(pair()));
            }
            if full && (*text != QUERIES[2] || n <= CROSS_ATOM_ANSWERS_UP_TO) {
                kinds.insert(0, Kind::Answers);
            }
            for kind in kinds {
                specs.push(Spec {
                    graph: g,
                    text: (*text).to_string(),
                    kind,
                });
            }
        }
    }
    Inputs {
        sources,
        networks,
        specs,
    }
}

/// Loads every graph and warms up on the ops of the first graph of each
/// answered size and of the first network: one set-up.
fn setup(inp: &Inputs, tr: &mut Tracer) -> Vec<Loaded> {
    let graphs: Vec<Loaded> = inp.sources.iter().map(|s| load(s, tr)).collect();
    let first_network = inp.networks.iter().position(Option::is_some);
    let warm = inp.specs.iter().filter(|s| {
        (s.graph < ANSWER_SIZES.len() * ANSWER_COPIES && s.graph % ANSWER_COPIES == 0)
            || Some(s.graph) == first_network
    });
    for s in warm {
        crate::ops::run(&graphs[s.graph].db, &s.text, &s.kind, tr).expect("warm-up op succeeds");
    }
    graphs
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let inp = inputs(seed);
    measure(
        &inp.specs,
        &inp.sources,
        seconds,
        tr,
        |tr| setup(&inp, tr),
        |graphs, first| check(&inp, graphs, first),
    )
}

/// What the reference knows about one query on one graph: every answer
/// lies in `upper`, every tuple of `lower` is an answer (the two agree
/// when variable images are finite or bounded).
pub struct Expected {
    pub lower: HashSet<(u32, u32)>,
    pub upper: HashSet<(u32, u32)>,
}

fn exact(rel: HashSet<(u32, u32)>) -> Expected {
    Expected {
        lower: rel.clone(),
        upper: rel,
    }
}

fn union_of(g: &RefGraph, res: impl IntoIterator<Item = Re>) -> HashSet<(u32, u32)> {
    res.into_iter().flat_map(|re| rpq_pairs(g, &re)).collect()
}

fn as_set(answers: &BTreeSet<Vec<NodeId>>) -> HashSet<(u32, u32)> {
    answers.iter().map(|t| (t[0].0, t[1].0)).collect()
}

/// `(x, y)` with `x -[a]-> y` and `y -[b]-> x`.
fn back_and_forth(a: &HashSet<(u32, u32)>, b: &HashSet<(u32, u32)>) -> HashSet<(u32, u32)> {
    let atoms = [
        Atom {
            src: 0,
            rel: a,
            dst: 1,
        },
        Atom {
            src: 1,
            rel: b,
            dst: 0,
        },
    ];
    as_set(&join(2, &atoms, &[0, 1]))
}

/// The reference for query `qi` of [`QUERIES`], by expanding its string
/// variable into plain regular expressions.
pub fn expected(qi: usize, g: &RefGraph) -> Expected {
    let ab2 = words(&["a", "b"], 2, 2);
    match qi {
        0 => exact(union_of(
            g,
            ab2.iter()
                .map(|w| Re::Cat(vec![Re::word(w), Re::parse("c"), Re::word(w)])),
        )),
        1 => exact(union_of(
            g,
            ["a", "b"].map(|z| Re::parse(&format!("{z}c*{z}"))),
        )),
        2 => {
            let mut lower = HashSet::new();
            for w in words(&["a", "b"], 1, K) {
                let fwd = rpq_pairs(g, &Re::word(&w));
                let back = rpq_pairs(g, &Re::Cat(vec![Re::parse("c"), Re::word(&w)]));
                lower.extend(back_and_forth(&fwd, &back));
            }
            let upper = back_and_forth(
                &rpq_pairs(g, &Re::parse("(a|b)+")),
                &rpq_pairs(g, &Re::parse("c(a|b)+")),
            );
            Expected { lower, upper }
        }
        3 => exact(rpq_pairs(g, &Re::parse("ab(ab|c)"))),
        4 => exact(rpq_pairs(g, &Re::parse("ab(ab)+"))),
        _ => unreachable!("five queries"),
    }
}

/// Figure 2 G3 under images of length at most [`K`]: every choice of the
/// code words `x` and `y` from `labels`, joined by nested loops.
pub fn expected_g3(g: &RefGraph, labels: &[String]) -> Expected {
    let names: Vec<&str> = labels.iter().map(String::as_str).collect();
    let code = words(&names, 2, K);
    let rels: Vec<HashSet<(u32, u32)>> = code.iter().map(|w| rpq_pairs(g, &Re::word(w))).collect();
    let mut rel = HashSet::new();
    for (i, x) in code.iter().enumerate() {
        for (j, y) in code.iter().enumerate() {
            let reps = Nfa::new(
                &Re::Plus(Box::new(Re::Alt(vec![Re::word(x), Re::word(y)]))),
                g,
            );
            for (v1, v2) in back_and_forth(&rels[i], &rels[j]) {
                if rel.contains(&(v1, v2)) {
                    continue;
                }
                let from1 = rpq_from(g, &reps, v1, false);
                let from2 = rpq_from(g, &reps, v2, false);
                if from1.iter().zip(&from2).any(|(a, b)| *a && *b) {
                    rel.insert((v1, v2));
                }
            }
        }
    }
    exact(rel)
}

/// Checks every first-round result against the reference and against the
/// properties the method must have.
fn check(
    inp: &Inputs,
    graphs: &[Loaded],
    first: &[Option<(Res, cxrpq_core::EngineKind)>],
) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut memo: std::collections::HashMap<(usize, &str), Expected> = Default::default();
    let mut answers: std::collections::HashMap<(usize, &str), BTreeSet<Vec<NodeId>>> =
        Default::default();
    for (s, r) in inp.specs.iter().zip(first) {
        let Some((res, _)) = r else { continue };
        let key = (s.graph, s.text.as_str());
        let e = memo.entry(key).or_insert_with(|| {
            let g = inp.sources[s.graph].reference(&graphs[s.graph].names);
            match &inp.networks[s.graph] {
                Some(labels) => expected_g3(&g, labels),
                None => expected(
                    QUERIES.iter().position(|q| *q == s.text).expect("query"),
                    &g,
                ),
            }
        });
        let what = format!("{} on graph {}", s.text, s.graph);
        let db = &graphs[s.graph].db;
        match (&s.kind, res) {
            (Kind::Answers, Res::Answers(a)) => {
                let got = as_set(a);
                if !e.lower.is_subset(&got) || !got.is_subset(&e.upper) {
                    wrong.push(format!("answers of {what}"));
                }
                answers.insert(key, a.clone());
            }
            (Kind::Boolean, Res::Bool(b)) => {
                if (*b && e.upper.is_empty()) || (!*b && !e.lower.is_empty()) {
                    wrong.push(format!("Boolean of {what}"));
                }
            }
            (Kind::Check(t), Res::Bool(b)) => {
                let pair = (t[0].0, t[1].0);
                if (*b && !e.upper.contains(&pair)) || (!*b && e.lower.contains(&pair)) {
                    wrong.push(format!("check {pair:?} of {what}"));
                }
            }
            (Kind::Witness, Res::Witness(w)) => {
                if (w.is_some() && e.upper.is_empty()) || (w.is_none() && !e.lower.is_empty()) {
                    wrong.push(format!("witness presence of {what}"));
                }
                if let Some(w) = w {
                    let mut alphabet = db.alphabet().clone();
                    let q = parse_query(&s.text, &mut alphabet).expect("query parses");
                    if let Err(err) = q.certifies(db, w, &MatchConfig::default()) {
                        wrong.push(format!("witness of {what}: {err}"));
                    }
                }
            }
            _ => wrong.push(format!("result shape of {what}")),
        }
    }
    // Boolean and check must agree with the answers where both were asked.
    for (s, r) in inp.specs.iter().zip(first) {
        let (Some((Res::Bool(b), _)), Some(a)) = (r, answers.get(&(s.graph, s.text.as_str())))
        else {
            continue;
        };
        let agrees = match &s.kind {
            Kind::Boolean => *b != a.is_empty(),
            Kind::Check(t) => *b == a.contains(t),
            _ => true,
        };
        if !agrees {
            wrong.push(format!(
                "{:?} disagrees with answers of {} on graph {}",
                s.kind, s.text, s.graph
            ));
        }
    }
    wrong
}
