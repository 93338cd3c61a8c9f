//! `serve_ingest`: the `serve` request path run in-process, with writes
//! beside the reads.
//!
//! One `GraphDb` and one `QueryCache` with `CacheConfig::default()`; every
//! request goes through `QueryCache::answers_governed` under a fresh
//! unlimited governor, as the TCP front end does it (which is left out:
//! its round trips add a scheduling stall unrelated to the layers here).
//! The stream mixes a Zipf-skewed hot set of query texts (with whitespace
//! variants that normalize to one key), never-repeating fresh queries
//! that fill and evict the LRU, append batches (most on a label no hot
//! query reads, so cached answers survive; some on hot labels, so they are
//! invalidated and re-evaluated through the plan-hit path) and periodic
//! compactions.

use crate::load::{load, GraphSource, Loaded};
use crate::ops::{min_rounds, Counts, Samples};
use crate::reference::{join, rpq_pairs, Atom, Re, RefGraph};
use crate::trace::Tracer;
use crate::util::{rss_peak_mb, Rng};
use crate::{Outcome, SETUP_REPEATS};
use cxrpq_core::{
    parse_query, AutoEvaluator, CacheConfig, CacheOutcome, EvalOptions, Governor, QueryCache,
};
use cxrpq_graph::{read_graph, write_graph, Alphabet, GraphDb, NodeId, Symbol};
use cxrpq_workloads::graphs::random_labeled;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 10_000;
const EDGES: usize = 30_000;
const LOG_SHARE: f64 = 0.05;
const REQUESTS_PER_ROUND: usize = 1200;
/// Share of requests that are never-repeating fresh queries.
const FRESH_SHARE: f64 = 0.2;
/// An append batch after every this many requests.
const APPEND_EVERY: usize = 150;
/// Arcs per append batch.
const BATCH: usize = 32;
/// Of the append batches of a round, these (by position) write hot labels.
const HOT_APPENDS: [usize; 2] = [2, 6];
/// A compaction after every this many append batches.
const COMPACT_EVERY: usize = 4;
/// Zipf exponent of the hot set.
const ZIPF_S: f64 = 1.1;
/// The label no hot query reads.
const COLD: &str = "e";

/// Query templates: `X`, `Y`, `Z` are the node variables, renamed per
/// fresh query so its text (and cache key) never repeats. The first
/// [`HOT`] are the hot set, in Zipf rank order; their answer sets stay
/// far below the cache's 64 KiB answer budget, so each is cached.
pub const TEMPLATES: [&str; 8] = [
    "ans(X) <- (X) -[ abcd ]-> (Y)",
    "ans(X) <- (X) -[ abc ]-> (Y), (Y) -[ d ]-> (X)",
    "ans(X, Y, Z) <- (X) -[ a ]-> (Y), (Y) -[ b ]-> (Z), (Z) -[ c ]-> (X)",
    "ans(X, Y) <- (X) -[ ab ]-> (Y), (Y) -[ cd ]-> (X)",
    "ans(X) <- (X) -[ z{ab}(z)+ ]-> (Y)",
    "ans(X) <- (X) -[ z{cd}(z)+ ]-> (Y)",
    "ans(X) <- (X) -[ (ab)+c ]-> (Y)",
    "ans(X, Y) <- (X) -[ ab ]-> (Y), (X) -[ cd ]-> (Y)",
];
const HOT: usize = 7;
/// Templates of fresh queries: ones with (almost) no answers, so the
/// cache's memory, and the run's peak, level off once the LRU is full.
const FRESH_TEMPLATES: [usize; 4] = [1, 2, 3, 7];

/// The text of template `t` with variable suffix `tag`, in whitespace
/// variant `variant` (all variants normalize to one cache key).
pub fn text(t: usize, tag: &str, variant: usize) -> String {
    let base = TEMPLATES[t]
        .replace('X', &format!("x{tag}"))
        .replace('Y', &format!("y{tag}"))
        .replace('Z', &format!("z{tag}"));
    match variant {
        0 => base,
        1 => base.replace(", ", " ,  ").replace(" <- ", "  <-  "),
        _ => format!("# again\n{}\n", base.replace("), (", "),\n    (")),
    }
}

#[derive(Clone, Copy)]
enum Event {
    Request {
        template: usize,
        variant: usize,
        /// A fresh query: the template under variable names no earlier
        /// request used.
        fresh: bool,
    },
    Append {
        hot: bool,
    },
    Compact,
}

/// The events of every round, a pure function of the seed. Rounds repeat
/// the same sequence (fresh queries get new names each time, appends new
/// arcs), so each position sees the same kind of cache outcome in every
/// round and its median latency is well defined. Every seed gets the same
/// requests in a different order: each fresh template an equal share of
/// the fresh requests, each hot template its Zipf share of the rest, each
/// whitespace variant its share of a template's requests.
fn round_events(seed: u64) -> Vec<Event> {
    let mut rng = Rng::fork(seed, 1000);
    let fresh = (REQUESTS_PER_ROUND as f64 * FRESH_SHARE).round() as usize;
    let mut requests: Vec<Event> = (0..fresh)
        .map(|i| Event::Request {
            template: FRESH_TEMPLATES[i % FRESH_TEMPLATES.len()],
            variant: 0,
            fresh: true,
        })
        .collect();
    let hot = REQUESTS_PER_ROUND - fresh;
    let weights: Vec<f64> = (1..=HOT).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut quota: Vec<usize> = weights
        .iter()
        .map(|w| (w / total * hot as f64) as usize)
        .collect();
    // Each share was rounded down; the top ranks take what is left over.
    let left = hot - quota.iter().sum::<usize>();
    for q in &mut quota[..left] {
        *q += 1;
    }
    for (template, &n) in quota.iter().enumerate() {
        requests.extend((0..n).map(|j| Event::Request {
            template,
            variant: [0, 0, 0, 1, 1, 2][j % 6],
            fresh: false,
        }));
    }
    for i in (1..requests.len()).rev() {
        requests.swap(i, rng.below(i + 1));
    }
    let mut events = Vec::new();
    let mut appends = 0;
    for (i, ev) in requests.into_iter().enumerate() {
        events.push(ev);
        if (i + 1) % APPEND_EVERY == 0 {
            events.push(Event::Append {
                hot: HOT_APPENDS.contains(&appends),
            });
            appends += 1;
            if appends % COMPACT_EVERY == 0 {
                events.push(Event::Compact);
            }
        }
    }
    events
}

/// The arcs of one append batch.
fn batch(rng: &mut Rng, db: &GraphDb, hot: bool) -> Vec<(NodeId, Symbol, NodeId)> {
    let alphabet = db.alphabet();
    let hot_labels: Vec<Symbol> = alphabet
        .symbols()
        .filter(|&s| alphabet.name(s) != COLD)
        .collect();
    let cold = alphabet.sym(COLD);
    (0..BATCH)
        .map(|_| {
            let label = if hot {
                hot_labels[rng.below(hot_labels.len())]
            } else {
                cold
            };
            let n = db.node_count();
            (
                NodeId(rng.below(n) as u32),
                label,
                NodeId(rng.below(n) as u32),
            )
        })
        .collect()
}

fn eval_opts() -> EvalOptions {
    // The options `serve` builds for a request without overrides.
    EvalOptions {
        bounded_k: 3,
        force: None,
        governor: None,
        plan_seed: None,
    }
}

/// What the stream did, for the checks and the metrics.
pub struct Stream {
    /// Each request position's median latency over the rounds.
    pub latencies_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub appended: usize,
    pub ingest_edges_per_s: f64,
    /// Every arc the stream appended (duplicates included).
    pub arcs: Vec<(NodeId, Symbol, NodeId)>,
    /// Governor counters of the first round's requests.
    pub steps: u64,
    pub checkpoints: u64,
    pub wrong: Vec<String>,
    pub overhead_pct: Option<f64>,
}

/// Runs whole rounds of the stream until `seconds` have passed, or
/// exactly `rounds` rounds when that is given. `between` runs after each
/// round but the last, with the round count; its time is not measured.
pub fn stream(
    seed: u64,
    db: &mut GraphDb,
    cache: &QueryCache,
    seconds: f64,
    rounds: Option<usize>,
    tr: &mut Tracer,
    mut between: impl FnMut(&mut Tracer, usize),
) -> Stream {
    let traced = tr.is_on();
    let mut s = Stream {
        latencies_s: Vec::new(),
        attempted: 0,
        failed: 0,
        appended: 0,
        ingest_edges_per_s: 0.0,
        arcs: Vec::new(),
        steps: 0,
        checkpoints: 0,
        wrong: Vec::new(),
        overhead_pct: None,
    };
    let mut rng = Rng::fork(seed, 3);
    // Cold evaluations per (template, generation), and the last answers
    // each template was served.
    type Answers = Arc<BTreeSet<Vec<NodeId>>>;
    let mut cold: HashMap<(usize, u64), Answers> = HashMap::new();
    let mut last: HashMap<usize, (u64, Answers)> = HashMap::new();
    let events = round_events(seed);
    let mut samples = Samples::new(events.len());
    let mut measured = 0.0;
    let mut r = 0;
    while match rounds {
        Some(n) => r < n,
        None => r < min_rounds(traced) || measured < seconds,
    } {
        if r > 0 {
            tr.set_on(traced);
            between(tr, r);
        }
        let round = Instant::now();
        let traced_round = traced && r % 2 == 1;
        tr.set_on(traced_round);
        for (pos, &ev) in events.iter().enumerate() {
            match ev {
                Event::Append { hot } => {
                    let arcs = batch(&mut rng, db, hot);
                    let t = Instant::now();
                    let span = tr.enter("db.append_batch");
                    s.appended += db.append_batch(&arcs);
                    tr.exit(span);
                    samples.record(pos, traced_round, t.elapsed().as_secs_f64());
                    s.arcs.extend(arcs);
                }
                Event::Compact => {
                    let t = Instant::now();
                    let span = tr.enter("db.compact");
                    db.compact();
                    tr.exit(span);
                    samples.record(pos, traced_round, t.elapsed().as_secs_f64());
                }
                Event::Request {
                    template,
                    variant,
                    fresh,
                } => {
                    let tag = if fresh {
                        format!("{r}n{pos}")
                    } else {
                        String::new()
                    };
                    let q = text(template, &tag, variant);
                    s.attempted += 1;
                    tr.next_op();
                    let t0 = Instant::now();
                    let root = tr.enter("op.answers");
                    if tr.is_on() {
                        // The cache parses inside; the traced run times the
                        // parser on the same text beside it.
                        let span = tr.enter("query_text.parse");
                        let mut alphabet = db.alphabet().clone();
                        let parsed = parse_query(&q, &mut alphabet).is_ok();
                        tr.exit(span);
                        assert!(parsed, "request text parses");
                    }
                    let gov = Arc::new(Governor::unlimited());
                    let span = tr.enter("cache.request");
                    let served = cache.answers_governed(db, &q, &eval_opts(), gov.clone());
                    let outcome = served.as_ref().map(|a| a.outcome).ok();
                    tr.exit_as(
                        span,
                        outcome.map(|o| match o {
                            CacheOutcome::AnswerHit => "cache.answer_hit",
                            CacheOutcome::PlanHit => "cache.plan_hit",
                            CacheOutcome::Miss => "cache.miss",
                        }),
                    );
                    tr.exit(root);
                    let lat = t0.elapsed().as_secs_f64();
                    let served = match served {
                        Ok(a) if a.verdict.is_complete() => a,
                        Ok(_) => {
                            s.failed += 1;
                            eprintln!("failed request: {q:?} aborted under an unlimited governor");
                            continue;
                        }
                        Err(e) => {
                            s.failed += 1;
                            eprintln!("failed request: {q:?}: {e}");
                            continue;
                        }
                    };
                    samples.record(pos, traced_round, lat);
                    let generation = db.generation();
                    if r == 0 {
                        s.steps += gov.steps_taken();
                        s.checkpoints += gov.checkpoints_seen();
                        let want = cold
                            .entry((template, generation))
                            .or_insert_with(|| Arc::new(cold_answers(db, &text(template, "", 0))));
                        if *served.answers != **want {
                            s.wrong
                                .push(format!("served answers of {q:?} differ from a cold run"));
                        }
                    }
                    if let Some((gen, prev)) = last.get(&template) {
                        let ok = if *gen == generation {
                            Arc::ptr_eq(prev, &served.answers) || *prev == served.answers
                        } else {
                            prev.is_subset(&served.answers)
                        };
                        if !ok {
                            s.wrong
                                .push(format!("answers of {q:?} not monotone under appends"));
                        }
                    }
                    last.insert(template, (generation, served.answers.clone()));
                }
            }
        }
        measured += round.elapsed().as_secs_f64();
        r += 1;
    }
    tr.set_on(traced);
    let events = &events;
    let positions = |want: bool| {
        (0..events.len()).filter(move |&i| matches!(events[i], Event::Request { .. }) == want)
    };
    s.latencies_s = samples.of(positions(true));
    // Arcs added per round (a duplicate arc is skipped, so rounds differ
    // by a few) over the median time of a round's appends and compactions.
    s.ingest_edges_per_s =
        s.appended as f64 / r as f64 / samples.of(positions(false)).iter().sum::<f64>();
    if traced {
        s.overhead_pct = Some(samples.overhead_pct());
    }
    s
}

/// The query evaluated without the cache.
fn cold_answers(db: &GraphDb, q: &str) -> BTreeSet<Vec<NodeId>> {
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(q, &mut alphabet).expect("template parses");
    AutoEvaluator::with_options(&q, eval_opts())
        .expect("no forced engine")
        .answers(db)
        .value
}

/// The reference answers of template `t` on `g`, by product BFS and
/// nested-loop joins (string variables expanded to their finite images).
pub fn reference(t: usize, g: &RefGraph) -> BTreeSet<Vec<NodeId>> {
    let rel = |re: &str| rpq_pairs(g, &Re::parse(re));
    let sources = |r: HashSet<(u32, u32)>| -> BTreeSet<Vec<NodeId>> {
        r.into_iter().map(|(u, _)| vec![NodeId(u)]).collect()
    };
    match t {
        0 => sources(rel("abcd")),
        1 => {
            let (abc, d) = (rel("abc"), rel("d"));
            let atoms = [
                Atom {
                    src: 0,
                    rel: &abc,
                    dst: 1,
                },
                Atom {
                    src: 1,
                    rel: &d,
                    dst: 0,
                },
            ];
            join(2, &atoms, &[0])
        }
        2 => {
            let (a, b, c) = (rel("a"), rel("b"), rel("c"));
            let atoms = [
                Atom {
                    src: 0,
                    rel: &a,
                    dst: 1,
                },
                Atom {
                    src: 1,
                    rel: &b,
                    dst: 2,
                },
                Atom {
                    src: 2,
                    rel: &c,
                    dst: 0,
                },
            ];
            join(3, &atoms, &[0, 1, 2])
        }
        3 => {
            let (ab, cd) = (rel("ab"), rel("cd"));
            let atoms = [
                Atom {
                    src: 0,
                    rel: &ab,
                    dst: 1,
                },
                Atom {
                    src: 1,
                    rel: &cd,
                    dst: 0,
                },
            ];
            join(2, &atoms, &[0, 1])
        }
        4 => sources(rel("ab(ab)+")),
        5 => sources(rel("cd(cd)+")),
        6 => sources(rel("(ab)+c")),
        7 => {
            let (ab, cd) = (rel("ab"), rel("cd"));
            let atoms = [
                Atom {
                    src: 0,
                    rel: &ab,
                    dst: 1,
                },
                Atom {
                    src: 0,
                    rel: &cd,
                    dst: 1,
                },
            ];
            join(2, &atoms, &[0, 1])
        }
        _ => unreachable!("eight templates"),
    }
}

/// Loads the graph and sends the hot set, once each, through a fresh
/// cache.
fn setup(src: &GraphSource, tr: &mut Tracer) -> (Loaded, QueryCache) {
    let loaded = load(src, tr);
    let cache = QueryCache::new(CacheConfig::default());
    for t in 0..HOT {
        let gov = Arc::new(Governor::unlimited());
        cache
            .answers_governed(&loaded.db, &text(t, "", 0), &eval_opts(), gov)
            .expect("warm-up request succeeds");
    }
    (loaded, cache)
}

pub fn inputs(seed: u64) -> GraphSource {
    let mut rng = Rng::fork(seed, 4);
    let db = random_labeled(
        Arc::new(Alphabet::from_chars("abcde")),
        NODES,
        EDGES,
        rng.next_u64(),
    );
    GraphSource::split(&db, LOG_SHARE, &mut rng)
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let src = inputs(seed);
    let mut setup_s = Vec::new();
    let mut timed_setup = |tr: &mut Tracer| {
        let t = Instant::now();
        let state = setup(&src, tr);
        setup_s.push(t.elapsed().as_secs_f64());
        state
    };
    let (mut loaded, cache) = timed_setup(tr);
    // The stream writes to its graph, so the other set-ups, spread over
    // the run as in the other workloads, are timed and dropped.
    let s = stream(
        seed,
        &mut loaded.db,
        &cache,
        seconds,
        None,
        tr,
        |tr, round| {
            if round < SETUP_REPEATS {
                drop(timed_setup(tr));
            }
        },
    );
    let rss_mb = rss_peak_mb();
    let stats = cache.stats();
    let mut wrong = s.wrong.clone();
    wrong.extend(check_final(&src, &loaded, &cache, &s.arcs));
    Outcome {
        attempted: s.attempted,
        failed: s.failed,
        wrong,
        setup_s,
        latencies_s: s.latencies_s,
        ingest_edges_per_s: s.ingest_edges_per_s,
        rss_mb,
        counts: Counts {
            steps: s.steps,
            checkpoints: s.checkpoints,
            ..Counts::default()
        },
        cache: Some(stats),
        overhead_pct: s.overhead_pct,
    }
}

/// After the stream: every hot query served on the final graph equals the
/// reference, and the graph rebuilt through `write_graph`/`read_graph`
/// holds the same arcs and gives the same answers.
fn check_final(
    src: &GraphSource,
    loaded: &Loaded,
    cache: &QueryCache,
    arcs: &[(NodeId, Symbol, NodeId)],
) -> Vec<String> {
    let db = &loaded.db;
    let mut wrong = Vec::new();
    let mut g = src.reference(&loaded.names);
    for &(u, a, v) in arcs {
        g.add_edge(u.0, db.alphabet().name(a), v.0);
    }
    let (rebuilt, names) = read_graph(&write_graph(db)).expect("written graph reads back");
    // Rebuilt node ids may differ; map them back by name.
    let back: HashMap<NodeId, NodeId> = names
        .iter()
        .map(|(name, &id)| (id, loaded.names[name]))
        .collect();
    let edges = |d: &GraphDb, map: &dyn Fn(NodeId) -> NodeId| -> BTreeSet<(u32, String, u32)> {
        d.edges()
            .map(|(u, a, v)| (map(u).0, d.alphabet().name(a).to_string(), map(v).0))
            .collect()
    };
    let ingested = g.edge_set();
    if edges(db, &|v| v) != ingested {
        wrong.push("the graph does not hold the ingested arcs".to_string());
    }
    if edges(&rebuilt, &|v| back[&v]) != ingested {
        wrong.push("the rebuilt graph does not hold the ingested arcs".to_string());
    }
    for t in 0..TEMPLATES.len() {
        let gov = Arc::new(Governor::unlimited());
        let Ok(served) = cache.answers_governed(db, &text(t, "", 0), &eval_opts(), gov) else {
            wrong.push(format!("final request of template {t} failed"));
            continue;
        };
        if *served.answers != reference(t, &g) {
            wrong.push(format!("answers of template {t} differ from the reference"));
        }
        let again: BTreeSet<Vec<NodeId>> = cold_answers(&rebuilt, &text(t, "", 0))
            .into_iter()
            .map(|tuple| tuple.into_iter().map(|v| back[&v]).collect())
            .collect();
        if again != *served.answers {
            wrong.push(format!(
                "answers of template {t} differ on the rebuilt graph"
            ));
        }
    }
    wrong
}
