//! One op = one user request against a loaded graph: parse the query text,
//! plan it, evaluate it. Every op runs under a fresh unlimited governor,
//! whose step and checkpoint counters are the deterministic measure of the
//! work it did.

use crate::load::{GraphSource, Loaded, Replayer};
use crate::trace::Tracer;
use crate::util::{median, rss_peak_mb};
use crate::{Outcome, SETUP_REPEATS};
use cxrpq_core::{
    parse_query, AutoEvaluator, EngineKind, EvalOptions, Governor, PipelineStats, QueryWitness,
};
use cxrpq_graph::{GraphDb, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Debug)]
pub enum Kind {
    Answers,
    Boolean,
    Check(Vec<NodeId>),
    Witness,
}

impl Kind {
    fn span(&self) -> &'static str {
        match self {
            Kind::Answers => "op.answers",
            Kind::Boolean => "op.boolean",
            Kind::Check(_) => "op.check",
            Kind::Witness => "op.witness",
        }
    }
}

pub enum Res {
    Answers(BTreeSet<Vec<NodeId>>),
    Bool(bool),
    Witness(Option<QueryWitness>),
}

impl Res {
    /// Whether two runs of one op returned the same thing. Witnesses are
    /// compared by presence only: the simple engine picks a different
    /// (valid) witness from one call to the next, and the checks certify
    /// the first one.
    pub fn same_as(&self, other: &Res) -> bool {
        match (self, other) {
            (Res::Answers(a), Res::Answers(b)) => a == b,
            (Res::Bool(a), Res::Bool(b)) => a == b,
            (Res::Witness(a), Res::Witness(b)) => a.is_some() == b.is_some(),
            _ => false,
        }
    }
}

/// Work counters of one op.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub steps: u64,
    pub checkpoints: u64,
    pub prune_before: u64,
    pub prune_after: u64,
    pub rounds: u64,
    pub backtrack_steps: u64,
    pub intersection_seeks: u64,
    pub eliminated_vars: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.checkpoints += o.checkpoints;
        self.prune_before += o.prune_before;
        self.prune_after += o.prune_after;
        self.rounds += o.rounds;
        self.backtrack_steps += o.backtrack_steps;
        self.intersection_seeks += o.intersection_seeks;
        self.eliminated_vars += o.eliminated_vars;
    }

    fn pipeline(&mut self, p: &PipelineStats) {
        self.prune_before += p.total_before() as u64;
        self.prune_after += p.total_after() as u64;
        self.rounds += p.rounds as u64;
        self.backtrack_steps += p.backtrack_steps as u64;
        self.intersection_seeks += p.intersection_seeks as u64;
        self.eliminated_vars += p.eliminated_vars as u64;
    }
}

pub struct Done {
    pub res: Res,
    pub latency_s: f64,
    pub engine: EngineKind,
    pub counts: Counts,
}

fn engine_span(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Simple => "engine.simple",
        EngineKind::Vsf => "engine.vsf",
        EngineKind::Bounded => "engine.bounded",
    }
}

/// Runs one op, timing it end to end (tracing only adds spans around the
/// same calls).
pub fn run(db: &GraphDb, text: &str, kind: &Kind, tr: &mut Tracer) -> Result<Done, String> {
    tr.next_op();
    let t0 = Instant::now();
    let root = tr.enter(kind.span());
    let gov = Arc::new(Governor::unlimited());
    let span = tr.enter("query_text.parse");
    let mut alphabet = db.alphabet().clone();
    let parsed = parse_query(text, &mut alphabet);
    tr.exit(span);
    let q = parsed.map_err(|e| format!("query {text:?}: {e}"))?;
    let span = tr.enter("engine.plan");
    let opts = EvalOptions {
        governor: Some(gov.clone()),
        ..EvalOptions::default()
    };
    let planned = AutoEvaluator::with_options(&q, opts);
    tr.exit(span);
    let ev = planned.map_err(|e| format!("plan {text:?}: {e}"))?;
    let engine = ev.plan();
    let span = tr.enter("engine.eval");
    let (res, pipeline, verdict) = match kind {
        Kind::Answers => {
            let r = ev.answers(db);
            (Res::Answers(r.value), r.pipeline, r.verdict)
        }
        Kind::Boolean => {
            let r = ev.boolean(db);
            (Res::Bool(r.value), r.pipeline, r.verdict)
        }
        Kind::Check(t) => {
            let r = ev.check(db, t);
            (Res::Bool(r.value), r.pipeline, r.verdict)
        }
        Kind::Witness => {
            let r = ev.witness(db);
            (Res::Witness(r.value), r.pipeline, r.verdict)
        }
    };
    tr.exit_as(span, Some(engine_span(engine)));
    tr.exit(root);
    let latency_s = t0.elapsed().as_secs_f64();
    if !verdict.is_complete() {
        return Err(format!("{text:?} aborted under an unlimited governor"));
    }
    let mut counts = Counts {
        steps: gov.steps_taken(),
        checkpoints: gov.checkpoints_seen(),
        ..Counts::default()
    };
    if let Some(p) = &pipeline {
        counts.pipeline(p);
    }
    Ok(Done {
        res,
        latency_s,
        engine,
        counts,
    })
}

/// One op of a round: which graph, which query text, which request.
pub struct Spec {
    pub graph: usize,
    pub text: String,
    pub kind: Kind,
}

/// Every latency seen at each position of a repeated sequence, kept
/// apart for traced and untraced repetitions.
///
/// The repetitions of one op do identical work (the checks prove it), so
/// the gap between them is interference from outside the process. On a
/// shared virtual machine the same loop runs up to a third faster for a
/// few seconds at a time, whenever a neighbour idles; the fastest
/// repetition depends on whether a run caught such a window, the median
/// hardly does. A position's latency is the median of its repetitions.
pub struct Samples {
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
}

impl Samples {
    pub fn new(positions: usize) -> Self {
        Samples {
            untraced: vec![Vec::new(); positions],
            traced: vec![Vec::new(); positions],
        }
    }

    pub fn record(&mut self, i: usize, traced: bool, latency_s: f64) {
        let slot = if traced {
            &mut self.traced[i]
        } else {
            &mut self.untraced[i]
        };
        slot.push(latency_s);
    }

    /// Median untraced latency of every position that completed.
    pub fn latencies_s(&self) -> Vec<f64> {
        self.of(0..self.untraced.len())
    }

    /// Median untraced latency of the given positions that completed.
    pub fn of(&self, positions: impl IntoIterator<Item = usize>) -> Vec<f64> {
        positions
            .into_iter()
            .filter(|&i| !self.untraced[i].is_empty())
            .map(|i| median(&self.untraced[i]))
            .collect()
    }

    /// Traced against untraced median time over the positions both
    /// measured, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let (mut t, mut u) = (0.0, 0.0);
        for (a, b) in self.traced.iter().zip(&self.untraced) {
            if !a.is_empty() && !b.is_empty() {
                t += median(a);
                u += median(b);
            }
        }
        (t / u - 1.0) * 100.0
    }
}

/// Rounds a run makes at least: traced runs alternate untraced and
/// traced rounds and need two of each to compare their latencies.
pub fn min_rounds(traced: bool) -> usize {
    if traced {
        4
    } else {
        1
    }
}

/// What a closed loop over rounds of ops measured.
pub struct LoopOut {
    /// Result and engine of every op in the first round (`None` if it
    /// failed).
    pub first: Vec<Option<(Res, EngineKind)>>,
    /// Each op's median untraced latency.
    pub latencies_s: Vec<f64>,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Work counters of the first round (identical in every round).
    pub counts: Counts,
    /// Ops whose result differed from the first round's.
    pub unstable: Vec<String>,
    /// Traced against untraced latencies, in percent (traced runs).
    pub overhead_pct: Option<f64>,
}

/// One client thread sending each op after the previous one completed,
/// in whole rounds of `specs`, until `seconds` of rounds have passed. A
/// traced run traces every other round. `between` runs after each round
/// but the last, outside the measured time.
pub fn closed_loop(
    graphs: &mut Vec<Loaded>,
    specs: &[Spec],
    seconds: f64,
    tr: &mut Tracer,
    mut between: impl FnMut(&mut Tracer, &mut Vec<Loaded>, usize),
) -> LoopOut {
    let traced = tr.is_on();
    let mut out = LoopOut {
        first: specs.iter().map(|_| None).collect(),
        latencies_s: Vec::new(),
        rounds: 0,
        attempted: 0,
        failed: 0,
        counts: Counts::default(),
        unstable: Vec::new(),
        overhead_pct: None,
    };
    let mut samples = Samples::new(specs.len());
    let mut measured = 0.0;
    while out.rounds < min_rounds(traced) || measured < seconds {
        if out.rounds > 0 {
            tr.set_on(traced);
            between(tr, graphs, out.rounds);
        }
        let round = Instant::now();
        let traced_round = traced && out.rounds % 2 == 1;
        tr.set_on(traced_round);
        let dbs: Vec<&GraphDb> = graphs.iter().map(|g| &g.db).collect();
        for (i, s) in specs.iter().enumerate() {
            out.attempted += 1;
            match run(dbs[s.graph], &s.text, &s.kind, tr) {
                Ok(done) => {
                    samples.record(i, traced_round, done.latency_s);
                    if out.rounds == 0 {
                        out.counts.add(&done.counts);
                        out.first[i] = Some((done.res, done.engine));
                    } else if let Some((first, _)) = &out.first[i] {
                        if !first.same_as(&done.res) {
                            out.unstable.push(format!(
                                "{:?} of {:?} on graph {} changed between rounds",
                                s.kind, s.text, s.graph
                            ));
                        }
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("failed op: {e}");
                }
            }
        }
        measured += round.elapsed().as_secs_f64();
        out.rounds += 1;
    }
    tr.set_on(traced);
    out.latencies_s = samples.latencies_s();
    if traced {
        out.overhead_pct = Some(samples.overhead_pct());
    }
    out
}

/// Timed log replays of every graph before each set-up, beside the one the
/// set-up itself makes (see [`measure`]).
pub const REPLAYS: usize = 6;

/// A whole run of a workload made of rounds of ops: set up, run the
/// closed loop, read the peak memory, and only then check the first
/// round's results with `check`. The [`SETUP_REPEATS`] set-ups are spread
/// over the run — the first before round one, the others between rounds,
/// each replacing the graphs with an identical copy. Before each set-up,
/// while the old graphs are gone, the log of every graph in `sources` is
/// replayed [`REPLAYS`] more times into a copy of its snapshot, outside
/// the set-up's time, so each graph's replay time is the median of dozens
/// spread over the whole run, as the ops' latencies are (see [`Samples`]).
pub fn measure(
    specs: &[Spec],
    sources: &[GraphSource],
    seconds: f64,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Vec<Loaded>,
    check: impl FnOnce(&[Loaded], &[Option<(Res, EngineKind)>]) -> Vec<String>,
) -> Outcome {
    let mut setup_s = Vec::new();
    let mut replay = Samples::new(sources.len());
    let mut reload = |tr: &mut Tracer, graphs: &mut Vec<Loaded>| {
        drop(std::mem::take(graphs));
        for (i, src) in sources.iter().enumerate() {
            let r = Replayer::new(src);
            for _ in 0..REPLAYS {
                replay.record(i, false, r.time());
            }
        }
        let t = Instant::now();
        *graphs = setup(tr);
        setup_s.push(t.elapsed().as_secs_f64());
        for (i, g) in graphs.iter().enumerate() {
            replay.record(i, false, g.ingest_s);
        }
    };
    let mut graphs = Vec::new();
    reload(tr, &mut graphs);
    let out = closed_loop(&mut graphs, specs, seconds, tr, |tr, graphs, round| {
        if round < SETUP_REPEATS {
            reload(tr, graphs);
        }
    });
    let appended: usize = graphs.iter().map(|g| g.appended).sum();
    let ingest_edges_per_s = appended as f64 / replay.latencies_s().iter().sum::<f64>();
    let rss_mb = rss_peak_mb();
    let mut wrong = out.unstable;
    wrong.extend(check(&graphs, &out.first));
    Outcome {
        attempted: out.attempted,
        failed: out.failed,
        wrong,
        setup_s,
        latencies_s: out.latencies_s,
        ingest_edges_per_s,
        rss_mb,
        counts: out.counts,
        cache: None,
        overhead_pct: out.overhead_pct,
    }
}
