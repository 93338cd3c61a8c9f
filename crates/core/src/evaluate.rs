//! One evaluation interface for every engine.
//!
//! Every fragment of the paper is asked the same questions (§2.3, §8):
//! Boolean evaluation `D ⊨ q`, the Check problem `t̄ ∈ q(D)`, the answer
//! relation `q(D)`, and a witness certifying a match. [`Evaluate::run`]
//! takes the question as a [`Request`] and returns one [`Outcome`]: the
//! [`Answer`], the governor's [`Verdict`], the solver's [`PipelineStats`]
//! where a single solver run produced the answer, and the number of product
//! states explored (the measured proxy for the NL space bounds).
//!
//! An engine implements only `run`; the zero-option calls
//! ([`Evaluate::boolean`], [`Evaluate::answers`], …) are provided once,
//! here, and run each request under [`Request::default_options`].

use crate::governor::{Governor, Verdict};
use crate::solve::{PipelineStats, SolveOptions};
use crate::witness::QueryWitness;
use cxrpq_graph::{GraphDb, NodeId};
use std::collections::BTreeSet;

/// Which problem a run answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request<'t> {
    /// Boolean evaluation `D ⊨ q`.
    Boolean,
    /// The answer relation `q(D)`: projections of matching morphisms onto
    /// the output tuple.
    Answers,
    /// The Check problem `t̄ ∈ q(D)` for the given tuple (one node per
    /// output variable; repeated output variables must get equal nodes).
    Check(&'t [NodeId]),
    /// A certificate for some match (`None`) or for `t̄ ∈ q(D)`
    /// (`Some(t̄)`).
    Witness(Option<&'t [NodeId]>),
}

impl Request<'_> {
    /// The solver options this request runs under unless the caller passes
    /// its own: early exit for the yes/no questions, the full pipeline for
    /// the answer relation (both with projection pushdown), and early exit
    /// without projection for witnesses, which read the whole morphism.
    pub fn default_options(&self) -> SolveOptions {
        match self {
            Request::Boolean | Request::Check(_) => SolveOptions::early_exit().projected(),
            Request::Answers => SolveOptions::pipeline().projected(),
            Request::Witness(_) => SolveOptions::early_exit(),
        }
    }
}

/// The value of a run; the variant follows the [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// For [`Request::Boolean`] and [`Request::Check`].
    Bool(bool),
    /// For [`Request::Answers`].
    Tuples(BTreeSet<Vec<NodeId>>),
    /// For [`Request::Witness`]: `None` iff no match (or no match for the
    /// pinned tuple) was found.
    Witness(Option<QueryWitness>),
}

impl Answer {
    /// The answer of a run that found nothing: `false`, `∅` or no witness.
    pub(crate) fn none(req: Request<'_>) -> Self {
        match req {
            Request::Boolean | Request::Check(_) => Answer::Bool(false),
            Request::Answers => Answer::Tuples(BTreeSet::new()),
            Request::Witness(_) => Answer::Witness(None),
        }
    }

    /// Whether nothing a further sub-run finds can change this answer: a
    /// match or a witness was found.
    pub(crate) fn is_settled(&self) -> bool {
        matches!(self, Answer::Bool(true) | Answer::Witness(Some(_)))
    }

    /// Folds a sub-run's answer into this one (the union of a branch or
    /// mapping enumeration): tuples are united, and the first match or
    /// witness stands.
    pub(crate) fn absorb(&mut self, other: Answer) {
        match (self, other) {
            (Answer::Tuples(acc), Answer::Tuples(more)) => acc.extend(more),
            (acc, other) if !acc.is_settled() => *acc = other,
            _ => {}
        }
    }

    /// The Boolean value.
    ///
    /// # Panics
    /// If the answer is not [`Answer::Bool`].
    pub fn into_bool(self) -> bool {
        match self {
            Answer::Bool(b) => b,
            other => panic!("expected a Boolean answer, got {other:?}"),
        }
    }

    /// The answer relation.
    ///
    /// # Panics
    /// If the answer is not [`Answer::Tuples`].
    pub fn into_tuples(self) -> BTreeSet<Vec<NodeId>> {
        match self {
            Answer::Tuples(t) => t,
            other => panic!("expected an answer relation, got {other:?}"),
        }
    }

    /// The witness.
    ///
    /// # Panics
    /// If the answer is not [`Answer::Witness`].
    pub fn into_witness(self) -> Option<QueryWitness> {
        match self {
            Answer::Witness(w) => w,
            other => panic!("expected a witness, got {other:?}"),
        }
    }
}

/// The result of one [`Evaluate::run`].
///
/// When `verdict` is [`Verdict::Aborted`], `value` is the partial result
/// reached before the trip — always a sound under-approximation: `false`
/// may stand for an unexplored `true`, the tuples are a subset of the
/// relation, a missing witness may stand for one not yet found, and a
/// returned witness is always valid.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The (possibly partial) answer.
    pub value: Answer,
    /// Whether the run completed or the governor aborted it.
    pub verdict: Verdict,
    /// Per-phase statistics of the solver run behind the answer; `None` for
    /// engines that fan out into many sub-runs (vstar-free, bounded), for
    /// witnesses (assembly runs searches beyond the solver) and for Check
    /// tuples refuted before any search.
    pub pipeline: Option<PipelineStats>,
    /// Product states explored across every search of the run.
    pub states: usize,
}

impl Outcome {
    /// An outcome with no pipeline stats and no explored states, tagged
    /// with the verdict currently recorded on `opts`' governor.
    pub(crate) fn new(value: Answer, opts: &SolveOptions) -> Self {
        Self {
            value,
            verdict: verdict_of(opts),
            pipeline: None,
            states: 0,
        }
    }

    /// Folds a sub-run into this outcome: its answer (see
    /// [`Answer::absorb`]) and its explored states. The verdict is the
    /// caller's to set once every sub-run is done.
    pub(crate) fn absorb(&mut self, sub: Outcome) {
        self.value.absorb(sub.value);
        self.states += sub.states;
    }

    /// Whether the value is a truncated (partial) result.
    pub fn truncated(&self) -> bool {
        !self.verdict.is_complete()
    }
}

/// The verdict currently recorded on `opts`' governor ([`Verdict::Complete`]
/// when ungoverned).
pub(crate) fn verdict_of(opts: &SolveOptions) -> Verdict {
    opts.governor
        .as_deref()
        .map_or(Verdict::Complete, Governor::verdict)
}

/// An evaluation engine: answers every [`Request`] on a database.
pub trait Evaluate {
    /// Answers `req` on `db` under `opts`. A governor on `opts` bounds the
    /// whole run, witness assembly included.
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome;

    /// Boolean evaluation `D ⊨ q`.
    fn boolean(&self, db: &GraphDb) -> bool {
        run_default(self, db, Request::Boolean).into_bool()
    }

    /// The answer relation `q(D)`.
    fn answers(&self, db: &GraphDb) -> BTreeSet<Vec<NodeId>> {
        run_default(self, db, Request::Answers).into_tuples()
    }

    /// The Check problem `t̄ ∈ q(D)`.
    fn check(&self, db: &GraphDb, tuple: &[NodeId]) -> bool {
        run_default(self, db, Request::Check(tuple)).into_bool()
    }

    /// A certificate for some matching morphism: the morphism, one path per
    /// pattern edge and the variable images. `None` iff `D ⊭ q`.
    fn witness(&self, db: &GraphDb) -> Option<QueryWitness> {
        run_default(self, db, Request::Witness(None)).into_witness()
    }

    /// A certificate for `t̄ ∈ q(D)`. `None` iff the tuple is not an answer.
    fn witness_for(&self, db: &GraphDb, tuple: &[NodeId]) -> Option<QueryWitness> {
        run_default(self, db, Request::Witness(Some(tuple))).into_witness()
    }
}

fn run_default<E: Evaluate + ?Sized>(ev: &E, db: &GraphDb, req: Request<'_>) -> Answer {
    ev.run(db, req, &req.default_options()).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::AbortReason;
    use crate::pattern::GraphPattern;
    use crate::relation::RegularRelation;
    use crate::{
        BoundedEvaluator, Crpq, CrpqEvaluator, Cxrpq, CxrpqBuilder, Ecrpq, EcrpqEvaluator,
        LogEvaluator, SimpleEvaluator, VsfEvaluator,
    };
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::{Alphabet, GraphBuilder};
    use std::sync::Arc;

    /// `u -a-> v`, `u -a-> w`.
    fn fork_db() -> (GraphDb, [NodeId; 3]) {
        let mut b = GraphBuilder::new(Arc::new(Alphabet::from_chars("ab")));
        let a = b.alphabet().sym("a");
        let [u, v, w] = [b.add_node(), b.add_node(), b.add_node()];
        b.add_edge(u, a, v);
        b.add_edge(u, a, w);
        (b.freeze(), [u, v, w])
    }

    /// The same query `ans(x, x) <- (x) -a-> (y), (x) -a-> (y2)` in each
    /// query class, one entry per engine, with the structural witness check
    /// against the engine's own pattern.
    struct Queries {
        crpq: Crpq,
        ecrpq: Ecrpq,
        cxrpq: Cxrpq,
    }

    type Verify<'q> = Box<dyn Fn(&GraphDb, &QueryWitness) -> Result<(), String> + 'q>;

    impl Queries {
        fn new(db: &GraphDb) -> Self {
            let mut alpha = db.alphabet().clone();
            let edges = [("x", "a", "y"), ("x", "a", "y2")];
            let crpq = Crpq::build(&edges, &["x", "x"], &mut alpha).unwrap();
            let mut pattern = GraphPattern::new();
            for (s, re, d) in edges {
                let (s, d) = (pattern.node(s), pattern.node(d));
                pattern.add_edge(s, parse_regex(re, &mut alpha).unwrap(), d);
            }
            let x = pattern.node_var("x").unwrap();
            let rel = (RegularRelation::equality(2), vec![0, 1]);
            let ecrpq = Ecrpq::new(pattern, vec![rel], vec![x, x]).unwrap();
            let cxrpq = CxrpqBuilder::new(&mut alpha)
                .edge("x", "z{a}", "y")
                .edge("x", "z", "y2")
                .output(&["x", "x"])
                .build()
                .unwrap();
            Self { crpq, ecrpq, cxrpq }
        }

        fn engines(&self) -> Vec<(&'static str, Box<dyn Evaluate + '_>, Verify<'_>)> {
            let cx = || -> Verify<'_> { Box::new(|db, w| w.verify(db, self.cxrpq.pattern())) };
            vec![
                (
                    "crpq",
                    Box::new(CrpqEvaluator::new(&self.crpq)),
                    Box::new(|db, w| w.verify(db, self.crpq.pattern())),
                ),
                (
                    "ecrpq",
                    Box::new(EcrpqEvaluator::new(&self.ecrpq)),
                    Box::new(|db, w| w.verify(db, self.ecrpq.pattern())),
                ),
                (
                    "simple",
                    Box::new(SimpleEvaluator::new(&self.cxrpq).unwrap()),
                    cx(),
                ),
                (
                    "vsf",
                    Box::new(VsfEvaluator::new(&self.cxrpq).unwrap()),
                    cx(),
                ),
                (
                    "bounded",
                    Box::new(BoundedEvaluator::new(&self.cxrpq, 1)),
                    cx(),
                ),
                ("log", Box::new(LogEvaluator::new(&self.cxrpq)), cx()),
            ]
        }
    }

    #[test]
    fn check_pins_tuples_on_every_engine() {
        let (db, [u, v, _]) = fork_db();
        let outside = NodeId(db.node_count() as u32);
        let queries = Queries::new(&db);
        for (name, ev, verify) in queries.engines() {
            // Repeated output variables: agreeing pins stand for one node.
            assert!(ev.check(&db, &[u, u]), "{name}");
            let w = ev.witness_for(&db, &[u, u]).expect(name);
            verify(&db, &w).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Disagreeing pins, a node without the edge, a node outside
            // the graph: no answer and no witness.
            for t in [[u, v], [v, v], [outside, outside]] {
                assert!(!ev.check(&db, &t), "{name} {t:?}");
                assert!(ev.witness_for(&db, &t).is_none(), "{name} {t:?}");
            }
            assert_eq!(ev.answers(&db), BTreeSet::from([vec![u, u]]), "{name}");
        }
    }

    #[test]
    fn governed_witnesses_abort_soundly_on_every_engine() {
        let (db, _) = fork_db();
        let queries = Queries::new(&db);
        let req = Request::Witness(None);
        for (name, ev, verify) in queries.engines() {
            let governed = |gov: Governor| {
                let gov = Arc::new(gov);
                let out = ev.run(&db, req, &req.default_options().governed(gov.clone()));
                (out, gov)
            };
            let (zero, _) = governed(Governor::unlimited().with_max_steps(0));
            assert_eq!(zero.verdict, Verdict::Aborted(AbortReason::Fuel), "{name}");
            let (full, dry) = governed(Governor::unlimited());
            assert!(full.verdict.is_complete(), "{name}");
            verify(&db, &full.value.into_witness().expect(name)).unwrap();
            // Trip at every checkpoint the complete run passes: the run
            // reports the abort, and a witness it still returns is valid.
            for k in 1..=dry.checkpoints_seen() {
                let (out, _) = governed(Governor::unlimited().with_injection(k));
                assert_eq!(
                    out.verdict,
                    Verdict::Aborted(AbortReason::Injected),
                    "{name} k={k}"
                );
                if let Some(w) = out.value.into_witness() {
                    verify(&db, &w).unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
                }
            }
        }
    }

    #[test]
    fn outcome_takes_the_governor_verdict() {
        let ok = Outcome::new(Answer::Bool(true), &SolveOptions::early_exit());
        assert!(!ok.truncated());
        let g = Arc::new(Governor::unlimited().with_max_steps(0));
        let _ = g.checkpoint();
        let partial = Outcome::new(Answer::Bool(false), &SolveOptions::early_exit().governed(g));
        assert!(partial.truncated());
        assert_eq!(partial.verdict, Verdict::Aborted(AbortReason::Fuel));
        assert_eq!(format!("{}", partial.verdict), "aborted (fuel)");
    }

    #[test]
    fn absorb_unites_tuples_and_keeps_the_first_match() {
        let mut t = Answer::Tuples(BTreeSet::from([vec![NodeId(0)]]));
        t.absorb(Answer::Tuples(BTreeSet::from([vec![NodeId(1)]])));
        assert_eq!(t.into_tuples().len(), 2);
        let mut b = Answer::none(Request::Boolean);
        b.absorb(Answer::Bool(true));
        b.absorb(Answer::Bool(false));
        assert_eq!(b, Answer::Bool(true));
    }
}
