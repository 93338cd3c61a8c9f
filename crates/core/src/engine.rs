//! Fragment-driven engine selection — a small "query planner" that reads
//! the §5/§6 classification of a CXRPQ and dispatches to the cheapest
//! complete engine.
//!
//! | fragment (classify)    | engine            | exactness                  |
//! |------------------------|-------------------|----------------------------|
//! | `Simple`               | [`SimpleEvaluator`] | exact (Lemma 3)          |
//! | `NormalForm`/`VstarFree*` | [`VsfEvaluator`] | exact (Theorem 2/5)       |
//! | `General`              | [`BoundedEvaluator`] | `⊨_{≤k}` under-approx.  |
//!
//! Unrestricted evaluation is PSpace-hard in data complexity (Theorem 1), so
//! for `General` queries the planner falls back to the bounded-image
//! semantics of §6 with a caller-chosen `k` and reports `exact = false`.

use crate::bounded::BoundedEvaluator;
use crate::cxrpq::Cxrpq;
use crate::governor::{Governor, Verdict};
use crate::simple_eval::SimpleEvaluator;
use crate::solve::{PipelineStats, SolveOptions};
use crate::vsf_eval::VsfEvaluator;
use crate::witness::QueryWitness;
use cxrpq_graph::{GraphDb, NodeId};
use cxrpq_xregex::Fragment;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which evaluation engine the planner chose (or was forced to use).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Lemma 3: synchronized-group product search on simple queries.
    Simple,
    /// Lemma 7: branch enumeration + normalization + Lemma 3.
    Vsf,
    /// Theorem 6: bounded-image mapping enumeration (`CXRPQ^{≤k}`).
    Bounded,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Simple => write!(f, "simple (Lemma 3)"),
            EngineKind::Vsf => write!(f, "vstar-free (Lemma 7)"),
            EngineKind::Bounded => write!(f, "bounded-image (Theorem 6)"),
        }
    }
}

/// Planner options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Image bound used when falling back to `⊨_{≤k}` on `General` queries.
    pub bounded_k: usize,
    /// Force a specific engine instead of planning by fragment. Forcing an
    /// engine onto a query outside its fragment is an error at `plan` time.
    pub force: Option<EngineKind>,
    /// Resource governor threaded through every evaluation this planner
    /// dispatches (deadline, fuel, memory ceiling, cooperative cancel).
    /// `None` runs ungoverned; an aborted run reports
    /// [`Verdict::Aborted`] on the [`Evaluated`] and returns a sound
    /// partial result.
    pub governor: Option<Arc<Governor>>,
    /// A cached [`crate::SolvePlan`] to seed the solver's phase 1 with
    /// (see [`SolveOptions::plan_seed`]); threaded into every solver call
    /// this planner dispatches. Plans only order the search, so an
    /// incompatible seed is ignored, never wrong.
    pub plan_seed: Option<Arc<crate::plan::SolvePlan>>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            bounded_k: 3,
            force: None,
            governor: None,
            plan_seed: None,
        }
    }
}

/// A value plus provenance: which engine produced it and whether the result
/// is exact for the unrestricted CXRPQ semantics.
#[derive(Clone, Debug)]
pub struct Evaluated<T> {
    /// The result.
    pub value: T,
    /// The engine used.
    pub engine: EngineKind,
    /// Whether the engine decides the full semantics for this query (the
    /// bounded fallback on `General` queries under-approximates).
    pub exact: bool,
    /// Wall-clock evaluation time (this call only).
    pub elapsed: Duration,
    /// Wall-clock planning time: fragment classification plus engine
    /// construction (NFA compilation, plan assembly), paid once in
    /// [`AutoEvaluator::with_options`] and reported with every result.
    pub plan_elapsed: Duration,
    /// Per-phase statistics of the solver pipeline (variable order,
    /// pruning rounds, domain sizes before/after). Reported by
    /// `boolean`/`answers`/`check` when the chosen engine runs the shared
    /// constraint solver in a single pass (`Simple`); `None` for engines
    /// that fan out into many sub-evaluations (`Vsf`, `Bounded`) and for
    /// `witness` calls (witness assembly runs several searches beyond the
    /// solver).
    pub pipeline: Option<PipelineStats>,
    /// Whether the evaluation ran to completion or the governor aborted it
    /// mid-flight ([`Verdict::Aborted`] ⇒ `value` is a sound partial
    /// result). Always [`Verdict::Complete`] when no governor was set.
    pub verdict: Verdict,
}

impl<T> Evaluated<T> {
    /// Planning plus evaluation time.
    pub fn total_elapsed(&self) -> Duration {
        self.plan_elapsed + self.elapsed
    }
}

/// Planning failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// A forced engine does not cover the query's fragment.
    ForcedEngineInapplicable(EngineKind, Fragment),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ForcedEngineInapplicable(e, frag) => {
                write!(f, "engine {e:?} cannot evaluate a {frag:?} query")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The constructed engine behind an [`AutoEvaluator`] (built exactly once,
/// at plan time).
enum EngineImpl<'q> {
    Simple(SimpleEvaluator<'q>),
    Vsf(VsfEvaluator<'q>),
    Bounded(BoundedEvaluator<'q>),
}

/// The fragment-dispatching evaluator.
///
/// Planning — fragment classification *and* engine construction (NFA
/// compilation, plan assembly) — happens once, in
/// [`AutoEvaluator::with_options`]; `boolean`/`answers`/`check`/`witness`
/// reuse the constructed engine. Every [`Evaluated`] reports both the
/// per-call evaluation time and the one-off planning time
/// ([`Evaluated::plan_elapsed`]), so construction cost is never silently
/// dropped from timings.
pub struct AutoEvaluator<'q> {
    choice: EngineKind,
    /// Number of output variables (0 = a Boolean query).
    arity: usize,
    exact: bool,
    engine: EngineImpl<'q>,
    plan_elapsed: Duration,
    gov: Option<Arc<Governor>>,
    plan_seed: Option<Arc<crate::plan::SolvePlan>>,
}

impl<'q> AutoEvaluator<'q> {
    /// Plans with default options.
    pub fn new(q: &'q Cxrpq) -> Self {
        Self::with_options(q, EvalOptions::default()).expect("no forced engine")
    }

    /// Plans with explicit options, constructing the chosen engine.
    pub fn with_options(q: &'q Cxrpq, opts: EvalOptions) -> Result<Self, PlanError> {
        let t0 = Instant::now();
        let fragment = q.fragment();
        let choice = match opts.force {
            Some(forced) => {
                let applicable = match forced {
                    EngineKind::Simple => fragment == Fragment::Simple,
                    EngineKind::Vsf => fragment != Fragment::General,
                    EngineKind::Bounded => true,
                };
                if !applicable {
                    return Err(PlanError::ForcedEngineInapplicable(forced, fragment));
                }
                forced
            }
            None => match fragment {
                Fragment::Simple => EngineKind::Simple,
                Fragment::NormalForm | Fragment::VstarFreeFlat | Fragment::VstarFree => {
                    EngineKind::Vsf
                }
                Fragment::General => EngineKind::Bounded,
            },
        };
        let engine = match choice {
            EngineKind::Simple => EngineImpl::Simple(SimpleEvaluator::new(q).expect("planned")),
            EngineKind::Vsf => EngineImpl::Vsf(VsfEvaluator::new(q).expect("planned")),
            EngineKind::Bounded => {
                let mut ev = BoundedEvaluator::new(q, opts.bounded_k);
                if let Some(g) = &opts.governor {
                    ev = ev.governed(g.clone());
                }
                EngineImpl::Bounded(ev)
            }
        };
        // Bounded evaluation is exact only under the `≤k` reading; the other
        // engines decide the unrestricted semantics of their fragments.
        let exact = choice != EngineKind::Bounded;
        Ok(Self {
            choice,
            arity: q.output().len(),
            exact,
            engine,
            plan_elapsed: t0.elapsed(),
            gov: opts.governor,
            plan_seed: opts.plan_seed,
        })
    }

    /// The planned engine.
    pub fn plan(&self) -> EngineKind {
        self.choice
    }

    /// Whether the planned evaluation is exact for the unrestricted
    /// semantics.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Time spent classifying the query and constructing the engine.
    pub fn plan_elapsed(&self) -> Duration {
        self.plan_elapsed
    }

    fn timed<T>(&self, f: impl FnOnce() -> (T, Option<PipelineStats>)) -> Evaluated<T> {
        let t0 = Instant::now();
        let (value, pipeline) = f();
        Evaluated {
            value,
            engine: self.choice,
            exact: self.exact,
            elapsed: t0.elapsed(),
            plan_elapsed: self.plan_elapsed,
            pipeline,
            verdict: self
                .gov
                .as_deref()
                .map_or(Verdict::Complete, Governor::verdict),
        }
    }

    /// Attaches this planner's governor and plan seed (if any) to solver
    /// options.
    fn solve_opts(&self, base: SolveOptions) -> SolveOptions {
        let base = match &self.gov {
            Some(g) => base.governed(g.clone()),
            None => base,
        };
        match &self.plan_seed {
            Some(seed) => base.with_plan_seed(seed.clone()),
            None => base,
        }
    }

    /// Boolean evaluation with provenance.
    pub fn boolean(&self, db: &GraphDb) -> Evaluated<bool> {
        let opts = self.solve_opts(SolveOptions::early_exit().projected());
        self.timed(|| match &self.engine {
            EngineImpl::Simple(ev) => ev.boolean_opts(db, &opts),
            EngineImpl::Vsf(ev) => (ev.boolean_opts(db, &opts), None),
            EngineImpl::Bounded(ev) => (ev.boolean(db), None),
        })
    }

    /// The answer relation with provenance (projection pushdown: non-output
    /// variables are existentially eliminated by the solver).
    ///
    /// A zero-arity query's relation is `{()}` or `∅`, decided by the
    /// early-exiting [`AutoEvaluator::boolean`] run (same verdict and
    /// pipeline stats) instead of a full fixpoint and enumeration.
    pub fn answers(&self, db: &GraphDb) -> Evaluated<BTreeSet<Vec<NodeId>>> {
        if self.arity == 0 {
            let b = self.boolean(db);
            let value = if b.value {
                BTreeSet::from([Vec::new()])
            } else {
                BTreeSet::new()
            };
            return Evaluated {
                value,
                engine: b.engine,
                exact: b.exact,
                elapsed: b.elapsed,
                plan_elapsed: b.plan_elapsed,
                pipeline: b.pipeline,
                verdict: b.verdict,
            };
        }
        let opts = self.solve_opts(SolveOptions::pipeline().projected());
        self.timed(|| match &self.engine {
            EngineImpl::Simple(ev) => ev.answers_opts(db, &opts),
            EngineImpl::Vsf(ev) => (ev.answers_opts(db, &opts), None),
            EngineImpl::Bounded(ev) => (ev.answers(db), None),
        })
    }

    /// The Check problem with provenance.
    pub fn check(&self, db: &GraphDb, tuple: &[NodeId]) -> Evaluated<bool> {
        let opts = self.solve_opts(SolveOptions::early_exit().projected());
        self.timed(|| match &self.engine {
            EngineImpl::Simple(ev) => ev.check_opts(db, tuple, &opts),
            EngineImpl::Vsf(ev) => (ev.check_opts(db, tuple, &opts), None),
            EngineImpl::Bounded(ev) => (ev.check(db, tuple), None),
        })
    }

    /// A witness with provenance.
    pub fn witness(&self, db: &GraphDb) -> Evaluated<Option<QueryWitness>> {
        self.timed(|| match &self.engine {
            EngineImpl::Simple(ev) => (ev.witness(db), None),
            EngineImpl::Vsf(ev) => (ev.witness(db), None),
            EngineImpl::Bounded(ev) => (ev.witness(db), None),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::sync::Arc;

    fn db_word(word: &str) -> (GraphDb, NodeId, NodeId) {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = GraphBuilder::new(alpha);
        let s = db.add_node();
        let t = db.add_node();
        let w = db.alphabet().parse_word(word).unwrap();
        db.add_word_path(s, &w, t);
        (db.freeze(), s, t)
    }

    #[test]
    fn plans_simple_for_simple_queries() {
        let mut alpha = Alphabet::from_chars("abc");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .unwrap();
        let auto = AutoEvaluator::new(&q);
        assert_eq!(auto.plan(), EngineKind::Simple);
        assert!(auto.is_exact());
        let (db, _, _) = db_word("abcab");
        let r = auto.boolean(&db);
        assert!(r.value && r.exact);
        assert_eq!(r.engine, EngineKind::Simple);
    }

    #[test]
    fn plans_vsf_for_alternations() {
        let mut alpha = Alphabet::from_chars("abc");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{ab|ba}z", "y")
            .edge("u", "z|ab", "v")
            .build()
            .unwrap();
        let auto = AutoEvaluator::new(&q);
        assert_eq!(auto.plan(), EngineKind::Vsf);
        assert!(auto.is_exact());
    }

    #[test]
    fn plans_bounded_for_general_queries() {
        let mut alpha = Alphabet::from_chars("abc");
        // Figure 2 G1: a reference under +.
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("v1", "x{a|b}", "w")
            .edge("w", "(x|c)+", "v2")
            .build()
            .unwrap();
        let auto = AutoEvaluator::new(&q);
        assert_eq!(auto.plan(), EngineKind::Bounded);
        assert!(!auto.is_exact());
        // G1's images have length 1, so k = 3 evaluation is in fact correct.
        let (db, _, _) = db_word("acca");
        assert!(auto.boolean(&db).value);
    }

    #[test]
    fn forcing_engines() {
        let mut alpha = Alphabet::from_chars("ab");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{ab}z", "y")
            .build()
            .unwrap();
        // Simple query: every engine applies.
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
            let (db, _, _) = db_word("abab");
            assert!(auto.boolean(&db).value, "{force:?}");
        }
        // Forcing Simple onto a non-simple query fails at plan time.
        let mut alpha2 = Alphabet::from_chars("ab");
        let q2 = CxrpqBuilder::new(&mut alpha2)
            .edge("x", "z{ab|ba}z", "y")
            .edge("u", "z|ab", "v")
            .build()
            .unwrap();
        assert!(matches!(
            AutoEvaluator::with_options(
                &q2,
                EvalOptions {
                    bounded_k: 2,
                    force: Some(EngineKind::Simple),
                    governor: None,
                    plan_seed: None,
                },
            ),
            Err(PlanError::ForcedEngineInapplicable(..))
        ));
    }

    #[test]
    fn plan_time_reported_and_engine_reused() {
        let mut alpha = Alphabet::from_chars("abc");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .unwrap();
        let auto = AutoEvaluator::new(&q);
        let plan = auto.plan_elapsed();
        let (db, _, _) = db_word("abcab");
        let r1 = auto.boolean(&db);
        let r2 = auto.boolean(&db);
        // Construction happened once, at plan time; every result carries
        // that same one-off cost alongside its own evaluation time.
        assert_eq!(r1.plan_elapsed, plan);
        assert_eq!(r2.plan_elapsed, plan);
        assert!(r1.total_elapsed() >= r1.elapsed);
        assert!(r1.value && r2.value);
    }

    #[test]
    fn pipeline_stats_surface_through_the_planner() {
        let (db, s, t) = db_word("abcab");
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let auto = AutoEvaluator::new(&q);
        assert_eq!(auto.plan(), EngineKind::Simple);
        let r = auto.answers(&db);
        let stats = r
            .pipeline
            .as_ref()
            .expect("simple engine reports pipeline stats");
        assert!(!stats.var_order.is_empty());
        assert!(stats.total_after() <= stats.total_before());
        assert!(r.value.contains(&vec![s, t]));
        // Early-exiting calls report the capped pipeline too.
        assert!(auto.boolean(&db).pipeline.is_some());
        assert!(auto.check(&db, &[s, t]).pipeline.is_some());
        // The bounded fallback fans out into sub-evaluations: no single run
        // to report.
        let forced = AutoEvaluator::with_options(
            &q,
            EvalOptions {
                bounded_k: 4,
                force: Some(EngineKind::Bounded),
                governor: None,
                plan_seed: None,
            },
        )
        .unwrap();
        assert!(forced.answers(&db).pipeline.is_none());
    }

    #[test]
    fn engines_agree_through_the_planner() {
        let (db, s, t) = db_word("abcab");
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let auto = AutoEvaluator::new(&q);
        let answers = auto.answers(&db).value;
        assert!(answers.contains(&vec![s, t]));
        assert!(auto.check(&db, &[s, t]).value);
        let w = auto.witness(&db).value.unwrap();
        w.verify(&db, q.pattern()).unwrap();
    }
}
