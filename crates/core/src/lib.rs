//! CXRPQ query classes and evaluation engines — the primary contribution of
//! Schmid, "Conjunctive Regular Path Queries with String Variables"
//! (PODS 2020).
//!
//! Query classes (§2.3, §4, §1.3):
//! - [`Crpq`]: conjunctive regular path queries (the baseline, Lemma 1);
//! - [`Cxrpq`]: conjunctive *xregex* path queries (Definition 5) with the
//!   fragments of §5–§6 (classified by `cxrpq-xregex`);
//! - [`Ecrpq`]: extended CRPQs with regular relations (Barceló et al. \[8\]),
//!   including the equality-relation fragment `ECRPQ^er`.
//!
//! Evaluation engines:
//! - [`CrpqEvaluator`]: per-edge product reachability + conjunctive join;
//! - [`SimpleEvaluator`]: Lemma 3 — simple CXRPQs via synchronized
//!   variable-group product search;
//! - [`VsfEvaluator`]: Lemma 7 — `CXRPQ^{vsf}` via derandomized branch
//!   choices, Step 2/3 normalization and the simple engine;
//! - [`BoundedEvaluator`]: Theorem 6 — `CXRPQ^{≤k}` via topological
//!   enumeration of variable mappings, Lemma 10/11 specialization to CRPQs;
//! - [`LogEvaluator`]: Corollary 1 — `CXRPQ^{log}` (k = ⌈log₂|D|⌉);
//! - [`GenericEvaluator`]: unrestricted CXRPQs by iterative image-bound
//!   deepening (the paper leaves the upper bound open; see [`generic`]);
//! - [`EcrpqEvaluator`]: the on-the-fly synchronized product for ECRPQ.
//!
//! Every engine but the generic one implements [`Evaluate`]: one
//! [`Evaluate::run`] answers each [`Request`] (Boolean, answers, Check,
//! witness) with an [`Outcome`]. [`AutoEvaluator`] picks the engine by
//! fragment.
//!
//! Translations (§7): [`translate::ecrpq_er_to_cxrpq`] (Lemma 12),
//! [`translate::cxrpq_vsf_to_union_ecrpq_er`] (Lemma 13),
//! [`translate::cxrpq_bounded_to_union_crpq`] (Lemma 14).

pub mod analyze;
pub mod bounded;
pub mod cache;
pub mod crpq;
pub mod cxrpq;
pub mod diagnostics;
pub mod domains;
pub mod ecrpq;
pub mod engine;
pub mod evaluate;
pub mod frontier;
pub mod generic;
pub mod governor;
pub mod log_eval;
pub mod path_semantics;
pub mod pattern;
pub mod plan;
pub mod pool;
pub mod query_text;
pub mod reach;
pub mod relation;
pub mod simple_eval;
pub mod solve;
pub mod sync;
pub mod translate;
pub mod union_query;
pub mod vsf_eval;
pub mod witness;

pub use analyze::{AnalysisReport, AnalysisStats};
pub use bounded::{BoundedEvaluator, BoundedStats};
pub use cache::{
    CacheConfig, CacheError, CacheOutcome, CacheStats, Footprint, QueryCache, ServedAnswers,
};
pub use crpq::{Crpq, CrpqEvaluator};
pub use cxrpq::{Cxrpq, CxrpqBuilder, CxrpqError};
pub use diagnostics::{AtomRef, Diagnostic, Diagnostics, Lint, Severity};
pub use domains::Domains;
pub use ecrpq::{Ecrpq, EcrpqEvaluator};
pub use engine::{AutoEvaluator, EngineKind, EvalOptions, Evaluated};
pub use evaluate::{Answer, Evaluate, Outcome, Request};
pub use frontier::FrontierConfig;
pub use generic::{GenericEvaluator, GenericOutcome};
pub use governor::{AbortReason, Governor, Verdict};
pub use log_eval::LogEvaluator;
pub use path_semantics::{rpq_holds, rpq_pairs, rpq_witness, PathSemantics};
pub use pattern::{GraphPattern, NodeVar};
pub use plan::SolvePlan;
pub use pool::WorkerPool;
pub use query_text::{canonical_query, normalize_query, parse_query, render_query, QueryTextError};
pub use relation::{RegularRelation, RelLabel, TupComp};
pub use simple_eval::SimpleEvaluator;
pub use solve::{PipelineStats, SolveOptions};
pub use union_query::{UnionCrpq, UnionEcrpq};
pub use vsf_eval::VsfEvaluator;
pub use witness::{edge_path, QueryWitness};
