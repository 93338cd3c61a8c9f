//! Command implementations for `cxrpq-cli`.
//!
//! Each command is a pure function from input *contents* (not file paths)
//! to a rendered report, so the whole surface is unit-testable; `main.rs`
//! only handles argument parsing and file IO.
//!
//! Commands:
//!
//! | command      | purpose                                                    |
//! |--------------|------------------------------------------------------------|
//! | `graph-info` | database statistics                                        |
//! | `classify`   | §5/§6 fragment of a query + planned engine                 |
//! | `eval`       | evaluate a query (auto / forced engine, optional witness)  |
//! | `check`      | the Check problem for a node tuple                         |
//! | `normal-form`| Theorem 4 normal form with per-step size accounting        |
//! | `translate`  | Lemma 13/14 union translations with size reports           |
//! | `sample`     | sample conjunctive matches of the query's xregex           |

pub mod serve;

pub use serve::{run_serve, ServeConfig};

use cxrpq_core::engine::{AutoEvaluator, EngineKind, EvalOptions};
use cxrpq_core::query_text::parse_query;
use cxrpq_core::translate;
use cxrpq_core::{AbortReason, AtomRef, Cxrpq, Diagnostic, Governor, Lint, Severity, Verdict};
use cxrpq_graph::{read_graph, Alphabet, GraphDb, NodeId};
use cxrpq_xregex::classification;
use cxrpq_xregex::normal_form::normal_form;
use cxrpq_xregex::sample::{sample_conjunctive_match, SampleConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;

/// A command failure, rendered to stderr by `main`.
pub type CmdError = String;

fn parse_graph(text: &str) -> Result<(GraphDb, HashMap<String, NodeId>), CmdError> {
    read_graph(text).map_err(|e| format!("graph: {e}"))
}

/// Parses a query against the (extensible) alphabet of `db`, so labels may
/// intern new symbols mentioned only in the query.
fn parse_query_for(db: &GraphDb, query_text: &str) -> Result<(Cxrpq, Alphabet), CmdError> {
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(query_text, &mut alphabet).map_err(|e| format!("query: {e}"))?;
    Ok((q, alphabet))
}

/// `graph-info <graph>`: node/edge counts and a per-symbol histogram.
pub fn graph_info(graph_text: &str) -> Result<String, CmdError> {
    let (db, _) = parse_graph(graph_text)?;
    let mut out = String::new();
    let _ = writeln!(out, "nodes:   {}", db.node_count());
    let _ = writeln!(out, "edges:   {}", db.edge_count());
    let _ = writeln!(out, "size |D|: {}", db.size());
    let _ = writeln!(out, "alphabet ({} symbols):", db.alphabet().len());
    let mut counts = vec![0usize; db.alphabet().len()];
    for (_, a, _) in db.edges() {
        counts[a.index()] += 1;
    }
    for s in db.alphabet().symbols() {
        let _ = writeln!(
            out,
            "  {:<12} {:>6} arcs",
            db.alphabet().name(s),
            counts[s.index()]
        );
    }
    Ok(out)
}

/// `classify <query>`: fragment flags and the planner's engine choice.
pub fn classify(query_text: &str) -> Result<String, CmdError> {
    let mut alphabet = Alphabet::new();
    let q = parse_query(query_text, &mut alphabet).map_err(|e| format!("query: {e}"))?;
    let c = classification(q.conjunctive());
    let auto = AutoEvaluator::new(&q);
    let mut out = String::new();
    let _ = writeln!(out, "edges:            {}", q.pattern().edge_count());
    let _ = writeln!(out, "output arity:     {}", q.output().len());
    let _ = writeln!(out, "string variables: {}", q.conjunctive().var_count());
    let _ = writeln!(out, "size |q|:         {}", q.size());
    let _ = writeln!(out, "vstar-free:       {}", c.vstar_free);
    let _ = writeln!(out, "valt-free:        {}", c.valt_free);
    let _ = writeln!(out, "variable-simple:  {}", c.variable_simple);
    let _ = writeln!(out, "simple:           {}", c.simple);
    let _ = writeln!(out, "normal form:      {}", c.normal_form);
    let _ = writeln!(out, "flat variables:   {}", c.all_flat);
    let _ = writeln!(out, "fragment:         {:?}", c.fragment());
    let _ = writeln!(out, "planned engine:   {}", auto.plan());
    let _ = writeln!(
        out,
        "exact:            {}",
        if auto.is_exact() {
            "yes"
        } else {
            "no (bounded-image under-approximation)"
        }
    );
    Ok(out)
}

/// Renders the static analyzer's report (phase 0 of the solver pipeline):
/// a one-line summary of the rewrite, then each diagnostic as
/// `severity [lint] atom: explanation`.
fn render_analysis(out: &mut String, stats: Option<&cxrpq_core::PipelineStats>) {
    let Some(report) = stats.and_then(|s| s.analysis.as_ref()) else {
        return;
    };
    let st = &report.stats;
    let verdict = if st.unsat {
        "statically unsatisfiable"
    } else {
        "rewritten query kept"
    };
    let _ = writeln!(
        out,
        "analysis: {} atom(s) dropped · {} var(s) merged · {} var(s) contracted · {} universal · {}",
        st.atoms_dropped, st.vars_merged, st.vars_contracted, st.universal_atoms, verdict
    );
    for d in report.diagnostics.iter() {
        let _ = writeln!(out, "  {d}");
    }
}

/// Renders the solver pipeline's per-phase stats (plan order, prune rounds,
/// domain shrinkage) when the chosen engine reports them.
fn render_pipeline(out: &mut String, stats: Option<&cxrpq_core::PipelineStats>) {
    let Some(s) = stats else { return };
    let order: Vec<String> = s.var_order.iter().map(|v| format!("v{}", v.0)).collect();
    // Projection pushdown: how many plan variables were existentially
    // eliminated instead of enumerated, and how many of those were peeled
    // as leaves before enumeration (empty when projection was off).
    let mut eliminated = String::new();
    if s.eliminated_vars > 0 {
        let _ = write!(eliminated, " · {} var(s) eliminated", s.eliminated_vars);
    }
    if s.peeled_vars > 0 {
        let _ = write!(eliminated, " · {} leaf var(s) peeled", s.peeled_vars);
    }
    if s.domain_before.is_empty() {
        // Pruning was skipped (nothing to prune, or an early-exiting call
        // with no pinned binding staying lazy).
        let _ = writeln!(
            out,
            "pipeline: order [{}] · prune skipped{}",
            order.join(" "),
            eliminated
        );
    } else {
        let _ = writeln!(
            out,
            "pipeline: order [{}] · prune {} round(s) · domains {} → {}{}",
            order.join(" "),
            s.rounds,
            s.total_before(),
            s.total_after(),
            eliminated
        );
    }
    render_seeks(out, s);
}

/// Renders how many leapfrog seeks the enumeration issued: the solver
/// intersects wherever two or more bound constraints meet the variable it
/// extends, so a count above zero shows a cyclic core being joined.
fn render_seeks(out: &mut String, s: &cxrpq_core::PipelineStats) {
    if s.plan_artifact.is_some() {
        let _ = writeln!(out, "intersection seeks: {}", s.intersection_seeks);
    }
}

/// Options for [`eval`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalCmdOptions {
    /// Forced engine (None = plan by fragment).
    pub engine: Option<EngineKind>,
    /// Image bound for the bounded engine.
    pub k: Option<usize>,
    /// Print at most this many answers.
    pub limit: Option<usize>,
    /// Also extract and print a witness.
    pub witness: bool,
    /// Wall-clock deadline for evaluation, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Solver step (fuel) budget.
    pub max_steps: Option<u64>,
    /// Approximate memory ceiling for solver allocations, in MiB.
    pub max_mem_mb: Option<u64>,
}

impl EvalCmdOptions {
    /// The governor implied by the resource flags, if any was given.
    pub(crate) fn governor(&self) -> Option<Arc<Governor>> {
        if self.timeout_ms.is_none() && self.max_steps.is_none() && self.max_mem_mb.is_none() {
            return None;
        }
        let mut gov = Governor::unlimited();
        if let Some(ms) = self.timeout_ms {
            gov = gov.with_deadline(Duration::from_millis(ms));
        }
        if let Some(steps) = self.max_steps {
            gov = gov.with_max_steps(steps);
        }
        if let Some(mb) = self.max_mem_mb {
            gov = gov.with_mem_limit((mb as usize).saturating_mul(1024 * 1024));
        }
        Some(Arc::new(gov))
    }
}

/// The human-readable diagnostic for an aborted evaluation, rendered with
/// the same `severity [lint] atom: message` shape as the analyzer's lints.
pub fn abort_diagnostic(reason: AbortReason) -> Diagnostic {
    let cause = match reason {
        AbortReason::Deadline => "the wall-clock deadline (--timeout-ms) expired",
        AbortReason::Fuel => "the step budget (--max-steps) ran out",
        AbortReason::Memory => "the memory ceiling (--max-mem-mb) was reached",
        AbortReason::Cancelled => "evaluation was cancelled",
        AbortReason::Injected => "a fault-injection checkpoint fired",
    };
    Diagnostic {
        lint: Lint::ResourceAbort,
        severity: Severity::Warning,
        atom: AtomRef::Pattern,
        message: format!(
            "evaluation aborted early: {cause}; results are a sound partial under-approximation"
        ),
    }
}

/// Appends the abort diagnostic when the run did not complete.
fn render_verdict(out: &mut String, verdict: Verdict) {
    if let Verdict::Aborted(reason) = verdict {
        let _ = writeln!(out, "{}", abort_diagnostic(reason));
    }
}

/// `eval <graph> <query>`: answers (or Boolean verdict) plus provenance.
pub fn eval(graph_text: &str, query_text: &str, opts: EvalCmdOptions) -> Result<String, CmdError> {
    let (db, _) = parse_graph(graph_text)?;
    let (q, _) = parse_query_for(&db, query_text)?;
    let auto = AutoEvaluator::with_options(
        &q,
        EvalOptions {
            bounded_k: opts.k.unwrap_or(3),
            force: opts.engine,
            governor: opts.governor(),
            plan_seed: None,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "engine: {}", auto.plan());
    if !auto.is_exact() {
        let _ = writeln!(
            out,
            "note: general-fragment query evaluated under ⊨_{{≤{}}} (Theorem 6); \
             answers are a sound under-approximation",
            opts.k.unwrap_or(3)
        );
    }
    if q.is_boolean() {
        let r = auto.boolean(&db);
        let _ = writeln!(
            out,
            "match: {}  (eval {:?} + plan {:?})",
            r.value, r.elapsed, r.plan_elapsed
        );
        render_analysis(&mut out, r.pipeline.as_ref());
        render_pipeline(&mut out, r.pipeline.as_ref());
        render_verdict(&mut out, r.verdict);
    } else {
        let r = auto.answers(&db);
        let _ = writeln!(
            out,
            "answers: {}  (eval {:?} + plan {:?})",
            r.value.len(),
            r.elapsed,
            r.plan_elapsed
        );
        render_analysis(&mut out, r.pipeline.as_ref());
        render_pipeline(&mut out, r.pipeline.as_ref());
        render_verdict(&mut out, r.verdict);
        let limit = opts.limit.unwrap_or(usize::MAX);
        for tuple in r.value.iter().take(limit) {
            let names: Vec<String> = tuple.iter().map(|&n| db.node_name(n)).collect();
            let _ = writeln!(out, "  ({})", names.join(", "));
        }
        if r.value.len() > limit {
            let _ = writeln!(out, "  … {} more", r.value.len() - limit);
        }
    }
    if opts.witness {
        match auto.witness(&db).value {
            Some(w) => {
                let _ = writeln!(out, "witness:");
                for line in w.render(&db).lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
            None => {
                let _ = writeln!(out, "witness: none (no match)");
            }
        }
    }
    Ok(out)
}

/// `check <graph> <query> <node>…`: the Check problem for named nodes.
pub fn check(graph_text: &str, query_text: &str, node_names: &[&str]) -> Result<String, CmdError> {
    let (db, names) = parse_graph(graph_text)?;
    let (q, _) = parse_query_for(&db, query_text)?;
    if node_names.len() != q.output().len() {
        return Err(format!(
            "query has output arity {}, got {} nodes",
            q.output().len(),
            node_names.len()
        ));
    }
    let tuple: Vec<NodeId> = node_names
        .iter()
        .map(|n| {
            names
                .get(*n)
                .copied()
                .ok_or_else(|| format!("unknown node {n:?}"))
        })
        .collect::<Result<_, _>>()?;
    let auto = AutoEvaluator::new(&q);
    let r = auto.check(&db, &tuple);
    Ok(format!(
        "({}) ∈ q(D): {}  [engine: {}, {:?}]\n",
        node_names.join(", "),
        r.value,
        r.engine,
        r.elapsed
    ))
}

/// `normal-form <query>`: Theorem 4's construction with size accounting.
pub fn normal_form_report(query_text: &str) -> Result<String, CmdError> {
    let mut alphabet = Alphabet::new();
    let q = parse_query(query_text, &mut alphabet).map_err(|e| format!("query: {e}"))?;
    let (nf, stats) = normal_form(q.conjunctive()).map_err(|e| format!("normal form: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "input size |ᾱ|:    {}", stats.input_size);
    let _ = writeln!(out, "after Step 1:      {} (Lemma 4)", stats.after_step1);
    let _ = writeln!(out, "after Step 2:      {} (Lemma 5)", stats.after_step2);
    let _ = writeln!(out, "normal form |β̄|:   {} (Lemma 6)", stats.output_size);
    let _ = writeln!(out, "components:");
    for rendered in nf.render(&alphabet) {
        let _ = writeln!(out, "  {rendered}");
    }
    Ok(out)
}

/// Target of a [`translate`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranslateTarget {
    /// Lemma 14: `CXRPQ^{≤k} → ∪-CRPQ` (needs `k` and `|Σ|`).
    UnionCrpq {
        /// The image bound.
        k: usize,
    },
    /// Lemma 13: `CXRPQ^{vsf} → ∪-ECRPQ^er`.
    UnionEcrpq,
}

/// `translate <query> --to …`: run a §7 translation and report its size.
pub fn translate_cmd(query_text: &str, target: TranslateTarget) -> Result<String, CmdError> {
    let mut alphabet = Alphabet::new();
    let q = parse_query(query_text, &mut alphabet).map_err(|e| format!("query: {e}"))?;
    let mut out = String::new();
    match target {
        TranslateTarget::UnionCrpq { k } => {
            let union = translate::cxrpq_bounded_to_union(&q, k, alphabet.len().max(1));
            let _ = writeln!(out, "Lemma 14: CXRPQ^{{≤{k}}} → ∪-CRPQ");
            let _ = writeln!(out, "members:    {}", union.len());
            let _ = writeln!(out, "total size: {}", union.size());
            let _ = writeln!(out, "input size: {}", q.size());
        }
        TranslateTarget::UnionEcrpq => {
            let union = translate::cxrpq_vsf_to_union(&q).map_err(|e| format!("translate: {e}"))?;
            let _ = writeln!(out, "Lemma 13: CXRPQ^vsf → ∪-ECRPQ^er");
            let _ = writeln!(out, "members:    {}", union.len());
            let _ = writeln!(out, "total size: {}", union.size());
            let _ = writeln!(out, "all ECRPQ^er: {}", union.is_er());
            let _ = writeln!(out, "input size: {}", q.size());
        }
    }
    Ok(out)
}

/// `sample <query>`: random conjunctive matches of the query's xregex.
pub fn sample(query_text: &str, count: usize, seed: u64) -> Result<String, CmdError> {
    let mut alphabet = Alphabet::new();
    let q = parse_query(query_text, &mut alphabet).map_err(|e| format!("query: {e}"))?;
    let sigma = alphabet.len().max(1);
    let cfg = SampleConfig {
        rep_continue: 0.5,
        max_reps: 3,
        free_image_max: 2,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let mut produced = 0usize;
    for _ in 0..count * 20 {
        if produced == count {
            break;
        }
        if let Some((words, vmap)) =
            sample_conjunctive_match(q.conjunctive(), sigma, &cfg, &mut rng)
        {
            let rendered: Vec<String> = words
                .iter()
                .map(|w| format!("\"{}\"", alphabet.render_word(w)))
                .collect();
            let images: Vec<String> = vmap
                .iter()
                .map(|(x, w)| {
                    format!(
                        "{}=\"{}\"",
                        q.conjunctive().vars().name(*x),
                        alphabet.render_word(w)
                    )
                })
                .collect();
            let _ = writeln!(out, "({})  [{}]", rendered.join(", "), images.join(", "));
            produced += 1;
        }
    }
    if produced == 0 {
        let _ = writeln!(out, "no samples produced (language may be empty)");
    }
    Ok(out)
}

/// `dot <graph>`: Graphviz export of the database.
pub fn graph_dot(graph_text: &str) -> Result<String, CmdError> {
    let (db, _) = parse_graph(graph_text)?;
    Ok(cxrpq_graph::dot::to_dot(&db, "db"))
}

/// Parses `--engine` values.
pub fn parse_engine(name: &str) -> Result<EngineKind, CmdError> {
    match name {
        "simple" => Ok(EngineKind::Simple),
        "vsf" => Ok(EngineKind::Vsf),
        "bounded" => Ok(EngineKind::Bounded),
        other => Err(format!(
            "unknown engine {other:?} (expected simple|vsf|bounded)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRAPH: &str = "\
alphabet a b c
edge u a m1
edge m1 b m2
edge m2 c m3
edge m3 a m4
edge m4 b v
";

    const QUERY: &str = "ans(x, y) <- (x) -[ z{(a|b)+}cz ]-> (y)";

    #[test]
    fn graph_info_reports_counts() {
        let out = graph_info(GRAPH).unwrap();
        assert!(out.contains("nodes:   6"));
        assert!(out.contains("edges:   5"));
        assert!(out.contains("alphabet (3 symbols):"));
    }

    #[test]
    fn classify_reports_fragment_and_plan() {
        let out = classify(QUERY).unwrap();
        assert!(out.contains("fragment:         Simple"));
        assert!(out.contains("planned engine:   simple"));
        assert!(out.contains("exact:            yes"));
    }

    #[test]
    fn eval_lists_answers() {
        let out = eval(GRAPH, QUERY, EvalCmdOptions::default()).unwrap();
        assert!(out.contains("answers: 1"), "{out}");
        assert!(out.contains("(u, v)"));
        // The simple engine reports the solver pipeline's per-phase stats.
        assert!(out.contains("pipeline: order ["), "{out}");
        assert!(out.contains("domains"), "{out}");
        // A single atom proposes alone: no intersection.
        assert!(out.contains("intersection seeks: 0"), "{out}");
    }

    #[test]
    fn eval_reports_leapfrog_strategy_on_cyclic_cores() {
        let graph = "\
alphabet a b c
edge n0 a n1
edge n1 b n2
edge n2 c n0
edge n0 a n3
";
        let query = "ans(x, y, z) <- (x) -[ a ]-> (y), (y) -[ b ]-> (z), (z) -[ c ]-> (x)";
        let out = eval(graph, query, EvalCmdOptions::default()).unwrap();
        let seeks: usize = out
            .lines()
            .find_map(|l| l.strip_prefix("intersection seeks: "))
            .and_then(|n| n.parse().ok())
            .expect("a planned run reports its seeks");
        assert!(seeks > 0, "{out}");
        assert!(out.contains("(n0, n1, n2)"), "{out}");
    }

    #[test]
    fn eval_renders_analyzer_diagnostics() {
        // The second atom's language contains the first's, so the analyzer
        // drops it and the CLI surfaces the lint.
        let query = "ans(x, y) <- (x) -[ ab ]-> (y), (x) -[ a(b|c) ]-> (y)";
        let out = eval(GRAPH, query, EvalCmdOptions::default()).unwrap();
        assert!(out.contains("analysis: 1 atom(s) dropped"), "{out}");
        assert!(out.contains("[subsumed-atom]"), "{out}");
        assert!(out.contains("warning"), "{out}");
        assert!(out.contains("(u, m2)"), "{out}");
    }

    #[test]
    fn eval_reports_contracted_and_peeled_vars() {
        // `y` sits between one in-atom and one out-atom: it contracts into
        // one `a·b` atom from `x` to `z`, and `z` then peels into `x`.
        let query = "ans(x) <- (x) -[ a ]-> (y), (y) -[ b ]-> (z)";
        let out = eval(GRAPH, query, EvalCmdOptions::default()).unwrap();
        assert!(out.contains("1 var(s) contracted"), "{out}");
        assert!(out.contains("[contracted-var]"), "{out}");
        assert!(out.contains("1 leaf var(s) peeled"), "{out}");
    }

    #[test]
    fn eval_reports_static_unsat() {
        let query = "ans(x, y) <- (x) -[ ab ]-> (y), (x) -[ ! ]-> (y)";
        let out = eval(GRAPH, query, EvalCmdOptions::default()).unwrap();
        assert!(out.contains("answers: 0"), "{out}");
        assert!(out.contains("statically unsatisfiable"), "{out}");
        assert!(out.contains("[empty-atom]"), "{out}");
    }

    #[test]
    fn eval_with_witness_and_forced_engine() {
        let out = eval(
            GRAPH,
            QUERY,
            EvalCmdOptions {
                engine: Some(EngineKind::Bounded),
                k: Some(2),
                witness: true,
                limit: Some(10),
                ..EvalCmdOptions::default()
            },
        )
        .unwrap();
        assert!(out.contains("bounded-image"));
        assert!(out.contains("witness:"));
        assert!(out.contains("z = \"ab\""));
    }

    #[test]
    fn check_resolves_node_names() {
        let out = check(GRAPH, QUERY, &["u", "v"]).unwrap();
        assert!(out.contains("∈ q(D): true"), "{out}");
        let out2 = check(GRAPH, QUERY, &["u", "m1"]).unwrap();
        assert!(out2.contains("∈ q(D): false"));
        let err = check(GRAPH, QUERY, &["u"]).unwrap_err();
        assert!(err.contains("arity"));
        let err2 = check(GRAPH, QUERY, &["u", "nope"]).unwrap_err();
        assert!(err2.contains("unknown node"));
    }

    #[test]
    fn normal_form_reports_steps() {
        let out =
            normal_form_report("ans() <- (x) -[ z{ab|ba}z ]-> (y), (u) -[ z|ab ]-> (v)").unwrap();
        assert!(out.contains("after Step 1:"));
        assert!(out.contains("normal form"));
    }

    #[test]
    fn translate_reports_union_sizes() {
        let out = translate_cmd(QUERY, TranslateTarget::UnionCrpq { k: 2 }).unwrap();
        assert!(out.contains("members:"), "{out}");
        let out2 = translate_cmd(
            "ans() <- (x) -[ z{ab|ba}z ]-> (y)",
            TranslateTarget::UnionEcrpq,
        )
        .unwrap();
        assert!(out2.contains("all ECRPQ^er: true"));
    }

    #[test]
    fn sample_produces_matches() {
        let out = sample(QUERY, 3, 42).unwrap();
        // Every line shows the component word and the z-image.
        assert!(out.lines().count() >= 1);
        assert!(out.contains("z="), "{out}");
    }

    #[test]
    fn abort_diagnostic_renders_like_a_lint() {
        let d = abort_diagnostic(AbortReason::Fuel);
        assert_eq!(
            d.to_string(),
            "warning [resource-abort] pattern: evaluation aborted early: \
             the step budget (--max-steps) ran out; results are a sound \
             partial under-approximation"
        );
        assert!(abort_diagnostic(AbortReason::Deadline)
            .to_string()
            .contains("--timeout-ms"));
        assert!(abort_diagnostic(AbortReason::Memory)
            .to_string()
            .contains("--max-mem-mb"));
    }

    #[test]
    fn eval_reports_resource_abort() {
        let out = eval(
            GRAPH,
            QUERY,
            EvalCmdOptions {
                max_steps: Some(1),
                ..EvalCmdOptions::default()
            },
        )
        .unwrap();
        assert!(out.contains("warning [resource-abort] pattern:"), "{out}");
        assert!(out.contains("--max-steps"), "{out}");
    }

    #[test]
    fn eval_without_limits_stays_complete() {
        let out = eval(GRAPH, QUERY, EvalCmdOptions::default()).unwrap();
        assert!(!out.contains("resource-abort"), "{out}");
        // Generous limits don't trip either.
        let out2 = eval(
            GRAPH,
            QUERY,
            EvalCmdOptions {
                timeout_ms: Some(60_000),
                max_steps: Some(u64::MAX),
                max_mem_mb: Some(4096),
                ..EvalCmdOptions::default()
            },
        )
        .unwrap();
        assert!(!out2.contains("resource-abort"), "{out2}");
        assert!(out2.contains("answers: 1"), "{out2}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(graph_info("bogus line\n").is_err());
        assert!(classify("not a query").is_err());
        assert!(eval(GRAPH, "ans(", EvalCmdOptions::default()).is_err());
        assert!(parse_engine("warp").is_err());
        assert!(parse_engine("vsf").is_ok());
    }

    #[test]
    fn dot_export_via_cli() {
        let out = graph_dot(GRAPH).unwrap();
        assert!(out.starts_with("digraph db {"));
        assert!(out.contains("label=\"u\""));
        assert!(out.contains("label=\"a\""));
    }
}
