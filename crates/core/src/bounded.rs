//! Theorem 6: evaluation of `CXRPQ^{≤k}` — NP combined / NL data complexity.
//!
//! The algorithm of §6.1: nondeterministically guess a variable mapping
//! `v̄ ∈ (Σ^{≤k})ⁿ`, specialize the conjunctive xregex to a tuple of
//! classical regular expressions (Lemma 10/11), and evaluate the resulting
//! CRPQ. Derandomized here as an enumeration of candidate mappings in
//! ≺-topological order, with *candidate pruning*: a defined variable only
//! ranges over `{ε} ∪ ⋃_defs L^{≤k}(γ′)` where `γ′` substitutes the images
//! of earlier variables — every skipped mapping is one Lemma 10 would
//! specialize to ∅. The unpruned enumeration (all `(|Σ|+1)^{nk}`-ish
//! mappings) is kept as an ablation for experiment E8.

use crate::crpq::CrpqEvaluator;
use crate::cxrpq::Cxrpq;
use crate::evaluate::{verdict_of, Answer, Evaluate, Outcome, Request};
use crate::governor::Governor;
use crate::solve::SolveOptions;
use cxrpq_automata::Nfa;
use cxrpq_graph::{GraphDb, Symbol};
use cxrpq_xregex::specialize::{specialize, substituted_body, VarMapping};
use cxrpq_xregex::{Var, Xregex};
use std::collections::BTreeSet;

/// Enumeration counters from one run (experiment E8's measurable content;
/// the product states explored are [`Outcome::states`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BoundedStats {
    /// Candidate variable mappings visited.
    pub mappings: usize,
    /// Mappings whose specialization was non-empty (CRPQs evaluated).
    pub crpqs_evaluated: usize,
}

/// The `CXRPQ^{≤k}` engine.
///
/// A governor on the run's [`SolveOptions`] bounds the mapping enumeration
/// (one checkpoint per enumeration node) and every specialized-CRPQ run;
/// an abort truncates the enumeration, so the result is a sound
/// under-approximation.
pub struct BoundedEvaluator<'q> {
    q: &'q Cxrpq,
    k: usize,
    prune: bool,
}

impl<'q> BoundedEvaluator<'q> {
    /// Evaluator for `q^{≤k}` with candidate pruning enabled.
    pub fn new(q: &'q Cxrpq, k: usize) -> Self {
        Self { q, k, prune: true }
    }

    /// Disables candidate pruning (blind `(Σ^{≤k})ⁿ` enumeration) — the
    /// ablation arm of experiment E8.
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }

    /// The image bound k.
    pub fn k(&self) -> usize {
        self.k
    }

    fn all_words_upto(&self, sigma: usize) -> Vec<Vec<Symbol>> {
        let mut out: Vec<Vec<Symbol>> = vec![Vec::new()];
        let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
        for _ in 0..self.k {
            let mut next = Vec::with_capacity(frontier.len() * sigma);
            for w in &frontier {
                for s in 0..sigma as u32 {
                    let mut v = w.clone();
                    v.push(Symbol(s));
                    next.push(v);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    /// Definition bodies of `x` across all components.
    fn def_bodies(&self, x: Var) -> Vec<Xregex> {
        let mut bodies = Vec::new();
        for c in self.q.conjunctive().components() {
            c.walk(&mut |n| {
                if let Xregex::VarDef(y, body) = n {
                    if *y == x {
                        bodies.push((**body).clone());
                    }
                }
            });
        }
        bodies
    }

    /// Candidate images of `x` given the images of ≺-earlier variables.
    fn candidates_for(&self, x: Var, psi: &VarMapping, sigma: usize) -> Vec<Vec<Symbol>> {
        let bodies = self.def_bodies(x);
        if !self.prune || bodies.is_empty() {
            // Undefined variables range over all of Σ^{≤k} (dummy-definition
            // semantics); unpruned mode enumerates blindly for everyone.
            self.all_words_upto(sigma)
        } else {
            let mut set: BTreeSet<Vec<Symbol>> = BTreeSet::new();
            set.insert(Vec::new()); // ε: the never-instantiated option
            for body in &bodies {
                let re = substituted_body(body, psi);
                for w in Nfa::from_regex(&re).enumerate_upto(self.k, sigma) {
                    set.insert(w);
                }
            }
            set.into_iter().collect()
        }
    }

    /// Enumerates candidate mappings extending `psi` over
    /// `walk.order[idx..]` in ≺-topological order; `f` returns `true` to
    /// stop.
    fn rec(
        &self,
        walk: &Walk<'_>,
        idx: usize,
        psi: &mut VarMapping,
        stats: &mut BoundedStats,
        f: &mut dyn FnMut(&VarMapping, &mut BoundedStats) -> bool,
    ) -> bool {
        // One checkpoint per enumeration node; an abort reports "no hit"
        // for the whole subtree (sound under-approximation).
        if !walk.gov.checkpoint() {
            return false;
        }
        if idx == walk.order.len() {
            stats.mappings += 1;
            return f(psi, stats);
        }
        let x = walk.order[idx];
        for c in self.candidates_for(x, psi, walk.sigma) {
            if walk.gov.is_aborted() {
                break;
            }
            psi.insert(x, c);
            if self.rec(walk, idx + 1, psi, stats, f) {
                psi.remove(&x);
                return true;
            }
            psi.remove(&x);
        }
        false
    }

    /// One candidate mapping's share of a run: specialize (Lemma 10/11),
    /// answer `req` on the resulting CRPQ, and fold its outcome into `out`
    /// (a witness takes the mapping as its variable images). Returns
    /// whether `out` is settled.
    fn on_mapping(
        &self,
        db: &GraphDb,
        req: Request<'_>,
        opts: &SolveOptions,
        psi: &VarMapping,
        stats: &mut BoundedStats,
        out: &mut Outcome,
    ) -> bool {
        let Some(regexes) = specialize(self.q.conjunctive(), psi) else {
            return false;
        };
        stats.crpqs_evaluated += 1;
        let crpq = self.q.to_crpq(&regexes);
        let mut sub = CrpqEvaluator::new(&crpq).run(db, req, opts);
        if let Answer::Witness(Some(w)) = &mut sub.value {
            let vars = self.q.conjunctive().vars();
            w.images = psi
                .iter()
                .map(|(x, img)| (vars.name(*x).to_string(), img.clone()))
                .collect();
        }
        out.absorb(sub);
        out.value.is_settled()
    }

    /// [`Evaluate::run`] plus the enumeration counters.
    pub fn run_with_stats(
        &self,
        db: &GraphDb,
        req: Request<'_>,
        opts: &SolveOptions,
    ) -> (Outcome, BoundedStats) {
        let order = self.q.conjunctive().topological_vars();
        let walk = Walk::new(&order, db, opts);
        let inner = inner_options(opts);
        let mut out = Outcome::new(Answer::none(req), opts);
        let mut stats = BoundedStats::default();
        self.rec(
            &walk,
            0,
            &mut VarMapping::new(),
            &mut stats,
            &mut |psi, stats| self.on_mapping(db, req, &inner, psi, stats, &mut out),
        );
        out.verdict = verdict_of(opts);
        (out, stats)
    }

    /// Evaluation under one fixed mapping: `D ⊨_{v̄} q` (used by tests and
    /// by the Lemma 14 translation).
    pub fn boolean_fixed(&self, db: &GraphDb, psi: &VarMapping) -> bool {
        match specialize(self.q.conjunctive(), psi) {
            Some(regexes) => CrpqEvaluator::new(&self.q.to_crpq(&regexes)).boolean(db),
            None => false,
        }
    }

    /// [`Evaluate::run`] parallelized across candidate images of the first
    /// ≺-variable — candidate mappings are independent, so the enumeration
    /// splits embarrassingly (the NP guess of Theorem 6 explored in
    /// parallel). Shards stop once any of them settles the request;
    /// partial answers are merged in shard order. Falls back to the serial
    /// run for variable-free queries or `threads ≤ 1`.
    pub fn run_parallel(
        &self,
        db: &GraphDb,
        req: Request<'_>,
        opts: &SolveOptions,
        threads: usize,
    ) -> Outcome {
        use std::sync::atomic::{AtomicBool, Ordering};
        let order = self.q.conjunctive().topological_vars();
        if order.is_empty() || threads <= 1 {
            return self.run(db, req, opts);
        }
        let walk = Walk::new(&order, db, opts);
        let inner = inner_options(opts);
        let x = order[0];
        let candidates = self.candidates_for(x, &VarMapping::new(), walk.sigma);
        let settled = AtomicBool::new(false);
        let partials =
            crate::pool::WorkerPool::global().run_sharded(&candidates, threads, |_, chunk| {
                let mut local = Outcome::new(Answer::none(req), opts);
                let mut stats = BoundedStats::default();
                for c in chunk {
                    if settled.load(Ordering::Relaxed) || walk.gov.is_aborted() {
                        break;
                    }
                    let mut psi = VarMapping::new();
                    psi.insert(x, c.clone());
                    self.rec(&walk, 1, &mut psi, &mut stats, &mut |psi, stats| {
                        self.on_mapping(db, req, &inner, psi, stats, &mut local)
                    });
                    if local.value.is_settled() {
                        settled.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                local
            });
        let mut out = Outcome::new(Answer::none(req), opts);
        for local in partials {
            out.absorb(local);
        }
        out.verdict = verdict_of(opts);
        out
    }
}

/// What a mapping enumeration walks: the ≺-topological variable order, the
/// alphabet size and the run's governor.
struct Walk<'a> {
    order: &'a [Var],
    sigma: usize,
    gov: &'a Governor,
}

impl<'a> Walk<'a> {
    fn new(order: &'a [Var], db: &GraphDb, opts: &'a SolveOptions) -> Self {
        Self {
            order,
            sigma: db.alphabet().len(),
            gov: opts.governor.as_deref().unwrap_or(Governor::disabled()),
        }
    }
}

/// The run's options for the specialized CRPQs. A plan seed describes the
/// bounded query's own constraint graph, not the specialized CRPQs', so it
/// is dropped.
fn inner_options(opts: &SolveOptions) -> SolveOptions {
    SolveOptions {
        plan_seed: None,
        ..opts.clone()
    }
}

impl Evaluate for BoundedEvaluator<'_> {
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome {
        self.run_with_stats(db, req, opts).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use crate::governor::{AbortReason, Verdict};
    use cxrpq_graph::GraphBuilder;
    use cxrpq_graph::{Alphabet, NodeId};
    use std::sync::Arc;

    fn path_db(words: &[&str]) -> (GraphDb, Vec<(NodeId, NodeId)>) {
        let alpha = Arc::new(Alphabet::from_chars("abc#"));
        let mut db = GraphBuilder::new(alpha);
        let mut ends = Vec::new();
        for w in words {
            let s = db.add_node();
            let t = db.add_node();
            let word = db.alphabet().parse_word(w).unwrap();
            db.add_word_path(s, &word, t);
            ends.push((s, t));
        }
        (db.freeze(), ends)
    }

    #[test]
    fn single_edge_bounded_matching() {
        let (db, ends) = path_db(&["abcab"]);
        let mut alpha = db.alphabet().clone();
        // z{(a|b)+} c z: needs image "ab" (k ≥ 2).
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        assert!(BoundedEvaluator::new(&q, 2).check(&db, &[ends[0].0, ends[0].1]));
        // k = 1 is too small for image "ab".
        assert!(!BoundedEvaluator::new(&q, 1).check(&db, &[ends[0].0, ends[0].1]));
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let (db, _) = path_db(&["abcab", "aabaa", "cc"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .unwrap();
        for k in 0..=3 {
            let pruned = BoundedEvaluator::new(&q, k);
            let blind = BoundedEvaluator::new(&q, k).without_pruning();
            assert_eq!(pruned.boolean(&db), blind.boolean(&db), "k={k}");
        }
    }

    #[test]
    fn pruning_reduces_enumeration() {
        let (db, _) = path_db(&["abcab"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{ab}cz", "y") // z can only be "ab" (or ε)
            .build()
            .unwrap();
        let opts = Request::Boolean.default_options();
        let (_, s1) = BoundedEvaluator::new(&q, 3).run_with_stats(&db, Request::Boolean, &opts);
        let (_, s2) = BoundedEvaluator::new(&q, 3)
            .without_pruning()
            .run_with_stats(&db, Request::Boolean, &opts);
        assert!(
            s1.mappings < s2.mappings,
            "pruned {} !< blind {}",
            s1.mappings,
            s2.mappings
        );
    }

    #[test]
    fn dependent_definitions() {
        // y{a|b}, x{yy}: x's candidates depend on y's image.
        let (db, ends) = path_db(&["a", "aa"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("p", "y{a|b}", "q")
            .edge("r", "x{yy}", "s")
            .output(&["p", "q", "r", "s"])
            .build()
            .unwrap();
        let ev = BoundedEvaluator::new(&q, 2);
        assert!(ev.check(&db, &[ends[0].0, ends[0].1, ends[1].0, ends[1].1]));
        // And the wrong composition is rejected ("a" path for x).
        assert!(!ev.check(&db, &[ends[1].0, ends[1].1, ends[0].0, ends[0].1]));
    }

    #[test]
    fn crpq_subsumption() {
        // A variable-free CXRPQ behaves exactly like the CRPQ (k irrelevant,
        // CRPQ ⊆ CXRPQ^{≤k}).
        let (db, ends) = path_db(&["abc"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "a.c", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ev = BoundedEvaluator::new(&q, 0);
        assert!(ev.check(&db, &[ends[0].0, ends[0].1]));
    }

    #[test]
    fn answers_union_over_mappings() {
        let (db, ends) = path_db(&["aca", "bcb", "acb"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{a|b}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ans = BoundedEvaluator::new(&q, 1).answers(&db);
        assert!(ans.contains(&vec![ends[0].0, ends[0].1]));
        assert!(ans.contains(&vec![ends[1].0, ends[1].1]));
        assert!(!ans.contains(&vec![ends[2].0, ends[2].1]));
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let (db, _) = path_db(&["abcab", "aabaa", "cc", "bacba"]);
        let mut alpha = db.alphabet().clone();
        for pat in ["z{(a|b)+}cz", "y{a|b}x{yy}cx", "z{ab}cz"] {
            let q = CxrpqBuilder::new(&mut alpha)
                .edge("u", pat, "v")
                .output(&["u", "v"])
                .build()
                .unwrap();
            for k in 1..=2 {
                let ev = BoundedEvaluator::new(&q, k);
                for threads in [1, 2, 4] {
                    for req in [Request::Boolean, Request::Answers] {
                        let opts = req.default_options();
                        assert_eq!(
                            ev.run(&db, req, &opts).value,
                            ev.run_parallel(&db, req, &opts, threads).value,
                            "{pat} k={k} threads={threads} {req:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_handles_variable_free_queries() {
        let (db, ends) = path_db(&["abc"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "a.c", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ev = BoundedEvaluator::new(&q, 1);
        let par = |req: Request| ev.run_parallel(&db, req, &req.default_options(), 4).value;
        assert!(par(Request::Boolean).into_bool());
        assert!(par(Request::Answers)
            .into_tuples()
            .contains(&vec![ends[0].0, ends[0].1]));
    }

    #[test]
    fn governed_answers_are_sound_partial_subsets() {
        let (db, _) = path_db(&["aca", "bcb", "acb"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{a|b}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ev = BoundedEvaluator::new(&q, 1);
        let complete = ev.answers(&db);
        let governed = |gov: &Arc<Governor>| {
            let opts = Request::Answers.default_options().governed(gov.clone());
            ev.run(&db, Request::Answers, &opts)
        };
        for fuel in 0..24 {
            let gov = Arc::new(Governor::unlimited().with_max_steps(fuel));
            let partial = governed(&gov).value.into_tuples();
            assert!(
                partial.is_subset(&complete),
                "fuel {fuel}: partial must under-approximate"
            );
        }
        // Enough fuel: identical relation, governor never trips.
        let gov = Arc::new(Governor::unlimited().with_max_steps(u64::MAX));
        let full = governed(&gov);
        assert_eq!(full.value.into_tuples(), complete);
        assert!(full.verdict.is_complete());
    }

    #[test]
    fn governed_parallel_runs_abort_soundly() {
        let (db, _) = path_db(&["abcab", "aabaa", "cc", "bacba"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("u", "y{a|b}x{yy}cx", "v")
            .output(&["u", "v"])
            .build()
            .unwrap();
        let ev = BoundedEvaluator::new(&q, 2);
        let complete = ev.answers(&db);
        // Every injection point inside the run trips it: the inner CRPQ
        // solves checkpoint on the same governor as the enumeration.
        let dry = Arc::new(Governor::unlimited());
        let opts = Request::Answers.default_options().governed(dry.clone());
        ev.run_parallel(&db, Request::Answers, &opts, 2);
        let inner = dry.checkpoints_seen();
        assert!(inner > 0);
        for k in (1..=inner).step_by((inner as usize / 50).max(1)) {
            for req in [Request::Boolean, Request::Answers] {
                let gov = Arc::new(Governor::unlimited().with_injection(k));
                let opts = req.default_options().governed(gov);
                let out = ev.run_parallel(&db, req, &opts, 2);
                if let Answer::Tuples(partial) = &out.value {
                    assert!(partial.is_subset(&complete), "k={k}");
                }
                if req == Request::Answers {
                    assert_eq!(
                        out.verdict,
                        Verdict::Aborted(AbortReason::Injected),
                        "k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn unbounded_paths_with_bounded_images() {
        // CRPQ-parts may still traverse arbitrarily long paths: a* z{b} a* z.
        let (db, ends) = path_db(&["aaaaabaaab"]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "a*z{b}a*z", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        assert!(BoundedEvaluator::new(&q, 1).check(&db, &[ends[0].0, ends[0].1]));
    }
}
