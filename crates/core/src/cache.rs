//! A shared, sharded query cache for the serving layer.
//!
//! CXRPQ evaluation is PSPACE-hard in combined complexity, so a server must
//! amortize the expensive per-query work — parsing, analysis, planning, and
//! for small results the evaluation itself — across repeated queries. The
//! [`QueryCache`] is that amortizer: one instance is shared (`Arc`) by every
//! connection thread of the CLI `serve` command and by anything else that
//! evaluates queries against one [`GraphDb`] lineage.
//!
//! ## Keying and validation
//!
//! Entries are keyed on `(normalized query text, options fingerprint)`;
//! normalization ([`crate::query_text::normalize_query`]) collapses
//! whitespace/comment/atom-order variants onto one key, and a raw-text alias
//! table makes the repeated-exact-text case skip parsing entirely. The
//! database generation is the *validation* component of the key, mirroring
//! `ReachCache::bind`: an entry remembers the generation it was computed
//! against, and on lookup
//!
//! - a generation match serves the entry as-is;
//! - an append lineage ([`GraphDb::delta_since`]) whose labels are all
//!   outside the entry's label footprint (and which created no nodes) keeps
//!   the cached *answers* alive — those arcs can never participate in this
//!   query's matches;
//! - anything else (footprint overlap, new nodes, foreign/compacted
//!   ancestry) drops the answers; the compiled plan additionally survives
//!   same-lineage appends, because a plan only orders the search and can
//!   never make a result wrong.
//!
//! ## Abort hygiene
//!
//! A governed run that ends [`Verdict::Aborted`] produced a sound *partial*
//! answer set — an under-approximation that must never be served as the
//! query's answer later. Aborted runs therefore install **nothing**: no
//! answer entry, no plan, no analysis (same discipline as `ReachCache`,
//! whose interrupted fills are never memoized).

use crate::analyze::AnalysisReport;
use crate::engine::{AutoEvaluator, EngineKind, EvalOptions, PlanError};
use crate::governor::{Governor, Verdict};
use crate::plan::SolvePlan;
use crate::query_text::{canonical_query, parse_query, QueryTextError};
use crate::Cxrpq;
use cxrpq_graph::{GraphDb, NodeId, Symbol};
use cxrpq_xregex::Xregex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The label footprint of a query: which database labels its automata can
/// ever traverse. Appends that only add labels outside the footprint cannot
/// change the query's answers (provided they add no nodes — ε-atoms make
/// every node answer-relevant).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Sorted distinct symbols referenced by the query.
    pub syms: Vec<Symbol>,
    /// Whether any atom uses the `Any` wildcard (footprint = whole Σ).
    pub uses_any: bool,
}

impl Footprint {
    /// The exact footprint of `q`: every `Sym`/`Any` leaf across all
    /// conjunctive components. Variable references draw their language from
    /// definitions that are themselves components of the same query, so the
    /// union over components covers them.
    pub fn of_query(q: &Cxrpq) -> Self {
        let mut syms = Vec::new();
        let mut uses_any = false;
        for comp in q.conjunctive().components() {
            collect_footprint(comp, &mut syms, &mut uses_any);
        }
        syms.sort_unstable();
        syms.dedup();
        Self { syms, uses_any }
    }

    /// Whether every label in `changed` lies outside this footprint.
    pub fn disjoint_from(&self, changed: &[Symbol]) -> bool {
        !self.uses_any && changed.iter().all(|a| self.syms.binary_search(a).is_err())
    }
}

fn collect_footprint(x: &Xregex, syms: &mut Vec<Symbol>, uses_any: &mut bool) {
    match x {
        Xregex::Empty | Xregex::Epsilon | Xregex::VarRef(_) => {}
        Xregex::Sym(a) => syms.push(*a),
        Xregex::Any => *uses_any = true,
        Xregex::Concat(ps) | Xregex::Alt(ps) => {
            for p in ps {
                collect_footprint(p, syms, uses_any);
            }
        }
        Xregex::Plus(p) | Xregex::Star(p) | Xregex::VarDef(_, p) => {
            collect_footprint(p, syms, uses_any);
        }
    }
}

/// Sizing knobs for [`QueryCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to a power of
    /// two). More shards, less contention.
    pub shards: usize,
    /// Per-shard entry capacity; the least-recently-used entry is evicted
    /// beyond it.
    pub capacity_per_shard: usize,
    /// Answer sets whose estimated size exceeds this many bytes are not
    /// cached (the plan and analysis still are).
    pub answer_budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            capacity_per_shard: 128,
            answer_budget_bytes: 64 * 1024,
        }
    }
}

/// How a request was served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// Answers replayed straight from the cache — no evaluation at all.
    AnswerHit,
    /// Compiled artifacts (parsed query and/or plan) reused; evaluation ran.
    PlanHit,
    /// Nothing reusable; full parse + analyze + plan + solve.
    Miss,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::AnswerHit => write!(f, "answer-hit"),
            CacheOutcome::PlanHit => write!(f, "plan-hit"),
            CacheOutcome::Miss => write!(f, "miss"),
        }
    }
}

/// Counter snapshot (see [`QueryCache::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Requests served entirely from a cached answer set.
    pub answer_hits: u64,
    /// Requests that reused a cached parse/plan but re-evaluated.
    pub plan_hits: u64,
    /// Requests with no reusable entry.
    pub misses: u64,
    /// Answer entries kept alive across an append because the delta was
    /// outside their label footprint.
    pub survived_appends: u64,
    /// Answer entries dropped by generation validation.
    pub invalidated: u64,
    /// Installs refused because the run aborted (partial results).
    pub aborted_uncached: u64,
    /// Entries evicted by the per-shard LRU.
    pub evictions: u64,
}

/// What a cache-mediated evaluation returned.
#[derive(Clone, Debug)]
pub struct ServedAnswers {
    /// The projected answer relation.
    pub answers: Arc<BTreeSet<Vec<NodeId>>>,
    /// Output arity of the query (0 = Boolean).
    pub arity: usize,
    /// Engine provenance.
    pub engine: EngineKind,
    /// Whether the result is exact for the unrestricted semantics.
    pub exact: bool,
    /// Completion verdict ([`Verdict::Aborted`] results are partial and
    /// were not cached).
    pub verdict: Verdict,
    /// How the cache served this request.
    pub outcome: CacheOutcome,
    /// The analyzer's report: fresh on evaluated paths, replayed from the
    /// install-time run on answer hits (valid there — the validation that
    /// admitted the answers proves the analysis inputs are unchanged).
    pub analysis: Option<AnalysisReport>,
    /// Wall-clock time spent serving this request (lookup + evaluation).
    pub elapsed: Duration,
}

/// Why a cache-mediated evaluation failed.
#[derive(Debug)]
pub enum CacheError {
    /// The query text did not parse/validate.
    Parse(QueryTextError),
    /// A forced engine does not apply to the query.
    Plan(PlanError),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Parse(e) => write!(f, "{e}"),
            CacheError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// One cached query: compiled artifacts always, answers when small enough.
struct Entry {
    /// The parsed canonical query (owned — engines borrow it per request).
    query: Arc<Cxrpq>,
    /// Engine the planner chose at install time.
    engine: EngineKind,
    exact: bool,
    arity: usize,
    /// Harvested phase-1 plan (Simple-engine runs; `None` otherwise).
    plan: Option<Arc<SolvePlan>>,
    /// Install-time analyzer report, replayed on answer hits.
    analysis: Option<AnalysisReport>,
    /// Cached answers + the evidence needed to keep them alive.
    answers: Option<AnswerSet>,
    /// Generation the *answers* (and analysis) were computed against.
    bound_generation: u64,
    /// LRU tick of the last touch.
    last_used: u64,
}

struct AnswerSet {
    answers: Arc<BTreeSet<Vec<NodeId>>>,
    footprint: Footprint,
    /// Node count at install time: new nodes can enter answers even under a
    /// footprint-disjoint delta (ε-atoms match every node), so survival
    /// additionally requires the node universe unchanged.
    node_count: usize,
}

struct Shard {
    entries: HashMap<(String, u64), Entry>,
    /// Raw text → normalized key text, so byte-identical repeats skip both
    /// parsing and normalization. Bounded by `capacity * 4`, cleared
    /// wholesale beyond that (aliases are cheap to rebuild).
    aliases: HashMap<String, String>,
    tick: u64,
}

impl Shard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The sharded LRU query cache. See the module docs for keying, validation,
/// and abort-hygiene semantics.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    cfg: CacheConfig,
    lookups: AtomicU64,
    answer_hits: AtomicU64,
    plan_hits: AtomicU64,
    misses: AtomicU64,
    survived_appends: AtomicU64,
    invalidated: AtomicU64,
    aborted_uncached: AtomicU64,
    evictions: AtomicU64,
}

// The cache is shared across connection threads; everything inside an entry
// must be thread-safe. In particular `ReachCache` (which holds `Rc`) must
// never leak into an entry — `Problem`s are rebuilt per request.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryCache>();
    assert_send_sync::<Entry>();
    assert_send_sync::<ServedAnswers>();
};

impl QueryCache {
    /// A cache with the given sizing knobs.
    pub fn new(cfg: CacheConfig) -> Self {
        let shard_count = cfg.shards.max(1).next_power_of_two();
        let shards = (0..shard_count)
            .map(|_| {
                Mutex::new(Shard {
                    entries: HashMap::new(),
                    aliases: HashMap::new(),
                    tick: 0,
                })
            })
            .collect();
        Self {
            shards,
            cfg,
            lookups: AtomicU64::new(0),
            answer_hits: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            survived_appends: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            aborted_uncached: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with default sizing.
    pub fn with_defaults() -> Self {
        Self::new(CacheConfig::default())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            answer_hits: self.answer_hits.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            survived_appends: self.survived_appends.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            aborted_uncached: self.aborted_uncached.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The fingerprint of the evaluation options that shape a result:
    /// `bounded_k` (the `⊨_{≤k}` semantics on General queries) and any
    /// forced engine. The governor deliberately does not participate —
    /// resource limits change *whether* a run completes, not what a
    /// completed run answers, and only completed runs are cached.
    pub fn options_fingerprint(opts: &EvalOptions) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(opts.bounded_k);
        h.write_usize(match opts.force {
            None => 0,
            Some(EngineKind::Simple) => 1,
            Some(EngineKind::Vsf) => 2,
            Some(EngineKind::Bounded) => 3,
        });
        h.finish()
    }

    /// Evaluates `text` against `db` through the cache: answers are
    /// replayed when a validated entry has them, otherwise the query is
    /// evaluated (reusing the cached parse/plan when available) and, if the
    /// run completed and the result fits the byte budget, installed.
    pub fn answers(
        &self,
        db: &GraphDb,
        text: &str,
        opts: &EvalOptions,
    ) -> Result<ServedAnswers, CacheError> {
        let t0 = Instant::now();
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let fp = Self::options_fingerprint(opts);

        // Resolve raw text to the normalized key, parsing at most once.
        let (normalized, mut parsed): (String, Option<Arc<Cxrpq>>) =
            match self.alias_lookup(text, fp) {
                Some(n) => (n, None),
                None => {
                    let mut alphabet = db.alphabet().clone();
                    let q = parse_query(text, &mut alphabet).map_err(CacheError::Parse)?;
                    let normalized = canonical_query(&q, &alphabet);
                    self.alias_install(text, fp, &normalized);
                    (normalized, Some(Arc::new(q)))
                }
            };

        // Validated lookup under the shard lock.
        let key = (normalized, fp);
        let shard_idx = self.shard_for(&key);
        let mut cached_plan: Option<Arc<SolvePlan>> = None;
        let mut had_entry = false;
        {
            let mut shard = self.shards[shard_idx].lock().expect("cache shard");
            let tick = shard.next_tick();
            if let Some(entry) = shard.entries.get_mut(&key) {
                match validate(entry, db) {
                    Validation::Dead => {
                        self.invalidated.fetch_add(1, Ordering::Relaxed);
                        shard.entries.remove(&key);
                    }
                    Validation::Artifacts { answers_survived } => {
                        let entry = shard.entries.get_mut(&key).expect("just found");
                        entry.last_used = tick;
                        if answers_survived {
                            self.survived_appends.fetch_add(1, Ordering::Relaxed);
                        } else if entry.answers.take().is_some() {
                            self.invalidated.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(ans) = &entry.answers {
                            self.answer_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(ServedAnswers {
                                answers: ans.answers.clone(),
                                arity: entry.arity,
                                engine: entry.engine,
                                exact: entry.exact,
                                verdict: Verdict::Complete,
                                outcome: CacheOutcome::AnswerHit,
                                analysis: entry.analysis.clone(),
                                elapsed: t0.elapsed(),
                            });
                        }
                        had_entry = true;
                        cached_plan = entry.plan.clone();
                        parsed = Some(entry.query.clone());
                    }
                }
            }
        }

        // Evaluate outside the lock (concurrent misses race benignly: the
        // last install wins, all compute the same thing).
        let q = match parsed {
            Some(q) => q,
            None => {
                let mut alphabet = db.alphabet().clone();
                Arc::new(parse_query(&key.0, &mut alphabet).map_err(CacheError::Parse)?)
            }
        };
        if had_entry || cached_plan.is_some() {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let eval_opts = EvalOptions {
            plan_seed: cached_plan,
            ..opts.clone()
        };
        let auto = AutoEvaluator::with_options(&q, eval_opts).map_err(CacheError::Plan)?;
        let r = auto.answers(db);
        let outcome = if had_entry {
            CacheOutcome::PlanHit
        } else {
            CacheOutcome::Miss
        };
        let served = ServedAnswers {
            answers: Arc::new(r.value),
            arity: q.output().len(),
            engine: r.engine,
            exact: r.exact,
            verdict: r.verdict,
            outcome,
            analysis: r.pipeline.as_ref().and_then(|p| p.analysis.clone()),
            elapsed: t0.elapsed(),
        };

        // Abort hygiene: a tripped governor means `served.answers` is an
        // under-approximation — cache nothing, not even the plan (it was
        // harvested from a drained pipeline).
        if matches!(served.verdict, Verdict::Aborted(_)) {
            self.aborted_uncached.fetch_add(1, Ordering::Relaxed);
            return Ok(served);
        }

        let plan = r.pipeline.as_ref().and_then(|p| p.plan_artifact.clone());
        let answers =
            (answer_bytes(&served.answers) <= self.cfg.answer_budget_bytes).then(|| AnswerSet {
                answers: served.answers.clone(),
                footprint: Footprint::of_query(&q),
                node_count: db.node_count(),
            });
        let mut shard = self.shards[shard_idx].lock().expect("cache shard");
        let tick = shard.next_tick();
        shard.entries.insert(
            key,
            Entry {
                query: q,
                engine: served.engine,
                exact: served.exact,
                arity: served.arity,
                plan,
                analysis: served.analysis.clone(),
                answers,
                bound_generation: db.generation(),
                last_used: tick,
            },
        );
        if shard.entries.len() > self.cfg.capacity_per_shard {
            if let Some(victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(served)
    }

    /// Evaluates a request under a per-request governor (the `serve` path):
    /// plain [`QueryCache::answers`] with the governor attached.
    pub fn answers_governed(
        &self,
        db: &GraphDb,
        text: &str,
        opts: &EvalOptions,
        gov: Arc<Governor>,
    ) -> Result<ServedAnswers, CacheError> {
        let opts = EvalOptions {
            governor: Some(gov),
            ..opts.clone()
        };
        self.answers(db, text, &opts)
    }

    fn shard_for(&self, key: &(String, u64)) -> usize {
        let mut h = Fnv64::new();
        h.write_bytes(key.0.as_bytes());
        h.write_usize(key.1 as usize);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    fn alias_lookup(&self, raw: &str, fp: u64) -> Option<String> {
        let mut h = Fnv64::new();
        h.write_bytes(raw.as_bytes());
        h.write_usize(fp as usize);
        let idx = (h.finish() as usize) & (self.shards.len() - 1);
        let shard = self.shards[idx].lock().expect("cache shard");
        shard.aliases.get(raw).cloned()
    }

    fn alias_install(&self, raw: &str, fp: u64, normalized: &str) {
        let mut h = Fnv64::new();
        h.write_bytes(raw.as_bytes());
        h.write_usize(fp as usize);
        let idx = (h.finish() as usize) & (self.shards.len() - 1);
        let mut shard = self.shards[idx].lock().expect("cache shard");
        if shard.aliases.len() >= self.cfg.capacity_per_shard * 4 {
            shard.aliases.clear();
        }
        shard
            .aliases
            .insert(raw.to_string(), normalized.to_string());
    }
}

enum Validation {
    /// Foreign/compacted ancestry: nothing in the entry is trustworthy.
    Dead,
    /// Same lineage: parse + plan remain valid; answers only if the delta
    /// proves them untouched.
    Artifacts { answers_survived: bool },
}

/// Generation validation, mirroring `ReachCache::bind`.
fn validate(entry: &Entry, db: &GraphDb) -> Validation {
    if entry.bound_generation == db.generation() {
        return Validation::Artifacts {
            answers_survived: entry.answers.is_some(),
        };
    }
    match db.delta_since(entry.bound_generation) {
        None => Validation::Dead,
        Some(changed) => {
            let answers_survived = entry.answers.as_ref().is_some_and(|a| {
                a.node_count == db.node_count()
                    && (changed.is_empty() || a.footprint.disjoint_from(&changed))
            });
            Validation::Artifacts { answers_survived }
        }
    }
}

/// Estimated in-memory size of a projected answer relation.
fn answer_bytes(answers: &BTreeSet<Vec<NodeId>>) -> usize {
    answers
        .iter()
        .map(|t| size_of::<Vec<NodeId>>() + t.len() * size_of::<NodeId>())
        .sum()
}

/// FNV-1a, 64-bit — a stable, dependency-free fingerprint hasher.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::AbortReason;
    use cxrpq_graph::{Alphabet, GraphBuilder};

    fn small_db() -> GraphDb {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut b = GraphBuilder::new(alpha);
        let nodes: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        let ab = b.alphabet().parse_word("ab").unwrap();
        let c = b.alphabet().parse_word("c").unwrap();
        b.add_word_path(nodes[0], &ab, nodes[1]);
        b.add_word_path(nodes[1], &c, nodes[2]);
        b.add_word_path(nodes[2], &ab, nodes[3]);
        b.freeze()
    }

    const Q: &str = "ans(x, y) <- (x) -[ (a|b)+ ]-> (y)";

    #[test]
    fn repeat_queries_hit_cached_answers() {
        let db = small_db();
        let cache = QueryCache::with_defaults();
        let opts = EvalOptions::default();
        let cold = cache.answers(&db, Q, &opts).unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);
        let warm = cache.answers(&db, Q, &opts).unwrap();
        assert_eq!(warm.outcome, CacheOutcome::AnswerHit);
        assert_eq!(cold.answers, warm.answers);
        assert_eq!(warm.engine, cold.engine);
        let s = cache.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.answer_hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn formatting_variants_share_one_entry() {
        let db = small_db();
        let cache = QueryCache::with_defaults();
        let opts = EvalOptions::default();
        let a = cache.answers(&db, Q, &opts).unwrap();
        let b = cache
            .answers(
                &db,
                "ans( x , y ) <-\n  # noisy\n  ( x ) -[ (a|b)+ ]-> ( y )",
                &opts,
            )
            .unwrap();
        assert_eq!(b.outcome, CacheOutcome::AnswerHit, "normalized key match");
        assert_eq!(a.answers, b.answers);
    }

    #[test]
    fn different_options_are_different_keys() {
        let db = small_db();
        let cache = QueryCache::with_defaults();
        let a = cache.answers(&db, Q, &EvalOptions::default()).unwrap();
        let forced = EvalOptions {
            force: Some(EngineKind::Bounded),
            ..EvalOptions::default()
        };
        let b = cache.answers(&db, Q, &forced).unwrap();
        assert_eq!(b.outcome, CacheOutcome::Miss, "distinct fingerprint");
        assert_eq!(a.answers, b.answers, "same query, same semantics here");
    }

    #[test]
    fn boolean_requests_equal_the_cold_boolean_run_for_every_engine() {
        let db = small_db();
        let queries = [
            "ans() <- (x) -[ a(b|c)*a ]-> (y)",
            "ans() <- (x) -[ (a|b)+c ]-> (y)",
            "ans() <- (x) -[ cc ]-> (y)",
            "ans() <- (x) -[ z{ab}cz ]-> (y)",
        ];
        for text in queries {
            let mut alpha = db.alphabet().clone();
            let q = parse_query(text, &mut alpha).unwrap();
            for engine in [EngineKind::Simple, EngineKind::Vsf, EngineKind::Bounded] {
                let opts = EvalOptions {
                    force: Some(engine),
                    ..EvalOptions::default()
                };
                let Ok(auto) = AutoEvaluator::with_options(&q, opts.clone()) else {
                    continue; // the engine does not cover this fragment
                };
                let want = auto.boolean(&db).value;
                let cache = QueryCache::with_defaults();
                let cold = cache.answers(&db, text, &opts).unwrap();
                let warm = cache.answers(&db, text, &opts).unwrap();
                assert_eq!(warm.outcome, CacheOutcome::AnswerHit, "{text} {engine:?}");
                for served in [&cold, &warm] {
                    assert_eq!(served.arity, 0);
                    assert_eq!(!served.answers.is_empty(), want, "{text} under {engine:?}");
                    assert!(served.answers.iter().all(Vec::is_empty));
                }
            }
        }
    }

    #[test]
    fn footprint_is_exact_and_union_over_components() {
        let mut alpha = Alphabet::from_chars("abc");
        let q = parse_query("ans() <- (x) -[ z{(a|b)+}cz ]-> (y)", &mut alpha).unwrap();
        let f = Footprint::of_query(&q);
        let names: Vec<&str> = f.syms.iter().map(|&s| alpha.name(s)).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(!f.uses_any);
    }

    #[test]
    fn aborted_runs_install_nothing() {
        let db = small_db();
        let cache = QueryCache::with_defaults();
        let opts = EvalOptions::default();
        let gov = Arc::new(Governor::unlimited());
        gov.cancel();
        let _ = gov.checkpoint();
        let r = cache.answers_governed(&db, Q, &opts, gov).unwrap();
        assert!(matches!(
            r.verdict,
            Verdict::Aborted(AbortReason::Cancelled)
        ));
        // The partial result must not have been installed: the next
        // (ungoverned) request is a miss and computes the full answer.
        let cold = cache.answers(&db, Q, &opts).unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);
        assert!(cold.answers.len() >= r.answers.len());
        assert_eq!(cache.stats().aborted_uncached, 1);
        // And the full answer does get cached afterwards.
        assert_eq!(
            cache.answers(&db, Q, &opts).unwrap().outcome,
            CacheOutcome::AnswerHit
        );
    }

    #[test]
    fn answers_survive_footprint_disjoint_appends() {
        let mut db = small_db();
        let cache = QueryCache::with_defaults();
        let opts = EvalOptions::default();
        let cold = cache.answers(&db, Q, &opts).unwrap();
        // `c` is outside the (a|b)+ footprint and the append adds no nodes.
        let c = db.alphabet().symbol("c").unwrap();
        assert!(db.append(NodeId(3), c, NodeId(0)));
        let warm = cache.answers(&db, Q, &opts).unwrap();
        assert_eq!(warm.outcome, CacheOutcome::AnswerHit, "disjoint delta");
        assert_eq!(cold.answers, warm.answers);
        assert_eq!(cache.stats().survived_appends, 1);
    }

    #[test]
    fn answers_die_on_footprint_overlap_or_new_nodes() {
        let mut db = small_db();
        let cache = QueryCache::with_defaults();
        let opts = EvalOptions::default();
        cache.answers(&db, Q, &opts).unwrap();
        // Overlapping label: the (a|b)+ entry must re-evaluate and see the
        // new arc.
        let a = db.alphabet().symbol("a").unwrap();
        assert!(db.append(NodeId(4), a, NodeId(5)));
        let r = cache.answers(&db, Q, &opts).unwrap();
        assert_ne!(r.outcome, CacheOutcome::AnswerHit, "stale entry must die");
        assert!(r.answers.contains(&vec![NodeId(4), NodeId(5)]));
        assert!(cache.stats().invalidated >= 1);
        // New node: even a footprint-disjoint delta kills answers (ε-atoms
        // make every node answer-relevant).
        cache.answers(&db, Q, &opts).unwrap();
        db.append_node();
        let r2 = cache.answers(&db, Q, &opts).unwrap();
        assert_ne!(r2.outcome, CacheOutcome::AnswerHit, "node universe grew");
    }

    #[test]
    fn compaction_preserves_entries() {
        let mut db = small_db();
        let cache = QueryCache::with_defaults();
        let opts = EvalOptions::default();
        let c = db.alphabet().symbol("c").unwrap();
        db.append(NodeId(3), c, NodeId(4));
        let cold = cache.answers(&db, Q, &opts).unwrap();
        // Compaction merges the overlay without changing the edge set or
        // generation: cached answers stay live.
        db.compact();
        let warm = cache.answers(&db, Q, &opts).unwrap();
        assert_eq!(warm.outcome, CacheOutcome::AnswerHit);
        assert_eq!(cold.answers, warm.answers);
    }

    #[test]
    fn lru_evicts_within_capacity() {
        let db = small_db();
        let cache = QueryCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
            answer_budget_bytes: 64 * 1024,
        });
        let opts = EvalOptions::default();
        let queries = [
            "ans(x, y) <- (x) -[ a ]-> (y)",
            "ans(x, y) <- (x) -[ b ]-> (y)",
            "ans(x, y) <- (x) -[ c ]-> (y)",
        ];
        for q in &queries {
            cache.answers(&db, q, &opts).unwrap();
        }
        assert!(cache.stats().evictions >= 1);
        // The newest entry is still warm.
        assert_eq!(
            cache.answers(&db, queries[2], &opts).unwrap().outcome,
            CacheOutcome::AnswerHit
        );
    }

    #[test]
    fn zero_budget_disables_answer_caching_but_keeps_plan() {
        let db = small_db();
        let cache = QueryCache::new(CacheConfig {
            shards: 2,
            capacity_per_shard: 16,
            answer_budget_bytes: 0,
        });
        let opts = EvalOptions::default();
        let cold = cache.answers(&db, Q, &opts).unwrap();
        let warm = cache.answers(&db, Q, &opts).unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);
        assert_eq!(warm.outcome, CacheOutcome::PlanHit, "no answers cached");
        assert_eq!(cold.answers, warm.answers);
        assert_eq!(cache.stats().plan_hits, 1);
    }
}
