//! Static query analysis ahead of the planner.
//!
//! `analyze` inspects a [`Problem`](crate::solve::Problem)'s constraints
//! purely at the automaton level — no graph search runs — and produces a
//! [`Diagnostics`] report plus a semantics-preserving rewrite plan the
//! solver applies before [`SolvePlan::build`](crate::plan::SolvePlan):
//!
//! - **Emptiness** — an atom whose language is `∅` makes the whole conjunct
//!   unsatisfiable: the solver answers empty with zero search steps.
//! - **Footprint** — an atom every word of whose language needs an alphabet
//!   letter with no arcs in this database is unsatisfiable *against this
//!   database* (a restricted emptiness check: `Sym(a)` transitions are
//!   traversable iff the database has `a`-arcs). Database-dependent, so it
//!   is a per-call verdict, never a persistent rewrite.
//! - **ε-only atoms** — `x -ε-> y` forces `h(x) = h(y)`; the variables are
//!   unified (union-find) and the atom dropped, shrinking the constraint
//!   graph the planner sees.
//! - **Universality** — a `Σ*` atom filters nothing; it is flagged so the
//!   planner orders it last ([`SolvePlan::build`](crate::plan::SolvePlan)'s
//!   universal slice).
//! - **Containment** — for parallel atoms over the same (unified) variable
//!   pair, a bounded product-construction inclusion check
//!   ([`Nfa::included_in`]) finds subsumption: if `L(i) ⊆ L(j)`, any path
//!   witnessing atom `i` witnesses atom `j` too, so the *wider* atom `j` is
//!   redundant and dropped (Figueira–Morvan–Romero-style minimization,
//!   restricted to parallel atoms). A check that exceeds its state budget
//!   keeps both atoms and reports `containment-capped` — never drops.
//! - **Structure** — a cyclic constraint component (at least as many atoms
//!   as variables) is reported as `cyclic-pattern`, the backtracker's
//!   worst shape.
//! - **Contraction** — under projection pushdown, an existential variable
//!   `z` (not output, not pinned, in no group) met by exactly one in-atom
//!   `(x, A, z)` and one out-atom `(z, B, y)` with `x ≠ y` only asks for
//!   *some* midpoint of an `A·B` path, so the two atoms become one atom
//!   `(x, A·B, y)` ([`Nfa::concat`]) and `z` leaves the problem
//!   (Figueira–Morvan–Romero's equivalence setting). One pass in variable
//!   order reaches the fixpoint, since a contraction never makes another
//!   variable contractible, so whole existential paths fold into one atom.
//!   `x = y` is left alone: the folded self-loop is slower than the pair
//!   it replaces. Witness requests output every variable, so they never
//!   contract. Like the ε-merges, the rewrite lasts one solver call.
//!
//! The analyzer is on by default
//! ([`SolveOptions::analyze`](crate::solve::SolveOptions::analyze)); the
//! `naive` preset stays unanalyzed as the differential reference.

use crate::diagnostics::{AtomRef, Diagnostics, Lint, Severity};
use crate::solve::{FreeEdge, Group};
use cxrpq_automata::{Label, Nfa};
use cxrpq_graph::GraphDb;

/// Knobs for one `analyze` run.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOptions {
    /// Cap on visited product states per bounded inclusion/universality
    /// check; exceeding it abandons the check (both atoms kept).
    pub containment_budget: usize,
}

/// Counters summarizing what the analyzer did, reported through
/// [`PipelineStats::analysis`](crate::solve::PipelineStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Atoms removed from the problem (ε-only and subsumed atoms).
    pub atoms_dropped: usize,
    /// Node-variable pairs unified by ε-only atoms.
    pub vars_merged: usize,
    /// The query was proven unsatisfiable without any search.
    pub unsat: bool,
    /// Atoms flagged `Σ*`-universal (kept, deprioritized).
    pub universal_atoms: usize,
    /// Containment checks abandoned at the state budget.
    pub containment_capped: usize,
    /// Existential node variables contracted away (two atoms joined into
    /// one over the concatenated language).
    pub vars_contracted: usize,
}

/// The analyzer's report: counters plus the ranked lint list.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// What was rewritten/refuted, as counters.
    pub stats: AnalysisStats,
    /// The findings, severity-ranked.
    pub diagnostics: Diagnostics,
}

/// The full analysis outcome: the user-facing report plus the rewrite plan
/// the solver applies (and undoes) around one run.
pub(crate) struct Analysis {
    pub report: AnalysisReport,
    /// Union-find representative per node variable (identity when no ε
    /// merges happened). Representatives are the smallest member index.
    pub var_rep: Vec<usize>,
    /// Per-free-edge drop flags (ε-only and subsumed atoms).
    pub drop_edges: Vec<bool>,
    /// Per-free-edge `Σ*`-universal flags (original indices).
    pub universal: Vec<bool>,
    /// Degree-2 contractions, in the order they apply.
    pub contractions: Vec<Contraction>,
}

/// One degree-2 contraction: atoms `first = (src, A, var)` and
/// `second = (var, B, dst)` become the atom `(src, A·B, dst)`. Atom
/// indices count the problem's free edges first and then the atoms of
/// earlier contractions: contraction `k` makes atom `free_edges.len() + k`.
/// Variables are union-find representatives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Contraction {
    pub var: usize,
    pub first: usize,
    pub second: usize,
    pub src: usize,
    pub dst: usize,
}

/// Union-find with the smallest member as representative, so unified
/// variables keep a stable, explainable name.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the classes of `a` and `b`; returns `false` when they were
    /// already one class.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.parent[hi] = lo;
        true
    }
}

/// Restricted emptiness against the database's label set: can the
/// automaton reach a final state using only letters the database has arcs
/// for? (`Eps` is always traversable, `Any` iff any arc exists.) A `false`
/// verdict means every accepted word needs a missing letter — the atom can
/// never be witnessed against this database. Necessary, not sufficient.
fn footprint_reachable(nfa: &Nfa, db: &GraphDb) -> bool {
    let has_arcs = db.edge_count() > 0;
    let mut seen = vec![false; nfa.state_count()];
    let mut stack = vec![nfa.start()];
    seen[nfa.start().index()] = true;
    while let Some(s) = stack.pop() {
        if nfa.is_final(s) {
            return true;
        }
        for &(l, t) in nfa.transitions(s) {
            let traversable = match l {
                Label::Eps => true,
                Label::Sym(a) => db.label_edge_count(a) > 0,
                Label::Any => has_arcs,
            };
            if traversable && !seen[t.index()] {
                seen[t.index()] = true;
                stack.push(t);
            }
        }
    }
    false
}

/// Runs every analysis pass over the problem's constraints. Pure: the
/// constraints are only read; the caller applies (and later undoes) the
/// returned rewrite plan. `frozen` turns on degree-2 contraction (the
/// caller passes it under projection pushdown): `frozen[v]` keeps `v` (an
/// output, a pinned variable or a group endpoint).
pub(crate) fn analyze(
    node_count: usize,
    free_edges: &[FreeEdge],
    groups: &[Group],
    db: &GraphDb,
    opts: &AnalyzeOptions,
    frozen: Option<&[bool]>,
) -> Analysis {
    let sigma = db.alphabet().len();
    let mut diags = Diagnostics::default();
    let mut stats = AnalysisStats::default();
    let mut uf = UnionFind::new(node_count);
    let mut drop_edges = vec![false; free_edges.len()];
    let mut universal = vec![false; free_edges.len()];

    // Per-atom passes: emptiness, footprint, ε-unification, universality.
    for (i, e) in free_edges.iter().enumerate() {
        let nfa = e.cache.nfa();
        if nfa.is_empty() {
            diags.push(
                Lint::EmptyAtom,
                Severity::Error,
                AtomRef::Edge(i),
                "the atom's language is empty — no path can ever witness it".into(),
            );
            stats.unsat = true;
            continue;
        }
        if !footprint_reachable(nfa, db) {
            diags.push(
                Lint::FootprintMiss,
                Severity::Error,
                AtomRef::Edge(i),
                "every word of the atom's language needs a letter with no arcs in this database"
                    .into(),
            );
            stats.unsat = true;
            continue;
        }
        if nfa.is_epsilon_only() {
            if db.node_count() == 0 {
                // An ε-atom still needs a node for its endpoints to map to.
                diags.push(
                    Lint::FootprintMiss,
                    Severity::Error,
                    AtomRef::Edge(i),
                    "an ε-atom needs a node for its endpoints and the database has none".into(),
                );
                stats.unsat = true;
                continue;
            }
            drop_edges[i] = true;
            stats.atoms_dropped += 1;
            if e.src != e.dst && uf.union(e.src.index(), e.dst.index()) {
                stats.vars_merged += 1;
                diags.push(
                    Lint::EpsilonAtom,
                    Severity::Info,
                    AtomRef::Edge(i),
                    format!(
                        "ε-only atom: node variables ?{} and ?{} were unified",
                        e.src.index(),
                        e.dst.index()
                    ),
                );
            } else {
                diags.push(
                    Lint::EpsilonAtom,
                    Severity::Info,
                    AtomRef::Edge(i),
                    "ε-only atom over already-equal endpoints: always satisfied, dropped".into(),
                );
            }
            continue;
        }
        if nfa.is_universal(sigma, opts.containment_budget) == Some(true) {
            universal[i] = true;
            stats.universal_atoms += 1;
            diags.push(
                Lint::UniversalAtom,
                Severity::Info,
                AtomRef::Edge(i),
                "Σ*-universal atom: it filters nothing and is deprioritized by the planner".into(),
            );
        }
    }

    // Group members: each walker's word must lie in its own language, so
    // member emptiness/footprint misses are unsatisfiable too. Equality
    // groups additionally share one word across every member — a small
    // member intersection being empty refutes the group outright.
    for (gi, g) in groups.iter().enumerate() {
        let mut member_dead = false;
        for (mi, nfa) in g.spec.nfas.iter().enumerate() {
            if nfa.is_empty() {
                diags.push(
                    Lint::EmptyAtom,
                    Severity::Error,
                    AtomRef::GroupMember(gi, mi),
                    "the member's language is empty — no path tuple can witness the group".into(),
                );
                stats.unsat = true;
                member_dead = true;
            } else if !footprint_reachable(nfa, db) {
                diags.push(
                    Lint::FootprintMiss,
                    Severity::Error,
                    AtomRef::GroupMember(gi, mi),
                    "every word of the member's language needs a letter with no arcs in this database"
                        .into(),
                );
                stats.unsat = true;
                member_dead = true;
            }
        }
        if !member_dead && g.spec.relation.is_equality() && g.spec.nfas.len() > 1 {
            let product: usize = g
                .spec
                .nfas
                .iter()
                .map(Nfa::state_count)
                .try_fold(1usize, |acc, n| acc.checked_mul(n))
                .unwrap_or(usize::MAX);
            if product <= opts.containment_budget && Nfa::intersect_all(&g.spec.nfas).is_empty() {
                diags.push(
                    Lint::EmptyAtom,
                    Severity::Error,
                    AtomRef::GroupMember(gi, 0),
                    "the equality group's member languages have an empty intersection — no shared word exists"
                        .into(),
                );
                stats.unsat = true;
            }
        }
    }

    // Containment-based subsumption among surviving parallel atoms over the
    // same (unified) endpoint pair. Dropping the *superset* language is the
    // sound direction: a witness path for the narrower atom automatically
    // witnesses the wider one.
    if !stats.unsat {
        for i in 0..free_edges.len() {
            for j in (i + 1)..free_edges.len() {
                if drop_edges[i] {
                    break;
                }
                if drop_edges[j] {
                    continue;
                }
                let key_i = (
                    uf.find(free_edges[i].src.index()),
                    uf.find(free_edges[i].dst.index()),
                );
                let key_j = (
                    uf.find(free_edges[j].src.index()),
                    uf.find(free_edges[j].dst.index()),
                );
                if key_i != key_j {
                    continue;
                }
                let (a, b) = (free_edges[i].cache.nfa(), free_edges[j].cache.nfa());
                let fwd = a.included_in(b, sigma, opts.containment_budget);
                if fwd == Some(true) {
                    drop_edges[j] = true;
                    stats.atoms_dropped += 1;
                    diags.push(
                        Lint::SubsumedAtom,
                        Severity::Warning,
                        AtomRef::Edge(j),
                        format!(
                            "language contains atom #{i}'s over the same endpoints — the wider atom is redundant and was dropped"
                        ),
                    );
                    continue;
                }
                let bwd = b.included_in(a, sigma, opts.containment_budget);
                if bwd == Some(true) {
                    drop_edges[i] = true;
                    stats.atoms_dropped += 1;
                    diags.push(
                        Lint::SubsumedAtom,
                        Severity::Warning,
                        AtomRef::Edge(i),
                        format!(
                            "language contains atom #{j}'s over the same endpoints — the wider atom is redundant and was dropped"
                        ),
                    );
                    continue;
                }
                if fwd.is_none() || bwd.is_none() {
                    stats.containment_capped += 1;
                    diags.push(
                        Lint::ContainmentCapped,
                        Severity::Warning,
                        AtomRef::Edge(i),
                        format!(
                            "containment check against atom #{j} exceeded the state budget — both atoms kept"
                        ),
                    );
                }
            }
        }
    }

    let contractions = match frozen {
        Some(frozen) if !stats.unsat => {
            let cs = contract(&mut uf, free_edges, &drop_edges, frozen);
            let n = free_edges.len();
            for (k, c) in cs.iter().enumerate() {
                diags.push(
                    Lint::ContractedVar,
                    Severity::Info,
                    AtomRef::Pattern,
                    format!(
                        "existential node variable ?{} contracted: (?{}) -[ {} ]-> (?{}) is one atom",
                        c.var,
                        c.src,
                        atom_name(&cs, n, n + k),
                        c.dst
                    ),
                );
            }
            stats.vars_contracted = cs.len();
            cs
        }
        _ => Vec::new(),
    };

    // Structural pass: flag cyclic constraint components (post-rewrite
    // shape — what the planner will actually see).
    if !stats.unsat {
        let mut arcs: Vec<(usize, usize)> = Vec::new();
        for (i, e) in free_edges.iter().enumerate() {
            if !drop_edges[i] {
                arcs.push((uf.find(e.src.index()), uf.find(e.dst.index())));
            }
        }
        for g in groups {
            for (s, d) in g.srcs.iter().zip(g.dsts.iter()) {
                arcs.push((uf.find(s.index()), uf.find(d.index())));
            }
        }
        let mut comp = UnionFind::new(node_count);
        for &(s, d) in &arcs {
            comp.union(s, d);
        }
        let mut vars_per: std::collections::HashMap<usize, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        let mut arcs_per: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for &(s, d) in &arcs {
            let root = comp.find(s);
            let vs = vars_per.entry(root).or_default();
            vs.insert(s);
            vs.insert(d);
            *arcs_per.entry(root).or_default() += 1;
        }
        if arcs_per
            .iter()
            .any(|(root, &count)| count >= vars_per[root].len())
        {
            diags.push(
                Lint::CyclicPattern,
                Severity::Info,
                AtomRef::Pattern,
                "the constraint graph has a cyclic component (at least as many atoms as variables) — the hardest shape for backtracking"
                    .into(),
            );
        }
    }

    let var_rep: Vec<usize> = (0..node_count).map(|v| uf.find(v)).collect();
    Analysis {
        report: AnalysisReport {
            stats,
            diagnostics: diags,
        },
        var_rep,
        drop_edges,
        universal,
        contractions,
    }
}

/// Finds the degree-2 contractions over the surviving atoms (see the
/// module docs). One pass in variable order is the fixpoint: contracting
/// `z` hands its neighbours the same in- and out-degrees, and a variable
/// that could not contract before cannot afterwards.
fn contract(
    uf: &mut UnionFind,
    free_edges: &[FreeEdge],
    drop_edges: &[bool],
    frozen: &[bool],
) -> Vec<Contraction> {
    let mut kept = vec![false; frozen.len()];
    for (v, &f) in frozen.iter().enumerate() {
        kept[uf.find(v)] |= f;
    }
    let mut atoms: Vec<Option<(usize, usize)>> = free_edges
        .iter()
        .zip(drop_edges)
        .map(|(e, &dropped)| (!dropped).then(|| (uf.find(e.src.index()), uf.find(e.dst.index()))))
        .collect();
    let mut out = Vec::new();
    for (z, &keep) in kept.iter().enumerate() {
        if keep || uf.find(z) != z {
            continue;
        }
        // The last in-atom and out-atom of `z`, and how many of each.
        let (mut first, mut second, mut ins, mut outs, mut looped) = (0, 0, 0, 0, false);
        for (i, a) in atoms.iter().enumerate() {
            match *a {
                Some((s, d)) if s == z && d == z => looped = true,
                Some((_, d)) if d == z => (first, ins) = (i, ins + 1),
                Some((s, _)) if s == z => (second, outs) = (i, outs + 1),
                _ => {}
            }
        }
        if looped || ins != 1 || outs != 1 {
            continue;
        }
        let (Some((src, _)), Some((_, dst))) = (atoms[first], atoms[second]) else {
            unreachable!("both atoms are live");
        };
        if src == dst {
            continue;
        }
        atoms[first] = None;
        atoms[second] = None;
        atoms.push(Some((src, dst)));
        out.push(Contraction {
            var: z,
            first,
            second,
            src,
            dst,
        });
    }
    out
}

/// Names atom `i` for a diagnostic: `#i` for a problem atom, the joined
/// names of its parts for a contracted one.
fn atom_name(cs: &[Contraction], n: usize, i: usize) -> String {
    match i.checked_sub(n) {
        None => format!("#{i}"),
        Some(k) => format!(
            "{}·{}",
            atom_name(cs, n, cs[k].first),
            atom_name(cs, n, cs[k].second)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NodeVar;
    use crate::reach::ReachCache;
    use crate::sync::SyncSpec;
    use cxrpq_automata::parse_regex;
    use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb};
    use std::sync::Arc;

    const OPTS: AnalyzeOptions = AnalyzeOptions {
        containment_budget: 4096,
    };

    fn ab_path() -> GraphDb {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut b = GraphBuilder::new(alpha);
        let w = b.alphabet().parse_word("ab").unwrap();
        let u = b.add_node();
        let v = b.add_node();
        b.add_word_path(u, &w, v);
        b.freeze()
    }

    fn edge(db: &GraphDb, src: u32, dst: u32, re: &str) -> FreeEdge {
        let mut a = db.alphabet().clone();
        FreeEdge {
            src: NodeVar(src),
            dst: NodeVar(dst),
            cache: ReachCache::new(Nfa::from_regex(&parse_regex(re, &mut a).unwrap())),
        }
    }

    #[test]
    fn empty_atom_is_unsat() {
        let db = ab_path();
        let free = vec![edge(&db, 0, 1, "!")];
        let a = analyze(2, &free, &[], &db, &OPTS, None);
        assert!(a.report.stats.unsat);
        assert!(a.report.diagnostics.has(Lint::EmptyAtom));
    }

    #[test]
    fn footprint_miss_is_unsat_but_db_dependent() {
        let db = ab_path(); // has a- and b-arcs, no c-arcs
        let free = vec![edge(&db, 0, 1, "a*c")];
        let a = analyze(2, &free, &[], &db, &OPTS, None);
        assert!(a.report.stats.unsat);
        assert!(a.report.diagnostics.has(Lint::FootprintMiss));
        // An alternation with one supported branch passes.
        let free2 = vec![edge(&db, 0, 1, "c|ab")];
        let a2 = analyze(2, &free2, &[], &db, &OPTS, None);
        assert!(!a2.report.stats.unsat);
    }

    #[test]
    fn epsilon_atom_unifies_variables() {
        let db = ab_path();
        let free = vec![edge(&db, 0, 1, "_"), edge(&db, 1, 2, "ab")];
        let a = analyze(3, &free, &[], &db, &OPTS, None);
        assert!(!a.report.stats.unsat);
        assert_eq!(a.report.stats.vars_merged, 1);
        assert_eq!(a.report.stats.atoms_dropped, 1);
        assert!(a.drop_edges[0] && !a.drop_edges[1]);
        assert_eq!(a.var_rep[1], 0, "smaller index becomes the representative");
        assert!(a.report.diagnostics.has(Lint::EpsilonAtom));
    }

    #[test]
    fn universal_atom_is_flagged_not_dropped() {
        let db = ab_path();
        let free = vec![edge(&db, 0, 1, ".*"), edge(&db, 0, 1, "ab")];
        let a = analyze(2, &free, &[], &db, &OPTS, None);
        assert_eq!(a.report.stats.universal_atoms, 1);
        assert!(a.universal[0] && !a.universal[1]);
        // The ab-atom is contained in Σ*, so the Σ* atom is also subsumed.
        assert!(a.drop_edges[0]);
        assert!(a.report.diagnostics.has(Lint::UniversalAtom));
        assert!(a.report.diagnostics.has(Lint::SubsumedAtom));
    }

    #[test]
    fn subsumption_drops_the_superset_language() {
        let db = ab_path();
        // L(ab) ⊆ L(a(b|c)): the wider second atom is dropped.
        let free = vec![edge(&db, 0, 1, "ab"), edge(&db, 0, 1, "a(b|c)")];
        let a = analyze(2, &free, &[], &db, &OPTS, None);
        assert!(!a.drop_edges[0]);
        assert!(a.drop_edges[1]);
        assert_eq!(a.report.stats.atoms_dropped, 1);
        // Incomparable languages are both kept, silently.
        let free2 = vec![edge(&db, 0, 1, "ab"), edge(&db, 0, 1, "ba")];
        let a2 = analyze(2, &free2, &[], &db, &OPTS, None);
        assert!(!a2.drop_edges[0] && !a2.drop_edges[1]);
        assert!(!a2.report.diagnostics.has(Lint::ContainmentCapped));
    }

    #[test]
    fn duplicated_atom_dropped_once() {
        let db = ab_path();
        let free = vec![edge(&db, 0, 1, "ab"), edge(&db, 0, 1, "ab")];
        let a = analyze(2, &free, &[], &db, &OPTS, None);
        assert!(!a.drop_edges[0]);
        assert!(a.drop_edges[1]);
    }

    #[test]
    fn parallel_atoms_found_through_epsilon_unification() {
        let db = ab_path();
        // 0 -ε-> 2 unifies {0, 2}; the ab-atoms 0→1 and 2→1 become
        // parallel and one is subsumed.
        let free = vec![
            edge(&db, 0, 2, "_"),
            edge(&db, 0, 1, "ab"),
            edge(&db, 2, 1, "a(b|c)"),
        ];
        let a = analyze(3, &free, &[], &db, &OPTS, None);
        assert!(a.drop_edges[0], "ε atom dropped");
        assert!(!a.drop_edges[1]);
        assert!(a.drop_edges[2], "wider parallel atom dropped");
        assert_eq!(a.report.stats.atoms_dropped, 2);
    }

    #[test]
    fn capped_containment_keeps_both_atoms() {
        let db = ab_path();
        let free = vec![edge(&db, 0, 1, "(a|b)*a"), edge(&db, 0, 1, "(a|b)*b")];
        let tiny = AnalyzeOptions {
            containment_budget: 1,
        };
        let a = analyze(2, &free, &[], &db, &tiny, None);
        assert!(!a.drop_edges[0] && !a.drop_edges[1], "cap must never drop");
        assert_eq!(a.report.stats.containment_capped, 1);
        assert!(a.report.diagnostics.has(Lint::ContainmentCapped));
        assert_eq!(a.report.stats.atoms_dropped, 0);
    }

    #[test]
    fn group_member_emptiness_is_unsat() {
        let db = ab_path();
        let mut a_ = db.alphabet().clone();
        let dead = Nfa::from_regex(&parse_regex("!", &mut a_).unwrap());
        let groups = vec![Group::new(
            vec![NodeVar(0)],
            vec![NodeVar(1)],
            SyncSpec::equality_group(Some(dead), 1),
        )];
        let a = analyze(2, &[], &groups, &db, &OPTS, None);
        assert!(a.report.stats.unsat);
    }

    #[test]
    fn equality_group_with_disjoint_members_is_unsat() {
        let db = ab_path();
        let mut al = db.alphabet().clone();
        let m1 = Nfa::from_regex(&parse_regex("a+", &mut al).unwrap());
        let m2 = Nfa::from_regex(&parse_regex("b+", &mut al).unwrap());
        let groups = vec![Group::new(
            vec![NodeVar(0), NodeVar(2)],
            vec![NodeVar(1), NodeVar(3)],
            SyncSpec {
                nfas: vec![m1, m2],
                relation: crate::relation::RegularRelation::equality(2),
            },
        )];
        let a = analyze(4, &[], &groups, &db, &OPTS, None);
        assert!(a.report.stats.unsat, "no word is in both a+ and b+");
    }

    #[test]
    fn contraction_folds_existential_paths() {
        let db = ab_path();
        let chain = vec![
            edge(&db, 0, 1, "a"),
            edge(&db, 1, 2, "b"),
            edge(&db, 2, 3, "a"),
        ];
        let ends = [true, false, false, true];
        let a = analyze(4, &chain, &[], &db, &OPTS, Some(&ends));
        assert_eq!(a.report.stats.vars_contracted, 2);
        assert!(a.report.diagnostics.has(Lint::ContractedVar));
        let c = &a.contractions;
        assert_eq!((c[0].var, c[0].first, c[0].second), (1, 0, 1));
        // The second contraction joins the first one's atom (#3) with #2.
        assert_eq!((c[1].var, c[1].first, c[1].second), (2, 3, 2));
        assert_eq!((c[1].src, c[1].dst), (0, 3));
        // Without projection nothing contracts.
        let plain = analyze(4, &chain, &[], &db, &OPTS, None);
        assert!(plain.contractions.is_empty());
        // A path back to its start would fold into a self-loop: kept.
        let back = vec![edge(&db, 0, 1, "a"), edge(&db, 1, 0, "b")];
        let a = analyze(2, &back, &[], &db, &OPTS, Some(&[true, false]));
        assert!(a.contractions.is_empty());
        // Kept variables stay, here `y`.
        let a = analyze(4, &chain, &[], &db, &OPTS, Some(&[true, true, false, true]));
        assert_eq!(a.contractions.len(), 1);
        assert_eq!(a.contractions[0].var, 2);
    }

    #[test]
    fn cyclic_pattern_is_reported() {
        let db = ab_path();
        let free = vec![edge(&db, 0, 1, "a"), edge(&db, 1, 0, "b")];
        let a = analyze(2, &free, &[], &db, &OPTS, None);
        assert!(a.report.diagnostics.has(Lint::CyclicPattern));
        let acyclic = vec![edge(&db, 0, 1, "a"), edge(&db, 1, 2, "b")];
        let a2 = analyze(3, &acyclic, &[], &db, &OPTS, None);
        assert!(!a2.report.diagnostics.has(Lint::CyclicPattern));
    }
}
