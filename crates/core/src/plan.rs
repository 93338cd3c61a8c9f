//! Phase 1 of the solver pipeline: constraint-graph planning.
//!
//! The [`Problem`](crate::solve::Problem)'s free edges and groups induce a
//! *constraint graph* over node variables: every constraint connects the
//! variables it mentions. Before any search runs, [`SolvePlan::build`]
//! estimates a traversal cost for each constraint from the database's
//! label statistics ([`GraphDb::label_edge_count`], maintained across
//! streaming appends, so plans stay delta-aware) — an automaton whose
//! transition symbols label few database arcs explores a small product
//! region and filters hard — and emits a *connected, cheapest-first*
//! variable order: start at the cheapest constraint, then repeatedly take
//! the cheapest constraint sharing a variable with the ordered prefix
//! (Prim-style), jumping components only when forced. The enumerate phase
//! seeds variables in this order and prefers cheap constraints when several
//! half-bound extensions compete, so join order follows the data instead of
//! query-text accident.
//!
//! **Cyclic cores.** The plan does not classify cores as cyclic or
//! acyclic. Whether binding a variable calls for a multiway intersection
//! is visible at run time: the enumerator intersects whenever two or more
//! pending free edges with a bound other end meet the variable it extends
//! (see [`crate::solve`]), which is exactly where a cycle of the core, or
//! a pair of parallel atoms, closes. The analyzer's subsumption pass runs
//! first and drops redundant parallel atoms.
//!
//! **Projection split.** The plan also records which node variables are in
//! the query's *output tuple*: the variable order decomposes into an
//! *enumerate prefix* — everything up to and including the last output
//! variable (outputs plus the shared variables needed to reach them) — and
//! an *existential suffix* ([`SolvePlan::prefix_len`]) of non-output
//! variables that only ever need an existence witness. Under projection
//! pushdown ([`SolveOptions::projected`](crate::solve::SolveOptions::projected))
//! the enumerator never backtracks over the suffix: once every output
//! variable is bound it asks for a single witness of the rest and moves on.

use crate::pattern::NodeVar;
use crate::solve::{FreeEdge, Group};
use cxrpq_automata::{Label, Nfa, StateId};
use cxrpq_graph::{GraphDb, Symbol};

/// Estimated cost of searching the product of `db` with `nfa`: each
/// `Sym(a)` transition can expand over every `a`-labelled arc, each `Any`
/// transition over every arc, ε over none. The absolute number is
/// meaningless; only the ordering between constraints matters (the prune
/// phase also compares it against the database's total arc count to skip
/// unselective group semi-joins).
pub(crate) fn nfa_cost(nfa: &Nfa, db: &GraphDb) -> u64 {
    let mut cost = 0u64;
    for s in nfa.states() {
        for &(l, _) in nfa.transitions(s) {
            cost += match l {
                Label::Eps => 0,
                Label::Sym(a) => db.label_edge_count(a) as u64,
                Label::Any => db.edge_count() as u64,
            };
        }
    }
    cost
}

/// Cost of `nfa` as a pruning-only semi-join, or `None` when it is
/// unselective. `nfa_cost` sums over all states, so a selective multi-state
/// chain (`aa` over an `a`-heavy graph) can out-cost the database even
/// though each hop filters hard; and raw per-state views misread
/// Thompson-style alternations, whose branch-entry states each look
/// selective although the fork as a whole covers the alphabet. The honest
/// granularity is the *effective state*: a capped subset walk visits the
/// ε-closed state sets actually reachable while consuming symbols, and the
/// automaton earns a necessary-condition semi-join as soon as one of them
/// can step over fewer arcs than the whole database. Σ*-style loops and
/// whole-alphabet alternations — every effective state of which expands
/// over everything and keeps everything — are the ones skipped. Def NFAs
/// are tiny; past [`SUBSET_CAP`] effective states the walk gives up and
/// assumes the automaton filters.
pub(crate) fn walker_prune_cost(nfa: &Nfa, db: &GraphDb) -> Option<u64> {
    const SUBSET_CAP: usize = 32;
    let full = db.edge_count() as u64;
    if full == 0 {
        return Some(nfa_cost(nfa, db));
    }
    let closure = |seed: &[StateId]| -> Vec<StateId> {
        let mut set = vec![false; nfa.state_count()];
        for s in seed {
            set[s.index()] = true;
        }
        nfa.eps_close(&mut set);
        (0..nfa.state_count())
            .filter(|&i| set[i])
            .map(|i| StateId(i as u32))
            .collect()
    };
    let mut seen: Vec<Vec<StateId>> = Vec::new();
    let mut queue: Vec<Vec<StateId>> = vec![closure(&[nfa.start()])];
    while let Some(sub) = queue.pop() {
        if seen.contains(&sub) {
            continue;
        }
        let mut syms = Vec::new();
        let mut any_targets: Vec<StateId> = Vec::new();
        for &s in &sub {
            for &(l, t) in nfa.transitions(s) {
                match l {
                    Label::Eps => {}
                    Label::Sym(a) => {
                        if !syms.contains(&a) {
                            syms.push(a);
                        }
                    }
                    Label::Any => any_targets.push(t),
                }
            }
        }
        if syms.is_empty() && any_targets.is_empty() {
            // Final-only effective state: nothing left to filter here.
            seen.push(sub);
            continue;
        }
        let cost: u64 = if any_targets.is_empty() {
            syms.iter().map(|&a| db.label_edge_count(a) as u64).sum()
        } else {
            full // an Any step alone covers every arc
        };
        if cost < full {
            return Some(nfa_cost(nfa, db));
        }
        if seen.len() + queue.len() >= SUBSET_CAP {
            return Some(nfa_cost(nfa, db));
        }
        for &a in &syms {
            let mut tgts = any_targets.clone();
            for &s in &sub {
                for &(l, t) in nfa.transitions(s) {
                    if l == Label::Sym(a) {
                        tgts.push(t);
                    }
                }
            }
            queue.push(closure(&tgts));
        }
        if syms.is_empty() {
            queue.push(closure(&any_targets));
        }
        seen.push(sub);
    }
    None
}

/// The accepted symbols of `nfa` when its language is a non-empty set of
/// single-symbol words, else `None`. For such an atom the database's own
/// label-sorted CSR rows *are* its reach adjacency — `successors_with` /
/// `predecessors_with` runs can feed a leapfrog intersection directly, with
/// no product search and no materialization. The check is conservative:
/// ε must not be accepted (a final state in the start closure), every
/// `Sym` step from the start closure must land in a closure that is final
/// and has no further non-ε transitions (so no longer word — and no dead
/// branch that would make the run a strict over-approximation), and `Any`
/// steps are left to the general reach path.
pub(crate) fn single_step_symbols(nfa: &Nfa) -> Option<Vec<Symbol>> {
    let n = nfa.state_count();
    let closure = |seed: StateId| -> Vec<bool> {
        let mut set = vec![false; n];
        set[seed.index()] = true;
        nfa.eps_close(&mut set);
        set
    };
    let start = closure(nfa.start());
    if (0..n).any(|i| start[i] && nfa.is_final(StateId(i as u32))) {
        return None; // accepts ε
    }
    let mut syms: Vec<Symbol> = Vec::new();
    for (i, _) in start.iter().enumerate().filter(|&(_, &s)| s) {
        for &(l, t) in nfa.transitions(StateId(i as u32)) {
            match l {
                Label::Eps => {}
                Label::Any => return None,
                Label::Sym(a) => {
                    let tc = closure(t);
                    let mut has_final = false;
                    for (j, &inside) in tc.iter().enumerate() {
                        if !inside {
                            continue;
                        }
                        let sj = StateId(j as u32);
                        has_final |= nfa.is_final(sj);
                        if nfa.transitions(sj).iter().any(|&(l2, _)| l2 != Label::Eps) {
                            return None; // a second step is possible
                        }
                    }
                    if !has_final {
                        return None; // dead branch: runs would over-approximate
                    }
                    if !syms.contains(&a) {
                        syms.push(a);
                    }
                }
            }
        }
    }
    if syms.is_empty() {
        return None; // empty language — nothing for a run scan to yield
    }
    syms.sort_unstable();
    Some(syms)
}

/// A constraint of the plan's constraint graph, with its endpoints and
/// estimated cost.
struct PlanConstraint {
    vars: Vec<NodeVar>,
    cost: u64,
}

/// The output of the planning phase: per-constraint cost estimates and a
/// connected, cheapest-first variable order.
#[derive(Clone, Debug)]
pub struct SolvePlan {
    /// Estimated cost per free edge (index-aligned with
    /// `Problem::free_edges`).
    pub edge_cost: Vec<u64>,
    /// Estimated cost per group (index-aligned with `Problem::groups`).
    /// Synchronized walkers multiply, so a group costs the sum of its
    /// member automata scaled by its arity.
    pub group_cost: Vec<u64>,
    /// Every variable occurring in some constraint, cheapest-first and
    /// connected (consecutive variables share constraints wherever the
    /// constraint graph allows).
    pub var_order: Vec<NodeVar>,
    /// `seed_rank[v] = position of v in var_order` (`usize::MAX` for
    /// variables in no constraint), for O(1) order lookups.
    pub seed_rank: Vec<usize>,
    /// Length of the *enumerate prefix* of `var_order`: everything up to
    /// and including the last output variable. Positions `prefix_len..` are
    /// the *existential suffix* — non-output variables that projection
    /// pushdown eliminates with a single existence witness instead of
    /// backtracking (0 when no output variable occurs in a constraint,
    /// e.g. Boolean queries, where the whole order is existential).
    pub prefix_len: usize,
}

impl SolvePlan {
    /// Plans over the constraint graph of `free` and `groups` against the
    /// label statistics of `db`. `output` is the query's output tuple
    /// (empty for Boolean queries); it splits the emitted order into the
    /// enumerate prefix and the existential suffix.
    ///
    /// `universal` flags free edges whose language the static analyzer
    /// proved `Σ*`-universal (pass `&[]` when no analysis ran): such an
    /// edge filters nothing, so its cost is forced to `u64::MAX` and every
    /// cost comparison — seeding, extension choice, prune visit order —
    /// defers it behind all genuinely selective constraints. Costs are
    /// only ever compared, never summed, so the sentinel cannot overflow
    /// into neighbouring estimates.
    pub fn build(
        node_count: usize,
        free: &[FreeEdge],
        groups: &[Group],
        output: &[NodeVar],
        universal: &[bool],
        db: &GraphDb,
    ) -> Self {
        let edge_cost: Vec<u64> = free
            .iter()
            .enumerate()
            .map(|(i, e)| {
                if universal.get(i).copied().unwrap_or(false) {
                    u64::MAX
                } else {
                    nfa_cost(e.cache.nfa(), db)
                }
            })
            .collect();
        let group_cost: Vec<u64> = groups
            .iter()
            .map(|g| {
                let arity = g.spec.arity() as u64;
                let sum: u64 = g.spec.nfas.iter().map(|n| nfa_cost(n, db)).sum();
                sum.saturating_mul(arity.max(1))
            })
            .collect();
        let mut constraints: Vec<PlanConstraint> = Vec::with_capacity(free.len() + groups.len());
        for (e, &cost) in free.iter().zip(&edge_cost) {
            constraints.push(PlanConstraint {
                vars: vec![e.src, e.dst],
                cost,
            });
        }
        for (g, &cost) in groups.iter().zip(&group_cost) {
            // Repeated variables are harmless downstream (the ordering
            // loop skips already-placed vars).
            let vars: Vec<NodeVar> = g.srcs.iter().chain(g.dsts.iter()).copied().collect();
            constraints.push(PlanConstraint { vars, cost });
        }

        // Prim-style greedy: repeatedly take the cheapest unused constraint
        // touching the ordered prefix; when no constraint connects (a new
        // component of the constraint graph), take the cheapest remaining.
        // Ties break toward constraints that place an output variable, and
        // within a constraint output variables are placed first: the last
        // output lands as early as the data allows, which shortens the
        // enumerate prefix and widens the existential suffix that
        // projection pushdown never backtracks over.
        let mut is_output = vec![false; node_count];
        for v in output {
            is_output[v.index()] = true;
        }
        let mut in_order = vec![false; node_count];
        let mut used = vec![false; constraints.len()];
        let mut var_order: Vec<NodeVar> = Vec::new();
        loop {
            // (cost, places-no-output, idx) per candidate; connectivity
            // dominates, cost breaks ties, output bias breaks cost ties.
            let mut best: Option<((u64, bool, usize), bool)> = None;
            for (i, c) in constraints.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let connected = c.vars.iter().any(|v| in_order[v.index()]);
                let places_output = c
                    .vars
                    .iter()
                    .any(|v| !in_order[v.index()] && is_output[v.index()]);
                let key = (c.cost, !places_output, i);
                let better = match best {
                    None => true,
                    Some((bkey, bconn)) => match (connected, bconn) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => key < bkey,
                    },
                };
                if better {
                    best = Some((key, connected));
                }
            }
            let Some(((_, _, idx), _)) = best else { break };
            used[idx] = true;
            for pass in 0..2 {
                for &v in &constraints[idx].vars {
                    if !in_order[v.index()] && (is_output[v.index()] == (pass == 0)) {
                        in_order[v.index()] = true;
                        var_order.push(v);
                    }
                }
            }
        }
        let mut seed_rank = vec![usize::MAX; node_count];
        for (pos, v) in var_order.iter().enumerate() {
            seed_rank[v.index()] = pos;
        }
        let mut prefix_len = 0;
        for (pos, v) in var_order.iter().enumerate() {
            if output.contains(v) {
                prefix_len = pos + 1;
            }
        }

        Self {
            edge_cost,
            group_cost,
            var_order,
            seed_rank,
            prefix_len,
        }
    }

    /// Number of variables in the existential suffix — never backtracked
    /// over when projection pushdown is on.
    pub fn existential_vars(&self) -> usize {
        self.var_order.len() - self.prefix_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::ReachCache;
    use crate::sync::SyncSpec;
    use cxrpq_automata::{parse_regex, Nfa};
    use cxrpq_graph::{Alphabet, GraphBuilder, GraphDb};
    use std::sync::Arc;

    /// 1 `a`-arc, 8 `b`-arcs, 0 `c`-arcs.
    fn skewed_db() -> GraphDb {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut b = GraphBuilder::new(alpha);
        let a = b.alphabet().sym("a");
        let bb = b.alphabet().sym("b");
        let hub = b.add_node();
        let first = b.add_node();
        b.add_edge(hub, a, first);
        for _ in 0..8 {
            let n = b.add_node();
            b.add_edge(hub, bb, n);
        }
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
    fn cheapest_constraint_seeds_the_order() {
        let db = skewed_db();
        // b+ (8 arcs) vs a (1 arc): the a-edge is cheaper and its variables
        // lead the order even though it appears second in query text.
        let free = vec![edge(&db, 0, 1, "b+"), edge(&db, 1, 2, "a")];
        let plan = SolvePlan::build(3, &free, &[], &[], &[], &db);
        assert!(plan.edge_cost[0] > plan.edge_cost[1]);
        assert_eq!(plan.var_order[0], NodeVar(1));
        assert_eq!(plan.var_order[1], NodeVar(2));
        assert_eq!(plan.var_order[2], NodeVar(0));
        assert_eq!(plan.seed_rank[1], 0);
    }

    #[test]
    fn order_stays_connected_before_jumping_components() {
        let db = skewed_db();
        // Component {0,1} is expensive, component {2,3} cheap: the cheap
        // component leads, and within a component, ordering follows
        // adjacency (3–2's neighbour via shared var before the far pair).
        let free = vec![
            edge(&db, 0, 1, "b+b+"),
            edge(&db, 2, 3, "a"),
            edge(&db, 3, 0, "b"),
        ];
        let plan = SolvePlan::build(4, &free, &[], &[], &[], &db);
        assert_eq!(plan.var_order[0], NodeVar(2));
        assert_eq!(plan.var_order[1], NodeVar(3));
        // Edge 3–0 (connected, cost 8) is taken before the disconnected
        // jump to the expensive 0–1 edge.
        assert_eq!(plan.var_order[2], NodeVar(0));
        assert_eq!(plan.var_order[3], NodeVar(1));
    }

    #[test]
    fn groups_cost_scales_with_arity_and_unconstrained_vars_unranked() {
        let db = skewed_db();
        let def = {
            let mut a = db.alphabet().clone();
            Nfa::from_regex(&parse_regex("b+", &mut a).unwrap())
        };
        let groups = vec![Group::new(
            vec![NodeVar(0), NodeVar(0)],
            vec![NodeVar(1), NodeVar(2)],
            SyncSpec::equality_group(Some(def), 2),
        )];
        let plan = SolvePlan::build(5, &[], &groups, &[], &[], &db);
        assert_eq!(plan.group_cost.len(), 1);
        assert!(plan.group_cost[0] > 0);
        assert_eq!(plan.var_order.len(), 3); // 0, 1, 2 — not 3, 4
        assert_eq!(plan.seed_rank[4], usize::MAX);
    }

    #[test]
    fn walker_prune_cost_classifies_selectivity() {
        let db = skewed_db(); // 1 a-arc, 8 b-arcs, full = 9
        let m = |s: &str| {
            let mut a = db.alphabet().clone();
            Nfa::from_regex(&parse_regex(s, &mut a).unwrap())
        };
        // Chains and single symbols filter even when their summed nfa_cost
        // is large relative to the database.
        assert!(walker_prune_cost(&m("a"), &db).is_some());
        assert!(walker_prune_cost(&m("bb"), &db).is_some());
        // A whole-alphabet alternation loop keeps everything: every
        // effective state steps over all 9 arcs (the Thompson branch-entry
        // states alone would look selective — the subset walk must not).
        assert!(walker_prune_cost(&m("(a|b|c)+"), &db).is_none());
        // Σ* (an Any self-loop) likewise.
        assert!(walker_prune_cost(&crate::sync::sigma_star_nfa(), &db).is_none());
        // (ab|ba): the start set covers a∪b but the successor sets are
        // single-symbol — selective.
        assert!(walker_prune_cost(&m("(ab|ba)"), &db).is_some());
    }

    #[test]
    fn projection_split() {
        let db = skewed_db();
        // a-edge (cheap) leads and places its output variable first:
        // order [2, 1, 0]. Output {2}: prefix [2], suffix [1, 0].
        let free = vec![edge(&db, 0, 1, "b+"), edge(&db, 1, 2, "a")];
        let plan = SolvePlan::build(4, &free, &[], &[NodeVar(2)], &[], &db);
        assert_eq!(plan.var_order, vec![NodeVar(2), NodeVar(1), NodeVar(0)]);
        assert_eq!(plan.prefix_len, 1);
        assert_eq!(plan.existential_vars(), 2);
        assert_eq!(plan.seed_rank[3], usize::MAX); // in no constraint

        // Boolean (empty output): the whole order is existential.
        let free2 = vec![edge(&db, 0, 1, "b+")];
        let plan2 = SolvePlan::build(2, &free2, &[], &[], &[], &db);
        assert_eq!(plan2.prefix_len, 0);
        assert_eq!(plan2.existential_vars(), 2);
    }

    #[test]
    fn single_step_symbols_accepts_only_length_one_languages() {
        let mut a = Alphabet::from_chars("abc");
        let m = |a: &mut Alphabet, s: &str| Nfa::from_regex(&parse_regex(s, a).unwrap());
        let sym = |a: &mut Alphabet, c: &str| a.sym(c);
        let (sa, sb) = (sym(&mut a, "a"), sym(&mut a, "b"));
        assert_eq!(single_step_symbols(&m(&mut a, "a")), Some(vec![sa]));
        let alt = single_step_symbols(&m(&mut a, "a|b")).unwrap();
        assert_eq!(alt, vec![sa, sb]);
        // Longer words, ε-accepting loops, Σ-steps: all general.
        assert!(single_step_symbols(&m(&mut a, "ab")).is_none());
        assert!(single_step_symbols(&m(&mut a, "a*")).is_none());
        assert!(single_step_symbols(&m(&mut a, "a+")).is_none());
        assert!(single_step_symbols(&m(&mut a, "a|bc")).is_none());
        assert!(single_step_symbols(&crate::sync::sigma_star_nfa()).is_none());
    }

    #[test]
    fn output_bias_breaks_cost_ties_only() {
        let db = skewed_db();
        // Two disconnected b-edges with identical cost: the one whose
        // variables include an output wins the tie, regardless of index.
        let free = vec![edge(&db, 0, 1, "b"), edge(&db, 2, 3, "b")];
        let plan = SolvePlan::build(4, &free, &[], &[NodeVar(3)], &[], &db);
        assert_eq!(plan.edge_cost[0], plan.edge_cost[1]);
        assert_eq!(plan.var_order[0], NodeVar(3), "output placed first");
        assert_eq!(plan.var_order[1], NodeVar(2));
        assert_eq!(plan.prefix_len, 1);
        assert_eq!(plan.existential_vars(), 3);
        // But cost still dominates the bias: a cheaper non-output edge
        // leads over a pricier output-touching one.
        let free2 = vec![edge(&db, 0, 1, "b+"), edge(&db, 1, 2, "a")];
        let plan2 = SolvePlan::build(3, &free2, &[], &[NodeVar(0)], &[], &db);
        assert_eq!(plan2.var_order[0], NodeVar(1));
        assert_eq!(plan2.var_order[1], NodeVar(2));
        // The b+ edge then places the output variable 0 last; the prefix
        // spans the whole order.
        assert_eq!(plan2.prefix_len, 3);
    }
}
