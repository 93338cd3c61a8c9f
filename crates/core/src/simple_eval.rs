//! Lemma 3: evaluation of *simple* CXRPQs in nondeterministic space
//! `O(|q| log |D|)`.
//!
//! Following the proof: definitions `x{y}` are dereferenced to `y`; each
//! component — a concatenation of classical chunks, references, and basic
//! definitions — is subdivided into atomic pattern edges with fresh middle
//! node variables; classical chunks become single-walker reachability
//! constraints, and for every string variable the definition edge plus all
//! reference edges form one synchronized *equality group* (all must be
//! labelled by the same word, the definition edge additionally by a word of
//! its body language). The search over the resulting product space is the
//! explicit `G_{q′,D}` of the proof.

use crate::cxrpq::Cxrpq;
use crate::evaluate::{Evaluate, Outcome, Request};
use crate::governor::Governor;
use crate::pattern::NodeVar;
use crate::reach::ReachCache;
use crate::solve::{run_solver, FreeEdge, Group, Problem, SolveOptions, SolverBacked};
use crate::sync::SyncSpec;
use crate::witness::{concat_paths, edge_path_governed, group_paths, morphism_of, QueryWitness};
use cxrpq_automata::{Nfa, Regex};
use cxrpq_graph::{GraphDb, NodeId, Path};
use cxrpq_xregex::{classification, Var, Xregex};
use std::collections::BTreeMap;
use std::fmt;

/// The query is outside the simple fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotSimple;

impl fmt::Display for NotSimple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query is not a simple CXRPQ (Lemma 3 requires simple)")
    }
}

impl std::error::Error for NotSimple {}

pub(crate) enum Factor {
    Classical(Regex),
    Ref(Var),
    Def(Var, Regex),
}

/// A single-walker factor of the subdivided pattern.
pub(crate) struct PlanFree {
    pub(crate) src: NodeVar,
    pub(crate) dst: NodeVar,
    pub(crate) re: Regex,
    /// `(pattern edge, factor position)` — provenance for witness assembly.
    pub(crate) prov: (usize, usize),
    /// Set when this factor alone determines a variable's image (a
    /// definition whose variable has no other occurrence, or the only
    /// reference of a never-defined variable).
    pub(crate) image_var: Option<Var>,
}

/// One walker of a synchronized variable group.
pub(crate) struct PlanMember {
    pub(crate) src: NodeVar,
    pub(crate) dst: NodeVar,
    pub(crate) prov: (usize, usize),
}

/// A synchronized equality group for one string variable.
pub(crate) struct PlanGroup {
    pub(crate) var: Var,
    /// Definition walker first (when a definition exists).
    pub(crate) members: Vec<PlanMember>,
    pub(crate) def: Option<Regex>,
}

struct Plan {
    node_count: usize,
    free: Vec<PlanFree>,
    groups: Vec<PlanGroup>,
    /// Basic-definition chains `x{y}` eliminated up front: `(x, y)` means
    /// `ψ(x) = ψ(y)` in every witness.
    chains: Vec<(Var, Var)>,
    /// Variables with ε-only definition bodies, erased before subdivision:
    /// `ψ(x) = ε` in every witness, and no group is synchronized for them.
    eps_vars: Vec<Var>,
}

/// The Lemma 3 engine.
pub struct SimpleEvaluator<'q> {
    q: &'q Cxrpq,
    plan: Plan,
}

/// Replaces definitions `x{y}` (and all references of `x`) by references of
/// `y`, repeatedly — the first normalization step in the proof of Lemma 3.
/// Returns the eliminated `(x, y)` pairs (in elimination order) so witness
/// extraction can report `ψ(x) = ψ(y)` for the removed variables.
pub(crate) fn deref_basic_chains(comps: &mut [Xregex]) -> Vec<(Var, Var)> {
    let mut chains = Vec::new();
    loop {
        let mut subst: Option<(Var, Var)> = None;
        for c in comps.iter() {
            c.walk(&mut |n| {
                if subst.is_none() {
                    if let Xregex::VarDef(x, body) = n {
                        if let Xregex::VarRef(y) = &**body {
                            subst = Some((*x, *y));
                        }
                    }
                }
            });
            if subst.is_some() {
                break;
            }
        }
        let Some((x, y)) = subst else { break };
        chains.push((x, y));
        for c in comps.iter_mut() {
            *c = replace_def_by(c, x, &Xregex::VarRef(y));
            *c = c.replace_refs(x, &Xregex::VarRef(y));
        }
    }
    chains
}

/// Erases every variable whose definition body is ε-only (`x{_}`,
/// `x{ε*}`, …): such a variable is bound to ε on every match, so its
/// definition and references contribute nothing to the subdivided pattern
/// — without this rewrite each would still cost a synchronized equality
/// group (or a Σ*-NFA walker for the references). Returns the erased
/// variables so witness extraction reports `ψ(x) = ε` for them.
pub(crate) fn eliminate_epsilon_vars(comps: &mut [Xregex]) -> Vec<Var> {
    let mut eps: Vec<Var> = Vec::new();
    for c in comps.iter() {
        c.walk(&mut |n| {
            if let Xregex::VarDef(x, body) = n {
                if body.is_epsilon_only() && !eps.contains(x) {
                    eps.push(*x);
                }
            }
        });
    }
    for &x in &eps {
        for c in comps.iter_mut() {
            *c = c.erase_var(x);
        }
    }
    eps
}

fn replace_def_by(r: &Xregex, x: Var, replacement: &Xregex) -> Xregex {
    match r {
        Xregex::VarDef(y, _) if *y == x => replacement.clone(),
        Xregex::VarDef(y, body) => {
            Xregex::VarDef(*y, Box::new(replace_def_by(body, x, replacement)))
        }
        Xregex::Concat(ps) => Xregex::Concat(
            ps.iter()
                .map(|p| replace_def_by(p, x, replacement))
                .collect(),
        ),
        Xregex::Alt(ps) => Xregex::Alt(
            ps.iter()
                .map(|p| replace_def_by(p, x, replacement))
                .collect(),
        ),
        Xregex::Plus(p) => Xregex::Plus(Box::new(replace_def_by(p, x, replacement))),
        Xregex::Star(p) => Xregex::Star(Box::new(replace_def_by(p, x, replacement))),
        other => other.clone(),
    }
}

pub(crate) fn factorize(comp: &Xregex) -> Vec<Factor> {
    fn flatten(r: &Xregex, out: &mut Vec<Xregex>) {
        match r {
            Xregex::Concat(ps) => ps.iter().for_each(|p| flatten(p, out)),
            other => out.push(other.clone()),
        }
    }
    let mut items = Vec::new();
    flatten(comp, &mut items);
    let mut factors = Vec::new();
    let mut run: Vec<Regex> = Vec::new();
    for item in items {
        if let Some(re) = item.to_regex() {
            run.push(re);
            continue;
        }
        if !run.is_empty() {
            factors.push(Factor::Classical(Regex::concat(std::mem::take(&mut run))));
        }
        match item {
            Xregex::VarRef(x) => factors.push(Factor::Ref(x)),
            Xregex::VarDef(x, body) => factors.push(Factor::Def(
                x,
                body.to_regex()
                    .expect("simple definitions are classical after chain deref"),
            )),
            other => unreachable!("non-simple factor {other:?}"),
        }
    }
    if !run.is_empty() {
        factors.push(Factor::Classical(Regex::concat(run)));
    }
    factors
}

impl<'q> SimpleEvaluator<'q> {
    /// Creates the engine; errors unless the query is simple.
    pub fn new(q: &'q Cxrpq) -> Result<Self, NotSimple> {
        if !classification(q.conjunctive()).simple {
            return Err(NotSimple);
        }
        let mut comps: Vec<Xregex> = q.conjunctive().components().to_vec();
        let chains = deref_basic_chains(&mut comps);
        let eps_vars = eliminate_epsilon_vars(&mut comps);

        let mut node_count = q.pattern().node_count();
        let mut free: Vec<PlanFree> = Vec::new();
        type Occ = (NodeVar, NodeVar, Option<Regex>, (usize, usize));
        let mut members: BTreeMap<Var, Vec<Occ>> = BTreeMap::new();
        for (edge_idx, (src, _, dst)) in q.pattern().edges().iter().enumerate() {
            let factors = factorize(&comps[edge_idx]);
            if factors.is_empty() {
                free.push(PlanFree {
                    src: *src,
                    dst: *dst,
                    re: Regex::Epsilon,
                    prov: (edge_idx, 0),
                    image_var: None,
                });
                continue;
            }
            let t = factors.len();
            // Fresh middles z_{i,1} … z_{i,t-1}.
            let mut prev = *src;
            for (j, f) in factors.into_iter().enumerate() {
                let next = if j + 1 == t {
                    *dst
                } else {
                    let v = NodeVar(node_count as u32);
                    node_count += 1;
                    v
                };
                let prov = (edge_idx, j);
                match f {
                    Factor::Classical(re) => free.push(PlanFree {
                        src: prev,
                        dst: next,
                        re,
                        prov,
                        image_var: None,
                    }),
                    Factor::Ref(x) => {
                        members.entry(x).or_default().push((prev, next, None, prov));
                    }
                    Factor::Def(x, re) => {
                        members
                            .entry(x)
                            .or_default()
                            .push((prev, next, Some(re), prov));
                    }
                }
                prev = next;
            }
        }
        // Assemble groups, definition walker first; singleton groups become
        // plain reachability constraints.
        let mut groups = Vec::new();
        for (x, mut mem) in members {
            mem.sort_by_key(|(_, _, def, _)| def.is_none());
            debug_assert!(mem.iter().filter(|(_, _, d, _)| d.is_some()).count() <= 1);
            if mem.len() == 1 {
                let (s, d, def, prov) = mem.pop().unwrap();
                free.push(PlanFree {
                    src: s,
                    dst: d,
                    re: def.unwrap_or_else(Regex::sigma_star),
                    prov,
                    image_var: Some(x),
                });
            } else {
                let def = mem[0].2.clone();
                let group_members = mem
                    .iter()
                    .map(|(s, d, _, prov)| PlanMember {
                        src: *s,
                        dst: *d,
                        prov: *prov,
                    })
                    .collect();
                groups.push(PlanGroup {
                    var: x,
                    members: group_members,
                    def,
                });
            }
        }
        Ok(Self {
            q,
            plan: Plan {
                node_count,
                free,
                groups,
                chains,
                eps_vars,
            },
        })
    }

    /// Number of synchronized groups (diagnostics).
    pub fn group_count(&self) -> usize {
        self.plan.groups.len()
    }
}

impl SolverBacked for SimpleEvaluator<'_> {
    fn problem(&self) -> Problem {
        let mut p = Problem::new(self.plan.node_count);
        for f in &self.plan.free {
            p.free_edges.push(FreeEdge {
                src: f.src,
                dst: f.dst,
                cache: ReachCache::new(Nfa::from_regex(&f.re)),
            });
        }
        for g in &self.plan.groups {
            let def_nfa = g.def.as_ref().map(Nfa::from_regex);
            let srcs: Vec<NodeVar> = g.members.iter().map(|m| m.src).collect();
            let dsts: Vec<NodeVar> = g.members.iter().map(|m| m.dst).collect();
            let arity = srcs.len();
            p.groups.push(Group::new(
                srcs,
                dsts,
                SyncSpec::equality_group(def_nfa, arity),
            ));
        }
        p
    }

    fn output(&self) -> &[NodeVar] {
        self.q.output()
    }

    /// Paths per pattern edge, reassembled from the subdivided factors,
    /// plus all variable images.
    fn assemble(&self, db: &GraphDb, b: &[Option<NodeId>], gov: &Governor) -> Option<QueryWitness> {
        let node = |v: NodeVar| b[v.index()].expect("required variables are bound");
        let vars = self.q.conjunctive().vars();
        let mut factor_paths: BTreeMap<(usize, usize), Path> = BTreeMap::new();
        let mut image_map: BTreeMap<Var, Vec<cxrpq_graph::Symbol>> = BTreeMap::new();
        for f in &self.plan.free {
            let nfa = Nfa::from_regex(&f.re);
            let path = edge_path_governed(db, &nfa, node(f.src), node(f.dst), gov)?;
            if let Some(x) = f.image_var {
                image_map.insert(x, path.label().to_vec());
            }
            factor_paths.insert(f.prov, path);
        }
        for g in &self.plan.groups {
            let spec =
                SyncSpec::equality_group(g.def.as_ref().map(Nfa::from_regex), g.members.len());
            let starts: Vec<NodeId> = g.members.iter().map(|m| node(m.src)).collect();
            let ends: Vec<NodeId> = g.members.iter().map(|m| node(m.dst)).collect();
            let paths = group_paths(db, &spec, &starts, &ends, gov)?;
            image_map.insert(g.var, paths[0].label().to_vec());
            for (m, path) in g.members.iter().zip(paths) {
                factor_paths.insert(m.prov, path);
            }
        }
        // ε-erased variables are bound to the empty word on every match.
        for &x in &self.plan.eps_vars {
            image_map.insert(x, Vec::new());
        }
        // Eliminated chain variables x{y}: ψ(x) = ψ(y). Resolve in reverse
        // elimination order so transitive chains land on concrete images.
        for &(x, y) in self.plan.chains.iter().rev() {
            let img = image_map.get(&y).cloned().unwrap_or_default();
            image_map.insert(x, img);
        }
        // Reassemble one path per pattern edge from its factors in order.
        let mut edge_paths = Vec::with_capacity(self.q.pattern().edge_count());
        for (e, (src, _, _)) in self.q.pattern().edges().iter().enumerate() {
            let segs: Vec<Path> = factor_paths
                .range((e, 0)..(e + 1, 0))
                .map(|(_, p)| p.clone())
                .collect();
            if segs.is_empty() {
                edge_paths.push(Path::trivial(node(*src)));
            } else {
                edge_paths.push(concat_paths(segs));
            }
        }
        let images = image_map
            .into_iter()
            .map(|(x, w)| (vars.name(x).to_string(), w))
            .collect();
        Some(QueryWitness {
            morphism: morphism_of(self.q.pattern(), b),
            paths: edge_paths,
            images,
        })
    }
}

impl Evaluate for SimpleEvaluator<'_> {
    fn run(&self, db: &GraphDb, req: Request<'_>, opts: &SolveOptions) -> Outcome {
        run_solver(self, db, req, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxrpq::CxrpqBuilder;
    use cxrpq_graph::Alphabet;
    use cxrpq_graph::GraphBuilder;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn db_with_words(words: &[(&str, &str)]) -> (GraphDb, HashMap<String, NodeId>) {
        // words: (name-pair "s>t", label word) — adds a path s -w-> t,
        // creating named endpoints on demand.
        let alpha = Arc::new(Alphabet::from_chars("abc#"));
        let mut db = GraphBuilder::new(alpha);
        let mut names: HashMap<String, NodeId> = HashMap::new();
        for (pair, w) in words {
            let (s, t) = pair.split_once('>').unwrap();
            let sn = *names.entry(s.to_string()).or_insert_with(|| db.add_node());
            let tn = *names.entry(t.to_string()).or_insert_with(|| db.add_node());
            let word = db.alphabet().parse_word(w).unwrap();
            db.add_word_path(sn, &word, tn);
        }
        (db.freeze(), names)
    }

    #[test]
    fn single_edge_backreference() {
        // u -[z{(a|b)+} c z]-> v : a word w c w with w ∈ (a|b)+.
        let (db, names) = db_with_words(&[("u>m1", "ab"), ("m1>m2", "c"), ("m2>v", "ab")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{(a|b)+}cz", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        assert_eq!(ev.group_count(), 1);
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![names["u"], names["v"]]));

        // Unequal halves: no match from u to v.
        let (db2, names2) = db_with_words(&[("u>m1", "ab"), ("m1>m2", "c"), ("m2>v", "ba")]);
        let ev2 = SimpleEvaluator::new(&q).unwrap();
        assert!(!ev2.check(&db2, &[names2["u"], names2["v"]]));
    }

    #[test]
    fn cross_edge_equality_with_definition() {
        // e1: u -[x{a+b}]-> v, e2: u2 -[x]-> v2: both paths carry the same
        // word from a+b.
        let (db, names) = db_with_words(&[("u>v", "aab"), ("u2>v2", "aab"), ("u3>v3", "ab")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("p", "x{a+b}", "q")
            .edge("r", "x", "s")
            .output(&["p", "q", "r", "s"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![names["u"], names["v"], names["u2"], names["v2"]]));
        // aab ≠ ab: the u3>v3 path pairs only with itself.
        assert!(!ans.contains(&vec![names["u"], names["v"], names["u3"], names["v3"]]));
        assert!(ans.contains(&vec![names["u3"], names["v3"], names["u3"], names["v3"]]));
    }

    #[test]
    fn definition_chain_x_of_y() {
        // y{a+} on e1; x{y} on e2; x on e3: all three equal.
        let (db, names) = db_with_words(&[("a1>b1", "aa"), ("a2>b2", "aa"), ("a3>b3", "aa")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("p", "y{a+}", "q")
            .edge("r", "x{y}", "s")
            .edge("t", "x", "w")
            .output(&["p", "r", "t"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        // After chain-deref there is a single group over y with 3 members.
        assert_eq!(ev.group_count(), 1);
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![names["a1"], names["a2"], names["a3"]]));
    }

    #[test]
    fn undefined_variable_pure_equality() {
        // Two reference-only edges (never defined): arbitrary equal words
        // (the `⟨·⟩int` dummy-definition semantics of §3.1).
        let (db, names) = db_with_words(&[("u>v", "abc"), ("p>q", "abc"), ("r>s", "acb")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .declare_vars(&["w"])
            .edge("g", "w", "h")
            .edge("i", "w", "j")
            .output(&["g", "h", "i", "j"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![names["u"], names["v"], names["p"], names["q"]]));
        assert!(!ans.contains(&vec![names["u"], names["v"], names["r"], names["s"]]));
    }

    #[test]
    fn mixed_classical_prefix_suffix() {
        // u -[a* x{b+} c]-> v with x referenced on another edge.
        let (db, names) = db_with_words(&[("u>v", "aabbc"), ("p>q", "bb")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("m", "a*x{b+}c", "n")
            .edge("r", "x", "s")
            .output(&["m", "n", "r", "s"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![names["u"], names["v"], names["p"], names["q"]]));
    }

    #[test]
    fn rejects_non_simple() {
        let mut alpha = Alphabet::from_chars("ab");
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("u", "x{a}(x|b)", "v") // alternation over a reference
            .build()
            .unwrap();
        assert!(SimpleEvaluator::new(&q).is_err());
    }

    #[test]
    fn epsilon_component() {
        let (db, names) = db_with_words(&[("u>v", "a")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "_", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        let ans = ev.answers(&db);
        // ε-paths exist only from a node to itself.
        assert!(ans.contains(&vec![names["u"], names["u"]]));
        assert!(!ans.contains(&vec![names["u"], names["v"]]));
    }

    #[test]
    fn epsilon_definitions_are_eliminated() {
        // z can only capture ε, so the analyzer-style rewrite erases it:
        // no synchronized group is needed and the witness reports ψ(z) = ε.
        let (db, names) = db_with_words(&[("u>v", "a")]);
        let mut alpha = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut alpha)
            .edge("x", "z{_}az", "y")
            .output(&["x", "y"])
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        assert_eq!(ev.group_count(), 0);
        let ans = ev.answers(&db);
        assert!(ans.contains(&vec![names["u"], names["v"]]));
        let w = ev
            .witness_for(&db, &[names["u"], names["v"]])
            .expect("witness");
        let z = w
            .images
            .iter()
            .find(|(name, _)| name == "z")
            .expect("z image reported");
        assert!(z.1.is_empty(), "ψ(z) must be ε");
    }
}
