//! Lemma 10: specializing a conjunctive xregex to a fixed variable mapping.
//!
//! For `ᾱ ∈ m-CXRE` and a mapping `v̄`, there is a tuple `β̄` of *classical*
//! regular expressions with `L(β̄) = L^{v̄}(ᾱ)` — the conjunctive matches
//! whose variable mapping is exactly `v̄`. The construction (§6.1):
//!
//! - **Step A** — mark every definition `x{γ}` (innermost first) with whether
//!   `γ′` can produce `v̄(x)`, where `γ′` replaces inner references and
//!   definitions by their intended images; definitions marked 0 are *cut*:
//!   the syntax tree is deleted upward until the nearest alternation node
//!   (whole component becomes `∅` when there is none);
//! - **Step B** — for every `x` with `v̄(x) ≠ ε` whose definitions survive,
//!   prune alternation branches that avoid instantiating a definition of `x`
//!   (the match *must* instantiate one); if `x` originally had definitions
//!   but none survives, the whole tuple is `∅`;
//! - **Step C** — replace all surviving definitions and references by the
//!   image words.
//!
//! **Clarification** (the paper leaves this case implicit): variables with *no*
//! definition anywhere in `ᾱ` are the `x{Σ*}` dummy-definition variables of
//! the §3.1 semantics; any image is admissible for them, so Step B's
//! `∅`-rule applies only to variables that had definitions in the original
//! tuple. This is the reading consistent with reference-only equality edges
//! (Lemma 12).

use crate::ast::{Var, Xregex};
use crate::conjunctive::ConjunctiveXregex;
use cxrpq_automata::{Nfa, Regex};
use cxrpq_graph::Symbol;
use std::collections::BTreeMap;

/// A total variable mapping `v̄` (variables absent from the map are ε).
pub type VarMapping = BTreeMap<Var, Vec<Symbol>>;

/// Mutable working tree for the cut/prune transformations.
#[derive(Clone, Debug)]
enum SNode {
    Empty,
    Eps,
    Sym(Symbol),
    Any,
    Concat(Vec<SNode>),
    Alt(Vec<SNode>),
    Plus(Box<SNode>),
    Star(Box<SNode>),
    Ref(Var),
    Def {
        var: Var,
        body: Box<SNode>,
        checked: bool,
    },
}

impl SNode {
    fn from_xregex(r: &Xregex) -> SNode {
        match r {
            Xregex::Empty => SNode::Empty,
            Xregex::Epsilon => SNode::Eps,
            Xregex::Sym(a) => SNode::Sym(*a),
            Xregex::Any => SNode::Any,
            Xregex::Concat(ps) => SNode::Concat(ps.iter().map(SNode::from_xregex).collect()),
            Xregex::Alt(ps) => SNode::Alt(ps.iter().map(SNode::from_xregex).collect()),
            Xregex::Plus(p) => SNode::Plus(Box::new(SNode::from_xregex(p))),
            Xregex::Star(p) => SNode::Star(Box::new(SNode::from_xregex(p))),
            Xregex::VarRef(x) => SNode::Ref(*x),
            Xregex::VarDef(x, p) => SNode::Def {
                var: *x,
                body: Box::new(SNode::from_xregex(p)),
                checked: false,
            },
        }
    }

    /// Finds the path (child indices) to an innermost unchecked definition.
    fn find_unchecked_innermost(&self, path: &mut Vec<usize>) -> bool {
        match self {
            SNode::Concat(ps) | SNode::Alt(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    path.push(i);
                    if p.find_unchecked_innermost(path) {
                        return true;
                    }
                    path.pop();
                }
                false
            }
            SNode::Plus(p) | SNode::Star(p) => {
                path.push(0);
                if p.find_unchecked_innermost(path) {
                    return true;
                }
                path.pop();
                false
            }
            SNode::Def { body, checked, .. } => {
                path.push(0);
                if body.find_unchecked_innermost(path) {
                    return true;
                }
                path.pop();
                !checked
            }
            _ => false,
        }
    }

    fn at_path(&self, path: &[usize]) -> &SNode {
        match (self, path.split_first()) {
            (node, None) => node,
            (SNode::Concat(ps) | SNode::Alt(ps), Some((&i, rest))) => ps[i].at_path(rest),
            (SNode::Plus(p) | SNode::Star(p) | SNode::Def { body: p, .. }, Some((_, rest))) => {
                p.at_path(rest)
            }
            _ => unreachable!("bad path"),
        }
    }

    fn mark_checked(&mut self, path: &[usize]) {
        match (self, path.split_first()) {
            (SNode::Def { checked, .. }, None) => *checked = true,
            (SNode::Concat(ps) | SNode::Alt(ps), Some((&i, rest))) => ps[i].mark_checked(rest),
            (SNode::Plus(p) | SNode::Star(p) | SNode::Def { body: p, .. }, Some((_, rest))) => {
                p.mark_checked(rest);
            }
            _ => unreachable!("bad path"),
        }
    }

    /// Cuts the subtree at `path` upward to the nearest alternation node.
    /// Returns `true` when the whole tree must be deleted (no alternation on
    /// the way to the root).
    fn cut(&mut self, path: &[usize]) -> bool {
        let Some((&i, rest)) = path.split_first() else {
            return true; // the node itself
        };
        match self {
            SNode::Alt(ps) => {
                if ps[i].cut(rest) {
                    ps.remove(i);
                    if ps.is_empty() {
                        return true;
                    }
                }
                false
            }
            SNode::Concat(ps) => ps[i].cut(rest),
            SNode::Plus(p) | SNode::Star(p) | SNode::Def { body: p, .. } => p.cut(rest),
            _ => unreachable!("bad path"),
        }
    }

    /// Step B pruning: keeps, under every alternation on a path to a
    /// definition of `x`, only the children that still reach one. Returns
    /// whether the subtree contains a definition of `x`.
    fn force_instantiation(&mut self, x: Var) -> bool {
        match self {
            SNode::Def { var, body, .. } => {
                let inner = body.force_instantiation(x);
                *var == x || inner
            }
            SNode::Concat(ps) => {
                let mut any = false;
                for p in ps {
                    any |= p.force_instantiation(x);
                }
                any
            }
            SNode::Alt(ps) => {
                let flags: Vec<bool> = ps.iter_mut().map(|p| p.force_instantiation(x)).collect();
                if flags.iter().any(|&f| f) {
                    let mut keep = flags.iter();
                    ps.retain(|_| *keep.next().unwrap());
                    true
                } else {
                    false
                }
            }
            SNode::Plus(p) | SNode::Star(p) => {
                // Definitions cannot occur under repetition (sequentiality).
                debug_assert!(!p.force_instantiation(x));
                false
            }
            _ => false,
        }
    }

    /// Whether any definition of `x` survives in the tree.
    fn has_def_of(&self, x: Var) -> bool {
        match self {
            SNode::Def { var, body, .. } => *var == x || body.has_def_of(x),
            SNode::Concat(ps) | SNode::Alt(ps) => ps.iter().any(|p| p.has_def_of(x)),
            SNode::Plus(p) | SNode::Star(p) => p.has_def_of(x),
            _ => false,
        }
    }

    /// Step C: replaces definitions and references by image words.
    fn to_regex(&self, psi: &VarMapping) -> Regex {
        let image =
            |x: &Var| -> Regex { Regex::word(psi.get(x).map(Vec::as_slice).unwrap_or(&[])) };
        match self {
            SNode::Empty => Regex::Empty,
            SNode::Eps => Regex::Epsilon,
            SNode::Sym(a) => Regex::Sym(*a),
            SNode::Any => Regex::Any,
            SNode::Concat(ps) => Regex::concat(ps.iter().map(|p| p.to_regex(psi)).collect()),
            SNode::Alt(ps) => Regex::alt(ps.iter().map(|p| p.to_regex(psi)).collect()),
            SNode::Plus(p) => Regex::plus(p.to_regex(psi)),
            SNode::Star(p) => Regex::star(p.to_regex(psi)),
            SNode::Ref(x) => image(x),
            SNode::Def { var, .. } => image(var),
        }
    }
}

/// Replaces every reference and definition in `body` by its image word under
/// `psi`, yielding the classical `γ′` of Lemma 10's membership check. Also
/// used by the CXRPQ^{≤k} candidate enumerator.
pub fn substituted_body(body: &Xregex, psi: &VarMapping) -> Regex {
    let image = |x: &Var| -> Regex { Regex::word(psi.get(x).map(Vec::as_slice).unwrap_or(&[])) };
    match body {
        Xregex::Empty => Regex::Empty,
        Xregex::Epsilon => Regex::Epsilon,
        Xregex::Sym(a) => Regex::Sym(*a),
        Xregex::Any => Regex::Any,
        Xregex::Concat(ps) => Regex::concat(ps.iter().map(|p| substituted_body(p, psi)).collect()),
        Xregex::Alt(ps) => Regex::alt(ps.iter().map(|p| substituted_body(p, psi)).collect()),
        Xregex::Plus(p) => Regex::plus(substituted_body(p, psi)),
        Xregex::Star(p) => Regex::star(substituted_body(p, psi)),
        Xregex::VarRef(x) => image(x),
        Xregex::VarDef(x, _) => image(x),
    }
}

/// Lemma 10: computes classical `β̄` with `L(β̄) = L^{v̄}(ᾱ)`.
///
/// Returns `None` when `L^{v̄}(ᾱ) = ∅` is detected syntactically (a
/// component reduced to `∅`, or a mandatory instantiation is impossible).
/// Variables absent from `psi` are taken to be ε.
pub fn specialize(cx: &ConjunctiveXregex, psi: &VarMapping) -> Option<Vec<Regex>> {
    let originally_defined: Vec<Var> = cx.defined_vars();
    let mut trees: Vec<Option<SNode>> = cx
        .components()
        .iter()
        .map(|c| Some(SNode::from_xregex(c)))
        .collect();

    // Step A: mark / cut definitions, innermost first.
    for slot in &mut trees {
        while let Some(tree) = slot.as_mut() {
            let mut path = Vec::new();
            if !tree.find_unchecked_innermost(&mut path) {
                break;
            }
            let (var, body) = match tree.at_path(&path) {
                SNode::Def { var, body, .. } => (*var, body.as_ref().clone()),
                _ => unreachable!(),
            };
            let gamma_prime = snode_substitute(&body, psi);
            let target = psi.get(&var).map(Vec::as_slice).unwrap_or(&[]);
            let can_produce = Nfa::from_regex(&gamma_prime).accepts(target);
            if can_produce {
                tree.mark_checked(&path);
            } else if tree.cut(&path) {
                *slot = None; // whole component deleted
            }
        }
    }

    // Step B: force instantiation of variables with non-ε images.
    for &x in &originally_defined {
        let img_nonempty = psi.get(&x).map(|v| !v.is_empty()).unwrap_or(false);
        if !img_nonempty {
            continue;
        }
        let mut survives = false;
        for slot in &mut trees {
            if let Some(tree) = slot.as_mut() {
                if tree.has_def_of(x) {
                    tree.force_instantiation(x);
                    survives = true;
                }
            }
        }
        if !survives {
            return None; // v̄(x) ≠ ε but no definition can be instantiated
        }
    }

    // Step C: replace by images.
    let mut out = Vec::with_capacity(trees.len());
    for slot in &trees {
        match slot {
            None => return None,
            Some(tree) => {
                let r = tree.to_regex(psi);
                if r.is_empty_lang() {
                    return None;
                }
                out.push(r);
            }
        }
    }
    Some(out)
}

fn snode_substitute(body: &SNode, psi: &VarMapping) -> Regex {
    let image = |x: &Var| -> Regex { Regex::word(psi.get(x).map(Vec::as_slice).unwrap_or(&[])) };
    match body {
        SNode::Empty => Regex::Empty,
        SNode::Eps => Regex::Epsilon,
        SNode::Sym(a) => Regex::Sym(*a),
        SNode::Any => Regex::Any,
        SNode::Concat(ps) => Regex::concat(ps.iter().map(|p| snode_substitute(p, psi)).collect()),
        SNode::Alt(ps) => Regex::alt(ps.iter().map(|p| snode_substitute(p, psi)).collect()),
        SNode::Plus(p) => Regex::plus(snode_substitute(p, psi)),
        SNode::Star(p) => Regex::star(snode_substitute(p, psi)),
        SNode::Ref(x) => image(x),
        SNode::Def { var, .. } => image(var),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatchConfig;
    use crate::parser::parse_conjunctive;
    use cxrpq_graph::Alphabet;

    fn setup(inputs: &[&str], alpha: &mut Alphabet) -> ConjunctiveXregex {
        let (comps, vt) = parse_conjunctive(inputs, alpha).unwrap();
        ConjunctiveXregex::new(comps, vt).unwrap()
    }

    fn psi_of(pairs: &[(&str, &str)], cx: &ConjunctiveXregex, a: &Alphabet) -> VarMapping {
        pairs
            .iter()
            .map(|(v, w)| (cx.vars().var(v).unwrap(), a.parse_word(w).unwrap()))
            .collect()
    }

    #[test]
    fn section_6_1_worked_example() {
        // α1 = x3{x1{ca*c}x2*} ∨ ((x1{cb*}∨x1{x4c*})(b∨x2*)x3{x1x2x1*})
        // α2 = (x1|x2)* x4{(b|c)*x2*} x2{(a|b)*a}
        // v̄ = (ca, a, caaca, ca): expected β = (ca(b|a*)caaca, ((ca)|a)*caa).
        let mut a = Alphabet::from_chars("abc");
        let cx = setup(
            &[
                "x3{x1{ca*c}x2*}|((x1{cb*}|x1{x4c*})(b|x2*)x3{x1x2x1*})",
                "(x1|x2)* x4{(b|c)*x2*} x2{(a|b)*a}",
            ],
            &mut a,
        );
        let psi = psi_of(
            &[("x1", "ca"), ("x2", "a"), ("x3", "caaca"), ("x4", "ca")],
            &cx,
            &a,
        );
        let beta = specialize(&cx, &psi).expect("non-empty specialization");
        assert_eq!(beta.len(), 2);
        // β1 ≡ ca(b|a*)caaca: check a few members / non-members.
        let m1 = Nfa::from_regex(&beta[0]);
        assert!(m1.accepts(&a.parse_word("cabcaaca").unwrap()));
        assert!(m1.accepts(&a.parse_word("cacaaca").unwrap())); // a* = ε
        assert!(m1.accepts(&a.parse_word("caaacaaca").unwrap())); // a* = aa
        assert!(!m1.accepts(&a.parse_word("caaca").unwrap()));
        // β2 ≡ ((ca)|a)*caa.
        let m2 = Nfa::from_regex(&beta[1]);
        assert!(m2.accepts(&a.parse_word("caa").unwrap()));
        assert!(m2.accepts(&a.parse_word("cacaa").unwrap()));
        assert!(m2.accepts(&a.parse_word("acaa").unwrap()));
        assert!(!m2.accepts(&a.parse_word("ca").unwrap()));
    }

    #[test]
    fn specialization_agrees_with_pinned_oracle() {
        // For each candidate mapping, membership in L(β̄) must coincide with
        // the pinned-mapping conjunctive-match oracle.
        let mut a = Alphabet::from_chars("ab");
        let cx = setup(&["x{a|bb}(a|x)y", "y{b*}x"], &mut a);
        let words: Vec<Vec<Symbol>> = (0..=4usize)
            .flat_map(|n| {
                (0..(1u32 << n))
                    .map(move |mask| (0..n).map(|i| Symbol((mask >> i) & 1)).collect::<Vec<_>>())
            })
            .collect();
        let images: Vec<Vec<Symbol>> = (0..=2usize)
            .flat_map(|n| {
                (0..(1u32 << n))
                    .map(move |mask| (0..n).map(|i| Symbol((mask >> i) & 1)).collect::<Vec<_>>())
            })
            .collect();
        let x = cx.vars().var("x").unwrap();
        let y = cx.vars().var("y").unwrap();
        for ix in &images {
            for iy in &images {
                let psi: VarMapping = [(x, ix.clone()), (y, iy.clone())].into_iter().collect();
                let beta = specialize(&cx, &psi);
                let nfas: Option<Vec<Nfa>> =
                    beta.map(|bs| bs.iter().map(Nfa::from_regex).collect());
                for w1 in &words {
                    for w2 in &words {
                        let via_beta = nfas
                            .as_ref()
                            .map(|ms| ms[0].accepts(w1) && ms[1].accepts(w2))
                            .unwrap_or(false);
                        let via_oracle = cx
                            .is_match(&[w1.clone(), w2.clone()], &MatchConfig::pinned(psi.clone()))
                            .unwrap()
                            .is_some();
                        assert_eq!(
                            via_beta, via_oracle,
                            "ψ=({ix:?},{iy:?}) words=({w1:?},{w2:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn impossible_image_yields_none() {
        let mut a = Alphabet::from_chars("ab");
        let cx = setup(&["x{a+}bx"], &mut a);
        let x = cx.vars().var("x").unwrap();
        // x must produce from a+, so image "b" is impossible; the definition
        // is unavoidable → whole component ∅.
        let psi: VarMapping = [(x, a.parse_word("b").unwrap())].into_iter().collect();
        assert!(specialize(&cx, &psi).is_none());
        // ε is impossible too (a+ is not nullable).
        let psi2: VarMapping = [(x, vec![])].into_iter().collect();
        assert!(specialize(&cx, &psi2).is_none());
        // "aa" works.
        let psi3: VarMapping = [(x, a.parse_word("aa").unwrap())].into_iter().collect();
        let beta = specialize(&cx, &psi3).unwrap();
        assert!(Nfa::from_regex(&beta[0]).accepts(&a.parse_word("aabaa").unwrap()));
    }

    #[test]
    fn cut_retreats_to_alternation() {
        let mut a = Alphabet::from_chars("ab");
        // (x{a+} b) | b*: with ψ(x) = ε the left branch dies, b* survives.
        let cx = setup(&["(x{a+}b)|b*"], &mut a);
        let psi = VarMapping::new();
        let beta = specialize(&cx, &psi).unwrap();
        let m = Nfa::from_regex(&beta[0]);
        assert!(m.accepts(&a.parse_word("bb").unwrap()));
        assert!(!m.accepts(&a.parse_word("ab").unwrap()));
    }

    #[test]
    fn never_defined_variables_are_free() {
        // Reference-only variables (Lemma 12-style equality edges) accept
        // any image.
        let mut a = Alphabet::from_chars("ab");
        let (comps, mut vt) = parse_conjunctive(&["aa", "bb"], &mut a).unwrap();
        let z = vt.intern("z");
        let mut comps = comps;
        comps[0] = Xregex::VarRef(z);
        comps[1] = Xregex::VarRef(z);
        let cx = ConjunctiveXregex::new(comps, vt).unwrap();
        let psi: VarMapping = [(z, a.parse_word("ab").unwrap())].into_iter().collect();
        let beta = specialize(&cx, &psi).unwrap();
        for b in &beta {
            let m = Nfa::from_regex(b);
            assert!(m.accepts(&a.parse_word("ab").unwrap()));
            assert!(!m.accepts(&a.parse_word("a").unwrap()));
        }
    }

    #[test]
    fn forced_instantiation_prunes_branches() {
        let mut a = Alphabet::from_chars("abc");
        // (x{a}|b) x: with ψ(x) = a, the b-branch (which leaves x
        // uninstantiated, hence ε) must be pruned.
        let cx = setup(&["(x{a}|b)x"], &mut a);
        let x = cx.vars().var("x").unwrap();
        let psi: VarMapping = [(x, a.parse_word("a").unwrap())].into_iter().collect();
        let beta = specialize(&cx, &psi).unwrap();
        let m = Nfa::from_regex(&beta[0]);
        assert!(m.accepts(&a.parse_word("aa").unwrap()));
        assert!(!m.accepts(&a.parse_word("ba").unwrap()));
        assert!(!m.accepts(&a.parse_word("b").unwrap()));
        // With ψ(x) = ε both branches survive (x-def can produce… no: a ≠ ε,
        // so the x-branch is cut and only b remains).
        let psi2: VarMapping = [(x, vec![])].into_iter().collect();
        let beta2 = specialize(&cx, &psi2).unwrap();
        let m2 = Nfa::from_regex(&beta2[0]);
        assert!(m2.accepts(&a.parse_word("b").unwrap()));
        assert!(!m2.accepts(&a.parse_word("aa").unwrap()));
    }
}
