//! Nondeterministic finite automata with ε-transitions.

use crate::regex::Regex;
use cxrpq_graph::Symbol;
use std::collections::{HashMap, VecDeque};

/// A state of an [`Nfa`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// Dense index of the state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A transition label: ε, a concrete symbol, or "any symbol of Σ".
///
/// `Any` keeps automata for `Σ` / `Σ*` constant-sized independently of |Σ|,
/// which matters because the paper's constructions use `x{Σ*}` dummy
/// definitions pervasively (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Label {
    /// The empty word.
    Eps,
    /// One concrete symbol.
    Sym(Symbol),
    /// Any single symbol of Σ.
    Any,
}

impl Label {
    /// Whether this label can read the concrete symbol `a`.
    #[inline]
    pub fn reads(self, a: Symbol) -> bool {
        match self {
            Label::Eps => false,
            Label::Sym(b) => a == b,
            Label::Any => true,
        }
    }
}

/// An NFA with a single start state and a set of final states.
#[derive(Clone, Debug)]
pub struct Nfa {
    start: StateId,
    finals: Vec<bool>,
    trans: Vec<Vec<(Label, StateId)>>,
}

impl Nfa {
    /// Creates an NFA with `n` states (none final), start state 0 and no
    /// transitions. Mostly useful for hand-built automata in tests and
    /// reductions.
    pub fn with_states(n: usize) -> Self {
        Self {
            start: StateId(0),
            finals: vec![false; n],
            trans: vec![Vec::new(); n],
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.trans.len() as u32);
        self.trans.push(Vec::new());
        self.finals.push(false);
        id
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: StateId, label: Label, to: StateId) {
        self.trans[from.index()].push((label, to));
    }

    /// Sets the start state.
    pub fn set_start(&mut self, s: StateId) {
        self.start = s;
    }

    /// Marks a state final.
    pub fn set_final(&mut self, s: StateId, f: bool) {
        self.finals[s.index()] = f;
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `s` is a final state.
    pub fn is_final(&self, s: StateId) -> bool {
        self.finals[s.index()]
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
    }

    /// Outgoing transitions of `s`.
    #[inline]
    pub fn transitions(&self, s: StateId) -> &[(Label, StateId)] {
        &self.trans[s.index()]
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.trans.len() as u32).map(StateId)
    }

    /// All final states.
    pub fn final_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.states().filter(|s| self.is_final(*s))
    }

    // ------------------------------------------------------------------
    // Thompson construction
    // ------------------------------------------------------------------

    /// Builds an NFA accepting `L(r)` via the Thompson construction.
    ///
    /// The result has a single final state and O(|r|) states/transitions.
    pub fn from_regex(r: &Regex) -> Self {
        let mut nfa = Nfa {
            start: StateId(0),
            finals: Vec::new(),
            trans: Vec::new(),
        };
        let (s, t) = nfa.build(r);
        nfa.start = s;
        nfa.finals[t.index()] = true;
        nfa
    }

    fn build(&mut self, r: &Regex) -> (StateId, StateId) {
        match r {
            Regex::Empty => {
                let s = self.add_state();
                let t = self.add_state();
                (s, t)
            }
            Regex::Epsilon => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_transition(s, Label::Eps, t);
                (s, t)
            }
            Regex::Sym(a) => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_transition(s, Label::Sym(*a), t);
                (s, t)
            }
            Regex::Any => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_transition(s, Label::Any, t);
                (s, t)
            }
            Regex::Concat(ps) => {
                let mut first = None;
                let mut last: Option<StateId> = None;
                for p in ps {
                    let (s, t) = self.build(p);
                    if let Some(prev) = last {
                        self.add_transition(prev, Label::Eps, s);
                    } else {
                        first = Some(s);
                    }
                    last = Some(t);
                }
                (first.unwrap(), last.unwrap())
            }
            Regex::Alt(ps) => {
                let s = self.add_state();
                let t = self.add_state();
                for p in ps {
                    let (ps_, pt) = self.build(p);
                    self.add_transition(s, Label::Eps, ps_);
                    self.add_transition(pt, Label::Eps, t);
                }
                (s, t)
            }
            Regex::Plus(p) => {
                let s = self.add_state();
                let t = self.add_state();
                let (ps, pt) = self.build(p);
                self.add_transition(s, Label::Eps, ps);
                self.add_transition(pt, Label::Eps, t);
                self.add_transition(pt, Label::Eps, ps);
                (s, t)
            }
            Regex::Star(p) => {
                let s = self.add_state();
                let t = self.add_state();
                let (ps, pt) = self.build(p);
                self.add_transition(s, Label::Eps, ps);
                self.add_transition(pt, Label::Eps, t);
                self.add_transition(pt, Label::Eps, ps);
                self.add_transition(s, Label::Eps, t);
                (s, t)
            }
        }
    }

    // ------------------------------------------------------------------
    // Simulation
    // ------------------------------------------------------------------

    /// Extends `set` (a boolean membership vector) to its ε-closure.
    pub fn eps_close(&self, set: &mut [bool]) {
        let mut stack: Vec<StateId> = set
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| StateId(i as u32))
            .collect();
        while let Some(s) = stack.pop() {
            for &(l, t) in self.transitions(s) {
                if l == Label::Eps && !set[t.index()] {
                    set[t.index()] = true;
                    stack.push(t);
                }
            }
        }
    }

    /// ε-closure of a single state, as a sorted state list.
    pub fn eps_closure_of(&self, s: StateId) -> Vec<StateId> {
        let mut set = vec![false; self.state_count()];
        set[s.index()] = true;
        self.eps_close(&mut set);
        set.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| StateId(i as u32))
            .collect()
    }

    /// One symbol step on a closed state set, returning the closed result.
    pub fn step(&self, set: &[bool], a: Symbol) -> Vec<bool> {
        let mut next = vec![false; self.state_count()];
        for (i, &b) in set.iter().enumerate() {
            if !b {
                continue;
            }
            for &(l, t) in self.transitions(StateId(i as u32)) {
                if l.reads(a) {
                    next[t.index()] = true;
                }
            }
        }
        self.eps_close(&mut next);
        next
    }

    /// The ε-closed start set.
    pub fn start_set(&self) -> Vec<bool> {
        let mut set = vec![false; self.state_count()];
        set[self.start.index()] = true;
        self.eps_close(&mut set);
        set
    }

    /// Whether any state of `set` is final.
    pub fn any_final(&self, set: &[bool]) -> bool {
        set.iter().enumerate().any(|(i, &b)| b && self.finals[i])
    }

    /// Membership test `w ∈ L(self)` via subset simulation.
    pub fn accepts(&self, w: &[Symbol]) -> bool {
        let mut set = self.start_set();
        for &a in w {
            set = self.step(&set, a);
            if set.iter().all(|&b| !b) {
                return false;
            }
        }
        self.any_final(&set)
    }

    // ------------------------------------------------------------------
    // Language algebra
    // ------------------------------------------------------------------

    /// Product automaton accepting `L(a) ∩ L(b)`, built on the fly from the
    /// reachable pair space.
    ///
    /// `Any` labels combine as expected: `Any ∩ Sym(a) = Sym(a)` and
    /// `Any ∩ Any = Any`.
    pub fn intersection(a: &Nfa, b: &Nfa) -> Nfa {
        let mut out = Nfa {
            start: StateId(0),
            finals: Vec::new(),
            trans: Vec::new(),
        };
        let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut queue = VecDeque::new();
        let start = (a.start, b.start);
        let s0 = out.add_state();
        ids.insert(start, s0);
        out.start = s0;
        queue.push_back(start);
        while let Some((p, q)) = queue.pop_front() {
            let pid = ids[&(p, q)];
            out.finals[pid.index()] = a.is_final(p) && b.is_final(q);
            let push = |out: &mut Nfa,
                        ids: &mut HashMap<(StateId, StateId), StateId>,
                        queue: &mut VecDeque<(StateId, StateId)>,
                        label: Label,
                        tgt: (StateId, StateId)| {
                let tid = *ids.entry(tgt).or_insert_with(|| {
                    queue.push_back(tgt);
                    out.add_state()
                });
                out.add_transition(pid, label, tid);
            };
            // ε moves on either side.
            for &(l, t) in a.transitions(p) {
                if l == Label::Eps {
                    push(&mut out, &mut ids, &mut queue, Label::Eps, (t, q));
                }
            }
            for &(l, t) in b.transitions(q) {
                if l == Label::Eps {
                    push(&mut out, &mut ids, &mut queue, Label::Eps, (p, t));
                }
            }
            // Synchronized symbol moves.
            for &(la, ta) in a.transitions(p) {
                for &(lb, tb) in b.transitions(q) {
                    let combined = match (la, lb) {
                        (Label::Eps, _) | (_, Label::Eps) => None,
                        (Label::Sym(x), Label::Sym(y)) if x == y => Some(Label::Sym(x)),
                        (Label::Sym(_), Label::Sym(_)) => None,
                        (Label::Sym(x), Label::Any) | (Label::Any, Label::Sym(x)) => {
                            Some(Label::Sym(x))
                        }
                        (Label::Any, Label::Any) => Some(Label::Any),
                    };
                    if let Some(l) = combined {
                        push(&mut out, &mut ids, &mut queue, l, (ta, tb));
                    }
                }
            }
        }
        out
    }

    /// Intersection of several automata (left fold).
    pub fn intersect_all(autos: &[Nfa]) -> Nfa {
        assert!(!autos.is_empty());
        let mut acc = autos[0].clone();
        for m in &autos[1..] {
            acc = Nfa::intersection(&acc, m);
        }
        acc
    }

    /// Union automaton accepting `⋃ L(mᵢ)` (fresh start with ε-branches).
    pub fn union(autos: &[Nfa]) -> Nfa {
        let mut out = Nfa::with_states(1);
        for m in autos {
            let offset = out.state_count() as u32;
            for s in m.states() {
                let ns = out.add_state();
                out.finals[ns.index()] = m.is_final(s);
            }
            for s in m.states() {
                for &(l, t) in m.transitions(s) {
                    out.add_transition(StateId(s.0 + offset), l, StateId(t.0 + offset));
                }
            }
            out.add_transition(StateId(0), Label::Eps, StateId(m.start.0 + offset));
        }
        out
    }

    /// Concatenation automaton accepting `L(a)·L(b)`: `b`'s states follow
    /// `a`'s, each final state of `a` gets an ε-arc to `b`'s start, and
    /// only `b`'s finals stay final.
    pub fn concat(a: &Nfa, b: &Nfa) -> Nfa {
        let offset = a.state_count() as u32;
        let mut out = a.clone();
        out.finals.fill(false);
        out.finals.extend_from_slice(&b.finals);
        out.trans.extend(b.trans.iter().map(|row| {
            row.iter()
                .map(|&(l, t)| (l, StateId(t.0 + offset)))
                .collect()
        }));
        for f in a.final_states() {
            out.add_transition(f, Label::Eps, StateId(b.start.0 + offset));
        }
        out
    }

    /// Whether `ε ∈ L(self)` (some start-closure state is final).
    pub fn accepts_epsilon(&self) -> bool {
        self.any_final(&self.start_set())
    }

    /// Whether `L(self) = {ε}`: the automaton accepts the empty word and
    /// nothing else. Decided structurally — after trimming, every remaining
    /// transition lies on some accepting path, so a single non-ε label
    /// witnesses a non-empty accepted word.
    pub fn is_epsilon_only(&self) -> bool {
        if !self.accepts_epsilon() {
            return false;
        }
        let t = self.trim();
        let eps_only = t
            .states()
            .all(|s| t.transitions(s).iter().all(|&(l, _)| l == Label::Eps));
        eps_only
    }

    /// Bounded language-inclusion test `L(self) ⊆ L(other)` over the
    /// alphabet `Σ = {0, …, sigma_size-1}`.
    ///
    /// Explores the product of `self`'s states with determinized subsets of
    /// `other` on the fly; a `self`-final state paired with a subset
    /// containing no `other`-final state is a counterexample word. `Any`
    /// transitions on the `self` side expand over every symbol of Σ.
    /// Returns `None` when the number of visited product states exceeds
    /// `budget` — the check is abandoned, not answered.
    pub fn included_in(&self, other: &Nfa, sigma_size: usize, budget: usize) -> Option<bool> {
        fn pack(set: &[bool]) -> Vec<u64> {
            let mut out = vec![0u64; set.len().div_ceil(64)];
            for (i, &b) in set.iter().enumerate() {
                if b {
                    out[i / 64] |= 1 << (i % 64);
                }
            }
            out
        }
        let q0 = other.start_set();
        let mut visited: std::collections::HashSet<(StateId, Vec<u64>)> =
            std::collections::HashSet::new();
        visited.insert((self.start, pack(&q0)));
        let mut stack = vec![(self.start, q0)];
        while let Some((p, q)) = stack.pop() {
            if visited.len() > budget {
                return None;
            }
            if self.is_final(p) && !other.any_final(&q) {
                return Some(false);
            }
            let push = |t: StateId,
                        nq: Vec<bool>,
                        visited: &mut std::collections::HashSet<_>,
                        stack: &mut Vec<_>| {
                if visited.insert((t, pack(&nq))) {
                    stack.push((t, nq));
                }
            };
            for &(l, t) in self.transitions(p) {
                match l {
                    Label::Eps => push(t, q.clone(), &mut visited, &mut stack),
                    Label::Sym(a) => push(t, other.step(&q, a), &mut visited, &mut stack),
                    Label::Any => {
                        for i in 0..sigma_size as u32 {
                            push(t, other.step(&q, Symbol(i)), &mut visited, &mut stack);
                        }
                    }
                }
            }
        }
        Some(true)
    }

    /// Bounded universality test `L(self) = Σ*` over `Σ = {0, …,
    /// sigma_size-1}`: inclusion of the one-state Σ* automaton in `self`.
    /// `None` means the `budget` on visited product states was exceeded.
    pub fn is_universal(&self, sigma_size: usize, budget: usize) -> Option<bool> {
        let mut all = Nfa::with_states(1);
        all.set_final(StateId(0), true);
        all.add_transition(StateId(0), Label::Any, StateId(0));
        all.included_in(self, sigma_size, budget)
    }

    /// Whether `L(self) = ∅` (no final state reachable).
    pub fn is_empty(&self) -> bool {
        let mut seen = vec![false; self.state_count()];
        let mut stack = vec![self.start];
        seen[self.start.index()] = true;
        while let Some(s) = stack.pop() {
            if self.is_final(s) {
                return false;
            }
            for &(_, t) in self.transitions(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// A shortest accepted word, or `None` when the language is empty.
    ///
    /// `Any` transitions contribute `Symbol(0)`; pass `sigma_size = 0` to
    /// forbid taking `Any` transitions.
    pub fn shortest_word(&self, sigma_size: usize) -> Option<Vec<Symbol>> {
        let mut pred: Vec<Option<(StateId, Option<Symbol>)>> = vec![None; self.state_count()];
        let mut seen = vec![false; self.state_count()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start.index()] = true;
        let mut hit = None;
        'bfs: while let Some(s) = queue.pop_front() {
            if self.is_final(s) {
                hit = Some(s);
                break 'bfs;
            }
            for &(l, t) in self.transitions(s) {
                let sym = match l {
                    Label::Eps => None,
                    Label::Sym(a) => Some(a),
                    Label::Any => {
                        if sigma_size == 0 {
                            continue;
                        }
                        Some(Symbol(0))
                    }
                };
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    pred[t.index()] = Some((s, sym));
                    queue.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut word = Vec::new();
        while cur != self.start {
            let (p, sym) = pred[cur.index()].unwrap();
            if let Some(a) = sym {
                word.push(a);
            }
            cur = p;
        }
        word.reverse();
        Some(word)
    }

    /// Enumerates all accepted words of length ≤ `max_len`.
    ///
    /// `sigma_size` bounds the expansion of `Any` transitions. Runs a DFS
    /// over the word trie with reachable-state-set pruning.
    pub fn enumerate_upto(&self, max_len: usize, sigma_size: usize) -> Vec<Vec<Symbol>> {
        let mut out = Vec::new();
        let mut word = Vec::new();
        let start = self.start_set();
        self.enum_rec(&start, max_len, sigma_size, &mut word, &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn enum_rec(
        &self,
        set: &[bool],
        budget: usize,
        sigma_size: usize,
        word: &mut Vec<Symbol>,
        out: &mut Vec<Vec<Symbol>>,
    ) {
        if self.any_final(set) {
            out.push(word.clone());
        }
        if budget == 0 {
            return;
        }
        for i in 0..sigma_size as u32 {
            let a = Symbol(i);
            let next = self.step(set, a);
            if next.iter().any(|&b| b) {
                word.push(a);
                self.enum_rec(&next, budget - 1, sigma_size, word, out);
                word.pop();
            }
        }
    }

    /// Removes states that are unreachable from the start or cannot reach a
    /// final state. Returns the trimmed automaton (language-preserving).
    pub fn trim(&self) -> Nfa {
        let n = self.state_count();
        // Forward reachability.
        let mut fwd = vec![false; n];
        let mut stack = vec![self.start];
        fwd[self.start.index()] = true;
        while let Some(s) = stack.pop() {
            for &(_, t) in self.transitions(s) {
                if !fwd[t.index()] {
                    fwd[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        // Backward reachability from finals.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for s in self.states() {
            for &(_, t) in self.transitions(s) {
                rev[t.index()].push(s);
            }
        }
        let mut bwd = vec![false; n];
        let mut stack: Vec<StateId> = self.final_states().collect();
        for s in &stack {
            bwd[s.index()] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &rev[s.index()] {
                if !bwd[p.index()] {
                    bwd[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        let keep: Vec<bool> = (0..n).map(|i| fwd[i] && bwd[i]).collect();
        let mut map: Vec<Option<StateId>> = vec![None; n];
        let mut out = Nfa {
            start: StateId(0),
            finals: Vec::new(),
            trans: Vec::new(),
        };
        for i in 0..n {
            if keep[i] {
                map[i] = Some(out.add_state());
                out.finals[map[i].unwrap().index()] = self.finals[i];
            }
        }
        if !keep[self.start.index()] {
            // Empty language: a single non-final state.
            return Nfa::with_states(1);
        }
        out.start = map[self.start.index()].unwrap();
        for i in 0..n {
            if let Some(ni) = map[i] {
                for &(l, t) in &self.trans[i] {
                    if let Some(nt) = map[t.index()] {
                        out.add_transition(ni, l, nt);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use cxrpq_graph::Alphabet;

    fn nfa_of(s: &str) -> (Nfa, Alphabet) {
        let mut a = Alphabet::from_chars("abc");
        let r = parse_regex(s, &mut a).unwrap();
        (Nfa::from_regex(&r), a)
    }

    fn w(a: &Alphabet, s: &str) -> Vec<Symbol> {
        a.parse_word(s).unwrap()
    }

    #[test]
    fn accepts_basic() {
        let (m, a) = nfa_of("a(b|c)*");
        assert!(m.accepts(&w(&a, "a")));
        assert!(m.accepts(&w(&a, "abcb")));
        assert!(!m.accepts(&w(&a, "b")));
        assert!(!m.accepts(&w(&a, "")));
    }

    #[test]
    fn accepts_plus_vs_star() {
        let (p, a) = nfa_of("a+");
        assert!(!p.accepts(&w(&a, "")));
        assert!(p.accepts(&w(&a, "aaa")));
        let (s, a2) = nfa_of("a*");
        assert!(s.accepts(&w(&a2, "")));
    }

    #[test]
    fn accepts_any() {
        let (m, a) = nfa_of(".b");
        assert!(m.accepts(&w(&a, "ab")));
        assert!(m.accepts(&w(&a, "cb")));
        assert!(!m.accepts(&w(&a, "a")));
    }

    #[test]
    fn empty_language() {
        let (m, _) = nfa_of("!");
        assert!(m.is_empty());
        let (m2, _) = nfa_of("a!|b");
        assert!(!m2.is_empty());
    }

    #[test]
    fn intersection_concrete() {
        let (m1, a) = nfa_of("a*b*");
        let (m2, _) = nfa_of("(ab)*|a|aa");
        let i = Nfa::intersection(&m1, &m2);
        assert!(i.accepts(&w(&a, "ab")));
        assert!(i.accepts(&w(&a, "a")));
        assert!(i.accepts(&w(&a, "aa")));
        assert!(i.accepts(&w(&a, "")));
        assert!(!i.accepts(&w(&a, "abab"))); // in m2, not m1
        assert!(!i.accepts(&w(&a, "bb"))); // in m1, not m2
    }

    #[test]
    fn intersection_with_any() {
        let (m1, a) = nfa_of(".*");
        let (m2, _) = nfa_of("ab+");
        let i = Nfa::intersection(&m1, &m2);
        assert!(i.accepts(&w(&a, "abb")));
        assert!(!i.accepts(&w(&a, "a")));
    }

    #[test]
    fn union_works() {
        let (m1, a) = nfa_of("aa");
        let (m2, _) = nfa_of("bb");
        let u = Nfa::union(&[m1, m2]);
        assert!(u.accepts(&w(&a, "aa")));
        assert!(u.accepts(&w(&a, "bb")));
        assert!(!u.accepts(&w(&a, "ab")));
    }

    #[test]
    fn concat_accepts_the_product_language() {
        let (m1, a) = nfa_of("a(b|c)*");
        let (m2, _) = nfa_of("_|c");
        let c = Nfa::concat(&m1, &m2);
        for (text, want) in [
            ("a", true),
            ("ac", true),
            ("abcc", true),
            ("", false),
            ("c", false),
        ] {
            assert_eq!(c.accepts(&w(&a, text)), want, "{text:?}");
        }
        let (e, _) = nfa_of("!");
        assert!(Nfa::concat(&m1, &e).is_empty());
        assert!(Nfa::concat(&e, &m1).is_empty());
    }

    #[test]
    fn shortest_word_finds_minimum() {
        let (m, a) = nfa_of("aaa|ab");
        assert_eq!(m.shortest_word(3), Some(w(&a, "ab")));
        let (e, _) = nfa_of("!");
        assert_eq!(e.shortest_word(3), None);
        let (eps, _) = nfa_of("_|aaa");
        assert_eq!(eps.shortest_word(3), Some(vec![]));
    }

    #[test]
    fn enumerate_matches_regex_enumeration() {
        let mut alpha = Alphabet::from_chars("ab");
        let r = parse_regex("(a|bb)*", &mut alpha).unwrap();
        let m = Nfa::from_regex(&r);
        assert_eq!(m.enumerate_upto(4, 2), r.enumerate_upto(4, 2));
    }

    #[test]
    fn trim_preserves_language() {
        let mut alpha = Alphabet::from_chars("ab");
        let r = parse_regex("a(b|!aa)", &mut alpha).unwrap();
        let m = Nfa::from_regex(&r);
        let t = m.trim();
        assert!(t.state_count() <= m.state_count());
        assert_eq!(t.enumerate_upto(4, 2), m.enumerate_upto(4, 2));
    }

    #[test]
    fn trim_empty_language() {
        let (m, _) = nfa_of("!");
        let t = m.trim();
        assert!(t.is_empty());
        assert_eq!(t.state_count(), 1);
    }

    #[test]
    fn hand_built_automaton() {
        // Two-state automaton: accepts odd number of a's.
        let mut m = Nfa::with_states(2);
        let a = Symbol(0);
        m.add_transition(StateId(0), Label::Sym(a), StateId(1));
        m.add_transition(StateId(1), Label::Sym(a), StateId(0));
        m.set_final(StateId(1), true);
        assert!(m.accepts(&[a]));
        assert!(!m.accepts(&[a, a]));
        assert!(m.accepts(&[a, a, a]));
    }

    #[test]
    fn epsilon_only_classification() {
        let (eps, _) = nfa_of("_");
        assert!(eps.is_epsilon_only());
        let (alt, _) = nfa_of("_|!"); // still {ε} after trimming the ∅ branch
        assert!(alt.is_epsilon_only());
        let (opt, _) = nfa_of("a*");
        assert!(opt.accepts_epsilon());
        assert!(!opt.is_epsilon_only());
        let (empty, _) = nfa_of("!");
        assert!(!empty.is_epsilon_only());
        let (sym, _) = nfa_of("a");
        assert!(!sym.is_epsilon_only());
    }

    #[test]
    fn inclusion_basic() {
        let (sub, _) = nfa_of("ab");
        let (sup, _) = nfa_of("a(b|c)");
        assert_eq!(sub.included_in(&sup, 3, 1 << 12), Some(true));
        assert_eq!(sup.included_in(&sub, 3, 1 << 12), Some(false));
        // Equal languages include both ways.
        let (x, _) = nfa_of("(a|b)+");
        let (y, _) = nfa_of("(a|b)(a|b)*");
        assert_eq!(x.included_in(&y, 3, 1 << 12), Some(true));
        assert_eq!(y.included_in(&x, 3, 1 << 12), Some(true));
        // ∅ ⊆ anything; anything non-empty ⊄ ∅.
        let (e, _) = nfa_of("!");
        assert_eq!(e.included_in(&x, 3, 1 << 12), Some(true));
        assert_eq!(x.included_in(&e, 3, 1 << 12), Some(false));
    }

    #[test]
    fn inclusion_with_any() {
        let (sub, _) = nfa_of("a.c");
        let (sup, _) = nfa_of(".*");
        assert_eq!(sub.included_in(&sup, 3, 1 << 12), Some(true));
        assert_eq!(sup.included_in(&sub, 3, 1 << 12), Some(false));
    }

    #[test]
    fn inclusion_budget_exceeded_is_none() {
        let (sub, _) = nfa_of("(a|b)*c");
        let (sup, _) = nfa_of("(a|b|c)*");
        assert_eq!(sub.included_in(&sup, 3, 1), None);
        assert_eq!(sub.included_in(&sup, 3, 1 << 12), Some(true));
    }

    #[test]
    fn universality() {
        let (u, _) = nfa_of(".*");
        assert_eq!(u.is_universal(3, 1 << 12), Some(true));
        let (u2, _) = nfa_of("(a|b|c)*");
        assert_eq!(u2.is_universal(3, 1 << 12), Some(true));
        let (not, _) = nfa_of("(a|b)*");
        assert_eq!(not.is_universal(3, 1 << 12), Some(false));
        let (plus, _) = nfa_of(".+"); // misses ε
        assert_eq!(plus.is_universal(3, 1 << 12), Some(false));
        assert_eq!(u.is_universal(3, 0), None);
    }

    #[test]
    fn intersect_all_three() {
        let (m1, a) = nfa_of("(a|b)*");
        let (m2, _) = nfa_of("a.*");
        let (m3, _) = nfa_of(".*b");
        let i = Nfa::intersect_all(&[m1, m2, m3]);
        assert!(i.accepts(&w(&a, "ab")));
        assert!(i.accepts(&w(&a, "aab")));
        assert!(!i.accepts(&w(&a, "ba")));
    }
}
