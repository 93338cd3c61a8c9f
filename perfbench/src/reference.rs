//! The benchmark's own reference evaluator, written apart from the
//! program's automata, storage and solver: the graph is rebuilt from its
//! text, regular expressions go through a Thompson construction, atoms are
//! evaluated by plain product BFS over adjacency lists, and conjunctions by
//! nested-loop joins. String variables are handled by the callers, which
//! expand finite or length-bounded variable images into plain regexes.

use cxrpq_graph::NodeId;
use std::collections::{BTreeSet, HashMap, HashSet};

/// An edge-labelled graph indexed by the program's node ids.
pub struct RefGraph {
    labels: HashMap<String, usize>,
    pub out: Vec<Vec<(usize, u32)>>,
    pub inn: Vec<Vec<(usize, u32)>>,
}

impl RefGraph {
    /// Parses the `edge <src> <label> <dst>` lines of a graph text; node
    /// names are resolved through the name map `read_graph` returned, so
    /// node numbers agree with the program's.
    pub fn from_text(text: &str, names: &HashMap<String, NodeId>) -> Self {
        let mut g = RefGraph {
            labels: HashMap::new(),
            out: vec![Vec::new(); names.len()],
            inn: vec![Vec::new(); names.len()],
        };
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if it.next() != Some("edge") {
                continue;
            }
            let (u, a, v) = (it.next(), it.next(), it.next());
            let (Some(u), Some(a), Some(v)) = (u, a, v) else {
                panic!("malformed edge line {line:?}");
            };
            g.add_edge(names[u].0, a, names[v].0);
        }
        g
    }

    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Adds an arc unless it is already present.
    pub fn add_edge(&mut self, u: u32, label: &str, v: u32) -> bool {
        let next = self.labels.len();
        let a = *self.labels.entry(label.to_string()).or_insert(next);
        if self.out[u as usize].contains(&(a, v)) {
            return false;
        }
        self.out[u as usize].push((a, v));
        self.inn[v as usize].push((a, u));
        true
    }

    /// Every arc as (source, label name, target).
    pub fn edge_set(&self) -> BTreeSet<(u32, String, u32)> {
        let mut names = vec![""; self.labels.len()];
        for (name, &a) in &self.labels {
            names[a] = name;
        }
        let mut set = BTreeSet::new();
        for (u, row) in self.out.iter().enumerate() {
            for &(a, v) in row {
                set.insert((u as u32, names[a].to_string(), v));
            }
        }
        set
    }

    /// The arcs carrying `label`, as a relation.
    pub fn label_pairs(&self, label: &str) -> HashSet<(u32, u32)> {
        let Some(&a) = self.labels.get(label) else {
            return HashSet::new();
        };
        let mut rel = HashSet::new();
        for (u, row) in self.out.iter().enumerate() {
            for &(b, v) in row {
                if a == b {
                    rel.insert((u as u32, v));
                }
            }
        }
        rel
    }
}

/// Regular expressions over single-character labels (`.` is any label).
#[derive(Clone, Debug)]
pub enum Re {
    Sym(String),
    Any,
    Eps,
    Cat(Vec<Re>),
    Alt(Vec<Re>),
    Star(Box<Re>),
    Plus(Box<Re>),
}

impl Re {
    /// Parses `|`, concatenation, `*`, `+`, parentheses, `.` and
    /// single-character labels; spaces are ignored.
    pub fn parse(text: &str) -> Re {
        let chars: Vec<char> = text.chars().filter(|c| !c.is_whitespace()).collect();
        let mut pos = 0;
        let re = parse_alt(&chars, &mut pos);
        assert_eq!(pos, chars.len(), "trailing input in regex {text:?}");
        re
    }

    /// The single word `w`.
    pub fn word(w: &[&str]) -> Re {
        Re::Cat(w.iter().map(|a| Re::Sym((*a).to_string())).collect())
    }
}

fn parse_alt(s: &[char], pos: &mut usize) -> Re {
    let mut alts = vec![parse_cat(s, pos)];
    while *pos < s.len() && s[*pos] == '|' {
        *pos += 1;
        alts.push(parse_cat(s, pos));
    }
    if alts.len() == 1 {
        alts.pop().expect("one alternative")
    } else {
        Re::Alt(alts)
    }
}

fn parse_cat(s: &[char], pos: &mut usize) -> Re {
    let mut parts = Vec::new();
    while *pos < s.len() && s[*pos] != '|' && s[*pos] != ')' {
        let mut atom = match s[*pos] {
            '(' => {
                *pos += 1;
                let inner = parse_alt(s, pos);
                assert_eq!(s.get(*pos), Some(&')'), "unbalanced parenthesis");
                *pos += 1;
                inner
            }
            '.' => {
                *pos += 1;
                Re::Any
            }
            c => {
                *pos += 1;
                Re::Sym(c.to_string())
            }
        };
        while *pos < s.len() && (s[*pos] == '*' || s[*pos] == '+') {
            atom = if s[*pos] == '*' {
                Re::Star(Box::new(atom))
            } else {
                Re::Plus(Box::new(atom))
            };
            *pos += 1;
        }
        parts.push(atom);
    }
    match parts.len() {
        0 => Re::Eps,
        1 => parts.pop().expect("one part"),
        _ => Re::Cat(parts),
    }
}

/// A Thompson NFA: ε-moves plus moves on one label (`None` = any label).
pub struct Nfa {
    start: usize,
    accept: usize,
    eps: Vec<Vec<usize>>,
    moves: Vec<Vec<(Option<usize>, usize)>>,
}

impl Nfa {
    /// Compiles `re` against the labels of `g`; labels `g` lacks get a
    /// number no arc carries.
    pub fn new(re: &Re, g: &RefGraph) -> Nfa {
        let mut nfa = Nfa {
            start: 0,
            accept: 0,
            eps: Vec::new(),
            moves: Vec::new(),
        };
        let (s, t) = nfa.build(re, g);
        nfa.start = s;
        nfa.accept = t;
        nfa
    }

    fn state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.moves.push(Vec::new());
        self.eps.len() - 1
    }

    fn build(&mut self, re: &Re, g: &RefGraph) -> (usize, usize) {
        let (s, t) = (self.state(), self.state());
        match re {
            Re::Sym(a) => {
                let label = g.labels.get(a).copied().unwrap_or(usize::MAX);
                self.moves[s].push((Some(label), t));
            }
            Re::Any => self.moves[s].push((None, t)),
            Re::Eps => self.eps[s].push(t),
            Re::Cat(parts) => {
                let mut cur = s;
                for p in parts {
                    let (ps, pt) = self.build(p, g);
                    self.eps[cur].push(ps);
                    cur = pt;
                }
                self.eps[cur].push(t);
            }
            Re::Alt(alts) => {
                for p in alts {
                    let (ps, pt) = self.build(p, g);
                    self.eps[s].push(ps);
                    self.eps[pt].push(t);
                }
            }
            Re::Star(p) | Re::Plus(p) => {
                let (ps, pt) = self.build(p, g);
                self.eps[s].push(ps);
                self.eps[pt].push(ps);
                self.eps[pt].push(t);
                if matches!(re, Re::Star(_)) {
                    self.eps[s].push(t);
                }
            }
        }
        (s, t)
    }

    /// The same language read backwards.
    pub fn reversed(&self) -> Nfa {
        let n = self.eps.len();
        let mut r = Nfa {
            start: self.accept,
            accept: self.start,
            eps: vec![Vec::new(); n],
            moves: vec![Vec::new(); n],
        };
        for q in 0..n {
            for &p in &self.eps[q] {
                r.eps[p].push(q);
            }
            for &(a, p) in &self.moves[q] {
                r.moves[p].push((a, q));
            }
        }
        r
    }

    fn states(&self) -> usize {
        self.eps.len()
    }
}

/// A search over (node, state) pairs whose visited marks are reused from
/// one source to the next, so many small searches on a large graph cost
/// only what they visit.
pub struct Bfs {
    stamp: u32,
    seen: Vec<u32>,
    stack: Vec<(u32, usize)>,
}

impl Bfs {
    pub fn new() -> Self {
        Bfs {
            stamp: 0,
            seen: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nodes `v` with a path from `src` (to `src` when `backward`) whose
    /// label is in the NFA's language, each listed once.
    pub fn targets(&mut self, g: &RefGraph, nfa: &Nfa, src: u32, backward: bool) -> Vec<u32> {
        let adj = if backward { &g.inn } else { &g.out };
        let s = nfa.states();
        let size = g.node_count() * s;
        if self.seen.len() < size {
            self.seen.resize(size, 0);
        }
        self.stamp += 1;
        let (seen, stamp) = (&mut self.seen, self.stamp);
        let mut hit = Vec::new();
        self.stack.push((src, nfa.start));
        seen[src as usize * s + nfa.start] = stamp;
        while let Some((u, q)) = self.stack.pop() {
            if q == nfa.accept {
                hit.push(u);
            }
            let mut push = |v: u32, p: usize, stack: &mut Vec<(u32, usize)>| {
                let k = v as usize * s + p;
                if seen[k] != stamp {
                    seen[k] = stamp;
                    stack.push((v, p));
                }
            };
            for &p in &nfa.eps[q] {
                push(u, p, &mut self.stack);
            }
            for &(want, p) in &nfa.moves[q] {
                for &(a, v) in &adj[u as usize] {
                    if want.is_none_or(|w| w == a) {
                        push(v, p, &mut self.stack);
                    }
                }
            }
        }
        hit
    }
}

/// [`Bfs::targets`] as a membership vector, for one-off searches.
pub fn rpq_from(g: &RefGraph, nfa: &Nfa, src: u32, backward: bool) -> Vec<bool> {
    let mut hit = vec![false; g.node_count()];
    for v in Bfs::new().targets(g, nfa, src, backward) {
        hit[v as usize] = true;
    }
    hit
}

/// Every pair `(u, v)` connected by a path labelled in `re`.
pub fn rpq_pairs(g: &RefGraph, re: &Re) -> HashSet<(u32, u32)> {
    let nfa = Nfa::new(re, g);
    let mut bfs = Bfs::new();
    let mut rel = HashSet::new();
    for u in 0..g.node_count() as u32 {
        for v in bfs.targets(g, &nfa, u, false) {
            rel.insert((u, v));
        }
    }
    rel
}

/// One conjunct of a reference CRPQ: `src -[rel]-> dst` over variables
/// numbered from 0.
pub struct Atom<'a> {
    pub src: usize,
    pub rel: &'a HashSet<(u32, u32)>,
    pub dst: usize,
}

/// Index nested-loop join of the atoms (in the given order), projected
/// onto `out`. Each atom is probed through a hash index on whichever of its
/// endpoints is already bound, and scanned whole when neither is.
pub fn join(vars: usize, atoms: &[Atom<'_>], out: &[usize]) -> BTreeSet<Vec<NodeId>> {
    type Index = HashMap<u32, Vec<u32>>;
    struct Ctx<'a, 'b> {
        atoms: &'a [Atom<'b>],
        fwd: Vec<Index>,
        bwd: Vec<Index>,
        out: &'a [usize],
    }
    fn go(
        i: usize,
        cx: &Ctx<'_, '_>,
        bind: &mut Vec<Option<u32>>,
        acc: &mut BTreeSet<Vec<NodeId>>,
    ) {
        if i == cx.atoms.len() {
            acc.insert(
                cx.out
                    .iter()
                    .map(|&v| NodeId(bind[v].expect("bound")))
                    .collect(),
            );
            return;
        }
        let a = &cx.atoms[i];
        let (bs, bd) = (bind[a.src], bind[a.dst]);
        let mut visit = |u: u32, v: u32, bind: &mut Vec<Option<u32>>| {
            if bd.is_some_and(|x| x != v) || (a.src == a.dst && u != v) {
                return;
            }
            bind[a.src] = Some(u);
            bind[a.dst] = Some(v);
            go(i + 1, cx, bind, acc);
            bind[a.src] = bs;
            bind[a.dst] = bd;
        };
        match (bs, bd) {
            (Some(u), _) => {
                for &v in cx.fwd[i].get(&u).into_iter().flatten() {
                    visit(u, v, bind);
                }
            }
            (None, Some(v)) => {
                for &u in cx.bwd[i].get(&v).into_iter().flatten() {
                    visit(u, v, bind);
                }
            }
            (None, None) => {
                for &(u, v) in a.rel {
                    visit(u, v, bind);
                }
            }
        }
    }
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for a in atoms {
        let (mut f, mut b) = (Index::new(), Index::new());
        for &(u, v) in a.rel {
            f.entry(u).or_default().push(v);
            b.entry(v).or_default().push(u);
        }
        fwd.push(f);
        bwd.push(b);
    }
    let cx = Ctx {
        atoms,
        fwd,
        bwd,
        out,
    };
    let mut acc = BTreeSet::new();
    go(0, &cx, &mut vec![None; vars], &mut acc);
    acc
}

/// Every word of length `min..=max` over `alphabet`.
pub fn words<'a>(alphabet: &[&'a str], min: usize, max: usize) -> Vec<Vec<&'a str>> {
    let mut all = Vec::new();
    let mut layer: Vec<Vec<&'a str>> = vec![Vec::new()];
    for len in 0..=max {
        if len >= min {
            all.extend(layer.iter().cloned());
        }
        layer = layer
            .iter()
            .flat_map(|w| {
                alphabet.iter().map(move |a| {
                    let mut w = w.clone();
                    w.push(a);
                    w
                })
            })
            .collect();
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `0 -a-> 1 -b-> 2 -a-> 0`, plus `2 -c-> 3`.
    fn tiny() -> RefGraph {
        let names: HashMap<String, NodeId> = (0..4).map(|i| (format!("n{i}"), NodeId(i))).collect();
        RefGraph::from_text(
            "alphabet a b c\nedge n0 a n1\nedge n1 b n2\nedge n2 a n0\nedge n2 c n3\n",
            &names,
        )
    }

    fn pairs(g: &RefGraph, re: &str) -> BTreeSet<(u32, u32)> {
        rpq_pairs(g, &Re::parse(re)).into_iter().collect()
    }

    #[test]
    fn product_bfs_on_a_cycle() {
        let g = tiny();
        assert_eq!(pairs(&g, "ab"), [(0, 2)].into());
        assert_eq!(pairs(&g, "(ab)+c"), [(0, 3)].into());
        assert_eq!(pairs(&g, "(aba)+"), [(0, 0)].into());
        assert!(
            pairs(&g, "(ab|ba)*").contains(&(3, 3)),
            "ε matches everywhere"
        );
        assert_eq!(pairs(&g, "..c"), [(0, 3)].into());
        assert!(pairs(&g, "d").is_empty(), "unknown label matches nothing");
        let back = rpq_from(&g, &Nfa::new(&Re::parse("bc"), &g).reversed(), 3, true);
        assert_eq!(back, vec![false, true, false, false]);
    }

    #[test]
    fn nested_loop_join_triangle() {
        let g = tiny();
        let (a, b) = (g.label_pairs("a"), g.label_pairs("b"));
        let atoms = [
            Atom {
                src: 0,
                rel: &a,
                dst: 1,
            },
            Atom {
                src: 1,
                rel: &b,
                dst: 2,
            },
            Atom {
                src: 2,
                rel: &a,
                dst: 0,
            },
        ];
        let got = join(3, &atoms, &[0, 2]);
        assert_eq!(got, [vec![NodeId(0), NodeId(2)]].into());
        assert!(join(3, &atoms[..2], &[]).contains(&vec![]));
    }

    #[test]
    fn word_enumeration() {
        assert_eq!(words(&["a", "b"], 1, 2).len(), 2 + 4);
        assert_eq!(words(&["a"], 0, 0), vec![Vec::<&str>::new()]);
    }
}
