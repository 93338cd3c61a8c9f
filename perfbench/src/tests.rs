//! Tests of the benchmark's reference computations on tiny hand-built
//! graphs (the paper's Figure 1 and Figure 2 among them), each also
//! compared with the program, and of the determinism the per-layer counts
//! rely on.

use crate::crpq_large::{Oracle, QUERIES as LARGE};
use crate::load::{load, Loaded};
use crate::ops::{closed_loop, run, Kind, Res};
use crate::reference::RefGraph;
use crate::serve_ingest::{self, stream};
use crate::strvars::{expected, expected_g3, G3, QUERIES as STRVARS};
use crate::trace::Tracer;
use cxrpq_core::{CacheConfig, QueryCache};
use cxrpq_graph::{read_graph, GraphDb, NodeId};
use std::collections::{BTreeSet, HashMap, HashSet};

fn graph(text: &str) -> (GraphDb, HashMap<String, NodeId>, RefGraph) {
    let (db, names) = read_graph(text).expect("test graph parses");
    let g = RefGraph::from_text(text, &names);
    (db, names, g)
}

fn answers(db: &GraphDb, text: &str) -> BTreeSet<Vec<NodeId>> {
    match run(db, text, &Kind::Answers, &mut Tracer::new(false))
        .expect("op runs")
        .res
    {
        Res::Answers(a) => a,
        _ => unreachable!("answers op"),
    }
}

fn check(db: &GraphDb, text: &str, t: &[NodeId]) -> bool {
    match run(db, text, &Kind::Check(t.to_vec()), &mut Tracer::new(false))
        .expect("op runs")
        .res
    {
        Res::Bool(b) => b,
        _ => unreachable!("check op"),
    }
}

fn pairs(names: &HashMap<String, NodeId>, ps: &[(&str, &str)]) -> HashSet<(u32, u32)> {
    ps.iter().map(|(u, v)| (names[*u].0, names[*v].0)).collect()
}

/// Figure 1: `(u, p, v)` = u is a parent of v, `(u, s, v)` = v is u's
/// supervisor. Ann is Bob's and Dan's parent, Bob is Cid's parent, and Ann
/// supervised Cid and Dan.
const FIGURE_1: &str = "alphabet p s
edge ann p bob
edge bob p cid
edge ann p dan
edge cid s ann
edge dan s ann
";

#[test]
fn figure_1_reference_matches_hand_and_program() {
    let (db, names, g) = graph(FIGURE_1);
    let mut o = Oracle::new(&g);
    let id = |n: &str| names[n];
    let tuple = |ns: &[&str]| ns.iter().map(|n| id(n)).collect::<Vec<_>>();
    // G1: v1 -p-> child -s-> sup -p-> v2: Bob's child Cid and Ann's
    // child Dan are supervised by Ann, whose children are Bob and Dan.
    let g1: BTreeSet<Vec<NodeId>> = [
        ["bob", "bob"],
        ["bob", "dan"],
        ["ann", "bob"],
        ["ann", "dan"],
    ]
    .iter()
    .map(|p| tuple(p))
    .collect();
    assert_eq!(o.answers(6), g1);
    assert_eq!(answers(&db, LARGE[6].1), g1);
    // G3: Cid and Dan have Ann as a biological and academic ancestor.
    let g3: BTreeSet<Vec<NodeId>> = [tuple(&["cid"]), tuple(&["dan"])].into();
    assert_eq!(o.answers(7), g3);
    assert_eq!(answers(&db, LARGE[7].1), g3);
    assert_eq!(o.answers(8), [vec![]].into());
    // G2: ancestors by p+, supervisors by s+.
    for (u, v, want) in [
        ("ann", "cid", true),
        ("cid", "ann", true),
        ("bob", "ann", false),
    ] {
        assert_eq!(o.check(4, &tuple(&[u, v])), want, "G2 {u} {v}");
        assert_eq!(
            check(&db, LARGE[4].1, &tuple(&[u, v])),
            want,
            "program G2 {u} {v}"
        );
    }
    // G4: Cid and Dan share Ann both ways; Bob has no supervisor.
    for (u, v, want) in [
        ("cid", "dan", true),
        ("dan", "dan", true),
        ("bob", "cid", false),
    ] {
        assert_eq!(o.check(5, &tuple(&[u, v])), want, "G4 {u} {v}");
        assert_eq!(
            check(&db, LARGE[5].1, &tuple(&[u, v])),
            want,
            "program G4 {u} {v}"
        );
    }
}

/// Figure 2: Vic and Wes exchange code words x = m0 m1 and y = m2 m0, and
/// both reach their mutual friend Fay by repeating them. Uma only talks.
const FIGURE_2: &str = "alphabet m0 m1 m2
edge vic m0 h1
edge h1 m1 wes
edge wes m2 h2
edge h2 m0 vic
edge vic m0 h3
edge h3 m1 h4
edge h4 m0 h5
edge h5 m1 fay
edge wes m2 h6
edge h6 m0 fay
edge uma m1 vic
";

#[test]
fn figure_2_reference_matches_hand_and_program() {
    let (db, names, g) = graph(FIGURE_2);
    let labels: Vec<String> = ["m0", "m1", "m2"].map(String::from).to_vec();
    let e = expected_g3(&g, &labels);
    assert_eq!(
        e.lower, e.upper,
        "images of length <= 3 are enumerated exactly"
    );
    // The planted pair both ways; relay nodes on the code-word cycle
    // answer too, but Uma, who only sends, never does.
    assert!(pairs(&names, &[("vic", "wes"), ("wes", "vic")]).is_subset(&e.lower));
    let uma = names["uma"].0;
    assert!(e.lower.iter().all(|&(u, v)| u != uma && v != uma));
    let got: HashSet<(u32, u32)> = answers(&db, G3).iter().map(|t| (t[0].0, t[1].0)).collect();
    assert_eq!(got, e.lower);
}

/// `s -a-> 1 -b-> 2 -c-> 3 -a-> 4 -b-> t`, plus `t -c-> s` and `1 -c-> 1`.
const WORDS: &str = "alphabet a b c
edge s a n1
edge n1 b n2
edge n2 c n3
edge n3 a n4
edge n4 b t
edge t c s
edge n1 c n1
";

#[test]
fn string_variable_expansions() {
    let (db, names, g) = graph(WORDS);
    // z{(a|b)(a|b)}cz: z = ab spells abcab from s to t and from n3
    // round the cycle to n2.
    let e = expected(0, &g);
    assert_eq!(e.lower, pairs(&names, &[("s", "t"), ("n3", "n2")]));
    assert_eq!(e.lower, e.upper);
    // z{a|b}(c)*z: no a or b arc is followed, after c's, by the same
    // letter.
    assert!(expected(1, &g).upper.is_empty());
    // Cross-atom: bracketed between images of length <= 3 and the
    // relaxed CRPQ.
    let x = expected(2, &g);
    assert!(x.lower.is_subset(&x.upper));
    // z{ab}(z|c): only ab c occurs, from s and from n3.
    assert_eq!(
        expected(3, &g).upper,
        pairs(&names, &[("s", "n3"), ("n3", "s")])
    );
    // z{ab}(z)+: abab never occurs.
    assert!(expected(4, &g).upper.is_empty());
    for (qi, q) in STRVARS.iter().enumerate() {
        let e = expected(qi, &g);
        let got: HashSet<(u32, u32)> = answers(&db, q).iter().map(|t| (t[0].0, t[1].0)).collect();
        assert!(
            e.lower.is_subset(&got) && got.is_subset(&e.upper),
            "query {qi}"
        );
    }
}

#[test]
fn one_seed_repeats_cache_stats_and_steps() {
    let src = serve_ingest::inputs(5);
    let once = || {
        let (mut db, _) = read_graph(&src.text).expect("graph text parses");
        let cache = QueryCache::new(CacheConfig::default());
        let s = stream(
            5,
            &mut db,
            &cache,
            0.0,
            Some(1),
            &mut Tracer::new(false),
            |_, _| {},
        );
        assert!(s.wrong.is_empty() && s.failed == 0, "{:?}", s.wrong);
        (cache.stats(), s.steps, s.checkpoints)
    };
    let (a, b) = (once(), once());
    assert_eq!(format!("{:?}", a.0), format!("{:?}", b.0), "cache stats");
    assert_eq!((a.1, a.2), (b.1, b.2), "governor steps and checkpoints");
    assert!(a.0.answer_hits > 0 && a.0.plan_hits > 0 && a.0.misses > 0);

    let inp = crate::strvars::inputs(5);
    let mut tr = Tracer::new(false);
    let mut graphs: Vec<Loaded> = inp.sources.iter().map(|s| load(s, &mut tr)).collect();
    let first = &inp.specs[..inp.specs.len() / 4];
    let mut steps = || {
        let out = closed_loop(&mut graphs, first, 0.0, &mut tr, |_, _, _| {});
        assert_eq!(out.failed, 0);
        (
            out.counts.steps,
            out.counts.checkpoints,
            out.counts.backtrack_steps,
        )
    };
    assert_eq!(steps(), steps());
}
