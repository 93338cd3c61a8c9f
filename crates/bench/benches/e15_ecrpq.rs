//! Criterion bench for E15 (§1.3, Lemma 12): ECRPQ evaluation — the
//! Figure 6 equal-length query on growing two-path databases, and an
//! `ECRPQ^er` against its `CXRPQ^{vsf,fl}` translation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_automata::parse_regex;
use cxrpq_core::translate::ecrpq_er_to_cxrpq;
use cxrpq_core::Ecrpq;
use cxrpq_core::{EcrpqEvaluator, Evaluate, GraphPattern, RegularRelation, VsfEvaluator};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::graphs::d_anbm;
use cxrpq_workloads::witnesses::q_anbn;
use std::sync::Arc;
use std::time::Duration;

fn er_query(alpha: &mut Alphabet) -> Ecrpq {
    let mut pattern = GraphPattern::new();
    let x = pattern.node("x");
    let y = pattern.node("y");
    let u = pattern.node("u");
    let v = pattern.node("v");
    let r1 = parse_regex("a*b", alpha).unwrap();
    let r2 = parse_regex("a+b*", alpha).unwrap();
    pattern.add_edge(x, r1, y);
    pattern.add_edge(u, r2, v);
    Ecrpq::new(
        pattern,
        vec![(RegularRelation::equality(2), vec![0, 1])],
        vec![],
    )
    .unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_ecrpq");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    // (a) Figure 6 equal-length query, growing n.
    let mut alpha = Alphabet::from_chars("abcd");
    let q6 = q_anbn(&mut alpha);
    for n in [8usize, 16, 32] {
        let (db, _, _) = d_anbm(n, n);
        group.bench_with_input(BenchmarkId::new("q_anbn", db.size()), &db, |b, db| {
            let ev = EcrpqEvaluator::new(&q6);
            b.iter(|| std::hint::black_box(ev.boolean(db)));
        });
    }
    // (b) ECRPQ^er direct vs its Lemma 12 translation.
    let alpha2 = Arc::new(Alphabet::from_chars("ab"));
    let mut db = cxrpq_graph::GraphBuilder::new(alpha2);
    for w in ["aab", "aab", "abb", "ab", "b", "aaab"] {
        let s = db.add_node();
        let t = db.add_node();
        let word = db.alphabet().parse_word(w).unwrap();
        db.add_word_path(s, &word, t);
    }
    let mut a3 = db.alphabet().clone();
    let db = db.freeze();
    let qer = er_query(&mut a3);
    let translated = ecrpq_er_to_cxrpq(&qer).unwrap();
    group.bench_function("er_direct", |b| {
        let ev = EcrpqEvaluator::new(&qer);
        b.iter(|| std::hint::black_box(ev.boolean(&db)));
    });
    group.bench_function("er_via_cxrpq_vsf_fl", |b| {
        let ev = VsfEvaluator::new(&translated).unwrap();
        b.iter(|| std::hint::black_box(ev.boolean(&db)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
