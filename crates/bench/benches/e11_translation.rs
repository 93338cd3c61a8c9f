//! Criterion bench for E11 (Lemma 14): evaluating a `CXRPQ^{≤k}` directly
//! vs through its `∪-CRPQ` expansion. The union's member count grows like
//! `(|Σ|+1)^{nk}`, so direct evaluation wins by growing factors — the
//! conciseness gap §8 asks about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::translate::cxrpq_bounded_to_union;
use cxrpq_core::{BoundedEvaluator, CxrpqBuilder, Evaluate};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let db = graphs::random_labeled(alpha, 48, 96, 5);
    let mut a2 = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut a2)
        .edge("x", "z{(a|b)+}cz", "y")
        .build()
        .unwrap();
    let mut group = c.benchmark_group("e11_lemma14");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for k in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("direct_bounded", k), &k, |b, &k| {
            let ev = BoundedEvaluator::new(&q, k);
            b.iter(|| std::hint::black_box(ev.boolean(&db)));
        });
        // Translation cost (query compilation).
        group.bench_with_input(BenchmarkId::new("translate", k), &k, |b, &k| {
            b.iter(|| std::hint::black_box(cxrpq_bounded_to_union(&q, k, 3).len()));
        });
        // Evaluating the pre-translated union.
        let union = cxrpq_bounded_to_union(&q, k, 3);
        group.bench_with_input(BenchmarkId::new("union_eval", k), &k, |b, _| {
            b.iter(|| std::hint::black_box(union.boolean(&db)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
