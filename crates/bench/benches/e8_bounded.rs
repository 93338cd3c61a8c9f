//! Criterion bench for E8 (Theorem 6): CXRPQ^{≤k} evaluation — data sweep
//! and the k sweep with/without candidate pruning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{BoundedEvaluator, CxrpqBuilder, Evaluate};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut group = c.benchmark_group("e8_bounded_eval");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    // (a) data sweep, fixed k = 2.
    for exp in [5u32, 7, 9] {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 3);
        let mut a2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut a2)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("data_sweep_k2", db.size()),
            &db,
            |b, db| {
                let ev = BoundedEvaluator::new(&q, 2);
                b.iter(|| std::hint::black_box(ev.boolean(db)));
            },
        );
    }
    // (b) k sweep, pruned vs blind.
    let db = graphs::random_labeled(alpha, 64, 128, 4);
    let mut a2 = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut a2)
        .edge("x", "z{ab*}cz", "y")
        .build()
        .unwrap();
    for k in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("pruned", k), &k, |b, &k| {
            let ev = BoundedEvaluator::new(&q, k);
            b.iter(|| std::hint::black_box(ev.boolean(&db)));
        });
        group.bench_with_input(BenchmarkId::new("blind", k), &k, |b, &k| {
            let ev = BoundedEvaluator::new(&q, k).without_pruning();
            b.iter(|| std::hint::black_box(ev.boolean(&db)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
