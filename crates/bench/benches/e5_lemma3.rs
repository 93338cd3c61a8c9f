//! Criterion bench for E5 (Lemma 3): simple-CXRPQ evaluation, |D| sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{CxrpqBuilder, Evaluate, SimpleEvaluator};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut group = c.benchmark_group("e5_simple_eval_data_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for exp in [5u32, 7, 9] {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 99);
        let mut a2 = db.alphabet().clone();
        let q = CxrpqBuilder::new(&mut a2)
            .edge("x", "z{(a|b)+}", "y")
            .edge("y", "c*z", "w")
            .build()
            .unwrap();
        let ev = SimpleEvaluator::new(&q).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(db.size()), &db, |b, db| {
            b.iter(|| std::hint::black_box(ev.boolean(db)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
