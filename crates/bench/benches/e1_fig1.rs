//! Criterion bench for E1 (Figure 1): the four genealogy CRPQs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{CrpqEvaluator, Evaluate};
use cxrpq_workloads::genealogy;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let g = genealogy::generate(6, 8, 0.7, 42);
    let mut alpha = g.db.alphabet().clone();
    let queries = [
        ("g1", genealogy::fig1_g1(&mut alpha)),
        ("g2", genealogy::fig1_g2(&mut alpha)),
        ("g3", genealogy::fig1_g3(&mut alpha)),
        ("g4", genealogy::fig1_g4(&mut alpha)),
    ];
    let mut group = c.benchmark_group("e1_fig1_genealogy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (name, q) in &queries {
        group.bench_with_input(BenchmarkId::from_parameter(name), q, |b, q| {
            let ev = CrpqEvaluator::new(q);
            b.iter(|| std::hint::black_box(ev.answers(&g.db).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
