//! Criterion bench for E14 (Lemma 1): the CRPQ baseline, |D| sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{Crpq, CrpqEvaluator, Evaluate};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut group = c.benchmark_group("e14_crpq_data_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for exp in [5u32, 7, 9, 11] {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 21);
        let mut a2 = db.alphabet().clone();
        let q = Crpq::build(&[("x", "a(a|b)*", "y"), ("y", "(b|c)+", "z")], &[], &mut a2).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(db.size()), &db, |b, db| {
            let ev = CrpqEvaluator::new(&q);
            b.iter(|| std::hint::black_box(ev.boolean(db)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
