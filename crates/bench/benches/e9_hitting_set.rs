//! Criterion bench for E9 (Theorem 7, Figure 4): the Hitting-Set reduction
//! to single-edge CXRPQ^{≤1} evaluation — NP-hardness shape in the instance
//! size, against the brute-force baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{BoundedEvaluator, Evaluate};
use cxrpq_workloads::reductions::{random_hitting_set, theorem7_reduction};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_hitting_set");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for universe in [3usize, 4, 5] {
        let inst = random_hitting_set(universe, 3, 2, 2, 7);
        let (db, q) = theorem7_reduction(&inst);
        group.bench_with_input(
            BenchmarkId::new("reduction_bounded", universe),
            &universe,
            |b, _| {
                let ev = BoundedEvaluator::new(&q, 1);
                b.iter(|| std::hint::black_box(ev.boolean(&db)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("baseline_brute_force", universe),
            &universe,
            |b, _| {
                b.iter(|| std::hint::black_box(inst.brute_force()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
