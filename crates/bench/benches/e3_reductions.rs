//! Criterion bench for E3/E4 (Theorems 1 and 3): the NFA-intersection
//! reduction. Cost of deciding the reduced instance grows steeply with the
//! number of intersected automata — the executable shape of the
//! PSpace-hardness arguments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{Evaluate, GenericEvaluator, VsfEvaluator};
use cxrpq_workloads::reductions::{
    alpha_kni, alpha_ni, random_nfa_intersection, theorem1_database,
};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_nfa_intersection");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for k in [1usize, 2, 3] {
        let inst = random_nfa_intersection(k, 5, 11);
        let (db, s, t) = theorem1_database(&inst);
        // Theorem 1: the *fixed* query α_ni, image-bound deepening.
        let mut a1 = db.alphabet().clone();
        let q1 = alpha_ni(&mut a1);
        group.bench_with_input(BenchmarkId::new("thm1_generic", k), &k, |b, _| {
            let ev = GenericEvaluator::new(&q1, 8);
            b.iter(|| std::hint::black_box(ev.check(&db, &[s, t])));
        });
        // Theorem 3: the vstar-free α^k_ni of size Θ(k).
        let mut a2 = db.alphabet().clone();
        let qk = alpha_kni(k, &mut a2);
        group.bench_with_input(BenchmarkId::new("thm3_vsf", k), &k, |b, _| {
            let ev = VsfEvaluator::new(&qk).expect("α^k_ni is vstar-free");
            b.iter(|| std::hint::black_box(ev.check(&db, &[s, t])));
        });
        // Baseline: the direct product-automaton decision.
        group.bench_with_input(BenchmarkId::new("baseline_product", k), &k, |b, _| {
            b.iter(|| std::hint::black_box(inst.intersection_nonempty()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
