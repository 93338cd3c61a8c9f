//! Ablation bench: serial vs parallel candidate-mapping enumeration in the
//! bounded-image engine (Theorem 6's NP guess explored across threads), and
//! the witness-extraction overhead relative to Boolean evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxrpq_core::{BoundedEvaluator, CxrpqBuilder, Evaluate, Request, SimpleEvaluator};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::graphs;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let db = graphs::random_labeled(alpha, 64, 160, 9);
    let mut a2 = db.alphabet().clone();
    // Two dependent variables make the mapping space worth splitting.
    let q = CxrpqBuilder::new(&mut a2)
        .edge("x", "y{(a|b)+}c", "m")
        .edge("m", "z{y(a|b)}cz", "n")
        .build()
        .unwrap();
    let mut group = c.benchmark_group("ablation_parallel_bounded");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    let ev = BoundedEvaluator::new(&q, 3);
    let opts = Request::Boolean.default_options();
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(ev.run_parallel(&db, Request::Boolean, &opts, t)));
        });
    }
    group.finish();

    // Witness overhead: Boolean decision vs full certificate extraction.
    let mut a3 = db.alphabet().clone();
    let qs = CxrpqBuilder::new(&mut a3)
        .edge("x", "z{(a|b)+}cz", "y")
        .build()
        .unwrap();
    let mut group2 = c.benchmark_group("ablation_witness_overhead");
    group2
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    let simple = SimpleEvaluator::new(&qs).unwrap();
    group2.bench_function("boolean", |b| {
        b.iter(|| std::hint::black_box(simple.boolean(&db)));
    });
    group2.bench_function("witness", |b| {
        b.iter(|| std::hint::black_box(simple.witness(&db).is_some()));
    });
    group2.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
