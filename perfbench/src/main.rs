//! End-to-end and per-layer benchmark of the cxrpq workspace.
//!
//! ```text
//! cxrpq-perfbench --workload <strvars|crpq_large|serve_ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are a pure function of the seed. The benchmark
//! loads them (the set-up), drives one closed loop of ops for the given
//! time, reads its own peak memory, and only then checks every result
//! against its own reference computations. The last stdout line is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans kept in memory and written to
//! `perfbench/results/`) with `--trace 1`. See README.md.

mod crpq_large;
mod load;
mod ops;
mod reference;
mod serve_ingest;
mod strvars;
mod trace;
mod util;

#[cfg(test)]
mod tests;

use ops::Counts;
use trace::Tracer;
use util::{median, metric, quantile, result_line, Metric};

/// Set-ups per run at most (`serve_ingest`: exactly); `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 8;

/// What one run of a workload measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations found by the checks.
    pub wrong: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Each op's latency: the median of its repetitions (`ops::Samples`).
    pub latencies_s: Vec<f64>,
    /// Arcs appended per second spent in `append_batch` plus `compact`.
    pub ingest_edges_per_s: f64,
    pub rss_mb: f64,
    /// Work counters of the first round.
    pub counts: Counts,
    /// Query cache counters of the run (`serve_ingest` only).
    pub cache: Option<cxrpq_core::CacheStats>,
    pub overhead_pct: Option<f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&o.setup_s), "s"),
        metric("query_p50_ms", median(&o.latencies_s) * 1e3, "ms"),
        metric("query_p99_ms", quantile(&o.latencies_s, 0.99) * 1e3, "ms"),
        metric(
            "queries_per_s",
            o.latencies_s.len() as f64 / o.latencies_s.iter().sum::<f64>(),
            "1/s",
        ),
        metric("ingest_edges_per_s", o.ingest_edges_per_s, "edges/s"),
        metric("rss_peak_mb", o.rss_mb, "MiB"),
    ]
}

/// Median of the spans named `name`, scaled from ms; 0 when the workload
/// never calls that layer.
fn span_median(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let d = tr.durations_ms(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d) * scale
    }
}

fn per_layer(o: &Outcome, tr: &Tracer) -> Vec<Metric> {
    let c = &o.counts;
    let ms = |name: &'static str, span: &str| metric(name, span_median(tr, span, 1.0), "ms");
    let us = |name: &'static str, span: &str| metric(name, span_median(tr, span, 1e3), "us");
    let count = |name: &'static str, v: u64| metric(name, v as f64, "count");
    let prune_ratio = if c.prune_before == 0 {
        1.0
    } else {
        c.prune_after as f64 / c.prune_before as f64
    };
    let mut m = vec![
        ms("io.read_graph_ms", "io.read_graph"),
        us("db.append_batch_us", "db.append_batch"),
        ms("db.compact_ms", "db.compact"),
        us("query_text.parse_us", "query_text.parse"),
        ms("engine.plan_ms", "engine.plan"),
        ms("engine.simple_ms", "engine.simple"),
        ms("engine.vsf_ms", "engine.vsf"),
        ms("engine.bounded_ms", "engine.bounded"),
        ms("op.answers_ms", "op.answers"),
        ms("op.boolean_ms", "op.boolean"),
        ms("op.check_ms", "op.check"),
        ms("op.witness_ms", "op.witness"),
        metric("domains.prune_ratio", prune_ratio, "ratio"),
        count("domains.rounds", c.rounds),
        count("solve.backtrack_steps", c.backtrack_steps),
        count("solve.intersection_seeks", c.intersection_seeks),
        count("solve.eliminated_vars", c.eliminated_vars),
        count("governor.steps", c.steps),
        count("governor.checkpoints", c.checkpoints),
    ];
    let s = o.cache.unwrap_or_default();
    let share = |n: u64| {
        if s.lookups == 0 {
            0.0
        } else {
            n as f64 / s.lookups as f64
        }
    };
    m.extend([
        metric("cache.answer_hit_ratio", share(s.answer_hits), "ratio"),
        metric("cache.plan_hit_ratio", share(s.plan_hits), "ratio"),
        metric("cache.miss_ratio", share(s.misses), "ratio"),
        count("cache.evictions", s.evictions),
        count("cache.invalidated", s.invalidated),
        count("cache.survived_appends", s.survived_appends),
        us("cache.answer_hit_us", "cache.answer_hit"),
        ms("cache.plan_hit_ms", "cache.plan_hit"),
        ms("cache.miss_ms", "cache.miss"),
    ]);
    m.push(count(
        "pool.workers",
        cxrpq_core::WorkerPool::global().worker_count() as u64,
    ));
    m.push(metric(
        "trace.overhead_pct",
        o.overhead_pct.expect("traced runs measure their overhead"),
        "%",
    ));
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "strvars" => strvars::run(args.seed, args.seconds, &mut tr),
        "crpq_large" => crpq_large::run(args.seed, args.seconds, &mut tr),
        "serve_ingest" => serve_ingest::run(args.seed, args.seconds, &mut tr),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    for w in &outcome.wrong {
        eprintln!("wrong: {w}");
    }
    let metrics = if args.trace {
        let dir = std::path::Path::new("perfbench/results");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.render()))
        {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("trace: {} spans in {}", tr.spans.len(), path.display());
        per_layer(&outcome, &tr)
    } else {
        end_to_end(&outcome)
    };
    println!(
        "{}",
        result_line(
            outcome.wrong.is_empty(),
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
}
