//! Shared helpers for the cxrpq benchmark harness.

use std::time::Instant;

/// Milliseconds (fractional) for one invocation of `f`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median-of-`n` timing in milliseconds.
pub fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The pre-pool dispatch baseline: per-level scoped thread spawns, shaped
/// exactly like `frontier.rs`'s sharded expansion before the persistent
/// worker pool replaced it. Kept here so the pool benches (e17, e20) can
/// A/B the old dispatch path against `WorkerPool::run_sharded` on the
/// same workload.
pub fn scoped_spawn_sharded<T: Sync, R: Send>(
    items: &[T],
    shards: usize,
    worker: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    if shards <= 1 || items.len() <= 1 {
        return vec![worker(0, items)];
    }
    let chunk = items.len().div_ceil(shards.min(items.len()));
    let worker = &worker;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| s.spawn(move || worker(i, slice)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Where and how the numbers were taken: worker threads the process may
/// use, the build profile and the commit (`-dirty` when the tree has
/// uncommitted changes), as a JSON object.
pub fn env_fingerprint() -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!("{{\"threads\": {threads}, \"profile\": \"{profile}\", \"git_rev\": \"{rev}\"}}")
}

/// Renders a markdown table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let t = table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn median_is_finite() {
        let m = median_ms(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(m >= 0.0 && m.is_finite());
    }

    #[test]
    fn scoped_baseline_matches_chunked_results() {
        let items: Vec<u64> = (0..100).collect();
        let sums = scoped_spawn_sharded(&items, 4, |_, s| s.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>());
        assert_eq!(sums.len(), 4);
        let inline = scoped_spawn_sharded(&items, 1, |_, s| s.len());
        assert_eq!(inline, vec![100]);
    }
}
