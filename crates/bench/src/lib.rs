//! Shared helpers for the interleaved A/B examples in `examples/`.
//!
//! The examples complement the `dsu-harness` experiment binaries: the
//! binaries regenerate the paper-claim tables (E1–E16, indexed in the
//! `dsu-harness` crate docs), while each example alternates its
//! contenders sample by sample, so both see the same host drift, and
//! writes the medians as fingerprinted JSON with `--json PATH`:
//!
//! * `packed_vs_flat_ab` — packed vs. flat parent store;
//! * `batch_vs_perop_ab` — batched vs. per-op edge ingestion;
//! * `keyed_ab` — the lock-free keyed layer vs. a locked map;
//! * `variants_ab` — the (find × link) plane per workload;
//! * `epochs_ab` — what versioning costs and buys;
//! * `chaos_ab` — throughput and linearizability under injected faults;
//! * `store_diag` — phase timings and layer counter checks per layout.

use std::sync::atomic::{AtomicUsize, Ordering};

use dsu_workloads::{EdgeBatchSpec, EdgeBatches, ElementDist, Workload, WorkloadSpec};

/// The machine fingerprint `(cpus, arch, os)` every A/B example stamps
/// into its JSON, so archived records from different hosts can be told
/// apart (the ROADMAP's per-machine bench matrix) and the regression gate
/// can refuse to compare across machines.
pub fn machine_fingerprint() -> (usize, &'static str, &'static str) {
    (
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        std::env::consts::ARCH,
        std::env::consts::OS,
    )
}

/// [`machine_fingerprint`] as the JSON object the A/B examples embed
/// under the `"machine"` key.
pub fn machine_fingerprint_json() -> String {
    let (cpus, arch, os) = machine_fingerprint();
    format!("{{\"cpus\": {cpus}, \"arch\": \"{arch}\", \"os\": \"{os}\"}}")
}

/// The standard benchmark workload: `m` half-unite/half-query ops over
/// `0..n`, fixed seed.
pub fn standard_workload(n: usize, m: usize) -> Workload {
    WorkloadSpec::new(n, m).unite_fraction(0.5).generate(0xBE7C)
}

/// The standard batched-arrival workload: `batches` bursts of `batch_size`
/// edges over `0..n`, endpoints Zipf-skewed with exponent `zipf`, fixed
/// seed. Skew plus volume make most edges redundant after the early
/// bursts — the regime the batch path's same-set filter targets.
pub fn standard_edge_batches(
    n: usize,
    batches: usize,
    batch_size: usize,
    zipf: f64,
) -> EdgeBatches {
    EdgeBatchSpec::new(n, batches, batch_size)
        .element_dist(ElementDist::Zipf(zipf))
        .generate(0xBA7C)
}

/// Median of a sample vector, sorting in place (upper middle for even
/// lengths) — the statistic all the interleaved A/B examples report.
///
/// # Panics
///
/// Panics on an empty slice or NaN samples.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of zero samples");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    xs[xs.len() / 2]
}

/// Ingests `batches` on `threads` threads — workers claim whole bursts
/// from a shared cursor (the same dynamic scheduling both contenders get)
/// and apply `ingest` to each — returning elapsed wall time. The two
/// public wrappers differ *only* in `ingest`, isolating the batch-API
/// effect from the scheduler.
fn timed_ingest<D>(
    dsu: &D,
    batches: &[Vec<(usize, usize)>],
    threads: usize,
    ingest: impl Fn(&D, &[(usize, usize)]) + Copy + Send,
) -> std::time::Duration
where
    D: concurrent_dsu::ConcurrentUnionFind,
{
    let cursor = AtomicUsize::new(0);
    let barrier = std::sync::Barrier::new(threads + 1);
    let started = std::thread::scope(|s| {
        for _ in 0..threads {
            let cursor = &cursor;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= batches.len() {
                        break;
                    }
                    ingest(dsu, &batches[i]);
                }
            });
        }
        // Take the timestamp *before* releasing the barrier: once it opens,
        // this thread may be descheduled while workers run (oversubscribed
        // hosts), which would deflate an after-the-wait timestamp.
        let t0 = std::time::Instant::now();
        barrier.wait();
        t0
    });
    started.elapsed()
}

/// Per-op ingestion baseline: every edge of every burst goes through a
/// separate [`unite`](concurrent_dsu::ConcurrentUnionFind::unite) call.
pub fn timed_ingest_per_op<D: concurrent_dsu::ConcurrentUnionFind>(
    dsu: &D,
    batches: &[Vec<(usize, usize)>],
    threads: usize,
) -> std::time::Duration {
    timed_ingest(dsu, batches, threads, |d, burst| {
        for &(x, y) in burst {
            d.unite(x, y);
        }
    })
}

/// Batched ingestion: each burst goes through one
/// [`unite_batch`](concurrent_dsu::ConcurrentUnionFind::unite_batch) call
/// (the filtered, word-seeded bulk path on [`concurrent_dsu::Dsu`]).
pub fn timed_ingest_batched<D: concurrent_dsu::ConcurrentUnionFind>(
    dsu: &D,
    batches: &[Vec<(usize, usize)>],
    threads: usize,
) -> std::time::Duration {
    timed_ingest(dsu, batches, threads, |d, burst| {
        d.unite_batch(burst);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(standard_workload(64, 100), standard_workload(64, 100));
    }

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0, "upper middle for even lengths");
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn ingest_runners_cover_every_edge() {
        let arrivals = standard_edge_batches(256, 16, 32, 1.1);
        let per_op: concurrent_dsu::Dsu = concurrent_dsu::Dsu::new(256);
        let batched: concurrent_dsu::Dsu = concurrent_dsu::Dsu::new(256);
        let a = timed_ingest_per_op(&per_op, &arrivals.batches, 2);
        let b = timed_ingest_batched(&batched, &arrivals.batches, 2);
        assert!(a.as_nanos() > 0 && b.as_nanos() > 0);
        // Confluence: both ingestion shapes produce the same partition.
        assert_eq!(per_op.set_count(), batched.set_count());
        assert_eq!(per_op.labels_snapshot(), batched.labels_snapshot());
    }

    #[test]
    fn fingerprint_is_sane() {
        let (cpus, arch, os) = machine_fingerprint();
        assert!(cpus >= 1);
        assert!(!arch.is_empty() && !os.is_empty());
        let json = machine_fingerprint_json();
        assert!(json.contains("\"cpus\"") && json.contains(arch));
    }
}
