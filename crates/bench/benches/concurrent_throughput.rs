//! Multi-threaded throughput per structure (the micro version of
//! experiment E4): the Jayanti–Tarjan structure — on the packed and flat
//! parent stores — vs the Anderson–Woll-style and lock baselines at 1, 2,
//! 4, and 8 threads.
//!
//! The `jt-two-try-packed` / `jt-two-try-flat` pair isolates the storage
//! layout (same policy, same ids, same workload); its ratio is the number
//! tracked in `BENCH_PR1.json`. The `ingest-per-op` / `ingest-batched`
//! pair isolates the batch ingestion path (same structure, same bursts,
//! same dynamic scheduler); its ratio is the number tracked in
//! `BENCH_PR2.json` (the drift-cancelling twin is the
//! `batch_vs_perop_ab` example).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use concurrent_dsu::{Dsu, FlatStore, GrowableDsu, OneTrySplit, PackedStore, TwoTrySplit};
use dsu_baselines::{AwDsu, LockedDsu};
use dsu_bench::{
    standard_edge_batches, standard_workload, timed_ingest_batched, timed_ingest_per_op,
    timed_parallel_run,
};
use sequential_dsu::{Compaction, Linking};

const N: usize = 1 << 20;
const M: usize = 1 << 21;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Batched-arrival shape: 2^11 bursts of 2^10 edges = 2^21 edges over
/// 2^22 vertices, Zipf-skewed endpoints. The universe is sized so the
/// parent store (32 MB) exceeds the last-level cache — the regime where
/// the batch path's gather waves can overlap misses per-op dispatch
/// serializes (with a cache-resident store the two modes tie).
const N_INGEST: usize = 1 << 22;
const BATCHES: usize = 1 << 11;
const BATCH_SIZE: usize = 1 << 10;
const ZIPF: f64 = 1.0;

fn bench_structures(c: &mut Criterion) {
    let w = standard_workload(N, M);
    let mut group = c.benchmark_group("concurrent_throughput");
    group.throughput(Throughput::Elements(M as u64));
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(600));
    group.measurement_time(std::time::Duration::from_millis(4000));
    for &p in &THREADS {
        group.bench_function(BenchmarkId::new("jt-two-try-packed", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(N);
                    total += timed_parallel_run(&dsu, &w, p);
                }
                total
            })
        });
        group.bench_function(BenchmarkId::new("jt-two-try-flat", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu: Dsu<TwoTrySplit, FlatStore> = Dsu::new(N);
                    total += timed_parallel_run(&dsu, &w, p);
                }
                total
            })
        });
        group.bench_function(BenchmarkId::new("jt-one-try", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu: Dsu<OneTrySplit> = Dsu::new(N);
                    total += timed_parallel_run(&dsu, &w, p);
                }
                total
            })
        });
        group.bench_function(BenchmarkId::new("jt-growable", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu: GrowableDsu<TwoTrySplit> = GrowableDsu::new(N);
                    total += timed_parallel_run(&dsu, &w, p);
                }
                total
            })
        });
        group.bench_function(BenchmarkId::new("aw-rank-halving", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu = AwDsu::new(N);
                    total += timed_parallel_run(&dsu, &w, p);
                }
                total
            })
        });
        group.bench_function(BenchmarkId::new("global-lock", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu = LockedDsu::new(N, Linking::ByRank, Compaction::Halving);
                    total += timed_parallel_run(&dsu, &w, p);
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_ingestion(c: &mut Criterion) {
    let arrivals = standard_edge_batches(N_INGEST, BATCHES, BATCH_SIZE, ZIPF);
    let m = arrivals.total_edges();
    let mut group = c.benchmark_group("batch_ingest");
    group.throughput(Throughput::Elements(m as u64));
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(600));
    group.measurement_time(std::time::Duration::from_millis(4000));
    for &p in &THREADS {
        group.bench_function(BenchmarkId::new("ingest-per-op", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(N_INGEST);
                    total += timed_ingest_per_op(&dsu, &arrivals.batches, p);
                }
                total
            })
        });
        group.bench_function(BenchmarkId::new("ingest-batched", p), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(N_INGEST);
                    total += timed_ingest_batched(&dsu, &arrivals.batches, p);
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_structures, bench_ingestion);
criterion_main!(benches);
