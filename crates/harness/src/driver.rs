//! The threaded measurement driver.
//!
//! One rule times every threaded run in the harness and its examples:
//! [`run_threads`] releases the workers through a start barrier, stamps the
//! start before it opens the barrier, and hands each worker's output back
//! in thread order. On top of it, [`run_shards`] shards a [`Workload`]
//! across the threads and reports wall-clock time, the instrumented variant
//! adds the merged per-thread [`OpStats`] (total work measured exactly as
//! the paper defines it, with zero shared counters on the hot path), and
//! the two ingestion runners feed edge bursts from a shared cursor.
//! [`dsu_scripts`] is the seeded op script the native history recorders
//! run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use concurrent_dsu::order::splitmix64;
use concurrent_dsu::{ConcurrentUnionFind, Dsu, DsuStore, FindPolicy, LinkPolicy, OpStats};
use dsu_workloads::{Op, Workload};
use linearize::DsuOp;

/// Runs `work(t)` for `t` in `0..threads`, each on its own scoped thread,
/// all released together by a start barrier. Returns the wall time from
/// the release until the scope has seen every worker finish, and the
/// workers' outputs in thread order.
///
/// The start is stamped *before* the barrier opens: once it opens, this
/// thread may be descheduled while the workers run (an oversubscribed
/// host), and a stamp taken after the wait would start late and shorten
/// the run. The stop is the scope's end, which waits for each worker's
/// result but not for its OS thread to be torn down, as a join would.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker panics.
pub fn run_threads<T: Send>(
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> (Duration, Vec<T>) {
    assert!(threads > 0, "need at least one thread");
    let barrier = Barrier::new(threads + 1);
    let mut outputs: Vec<Option<T>> = (0..threads).map(|_| None).collect();
    let started = std::thread::scope(|s| {
        for (t, slot) in outputs.iter_mut().enumerate() {
            let (barrier, work) = (&barrier, &work);
            s.spawn(move || {
                barrier.wait();
                *slot = Some(work(t));
            });
        }
        let t0 = Instant::now();
        barrier.wait();
        t0
    });
    let elapsed = started.elapsed();
    (elapsed, outputs.into_iter().map(|o| o.expect("every worker stored its output")).collect())
}

/// What one measured run produced.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Wall-clock time from barrier release to last thread done.
    pub elapsed: Duration,
    /// Operations executed (all threads).
    pub ops: u64,
    /// Merged work counters (instrumented runs only).
    pub stats: Option<OpStats>,
    /// The largest find-loop iteration count any single operation needed
    /// (instrumented runs only) — the Theorem 4.3 "steps per operation"
    /// statistic.
    pub max_op_iters: u64,
}

impl RunMetrics {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

fn apply_plain<D: ConcurrentUnionFind + ?Sized>(dsu: &D, op: Op) {
    match op {
        Op::Unite(x, y) => {
            dsu.unite(x, y);
        }
        Op::SameSet(x, y) => {
            dsu.same_set(x, y);
        }
    }
}

/// Runs `workload` sharded over `threads` threads against any concurrent
/// union-find; wall-clock only (works for the baselines too).
///
/// # Panics
///
/// Panics if `threads == 0` or the workload universe exceeds `dsu.len()`.
pub fn run_shards<D: ConcurrentUnionFind + ?Sized>(
    dsu: &D,
    workload: &Workload,
    threads: usize,
) -> RunMetrics {
    assert!(threads > 0, "need at least one thread");
    assert!(dsu.len() >= workload.n, "universe too small for workload");
    let shards = workload.shard(threads);
    let (elapsed, _) = run_threads(threads, |t| {
        for &op in &shards[t] {
            apply_plain(dsu, op);
        }
    });
    RunMetrics { elapsed, ops: workload.len() as u64, stats: None, max_op_iters: 0 }
}

/// Instrumented run against the Jayanti–Tarjan structure: each thread
/// counts its own work into a private [`OpStats`]; counters are merged
/// after the run. `early` selects the Section 6 early-termination
/// operations. Generic over the full variant plane — any (find × link)
/// pair on any fixed-universe layout — so the variant experiments (e03,
/// `variants_ab`) drive every point through one code path.
///
/// # Panics
///
/// Panics if `threads == 0` or the workload universe exceeds `dsu.len()`.
pub fn run_shards_instrumented<F: FindPolicy, S: DsuStore, L: LinkPolicy>(
    dsu: &Dsu<F, S, L>,
    workload: &Workload,
    threads: usize,
    early: bool,
) -> RunMetrics {
    assert!(threads > 0, "need at least one thread");
    assert!(dsu.len() >= workload.n, "universe too small for workload");
    let shards = workload.shard(threads);
    let (elapsed, per_thread) = run_threads(threads, |t| {
        let mut stats = OpStats::default();
        let mut max_iters = 0u64;
        for &op in &shards[t] {
            let before = stats.loop_iters;
            match (op, early) {
                (Op::Unite(x, y), false) => {
                    dsu.unite_with(x, y, &mut stats);
                }
                (Op::SameSet(x, y), false) => {
                    dsu.same_set_with(x, y, &mut stats);
                }
                (Op::Unite(x, y), true) => {
                    dsu.unite_early_with(x, y, &mut stats);
                }
                (Op::SameSet(x, y), true) => {
                    dsu.same_set_early_with(x, y, &mut stats);
                }
            }
            max_iters = max_iters.max(stats.loop_iters - before);
        }
        (stats, max_iters)
    });
    let mut merged = OpStats::default();
    let mut max_iters = 0u64;
    for (stats, mx) in &per_thread {
        merged.merge(stats);
        max_iters = max_iters.max(*mx);
    }
    RunMetrics { elapsed, ops: workload.len() as u64, stats: Some(merged), max_op_iters: max_iters }
}

/// Ingests `batches` on `threads` threads: workers claim whole bursts from
/// a shared cursor (the same dynamic scheduling both contenders get) and
/// apply `ingest` to each. Returns elapsed wall time. The two public
/// wrappers differ *only* in `ingest`, isolating the batch-API effect from
/// the scheduler.
fn timed_ingest<D: ConcurrentUnionFind>(
    dsu: &D,
    batches: &[Vec<(usize, usize)>],
    threads: usize,
    ingest: impl Fn(&D, &[(usize, usize)]) + Sync,
) -> Duration {
    let cursor = AtomicUsize::new(0);
    let (elapsed, _) = run_threads(threads, |_| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= batches.len() {
            break;
        }
        ingest(dsu, &batches[i]);
    });
    elapsed
}

/// Per-op ingestion baseline: every edge of every burst goes through a
/// separate [`unite`](ConcurrentUnionFind::unite) call.
pub fn timed_ingest_per_op<D: ConcurrentUnionFind>(
    dsu: &D,
    batches: &[Vec<(usize, usize)>],
    threads: usize,
) -> Duration {
    timed_ingest(dsu, batches, threads, |d, burst| {
        for &(x, y) in burst {
            d.unite(x, y);
        }
    })
}

/// Batched ingestion: each burst goes through one
/// [`unite_batch`](ConcurrentUnionFind::unite_batch) call (the filtered,
/// word-seeded bulk path on [`Dsu`]).
pub fn timed_ingest_batched<D: ConcurrentUnionFind>(
    dsu: &D,
    batches: &[Vec<(usize, usize)>],
    threads: usize,
) -> Duration {
    timed_ingest(dsu, batches, threads, |d, burst| {
        d.unite_batch(burst);
    })
}

/// The seeded op scripts the native history recorders run: thread `t`'s
/// op `i` over `0..n` draws `z = splitmix64(seed ^ (t << 32) ^ i)`, takes
/// `x = (z >> 8) % n` and `y = (z >> 24) % n`, and is `SameSet(x, y)` when
/// `z % 4 == 0`, else `Unite(x, y)`: mostly unites, to force link races,
/// with queries mixed in. One script per thread, `ops` ops each.
pub fn dsu_scripts(threads: usize, ops: usize, n: usize, seed: u64) -> Vec<Vec<DsuOp>> {
    (0..threads)
        .map(|t| {
            (0..ops)
                .map(|i| {
                    let z = splitmix64(seed ^ ((t as u64) << 32) ^ i as u64);
                    let (x, y) = ((z >> 8) as usize % n, (z >> 24) as usize % n);
                    if z.is_multiple_of(4) {
                        DsuOp::SameSet(x, y)
                    } else {
                        DsuOp::Unite(x, y)
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use concurrent_dsu::TwoTrySplit;
    use dsu_workloads::WorkloadSpec;

    #[test]
    fn plain_run_executes_everything() {
        let w = WorkloadSpec::new(256, 4000).unite_fraction(1.0).generate(1);
        let dsu: Dsu = Dsu::new(256);
        let m = run_shards(&dsu, &w, 4);
        assert_eq!(m.ops, 4000);
        assert!(m.elapsed > Duration::ZERO);
        assert!(m.stats.is_none());
        // 4000 random unites on 256 elements almost surely connect all.
        assert_eq!(dsu.set_count(), 1);
        assert!(m.mops() > 0.0);
    }

    #[test]
    fn instrumented_run_counts_ops_exactly() {
        let w = WorkloadSpec::new(128, 2000).generate(2);
        for early in [false, true] {
            let dsu: Dsu<TwoTrySplit> = Dsu::new(128);
            let m = run_shards_instrumented(&dsu, &w, 3, early);
            let stats = m.stats.expect("instrumented");
            assert_eq!(stats.ops, 2000, "early={early}");
            assert!(m.max_op_iters > 0);
            assert!(stats.loop_iters >= stats.ops || early);
        }
    }

    #[test]
    fn single_thread_instrumented_matches_sequential_semantics() {
        let w = WorkloadSpec::new(64, 500).generate(3);
        let dsu: Dsu<TwoTrySplit> = Dsu::new(64);
        let m = run_shards_instrumented(&dsu, &w, 1, false);
        let stats = m.stats.unwrap();
        // One thread ⇒ no CAS can fail.
        assert_eq!(stats.compact_cas_fail, 0);
        assert_eq!(stats.links_fail, 0);
    }

    #[test]
    fn runner_times_every_worker_and_keeps_thread_order() {
        // Each worker reports its own span, from its barrier exit to its
        // return. The runner's clock starts before the release, so it
        // covers every span, whichever worker the host runs first.
        for threads in [1, 3, 8] {
            let (elapsed, outputs) = run_threads(threads, |t| {
                let start = Instant::now();
                std::thread::sleep(Duration::from_millis(2 + t as u64));
                (t, start.elapsed())
            });
            assert_eq!(outputs.len(), threads);
            for (t, &(id, span)) in outputs.iter().enumerate() {
                assert_eq!(id, t, "outputs come back in thread order");
                assert!(elapsed >= span, "run {elapsed:?} shorter than worker {t}'s {span:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_rejected() {
        run_threads(0, |_| ());
    }

    #[test]
    fn scripts_follow_the_seeded_rule() {
        let scripts = dsu_scripts(3, 50, 6, 0xE13);
        assert_eq!(scripts.len(), 3);
        assert_eq!(scripts, dsu_scripts(3, 50, 6, 0xE13), "deterministic in the seed");
        let z = splitmix64(0xE13 ^ (2 << 32) ^ 7);
        let (x, y) = ((z >> 8) as usize % 6, (z >> 24) as usize % 6);
        let expected = if z.is_multiple_of(4) { DsuOp::SameSet(x, y) } else { DsuOp::Unite(x, y) };
        assert_eq!(scripts[2][7], expected);
        let queries =
            scripts.iter().flatten().filter(|op| matches!(op, DsuOp::SameSet(..))).count();
        assert!(queries > 0 && queries < 75, "mostly unites, some queries: {queries}/150");
    }

    #[test]
    #[should_panic(expected = "universe too small")]
    fn undersized_universe_rejected() {
        let w = WorkloadSpec::new(64, 10).generate(0);
        let dsu: Dsu = Dsu::new(32);
        run_shards(&dsu, &w, 1);
    }
}
