//! The threaded measurement driver.
//!
//! Shards a [`Workload`] across OS threads, releases them through a
//! barrier, and reports wall-clock time plus (for the instrumented variant)
//! the merged per-thread [`OpStats`] — total work measured exactly as the
//! paper defines it, with zero shared counters on the hot path.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use concurrent_dsu::{ConcurrentUnionFind, Dsu, DsuStore, FindPolicy, LinkPolicy, OpStats};
use dsu_workloads::{Op, Workload};

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
    let barrier = Barrier::new(threads + 1);
    let started = std::thread::scope(|s| {
        for shard in &shards {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for &op in shard {
                    apply_plain(dsu, op);
                }
            });
        }
        // Timestamp before releasing the barrier: once it opens, this
        // thread may be descheduled while workers run (oversubscribed
        // hosts), which would deflate an after-the-wait timestamp.
        let t0 = Instant::now();
        barrier.wait();
        t0
    });
    RunMetrics {
        elapsed: started.elapsed(),
        ops: workload.len() as u64,
        stats: None,
        max_op_iters: 0,
    }
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
    let barrier = Barrier::new(threads + 1);
    let (elapsed, merged, max_iters) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for shard in &shards {
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                barrier.wait();
                let mut stats = OpStats::default();
                let mut max_iters = 0u64;
                for &op in shard {
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
            }));
        }
        // Same pre-release timestamp rationale as run_shards.
        let started = Instant::now();
        barrier.wait();
        let mut merged = OpStats::default();
        let mut max_iters = 0u64;
        for h in handles {
            let (stats, mx) = h.join().expect("worker panicked");
            merged.merge(&stats);
            max_iters = max_iters.max(mx);
        }
        (started.elapsed(), merged, max_iters)
    });
    RunMetrics { elapsed, ops: workload.len() as u64, stats: Some(merged), max_op_iters: max_iters }
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
    #[should_panic(expected = "universe too small")]
    fn undersized_universe_rejected() {
        let w = WorkloadSpec::new(64, 10).generate(0);
        let dsu: Dsu = Dsu::new(32);
        run_shards(&dsu, &w, 1);
    }
}
