//! Lemma 3.2 on the real threads: timed histories recorded from native
//! threaded executions — with faults injected — must be linearizable, and
//! a deliberately broken store must be *caught*.
//!
//! Until this suite, linearizability was only checked on the APRAM
//! simulator (e08), where the "threads" are cooperatively scheduled step
//! machines. Here the histories come from actual `std::thread` executions
//! of the production operations, stamped by `linearize::record_scripts` on
//! one shared `SeqCst` clock (so happens-before in the history implies
//! happens-before in real time), with `FaultyStore` injecting spurious CAS
//! failures, delayed loads, and stall windows to force the retry paths the
//! paper's proofs must survive.
//!
//! The `BrokenStore` canary closes the loop: an unconditional CAS keeps
//! trees acyclic (operations still terminate) but loses concurrent links,
//! so its histories must be *refuted* — by the checker or by the
//! more-than-`n - 1`-true-unites invariant. If the canary ever stops
//! tripping, the harness itself has rotted.

use jt_dsu::concurrent_dsu::order::splitmix64;
use jt_dsu::concurrent_dsu::{
    BrokenStore, Dsu, DsuStore, FaultPlan, FaultyStore, FlatStore, PackedStore, TestWatchdog,
    TwoTrySplit,
};
use jt_dsu::dsu_harness::dsu_scripts;
use jt_dsu::linearize::{check_linearizable, record_scripts, CompletedOp, DsuOp, DsuSpec};
use std::time::Duration;

/// Records one timed history of `threads × ops_per_thread` operations on
/// `dsu`: each thread runs its seeded script (mostly unites, to force link
/// races, with same-set probes mixed in).
fn record_history<S: DsuStore>(
    dsu: &Dsu<TwoTrySplit, S>,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> Vec<CompletedOp<DsuOp>> {
    let scripts = dsu_scripts(threads, ops_per_thread, dsu.len(), seed);
    let (history, _) = record_scripts(
        &scripts,
        |_| (),
        |_, op| match op {
            DsuOp::Unite(x, y) => dsu.unite(x, y),
            DsuOp::SameSet(x, y) => dsu.same_set(x, y),
        },
    );
    history
}

/// In any linearization of a history over `0..n`, at most `n - 1` unites
/// can return `true`; counting trues is the cheap necessary condition
/// that catches lost updates even in histories too coarse to search.
fn true_unites(history: &[CompletedOp<DsuOp>]) -> usize {
    history.iter().filter(|c| matches!(c.op, DsuOp::Unite(_, _)) && c.result).count()
}

fn check_faulted_layout<S: DsuStore>(histories: usize, rate: f64) {
    let threads = 4;
    let ops_per_thread = 5; // 4 × 5 = 20 ops per history, well under the checker's 64
    let n = 6;
    for h in 0..histories {
        let seed = h as u64 * 7919 + 13;
        let plan = FaultPlan::rate(seed ^ 0xC4A05, rate);
        let dsu: Dsu<TwoTrySplit, FaultyStore<S>> =
            Dsu::from_store(FaultyStore::with_plan(S::with_seed(n, seed), plan));
        let history = record_history(&dsu, threads, ops_per_thread, seed);
        if let Err(e) = check_linearizable(&DsuSpec::new(n), &history) {
            panic!(
                "REFUTATION on {} (seed {seed}, rate {rate}): {e}\nreport: {:?}\n{history:#?}",
                S::NAME,
                dsu.store().fault_report(),
            );
        }
        assert!(true_unites(&history) < n);
    }
}

/// ≥ 3 threads, fault rate > 0, both layouts: every recorded history
/// linearizes.
#[test]
fn faulted_native_histories_linearizable_all_layouts() {
    let _wd = TestWatchdog::arm(
        "faulted_native_histories_linearizable_all_layouts",
        Duration::from_secs(300),
    );
    check_faulted_layout::<PackedStore>(40, 0.4);
    check_faulted_layout::<FlatStore>(40, 0.4);
    // A brutal-rate pass on the default layout: retries dominate, the
    // verdicts still linearize.
    check_faulted_layout::<PackedStore>(10, FaultPlan::MAX_RATE);
}

/// The regression canary: the unconditional-CAS store must be caught
/// within a modest seed budget. Lost updates split merged sets, which
/// surfaces as a non-linearizable history or as more than `n - 1` `true`
/// unites (impossible in any sequential order).
#[test]
fn broken_store_is_refuted() {
    let _wd = TestWatchdog::arm("broken_store_is_refuted", Duration::from_secs(300));
    let threads = 4;
    let ops_per_thread = 8; // heavy contention on a tiny universe
    let n = 4;
    let budget = 400;
    let mut caught = 0;
    // Stack the decorators: delayed loads *around* the broken CAS widen
    // the load→CAS window from nanoseconds to thousands of spin hints, so
    // the lost-update race actually fires in a small seed budget. (A
    // correct store survives exactly this schedule — the faulted suites
    // above prove it; only the unconditional CAS turns it into a bug.)
    let delay_only = FaultPlan {
        seed: 0, // overwritten per history
        cas_fail_rate: 0.0,
        stale_load_rate: 0.8,
        max_spin: 5_000,
        stall_period: 0,
        stall_spins: 0,
    };
    for h in 0..budget {
        let seed = h as u64 * 31 + 5;
        let dsu: Dsu<TwoTrySplit, FaultyStore<BrokenStore<PackedStore>>> =
            Dsu::from_store(FaultyStore::with_plan(
                BrokenStore::new(PackedStore::with_seed(n, seed)),
                FaultPlan { seed, ..delay_only },
            ));
        let history = record_history(&dsu, threads, ops_per_thread, seed);
        let refuted = check_linearizable(&DsuSpec::new(n), &history).is_err()
            || true_unites(&history) > n - 1;
        if refuted {
            caught += 1;
            if caught >= 3 {
                return; // caught repeatedly — the canary trips as required
            }
        }
    }
    panic!(
        "BrokenStore refuted only {caught}/{budget} histories — \
         the chaos harness can no longer catch a lost-update bug"
    );
}

/// Heavier-than-the-checker invariant run: on a universe far beyond 64
/// ops, a faulted multi-threaded ingestion must still satisfy
/// `true unites == n - set_count` exactly — the counting shadow of
/// linearizability that scales to any history size.
#[test]
fn faulted_stress_true_unites_match_set_count() {
    let _wd =
        TestWatchdog::arm("faulted_stress_true_unites_match_set_count", Duration::from_secs(300));
    let n = 1 << 10;
    let threads = 4;
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::rate(seed, 0.3);
        let dsu: Dsu<TwoTrySplit, FaultyStore<PackedStore>> =
            Dsu::from_store(FaultyStore::with_plan(PackedStore::with_seed(n, seed), plan));
        let trues: usize = std::thread::scope(|s| {
            (0..threads)
                .map(|t| {
                    let dsu = &dsu;
                    s.spawn(move || {
                        let mut trues = 0;
                        for i in 0..4 * n {
                            let h = splitmix64(seed ^ ((t as u64) << 40) ^ i as u64);
                            let x = (h >> 8) as usize % n;
                            let y = (h >> 32) as usize % n;
                            trues += dsu.unite(x, y) as usize;
                        }
                        trues
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(
            trues,
            n - dsu.set_count(),
            "true unites must equal sets merged (seed {seed}; report: {:?})",
            dsu.store().fault_report()
        );
        assert!(dsu.store().fault_report().total() > 0, "faults must actually fire");
    }
}
