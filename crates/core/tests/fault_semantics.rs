//! Fault injection must be *invisible* to results: a store wrapped in
//! `FaultyStore` with any legal plan reaches the same verdicts, the same
//! set counts, and the same partition as the bare store.
//!
//! Why this must hold (and is therefore worth proptesting): a spurious CAS
//! failure leaves the cell untouched, so the caller retries against an
//! unchanged forest; a delayed load returns a value that was current when
//! read; a stall window is just a slow thread. Single-threaded, each of
//! these is a no-op with extra steps — so every verdict contract the repo
//! maintains (batch ≡ per-op `unite`) must survive arbitrary fault rates,
//! on both layouts. CI runs this file under
//! the default orderings and `--features strict-sc`, like the other
//! semantics suites.
//!
//! The flip side — counters must be exactly zero when nothing is injected —
//! is asserted at the bottom: an unfaulted single-threaded run has no
//! rival threads and no injections, so the sink's `cas_retries` and the
//! store's own `fault_report` both read zero, which is what lets
//! `store_diag`'s fault-attribution section treat any nonzero value as
//! meaningful.

use concurrent_dsu::{
    Dsu, DsuStore, FaultPlan, FaultyStore, FlatStore, OpStats, PackedStore, TwoTrySplit,
};
use proptest::prelude::*;

fn edges_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

/// A faulted `Dsu` over layout `S` with the given plan.
fn faulted<S: DsuStore>(n: usize, seed: u64, plan: FaultPlan) -> Dsu<TwoTrySplit, FaultyStore<S>> {
    Dsu::from_store(FaultyStore::with_plan(S::with_seed(n, seed), plan))
}

/// Runs the full contract for one layout: per-op and batch execution on a
/// faulted store must be bit-identical to per-op `unite` on the bare
/// store.
fn check_layout<S: DsuStore>(edges: &[(usize, usize)], n: usize, seed: u64, plan: FaultPlan) {
    let per_op: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, seed);
    let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();

    // Per-op under faults.
    let f = faulted::<S>(n, seed, plan);
    let got: Vec<bool> = edges.iter().map(|&(x, y)| f.unite(x, y)).collect();
    assert_eq!(got, expected, "faulted per-op verdicts diverged ({})", S::NAME);
    assert_eq!(f.set_count(), per_op.set_count());
    assert_eq!(f.labels_snapshot(), per_op.labels_snapshot());

    // Batch under faults.
    let fb = faulted::<S>(n, seed, plan);
    assert_eq!(fb.unite_batch_results(edges), expected, "faulted batch diverged ({})", S::NAME);
    assert_eq!(fb.set_count(), per_op.set_count());

    // With a meaningful workload and rate 0.5, the probability that not a
    // single fault fired across two full executions is (1-r)^accesses —
    // astronomically small for ≥ 32 edges. Guard so the injector cannot
    // silently rot into a no-op.
    if edges.len() >= 32 {
        let injected: u64 =
            [&f.store().fault_report(), &fb.store().fault_report()].iter().map(|r| r.total()).sum();
        assert!(
            injected > 0,
            "fault rate {} never fired over {} edges",
            plan.cas_fail_rate,
            edges.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Verdict contract under a midrange fault plan, both layouts.
    #[test]
    fn faulted_runs_match_unfaulted(edges in edges_strategy(24, 160), seed in any::<u64>()) {
        let plan = FaultPlan::rate(seed ^ 0xFA17, 0.5);
        check_layout::<PackedStore>(&edges, 24, seed, plan);
        check_layout::<FlatStore>(&edges, 24, seed, plan);
    }

    /// The clamp boundary: MAX_RATE is the most hostile legal plan and
    /// must still terminate promptly and agree (packed layout, fewer
    /// cases — each run retries a lot by design).
    #[test]
    fn max_rate_still_terminates_and_agrees(edges in edges_strategy(12, 48), seed in any::<u64>()) {
        let plan = FaultPlan::rate(seed, FaultPlan::MAX_RATE);
        check_layout::<PackedStore>(&edges, 12, seed, plan);
    }
}

/// Zero-fault runs must report exactly zero: no injected faults (off plan)
/// and, single-threaded, no retries — the baseline that makes nonzero
/// counters in `store_diag`'s fault-attribution section meaningful.
#[test]
fn unfaulted_counters_are_exactly_zero() {
    let n = 512;
    let dsu: Dsu<TwoTrySplit, FaultyStore<PackedStore>> =
        Dsu::from_store(FaultyStore::with_plan(PackedStore::with_seed(n, 9), FaultPlan::off()));
    let mut stats = OpStats::default();
    for i in 0..n - 1 {
        dsu.unite_with(i, i + 1, &mut stats);
        dsu.same_set_with(0, i, &mut stats);
    }
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    dsu.unite_batch(&edges);
    let report = dsu.store().fault_report();
    assert_eq!(report.total(), 0, "off plan injected faults: {report:?}");
    assert_eq!(stats.cas_retries, 0, "single-threaded unfaulted run cannot retry");
    assert_eq!(stats.links_fail, 0);
}

/// The same workload under a faulted plan shows the attribution the diag
/// section relies on: spurious link-CAS failures surface as `links_fail`
/// *and* `cas_retries`, and the store's report explains them.
#[test]
fn faulted_counters_attribute_retries() {
    let n = 512;
    let dsu: Dsu<TwoTrySplit, FaultyStore<PackedStore>> = Dsu::from_store(FaultyStore::with_plan(
        PackedStore::with_seed(n, 9),
        FaultPlan::rate(7, 0.5),
    ));
    let mut stats = OpStats::default();
    for i in 0..n - 1 {
        dsu.unite_with(i, i + 1, &mut stats);
    }
    let report = dsu.store().fault_report();
    assert!(report.spurious_cas_failures > 0, "{report:?}");
    assert!(stats.cas_retries > 0, "injected link failures must surface as retries");
    assert_eq!(
        stats.links_fail, stats.cas_retries,
        "single-threaded, every retry stems from a (here: injected) link failure"
    );
    // Single-threaded there is no genuine contention: every failed link
    // CAS must be an injected one.
    assert!(
        stats.links_fail <= report.spurious_cas_failures,
        "links_fail {} > injected spurious failures {}",
        stats.links_fail,
        report.spurious_cas_failures
    );
    assert_eq!(dsu.set_count(), 1, "the ring still fully merged under faults");
}
