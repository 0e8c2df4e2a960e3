//! Work-count cross-check and phase attribution for packed vs. flat.
//!
//! Runs the standard mixed workload single-threaded on both layouts with
//! full `OpStats` instrumentation. The counters (loop iterations, reads,
//! CAS outcomes) must be *identical* — same ids, same decisions — so any
//! timing difference is pure per-access cost, attributed separately to
//! the mixed phase, a pure-find storm, a flatten sweep, and a batch
//! ingestion phase (a Zipf burst trace through `unite_batch`).
//!
//! A final fault-attribution phase re-runs the mixed workload through a
//! `FaultyStore` wrapper at a fixed injection rate: `faults_injected` is
//! what the plan charged, `cas_retries` is what the retry loops paid, and
//! the unfaulted phases above assert both counters are **exactly zero** —
//! retries on a clean single-threaded run would mean the store is
//! contending with itself.
//!
//! An epoch-attribution phase drives a `VersionedDsu` through a guarded
//! burst trace (snapshot before every burst, one rollback, one rejected
//! speculative batch) and reconciles the live `OpStats` stream with the
//! structure's lifetime counters and the store's copy-on-write report —
//! while every *unversioned* phase above asserts all four epoch columns
//! (`snapshots_taken` / `segments_forked` / `rollbacks` / `cow_copies`)
//! are **exactly zero**: versioning must cost nothing when unused.
//!
//! Run: `cargo run --release -p dsu-bench --example store_diag [log2_n]`

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::{
    Dsu, DsuStore, EpochReport, FaultPlan, FaultyStore, FlatStore, KeyedDsu, OpStats, PackedStore,
    TwoTrySplit, VersionedDsu,
};
use dsu_bench::{standard_edge_batches, standard_workload};
use dsu_workloads::{KeyedOp, KeyedSpec};
use std::time::Instant;

fn run<S: DsuStore>(label: &str) {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(17);
    let n = 1usize << n;
    let m = 2 * n;
    let w = standard_workload(n, m);
    let dsu: Dsu<TwoTrySplit, S> = Dsu::new(n);
    let mut stats = OpStats::default();
    // Split workload into unite-only and query-only passes for attribution.
    let t0 = Instant::now();
    for op in &w.ops {
        match *op {
            dsu_workloads::Op::Unite(x, y) => {
                dsu.unite_with(x, y, &mut stats);
            }
            dsu_workloads::Op::SameSet(x, y) => {
                dsu.same_set_with(x, y, &mut stats);
            }
        }
    }
    let total = t0.elapsed();
    // Pure find storm afterwards (paths now shallow).
    let t1 = Instant::now();
    let mut acc = 0usize;
    for i in 0..n {
        acc = acc.wrapping_add(dsu.find(i));
    }
    let finds = t1.elapsed();
    std::hint::black_box(acc);
    // Flatten-attribution phase: one sequential sweep on the quiesced
    // mixed-phase structure, then a re-run of the find storm. The sweep's
    // own work lands in `reads` / `compact_cas_*` with the `flatten_*`
    // counters attributing it; the post-sweep storm's `find_hops` proves
    // the depth-≤-1 contract operationally (every find pays at most one
    // hop), and a second sweep must find nothing left to jump.
    let mut flatten_stats = OpStats::default();
    let t2b = Instant::now();
    dsu.flatten_with(&mut flatten_stats);
    let flatten_t = t2b.elapsed();
    let mut post_stats = OpStats::default();
    let t2c = Instant::now();
    let mut acc3 = 0usize;
    for i in 0..n {
        acc3 = acc3.wrapping_add(dsu.find_with(i, &mut post_stats));
    }
    let post_finds = t2c.elapsed();
    std::hint::black_box(acc3);
    println!(
        "{label}: flatten {:>12?} post-finds {:>12?} | passes {} jumps {} cas_lost {} reads {} | \
         mixed hops/find {:.3} post hops/find {:.3}",
        flatten_t,
        post_finds,
        flatten_stats.flatten_passes,
        flatten_stats.flatten_jumps,
        flatten_stats.flatten_cas_lost,
        flatten_stats.reads,
        stats.hops_per_find(),
        post_stats.hops_per_find()
    );
    assert_eq!(flatten_stats.flatten_passes, 1, "{label}: exactly one sweep reported");
    assert_eq!(
        flatten_stats.flatten_cas_lost, 0,
        "{label}: a quiesced single-threaded sweep can lose no CAS"
    );
    assert!(
        post_stats.find_hops <= n as u64,
        "{label}: depth > 1 survived the sweep ({} hops over {n} finds)",
        post_stats.find_hops
    );
    let mut second = OpStats::default();
    dsu.flatten_with(&mut second);
    assert_eq!(second.flatten_jumps, 0, "{label}: second sweep found leftover depth");
    // Shape check through the offline histogram: exactly zero nodes
    // deeper than 1 after a quiesced sweep.
    let hist = concurrent_dsu::viz::depth_histogram(&dsu.parents_snapshot());
    println!("{label}: post-flatten {}", hist.summary());
    assert_eq!(hist.nodes_deeper_than_one(), 0, "{label}: {}", hist.summary());
    // Batch-ingestion phase: a Zipf burst trace through the batch path
    // on a fresh structure.
    let trace = standard_edge_batches(n, (m / 1024).max(1), 1024, 1.0);
    let batch_dsu: Dsu<TwoTrySplit, S> = Dsu::new(n);
    let mut batch_stats = OpStats::default();
    let t3 = Instant::now();
    for burst in &trace.batches {
        batch_dsu.unite_batch_with(burst, &mut batch_stats);
    }
    let batch_ingest = t3.elapsed();
    println!(
        "{label}: mixed {:>12?} finds {:>12?} | iters {} reads {} cas_ok {} cas_fail {} \
         links_ok {} links_fail {}",
        total,
        finds,
        stats.loop_iters,
        stats.reads,
        stats.compact_cas_ok,
        stats.compact_cas_fail,
        stats.links_ok,
        stats.links_fail
    );
    println!(
        "{label}: ingest batch {:>12?} reads {} links_ok {}",
        batch_ingest, batch_stats.reads, batch_stats.links_ok
    );
    // Unfaulted runs must attribute exactly zero injected faults, and the
    // *per-op* phases zero retries too — single-threaded, a per-op retry
    // loop only fires when someone else moved the root, and there is no
    // one else. (The batch phases may retry legitimately: a wave-gathered
    // root goes stale when an earlier link in the same burst moves it, so
    // for those only the injection counter must be zero.)
    for (phase, s) in [("mixed", &stats), ("batch", &batch_stats)] {
        assert_eq!(s.faults_injected, 0, "{label}/{phase}: phantom fault attribution");
        // None of these phases runs through a `VersionedDsu`, so the
        // epoch columns must be exactly zero: an unversioned run pays no
        // snapshots, no forks, no rollbacks, no copy-on-write.
        assert_eq!(
            (s.snapshots_taken, s.segments_forked, s.rollbacks, s.cow_copies),
            (0, 0, 0, 0),
            "{label}/{phase}: phantom epoch attribution on an unversioned run"
        );
        // No phase above runs a sweep, so flatten attribution must be
        // exactly zero.
        assert_eq!(
            (s.flatten_passes, s.flatten_jumps, s.flatten_cas_lost),
            (0, 0, 0),
            "{label}/{phase}: phantom flatten attribution"
        );
    }
    assert_eq!(stats.cas_retries, 0, "{label}/mixed: retries on an unfaulted single-threaded run");
    // Fault attribution: the same mixed workload through a FaultyStore at
    // a fixed rate. faults_injected (charged by the plan, folded in from
    // the store's report) sits next to cas_retries (paid by the retry
    // loops); single-threaded, every spurious CAS failure on the link CAS
    // is exactly one retry, so the columns reconcile the injection.
    let faulted: Dsu<TwoTrySplit, FaultyStore<S>> = Dsu::from_store(FaultyStore::with_plan(
        S::with_seed(n, 0xD1A6),
        FaultPlan::rate(0xD1A6, 0.2),
    ));
    let mut fault_stats = OpStats::default();
    let t5 = Instant::now();
    for op in &w.ops {
        match *op {
            dsu_workloads::Op::Unite(x, y) => {
                faulted.unite_with(x, y, &mut fault_stats);
            }
            dsu_workloads::Op::SameSet(x, y) => {
                faulted.same_set_with(x, y, &mut fault_stats);
            }
        }
    }
    let faulted_total = t5.elapsed();
    let report = faulted.store().fault_report();
    fault_stats.faults_injected += report.total();
    println!(
        "{label}: faulted mixed {:>12?} (rate 0.2) | faults_injected {} (cas {} load {} stall {}) \
         cas_retries {} links_fail {}",
        faulted_total,
        fault_stats.faults_injected,
        report.spurious_cas_failures,
        report.delayed_loads,
        report.stalls,
        fault_stats.cas_retries,
        fault_stats.links_fail
    );
    assert!(fault_stats.faults_injected > 0, "{label}: fault phase injected nothing");
    assert_eq!(
        fault_stats.cas_retries, fault_stats.links_fail,
        "{label}: single-threaded, every failed link is exactly one retry"
    );
}

/// Keyed attribution: a sparse-u64 entity-resolution trace through the
/// lock-free id table, with the keyed counters splitting key-table work
/// (probes, claims, segment growth) from the set operations underneath.
/// Every insert is charged exactly once, every probe step is attributed,
/// the structure's own resize count reconciles with the stats stream, and
/// the unfaulted invariants of the dense phases hold here too.
fn keyed() {
    let label = "keyed  ";
    let spec = KeyedSpec::new(1 << 15).merge_fraction(0.7).fresh_fraction(0.5);
    let trace = spec.generate(0xD1A6).into_sparse_u64(0xD1A6);
    let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(0xD1A6);
    let mut stats = OpStats::default();
    let t0 = Instant::now();
    for op in &trace.ops {
        match op {
            KeyedOp::Merge(a, b) => {
                dsu.merge_keys_with(a, b, &mut stats);
            }
            KeyedOp::SameSet(a, b) => {
                dsu.same_set_with(a, b, &mut stats);
            }
        }
    }
    let keyed_t = t0.elapsed();
    println!(
        "{label}: keyed {:>12?} | keys {} probe_steps {} resizes {} | iters {} reads {} \
         links_ok {}",
        keyed_t,
        stats.keys_inserted,
        stats.key_probe_steps,
        stats.id_table_resizes,
        stats.loop_iters,
        stats.reads,
        stats.links_ok
    );
    // Queries never insert, so the claim count is exactly the distinct
    // keys that appeared as a merge operand — not `trace.distinct_keys`.
    let merged: std::collections::HashSet<u64> = trace
        .ops
        .iter()
        .filter(|op| op.is_merge())
        .flat_map(|op| {
            let (a, b) = op.keys();
            [*a, *b]
        })
        .collect();
    assert_eq!(stats.keys_inserted, merged.len() as u64, "{label}: every merged key claims once");
    assert_eq!(stats.keys_inserted, dsu.key_count() as u64, "{label}: stats vs table key count");
    assert_eq!(
        stats.id_table_resizes,
        dsu.id_table_resizes() as u64,
        "{label}: stats vs table resizes"
    );
    assert!(stats.id_table_resizes > 0, "{label}: this trace must outgrow the base segments");
    assert!(
        stats.key_probe_steps >= 2 * trace.ops.len() as u64,
        "{label}: two key resolutions per op minimum"
    );
    assert_eq!(stats.faults_injected, 0, "{label}/keyed: phantom fault attribution");
    assert_eq!(stats.cas_retries, 0, "{label}/keyed: retries on an unfaulted single-threaded run");
    assert_eq!(
        (stats.snapshots_taken, stats.segments_forked, stats.rollbacks, stats.cow_copies),
        (0, 0, 0, 0),
        "{label}/keyed: phantom epoch attribution on an unversioned run"
    );
    // The keyed layer runs on the epoch store; unversioned, it never forks.
    assert_eq!(dsu.dsu().store().epoch_report(), EpochReport::default(), "{label}: forked");
}

/// Epoch attribution: a versioned burst trace with a guard point before
/// every burst, one explicit rollback, and one validator-rejected
/// speculative batch. Two accounting streams exist — the live `*_with`
/// sinks fed per event, and [`VersionedDsu::report_into`]'s lifetime
/// fold — and they must reconcile exactly with each other and with the
/// store's own fork report. (The unversioned phases above assert all
/// four epoch columns are exactly zero; this phase is where they earn
/// their nonzero values.)
fn epochs() {
    let n = 1 << 15;
    let trace = dsu_bench::standard_edge_batches(n, 16, 1024, 1.1);
    let mut dsu: VersionedDsu = VersionedDsu::with_initial(n);
    let mut live = OpStats::default();
    let t0 = Instant::now();
    let mut guards = Vec::new();
    for burst in &trace.batches {
        guards.push(dsu.snapshot_with(&mut live));
        dsu.unite_batch(burst);
    }
    // Roll the last burst off, then reject a speculative one (its
    // internal snapshot + rollback land in the same live stream).
    let last = *guards.last().expect("at least one burst");
    dsu.rollback_with(last, &mut live);
    let edges: Vec<(usize, usize)> = (0..512).map(|i| (i, n - 1 - i)).collect();
    let outcome = dsu.try_unite_batch_with(&edges, |_, _| false, &mut live);
    let elapsed = t0.elapsed();
    assert!(!outcome.is_committed(), "the rejecting validator must roll back");
    let report = dsu.dsu().store().epoch_report();
    println!(
        "epochs : versioned {elapsed:>12?} | snapshots {} rollbacks {} segments_forked {} \
         cow_copies {}",
        dsu.snapshots_taken(),
        dsu.rollbacks(),
        report.segments_forked,
        report.cow_copies
    );
    // Live stream vs structure counters: every snapshot/rollback above
    // went through a `*_with` entry point, so the streams are equal.
    assert_eq!(live.snapshots_taken, dsu.snapshots_taken(), "live stream vs snapshot counter");
    assert_eq!(live.rollbacks, dsu.rollbacks(), "live stream vs rollback counter");
    assert_eq!(live.snapshots_taken, trace.batches.len() as u64 + 1, "one guard per burst + 1");
    assert_eq!(live.rollbacks, 2, "the explicit rollback + the rejected batch");
    // Lifetime fold vs the store's report: report_into is the protocol a
    // harness uses when it never held the live sinks.
    let mut folded = OpStats::default();
    dsu.report_into(&mut folded);
    assert_eq!(folded.snapshots_taken, dsu.snapshots_taken());
    assert_eq!(folded.rollbacks, dsu.rollbacks());
    assert_eq!(folded.segments_forked, report.segments_forked, "fold vs store fork report");
    assert_eq!(folded.cow_copies, report.cow_copies, "fold vs store copy report");
    assert!(report.segments_forked > 0, "guarded bursts must have forked");
    assert!(
        report.cow_copies >= report.segments_forked,
        "every fork copies at least one cell's worth"
    );
}

fn main() {
    for _ in 0..3 {
        run::<PackedStore>("packed ");
        run::<FlatStore>("flat   ");
    }
    keyed();
    epochs();
}
