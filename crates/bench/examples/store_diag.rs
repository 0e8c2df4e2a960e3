//! Phase timings and counters for packed vs. flat, plus checks of the
//! faulted, keyed and versioned layers' own counters.
//!
//! Runs the standard mixed workload single-threaded on both layouts with
//! full `OpStats` instrumentation and prints the counters (loop
//! iterations, reads, CAS outcomes) beside the time of each phase: the
//! mixed phase, a pure-find storm, and a batch ingestion phase (a Zipf
//! burst trace through `unite_batch`). The counters are identical on
//! every layout — same ids, same decisions — so a timing difference is
//! pure per-access cost; `crates/core/tests/attribution.rs` asserts that
//! equality, and the exact zeros of unfaulted and unversioned runs, under
//! `cargo test`.
//!
//! A fault-attribution phase re-runs the mixed workload through a
//! `FaultyStore` wrapper at a fixed injection rate and prints the store's
//! `fault_report` (what the plan charged) beside `cas_retries` (what the
//! retry loops paid). A keyed phase checks the sink's claim count against
//! the table and reads its resize counter, and an epoch phase drives a
//! `VersionedDsu` through a guarded burst trace (snapshot before every
//! burst, one rollback, one rejected speculative batch) and checks the
//! structure's snapshot and rollback counters and the store's
//! copy-on-write report. Those layer counters live on their structures,
//! not in `OpStats`.
//!
//! Run: `cargo run --release -p dsu-bench --example store_diag [log2_n]`

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::{
    Dsu, DsuStore, FaultPlan, FaultyStore, FlatStore, KeyedDsu, OpStats, PackedStore, TwoTrySplit,
    VersionedDsu,
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
         links_ok {} links_fail {} hops/find {:.3}",
        total,
        finds,
        stats.loop_iters,
        stats.reads,
        stats.compact_cas_ok,
        stats.compact_cas_fail,
        stats.links_ok,
        stats.links_fail,
        stats.hops_per_find()
    );
    println!(
        "{label}: ingest batch {:>12?} reads {} links_ok {}",
        batch_ingest, batch_stats.reads, batch_stats.links_ok
    );
    // Fault attribution: the same mixed workload through a FaultyStore at
    // a fixed rate. The store's fault report (charged by the plan) sits
    // next to cas_retries (paid by the retry loops); single-threaded,
    // every spurious CAS failure on the link CAS is exactly one retry.
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
    println!(
        "{label}: faulted mixed {:>12?} (rate 0.2) | faults_injected {} (cas {} load {} stall {}) \
         cas_retries {} links_fail {}",
        faulted_total,
        report.total(),
        report.spurious_cas_failures,
        report.delayed_loads,
        report.stalls,
        fault_stats.cas_retries,
        fault_stats.links_fail
    );
    assert!(report.total() > 0, "{label}: fault phase injected nothing");
    assert_eq!(
        fault_stats.cas_retries, fault_stats.links_fail,
        "{label}: single-threaded, every failed link is exactly one retry"
    );
}

/// Keyed attribution: a sparse-u64 entity-resolution trace through the
/// lock-free id table, with the keyed counters splitting key-table work
/// (probes, claims) from the set operations underneath. Every insert is
/// charged exactly once, every probe step is attributed, and the table
/// counts its own growth.
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
        dsu.id_table_resizes(),
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
    assert!(dsu.id_table_resizes() > 0, "{label}: this trace must outgrow the first table");
    assert!(
        stats.key_probe_steps >= 2 * trace.ops.len() as u64,
        "{label}: two key resolutions per op minimum"
    );
}

/// Epoch attribution: a versioned burst trace with a guard point before
/// every burst, one explicit rollback, and one validator-rejected
/// speculative batch, checked against the structure's own snapshot and
/// rollback counters and the store's fork report. (On unversioned runs
/// the fork report is exactly zero, which `tests/layer_contracts.rs`
/// asserts; this phase is where it earns its nonzero values.)
fn epochs() {
    let n = 1 << 15;
    let trace = dsu_bench::standard_edge_batches(n, 16, 1024, 1.1);
    let mut dsu: VersionedDsu = VersionedDsu::with_initial(n);
    let t0 = Instant::now();
    let mut guards = Vec::new();
    for burst in &trace.batches {
        guards.push(dsu.snapshot());
        dsu.unite_batch(burst);
    }
    // Roll the last burst off, then reject a speculative one (its
    // internal snapshot + rollback count like the explicit ones).
    let last = *guards.last().expect("at least one burst");
    dsu.rollback(last);
    let edges: Vec<(usize, usize)> = (0..512).map(|i| (i, n - 1 - i)).collect();
    let outcome = dsu.try_unite_batch(&edges, |_, _| false);
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
    assert_eq!(dsu.snapshots_taken(), trace.batches.len() as u64 + 1, "one guard per burst + 1");
    assert_eq!(dsu.rollbacks(), 2, "the explicit rollback + the rejected batch");
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
