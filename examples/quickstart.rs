//! Quickstart: concurrent disjoint set union across threads.
//!
//! Eight threads race to union a ring of `n` elements (each takes every
//! 8th edge) and query connectivity while the structure is under mutation. No locks, no
//! coordination — the wait-free guarantees of Jayanti & Tarjan (PODC 2016)
//! do all the work.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Where to go next:
//! - `ARCHITECTURE.md` — the crate map and how the layers stack
//!   (stores → decorators → `Dsu` → batch/keyed), plus the
//!   "where to add X" guide.
//! - `docs/benchmarks.md` — every measured claim (the wins *and* the
//!   honest negatives) with its archived JSON artifact.
//! - `examples/keyed_dedup.rs` — string keys instead of dense indices:
//!   the `KeyedDsu` entity-resolution layer (see below).
//! - Configuration is type parameters, constructor arguments and three
//!   cargo features; nothing reads environment variables (see the
//!   `concurrent_dsu` crate docs, `crates/core/src/lib.rs`).

use jt_dsu::concurrent_dsu::{DefaultStore, UnionForest};
use jt_dsu::{Dsu, OpStats, TwoTrySplit};
use std::thread;

fn main() {
    let n = 1_000_000;
    // Defaults: two-try splitting (the paper's best find variant) on the
    // packed store — parent and random id in one 64-bit word per element,
    // so a find reads both in one load. Packing caps the universe at 2^32
    // elements; for more, pick the flat layout explicitly:
    // `let dsu: Dsu<TwoTrySplit, FlatStore> = Dsu::new(n);`
    //
    // The store here is wrapped in `UnionForest`, a decorator that also
    // records each link (one more word per element) so the height of the
    // union forest — the links alone, compaction ignored — can be printed
    // below. A plain `Dsu` (`let dsu: Dsu = Dsu::new(n);`) keeps no such
    // record.
    let dsu: Dsu<TwoTrySplit, UnionForest<DefaultStore>> = Dsu::new(n);

    println!("uniting a ring of {n} elements on 8 threads…");
    let start = std::time::Instant::now();
    thread::scope(|s| {
        for t in 0..8 {
            let dsu = &dsu;
            s.spawn(move || {
                // Each thread takes every 8th ring edge; edges overlap in
                // elements, so threads constantly contend — safely.
                for i in (t..n - 1).step_by(8) {
                    dsu.unite(i, i + 1);
                }
                // Interleaved queries are linearizable: once true, a
                // same_set answer can never revert.
                assert!(dsu.same_set(t, t + 1));
            });
        }
    });
    let elapsed = start.elapsed();

    assert!(dsu.same_set(0, n - 1));
    assert_eq!(dsu.set_count(), 1);
    println!(
        "done in {:.1} ms — {} elements in {} set (height of union forest: {})",
        elapsed.as_secs_f64() * 1e3,
        n,
        dsu.set_count(),
        dsu.store().height(),
    );

    // Instrumentation: count the work of a single query on the forest the
    // threads left (their finds compacted some paths; nothing else did).
    let mut stats = OpStats::default();
    dsu.same_set_with(0, n / 2, &mut stats);
    println!(
        "one same_set(0, n/2) on the threads' forest: {} find-loop iters, {} reads, {} CASes",
        stats.loop_iters,
        stats.reads,
        stats.cas_attempts(),
    );

    // Elements that aren't dense integers? `jt_dsu::KeyedDsu` maps any
    // hashable key (strings, sparse u64s, row keys) to dense ids through
    // a lock-free id table over the same core:
    let keyed: jt_dsu::KeyedDsu<String> = jt_dsu::KeyedDsu::new();
    keyed.merge_keys(&"user:42".to_string(), &"email:x@example.com".to_string());
    assert!(keyed.same_set(&"email:x@example.com".to_string(), &"user:42".to_string()));
    // (`cargo run --release --example keyed_dedup` for the full story.)

    // Need an undo button? `VersionedDsu` wraps the growable core with
    // O(1) copy-on-write snapshots: `snapshot()` records the live
    // segments and bumps an epoch; only the first post-snapshot write to
    // each segment pays a fork, and `rollback` restores the forest
    // *bit-identically*. Snapshot handles also answer time-travel
    // queries while newer unites land.
    let mut versioned: jt_dsu::VersionedDsu = jt_dsu::VersionedDsu::with_initial(8);
    versioned.unite(0, 1);
    let guard = versioned.snapshot();
    versioned.unite(2, 3);
    assert!(versioned.same_set(2, 3));
    assert!(!versioned.same_set_at(guard, 2, 3)); // the past is frozen
    versioned.rollback(guard);
    assert!(versioned.same_set(0, 1) && !versioned.same_set(2, 3)); // undone

    // Untrusted upstream data? `try_unite_batch` ingests a whole batch
    // speculatively and lets a validator accept or reject the result —
    // rejection rolls the entire batch back as if it never happened:
    let outcome = versioned.try_unite_batch(&[(4, 5), (5, 6)], |_, linked| linked == 2);
    assert!(outcome.is_committed() && versioned.same_set(4, 6));
    let poisoned = versioned.try_unite_batch(&[(6, 7), (0, 4)], |dsu, _| !dsu.same_set(0, 5));
    assert!(!poisoned.is_committed() && !versioned.same_set(6, 7));
    // (A rolling guard is `snapshot()` then `drop_snapshot(previous)`
    // before each batch; unversioned structures pay zero for any of
    // this. `crates/graph`'s `percolation_threshold_versioned` shows the
    // payoff: exact thresholds via binary search over snapshot forks.)

    // Want to see the same run survive an adversary? Wrap any store in
    // `jt_dsu::concurrent_dsu::FaultyStore` to inject spurious CAS
    // failures, delayed loads, and stall windows from a seeded
    // `FaultPlan` — every verdict above must stay bit-identical, only
    // slower. `FaultyStore::with_plan(store, FaultPlan::rate(seed, 0.2))`
    // builds one, and the `chaos_ab` example
    // (`cargo run --release -p dsu-bench --example chaos_ab -- --quick true`)
    // sweeps fault rates × layouts × threads, checking recorded histories
    // for linearizability as it goes.
}
