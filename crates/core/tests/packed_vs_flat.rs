//! Layout cross-checks: `Dsu<_, PackedStore>` and `Dsu<_, FlatStore>` are
//! observationally identical, and the growable layout matches the oracle.
//!
//! Both layouts derive ids from the same `hashed_id(index, seed)` and order
//! by the `(id, index)` key, so for any seed and single-threaded operation
//! sequence every return value, the set count, and the final partition
//! must agree *exactly* — packing is a layout optimization, never a
//! semantic one. These tests run
//! under both the default per-access orderings and `--features strict-sc`
//! (CI's matrix runs every layout under both), which is what justifies the
//! relaxed orderings empirically on top of the argument in
//! `src/store/mod.rs`.
//!
//! The multi-threaded stress tests exercise the relaxed link / compaction
//! CAS paths specifically: concurrent unites force link CASes to race with
//! splitting CASes on the same words, and the confluence of set union lets
//! us check the final partition against a sequential oracle no matter how
//! the interleaving went.

use concurrent_dsu::{
    Dsu, DsuStore, FindPolicy, FlatStore, GrowableDsu, PackedStore, TestWatchdog, TwoTrySplit,
    UnionForest,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
enum Op {
    Unite(usize, usize),
    SameSet(usize, usize),
    UniteEarly(usize, usize),
    SameSetEarly(usize, usize),
}

fn ops_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..n, 0..n, 0..4usize).prop_map(|(x, y, k)| match k {
            0 => Op::Unite(x, y),
            1 => Op::SameSet(x, y),
            2 => Op::UniteEarly(x, y),
            _ => Op::SameSetEarly(x, y),
        }),
        1..max_len,
    )
}

fn apply<F: FindPolicy, S: DsuStore>(dsu: &Dsu<F, S>, op: Op) -> bool {
    match op {
        Op::Unite(x, y) => dsu.unite(x, y),
        Op::SameSet(x, y) => dsu.same_set(x, y),
        Op::UniteEarly(x, y) => dsu.unite_early(x, y),
        Op::SameSetEarly(x, y) => dsu.same_set_early(x, y),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed and flat layouts agree with each other and
    /// with the sequential oracle on every observable of every operation —
    /// find roots, same-set verdicts, unite verdicts, set counts,
    /// partitions, and union forests.
    #[test]
    fn all_layouts_agree(ops in ops_strategy(24, 120), seed in any::<u64>()) {
        let n = 24;
        let packed: Dsu<TwoTrySplit, UnionForest<PackedStore>> = Dsu::with_seed(n, seed);
        let flat: Dsu<TwoTrySplit, UnionForest<FlatStore>> = Dsu::with_seed(n, seed);
        let mut oracle = NaiveDsu::new(n);
        for &op in &ops {
            let (p, f) = (apply(&packed, op), apply(&flat, op));
            prop_assert_eq!(p, f, "{:?} diverged between packed and flat", op);
            let expected = match op {
                Op::Unite(x, y) | Op::UniteEarly(x, y) => oracle.unite(x, y),
                Op::SameSet(x, y) | Op::SameSetEarly(x, y) => oracle.same_set(x, y),
            };
            prop_assert_eq!(p, expected, "{:?} diverged from the oracle", op);
        }
        prop_assert_eq!(packed.set_count(), oracle.set_count());
        prop_assert_eq!(flat.set_count(), oracle.set_count());
        // Same find roots for every element at quiescence.
        for x in 0..n {
            prop_assert_eq!(packed.find(x), flat.find(x));
        }
        let canonical = Partition::from_labels(&packed.labels_snapshot());
        prop_assert_eq!(&canonical, &Partition::from_labels(&flat.labels_snapshot()));
        // Identical ids imply identical linking decisions, hence identical
        // union forests, not just identical partitions.
        prop_assert_eq!(packed.store().forest(), flat.store().forest());
    }

    /// The growable layout matches the oracle on every operation.
    #[test]
    fn growable_matches_oracle(ops in ops_strategy(16, 100), seed in any::<u64>()) {
        let n = 16;
        let dsu: GrowableDsu = GrowableDsu::with_seed(seed);
        let mut oracle = NaiveDsu::new(n);
        for _ in 0..n {
            dsu.make_set();
        }
        for &op in &ops {
            let (expected, got) = match op {
                Op::Unite(x, y) => (oracle.unite(x, y), dsu.unite(x, y)),
                Op::UniteEarly(x, y) => (oracle.unite(x, y), dsu.unite_early(x, y)),
                Op::SameSet(x, y) => (oracle.same_set(x, y), dsu.same_set(x, y)),
                Op::SameSetEarly(x, y) => (oracle.same_set(x, y), dsu.same_set_early(x, y)),
            };
            prop_assert_eq!(got, expected, "growable diverged on {:?}", op);
        }
        prop_assert_eq!(dsu.set_count(), oracle.set_count());
        prop_assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    }
}

/// Concurrent stress on the relaxed link/compaction CASes of both
/// layouts: the final partition must equal the connected components of the
/// unite pairs (set union is confluent), and ids must still strictly
/// increase along every parent path (Lemma 3.1).
#[test]
fn concurrent_stress_matches_components_all_layouts() {
    let n = 1 << 12;
    let threads = 8;
    // A progress bug (livelocked retry loop, lost wakeup) should hang for
    // seconds and dump progress, not eat the CI job's whole time limit.
    let progress = Arc::new(AtomicUsize::new(0));
    let _wd = TestWatchdog::arm_with(
        "concurrent_stress_matches_components_all_layouts",
        Duration::from_secs(120),
        {
            let progress = Arc::clone(&progress);
            move || format!("ops completed before hang: {}", progress.load(Ordering::Relaxed))
        },
    );
    let pairs: Vec<(usize, usize)> =
        (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 7) % n)).collect();
    // RandomLink pinned: the Lemma 3.1 id asserts at the bottom are about
    // *random ids*, which the `default-link-index` CI cell would otherwise
    // retarget.
    use concurrent_dsu::RandomLink;
    let packed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, 99);
    let flat: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, 99);
    for dsu_run in 0..2 {
        std::thread::scope(|s| {
            for t in 0..threads {
                let packed = &packed;
                let flat = &flat;
                let pairs = &pairs;
                let progress = &progress;
                s.spawn(move || {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        if i % threads != t {
                            continue;
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                        // Mix queries in so compaction CASes race links.
                        if dsu_run == 0 {
                            packed.unite(x, y);
                            packed.same_set(y, x);
                        } else {
                            flat.unite(x, y);
                            flat.same_set(y, x);
                        }
                    }
                });
            }
        });
    }
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &pairs {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&packed.labels_snapshot()), oracle.partition());
    assert_eq!(Partition::from_labels(&flat.labels_snapshot()), oracle.partition());
    assert_eq!(packed.set_count(), oracle.set_count());
    assert_eq!(flat.set_count(), oracle.set_count());
    // Lemma 3.1 on both layouts: every non-root's `(id, index)` key is
    // below its parent's, whatever interleaving the relaxed CASes went
    // through.
    fn ids_increase<S: DsuStore>(dsu: &Dsu<TwoTrySplit, S, concurrent_dsu::RandomLink>) {
        for (x, &p) in dsu.parents_snapshot().iter().enumerate() {
            if p != x {
                assert!((dsu.id_of(x), x) < (dsu.id_of(p), p));
            }
        }
    }
    ids_increase(&packed);
    ids_increase(&flat);
}

/// Concurrent growth + churn on the growable layout.
#[test]
fn growable_concurrent_stress() {
    let _wd = TestWatchdog::arm("growable_concurrent_stress", Duration::from_secs(120));
    let dsu: GrowableDsu = GrowableDsu::new();
    let threads = 8;
    let per_thread = 1500;
    std::thread::scope(|s| {
        for t in 0..threads {
            let dsu = &dsu;
            s.spawn(move || {
                let mut mine = Vec::new();
                for i in 0..per_thread {
                    let e = dsu.make_set();
                    mine.push(e);
                    if mine.len() >= 2 {
                        let a = mine[(i * 31 + t) % mine.len()];
                        let b = mine[(i * 17 + 1) % mine.len()];
                        dsu.unite(a, b);
                        dsu.same_set(b, a);
                    }
                }
            });
        }
    });
    assert_eq!(dsu.len(), threads * per_thread);
    // Labels must form a consistent partition.
    let _ = Partition::from_labels(&dsu.labels_snapshot());
    assert!(dsu.set_count() >= 1 && dsu.set_count() <= dsu.len());
}
