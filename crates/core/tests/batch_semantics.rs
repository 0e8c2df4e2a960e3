//! Batch-ingestion semantics: `unite_batch` is observationally identical to
//! a one-at-a-time `unite` loop.
//!
//! The batch path (`src/bulk.rs`) reorders work internally — gather waves,
//! a filter step, seeded link CASes, a retry fallback — but almost none of
//! that may be visible: single-threaded, the per-edge verdicts, the link
//! count, the set count, and the final partition must match the per-op
//! execution edge for edge, on both parent-store layouts. (The one
//! permitted difference is the union forest's shape — see the note inside
//! `batch_matches_sequential_unite`.) These tests run under the default
//! per-access orderings and under `--features strict-sc` (CI runs both),
//! the same dual configuration the packed-vs-flat cross-checks use.

use concurrent_dsu::{
    Dsu, FlatStore, GrowableDsu, PackedStore, RandomLink, TwoTrySplit, UnionForest,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};

fn edges_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary edge lists, batched ingestion produces the same
    /// per-edge verdicts and the same partition as sequential per-op
    /// `unite`, on both layouts (packed, flat).
    #[test]
    fn batch_matches_sequential_unite(edges in edges_strategy(24, 200), seed in any::<u64>()) {
        let n = 24;
        // RandomLink pinned throughout (reference and batch sides alike):
        // the id asserts at the bottom are about *random ids*, which the
        // `default-link-index` CI cell would otherwise retarget.
        let packed_batch: Dsu<TwoTrySplit, UnionForest<PackedStore>, RandomLink> =
            Dsu::with_seed(n, seed);
        let flat_batch: Dsu<TwoTrySplit, UnionForest<FlatStore>, RandomLink> =
            Dsu::with_seed(n, seed);
        let per_op: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, seed);
        let mut oracle = NaiveDsu::new(n);

        let packed_results = packed_batch.unite_batch_results(&edges);
        let flat_results = flat_batch.unite_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
        let oracle_results: Vec<bool> = edges.iter().map(|&(x, y)| oracle.unite(x, y)).collect();

        prop_assert_eq!(&packed_results, &expected, "packed batch diverged from per-op");
        prop_assert_eq!(&flat_results, &expected, "flat batch diverged from per-op");
        prop_assert_eq!(&expected, &oracle_results, "per-op diverged from the naive oracle");

        prop_assert_eq!(packed_batch.set_count(), oracle.set_count());
        prop_assert_eq!(flat_batch.set_count(), oracle.set_count());
        prop_assert_eq!(
            Partition::from_labels(&packed_batch.labels_snapshot()),
            oracle.partition()
        );
        prop_assert_eq!(
            Partition::from_labels(&flat_batch.labels_snapshot()),
            oracle.partition()
        );
        // Identical ids and the same deterministic batch schedule imply
        // identical union forests across *layouts*. (The forest may differ
        // from the per-op run's: a batch link may attach a root under a
        // node an earlier link of the same wave already demoted — paper
        // Algorithm 7's "link under any larger-id node" case — which
        // changes the forest shape but never the partition.)
        prop_assert_eq!(packed_batch.store().forest(), flat_batch.store().forest());
        // `(id, index)` keys still strictly increase along every
        // batch-built parent path.
        let parents = packed_batch.parents_snapshot();
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                prop_assert!((packed_batch.id_of(x), x) < (packed_batch.id_of(p), p));
            }
        }
    }

    /// The link count returned by `unite_batch` equals the number of `true`
    /// verdicts, however the edges are split into sub-batches.
    #[test]
    fn batch_splitting_is_invisible(edges in edges_strategy(16, 120), split in 1..40usize) {
        let n = 16;
        let whole: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, 7);
        let split_dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, 7);
        let whole_links = whole.unite_batch(&edges);
        let mut split_links = 0;
        for chunk in edges.chunks(split) {
            split_links += split_dsu.unite_batch(chunk);
        }
        prop_assert_eq!(whole_links, split_links);
        prop_assert_eq!(whole.set_count(), split_dsu.set_count());
        prop_assert_eq!(
            Partition::from_labels(&whole.labels_snapshot()),
            Partition::from_labels(&split_dsu.labels_snapshot())
        );
    }

    /// The growable structure's batch path agrees with its per-op path.
    #[test]
    fn growable_batch_matches_per_op(edges in edges_strategy(16, 100), seed in any::<u64>()) {
        let batched: GrowableDsu = GrowableDsu::with_seed(seed);
        let per_op: GrowableDsu = GrowableDsu::with_seed(seed);
        for _ in 0..16 {
            batched.make_set();
            per_op.make_set();
        }
        let results = batched.unite_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
        prop_assert_eq!(results, expected);
        prop_assert_eq!(batched.set_count(), per_op.set_count());
    }
}

/// Concurrent batch ingestion: threads race `unite_batch` calls over
/// shuffled sub-batches; the final partition must equal the connected
/// components of the whole edge set (set union is confluent), on both
/// layouts, and the returned link counts must sum to the total number of
/// links performed.
#[test]
fn concurrent_batches_match_components_oracle() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "concurrent_batches_match_components_oracle",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 11;
    let edges: Vec<(usize, usize)> =
        (0..4 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 11) % n)).collect();
    // RandomLink pinned: the Lemma 3.1 id assert below must not float with
    // the `default-link-index` feature.
    let packed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, 3);
    let flat: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, 3);
    let links = AtomicUsize::new(0);
    for run in 0..2 {
        std::thread::scope(|s| {
            for chunk in edges.chunks(edges.len() / 8 + 1) {
                let packed = &packed;
                let flat = &flat;
                let links = &links;
                s.spawn(move || {
                    let l =
                        if run == 0 { packed.unite_batch(chunk) } else { flat.unite_batch(chunk) };
                    links.fetch_add(l, Ordering::Relaxed);
                });
            }
        });
    }
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &edges {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&packed.labels_snapshot()), oracle.partition());
    assert_eq!(Partition::from_labels(&flat.labels_snapshot()), oracle.partition());
    assert_eq!(packed.set_count(), oracle.set_count());
    assert_eq!(flat.set_count(), oracle.set_count());
    // Each layout's run performed exactly n - set_count links in total.
    assert_eq!(links.load(Ordering::Relaxed), 2 * (n - oracle.set_count()));
    // Lemma 3.1 survives the batch path's seeded CASes.
    let parents = packed.parents_snapshot();
    for (x, &p) in parents.iter().enumerate() {
        if p != x {
            assert!((packed.id_of(x), x) < (packed.id_of(p), p));
        }
    }
}

/// Mixed ingestion: per-op and batched calls racing on the same structure
/// still yield the oracle partition.
#[test]
fn mixed_per_op_and_batched_ingestion() {
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "mixed_per_op_and_batched_ingestion",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 10;
    let edges: Vec<(usize, usize)> =
        (0..3 * n).map(|i| ((i * 7919) % n, (i * 104729 + 5) % n)).collect();
    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(n);
    std::thread::scope(|s| {
        for (t, chunk) in edges.chunks(edges.len() / 6 + 1).enumerate() {
            let dsu = &dsu;
            s.spawn(move || {
                if t % 2 == 0 {
                    dsu.unite_batch(chunk);
                } else {
                    for &(x, y) in chunk {
                        dsu.unite(x, y);
                    }
                }
            });
        }
    });
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &edges {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    assert_eq!(dsu.set_count(), oracle.set_count());
}
