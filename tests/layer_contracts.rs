//! One seeded contract smoke per layer of the stack, each checked against
//! a sequential `SeqDsu` oracle: the plain `Dsu` (per-op and both batch
//! entry points), `Dsu` on the growable store (growth plus a batch),
//! `VersionedDsu` (snapshot, mutate, roll back), `KeyedDsu` (the keyed
//! batch paths), and `TunedDsu` on both sides of the universe size that
//! picks its variant. One more contract covers what the unversioned
//! growable layers share with `VersionedDsu`: the epoch store underneath,
//! which they must never fork.
//! Another pins the id function every store shares: for one seed, a fixed
//! `Dsu`, a bulk-built growable one and one grown by `make_set` are the
//! same structure. The semantics suites in `crates/core/tests` prove each
//! layer in depth; these keep every layer under the root crate's own test
//! run.

use std::collections::HashSet;

use jt_dsu::concurrent_dsu::{DsuStore, EpochFork, EpochReport, TunedDsu};
use jt_dsu::{Compaction, Dsu, GrowableDsu, KeyedDsu, Linking, Partition, SeqDsu, VersionedDsu};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn oracle(n: usize) -> SeqDsu {
    SeqDsu::new(n, Linking::ByRank, Compaction::Halving)
}

fn random_edges(rng: &mut ChaCha12Rng, n: usize, m: usize) -> Vec<(usize, usize)> {
    (0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect()
}

#[test]
fn dsu_per_op_and_batches_match_oracle() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x1A7E_0001);
    let n = 200;
    let dsu: Dsu = Dsu::with_seed(n, 1);
    let mut seq = oracle(n);
    for _ in 0..300 {
        let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if rng.gen_bool(0.5) {
            assert_eq!(dsu.unite(x, y), seq.unite(x, y), "unite({x}, {y})");
        } else {
            assert_eq!(dsu.same_set(x, y), seq.same_set(x, y), "same_set({x}, {y})");
        }
    }
    // Per-edge verdicts of a batch equal the oracle's one-at-a-time run.
    let burst = random_edges(&mut rng, n, 300);
    let expected: Vec<bool> = burst.iter().map(|&(x, y)| seq.unite(x, y)).collect();
    assert_eq!(dsu.unite_batch_results(&burst), expected);
    // The count-only entry point reports exactly the oracle's new links.
    let burst = random_edges(&mut rng, n, 300);
    let links = burst.iter().filter(|&&(x, y)| seq.unite(x, y)).count();
    assert_eq!(dsu.unite_batch(&burst), links);
    assert_eq!(dsu.set_count(), seq.set_count());
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), seq.partition());
}

/// Every store derives ids from the same `hashed_id(index, seed)` and
/// orders by `(id, index)`, so for one seed a fixed `Dsu`, a growable one
/// bulk-built with `n` elements and one grown to `n` by `make_set` link
/// identically. The two growable stores start bit-identical (same words,
/// same scan runs, including the empty and segment-straddling sizes);
/// then one seeded stream of unites and queries and one batch must give
/// equal verdicts, equal ids and equal parent forests, and growth must
/// continue at index `n`.
#[test]
fn dsu_and_grown_growable_are_the_same_structure() {
    let seed = 0x1A7E_0007;
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    for n in [0, 1, 2, 3, 512, 513] {
        let fixed: Dsu = Dsu::with_seed(n, seed);
        let bulk: GrowableDsu = GrowableDsu::with_seed(n, seed);
        let grown: GrowableDsu = GrowableDsu::with_seed(0, seed);
        for _ in 0..n {
            grown.make_set();
        }
        assert_eq!(bulk.store().raw_words(n), grown.store().raw_words(n), "n = {n}");
        assert_eq!(bulk.store().scan_runs(), grown.store().scan_runs(), "n = {n}");
        for x in 0..n {
            let id = fixed.id_of(x);
            assert_eq!((bulk.id_of(x), grown.id_of(x)), (id, id), "n = {n}: id of {x}");
        }
        for i in 0..if n > 0 { 600 } else { 0 } {
            let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if rng.gen_bool(0.5) {
                let want = fixed.unite(x, y);
                let got = (bulk.unite(x, y), grown.unite(x, y));
                assert_eq!(got, (want, want), "n = {n}, op {i}: unite({x}, {y})");
            } else {
                let want = fixed.same_set(x, y);
                let got = (bulk.same_set(x, y), grown.same_set(x, y));
                assert_eq!(got, (want, want), "n = {n}, op {i}: same_set({x}, {y})");
            }
        }
        let burst = if n > 0 { random_edges(&mut rng, n, 400) } else { Vec::new() };
        let want = fixed.unite_batch_results(&burst);
        assert_eq!(bulk.unite_batch_results(&burst), want, "n = {n}");
        assert_eq!(grown.unite_batch_results(&burst), want, "n = {n}");
        assert_eq!((bulk.set_count(), grown.set_count()), (fixed.set_count(), fixed.set_count()));
        let parents = fixed.parents_snapshot();
        assert_eq!(bulk.parents_snapshot(), parents, "n = {n}");
        assert_eq!(grown.parents_snapshot(), parents, "n = {n}");
        assert_eq!((bulk.make_set(), grown.make_set()), (n, n), "n = {n}: growth continues");
    }
}

#[test]
fn growable_make_set_and_batch_match_oracle() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x1A7E_0002);
    let cap = 256;
    let dsu: GrowableDsu = GrowableDsu::with_seed(0, 2);
    let mut seq = oracle(cap);
    for round in 0..4 {
        // Grow by a quarter of the capacity, then ingest a burst over
        // every element made so far.
        for _ in 0..cap / 4 {
            dsu.make_set();
        }
        let len = dsu.len();
        assert_eq!(len, (round + 1) * cap / 4);
        let burst = random_edges(&mut rng, len, len / 2);
        let links = burst.iter().filter(|&&(x, y)| seq.unite(x, y)).count();
        assert_eq!(dsu.unite_batch(&burst), links, "round {round}");
        let (x, y) = (rng.gen_range(0..len), rng.gen_range(0..len));
        assert_eq!(dsu.same_set(x, y), seq.same_set(x, y));
    }
    assert_eq!(dsu.set_count(), seq.set_count());
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), seq.partition());
}

#[test]
fn versioned_rollback_restores_the_partition() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x1A7E_0003);
    let n = 256;
    let mut dsu: VersionedDsu = VersionedDsu::with_initial(n);
    let mut seq = oracle(n);
    let burst = random_edges(&mut rng, n, 128);
    let links = burst.iter().filter(|&&(x, y)| seq.unite(x, y)).count();
    assert_eq!(dsu.unite_batch(&burst), links);
    let before = seq.partition();
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), before);

    let at = dsu.snapshot();
    // Mutate: more links and new elements after the snapshot.
    dsu.unite_batch(&random_edges(&mut rng, n, 256));
    for _ in 0..8 {
        let e = dsu.make_set();
        dsu.unite(e, rng.gen_range(0..n));
    }
    assert_ne!(Partition::from_labels(&dsu.labels_snapshot()), before, "mutation must show");

    dsu.rollback(at);
    assert_eq!(dsu.len(), n);
    assert_eq!(dsu.set_count(), seq.set_count());
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), before);
}

#[test]
fn keyed_batches_match_oracle() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x1A7E_0004);
    // Enough keys that the id table's 256-word first table doubles at
    // least four times (past 224, 448, 896 and 1792 keys), so the batch
    // paths resolve keys across migrations.
    let keys: Vec<String> = (0..4096).map(|i| format!("user-{i}@example.test")).collect();
    let dsu: KeyedDsu<String> = KeyedDsu::with_seed(4);
    // The oracle runs over key positions; `seen` mirrors which keys the
    // keyed structure has inserted (merges insert, queries never do).
    let mut seq = oracle(keys.len());
    let mut seen: HashSet<usize> = HashSet::new();
    for _ in 0..4 {
        let idx = random_edges(&mut rng, keys.len(), 1024);
        let pairs: Vec<(String, String)> =
            idx.iter().map(|&(a, b)| (keys[a].clone(), keys[b].clone())).collect();
        let links = idx.iter().filter(|&&(a, b)| seq.unite(a, b)).count();
        assert_eq!(dsu.merge_keys_batch(&pairs), links);
        for &(a, b) in &idx {
            seen.insert(a);
            seen.insert(b);
        }
        let queries = random_edges(&mut rng, keys.len(), 1024);
        let qpairs: Vec<(String, String)> =
            queries.iter().map(|&(a, b)| (keys[a].clone(), keys[b].clone())).collect();
        let expected: Vec<bool> = queries.iter().map(|&(a, b)| seq.same_set(a, b)).collect();
        assert_eq!(dsu.same_set_batch(&qpairs), expected);
    }
    assert_eq!(dsu.key_count(), seen.len());
    assert!(dsu.id_table_resizes() >= 4, "only {} doublings", dsu.id_table_resizes());
    // Keys never inserted are implicit singletons: each adds one set.
    assert_eq!(dsu.set_count() + (keys.len() - seen.len()), seq.set_count());
}

/// `TunedDsu` picks its variant from `n` alone: `halving/index` while the
/// parent array fits in 8 MiB (`n ≤ 2^20`), the paper default above that.
/// On each side of the boundary, a seeded op stream, a batch and the
/// labels must match the oracle.
#[test]
fn tuned_dsu_picks_its_variant_from_n_and_matches_oracle() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x1A7E_0005);
    for (n, variant) in [(1 << 20, "halving/index"), ((1 << 20) + 1, "two-try/random")] {
        let dsu = TunedDsu::new(n);
        assert_eq!(dsu.variant(), variant, "n = {n}");
        assert_eq!(dsu.len(), n);
        let mut seq = oracle(n);
        // Endpoints from the top 512 elements, so sets do merge and the
        // stream reaches the last index.
        let hot = n - 512..n;
        for i in 0..2000 {
            let (x, y) = (rng.gen_range(hot.clone()), rng.gen_range(hot.clone()));
            if rng.gen_bool(0.3) {
                assert_eq!(dsu.unite(x, y), seq.unite(x, y), "{variant}: unite #{i}");
            } else {
                assert_eq!(dsu.same_set(x, y), seq.same_set(x, y), "{variant}: same_set #{i}");
            }
        }
        let burst: Vec<(usize, usize)> =
            (0..512).map(|_| (rng.gen_range(hot.clone()), rng.gen_range(0..n))).collect();
        let links = burst.iter().filter(|&&(x, y)| seq.unite(x, y)).count();
        assert_eq!(dsu.unite_batch(&burst), links, "{variant}");
        assert_eq!(dsu.set_count(), seq.set_count(), "{variant}");
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), seq.partition(), "{variant}");
    }
}

/// `GrowableDsu` and `KeyedDsu` run on the same copy-on-write store as
/// `VersionedDsu`, and only `VersionedDsu`'s `&mut` transitions may move
/// its epoch. After threaded churn (growth, unites, queries, keyed merges
/// and batches) and a flatten sweep, both must still be at epoch 0 with
/// no copy-on-write work done.
#[test]
fn unversioned_structures_never_fork() {
    let dsu: GrowableDsu = GrowableDsu::new(64);
    let keyed: KeyedDsu<u64> = KeyedDsu::with_seed(6);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (dsu, keyed) = (&dsu, &keyed);
            s.spawn(move || {
                let mut rng = ChaCha12Rng::seed_from_u64(0x1A7E_0006 ^ t);
                for _ in 0..500 {
                    // Pair each new element with a pre-made one: another
                    // thread's fresh index may still be initializing.
                    let e = dsu.make_set();
                    dsu.unite(e, rng.gen_range(0..64));
                    dsu.same_set(e, rng.gen_range(0..64));
                    let (a, b) = (rng.gen_range(0..2048u64), rng.gen_range(0..2048u64));
                    keyed.merge_keys(&a, &b);
                    keyed.same_set(&b, &a);
                }
                keyed.merge_keys_batch(&[(t, t + 4096), (t + 4096, t + 8192)]);
            });
        }
    });
    dsu.flatten();
    keyed.dsu().flatten();
    assert_eq!(dsu.len(), 64 + 4 * 500);
    assert!(keyed.key_count() > 1024, "the keyed churn must have grown the store");
    for (layer, store) in [("growable", dsu.store()), ("keyed", keyed.dsu().store())] {
        assert_eq!(store.epoch_report(), EpochReport::default(), "{layer}: a write forked");
        assert_eq!(store.current_epoch(), 0, "{layer}: the epoch moved");
    }
}
