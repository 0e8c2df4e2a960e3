//! Flatten-pass semantics: a sweep changes tree *shape*, never any
//! verdict.
//!
//! The flatten pass (`src/flatten.rs`) pointer-jumps elements to their
//! grandparents with the same observed-word CAS discipline as in-path
//! compaction, so its safety argument is Lemma 3.1's: every parent change
//! replaces a parent with a proper union-forest ancestor. What must hold —
//! and is therefore proptested and stress-tested here, on every fixed
//! layout and the growable one (the CI store/ordering matrix re-runs this
//! suite under `--features strict-sc` and the non-default stores) — is:
//!
//! 1. **Verdict equivalence.** `unite` / `same_set` streams interleaved
//!    with sweeps agree op-for-op with the sequential oracle, and a
//!    sweep racing concurrent unites leaves exactly the partition the
//!    edges imply.
//! 2. **Quiesced depth ≤ 1.** After a sweep with no concurrent writers,
//!    every parent is a root: steady-state finds are O(1).
//! 3. **Chaos.** Both properties survive a `FaultyStore` injecting
//!    spurious CAS failures and delayed loads under the sweep.

use concurrent_dsu::{
    Dsu, DsuStore, FaultPlan, FaultyStore, FlatStore, GrowableDsu, PackedStore, RankedStore,
    TestWatchdog, TwoTrySplit,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};
use std::time::Duration;

/// Max walk length to a root over a quiesced parent snapshot.
fn max_depth(parent: &[usize]) -> usize {
    (0..parent.len())
        .map(|i| {
            let mut u = i;
            let mut d = 0;
            while parent[u] != u {
                u = parent[u];
                d += 1;
                assert!(d <= parent.len(), "cycle through {i}");
            }
            d
        })
        .max()
        .unwrap_or(0)
}

/// One layout's single-threaded run of an op stream with sweeps mixed in,
/// checked op-for-op against the oracle, then swept once more at
/// quiescence and checked for depth ≤ 1.
fn exercise_layout<S: DsuStore>(ops: &[(usize, usize, u8)], n: usize, seed: u64) {
    let dsu: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, seed);
    let mut oracle = NaiveDsu::new(n);
    for (i, &(x, y, kind)) in ops.iter().enumerate() {
        match kind {
            0 => assert_eq!(dsu.unite(x, y), oracle.unite(x, y), "{}: unite @{i}", S::NAME),
            1 => {
                assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y), "{}: same_set @{i}", S::NAME)
            }
            // A sweep between any two operations must be invisible.
            _ => dsu.flatten(),
        }
    }
    dsu.flatten();
    assert!(max_depth(&dsu.parents_snapshot()) <= 1, "{}: quiesced sweep left depth", S::NAME);
    assert_eq!(
        Partition::from_labels(&dsu.labels_snapshot()),
        oracle.partition(),
        "{}: partition diverged",
        S::NAME
    );
}

fn ops_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    prop::collection::vec((0..n, 0..n, 0..3u8), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sweeps interleaved anywhere in an op stream never change a verdict,
    /// on every fixed-universe layout (ranked included: flatten's CAS goes
    /// through the packed rank+parent word there).
    #[test]
    fn flatten_is_invisible_to_verdicts(ops in ops_strategy(24, 120), seed in any::<u64>()) {
        exercise_layout::<PackedStore>(&ops, 24, seed);
        exercise_layout::<FlatStore>(&ops, 24, seed);
        exercise_layout::<RankedStore>(&ops, 24, seed);
    }

    /// Same statement for the growable layout, with make_sets mixed into
    /// the stream so sweeps run against a universe that grows under them.
    #[test]
    fn growable_flatten_is_invisible(ops in ops_strategy(16, 100), seed in any::<u64>()) {
        let dsu: GrowableDsu = GrowableDsu::with_seed(seed);
        let mut oracle = NaiveDsu::new(16);
        for _ in 0..16 {
            dsu.make_set();
        }
        // The stream only touches 0..16; elements made after a sweep stay
        // singletons, so they offset set_count exactly.
        let mut extra = 0usize;
        for &(x, y, kind) in &ops {
            match kind {
                0 => prop_assert_eq!(dsu.unite(x, y), oracle.unite(x, y)),
                1 => prop_assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y)),
                _ => {
                    dsu.flatten();
                    // Grow mid-stream: sweeps must keep ignoring indices
                    // beyond their len snapshot.
                    dsu.make_set();
                    extra += 1;
                }
            }
        }
        prop_assert_eq!(dsu.set_count(), oracle.set_count() + extra);
    }
}

/// Concurrent stress: writer threads race per-op unites and queries while
/// a maintenance thread sweeps continuously (alternating sequential and
/// parallel sweeps). The final partition must equal the oracle's, link
/// verdicts must balance exactly, and Lemma 3.1's id ordering must hold on
/// the final parents — a flatten jump writes a *grandparent*, which the
/// lemma says is id-above the parent it replaces.
#[test]
fn flatten_races_unites_on_every_layout() {
    let _wd = TestWatchdog::arm("flatten_races_unites_on_every_layout", Duration::from_secs(120));
    fn run<S: DsuStore>() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 1 << 10;
        // RandomLink pinned: the id-ordering assert below is about random
        // ids, which the `default-link-index` CI cell would retarget.
        let dsu: Dsu<TwoTrySplit, S, concurrent_dsu::RandomLink> = Dsu::with_seed(n, 9);
        let edges: Vec<(usize, usize)> =
            (0..6 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 11) % n)).collect();
        let links = AtomicUsize::new(0);
        let chunks: Vec<_> = edges.chunks(edges.len() / 4 + 1).collect();
        let writers = AtomicUsize::new(chunks.len());
        std::thread::scope(|s| {
            for chunk in chunks {
                let dsu = &dsu;
                let links = &links;
                let writers = &writers;
                s.spawn(move || {
                    let mut local = 0;
                    for (i, &(x, y)) in chunk.iter().enumerate() {
                        if i % 3 == 0 {
                            dsu.same_set(x, y);
                        } else {
                            local += dsu.unite(x, y) as usize;
                        }
                    }
                    links.fetch_add(local, Ordering::Relaxed);
                    writers.fetch_sub(1, Ordering::Release);
                });
            }
            {
                let dsu = &dsu;
                let writers = &writers;
                // The sweeper runs until every writer has retired, so
                // sweeps genuinely overlap the whole unite stream.
                s.spawn(move || {
                    let mut sweeps = 0usize;
                    while writers.load(Ordering::Acquire) > 0 {
                        if sweeps.is_multiple_of(2) {
                            dsu.flatten();
                        } else {
                            dsu.flatten_parallel(2);
                        }
                        sweeps += 1;
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
        assert_eq!(links.load(Ordering::Relaxed), n - oracle.set_count());
        // Lemma 3.1 (on the `(id, index)` key) survives grandparent jumps.
        let parents = dsu.parents_snapshot();
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                assert!((dsu.id_of(x), x) < (dsu.id_of(p), p), "key inversion {x} -> {p}");
            }
        }
        // And a final quiesced sweep reaches the O(1)-find state.
        dsu.flatten();
        assert!(max_depth(&dsu.parents_snapshot()) <= 1, "{}", S::NAME);
    }
    run::<PackedStore>();
    run::<FlatStore>();
    run::<RankedStore>();
}

/// The growable counterpart: sweeps race unites *and* make_sets, so the
/// sweep's len snapshot is perpetually stale. Everything it skips is a
/// not-yet-linked singleton, so no verdict can change.
#[test]
fn flatten_races_growth() {
    let _wd = TestWatchdog::arm("flatten_races_growth", Duration::from_secs(120));
    let dsu: GrowableDsu = GrowableDsu::new();
    let base = 1 << 9;
    for _ in 0..base {
        dsu.make_set();
    }
    std::thread::scope(|s| {
        {
            let dsu = &dsu;
            s.spawn(move || {
                for i in 0..base - 1 {
                    dsu.unite(i, i + 1);
                    if i % 64 == 0 {
                        dsu.make_set();
                    }
                }
            });
        }
        {
            let dsu = &dsu;
            s.spawn(move || {
                for _ in 0..32 {
                    dsu.flatten();
                    dsu.flatten_parallel(2);
                }
            });
        }
    });
    assert!(dsu.same_set(0, base - 1));
    dsu.flatten();
    let fresh = dsu.make_set();
    assert!(!dsu.same_set(0, fresh), "a post-sweep make_set must be a singleton");
}

/// Chaos cell: the race above on a `FaultyStore` injecting spurious CAS
/// failures, delayed loads, and stalls into every path — sweeps included.
/// A spurious failure at a flatten CAS just re-runs the jump; nothing may
/// change verdicts or the final partition.
#[test]
fn flatten_races_unites_under_faults() {
    let _wd = TestWatchdog::arm("flatten_races_unites_under_faults", Duration::from_secs(120));
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = 1 << 9;
    let dsu: Dsu<TwoTrySplit, FaultyStore<PackedStore>> = Dsu::from_store(FaultyStore::with_plan(
        PackedStore::with_seed(n, 0xF1A7),
        FaultPlan::rate(0xF1A7, 0.05),
    ));
    let edges: Vec<(usize, usize)> =
        (0..4 * n).map(|i| ((i * 7919) % n, (i * 104729 + 5) % n)).collect();
    let chunks: Vec<_> = edges.chunks(edges.len() / 3 + 1).collect();
    let writers = AtomicUsize::new(chunks.len());
    std::thread::scope(|s| {
        for chunk in chunks {
            let dsu = &dsu;
            let writers = &writers;
            s.spawn(move || {
                for &(x, y) in chunk {
                    dsu.unite(x, y);
                }
                writers.fetch_sub(1, Ordering::Release);
            });
        }
        {
            let dsu = &dsu;
            let writers = &writers;
            s.spawn(move || {
                while writers.load(Ordering::Acquire) > 0 {
                    dsu.flatten();
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
    assert!(dsu.store().fault_report().total() > 0, "chaos cell must actually inject");
    dsu.flatten();
    assert!(max_depth(&dsu.parents_snapshot()) <= 1);
}
