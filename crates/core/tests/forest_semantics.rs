//! Recorder oracle for the `UnionForest` decorator: the forest it records
//! must be exactly the union forest (links only, compaction ignored; paper
//! Section 3), on the packed and flat layouts. All runs are
//! single-threaded.
//!
//! * Under `NoCompaction` the parent forest changes only by links, so the
//!   recorded forest must equal `parents_snapshot()` exactly.
//! * `unite` and `unite_batch` link root under root, and compaction never
//!   changes which nodes are roots. A run with a compacting find policy
//!   must therefore record the same forest as the `NoCompaction` run on
//!   the same seed and stream, queries of both kinds included.
//! * `unite_early` (paper Algorithm 7) links a root under the *current
//!   node* of the other walk, which need not be a root. Compaction moves
//!   that walk, so its forest legitimately depends on the find policy.
//!   Each run's recorded forest must instead be consistent with that run's
//!   own parent forest: same roots, and every current parent a
//!   recorded-forest ancestor (Lemma 3.1's compaction clause).

use concurrent_dsu::{
    Compress, Dsu, DsuStore, FindPolicy, FlatStore, Halving, NoCompaction, OneTrySplit,
    PackedStore, RandomLink, TwoTrySplit, UnionForest,
};
use proptest::prelude::*;
use sequential_dsu::Partition;

#[derive(Debug, Clone, Copy)]
enum Op {
    Unite(usize, usize),
    UniteEarly(usize, usize),
    SameSet(usize, usize),
    SameSetEarly(usize, usize),
    /// One edge of a `unite_batch` call; consecutive batch edges form one
    /// batch.
    Batch(usize, usize),
}

type MakeOp = fn(usize, usize) -> Op;

/// The per-op operations, standard and early.
const PER_OP: &[MakeOp] = &[Op::Unite, Op::UniteEarly, Op::SameSet, Op::SameSetEarly];
/// Root-under-root links (per-op and batched) mixed with compacting queries.
const ROOT_LINKS: &[MakeOp] = &[Op::Unite, Op::Batch, Op::SameSet, Op::SameSetEarly];
/// Early unites mixed with compacting queries.
const EARLY: &[MakeOp] = &[Op::UniteEarly, Op::SameSet, Op::SameSetEarly];

const N: usize = 24;

fn ops_strategy(kinds: &'static [MakeOp]) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..kinds.len(), 0..N, 0..N).prop_map(move |(k, x, y)| kinds[k](x, y)),
        0..150,
    )
}

type Recorded<F, S> = Dsu<F, UnionForest<S>, RandomLink>;

/// Replays `ops` on a fresh recording structure and returns it.
fn replay<F: FindPolicy, S: DsuStore>(seed: u64, ops: &[Op]) -> Recorded<F, S> {
    let dsu: Recorded<F, S> = Dsu::with_seed(N, seed);
    let mut batch = Vec::new();
    for &op in ops {
        if let Op::Batch(x, y) = op {
            batch.push((x, y));
            continue;
        }
        dsu.unite_batch(&std::mem::take(&mut batch));
        match op {
            Op::Unite(x, y) => {
                dsu.unite(x, y);
            }
            Op::UniteEarly(x, y) => {
                dsu.unite_early(x, y);
            }
            Op::SameSet(x, y) => {
                dsu.same_set(x, y);
            }
            Op::SameSetEarly(x, y) => {
                dsu.same_set_early(x, y);
            }
            Op::Batch(..) => unreachable!(),
        }
    }
    dsu.unite_batch(&batch);
    dsu
}

/// Every link was recorded exactly once, pointing up the `(id, index)`
/// order: the forest has `len - set_count` non-root cells, each below its
/// recorded parent.
fn assert_links_recorded<F: FindPolicy, S: DsuStore>(dsu: &Recorded<F, S>) {
    let forest = dsu.store().forest();
    let key = |x: usize| (dsu.id_of(x), x);
    let linked: Vec<usize> = (0..N).filter(|&x| forest[x] != x).collect();
    assert_eq!(linked.len(), N - dsu.set_count(), "{} on {}", F::NAME, S::NAME);
    for x in linked {
        assert!(key(x) < key(forest[x]), "{} on {}: {x} -> {}", F::NAME, S::NAME, forest[x]);
    }
}

/// The run's parent forest is a compaction of its recorded forest: the
/// roots coincide, and every current parent is a recorded-forest ancestor.
fn assert_parents_compact_the_forest<F: FindPolicy, S: DsuStore>(dsu: &Recorded<F, S>) {
    let (forest, parents) = (dsu.store().forest(), dsu.parents_snapshot());
    for x in 0..N {
        assert_eq!(forest[x] == x, parents[x] == x, "{} on {}: root {x}", F::NAME, S::NAME);
        let mut u = x;
        while u != parents[x] && forest[u] != u {
            u = forest[u];
        }
        assert_eq!(u, parents[x], "{} on {}: parent of {x} off its path", F::NAME, S::NAME);
    }
}

fn root_links_match_no_compaction<S: DsuStore>(seed: u64, ops: &[Op]) {
    let want = replay::<NoCompaction, S>(seed, ops).store().forest();
    fn check<F: FindPolicy, S: DsuStore>(seed: u64, ops: &[Op], want: &[usize]) {
        let dsu = replay::<F, S>(seed, ops);
        assert_links_recorded(&dsu);
        assert_eq!(dsu.store().forest(), want, "{} on {}", F::NAME, S::NAME);
    }
    check::<OneTrySplit, S>(seed, ops, &want);
    check::<TwoTrySplit, S>(seed, ops, &want);
    check::<Halving, S>(seed, ops, &want);
    check::<Compress, S>(seed, ops, &want);
}

fn early_links_are_consistent<S: DsuStore>(seed: u64, ops: &[Op]) {
    let reference = replay::<NoCompaction, S>(seed, ops);
    let want = Partition::from_labels(&reference.labels_snapshot());
    fn check<F: FindPolicy, S: DsuStore>(seed: u64, ops: &[Op], want: &Partition) {
        let dsu = replay::<F, S>(seed, ops);
        assert_links_recorded(&dsu);
        assert_parents_compact_the_forest(&dsu);
        assert_eq!(&Partition::from_labels(&dsu.labels_snapshot()), want, "{}", F::NAME);
    }
    check::<NoCompaction, S>(seed, ops, &want);
    check::<OneTrySplit, S>(seed, ops, &want);
    check::<TwoTrySplit, S>(seed, ops, &want);
    check::<Halving, S>(seed, ops, &want);
    check::<Compress, S>(seed, ops, &want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under `NoCompaction` the recorded forest is the parent forest.
    /// (`unite_batch` climbs by splitting whatever the find policy, so it
    /// is covered by the cross-policy property instead.)
    #[test]
    fn no_compaction_forest_is_the_parent_forest(ops in ops_strategy(PER_OP), seed in any::<u64>()) {
        let packed = replay::<NoCompaction, PackedStore>(seed, &ops);
        prop_assert_eq!(packed.store().forest(), packed.parents_snapshot());
        let flat = replay::<NoCompaction, FlatStore>(seed, &ops);
        prop_assert_eq!(flat.store().forest(), flat.parents_snapshot());
    }

    /// Every compacting policy records the `NoCompaction` forest through
    /// `unite` and `unite_batch`, interleaved with compacting queries.
    #[test]
    fn compacting_policies_record_the_no_compaction_forest(
        ops in ops_strategy(ROOT_LINKS),
        seed in any::<u64>(),
    ) {
        root_links_match_no_compaction::<PackedStore>(seed, &ops);
        root_links_match_no_compaction::<FlatStore>(seed, &ops);
    }

    /// `unite_early` links are recorded under every policy, on the layout
    /// whose `cas_parent` override the decorator must not forward (flat)
    /// and on packed.
    #[test]
    fn early_unites_are_recorded_under_every_policy(
        ops in ops_strategy(EARLY),
        seed in any::<u64>(),
    ) {
        early_links_are_consistent::<PackedStore>(seed, &ops);
        early_links_are_consistent::<FlatStore>(seed, &ops);
    }
}
