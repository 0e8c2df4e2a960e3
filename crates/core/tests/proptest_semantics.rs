//! Property tests: the concurrent algorithms, run single-threaded, must be
//! *exactly* a sequential union-find — every return value and the final
//! partition agree with the naive oracle, for every (find × link) policy
//! pair and both the standard and early-termination operations. Linking
//! and compaction change tree shapes, never semantics.

use concurrent_dsu::{
    Compress, Dsu, FindPolicy, FlatStore, Halving, IndexLink, LinkPolicy, NoCompaction,
    OneTrySplit, PackedStore, RandomLink, TwoTrySplit, UnionForest,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};

#[derive(Debug, Clone, Copy)]
enum Op {
    Unite(usize, usize),
    SameSet(usize, usize),
}

fn ops_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..n, 0..n, prop::bool::ANY).prop_map(
            |(x, y, u)| {
                if u {
                    Op::Unite(x, y)
                } else {
                    Op::SameSet(x, y)
                }
            },
        ),
        0..max_len,
    )
}

fn check_policy<F: FindPolicy, S: concurrent_dsu::DsuStore, L: LinkPolicy>(
    n: usize,
    seed: u64,
    ops: &[Op],
    early: bool,
) {
    let dsu: Dsu<F, S, L> = Dsu::with_seed(n, seed);
    let mut oracle = NaiveDsu::new(n);
    for &op in ops {
        match op {
            Op::Unite(x, y) => {
                let got = if early { dsu.unite_early(x, y) } else { dsu.unite(x, y) };
                assert_eq!(
                    got,
                    oracle.unite(x, y),
                    "unite({x},{y}) diverged ({}/{})",
                    F::NAME,
                    L::NAME
                );
            }
            Op::SameSet(x, y) => {
                let got = if early { dsu.same_set_early(x, y) } else { dsu.same_set(x, y) };
                assert_eq!(
                    got,
                    oracle.same_set(x, y),
                    "same_set({x},{y}) diverged ({}/{})",
                    F::NAME,
                    L::NAME
                );
            }
        }
    }
    assert_eq!(dsu.set_count(), oracle.set_count());
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
}

/// Every find policy under one link policy, on one store layout.
fn check_find_axis<S: concurrent_dsu::DsuStore, L: LinkPolicy>(
    n: usize,
    seed: u64,
    ops: &[Op],
    early: bool,
) {
    check_policy::<NoCompaction, S, L>(n, seed, ops, early);
    check_policy::<OneTrySplit, S, L>(n, seed, ops, early);
    check_policy::<TwoTrySplit, S, L>(n, seed, ops, early);
    check_policy::<Halving, S, L>(n, seed, ops, early);
    check_policy::<Compress, S, L>(n, seed, ops, early);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every (find × link) pair is oracle-equivalent — 5 finds × 2 links
    /// on the packed layout, and 5 finds under the paper's linking on the
    /// flat one.
    #[test]
    fn sequential_equivalence_all_policies(
        ops in ops_strategy(20, 100),
        seed in any::<u64>(),
        early in any::<bool>(),
    ) {
        check_find_axis::<PackedStore, RandomLink>(20, seed, &ops, early);
        check_find_axis::<PackedStore, IndexLink>(20, seed, &ops, early);
        check_find_axis::<FlatStore, RandomLink>(20, seed, &ops, early);
    }

    /// Lemma 3.1 invariants hold after any single-threaded history:
    /// `(id, index)` keys strictly increase along parent paths, and
    /// compaction only replaces parents by union-forest ancestors.
    #[test]
    fn lemma_3_1_invariants(ops in ops_strategy(24, 120), seed in any::<u64>()) {
        let dsu: Dsu<TwoTrySplit, UnionForest<PackedStore>> = Dsu::with_seed(24, seed);
        for &op in &ops {
            match op {
                Op::Unite(x, y) => { dsu.unite(x, y); }
                Op::SameSet(x, y) => { dsu.same_set(x, y); }
            }
        }
        let parents = dsu.parents_snapshot();
        let forest = dsu.store().forest();
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                prop_assert!((dsu.id_of(x), x) < (dsu.id_of(p), p));
                // The current parent must be an ancestor of x in the union
                // forest (Lemma 3.1's compaction clause).
                let mut u = x;
                let mut found = false;
                for _ in 0..24 {
                    u = forest[u];
                    if u == p { found = true; break; }
                    if forest[u] == u { break; }
                }
                prop_assert!(found, "parent {} of {} is not a union-forest ancestor", p, x);
            }
        }
    }

    /// The growable structure with interleaved make_set matches an oracle
    /// grown in lockstep.
    #[test]
    fn growable_matches_growing_oracle(
        script in prop::collection::vec((0u8..3, any::<u64>()), 1..150),
        seed in any::<u64>(),
    ) {
        let dsu: concurrent_dsu::GrowableDsu = concurrent_dsu::GrowableDsu::with_seed(0, seed);
        let mut labels: Vec<usize> = Vec::new(); // naive growing oracle
        for (kind, r) in script {
            match kind {
                0 => {
                    let e = dsu.make_set();
                    prop_assert_eq!(e, labels.len());
                    labels.push(e);
                }
                1 if !labels.is_empty() => {
                    let n = labels.len();
                    let x = (r as usize) % n;
                    let y = (r as usize / n.max(1)) % n;
                    let expected = labels[x] != labels[y];
                    if expected {
                        let (from, to) = (labels[x], labels[y]);
                        for l in labels.iter_mut() {
                            if *l == from { *l = to; }
                        }
                    }
                    prop_assert_eq!(dsu.unite(x, y), expected);
                }
                _ if !labels.is_empty() => {
                    let n = labels.len();
                    let x = (r as usize) % n;
                    let y = (r as usize / n.max(1)) % n;
                    prop_assert_eq!(dsu.same_set(x, y), labels[x] == labels[y]);
                }
                _ => {}
            }
        }
    }
}
