//! Counter attribution: the `OpStats` an operation stream reports is a
//! property of the algorithm, not of the layout, and the counters that
//! belong to other layers read exactly zero where those layers are absent.
//!
//! Every layout derives its ids from `hashed_id(index, seed)`, so one
//! single-threaded stream makes the same decisions on each of them and
//! must count the same loop iterations, reads, CASes and hops — a timing
//! difference between layouts is then pure per-access cost. The zero
//! checks pin the attribution contract of the opt-in layers: an unfaulted
//! run charges no injected faults, a single-threaded per-op run pays no
//! retries (nobody else can move a root), and a run that never goes
//! through a `VersionedDsu` records no snapshots, forks, rollbacks or
//! copy-on-write cells.

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::{
    Dsu, DsuStore, EpochReport, EpochStore, FlatStore, KeyedDsu, OpStats, PackedStore, TwoTrySplit,
    UnionForest,
};
use rand::{Rng, SeedableRng};

const N: usize = 1 << 12;
const SEED: u64 = 0xA77;

#[derive(Debug, Clone, Copy)]
enum Op {
    Unite(usize, usize),
    SameSet(usize, usize),
    UniteEarly(usize, usize),
    SameSetEarly(usize, usize),
    Find(usize),
}

/// `4n` seeded operations over `0..n`, half of them unites.
fn stream() -> Vec<Op> {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(SEED);
    (0..4 * N)
        .map(|_| {
            let (x, y) = (rng.gen_range(0..N), rng.gen_range(0..N));
            match rng.gen_range(0..8) {
                0..=2 => Op::Unite(x, y),
                3 => Op::UniteEarly(x, y),
                4 | 5 => Op::SameSet(x, y),
                6 => Op::SameSetEarly(x, y),
                _ => Op::Find(x),
            }
        })
        .collect()
}

/// Every pair the stream names, as an edge list.
fn edges(ops: &[Op]) -> Vec<(usize, usize)> {
    ops.iter()
        .map(|&op| match op {
            Op::Unite(x, y) | Op::SameSet(x, y) | Op::UniteEarly(x, y) | Op::SameSetEarly(x, y) => {
                (x, y)
            }
            Op::Find(x) => (x, x),
        })
        .collect()
}

/// The stream per-op on a fresh `Dsu` over `S`, then its edges in bursts
/// through the batch path on a second one; returns both counter sets.
fn count<S: DsuStore>(ops: &[Op]) -> (OpStats, OpStats) {
    let dsu: Dsu<TwoTrySplit, S> = Dsu::with_seed(N, SEED);
    let mut per_op = OpStats::default();
    for &op in ops {
        match op {
            Op::Unite(x, y) => {
                dsu.unite_with(x, y, &mut per_op);
            }
            Op::SameSet(x, y) => {
                dsu.same_set_with(x, y, &mut per_op);
            }
            Op::UniteEarly(x, y) => {
                dsu.unite_early_with(x, y, &mut per_op);
            }
            Op::SameSetEarly(x, y) => {
                dsu.same_set_early_with(x, y, &mut per_op);
            }
            Op::Find(x) => {
                dsu.find_with(x, &mut per_op);
            }
        }
    }
    let batched: Dsu<TwoTrySplit, S> = Dsu::with_seed(N, SEED);
    let mut batch = OpStats::default();
    for burst in edges(ops).chunks(1024) {
        batched.unite_batch_with(burst, &mut batch);
    }
    (per_op, batch)
}

/// Asserts the exact zeros of an unfaulted, unversioned run.
fn assert_unattributed(label: &str, s: &OpStats) {
    assert_eq!(s.faults_injected, 0, "{label}: phantom fault attribution");
    assert_eq!(
        (s.snapshots_taken, s.segments_forked, s.rollbacks, s.cow_copies),
        (0, 0, 0, 0),
        "{label}: phantom epoch attribution on an unversioned run"
    );
}

#[test]
fn one_op_stream_counts_identically_on_every_layout() {
    let ops = stream();
    let packed = count::<PackedStore>(&ops);
    assert!(packed.0.links_ok > 0 && packed.0.find_hops > 0, "{:?}", packed.0);
    assert_eq!(count::<FlatStore>(&ops), packed, "flat vs packed");
    assert_eq!(count::<EpochStore>(&ops), packed, "epoch vs packed");
    assert_eq!(count::<UnionForest<PackedStore>>(&ops), packed, "union forest vs packed");
}

#[test]
fn unfaulted_unversioned_runs_attribute_exact_zeros() {
    let ops = stream();
    for (label, (per_op, batch)) in [
        ("packed", count::<PackedStore>(&ops)),
        ("flat", count::<FlatStore>(&ops)),
        ("epoch", count::<EpochStore>(&ops)),
    ] {
        assert_unattributed(&format!("{label}/per-op"), &per_op);
        assert_unattributed(&format!("{label}/batch"), &batch);
        // Single-threaded, a per-op retry loop only fires when someone
        // else moved the root, and there is no one else. (A batch may
        // retry legitimately: a wave-gathered root goes stale when an
        // earlier link of the same burst moves it.)
        assert_eq!(per_op.cas_retries, 0, "{label}: retries on a single-threaded per-op run");
    }
    // The epoch store itself agrees: no fork ever happened.
    let dsu: Dsu<TwoTrySplit, EpochStore> = Dsu::with_seed(N, SEED);
    dsu.unite_batch(&edges(&ops));
    assert_eq!(dsu.store().epoch_report(), EpochReport::default());
}

#[test]
fn keyed_runs_attribute_exact_zeros() {
    let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(SEED);
    let mut stats = OpStats::default();
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(SEED);
    for _ in 0..4 * N {
        let (a, b) = (rng.gen_range(0..2 * N as u64), rng.gen_range(0..2 * N as u64));
        if rng.gen_bool(0.6) {
            dsu.merge_keys_with(&a, &b, &mut stats);
        } else {
            dsu.same_set_with(&a, &b, &mut stats);
        }
    }
    assert!(stats.keys_inserted > 0 && stats.id_table_resizes > 0, "{stats:?}");
    assert_unattributed("keyed", &stats);
    assert_eq!(stats.cas_retries, 0, "keyed: retries on a single-threaded run");
    // The keyed layer runs on the epoch store; unversioned, it never forks.
    assert_eq!(dsu.dsu().store().epoch_report(), EpochReport::default(), "keyed: forked");
}
