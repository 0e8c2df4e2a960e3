//! Cross-crate integration: every union-find implementation in the
//! workspace — four native find policies (standard and early ops), the
//! growable structure, the Anderson–Woll baseline, the lock baseline, all
//! twelve sequential variants, and the APRAM-simulated algorithms — must
//! realize the *same partition* for the same operation stream.

use jt_dsu::concurrent_dsu::{
    Compress, Dsu, FindPolicy, GrowableDsu, Halving, NoCompaction, OneTrySplit, TwoTrySplit,
};
use jt_dsu::dsu_baselines::{AwDsu, LockedDsu};
use jt_dsu::dsu_workloads::{Op, WorkloadSpec};
use jt_dsu::sequential_dsu::{NaiveDsu, Partition, SeqDsu, ALL_VARIANTS};

fn reference_partition(n: usize, ops: &[Op]) -> Partition {
    let mut oracle = NaiveDsu::new(n);
    for &op in ops {
        if let Op::Unite(x, y) = op {
            oracle.unite(x, y);
        }
    }
    oracle.partition()
}

fn native_partition<F: FindPolicy>(n: usize, ops: &[Op], early: bool, threads: usize) -> Partition {
    let dsu: Dsu<F> = Dsu::new(n);
    std::thread::scope(|s| {
        for t in 0..threads {
            let dsu = &dsu;
            s.spawn(move || {
                for (i, &op) in ops.iter().enumerate() {
                    if i % threads != t {
                        continue;
                    }
                    match (op, early) {
                        (Op::Unite(x, y), false) => {
                            dsu.unite(x, y);
                        }
                        (Op::SameSet(x, y), false) => {
                            dsu.same_set(x, y);
                        }
                        (Op::Unite(x, y), true) => {
                            dsu.unite_early(x, y);
                        }
                        (Op::SameSet(x, y), true) => {
                            dsu.same_set_early(x, y);
                        }
                    }
                }
            });
        }
    });
    Partition::from_labels(&dsu.labels_snapshot())
}

#[test]
fn every_implementation_reaches_the_same_partition() {
    let n = 400;
    let w = WorkloadSpec::new(n, 1200).unite_fraction(0.6).generate(0xA11);
    let expected = reference_partition(n, &w.ops);

    // Native, all policies × {standard, early} × {1, 8} threads.
    for threads in [1usize, 8] {
        for early in [false, true] {
            assert_eq!(native_partition::<NoCompaction>(n, &w.ops, early, threads), expected);
            assert_eq!(native_partition::<OneTrySplit>(n, &w.ops, early, threads), expected);
            assert_eq!(native_partition::<TwoTrySplit>(n, &w.ops, early, threads), expected);
            assert_eq!(native_partition::<Halving>(n, &w.ops, early, threads), expected);
            assert_eq!(native_partition::<Compress>(n, &w.ops, early, threads), expected);
        }
    }

    // Growable.
    let growable: GrowableDsu = GrowableDsu::new(n);
    for &op in &w.ops {
        match op {
            Op::Unite(x, y) => {
                growable.unite(x, y);
            }
            Op::SameSet(x, y) => {
                growable.same_set(x, y);
            }
        }
    }
    assert_eq!(Partition::from_labels(&growable.labels_snapshot()), expected);

    // Baselines.
    let aw = AwDsu::new(n);
    let locked = LockedDsu::new(
        n,
        jt_dsu::sequential_dsu::Linking::ByRank,
        jt_dsu::sequential_dsu::Compaction::Halving,
    );
    for &op in &w.ops {
        match op {
            Op::Unite(x, y) => {
                aw.unite(x, y);
                locked.unite(x, y);
            }
            Op::SameSet(x, y) => {
                aw.same_set(x, y);
                locked.same_set(x, y);
            }
        }
    }
    assert_eq!(Partition::from_labels(&aw.labels_snapshot()), expected);
    assert_eq!(Partition::from_labels(&locked.labels_snapshot()), expected);

    // All twelve sequential variants.
    for (linking, compaction) in ALL_VARIANTS {
        let mut dsu = SeqDsu::new(n, linking, compaction);
        for &op in &w.ops {
            match op {
                Op::Unite(x, y) => {
                    dsu.unite(x, y);
                }
                Op::SameSet(x, y) => {
                    dsu.same_set(x, y);
                }
            }
        }
        assert_eq!(dsu.partition(), expected, "{linking}/{compaction}");
    }
}

#[test]
fn simulator_agrees_with_native_single_threaded() {
    use jt_dsu::apram::RoundRobin;
    use jt_dsu::apram_dsu::{random_ids, run_concurrent, DsuProcess, Policy};
    use jt_dsu::linearize::DsuOp;

    let n = 64;
    let w = WorkloadSpec::new(n, 300).unite_fraction(0.5).generate(0xA12);
    let sim_ops: Vec<DsuOp> = w
        .ops
        .iter()
        .map(|&op| match op {
            Op::Unite(x, y) => DsuOp::Unite(x, y),
            Op::SameSet(x, y) => DsuOp::SameSet(x, y),
        })
        .collect();

    for (policy, early) in [
        (Policy::NoCompaction, false),
        (Policy::OneTry, false),
        (Policy::TwoTry, false),
        (Policy::Halving, false),
        (Policy::TwoTry, true),
    ] {
        let ids = random_ids(n, 5);
        let procs = vec![DsuProcess::new(sim_ops.clone(), policy, early, ids)];
        let outcome = run_concurrent(n, procs, &mut RoundRobin::new(), 10_000_000);

        // Results must equal the sequential oracle op-for-op.
        let mut oracle = NaiveDsu::new(n);
        for (rec, &op) in outcome.records[0].iter().zip(&w.ops) {
            let expected = match op {
                Op::Unite(x, y) => oracle.unite(x, y),
                Op::SameSet(x, y) => oracle.same_set(x, y),
            };
            assert_eq!(rec.result, expected, "{policy:?} early={early} diverged on {op:?}");
        }
        assert_eq!(
            Partition::from_labels(&outcome.labels()),
            oracle.partition(),
            "{policy:?} early={early} final state"
        );
    }
}

#[test]
fn harness_driver_agrees_with_direct_execution() {
    use jt_dsu::dsu_harness::{run_shards, run_shards_instrumented};

    let n = 256;
    let w = WorkloadSpec::new(n, 2000).unite_fraction(0.5).generate(0xA13);
    let expected = reference_partition(n, &w.ops);

    let plain: Dsu = Dsu::new(n);
    let metrics = run_shards(&plain, &w, 4);
    assert_eq!(metrics.ops, 2000);
    assert_eq!(Partition::from_labels(&plain.labels_snapshot()), expected);

    let instrumented: Dsu = Dsu::new(n);
    let metrics = run_shards_instrumented(&instrumented, &w, 4, false);
    let stats = metrics.stats.unwrap();
    assert_eq!(stats.ops, 2000);
    assert_eq!(Partition::from_labels(&instrumented.labels_snapshot()), expected);
    // Links observed == n - final set count.
    assert_eq!(stats.links_ok as usize, n - instrumented.set_count());
}
