//! Integration tests pinning the paper's *quantitative* claims at test
//! scale (the experiment binaries regenerate them at full scale):
//! logarithmic heights, the lockstep simulation, the lower-bound workload,
//! bounded per-op work, and the work-bound predictions' shape.

use jt_dsu::concurrent_dsu::{DefaultStore, Dsu, OpStats, TwoTrySplit, UnionForest};
use jt_dsu::dsu_workloads::{binomial_build_ops, lower_bound_workload, WorkloadSpec};
use jt_dsu::sequential_dsu::{alpha, one_try_work_bound, two_try_work_bound};

#[test]
fn corollary_4_2_1_logarithmic_height_at_test_scale() {
    // 3 seeds × n = 2^13, m = 2n random unites on 8 threads: height must
    // stay within 6·lg n (the w.h.p. bound with a generous constant). The
    // `UnionForest` decorator records the links.
    let n = 1 << 13;
    for seed in [11u64, 22, 33] {
        let dsu: Dsu<TwoTrySplit, UnionForest<DefaultStore>> = Dsu::with_seed(n, seed);
        let w = WorkloadSpec::new(n, 2 * n).unite_fraction(1.0).generate(seed);
        jt_dsu::dsu_harness::run_shards(&dsu, &w, 8);
        let h = dsu.store().height();
        assert!(h <= 6 * 13, "height {h} exceeds 6 lg n for seed {seed}");
    }
}

#[test]
fn theorem_4_3_per_op_steps_bounded() {
    // Under contention, no single operation may take more than c·lg n
    // find-loop iterations (tripwire constant c = 20 avoids flakes while
    // still catching any loss of the O(log n) w.h.p. behavior).
    let n = 1 << 12;
    let dsu: Dsu = Dsu::new(n);
    let w = WorkloadSpec::new(n, 4 * n).unite_fraction(0.5).generate(99);
    let metrics = jt_dsu::dsu_harness::run_shards_instrumented(&dsu, &w, 8, false);
    assert!(
        metrics.max_op_iters <= 20 * 12,
        "an operation took {} loop iterations",
        metrics.max_op_iters
    );
}

#[test]
fn section_3_lockstep_simulation_is_exact() {
    for k in [16usize, 100, 512] {
        let cmp = jt_dsu::apram_dsu::lockstep_halving_vs_splitting(k);
        assert!(cmp.memories_match(), "k = {k}");
        assert_eq!(cmp.halving_updates, cmp.splitting_updates, "k = {k}");
    }
}

#[test]
fn lemma_5_3_lower_bound_workload_forces_log_work() {
    // Accesses per storm query must grow with lg δ: compare δ = 4 against
    // δ = 256 on the simulator.
    use jt_dsu::apram::{Machine, Memory, Program, RoundRobin};
    use jt_dsu::apram_dsu::{random_ids, DsuProcess, Policy};
    use jt_dsu::linearize::DsuOp;

    let per_query = |delta: usize| -> f64 {
        let n = 1024;
        let p = 4;
        let wl = lower_bound_workload(n, delta, 5);
        let ids = random_ids(n, 6);
        let to_sim = |ops: &[jt_dsu::dsu_workloads::Op]| -> Vec<DsuOp> {
            ops.iter()
                .map(|&op| match op {
                    jt_dsu::dsu_workloads::Op::Unite(x, y) => DsuOp::Unite(x, y),
                    jt_dsu::dsu_workloads::Op::SameSet(x, y) => DsuOp::SameSet(x, y),
                })
                .collect()
        };
        let mut machine = Machine::new(Memory::identity(n));
        let mut builder =
            DsuProcess::new(to_sim(&wl.build.ops), Policy::TwoTry, false, ids.clone());
        {
            let mut refs: Vec<&mut dyn Program> = vec![&mut builder];
            assert!(machine.run(&mut refs, &mut RoundRobin::new(), u64::MAX / 2).completed);
        }
        let storm = to_sim(&wl.queries.ops);
        let mut procs: Vec<DsuProcess> = (0..p)
            .map(|_| DsuProcess::new(storm.clone(), Policy::TwoTry, false, ids.clone()))
            .collect();
        let report = {
            let mut refs: Vec<&mut dyn Program> =
                procs.iter_mut().map(|q| q as &mut dyn Program).collect();
            machine.run(&mut refs, &mut RoundRobin::new(), u64::MAX / 2)
        };
        assert!(report.completed);
        report.memory_accesses as f64 / (p * wl.queries.len()) as f64
    };

    let small = per_query(4);
    let large = per_query(256);
    assert!(
        large >= small + 2.0,
        "lower-bound workload did not scale with lg δ: {small:.2} vs {large:.2}"
    );
}

#[test]
fn lemma_5_3_binomial_trees_have_linear_average_depth_in_log_k() {
    use jt_dsu::sequential_dsu::{Compaction, Linking, SeqDsu};
    let k = 512;
    let (ops, _) = binomial_build_ops(0, k);
    let mut dsu = SeqDsu::with_seed(k, Linking::Randomized, Compaction::Splitting, 3);
    for op in &ops {
        let (x, y) = op.operands();
        dsu.unite(x, y);
    }
    let avg: f64 = (0..k).map(|x| dsu.depth_of(x)).sum::<usize>() as f64 / k as f64;
    assert!(avg >= (k as f64).log2() / 8.0, "avg depth {avg:.2} too shallow");
}

#[test]
fn work_bound_formulas_have_the_paper_shape() {
    let n = 1u64 << 20;
    let m = n;
    // Two-try: grows ~ log p once np > m.
    let w1 = two_try_work_bound(n, m, 1);
    let w64 = two_try_work_bound(n, m, 64);
    assert!(w64 > w1 + 4.0, "log(np/m) term missing: {w1} vs {w64}");
    // One-try carries p² inside: at least as large as two-try everywhere.
    for p in [1u64, 2, 8, 32, 128] {
        assert!(one_try_work_bound(n, m, p) + 1e-9 >= two_try_work_bound(n, m, p));
    }
    // α is tiny for any practical input (the "constant for all practical
    // purposes" remark).
    assert!(alpha(u64::MAX, 1.0) <= 5);
}

#[test]
fn instrumented_work_matches_structure_between_runs() {
    // The same workload on the same seed gives identical single-threaded
    // work counters — determinism end to end (workload gen + structure).
    let n = 1 << 10;
    let w = WorkloadSpec::new(n, 4096).generate(0xD0);
    let run = || -> OpStats {
        let dsu: Dsu<TwoTrySplit> = Dsu::with_seed(n, 1);
        let m = jt_dsu::dsu_harness::run_shards_instrumented(&dsu, &w, 1, false);
        m.stats.unwrap()
    };
    assert_eq!(run(), run());
}
