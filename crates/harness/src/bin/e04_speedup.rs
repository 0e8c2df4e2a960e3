//! **E4 — the headline: almost-linear speedup.**
//!
//! The abstract claims "almost-linear speed-up for applications in which
//! all or most of the processes can be kept busy", contrasted with
//! Anderson & Woll's "insignificant speed-up". We measure throughput
//! (million ops/second) versus thread count for the paper's structure
//! (two-try and one-try splitting), the Anderson–Woll-style rank+halving
//! baseline, and the global-lock baseline, on two phases:
//!
//! * **build** — 100% unites over a fresh universe (`m = n`): the
//!   link-CAS-heavy regime;
//! * **query** — 100% same-set probes against a sub-critical forest
//!   (`0.45·n` prior random unites keep components small, so there is no
//!   single hot root): the find-dominated regime the paper's speedup claim
//!   addresses.
//!
//! The shapes to reproduce: the wait-free structures gain throughput with
//! `p` in both phases (queries close to linearly); the lock baseline is
//! flat or degrades.
//!
//! Usage: `--n 2097152 --quick true --csv out.csv`

use concurrent_dsu::{Dsu, OneTrySplit, TwoTrySplit};
use dsu_baselines::{AwDsu, LockedDsu};
use dsu_harness::{run_shards, table::f2, Args, Table};
use dsu_workloads::WorkloadSpec;
use sequential_dsu::{Compaction, Linking};

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let n = args.usize("n", if quick { 1 << 17 } else { 1 << 21 });
    let ladder = args.thread_ladder();

    println!("E4: throughput & speedup vs p  (n = {n})");
    println!("paper: near-linear speedup for the wait-free algorithm; locks do not scale\n");

    // Build phase: m = n unites. Query phase: m = 2n same-sets after a
    // sub-critical prior build (components stay logarithmic: no hot root).
    let build = WorkloadSpec::new(n, n).unite_fraction(1.0).generate(0x0E4B);
    let prior =
        WorkloadSpec::new(n, (n as f64 * 0.45) as usize).unite_fraction(1.0).generate(0x0E4C);
    let query = WorkloadSpec::new(n, 2 * n).unite_fraction(0.0).generate(0x0E4D);

    let make_jt2 = |prebuild: bool| {
        let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
        if prebuild {
            run_shards(&dsu, &prior, 8);
        }
        dsu
    };
    let make_jt1 = |prebuild: bool| {
        let dsu: Dsu<OneTrySplit> = Dsu::new(n);
        if prebuild {
            run_shards(&dsu, &prior, 8);
        }
        dsu
    };
    let make_aw = |prebuild: bool| {
        let dsu = AwDsu::new(n);
        if prebuild {
            run_shards(&dsu, &prior, 8);
        }
        dsu
    };
    let make_lock = |prebuild: bool| {
        let dsu = LockedDsu::new(n, Linking::ByRank, Compaction::Halving);
        if prebuild {
            run_shards(&dsu, &prior, 8);
        }
        dsu
    };

    let mut table = Table::new(&["phase", "structure", "p", "Mops/s", "speedup"]);
    for (phase, workload, prebuild) in [("build", &build, false), ("query", &query, true)] {
        type Runner<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
        let specs: Vec<(&str, Runner<'_>)> = vec![
            ("jt-two-try", Box::new(|p| run_shards(&make_jt2(prebuild), workload, p).mops())),
            ("jt-one-try", Box::new(|p| run_shards(&make_jt1(prebuild), workload, p).mops())),
            ("aw-rank-halving", Box::new(|p| run_shards(&make_aw(prebuild), workload, p).mops())),
            ("global-lock", Box::new(|p| run_shards(&make_lock(prebuild), workload, p).mops())),
        ];
        let reps = args.usize("reps", if quick { 2 } else { 3 });
        for (name, run) in &specs {
            let mut p1 = None;
            for &p in &ladder {
                // Best-of-reps: throughput noise is one-sided (interference
                // only slows a run down), so max is the faithful statistic.
                let mops = (0..reps).map(|_| run(p)).fold(0.0f64, f64::max);
                let p1v = *p1.get_or_insert(mops);
                table.row(&[
                    phase.to_string(),
                    name.to_string(),
                    p.to_string(),
                    f2(mops),
                    f2(mops / p1v),
                ]);
            }
        }
    }
    table.print();
    println!("\nexpected shape: jt-* query speedup grows near-linearly with p until memory");
    println!("bandwidth saturates; build speedup grows but sublinearly (link CAS contention);");
    println!("global-lock speedup stays ≈1 or drops; aw scales but trails jt.");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
