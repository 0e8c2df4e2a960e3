//! **E15 — Adaptive-priority work bound: total find-path length is
//! O(m·(log(np²/m) + 1)).**
//!
//! The 2020 journal version of the source paper (arXiv 2003.01203) shows
//! that with randomized (and adaptive index-based) priorities, `m`
//! operations by `p` processes on `n` elements do
//! `O(m·(log(np²/m) + 1))` total work once `m` dominates — the same
//! `np/m`-style crossover as Theorem 5.1 but with the sharper `p²`
//! numerator from the refined analysis. The `find_hops` counter measures
//! exactly the quantity the bound charges: parent hops walked by finds
//! (loop iterations minus the constant per-call overhead).
//!
//! This experiment sweeps `p` at two universe sizes and prints measured
//! `find_hops/op` next to the predicted `log2(np²/m + 1) + 1` curve. The
//! bound is an *upper* bound, so the reproduced claim is containment, not
//! equality: the measured/predicted ratio must stay bounded by a constant
//! (here well under 1) at every `(n, p)` — it *falls* as `p` grows,
//! because the `p²` term is pessimistic on a ladder this short, and the
//! experiment asserts it never exceeds 1 rather than pretending the curve
//! is tight.
//!
//! Usage: `--n 262144 --m 524288 --reps 3 --quick true --csv out.csv`

use concurrent_dsu::{Dsu, TwoTrySplit};
use dsu_harness::{mean, run_shards_instrumented, table::f2, Args, Table};
use dsu_workloads::WorkloadSpec;

/// The predicted per-op work shape, `log2(np²/m + 1) + 1`.
fn predicted(n: usize, m: usize, p: usize) -> f64 {
    ((n as f64) * (p as f64) * (p as f64) / (m as f64) + 1.0).log2() + 1.0
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let n_base = args.usize("n", if quick { 1 << 14 } else { 1 << 18 });
    let reps = args.usize("reps", if quick { 2 } else { 3 });
    let ladder = args.thread_ladder();

    println!("E15: find-path work vs (n, p)  ({reps} seeds)");
    println!("paper: E[total work] = O(m(log(np^2/m) + 1))  [arXiv 2003.01203]\n");

    let mut table = Table::new(&["n", "p", "hops/op", "predicted log+1", "measured/predicted"]);
    for &n in &[n_base, 4 * n_base] {
        let m = args.usize("m", 2 * n);
        for &p in &ladder {
            let mut hops = Vec::new();
            for rep in 0..reps {
                let seed = 0xE15_000 + rep as u64;
                let dsu: Dsu<TwoTrySplit> = Dsu::with_seed(n, seed);
                let w = WorkloadSpec::new(n, m).unite_fraction(0.5).generate(seed ^ 0x51);
                let metrics = run_shards_instrumented(&dsu, &w, p, false);
                let stats = metrics.stats.expect("instrumented");
                hops.push(stats.find_hops as f64 / m as f64);
            }
            let pred = predicted(n, m, p);
            let measured = mean(&hops);
            assert!(
                measured <= pred,
                "measured hops/op {measured:.2} exceeds the O(log(np^2/m)+1) curve {pred:.2} \
                 at n={n} p={p}"
            );
            table.row(&[n.to_string(), p.to_string(), f2(measured), f2(pred), f2(measured / pred)]);
        }
    }
    table.print();
    println!("\nexpected shape: measured/predicted bounded by a constant < 1 at every (n, p)");
    println!("(the p^2 term is loose on short ladders, so the ratio falls as p grows).");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
