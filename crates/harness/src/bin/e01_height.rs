//! **E1 — Corollary 4.2.1 / Theorem 4.3: the union forest is O(log n) high
//! w.h.p.**
//!
//! For each universe size `n`, run `m = 2n` random unites on `threads`
//! threads with randomized linking and two-try splitting, then measure the
//! *union forest* (links only, compaction ignored), which the
//! `UnionForest` store decorator records. The paper predicts
//! height `≤ c·lg n` with probability `≥ 1 − 1/n`; the table reports the
//! measured height, its ratio to `lg n` (should be a small constant,
//! stable as `n` grows), and the mean node depth.
//!
//! Usage: `--min-exp 10 --max-exp 20 --reps 3 --threads-per-run 8 --quick true --csv out.csv`

use concurrent_dsu::{DefaultStore, Dsu, TwoTrySplit, UnionForest};
use dsu_harness::{mean, run_shards, table::f2, Args, Table};
use dsu_workloads::WorkloadSpec;

fn forest_height_and_mean_depth(parent: &[usize]) -> (usize, f64) {
    let mut depth = vec![usize::MAX; parent.len()];
    let mut tallest = 0usize;
    let mut total = 0usize;
    for start in 0..parent.len() {
        let mut path = Vec::new();
        let mut u = start;
        while depth[u] == usize::MAX && parent[u] != u {
            path.push(u);
            u = parent[u];
        }
        let mut d = if parent[u] == u && depth[u] == usize::MAX {
            depth[u] = 0;
            0
        } else {
            depth[u]
        };
        for &node in path.iter().rev() {
            d += 1;
            depth[node] = d;
        }
        tallest = tallest.max(depth[start]);
        total += depth[start];
    }
    (tallest, total as f64 / parent.len().max(1) as f64)
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let min_exp = args.usize("min-exp", 10);
    let max_exp = args.usize("max-exp", if quick { 14 } else { 20 });
    let reps = args.usize("reps", if quick { 2 } else { 3 });
    let threads = args.usize("threads-per-run", 8);

    println!(
        "E1: union-forest height vs n  (m = 2n random unites, {threads} threads, {reps} seeds)"
    );
    println!(
        "paper: height = O(log n) w.h.p.  [Cor 4.2.1]; ops take O(log n) steps w.h.p. [Thm 4.3]\n"
    );

    let mut table = Table::new(&["n", "lg n", "height(max)", "height/lg n", "mean depth", "sets"]);
    for exp in min_exp..=max_exp {
        let n = 1usize << exp;
        let mut heights = Vec::new();
        let mut depths = Vec::new();
        let mut final_sets = 0;
        for rep in 0..reps {
            let seed = 0xE1_000 + rep as u64;
            let dsu: Dsu<TwoTrySplit, UnionForest<DefaultStore>> = Dsu::with_seed(n, seed);
            let w = WorkloadSpec::new(n, 2 * n).unite_fraction(1.0).generate(seed ^ 0x9E37);
            run_shards(&dsu, &w, threads);
            let (h, md) = forest_height_and_mean_depth(&dsu.store().forest());
            heights.push(h as f64);
            depths.push(md);
            final_sets = dsu.set_count();
        }
        let h_max = heights.iter().cloned().fold(0.0f64, f64::max);
        let lg = exp as f64;
        table.row(&[
            format!("2^{exp}"),
            f2(lg),
            format!("{h_max:.0}"),
            f2(h_max / lg),
            f2(mean(&depths)),
            final_sets.to_string(),
        ]);
    }
    table.print();
    println!("\nexpected shape: height/lg n stays a small constant (≈1–3) as n grows 2^{min_exp}..2^{max_exp}.");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
