//! **E11 — the independence assumption (∗), probed.**
//!
//! The paper's bounds assume the random node order is *independent* of the
//! linearization order of the unites. An adversary who could see the ids
//! could issue unites in id-correlated order and try to build deep trees.
//! We compare three unite orders over the same edge set (a random spanning
//! tree):
//!
//! * `random` — edges shuffled independently of ids (the assumption holds);
//! * `id-ascending` — edges sorted by the smaller endpoint's
//!   `(id, index)` key, the order linking follows;
//! * `id-descending` — sorted the other way.
//!
//! Measured: union-forest height and find-loop iterations per subsequent
//! query. The paper's theory protects the `random` row; the table shows
//! how much (or little) an id-aware adversary gains — in these runs the
//! correlated orders stay logarithmic too, consistent with the authors'
//! remark that the assumption is believed removable (their follow-up
//! work removes it).
//!
//! Usage: `--n 262144 --reps 3 --quick true --csv out.csv`

use concurrent_dsu::{Dsu, PackedStore, TwoTrySplit, UnionForest};
use dsu_harness::{mean, run_shards, run_shards_instrumented, table::f2, Args, Table};
use dsu_workloads::{Op, Workload};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let n = args.usize("n", if quick { 1 << 14 } else { 1 << 18 });
    let reps = args.usize("reps", if quick { 2 } else { 3 });
    let threads = args.usize("threads-per-run", 8);

    println!(
        "E11: unite order vs random node order  (n = {n}, spanning-tree unites, {threads} threads)"
    );
    println!("paper assumption (∗): node order independent of unite linearization order\n");

    let mut table = Table::new(&["unite order", "height", "height/lg n", "query iters/op"]);
    for order_kind in ["random", "id-ascending", "id-descending"] {
        let mut heights = Vec::new();
        let mut iters = Vec::new();
        for rep in 0..reps {
            let seed = 0x0E110 + rep as u64;
            let dsu: Dsu<TwoTrySplit, UnionForest<PackedStore>> = Dsu::with_seed(n, seed);
            let key = |x: usize| (dsu.id_of(x), x);
            // A random spanning tree's edges.
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x7);
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i, rng.gen_range(0..i))).collect();
            match order_kind {
                "random" => edges.shuffle(&mut rng),
                "id-ascending" => {
                    edges.sort_by_key(|&(a, b)| key(a).min(key(b)));
                }
                _ => {
                    edges.sort_by_key(|&(a, b)| std::cmp::Reverse(key(a).min(key(b))));
                }
            }
            let unites = Workload::new(n, edges.iter().map(|&(a, b)| Op::Unite(a, b)).collect());
            run_shards(&dsu, &unites, threads);
            heights.push(dsu.store().height() as f64);
            // Query storm after the build measures how costly the forest is.
            let queries =
                Workload::new(n, (0..n).map(|i| Op::SameSet(i, (i * 2654435761) % n)).collect());
            let metrics = run_shards_instrumented(&dsu, &queries, threads, false);
            iters.push(metrics.stats.unwrap().loop_iters as f64 / n as f64);
        }
        let h = mean(&heights);
        table.row(&[order_kind.to_string(), f2(h), f2(h / (n as f64).log2()), f2(mean(&iters))]);
    }
    table.print();
    println!("\nexpected shape: the random row is O(log n) by Cor 4.2.1; the id-correlated");
    println!("rows quantify the assumption's slack (follow-up work removes it entirely).");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
