//! **E10 — Section 3 remark + Section 7: `MakeSet` and on-the-fly ids.**
//!
//! The growable structure creates elements concurrently with unites and
//! queries: each thread alternates `make_set` with operations on the
//! elements it has seen. Ids are SplitMix64 hashes generated on the fly —
//! the paper's Section 7 suggestion. The table reports throughput vs
//! thread count and verifies the final structure agrees with a confluent
//! oracle built from the surviving unite pairs.
//!
//! Usage: `--ops-per-thread 500000 --unite-frac 0.4 --quick true --csv out.csv`

use concurrent_dsu::GrowableDsu;
use dsu_harness::{run_threads, table::f2, Args, Table};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let ops_per_thread = args.usize("ops-per-thread", if quick { 100_000 } else { 500_000 });
    let unite_frac = args.f64("unite-frac", 0.4);
    let ladder = args.thread_ladder();

    println!(
        "E10: growable universe churn  ({ops_per_thread} ops/thread, {unite_frac} unite fraction)"
    );
    println!("paper §3 remark/§7: MakeSet with on-the-fly ids; operations stay lock-free\n");

    let mut table = Table::new(&["p", "make_sets", "final sets", "Mops/s", "speedup"]);
    let mut base = None;
    for &p in &ladder {
        let dsu: GrowableDsu = GrowableDsu::with_seed(0, 0xE10);
        let (elapsed, per_thread) = run_threads(p, |t| {
            let mut rng = ChaCha12Rng::seed_from_u64(t as u64);
            let mut mine: Vec<usize> = Vec::new();
            let mut pairs = Vec::new();
            for i in 0..ops_per_thread {
                if mine.len() < 2 || i % 3 == 0 {
                    mine.push(dsu.make_set());
                } else if rng.gen_bool(unite_frac) {
                    let a = mine[rng.gen_range(0..mine.len())];
                    let b = mine[rng.gen_range(0..mine.len())];
                    dsu.unite(a, b);
                    pairs.push((a, b));
                } else {
                    let a = mine[rng.gen_range(0..mine.len())];
                    let b = mine[rng.gen_range(0..mine.len())];
                    dsu.same_set(a, b);
                }
            }
            pairs
        });
        let total_ops = (p * ops_per_thread) as f64;
        let mops = total_ops / elapsed.as_secs_f64() / 1e6;
        let b = *base.get_or_insert(mops);
        table.row(&[
            p.to_string(),
            dsu.len().to_string(),
            dsu.set_count().to_string(),
            f2(mops),
            f2(mops / b),
        ]);
        // Consistency: final set count equals elements minus spanning links
        // of the union of all unite pairs (fast sequential oracle — the
        // universes here run into the millions).
        let n = dsu.len();
        let mut oracle = sequential_dsu::SeqDsu::new(
            n,
            sequential_dsu::Linking::ByRank,
            sequential_dsu::Compaction::Halving,
        );
        for (a, b) in per_thread.into_iter().flatten() {
            oracle.unite(a, b);
        }
        assert_eq!(dsu.set_count(), oracle.set_count(), "p = {p}: oracle mismatch");
        assert_eq!(
            sequential_dsu::Partition::from_labels(&dsu.labels_snapshot()),
            oracle.partition(),
            "p = {p}: partition mismatch"
        );
    }
    table.print();
    println!("\nexpected shape: throughput grows with p; every run's final partition matches");
    println!("the confluent oracle exactly (correctness under concurrent MakeSet).");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
