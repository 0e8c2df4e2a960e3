//! **E3 — Theorem 5.1 vs Theorem 5.2 vs Section 4: the variant-plane
//! comparison.**
//!
//! Same sweep as E2, but over the full (find × link) variant plane and
//! both operation styles (standard and Section 6 early termination).
//! Every row labels both axes as `<find>/<link>`. The paper's ordering to
//! reproduce, in per-operation work at higher `p`, on the `random` link
//! rows:
//!
//! * `no-compaction` pays the full O(log n) path every time (Thm 4.3);
//! * `one-try` compacts but its bound carries `p²` (Thm 5.2);
//! * `two-try` has the tight bound (Thm 5.1) — expected to be the best or
//!   tied;
//! * `halving` cannot beat splitting (§3's simulation argument);
//! * early termination walks one path instead of two, shaving a constant
//!   factor.
//!
//! The link axis has no paper-side work ordering (the bounds hold for any
//! linearizable linking with increasing keys): `index` compares indices
//! instead of random ids but loses the randomized height guarantee. This
//! table measures what that trade costs in find work.
//!
//! Usage: `--n 65536 --m 131072 --reps 2 --quick true --csv out.csv`

use concurrent_dsu::{
    Compress, Dsu, DsuStore, FindPolicy, Halving, IndexLink, LinkPolicy, NoCompaction, OneTrySplit,
    PackedStore, RandomLink, TwoTrySplit,
};
use dsu_harness::{mean, run_shards_instrumented, table::f2, Args, Table};
use dsu_workloads::{Workload, WorkloadSpec};

fn measure<F: FindPolicy, S: DsuStore, L: LinkPolicy>(
    n: usize,
    w: &Workload,
    p: usize,
    early: bool,
    reps: usize,
) -> (f64, f64, f64) {
    let mut iters = Vec::new();
    let mut casf = Vec::new();
    let mut accesses = Vec::new();
    for rep in 0..reps {
        let dsu: Dsu<F, S, L> = Dsu::with_seed(n, 0xE3_000 + rep as u64);
        let metrics = run_shards_instrumented(&dsu, w, p, early);
        let stats = metrics.stats.expect("instrumented");
        let m = w.len() as f64;
        iters.push(stats.loop_iters as f64 / m);
        casf.push(stats.compact_cas_fail as f64 / m);
        accesses.push(stats.memory_accesses() as f64 / m);
    }
    (mean(&iters), mean(&casf), mean(&accesses))
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let n = args.usize("n", if quick { 1 << 13 } else { 1 << 16 });
    let m = args.usize("m", 2 * n);
    let reps = args.usize("reps", 2);
    let ladder = args.thread_ladder();

    println!("E3: per-op work by (find × link) variant  (n = {n}, m = {m}, {reps} seeds)");
    println!(
        "paper: two-try ≤ one-try ≤ no-compaction in work; halving ≈ splitting [§3, Thm 5.1/5.2];"
    );
    println!("link axis trades id lookups (random) vs the height guarantee (index).\n");

    let mut table = Table::new(&["p", "find/link", "iters/op", "cas-fail/op", "accesses/op"]);
    for &p in &ladder {
        let w = WorkloadSpec::new(n, m).unite_fraction(0.5).generate(0xE3 ^ p as u64);
        macro_rules! link_rows {
            ($f:ty, $fname:literal) => {
                [
                    (
                        concat!($fname, "/random"),
                        measure::<$f, PackedStore, RandomLink>(n, &w, p, false, reps),
                    ),
                    (
                        concat!($fname, "/index"),
                        measure::<$f, PackedStore, IndexLink>(n, &w, p, false, reps),
                    ),
                ]
            };
        }
        let mut rows: Vec<(&str, (f64, f64, f64))> = Vec::new();
        rows.extend(link_rows!(NoCompaction, "no-compaction"));
        rows.extend(link_rows!(OneTrySplit, "one-try"));
        rows.extend(link_rows!(TwoTrySplit, "two-try"));
        rows.extend(link_rows!(Halving, "halving"));
        rows.extend(link_rows!(Compress, "compress"));
        rows.push((
            "two-try/random+early",
            measure::<TwoTrySplit, PackedStore, RandomLink>(n, &w, p, true, reps),
        ));
        rows.push((
            "one-try/random+early",
            measure::<OneTrySplit, PackedStore, RandomLink>(n, &w, p, true, reps),
        ));
        for (name, (it, cf, acc)) in rows {
            table.row(&[p.to_string(), name.to_string(), f2(it), f2(cf), f2(acc)]);
        }
    }
    table.print();
    println!("\nexpected shape: no-compaction worst; splitting variants close, two-try never");
    println!("worse than one-try by more than a small factor; early termination cheapest;");
    println!("link rows of one find policy within a small factor of each other.");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
