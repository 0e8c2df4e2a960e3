//! **E14 — keyed entity resolution over the packed core.**
//!
//! Drives the lock-free keyed layer (`KeyedDsu`: a CAS-claimed id table
//! in front of the growable store) with a string-keyed
//! entity-resolution trace — insert-heavy churn, recency-biased revisits —
//! sharded round-robin over `p` threads. The table reports throughput vs
//! thread count alongside the id-table health counters (probe steps per
//! key touch, table doublings), and every run's final
//! partition is cross-checked key for key against a sequential replay on
//! the `RwLock<HashMap>` baseline — same trace, same implicit-singleton
//! semantics, so the verdicts must agree exactly.
//!
//! Usage: `--ops 400000 --fresh 0.4 --merges 0.7 --window 4096
//!         --quick true --csv out.csv`

use concurrent_dsu::{KeyedDsu, OpStats};
use dsu_baselines::LockedKeyedDsu;
use dsu_harness::{run_threads, table::f2, Args, Table};
use dsu_workloads::{KeyedOp, KeyedSpec};

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let ops = args.usize("ops", if quick { 1 << 15 } else { 400_000 });
    let fresh = args.f64("fresh", 0.4);
    let merges = args.f64("merges", 0.7);
    let window = args.usize("window", 4096);
    let ladder = args.thread_ladder();

    let spec =
        KeyedSpec::new(ops).merge_fraction(merges).fresh_fraction(fresh).revisit_window(window);
    let trace = spec.generate(0xE14).into_strings("entity", 0xE14);
    println!(
        "E14: keyed entity resolution  ({ops} ops, {} distinct string keys, \
         {merges} merge fraction, {fresh} fresh fraction, window {window})",
        trace.distinct_keys
    );
    println!("lock-free id table + packed core vs a sequential keyed replay\n");

    // The oracle: one sequential replay of the whole trace on the locked
    // baseline (identical keyed semantics by construction).
    let oracle: LockedKeyedDsu<String> = LockedKeyedDsu::new();
    for op in &trace.ops {
        match op {
            KeyedOp::Merge(a, b) => {
                oracle.merge_keys(a, b);
            }
            KeyedOp::SameSet(a, b) => {
                oracle.same_set(a, b);
            }
        }
    }

    let mut table =
        Table::new(&["p", "keys", "sets", "resizes", "probe/touch", "Mops/s", "speedup"]);
    let mut base = None;
    for &p in &ladder {
        let shards = trace.shard(p);
        let dsu: KeyedDsu<String> = KeyedDsu::with_seed(0xE14);
        let (elapsed, per_thread) = run_threads(p, |t| {
            let mut stats = OpStats::default();
            for op in &shards[t] {
                match op {
                    KeyedOp::Merge(a, b) => {
                        dsu.merge_keys_with(a, b, &mut stats);
                    }
                    KeyedOp::SameSet(a, b) => {
                        dsu.same_set_with(a, b, &mut stats);
                    }
                }
            }
            stats
        });
        let mut stats = OpStats::default();
        for s in &per_thread {
            stats.merge(s);
        }
        // Two key resolutions per op, so probe cost is reported per touch.
        let touches = (2 * ops) as f64;
        let mops = ops as f64 / elapsed.as_secs_f64() / 1e6;
        let b = *base.get_or_insert(mops);
        table.row(&[
            p.to_string(),
            dsu.key_count().to_string(),
            dsu.set_count().to_string(),
            dsu.id_table_resizes().to_string(),
            f2(stats.key_probe_steps as f64 / touches),
            f2(mops),
            f2(mops / b),
        ]);

        // Cross-check: the concurrent run and the sequential replay agree
        // on every key's id-existence, the partition, and the counts.
        assert_eq!(dsu.key_count(), oracle.key_count(), "p = {p}: key count mismatch");
        assert_eq!(dsu.set_count(), oracle.set_count(), "p = {p}: set count mismatch");
        assert_eq!(stats.keys_inserted as usize, dsu.key_count(), "p = {p}: claim attribution");
        for op in &trace.ops {
            let (a, b) = op.keys();
            assert_eq!(dsu.same_set(a, b), oracle.same_set(a, b), "p = {p}: verdict mismatch");
        }
    }
    table.print();
    println!("\nexpected shape: verdicts match the sequential replay at every p; probe/touch");
    println!("stays at about 1-2 groups, flat as threads race the same id table.");
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
