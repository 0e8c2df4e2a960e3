//! Interleaved A/B comparison of the lock-free keyed layer vs. the
//! `RwLock<HashMap>` facade it replaces.
//!
//! Both contenders resolve the **same keyed entity-resolution trace**
//! (string keys, insert-heavy churn, recency-biased revisits — the
//! `KeyedSpec` shape no dense array workload can express) sharded
//! round-robin over `p` threads: `KeyedDsu` runs its lock-free id table
//! over the packed core; `LockedKeyedDsu` is the deployment-shaped
//! baseline (optd's memo guards group unions with exactly this structure),
//! given every reasonable advantage — shared read guards for queries,
//! rank + full-compression unions, one guard per batch. Samples alternate
//! back to back so host drift cancels; per-thread-count medians and the
//! locked/keyed throughput ratio are printed and, with `--json PATH`,
//! written out for archiving (`BENCH_PR7.json`) or CI artifacts.
//!
//! A second trace axis (`--mode sparse`) swaps string keys for sparse
//! 64-bit keys: cheaper hashing, no heap traffic — the axis that isolates
//! how much of the gap is the lock versus the `String` clone on claim.
//!
//! Run: `cargo run --release -p dsu-harness --example keyed_ab --
//!       [--ops 400000] [--fresh 0.4] [--merges 0.7] [--window 4096]
//!       [--mode strings|sparse] [--samples 9] [--threads 1,2,4,8]
//!       [--json out.json] [--quick true]`

use std::hash::Hash;

use concurrent_dsu::KeyedDsu;
use dsu_baselines::LockedKeyedDsu;
use dsu_harness::{interleaved_medians, json_list, run_threads, write_record, Args};
use dsu_workloads::{KeyedOp, KeyedSpec, KeyedWorkload};

/// Runs `shards[t]` on thread `t` against `apply`; returns wall ns.
fn timed_keyed_run<K: Sync, D: Sync>(
    dsu: &D,
    shards: &[Vec<KeyedOp<K>>],
    apply: impl Fn(&D, &KeyedOp<K>) + Sync,
) -> f64 {
    let (elapsed, _) = run_threads(shards.len(), |t| {
        for op in &shards[t] {
            apply(dsu, op);
        }
    });
    elapsed.as_nanos() as f64
}

fn run_mode<K: Hash + Eq + Clone + Sync + Send>(
    trace: &KeyedWorkload<K>,
    threads: &[usize],
    samples: usize,
    rows: &mut Vec<String>,
) {
    println!("{:>7} {:>14} {:>14} {:>8}", "threads", "locked ns", "keyed ns", "speedup");
    for &p in threads {
        let shards = trace.shard(p);
        // The locked run's final (keys, sets), which the keyed run after it
        // in the same round must reproduce, or the timing comparison
        // measured different work.
        let mut locked_counts = (0, 0);
        let meds = interleaved_medians(2, samples, |_, contender| {
            if contender == 0 {
                let locked: LockedKeyedDsu<K> = LockedKeyedDsu::new();
                let ns = timed_keyed_run(&locked, &shards, |d, op| match op {
                    KeyedOp::Merge(a, b) => {
                        d.merge_keys(a, b);
                    }
                    KeyedOp::SameSet(a, b) => {
                        d.same_set(a, b);
                    }
                });
                locked_counts = (locked.key_count(), locked.set_count());
                ns
            } else {
                let keyed: KeyedDsu<K> = KeyedDsu::new();
                let ns = timed_keyed_run(&keyed, &shards, |d, op| match op {
                    KeyedOp::Merge(a, b) => {
                        d.merge_keys(a, b);
                    }
                    KeyedOp::SameSet(a, b) => {
                        d.same_set(a, b);
                    }
                });
                assert_eq!(keyed.key_count(), locked_counts.0, "contenders diverged on keys");
                assert_eq!(keyed.set_count(), locked_counts.1, "contenders diverged on sets");
                ns
            }
        });
        let (lm, km) = (meds[0], meds[1]);
        println!("{:>7} {:>14.0} {:>14.0} {:>8.3}", p, lm, km, lm / km);
        rows.push(format!(
            "{{\"threads\":{p},\"locked_median_ns\":{lm:.0},\"keyed_median_ns\":{km:.0},\
             \"keyed_speedup\":{:.4}}}",
            lm / km
        ));
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 5 } else { 9 });
    let ops = args.usize("ops", if quick { 1 << 15 } else { 400_000 });
    let fresh = args.f64("fresh", 0.4);
    let merges = args.f64("merges", 0.7);
    let window = args.usize("window", 4096);
    let mode = args.get("mode").unwrap_or("strings").to_string();
    let threads = args.thread_ladder();

    let spec =
        KeyedSpec::new(ops).merge_fraction(merges).fresh_fraction(fresh).revisit_window(window);
    let indices = spec.generate(0x4B45);
    let distinct_keys = indices.distinct_keys;
    println!(
        "{ops} keyed ops ({mode}), {:.0}% merges, {:.0}% fresh keys, window {window}, \
         {distinct_keys} distinct keys, {samples} interleaved samples per mode",
        merges * 100.0,
        fresh * 100.0,
    );

    let mut rows = Vec::new();
    match mode.as_str() {
        "sparse" => run_mode(&indices.into_sparse_u64(0x4B45), &threads, samples, &mut rows),
        "strings" => {
            run_mode(&indices.into_strings("record", 0x4B45), &threads, samples, &mut rows)
        }
        other => panic!("--mode expects strings|sparse, got {other:?}"),
    }

    if let Some(path) = args.get("json") {
        write_record(
            path,
            "keyed_ab",
            &[
                (
                    "workload",
                    format!(
                        "{{\"n\": {ops}, \"mode\": \"{mode}\", \"fresh\": {fresh}, \
                         \"merges\": {merges}, \"window\": {window}, \
                         \"distinct_keys\": {distinct_keys}, \"seed\": \"0x4B45\"}}"
                    ),
                ),
                ("samples", samples.to_string()),
                ("results", json_list(&rows)),
            ],
        );
    }
}
