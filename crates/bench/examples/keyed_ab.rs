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
//! Run: `cargo run --release -p dsu-bench --example keyed_ab --
//!       [--ops 400000] [--fresh 0.4] [--merges 0.7] [--window 4096]
//!       [--mode strings|sparse] [--samples 9] [--threads 1,2,4,8]
//!       [--json out.json] [--quick true]`

use std::fmt::Write as _;
use std::hash::Hash;
use std::time::{Duration, Instant};

use concurrent_dsu::KeyedDsu;
use dsu_baselines::LockedKeyedDsu;
use dsu_bench::{machine_fingerprint_json, median};
use dsu_harness::Args;
use dsu_workloads::{KeyedOp, KeyedSpec, KeyedWorkload};

/// Runs `shards[t]` on thread `t` against `apply`; returns wall time from
/// the barrier release (taken before the release, like every timed runner
/// in dsu-bench, so a descheduled main thread cannot deflate it).
fn timed_keyed_run<K: Sync, D: Sync>(
    dsu: &D,
    shards: &[Vec<KeyedOp<K>>],
    apply: impl Fn(&D, &KeyedOp<K>) + Copy + Send,
) -> Duration {
    let barrier = std::sync::Barrier::new(shards.len() + 1);
    let started = std::thread::scope(|s| {
        for shard in shards {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for op in shard {
                    apply(dsu, op);
                }
            });
        }
        let t0 = Instant::now();
        barrier.wait();
        t0
    });
    started.elapsed()
}

fn sample_pair<K: Hash + Eq + Clone + Sync + Send>(
    shards: &[Vec<KeyedOp<K>>],
) -> (Duration, Duration) {
    let locked: LockedKeyedDsu<K> = LockedKeyedDsu::new();
    let locked_t = timed_keyed_run(&locked, shards, |d, op| match op {
        KeyedOp::Merge(a, b) => {
            d.merge_keys(a, b);
        }
        KeyedOp::SameSet(a, b) => {
            d.same_set(a, b);
        }
    });
    let keyed: KeyedDsu<K> = KeyedDsu::new();
    let keyed_t = timed_keyed_run(&keyed, shards, |d, op| match op {
        KeyedOp::Merge(a, b) => {
            d.merge_keys(a, b);
        }
        KeyedOp::SameSet(a, b) => {
            d.same_set(a, b);
        }
    });
    // Cross-check while both structures are still warm: identical final
    // populations, or the timing comparison measured different work.
    assert_eq!(keyed.key_count(), locked.key_count(), "contenders diverged on keys");
    assert_eq!(keyed.set_count(), locked.set_count(), "contenders diverged on sets");
    (locked_t, keyed_t)
}

fn run_mode<K: Hash + Eq + Clone + Sync + Send>(
    trace: &KeyedWorkload<K>,
    threads: &[usize],
    samples: usize,
    rows: &mut String,
) {
    println!("{:>7} {:>14} {:>14} {:>8}", "threads", "locked ns", "keyed ns", "speedup");
    for &p in threads {
        let shards = trace.shard(p);
        // Warm-up one run of each contender.
        sample_pair(&shards);
        let mut locked_ns = Vec::with_capacity(samples);
        let mut keyed_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let (l, k) = sample_pair(&shards);
            locked_ns.push(l.as_nanos() as f64);
            keyed_ns.push(k.as_nanos() as f64);
        }
        let (lm, km) = (median(&mut locked_ns), median(&mut keyed_ns));
        println!("{:>7} {:>14.0} {:>14.0} {:>8.3}", p, lm, km, lm / km);
        if !rows.is_empty() {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n    {{\"threads\":{p},\"locked_median_ns\":{lm:.0},\"keyed_median_ns\":{km:.0},\
             \"keyed_speedup\":{:.4}}}",
            lm / km
        );
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
    println!(
        "{ops} keyed ops ({mode}), {:.0}% merges, {:.0}% fresh keys, window {window}, \
         {} distinct keys, {samples} interleaved samples per mode",
        merges * 100.0,
        fresh * 100.0,
        indices.distinct_keys
    );

    let mut rows = String::new();
    match mode.as_str() {
        "sparse" => run_mode(&indices.into_sparse_u64(0x4B45), &threads, samples, &mut rows),
        "strings" => {
            run_mode(&indices.into_strings("record", 0x4B45), &threads, samples, &mut rows)
        }
        other => panic!("--mode expects strings|sparse, got {other:?}"),
    }

    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"example\": \"keyed_ab\",\n  \"machine\": {},\n  \
             \"workload\": {{\"n\": {ops}, \"mode\": \"{mode}\", \"fresh\": {fresh}, \
             \"merges\": {merges}, \"window\": {window}, \"distinct_keys\": {}, \
             \"seed\": \"0x4B45\"}},\n  \"samples\": {samples},\n  \"results\": [{rows}\n  ]\n}}\n",
            machine_fingerprint_json(),
            indices.distinct_keys
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
