//! Flatten-sweep A/B: does paying an `O(n)` pointer-jumping pass at the
//! ingest→query boundary beat just running the queries?
//!
//! The contender pair, per (universe, threads) cell — both run the
//! *same* burst-ingest phase followed by the *same* query-only storm, and
//! the measured time is the whole pipeline (ingest + any sweeps + storm),
//! so the sweep's cost is inside the number it has to win back:
//!
//! * **off** — the do-nothing baseline: ingest the bursts, run the storm
//!   over whatever forest the unites left behind.
//! * **sweep** — one explicit [`Dsu::flatten_parallel`] between ingest and
//!   storm (the phase-boundary pattern `IncrementalConnectivity::flatten`
//!   and the percolation `_flattened` route expose): after it, every find
//!   in the storm is a single load.
//!
//! Two universes (cache-resident and DRAM-resident at the ISSUE's
//! n = 2^18 / 2^22; `--quick` shrinks both) × the thread ladder; samples
//! interleave round-robin across arms so host drift cancels. Per-cell
//! medians and each arm's speedup over `off` (same run) are printed and,
//! with `--json PATH`, archived with the machine fingerprint and a
//! single-threaded counter-attribution block (storm `find_hops` with and
//! without the sweep, sweep `flatten_jumps`) in the row shape
//! `check_bench_regression.py` gates (`BENCH_PR9.json`).
//!
//! Run: `cargo run --release -p dsu-bench --example flatten_ab --
//!       [--samples 5] [--threads 1,2,4,8] [--json out.json]
//!       [--quick true]`

use std::fmt::Write as _;
use std::time::Instant;

use concurrent_dsu::{Dsu, OpStats};
use dsu_bench::{machine_fingerprint_json, median, timed_ingest_batched, timed_parallel_run};
use dsu_harness::Args;
use dsu_workloads::{EdgeBatches, Op, Workload, WorkloadSpec};

const MODES: [&str; 2] = ["off", "sweep"];

struct Probe {
    label: &'static str,
    n: usize,
    ingest: EdgeBatches,
    storm: Workload,
}

fn probes(quick: bool) -> Vec<Probe> {
    // Cache-resident vs DRAM-resident universes (`TunedDsu`'s 8 MiB budget
    // as the dividing line, as in variants_ab). The ingest phase unites
    // n edges in 1024-edge bursts — enough to leave multi-hop paths —
    // and the storm is query-only at 4 ops per element: the read-heavy
    // steady state the flatten pass is *for*. Uniform endpoints, so the
    // storm walks cold tails instead of re-hitting a few hot roots.
    let (n_cache, n_dram) = if quick { (1 << 15, 1 << 18) } else { (1 << 18, 1 << 22) };
    [("cache-mix", n_cache), ("dram-mix", n_dram)]
        .into_iter()
        .map(|(label, n)| Probe {
            label,
            n,
            ingest: dsu_bench::standard_edge_batches(n, n / 1024, 1024, 1.1),
            storm: WorkloadSpec::new(n, 4 * n).unite_fraction(0.0).generate(0xF1A7_2016),
        })
        .collect()
}

/// One timed pipeline run of a mode: fresh structure, burst ingest,
/// mode-specific sweeping, query storm. Returns total wall nanoseconds.
fn timed_mode(mode: &str, probe: &Probe, threads: usize) -> f64 {
    let dsu: Dsu = Dsu::with_seed(probe.n, 0xF1A7);
    let mut total = timed_ingest_batched(&dsu, &probe.ingest.batches, threads);
    if mode == "sweep" {
        let t0 = Instant::now();
        dsu.flatten_parallel(threads);
        total += t0.elapsed();
    }
    total += timed_parallel_run(&dsu, &probe.storm, threads);
    total.as_nanos() as f64
}

/// One interleaved sampling round: every arm gets one pipeline run, in
/// order, so slow host phases land on all arms equally.
fn sample_round(probe: &Probe, threads: usize, buckets: &mut [Vec<f64>]) {
    for (i, mode) in MODES.iter().enumerate() {
        buckets[i].push(timed_mode(mode, probe, threads));
    }
}

/// Single-threaded counter attribution: the storm's measured path lengths
/// with and without the sweep, plus what the sweep itself did. This is
/// the mechanism check behind the timings — `find_hops/find` must drop
/// to ~0 after the sweep or the A/B is measuring something else.
fn attribution(probe: &Probe) -> String {
    let storm_hops = |dsu: &Dsu, stats: &mut OpStats| {
        for &op in &probe.storm.ops {
            if let Op::SameSet(x, y) = op {
                dsu.same_set_with(x, y, stats);
            }
        }
    };
    // Two fresh structures over the same seeded ingest — one storms the
    // forest as the unites left it, the other sweeps first — so the hop
    // counts compare exactly what the timed `off` and `sweep` arms run.
    let dsu: Dsu = Dsu::with_seed(probe.n, 0xF1A7);
    timed_ingest_batched(&dsu, &probe.ingest.batches, 1);
    let mut off = OpStats::default();
    storm_hops(&dsu, &mut off);
    let dsu: Dsu = Dsu::with_seed(probe.n, 0xF1A7);
    timed_ingest_batched(&dsu, &probe.ingest.batches, 1);
    let mut sweep = OpStats::default();
    sweep.merge(&dsu.flatten_parallel(2));
    let mut post = OpStats::default();
    storm_hops(&dsu, &mut post);
    format!(
        "{{\"probe\":\"{}\",\"n\":{},\"storm_finds\":{},\"off_find_hops\":{},\
         \"off_hops_per_find\":{:.4},\"sweep_flatten_jumps\":{},\"sweep_flatten_cas_lost\":{},\
         \"post_find_hops\":{},\"post_hops_per_find\":{:.4}}}",
        probe.label,
        probe.n,
        off.finds,
        off.find_hops,
        off.hops_per_find(),
        sweep.flatten_jumps,
        sweep.flatten_cas_lost,
        post.find_hops,
        post.hops_per_find()
    )
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 3 } else { 5 });
    let threads = args.thread_ladder();

    let mut rows = String::new();
    let mut attrs = String::new();
    for probe in &probes(quick) {
        println!(
            "\n== {} (n = {}, ingest {} edges, storm {} queries, {} interleaved samples) ==",
            probe.label,
            probe.n,
            probe.ingest.batches.iter().map(Vec::len).sum::<usize>(),
            probe.storm.len(),
            samples
        );
        println!("{:>7} {:>6} {:>14} {:>8}", "threads", "mode", "median ns", "vs off");
        for &p in &threads {
            let mut buckets: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); MODES.len()];
            // Warm-up round (uncounted), then the counted rounds.
            sample_round(probe, p, &mut buckets);
            for b in &mut buckets {
                b.clear();
            }
            for _ in 0..samples {
                sample_round(probe, p, &mut buckets);
            }
            let meds: Vec<f64> = buckets.iter_mut().map(|b| median(b)).collect();
            let off_med = meds[0];
            if !rows.is_empty() {
                rows.push(',');
            }
            let _ = write!(rows, "\n    {{\"threads\":{p},\"n\":{}", probe.n);
            for (i, mode) in MODES.iter().enumerate() {
                let speedup = off_med / meds[i];
                let marker = if meds[i] == meds.iter().copied().fold(f64::MAX, f64::min) {
                    " <- best"
                } else {
                    ""
                };
                println!("{:>7} {:>6} {:>14.0} {:>8.3}{marker}", p, mode, meds[i], speedup);
                let _ = write!(
                    rows,
                    ",\"{mode}_median_ns\":{:.0},\"{mode}_speedup\":{speedup:.4}",
                    meds[i]
                );
            }
            rows.push('}');
        }
        let attr = attribution(probe);
        println!("attribution: {attr}");
        if !attrs.is_empty() {
            attrs.push(',');
        }
        let _ = write!(attrs, "\n    {attr}");
    }

    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"example\": \"flatten_ab\",\n  \"machine\": {},\n  \"samples\": {samples},\n  \
             \"results\": [{rows}\n  ],\n  \"attribution\": [{attrs}\n  ]\n}}\n",
            machine_fingerprint_json()
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
