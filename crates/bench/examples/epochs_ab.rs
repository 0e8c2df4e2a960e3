//! Epoch-layer A/B: what does versioning cost when you don't use it, when
//! you hold it ready, and what does it buy when you do?
//!
//! **Part 1 — snapshot overhead.** Per universe, the same pipeline (burst
//! ingest then a query-only storm, all timed) runs on two arms:
//!
//! * **versioned** — [`VersionedDsu`] with *no* snapshots taken: the
//!   baseline, on the same `EpochStore` every growable structure uses.
//!   The attribution block asserts its fork/copy counters stay zero.
//! * **snap** — `snapshot_every = 1`: a copy-on-write guard point before
//!   every burst (the `ingest_batch` auto-snap policy), the worst-case
//!   cadence. This is the price of "always able to roll back one batch".
//!
//! **Part 2 — the first payoff.** Exact percolation thresholds per grid:
//!
//! * **linear** — [`percolation_threshold`]: open sites one by one,
//!   checking connectivity after each (exact by construction).
//! * **batched** — [`percolation_threshold_batched`]: burst ingestion,
//!   threshold rounded up to the burst boundary (fast but *inexact* —
//!   shown as the floor exactness has to be paid for).
//! * **binsearch** — [`percolation_threshold_versioned`]: burst ingestion
//!   plus binary search over snapshot forks inside the crossing burst,
//!   recovering the exact one-by-one answer without linear re-sweeps.
//!
//! Samples interleave round-robin across arms so host drift cancels;
//! per-cell medians and speedups vs the first arm are printed and, with
//! `--json PATH`, archived in the row shape `check_bench_regression.py`
//! gates (`BENCH_PR10.json`). Honest negatives welcome: versioning is
//! opt-in, so Part 1 is allowed to cost — the archive is what keeps the
//! cost visible.
//!
//! Run: `cargo run --release -p dsu-bench --example epochs_ab --
//!       [--samples 5] [--json out.json] [--quick true]`

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::VersionedDsu;
use dsu_bench::{machine_fingerprint_json, median, standard_edge_batches};
use dsu_graph::percolation::{
    percolation_threshold, percolation_threshold_batched, percolation_threshold_versioned,
};
use dsu_harness::Args;
use dsu_workloads::{Op, Workload, WorkloadSpec};

const INGEST_MODES: [&str; 2] = ["versioned", "snap"];
const PERC_MODES: [&str; 3] = ["linear", "batched", "binsearch"];

struct Probe {
    label: &'static str,
    n: usize,
    batches: Vec<Vec<(usize, usize)>>,
    storm: Workload,
}

fn probes(quick: bool) -> Vec<Probe> {
    // Same shape as flatten_ab: n edges in 1024-edge bursts, then a
    // query-only storm at 2 ops per element. The snap arm guards every
    // burst, so burst count — not edge count — is what it pays per.
    let (n_small, n_big) = if quick { (1 << 13, 1 << 16) } else { (1 << 16, 1 << 20) };
    [("cache-mix", n_small), ("dram-mix", n_big)]
        .into_iter()
        .map(|(label, n)| Probe {
            label,
            n,
            batches: standard_edge_batches(n, n / 1024, 1024, 1.1).batches,
            storm: WorkloadSpec::new(n, 2 * n).unite_fraction(0.0).generate(0xE90C_2016),
        })
        .collect()
}

fn run_storm(find: impl Fn(usize, usize) -> bool, storm: &Workload) {
    for &op in &storm.ops {
        if let Op::SameSet(x, y) = op {
            std::hint::black_box(find(x, y));
        }
    }
}

/// One timed pipeline run of an ingest arm: fresh structure, burst
/// ingest (with the arm's snapshot cadence), query storm. Wall ns.
fn timed_ingest_mode(mode: &str, probe: &Probe) -> f64 {
    let t0 = Instant::now();
    match mode {
        "versioned" => {
            let dsu: VersionedDsu = VersionedDsu::with_initial(probe.n);
            for batch in &probe.batches {
                dsu.unite_batch(batch);
            }
            run_storm(|x, y| dsu.same_set(x, y), &probe.storm);
        }
        "snap" => {
            let mut dsu: VersionedDsu = VersionedDsu::with_initial(probe.n);
            dsu.set_snapshot_every(NonZeroUsize::new(1));
            for batch in &probe.batches {
                dsu.ingest_batch(batch);
            }
            run_storm(|x, y| dsu.same_set(x, y), &probe.storm);
        }
        _ => unreachable!(),
    }
    t0.elapsed().as_nanos() as f64
}

/// The mechanism check behind the Part 1 timings: the versioned arm with
/// no snapshots must fork nothing (zero CoW anywhere in the run), while
/// the snap-every-burst arm's fork count bounds what the timing gap can
/// legitimately be blamed on.
fn attribution(probe: &Probe) -> String {
    let idle: VersionedDsu = VersionedDsu::with_initial(probe.n);
    for batch in &probe.batches {
        idle.unite_batch(batch);
    }
    let idle_report = idle.dsu().store().epoch_report();
    assert_eq!(
        (idle_report.segments_forked, idle_report.cow_copies),
        (0, 0),
        "an unsnapshotted run forked segments — versioning is not free-when-unused"
    );
    let mut snap: VersionedDsu = VersionedDsu::with_initial(probe.n);
    snap.set_snapshot_every(NonZeroUsize::new(1));
    for batch in &probe.batches {
        snap.ingest_batch(batch);
    }
    let report = snap.dsu().store().epoch_report();
    format!(
        "{{\"probe\":\"{}\",\"n\":{},\"bursts\":{},\"idle_segments_forked\":0,\
         \"idle_cow_copies\":0,\"snap_snapshots_taken\":{},\"snap_segments_forked\":{},\
         \"snap_cow_copies\":{}}}",
        probe.label,
        probe.n,
        probe.batches.len(),
        snap.snapshots_taken(),
        report.segments_forked,
        report.cow_copies
    )
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 3 } else { 5 });

    let mut rows = String::new();
    let mut attrs = String::new();
    let push_row = |rows: &mut String, n: usize, modes: &[&str], meds: &[f64]| {
        if !rows.is_empty() {
            rows.push(',');
        }
        let _ = write!(rows, "\n    {{\"threads\":1,\"n\":{n}");
        for (i, mode) in modes.iter().enumerate() {
            let speedup = meds[0] / meds[i];
            let _ = write!(
                rows,
                ",\"{mode}_median_ns\":{:.0},\"{mode}_speedup\":{speedup:.4}",
                meds[i]
            );
        }
        rows.push('}');
    };

    for probe in &probes(quick) {
        println!(
            "\n== snapshot overhead: {} (n = {}, {} bursts, {} queries, {} samples) ==",
            probe.label,
            probe.n,
            probe.batches.len(),
            probe.storm.len(),
            samples
        );
        println!("{:>10} {:>14} {:>12}", "mode", "median ns", "vs versioned");
        let mut buckets: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); INGEST_MODES.len()];
        for round in 0..samples + 1 {
            for (i, mode) in INGEST_MODES.iter().enumerate() {
                let ns = timed_ingest_mode(mode, probe);
                if round > 0 {
                    // Round 0 is the uncounted warm-up.
                    buckets[i].push(ns);
                }
            }
        }
        let meds: Vec<f64> = buckets.iter_mut().map(|b| median(b)).collect();
        for (i, mode) in INGEST_MODES.iter().enumerate() {
            println!("{:>10} {:>14.0} {:>12.3}", mode, meds[i], meds[0] / meds[i]);
        }
        push_row(&mut rows, probe.n, &INGEST_MODES, &meds);
        let attr = attribution(probe);
        println!("attribution: {attr}");
        if !attrs.is_empty() {
            attrs.push(',');
        }
        let _ = write!(attrs, "\n    {attr}");
    }

    let grids: &[usize] = if quick { &[24, 48] } else { &[64, 128] };
    for &size in grids {
        let batch = size; // one burst per opened row, the natural cadence
        println!(
            "\n== exact percolation threshold: {size}x{size} grid (batch = {batch}, {} samples) ==",
            samples
        );
        println!("{:>10} {:>14} {:>10} {:>7}", "mode", "median ns", "vs linear", "exact");
        let mut buckets: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); PERC_MODES.len()];
        let mut answers = [0.0f64; 3];
        for round in 0..samples + 1 {
            for (i, mode) in PERC_MODES.iter().enumerate() {
                let t0 = Instant::now();
                let p = match *mode {
                    "linear" => percolation_threshold(size, 0xE90C + round as u64),
                    "batched" => percolation_threshold_batched(size, 0xE90C + round as u64, batch),
                    "binsearch" => {
                        percolation_threshold_versioned(size, 0xE90C + round as u64, batch)
                    }
                    _ => unreachable!(),
                };
                if round > 0 {
                    buckets[i].push(t0.elapsed().as_nanos() as f64);
                }
                answers[i] = p;
            }
            // The payoff claim, checked inside the bench: binsearch must
            // reproduce linear's exact threshold on every sample.
            assert_eq!(
                answers[0], answers[2],
                "binary-search threshold diverged from the one-by-one answer"
            );
        }
        let meds: Vec<f64> = buckets.iter_mut().map(|b| median(b)).collect();
        for (i, mode) in PERC_MODES.iter().enumerate() {
            let exact = if answers[i] == answers[0] { "yes" } else { "no" };
            println!("{:>10} {:>14.0} {:>10.3} {:>7}", mode, meds[i], meds[0] / meds[i], exact);
        }
        push_row(&mut rows, size * size, &PERC_MODES, &meds);
    }

    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"example\": \"epochs_ab\",\n  \"machine\": {},\n  \"samples\": {samples},\n  \
             \"results\": [{rows}\n  ],\n  \"attribution\": [{attrs}\n  ]\n}}\n",
            machine_fingerprint_json()
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
