//! Epoch-layer A/B: what does versioning cost when you don't use it, when
//! you hold it ready, and what does it buy when you do?
//!
//! **Part 1 — snapshot overhead.** Per universe, the same pipeline (burst
//! ingest then a query-only storm, all timed) runs on two arms:
//!
//! * **versioned** — [`VersionedDsu`] with *no* snapshots taken: the
//!   baseline, on the same `EpochStore` every growable structure uses.
//!   The attribution block asserts its fork/copy counters stay zero.
//! * **snap** — a copy-on-write guard point before every burst: take a
//!   snapshot, then drop the previous one, so one guard is always
//!   retained. The worst-case cadence — the price of "always able to roll
//!   back one batch".
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
//! Run: `cargo run --release -p dsu-harness --example epochs_ab --
//!       [--samples 5] [--json out.json] [--quick true]`

use std::fmt::Write as _;
use std::time::Instant;

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::{Epoch, VersionedDsu};
use dsu_graph::percolation::{
    percolation_threshold, percolation_threshold_batched, percolation_threshold_versioned,
};
use dsu_harness::{interleaved_medians, json_list, standard_edge_batches, write_record, Args};
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
    // n edges in 1024-edge bursts, then a query-only storm at 2 ops per
    // element. The snap arm guards every
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

/// The snap arm's ingest: before each burst, drop the previous guard and
/// snapshot a fresh one, so exactly one guard is retained at a time.
fn ingest_guarded(dsu: &mut VersionedDsu, batches: &[Vec<(usize, usize)>]) {
    let mut guard: Option<Epoch> = None;
    for batch in batches {
        if let Some(prev) = guard.take() {
            dsu.drop_snapshot(prev);
        }
        guard = Some(dsu.snapshot());
        dsu.unite_batch(batch);
    }
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
            ingest_guarded(&mut dsu, &probe.batches);
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
    ingest_guarded(&mut snap, &probe.batches);
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

    let mut rows = Vec::new();
    let mut attrs = Vec::new();
    let row = |n: usize, modes: &[&str], meds: &[f64]| {
        let mut row = format!("{{\"threads\":1,\"n\":{n}");
        for (i, mode) in modes.iter().enumerate() {
            let speedup = meds[0] / meds[i];
            let _ =
                write!(row, ",\"{mode}_median_ns\":{:.0},\"{mode}_speedup\":{speedup:.4}", meds[i]);
        }
        row.push('}');
        row
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
        let meds = interleaved_medians(INGEST_MODES.len(), samples, |_, i| {
            timed_ingest_mode(INGEST_MODES[i], probe)
        });
        for (i, mode) in INGEST_MODES.iter().enumerate() {
            println!("{:>10} {:>14.0} {:>12.3}", mode, meds[i], meds[0] / meds[i]);
        }
        rows.push(row(probe.n, &INGEST_MODES, &meds));
        let attr = attribution(probe);
        println!("attribution: {attr}");
        attrs.push(attr);
    }

    let grids: &[usize] = if quick { &[24, 48] } else { &[64, 128] };
    for &size in grids {
        let batch = size; // one burst per opened row, the natural cadence
        println!(
            "\n== exact percolation threshold: {size}x{size} grid (batch = {batch}, {} samples) ==",
            samples
        );
        println!("{:>10} {:>14} {:>10} {:>7}", "mode", "median ns", "vs linear", "exact");
        let mut answers = [0.0f64; 3];
        let meds = interleaved_medians(PERC_MODES.len(), samples, |round, i| {
            let seed = 0xE90C + round as u64;
            let t0 = Instant::now();
            answers[i] = match PERC_MODES[i] {
                "linear" => percolation_threshold(size, seed),
                "batched" => percolation_threshold_batched(size, seed, batch),
                "binsearch" => percolation_threshold_versioned(size, seed, batch),
                _ => unreachable!(),
            };
            let ns = t0.elapsed().as_nanos() as f64;
            // The payoff claim, checked inside the bench: binsearch must
            // reproduce linear's exact threshold on every sample.
            if PERC_MODES[i] == "binsearch" {
                assert_eq!(
                    answers[0], answers[i],
                    "binary-search threshold diverged from the one-by-one answer"
                );
            }
            ns
        });
        for (i, mode) in PERC_MODES.iter().enumerate() {
            let exact = if answers[i] == answers[0] { "yes" } else { "no" };
            println!("{:>10} {:>14.0} {:>10.3} {:>7}", mode, meds[i], meds[0] / meds[i], exact);
        }
        rows.push(row(size * size, &PERC_MODES, &meds));
    }

    if let Some(path) = args.get("json") {
        write_record(
            path,
            "epochs_ab",
            &[
                ("samples", samples.to_string()),
                ("results", json_list(&rows)),
                ("attribution", json_list(&attrs)),
            ],
        );
    }
}
