//! Chaos sweep: throughput degradation and linearizability verdicts under
//! injected faults, across fault rates × layouts × thread counts.
//!
//! Each cell wraps the layout in `FaultyStore` with a seeded `FaultPlan`
//! (spurious CAS failures + delayed loads + stall windows at the given
//! rate) and measures batched ingestion throughput against the same
//! layout's rate-0 baseline — the degradation column is the price of the
//! injected adversary, and a wait-free implementation must degrade
//! *smoothly* (no cliff, no hang: every injected failure costs at most a
//! bounded retry). Alongside the timing, each cell records a handful of
//! small timed histories (4 threads on a 6-element universe) through
//! `linearize::HistoryRecorder` and checks them with the Wing–Gong
//! checker: the `lin` column must read `ok` everywhere, or the sweep
//! exits nonzero — chaos is only useful if correctness is checked *under*
//! it, not after it.
//!
//! The rate-0 cell doubles as the off-path honesty check: it runs the
//! same decorated store with `FaultPlan::off`, so comparing it against an
//! undecorated run (see `batch_vs_perop_ab`) bounds the decorator's
//! overhead when nothing is injected.
//!
//! Run: `cargo run --release -p dsu-bench --example chaos_ab --
//!       [--samples 7] [--n 1048576] [--batches 512] [--batch-size 1024]
//!       [--rates 0,0.05,0.2,0.5] [--histories 20] [--threads 1,2,4,8]
//!       [--json out.json] [--quick true]`

use std::fmt::Write as _;

use concurrent_dsu::{Dsu, DsuStore, FaultPlan, FaultyStore, FlatStore, PackedStore, TwoTrySplit};
use dsu_bench::{median, standard_edge_batches, timed_ingest_batched};
use dsu_harness::Args;
use dsu_workloads::EdgeBatches;
use linearize::{check_linearizable, CompletedOp, DsuOp, DsuSpec, HistoryRecorder};

/// One faulted `Dsu` over layout `S`.
fn faulted<S: DsuStore>(n: usize, seed: u64, plan: FaultPlan) -> Dsu<TwoTrySplit, FaultyStore<S>> {
    Dsu::from_store(FaultyStore::with_plan(S::with_seed(n, seed), plan))
}

/// Records `histories` small native histories on a fresh faulted instance
/// of `S` and checks each; returns (passed, total).
fn lin_verdicts<S: DsuStore>(histories: usize, rate: f64, base_seed: u64) -> (usize, usize) {
    let (n, threads, ops_per_thread) = (6, 4, 5);
    let mut ok = 0;
    for h in 0..histories {
        let seed = base_seed ^ (h as u64 * 7919 + 1);
        let dsu = faulted::<S>(n, seed, FaultPlan::rate(seed, rate));
        let recorder = HistoryRecorder::new();
        let barrier = std::sync::Barrier::new(threads);
        let mut history: Vec<CompletedOp<DsuOp>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (dsu, recorder, barrier) = (&dsu, &recorder, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (0..ops_per_thread)
                            .map(|i| {
                                let z = concurrent_dsu::order::splitmix64(
                                    seed ^ ((t as u64) << 32) ^ i as u64,
                                );
                                let (x, y) = ((z >> 8) as usize % n, (z >> 24) as usize % n);
                                if z.is_multiple_of(4) {
                                    recorder.record(DsuOp::SameSet(x, y), || dsu.same_set(x, y))
                                } else {
                                    recorder.record(DsuOp::Unite(x, y), || dsu.unite(x, y))
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                history.extend(handle.join().unwrap());
            }
        });
        match check_linearizable(&DsuSpec::new(n), &history) {
            Ok(_) => ok += 1,
            Err(e) => {
                eprintln!("REFUTATION ({}, rate {rate}, seed {seed}): {e}\n{history:#?}", S::NAME);
            }
        }
    }
    (ok, histories)
}

/// Sweeps one layout over rates × thread counts; appends JSON rows and
/// returns `false` if any history refused to linearize.
#[allow(clippy::too_many_arguments)]
fn sweep<S: DsuStore>(
    arrivals: &EdgeBatches,
    n: usize,
    rates: &[f64],
    threads: &[usize],
    samples: usize,
    histories: usize,
    rows: &mut String,
    all_linearizable: &mut bool,
) {
    println!(
        "\n{:>8} {:>6} {:>7} {:>14} {:>12} {:>9} {:>12}",
        "layout", "rate", "threads", "batched ns", "degradation", "lin", "faults"
    );
    // Undecorated baseline per thread count: the same layout with no
    // FaultyStore wrapper at all. The rate-0 decorated row divided by
    // this is the decorator's true off-path overhead — the acceptance
    // bar for "zero cost when unused".
    let mut bare: Vec<(usize, f64)> = Vec::new();
    for &p in threads {
        let mk = || Dsu::<TwoTrySplit, S>::from_store(S::with_seed(n, 0xBA7C));
        timed_ingest_batched(&mk(), &arrivals.batches, p);
        let mut ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            ns.push(timed_ingest_batched(&mk(), &arrivals.batches, p).as_nanos() as f64);
        }
        let m = median(&mut ns);
        println!(
            "{:>8} {:>6} {:>7} {:>14.0} {:>12} {:>9} {:>12}",
            S::NAME,
            "bare",
            p,
            m,
            "-",
            "-",
            "-"
        );
        bare.push((p, m));
    }
    for &rate in rates {
        for &p in threads {
            let plan = if rate > 0.0 { FaultPlan::rate(0xC4A05, rate) } else { FaultPlan::off() };
            // Warm-up, then interleave nothing — cells are independent;
            // the baseline is the same layout's rate-0 row.
            timed_ingest_batched(&faulted::<S>(n, 0xBA7C, plan), &arrivals.batches, p);
            let mut ns = Vec::with_capacity(samples);
            let mut faults = 0u64;
            for _ in 0..samples {
                let dsu = faulted::<S>(n, 0xBA7C, plan);
                ns.push(timed_ingest_batched(&dsu, &arrivals.batches, p).as_nanos() as f64);
                faults += dsu.store().fault_report().total();
            }
            let m = median(&mut ns);
            // Baseline lookup: the rate-0 row of this layout/threads was
            // pushed first (rates[0] must be 0 for degradation to mean
            // anything; enforced in main).
            let base = baseline(rows, S::NAME, p).unwrap_or(m);
            let (ok, total) = lin_verdicts::<S>(histories, rate.max(0.05), 0xC4A05);
            *all_linearizable &= ok == total;
            println!(
                "{:>8} {:>6.2} {:>7} {:>14.0} {:>12.3} {:>6}/{:<2} {:>12}",
                S::NAME,
                rate,
                p,
                m,
                m / base,
                ok,
                total,
                faults
            );
            if !rows.is_empty() {
                rows.push(',');
            }
            let _ = write!(
                rows,
                "\n    {{\"layout\":\"{}\",\"rate\":{rate},\"threads\":{p},\
                 \"batched_median_ns\":{m:.0},\"degradation\":{:.4},\
                 \"lin_ok\":{ok},\"lin_total\":{total},\"faults_injected\":{faults}",
                S::NAME,
                m / base
            );
            if rate == 0.0 {
                // The off-path honesty numbers live on the rate-0 row.
                let b = bare.iter().find(|&&(bp, _)| bp == p).map(|&(_, bm)| bm).unwrap_or(m);
                let _ =
                    write!(rows, ",\"bare_median_ns\":{b:.0},\"off_path_overhead\":{:.4}", m / b);
                println!(
                    "{:>8} {:>6} {:>7} off-path overhead vs bare: {:.4}x",
                    S::NAME,
                    "off",
                    p,
                    m / b
                );
            }
            rows.push('}');
        }
    }
}

/// Finds this layout × thread count's rate-0 median in the rows emitted so
/// far (cheap string scan; the row format is ours).
fn baseline(rows: &str, layout: &str, threads: usize) -> Option<f64> {
    let tag = format!("{{\"layout\":\"{layout}\",\"rate\":0,\"threads\":{threads},");
    let at = rows.find(&tag)?;
    let rest = &rows[at..];
    let key = "\"batched_median_ns\":";
    let v = &rest[rest.find(key)? + key.len()..];
    v[..v.find(',')?].parse().ok()
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 3 } else { 7 });
    let n = args.usize("n", if quick { 1 << 14 } else { 1 << 20 });
    let batches = args.usize("batches", if quick { 1 << 5 } else { 1 << 9 });
    let batch_size = args.usize("batch-size", 1 << 10);
    let histories = args.usize("histories", if quick { 5 } else { 20 });
    let threads = args.thread_ladder();
    let rates: Vec<f64> = args
        .get("rates")
        .map(|s| s.split(',').map(|r| r.trim().parse().expect("rate")).collect())
        .unwrap_or_else(|| if quick { vec![0.0, 0.2] } else { vec![0.0, 0.05, 0.2, 0.5] });
    assert_eq!(rates[0], 0.0, "first rate must be 0: it is every cell's degradation baseline");

    let arrivals = standard_edge_batches(n, batches, batch_size, 1.0);
    println!(
        "chaos sweep: n = {n}, {batches} bursts x {batch_size} edges, rates {rates:?}, \
         {samples} samples, {histories} checked histories per cell"
    );

    let mut rows = String::new();
    let mut all_linearizable = true;
    sweep::<PackedStore>(
        &arrivals,
        n,
        &rates,
        &threads,
        samples,
        histories,
        &mut rows,
        &mut all_linearizable,
    );
    sweep::<FlatStore>(
        &arrivals,
        n,
        &rates,
        &threads,
        samples,
        histories,
        &mut rows,
        &mut all_linearizable,
    );

    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"example\": \"chaos_ab\",\n  \"machine\": {},\n  \
             \"workload\": {{\"n\": {n}, \"batches\": {batches}, \
             \"batch_size\": {batch_size}, \"zipf\": 1.0, \"seed\": \"0xBA7C\"}},\n  \
             \"samples\": {samples},\n  \"histories_per_cell\": {histories},\n  \
             \"all_linearizable\": {all_linearizable},\n  \"results\": [{rows}\n  ]\n}}\n",
            dsu_bench::machine_fingerprint_json()
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
    assert!(all_linearizable, "at least one chaos history refused to linearize — see stderr");
    println!("\nall recorded chaos histories linearizable.");
}
