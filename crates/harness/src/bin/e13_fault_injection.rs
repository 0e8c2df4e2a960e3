//! **E13 — Lemma 3.2 under chaos, on real threads.**
//!
//! E8 checks linearizability on the APRAM simulator, where the adversary
//! is the schedule. This experiment closes the sim-vs-native gap: the
//! production operations run on actual `std::thread`s over a
//! `FaultyStore`-wrapped layout, with spurious CAS failures, delayed
//! loads, and stall windows injected at swept rates, and every timed
//! history (recorded by `linearize::HistoryRecorder`'s shared `SeqCst`
//! clock) must pass the same Wing–Gong checker. A final canary section
//! re-runs the harness over `BrokenStore` (unconditional CAS) and demands
//! *refutations* — proving the apparatus can still catch a lost-update
//! bug, not merely bless everything it sees.
//!
//! Per-thread `RetryBudget` sinks double as livelock tripwires: a faulted
//! run that retries past its budget panics with a counter dump instead of
//! hanging the experiment.
//!
//! Usage: `--histories 120 --threads 4 --ops-per-proc 5 --n 6
//!         --rates 0.1,0.3,0.6 --csv out.csv --quick true`

use concurrent_dsu::order::splitmix64;
use concurrent_dsu::{
    BrokenStore, Dsu, DsuStore, FaultPlan, FaultyStore, FlatStore, OpStats, PackedStore,
    RetryBudget, TwoTrySplit,
};
use dsu_harness::{Args, Table};
use linearize::{check_linearizable, CompletedOp, DsuOp, DsuSpec, HistoryRecorder};

struct CellOutcome {
    passed: usize,
    refuted: usize,
    stats: OpStats,
    faults: u64,
}

/// Records and checks `histories` native histories over the given store
/// constructor; returns verdicts plus merged per-thread counters.
fn run_cell<S, F, R>(
    histories: usize,
    threads: usize,
    ops_per_proc: usize,
    n: usize,
    base_seed: u64,
    make: F,
    faults_of: R,
) -> CellOutcome
where
    S: DsuStore,
    F: Fn(u64) -> (Dsu<TwoTrySplit, S>, u64),
    R: Fn(&S) -> u64,
{
    let mut outcome = CellOutcome { passed: 0, refuted: 0, stats: OpStats::default(), faults: 0 };
    for h in 0..histories {
        let seed = base_seed ^ (h as u64 * 6151 + 3);
        let (dsu, retry_budget) = make(seed);
        let recorder = HistoryRecorder::new();
        let barrier = std::sync::Barrier::new(threads);
        let mut history: Vec<CompletedOp<DsuOp>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (dsu, recorder, barrier) = (&dsu, &recorder, &barrier);
                    s.spawn(move || {
                        // A per-thread retry budget: livelock dies fast
                        // with a diagnostic dump, not at the job timeout.
                        let mut sink = RetryBudget::new("e13 history thread", retry_budget);
                        // Without the start barrier the 5-op bursts run
                        // back to back and never actually race.
                        barrier.wait();
                        let ops: Vec<CompletedOp<DsuOp>> = (0..ops_per_proc)
                            .map(|i| {
                                let z = splitmix64(seed ^ ((t as u64) << 32) ^ i as u64);
                                let (x, y) = ((z >> 8) as usize % n, (z >> 24) as usize % n);
                                if z.is_multiple_of(4) {
                                    recorder.record(DsuOp::SameSet(x, y), || {
                                        dsu.same_set_with(x, y, &mut sink)
                                    })
                                } else {
                                    recorder.record(DsuOp::Unite(x, y), || {
                                        dsu.unite_with(x, y, &mut sink)
                                    })
                                }
                            })
                            .collect();
                        (ops, sink.into_stats())
                    })
                })
                .collect();
            for handle in handles {
                let (ops, stats) = handle.join().unwrap();
                history.extend(ops);
                outcome.stats.merge(&stats);
            }
        });
        outcome.faults += faults_of(dsu.store());
        match check_linearizable(&DsuSpec::new(n), &history) {
            Ok(_) => outcome.passed += 1,
            Err(_) => outcome.refuted += 1,
        }
    }
    outcome
}

fn faulted_cell<S: DsuStore>(
    table: &mut Table,
    histories: usize,
    threads: usize,
    ops_per_proc: usize,
    n: usize,
    rate: f64,
) -> (usize, usize) {
    // Expected injected retries per link ~ r/(1-r); budget three orders of
    // magnitude above the whole thread's expectation.
    let budget = (1000.0 * ops_per_proc as f64 * rate / (1.0 - rate)).ceil() as u64 + 1000;
    let cell = run_cell::<FaultyStore<S>, _, _>(
        histories,
        threads,
        ops_per_proc,
        n,
        0xE13,
        |seed| {
            (
                Dsu::from_store(FaultyStore::with_plan(
                    S::with_seed(n, seed),
                    FaultPlan::rate(seed, rate),
                )),
                budget,
            )
        },
        |store| store.fault_report().total(),
    );
    table.row(&[
        S::NAME.to_string(),
        format!("{rate:.2}"),
        histories.to_string(),
        cell.passed.to_string(),
        cell.stats.cas_retries.to_string(),
        cell.stats.links_fail.to_string(),
        cell.faults.to_string(),
    ]);
    (cell.passed, histories)
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let histories = args.usize("histories", if quick { 40 } else { 120 });
    let threads = args.usize("threads", 4);
    let ops_per_proc = args.usize("ops-per-proc", 5);
    let n = args.usize("n", 6);
    let rates: Vec<f64> = args
        .get("rates")
        .map(|s| s.split(',').map(|r| r.trim().parse().expect("rate")).collect())
        .unwrap_or_else(|| vec![0.1, 0.3, 0.6]);

    assert!(
        threads * ops_per_proc <= 64,
        "history size {} exceeds the checker's 64-op bound",
        threads * ops_per_proc
    );
    println!(
        "E13: native linearizability under chaos — {histories} histories × \
         {{packed, flat}} × rates {rates:?} ({threads} threads × {ops_per_proc} ops, n = {n})"
    );
    println!("paper Lemma 3.2: every execution linearizable — now with faults injected\n");

    let mut table = Table::new(&[
        "layout",
        "rate",
        "histories",
        "linearizable",
        "cas_retries",
        "links_fail",
        "faults",
    ]);
    let (mut ok, mut total) = (0, 0);
    for &rate in &rates {
        for (p, t) in [
            faulted_cell::<PackedStore>(&mut table, histories, threads, ops_per_proc, n, rate),
            faulted_cell::<FlatStore>(&mut table, histories, threads, ops_per_proc, n, rate),
        ] {
            ok += p;
            total += t;
        }
    }

    // The canary: BrokenStore histories must be refuted. Delay-only
    // injection around the broken CAS widens the lost-update window from
    // nanoseconds to thousands of spin hints, so the race it hides fires
    // reliably on the same schedules a correct store survives above.
    let delay_plan = |seed| FaultPlan {
        seed,
        cas_fail_rate: 0.0,
        stale_load_rate: 0.8,
        max_spin: 5_000,
        stall_period: 0,
        stall_spins: 0,
    };
    let canary_histories = histories.max(60);
    let canary = run_cell::<FaultyStore<BrokenStore<PackedStore>>, _, _>(
        canary_histories,
        threads,
        8.min(64 / threads),
        4,
        0xB40C,
        |seed| {
            (
                Dsu::from_store(FaultyStore::with_plan(
                    BrokenStore::new(PackedStore::with_seed(4, seed)),
                    delay_plan(seed),
                )),
                u64::MAX, // the canary is about verdicts, not budgets
            )
        },
        |store| store.fault_report().total(),
    );
    table.row(&[
        "BROKEN".to_string(),
        "canary".to_string(),
        canary_histories.to_string(),
        canary.passed.to_string(),
        canary.stats.cas_retries.to_string(),
        canary.stats.links_fail.to_string(),
        canary.faults.to_string(),
    ]);

    table.print();
    println!(
        "\nresult: {ok}/{total} faulted histories linearizable (paper expects all); \
         canary refuted {}/{} broken histories (must be > 0).",
        canary.refuted, canary_histories
    );
    assert_eq!(ok, total, "linearizability refuted on a *correct* store — see the table");
    assert!(
        canary.refuted > 0,
        "BrokenStore was never refuted: the checker or the recorder has lost its teeth"
    );
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
