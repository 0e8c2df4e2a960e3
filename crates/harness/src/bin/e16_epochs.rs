//! **E16 — the chaos-recovery contract of the epoch layer.**
//!
//! E13 proves the operations stay linearizable while a `FaultyStore`
//! injects adversity; this experiment proves the *versioning* machinery
//! keeps its promises under the same adversity. Per fault seed and
//! injection rate, each history runs the full speculative-batch life
//! cycle on a `VersionedDsu<FaultyStore<EpochStore>>`:
//!
//! 1. **Committed phase** — threads run recorded unites/queries (per-
//!    thread `RetryBudget` sinks, shared `SeqCst` clock); the history must
//!    pass the Wing–Gong checker.
//! 2. **Quiescent capture** — raw store words + the sequential oracle
//!    partition (a `NaiveDsu` fed every committed unite edge; edge order
//!    is irrelevant to the final partition, so the concurrent phase and
//!    the oracle must land on the same one).
//! 3. **Doomed phase** — snapshot, then threads released together by one
//!    start barrier hammer the structure with a second storm of faulted
//!    operations (time-travel reads racing the writers), then the batch
//!    "fails" and rolls back.
//! 4. **The contract** — post-rollback words are *bit-identical* to the
//!    pre-snapshot capture, the partition still equals the sequential
//!    oracle's, and the committed history still checks linearizable.
//!
//! A speculative-batch cell drives the same contract through
//! `try_unite_batch` (validator rejects → `RolledBack` → bit-identity),
//! and a **canary** cell skips the rollback and demands the bit-identity
//! check *fail* — proving the apparatus can still see a contaminated
//! forest, not merely bless everything.
//!
//! Every cell runs on two stores: one **grown** by `make_set` from an
//! empty `EpochStore` (the doubling segments) and one **bulk**-built with
//! `EpochStore::with_seed(n, seed)` (every element in the sized prefix,
//! which forks as one node).
//!
//! Usage: `--histories 60 --threads 4 --ops-per-proc 8 --n 12
//!         --seeds 6 --rates 0.1,0.3 --csv out.csv --quick true`

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::order::splitmix64;
use concurrent_dsu::{
    BatchOutcome, Dsu, DsuStore, EpochStore, FaultPlan, FaultyStore, OpStats, RetryBudget,
    VersionedDsu,
};
use dsu_harness::{dsu_scripts, run_threads, Args, Table};
use linearize::{check_linearizable, record_scripts, DsuOp, DsuSpec};
use sequential_dsu::{NaiveDsu, Partition};

type ChaosDsu = VersionedDsu<FaultyStore<EpochStore>>;

/// The two ways a store comes to hold `n` elements: the doubling
/// segments `make_set` opens, or the bulk constructor's sized prefix.
const STORES: [&str; 2] = ["grown", "bulk"];

fn chaos_dsu(store: &str, n: usize, seed: u64, rate: f64) -> ChaosDsu {
    let bulk = store == "bulk";
    let store = FaultyStore::with_plan(
        <EpochStore as DsuStore>::with_seed(if bulk { n } else { 0 }, seed),
        FaultPlan::rate(seed, rate),
    );
    let dsu: ChaosDsu = VersionedDsu::from_dsu(Dsu::from_store(store));
    while dsu.len() < n {
        dsu.make_set();
    }
    dsu
}

struct CellOutcome {
    linearizable: usize,
    bit_identical: usize,
    oracle_equal: usize,
    histories: usize,
    faults: u64,
    stats: OpStats,
}

/// One full life cycle per history: committed recorded phase, capture,
/// doomed phase, rollback, contract checks. `rollback` is the canary
/// switch — when `false` the doomed storm is left in place and the
/// bit-identity check is *expected* to fail.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    store: &str,
    histories: usize,
    threads: usize,
    ops_per_proc: usize,
    n: usize,
    base_seed: u64,
    rate: f64,
    rollback: bool,
) -> CellOutcome {
    let budget = (1000.0 * ops_per_proc as f64 * rate / (1.0 - rate)).ceil() as u64 + 1000;
    let mut out = CellOutcome {
        linearizable: 0,
        bit_identical: 0,
        oracle_equal: 0,
        histories,
        faults: 0,
        stats: OpStats::default(),
    };
    for h in 0..histories {
        let seed = base_seed ^ (h as u64 * 6151 + 3);
        let mut dsu = chaos_dsu(store, n, seed, rate);

        // Phase 1: committed, recorded, concurrent.
        let (history, sinks) = record_scripts(
            &dsu_scripts(threads, ops_per_proc, n, seed),
            |_| RetryBudget::new("e16 committed thread", budget),
            |sink, op| match op {
                DsuOp::Unite(x, y) => dsu.dsu().unite_with(x, y, sink),
                DsuOp::SameSet(x, y) => dsu.dsu().same_set_with(x, y, sink),
            },
        );
        for sink in sinks {
            out.stats.merge(&sink.into_stats());
        }

        // Phase 2: quiescent capture — words and the sequential oracle.
        let committed_words = dsu.dsu().store().raw_words(n);
        let mut oracle = NaiveDsu::new(n);
        for op in &history {
            if let DsuOp::Unite(x, y) = op.op {
                oracle.unite(x, y);
            }
        }

        // Phase 3: the doomed storm behind a snapshot. The start barrier
        // lets the threads' bursts overlap, so time-travel reads race the
        // writers.
        let snap = dsu.snapshot();
        run_threads(threads, |t| {
            let mut sink = RetryBudget::new("e16 doomed thread", budget * 4);
            for i in 0..ops_per_proc as u64 * 4 {
                let z = splitmix64(seed ^ 0xD00D ^ ((t as u64) << 40) ^ i);
                let (x, y) = ((z >> 8) as usize % n, (z >> 24) as usize % n);
                match z % 4 {
                    0 => {
                        let _ = dsu.same_set_at(snap, x, y);
                    }
                    _ => {
                        dsu.dsu().unite_with(x, y, &mut sink);
                    }
                }
            }
        });
        if rollback {
            dsu.rollback(snap);
        }
        dsu.drop_snapshot(snap);

        // Phase 4: the contract.
        out.faults += dsu.dsu().store().fault_report().total();
        if dsu.dsu().store().raw_words(n) == committed_words {
            out.bit_identical += 1;
        }
        if Partition::from_labels(&dsu.labels_snapshot()) == oracle.partition() {
            out.oracle_equal += 1;
        }
        if check_linearizable(&DsuSpec::new(n), &history).is_ok() {
            out.linearizable += 1;
        }
    }
    out
}

/// The `try_unite_batch` shape of the same contract: a validator-rejected
/// speculative batch under injection must report `RolledBack` and leave
/// the words bit-identical. Returns (rolled_back_and_identical, total).
fn speculative_cell(
    store: &str,
    histories: usize,
    n: usize,
    base_seed: u64,
    rate: f64,
) -> (usize, usize) {
    let mut ok = 0;
    for h in 0..histories {
        let seed = base_seed ^ (h as u64).wrapping_mul(0x9E37_79B9);
        let mut dsu = chaos_dsu(store, n, seed, rate);
        for i in 0..n / 2 {
            dsu.unite(i, (i * 7 + 1) % n);
        }
        let words = dsu.dsu().store().raw_words(n);
        let edges: Vec<(usize, usize)> = (0..n)
            .map(|i| {
                let z = splitmix64(seed ^ 0xBA7C ^ i as u64);
                ((z as usize) % n, ((z >> 32) as usize) % n)
            })
            .collect();
        let outcome = dsu.try_unite_batch(&edges, |_, _| false);
        if outcome == BatchOutcome::RolledBack && dsu.dsu().store().raw_words(n) == words {
            ok += 1;
        }
    }
    (ok, histories)
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let histories = args.usize("histories", if quick { 20 } else { 60 });
    let threads = args.usize("threads", 4);
    let ops_per_proc = args.usize("ops-per-proc", 8);
    let n = args.usize("n", 12);
    let seeds = args.usize("seeds", if quick { 3 } else { 6 });
    let rates: Vec<f64> = args
        .get("rates")
        .map(|s| s.split(',').map(|r| r.trim().parse().expect("rate")).collect())
        .unwrap_or_else(|| vec![0.1, 0.3]);

    assert!(
        threads * ops_per_proc <= 64,
        "committed history size {} exceeds the checker's 64-op bound",
        threads * ops_per_proc
    );
    println!(
        "E16: epoch rollback under chaos — {seeds} fault seeds × rates {rates:?} × \
         {histories} histories ({threads} threads × {ops_per_proc} committed ops, n = {n})"
    );
    println!(
        "contract: committed history linearizable, doomed storm rolls back bit-identically, \
         post-rollback partition equals the sequential oracle\n"
    );

    let mut table = Table::new(&[
        "cell",
        "store",
        "seed",
        "rate",
        "histories",
        "linearizable",
        "bit_identical",
        "oracle_equal",
        "faults",
    ]);
    let mut all_ok = true;
    let (mut spec_ok, mut spec_total) = (0, 0);
    let heavy = rates.iter().copied().fold(0.0f64, f64::max);
    for store in STORES {
        for s in 0..seeds {
            let sweep_seed = 0xE16_0000 + s as u64 * 7919;
            for &rate in &rates {
                let cell =
                    run_cell(store, histories, threads, ops_per_proc, n, sweep_seed, rate, true);
                table.row(&[
                    "rollback".to_string(),
                    store.to_string(),
                    format!("{sweep_seed:#x}"),
                    format!("{rate:.2}"),
                    cell.histories.to_string(),
                    cell.linearizable.to_string(),
                    cell.bit_identical.to_string(),
                    cell.oracle_equal.to_string(),
                    cell.faults.to_string(),
                ]);
                all_ok &= cell.linearizable == cell.histories
                    && cell.bit_identical == cell.histories
                    && cell.oracle_equal == cell.histories;
                assert!(
                    rate == 0.0 || cell.faults > 0,
                    "rate {rate} injected nothing — the sweep is not exercising chaos"
                );
            }
        }

        // The speculative-batch route, per seed, at the heaviest rate.
        let (ok, total) = speculative_cell(store, histories * seeds, n.max(16), 0x5BEC, heavy);
        table.row(&[
            "try_unite_batch".to_string(),
            store.to_string(),
            "sweep".to_string(),
            format!("{heavy:.2}"),
            total.to_string(),
            "-".to_string(),
            ok.to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        spec_ok += ok;
        spec_total += total;
    }

    // The canary, on each store: skip the rollback and demand
    // contamination is *seen*.
    let mut canary_ok = true;
    for store in STORES {
        let canary =
            run_cell(store, histories.max(20), threads, ops_per_proc, n, 0xBADC0DE, 0.2, false);
        table.row(&[
            "CANARY(no-rollback)".to_string(),
            store.to_string(),
            "-".to_string(),
            "0.20".to_string(),
            canary.histories.to_string(),
            canary.linearizable.to_string(),
            canary.bit_identical.to_string(),
            canary.oracle_equal.to_string(),
            canary.faults.to_string(),
        ]);
        println!(
            "canary ({store}) saw contamination in {}/{} histories (must be > 0)",
            canary.histories - canary.bit_identical,
            canary.histories
        );
        canary_ok &= canary.bit_identical < canary.histories;
    }

    table.print();
    println!(
        "\nresult: rollback cells all-green = {all_ok}; speculative {spec_ok}/{spec_total}; \
         every canary saw contamination = {canary_ok}."
    );
    assert!(all_ok, "a rollback cell broke the contract — see the table");
    assert_eq!(spec_ok, spec_total, "a rejected speculative batch left residue");
    assert!(
        canary_ok,
        "a canary rolled nothing back yet the words came out identical: \
         the bit-identity check has lost its teeth"
    );
    if let Some(path) = args.get("csv") {
        table.write_csv(path).expect("write csv");
    }
}
