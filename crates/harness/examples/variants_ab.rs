//! The (find × link) × workload variant matrix, with `TunedDsu`'s choice
//! cross-checked against the measured winners.
//!
//! Every variant of the plane (five find policies × two link policies, ten
//! points enumerated by the `plane!` macro below) runs the same two probe
//! workloads, one on each side of `TunedDsu`'s 8 MiB cache budget:
//!
//! * **cache-uniform** — a universe whose parent array fits in cache,
//!   uniform endpoints (the regime where variant differences drown in
//!   core-local noise and the default should simply not lose), and
//! * **dram-zipf** — a DRAM-resident universe with Zipf-skewed endpoints
//!   (hot roots, long cold tails — the regime where path length is
//!   measured in cache misses and compaction strategy matters).
//!
//! Samples interleave across variants round-robin so host drift lands on
//! every arm equally; per-(workload, threads) medians and each variant's
//! speedup over the paper default (`two-try/random`, same run) are
//! printed and, with `--json PATH`, archived with the machine fingerprint
//! (`BENCH_PR8.json`) in the row shape `check_bench_regression.py` gates.
//!
//! The cross-check then builds a `TunedDsu` per probe and reports whether
//! the variant it picked from `n` matches the matrix winner at the highest
//! thread count. "Matches" is tie-tolerant: when the pick is within
//! `TIE_TOLERANCE` of the winner's median it is a statistical tie,
//! reported as `MATCH (tie)` — on a shared box several variants routinely
//! land within run-to-run noise of first place, and demanding an exact
//! argmin would make the check a coin flip. A pick that nominally misses
//! the band is re-measured **head-to-head**: the `TunedDsu` itself
//! against the winner, tightly interleaved so host drift cancels (the
//! matrix medians it replaces were taken a full round-robin apart),
//! before the verdict is final. A gap that survives that prints an honest
//! `MISMATCH` line (and lands in the JSON), not a panic: on a differently
//! shaped host the measured winner can legitimately disagree with a
//! choice measured on the reference machine.
//!
//! Run: `cargo run --release -p dsu-harness --example variants_ab --
//!       [--samples 5] [--threads 1,2,4,8] [--json out.json]
//!       [--quick true]`

use std::fmt::Write as _;

use concurrent_dsu::{
    Compress, Dsu, DsuStore, FindPolicy, Halving, IndexLink, LinkPolicy, NoCompaction, OneTrySplit,
    PackedStore, RandomLink, TunedDsu, TwoTrySplit,
};
use dsu_harness::{interleaved_medians, json_list, median, run_shards, write_record, Args};
use dsu_workloads::{ElementDist, Workload, WorkloadSpec};

/// `TunedDsu`'s pick counts as matching the winner when its median is
/// within this factor of the winner's — variants inside this band are
/// statistically tied on a shared box. The width is calibrated to the
/// measured noise floor of the reference machine, not picked for
/// comfort: across back-to-back full runs the *same variant's* DRAM
/// median moved 10–22% and the nominal winner rotated through three
/// different variants, while within one run the tied cluster spread
/// under ~10%. A band narrower than the drift would make the verdict a
/// coin flip; a real regime signal (cache-resident `halving/index` at
/// ~1.15x, `compress` losing 2-2.8x) clears it with margin.
const TIE_TOLERANCE: f64 = 1.10;

struct Probe {
    label: &'static str,
    n: usize,
    workload: Workload,
}

fn probes(quick: bool) -> Vec<Probe> {
    // Cache-resident: 2^19 × 8 B = 4 MiB (quick) / 2^16 × 8 B = 512 KB —
    // both under `TunedDsu`'s 8 MiB budget. DRAM-resident: 2^21 × 8 B
    // = 16 MB (quick) / 2^23 × 8 B = 64 MB — both over it, so the quick
    // run exercises both of its arms, as the full one does.
    let (n_cache, n_dram) = if quick { (1 << 19, 1 << 21) } else { (1 << 16, 1 << 23) };
    // Two ops per element in both modes, so the quick probe tests the
    // same regime as the full one; its larger n keeps a sample at 2^20
    // ops, long enough that thread start-up cannot decide its p=2 rows.
    let m_cache = 2 * n_cache;
    let m_dram = n_dram / 2;
    vec![
        Probe {
            label: "cache-uniform",
            n: n_cache,
            workload: WorkloadSpec::new(n_cache, m_cache).unite_fraction(0.5).generate(0xAB_2016),
        },
        Probe {
            label: "dram-zipf",
            n: n_dram,
            workload: WorkloadSpec::new(n_dram, m_dram)
                .unite_fraction(0.5)
                .element_dist(ElementDist::Zipf(1.1))
                .generate(0xAB_2016),
        },
    ]
}

/// One point of the plane: its `<find>/<link>` tag and a timed run of it
/// on a fresh structure.
type Arm = (&'static str, fn(&Probe, usize) -> f64);

/// Builds the variant on the probe's universe and times one parallel run
/// of its workload, in nanoseconds.
fn time<F: FindPolicy, S: DsuStore, L: LinkPolicy>(probe: &Probe, threads: usize) -> f64 {
    let dsu: Dsu<F, S, L> = Dsu::with_seed(probe.n, 0xAB);
    run_shards(&dsu, &probe.workload, threads).elapsed.as_nanos() as f64
}

/// The plane, find-major: each find policy × {random, index} on the
/// packed store.
macro_rules! plane {
    ($(($f:ty, $fname:literal)),* $(,)?) => {
        [$(
            (concat!($fname, "/random"), time::<$f, PackedStore, RandomLink>),
            (concat!($fname, "/index"), time::<$f, PackedStore, IndexLink>),
        )*]
    };
}

const PLANE: [Arm; 10] = plane!(
    (NoCompaction, "no-compaction"),
    (OneTrySplit, "one-try"),
    (TwoTrySplit, "two-try"),
    (Halving, "halving"),
    (Compress, "compress"),
);

/// The paper default every speedup is measured against.
const DEFAULT_TAG: &str = "two-try/random";

fn position(tag: &str) -> usize {
    PLANE.iter().position(|&(t, _)| t == tag).expect("tag is in the plane")
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 3 } else { 5 });
    let threads = args.thread_ladder();

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for probe in &probes(quick) {
        println!(
            "\n== {} (n = {}, m = {}, {} interleaved samples) ==",
            probe.label,
            probe.n,
            probe.workload.len(),
            samples
        );
        println!("{:>7} {:>22} {:>14} {:>8}", "threads", "find/link", "median ns", "vs dflt");
        let mut winner_at_max = 0;
        let mut medians_at_max: Vec<f64> = Vec::new();
        for &p in &threads {
            // Every variant gets one timed run on a fresh structure per
            // round, in plane order, so slow host phases hit all arms.
            let meds = interleaved_medians(PLANE.len(), samples, |_, i| (PLANE[i].1)(probe, p));
            let default_med = meds[position(DEFAULT_TAG)];
            let best = meds
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("non-empty plane");
            if p == *threads.last().unwrap() {
                winner_at_max = best;
                medians_at_max = meds.clone();
            }
            let mut row = format!("{{\"threads\":{p},\"n\":{}", probe.n);
            for (i, (tag, _)) in PLANE.iter().enumerate() {
                let marker = if i == best { " <- best" } else { "" };
                println!(
                    "{:>7} {:>22} {:>14.0} {:>8.3}{marker}",
                    p,
                    tag,
                    meds[i],
                    default_med / meds[i]
                );
                let _ = write!(
                    row,
                    ",\"{tag}_median_ns\":{:.0},\"{tag}_speedup\":{:.4}",
                    meds[i],
                    default_med / meds[i]
                );
            }
            row.push('}');
            rows.push(row);
        }
        // Cross-check at this probe: does the variant `TunedDsu` picks
        // from `n` match the measured winner at the top of the ladder?
        let p_max = *threads.last().unwrap();
        let choice = TunedDsu::with_seed(probe.n, 0xAB).variant();
        let (winner, run_winner) = PLANE[winner_at_max];
        let mut choice_med = medians_at_max[position(&choice)];
        let mut winner_med = medians_at_max[winner_at_max];
        // Head-to-head refinement: the matrix argmin compares medians
        // measured a full round-robin apart, so slow host phases land
        // between the arms and a nominal gap can be pure drift (observed
        // here: the same variant's DRAM median moves 10-25% across runs).
        // When the pick nominally misses the band, re-measure the
        // `TunedDsu` itself against the winner, back-to-back interleaved —
        // the drift-cancelling arrangement every A/B in this repo trusts —
        // and let that pair decide the verdict.
        let mut refined = false;
        if choice != winner && choice_med > TIE_TOLERANCE * winner_med {
            let mut cm = Vec::with_capacity(2 * samples);
            let mut wm = Vec::with_capacity(2 * samples);
            for _ in 0..2 * samples {
                let tuned = TunedDsu::with_seed(probe.n, 0xAB);
                cm.push(run_shards(&tuned, &probe.workload, p_max).elapsed.as_nanos() as f64);
                wm.push(run_winner(probe, p_max));
            }
            choice_med = median(&mut cm);
            winner_med = median(&mut wm);
            refined = true;
        }
        let matches = choice == winner || choice_med <= TIE_TOLERANCE * winner_med;
        let verdict = if choice == winner {
            "MATCH"
        } else if matches && refined {
            "MATCH (tie, head-to-head)"
        } else if matches {
            "MATCH (tie)"
        } else {
            "MISMATCH"
        };
        println!(
            "tuned cross-check [{}]: picked {choice} ({choice_med:.0} ns) | matrix winner \
             {winner} ({winner_med:.0} ns) -> {verdict}",
            probe.label,
        );
        checks.push(format!(
            "{{\"probe\":\"{}\",\"n\":{},\"tuned_choice\":\"{choice}\",\
             \"matrix_winner\":\"{winner}\",\"tuned_matches_winner\":{matches},\
             \"head_to_head_refined\":{refined}}}",
            probe.label, probe.n,
        ));
    }

    if let Some(path) = args.get("json") {
        write_record(
            path,
            "variants_ab",
            &[
                ("samples", samples.to_string()),
                ("results", json_list(&rows)),
                ("tuned_checks", json_list(&checks)),
            ],
        );
    }
}
