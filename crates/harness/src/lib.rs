//! Experiment harness for the Jayanti–Tarjan reproduction.
//!
//! The paper is a theory paper — no tables, no figures — so the
//! "evaluation" this workspace regenerates is the set of quantitative
//! claims made by its theorems and remarks. Each claim has one binary in
//! `src/bin/` (`e01`–`e12` test the paper's own claims; `e13`, `e14` and
//! `e16` cover the fault, keyed and epoch layers, and `e15` the journal
//! version's sharper work bound):
//!
//! | bin | paper claim |
//! |-----|-------------|
//! | `e01_height` | Cor. 4.2.1 / Thm 4.3: O(log n) forest height w.h.p. |
//! | `e02_work_vs_p` | Thm 5.1: work ≈ m(α(n, m/np) + log(np/m + 1)) |
//! | `e03_variants` | Thm 5.1 vs 5.2 vs no compaction |
//! | `e04_speedup` | near-linear speedup; AW / lock baselines |
//! | `e05_lower_bound` | Lemma 5.3 + Thm 5.4 lockstep storm |
//! | `e06_lockstep` | §3 halving⇔splitting simulation |
//! | `e07_sequential` | §2's twelve sequential variants |
//! | `e08_linearizability` | Lemma 3.2 under adversarial schedules |
//! | `e09_applications` | intro: CC, MST, percolation |
//! | `e10_growable` | §3 remark + §7: MakeSet / on-the-fly ids |
//! | `e11_independence` | assumption (∗) ablation |
//! | `e12_cas_anatomy` | CAS retry anatomy (the cost AW ignored) |
//!
//! Run any of them with
//! `cargo run --release -p dsu-harness --bin e01_height -- [--key value]…`;
//! every binary accepts `--quick true` for a fast smoke configuration and
//! prints an aligned table (plus CSV when `--csv path` is given).
//!
//! The crate's `examples/` hold the interleaved A/B comparisons. Each
//! alternates its contenders sample by sample, so all of them see the same
//! host drift, and writes the medians as fingerprinted JSON with
//! `--json PATH`; `store_diag` prints per-layout phase timings instead:
//!
//! | example | measures |
//! |---------|----------|
//! | `packed_vs_flat_ab` | packed vs. flat parent store |
//! | `batch_vs_perop_ab` | batched vs. per-op edge ingestion |
//! | `keyed_ab` | the lock-free keyed layer vs. a locked map |
//! | `variants_ab` | the (find × link) plane per workload |
//! | `epochs_ab` | what versioning costs and buys |
//! | `chaos_ab` | throughput and linearizability under injected faults |
//! | `store_diag` | phase timings and layer counter checks per layout |
//!
//! Run one with
//! `cargo run --release -p dsu-harness --example packed_vs_flat_ab -- [--key value]…`.
//!
//! The library half of this crate is the shared machinery: a threaded
//! [`driver`] whose [`run_threads`] times every threaded run, the A/B
//! sampler and JSON record ([`ab`]), table rendering ([`table::Table`]),
//! and tiny argument parsing ([`args::Args`]).

pub mod ab;
pub mod args;
pub mod driver;
pub mod table;

pub use ab::{
    interleaved_medians, json_list, machine_fingerprint_json, standard_edge_batches,
    standard_workload, write_record,
};
pub use args::Args;
pub use driver::{
    dsu_scripts, run_shards, run_shards_instrumented, run_threads, timed_ingest_batched,
    timed_ingest_per_op, RunMetrics,
};
pub use table::Table;

/// Mean of a slice (NaN on empty input).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a sample vector, sorting in place (upper middle for even
/// lengths) — the statistic all the interleaved A/B examples report.
///
/// # Panics
///
/// Panics on an empty slice or NaN samples.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of zero samples");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_the_average() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(standard_workload(64, 100), standard_workload(64, 100));
    }

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0, "upper middle for even lengths");
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn ingest_runners_cover_every_edge() {
        let arrivals = standard_edge_batches(256, 16, 32, 1.1);
        let per_op: concurrent_dsu::Dsu = concurrent_dsu::Dsu::new(256);
        let batched: concurrent_dsu::Dsu = concurrent_dsu::Dsu::new(256);
        let a = timed_ingest_per_op(&per_op, &arrivals.batches, 2);
        let b = timed_ingest_batched(&batched, &arrivals.batches, 2);
        assert!(a.as_nanos() > 0 && b.as_nanos() > 0);
        // Confluence: both ingestion shapes produce the same partition.
        assert_eq!(per_op.set_count(), batched.set_count());
        assert_eq!(per_op.labels_snapshot(), batched.labels_snapshot());
    }

    #[test]
    fn fingerprint_is_sane() {
        let json = machine_fingerprint_json();
        assert!(json.contains("\"cpus\": ") && !json.contains("\"cpus\": 0"));
        assert!(json.contains(std::env::consts::ARCH) && json.contains(std::env::consts::OS));
    }

    #[test]
    fn sampler_warms_up_then_interleaves_every_contender() {
        let mut calls = Vec::new();
        let meds = interleaved_medians(2, 3, |round, i| {
            calls.push((round, i));
            // Contender 1 always reads twice contender 0; the warm-up
            // round reads 1000, which no median may include.
            if round == 0 {
                1000.0
            } else {
                (round * (i + 1)) as f64
            }
        });
        assert_eq!(calls, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]);
        assert_eq!(meds, [2.0, 4.0]);
    }

    #[test]
    fn record_is_json_with_example_and_machine_first() {
        let rows = ["{\"threads\":1,\"a_median_ns\":5}".to_string(), "{\"threads\":2}".to_string()];
        let json =
            ab::record_json("demo_ab", &[("samples", "3".into()), ("results", json_list(&rows))]);
        let expected = format!(
            "{{\n  \"example\": \"demo_ab\",\n  \"machine\": {},\n  \"samples\": 3,\n  \
             \"results\": [\n    {},\n    {}\n  ]\n}}\n",
            machine_fingerprint_json(),
            rows[0],
            rows[1]
        );
        assert_eq!(json, expected);
        assert_eq!(json_list(&[]), "[\n  ]");
    }
}
