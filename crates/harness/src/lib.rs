//! Experiment harness for the Jayanti–Tarjan reproduction.
//!
//! The paper is a theory paper — no tables, no figures — so the
//! "evaluation" this workspace regenerates is the set of quantitative
//! claims made by its theorems and remarks. Each claim has one binary in
//! `src/bin/` (the paper-claim binaries; `e13`–`e16` cover the later
//! fault, keyed, flatten and epoch layers):
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
//! The library half of this crate is the shared machinery: a threaded
//! [`driver`], table rendering ([`table::Table`]), and tiny argument
//! parsing ([`args::Args`]).

pub mod args;
pub mod driver;
pub mod table;

pub use args::Args;
pub use driver::{run_shards, run_shards_instrumented, RunMetrics};
pub use table::Table;

/// Mean of a slice (NaN on empty input).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (0 for fewer than two points).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        let sd = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.138).abs() < 0.01, "sd = {sd}");
    }
}
