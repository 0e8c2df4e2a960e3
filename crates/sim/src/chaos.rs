//! The chaos vocabulary, translated to APRAM schedules.
//!
//! The native side injects faults *inside* the store (`concurrent_dsu::
//! fault::FaultPlan`: spurious CAS failures, delayed loads, per-thread
//! stall windows). On the simulator none of that is necessary — the
//! scheduler *is* the adversary, and every native fault has a schedule
//! that produces it: a spurious CAS failure is a racing process winning
//! the cell, a delayed load is a preemption between load and CAS, a stall
//! window is a process the scheduler starves. This module maps the same
//! `(seed, rate)` knobs the native chaos harness sweeps (`chaos_ab`,
//! `e13_fault_injection`, both through `FaultPlan::rate(seed, rate)`) onto
//! [`apram::Weighted`] schedules, so one experiment row means the same
//! adversary intensity on both sides.
//!
//! The decision function is the same splitmix64 chain the native
//! `FaultPlan` uses, so `(seed, rate)` names one reproducible adversary
//! across both crates without either depending on the other.

use apram::Weighted;

/// splitmix64 — identical to `concurrent_dsu::order::splitmix64`. Kept
/// local because this crate deliberately does not depend on the native
/// implementation (the simulator must not inherit its bugs).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps the upper 53 bits of a hash to `[0, 1)` — same construction as the
/// native fault layer's decision draw.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// How much slower a stalled process runs than a healthy one. A stalled
/// process still makes progress (the algorithm is wait-free; starving a
/// process outright would only test the scheduler), it just loses ~every
/// race — the schedule analogue of the native stall window.
pub const STALL_FACTOR: u64 = 256;

/// Per-process weights for [`apram::Weighted`]: each process is stalled
/// (weight 1) with probability `rate`, healthy (weight [`STALL_FACTOR`])
/// otherwise. Deterministic in `(procs, rate, seed)`; the same seed the
/// native `FaultPlan` takes names the same adversary here.
///
/// `rate` is clamped to `[0, 1]`; at least one process is always left
/// healthy so the schedule stays usefully asymmetric (and `Weighted::new`
/// always gets a positive weight).
pub fn stall_weights(procs: usize, rate: f64, seed: u64) -> Vec<u64> {
    let rate = rate.clamp(0.0, 1.0);
    let mut weights: Vec<u64> = (0..procs)
        .map(|p| {
            let h = splitmix64(seed ^ splitmix64(p as u64 ^ 0x5EED));
            if unit(h) < rate {
                1
            } else {
                STALL_FACTOR
            }
        })
        .collect();
    if let Some(first_healthy) = weights.iter_mut().max() {
        *first_healthy = STALL_FACTOR;
    }
    weights
}

/// A chaos schedule over `procs` processes: weighted-random with stalls
/// drawn at `rate`. The direct sim-side counterpart of wrapping a store
/// in `FaultyStore` with `FaultPlan::rate(seed, rate)`.
pub fn chaos_scheduler(procs: usize, rate: f64, seed: u64) -> Weighted {
    Weighted::new(stall_weights(procs, rate, seed), splitmix64(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_ids, run_concurrent, DsuProcess, Policy};
    use linearize::{check_linearizable, DsuOp, DsuSpec};

    #[test]
    fn weights_are_deterministic_and_bounded() {
        let a = stall_weights(8, 0.5, 42);
        let b = stall_weights(8, 0.5, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&w| w == 1 || w == STALL_FACTOR));
        assert!(a.contains(&STALL_FACTOR), "at least one healthy process");
    }

    #[test]
    fn zero_rate_stalls_nobody() {
        assert!(stall_weights(16, 0.0, 9).iter().all(|&w| w == STALL_FACTOR));
    }

    #[test]
    fn full_rate_keeps_one_healthy() {
        let w = stall_weights(16, 1.0, 9);
        assert_eq!(w.iter().filter(|&&x| x == STALL_FACTOR).count(), 1);
        assert_eq!(w.iter().filter(|&&x| x == 1).count(), 15);
    }

    /// The sim-side chaos run stays linearizable — the schedule analogue
    /// of `e13_fault_injection`'s native sweep.
    #[test]
    fn chaos_schedules_preserve_linearizability() {
        let n = 6;
        for seed in 0..20u64 {
            let ids = random_ids(n, seed);
            let procs: Vec<DsuProcess> = (0..4)
                .map(|p| {
                    let ops = (0..4)
                        .map(|i| {
                            let z = splitmix64(seed ^ ((p as u64) << 32) ^ i as u64);
                            let (x, y) = ((z >> 8) as usize % n, (z >> 24) as usize % n);
                            if z.is_multiple_of(4) {
                                DsuOp::SameSet(x, y)
                            } else {
                                DsuOp::Unite(x, y)
                            }
                        })
                        .collect();
                    DsuProcess::new(ops, Policy::TwoTry, false, ids.clone())
                })
                .collect();
            let mut sched = chaos_scheduler(4, 0.5, seed);
            let outcome = run_concurrent(n, procs, &mut sched, 1_000_000);
            let history = outcome.history();
            assert!(
                check_linearizable(&DsuSpec::new(n), &history).is_ok(),
                "chaos schedule (seed {seed}) produced a non-linearizable history:\n{history:#?}"
            );
        }
    }
}
