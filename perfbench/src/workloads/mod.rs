//! The three end-to-end workloads and the repeat loop they share.
//!
//! Every workload is a closed loop: each of `CLIENTS` client threads
//! issues its next request only after the previous one returned, and the
//! main thread only coordinates. A repeat builds a fresh structure (timed
//! as set-up), runs the timed phase, then checks the outcome against the
//! sequential oracle; a run repeats until its seconds are used up.

pub mod cc_rmat;
pub mod keyed_dedup;
pub mod online_mix;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use concurrent_dsu::{OpStats, StatsSink};

use crate::gen::Sizes;
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::Workload;

/// One measured repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Repeat {
    /// Operations attempted (edges, key ops, or online ops).
    pub ops: u64,
    /// Operations the oracle refuted; all of them when a whole-run check
    /// failed, the repeat panicked, or the watchdog abandoned it.
    pub failed: u64,
    pub setup_s: f64,
    /// Zero when the repeat never finished.
    pub timed_s: f64,
    /// Peak live heap during set-up and the timed phase, over the live heap
    /// before set-up.
    pub mem_bytes: usize,
    /// Whether this repeat recorded spans.
    pub traced: bool,
}

/// Which repeats record spans.
#[derive(Clone, Copy)]
pub enum Tracing<'a> {
    Off,
    /// Odd repeats traced, even ones not: the traced run's overhead is
    /// their throughput ratio, measured side by side.
    Alternate(&'a Tracer),
}

/// The repeats of one run plus the request latencies of its untraced ones.
pub struct Run {
    pub repeats: Vec<Repeat>,
    pub latency_ns: Vec<u32>,
}

/// Fewest repeats per traced or untraced side, so set-up time is a median.
const MIN_REPEATS: usize = 3;

/// Runs `one` until `seconds` have passed and every side has
/// [`MIN_REPEATS`]. `one` gets the tracer (on traced repeats) and a vector
/// for its request latencies. A panic inside `one` counts the repeat's
/// `planned_ops` as failed and the run goes on.
pub fn repeat<F>(seconds: f64, planned_ops: u64, tracing: Tracing, mut one: F) -> Run
where
    F: FnMut(Option<&Tracer>, &mut Vec<u32>) -> Repeat,
{
    let start = Instant::now();
    let min = match tracing {
        Tracing::Off => MIN_REPEATS,
        Tracing::Alternate(_) => 2 * MIN_REPEATS,
    };
    let mut run = Run { repeats: Vec::new(), latency_ns: Vec::new() };
    loop {
        let tr = match tracing {
            Tracing::Alternate(t) if run.repeats.len() % 2 == 1 => Some(t),
            _ => None,
        };
        report::attempting(planned_ops);
        let mut lat = Vec::new();
        let mut rep = catch_unwind(AssertUnwindSafe(|| one(tr, &mut lat))).unwrap_or_else(|_| {
            lat.clear();
            Repeat {
                ops: planned_ops,
                failed: planned_ops,
                traced: tr.is_some(),
                ..Repeat::default()
            }
        });
        if report::aborted() {
            rep.failed = rep.ops;
            rep.timed_s = 0.0;
        }
        if !rep.traced {
            run.latency_ns.extend_from_slice(&lat);
        }
        println!(
            "# repeat {}{}: setup {:.6} s, timed {:.4} s, {:.3} Mops/s, {:.1} MB, failed {}",
            run.repeats.len(),
            if rep.traced { " (traced)" } else { "" },
            rep.setup_s,
            rep.timed_s,
            rep.ops as f64 / rep.timed_s / 1e6,
            rep.mem_bytes as f64 / 1e6,
            rep.failed,
        );
        run.repeats.push(rep);
        let done = start.elapsed().as_secs_f64() >= seconds && run.repeats.len() >= min;
        if done || report::aborted() {
            return run;
        }
    }
}

impl Run {
    fn finished(&self, traced: bool) -> impl Iterator<Item = &Repeat> {
        self.repeats.iter().filter(move |r| r.traced == traced && r.timed_s > 0.0)
    }

    /// Median throughput of the finished traced or untraced repeats, in
    /// Mops/s.
    pub fn throughput_mops(&self, traced: bool) -> f64 {
        let xs: Vec<f64> = self.finished(traced).map(|r| r.ops as f64 / r.timed_s / 1e6).collect();
        stats::median(&xs)
    }

    /// Adds every repeat's operation counts to `out`.
    pub fn count_into(&self, out: &mut Outcome) {
        for r in &self.repeats {
            out.count(r.ops, r.failed);
        }
    }

    /// The end-to-end metrics of the untraced repeats.
    pub fn outcome(mut self) -> Outcome {
        let mut out = Outcome::default();
        self.count_into(&mut out);
        let setup: Vec<f64> = self.finished(false).map(|r| r.setup_s).collect();
        let mem: Vec<f64> = self.finished(false).map(|r| r.mem_bytes as f64 / 1e6).collect();
        let mops = self.throughput_mops(false);
        let lat = &mut self.latency_ns;
        lat.sort_unstable();
        println!(
            "# repeats: {}, latency samples: {}, beyond p99: {}, error_frac: {}",
            self.repeats.len(),
            lat.len(),
            stats::beyond(lat, 0.99),
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        let q = |p| stats::quantile_ns(lat, p) / 1e3;
        println!(
            "# latency us: p50 {:.3}, p90 {:.3}, p99 {:.3}, p99.9 {:.3}, max {:.3}",
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            q(1.0)
        );
        out.metric("throughput_mops", mops, "Mops/s");
        out.metric("latency_p50_us", stats::quantile_ns(lat, 0.50) / 1e3, "us");
        out.metric("latency_p99_us", stats::quantile_ns(lat, 0.99) / 1e3, "us");
        out.metric("setup_s", stats::median(&setup), "s");
        out.metric("mem_peak_mb", stats::median(&mem), "MB");
        out
    }
}

/// Whole nanoseconds of `d`, saturated to `u32` (4.29 s).
pub fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// A statistics sink each client owns, merged after the clients join:
/// `()` on timed passes, [`OpStats`] on counting passes.
pub trait Sink: StatsSink + Default + Send {
    fn absorb(&mut self, other: Self);
}

impl Sink for () {
    fn absorb(&mut self, _: ()) {}
}

impl Sink for OpStats {
    fn absorb(&mut self, other: OpStats) {
        self.merge(&other);
    }
}

/// Generates `w`'s input for `seed`, runs it untraced for `seconds`, and
/// reports the end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let t = Instant::now();
    let run = match w {
        Workload::CcRmat => {
            let input = cc_rmat::input(sizes, seed);
            println!("# input generation: {:.3} s", t.elapsed().as_secs_f64());
            cc_rmat::run(&input, seconds, Tracing::Off)
        }
        Workload::KeyedDedup => {
            let input = keyed_dedup::input(sizes, seed);
            println!("# input generation: {:.3} s", t.elapsed().as_secs_f64());
            keyed_dedup::run(&input, seconds, Tracing::Off)
        }
        Workload::OnlineMix => {
            let input = online_mix::input(sizes.online_n, sizes.online_ops, seed);
            println!("# input generation: {:.3} s", t.elapsed().as_secs_f64());
            online_mix::run(&input, sizes, seconds, Tracing::Off)
        }
    };
    run.outcome()
}

/// Runs `w` with traced and untraced repeats alternating, for the traced
/// run's overhead figure; returns the run (for its counts) and
/// `traced ÷ untraced throughput − 1`.
pub fn overhead(w: Workload, seed: u64, seconds: f64, sizes: &Sizes, tr: &Tracer) -> (Run, f64) {
    let tracing = Tracing::Alternate(tr);
    let run = match w {
        Workload::CcRmat => cc_rmat::run(&cc_rmat::input(sizes, seed), seconds, tracing),
        Workload::KeyedDedup => {
            keyed_dedup::run(&keyed_dedup::input(sizes, seed), seconds, tracing)
        }
        Workload::OnlineMix => {
            let input = online_mix::input(sizes.online_n, sizes.online_ops, seed);
            online_mix::run(&input, sizes, seconds, tracing)
        }
    };
    let frac = run.throughput_mops(true) / run.throughput_mops(false) - 1.0;
    (run, frac)
}
