//! What the interleaved A/B examples (`examples/*.rs`) share: their
//! standard workloads, one sampler that alternates the contenders so every
//! one sees the same host drift, and one writer for the fingerprinted JSON
//! record each example archives with `--json PATH`.

use std::fmt::Write as _;

use dsu_workloads::{EdgeBatchSpec, EdgeBatches, ElementDist, Workload, WorkloadSpec};

use crate::median;

/// The machine fingerprint every A/B record carries under `"machine"`:
/// `{"cpus": …, "arch": …, "os": …}`, so archived records from different
/// hosts can be told apart and the regression gate
/// (`scripts/check_bench_regression.py`) can refuse to compare across
/// machines.
pub fn machine_fingerprint_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (arch, os) = (std::env::consts::ARCH, std::env::consts::OS);
    format!("{{\"cpus\": {cpus}, \"arch\": \"{arch}\", \"os\": \"{os}\"}}")
}

/// The standard benchmark workload: `m` half-unite/half-query ops over
/// `0..n`, fixed seed.
pub fn standard_workload(n: usize, m: usize) -> Workload {
    WorkloadSpec::new(n, m).unite_fraction(0.5).generate(0xBE7C)
}

/// The standard batched-arrival workload: `batches` bursts of `batch_size`
/// edges over `0..n`, endpoints Zipf-skewed with exponent `zipf`, fixed
/// seed. Skew plus volume make most edges redundant after the early
/// bursts — the regime the batch path's same-set filter targets.
pub fn standard_edge_batches(
    n: usize,
    batches: usize,
    batch_size: usize,
    zipf: f64,
) -> EdgeBatches {
    EdgeBatchSpec::new(n, batches, batch_size)
        .element_dist(ElementDist::Zipf(zipf))
        .generate(0xBA7C)
}

/// Interleaved sampling of `contenders` timed arms: one uncounted warm-up
/// round, then `samples` counted rounds, each calling `run(round, i)` once
/// per contender `i` in order (round 0 is the warm-up). Alternating the
/// arms back to back lands slow host phases on all of them alike. Returns
/// each contender's median sample.
///
/// # Panics
///
/// Panics if `samples == 0` or a sample is NaN.
pub fn interleaved_medians(
    contenders: usize,
    samples: usize,
    mut run: impl FnMut(usize, usize) -> f64,
) -> Vec<f64> {
    let mut buckets = vec![Vec::with_capacity(samples); contenders];
    for round in 0..=samples {
        for (i, bucket) in buckets.iter_mut().enumerate() {
            let sample = run(round, i);
            if round > 0 {
                bucket.push(sample);
            }
        }
    }
    buckets.iter_mut().map(|b| median(b)).collect()
}

/// A JSON list of raw JSON items, one per line, as the records print their
/// rows.
pub fn json_list(items: &[String]) -> String {
    let mut list = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            list.push(',');
        }
        let _ = write!(list, "\n    {item}");
    }
    list.push_str("\n  ]");
    list
}

/// The text [`write_record`] writes.
pub(crate) fn record_json(example: &str, fields: &[(&str, String)]) -> String {
    let mut json =
        format!("{{\n  \"example\": \"{example}\",\n  \"machine\": {}", machine_fingerprint_json());
    for (key, value) in fields {
        let _ = write!(json, ",\n  \"{key}\": {value}");
    }
    json.push_str("\n}\n");
    json
}

/// Writes the JSON record of one A/B run to `path` and says so: `"example"`
/// and this host's `"machine"` fingerprint first, then `fields` in order,
/// each value raw JSON (row lists through [`json_list`]).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_record(path: &str, example: &str, fields: &[(&str, String)]) {
    std::fs::write(path, record_json(example, fields)).expect("write json");
    println!("wrote {path}");
}
