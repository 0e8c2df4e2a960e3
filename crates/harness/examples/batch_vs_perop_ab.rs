//! Interleaved A/B comparison of batched vs. per-op edge ingestion.
//!
//! Both contenders ingest the same Zipf-skewed batched-arrival trace
//! through the same dynamic burst-cursor scheduler; the only difference is
//! `unite_batch` per burst (the filtered, word-seeded bulk path) versus a
//! `unite` call per edge. Samples alternate back to back so host drift
//! cancels; per-thread-count medians and the batched/per-op throughput
//! ratio are printed and, with `--json PATH`, written out for archiving
//! (`BENCH_PR2.json`) or CI artifacts.
//!
//! The default workload keeps the parent store (32 MB at `n = 2^22`)
//! larger than the last-level cache: that is both the production-scale
//! regime (millions of elements) and the one where the batch path's
//! gather waves pay — with a cache-resident store the two ingestion modes
//! tie, because there are no misses left to overlap.
//!
//! Run: `cargo run --release -p dsu-harness --example batch_vs_perop_ab --
//!       [--samples 15] [--n 4194304] [--batches 2048] [--batch-size 1024]
//!       [--zipf 1.0] [--threads 1,2,4,8] [--json out.json] [--quick true]`

use concurrent_dsu::{Dsu, TwoTrySplit};
use dsu_harness::{
    interleaved_medians, json_list, standard_edge_batches, timed_ingest_batched,
    timed_ingest_per_op, write_record, Args,
};

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 5 } else { 15 });
    let n = args.usize("n", if quick { 1 << 14 } else { 1 << 22 });
    // Quick samples take 16 ms (per-op) and 28 ms (batched) at p=1 on a
    // 2-vCPU VM: long enough that thread start-up stays under CI's 15 %
    // regression threshold.
    let batches = args.usize("batches", if quick { 1 << 12 } else { 1 << 11 });
    let batch_size = args.usize("batch-size", 1 << 10);
    let zipf = args.f64("zipf", 1.0);
    let threads = args.thread_ladder();

    let arrivals = standard_edge_batches(n, batches, batch_size, zipf);
    let m = arrivals.total_edges();
    println!(
        "n = {n}, {batches} bursts x {batch_size} edges = {m} edges, zipf {zipf}, \
         {samples} interleaved samples per mode"
    );
    println!("{:>7} {:>14} {:>14} {:>8}", "threads", "per-op ns", "batched ns", "speedup");

    let mut rows = Vec::new();
    for &p in &threads {
        let meds = interleaved_medians(2, samples, |_, mode| {
            let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
            let elapsed = if mode == 0 {
                timed_ingest_per_op(&dsu, &arrivals.batches, p)
            } else {
                timed_ingest_batched(&dsu, &arrivals.batches, p)
            };
            elapsed.as_nanos() as f64
        });
        let (om, bm) = (meds[0], meds[1]);
        println!("{:>7} {:>14.0} {:>14.0} {:>8.3}", p, om, bm, om / bm);
        rows.push(format!(
            "{{\"threads\":{p},\"per_op_median_ns\":{om:.0},\"batched_median_ns\":{bm:.0},\
             \"batched_speedup\":{:.4}}}",
            om / bm
        ));
    }

    if let Some(path) = args.get("json") {
        write_record(
            path,
            "batch_vs_perop_ab",
            &[
                (
                    "workload",
                    format!(
                        "{{\"n\": {n}, \"batches\": {batches}, \"batch_size\": {batch_size}, \
                         \"zipf\": {zipf}, \"seed\": \"0xBA7C\"}}"
                    ),
                ),
                ("samples", samples.to_string()),
                ("results", json_list(&rows)),
            ],
        );
    }
}
