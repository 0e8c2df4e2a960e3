//! Interleaved A/B comparison of the packed vs. flat parent store.
//!
//! Timing each structure in its own window lets CPU-steal drift on a busy
//! host masquerade as a layout effect. This harness alternates packed and
//! flat samples back to back, so both see the same environment, and
//! reports per-thread-count medians and the packed/flat throughput ratio —
//! printed as a table and, with `--json PATH`, written out for archiving
//! or CI artifacts.
//!
//! Both layouts are one 8-byte word per element: the packed word carries
//! the id next to the parent, the flat layout recomputes the hashed id
//! from the index. The ratio prices that difference.
//!
//! Run: `cargo run --release -p dsu-harness --example packed_vs_flat_ab --
//!       [--samples 15] [--n 1048576] [--m 2097152] [--threads 1,2,4,8]
//!       [--json out.json] [--quick true]`

use concurrent_dsu::{Dsu, FlatStore, PackedStore, TwoTrySplit};
use dsu_harness::{
    interleaved_medians, json_list, run_shards, standard_workload, write_record, Args,
};

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 5 } else { 15 });
    // Quick samples take about 17 ms at p=1 on a 2-vCPU VM: long enough
    // that thread start-up stays under CI's 15 % regression threshold.
    let n = args.usize("n", if quick { 1 << 18 } else { 1 << 20 });
    let m = args.usize("m", 2 * n);
    let threads = args.thread_ladder();

    let w = standard_workload(n, m);
    println!("n = {n}, m = {m}, {samples} interleaved samples per layout");
    println!("{:>7} {:>14} {:>14} {:>8}", "threads", "packed ns", "flat ns", "ratio");
    let mut rows = Vec::new();
    for &p in &threads {
        let meds = interleaved_medians(2, samples, |_, layout| {
            let run = if layout == 0 {
                run_shards(&Dsu::<TwoTrySplit, PackedStore>::new(n), &w, p)
            } else {
                run_shards(&Dsu::<TwoTrySplit, FlatStore>::new(n), &w, p)
            };
            run.elapsed.as_nanos() as f64
        });
        let (pm, fm) = (meds[0], meds[1]);
        println!("{:>7} {:>14.0} {:>14.0} {:>8.3}", p, pm, fm, fm / pm);
        rows.push(format!(
            "{{\"threads\":{p},\"packed_median_ns\":{pm:.0},\"flat_median_ns\":{fm:.0},\
             \"packed_speedup\":{:.4}}}",
            fm / pm
        ));
    }

    if let Some(path) = args.get("json") {
        write_record(
            path,
            "packed_vs_flat_ab",
            &[
                (
                    "workload",
                    format!(
                        "{{\"n\": {n}, \"m\": {m}, \"unite_fraction\": 0.5, \"seed\": \"0xBE7C\"}}"
                    ),
                ),
                ("samples", samples.to_string()),
                ("results", json_list(&rows)),
            ],
        );
    }
}
