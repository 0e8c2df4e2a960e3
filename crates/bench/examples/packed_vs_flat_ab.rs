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
//! Run: `cargo run --release -p dsu-bench --example packed_vs_flat_ab --
//!       [--samples 15] [--n 1048576] [--m 2097152] [--threads 1,2,4,8]
//!       [--json out.json] [--quick true]`

use std::fmt::Write as _;

use concurrent_dsu::{Dsu, FlatStore, PackedStore, TwoTrySplit};
use dsu_bench::{median, standard_workload};
use dsu_harness::{run_shards, Args};

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 5 } else { 15 });
    let n = args.usize("n", if quick { 1 << 14 } else { 1 << 20 });
    let m = args.usize("m", 2 * n);
    let threads = args.thread_ladder();

    let w = standard_workload(n, m);
    println!("n = {n}, m = {m}, {samples} interleaved samples per layout");
    println!("{:>7} {:>14} {:>14} {:>8}", "threads", "packed ns", "flat ns", "ratio");
    let mut rows = String::new();
    for &p in &threads {
        // Warm-up one run of each.
        let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(n);
        run_shards(&dsu, &w, p);
        let dsu: Dsu<TwoTrySplit, FlatStore> = Dsu::new(n);
        run_shards(&dsu, &w, p);
        let mut packed_ns = Vec::with_capacity(samples);
        let mut flat_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(n);
            packed_ns.push(run_shards(&dsu, &w, p).elapsed.as_nanos() as f64);
            let dsu: Dsu<TwoTrySplit, FlatStore> = Dsu::new(n);
            flat_ns.push(run_shards(&dsu, &w, p).elapsed.as_nanos() as f64);
        }
        let (pm, fm) = (median(&mut packed_ns), median(&mut flat_ns));
        println!("{:>7} {:>14.0} {:>14.0} {:>8.3}", p, pm, fm, fm / pm);
        if !rows.is_empty() {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n    {{\"threads\":{p},\"packed_median_ns\":{pm:.0},\"flat_median_ns\":{fm:.0},\
             \"packed_speedup\":{:.4}}}",
            fm / pm
        );
    }

    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"example\": \"packed_vs_flat_ab\",\n  \"machine\": {},\n  \
             \"workload\": {{\"n\": {n}, \
             \"m\": {m}, \"unite_fraction\": 0.5, \"seed\": \"0xBE7C\"}},\n  \
             \"samples\": {samples},\n  \"results\": [{rows}\n  ]\n}}\n",
            dsu_bench::machine_fingerprint_json()
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
