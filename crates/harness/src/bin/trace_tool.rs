//! Workload trace utility: generate, inspect, and replay archived traces.
//!
//! Every experiment's input is reproducible from its seed, but archiving
//! the *materialized* trace makes results portable across versions of the
//! generators. This tool round-trips `dsu-workloads` JSON traces:
//!
//! ```bash
//! # generate a trace to a file
//! trace_tool --mode gen --n 1024 --m 8192 --unite-frac 0.5 --seed 7 --out /tmp/t.json
//! # summarize an existing trace
//! trace_tool --mode info --trace /tmp/t.json
//! # replay it against the concurrent structure and report the outcome
//! trace_tool --mode replay --trace /tmp/t.json --p 8
//! ```

use concurrent_dsu::{DefaultStore, Dsu, TwoTrySplit, UnionForest};
use dsu_harness::{run_shards, table::f2, Args};
use dsu_workloads::{ElementDist, Workload, WorkloadSpec};

fn main() {
    let args = Args::parse();
    match args.get("mode").unwrap_or("info") {
        "gen" => {
            let n = args.usize("n", 1024);
            let m = args.usize("m", 8192);
            let spec = WorkloadSpec::new(n, m)
                .unite_fraction(args.f64("unite-frac", 0.5))
                .element_dist(match args.get("zipf") {
                    Some(theta) => ElementDist::Zipf(theta.parse().expect("zipf exponent")),
                    None => ElementDist::Uniform,
                });
            let w = spec.generate(args.u64("seed", 0));
            let out = args.get("out").expect("--out PATH required for --mode gen");
            std::fs::write(out, w.to_json()).expect("write trace");
            println!("wrote {} ops over 0..{} to {out}", w.len(), w.n);
        }
        "info" => {
            let w = load(&args);
            println!("universe:       0..{}", w.n);
            println!("operations:     {}", w.len());
            println!("unite fraction: {}", f2(w.unite_fraction()));
            let mut touched = vec![false; w.n];
            for op in &w.ops {
                let (x, y) = op.operands();
                touched[x] = true;
                touched[y] = true;
            }
            println!("elements touched: {} / {}", touched.iter().filter(|&&t| t).count(), w.n);
        }
        "replay" => {
            let w = load(&args);
            let p = args.usize("p", 8);
            // Recording the union forest costs one word per element and
            // a branch per CAS; the replay reports its height.
            let dsu: Dsu<TwoTrySplit, UnionForest<DefaultStore>> =
                Dsu::with_seed(w.n, args.u64("seed", Dsu::<TwoTrySplit>::DEFAULT_SEED));
            let metrics = run_shards(&dsu, &w, p);
            println!(
                "replayed {} ops on {p} threads in {:.2} ms ({} Mops/s)",
                metrics.ops,
                metrics.elapsed.as_secs_f64() * 1e3,
                f2(metrics.mops())
            );
            println!("final sets: {}", dsu.set_count());
            println!("union forest height: {}", dsu.store().height());
        }
        other => {
            eprintln!("unknown --mode {other}; expected gen | info | replay");
            std::process::exit(2);
        }
    }
}

fn load(args: &Args) -> Workload {
    let path = args.get("trace").expect("--trace PATH required");
    let json = std::fs::read_to_string(path).expect("read trace");
    Workload::from_json(&json).expect("parse trace")
}
