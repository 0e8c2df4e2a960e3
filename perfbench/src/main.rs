//! One benchmark for the whole concurrent-DSU stack: three user workloads
//! (`cc-rmat`, `keyed-dedup`, `online-mix`) on two client threads, every
//! run checked against a sequential oracle, and a traced run that prices
//! each layer (see `BENCHMARK.json` at the repository root for the metrics
//! and why each workload was chosen).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cc-rmat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Informational lines start with `#`; the last line of standard output is
//! the JSON result: end-to-end metrics with `--trace 0`, the per-layer
//! table with `--trace 1` (whose spans are also written to
//! `perfbench/out/`).

mod alloc;
mod check;
mod gen;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::time::Duration;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Client threads of every workload.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CcRmat,
    KeyedDedup,
    OnlineMix,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::CcRmat, Workload::KeyedDedup, Workload::OnlineMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CcRmat => "cc-rmat",
            Workload::KeyedDedup => "keyed-dedup",
            Workload::OnlineMix => "online-mix",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload cc-rmat|keyed-dedup|online-mix --seed N [--seconds 1..=60] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(key) = args.next() {
        let value = args.next().ok_or_else(|| format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=60"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {key:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Every run must end within 180 s: abandon the run in flight at 150 s,
    // give up on a call that never returns at 170 s.
    report::arm_watchdog(Duration::from_secs(150), Duration::from_secs(170));
    let sizes = gen::Sizes::FULL;
    let w = args.workload;
    println!(
        "# fingerprint {}",
        report::fingerprint(w.name(), args.seed, args.trace, &sizes.json())
    );
    let out = if args.trace {
        layers::run(w, args.seed, args.seconds, &sizes)
    } else {
        workloads::run(w, args.seed, args.seconds, &sizes)
    };
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(hwm) = status.lines().find(|l| l.starts_with("VmHWM")) {
        println!("# process {}", hwm.split_whitespace().collect::<Vec<_>>().join(" "));
    }
    println!("{}", out.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload online-mix --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::OnlineMix, 7, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload cc-rmat").is_err());
        assert!(args("--workload cc-rmat --seed 1 --trace 2").is_err());
        assert!(args("--workload cc-rmat --seed 1 --seconds 0").is_err());
    }

    /// Each workload's input is byte-identical for a given seed, and a
    /// different seed gives a different one.
    #[test]
    fn inputs_are_a_function_of_the_seed() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let s = gen::Sizes::QUICK;
        let digest = |w: Workload, seed: u64| {
            let mut h = DefaultHasher::new();
            match w {
                Workload::CcRmat => workloads::cc_rmat::input(&s, seed).graph.edges().hash(&mut h),
                Workload::KeyedDedup => {
                    for reqs in workloads::keyed_dedup::input(&s, seed).clients {
                        for r in reqs {
                            (r.merges, r.merge_idx, r.queries, r.query_ok).hash(&mut h);
                        }
                    }
                }
                Workload::OnlineMix => {
                    let i = workloads::online_mix::input(s.online_n, s.online_ops, seed);
                    (i.ops, i.allowed).hash(&mut h);
                }
            }
            h.finish()
        };
        for w in Workload::ALL {
            assert_eq!(digest(w, 11), digest(w, 11), "{w:?}");
            assert_ne!(digest(w, 11), digest(w, 12), "{w:?}");
        }
    }
}
