//! Runs the whole experiment suite (E1–E16) in order, forwarding flags.
//!
//! ```bash
//! cargo build --release -p dsu-harness --bins
//! ./target/release/run_all [--quick true] [--csv-dir DIR]
//! ```
//!
//! Each experiment runs as a child process launched from this binary's own
//! directory, so build them all first (`cargo run --bin run_all` builds
//! only this one). One failure doesn't take the suite down; each
//! experiment's output streams through, and with `--csv-dir` every
//! experiment also drops `eNN.csv` into the directory. The exit status is
//! nonzero if any experiment failed.

use dsu_harness::Args;
use std::process::Command;

const EXPERIMENTS: [&str; 16] = [
    "e01_height",
    "e02_work_vs_p",
    "e03_variants",
    "e04_speedup",
    "e05_lower_bound",
    "e06_lockstep",
    "e07_sequential",
    "e08_linearizability",
    "e09_applications",
    "e10_growable",
    "e11_independence",
    "e12_cas_anatomy",
    "e13_fault_injection",
    "e14_keyed",
    "e15_work_bound",
    "e16_epochs",
];

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let csv_dir = args.get("csv-dir").map(str::to_string);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    let exe_dir =
        std::env::current_exe().expect("own path").parent().expect("bin dir").to_path_buf();

    let mut failures = Vec::new();
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        println!("\n================================================================");
        println!("running {name} ({}/{})", i + 1, EXPERIMENTS.len());
        println!("================================================================");
        let mut cmd = Command::new(exe_dir.join(name));
        if quick {
            cmd.args(["--quick", "true"]);
        }
        if let Some(dir) = &csv_dir {
            cmd.args(["--csv", &format!("{dir}/{}.csv", &name[..3])]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name} exited with {status}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("{name} failed to launch: {e}");
                failures.push(*name);
            }
        }
    }
    println!("\n================================================================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("FAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// CI runs the experiments only through this binary, so an `eNN`
    /// binary missing from the list would never run.
    #[test]
    fn lists_every_experiment_binary() {
        let bin_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut stems: Vec<String> = std::fs::read_dir(bin_dir)
            .expect("read src/bin")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .filter_map(|path| path.file_stem()?.to_str().map(str::to_string))
            .filter(|stem| stem.starts_with('e'))
            .collect();
        stems.sort();
        assert_eq!(stems, EXPERIMENTS);
    }
}
