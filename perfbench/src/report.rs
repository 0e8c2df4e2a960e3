//! The result line, the machine fingerprint, and the watchdog that turns a
//! hung run into failed operations instead of a hung benchmark.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// What one invocation prints last: correctness, operation counts, metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Folds one checked batch of work into the counts.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Correct when something ran, nothing failed, and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|_| "?".into())
}

/// The commit the checkout came from, read from `.git` without running git
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = read_trimmed(&format!("{root}/HEAD"));
    match head.strip_prefix("ref: ") {
        None if head.len() == 40 => head,
        None => "unknown".into(),
        Some(r) => {
            let direct = read_trimmed(&format!("{root}/{r}"));
            if direct.len() == 40 {
                return direct;
            }
            let packed = read_trimmed(&format!("{root}/packed-refs"));
            packed
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                .unwrap_or_else(|| "unknown".into())
        }
    }
}

/// nproc, cache sizes, clocksource, commit, seed and sizes, as one JSON
/// object.
pub fn fingerprint(workload: &str, seed: u64, trace: bool, sizes_json: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let cache = |i| read_trimmed(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"));
    format!(
        "{{\"nproc\": {nproc}, \"l1d\": \"{}\", \"l2\": \"{}\", \"l3\": \"{}\", \
         \"clocksource\": \"{}\", \"commit\": \"{}\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"trace\": {trace}, \"clients\": {}, \"sizes\": {sizes_json}}}",
        cache(0),
        cache(2),
        cache(3),
        read_trimmed("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        commit(),
        crate::CLIENTS,
    )
}

static ABORT: AtomicBool = AtomicBool::new(false);
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);

/// `true` once the soft deadline passed: clients stop issuing requests and
/// the run in flight counts as failed.
pub fn aborted() -> bool {
    ABORT.load(Relaxed)
}

/// Notes operations about to be attempted, so a hard-deadline exit can
/// count them as failed.
pub fn attempting(ops: u64) {
    ATTEMPTED.fetch_add(ops, Relaxed);
}

/// Arms the watchdog: at `soft` the run in flight is abandoned (and counted
/// as failed); if the process is still running at `hard` (a call that never
/// returns), it prints a failed result and exits.
pub fn arm_watchdog(soft: Duration, hard: Duration) {
    // Detached on purpose: it must outlive a main thread stuck in a call,
    // and a normal exit simply ends it.
    std::thread::spawn(move || {
        std::thread::sleep(soft);
        ABORT.store(true, Relaxed);
        eprintln!("watchdog: soft deadline of {soft:?} passed; abandoning the run in flight");
        std::thread::sleep(hard.saturating_sub(soft));
        let attempted = ATTEMPTED.load(Relaxed).max(1);
        let out = Outcome { attempted, failed: attempted, metrics: Vec::new() };
        println!("{}", out.json());
        std::process::exit(0);
    });
}
