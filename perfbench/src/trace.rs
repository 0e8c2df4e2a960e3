//! In-memory spans for the traced run, recorded by the benchmark around its
//! own calls into the library's public functions and written out at the
//! end. A span's self time is its duration minus the part of its interval
//! that its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent == 0` marks a root span; spans of one request
/// share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id (for a span whose children start before it ends).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span { id, parent, req, name, start_ns: self.at(start), end_ns: self.at(end) };
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so it can
    /// parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, req, name, start, Instant::now());
        out
    }

    fn all(&self) -> Vec<Span> {
        self.spans.lock().expect("a thread panicked while recording a span").clone()
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.all().iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Summed duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed self time of every span named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> f64 {
        let spans = self.all();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut total = 0.0;
        for s in spans.iter().filter(|s| s.name == name) {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            // Union of the child intervals, clipped to the parent's.
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total += (s.ns() - covered) as f64;
        }
        total
    }

    /// Writes every span as one tab-separated line under a header, each
    /// line prefixed with `section`.
    pub fn write_tsv(&self, out: &mut impl Write, section: &str) -> std::io::Result<()> {
        for s in self.all() {
            writeln!(
                out,
                "{section}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t = Tracer::new();
        let o = t.origin;
        let at = |ms| o + Duration::from_millis(ms);
        t.record(1, 0, 0, "outer", at(0), at(10));
        t.record(2, 1, 0, "inner", at(1), at(4));
        // Overlapping children count once.
        t.record(3, 1, 0, "inner", at(3), at(6));
        t.record(4, 0, 0, "other", at(2), at(3));
        assert_eq!(t.total_ns("inner"), 6e6);
        assert_eq!(t.self_ns("outer"), 5e6);
        assert_eq!(t.self_ns("inner"), 6e6);
    }
}
