//! Linearizability checking for concurrent histories.
//!
//! Lemma 3.2 of the paper claims the concurrent operations are
//! linearizable: every concurrent execution's results are explained by
//! *some* total order of the operations consistent with real time. This
//! crate checks that claim mechanically on recorded histories:
//!
//! * [`CompletedOp`] — one operation with its real-time interval and
//!   result;
//! * [`SeqSpec`] — a sequential specification (state + `apply`);
//! * [`check_linearizable`] — Wing–Gong style exhaustive search with
//!   memoized `(linearized-set, state)` failures, returning a witness
//!   order or a refutation;
//! * [`DsuSpec`] / [`DsuOp`] — the disjoint-set-union specification;
//! * [`HistoryRecorder`] / [`record_scripts`] — timed histories recorded
//!   from real threads.
//!
//! The search is exponential in the worst case (the problem is NP-hard),
//! but histories from the APRAM simulator are small (tens of ops) and the
//! memoization plus the real-time pruning make checking instantaneous. A
//! DSU-specific boon: the state after any *set* of unites is independent of
//! their order (set union is confluent), so distinct search paths collapse
//! into few memo states.
//!
//! # Example
//!
//! ```
//! use linearize::{check_linearizable, CompletedOp, DsuOp, DsuSpec};
//!
//! // Two sequential ops: unite {0,1}, then observe it.
//! let history = vec![
//!     CompletedOp { op: DsuOp::Unite(0, 1), result: true, invoked_at: 0, returned_at: 1 },
//!     CompletedOp { op: DsuOp::SameSet(0, 1), result: true, invoked_at: 2, returned_at: 3 },
//! ];
//! let witness = check_linearizable(&DsuSpec::new(2), &history).expect("linearizable");
//! assert_eq!(witness, vec![0, 1]);
//! ```

use std::collections::HashSet;
use std::hash::Hash;

/// One completed operation in a concurrent history.
///
/// `invoked_at < returned_at` timestamps come from any global clock (the
/// APRAM simulator uses its step counter). Operation A *happens before* B
/// iff `A.returned_at < B.invoked_at`; overlapping operations may linearize
/// in either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedOp<O> {
    /// The operation.
    pub op: O,
    /// Its returned value (all our specs return booleans).
    pub result: bool,
    /// Global time at invocation.
    pub invoked_at: u64,
    /// Global time at response.
    pub returned_at: u64,
}

/// A sequential specification: deterministic state machine with
/// boolean-returning operations.
pub trait SeqSpec {
    /// Operation type.
    type Op: Copy;
    /// State type; `Hash + Eq + Clone` enables memoization.
    type State: Clone + Hash + Eq;

    /// The initial state.
    fn init(&self) -> Self::State;

    /// Applies `op` to `state`, returning the successor state and the
    /// operation's return value.
    fn apply(&self, state: &Self::State, op: Self::Op) -> (Self::State, bool);
}

/// Why a history failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearizeError {
    /// No total order consistent with real time reproduces the results.
    NotLinearizable,
    /// The history is too large for the bitmask search (> 64 ops).
    TooLarge(usize),
}

impl std::fmt::Display for LinearizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearizeError::NotLinearizable => write!(f, "history is not linearizable"),
            LinearizeError::TooLarge(n) => {
                write!(f, "history has {n} operations; checker supports at most 64")
            }
        }
    }
}

impl std::error::Error for LinearizeError {}

/// Searches for a linearization of `history` under `spec`.
///
/// Returns the witness: indices into `history` in linearization order.
///
/// # Errors
///
/// [`LinearizeError::NotLinearizable`] if no valid order exists;
/// [`LinearizeError::TooLarge`] if the history exceeds 64 operations.
pub fn check_linearizable<S: SeqSpec>(
    spec: &S,
    history: &[CompletedOp<S::Op>],
) -> Result<Vec<usize>, LinearizeError> {
    let n = history.len();
    if n > 64 {
        return Err(LinearizeError::TooLarge(n));
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut failed: HashSet<(u64, S::State)> = HashSet::new();
    let mut witness = Vec::with_capacity(n);
    if dfs(spec, history, 0, &spec.init(), full, &mut failed, &mut witness) {
        Ok(witness)
    } else {
        Err(LinearizeError::NotLinearizable)
    }
}

fn dfs<S: SeqSpec>(
    spec: &S,
    history: &[CompletedOp<S::Op>],
    taken: u64,
    state: &S::State,
    full: u64,
    failed: &mut HashSet<(u64, S::State)>,
    witness: &mut Vec<usize>,
) -> bool {
    if taken == full {
        return true;
    }
    if failed.contains(&(taken, state.clone())) {
        return false;
    }
    // An op may linearize next iff it is pending and no other pending op
    // *returned* before it was *invoked* (that op would have to come first).
    let min_pending_return = history
        .iter()
        .enumerate()
        .filter(|(i, _)| taken & (1 << i) == 0)
        .map(|(_, o)| o.returned_at)
        .min()
        .expect("pending op exists");
    for i in 0..history.len() {
        if taken & (1 << i) != 0 {
            continue;
        }
        let op = &history[i];
        if op.invoked_at > min_pending_return {
            continue; // some pending op precedes it in real time
        }
        let (next_state, ret) = spec.apply(state, op.op);
        if ret != op.result {
            continue;
        }
        witness.push(i);
        if dfs(spec, history, taken | (1 << i), &next_state, full, failed, witness) {
            return true;
        }
        witness.pop();
    }
    failed.insert((taken, state.clone()));
    false
}

// ---------------------------------------------------------------------------
// Recording native histories.
// ---------------------------------------------------------------------------

/// A shared logical clock for recording [`CompletedOp`]s from *real*
/// threaded executions (as opposed to the APRAM simulator's step counter).
///
/// Timestamps come from one atomic counter bumped with `SeqCst`, so the
/// stamps form a single total order consistent with real time: if
/// operation A's response stamp was drawn before operation B's invocation
/// stamp, A really did return before B was invoked. That is exactly the
/// happens-before relation [`check_linearizable`] consumes — no wall
/// clock, no cross-core clock skew.
///
/// Each thread records into its own `Vec`, concatenated at join time; the
/// recorder itself is just the clock, so sharing it is one
/// `&HistoryRecorder` capture. [`record_scripts`] runs that whole pattern
/// for per-thread op scripts.
///
/// ```
/// use linearize::{check_linearizable, DsuOp, DsuSpec, HistoryRecorder};
///
/// let rec = HistoryRecorder::new();
/// let a = rec.record(DsuOp::Unite(0, 1), || true);
/// let b = rec.record(DsuOp::SameSet(0, 1), || true);
/// assert!(a.returned_at < b.invoked_at);
/// check_linearizable(&DsuSpec::new(2), &[a, b]).expect("linearizable");
/// ```
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    clock: std::sync::atomic::AtomicU64,
}

impl HistoryRecorder {
    /// A recorder whose clock starts at 0.
    pub fn new() -> Self {
        HistoryRecorder { clock: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Draws the next timestamp.
    pub fn now(&self) -> u64 {
        self.clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
    }

    /// Runs `run` between two clock draws and packages the result: the
    /// invocation stamp is drawn immediately before calling `run`, the
    /// response stamp immediately after it returns.
    pub fn record<O>(&self, op: O, run: impl FnOnce() -> bool) -> CompletedOp<O> {
        let invoked_at = self.now();
        let result = run();
        let returned_at = self.now();
        CompletedOp { op, result, invoked_at, returned_at }
    }
}

/// Runs one thread per script, all released together by a start barrier,
/// and records every op through one shared [`HistoryRecorder`]. Thread
/// `t` builds its own state with `state(t)` before the barrier, then runs
/// `scripts[t]` in order, executing each op with `run(&mut state, op)`.
///
/// Returns the per-thread logs concatenated in thread order (each
/// thread's ops in program order) and every thread's final state, also in
/// thread order: a per-thread counter or retry budget comes back to the
/// caller this way.
///
/// # Panics
///
/// Panics if a script thread panics.
///
/// ```
/// use linearize::{check_linearizable, record_scripts, DsuOp, DsuSpec};
///
/// let scripts = vec![vec![DsuOp::Unite(0, 1)], vec![DsuOp::SameSet(2, 3)]];
/// // A stand-in structure: unites succeed and queries answer "apart",
/// // which is right for these two ops in either order. Each thread
/// // counts the ops it ran.
/// let (history, counts) = record_scripts(&scripts, |_| 0, |ran, op| {
///     *ran += 1;
///     matches!(op, DsuOp::Unite(..))
/// });
/// assert_eq!((history.len(), counts), (2, vec![1, 1]));
/// check_linearizable(&DsuSpec::new(4), &history).expect("linearizable");
/// ```
pub fn record_scripts<O, T>(
    scripts: &[Vec<O>],
    state: impl Fn(usize) -> T + Sync,
    run: impl Fn(&mut T, O) -> bool + Sync,
) -> (Vec<CompletedOp<O>>, Vec<T>)
where
    O: Copy + Send + Sync,
    T: Send,
{
    let recorder = HistoryRecorder::new();
    // Without the start barrier short scripts run back to back and never
    // actually race.
    let barrier = std::sync::Barrier::new(scripts.len());
    let mut history = Vec::with_capacity(scripts.iter().map(Vec::len).sum());
    let mut states = Vec::with_capacity(scripts.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(t, script)| {
                let (recorder, barrier, state, run) = (&recorder, &barrier, &state, &run);
                s.spawn(move || {
                    let mut mine = state(t);
                    barrier.wait();
                    let ops: Vec<CompletedOp<O>> = script
                        .iter()
                        .map(|&op| recorder.record(op, || run(&mut mine, op)))
                        .collect();
                    (ops, mine)
                })
            })
            .collect();
        for handle in handles {
            let (ops, mine) = handle.join().expect("script thread panicked");
            history.extend(ops);
            states.push(mine);
        }
    });
    (history, states)
}

// ---------------------------------------------------------------------------
// The DSU specification.
// ---------------------------------------------------------------------------

/// A disjoint-set-union operation for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsuOp {
    /// Merge the sets of the two elements; returns `true` iff they were
    /// distinct.
    Unite(usize, usize),
    /// Query whether the two elements share a set.
    SameSet(usize, usize),
}

/// Canonical partition state: `labels[i]` = smallest element of `i`'s set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DsuState {
    labels: Vec<usize>,
}

/// The sequential specification of disjoint set union over `0..n`.
#[derive(Debug, Clone, Copy)]
pub struct DsuSpec {
    n: usize,
}

impl DsuSpec {
    /// A spec over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        DsuSpec { n }
    }

    /// Universe size.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl SeqSpec for DsuSpec {
    type Op = DsuOp;
    type State = DsuState;

    fn init(&self) -> DsuState {
        DsuState { labels: (0..self.n).collect() }
    }

    fn apply(&self, state: &DsuState, op: DsuOp) -> (DsuState, bool) {
        match op {
            DsuOp::SameSet(x, y) => (state.clone(), state.labels[x] == state.labels[y]),
            DsuOp::Unite(x, y) => {
                let (lx, ly) = (state.labels[x], state.labels[y]);
                if lx == ly {
                    return (state.clone(), false);
                }
                let (keep, drop) = if lx < ly { (lx, ly) } else { (ly, lx) };
                let mut labels = state.labels.clone();
                for l in &mut labels {
                    if *l == drop {
                        *l = keep;
                    }
                }
                (DsuState { labels }, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(op: DsuOp, result: bool, invoked_at: u64, returned_at: u64) -> CompletedOp<DsuOp> {
        CompletedOp { op, result, invoked_at, returned_at }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert_eq!(check_linearizable(&DsuSpec::new(3), &[]), Ok(vec![]));
    }

    #[test]
    fn recorder_stamps_respect_real_time_across_threads() {
        // 4 threads × 8 recorded no-op "operations": every stamp is
        // unique, every interval is well-formed, and ops recorded strictly
        // after another thread's response got later invocation stamps.
        let rec = HistoryRecorder::new();
        let mut per_thread: Vec<Vec<CompletedOp<DsuOp>>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let rec = &rec;
                    s.spawn(move || {
                        (0..8)
                            .map(|i| rec.record(DsuOp::SameSet(t, t), || i % 2 == 0))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().unwrap());
            }
        });
        let mut stamps = Vec::new();
        for ops in &per_thread {
            for w in ops.windows(2) {
                assert!(w[0].returned_at < w[1].invoked_at, "program order preserved");
            }
            for o in ops {
                assert!(o.invoked_at < o.returned_at);
                stamps.push(o.invoked_at);
                stamps.push(o.returned_at);
            }
        }
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 4 * 8 * 2, "stamps are globally unique");
    }

    #[test]
    fn script_recorder_keeps_program_order_and_thread_state() {
        let (threads, ops) = (4, 16);
        let scripts: Vec<Vec<DsuOp>> =
            (0..threads).map(|t| (0..ops).map(|i| DsuOp::Unite(t, i)).collect()).collect();
        let (history, states) = record_scripts(
            &scripts,
            |t| (t, 0),
            |(_, ran), op| {
                *ran += 1;
                matches!(op, DsuOp::Unite(_, i) if i % 2 == 0)
            },
        );
        assert_eq!(history.len(), threads * ops);
        for (t, log) in history.chunks(ops).enumerate() {
            // Thread t's ops, in its script's order, each a well-formed
            // interval that returned before the next one was invoked.
            let issued: Vec<DsuOp> = log.iter().map(|c| c.op).collect();
            assert_eq!(issued, scripts[t], "thread {t}'s log is its script, in order");
            for c in log {
                assert!(c.invoked_at < c.returned_at);
                assert_eq!(c.result, matches!(c.op, DsuOp::Unite(_, i) if i % 2 == 0));
            }
            for w in log.windows(2) {
                assert!(w[0].returned_at < w[1].invoked_at, "program order preserved");
            }
        }
        assert_eq!(states, (0..threads).map(|t| (t, ops)).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_history_linearizes_in_order() {
        let h = vec![
            op(DsuOp::SameSet(0, 1), false, 0, 1),
            op(DsuOp::Unite(0, 1), true, 2, 3),
            op(DsuOp::SameSet(0, 1), true, 4, 5),
            op(DsuOp::Unite(1, 0), false, 6, 7),
        ];
        assert_eq!(check_linearizable(&DsuSpec::new(2), &h), Ok(vec![0, 1, 2, 3]));
    }

    #[test]
    fn overlap_allows_reordering() {
        // SameSet overlapping a Unite may see it or not; both answers are
        // linearizable.
        for observed in [true, false] {
            let h =
                vec![op(DsuOp::Unite(0, 1), true, 0, 10), op(DsuOp::SameSet(0, 1), observed, 5, 6)];
            assert!(
                check_linearizable(&DsuSpec::new(2), &h).is_ok(),
                "observed = {observed} must be linearizable"
            );
        }
    }

    #[test]
    fn stale_true_before_any_unite_is_rejected() {
        // SameSet returns true, completing strictly before the only Unite
        // is invoked: impossible.
        let h = vec![op(DsuOp::SameSet(0, 1), true, 0, 1), op(DsuOp::Unite(0, 1), true, 2, 3)];
        assert_eq!(check_linearizable(&DsuSpec::new(2), &h), Err(LinearizeError::NotLinearizable));
    }

    #[test]
    fn forgotten_union_is_rejected() {
        // Unite completes, then a later SameSet still says false: once
        // together, always together.
        let h = vec![op(DsuOp::Unite(0, 1), true, 0, 1), op(DsuOp::SameSet(0, 1), false, 2, 3)];
        assert_eq!(check_linearizable(&DsuSpec::new(2), &h), Err(LinearizeError::NotLinearizable));
    }

    #[test]
    fn double_successful_unite_is_rejected() {
        // Two Unites of the same pair cannot both return true if the first
        // completes before the second starts.
        let h = vec![op(DsuOp::Unite(0, 1), true, 0, 1), op(DsuOp::Unite(0, 1), true, 2, 3)];
        assert_eq!(check_linearizable(&DsuSpec::new(2), &h), Err(LinearizeError::NotLinearizable));
        // But two *overlapping* unites: exactly one true and one false is
        // fine (and required).
        let h = vec![op(DsuOp::Unite(0, 1), true, 0, 10), op(DsuOp::Unite(0, 1), false, 0, 10)];
        assert!(check_linearizable(&DsuSpec::new(2), &h).is_ok());
    }

    #[test]
    fn transitive_story_across_three_procs() {
        let h = vec![
            op(DsuOp::Unite(0, 1), true, 0, 3),
            op(DsuOp::Unite(1, 2), true, 1, 4),
            op(DsuOp::SameSet(0, 2), true, 5, 6),
        ];
        let w = check_linearizable(&DsuSpec::new(3), &h).unwrap();
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn witness_replays_correctly() {
        let h = vec![
            op(DsuOp::Unite(2, 3), true, 0, 9),
            op(DsuOp::SameSet(2, 3), false, 1, 2),
            op(DsuOp::SameSet(2, 3), true, 7, 8),
        ];
        let spec = DsuSpec::new(4);
        let w = check_linearizable(&spec, &h).unwrap();
        // Replaying the witness reproduces every result.
        let mut state = spec.init();
        for &i in &w {
            let (next, ret) = spec.apply(&state, h[i].op);
            assert_eq!(ret, h[i].result);
            state = next;
        }
    }

    #[test]
    fn too_large_history_is_reported() {
        let h: Vec<CompletedOp<DsuOp>> =
            (0..65).map(|i| op(DsuOp::SameSet(0, 0), true, i, i)).collect();
        assert_eq!(check_linearizable(&DsuSpec::new(1), &h), Err(LinearizeError::TooLarge(65)));
    }

    #[test]
    fn spec_apply_semantics() {
        let spec = DsuSpec::new(4);
        let s0 = spec.init();
        let (s1, r1) = spec.apply(&s0, DsuOp::Unite(3, 1));
        assert!(r1);
        let (_, q) = spec.apply(&s1, DsuOp::SameSet(1, 3));
        assert!(q);
        let (s2, r2) = spec.apply(&s1, DsuOp::Unite(1, 3));
        assert!(!r2);
        assert_eq!(s1, s2);
        assert_eq!(spec.n(), 4);
    }

    #[test]
    fn error_display() {
        assert!(LinearizeError::NotLinearizable.to_string().contains("not linearizable"));
        assert!(LinearizeError::TooLarge(70).to_string().contains("70"));
    }
}
