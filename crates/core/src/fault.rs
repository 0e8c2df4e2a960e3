//! Deterministic fault injection for the parent store.
//!
//! The paper's correctness claims — Lemma 3.2 linearizability and lock-free
//! progress — must hold under every adversary the APRAM model admits:
//! spurious CAS failures, arbitrarily stale-by-the-time-you-use-it reads,
//! and threads that stall for unbounded stretches. This module makes those
//! adversaries *injectable* on the real threaded implementation, so the
//! native stress suite can exercise exactly the failure modes the proofs
//! must survive instead of only the interleavings one machine happens to
//! produce.
//!
//! # Design: a decorator, not a hook
//!
//! [`FaultyStore`] wraps any [`ParentStore`]/[`DsuStore`] layout
//! (packed/flat, fixed or growable) and perturbs its primitive
//! operations according to a seeded [`FaultPlan`]. It is a separate *type*,
//! not an optional branch in the store hot paths: production
//! monomorphizations (`Dsu<F, PackedStore>` etc.) never see a fault check,
//! so the layer is zero-cost when unused — the PR 4 lesson that optional
//! hooks threaded through the hot loop tax the common case, applied to
//! testing machinery.
//!
//! # What may legally be injected
//!
//! Each injected fault must be an execution the store contract already
//! allows, otherwise a "failure" would refute nothing:
//!
//! * **Spurious CAS failure** — [`ParentStore::cas_from`] returns `false`
//!   without attempting the CAS. Legal: indistinguishable from losing a
//!   race to a rival CAS that was immediately superseded (and LL/SC
//!   hardware fails spuriously for real). Every caller already has a retry
//!   or fall-back path for CAS failure.
//! * **Delayed ("extra-stale") loads** — [`ParentStore::load_word`]
//!   performs the real load, then spins for a bounded while before
//!   returning, so the value is maximally stale by the time the caller
//!   acts on it. Legal: equivalent to the OS preempting the thread right
//!   after the load. Note the injection is load-*then*-delay; returning a
//!   genuinely old value from a *re*-read would violate the per-cell
//!   coherence (modification order) that Lemma 3.1 leans on, and is
//!   exactly the bug [`BrokenStore`]-style canaries exist to catch.
//! * **Stall windows** — every [`FaultPlan::stall_period`]-th decision a
//!   thread spins for a long stretch, simulating descheduling. Legal:
//!   wait-freedom promises progress regardless of scheduling.
//!
//! Because injected CAS failures leave the forest untouched and delayed
//! loads return current values, a faulted structure reaches the same
//! partition as an unfaulted one and every per-edge verdict contract
//! (batch ≡ per-op) survives arbitrary fault rates —
//! `tests/fault_semantics.rs` proptests exactly that, and the native
//! linearizability suite checks timed histories recorded under faults.
//!
//! # Determinism
//!
//! Fault decisions are a pure function of `(plan.seed, thread slot,
//! per-thread decision counter)` via [`splitmix64`]: each thread draws a
//! reproducible decision *sequence*. (Cross-thread interleaving remains as
//! nondeterministic as the scheduler makes it — determinism here means a
//! failing seed reproduces the same per-thread fault pattern, which in
//! practice re-trips the same bug within a few runs.) Thread slots are
//! assigned in first-use order from a process-global counter.
//!
//! # Termination under faults
//!
//! A spurious CAS failure sends the caller back around its retry loop, so
//! rates must stay below 1 or a single `unite` could retry forever. The
//! decision counter advances on every draw, so each retry gets a fresh
//! pseudo-random draw: for any rate `r < 1` the probability that a retry
//! loop spins `k` times is at most `r^k` — termination with probability 1,
//! with geometrically bounded expected retries. [`FaultPlan`] clamps rates
//! to [`FaultPlan::MAX_RATE`] accordingly, and [`RetryBudget`] converts
//! "retries anyway" (a genuine progress bug) into a fast panic with a
//! diagnostic dump instead of a hung CI job.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use crate::order::splitmix64;
use crate::stats::{OpStats, StatsSink};
use crate::store::{DsuStore, GrowableStore, ParentStore};

/// A deterministic, seeded schedule of injectable faults.
///
/// The plan is plain data: copy it into a [`FaultyStore`], print it in a
/// failure report, rebuild it from a report to reproduce. `rate(seed, r)`
/// is the everyday constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision stream. Same seed + same per-thread operation
    /// sequence → same per-thread fault pattern.
    pub seed: u64,
    /// Probability in `[0, MAX_RATE]` that a `cas_from` fails spuriously
    /// (returns `false` without attempting the CAS).
    pub cas_fail_rate: f64,
    /// Probability in `[0, MAX_RATE]` that a `load_word` spins after the
    /// load, so the returned value is stale by the time it is used.
    pub stale_load_rate: f64,
    /// Upper bound on the per-delayed-load spin, in spin-loop hints; the
    /// actual spin is drawn in `1..=max_spin` from the decision stream.
    pub max_spin: u32,
    /// Every `stall_period`-th decision the deciding thread stalls for
    /// [`stall_spins`](FaultPlan::stall_spins) hints (`0` disables stall
    /// windows).
    pub stall_period: u64,
    /// Length of one stall window, in spin-loop hints.
    pub stall_spins: u32,
}

impl FaultPlan {
    /// Upper clamp on both rates: keeps retry loops geometrically bounded
    /// (see the module docs on termination) while still allowing brutal
    /// schedules — at 0.9, one `unite` in ~10⁶ retries a dozen times.
    pub const MAX_RATE: f64 = 0.9;

    /// The all-zero plan: no faults, no delays, no stalls.
    pub fn off() -> Self {
        FaultPlan {
            seed: 0,
            cas_fail_rate: 0.0,
            stale_load_rate: 0.0,
            max_spin: 0,
            stall_period: 0,
            stall_spins: 0,
        }
    }

    /// A plan injecting spurious CAS failures *and* delayed loads at
    /// `rate` (clamped to `[0, MAX_RATE]`), with short delay spins and a
    /// stall window every 1024 decisions — the configuration the chaos
    /// suite sweeps.
    pub fn rate(seed: u64, rate: f64) -> Self {
        let r = rate.clamp(0.0, Self::MAX_RATE);
        FaultPlan {
            seed,
            cas_fail_rate: r,
            stale_load_rate: r,
            max_spin: 64,
            stall_period: if r > 0.0 { 1024 } else { 0 },
            stall_spins: 4096,
        }
    }

    /// `true` when the plan can never inject anything.
    pub fn is_off(&self) -> bool {
        self.cas_fail_rate == 0.0 && self.stale_load_rate == 0.0 && self.stall_period == 0
    }
}

/// Counts of faults a [`FaultyStore`] actually injected, by kind.
///
/// The store's own counter of its injections, read at quiescence via
/// [`FaultyStore::fault_report`]. Compare [`total`](FaultReport::total)
/// against a sink's [`OpStats::cas_retries`] to attribute observed retries
/// to injection rather than genuine contention; an injected fault is
/// layer bookkeeping, not an operation step, so no [`StatsSink`] event
/// carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// CASes failed spuriously (returned `false` without attempting).
    pub spurious_cas_failures: u64,
    /// Loads delayed after reading (the "extra-stale" injection).
    pub delayed_loads: u64,
    /// Stall windows executed.
    pub stalls: u64,
}

impl FaultReport {
    /// All injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.spurious_cas_failures + self.delayed_loads + self.stalls
    }
}

// Thread-slot assignment for the decision stream: each OS thread gets a
// small integer in first-use order, process-wide. Process-wide (rather than
// per-store) keeps the thread-local state trivial; determinism is per
// thread spawn order, which test harnesses control.
static NEXT_SLOT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SLOT: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    static DECISIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One draw from the per-thread decision stream: a well-mixed 64-bit hash
/// of `(seed, thread slot, decision index)`, plus the decision index it
/// consumed (for stall-period checks).
#[inline]
fn draw(seed: u64) -> (u64, u64) {
    let slot = SLOT.with(|s| {
        let v = s.get();
        if v != u64::MAX {
            v
        } else {
            let v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
            v
        }
    });
    let n = DECISIONS.with(|d| {
        let n = d.get();
        d.set(n.wrapping_add(1));
        n
    });
    let h = splitmix64(
        seed ^ splitmix64(slot.wrapping_add(0x5EED)) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    (h, n)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline]
fn spin(hints: u32) {
    for _ in 0..hints {
        std::hint::spin_loop();
    }
}

/// A [`ParentStore`]/[`DsuStore`] decorator that injects the faults of a
/// [`FaultPlan`] into every primitive access — see the module docs for the
/// legality argument per fault kind and the determinism contract.
///
/// Wraps any layout: `FaultyStore<PackedStore>`, `FaultyStore<FlatStore>`,
/// `FaultyStore<EpochStore>` all implement [`DsuStore`], so
/// `Dsu::from_store(FaultyStore::with_plan(store, plan))` drops chaos under
/// the full algorithm stack — per-op and batch paths alike — without
/// touching either.
///
/// As a `DsuStore` in its own right (`NAME = "faulty"`),
/// `FaultyStore::<S>::with_seed(n, seed)` builds the inner store with that
/// seed under [`FaultPlan::off`]; a faulted store comes from
/// [`with_plan`](FaultyStore::with_plan).
pub struct FaultyStore<S> {
    inner: S,
    plan: FaultPlan,
    // Precomputed plan predicates: the hot path tests one byte and jumps
    // over an outlined `#[cold]` injection body, so an off plan costs a
    // predictable never-taken branch per access — nothing else.
    inject_loads: bool,
    inject_cas: bool,
    spurious_cas_failures: AtomicU64,
    delayed_loads: AtomicU64,
    stalls: AtomicU64,
}

impl<S> FaultyStore<S> {
    /// Wraps `inner`, injecting per `plan`.
    pub fn with_plan(inner: S, plan: FaultPlan) -> Self {
        FaultyStore {
            inner,
            plan,
            inject_loads: plan.stale_load_rate > 0.0 || plan.stall_period > 0,
            inject_cas: plan.cas_fail_rate > 0.0,
            spurious_cas_failures: AtomicU64::new(0),
            delayed_loads: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Exclusive access to the wrapped store, for forwarding quiescent
    /// epoch transitions (see
    /// [`EpochFork`](crate::epoch::EpochFork)'s `&mut self` methods).
    pub(crate) fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps, discarding the fault state.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The plan this store injects by.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Injected-fault counts so far (monotone; read at quiescence for
    /// exact attribution).
    pub fn fault_report(&self) -> FaultReport {
        FaultReport {
            spurious_cas_failures: self.spurious_cas_failures.load(Ordering::Relaxed),
            delayed_loads: self.delayed_loads.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }

    /// Draws one decision and runs the stall-window check shared by all
    /// injection sites; returns the hash for the caller's rate check.
    #[inline]
    fn decide(&self) -> u64 {
        let (h, n) = draw(self.plan.seed);
        if self.plan.stall_period > 0 && n % self.plan.stall_period == self.plan.stall_period - 1 {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            spin(self.plan.stall_spins);
        }
        h
    }
}

impl<S> FaultyStore<S> {
    /// The load-side injection body, outlined so the off-path `load_word`
    /// is the inner load plus one never-taken branch.
    #[cold]
    #[inline(never)]
    fn faulted_load(&self) {
        // Load *then* delay: the value was current when read and is stale
        // by the time the caller acts on it — a legal preemption, unlike
        // serving an old value from a re-read (see module docs).
        if self.plan.stale_load_rate > 0.0 {
            let h = self.decide();
            if unit(h) < self.plan.stale_load_rate {
                self.delayed_loads.fetch_add(1, Ordering::Relaxed);
                spin((h >> 32) as u32 % self.plan.max_spin.max(1) + 1);
            }
        } else {
            self.decide();
        }
    }

    /// The CAS-side injection decision, outlined for the same reason.
    #[cold]
    #[inline(never)]
    fn spurious_cas(&self) -> bool {
        if unit(self.decide()) < self.plan.cas_fail_rate {
            // Spurious failure: report defeat without attempting. The
            // cell is untouched, so the caller's retry logic sees exactly
            // a lost race whose winner was immediately superseded.
            self.spurious_cas_failures.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }
}

impl<S: ParentStore> ParentStore for FaultyStore<S> {
    type Word = S::Word;

    #[inline(always)]
    fn load_word(&self, i: usize) -> S::Word {
        let w = self.inner.load_word(i);
        if self.inject_loads {
            self.faulted_load();
        }
        w
    }

    #[inline(always)]
    fn parent_of(w: S::Word) -> usize {
        S::parent_of(w)
    }

    #[inline(always)]
    fn cas_from(&self, i: usize, seen: S::Word, new_parent: usize) -> bool {
        if self.inject_cas && self.spurious_cas() {
            return false;
        }
        self.inner.cas_from(i, seen, new_parent)
    }

    #[inline(always)]
    fn priority(&self, i: usize, w: S::Word) -> u64 {
        self.inner.priority(i, w)
    }
}

impl<S: DsuStore> DsuStore for FaultyStore<S> {
    const NAME: &'static str = "faulty";

    fn with_seed(n: usize, seed: u64) -> Self {
        FaultyStore::with_plan(S::with_seed(n, seed), FaultPlan::off())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn id_of(&self, u: usize) -> u64 {
        self.inner.id_of(u)
    }

    fn snapshot(&self) -> Vec<usize> {
        self.inner.snapshot()
    }
}

// Growth goes through the inner store directly: injection targets the
// algorithm's primitive accesses, not cell initialization.
impl<S: GrowableStore> GrowableStore for FaultyStore<S> {
    fn push_singleton(&self) -> usize {
        self.inner.push_singleton()
    }
}

/// A deliberately **incorrect** store: `cas_from` ignores the expected
/// word and installs the new parent unconditionally (retrying any real CAS
/// race until the write lands), always claiming success.
///
/// This is the regression canary for the whole chaos apparatus. The broken
/// CAS still only installs parents larger in the random order than the
/// overwritten root's own id, so trees stay acyclic and operations
/// terminate — the breakage is *silent*: an unconditional install can
/// overwrite a rival's already-installed link (a lost update), splitting
/// sets that were merged, which yields double-`true` unites and `same_set`
/// answers that revert. A checker that fails to refute
/// `BrokenStore`-recorded histories, or a stress harness whose invariants
/// miss the lost links, is itself broken — `tests/native_linearizability.rs`
/// asserts the refutation actually happens.
pub struct BrokenStore<S> {
    inner: S,
}

impl<S> BrokenStore<S> {
    /// Wraps `inner` with the broken CAS.
    pub fn new(inner: S) -> Self {
        BrokenStore { inner }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ParentStore> ParentStore for BrokenStore<S> {
    type Word = S::Word;

    #[inline]
    fn load_word(&self, i: usize) -> S::Word {
        self.inner.load_word(i)
    }

    #[inline]
    fn parent_of(w: S::Word) -> usize {
        S::parent_of(w)
    }

    #[inline]
    fn cas_from(&self, i: usize, _seen: S::Word, new_parent: usize) -> bool {
        // The bug: install unconditionally, ignoring what the caller saw.
        let mut w = self.inner.load_word(i);
        loop {
            if self.inner.cas_from(i, w, new_parent) {
                return true;
            }
            w = self.inner.load_word(i);
        }
    }

    #[inline]
    fn priority(&self, i: usize, w: S::Word) -> u64 {
        self.inner.priority(i, w)
    }
}

impl<S: DsuStore> DsuStore for BrokenStore<S> {
    const NAME: &'static str = "broken";

    fn with_seed(n: usize, seed: u64) -> Self {
        BrokenStore::new(S::with_seed(n, seed))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn id_of(&self, u: usize) -> u64 {
        self.inner.id_of(u)
    }

    fn snapshot(&self) -> Vec<usize> {
        self.inner.snapshot()
    }
}

/// A [`StatsSink`] wrapper that bounds CAS retries: when
/// [`cas_retry`](StatsSink::cas_retry) events exceed `budget`, it panics
/// with a full counter dump instead of letting a livelocked retry loop
/// spin until the CI job times out.
///
/// Wrap the per-thread [`OpStats`] of a stress test:
///
/// ```
/// use concurrent_dsu::{Dsu, RetryBudget};
///
/// let dsu: Dsu = Dsu::new(64);
/// let mut sink = RetryBudget::new("doc stress", 10_000);
/// for i in 0..63 {
///     dsu.unite_with(i, i + 1, &mut sink);
/// }
/// assert_eq!(sink.stats().links_ok, 63);
/// assert_eq!(sink.stats().cas_retries, 0);
/// ```
///
/// The budget is per sink (i.e. per thread). Under an injection plan of
/// rate `r`, expected retries per link are `r / (1 - r)`; budget a
/// generous multiple of `ops × r / (1 - r)` so only genuine
/// non-termination trips it.
pub struct RetryBudget {
    label: &'static str,
    budget: u64,
    stats: OpStats,
}

impl RetryBudget {
    /// A sink that panics after `budget` retries, labeling the dump with
    /// `label` (typically the test name).
    pub fn new(label: &'static str, budget: u64) -> Self {
        RetryBudget { label, budget, stats: OpStats::default() }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Consumes the sink, returning its counters for merging.
    pub fn into_stats(self) -> OpStats {
        self.stats
    }
}

impl StatsSink for RetryBudget {
    #[inline]
    fn loop_iter(&mut self) {
        self.stats.loop_iter();
    }
    #[inline]
    fn read(&mut self) {
        self.stats.read();
    }
    #[inline]
    fn reads(&mut self, n: usize) {
        StatsSink::reads(&mut self.stats, n);
    }
    #[inline]
    fn compact_cas_ok(&mut self) {
        self.stats.compact_cas_ok();
    }
    #[inline]
    fn compact_cas_fail(&mut self) {
        self.stats.compact_cas_fail();
    }
    #[inline]
    fn link_ok(&mut self) {
        self.stats.link_ok();
    }
    #[inline]
    fn link_fail(&mut self) {
        self.stats.link_fail();
    }
    #[inline]
    fn op_start(&mut self) {
        self.stats.op_start();
    }
    #[inline]
    fn find_start(&mut self) {
        self.stats.find_start();
    }
    fn cas_retry(&mut self) {
        self.stats.cas_retry();
        if self.stats.cas_retries > self.budget {
            panic!(
                "retry budget exceeded in `{}`: {} CAS retries > budget {} — \
                 livelock or lost progress guarantee; counters: {:#?}",
                self.label, self.stats.cas_retries, self.budget, self.stats
            );
        }
    }
    #[inline]
    fn key_inserted(&mut self) {
        self.stats.key_inserted();
    }
    #[inline]
    fn key_probe_steps(&mut self, n: usize) {
        self.stats.key_probe_steps(n);
    }
    #[inline]
    fn find_hops(&mut self, n: usize) {
        self.stats.find_hops(n);
    }
}

/// A wall-clock watchdog for threaded stress tests: if the guarded scope
/// has not [dropped the watchdog](Drop) within `timeout`, a monitor thread
/// prints a diagnostic report and **aborts the process** — a progress bug
/// hangs CI for seconds, with counters on stderr, instead of eating the
/// whole job's time limit in silence.
///
/// ```
/// use concurrent_dsu::TestWatchdog;
/// use std::time::Duration;
///
/// let wd = TestWatchdog::arm("doc test", Duration::from_secs(60));
/// // ... threaded stress work ...
/// drop(wd); // disarms; dropping at end of scope is enough
/// ```
///
/// [`arm_with`](TestWatchdog::arm_with) takes a report closure (run on the
/// monitor thread at trip time) for dumping shared progress counters —
/// ops completed, a [`FaultyStore::fault_report`], whatever the test can
/// observe through an `Arc`.
pub struct TestWatchdog {
    disarm: Option<mpsc::Sender<()>>,
    monitor: Option<thread::JoinHandle<()>>,
}

impl TestWatchdog {
    /// Arms a watchdog with no extra report.
    pub fn arm(name: &str, timeout: Duration) -> Self {
        Self::arm_with(name, timeout, String::new)
    }

    /// Arms a watchdog whose trip message includes `report()`'s output.
    pub fn arm_with<R>(name: &str, timeout: Duration, report: R) -> Self
    where
        R: Fn() -> String + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<()>();
        let name = name.to_owned();
        let monitor = thread::spawn(move || {
            // Disarm = sender dropped (Disconnected). Timeout = trip.
            if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(timeout) {
                eprintln!(
                    "WATCHDOG TRIPPED: `{name}` still running after {timeout:?} — \
                     aborting the process (suspected livelock / lost wakeup).\n{}",
                    report()
                );
                std::process::abort();
            }
        });
        TestWatchdog { disarm: Some(tx), monitor: Some(monitor) }
    }
}

impl Drop for TestWatchdog {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::TwoTrySplit;
    use crate::store::{FlatStore, PackedStore};
    use crate::{Dsu, KeyedDsu};

    #[test]
    fn off_plan_injects_nothing() {
        let store = FaultyStore::with_plan(PackedStore::with_seed(64, 7), FaultPlan::off());
        let dsu: Dsu<TwoTrySplit, _> = Dsu::from_store(store);
        for i in 0..63 {
            assert!(dsu.unite(i, i + 1));
        }
        assert!(dsu.same_set(0, 63));
        let report = dsu.store().fault_report();
        assert_eq!(report, FaultReport::default(), "off plan must inject zero faults");
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn faulted_run_terminates_with_identical_partition() {
        let n = 256;
        let seed = 42;
        let plan = FaultPlan::rate(1, 0.5);
        assert!(!plan.is_off());
        let faulted: Dsu<TwoTrySplit, _> =
            Dsu::from_store(FaultyStore::with_plan(PackedStore::with_seed(n, seed), plan));
        let plain: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
        for i in 0..n - 1 {
            if i % 3 != 2 {
                assert_eq!(faulted.unite(i, i + 1), plain.unite(i, i + 1));
            }
            assert_eq!(faulted.same_set(0, i), plain.same_set(0, i));
        }
        let report = faulted.store().fault_report();
        assert!(report.spurious_cas_failures > 0, "rate 0.5 must actually fire: {report:?}");
        assert!(report.delayed_loads > 0, "{report:?}");
    }

    #[test]
    fn decision_stream_is_deterministic_per_thread() {
        // Two draws with the same (seed, slot, counter) agree; the stream
        // itself advances the counter, so consecutive draws differ.
        let a: Vec<u64> = (0..16).map(|_| draw(99).0).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "draws must not repeat trivially");
        // Rates map into [0, 1).
        for h in a {
            let u = unit(h);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn plan_from_rate_clamps() {
        let p = FaultPlan::rate(0, 5.0);
        assert!(p.cas_fail_rate <= FaultPlan::MAX_RATE);
        let q = FaultPlan::rate(0, -1.0);
        assert_eq!(q.cas_fail_rate, 0.0);
    }

    #[test]
    fn broken_store_loses_updates_under_canary_schedule() {
        // Deterministic single-threaded demonstration of the lost update:
        // CAS u's cell twice from the same stale word — a correct store
        // rejects the second install, the broken one overwrites the first.
        let correct = PackedStore::with_seed(8, 3);
        let broken = BrokenStore::new(PackedStore::with_seed(8, 3));
        let wc = correct.load_word(0);
        let wb = broken.load_word(0);
        assert!(correct.cas_from(0, wc, 1));
        assert!(broken.cas_from(0, wb, 1));
        // Stale second CAS: correct store refuses, broken store "succeeds"
        // and silently overwrites parent 1 with parent 2 — the lost link.
        assert!(!correct.cas_from(0, wc, 2));
        assert!(broken.cas_from(0, wb, 2));
        assert_eq!(correct.load_parent(0), 1);
        assert_eq!(broken.load_parent(0), 2, "the update installing parent 1 was lost");
    }

    #[test]
    fn retry_budget_counts_and_trips() {
        let mut sink = RetryBudget::new("unit", 3);
        sink.op_start();
        for _ in 0..3 {
            sink.link_fail();
            sink.cas_retry();
        }
        assert_eq!(sink.stats().cas_retries, 3);
        let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sink.cas_retry();
        }));
        let err = trip.expect_err("4th retry must exceed budget 3");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("retry budget exceeded"), "{msg}");
        assert!(msg.contains("cas_retries: 4"), "dump must include counters: {msg}");
    }

    /// Per-op, batch and keyed operations on fixed seeds, one thread,
    /// reported into `sink`.
    fn drive<Sk: StatsSink>(sink: &mut Sk) {
        let n = 1 << 12;
        let edge = |i: u64| {
            let h = splitmix64(i);
            ((h % n as u64) as usize, ((h >> 32) % n as u64) as usize)
        };
        let dsu: Dsu = Dsu::with_seed(n, 3);
        for i in 0..n as u64 {
            let (x, y) = edge(i);
            if i % 2 == 0 {
                dsu.unite_with(x, y, sink);
            } else {
                dsu.same_set_with(x, y, sink);
            }
        }
        let edges: Vec<_> = (n as u64..2 * n as u64).map(edge).collect();
        dsu.unite_batch_with(&edges, sink);
        let keyed: KeyedDsu<u64> = KeyedDsu::with_seed(5);
        for k in 0..2_000u64 {
            keyed.merge_keys_with(&k, &(k / 2), sink);
        }
        let pairs: Vec<_> = (0..500u64).map(|k| (k, k + 2_000)).collect();
        keyed.merge_keys_batch_with(&pairs, sink);
    }

    #[test]
    fn retry_budget_forwards_every_counter() {
        let mut plain = OpStats::default();
        drive(&mut plain);
        let mut budget = RetryBudget::new("forwarding", u64::MAX);
        drive(&mut budget);
        let forwarded = budget.into_stats();
        assert!(
            plain.find_hops > 0 && plain.keys_inserted > 0 && plain.key_probe_steps > 0,
            "the drive must reach every op-path counter: {plain:?}"
        );
        assert_eq!(forwarded, plain);
    }

    #[test]
    fn watchdog_disarms_cleanly() {
        let wd = TestWatchdog::arm("disarm test", Duration::from_secs(600));
        drop(wd); // must return promptly, not wait out the timeout
        let wd2 = TestWatchdog::arm_with("disarm test 2", Duration::from_secs(600), || {
            "report".to_owned()
        });
        drop(wd2);
    }

    #[test]
    fn faulty_store_delegates_ids_and_snapshot() {
        let inner = FlatStore::with_seed(32, 11);
        let ids: Vec<u64> = (0..32).map(|i| DsuStore::id_of(&inner, i)).collect();
        let faulty = FaultyStore::with_plan(FlatStore::with_seed(32, 11), FaultPlan::rate(2, 0.3));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(DsuStore::id_of(&faulty, i), id);
        }
        assert_eq!(DsuStore::len(&faulty), 32);
        assert_eq!(faulty.snapshot(), (0..32).collect::<Vec<_>>());
        assert_eq!(<FaultyStore<FlatStore> as DsuStore>::NAME, "faulty");
        // Built generically over the store, it injects nothing.
        assert!(<FaultyStore<FlatStore> as DsuStore>::with_seed(32, 11).plan().is_off());
        assert_eq!(<BrokenStore<FlatStore> as DsuStore>::NAME, "broken");
    }
}
