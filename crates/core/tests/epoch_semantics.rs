//! Epoch-layer semantics: [`VersionedDsu`]'s snapshot / rollback /
//! time-travel / speculative-batch surface must agree with a *versioned
//! sequential oracle* — a naive label array plus an explicit clone stack,
//! the structure a textbook would write if snapshots were allowed to cost
//! O(n). The whole point of the epoch layer is to be observationally
//! identical to that oracle while paying O(segments) per snapshot.
//!
//! Four cells:
//! * a proptest over full version-DAG scripts (unite / make_set /
//!   snapshot / rollback / drop / time-travel / speculative batch),
//! * bit-identical rollback at the raw-word level (stronger than
//!   partition equality: the restored forest is the *same bytes*),
//! * a watchdogged threaded stress driving concurrent phases between
//!   quiescent snapshot/rollback points, and readers racing the fork of
//!   a bulk-built universe's prefix,
//! * a chaos cell where every store access runs under `FaultyStore`
//!   injection and rollback must still be exact.

use std::time::Duration;

use concurrent_dsu::epoch::EpochFork;
use concurrent_dsu::{
    BatchOutcome, DsuStore, Epoch, EpochStore, FaultPlan, FaultyStore, GrowableDsu, RetryBudget,
    TestWatchdog, TwoTrySplit, VersionedDsu,
};
use proptest::prelude::*;
use proptest::prop_oneof;

type VDsu = VersionedDsu<TwoTrySplit, EpochStore, concurrent_dsu::DefaultLink>;
type ChaosDsu = VersionedDsu<TwoTrySplit, FaultyStore<EpochStore>, concurrent_dsu::DefaultLink>;

/// The versioned sequential oracle: live labels plus a stack of
/// `(epoch, labels)` clones. O(n) per snapshot where the real structure
/// pays O(segments) — which is exactly why the real structure exists.
#[derive(Default)]
struct VersionedOracle {
    labels: Vec<usize>,
    snaps: Vec<(Epoch, Vec<usize>)>,
}

impl VersionedOracle {
    fn make_set(&mut self) -> usize {
        let e = self.labels.len();
        self.labels.push(e);
        e
    }

    fn unite(&mut self, x: usize, y: usize) -> bool {
        let (from, to) = (self.labels[x], self.labels[y]);
        if from == to {
            return false;
        }
        for l in self.labels.iter_mut() {
            if *l == from {
                *l = to;
            }
        }
        true
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        self.labels[x] == self.labels[y]
    }

    fn set_count(&self) -> usize {
        let mut roots: Vec<usize> = self.labels.clone();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    fn snapshot(&mut self, at: Epoch) {
        self.snaps.push((at, self.labels.clone()));
    }

    fn rollback(&mut self, at: Epoch) {
        let idx = self.snaps.iter().position(|(e, _)| *e == at).unwrap();
        self.snaps.truncate(idx + 1);
        self.labels = self.snaps[idx].1.clone();
    }

    fn drop_snapshot(&mut self, at: Epoch) {
        self.snaps.retain(|(e, _)| *e != at);
    }

    fn same_set_at(&self, at: Epoch, x: usize, y: usize) -> bool {
        let (_, labels) = self.snaps.iter().find(|(e, _)| *e == at).unwrap();
        labels[x] == labels[y]
    }

    fn len_at(&self, at: Epoch) -> usize {
        self.snaps.iter().find(|(e, _)| *e == at).unwrap().1.len()
    }
}

/// One script step; indices are reduced modulo the live length at
/// execution time so shrinking stays meaningful.
#[derive(Debug, Clone, Copy)]
enum Step {
    MakeSet,
    Unite(usize, usize),
    SameSet(usize, usize),
    Snapshot,
    /// Roll back to the `i`-th retained snapshot (mod the stack height).
    Rollback(usize),
    Drop(usize),
    QueryAt(usize, usize, usize),
    /// Speculative batch of pseudo-random edges; `commit` picks the
    /// validator's verdict up front.
    TryBatch {
        seed: u64,
        commit: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::MakeSet),
        6 => (0usize..64, 0usize..64).prop_map(|(x, y)| Step::Unite(x, y)),
        4 => (0usize..64, 0usize..64).prop_map(|(x, y)| Step::SameSet(x, y)),
        2 => Just(Step::Snapshot),
        2 => (0usize..8).prop_map(Step::Rollback),
        1 => (0usize..8).prop_map(Step::Drop),
        3 => (0usize..8, 0usize..64, 0usize..64).prop_map(|(s, x, y)| Step::QueryAt(s, x, y)),
        2 => (any::<u64>(), any::<bool>()).prop_map(|(seed, commit)| Step::TryBatch { seed, commit }),
    ]
}

fn batch_edges(seed: u64, n: usize) -> Vec<(usize, usize)> {
    (0..8)
        .map(|i| {
            let r = concurrent_dsu::order::splitmix64(seed.wrapping_add(i));
            ((r as usize) % n, ((r >> 32) as usize) % n)
        })
        .collect()
}

fn run_script<S: EpochFork>(
    dsu: &mut VersionedDsu<TwoTrySplit, S, concurrent_dsu::DefaultLink>,
    oracle: &mut VersionedOracle,
    script: &[Step],
) {
    for &step in script {
        let n = oracle.labels.len();
        match step {
            Step::MakeSet => {
                assert_eq!(dsu.make_set(), oracle.make_set());
            }
            Step::Unite(x, y) if n > 0 => {
                let (x, y) = (x % n, y % n);
                assert_eq!(dsu.unite(x, y), oracle.unite(x, y), "unite({x},{y})");
            }
            Step::SameSet(x, y) if n > 0 => {
                let (x, y) = (x % n, y % n);
                assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y), "same_set({x},{y})");
            }
            Step::Snapshot => {
                let at = dsu.snapshot();
                oracle.snapshot(at);
            }
            Step::Rollback(i) => {
                let snaps = dsu.snapshots();
                if !snaps.is_empty() {
                    let at = snaps[i % snaps.len()];
                    dsu.rollback(at);
                    oracle.rollback(at);
                    assert_eq!(dsu.len(), oracle.labels.len(), "rollback len");
                }
            }
            Step::Drop(i) => {
                let snaps = dsu.snapshots();
                if !snaps.is_empty() {
                    let at = snaps[i % snaps.len()];
                    dsu.drop_snapshot(at);
                    oracle.drop_snapshot(at);
                }
            }
            Step::QueryAt(s, x, y) => {
                let snaps = dsu.snapshots();
                if !snaps.is_empty() {
                    let at = snaps[s % snaps.len()];
                    let m = oracle.len_at(at);
                    assert_eq!(dsu.len_at(at), m);
                    if m > 0 {
                        let (x, y) = (x % m, y % m);
                        assert_eq!(
                            dsu.same_set_at(at, x, y),
                            oracle.same_set_at(at, x, y),
                            "same_set_at({:?},{x},{y})",
                            at
                        );
                    }
                }
            }
            Step::TryBatch { seed, commit } if n > 0 => {
                let edges = batch_edges(seed, n);
                let outcome = dsu.try_unite_batch(&edges, |_, _| commit);
                if commit {
                    assert!(outcome.is_committed());
                    for &(x, y) in &edges {
                        oracle.unite(x, y);
                    }
                } else {
                    assert_eq!(outcome, BatchOutcome::RolledBack);
                    // Oracle state is untouched: the whole batch unwound.
                }
            }
            _ => {}
        }
        assert_eq!(dsu.set_count(), oracle.set_count());
        assert_eq!(dsu.snapshots().len(), oracle.snaps.len(), "snapshot stacks diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full version-DAG scripts agree with the clone-stack oracle, step by
    /// step: every unite/query verdict, every time-travel answer, every
    /// post-rollback partition, and the snapshot stacks themselves.
    #[test]
    fn versioned_scripts_match_clone_stack_oracle(
        script in prop::collection::vec(step_strategy(), 1..120),
        seed in any::<u64>(),
        initial in 0usize..24,
    ) {
        let mut dsu = VDsu::with_seed(seed);
        let mut oracle = VersionedOracle::default();
        for _ in 0..initial {
            dsu.make_set();
            oracle.make_set();
        }
        run_script(&mut dsu, &mut oracle, &script);
    }

    /// Rollback is bit-identical, not merely partition-equal: the raw
    /// packed words (hash ids included) after rollback equal the dump
    /// taken before the snapshot, whatever happened in between.
    #[test]
    fn rollback_restores_raw_words_exactly(
        pre in prop::collection::vec((0usize..48, 0usize..48), 0..40),
        post in prop::collection::vec((0usize..48, 0usize..48), 1..60),
        grow in 0usize..80,
        seed in any::<u64>(),
    ) {
        let mut dsu = VDsu::with_seed(seed);
        for _ in 0..48 {
            dsu.make_set();
        }
        for &(x, y) in &pre {
            dsu.unite(x, y);
        }
        let words = dsu.dsu().store().raw_words(dsu.len());
        let at = dsu.snapshot();
        for &(x, y) in &post {
            dsu.unite(x, y);
        }
        for _ in 0..grow {
            dsu.make_set();
        }
        dsu.labels_snapshot(); // compacting finds write too
        dsu.rollback(at);
        prop_assert_eq!(dsu.len(), 48);
        prop_assert_eq!(dsu.dsu().store().raw_words(48), words);
    }

    /// The chaos cell: every store access through `FaultyStore` injection
    /// (spurious CAS failures + delayed loads), and the oracle agreement
    /// plus exact rollback must hold anyway — injected faults are legal
    /// schedules, so they may change tree shapes but never semantics.
    #[test]
    fn versioned_scripts_survive_fault_injection(
        script in prop::collection::vec(step_strategy(), 1..60),
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
    ) {
        let store = FaultyStore::with_plan(
            <EpochStore as DsuStore>::with_seed(0, seed),
            FaultPlan::rate(seed ^ 0x9e3779b97f4a7c15, rate),
        );
        let mut dsu: ChaosDsu = VersionedDsu::from_dsu(GrowableDsu::from_store(store));
        let mut oracle = VersionedOracle::default();
        for _ in 0..16 {
            dsu.make_set();
            oracle.make_set();
        }
        run_script(&mut dsu, &mut oracle, &script);
    }
}

/// Threaded stress across quiescent points: alternating phases of
/// concurrent hammering (unites, queries, time-travel reads, growth) and
/// quiescent epoch transitions (snapshot, rollback, speculative batches).
/// Each phase's rollback must restore the exact pre-phase labels; the
/// watchdog converts any livelock into a fast panic.
#[test]
fn threaded_phases_roll_back_exactly() {
    let _wd = TestWatchdog::arm("threaded_phases_roll_back_exactly", Duration::from_secs(120));
    let threads = 4;
    let n = 512;
    let mut dsu = VDsu::with_seed(0xE16);
    for _ in 0..n {
        dsu.make_set();
    }
    for i in 0..n / 4 {
        dsu.unite(i, i + n / 2);
    }

    for phase in 0u64..4 {
        let committed_labels = dsu.labels_snapshot();
        let committed_words = dsu.dsu().store().raw_words(dsu.len());
        let snap = dsu.snapshot();

        std::thread::scope(|s| {
            for t in 0..threads {
                let dsu = &dsu;
                s.spawn(move || {
                    let mut sink = RetryBudget::new("threaded_phases", 1_000_000);
                    for i in 0..2_000u64 {
                        let r = concurrent_dsu::order::splitmix64(
                            phase ^ ((t as u64) << 32) ^ (i << 1) ^ 0xABCD,
                        );
                        let x = (r as usize) % n;
                        let y = ((r >> 24) as usize) % n;
                        match r % 8 {
                            0..=4 => {
                                dsu.dsu().unite_with(x, y, &mut sink);
                            }
                            5 => {
                                dsu.same_set(x, y);
                            }
                            6 => {
                                // Time-travel reads race the writers.
                                let _ = dsu.same_set_at(snap, x, y);
                            }
                            _ => {
                                dsu.find(x);
                            }
                        }
                    }
                });
            }
        });

        // The snapshot answered from frozen state all along…
        assert_eq!(dsu.len_at(snap), n);
        // …and rolling back erases the storm bit-identically.
        dsu.rollback(snap);
        // Words first: labels_snapshot's finds compact paths (legal
        // mutations) and would perturb the bit-identity check.
        assert_eq!(dsu.dsu().store().raw_words(dsu.len()), committed_words, "phase {phase}");
        assert_eq!(dsu.labels_snapshot(), committed_labels, "phase {phase}");
        dsu.drop_snapshot(snap);

        // Commit some real progress between phases so each phase guards a
        // different baseline.
        for i in 0..n / 8 {
            dsu.unite((i * 7 + phase as usize) % n, (i * 13 + 1) % n);
        }
    }
    assert_eq!(dsu.rollbacks(), 4);
}

/// Readers racing the prefix fork. A bulk-built universe keeps its
/// elements in one prefix node that readers reach through their own
/// pointer and writers through the directory; after each snapshot the
/// first write forks that node while readers repeat `same_set` over a
/// fixed pair list. A reader must never fall back to the node writers
/// have left: a pair once seen connected stays connected, and time travel
/// answers from the pre-snapshot partition throughout. Odd phases roll
/// back and must restore the words bit for bit; even phases commit and
/// drop their snapshot, whose prefix buffer the next phase's fork then
/// copies into.
#[test]
fn readers_racing_a_prefix_fork_see_monotone_answers() {
    let _wd = TestWatchdog::arm("readers_racing_a_prefix_fork", Duration::from_secs(120));
    let n = 1 << 16;
    let mut dsu = VDsu::with_initial(n);
    let rng = |i: u64| concurrent_dsu::order::splitmix64(0x9F04_C0DE ^ i);
    for i in 0..n as u64 / 4 {
        let r = rng(i);
        dsu.unite((r as usize) % n, ((r >> 32) as usize) % n);
    }
    let pairs: Vec<(usize, usize)> = (0..256u64)
        .map(|i| {
            let r = rng(!i);
            ((r as usize) % n, ((r >> 32) as usize) % n)
        })
        .collect();

    for phase in 0u64..4 {
        let labels = dsu.labels_snapshot();
        let words = dsu.dsu().store().raw_words(dsu.len());
        let before: Vec<bool> = pairs.iter().map(|&(x, y)| labels[x] == labels[y]).collect();
        let forks = dsu.dsu().store().epoch_report().segments_forked;
        let snap = dsu.snapshot();
        let writing = std::sync::atomic::AtomicUsize::new(2);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (dsu, pairs, writing) = (&dsu, &pairs, &writing);
                s.spawn(move || {
                    for i in 0..4_000u64 {
                        let r = rng((phase << 40) ^ (w << 32) ^ i);
                        if i % 8 == 0 {
                            // Grow past the prefix and tie the new element
                            // to an old one.
                            let e = dsu.make_set();
                            dsu.unite(e, (r as usize) % n);
                        } else if i % 8 == 1 {
                            let (x, y) = pairs[(r as usize) % pairs.len()];
                            dsu.unite(x, y);
                        } else {
                            dsu.unite((r as usize) % n, ((r >> 32) as usize) % n);
                        }
                    }
                    writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            for _ in 0..2 {
                let (dsu, pairs, before, writing) = (&dsu, &pairs, &before, &writing);
                s.spawn(move || {
                    let mut seen = before.clone();
                    let mut rounds = 0;
                    while rounds < 4 || writing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                        for (k, &(x, y)) in pairs.iter().enumerate() {
                            let now = dsu.same_set(x, y);
                            assert!(now || !seen[k], "phase {phase}: pair {k} came apart");
                            seen[k] = now;
                            assert_eq!(dsu.same_set_at(snap, x, y), before[k], "phase {phase}");
                        }
                        rounds += 1;
                    }
                });
            }
        });
        assert!(dsu.dsu().store().epoch_report().segments_forked > forks, "the storm must fork");
        if phase % 2 == 1 {
            dsu.rollback(snap);
            assert_eq!(dsu.dsu().store().raw_words(dsu.len()), words, "phase {phase}");
        }
        dsu.drop_snapshot(snap);
        // Commit some progress so each phase guards a different forest.
        for i in 0..64 {
            dsu.unite(pairs[(i * 7 + phase as usize) % pairs.len()].0, i);
        }
    }
}

/// Same shape under fault injection, with per-thread retry budgets: the
/// chaos variant of the threaded cell. Uses a smaller universe and op
/// count because injected retries multiply the work.
#[test]
fn threaded_chaos_phases_roll_back_exactly() {
    let _wd =
        TestWatchdog::arm("threaded_chaos_phases_roll_back_exactly", Duration::from_secs(120));
    let n = 256;
    let store = FaultyStore::with_plan(
        <EpochStore as DsuStore>::with_seed(0, 0xC4A05),
        FaultPlan::rate(0xC4A05, 0.2),
    );
    let mut dsu: ChaosDsu = VersionedDsu::from_dsu(GrowableDsu::from_store(store));
    for _ in 0..n {
        dsu.make_set();
    }
    for phase in 0u64..3 {
        let committed = dsu.dsu().store().raw_words(dsu.len());
        let snap = dsu.snapshot();
        std::thread::scope(|s| {
            for t in 0..4 {
                let dsu = &dsu;
                s.spawn(move || {
                    let mut sink = RetryBudget::new("threaded_chaos_phases", 1_000_000);
                    for i in 0..1_000u64 {
                        let r = concurrent_dsu::order::splitmix64(phase ^ ((t as u64) << 40) ^ i);
                        let x = (r as usize) % n;
                        let y = ((r >> 20) as usize) % n;
                        if r.is_multiple_of(4) {
                            dsu.same_set(x, y);
                        } else {
                            dsu.dsu().unite_with(x, y, &mut sink);
                        }
                    }
                });
            }
        });
        dsu.rollback(snap);
        assert_eq!(dsu.dsu().store().raw_words(dsu.len()), committed, "phase {phase}");
        dsu.drop_snapshot(snap);
    }
    assert!(
        dsu.dsu().store().fault_report().total() > 0,
        "the chaos cell must actually inject faults"
    );
}

/// A guard snapshot before every batch, replacing the previous guard: the
/// retained handle rolls the most recent batch (and only it) off.
#[test]
fn snapshot_before_each_batch_guards_the_last_batch() {
    let mut dsu = VDsu::with_initial(64);
    let batches: Vec<Vec<(usize, usize)>> = (0..6)
        .map(|b| (0..8).map(|i| ((b * 8 + i) % 64, (b * 8 + i + 1) % 64)).collect())
        .collect();
    let mut guard: Option<Epoch> = None;
    for batch in &batches {
        if let Some(prev) = guard.take() {
            dsu.drop_snapshot(prev);
        }
        guard = Some(dsu.snapshot());
        dsu.unite_batch(batch);
    }
    assert_eq!(dsu.snapshots_taken(), 6);
    assert_eq!(dsu.snapshots().len(), 1, "guards replace, never accumulate");
    let guard = guard.unwrap();
    let last = *batches.last().unwrap().first().unwrap();
    assert!(dsu.same_set(last.0, last.1));
    dsu.rollback(guard);
    // Everything before the guarded batch survives; the guarded batch's
    // first fresh link is gone.
    assert!(dsu.same_set(0, 1));
    assert!(!dsu.same_set(47, 48), "the guarded batch must roll off");
}

/// An out-of-range endpoint makes `try_unite_batch` panic before any
/// state changes: no speculation snapshot stays retained, the epoch does
/// not move, and later writes therefore fork nothing.
#[test]
fn try_unite_batch_out_of_range_leaves_no_snapshot() {
    let mut dsu = VDsu::with_initial(64);
    let epoch = dsu.dsu().store().current_epoch();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dsu.try_unite_batch(&[(0, 1), (2, 64)], |_, _| true);
    }));
    assert!(err.is_err(), "endpoint 64 is out of range");
    assert!(dsu.snapshots().is_empty(), "the speculation snapshot leaked");
    assert_eq!(dsu.dsu().store().current_epoch(), epoch, "the epoch moved");
    let report = dsu.dsu().store().epoch_report();
    dsu.unite(0, 1);
    assert_eq!(dsu.dsu().store().epoch_report(), report, "a later write forked");
}
