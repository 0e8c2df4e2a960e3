//! A growing universe: `MakeSet` support (paper Section 3 remark, Section 7).
//!
//! The fixed-universe [`Dsu`](crate::Dsu) assumes all `n` elements exist
//! up front. [`GrowableDsu`] removes that assumption:
//! [`make_set`](GrowableDsu::make_set) creates fresh elements concurrently
//! with ongoing operations. Ids need no up-front draw on either structure:
//! both hash the element index ([`hashed_id`](crate::order::hashed_id);
//! the paper's Section 7 suggestion: draw from a universe large enough
//! that ties are negligible, plus a tie-breaking rule — here the index
//! itself), so a `GrowableDsu` grown to `n` elements links exactly like a
//! `Dsu` of `n` elements with the same seed.
//!
//! As the paper notes, in an unbounded universe the algorithms are
//! *lock-free* rather than wait-free: an operation could in principle chase
//! a set that keeps growing. Storage is [`EpochStore`]'s directory of
//! doubling segments; operations on existing elements never move memory,
//! and growth never waits for another thread — threads racing to allocate
//! the same segment each build it, and the loser frees its copy.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bulk;
use crate::epoch::EpochStore;
use crate::find::{FindPolicy, TwoTrySplit};
use crate::flatten;
use crate::ops;
use crate::order::{IdOrder, LinkPolicy};
use crate::stats::{OpStats, StatsSink};
use crate::store::{self, ParentStore};
use crate::ConcurrentUnionFind;

/// A [`ParentStore`] whose universe grows one element at a time, bundled
/// with its on-the-fly random order — everything
/// [`GrowableDsu`] needs from its storage type parameter.
///
/// [`EpochStore`] is the layout; [`FaultyStore`](crate::FaultyStore)
/// forwards the trait so chaos tests can wrap it.
pub trait GrowableStore: ParentStore + IdOrder {
    /// Short layout name for reports (e.g. `"epoch-seg"`).
    const NAME: &'static str;

    /// An empty store whose random ids are salted by `seed`.
    fn with_seed(seed: u64) -> Self;

    /// Ensures element `e`'s cell exists and is initialized as a singleton
    /// (`parent == e`). Called exactly once per element, by `make_set`,
    /// *before* the element index is published.
    fn ensure(&self, e: usize);

    /// Index ranges covering the *allocated* cells among `0..len`, each
    /// one segment's allocation in order — the scan surface the
    /// [`flatten`] sweep walks.
    ///
    /// Implementations must skip unallocated segments (a concurrent
    /// `make_set` may have reserved an index it is still initializing, so
    /// a sweep must never assume every index below a `len()` snapshot is
    /// backed yet) and may include allocated cells at or above `len` —
    /// those are untouched singletons, and flattening a singleton is a
    /// no-op.
    fn scan_runs(&self, len: usize) -> Vec<Range<usize>>;
}

/// A concurrent union-find whose universe grows via
/// [`make_set`](GrowableDsu::make_set) (paper Section 3 remark), with
/// on-the-fly random ids (paper Section 7).
///
/// # Element lifetime contract
///
/// An element index may be passed to operations once the `make_set` that
/// returned it has returned (happens-before via the index handoff). Reading
/// [`len`](GrowableDsu::len) and then touching every index below it is only
/// guaranteed at quiescence, because another thread's `make_set` may have
/// reserved an index it is still initializing.
///
/// # Example
///
/// ```
/// use concurrent_dsu::GrowableDsu;
///
/// let dsu: GrowableDsu = GrowableDsu::new();
/// let a = dsu.make_set();
/// let b = dsu.make_set();
/// assert!(!dsu.same_set(a, b));
/// assert!(dsu.unite(a, b));
/// assert!(dsu.same_set(a, b));
/// let c = dsu.make_set();
/// assert!(!dsu.same_set(a, c));
/// ```
pub struct GrowableDsu<
    F: FindPolicy = TwoTrySplit,
    S: GrowableStore = EpochStore,
    L: LinkPolicy = crate::DefaultLink,
> {
    store: S,
    count: AtomicUsize,
    links: AtomicUsize,
    _policy: std::marker::PhantomData<(F, L)>,
}

impl<F: FindPolicy, S: GrowableStore, L: LinkPolicy> std::fmt::Debug for GrowableDsu<F, S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrowableDsu")
            .field("len", &self.len())
            .field("set_count", &self.set_count())
            .field("policy", &F::NAME)
            .field("store", &S::NAME)
            .field("link", &L::NAME)
            .finish()
    }
}

impl<F: FindPolicy, S: GrowableStore, L: LinkPolicy> Default for GrowableDsu<F, S, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: FindPolicy, S: GrowableStore, L: LinkPolicy> GrowableDsu<F, S, L> {
    /// Default seed for the on-the-fly id hash.
    pub const DEFAULT_SEED: u64 = 0x6d61_6b65_5f73_6574; // "make_set"

    /// An empty universe with the default id seed.
    pub fn new() -> Self {
        Self::with_seed(Self::DEFAULT_SEED)
    }

    /// An empty universe whose random order is salted by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::from_store(S::with_seed(seed))
    }

    /// Wraps an already-constructed (still empty) store — the entry point
    /// for stores whose constructors take more than a seed, such as a
    /// [`FaultyStore`](crate::FaultyStore) with an explicit
    /// [`FaultPlan`](crate::FaultPlan).
    pub fn from_store(store: S) -> Self {
        GrowableDsu {
            store,
            count: AtomicUsize::new(0),
            links: AtomicUsize::new(0),
            _policy: std::marker::PhantomData,
        }
    }

    /// An universe pre-populated with `n` singleton elements `0..n`.
    pub fn with_initial(n: usize) -> Self {
        let dsu = Self::new();
        for _ in 0..n {
            dsu.make_set();
        }
        dsu
    }

    /// Creates a fresh singleton set and returns its element index.
    /// Indices are dense: the `k`-th `make_set` overall returns `k - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the storage layout cannot address the new element
    /// ([`EpochStore`] supports at most `2^32`).
    pub fn make_set(&self) -> usize {
        let e = self.count.fetch_add(1, Ordering::SeqCst);
        self.store.ensure(e);
        e
    }

    /// Number of elements created so far.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    /// `true` before the first `make_set`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of disjoint sets right now.
    pub fn set_count(&self) -> usize {
        self.len() - self.links.load(store::STAT)
    }

    /// The underlying store — for layout-specific diagnostics (a
    /// [`FaultyStore`](crate::FaultyStore)'s
    /// [`fault_report`](crate::FaultyStore::fault_report), an
    /// [`EpochStore`]'s
    /// [`epoch_report`](crate::epoch::EpochFork::epoch_report)), mirroring
    /// [`Dsu::store`](crate::Dsu::store).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Exclusive store access for quiescent epoch transitions
    /// ([`EpochFork::fork_point`](crate::epoch::EpochFork::fork_point) and
    /// friends take `&mut self` so the borrow checker enforces the
    /// quiescence they require).
    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Restores the element and link counters to a recorded quiescent
    /// state — the [`VersionedDsu`](crate::VersionedDsu) rollback hook,
    /// paired with the store-level segment restore. Caller must be
    /// quiescent and `links <= len`.
    pub(crate) fn restore_counters(&self, len: usize, links: usize) {
        debug_assert!(links <= len);
        self.count.store(len, Ordering::SeqCst);
        self.links.store(links, Ordering::SeqCst);
    }

    /// The name of the find policy, for reports.
    pub fn policy_name(&self) -> &'static str {
        F::NAME
    }

    /// The name of the storage layout (e.g. `"epoch-seg"`), for reports.
    pub fn store_name(&self) -> &'static str {
        S::NAME
    }

    /// The name of the link policy (e.g. `"random"`), for reports. Note
    /// the growable layout carries no rank word, so
    /// [`RankLink`](crate::RankLink) on them degenerates to index linking
    /// (see [`ParentStore::rank_of`]).
    pub fn link_name(&self) -> &'static str {
        L::NAME
    }

    fn check(&self, x: usize) {
        assert!(x < self.len(), "element {x} out of range (len {})", self.len());
    }

    /// Root of the tree containing `x` (see the staleness caveat on
    /// [`ConcurrentUnionFind::find`]).
    ///
    /// [`ConcurrentUnionFind::find`]: crate::ConcurrentUnionFind::find
    ///
    /// # Panics
    ///
    /// Panics if `x` was not returned by a completed `make_set`.
    pub fn find(&self, x: usize) -> usize {
        self.find_with(x, &mut ())
    }

    /// [`find`](GrowableDsu::find) reporting work into `stats`.
    pub fn find_with<Sk: StatsSink>(&self, x: usize, stats: &mut Sk) -> usize {
        self.check(x);
        F::find(&self.store, x, stats).0
    }

    /// `true` iff `x` and `y` are in the same set at the linearization
    /// point (paper Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` was not returned by a completed `make_set`.
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.same_set_with(x, y, &mut ())
    }

    /// [`same_set`](GrowableDsu::same_set) reporting work into `stats`.
    pub fn same_set_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::same_set::<F, _, _>(&self.store, x, y, stats)
    }

    /// Unites the sets containing `x` and `y`; `true` iff this call linked
    /// (paper Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` was not returned by a completed `make_set`.
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.unite_with(x, y, &mut ())
    }

    /// [`unite`](GrowableDsu::unite) reporting work into `stats`.
    pub fn unite_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::unite::<F, L, _, _>(&self.store, x, y, stats, |_, _| {
            self.links.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Batched [`unite`](GrowableDsu::unite) over an edge slice (see the
    /// [`bulk`] module): filter pass, then word-seeded link
    /// pass. Returns the number of successful links.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint was not returned by a completed `make_set`.
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.unite_batch_with(edges, &mut ())
    }

    /// [`unite_batch`](GrowableDsu::unite_batch) reporting work into
    /// `stats`.
    pub fn unite_batch_with<Sk: StatsSink>(
        &self,
        edges: &[(usize, usize)],
        stats: &mut Sk,
    ) -> usize {
        self.check_edges(edges);
        bulk::unite_batch::<L, _, _>(&self.store, edges, stats, |_, _| {
            self.links.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// [`unite_batch`](GrowableDsu::unite_batch) that also reports each
    /// edge's link verdict.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint was not returned by a completed `make_set`.
    pub fn unite_batch_results(&self, edges: &[(usize, usize)]) -> Vec<bool> {
        self.check_edges(edges);
        let mut results = vec![false; edges.len()];
        bulk::unite_batch_sink::<L, _, _>(
            &self.store,
            edges,
            &mut (),
            |_, _| {
                self.links.fetch_add(1, Ordering::Relaxed);
            },
            |i, linked| results[i] = linked,
        );
        results
    }

    fn check_edges(&self, edges: &[(usize, usize)]) {
        for &(x, y) in edges {
            self.check(x);
            self.check(y);
        }
    }

    /// `SameSet` with early termination (paper Algorithm 6).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` was not returned by a completed `make_set`.
    pub fn same_set_early(&self, x: usize, y: usize) -> bool {
        self.check(x);
        self.check(y);
        ops::same_set_early::<F, L, _, _>(&self.store, x, y, &mut ())
    }

    /// `Unite` with early termination (paper Algorithm 7).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` was not returned by a completed `make_set`.
    pub fn unite_early(&self, x: usize, y: usize) -> bool {
        self.check(x);
        self.check(y);
        ops::unite_early::<F, L, _, _>(&self.store, x, y, &mut (), |_, _| {
            self.links.fetch_add(1, Ordering::Relaxed);
        })
    }

    // ----- Flatten maintenance pass (see the [`flatten`] module) -----

    /// One sequential store-ordered flatten sweep over every element
    /// created so far: pointer-jumps until the forest has depth ≤ 1. Safe
    /// concurrently with ongoing operations (and with `make_set`: the scan
    /// covers only segments already allocated, and an index reserved but
    /// not yet initialized lives in such a segment only as a root-shaped
    /// singleton, for which the sweep is a no-op).
    pub fn flatten(&self) {
        self.flatten_with(&mut ());
    }

    /// [`flatten`](GrowableDsu::flatten) reporting work into a
    /// [`StatsSink`].
    pub fn flatten_with<Sk: StatsSink>(&self, stats: &mut Sk) {
        flatten::flatten_runs(&self.store, &self.store.scan_runs(self.len()), stats);
    }

    /// Parallel flatten sweep over `threads` workers; returns the merged
    /// per-worker counters.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn flatten_parallel(&self, threads: usize) -> OpStats {
        flatten::flatten_runs_parallel(&self.store, &self.store.scan_runs(self.len()), threads)
    }

    /// Canonical labels for all current elements; call only at quiescence.
    pub fn labels_snapshot(&self) -> Vec<usize> {
        let mut labels: Vec<usize> = (0..self.len()).map(|i| self.find(i)).collect();
        for i in 0..labels.len() {
            labels[i] = labels[labels[i]];
        }
        labels
    }
}

impl<F: FindPolicy, S: GrowableStore, L: LinkPolicy> ConcurrentUnionFind for GrowableDsu<F, S, L> {
    fn len(&self) -> usize {
        GrowableDsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        GrowableDsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        GrowableDsu::unite(self, x, y)
    }

    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        GrowableDsu::unite_batch(self, edges)
    }

    fn find(&self, x: usize) -> usize {
        GrowableDsu::find(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequential_dsu::{NaiveDsu, Partition};

    #[test]
    fn make_set_returns_dense_indices() {
        let dsu: GrowableDsu = GrowableDsu::new();
        for expect in 0..100 {
            assert_eq!(dsu.make_set(), expect);
        }
        assert_eq!(dsu.len(), 100);
        assert_eq!(dsu.set_count(), 100);
    }

    #[test]
    fn basic_semantics() {
        let dsu: GrowableDsu = GrowableDsu::with_initial(4);
        assert!(dsu.unite(0, 1));
        assert!(!dsu.unite(1, 0));
        assert!(dsu.same_set(0, 1));
        assert!(!dsu.same_set(0, 2));
        assert!(dsu.unite_early(2, 3));
        assert!(dsu.same_set_early(3, 2));
        assert_eq!(dsu.set_count(), 2);
    }

    #[test]
    fn interleaved_make_set_and_unite_single_thread() {
        let dsu: GrowableDsu = GrowableDsu::new();
        let mut oracle = NaiveDsu::new(0);
        let mut ids = Vec::new();
        for round in 0..50 {
            let e = dsu.make_set();
            ids.push(e);
            // Mirror in oracle by rebuilding with one more element.
            let mut bigger = NaiveDsu::new(ids.len());
            for x in 0..ids.len() - 1 {
                for y in 0..ids.len() - 1 {
                    if x < y && oracle.same_set(x, y) {
                        bigger.unite(x, y);
                    }
                }
            }
            oracle = bigger;
            if round > 0 {
                let a = e % round.max(1);
                assert_eq!(dsu.unite(a, e), oracle.unite(a, e));
                assert_eq!(dsu.same_set(a, e), oracle.same_set(a, e));
            }
        }
        assert_eq!(dsu.set_count(), oracle.set_count());
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    }

    #[test]
    fn concurrent_growth_and_churn() {
        let dsu: GrowableDsu = GrowableDsu::new();
        let handles_per_thread = 2000;
        let threads = 8;
        let all: Vec<Vec<usize>> = std::thread::scope(|s| {
            let mut js = Vec::new();
            for t in 0..threads {
                let dsu = &dsu;
                js.push(s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(t as u64);
                    let mut mine = Vec::new();
                    for _ in 0..handles_per_thread {
                        let e = dsu.make_set();
                        mine.push(e);
                        if mine.len() >= 2 && rng.gen_bool(0.7) {
                            let a = mine[rng.gen_range(0..mine.len())];
                            let b = mine[rng.gen_range(0..mine.len())];
                            dsu.unite(a, b);
                            dsu.same_set(a, b);
                        }
                    }
                    mine
                }));
            }
            js.into_iter().map(|j| j.join().unwrap()).collect()
        });
        // All indices are distinct and dense.
        let mut seen: Vec<usize> = all.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), threads * handles_per_thread);
        for (i, &e) in seen.iter().enumerate() {
            assert_eq!(i, e);
        }
        assert_eq!(dsu.len(), threads * handles_per_thread);
        // Labels are a consistent partition.
        let labels = dsu.labels_snapshot();
        let _ = Partition::from_labels(&labels);
    }

    #[test]
    fn unite_batch_matches_per_op() {
        let batched: GrowableDsu = GrowableDsu::with_initial(32);
        let per_op: GrowableDsu = GrowableDsu::with_initial(32);
        let edges: Vec<(usize, usize)> =
            (0..100).map(|i| ((i * 13) % 32, (i * 7 + 1) % 32)).collect();
        let results = batched.unite_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
        assert_eq!(results, expected);
        assert_eq!(batched.set_count(), per_op.set_count());
        let recount: GrowableDsu = GrowableDsu::with_initial(32);
        assert_eq!(recount.unite_batch(&edges), expected.iter().filter(|&&b| b).count());
    }

    #[test]
    fn segment_boundaries_are_seamless() {
        // Unions that straddle segment boundaries (1->2, 3->4, 7->8, ...).
        let dsu: GrowableDsu = GrowableDsu::with_initial(1 << 10);
        for s in 1..10 {
            let boundary = 1usize << s;
            dsu.unite(boundary - 1, boundary);
        }
        for s in 1..10 {
            let boundary = 1usize << s;
            assert!(dsu.same_set(boundary - 1, boundary));
            assert!(!dsu.same_set(boundary, boundary + 1), "only the straddling pair links");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unmade_elements_are_rejected() {
        let dsu: GrowableDsu = GrowableDsu::new();
        dsu.make_set();
        dsu.same_set(0, 1);
    }

    #[test]
    fn debug_format() {
        let dsu: GrowableDsu = GrowableDsu::with_initial(2);
        let s = format!("{dsu:?}");
        assert!(s.contains("GrowableDsu"));
        assert!(s.contains("two-try"));
    }

    #[test]
    fn default_is_empty() {
        let dsu: GrowableDsu = GrowableDsu::default();
        assert!(dsu.is_empty());
    }

    /// Max walk length to a root over the first `len` elements (plain
    /// quiescent reads; test-only).
    fn max_depth(store: &EpochStore, len: usize) -> usize {
        (0..len)
            .map(|i| {
                let mut u = i;
                let mut d = 0;
                loop {
                    let p = store.load_parent(u);
                    if p == u {
                        break d;
                    }
                    u = p;
                    d += 1;
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// NoCompaction + index linking over chain unites builds the full
    /// path 0→1→…→n-1 deterministically (same trick as the fixed-universe
    /// flatten tests).
    fn deep_chain(
        n: usize,
    ) -> GrowableDsu<crate::find::NoCompaction, EpochStore, crate::order::IndexLink> {
        let dsu = GrowableDsu::with_initial(n);
        for i in 1..n {
            dsu.unite(0, i);
        }
        assert!(max_depth(&dsu.store, n) > 1, "chain failed to build depth");
        dsu
    }

    #[test]
    fn flatten_reaches_depth_one() {
        let n = 200;
        let dsu = deep_chain(n);
        dsu.flatten();
        assert!(max_depth(&dsu.store, n) <= 1, "flatten left depth > 1");
        assert_eq!(dsu.set_count(), 1, "flatten changed the partition");
        assert!(dsu.same_set(0, n - 1));
        // New elements after a flatten are untouched singletons.
        let e = dsu.make_set();
        assert!(!dsu.same_set(0, e));
    }

    #[test]
    fn parallel_flatten_reaches_depth_one() {
        let n = 300;
        let dsu = deep_chain(n);
        let stats = dsu.flatten_parallel(4);
        assert_eq!(stats.flatten_passes, 1);
        assert!(stats.flatten_jumps > 0);
        assert!(max_depth(&dsu.store, n) <= 1);
    }
}
