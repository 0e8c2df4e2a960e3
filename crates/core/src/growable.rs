//! A growing universe: `MakeSet` support (paper Section 3 remark, Section 7).
//!
//! The fixed-universe [`Dsu`](crate::Dsu) assumes all `n` elements and their
//! random order exist up front. [`GrowableDsu`] removes that assumption:
//! [`make_set`](GrowableDsu::make_set) creates fresh elements concurrently
//! with ongoing operations, and ids are generated *on the fly* by hashing
//! the element index (the paper's Section 7 suggestion: draw from a universe
//! large enough that ties are negligible, plus a tie-breaking rule — here
//! the index itself).
//!
//! As the paper notes, in an unbounded universe the algorithms are
//! *lock-free* rather than wait-free: an operation could in principle chase
//! a set that keeps growing. Storage is a directory of at most
//! `usize::BITS` doubling segments; operations on existing elements never
//! move memory, and allocating a new segment (which happens at most 64
//! times ever) is the only place a thread can briefly wait for another.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::bulk;
use crate::find::{FindPolicy, TwoTrySplit};
use crate::flatten;
use crate::ops;
use crate::order::{splitmix64, HashOrder, IdOrder, LinkPolicy};
use crate::stats::{OpStats, StatsSink};
use crate::store::{self, ParentStore};
use crate::ConcurrentUnionFind;

pub(crate) const SEGMENTS: usize = usize::BITS as usize;

/// Maps element `e` to `(segment, offset)`: segment `s` holds the `2^s`
/// elements `2^s - 1 ..= 2^(s+1) - 2`. (Shared with the epoch store's
/// segment directory.)
pub(crate) fn locate(e: usize) -> (usize, usize) {
    let s = (usize::BITS - 1 - (e + 1).leading_zeros()) as usize;
    (s, e + 1 - (1 << s))
}

/// A [`ParentStore`] whose universe grows one element at a time, bundled
/// with its on-the-fly random order — everything
/// [`GrowableDsu`] needs from its storage type parameter.
///
/// Both implementations keep a directory of at most `usize::BITS` doubling
/// segments, so cells never move and growth is lock-free.
pub trait GrowableStore: ParentStore + IdOrder {
    /// Short layout name for reports (e.g. `"packed-seg"`, `"flat-seg"`).
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

/// The flat growable layout: `AtomicUsize` parent segments, ids computed on
/// demand by hashing the index ([`HashOrder`]) — nothing id-related is
/// stored.
pub struct SegmentedStore {
    segments: [OnceLock<Box<[AtomicUsize]>>; SEGMENTS],
    order: HashOrder,
}

impl SegmentedStore {
    fn cell(&self, i: usize) -> &AtomicUsize {
        let (s, off) = locate(i);
        let seg = self.segments[s]
            .get()
            .expect("element's segment not allocated: use indices returned by make_set");
        &seg[off]
    }
}

impl ParentStore for SegmentedStore {
    type Word = usize;

    #[inline]
    fn load_word(&self, i: usize) -> usize {
        self.cell(i).load(store::LOAD)
    }

    #[inline]
    fn parent_of(w: usize) -> usize {
        w
    }

    #[inline]
    fn cas_from(&self, i: usize, seen: usize, new_parent: usize) -> bool {
        self.cell(i)
            .compare_exchange(seen, new_parent, store::CAS_SUCCESS, store::CAS_FAILURE)
            .is_ok()
    }

    #[inline]
    fn cas_parent(&self, i: usize, old: usize, new: usize) -> bool {
        self.cas_from(i, old, new)
    }

    #[inline]
    fn priority(&self, i: usize, _w: usize) -> u64 {
        // The full 64-bit hash; HashOrder's tie-break is the index, which
        // is exactly the ParentStore::priority contract.
        self.order.key_of(i).0
    }

    #[inline]
    fn precedes(&self, u: usize, v: usize) -> bool {
        // Ids are computed from the index, not stored: skip the default's
        // parent-word loads and compare hashes directly.
        self.order.less(u, v)
    }
}

impl IdOrder for SegmentedStore {
    fn less(&self, u: usize, v: usize) -> bool {
        self.order.less(u, v)
    }
}

impl GrowableStore for SegmentedStore {
    const NAME: &'static str = "flat-seg";

    fn with_seed(seed: u64) -> Self {
        SegmentedStore {
            segments: std::array::from_fn(|_| OnceLock::new()),
            order: HashOrder::new(seed),
        }
    }

    fn ensure(&self, e: usize) {
        let (s, off) = locate(e);
        let seg = self.segments[s].get_or_init(|| {
            let base = (1usize << s) - 1;
            (0..1usize << s).map(|j| AtomicUsize::new(base + j)).collect()
        });
        debug_assert_eq!(seg[off].load(Ordering::Relaxed), e);
    }

    fn scan_runs(&self, len: usize) -> Vec<Range<usize>> {
        segment_scan_runs(len, |s| self.segments[s].get().is_some())
    }
}

/// Shared segment-directory scan geometry: one range per *allocated*
/// segment (segment `s` holds elements `2^s - 1 ..= 2^(s+1) - 2`), clipped
/// to `len`.
pub(crate) fn segment_scan_runs(
    len: usize,
    allocated: impl Fn(usize) -> bool,
) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    for s in 0..SEGMENTS {
        let base = (1usize << s) - 1;
        if base >= len {
            break;
        }
        if !allocated(s) {
            continue;
        }
        runs.push(base..base + (1usize << s).min(len - base));
    }
    runs
}

/// The packed growable layout: `AtomicU64` parent segments carrying a
/// 32-bit hash id in the high half (the paper's Section 7 "universe large
/// enough that ties are rare" suggestion, with the element index breaking
/// the rare ties), so traversal and priority comparison touch one word —
/// same trade as [`PackedStore`](crate::store::PackedStore), including the
/// `2^32`-element bound.
pub struct PackedSegmentedStore {
    segments: [OnceLock<Box<[AtomicU64]>>; SEGMENTS],
    salt: u64,
}

impl PackedSegmentedStore {
    /// The packed word a fresh singleton `e` is born with.
    fn singleton_word(&self, e: usize) -> u64 {
        // Top 32 bits of SplitMix64: the best-mixed half.
        let id = splitmix64((e as u64).wrapping_add(self.salt)) >> 32;
        store::pack_word(id, e)
    }

    fn cell(&self, i: usize) -> &AtomicU64 {
        let (s, off) = locate(i);
        let seg = self.segments[s]
            .get()
            .expect("element's segment not allocated: use indices returned by make_set");
        &seg[off]
    }

    /// The `(hash id, index)` priority key of `i`, read from its word.
    fn key(&self, i: usize) -> (u64, usize) {
        (store::packed_id(self.cell(i).load(store::STAT)), i)
    }
}

impl ParentStore for PackedSegmentedStore {
    type Word = u64;

    #[inline]
    fn load_word(&self, i: usize) -> u64 {
        self.cell(i).load(store::LOAD)
    }

    #[inline]
    fn parent_of(w: u64) -> usize {
        store::packed_parent(w)
    }

    #[inline]
    fn cas_from(&self, i: usize, seen: u64, new_parent: usize) -> bool {
        self.cell(i)
            .compare_exchange(
                seen,
                store::packed_with_parent(seen, new_parent),
                store::CAS_SUCCESS,
                store::CAS_FAILURE,
            )
            .is_ok()
    }

    #[inline]
    fn priority(&self, _i: usize, w: u64) -> u64 {
        store::packed_id(w)
    }
}

impl IdOrder for PackedSegmentedStore {
    fn less(&self, u: usize, v: usize) -> bool {
        // 32-bit hash ids can collide; the index tie-break keeps the order
        // total (paper Section 7's tie-breaking rule).
        self.key(u) < self.key(v)
    }
}

impl GrowableStore for PackedSegmentedStore {
    const NAME: &'static str = "packed-seg";

    fn with_seed(seed: u64) -> Self {
        PackedSegmentedStore { segments: std::array::from_fn(|_| OnceLock::new()), salt: seed }
    }

    fn ensure(&self, e: usize) {
        assert!(
            (e as u64) < (1 << 32),
            "PackedSegmentedStore packs parent and id into 32 bits each and supports at most \
             2^32 elements, but make_set would create element {e}; use \
             GrowableDsu<_, SegmentedStore> for larger universes"
        );
        let (s, off) = locate(e);
        let seg = self.segments[s].get_or_init(|| {
            let base = (1usize << s) - 1;
            (0..1usize << s).map(|j| AtomicU64::new(self.singleton_word(base + j))).collect()
        });
        debug_assert_eq!(store::packed_parent(seg[off].load(Ordering::Relaxed)), e);
    }

    fn scan_runs(&self, len: usize) -> Vec<Range<usize>> {
        segment_scan_runs(len, |s| self.segments[s].get().is_some())
    }
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
    S: GrowableStore = crate::DefaultGrowableStore,
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
    /// Panics if the storage layout cannot address the new element (the
    /// default [`PackedSegmentedStore`] supports at most `2^32`).
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
    /// [`EpochStore`](crate::EpochStore)'s
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

    /// The name of the storage layout (e.g. `"packed-seg"`), for reports.
    pub fn store_name(&self) -> &'static str {
        S::NAME
    }

    /// The name of the link policy (e.g. `"random"`), for reports. Note
    /// the growable layouts carry no rank word, so
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
    fn locate_covers_segments_densely() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (1, 0));
        assert_eq!(locate(2), (1, 1));
        assert_eq!(locate(3), (2, 0));
        assert_eq!(locate(6), (2, 3));
        assert_eq!(locate(7), (3, 0));
        // Dense and in-bounds for a big range.
        for e in 0..10_000 {
            let (s, off) = locate(e);
            assert!(off < (1 << s));
            // Inverse mapping.
            assert_eq!((1 << s) - 1 + off, e);
        }
    }

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
        // Unions that straddle segment boundaries (3->4, 7->8, ...).
        let dsu: GrowableDsu = GrowableDsu::with_initial(1 << 10);
        for s in 1..10 {
            let boundary = (1usize << s) - 1;
            dsu.unite(boundary - 1, boundary);
        }
        for s in 1..10 {
            let boundary = (1usize << s) - 1;
            assert!(dsu.same_set(boundary - 1, boundary));
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

    /// The packed growable layout's `2^32` bound check must both state the
    /// bound and point at the flat growable fallback. (Regression: this
    /// message previously had no test at all.)
    #[test]
    fn packed_seg_oversize_panic_names_the_flat_fallback() {
        let store = <PackedSegmentedStore as GrowableStore>::with_seed(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.ensure(1 << 32);
        }))
        .expect_err("element 2^32 must be rejected");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("at most"), "panic must state the bound: {msg}");
        assert!(
            msg.contains("SegmentedStore"),
            "panic must point at the flat growable layout: {msg}"
        );
        // (Not exercising 2^32 - 1 itself: ensure() allocates the whole
        // containing segment — gigabytes for the top one. The bound check
        // fires before any allocation, which is the property under test.)
    }

    #[test]
    fn default_is_empty() {
        let dsu: GrowableDsu = GrowableDsu::default();
        assert!(dsu.is_empty());
    }

    /// Max walk length to a root over the first `len` elements (plain
    /// quiescent reads; test-only).
    fn max_depth<S: GrowableStore>(store: &S, len: usize) -> usize {
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
    fn deep_chain<S: GrowableStore>(
        n: usize,
    ) -> GrowableDsu<crate::find::NoCompaction, S, crate::order::IndexLink> {
        let dsu = GrowableDsu::with_initial(n);
        for i in 1..n {
            dsu.unite(0, i);
        }
        assert!(max_depth(&dsu.store, n) > 1, "{}: chain failed to build depth", S::NAME);
        dsu
    }

    #[test]
    fn flatten_reaches_depth_one_on_every_growable_layout() {
        fn check<S: GrowableStore>() {
            let n = 200;
            let dsu = deep_chain::<S>(n);
            dsu.flatten();
            assert!(max_depth(&dsu.store, n) <= 1, "{}: flatten left depth > 1", S::NAME);
            assert_eq!(dsu.set_count(), 1, "{}: flatten changed the partition", S::NAME);
            assert!(dsu.same_set(0, n - 1));
            // New elements after a flatten are untouched singletons.
            let e = dsu.make_set();
            assert!(!dsu.same_set(0, e));
        }
        check::<SegmentedStore>();
        check::<PackedSegmentedStore>();
    }

    #[test]
    fn parallel_flatten_on_growable_layouts() {
        let n = 300;
        let dsu = deep_chain::<PackedSegmentedStore>(n);
        let stats = dsu.flatten_parallel(4);
        assert_eq!(stats.flatten_passes, 1);
        assert!(stats.flatten_jumps > 0);
        assert!(max_depth(&dsu.store, n) <= 1);
    }
}
