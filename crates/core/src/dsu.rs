//! The concurrent union-find ([`Dsu`]), over a fixed universe or — on a
//! [`GrowableStore`] — one that grows by [`make_set`](Dsu::make_set).

use std::sync::atomic::AtomicUsize;

use crate::bulk;
use crate::epoch::EpochStore;
use crate::find::{FindPolicy, TwoTrySplit};
use crate::ops;
use crate::order::{LinkPolicy, RandomLink};
use crate::stats::StatsSink;
use crate::store::{DsuStore, GrowableStore, Line, PackedStore};
use crate::ConcurrentUnionFind;

/// The paper's [`Dsu`] over the growable layout: starts with `n` elements
/// (often 0) and grows by [`make_set`](Dsu::make_set). Other find or link
/// policies, or a decorated growable store, name `Dsu` directly.
pub type GrowableDsu = Dsu<TwoTrySplit, EpochStore, RandomLink>;

/// A wait-free concurrent disjoint-set union over the universe `0..len`,
/// parameterized by the find compaction policy `F` (default:
/// [`TwoTrySplit`], the paper's best variant), the parent storage layout
/// `S` (default: [`PackedStore`], one word per element holding the id and
/// the parent; see the layout-selection guide in the
/// [`store`](crate::store) module docs; universes larger than `2^32` must
/// pick [`FlatStore`](crate::store::FlatStore) explicitly), and the link
/// policy `L` (default: [`RandomLink`], the paper's randomized linking;
/// the axis and its acyclicity contract live in the
/// [`order`](crate::order) module docs).
///
/// All operations take `&self` and may be called from any number of threads
/// simultaneously; results are linearizable (paper Lemma 3.2 — on
/// multi-copy-atomic hardware such as x86-64/ARMv8 under the default
/// orderings, on every machine under `strict-sc`; see the
/// [`store`](crate::store) module docs) and every operation finishes in
/// `O(log n)` steps w.h.p. (Theorem 4.3) regardless of scheduling
/// (wait-freedom, Lemma 3.3).
///
/// # Growing universes
///
/// On a [`GrowableStore`] — [`EpochStore`], the configuration
/// [`GrowableDsu`] names — [`make_set`](Dsu::make_set) creates fresh
/// elements concurrently with ongoing operations (paper Section 3
/// remark). Ids need no up-front draw on any layout: every store hashes
/// the element index ([`hashed_id`](crate::order::hashed_id); paper
/// Section 7: a universe large enough that ties are rare, with the index
/// breaking them), so a `Dsu` grown to `n` elements links exactly like
/// one built with `n` elements and the same seed. As the paper notes, in
/// an unbounded universe the operations are *lock-free* rather than
/// wait-free: one could in principle chase a set that keeps growing.
///
/// An element index may be passed to operations once the `make_set` that
/// returned it has returned (happens-before via the index handoff).
/// Reading [`len`](Dsu::len) and then touching every index below it is
/// only guaranteed at quiescence, because another thread's `make_set` may
/// have reserved an index it is still initializing.
///
/// ```
/// use concurrent_dsu::GrowableDsu;
///
/// let dsu: GrowableDsu = GrowableDsu::new(0);
/// let a = dsu.make_set();
/// let b = dsu.make_set();
/// assert!(dsu.unite(a, b));
/// let c = dsu.make_set();
/// assert!(!dsu.same_set(a, c));
/// assert_eq!((dsu.len(), dsu.set_count()), (3, 2));
/// ```
///
/// # Example
///
/// ```
/// use concurrent_dsu::{Dsu, FlatStore, OneTrySplit};
///
/// let dsu: Dsu<OneTrySplit> = Dsu::with_seed(10, 42);
/// assert!(dsu.unite(3, 4));
/// assert!(dsu.same_set(3, 4));
/// assert_eq!(dsu.set_count(), 9);
///
/// // Same semantics on the flat reference layout:
/// let flat: Dsu<OneTrySplit, FlatStore> = Dsu::with_seed(10, 42);
/// assert!(flat.unite(3, 4));
/// assert_eq!(flat.set_count(), 9);
/// ```
pub struct Dsu<F: FindPolicy = TwoTrySplit, S: DsuStore = PackedStore, L: LinkPolicy = RandomLink> {
    store: S,
    /// Number of successful links ever; `set_count = n - links`. On its
    /// own line, so a link does not invalidate the store's fields that
    /// every operation reads.
    links: Line<AtomicUsize>,
    _policy: std::marker::PhantomData<(F, L)>,
}

impl<F: FindPolicy, S: DsuStore, L: LinkPolicy> std::fmt::Debug for Dsu<F, S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dsu")
            .field("len", &self.len())
            .field("set_count", &self.set_count())
            .field("policy", &F::NAME)
            .field("store", &S::NAME)
            .field("link", &L::NAME)
            .finish()
    }
}

impl<F: FindPolicy, S: DsuStore, L: LinkPolicy> Dsu<F, S, L> {
    /// Default seed for the random node order; fixed so runs are
    /// reproducible unless a seed is supplied via [`Dsu::with_seed`].
    pub const DEFAULT_SEED: u64 = 0x7461_726a_616e_2016; // "tarjan 2016"

    /// Creates `n` singleton sets with a deterministic default seed for the
    /// random node order.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, Self::DEFAULT_SEED)
    }

    /// Creates `n` singleton sets; `seed` drives the uniformly random node
    /// order that randomized linking requires.
    ///
    /// # Panics
    ///
    /// Panics if the storage layout cannot address `n` elements (the
    /// default [`PackedStore`] and [`EpochStore`]
    /// support at most `2^32`).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        Self::from_store(S::with_seed(n, seed))
    }

    /// Wraps an already-constructed store — the entry point for stores
    /// whose constructors take more than `(n, seed)`, such as a
    /// [`FaultyStore`](crate::FaultyStore) with an explicit
    /// [`FaultPlan`](crate::FaultPlan):
    ///
    /// ```
    /// use concurrent_dsu::{Dsu, FaultPlan, FaultyStore, PackedStore, TwoTrySplit};
    ///
    /// let store = FaultyStore::with_plan(PackedStore::with_seed(100, 42), FaultPlan::off());
    /// let dsu: Dsu<TwoTrySplit, FaultyStore<PackedStore>> = Dsu::from_store(store);
    /// assert!(dsu.unite(3, 4));
    /// ```
    ///
    /// The store must be freshly constructed (all singletons): `Dsu`
    /// tracks the set count from zero. To record the union forest (for
    /// height measurements), pass a [`UnionForest`](crate::UnionForest)
    /// around the layout, or name it in the type:
    /// `Dsu<F, UnionForest<PackedStore>>`.
    pub fn from_store(store: S) -> Self {
        Dsu { store, links: Line::default(), _policy: std::marker::PhantomData }
    }

    /// Number of elements in the universe (on a growable store: reserved
    /// by `make_set` so far).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of disjoint sets (`n` minus successful links). The counter
    /// is maintained with relaxed atomics: exact at quiescence and
    /// monotonically non-increasing, but a concurrent reader may observe
    /// it lag links that are already visible through `find` (under
    /// `strict-sc` the counter is sequentially consistent). A batch's
    /// links all land when the batch returns, so while a
    /// [`unite_batch`](Dsu::unite_batch) runs, the links it has already
    /// made are visible but not yet counted.
    pub fn set_count(&self) -> usize {
        self.len() - self.links.0.load(crate::store::STAT)
    }

    /// The 32-bit random id of element `x`: the shared
    /// [`hashed_id`](crate::order::hashed_id) of `x` under this structure's
    /// seed. Ids can collide, so the random total order that linking
    /// follows is the `(id_of(x), x)` key, with the index breaking ties.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn id_of(&self, x: usize) -> u64 {
        self.check(x);
        self.store.id_of(x)
    }

    /// The name of the find policy (e.g. `"two-try"`), for reports.
    pub fn policy_name(&self) -> &'static str {
        F::NAME
    }

    /// The name of the storage layout (e.g. `"packed"`), for reports.
    pub fn store_name(&self) -> &'static str {
        S::NAME
    }

    /// The name of the link policy (e.g. `"random"`), for reports.
    pub fn link_name(&self) -> &'static str {
        L::NAME
    }

    /// The underlying store — for layout-specific inspection (a
    /// [`FaultyStore`](crate::FaultyStore)'s fault report, an
    /// [`EpochStore`]'s
    /// [`epoch_report`](crate::epoch::EpochFork::epoch_report)). Read-only:
    /// the forest is only ever mutated through the operations.
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

    /// Resets the link counter to a recorded quiescent value — the
    /// [`VersionedDsu`](crate::VersionedDsu) rollback hook, paired with
    /// the store's own restore of its segments and element count.
    pub(crate) fn restore_links(&mut self, links: usize) {
        debug_assert!(links <= self.len());
        *self.links.0.get_mut() = links;
    }

    fn check(&self, x: usize) {
        assert!(x < self.len(), "element {x} out of range (len {})", self.len());
    }

    /// Returns the root of the tree containing `x`, compacting the find
    /// path per the policy. See
    /// [`ConcurrentUnionFind::find`](crate::ConcurrentUnionFind::find) for
    /// the staleness caveat.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&self, x: usize) -> usize {
        self.find_with(x, &mut ())
    }

    /// [`find`](Dsu::find) reporting work into `stats`.
    pub fn find_with<Sk: StatsSink>(&self, x: usize, stats: &mut Sk) -> usize {
        self.check(x);
        F::find(&self.store, x, stats).0
    }

    /// Returns `true` iff `x` and `y` are in the same set at the operation's
    /// linearization point (paper Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.same_set_with(x, y, &mut ())
    }

    /// [`same_set`](Dsu::same_set) reporting work into `stats`.
    pub fn same_set_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::same_set::<F, _, _>(&self.store, x, y, stats)
    }

    /// Unites the sets containing `x` and `y` (paper Algorithm 3). Returns
    /// `true` iff this call performed the link.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.unite_with(x, y, &mut ())
    }

    /// [`unite`](Dsu::unite) reporting work into `stats`.
    pub fn unite_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        let linked = ops::unite::<F, L, _, _>(&self.store, x, y, stats);
        self.count_links(linked as usize);
        linked
    }

    /// `SameSet` with early termination (paper Algorithm 6): walks only the
    /// smaller of the two find paths and stops as soon as the answer is
    /// certain. Same linearizable semantics as [`same_set`](Dsu::same_set).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set_early(&self, x: usize, y: usize) -> bool {
        self.same_set_early_with(x, y, &mut ())
    }

    /// [`same_set_early`](Dsu::same_set_early) reporting work into `stats`.
    pub fn same_set_early_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::same_set_early::<F, L, _, _>(&self.store, x, y, stats)
    }

    /// `Unite` with early termination (paper Algorithm 7). Same semantics
    /// as [`unite`](Dsu::unite).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite_early(&self, x: usize, y: usize) -> bool {
        self.unite_early_with(x, y, &mut ())
    }

    /// [`unite_early`](Dsu::unite_early) reporting work into `stats`.
    pub fn unite_early_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        let linked = ops::unite_early::<F, L, _, _>(&self.store, x, y, stats);
        self.count_links(linked as usize);
        linked
    }

    /// Batched [`unite`](Dsu::unite) over an edge slice (see the
    /// [`bulk`](crate::bulk) module): a read-mostly filter pass drops
    /// already-connected edges via early-termination same-set walks, then a
    /// link pass CASes each survivor's root straight from the word the
    /// filter observed. Returns the number of successful links.
    ///
    /// Single-threaded, the final partition, the set count, and the
    /// returned link count are exactly those of calling
    /// [`unite`](Dsu::unite) one edge at a time; concurrent callers get
    /// the usual linearizable semantics per edge. Per-edge verdicts come
    /// from [`unite_batch_results`](Dsu::unite_batch_results).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.unite_batch_with(edges, &mut ())
    }

    /// [`unite_batch`](Dsu::unite_batch) reporting work into `stats`.
    pub fn unite_batch_with<Sk: StatsSink>(
        &self,
        edges: &[(usize, usize)],
        stats: &mut Sk,
    ) -> usize {
        self.check_edges(edges);
        self.unite_checked_batch(edges, stats)
    }

    /// [`unite_batch_with`](Dsu::unite_batch_with) over edges the caller
    /// has already passed through [`check_edges`](Dsu::check_edges).
    pub(crate) fn unite_checked_batch<Sk: StatsSink>(
        &self,
        edges: &[(usize, usize)],
        stats: &mut Sk,
    ) -> usize {
        let links = bulk::unite_batch::<L, _, _>(&self.store, edges, stats);
        self.count_links(links);
        links
    }

    /// [`unite_batch`](Dsu::unite_batch) that also reports, per edge,
    /// whether this batch performed the link — for clients (Borůvka, cycle
    /// classification) that need the edge-level verdicts.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn unite_batch_results(&self, edges: &[(usize, usize)]) -> Vec<bool> {
        self.check_edges(edges);
        let mut results = vec![false; edges.len()];
        let links = bulk::unite_batch_sink::<L, _, _>(&self.store, edges, &mut (), |i, linked| {
            results[i] = linked
        });
        self.count_links(links);
        results
    }

    /// Panics unless every endpoint exists — called before any state
    /// changes, here and by
    /// [`VersionedDsu::try_unite_batch`](crate::VersionedDsu::try_unite_batch).
    pub(crate) fn check_edges(&self, edges: &[(usize, usize)]) {
        for &(x, y) in edges {
            self.check(x);
            self.check(y);
        }
    }

    /// Adds `links` successful links to the counter: once per operation
    /// or batch, from the count it returns, and not at all when it linked
    /// nothing, so a same-set operation never writes the counter's line.
    fn count_links(&self, links: usize) {
        if links > 0 {
            // `STAT` (Relaxed outside `strict-sc`) is enough: `links` is a
            // statistic whose own atomicity suffices for set_count.
            self.links.0.fetch_add(links, crate::store::STAT);
        }
    }

    // ----- Offline analysis (call only at quiescence) -----

    /// Snapshot of the current parent pointers. Meaningful only when no
    /// other thread is operating.
    pub fn parents_snapshot(&self) -> Vec<usize> {
        self.store.snapshot()
    }

    /// Canonical labels (root of each element): suitable for building a
    /// `Partition`. Call only at quiescence, where no root changes during
    /// the scan; compacts as a side effect. A large answer is built in a
    /// buffer advised for huge pages, as the stores' cell arrays are (see
    /// "Memory backing" in the [`store`](crate::store) module docs).
    pub fn labels_snapshot(&self) -> Vec<usize> {
        crate::store::collect_huge((0..self.len()).map(|i| self.find(i)))
    }
}

impl<F: FindPolicy, S: GrowableStore, L: LinkPolicy> Dsu<F, S, L> {
    /// Creates a fresh singleton set and returns its element index.
    /// Indices are dense: on a universe built with `n` elements, the
    /// `k`-th `make_set` returns `n + k - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the storage layout cannot address the new element
    /// ([`EpochStore`] supports at most `2^32`).
    pub fn make_set(&self) -> usize {
        self.store.push_singleton()
    }

    /// Same as [`new`](Dsu::new); only `perfbench/` still calls it.
    pub fn with_initial(n: usize) -> Self {
        Self::new(n)
    }
}

impl<F: FindPolicy, S: DsuStore, L: LinkPolicy> ConcurrentUnionFind for Dsu<F, S, L> {
    fn len(&self) -> usize {
        Dsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        Dsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        Dsu::unite(self, x, y)
    }

    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        Dsu::unite_batch(self, edges)
    }

    fn find(&self, x: usize) -> usize {
        Dsu::find(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::{Halving, NoCompaction, OneTrySplit};
    use crate::forest::UnionForest;
    use crate::order::IndexLink;
    use crate::store::FlatStore;
    use crate::OpStats;
    use sequential_dsu::{NaiveDsu, Partition};

    fn exercise_basic<F: FindPolicy, S: DsuStore>() {
        let dsu: Dsu<F, S> = Dsu::new(10);
        assert_eq!(dsu.len(), 10);
        assert_eq!(dsu.set_count(), 10);
        assert!(!dsu.same_set(0, 9));
        assert!(dsu.unite(0, 9));
        assert!(dsu.same_set(0, 9));
        assert!(!dsu.unite(9, 0));
        assert_eq!(dsu.set_count(), 9);
        assert!(dsu.same_set_early(0, 9));
        assert!(dsu.unite_early(1, 2));
        assert!(!dsu.unite_early(2, 1));
        assert_eq!(dsu.set_count(), 8);
    }

    #[test]
    fn basics_all_policies() {
        exercise_basic::<NoCompaction, PackedStore>();
        exercise_basic::<OneTrySplit, PackedStore>();
        exercise_basic::<TwoTrySplit, PackedStore>();
        exercise_basic::<Halving, PackedStore>();
        exercise_basic::<TwoTrySplit, FlatStore>();
        exercise_basic::<TwoTrySplit, EpochStore>();
    }

    #[test]
    fn debug_is_informative() {
        let dsu: Dsu = Dsu::new(3);
        let s = format!("{dsu:?}");
        assert!(s.contains("two-try"), "{s}");
        assert!(s.contains("len"), "{s}");
        assert!(s.contains("random"), "{s}");
        assert_eq!(dsu.link_name(), "random");
        let grown: GrowableDsu = Dsu::new(2);
        assert!(format!("{grown:?}").contains("epoch-seg"), "{grown:?}");
    }

    #[test]
    fn single_threaded_matches_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(77);
        let n = 64;
        let dsu: Dsu = Dsu::with_seed(n, 5);
        let mut oracle = NaiveDsu::new(n);
        for _ in 0..500 {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            match rng.gen_range(0..4) {
                0 => assert_eq!(dsu.unite(x, y), oracle.unite(x, y)),
                1 => assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y)),
                2 => assert_eq!(dsu.unite_early(x, y), oracle.unite(x, y)),
                _ => assert_eq!(dsu.same_set_early(x, y), oracle.same_set(x, y)),
            }
        }
        assert_eq!(dsu.set_count(), oracle.set_count());
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    }

    #[test]
    fn concurrent_final_state_is_order_independent() {
        // Set union is confluent: the final partition equals the connected
        // components of all unite pairs, however the threads interleaved.
        let n = 512;
        let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, (i * 7919 + 13) % n)).collect();
        let dsu: Dsu = Dsu::new(n);
        std::thread::scope(|s| {
            for t in 0..8 {
                let dsu = &dsu;
                let pairs = &pairs;
                s.spawn(move || {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        if i % 8 == t {
                            dsu.unite(x, y);
                        } else {
                            dsu.same_set(x, y);
                        }
                    }
                });
            }
        });
        let mut oracle = NaiveDsu::new(n);
        for &(x, y) in &pairs {
            oracle.unite(x, y);
        }
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
    }

    /// A link bumps `links` while every operation reads the store's
    /// fields, so the two share no 128-byte line.
    #[test]
    fn links_sit_on_their_own_line() {
        use crate::store::assert_own_line;
        use std::mem::offset_of;
        assert_own_line::<Dsu>(offset_of!(Dsu, links), &[offset_of!(Dsu, store)]);
        let (links, store) = (offset_of!(GrowableDsu, links), offset_of!(GrowableDsu, store));
        assert_own_line::<GrowableDsu>(links, &[store]);
    }

    #[test]
    fn true_unite_returns_equal_links() {
        // Across all threads, the number of `unite` calls returning true
        // must equal n - (final number of sets): each successful link
        // reduces the set count by exactly one.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 1024;
        let dsu: Dsu<OneTrySplit> = Dsu::new(n);
        let trues = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let dsu = &dsu;
                let trues = &trues;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(t as u64);
                    let mut local = 0;
                    for _ in 0..2000 {
                        let x = rng.gen_range(0..n);
                        let y = rng.gen_range(0..n);
                        if dsu.unite(x, y) {
                            local += 1;
                        }
                    }
                    trues.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(trues.load(Ordering::Relaxed), n - dsu.set_count());
    }

    #[test]
    fn parent_ids_strictly_increase_along_paths() {
        // Lemma 3.1 under real concurrency, on the (id, index) key.
        let n = 2048;
        let dsu: Dsu<TwoTrySplit, UnionForest<PackedStore>> = Dsu::new(n);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let dsu = &dsu;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(100 + t as u64);
                    for _ in 0..4000 {
                        dsu.unite(rng.gen_range(0..n), rng.gen_range(0..n));
                    }
                });
            }
        });
        let key = |x: usize| (dsu.id_of(x), x);
        let parents = dsu.parents_snapshot();
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                assert!(key(x) < key(p));
            }
        }
        // The union forest is a sub-relation with the same property, and is
        // acyclic (walking up terminates within n steps).
        let forest = dsu.store().forest();
        for x in 0..n {
            let mut u = x;
            let mut steps = 0;
            while forest[u] != u {
                assert!(key(u) < key(forest[u]));
                u = forest[u];
                steps += 1;
                assert!(steps <= n, "cycle in union forest");
            }
        }
    }

    #[test]
    fn union_forest_height_is_logarithmic() {
        // Corollary 4.2.1 (statistical): height = O(log n) w.h.p. Use a
        // generous constant so the test never flakes: c = 6 over 3 seeds.
        for seed in [1, 2, 3] {
            let n = 1 << 14;
            let dsu: Dsu<TwoTrySplit, UnionForest<PackedStore>> = Dsu::with_seed(n, seed);
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..2 * n {
                dsu.unite(rng.gen_range(0..n), rng.gen_range(0..n));
            }
            let h = dsu.store().height();
            let bound = 6 * (n as f64).log2() as usize;
            assert!(h <= bound, "height {h} > {bound} for seed {seed}");
        }
    }

    #[test]
    fn stats_capture_work() {
        let dsu: Dsu = Dsu::new(128);
        let mut stats = OpStats::default();
        for i in 0..127 {
            dsu.unite_with(i, i + 1, &mut stats);
        }
        assert_eq!(stats.links_ok, 127);
        assert_eq!(stats.ops, 127);
        assert!(stats.reads >= 2 * 127); // at least two reads per unite
        let mut qstats = OpStats::default();
        dsu.same_set_with(0, 127, &mut qstats);
        assert_eq!(qstats.ops, 1);
        assert!(qstats.loop_iters >= 1);
    }

    #[test]
    fn wait_freedom_smoke_bounded_steps() {
        // Not a proof, a tripwire: no operation should ever take more than
        // a few hundred loop iterations at this scale (union forest height
        // is O(log n) w.h.p.; find sequences are bounded by it).
        let n = 1 << 12;
        let dsu: Dsu = Dsu::new(n);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let dsu = &dsu;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7 + t as u64);
                    for _ in 0..5000 {
                        let mut stats = OpStats::default();
                        let x = rng.gen_range(0..n);
                        let y = rng.gen_range(0..n);
                        if rng.gen_bool(0.5) {
                            dsu.unite_with(x, y, &mut stats);
                        } else {
                            dsu.same_set_with(x, y, &mut stats);
                        }
                        assert!(
                            stats.loop_iters < 600,
                            "operation took {} iterations",
                            stats.loop_iters
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn unite_batch_matches_per_op_sequence() {
        fn check<S: DsuStore>() {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(404);
            let n = 48;
            let edges: Vec<(usize, usize)> =
                (0..300).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
            let batched: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, 8);
            let per_op: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, 8);
            let results = batched.unite_batch_results(&edges);
            let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
            assert_eq!(results, expected, "{}", S::NAME);
            assert_eq!(batched.set_count(), per_op.set_count());
            assert_eq!(
                Partition::from_labels(&batched.labels_snapshot()),
                Partition::from_labels(&per_op.labels_snapshot())
            );
            // Count view agrees with the per-edge view.
            let recount: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, 8);
            assert_eq!(recount.unite_batch(&edges), results.iter().filter(|&&b| b).count());
        }
        check::<PackedStore>();
        check::<FlatStore>();
        check::<EpochStore>();
    }

    #[test]
    fn unite_batch_concurrent_chunks_match_oracle() {
        let n = 1024;
        let edges: Vec<(usize, usize)> =
            (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 911 + 3) % n)).collect();
        let dsu: Dsu = Dsu::new(n);
        std::thread::scope(|s| {
            for chunk in edges.chunks(edges.len() / 8 + 1) {
                let dsu = &dsu;
                s.spawn(move || dsu.unite_batch(chunk));
            }
        });
        let mut oracle = NaiveDsu::new(n);
        for &(x, y) in &edges {
            oracle.unite(x, y);
        }
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
    }

    #[test]
    fn unite_batch_with_reports_stats() {
        let dsu: Dsu = Dsu::new(8);
        let mut stats = OpStats::default();
        let links = dsu.unite_batch_with(&[(0, 1), (1, 0), (2, 3)], &mut stats);
        assert_eq!(links, 2);
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.links_ok, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unite_batch_rejects_out_of_range() {
        let dsu: Dsu = Dsu::new(4);
        dsu.unite_batch(&[(0, 1), (2, 4)]);
    }

    #[test]
    fn link_axis_variants_match_oracle_and_each_other() {
        // Every link policy is a different tree shape, never a different
        // partition: index linking must return the oracle's verdicts and
        // agree on the final sets — single-threaded, per-op AND batched.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2025);
        let n = 96;
        let random: Dsu = Dsu::with_seed(n, 12);
        let index: Dsu<TwoTrySplit, PackedStore, IndexLink> = Dsu::with_seed(n, 12);
        let mut oracle = NaiveDsu::new(n);
        for i in 0..600 {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            match i % 3 {
                0 => {
                    let want = oracle.unite(x, y);
                    assert_eq!(random.unite(x, y), want);
                    assert_eq!(index.unite(x, y), want);
                }
                1 => {
                    let want = oracle.same_set(x, y);
                    assert_eq!(random.same_set(x, y), want);
                    assert_eq!(index.same_set_early(x, y), want);
                }
                _ => {
                    let batch = [(x, y), (y, x)];
                    let want = oracle.unite(x, y) as usize;
                    assert_eq!(random.unite_batch(&batch), want);
                    assert_eq!(index.unite_batch(&batch), want);
                }
            }
        }
        let want = oracle.partition();
        assert_eq!(Partition::from_labels(&random.labels_snapshot()), want);
        assert_eq!(Partition::from_labels(&index.labels_snapshot()), want);
        // Index linking's invariant: parents are index-upward.
        for (x, &p) in index.parents_snapshot().iter().enumerate() {
            assert!(p == x || x < p, "index linking let {x} point down at {p}");
        }
    }

    #[test]
    fn link_axis_concurrent_partitions_match_oracle() {
        // Lemma 3.1's acyclicity (and hence termination + correct sets)
        // must survive real concurrency on the non-default policy too.
        fn hammer<S: DsuStore + Sync, L: LinkPolicy>() {
            let n = 1024;
            let pairs: Vec<(usize, usize)> =
                (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 421 + 9) % n)).collect();
            let dsu: Dsu<TwoTrySplit, S, L> = Dsu::new(n);
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let dsu = &dsu;
                    let pairs = &pairs;
                    s.spawn(move || {
                        for (i, &(x, y)) in pairs.iter().enumerate() {
                            if i % 4 == t {
                                dsu.unite(x, y);
                            } else {
                                dsu.same_set(x, y);
                            }
                        }
                    });
                }
            });
            let mut oracle = NaiveDsu::new(n);
            for &(x, y) in &pairs {
                oracle.unite(x, y);
            }
            assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
            assert_eq!(dsu.set_count(), oracle.set_count());
        }
        hammer::<PackedStore, IndexLink>();
        hammer::<EpochStore, IndexLink>();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let dsu: Dsu = Dsu::new(4);
        dsu.unite(0, 4);
    }

    #[test]
    fn zero_and_one_element_universes() {
        let empty: Dsu = Dsu::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.set_count(), 0);
        let one: Dsu = Dsu::new(1);
        assert!(one.same_set(0, 0));
        assert!(!one.unite(0, 0));
        assert_eq!(one.set_count(), 1);
        let grown: GrowableDsu = Dsu::new(0);
        assert!(grown.is_empty());
        assert_eq!(grown.set_count(), 0);
    }

    // ----- Growth (`make_set` on a growable store) -----

    /// A universe of `n` elements grown one `make_set` at a time.
    fn grown(n: usize) -> GrowableDsu {
        let dsu = GrowableDsu::new(0);
        for _ in 0..n {
            dsu.make_set();
        }
        dsu
    }

    #[test]
    fn make_set_returns_dense_indices() {
        let dsu = grown(0);
        for expect in 0..100 {
            assert_eq!(dsu.make_set(), expect);
        }
        assert_eq!(dsu.len(), 100);
        assert_eq!(dsu.set_count(), 100);
        // Growth continues densely past a bulk-built prefix.
        let bulk: GrowableDsu = Dsu::new(7);
        assert_eq!(bulk.make_set(), 7);
        assert_eq!((bulk.len(), bulk.set_count()), (8, 8));
    }

    #[test]
    fn interleaved_make_set_and_unite_single_thread() {
        let dsu = grown(0);
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
        let dsu = grown(0);
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
    fn segment_boundaries_are_seamless() {
        // Unions that straddle segment boundaries (1->2, 3->4, 7->8, ...),
        // on a bulk-built and a grown universe.
        for dsu in [GrowableDsu::new(1 << 10), grown(1 << 10)] {
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
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unmade_elements_are_rejected() {
        let dsu = grown(1);
        dsu.same_set(0, 1);
    }
}
