//! Wait-free concurrent disjoint set union with randomized linking.
//!
//! This crate is a faithful, production-oriented implementation of the
//! algorithms of **Jayanti & Tarjan, "A Randomized Concurrent Algorithm for
//! Disjoint Set Union" (PODC 2016)**. It maintains a collection of disjoint
//! sets over elements `0..n` under concurrent [`unite`](Dsu::unite) and
//! [`same_set`](Dsu::same_set) operations, each executed by any thread with
//! no locks and no waiting: every update is a single-word compare-and-swap
//! on a parent pointer, and every operation completes in `O(log n)` steps
//! with high probability regardless of what other threads do.
//!
//! # The algorithm in one paragraph
//!
//! Each element has an immutable, uniformly random *id* (a 32-bit hash of
//! its index; the index breaks the rare ties) and a mutable *parent*
//! pointer; sets are trees, roots point to themselves. `Unite`
//! finds the two roots and links the root with the smaller id under the
//! other with a CAS — because ids never change, no rank or size field has to
//! be updated atomically together with the parent, which is the paper's key
//! simplification over Anderson & Woll (STOC '91). Finds optionally compact
//! paths by *splitting* (each visited node's parent is swung to its
//! grandparent), trying each CAS once ([`OneTrySplit`]) or twice
//! ([`TwoTrySplit`], paper Algorithms 4 and 5). Under the paper's
//! independence assumption, two-try splitting does
//! `Θ(m (α(n, m/np) + log(np/m + 1)))` expected total work for `m`
//! operations on `p` threads (Theorem 5.1).
//!
//! # Quick start
//!
//! ```
//! use concurrent_dsu::Dsu;
//! use std::thread;
//!
//! let dsu: Dsu = Dsu::new(1000);
//! thread::scope(|s| {
//!     for t in 0..4 {
//!         let dsu = &dsu;
//!         s.spawn(move || {
//!             for i in (t..999).step_by(4) {
//!                 dsu.unite(i, i + 1);
//!             }
//!         });
//!     }
//! });
//! assert!(dsu.same_set(0, 999));
//! assert_eq!(dsu.set_count(), 1);
//! ```
//!
//! # Choosing a find policy
//!
//! [`Dsu`] is generic over a [`FindPolicy`]; the default, [`TwoTrySplit`],
//! has the paper's best work bound. [`OneTrySplit`] does one fewer CAS per
//! visited node (Theorem 5.2 gives it a slightly weaker bound);
//! [`NoCompaction`] never restructures and is the right choice when finds
//! are rare; [`Halving`] is the compaction Anderson & Woll used, included
//! for ablations (paper Section 3 argues it cannot beat splitting
//! concurrently); [`Compress`] is a concurrent two-pass path compression —
//! the variant paper Section 6 conjectures about, implemented here as the
//! future-work item.
//!
//! The third type parameter is the [`LinkPolicy`]: [`RandomLink`], the
//! paper's randomized linking and the default, or [`IndexLink`]. Both keys
//! are immutable, so a link stays one CAS with no rank or size word to
//! maintain (see the [`order`] module).
//!
//! # Early termination
//!
//! [`Dsu::same_set_early`] and [`Dsu::unite_early`] implement the Section 6
//! variants (Algorithms 6 and 7) that interleave the two finds and walk only
//! the smaller current node, terminating as soon as the answer is known.
//!
//! # Batched ingestion
//!
//! Edges that arrive in bursts should go through
//! [`Dsu::unite_batch`] rather than a `unite` loop: a read-mostly filter
//! pass drops already-connected edges with early-termination same-set
//! walks, and the link pass CASes each survivor's root straight from the
//! word the filter observed — no re-traversal on the common path (see the
//! [`bulk`] module docs for the argument). On dense or Zipf-skewed edge
//! streams, where most edges become redundant, batching is markedly faster
//! than per-op dispatch:
//!
//! ```
//! use concurrent_dsu::Dsu;
//!
//! let dsu: Dsu = Dsu::new(100);
//! let burst: Vec<(usize, usize)> = (0..99).map(|i| (i, i + 1)).collect();
//! assert_eq!(dsu.unite_batch(&burst), 99);
//! assert_eq!(dsu.set_count(), 1);
//! ```
//!
//! # Growing universes
//!
//! [`Dsu`] over the growable layout, [`EpochStore`], gains
//! [`make_set`](Dsu::make_set) (paper Section 3 remark): elements can be
//! created concurrently with other operations, ids are hashed from the
//! index on the fly (Section 7 remark), and operations stay lock-free.
//! [`GrowableDsu`] names that configuration; it is the same type, so a
//! universe can start with `n` elements and grow from there. [`KeyedDsu`]
//! and [`VersionedDsu`] run on it too.
//!
//! ```
//! use concurrent_dsu::GrowableDsu;
//!
//! let dsu: GrowableDsu = GrowableDsu::new(2);
//! let c = dsu.make_set();
//! assert_eq!(c, 2);
//! assert!(dsu.unite(0, c));
//! ```
//!
//! # Keyed entity resolution
//!
//! Real consumers rarely have dense `0..n` elements — they have row keys,
//! strings, sparse 64-bit ids. [`KeyedDsu`] maps arbitrary
//! `K: Hash + Eq` keys to dense ids through a **lock-free id table**
//! (CAS-claimed words in a chain of tables, each migrating into a doubled
//! one as it fills, keys in an id-indexed column) and runs all
//! set operations on a growable [`Dsu`] underneath, replacing
//! the `RwLock<HashMap>` facade such systems usually deploy:
//!
//! ```
//! use concurrent_dsu::KeyedDsu;
//!
//! let dsu: KeyedDsu<String> = KeyedDsu::new();
//! dsu.merge_keys(&"alice@a.example".into(), &"al@b.example".into());
//! assert!(dsu.same_set(&"al@b.example".into(), &"alice@a.example".into()));
//! // Unseen keys are implicit singletons; queries never insert.
//! assert!(!dsu.same_set(&"alice@a.example".into(), &"mallory@c.example".into()));
//!
//! // Bursts resolve every key first, then ride `unite_batch`:
//! let pairs = vec![("a".to_string(), "b".to_string()), ("b".into(), "c".into())];
//! assert_eq!(dsu.merge_keys_batch(&pairs), 2);
//! assert_eq!(dsu.key_count(), 5);
//! ```
//!
//! See the [`keyed`] module docs for the id-table protocol and the
//! layer-selection table (dense fixed → [`Dsu`], dense growing →
//! [`GrowableDsu`], keyed → [`KeyedDsu`]), and `docs/benchmarks.md` for
//! its measured cost against the lock-based facade.
//!
//! # Choosing a variant from the universe size
//!
//! [`TunedDsu`] picks a (find × link) variant once, from `n`:
//! `halving/index` while the parent array fits in 8 MiB, where it measured
//! fastest, and the paper default above that. Every operation is one enum
//! match in front of a monomorphized [`Dsu`] — see the [`tune`] module
//! docs.
//!
//! # Instrumentation
//!
//! Every [`Dsu`] operation has a `*_with` twin taking an [`OpStats`] sink
//! that counts loop iterations, reads, and CAS successes/failures into
//! caller-owned (typically thread-local) storage, so experiments can measure
//! *work* exactly as the paper defines it without slowing the default path.
//! [`KeyedDsu`]'s twins add its operations' id-table probes and key claims;
//! [`TunedDsu`] has none — count its variant's work on that variant's
//! `Dsu`. A sink counts operation steps only: a layer's own events are
//! counters on its structure, read at quiescence
//! ([`FaultyStore::fault_report`], [`EpochFork::epoch_report`],
//! [`VersionedDsu::snapshots_taken`] and [`VersionedDsu::rollbacks`],
//! [`KeyedDsu::id_table_resizes`]).
//!
//! # Environment variables
//!
//! The crate reads no environment variables: every structure is configured
//! by its type parameters and constructor arguments alone. Three cargo
//! features change defaults at build time. `strict-sc` restores the
//! paper's sequentially consistent orderings crate-wide;
//! `default-store-flat` retargets [`DefaultStore`], and with it [`Dsu`]'s
//! default, to the flat layout (growable structures have one layout, so it
//! leaves them be); `default-link-index` retargets [`DefaultLink`] from the
//! paper's randomized linking to index linking.

pub mod bulk;
pub mod epoch;
pub mod fault;
pub mod find;
pub mod forest;
pub mod keyed;
pub mod ops;
pub mod order;
pub mod stats;
pub mod store;
pub mod tune;
pub mod viz;

mod dsu;

pub use dsu::{Dsu, GrowableDsu};
pub use epoch::{
    BatchOutcome, Epoch, EpochFork, EpochReport, EpochStore, SegmentSnapshot, VersionedDsu,
};
pub use fault::{BrokenStore, FaultPlan, FaultReport, FaultyStore, RetryBudget, TestWatchdog};
pub use find::{Compress, FindPolicy, Halving, NoCompaction, OneTrySplit, TwoTrySplit};
pub use forest::UnionForest;
pub use keyed::KeyedDsu;
pub use order::{IndexLink, LinkPolicy, RandomLink};
pub use stats::{OpStats, StatsSink};
pub use store::{DsuStore, FlatStore, GrowableStore, PackedStore, ParentStore};
pub use tune::TunedDsu;

/// The storage layout [`Dsu`] defaults to, selected at compile time by the
/// `default-store-flat` cargo feature (unset: [`PackedStore`]). CI's test
/// matrix builds the crate once per layout so the whole suite runs on
/// every store; explicit type parameters (`Dsu<F, FlatStore>`) always
/// override the default.
#[cfg(feature = "default-store-flat")]
pub type DefaultStore = FlatStore;
/// The storage layout [`Dsu`] defaults to (see the `default-store-flat`
/// feature; this build: packed, the fastest layout).
#[cfg(not(feature = "default-store-flat"))]
pub type DefaultStore = PackedStore;

/// The link policy [`Dsu`] defaults to, selected at
/// compile time by the `default-link-index` cargo feature (unset:
/// [`RandomLink`], the paper's randomized linking). CI's variants cell
/// builds the crate once with the feature on so the whole suite runs under
/// index linking too; explicit type parameters
/// (`Dsu<F, S, IndexLink>`) always override the default. The axis and its
/// acyclicity contract live in the [`order`] module docs.
#[cfg(feature = "default-link-index")]
pub type DefaultLink = IndexLink;
/// The link policy [`Dsu`] defaults to (this build:
/// random — the paper's randomized linking; see `default-link-index`).
#[cfg(not(feature = "default-link-index"))]
pub type DefaultLink = RandomLink;

/// Convenient alias: the paper's headline configuration (two-try splitting).
pub type DsuTwoTry = Dsu<TwoTrySplit>;
/// Alias for the one-try splitting configuration (paper Algorithm 4).
pub type DsuOneTry = Dsu<OneTrySplit>;
/// Alias for the compaction-free configuration (paper Algorithm 1).
pub type DsuNoCompaction = Dsu<NoCompaction>;
/// Alias for the halving configuration (ablation; cf. paper Section 3).
pub type DsuHalving = Dsu<Halving>;
/// Alias for the two-pass compression configuration (the Section 6
/// conjecture, implemented as future work).
pub type DsuCompress = Dsu<Compress>;

/// Common interface for every concurrent union-find in this workspace
/// (this crate's [`Dsu`] on every layout, and the baselines crate's
/// structures), so harnesses and applications can be generic over them.
///
/// All methods take `&self`: implementations must be safe to call from many
/// threads at once, and results must be linearizable.
pub trait ConcurrentUnionFind: Send + Sync {
    /// Number of elements currently in the universe.
    fn len(&self) -> usize;

    /// `true` if the universe is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` iff `x` and `y` are in the same set at the operation's
    /// linearization point.
    fn same_set(&self, x: usize, y: usize) -> bool;

    /// Unites the sets containing `x` and `y`. Returns `true` iff **this
    /// call** performed the link (at its linearization point the two sets
    /// were distinct and became one).
    fn unite(&self, x: usize, y: usize) -> bool;

    /// Unites along every edge of a burst; returns the number of edges that
    /// performed a link. The default implementation loops
    /// [`unite`](ConcurrentUnionFind::unite); [`Dsu`] overrides it on
    /// every layout with the filtered, word-seeded batch path (see the
    /// [`bulk`] module), so generic ingestion loops get the optimized path
    /// on the structures that have one.
    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        edges.iter().filter(|&&(x, y)| self.unite(x, y)).count()
    }

    /// Returns the root of the tree currently containing `x`. The result
    /// may be stale by the time the caller inspects it; `find(x) == find(y)`
    /// is *not* a linearizable same-set test — use
    /// [`same_set`](ConcurrentUnionFind::same_set).
    fn find(&self, x: usize) -> usize;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_and_sync() {
        assert_send_sync::<Dsu<TwoTrySplit>>();
        assert_send_sync::<Dsu<OneTrySplit>>();
        assert_send_sync::<Dsu<NoCompaction>>();
        assert_send_sync::<Dsu<Halving>>();
        assert_send_sync::<Dsu<Compress>>();
        assert_send_sync::<GrowableDsu>();
        assert_send_sync::<TunedDsu>();
    }

    #[test]
    fn trait_object_usable() {
        let dsu: Box<dyn ConcurrentUnionFind> = Box::new(Dsu::<TwoTrySplit>::new(4));
        assert!(dsu.unite(0, 1));
        assert!(dsu.same_set(0, 1));
        assert!(!dsu.is_empty());
        assert_eq!(dsu.len(), 4);
        let r = dsu.find(2);
        assert_eq!(r, 2);
        // The batch entry point dispatches through the trait too (here to
        // Dsu's optimized override).
        assert_eq!(dsu.unite_batch(&[(1, 2), (0, 2), (2, 3)]), 2);
        assert!(dsu.same_set(0, 3));
    }

    /// A minimal structure that only implements the required methods: the
    /// trait's default `unite_batch` must fall back to a `unite` loop.
    struct LoopOnly(Dsu<TwoTrySplit>);

    impl ConcurrentUnionFind for LoopOnly {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn same_set(&self, x: usize, y: usize) -> bool {
            self.0.same_set(x, y)
        }
        fn unite(&self, x: usize, y: usize) -> bool {
            self.0.unite(x, y)
        }
        fn find(&self, x: usize) -> usize {
            self.0.find(x)
        }
    }

    #[test]
    fn default_unite_batch_loops_unite() {
        let dsu = LoopOnly(Dsu::new(5));
        assert_eq!(dsu.unite_batch(&[(0, 1), (1, 0), (3, 4)]), 2);
        assert!(dsu.same_set(3, 4));
    }
}
