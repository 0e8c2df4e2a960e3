//! Parent-pointer storage: the packed and flat layouts, and the
//! memory-ordering contract of the hot path.
//!
//! # Why storage is a type parameter
//!
//! The paper's algorithms touch shared state only through single-word reads
//! and CASes of parent pointers, plus reads of each element's *immutable*
//! random id. Everything else — where those words live, whether the id
//! travels with the parent, which memory orderings the accesses use — is a
//! layout decision the algorithms never observe. [`ParentStore`] abstracts
//! the mutable word, [`DsuStore`] bundles it with the random order and the
//! element count, and [`Dsu`](crate::Dsu) is generic over the bundle.
//!
//! # Layout-selection guide
//!
//! Three layouts implement [`DsuStore`]. Every layout
//! derives element `i`'s id as
//! [`hashed_id(i, seed)`](crate::order::hashed_id) and orders elements by
//! the `(id, index)` key, so for a given seed they all make identical
//! linking decisions and are interchangeable mid-experiment. Pick by
//! universe size, and by whether the universe grows: only a
//! [`GrowableStore`] gives [`Dsu`](crate::Dsu) its
//! [`make_set`](crate::Dsu::make_set).
//!
//! | layout | word | footprint | universe bound | pick when |
//! |---|---|---|---|---|
//! | [`PackedStore`] (default) | `id << 32 \| parent` in one `AtomicU64` | 8 B/elem | `2^32` | a fixed universe that fits the bound — the all-round fastest |
//! | [`FlatStore`] | bare `AtomicUsize` parent; ids hashed from the index on demand | 8 B/elem | `usize` | universes beyond `2^32`, or as the reference/baseline layout |
//! | [`EpochStore`](crate::EpochStore) | the packed word: bulk-built elements in one sized prefix, grown ones in doubling segments | 8 B/elem | `2^32` | the universe grows via `make_set` — the only [`GrowableStore`] |
//!
//! **Packed vs flat.** Both are one 8-byte word per element. A find on the
//! packed layout reads the parent *and* the linking priority in one load;
//! the flat layout recomputes the hashed id for every comparison instead.
//! (`BENCH_PR1.json`'s 13–23% packed win was measured against a flat
//! layout that kept a 16 B/elem id array.) The flat layout's structural
//! advantages are the full-width universe and a layout the simulators can
//! poke directly ([`FlatStore::parent_cell`]).
//!
//! **Cache-residency caveat** (from `BENCH_PR2.json`): layout effects only
//! show once the parent store exceeds the last-level cache. At `n = 2^20`
//! (8 MB packed) every layout is cache-resident on a big LLC and they all
//! tie; size experiments at `n ≥ 2^22` before concluding anything about
//! placement. The same size is the TLB's reach: a second-level TLB holds
//! about 8 MiB of 4 KiB pages, so above it most random loads into a
//! 4 KiB-paged store also walk the page table. That is why the large
//! arrays ask for huge pages (see [Memory backing](#memory-backing)).
//!
//! **Cache-resident variant.** Where layouts tie, the (find × link)
//! variant does not: with at most 8 MiB of parent words (`n ≤ 2^20`),
//! `Dsu<Halving, PackedStore, IndexLink>` runs 1.13–1.19x the paper
//! default on `variants_ab`'s cache-uniform probe, while in DRAM nothing
//! beats the default outside noise (see the `variants_ab` section of
//! `docs/benchmarks.md`). [`TunedDsu`](crate::TunedDsu) makes that
//! choice from `n` at construction; name the type parameters to make it
//! with no dispatch.
//!
//! **Growable universes.** `Dsu<F, EpochStore>` (alias
//! [`GrowableDsu`](crate::GrowableDsu)), [`KeyedDsu`](crate::KeyedDsu) and
//! [`VersionedDsu`](crate::VersionedDsu) all run on
//! [`EpochStore`](crate::EpochStore). Grown from empty, its segment 0
//! holds elements `{0, 1}` and segment `s ≥ 1` holds `2^s .. 2^(s+1)`, so
//! `2^k` elements fill exactly `2^k` cells. Built with `n` elements, it
//! holds `0..P`, `P = max(2, n.next_power_of_two())`, in one *sized
//! prefix* — the same cells in one node — where a read is one compare, one
//! pointer load and an index, as close to [`PackedStore`]'s as a store
//! that can fork gets; only elements grown past `P` pay the segment
//! lookup. [`KeyedDsu`](crate::KeyedDsu) grows from empty and so never
//! has a prefix. Its ids are the same 32-bit hashes
//! of the index, tie-broken by the index (paper Section 7), so it keeps
//! [`PackedStore`]'s one-load traversal and `2^32` bound. There is no flat
//! growable layout: a universe beyond `2^32` has to be fixed
//! ([`FlatStore`]).
//!
//! **Keys instead of indices.** If your elements are strings, sparse
//! 64-bit ids, or any other hashable keys rather than dense `0..n`,
//! don't build your own map in front of these layouts —
//! [`KeyedDsu`](crate::KeyedDsu) (the [`keyed`](crate::keyed) module) is
//! that map, done lock-free: a CAS-claimed id table assigns dense ids on
//! first touch and every set operation runs on the growable layout.
//!
//! [`Dsu`](crate::Dsu)'s `S` parameter defaults to [`PackedStore`]; name
//! [`FlatStore`] to pick the other fixed layout. Tests that name it run
//! the same contracts on both (`packed_vs_flat.rs`, and the batch, fault,
//! forest, attribution and find-policy proptests).
//!
//! **Testing under faults.** Any layout above wraps in
//! [`FaultyStore`](crate::FaultyStore) (the [`fault`](crate::fault)
//! module), a decorator that injects *legal* adversity from a seeded
//! [`FaultPlan`](crate::FaultPlan): spurious CAS failures (a lost race),
//! delayed loads (a preemption between load and CAS), and per-thread
//! stall windows (a slow thread) — each indistinguishable from a schedule
//! a real adversary could produce, so every invariant in this guide must
//! survive them. Because it is a generic decorator, production
//! monomorphizations over bare layouts compile with zero fault-check
//! code; tests opt in per instance with
//! [`FaultyStore::with_plan`](crate::FaultyStore::with_plan). The
//! injected retries surface through
//! [`OpStats::cas_retries`](crate::OpStats) beside the store's own
//! [`fault_report`](crate::FaultyStore::fault_report), a
//! [`RetryBudget`](crate::RetryBudget) sink converts livelock into a fast
//! panic with a counter dump, and
//! [`BrokenStore`](crate::BrokenStore) (an intentionally unconditional
//! CAS) is the regression canary proving the checkers still catch a
//! lost-update bug. See `tests/fault_semantics.rs`, the repo-level
//! `native_linearizability.rs`, and the `chaos_ab` /
//! `e13_fault_injection` harnesses.
//!
//! **Recording the union forest.** The union forest (links only,
//! compaction ignored; paper Section 3) is what Corollary 4.2.1 bounds,
//! but no operation reads it, so no layout keeps it. Wrap the layout in
//! [`UnionForest`](crate::UnionForest) (the [`forest`](crate::forest)
//! module) when an experiment needs it: the decorator records every link
//! CAS into its own array and adds one word per element plus one
//! predictable branch per CAS. Bare layouts compile with no recording
//! code at all.
//!
//! **Versioning.** [`EpochStore`](crate::EpochStore)'s segments are
//! epoch-stamped and fork copy-on-write, so when the workload needs O(1)
//! snapshots, rollback, or speculative all-or-nothing batches, wrap a
//! `Dsu` over it in a [`VersionedDsu`](crate::VersionedDsu) (the
//! [`epoch`](crate::epoch) module). A snapshot records the element count
//! with the segments, so a rollback shrinks the universe back too. Only
//! `VersionedDsu`'s `&mut` transitions move the epoch, so an unversioned
//! structure never forks and pays one predictable epoch compare per CAS.
//! The fixed layouts have no versioning at all. Versioning composes with
//! [`FaultyStore`](crate::FaultyStore) for chaos-tested rollback.
//!
//! # Memory backing
//!
//! Each large array built in one pass asks the kernel for transparent
//! huge pages before its first write:
//!
//! * the cells of [`PackedStore`] and [`FlatStore`];
//! * every node of [`EpochStore`](crate::EpochStore): its sized prefix,
//!   each segment `make_set` grows, and every fresh buffer a fork copies
//!   into. The spare buffer later forks reuse was advised when it was
//!   first built;
//! * the answer of [`Dsu::labels_snapshot`](crate::Dsu::labels_snapshot).
//!
//! The advice (`madvise(MADV_HUGEPAGE)`) covers only the 2 MiB-aligned
//! interior of the buffer, so the buffer stays an ordinary `Box<[T]>` or
//! `Vec<T>` that the global allocator frees. Its unaligned head and tail,
//! less than one huge page each, keep 4 KiB pages, and allocation sizes do
//! not change. A refused advice changes nothing, so on a host whose huge
//! page mode is `[never]` the buffers are paged as before. Nothing
//! configures it: no option, cargo feature or environment variable.
//!
//! Why: cc-rmat's `2^24`-element store is a 128 MiB array, and every step
//! of a find is a random load into it. On 4 KiB pages the kernel maps it
//! with 32,768 pages and faults each in on first touch, and the TLB
//! reaches 8 MiB of it. On 2 MiB pages it is 64 pages, all inside the
//! TLB's reach. Measured on a 2-vCPU Xeon VM, 4 KiB pages against huge
//! pages (`BENCH_PR27.json`):
//!
//! * a dependent random load over 128 MiB: 221–256 ns against 162–188 ns;
//! * an independent one: 19.1–23.2 ns against 11.7–14.4 ns;
//! * faulting in and writing 256 MiB: 176–189 ms (about 2.7 µs per
//!   4 KiB page) against 75–285 ms. Huge-page faults on this VM fall in
//!   two modes, near 75–100 ms and near 200–285 ms.
//!
//! End to end, cc-rmat's throughput rose 1.32x (10 of 10 pairs), and its
//! `setup_s`, which builds the store, fell to 0.57x.
//!
//! The advice is made only on Linux x86_64 and aarch64, and only for a
//! buffer of 32 MiB (`2^22` eight-byte cells) or more. glibc normally maps
//! such a buffer on its own and unmaps it when it is freed. A smaller one
//! may be carved from a malloc heap, because glibc's dynamic mmap
//! threshold rises to as much as 32 MiB once a mapped chunk is freed, and
//! then the advice outlives the buffer: later small allocations on that
//! heap range fault in huge pages too. Without the floor, keyed-dedup,
//! whose grown segments are 4–16 MiB, kept 82–88 MiB of heap flagged for
//! huge pages against at most 28 MiB of live segments, and its p99
//! latency read 1.14x the parent's (1 of 10 pairs better,
//! `BENCH_PR27.json`).
//!
//! [`KeyedDsu`](crate::KeyedDsu)'s id tables and key column are not
//! built through the helper. A prototype that advised them, with the
//! grown segments, read keyed-dedup's throughput at 0.97x and 0.99x in two
//! pairs, so advising them was not shown to help.
//!
//! # Memory orderings (and the `strict-sc` feature)
//!
//! The paper's APRAM model assumes sequentially consistent single-word
//! registers, but its proofs lean only on the *per-cell* modification order
//! of the parent words, never on a global total order of unrelated
//! accesses:
//!
//! * Lemma 3.1 (parents strictly increase in the random order) is a
//!   property of each cell's CAS history in isolation — every successful
//!   CAS is justified by a value read from that same cell, which
//!   [`Ordering::Relaxed`] already guarantees (cache coherence).
//! * Linearizability (Lemma 3.2) needs a find that reaches a root to have
//!   seen every link CAS on the path it walked. A successful link/compact
//!   CAS publishes with **`Release`** ([`CAS_SUCCESS`]) and every traversal
//!   read is an **`Acquire`** load ([`LOAD`]), so walking `u → parent(u)`
//!   synchronizes-with the CAS that installed that parent: the classic
//!   message-passing pattern, applied edge by edge up the tree.
//! * A *failed* CAS publishes nothing — it only tells the caller "retry or
//!   move on" — so its failure ordering is **`Relaxed`** ([`CAS_FAILURE`]).
//!   Likewise the statistics counters ([`STAT`]) are mere tallies.
//!
//! One honest caveat: the per-path message-passing argument above covers
//! the orderings each operation *relies on*, but Release/Acquire alone does
//! not forbid IRIW-style outcomes (two readers disagreeing about the order
//! of two independent links), which full linearizability of query-only
//! histories formally needs. On multi-copy-atomic hardware — x86-64 and
//! ARMv8, every tier-1 Rust target — such outcomes cannot occur, so the
//! default build is linearizable there; on non-multi-copy-atomic machines
//! (e.g. POWER) the paper-exact guarantee needs the `strict-sc` build,
//! which pins every access back to `SeqCst` and restores the literal APRAM
//! translation for model-fidelity experiments (`e12_cas_anatomy`, the
//! APRAM cross-checks). The test suite passes under both configurations,
//! and `tests/packed_vs_flat.rs` cross-checks all layouts operation by
//! operation.

use std::sync::atomic::Ordering;

mod flat;
mod packed;

pub use flat::FlatStore;
pub use packed::PackedStore;
pub(crate) use packed::{pack_word, packed_id, packed_parent, packed_with_parent};

/// Ordering of every traversal load of a parent word: `Acquire`, so a read
/// of a parent installed by a `Release` CAS also sees the writes that
/// preceded the CAS (`SeqCst` under `strict-sc`).
#[cfg(not(feature = "strict-sc"))]
pub const LOAD: Ordering = Ordering::Acquire;
/// Ordering of every traversal load of a parent word (strict-sc: `SeqCst`).
#[cfg(feature = "strict-sc")]
pub const LOAD: Ordering = Ordering::SeqCst;

/// Success ordering of link and compaction CASes: `Release`, publishing the
/// new parent edge to subsequent `Acquire` traversals (`SeqCst` under
/// `strict-sc`).
#[cfg(not(feature = "strict-sc"))]
pub const CAS_SUCCESS: Ordering = Ordering::Release;
/// Success ordering of link and compaction CASes (strict-sc: `SeqCst`).
#[cfg(feature = "strict-sc")]
pub const CAS_SUCCESS: Ordering = Ordering::SeqCst;

/// Failure ordering of link and compaction CASes: `Relaxed` — a failed CAS
/// publishes nothing and the loser re-reads with [`LOAD`] anyway (`SeqCst`
/// under `strict-sc`).
#[cfg(not(feature = "strict-sc"))]
pub const CAS_FAILURE: Ordering = Ordering::Relaxed;
/// Failure ordering of link and compaction CASes (strict-sc: `SeqCst`).
#[cfg(feature = "strict-sc")]
pub const CAS_FAILURE: Ordering = Ordering::SeqCst;

/// Ordering for reads of immutable id bits and for statistic counters:
/// `Relaxed` — ids never change after construction and counters are
/// tallies, not synchronization (`SeqCst` under `strict-sc`).
#[cfg(not(feature = "strict-sc"))]
pub const STAT: Ordering = Ordering::Relaxed;
/// Ordering for immutable-id reads and statistic counters (strict-sc:
/// `SeqCst`).
#[cfg(feature = "strict-sc")]
pub const STAT: Ordering = Ordering::SeqCst;

/// `true` when the `strict-sc` feature pinned all orderings to `SeqCst`.
pub const fn strict_sc() -> bool {
    cfg!(feature = "strict-sc")
}

/// Collects `items` into a vector of exactly their length whose buffer's
/// 2 MiB-aligned interior is advised for transparent huge pages before
/// the first item is written, so the first touch faults in huge pages
/// (see "Memory backing" in the module docs). The advice is made only on
/// Linux x86_64/aarch64 and only for a buffer of at least 32 MiB; a
/// refused advice is ignored, so the result is always exactly what
/// `items.collect()` returns.
pub(crate) fn collect_huge<T>(items: impl ExactSizeIterator<Item = T>) -> Vec<T> {
    let mut v = Vec::with_capacity(items.len());
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        const HUGE_PAGE: usize = 2 << 20;
        // glibc's dynamic mmap threshold never rises above 32 MiB on a
        // 64-bit target, so a smaller buffer may be carved from a malloc
        // heap, and the advice would outlive it on that heap range.
        const MIN_ADVISED: usize = 32 << 20;
        const MADV_HUGEPAGE: std::ffi::c_int = 14;
        extern "C" {
            fn madvise(
                addr: *mut std::ffi::c_void,
                len: usize,
                advice: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
        let buf = v.spare_capacity_mut();
        let start = buf.as_mut_ptr() as usize;
        let lo = start.next_multiple_of(HUGE_PAGE);
        let hi = (start + std::mem::size_of_val(buf)) & !(HUGE_PAGE - 1);
        if std::mem::size_of_val(buf) >= MIN_ADVISED {
            // SAFETY: `lo..hi` (non-empty, since the buffer spans at least
            // 32 MiB) lies inside the allocation `v` owns and has not yet
            // initialized, and MADV_HUGEPAGE only sets a paging hint on
            // those pages: it neither moves, frees nor changes their
            // contents. The return value is deliberately ignored.
            unsafe { madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE) };
        }
    }
    v.extend(items);
    v
}

/// A table of atomic parent words indexed by element.
///
/// The *word* ([`ParentStore::Word`]) is the store's unit of atomicity:
/// the raw `u64` for the packed layouts, the bare parent `usize` for the
/// flat ones. The traversal loop works on words — one load yields both the
/// next parent ([`parent_of`](ParentStore::parent_of)) and, in the packed
/// layouts, the element's linking priority — and every CAS expects the
/// *exact word previously seen* ([`cas_from`](ParentStore::cas_from)), so
/// no layout ever needs a second read to reconstruct its CAS operands.
///
/// Implementations must expose, for each existing element, one logical
/// cell with a coherent modification order, and must only be asked about
/// elements that exist (callers bounds-check first; implementations may
/// panic otherwise).
pub trait ParentStore: Send + Sync {
    /// The atomically accessed unit (parent index plus any inline fields).
    type Word: Copy + PartialEq;

    /// Loads the word of `i` ([`LOAD`] ordering).
    fn load_word(&self, i: usize) -> Self::Word;

    /// The parent index carried by a word.
    fn parent_of(w: Self::Word) -> usize;

    /// CASes `i`'s cell from exactly `seen` to the word carrying
    /// `new_parent` (and `seen`'s immutable fields); `true` on success
    /// ([`CAS_SUCCESS`] / [`CAS_FAILURE`] orderings).
    fn cas_from(&self, i: usize, seen: Self::Word, new_parent: usize) -> bool;

    /// The linking priority of element `i` as carried by its word `w` —
    /// free for packed layouts, an id lookup for flat ones.
    ///
    /// Contract: `(priority(u, wu), u) < (priority(v, wv), v)` must agree
    /// with [`precedes`](ParentStore::precedes) — i.e. the index breaks
    /// priority ties — so `Unite` may link by priority without consulting
    /// the order again.
    fn priority(&self, i: usize, w: Self::Word) -> u64;

    /// Convenience: the parent of `i` ([`LOAD`] ordering).
    #[inline]
    fn load_parent(&self, i: usize) -> usize {
        Self::parent_of(self.load_word(i))
    }

    /// CASes the parent of `i` from `old` to `new` by value; `true` on
    /// success. Used by call sites that have no previously seen word (the
    /// blind link of early-termination `Unite`); packed layouts pay one
    /// extra (cache-hot) read here to learn the immutable id bits.
    #[inline]
    fn cas_parent(&self, i: usize, old: usize, new: usize) -> bool {
        let seen = self.load_word(i);
        Self::parent_of(seen) == old && self.cas_from(i, seen, new)
    }

    /// `true` iff `u` precedes `v` in the store's random linking order —
    /// the `(priority, index)` comparison of the [`priority`] contract.
    /// This is the *only* order the concurrent operations consult, so a
    /// store can never be driven by two disagreeing orders.
    ///
    /// [`priority`]: ParentStore::priority
    #[inline]
    fn precedes(&self, u: usize, v: usize) -> bool {
        (self.priority(u, self.load_word(u)), u) < (self.priority(v, self.load_word(v)), v)
    }
}

/// A [`ParentStore`] bundled with its elements' random ids and their
/// count — everything [`Dsu`](crate::Dsu) needs from its storage type
/// parameter.
pub trait DsuStore: ParentStore {
    /// Short layout name for reports (e.g. `"packed"`, `"flat"`).
    const NAME: &'static str;

    /// `n` singleton cells (`parent[i] == i`) whose ids are
    /// [`hashed_id(i, seed)`](crate::order::hashed_id).
    ///
    /// Two stores built with the same seed — of *any* layout, growable
    /// ones included — assign identical ids, so layouts are
    /// interchangeable mid-experiment.
    fn with_seed(n: usize, seed: u64) -> Self;

    /// Number of elements: fixed at construction, or the count of
    /// indices a [`GrowableStore`] has reserved so far.
    fn len(&self) -> usize;

    /// `true` when the store has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The 32-bit random id of element `u`. Ids can collide: the random
    /// total order is the `(id_of(u), u)` key, with the index breaking
    /// ties ([`ParentStore::precedes`]).
    fn id_of(&self, u: usize) -> u64;

    /// A non-atomic snapshot of all parents. Only meaningful at quiescence;
    /// used by tests and offline analysis.
    fn snapshot(&self) -> Vec<usize>;
}

/// A [`DsuStore`] whose universe grows one element at a time — what
/// [`Dsu::make_set`](crate::Dsu::make_set) needs.
/// [`EpochStore`](crate::EpochStore) is the layout;
/// [`FaultyStore`](crate::FaultyStore) forwards the trait so chaos tests
/// can wrap it.
pub trait GrowableStore: DsuStore {
    /// Reserves the next element index, initializes its cell as a
    /// singleton (`parent == e`), and returns it. Indices are dense: the
    /// `k`-th call on a store built with `n` elements returns
    /// `n + k - 1`. The cell is initialized before this returns, so the
    /// index may be handed to other threads from then on.
    fn push_singleton(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochFork, EpochStore};

    fn exercise_cas<P: ParentStore>(s: &P) {
        assert!(s.cas_parent(0, 0, 2));
        assert!(!s.cas_parent(0, 0, 1), "stale expected value must fail");
        assert_eq!(s.load_parent(0), 2);
        // Word-exact CAS: a stale word fails, the current one succeeds.
        let seen = s.load_word(0);
        assert_eq!(P::parent_of(seen), 2);
        assert!(s.cas_from(0, seen, 1));
        assert!(!s.cas_from(0, seen, 0), "stale word must fail");
        assert_eq!(s.load_parent(0), 1);
    }

    #[test]
    fn cas_succeeds_once_all_layouts() {
        exercise_cas(&FlatStore::new(3));
        exercise_cas(&PackedStore::with_seed(3, 0));
    }

    #[test]
    fn all_layouts_assign_identical_ids() {
        let flat = FlatStore::with_seed(64, 99);
        let packed = PackedStore::with_seed(64, 99);
        for i in 0..64 {
            assert_eq!(DsuStore::id_of(&flat, i), DsuStore::id_of(&packed, i));
            assert_eq!(DsuStore::id_of(&flat, i), crate::order::hashed_id(i, 99));
        }
        // And therefore the same linking order.
        for u in 0..64 {
            for v in 0..64 {
                assert_eq!(flat.precedes(u, v), packed.precedes(u, v));
            }
        }
    }

    /// Where the host offers transparent huge pages, the mapping holding
    /// the middle cell of each advised buffer is eligible for them. The
    /// middle cell, because the advice covers only the aligned interior
    /// and so splits the buffer's head off into its own mapping;
    /// eligibility, because the kernel may still fall back to 4 KiB pages
    /// when memory is fragmented.
    #[test]
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn large_cell_arrays_are_huge_page_eligible() {
        let mode = match std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled") {
            Ok(mode) if !mode.contains("[never]") => mode,
            other => {
                println!("skipped: transparent huge pages unavailable ({other:?})");
                return;
            }
        };
        // 32 MiB, the smallest buffer the helper advises. Each buffer is
        // dropped once checked.
        const N: usize = 1 << 22;
        assert!(thp_eligible(&PackedStore::with_seed(N, 1).words[N / 2]), "PackedStore");
        assert!(thp_eligible(FlatStore::with_seed(N, 1).parent_cell(N / 2)), "FlatStore");
        let mut epoch = EpochStore::with_seed(N, 1);
        assert!(thp_eligible(epoch.cell(N / 2)), "EpochStore prefix");
        let snap = epoch.fork_point();
        assert!(epoch.cas_parent(0, 0, 1));
        assert_eq!(epoch.epoch_report().segments_forked, 1);
        assert!(thp_eligible(epoch.cell(N / 2)), "EpochStore prefix fork");
        drop((snap, epoch));
        // Growing past an `N` prefix opens segment `log2 N`, whose `N`
        // cells hold elements `N..2N`.
        let grown = EpochStore::with_seed(N, 1);
        assert_eq!(grown.push_singleton(), N);
        assert!(thp_eligible(grown.cell(N + N / 2)), "EpochStore grown segment");
        drop(grown);
        let dsu: crate::Dsu = crate::Dsu::with_seed(N, 1);
        assert!(thp_eligible(&dsu.labels_snapshot()[N / 2]), "Dsu::labels_snapshot");
        // Under `[madvise]` only advised ranges are eligible, and a buffer
        // under the floor is not advised.
        if mode.contains("[madvise]") {
            let small = PackedStore::with_seed(N / 2, 1);
            assert!(!thp_eligible(&small.words[N / 4]), "PackedStore under the floor");
        }
    }

    /// The `THPeligible` flag of the mapping that holds `cell`, read from
    /// `/proc/self/smaps`.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn thp_eligible<T>(cell: &T) -> bool {
        let addr = cell as *const T as usize;
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        let mut inside = false;
        for line in smaps.lines() {
            if let Some((lo, hi)) = mapping_range(line) {
                inside = (lo..hi).contains(&addr);
            } else if let Some(flag) = line.strip_prefix("THPeligible:").filter(|_| inside) {
                return flag.trim() == "1";
            }
        }
        panic!("no THPeligible line for the mapping holding {addr:#x}");
    }

    /// The address range of an smaps mapping header (`lo-hi perms ...`).
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn mapping_range(line: &str) -> Option<(usize, usize)> {
        let (lo, rest) = line.split_once('-')?;
        let hi = rest.split(' ').next()?;
        Some((usize::from_str_radix(lo, 16).ok()?, usize::from_str_radix(hi, 16).ok()?))
    }

    #[test]
    fn orderings_match_feature() {
        if strict_sc() {
            assert_eq!(LOAD, Ordering::SeqCst);
            assert_eq!(CAS_SUCCESS, Ordering::SeqCst);
            assert_eq!(CAS_FAILURE, Ordering::SeqCst);
            assert_eq!(STAT, Ordering::SeqCst);
        } else {
            assert_eq!(LOAD, Ordering::Acquire);
            assert_eq!(CAS_SUCCESS, Ordering::Release);
            assert_eq!(CAS_FAILURE, Ordering::Relaxed);
            assert_eq!(STAT, Ordering::Relaxed);
        }
    }
}
