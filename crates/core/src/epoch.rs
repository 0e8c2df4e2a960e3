//! Epoch snapshots and rollback: a versioned DSU over copy-on-write
//! segment forks.
//!
//! The forest is append-only in every other layer of this crate: once a bad
//! batch lands — corrupt upstream data, an aborted speculative merge, a
//! chaos-injected failure mid-ingest — there is no way back short of
//! rebuilding from scratch. This module adds the way back. It follows the
//! delete/undo direction of "A Scalable Concurrent Algorithm for Dynamic
//! Connectivity" (PAPERS.md, arXiv 2105.08098) and the speculative
//! group-union shape of optd's memo merging, grafted onto the growable
//! store's segment directory — which is the natural copy-on-write unit,
//! because segments never move and there are at most `usize::BITS` of them.
//!
//! # The design in one paragraph
//!
//! [`EpochStore`] is the one growable layout — packed `id << 32 | parent`
//! words, the [`PackedStore`](crate::PackedStore) format — with each
//! segment behind an `Arc`-counted *segment node* stamped with the epoch
//! it was created in. [`VersionedDsu::snapshot`] is O(segments),
//! i.e. O(1) in the element count: clone the ≤ 64 live segment `Arc`s and
//! bump the epoch counter — no cell is copied. Afterward every recorded
//! segment is *shared*; the first `cas_from` that would write a shared
//! (stale-epoch) segment first **forks** it — copies its cells into a
//! fresh node stamped with the current epoch and swings the directory slot
//! — and only then CASes. Reads never fork. [`VersionedDsu::rollback`]
//! swings the slots back to the recorded nodes (bit-identical: they are
//! the *same cells* the snapshot froze, untouched since — every
//! post-snapshot write went to a fork), and
//! [`VersionedDsu::same_set_at`] answers time-travel queries by walking a
//! retained snapshot's frozen segments.
//!
//! # Concurrency and safety argument
//!
//! Epoch transitions (`snapshot`, `rollback`, `drop_snapshot`) take
//! `&mut self` on the [`VersionedDsu`]; Rust's aliasing rules therefore
//! guarantee **quiescence** — no concurrent operation holds `&self` while
//! an epoch moves. That single structural fact carries the whole proof:
//!
//! * During any `&self` phase the epoch counter and every node's epoch
//!   stamp are frozen, so the hot-path check "node is current ⇒ write
//!   directly, node is stale ⇒ fork first" cannot race with an epoch
//!   change.
//! * A stale node is **never written** during the phase (all writers fork
//!   first, and it was stale from the phase's start), so fork copies and
//!   snapshot reads of stale nodes need no synchronization beyond the
//!   happens-before edge the `&mut` transition itself provides.
//! * Concurrent forks of the same slot are serialized by one mutex (forks
//!   are rare — at most one per segment per epoch); the displaced node's
//!   `Arc` is parked in a graveyard and freed only at the next `&mut`
//!   point, so a racing reader that loaded the old slot pointer can finish
//!   its traversal on the displaced (frozen, still-correct) cells.
//! * Lemma 3.1 (ids strictly increase along parent paths) holds across
//!   fork boundaries unchanged: a fork copies words verbatim, so the
//!   observed-word CAS discipline (`cas_from` against the exact word seen)
//!   keeps ruling out ABA exactly as on the unversioned layouts.
//!
//! # What the unversioned paths pay
//!
//! One predictable compare per CAS, and no lock. [`GrowableDsu`] and
//! [`KeyedDsu`](crate::KeyedDsu) run on [`EpochStore`] as well, but only
//! [`VersionedDsu`]'s `&mut` transitions move the epoch, so an unversioned
//! structure stays at epoch 0 for life: every node is current, no write
//! forks, and the fork mutex is never taken. The root crate's
//! `tests/layer_contracts.rs` asserts a zero [`EpochReport`] and epoch 0
//! after threaded churn on both. Segments are pre-filled with singleton
//! words when allocated, so `make_set` on a live segment is one null check.
//!
//! # Knob
//!
//! `DSU_EPOCH_EVERY=<k>` makes [`VersionedDsu::ingest_batch`] record an
//! automatic snapshot before every `k`-th batch (`off`/`0`/unset: never) —
//! how CI's `epochs` cell runs the whole core suite with
//! snapshot-every-batch. Unrecognized values warn once on stderr
//! ([`knob`]) and fall back to `off`.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fault::FaultyStore;
use crate::find::{FindPolicy, TwoTrySplit};
use crate::growable::{GrowableDsu, GrowableStore};
use crate::knob;
use crate::order::{hashed_id, IdOrder, LinkPolicy};
use crate::stats::StatsSink;
use crate::store::{self, ParentStore};

/// Directory slots: one per segment an index of any width could need.
const SEGMENTS: usize = usize::BITS as usize;

/// First element of segment `s`. Segment 0 holds `{0, 1}` and segment
/// `s ≥ 1` holds `2^s .. 2^(s+1)`, so segments `0..k` hold exactly the
/// `2^k` elements `0..2^k` and a universe of `2^k` fills its last segment
/// with no spare cell.
const fn segment_base(s: usize) -> usize {
    (1 << s) & !1
}

/// Cell count of segment `s`.
const fn segment_len(s: usize) -> usize {
    if s == 0 {
        2
    } else {
        1 << s
    }
}

/// Maps element `e` to `(segment, offset)`.
#[inline]
fn locate(e: usize) -> (usize, usize) {
    let s = (e | 1).ilog2() as usize;
    (s, e - segment_base(s))
}

/// Environment variable read by [`epoch_every_from_env`] (at
/// [`VersionedDsu`] construction): auto-snapshot cadence in ingested
/// batches. `off`/`0`/unset disables; a positive integer `k` snapshots
/// before every `k`-th [`ingest_batch`](VersionedDsu::ingest_batch).
pub const ENV_EPOCH_EVERY: &str = "DSU_EPOCH_EVERY";

/// Parses a `DSU_EPOCH_EVERY` value. `Some(None)` = recognized, auto
/// snapshots off; `Some(Some(k))` = snapshot before every `k`-th batch;
/// `None` = unrecognized (the `from_env` reader warns and falls back to
/// off; this programmatic parser stays silent by contract).
pub fn parse_epoch_every(v: &str) -> Option<Option<NonZeroUsize>> {
    let v = v.trim();
    if v.eq_ignore_ascii_case("off") || v == "0" {
        return Some(None);
    }
    v.parse::<usize>().ok().and_then(NonZeroUsize::new).map(Some)
}

/// Reads `DSU_EPOCH_EVERY` from the environment (off when unset); a
/// set-but-unrecognized value warns once per process on stderr and falls
/// back to off.
pub fn epoch_every_from_env() -> Option<NonZeroUsize> {
    match std::env::var(ENV_EPOCH_EVERY) {
        Err(_) => None,
        Ok(v) => parse_epoch_every(&v).unwrap_or_else(|| {
            knob::warn_unrecognized(ENV_EPOCH_EVERY, &v, "off | 0 | <k> (positive integer)", "off");
            None
        }),
    }
}

/// One immutable-once-stale segment of cells, stamped with the epoch it
/// was created (allocated or forked) in. The directory holds one strong
/// `Arc` reference per slot; snapshots hold one per recorded segment;
/// displaced nodes park one in the graveyard until the next quiescent
/// point.
struct SegmentNode {
    /// Epoch this node was created in. A node whose stamp differs from the
    /// store's current epoch is *shared* (some snapshot may reference it)
    /// and must be forked before any write.
    epoch: u64,
    cells: Box<[AtomicU64]>,
}

/// Totals of the copy-on-write work an [`EpochStore`] has performed —
/// read at quiescence via [`EpochFork::epoch_report`] and fed to
/// [`StatsSink::segments_forked`] / [`StatsSink::cow_copies`] by harness
/// code, the same protocol as
/// [`FaultyStore::fault_report`](crate::FaultyStore::fault_report).
/// Exactly zero on runs that never snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Segments copy-on-write-forked (first write to a shared segment).
    pub segments_forked: u64,
    /// Cells copied by those forks — the deferred cost of O(1) snapshots.
    pub cow_copies: u64,
}

/// An opaque O(1) record of the segment directory at one epoch: the ≤ 64
/// live segment `Arc`s plus the epoch they were frozen at. Produced by
/// [`EpochFork::fork_point`], consumed by [`EpochFork::restore`] and the
/// time-travel readers. Cloning clones `Arc`s, never cells.
#[derive(Clone)]
pub struct SegmentSnapshot {
    /// The epoch whose final state this snapshot records (the counter was
    /// bumped past it as part of taking the snapshot, so every recorded
    /// node is stale — i.e. copy-on-write — from here on).
    epoch: u64,
    segs: Vec<Option<Arc<SegmentNode>>>,
}

impl SegmentSnapshot {
    /// The epoch this snapshot froze.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The recorded parent of element `i` — a plain read of the frozen
    /// cells, valid concurrently with ongoing operations (recorded nodes
    /// are never written; see the module safety argument). `i` must have
    /// existed when the snapshot was taken.
    pub fn parent_of(&self, i: usize) -> usize {
        let (s, off) = locate(i);
        let node = self.segs[s].as_ref().expect("element's segment not recorded in this snapshot");
        store::packed_parent(node.cells[off].load(store::STAT))
    }
}

impl std::fmt::Debug for SegmentSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentSnapshot")
            .field("epoch", &self.epoch)
            .field("segments", &self.segs.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

/// The segment-fork capability [`VersionedDsu`] requires of its store: the
/// growable-store contract plus epoch bookkeeping, O(1) directory
/// snapshots, and quiescent restore. Implemented natively by
/// [`EpochStore`] and forwarded by
/// [`FaultyStore<S>`](crate::FaultyStore)`, so the chaos suite can inject
/// faults straight through a versioned stack.
///
/// `fork_point` / `restore` / `purge_graveyard` take `&mut self`: they
/// move the epoch, which is only sound at quiescence — the `&mut`
/// requirement makes the compiler enforce exactly that.
pub trait EpochFork: GrowableStore {
    /// The current epoch counter (bumped by every `fork_point`/`restore`).
    fn current_epoch(&self) -> u64;

    /// Records the live segments and opens a new epoch (making every
    /// recorded segment copy-on-write). O(segments); copies no cells.
    /// Also drains the graveyard — `&mut self` is a quiescent point.
    fn fork_point(&mut self) -> SegmentSnapshot;

    /// Swings the directory back to `snap`'s recorded segments (dropping
    /// segments allocated since) and opens a new epoch, so the restored
    /// nodes stay copy-on-write and `snap` remains valid for another
    /// restore.
    fn restore(&mut self, snap: &SegmentSnapshot);

    /// Frees segment nodes displaced by forks since the last quiescent
    /// point. Called automatically by `fork_point`/`restore`; exposed for
    /// long `&self` phases that never snapshot again.
    fn purge_graveyard(&mut self);

    /// Copy-on-write work totals so far (monotone; read at quiescence).
    fn epoch_report(&self) -> EpochReport;

    /// The raw cell words of elements `0..len`, for bit-identical state
    /// comparison in tests. Call only at quiescence.
    fn raw_words(&self, len: usize) -> Vec<u64>;
}

/// The growable layout under [`GrowableDsu`] (its default store),
/// [`KeyedDsu`](crate::KeyedDsu) and [`VersionedDsu`]: packed
/// `id << 32 | parent` words (the [`PackedStore`](crate::PackedStore)
/// format and its 2^32-element bound) in `Arc`-counted, epoch-stamped
/// segment nodes behind an atomic directory. Ids are the shared
/// [`hashed_id`] of the salted index (paper Section 7: a universe large
/// enough that ties are rare, with the index breaking them), the same ids
/// every fixed layout assigns for that seed. See the module docs for the
/// copy-on-write protocol and safety argument.
pub struct EpochStore {
    /// Directory: slot `s` holds a raw pointer from `Arc::into_raw` (the
    /// directory owns one strong count per non-null slot), or null while
    /// segment `s` is unallocated.
    slots: [AtomicPtr<SegmentNode>; SEGMENTS],
    epoch: AtomicU64,
    salt: u64,
    /// Serializes forks *and* parks displaced nodes until the next
    /// quiescent point (a racing reader may still be walking a displaced
    /// node's cells; see the module safety argument). Fork traffic is at
    /// most one per segment per epoch, so the lock is cold by design.
    graveyard: Mutex<Vec<Arc<SegmentNode>>>,
    segments_forked: AtomicU64,
    cow_copies: AtomicU64,
}

impl EpochStore {
    /// The packed word a fresh singleton `e` is born with.
    fn singleton_word(&self, e: usize) -> u64 {
        store::pack_word(hashed_id(e, self.salt), e)
    }

    /// The live node of segment `s`; panics on an unallocated segment
    /// (an index no `make_set` returned).
    #[inline]
    fn node(&self, s: usize) -> &SegmentNode {
        let p = self.slots[s].load(store::LOAD);
        assert!(!p.is_null(), "element's segment not allocated: use indices returned by make_set");
        // SAFETY: a non-null slot pointer is a live `Arc::into_raw`; the
        // node outlives this `&self` borrow because displacement parks the
        // Arc in the graveyard, which is drained only at `&mut` points.
        unsafe { &*p }
    }

    #[inline]
    fn cell(&self, i: usize) -> &AtomicU64 {
        let (s, off) = locate(i);
        &self.node(s).cells[off]
    }

    /// The `(hash id, index)` priority key of `i`, read from its word.
    fn key(&self, i: usize) -> (u64, usize) {
        (store::packed_id(self.cell(i).load(store::STAT)), i)
    }

    /// Allocates segment `s` fully initialized as singletons, racing
    /// against other allocators with a null→node CAS (the loser's node is
    /// dropped; every cell is initialized before the pointer publishes).
    #[cold]
    #[inline(never)]
    fn alloc_slot(&self, s: usize) {
        let base = segment_base(s);
        let cells: Box<[AtomicU64]> =
            (base..base + segment_len(s)).map(|e| AtomicU64::new(self.singleton_word(e))).collect();
        let node = Arc::new(SegmentNode { epoch: self.epoch.load(store::STAT), cells });
        let raw = Arc::into_raw(node) as *mut SegmentNode;
        if self.slots[s]
            .compare_exchange(std::ptr::null_mut(), raw, store::CAS_SUCCESS, store::CAS_FAILURE)
            .is_err()
        {
            // Lost the allocation race; the winner's node is fully
            // initialized (install is the last step), so just free ours.
            // SAFETY: `raw` came from `Arc::into_raw` above and was not
            // installed anywhere.
            unsafe { drop(Arc::from_raw(raw)) };
        }
    }

    /// The copy-on-write slow path: copies segment `s`'s cells into a
    /// fresh current-epoch node, swings the slot, parks the displaced node
    /// in the graveyard, and returns the writable node. Serialized by the
    /// graveyard mutex; a thread that finds the slot already forked while
    /// it waited returns the rival's node.
    #[cold]
    #[inline(never)]
    fn fork_slot(&self, s: usize) -> &SegmentNode {
        let mut graveyard = self.graveyard.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.slots[s].load(store::LOAD);
        // SAFETY: non-null (only written elements fork) and kept alive as
        // in `node()`; additionally we hold the fork lock, so no rival can
        // displace it under us.
        let cur_ref = unsafe { &*cur };
        let now = self.epoch.load(store::STAT);
        if cur_ref.epoch == now {
            // A rival forked this slot while we waited on the lock.
            return cur_ref;
        }
        // The stale node is frozen for this whole phase (writers fork
        // first), so plain per-cell loads copy a consistent image.
        let cells: Box<[AtomicU64]> =
            cur_ref.cells.iter().map(|c| AtomicU64::new(c.load(store::STAT))).collect();
        self.segments_forked.fetch_add(1, Ordering::Relaxed);
        self.cow_copies.fetch_add(cells.len() as u64, Ordering::Relaxed);
        let raw = Arc::into_raw(Arc::new(SegmentNode { epoch: now, cells })) as *mut SegmentNode;
        self.slots[s].store(raw, store::CAS_SUCCESS);
        // Park the displaced node: a concurrent reader may have loaded the
        // old pointer before our store and still be walking its cells.
        // SAFETY: `cur` was the directory's strong reference; the slot no
        // longer holds it, the graveyard now does.
        graveyard.push(unsafe { Arc::from_raw(cur) });
        // SAFETY: just installed from `Arc::into_raw`; same lifetime
        // argument as `node()`.
        unsafe { &*raw }
    }

    /// The node of segment `s`, forked to the current epoch if it is
    /// shared — every write goes through here.
    #[inline]
    fn writable_node(&self, s: usize) -> &SegmentNode {
        let node = self.node(s);
        if node.epoch == self.epoch.load(store::STAT) {
            node
        } else {
            self.fork_slot(s)
        }
    }
}

impl Drop for EpochStore {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: the directory owns one strong count per
                // non-null slot; reclaim it. Graveyard and snapshot Arcs
                // drop through their own owners.
                unsafe { drop(Arc::from_raw(p)) };
            }
        }
    }
}

impl ParentStore for EpochStore {
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
        let (s, off) = locate(i);
        // Fork before writing a shared segment. A fork copies words
        // verbatim, so `seen` transfers: if the cell still holds `seen`
        // the CAS below succeeds on the fork exactly as it would have on
        // the original, and Lemma 3.1's monotone ids rule out ABA across
        // the copy just as they do across time.
        self.writable_node(s).cells[off]
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

impl IdOrder for EpochStore {
    fn less(&self, u: usize, v: usize) -> bool {
        // 32-bit hash ids can collide; the index tie-break keeps the order
        // total (paper Section 7's tie-breaking rule).
        self.key(u) < self.key(v)
    }
}

impl GrowableStore for EpochStore {
    const NAME: &'static str = "epoch-seg";

    fn with_seed(seed: u64) -> Self {
        EpochStore {
            slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            epoch: AtomicU64::new(0),
            salt: seed,
            graveyard: Mutex::new(Vec::new()),
            segments_forked: AtomicU64::new(0),
            cow_copies: AtomicU64::new(0),
        }
    }

    fn ensure(&self, e: usize) {
        assert!(
            (e as u64) < (1 << 32),
            "EpochStore packs parent and id into 32 bits each and supports at most 2^32 \
             elements, but make_set would create element {e}; only fixed universes have a \
             wider layout (`Dsu<_, FlatStore>`)"
        );
        let (s, _off) = locate(e);
        if self.slots[s].load(store::LOAD).is_null() {
            self.alloc_slot(s);
        }
        // A non-null slot needs nothing: allocation pre-fills *every* cell
        // of the segment as a singleton, and a cell can only have left the
        // singleton state if its element existed — which is also what
        // makes index reuse after a rollback sound (cells at or above the
        // snapshot's len in a recorded node were untouched singletons).
    }

    fn scan_runs(&self, len: usize) -> Vec<Range<usize>> {
        (0..SEGMENTS)
            .map(|s| (s, segment_base(s)))
            .take_while(|&(_, base)| base < len)
            .filter(|&(s, _)| !self.slots[s].load(store::LOAD).is_null())
            .map(|(s, base)| base..(base + segment_len(s)).min(len))
            .collect()
    }
}

impl EpochFork for EpochStore {
    fn current_epoch(&self) -> u64 {
        self.epoch.load(store::STAT)
    }

    fn fork_point(&mut self) -> SegmentSnapshot {
        let epoch = *self.epoch.get_mut();
        let segs = self
            .slots
            .iter_mut()
            .map(|slot| {
                let p = *slot.get_mut();
                if p.is_null() {
                    None
                } else {
                    // SAFETY: the directory's strong count keeps `p` live;
                    // mint one more for the snapshot.
                    unsafe {
                        Arc::increment_strong_count(p);
                        Some(Arc::from_raw(p as *const SegmentNode))
                    }
                }
            })
            .collect();
        *self.epoch.get_mut() = epoch + 1;
        self.purge_graveyard();
        SegmentSnapshot { epoch, segs }
    }

    fn restore(&mut self, snap: &SegmentSnapshot) {
        for (slot, rec) in self.slots.iter_mut().zip(&snap.segs) {
            let cur = *slot.get_mut();
            let new = match rec {
                Some(arc) => Arc::into_raw(Arc::clone(arc)) as *mut SegmentNode,
                None => std::ptr::null_mut(),
            };
            *slot.get_mut() = new;
            if !cur.is_null() {
                // SAFETY: reclaiming the directory's previous strong
                // count. When the slot was never forked after the
                // snapshot, `cur == new` and this just undoes the clone
                // above — net zero.
                unsafe { drop(Arc::from_raw(cur)) };
            }
        }
        // Bump the epoch so the restored nodes are stale again: the next
        // write forks, and `snap` stays valid for another restore.
        *self.epoch.get_mut() += 1;
        self.purge_graveyard();
    }

    fn purge_graveyard(&mut self) {
        self.graveyard.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
    }

    fn epoch_report(&self) -> EpochReport {
        EpochReport {
            segments_forked: self.segments_forked.load(Ordering::Relaxed),
            cow_copies: self.cow_copies.load(Ordering::Relaxed),
        }
    }

    fn raw_words(&self, len: usize) -> Vec<u64> {
        (0..len).map(|i| self.cell(i).load(store::STAT)).collect()
    }
}

// Chaos composition: a FaultyStore over an epoch-forking store is itself
// growable and epoch-forking, so `VersionedDsu<F, FaultyStore<EpochStore>>`
// drops injected CAS failures / delayed loads / stalls under the whole
// snapshot → ingest → validate → rollback machinery. Fork copies and
// directory swings go through the inner store directly — injection targets
// the algorithm's primitive accesses, not the versioning bookkeeping.
impl<S: GrowableStore> GrowableStore for FaultyStore<S> {
    const NAME: &'static str = "faulty-seg";

    fn with_seed(seed: u64) -> Self {
        FaultyStore::with_plan(S::with_seed(seed), crate::FaultPlan::from_env())
    }

    fn ensure(&self, e: usize) {
        self.inner().ensure(e);
    }

    fn scan_runs(&self, len: usize) -> Vec<Range<usize>> {
        self.inner().scan_runs(len)
    }
}

impl<S: EpochFork> EpochFork for FaultyStore<S> {
    fn current_epoch(&self) -> u64 {
        self.inner().current_epoch()
    }

    fn fork_point(&mut self) -> SegmentSnapshot {
        self.inner_mut().fork_point()
    }

    fn restore(&mut self, snap: &SegmentSnapshot) {
        self.inner_mut().restore(snap);
    }

    fn purge_graveyard(&mut self) {
        self.inner_mut().purge_graveyard();
    }

    fn epoch_report(&self) -> EpochReport {
        self.inner().epoch_report()
    }

    fn raw_words(&self, len: usize) -> Vec<u64> {
        self.inner().raw_words(len)
    }
}

/// A handle naming one recorded snapshot of a [`VersionedDsu`] — returned
/// by [`snapshot`](VersionedDsu::snapshot), consumed by
/// [`rollback`](VersionedDsu::rollback) and the time-travel queries.
/// Plain data; stale handles (dropped or rolled past) make the consuming
/// methods panic rather than silently answer about the wrong version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch(u64);

impl Epoch {
    /// The underlying epoch number (diagnostics; monotonically increasing
    /// per structure).
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Verdict of a speculative [`try_unite_batch`](VersionedDsu::try_unite_batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The validator accepted the post-ingest state; the batch's `linked`
    /// successful links are permanent and the speculation snapshot was
    /// discarded.
    Committed {
        /// Number of edges that performed a link.
        linked: usize,
    },
    /// The validator rejected the post-ingest state; the forest was rolled
    /// back — bit-identical — to the pre-batch snapshot.
    RolledBack,
}

impl BatchOutcome {
    /// `true` on [`Committed`](BatchOutcome::Committed).
    pub fn is_committed(&self) -> bool {
        matches!(self, BatchOutcome::Committed { .. })
    }
}

/// One retained snapshot: the frozen segment directory plus the scalar
/// counters that must travel with it on rollback.
struct SnapRecord {
    epoch: u64,
    len: usize,
    links: usize,
    segs: SegmentSnapshot,
}

/// A [`GrowableDsu`] with O(1) snapshots, rollback, speculative batches,
/// and time-travel queries, over any [`EpochFork`] store (default:
/// [`EpochStore`]).
///
/// Concurrent operations (`unite`, `same_set`, `unite_batch`, `make_set`,
/// time-travel reads) take `&self` and run from many threads exactly like
/// [`GrowableDsu`]'s; epoch transitions (`snapshot`, `rollback`,
/// `try_unite_batch`, `ingest_batch`) take `&mut self`, which is how the
/// compiler enforces the quiescence the copy-on-write protocol needs (see
/// the module docs).
///
/// # Example
///
/// ```
/// use concurrent_dsu::VersionedDsu;
///
/// let mut dsu: VersionedDsu = VersionedDsu::with_initial(4);
/// dsu.unite(0, 1);
/// let before = dsu.snapshot(); // O(1): no cells copied
/// dsu.unite(2, 3);
/// dsu.unite(0, 3);
/// assert_eq!(dsu.set_count(), 1);
/// assert!(!dsu.same_set_at(before, 0, 3)); // time travel
/// dsu.rollback(before); // bit-identical restore
/// assert!(dsu.same_set(0, 1));
/// assert!(!dsu.same_set(2, 3));
/// ```
pub struct VersionedDsu<
    F: FindPolicy = TwoTrySplit,
    S: EpochFork = EpochStore,
    L: LinkPolicy = crate::DefaultLink,
> {
    dsu: GrowableDsu<F, S, L>,
    /// Retained snapshots, epoch-ascending (each `fork_point` bumps).
    snaps: Vec<SnapRecord>,
    snapshots_taken: u64,
    rollbacks: u64,
    /// Auto-snapshot cadence for `ingest_batch` (`DSU_EPOCH_EVERY`).
    every: Option<NonZeroUsize>,
    batches: u64,
    /// Epoch of the snapshot the auto policy currently retains (replaced,
    /// not accumulated, so snapshot-every-batch keeps one live snapshot).
    auto_snap: Option<u64>,
}

impl<F: FindPolicy, S: EpochFork, L: LinkPolicy> Default for VersionedDsu<F, S, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: FindPolicy, S: EpochFork, L: LinkPolicy> std::fmt::Debug for VersionedDsu<F, S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedDsu")
            .field("dsu", &self.dsu)
            .field("epoch", &self.dsu.store().current_epoch())
            .field("snapshots", &self.snaps.len())
            .field("snapshots_taken", &self.snapshots_taken)
            .field("rollbacks", &self.rollbacks)
            .finish()
    }
}

impl<F: FindPolicy, S: EpochFork, L: LinkPolicy> VersionedDsu<F, S, L> {
    /// An empty versioned universe (auto-snapshot cadence from
    /// `DSU_EPOCH_EVERY`).
    pub fn new() -> Self {
        Self::from_dsu(GrowableDsu::new())
    }

    /// An empty versioned universe whose random order is salted by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::from_dsu(GrowableDsu::with_seed(seed))
    }

    /// A versioned universe pre-populated with `n` singletons `0..n`.
    pub fn with_initial(n: usize) -> Self {
        Self::from_dsu(GrowableDsu::with_initial(n))
    }

    /// Wraps an already-built growable structure (it keeps its contents;
    /// versioning starts with no snapshots).
    pub fn from_dsu(dsu: GrowableDsu<F, S, L>) -> Self {
        VersionedDsu {
            dsu,
            snaps: Vec::new(),
            snapshots_taken: 0,
            rollbacks: 0,
            every: epoch_every_from_env(),
            batches: 0,
            auto_snap: None,
        }
    }

    /// The wrapped structure — every [`GrowableDsu`] operation (flatten
    /// sweeps, stats variants) is available through it; shared-state
    /// mutations it performs are
    /// versioned like any other (they go through the store).
    pub fn dsu(&self) -> &GrowableDsu<F, S, L> {
        &self.dsu
    }

    // ----- Delegated operations (concurrent, &self) -----

    /// See [`GrowableDsu::make_set`]. New elements created after a
    /// snapshot simply don't exist at that snapshot — rolling back
    /// shrinks [`len`](VersionedDsu::len) back and the indices are reused
    /// by later `make_set` calls.
    pub fn make_set(&self) -> usize {
        self.dsu.make_set()
    }

    /// See [`GrowableDsu::len`].
    pub fn len(&self) -> usize {
        self.dsu.len()
    }

    /// `true` before the first `make_set`.
    pub fn is_empty(&self) -> bool {
        self.dsu.is_empty()
    }

    /// See [`GrowableDsu::set_count`].
    pub fn set_count(&self) -> usize {
        self.dsu.set_count()
    }

    /// See [`GrowableDsu::find`].
    pub fn find(&self, x: usize) -> usize {
        self.dsu.find(x)
    }

    /// See [`GrowableDsu::same_set`].
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.dsu.same_set(x, y)
    }

    /// See [`GrowableDsu::unite`].
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.dsu.unite(x, y)
    }

    /// See [`GrowableDsu::unite_batch`]. Does *not* consult the
    /// auto-snapshot policy — that belongs to the `&mut` ingestion path
    /// ([`ingest_batch`](VersionedDsu::ingest_batch)), because snapshots
    /// need quiescence.
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.dsu.unite_batch(edges)
    }

    /// See [`GrowableDsu::labels_snapshot`] (quiescent).
    pub fn labels_snapshot(&self) -> Vec<usize> {
        self.dsu.labels_snapshot()
    }

    // ----- Epoch transitions (quiescent, &mut self) -----

    /// Records an O(1) snapshot of the current forest and returns its
    /// handle. Cost: ≤ 64 `Arc` clones and one counter bump — no cells
    /// are copied now; the first post-snapshot write to each segment pays
    /// a one-time copy-on-write fork instead.
    pub fn snapshot(&mut self) -> Epoch {
        self.snapshot_with(&mut ())
    }

    /// [`snapshot`](VersionedDsu::snapshot) reporting the event into
    /// `stats`.
    pub fn snapshot_with<Sk: StatsSink>(&mut self, stats: &mut Sk) -> Epoch {
        let len = self.dsu.len();
        let links = len - self.dsu.set_count();
        let segs = self.dsu.store_mut().fork_point();
        let epoch = segs.epoch();
        self.snaps.push(SnapRecord { epoch, len, links, segs });
        self.snapshots_taken += 1;
        stats.snapshot_taken();
        Epoch(epoch)
    }

    /// Restores the forest to snapshot `at` — bit-identical: the directory
    /// swings back to the *recorded segment nodes themselves*, which no
    /// post-snapshot write touched (they all went to forks). Elements
    /// created since roll away ([`len`](VersionedDsu::len) shrinks back);
    /// snapshots taken after `at` are discarded (they describe an
    /// abandoned future); `at` itself stays valid for further rollbacks
    /// and time-travel queries.
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped or already rolled past.
    pub fn rollback(&mut self, at: Epoch) {
        self.rollback_with(at, &mut ());
    }

    /// [`rollback`](VersionedDsu::rollback) reporting the event into
    /// `stats`.
    pub fn rollback_with<Sk: StatsSink>(&mut self, at: Epoch, stats: &mut Sk) {
        let idx = self
            .snaps
            .iter()
            .position(|r| r.epoch == at.0)
            .expect("rollback target unknown: the snapshot was dropped or already rolled past");
        self.snaps.truncate(idx + 1);
        if self.auto_snap.is_some_and(|e| e > at.0) {
            self.auto_snap = None;
        }
        let rec = &self.snaps[idx];
        self.dsu.store_mut().restore(&rec.segs);
        self.dsu.restore_counters(rec.len, rec.links);
        self.rollbacks += 1;
        stats.rollback_done();
    }

    /// Forgets snapshot `at`, releasing its segment references (and any
    /// fork graveyard — this is a quiescent point). Later and earlier
    /// snapshots are unaffected. No-op if `at` is already gone.
    pub fn drop_snapshot(&mut self, at: Epoch) {
        if let Some(idx) = self.snaps.iter().position(|r| r.epoch == at.0) {
            self.snaps.remove(idx);
        }
        if self.auto_snap == Some(at.0) {
            self.auto_snap = None;
        }
        self.dsu.store_mut().purge_graveyard();
    }

    /// Handles of every retained snapshot, oldest first.
    pub fn snapshots(&self) -> Vec<Epoch> {
        self.snaps.iter().map(|r| Epoch(r.epoch)).collect()
    }

    /// The snapshot the auto policy (`DSU_EPOCH_EVERY`) currently retains.
    pub fn last_auto_snapshot(&self) -> Option<Epoch> {
        self.auto_snap.map(Epoch)
    }

    /// O(1) snapshots recorded over this structure's lifetime.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Rollbacks performed over this structure's lifetime.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// The auto-snapshot cadence in force (`None`: never).
    pub fn snapshot_every(&self) -> Option<NonZeroUsize> {
        self.every
    }

    /// Replaces the auto-snapshot cadence (overriding `DSU_EPOCH_EVERY`).
    pub fn set_snapshot_every(&mut self, every: Option<NonZeroUsize>) {
        self.every = every;
    }

    /// Feeds lifetime totals — snapshots, rollbacks, and the store's
    /// copy-on-write work — into `stats`, the attribution protocol
    /// `store_diag` uses (mirrors
    /// [`TunedDsu::report_into`](crate::TunedDsu::report_into) and
    /// [`FaultyStore::fault_report`](crate::FaultyStore::fault_report)).
    pub fn report_into<Sk: StatsSink>(&self, stats: &mut Sk) {
        for _ in 0..self.snapshots_taken {
            stats.snapshot_taken();
        }
        for _ in 0..self.rollbacks {
            stats.rollback_done();
        }
        let report = self.dsu.store().epoch_report();
        stats.segments_forked(report.segments_forked as usize);
        stats.cow_copies(report.cow_copies as usize);
    }

    /// Speculative batch: snapshot, ingest `edges` through the batch path,
    /// hand the post-ingest structure (and the link count) to `validate`,
    /// and either commit (discarding the snapshot) or roll back
    /// bit-identically. The all-or-nothing ingestion primitive for
    /// untrusted upstream data.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range — *before* any state
    /// changes, per [`GrowableDsu::unite_batch`]'s up-front bounds check.
    pub fn try_unite_batch<V>(&mut self, edges: &[(usize, usize)], validate: V) -> BatchOutcome
    where
        V: FnOnce(&GrowableDsu<F, S, L>, usize) -> bool,
    {
        self.try_unite_batch_with(edges, validate, &mut ())
    }

    /// [`try_unite_batch`](VersionedDsu::try_unite_batch) reporting all
    /// events (snapshot, batch work, possible rollback) into `stats`.
    pub fn try_unite_batch_with<V, Sk>(
        &mut self,
        edges: &[(usize, usize)],
        validate: V,
        stats: &mut Sk,
    ) -> BatchOutcome
    where
        V: FnOnce(&GrowableDsu<F, S, L>, usize) -> bool,
        Sk: StatsSink,
    {
        let at = self.snapshot_with(stats);
        let linked = self.dsu.unite_batch_with(edges, stats);
        let verdict = if validate(&self.dsu, linked) {
            BatchOutcome::Committed { linked }
        } else {
            self.rollback_with(at, stats);
            BatchOutcome::RolledBack
        };
        self.drop_snapshot(at);
        verdict
    }

    /// Batch ingestion honoring the auto-snapshot policy
    /// (`DSU_EPOCH_EVERY` / [`set_snapshot_every`]): before every `k`-th
    /// batch the previous auto snapshot is replaced by a fresh one, so a
    /// poisoned batch discovered after the fact can be rolled off via
    /// [`last_auto_snapshot`](VersionedDsu::last_auto_snapshot). With the
    /// policy off this is exactly
    /// [`unite_batch`](VersionedDsu::unite_batch) (plus quiescence).
    ///
    /// [`set_snapshot_every`]: VersionedDsu::set_snapshot_every
    pub fn ingest_batch(&mut self, edges: &[(usize, usize)]) -> usize {
        self.ingest_batch_with(edges, &mut ())
    }

    /// [`ingest_batch`](VersionedDsu::ingest_batch) reporting work into
    /// `stats`.
    pub fn ingest_batch_with<Sk: StatsSink>(
        &mut self,
        edges: &[(usize, usize)],
        stats: &mut Sk,
    ) -> usize {
        if let Some(k) = self.every {
            if self.batches.is_multiple_of(k.get() as u64) {
                if let Some(old) = self.auto_snap.take() {
                    self.drop_snapshot(Epoch(old));
                }
                self.auto_snap = Some(self.snapshot_with(stats).0);
            }
            self.batches += 1;
        }
        self.dsu.unite_batch_with(edges, stats)
    }

    // ----- Time-travel queries (concurrent, &self) -----

    fn record(&self, at: Epoch) -> &SnapRecord {
        self.snaps
            .iter()
            .find(|r| r.epoch == at.0)
            .expect("epoch unknown: the snapshot was dropped or rolled past")
    }

    /// The number of elements that existed at snapshot `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped or rolled past.
    pub fn len_at(&self, at: Epoch) -> usize {
        self.record(at).len
    }

    /// The root of `x`'s tree *as recorded at snapshot `at`* — a plain
    /// sequential walk over the frozen segments, safe concurrently with
    /// ongoing current-epoch operations. Unlike live
    /// [`find`](VersionedDsu::find), the result is stable: the snapshot
    /// never changes.
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped or rolled past, or `x` did not exist at
    /// `at`.
    pub fn find_at(&self, at: Epoch, x: usize) -> usize {
        let rec = self.record(at);
        assert!(x < rec.len, "element {x} out of range at epoch {} (len was {})", at.0, rec.len);
        let mut u = x;
        loop {
            let p = rec.segs.parent_of(u);
            if p == u {
                return u;
            }
            u = p;
        }
    }

    /// `true` iff `x` and `y` were in the same set at snapshot `at` — the
    /// time-travel query. Exact (not merely linearizable): the snapshot
    /// is one frozen forest.
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped or rolled past, or an element did not
    /// exist at `at`.
    pub fn same_set_at(&self, at: Epoch, x: usize, y: usize) -> bool {
        self.find_at(at, x) == self.find_at(at, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::splitmix64;
    use crate::stats::OpStats;

    type VDsu = VersionedDsu<TwoTrySplit, EpochStore, crate::DefaultLink>;

    #[test]
    fn parse_epoch_every_grammar() {
        assert_eq!(parse_epoch_every("off"), Some(None));
        assert_eq!(parse_epoch_every("OFF"), Some(None));
        assert_eq!(parse_epoch_every("0"), Some(None));
        assert_eq!(parse_epoch_every(" 3 "), Some(NonZeroUsize::new(3)));
        assert_eq!(parse_epoch_every("1"), Some(NonZeroUsize::new(1)));
        assert_eq!(parse_epoch_every(""), None);
        assert_eq!(parse_epoch_every("every=2"), None);
        assert_eq!(parse_epoch_every("-1"), None);
        assert_eq!(parse_epoch_every("bogus"), None);
    }

    #[test]
    fn snapshot_rollback_roundtrip_is_bit_identical() {
        let mut dsu = VDsu::with_initial(64);
        for i in 0..32 {
            dsu.unite(i, i + 32);
        }
        let words_before = dsu.dsu().store().raw_words(dsu.len());
        let labels_before = dsu.labels_snapshot();
        let snap = dsu.snapshot();

        // Mutate heavily: new links, new elements, a flatten sweep.
        for i in 0..63 {
            dsu.unite(i, i + 1);
        }
        let extra = dsu.make_set();
        dsu.unite(0, extra);
        dsu.dsu().flatten();
        assert_eq!(dsu.set_count(), 1);

        dsu.rollback(snap);
        assert_eq!(dsu.len(), 64, "rollback must shrink len back");
        assert_eq!(dsu.dsu().store().raw_words(dsu.len()), words_before, "bit-identical restore");
        assert_eq!(dsu.labels_snapshot(), labels_before);
        assert_eq!(dsu.set_count(), 32);
    }

    #[test]
    fn rollback_target_survives_for_repeated_rollbacks() {
        let mut dsu = VDsu::with_initial(8);
        let snap = dsu.snapshot();
        for round in 0..3 {
            dsu.unite(0, 1);
            dsu.unite(2, 3);
            assert_eq!(dsu.set_count(), 6, "round {round}");
            dsu.rollback(snap);
            assert_eq!(dsu.set_count(), 8, "round {round}");
        }
        assert_eq!(dsu.rollbacks(), 3);
    }

    #[test]
    fn time_travel_queries_answer_at_the_snapshot() {
        let mut dsu = VDsu::with_initial(6);
        dsu.unite(0, 1);
        let early = dsu.snapshot();
        dsu.unite(1, 2);
        let late = dsu.snapshot();
        dsu.unite(3, 4);

        assert!(dsu.same_set_at(early, 0, 1));
        assert!(!dsu.same_set_at(early, 0, 2), "0-2 merged after `early`");
        assert!(dsu.same_set_at(late, 0, 2));
        assert!(!dsu.same_set_at(late, 3, 4), "3-4 merged after `late`");
        assert!(dsu.same_set(3, 4), "the live view sees everything");
        assert_eq!(dsu.len_at(early), 6);
        // find_at is stable and self-consistent within a snapshot.
        assert_eq!(dsu.find_at(early, 0), dsu.find_at(early, 1));
    }

    #[test]
    #[should_panic(expected = "out of range at epoch")]
    fn time_travel_rejects_elements_born_after_the_snapshot() {
        let mut dsu = VDsu::with_initial(2);
        let snap = dsu.snapshot();
        let e = dsu.make_set();
        dsu.find_at(snap, e);
    }

    #[test]
    #[should_panic(expected = "dropped or rolled past")]
    fn rollback_discards_later_snapshots() {
        let mut dsu = VDsu::with_initial(4);
        let early = dsu.snapshot();
        dsu.unite(0, 1);
        let late = dsu.snapshot();
        dsu.rollback(early);
        dsu.same_set_at(late, 0, 1); // `late` described an abandoned future
    }

    #[test]
    fn drop_snapshot_releases_and_later_queries_panic() {
        let mut dsu = VDsu::with_initial(4);
        let snap = dsu.snapshot();
        dsu.drop_snapshot(snap);
        dsu.drop_snapshot(snap); // idempotent
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dsu.rollback(snap);
        }))
        .is_err());
    }

    #[test]
    fn cow_counters_attribute_forks_and_nothing_else() {
        let mut dsu = VDsu::with_initial(32);
        for i in 0..16 {
            dsu.unite(i, i + 16);
        }
        let before = dsu.dsu().store().epoch_report();
        assert_eq!(before, EpochReport::default(), "no snapshot -> zero CoW work");

        let snap = dsu.snapshot();
        let mut stats = OpStats::default();
        // First write after the snapshot forks the written segment(s).
        dsu.dsu().unite_with(20, 21, &mut stats);
        let after = dsu.dsu().store().epoch_report();
        assert!(after.segments_forked > 0, "post-snapshot write must fork: {after:?}");
        assert!(after.cow_copies >= after.segments_forked, "forks copy whole segments");

        // Writing the same segment again in the same epoch forks nothing.
        let settled = dsu.dsu().store().epoch_report();
        dsu.dsu().unite(20, 22);
        assert_eq!(dsu.dsu().store().epoch_report(), settled, "second write is fork-free");

        dsu.rollback(snap);
        let mut total = OpStats::default();
        dsu.report_into(&mut total);
        assert_eq!(total.snapshots_taken, 1);
        assert_eq!(total.rollbacks, 1);
        assert_eq!(total.segments_forked, after.segments_forked);
        assert_eq!(total.cow_copies, after.cow_copies);
    }

    #[test]
    fn try_unite_batch_commits_and_rolls_back() {
        let mut dsu = VDsu::with_initial(16);
        let edges: Vec<(usize, usize)> = (0..15).map(|i| (i, i + 1)).collect();

        // Validator rejects: everything rolls back bit-identically.
        let words = dsu.dsu().store().raw_words(dsu.len());
        let outcome = dsu.try_unite_batch(&edges, |_, linked| linked < 10);
        assert_eq!(outcome, BatchOutcome::RolledBack);
        assert!(!outcome.is_committed());
        assert_eq!(dsu.set_count(), 16);
        assert_eq!(dsu.dsu().store().raw_words(dsu.len()), words);
        assert!(dsu.snapshots().is_empty(), "speculation snapshot is cleaned up");

        // Validator accepts: links stick.
        let outcome = dsu.try_unite_batch(&edges, |d, linked| linked == 15 && d.same_set(0, 15));
        assert_eq!(outcome, BatchOutcome::Committed { linked: 15 });
        assert_eq!(dsu.set_count(), 1);
        assert!(dsu.snapshots().is_empty());
    }

    #[test]
    fn ingest_batch_auto_snapshot_policy() {
        let mut dsu = VDsu::with_initial(32);
        assert_eq!(dsu.last_auto_snapshot(), None);
        dsu.set_snapshot_every(NonZeroUsize::new(2));

        dsu.ingest_batch(&[(0, 1)]); // batch 0: snapshots
        let first = dsu.last_auto_snapshot().expect("batch 0 must snapshot");
        dsu.ingest_batch(&[(1, 2)]); // batch 1: no snapshot
        assert_eq!(dsu.last_auto_snapshot(), Some(first));
        dsu.ingest_batch(&[(2, 3)]); // batch 2: replaces the auto snapshot
        let second = dsu.last_auto_snapshot().expect("batch 2 must snapshot");
        assert_ne!(first, second);
        assert_eq!(dsu.snapshots().len(), 1, "auto snapshots replace, not accumulate");

        // Rolling off the last batch via the auto snapshot: 2-3 vanishes,
        // the committed 0-1-2 chain survives.
        dsu.rollback(second);
        assert!(dsu.same_set(0, 2));
        assert!(!dsu.same_set(2, 3));

        dsu.set_snapshot_every(None);
        let snaps = dsu.snapshots().len();
        dsu.ingest_batch(&[(4, 5)]);
        assert_eq!(dsu.snapshots().len(), snaps, "policy off -> no new snapshots");
    }

    #[test]
    fn make_set_after_rollback_reuses_indices_as_singletons() {
        let mut dsu = VDsu::with_initial(4);
        let snap = dsu.snapshot();
        let a = dsu.make_set();
        dsu.unite(0, a);
        assert!(dsu.same_set(0, a));
        dsu.rollback(snap);
        assert_eq!(dsu.len(), 4);
        // The same index comes back — as a fresh singleton, because the
        // recorded segment's cells at or above the snapshot len were
        // untouched singletons.
        let b = dsu.make_set();
        assert_eq!(a, b);
        assert!(!dsu.same_set(0, b));
    }

    #[test]
    fn versioned_growth_crosses_segment_boundaries() {
        // Snapshot with few segments, grow across several boundaries,
        // roll back, regrow: directory slots allocated after the snapshot
        // must be dropped by restore and re-allocatable after.
        let mut dsu = VDsu::with_initial(3); // segments 0..2 live
        let snap = dsu.snapshot();
        for _ in 0..200 {
            dsu.make_set(); // allocates segments 2..8
        }
        dsu.unite(0, 150);
        dsu.rollback(snap);
        assert_eq!(dsu.len(), 3);
        for _ in 0..200 {
            dsu.make_set();
        }
        assert!(!dsu.same_set(0, 150));
        dsu.unite(0, 150);
        assert!(dsu.same_set(0, 150));
    }

    #[test]
    fn locate_packs_segments_exactly() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (0, 1));
        assert_eq!(locate(2), (1, 0));
        assert_eq!(locate(3), (1, 1));
        assert_eq!(locate(4), (2, 0));
        assert_eq!(locate(7), (2, 3));
        assert_eq!(locate(8), (3, 0));
        assert_eq!(locate((1 << 32) - 1), (31, (1 << 31) - 1));
        // Dense, in bounds, and inverse to `segment_base`.
        for e in 0..10_000 {
            let (s, off) = locate(e);
            assert!(off < segment_len(s));
            assert_eq!(segment_base(s) + off, e);
            assert_eq!(segment_base(s + 1), segment_base(s) + segment_len(s));
        }
    }

    /// Cells allocated across the directory (test-only; quiescent).
    fn allocated_cells(store: &EpochStore) -> usize {
        (0..SEGMENTS)
            .filter(|&s| !store.slots[s].load(store::STAT).is_null())
            .map(|s| store.node(s).cells.len())
            .sum()
    }

    #[test]
    fn with_initial_power_of_two_allocates_exactly_that_many_cells() {
        for k in [1, 2, 3, 5, 10, 16] {
            let dsu: GrowableDsu = GrowableDsu::with_initial(1 << k);
            assert_eq!(allocated_cells(dsu.store()), 1 << k, "k = {k}");
            // One element more opens exactly one more segment, as big as
            // everything before it.
            dsu.make_set();
            assert_eq!(allocated_cells(dsu.store()), 2 << k, "k = {k}, +1");
        }
    }

    #[test]
    fn singleton_words_carry_the_hashed_id() {
        // The id format every growable structure links by: the top half
        // of SplitMix64 of the salted index, in the high word half.
        let dsu: GrowableDsu = GrowableDsu::with_seed(77);
        for _ in 0..100 {
            dsu.make_set();
        }
        let words = dsu.store().raw_words(100);
        for (e, &w) in words.iter().enumerate() {
            let id = splitmix64((e as u64).wrapping_add(77)) >> 32;
            assert_eq!(w, store::pack_word(id, e), "element {e}");
        }
    }

    /// The 2^32 bound must both state itself and name the only wider
    /// layout, and it must fire before any allocation (the segment holding
    /// element 2^32 would be 32 GiB).
    #[test]
    fn oversize_panic_states_the_bound_and_the_fixed_fallback() {
        let store = <EpochStore as GrowableStore>::with_seed(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.ensure(1 << 32);
        }))
        .expect_err("element 2^32 must be rejected");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("at most 2^32"), "panic must state the bound: {msg}");
        assert!(msg.contains("Dsu<_, FlatStore>"), "panic must name the flat layout: {msg}");
        assert_eq!(allocated_cells(&store), 0, "the check must precede allocation");
    }

    #[test]
    fn faulty_epoch_store_composes() {
        // FaultyStore<EpochStore> must version and inject at once.
        let plan = crate::FaultPlan::rate(5, 0.3);
        let store = FaultyStore::with_plan(<EpochStore as GrowableStore>::with_seed(9), plan);
        let mut dsu: VersionedDsu<TwoTrySplit, FaultyStore<EpochStore>> =
            VersionedDsu::from_dsu(GrowableDsu::from_store(store));
        for _ in 0..32 {
            dsu.make_set();
        }
        for i in 0..16 {
            dsu.unite(i, i + 16);
        }
        let words = dsu.dsu().store().raw_words(dsu.len());
        let outcome = dsu.try_unite_batch(&[(0, 1), (2, 3)], |_, _| false);
        assert_eq!(outcome, BatchOutcome::RolledBack);
        assert_eq!(dsu.dsu().store().raw_words(dsu.len()), words, "chaos rollback bit-identical");
        assert!(
            dsu.dsu().store().fault_report().total() > 0,
            "rate 0.3 must actually inject through the versioned stack"
        );
        assert_eq!(<FaultyStore<EpochStore> as GrowableStore>::NAME, "faulty-seg");
    }

    #[test]
    fn concurrent_phase_between_snapshots() {
        // Threads hammer unites/queries/make_sets between two quiescent
        // epoch transitions; the snapshot taken before the storm must
        // still answer exactly and restore exactly.
        let mut dsu = VDsu::with_initial(256);
        for i in 0..128 {
            dsu.unite(i, i + 128);
        }
        let labels_before = dsu.labels_snapshot();
        let snap = dsu.snapshot();
        std::thread::scope(|s| {
            for t in 0..4 {
                let dsu = &dsu;
                s.spawn(move || {
                    for i in 0..512usize {
                        let (x, y) = ((i * 7 + t * 31) % 256, (i * 13 + 5) % 256);
                        dsu.unite(x, y);
                        dsu.same_set(x, y);
                        // Time-travel reads race with the writers by design.
                        let _ = dsu.same_set_at(snap, x, y);
                    }
                });
            }
        });
        dsu.rollback(snap);
        assert_eq!(dsu.labels_snapshot(), labels_before);
    }
}
