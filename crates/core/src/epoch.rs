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
//! because segments never move and there are at most 32 of them (a
//! bulk-built universe's sized prefix is one such unit; see Geometry).
//!
//! # The design in one paragraph
//!
//! [`EpochStore`] is the one growable layout — packed `id << 32 | parent`
//! words, the [`PackedStore`](crate::PackedStore) format — with each
//! segment (or the sized prefix) behind an `Arc`-counted *segment node*
//! stamped with the epoch it was created in. [`VersionedDsu::snapshot`]
//! is O(segments), i.e. O(1) in the element count: record the element
//! count, clone the ≤ 32 live segment `Arc`s and bump the epoch counter —
//! no cell is copied. Afterward every recorded segment is *shared*; the first
//! `cas_from` that would write a shared (stale-epoch) segment first
//! **forks** it — copies its cells into a fresh node stamped with the
//! current epoch and swings the directory slot — and only then CASes.
//! Reads never fork. [`VersionedDsu::rollback`] swings the slots back to
//! the recorded nodes (bit-identical: they are the *same cells* the
//! snapshot froze, untouched since — every post-snapshot write went to a
//! fork), and [`VersionedDsu::same_set_at`] answers time-travel queries
//! by walking a retained snapshot's frozen segments.
//!
//! # Geometry: a sized prefix, then doubling segments
//!
//! The directory has 32 slots. Grown from empty by `make_set`, the store
//! puts elements `{0, 1}` in segment 0 and `2^s .. 2^(s+1)` in segment
//! `s ≥ 1`. Built with `n > 0` elements
//! ([`DsuStore::with_seed`]`(n, seed)`), it puts elements `0..P`,
//! `P = max(2, n.next_power_of_two())`, in **one** node in slot 0: the
//! *sized prefix*. Those are exactly the `P` cells segments `0..log2 P`
//! would hold, so memory does not change. Slots `1..log2 P` stay empty
//! for life, `make_set` up to `P` allocates nothing, and elements from `P`
//! on open the doubling segments `log2 P, log2 P + 1, …` as before. `P`
//! never changes, and every [`SegmentSnapshot`] records it.
//!
//! A read of `i < P` is one compare against `P`, one `Acquire` load of the
//! prefix node's cells pointer, and an index: no `ilog2`, no directory
//! slot, no null check and no slice bounds check (the compare is the
//! bounds check). Elements past the prefix pay that segment lookup.
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
//! * The prefix forks as one unit: the first write after a snapshot to any
//!   element below `P` copies all `P` cells. Readers reach the prefix
//!   through its cells pointer and writers through slot 0 (they need the
//!   node's epoch), so the two must always agree on the current node. A
//!   fork therefore stores the copy's cells pointer *before* it swings
//!   slot 0, both with `Release`. A writer that finds the copy in slot 0
//!   synchronizes with the swing and so with the pointer store, so every
//!   write to the copy is ordered after it, and a reader that starts
//!   after such a write reads the copy's pointer. (The reverse order
//!   would let a reader start on the left-behind node after a write
//!   landed in the copy: a stale read, and a livelock for the writer
//!   whose next CAS expects the word that reader saw.) A reader that
//!   loaded the old pointer before the store walks the displaced node,
//!   frozen and parked in the graveyard like any other. `restore`
//!   re-points the cells pointer at the restored slot-0 node under
//!   `&mut self`.
//! * Lemma 3.1 (ids strictly increase along parent paths) holds across
//!   fork boundaries unchanged: a fork copies words verbatim, so the
//!   observed-word CAS discipline (`cas_from` against the exact word seen)
//!   keeps ruling out ABA exactly as on the unversioned layouts.
//!
//! # What the unversioned paths pay
//!
//! On the prefix, a read is one compare, one pointer load and an index —
//! [`PackedStore`](crate::PackedStore)'s read plus the pointer load — and a
//! CAS adds one predictable epoch compare. Past the prefix, each access
//! adds the segment lookup (`ilog2`, slot load, null check, bounds
//! check); [`KeyedDsu`](crate::KeyedDsu) and `GrowableDsu::new(0)` grow
//! from empty, so they have no prefix. No path takes a lock. A plain
//! `Dsu<_, EpochStore>` (such as [`GrowableDsu`](crate::GrowableDsu)) and
//! [`KeyedDsu`](crate::KeyedDsu) run on [`EpochStore`] as well, but only
//! [`VersionedDsu`]'s `&mut` transitions move the epoch, so an unversioned
//! structure stays at epoch 0 for life: every node is current, no write
//! forks, and the fork mutex is never taken. The root crate's
//! `tests/layer_contracts.rs` asserts a zero [`EpochReport`] and epoch 0
//! after threaded churn on both. Nodes are pre-filled with singleton
//! words when allocated — the bulk constructor's prefix for its first `P`
//! elements, the first `make_set` into a segment after that — so
//! `make_set` into a live node is one null check.
//!
//! # Copy-on-write stays lazy
//!
//! An eager design would copy every live segment at `snapshot()` instead
//! of at the first write after it. The benchmark's online-mix workload (a
//! `2^22`-element `VersionedDsu` with periodic checkpoints) rules it out
//! on memory alone: it keeps two snapshots and drops the oldest only
//! after taking the next, so an eager copy would hold four `2^22`-cell
//! arrays at each snapshot, 4 × 33.55 MB = 134.2 MB, where lazy forks
//! hold three — the measured 100.67 MB peak. That is 33 % more memory,
//! past the benchmark's 25 % bound on `mem_peak_mb`, before any time is
//! counted.
//!
//! The sized prefix is one copy-on-write unit: the first write after a
//! snapshot to any element below `P` copies all `P` cells, where segments
//! copied only the segments written. On online-mix that is 4,194,304
//! cells in one fork per checkpoint, against 4,194,294 cells in 19.57
//! segment forks — the checkpointed stream writes nearly every segment
//! anyway. A fork copies into the spare buffer a released snapshot left
//! ([`EpochFork::release`], called by [`VersionedDsu::drop_snapshot`])
//! when one of its length is there, and allocates otherwise. The reuse
//! matters for large prefixes: `2^22` cells are 32 MiB, above glibc's
//! largest dynamic mmap threshold, so each fresh buffer is mapped and
//! faulted in page by page and each freed one is unmapped. In one traced
//! online-mix run without the reuse, dropping a snapshot took 1,788 µs
//! (16 µs with segments) and the ops right after a checkpoint 967 ns/op
//! (510); with it, 1.8 µs and 392 ns/op. At that cadence peak memory is
//! unchanged, because the spare is the buffer the next fork would
//! allocate; a store that drops a snapshot and then never writes keeps
//! one spare buffer until it is dropped itself.
//!
//! Each node's buffer of 32 MiB or more, whether the prefix, a grown
//! segment or a fresh fork copy, is advised for transparent huge pages
//! before its first write (see "Memory backing" in the [`store`] docs),
//! so where the host grants them a fresh `2^22`-cell buffer faults in as
//! 15 or 16 huge pages rather than 8,192 small ones, and a spare keeps
//! the huge pages it was built on. On online-mix this took `setup_s`,
//! which builds the prefix, from 30.4 to 17.8 ms (10 of 10 pairs,
//! `BENCH_PR27.json`).

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dsu::Dsu;
use crate::find::TwoTrySplit;
use crate::order::{hashed_id, RandomLink};
use crate::store::{self, DsuStore, GrowableStore, Line, ParentStore};

/// Directory slots: segment 31 ends at element `2^32 - 1`, the last index
/// the packed word can address.
pub(crate) const SEGMENTS: usize = 32;

/// First element of segment `s`. Segment 0 holds `{0, 1}` and segment
/// `s ≥ 1` holds `2^s .. 2^(s+1)`, so segments `0..k` hold exactly the
/// `2^k` elements `0..2^k` and a universe of `2^k` fills its last segment
/// with no spare cell.
pub(crate) const fn segment_base(s: usize) -> usize {
    (1 << s) & !1
}

/// Cell count of segment `s`.
pub(crate) const fn segment_len(s: usize) -> usize {
    if s == 0 {
        2
    } else {
        1 << s
    }
}

/// Maps element `e` to `(segment, offset)`.
#[inline]
pub(crate) fn locate(e: usize) -> (usize, usize) {
    let s = (e | 1).ilog2() as usize;
    (s, e - segment_base(s))
}

/// Panics unless element `e` fits the packed word's 32-bit parent field.
/// Every path that creates an element calls this before allocating: the
/// segment holding element `2^32` alone would be 32 GiB.
fn assert_addressable(e: usize) {
    assert!(
        (e as u64) < (1 << 32),
        "EpochStore packs parent and id into 32 bits each and supports at most 2^32 \
         elements, but element {e} was requested; only fixed universes have a wider layout \
         (`Dsu<_, FlatStore>`)"
    );
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

/// Totals of the copy-on-write work an [`EpochStore`] has performed, the
/// store's own counter of its forks — read at quiescence via
/// [`EpochFork::epoch_report`], like
/// [`FaultyStore::fault_report`](crate::FaultyStore::fault_report).
/// Forks are layer bookkeeping, not operation steps, so no
/// [`StatsSink`](crate::StatsSink) event carries them. Exactly zero on
/// runs that never snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Nodes copy-on-write-forked (first write to a shared segment, or
    /// to a bulk-built store's sized prefix, which forks as one node).
    pub segments_forked: u64,
    /// Cells copied by those forks — the deferred cost of O(1) snapshots.
    pub cow_copies: u64,
}

/// An opaque O(1) record of the segment directory at one epoch: the
/// element count, the ≤ 32 live segment `Arc`s, and the epoch they were
/// frozen at. Produced by [`EpochFork::fork_point`], consumed by
/// [`EpochFork::restore`] and the time-travel readers. Cloning clones
/// `Arc`s, never cells.
#[derive(Clone)]
pub struct SegmentSnapshot {
    /// The epoch whose final state this snapshot records (the counter was
    /// bumped past it as part of taking the snapshot, so every recorded
    /// node is stale — i.e. copy-on-write — from here on).
    epoch: u64,
    len: usize,
    /// The store's prefix length `P`: elements `0..P` live in `segs[0]`.
    prefix: usize,
    segs: Vec<Option<Arc<SegmentNode>>>,
}

impl SegmentSnapshot {
    /// The epoch this snapshot froze.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The number of elements that existed at the snapshot.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The recorded parent of element `i` — a plain read of the frozen
    /// cells, valid concurrently with ongoing operations (recorded nodes
    /// are never written; see the module safety argument). `i` must have
    /// existed when the snapshot was taken.
    pub fn parent_of(&self, i: usize) -> usize {
        let (s, off) = if i < self.prefix { (0, i) } else { locate(i) };
        let node = self.segs[s].as_ref().expect("element's segment not recorded in this snapshot");
        store::packed_parent(node.cells[off].load(store::STAT))
    }
}

impl std::fmt::Debug for SegmentSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentSnapshot")
            .field("epoch", &self.epoch)
            .field("len", &self.len)
            .field("segments", &self.segs.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

/// The segment-fork capability [`VersionedDsu`] requires of its store: the
/// growable-store contract plus epoch bookkeeping, O(1) directory
/// snapshots, and quiescent restore of the segments and element count.
/// Implemented natively by [`EpochStore`] and forwarded by
/// [`FaultyStore<S>`](crate::FaultyStore)`, so the chaos suite can inject
/// faults straight through a versioned stack.
///
/// `fork_point` / `restore` / `release` take `&mut self`: the first two
/// move the epoch and all three free displaced nodes, which is only sound
/// at quiescence — the `&mut` requirement makes the compiler enforce
/// exactly that.
pub trait EpochFork: GrowableStore {
    /// The current epoch counter (bumped by every `fork_point`/`restore`).
    fn current_epoch(&self) -> u64;

    /// Records the live segments and opens a new epoch (making every
    /// recorded segment copy-on-write). O(segments); copies no cells.
    /// Also drains the graveyard — `&mut self` is a quiescent point.
    fn fork_point(&mut self) -> SegmentSnapshot;

    /// Swings the directory back to `snap`'s recorded segments (dropping
    /// segments allocated since), restores its element count, and opens a
    /// new epoch, so the restored nodes stay copy-on-write and `snap`
    /// remains valid for another restore.
    fn restore(&mut self, snap: &SegmentSnapshot);

    /// Takes back a snapshot its holder is done with. First frees the
    /// segment nodes displaced by forks since the last quiescent point
    /// (they may include the snapshot's nodes). The cell buffer of a node
    /// this snapshot held last is then kept as the spare the next fork of
    /// that size copies into, so a rolling snapshot cadence reuses memory
    /// rather than allocating (and, for a large prefix, mapping and
    /// faulting in) a fresh buffer per fork.
    fn release(&mut self, snap: SegmentSnapshot);

    /// Copy-on-write work totals so far (monotone; read at quiescence).
    fn epoch_report(&self) -> EpochReport;

    /// The raw cell words of elements `0..len`, for bit-identical state
    /// comparison in tests. Call only at quiescence.
    fn raw_words(&self, len: usize) -> Vec<u64>;
}

/// The growable layout under [`GrowableDsu`](crate::GrowableDsu),
/// [`KeyedDsu`](crate::KeyedDsu) and [`VersionedDsu`]: packed
/// `id << 32 | parent` words (the [`PackedStore`](crate::PackedStore)
/// format and its 2^32-element bound) in `Arc`-counted, epoch-stamped
/// segment nodes behind an atomic directory, with a bulk-built universe's
/// elements in one sized-prefix node. Ids are the shared
/// [`hashed_id`] of the salted index (paper Section 7: a universe large
/// enough that ties are rare, with the index breaking them), the same ids
/// every fixed layout assigns for that seed. See the module docs for the
/// copy-on-write protocol and safety argument.
pub struct EpochStore {
    /// Directory: slot `s` holds a raw pointer from `Arc::into_raw` (the
    /// directory owns one strong count per non-null slot), or null while
    /// segment `s` is unallocated. With a prefix, slot 0 holds elements
    /// `0..prefix` and slots `1..log2(prefix)` stay null for life.
    slots: [AtomicPtr<SegmentNode>; SEGMENTS],
    /// The sized prefix `P`: 0, or a power of two ≥ 2 fixed by the bulk
    /// constructor. Elements below it are one compare plus an index away.
    prefix: usize,
    /// The cells of slot 0's node while `prefix > 0` (null otherwise).
    /// Published before any swing of slot 0, so a reader never sees an
    /// older node than a writer wrote (see the module safety argument).
    prefix_cells: AtomicPtr<AtomicU64>,
    /// Element count: indices `0..len` are reserved. Read and bumped
    /// `SeqCst`, the ordering every bounds check relies on. Every
    /// `make_set` bumps it, so it has a line of its own, away from the
    /// directory, the prefix fields and `epoch`, which every access reads.
    len: Line<AtomicUsize>,
    epoch: AtomicU64,
    salt: u64,
    /// Serializes forks and guards what they leave behind. Fork traffic is
    /// at most one per segment per epoch, so the lock is cold by design.
    // Taken once per segment per epoch by a fork, never by a find or link.
    #[allow(clippy::disallowed_types)]
    graveyard: std::sync::Mutex<Graveyard>,
    segments_forked: AtomicU64,
    cow_copies: AtomicU64,
}

/// The fork lock's contents.
#[derive(Default)]
struct Graveyard {
    /// Nodes displaced by forks, parked until the next quiescent point: a
    /// racing reader may still be walking their cells (see the module
    /// safety argument).
    displaced: Vec<Arc<SegmentNode>>,
    /// A buffer no node owns any more ([`EpochFork::release`]), reused by
    /// the next fork of its length.
    spare: Option<Box<[AtomicU64]>>,
}

impl EpochStore {
    /// The packed word a fresh singleton `e` is born with.
    fn singleton_word(&self, e: usize) -> u64 {
        store::pack_word(hashed_id(e, self.salt), e)
    }

    /// The live node of segment `s`; panics on an unallocated segment
    /// (an index no constructor or `make_set` created).
    #[inline]
    fn node(&self, s: usize) -> &SegmentNode {
        let p = self.slots[s].load(store::LOAD);
        assert!(!p.is_null(), "element's segment not allocated: use indices returned by make_set");
        // SAFETY: a non-null slot pointer is a live `Arc::into_raw`; the
        // node outlives this `&self` borrow because displacement parks the
        // Arc in the graveyard, which is drained only at `&mut` points.
        unsafe { &*p }
    }

    /// `(slot, offset)` of element `i`: slot 0 for the whole prefix.
    #[inline]
    fn place(&self, i: usize) -> (usize, usize) {
        if i < self.prefix {
            (0, i)
        } else {
            locate(i)
        }
    }

    #[inline]
    pub(crate) fn cell(&self, i: usize) -> &AtomicU64 {
        if i < self.prefix {
            let cells = self.prefix_cells.load(store::LOAD);
            // SAFETY: while `prefix > 0`, `prefix_cells` points at the
            // `prefix` cells of a node that slot 0 holds or held, and
            // `i < prefix`; that node outlives this `&self` borrow exactly
            // as in `node()`.
            unsafe { &*cells.add(i) }
        } else {
            let (s, off) = locate(i);
            &self.node(s).cells[off]
        }
    }

    /// The `(hash id, index)` priority key of `i`, read from its word.
    fn key(&self, i: usize) -> (u64, usize) {
        (store::packed_id(self.cell(i).load(store::STAT)), i)
    }

    /// A current-epoch node of `len` singleton cells for elements
    /// `base..base + len`.
    fn singleton_node(&self, base: usize, len: usize) -> Arc<SegmentNode> {
        let cells = (base..base + len).map(|e| AtomicU64::new(self.singleton_word(e)));
        let cells = store::collect_huge(cells).into_boxed_slice();
        Arc::new(SegmentNode { epoch: self.epoch.load(store::STAT), cells })
    }

    /// Allocates segment `s` fully initialized as singletons, racing
    /// against other allocators with a null→node CAS (the loser's node is
    /// dropped; every cell is initialized before the pointer publishes).
    #[cold]
    #[inline(never)]
    fn alloc_slot(&self, s: usize) {
        let raw = Arc::into_raw(self.singleton_node(segment_base(s), segment_len(s))) as *mut _;
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
        let len = cur_ref.cells.len();
        let cells = match graveyard.spare.take_if(|spare| spare.len() == len) {
            Some(mut cells) => {
                for (dst, src) in cells.iter_mut().zip(cur_ref.cells.iter()) {
                    *dst.get_mut() = src.load(store::STAT);
                }
                cells
            }
            None => store::collect_huge(
                cur_ref.cells.iter().map(|c| AtomicU64::new(c.load(store::STAT))),
            )
            .into_boxed_slice(),
        };
        self.segments_forked.fetch_add(1, Ordering::Relaxed);
        self.cow_copies.fetch_add(cells.len() as u64, Ordering::Relaxed);
        let raw = Arc::into_raw(Arc::new(SegmentNode { epoch: now, cells })) as *mut SegmentNode;
        if s == 0 && self.prefix > 0 {
            // Readers reach the prefix through `prefix_cells`, writers
            // through slot 0: publish the copy to readers first, so no
            // reader can start on the old node after a writer wrote the
            // new one.
            // SAFETY: `raw` is the live node just built above.
            self.prefix_cells.store(unsafe { (*raw).cells.as_ptr() } as *mut _, store::CAS_SUCCESS);
        }
        self.slots[s].store(raw, store::CAS_SUCCESS);
        // Park the displaced node: a concurrent reader may have loaded the
        // old pointer before our store and still be walking its cells.
        // SAFETY: `cur` was the directory's strong reference; the slot no
        // longer holds it, the graveyard now does.
        graveyard.displaced.push(unsafe { Arc::from_raw(cur) });
        // SAFETY: just installed from `Arc::into_raw`; same lifetime
        // argument as `node()`.
        unsafe { &*raw }
    }

    /// Frees the nodes forks displaced since the last quiescent point;
    /// `&mut self` is that point, so no reader is still walking them.
    fn purge_graveyard(&mut self) {
        self.graveyard.get_mut().unwrap_or_else(|e| e.into_inner()).displaced.clear();
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
        let (s, off) = self.place(i);
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

impl DsuStore for EpochStore {
    const NAME: &'static str = "epoch-seg";

    /// `n` elements in a sized prefix of `P = max(2, n.next_power_of_two())`
    /// singleton cells — one node in slot 0, exactly the cells segments
    /// `0..log2 P` would hold — so `make_set` up to `P` allocates nothing
    /// and later elements open the doubling segments from `log2 P` on.
    /// `n == 0` builds no prefix.
    // Inlined so that a caller builds the 512-byte store in place instead
    // of copying it out of a call: such copies are most of what
    // `KeyedDsu::new` costs.
    #[inline]
    fn with_seed(n: usize, seed: u64) -> Self {
        if n > 0 {
            assert_addressable(n - 1);
        }
        let prefix = if n > 0 { n.next_power_of_two().max(2) } else { 0 };
        let mut store = EpochStore {
            slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            prefix,
            prefix_cells: AtomicPtr::new(std::ptr::null_mut()),
            len: Line(AtomicUsize::new(n)),
            epoch: AtomicU64::new(0),
            salt: seed,
            #[allow(clippy::disallowed_types)] // the fork lock above
            graveyard: std::sync::Mutex::new(Graveyard::default()),
            segments_forked: AtomicU64::new(0),
            cow_copies: AtomicU64::new(0),
        };
        if prefix > 0 {
            let node = store.singleton_node(0, prefix);
            *store.prefix_cells.get_mut() = node.cells.as_ptr() as *mut _;
            *store.slots[0].get_mut() = Arc::into_raw(node) as *mut _;
        }
        store
    }

    #[inline]
    fn len(&self) -> usize {
        self.len.0.load(Ordering::SeqCst)
    }

    fn id_of(&self, u: usize) -> u64 {
        self.key(u).0
    }

    fn snapshot(&self) -> Vec<usize> {
        (0..self.len()).map(|i| store::packed_parent(self.cell(i).load(store::STAT))).collect()
    }
}

impl GrowableStore for EpochStore {
    fn push_singleton(&self) -> usize {
        let e = self.len.0.fetch_add(1, Ordering::SeqCst);
        assert_addressable(e);
        let (s, _off) = self.place(e);
        if self.slots[s].load(store::LOAD).is_null() {
            self.alloc_slot(s);
        }
        // A non-null slot needs nothing: allocation pre-fills *every* cell
        // of the segment (or prefix) as a singleton, and a cell can only
        // have left the singleton state if its element existed — which is
        // also what makes index reuse after a rollback sound (cells at or
        // above the snapshot's len in a recorded node were untouched
        // singletons).
        e
    }
}

impl EpochFork for EpochStore {
    fn current_epoch(&self) -> u64 {
        self.epoch.load(store::STAT)
    }

    fn fork_point(&mut self) -> SegmentSnapshot {
        let epoch = *self.epoch.get_mut();
        let len = *self.len.0.get_mut();
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
        SegmentSnapshot { epoch, len, prefix: self.prefix, segs }
    }

    fn restore(&mut self, snap: &SegmentSnapshot) {
        assert_eq!(snap.prefix, self.prefix, "snapshot taken from a store of another geometry");
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
        if let Some(node) = snap.segs[0].as_ref().filter(|_| self.prefix > 0) {
            // Readers must follow slot 0 back to the restored prefix.
            *self.prefix_cells.get_mut() = node.cells.as_ptr() as *mut _;
        }
        *self.len.0.get_mut() = snap.len;
        // Bump the epoch so the restored nodes are stale again: the next
        // write forks, and `snap` stays valid for another restore.
        *self.epoch.get_mut() += 1;
        self.purge_graveyard();
    }

    fn release(&mut self, snap: SegmentSnapshot) {
        self.purge_graveyard();
        let graveyard = self.graveyard.get_mut().unwrap_or_else(|e| e.into_inner());
        for node in snap.segs.into_iter().flatten() {
            // Keep the largest buffer no one else holds; drop the rest.
            if let Ok(node) = Arc::try_unwrap(node) {
                if graveyard.spare.as_ref().is_none_or(|spare| spare.len() < node.cells.len()) {
                    graveyard.spare = Some(node.cells);
                }
            }
        }
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
// growable (see `fault.rs`) and epoch-forking, so
// `VersionedDsu<FaultyStore<EpochStore>>` drops injected CAS failures /
// delayed loads / stalls under the whole snapshot → ingest → validate →
// rollback machinery. Fork copies and directory swings go through the
// inner store directly — injection targets the algorithm's primitive
// accesses, not the versioning bookkeeping.
impl<S: EpochFork> EpochFork for crate::FaultyStore<S> {
    fn current_epoch(&self) -> u64 {
        self.inner().current_epoch()
    }

    fn fork_point(&mut self) -> SegmentSnapshot {
        self.inner_mut().fork_point()
    }

    fn restore(&mut self, snap: &SegmentSnapshot) {
        self.inner_mut().restore(snap);
    }

    fn release(&mut self, snap: SegmentSnapshot) {
        self.inner_mut().release(snap);
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

/// One retained snapshot: the frozen segment directory (with its element
/// count) plus the link counter that must travel with it on rollback.
struct SnapRecord {
    links: usize,
    segs: SegmentSnapshot,
}

/// A growable [`Dsu`] with O(1) snapshots, rollback, speculative batches,
/// and time-travel queries, over any [`EpochFork`] store (default:
/// [`EpochStore`]). Its finds split two-try and its links follow the
/// random ids: the paper's configuration, the only one versioned.
///
/// Concurrent operations (`unite`, `same_set`, `unite_batch`, `make_set`,
/// time-travel reads) take `&self` and run from many threads exactly like
/// [`Dsu`]'s; epoch transitions (`snapshot`, `rollback`, `drop_snapshot`,
/// `try_unite_batch`) take `&mut self`, which is how the compiler enforces
/// the quiescence the copy-on-write protocol needs (see the module docs).
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
pub struct VersionedDsu<S: EpochFork = EpochStore> {
    dsu: Dsu<TwoTrySplit, S, RandomLink>,
    /// Retained snapshots, epoch-ascending (each `fork_point` bumps).
    snaps: Vec<SnapRecord>,
    snapshots_taken: u64,
    rollbacks: u64,
}

impl<S: EpochFork> Default for VersionedDsu<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: EpochFork> std::fmt::Debug for VersionedDsu<S> {
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

impl<S: EpochFork> VersionedDsu<S> {
    /// An empty versioned universe.
    pub fn new() -> Self {
        Self::from_dsu(Dsu::new(0))
    }

    /// An empty versioned universe whose random order is salted by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::from_dsu(Dsu::with_seed(0, seed))
    }

    /// A versioned universe pre-populated with `n` singletons `0..n`.
    pub fn with_initial(n: usize) -> Self {
        Self::from_dsu(Dsu::new(n))
    }

    /// Wraps an already-built growable structure (it keeps its contents;
    /// versioning starts with no snapshots).
    pub fn from_dsu(dsu: Dsu<TwoTrySplit, S, RandomLink>) -> Self {
        VersionedDsu { dsu, snaps: Vec::new(), snapshots_taken: 0, rollbacks: 0 }
    }

    /// The wrapped structure — every [`Dsu`] operation (the stats variants
    /// included) is available through it; shared-state mutations it
    /// performs are versioned like any other (they go through the store).
    pub fn dsu(&self) -> &Dsu<TwoTrySplit, S, RandomLink> {
        &self.dsu
    }

    // ----- Delegated operations (concurrent, &self) -----

    /// See [`Dsu::make_set`]. New elements created after a snapshot simply
    /// don't exist at that snapshot — rolling back shrinks
    /// [`len`](VersionedDsu::len) back and the indices are reused by later
    /// `make_set` calls.
    pub fn make_set(&self) -> usize {
        self.dsu.make_set()
    }

    /// See [`Dsu::len`].
    pub fn len(&self) -> usize {
        self.dsu.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.dsu.is_empty()
    }

    /// See [`Dsu::set_count`].
    pub fn set_count(&self) -> usize {
        self.dsu.set_count()
    }

    /// See [`Dsu::find`].
    pub fn find(&self, x: usize) -> usize {
        self.dsu.find(x)
    }

    /// See [`Dsu::same_set`].
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.dsu.same_set(x, y)
    }

    /// See [`Dsu::unite`].
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.dsu.unite(x, y)
    }

    /// See [`Dsu::unite_batch`].
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.dsu.unite_batch(edges)
    }

    /// See [`Dsu::labels_snapshot`] (quiescent).
    pub fn labels_snapshot(&self) -> Vec<usize> {
        self.dsu.labels_snapshot()
    }

    // ----- Epoch transitions (quiescent, &mut self) -----

    /// Records an O(1) snapshot of the current forest and returns its
    /// handle. Cost: ≤ 32 `Arc` clones and one counter bump — no cells
    /// are copied now; the first post-snapshot write to each segment pays
    /// a one-time copy-on-write fork instead.
    pub fn snapshot(&mut self) -> Epoch {
        let links = self.dsu.len() - self.dsu.set_count();
        let segs = self.dsu.store_mut().fork_point();
        let epoch = Epoch(segs.epoch());
        self.snaps.push(SnapRecord { links, segs });
        self.snapshots_taken += 1;
        epoch
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
        let idx = self
            .snaps
            .iter()
            .position(|r| r.segs.epoch() == at.0)
            .expect("rollback target unknown: the snapshot was dropped or already rolled past");
        self.snaps.truncate(idx + 1);
        let rec = &self.snaps[idx];
        self.dsu.store_mut().restore(&rec.segs);
        self.dsu.restore_links(rec.links);
        self.rollbacks += 1;
    }

    /// Forgets snapshot `at`, releasing its segment references (and any
    /// fork graveyard — this is a quiescent point) to the store, which
    /// reuses a buffer the snapshot held last for its next fork. Later and
    /// earlier snapshots are unaffected. No-op if `at` is already gone.
    pub fn drop_snapshot(&mut self, at: Epoch) {
        if let Some(idx) = self.snaps.iter().position(|r| r.segs.epoch() == at.0) {
            let rec = self.snaps.remove(idx);
            self.dsu.store_mut().release(rec.segs);
        }
    }

    /// Handles of every retained snapshot, oldest first.
    pub fn snapshots(&self) -> Vec<Epoch> {
        self.snaps.iter().map(|r| Epoch(r.segs.epoch())).collect()
    }

    /// O(1) snapshots recorded over this structure's lifetime.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Rollbacks performed over this structure's lifetime.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
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
    /// changes: the edges are checked before the speculation snapshot is
    /// taken.
    pub fn try_unite_batch<V>(&mut self, edges: &[(usize, usize)], validate: V) -> BatchOutcome
    where
        V: FnOnce(&Dsu<TwoTrySplit, S, RandomLink>, usize) -> bool,
    {
        self.dsu.check_edges(edges);
        let at = self.snapshot();
        let linked = self.dsu.unite_checked_batch(edges, &mut ());
        let verdict = if validate(&self.dsu, linked) {
            BatchOutcome::Committed { linked }
        } else {
            self.rollback(at);
            BatchOutcome::RolledBack
        };
        self.drop_snapshot(at);
        verdict
    }

    // ----- Time-travel queries (concurrent, &self) -----

    fn record(&self, at: Epoch) -> &SnapRecord {
        self.snaps
            .iter()
            .find(|r| r.segs.epoch() == at.0)
            .expect("epoch unknown: the snapshot was dropped or rolled past")
    }

    /// The number of elements that existed at snapshot `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped or rolled past.
    pub fn len_at(&self, at: Epoch) -> usize {
        self.record(at).segs.len()
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
        let segs = &self.record(at).segs;
        let len = segs.len();
        assert!(x < len, "element {x} out of range at epoch {} (len was {len})", at.0);
        let mut u = x;
        loop {
            let p = segs.parent_of(u);
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
    use crate::FaultyStore;

    type VDsu = VersionedDsu;

    #[test]
    fn snapshot_rollback_roundtrip_is_bit_identical() {
        let mut dsu = VDsu::with_initial(64);
        for i in 0..32 {
            dsu.unite(i, i + 32);
        }
        let words_before = dsu.dsu().store().raw_words(dsu.len());
        let labels_before = dsu.labels_snapshot();
        let snap = dsu.snapshot();

        // Mutate heavily: new links, new elements, compacting finds.
        for i in 0..63 {
            dsu.unite(i, i + 1);
        }
        let extra = dsu.make_set();
        dsu.unite(0, extra);
        dsu.labels_snapshot();
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
        // Pinned seed: under it the two post-snapshot unites below write
        // the same segment.
        let mut dsu = VDsu::from_dsu(Dsu::with_seed(32, 0x6d61_6b65_5f73_6574));
        for i in 0..16 {
            dsu.unite(i, i + 16);
        }
        let before = dsu.dsu().store().epoch_report();
        assert_eq!(before, EpochReport::default(), "no snapshot -> zero CoW work");

        let snap = dsu.snapshot();
        // First write after the snapshot forks the written segment(s).
        dsu.dsu().unite(20, 21);
        let after = dsu.dsu().store().epoch_report();
        assert!(after.segments_forked > 0, "post-snapshot write must fork: {after:?}");
        assert!(after.cow_copies >= after.segments_forked, "forks copy whole segments");

        // Writing the same segment again in the same epoch forks nothing.
        let settled = dsu.dsu().store().epoch_report();
        dsu.dsu().unite(20, 22);
        assert_eq!(dsu.dsu().store().epoch_report(), settled, "second write is fork-free");

        // Rolling back copies nothing either.
        dsu.rollback(snap);
        assert_eq!((dsu.snapshots_taken(), dsu.rollbacks()), (1, 1));
        assert_eq!(dsu.dsu().store().epoch_report(), after);
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
        assert_eq!((dsu.snapshots_taken(), dsu.rollbacks()), (1, 1));
        assert!(dsu.dsu().store().epoch_report().segments_forked > 0, "the batch wrote forks");

        // Validator accepts: links stick.
        let outcome = dsu.try_unite_batch(&edges, |d, linked| linked == 15 && d.same_set(0, 15));
        assert_eq!(outcome, BatchOutcome::Committed { linked: 15 });
        assert_eq!(dsu.set_count(), 1);
        assert!(dsu.snapshots().is_empty());
        assert_eq!((dsu.snapshots_taken(), dsu.rollbacks()), (2, 1));
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
        assert_eq!(locate((1 << 32) - 1).0, SEGMENTS - 1, "the last addressable segment");
        // Dense, in bounds, and inverse to `segment_base`.
        for e in 0..10_000 {
            let (s, off) = locate(e);
            assert!(off < segment_len(s));
            assert_eq!(segment_base(s) + off, e);
            assert_eq!(segment_base(s + 1), segment_base(s) + segment_len(s));
        }
    }

    /// `(slot, cells)` of every populated directory slot (test-only;
    /// quiescent).
    fn populated(store: &EpochStore) -> Vec<(usize, usize)> {
        (0..SEGMENTS)
            .filter(|&s| !store.slots[s].load(store::STAT).is_null())
            .map(|s| (s, store.node(s).cells.len()))
            .collect()
    }

    /// Cells allocated across the directory (test-only; quiescent).
    fn allocated_cells(store: &EpochStore) -> usize {
        populated(store).iter().map(|&(_, cells)| cells).sum()
    }

    #[test]
    fn power_of_two_universe_allocates_exactly_that_many_cells() {
        assert_eq!(allocated_cells(&EpochStore::with_seed(0, 0)), 0);
        for k in [1, 2, 3, 5, 10, 16] {
            let bulk = EpochStore::with_seed(1 << k, 0);
            let grown = EpochStore::with_seed(0, 0);
            for _ in 0..1 << k {
                grown.push_singleton();
            }
            // The bulk store holds its prefix in slot 0; the grown one fills
            // the doubling segments `0..k` with the same number of cells.
            assert_eq!(populated(&bulk), [(0, 1 << k)], "k = {k}");
            assert_eq!(populated(&grown).len(), k, "k = {k}");
            for store in [bulk, grown] {
                assert_eq!(allocated_cells(&store), 1 << k, "k = {k}");
                // One element more opens exactly segment k, as big as
                // everything before it.
                assert_eq!(store.push_singleton(), 1 << k);
                assert_eq!(allocated_cells(&store), 2 << k, "k = {k}, +1");
                assert_eq!(populated(&store).last(), Some(&(k, 1 << k)), "k = {k}, +1");
            }
        }
    }

    #[test]
    fn bulk_universe_rounds_its_prefix_up_to_a_power_of_two() {
        // Five elements take an 8-cell prefix in slot 0; three more fit in
        // it, and the ninth opens segment 3 with 8 cells.
        let store = EpochStore::with_seed(5, 0);
        assert_eq!(populated(&store), [(0, 8)]);
        for e in 5..8 {
            assert_eq!(store.push_singleton(), e);
        }
        assert_eq!(populated(&store), [(0, 8)], "elements 5..8 live in the prefix");
        assert_eq!(store.push_singleton(), 8);
        assert_eq!(populated(&store), [(0, 8), (3, 8)]);
        for (n, prefix) in [(1, 2), (2, 2), (3, 4), (6, 8), (9, 16), (100, 128), (1000, 1024)] {
            assert_eq!(populated(&EpochStore::with_seed(n, 0)), [(0, prefix)], "n = {n}");
        }
    }

    #[test]
    fn rollback_and_time_travel_cross_the_prefix_boundary() {
        // Prefix of 8; growth to 20 puts elements in segments 3 and 4.
        let mut dsu = VDsu::with_initial(5);
        while dsu.len() < 20 {
            dsu.make_set();
        }
        for (x, y) in [(0, 9), (6, 17), (3, 12), (7, 8)] {
            dsu.unite(x, y);
        }
        let labels = dsu.labels_snapshot();
        let words = dsu.dsu().store().raw_words(dsu.len());
        let snap = dsu.snapshot();

        while dsu.len() < 40 {
            dsu.make_set();
        }
        for (x, y) in [(1, 10), (7, 19), (0, 6), (2, 35), (4, 5)] {
            dsu.unite(x, y);
        }
        assert!(dsu.dsu().store().epoch_report().segments_forked > 0);
        for x in 0..20 {
            for y in 0..20 {
                let at = dsu.find_at(snap, x) == dsu.find_at(snap, y);
                assert_eq!(at, labels[x] == labels[y], "same_set_at({x}, {y})");
            }
        }
        assert!(dsu.same_set(0, 17) && dsu.same_set(2, 35), "the live view sees the new links");

        dsu.rollback(snap);
        assert_eq!(dsu.len(), 20);
        assert_eq!(dsu.dsu().store().raw_words(20), words, "bit-identical on both sides");
        assert_eq!(dsu.labels_snapshot(), labels);
        // Regrowth reuses the indices past the boundary as singletons.
        assert_eq!(dsu.make_set(), 20);
        assert!(!dsu.same_set(2, 20));
    }

    #[test]
    fn a_released_prefix_buffer_backs_the_next_fork() {
        let mut dsu = VDsu::with_initial(64);
        let cells = |d: &VDsu| d.dsu().store().prefix_cells.load(store::STAT);
        let first = cells(&dsu);
        let a = dsu.snapshot();
        dsu.unite(0, 1); // forks the prefix into a fresh buffer
        assert_ne!(cells(&dsu), first);
        let b = dsu.snapshot();
        let words = dsu.dsu().store().raw_words(64);
        dsu.drop_snapshot(a); // `a` held the first prefix node last
        dsu.unite(2, 3); // forks again, into that node's buffer
        assert_eq!(cells(&dsu), first, "the released buffer was not reused");
        assert_eq!(dsu.dsu().store().epoch_report().cow_copies, 128);
        assert!(dsu.same_set_at(b, 0, 1) && !dsu.same_set_at(b, 2, 3));
        assert!(dsu.same_set(0, 1) && dsu.same_set(2, 3));
        dsu.rollback(b);
        assert_eq!(dsu.dsu().store().raw_words(64), words);
    }

    #[test]
    #[should_panic(expected = "another geometry")]
    fn restore_rejects_a_snapshot_of_another_prefix() {
        let mut small = EpochStore::with_seed(5, 0);
        let mut big = EpochStore::with_seed(100, 0);
        let snap = small.fork_point();
        big.restore(&snap);
    }

    #[test]
    fn singleton_words_carry_the_hashed_id() {
        // The id format every growable structure links by: the top half
        // of SplitMix64 of the salted index, in the high word half.
        let store = EpochStore::with_seed(0, 77);
        for _ in 0..100 {
            store.push_singleton();
        }
        let words = store.raw_words(100);
        for (e, &w) in words.iter().enumerate() {
            let id = splitmix64((e as u64).wrapping_add(77)) >> 32;
            assert_eq!(w, store::pack_word(id, e), "element {e}");
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        err.downcast_ref::<String>().expect("string panic payload").clone()
    }

    /// `make_set` bumps `len` while every access reads the directory, the
    /// prefix fields and `epoch`, so `len` shares a line with none of them.
    #[test]
    fn len_sits_on_its_own_line() {
        use std::mem::offset_of;
        let read = [
            offset_of!(EpochStore, slots),
            offset_of!(EpochStore, prefix),
            offset_of!(EpochStore, prefix_cells),
            offset_of!(EpochStore, epoch),
        ];
        store::assert_own_line::<EpochStore>(offset_of!(EpochStore, len), &read);
    }

    /// The 2^32 bound must both state itself and name the only wider
    /// layout, and it must fire before any allocation (the segment holding
    /// element 2^32 would be 32 GiB).
    #[test]
    fn oversize_panic_states_the_bound_and_the_fixed_fallback() {
        let store = EpochStore::with_seed(0, 0);
        store.len.0.store(1 << 32, Ordering::SeqCst);
        let msg = panic_message(|| {
            store.push_singleton();
        });
        assert!(msg.contains("at most 2^32"), "panic must state the bound: {msg}");
        assert!(msg.contains("Dsu<_, FlatStore>"), "panic must name the flat layout: {msg}");
        assert_eq!(allocated_cells(&store), 0, "the check must precede allocation");
    }

    /// The bulk constructor enforces the same bound, also before it
    /// allocates: 2^32 elements fit, 2^32 + 1 do not.
    #[test]
    fn bulk_constructor_rejects_oversize_before_allocating() {
        let msg = panic_message(|| {
            EpochStore::with_seed((1 << 32) + 1, 0);
        });
        assert!(msg.contains("at most 2^32"), "panic must state the bound: {msg}");
        assert!(msg.contains("Dsu<_, FlatStore>"), "panic must name the flat layout: {msg}");
    }

    #[test]
    fn faulty_epoch_store_composes() {
        // FaultyStore<EpochStore> must version and inject at once.
        let plan = crate::FaultPlan::rate(5, 0.3);
        let store = FaultyStore::with_plan(EpochStore::with_seed(0, 9), plan);
        let mut dsu: VersionedDsu<FaultyStore<EpochStore>> =
            VersionedDsu::from_dsu(Dsu::from_store(store));
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
        assert_eq!(dsu.dsu().store_name(), "faulty");
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
