//! Keyed entity resolution: arbitrary hashable keys over the packed core.
//!
//! Every production consumer of union-find in the related-work sets is
//! *keyed*, not array-indexed: structural-variant mergers unite records by
//! row key, query optimizers unite plan-group ids through an
//! `RwLock<HashMap>`. The bottleneck in those systems is the keyed facade —
//! a lock around a hash map — not the union-find underneath. [`KeyedDsu`]
//! replaces that facade with a **lock-free id table**: keys hash to
//! dense element indices of a growable [`Dsu`], and all
//! set operations run on the packed word store this repo has spent six PRs
//! optimizing.
//!
//! # Layout
//!
//! The table maps `K → usize` (a dense id, assigned by
//! [`make_set`](crate::Dsu::make_set) in insertion order) and never
//! deletes. It has two parts:
//!
//! - **The key column.** Keys are stored once, in a column indexed by
//!   their dense id, and never move. The column uses `EpochStore`'s
//!   segment geometry (segment 0 holds ids `{0, 1}`, segment `s ≥ 1` holds
//!   `2^s..2^(s+1)`), so 32 segments cover the 2^32 ids the store can
//!   mint. Segments are installed by CAS and the loser frees its copy;
//!   cells are written once, by the insert that minted the id.
//! - **One chain of tables.** A seeded 64-bit hash places every key in
//!   one chain of power-of-two tables of 256, 512, … 8-byte words
//!   `tag:29 | id:32 | state:3`. The first table is allocated by the first
//!   insert, not by construction. A table is probed *triangularly* (home,
//!   home + 1, home + 3, …, which visits every group of a power-of-two
//!   table once) over groups of 8 words, each group one cache line, and
//!   within a group word by word. The chain's key count, which every claim
//!   bumps, sits on its own 128-byte line, apart from the oldest-live
//!   index and the table pointers that every lookup loads.
//!
//! The tag is the hash's low 29 bits, and a table of `2^g` groups takes
//! its home group from the tag's low `g` bits alone, so moving a word into
//! a doubled table never re-hashes its key (SipHash plus two cold
//! dereferences). The tag bits beyond the home group filter key
//! comparisons and shrink by one per doubling: 10 remain at 2^19 groups
//! (2^22 words, about 3.7M keys), so a comparison meets a colliding tag
//! about once per 1,000 foreign words. Ids fit the word's 32 bits because
//! the store caps the universe at 2^32; past 2^29 groups (only reachable
//! near 2^32 keys) no filter bits remain and every tag "matches", which
//! costs key comparisons but nothing else.
//!
//! # Protocol
//!
//! A word is in one of five states, and the only transitions are
//! `EMPTY → BUSY → FULL → MOVED` and `EMPTY → SEALED`:
//!
//! | state | meaning |
//! |---|---|
//! | `EMPTY` | unclaimed |
//! | `BUSY(tag)` | claimed by an insert that has not published yet |
//! | `FULL(tag, id)` | `id`'s key is in the column |
//! | `MOVED(tag, id)` | as `FULL`, and a migration has copied it onward |
//! | `SEALED` | frozen by a migration while empty: "not in this table" |
//!
//! A key's **path** in a table is its probe sequence there, and its path
//! through the chain is its path in each live table, oldest first. Every
//! walker (insert, lookup, migration copy) follows the same rule at each
//! word: a `BUSY` word with the key's tag is waited out; a `FULL` or
//! `MOVED` word with the key's tag compares the key stored in the column
//! (a copy compares the whole `(tag, id)` instead); a `SEALED` word ends
//! the walk of *this table* and the walker moves to the next one; any
//! other occupied word is skipped. At an `EMPTY` word a lookup answers
//! "absent". A walker that passes the last table misses (lookup) or
//! installs the next one (insert, copy).
//!
//! 1. **Claim.** An insert clones its key, then CASes the first `EMPTY`
//!    word on its path to `BUSY(tag)`. The winner runs `make_set`, writes
//!    the key to the column, and publishes `FULL(tag, id)` with a
//!    `Release` store. A lost CAS re-examines the word it lost; the loser
//!    drops its clone if it finds its key instead. The clone happens
//!    before the claim so that a panicking `K::clone` leaves nothing
//!    behind: a claimed word then only ever waits on `make_set` and one
//!    column write.
//! 2. **Growth.** When the key count passes 7/8 of the newest table, the
//!    inserter installs the doubled table by CAS; the loser frees its
//!    copy. From then on the *oldest live* table is being migrated.
//! 3. **Migration.** The oldest live table is frozen and copied in chunks
//!    of 64 groups, claimed from a per-table cursor; every insert helps
//!    with at most one chunk, so no operation ever waits for a whole
//!    migration. In its chunk a helper CASes `EMPTY` to `SEALED` and
//!    `FULL` to `MOVED`, waits out `BUSY` words (a claim racing the
//!    freeze), and copies each `MOVED` word into the rest of the chain with
//!    a `Release` CAS on the first `EMPTY` word of its path. A copy that
//!    meets an identical `(tag, id)` word stops, so helpers that race on
//!    one chunk cannot duplicate an entry. After its copies a helper bumps
//!    the table's done count; the helper that completes the last chunk
//!    advances the chain's oldest-live index past the table with a
//!    `Release` store. Retired tables stay allocated until drop; being a
//!    halving series they total less than the live table.
//!
//! Readers load words and the oldest-live index with `Acquire`. The
//! column write precedes the `FULL` store, and a copier's `Acquire` load
//! of the source precedes its `Release` copy, so any walker that sees a
//! key's word also sees the key.
//!
//! # Why it is correct
//!
//! *Placement prefix.* When a walker places a word for key `k` at word
//! `p` of table `T` (a claim or a copy), every word before `p` on `k`'s
//! path in `T` is occupied (`BUSY`, `FULL` or `MOVED`) and stays so
//! forever. The walker visited each of them and moved on: not `SEALED`
//! (it would have left `T`), not `EMPTY` (it would have CASed there, and a
//! lost CAS re-reads a word that is no longer `EMPTY`). Occupied words
//! never return to `EMPTY` and never become `SEALED`.
//!
//! *No table is frozen while it receives copies.* Copies out of table `t`
//! go to tables after `t`, and a table is frozen only once it is the
//! oldest live one, which happens after every copy out of `t` has been
//! counted done. So a copy walk never meets `SEALED`, and it passes a
//! table only when every word of its path there is occupied.
//!
//! *Invariant: a published key stays findable.* Once `k`'s claim has
//! published, there is a table `W` ≥ oldest holding a `FULL`/`MOVED` word
//! for `k` with an occupied prefix, and every live table before `W` is
//! *blocked* for `k`: its path has no `EMPTY` word before its first
//! `SEALED` one. The claim establishes this: the inserter passed each
//! earlier table over an occupied prefix and then a `SEALED` word or the
//! path's end, and those words stay as they were. Advancing the oldest
//! index only removes tables from the front. When `W` itself is retired,
//! `k`'s word was `MOVED` and copied before the done count completed. The
//! copy has an occupied prefix in its table `W'`, and the tables between
//! `W` and `W'` were passed by the copy with every path word occupied. So
//! `W'` is the new witness.
//!
//! *Lookups.* A lookup of `k` that starts after `k`'s insert returned
//! loads the oldest index `o` after the witness state it needs was
//! published (the `Release`/`Acquire` pairs above). It walks the blocked
//! tables `o..W` without meeting an `EMPTY` word before a `SEALED` one,
//! then meets `k`'s word in `W` behind its occupied prefix. A word that
//! holds `k` holds it forever (`FULL → MOVED` keeps `(tag, id)`), so a
//! migration racing the walk cannot hide it. An `EMPTY` word therefore
//! proves absence, and so does the end of the chain.
//!
//! *Exactly one claim per key.* Suppose inserts `A` and `B` of one key
//! both claim, at `a` and `b`, with `a` first on the chain path (tables
//! oldest first, then probe order). `B` did not stop at `a`. If `B`
//! visited `a`, it read a value of `a` after `A`'s claim: an `EMPTY` read
//! leads to a CAS that loses to `A` and a re-read. `a` only ever holds
//! `A`'s key, so `B` adopts `A`'s id and never claims. If `B` left `a`'s
//! table at a `SEALED` word before `a`, that word lies in `a`'s occupied
//! prefix, which is a contradiction. If `B` started past `a`'s table, that
//! table had been fully migrated, so `A`'s word was published and copied.
//! The invariant then walks `B` to a word holding `A`'s key before any
//! `EMPTY` word, so `B` adopts rather than claims. Every insert of a key
//! therefore returns the one id its single claim minted. The same argument
//! with "identical `(tag, id)`" for "same key" shows each migrated word is
//! copied exactly once, however many helpers race on its chunk.
//!
//! *Progress.* A walk visits each word of a finite chain at most once plus
//! one re-read per lost CAS, and a word changes state at most three times.
//! The only wait is the `BUSY` spin, where a lookup, insert or migrator
//! meets a claim between its CAS and its `FULL` store; the claim winner
//! runs only `make_set` and one column write there. The dense store
//! underneath adds no wait: its racing segment allocators each build the
//! segment and the loser frees its copy. The operations are lock-free in
//! aggregate, not wait-free, which is the paper's own caveat for unbounded
//! universes.
//!
//! # Batched resolution
//!
//! [`merge_keys_batch`](KeyedDsu::merge_keys_batch) and
//! [`same_set_batch`](KeyedDsu::same_set_batch) resolve keys in **gather
//! waves** of 64 pairs: hash the wave's keys, load each key's home group
//! in the oldest live table, then resolve the keys in order. The
//! loads of a wave are mutually independent, so their cache misses overlap
//! instead of forming one dependent chain per key (the technique of
//! [`unite_batch`]'s waves, applied to the id table). Resolving in order
//! keeps ids in the same order a per-key loop would mint them. The merge
//! batch then routes the resolved edge list through [`unite_batch`]; the
//! query batch answers each pair on the packed core without inserting.
//!
//! # When to use which layer
//!
//! | your elements are | use |
//! |---|---|
//! | dense `0..n`, known up front | [`Dsu`] (default [`PackedStore`](crate::PackedStore)) |
//! | dense, created on the fly | [`Dsu`] over [`EpochStore`](crate::EpochStore), alias [`GrowableDsu`] |
//! | strings, sparse u64s, uuids, row keys | [`KeyedDsu`] |
//!
//! The keyed layer costs one hash + a short probe per key touch on top of
//! the underlying operation; the `keyed_ab` example measures it against
//! the lock-based facade it replaces (see `docs/benchmarks.md`).
//!
//! [`unite_batch`]: crate::Dsu::unite_batch

use std::cell::UnsafeCell;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::dsu::{Dsu, GrowableDsu};
use crate::epoch::{locate, segment_len, SEGMENTS};
use crate::find::{FindPolicy, TwoTrySplit};
use crate::stats::StatsSink;

/// Word layout: `tag:29 | id:32 | state:3`.
const STATE_MASK: u64 = 0b111;
const ID_SHIFT: u32 = 3;
const TAG_SHIFT: u32 = ID_SHIFT + 32;
const TAG_MASK: u64 = (1 << (64 - TAG_SHIFT)) - 1;

const EMPTY: u64 = 0;
const BUSY: u64 = 1;
const FULL: u64 = 2;
const MOVED: u64 = 3;
const SEALED: u64 = 4;

/// Words per probe group: one 64-byte cache line.
const GROUP: usize = 8;
/// log2 of the first table's group count (32 groups, 256 words).
const FIRST_GROUPS_LOG2: u32 = 5;
/// Groups per migration chunk: the unit one insert helps with.
const CHUNK_GROUPS: usize = 64;
/// Chain slots. A chain never gets this long: table 31 alone would hold
/// 2^39 words, far more than the 2^32 ids the store can mint.
const TABLES: usize = 32;

/// Pairs per gather wave of the batch entry points.
const WAVE: usize = 64;

#[inline]
fn tag_of(h: u64) -> u64 {
    h & TAG_MASK
}

#[inline]
fn state(w: u64) -> u64 {
    w & STATE_MASK
}

#[inline]
fn word_tag(w: u64) -> u64 {
    w >> TAG_SHIFT
}

#[inline]
fn word_id(w: u64) -> usize {
    (w >> ID_SHIFT) as u32 as usize
}

/// The published word of `id`'s key.
fn full(tag: u64, id: usize) -> u64 {
    let id = u32::try_from(id).expect("KeyedDsu ids are packed into 32 bits");
    tag << TAG_SHIFT | u64::from(id) << ID_SHIFT | FULL
}

/// Every word transition's CAS: `Release` on success publishes what the
/// caller wrote before it, `Acquire` on failure lets the caller read the
/// key behind the word it lost to.
#[inline]
fn cas(slot: &AtomicU64, from: u64, to: u64) -> Result<u64, u64> {
    slot.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
}

/// One probe group: a cache line of table words.
#[repr(align(64))]
struct Group([AtomicU64; GROUP]);

/// One table of the chain, with the cursor and done count of its
/// migration.
struct Table {
    groups: Box<[Group]>,
    /// Next migration chunk to hand out.
    cursor: AtomicUsize,
    /// Migration chunks whose copies are complete.
    done: AtomicUsize,
}

impl Table {
    /// Table `t` of a chain: `32 << t` groups, all `EMPTY` (zero).
    fn new(t: usize) -> Self {
        // SAFETY: an all-zero `AtomicU64` is a valid `EMPTY` word.
        let groups =
            unsafe { Box::new_zeroed_slice(1 << (FIRST_GROUPS_LOG2 as usize + t)).assume_init() };
        Table { groups, cursor: AtomicUsize::new(0), done: AtomicUsize::new(0) }
    }

    fn chunks(&self) -> usize {
        self.groups.len().div_ceil(CHUNK_GROUPS)
    }

    /// Index of `tag`'s home group: the tag's low bits, so a doubling
    /// re-places a word from its tag alone.
    #[inline]
    fn home(&self, tag: u64) -> usize {
        tag as usize & (self.groups.len() - 1)
    }

    /// `tag`'s groups in probe order: triangular steps from its home group,
    /// which visit every group of a power-of-two table exactly once.
    #[inline]
    fn path(&self, tag: u64) -> impl Iterator<Item = &Group> {
        let mask = self.groups.len() - 1;
        (1..=self.groups.len()).scan(self.home(tag), move |g, step| {
            let here = *g;
            *g = (*g + step) & mask;
            Some(&self.groups[here])
        })
    }
}

/// A value alone on a 128-byte line pair, the unit adjacent-line
/// prefetchers fetch, so writes to it never invalidate its neighbors.
#[derive(Default)]
#[repr(align(128))]
struct Line<T>(T);

/// The id table: its chain of tables and their bookkeeping. It shares no
/// line with its neighbors, and `keys`, which every claim bumps, sits in a
/// [`Line`] of its own, away from `oldest` and the table pointers that
/// every resolve loads.
#[derive(Default)]
#[repr(align(128))]
struct Chain {
    tables: [AtomicPtr<Table>; TABLES],
    /// Index of the oldest table not yet fully migrated.
    oldest: AtomicUsize,
    /// Tables installed after the first.
    resizes: AtomicUsize,
    /// Published keys (incremented by claim winners after their release
    /// store, so it may momentarily trail a racing reader's view; it
    /// drives growth and reports, never synchronization).
    keys: Line<AtomicUsize>,
}

impl Chain {
    #[inline]
    fn table(&self, t: usize) -> Option<&Table> {
        // SAFETY: a non-null entry points to a table installed by `install`
        // and freed only by `drop`.
        unsafe { self.tables.get(t)?.load(Ordering::Acquire).as_ref() }
    }

    /// Table `t`, installing it (the chain's next table) if absent. The
    /// loser of an install race frees its copy.
    #[cold]
    #[inline(never)]
    fn install(&self, t: usize) -> &Table {
        let fresh = Box::into_raw(Box::new(Table::new(t)));
        match self.tables[t].compare_exchange(
            ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                if t > 0 {
                    self.resizes.fetch_add(1, Ordering::Relaxed);
                }
                // SAFETY: just installed; freed only by `drop`.
                unsafe { &*fresh }
            }
            Err(winner) => {
                // SAFETY: `fresh` came from `Box::into_raw` and was never
                // published.
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: as in `table`.
                unsafe { &*winner }
            }
        }
    }

    /// Installs the doubled table once `keys` pass 7/8 of the newest
    /// table (`from` is any live table index).
    // `publish` is generic, so it is compiled in the caller's crate; without
    // the hint this non-generic check on every claim could not be inlined
    // there.
    #[inline]
    fn grow_if_loaded(&self, keys: usize, mut from: usize) {
        while self.table(from + 1).is_some() {
            from += 1;
        }
        let newest = self.table(from).expect("a claim's table is live");
        if keys * 8 > newest.groups.len() * GROUP * 7 {
            self.install(from + 1);
        }
    }

    /// Copies `word` (a `MOVED` word out of table `t - 1`) into the chain
    /// from table `t` on: onto the first `EMPTY` word of its path, unless an
    /// identical `(tag, id)` word is met first.
    fn copy(&self, word: u64, mut t: usize) {
        let tag = word_tag(word);
        let entry = word & !STATE_MASK;
        let placed = entry | FULL;
        'tables: loop {
            let table = match self.table(t) {
                Some(table) => table,
                None => self.install(t),
            };
            for group in table.path(tag) {
                for slot in &group.0 {
                    let mut w = slot.load(Ordering::Acquire);
                    loop {
                        match state(w) {
                            EMPTY => match cas(slot, EMPTY, placed) {
                                Ok(_) => return,
                                Err(now) => {
                                    w = now;
                                    continue;
                                }
                            },
                            // Unreachable while `t - 1` is still being
                            // migrated; the walk rule is kept regardless.
                            SEALED => {
                                t += 1;
                                continue 'tables;
                            }
                            FULL | MOVED if w & !STATE_MASK == entry => return,
                            // Another key's word, or a fresh claim (whose id
                            // is new, so never ours): skip.
                            _ => {}
                        }
                        break;
                    }
                }
            }
            t += 1;
        }
    }

    /// Freezes chunk `c` of table `t` and copies its entries onward.
    /// Idempotent: a second pass over a migrated chunk finds only `SEALED`
    /// and `MOVED` words, and its re-copies stop at the first copies.
    fn migrate_chunk(&self, t: usize, c: usize) {
        let old = self.table(t).expect("only live tables migrate");
        let groups = c * CHUNK_GROUPS..((c + 1) * CHUNK_GROUPS).min(old.groups.len());
        for group in &old.groups[groups] {
            for slot in &group.0 {
                let mut w = slot.load(Ordering::Acquire);
                loop {
                    match state(w) {
                        EMPTY => match cas(slot, EMPTY, SEALED) {
                            Ok(_) => {}
                            Err(now) => {
                                w = now;
                                continue;
                            }
                        },
                        // A claim racing the freeze: wait for its FULL.
                        BUSY => {
                            std::hint::spin_loop();
                            w = slot.load(Ordering::Acquire);
                            continue;
                        }
                        FULL => match cas(slot, w, w & !STATE_MASK | MOVED) {
                            Ok(_) => self.copy(w, t + 1),
                            Err(now) => {
                                w = now;
                                continue;
                            }
                        },
                        // Moved by a helper that raced us on this chunk; it
                        // may not have copied it yet.
                        MOVED => self.copy(w, t + 1),
                        _ => {}
                    }
                    break;
                }
            }
        }
    }

    /// Helps the pending migration (if any) with one chunk; the helper
    /// completing the last chunk retires the table.
    fn help_migrate(&self) {
        let t = self.oldest.load(Ordering::Acquire);
        if self.table(t + 1).is_none() {
            return;
        }
        let old = self.table(t).expect("a table with a successor is live");
        let chunks = old.chunks();
        if old.cursor.load(Ordering::Relaxed) >= chunks {
            return;
        }
        let c = old.cursor.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            return;
        }
        self.migrate_chunk(t, c);
        if old.done.fetch_add(1, Ordering::AcqRel) + 1 == chunks {
            self.oldest.store(t + 1, Ordering::Release);
        }
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        for slot in &mut self.tables {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: installed from `Box::into_raw`; `&mut self` means
                // no walker can still hold it.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// Keys by dense id, in the parent store's segment geometry
/// (`epoch::locate`). A cell is written once, by the claim winner that
/// minted its id, before that id's `FULL` word is published; ids minted
/// through [`KeyedDsu::dsu`] leave their cells uninitialized. The column
/// never drops keys itself: [`KeyedDsu`]'s `Drop` knows which cells hold
/// one.
struct KeyColumn<K> {
    segments: [AtomicPtr<MaybeUninit<K>>; SEGMENTS],
    /// Owns `K`s, and hands out `&K` across threads.
    _keys: PhantomData<UnsafeCell<K>>,
}

// SAFETY: a cell is written exactly once, by the thread whose claim CAS
// minted its id (unique by the CAS), strictly before the release store of
// the id's FULL word; every read happens after an acquire load of a word
// naming the id and treats the key as immutable from then on. So all
// access is either exclusive (the claim winner, pre-publication) or shared
// read-only (post-publication), which is exactly the `Sync` contract for
// `K: Sync`; `K: Send` is required because keys are created on inserting
// threads and dropped on whatever thread drops the table.
unsafe impl<K: Send + Sync> Sync for KeyColumn<K> {}

impl<K> KeyColumn<K> {
    fn new() -> Self {
        KeyColumn {
            segments: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            _keys: PhantomData,
        }
    }

    /// Writes `key` into `id`'s cell, installing its segment if needed.
    ///
    /// # Safety
    ///
    /// The caller minted `id` and has not published it: nobody else
    /// touches this cell.
    unsafe fn write(&self, id: usize, key: K) {
        let (s, off) = locate(id);
        let mut seg = self.segments[s].load(Ordering::Acquire);
        if seg.is_null() {
            seg = self.install(s);
        }
        // SAFETY: exclusive by the caller's contract; `off < segment_len(s)`.
        unsafe { (*seg.add(off)).write(key) };
    }

    #[cold]
    #[inline(never)]
    fn install(&self, s: usize) -> *mut MaybeUninit<K> {
        let fresh = Box::into_raw(Box::<[K]>::new_uninit_slice(segment_len(s))).cast();
        match self.segments[s].compare_exchange(
            ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` was never published, holds no keys, and
                // came from a boxed slice of this length.
                drop(unsafe {
                    Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, segment_len(s)))
                });
                winner
            }
        }
    }

    /// `id`'s key.
    ///
    /// # Safety
    ///
    /// The caller acquired a `FULL`/`MOVED` word naming `id`, so the cell is
    /// initialized and immutable.
    #[inline]
    unsafe fn get(&self, id: usize) -> &K {
        let (s, off) = locate(id);
        // SAFETY: the published word implies the segment and the cell.
        unsafe { (*self.segments[s].load(Ordering::Acquire).add(off)).assume_init_ref() }
    }

    /// Drops `id`'s key in place.
    ///
    /// # Safety
    ///
    /// The cell holds a key that nothing reads or drops afterwards.
    unsafe fn drop_key(&mut self, id: usize) {
        let (s, off) = locate(id);
        // SAFETY: the caller's contract.
        unsafe { (*self.segments[s].get_mut().add(off)).assume_init_drop() };
    }
}

impl<K> Drop for KeyColumn<K> {
    fn drop(&mut self) {
        for (s, seg) in self.segments.iter_mut().enumerate() {
            let p = *seg.get_mut();
            if !p.is_null() {
                // SAFETY: installed from a boxed slice of this length; its
                // keys were dropped by `KeyedDsu::drop`.
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, segment_len(s))) });
            }
        }
    }
}

/// A concurrent union-find over **arbitrary hashable keys**: a lock-free
/// id table in front of a growable [`Dsu`].
///
/// This is the deployment shape of every real entity-resolution consumer:
/// records arrive identified by row keys, uuids, or sparse 64-bit ids, get
/// mapped to dense indices exactly once, and all merge/query traffic runs
/// on the packed parent-word core. See the [module docs](self) for the id
/// table's design and the race-freedom argument.
///
/// # Example
///
/// ```
/// use concurrent_dsu::KeyedDsu;
///
/// let dsu: KeyedDsu<String> = KeyedDsu::new();
/// let a = dsu.insert(&"alice@example.com".to_string());
/// assert_eq!(dsu.insert(&"alice@example.com".to_string()), a); // idempotent
///
/// dsu.merge_keys(&"alice@example.com".to_string(), &"a.smith@work.test".to_string());
/// assert!(dsu.same_set(&"a.smith@work.test".to_string(), &"alice@example.com".to_string()));
/// // Unseen keys are implicit singletons: equal keys are trivially together,
/// // distinct ones are not.
/// assert!(dsu.same_set(&"nobody".to_string(), &"nobody".to_string()));
/// assert!(!dsu.same_set(&"nobody".to_string(), &"alice@example.com".to_string()));
/// assert_eq!(dsu.key_count(), 2);
/// ```
///
/// Batched ingestion resolves every key first, then routes the dense
/// edges through the batch waves:
///
/// ```
/// use concurrent_dsu::KeyedDsu;
///
/// let dsu: KeyedDsu<u64> = KeyedDsu::new();
/// // Sparse 64-bit keys — the universe never materializes.
/// let burst: Vec<(u64, u64)> = (0..99).map(|i| (i << 40, (i + 1) << 40)).collect();
/// assert_eq!(dsu.merge_keys_batch(&burst), 99);
/// assert_eq!(dsu.set_count(), 1);
/// assert_eq!(dsu.key_count(), 100);
/// ```
pub struct KeyedDsu<K> {
    dsu: GrowableDsu,
    chain: Chain,
    column: KeyColumn<K>,
    salt: u64,
}

impl<K> Drop for KeyedDsu<K> {
    /// Drops every key exactly once. A migrated key has a word in two
    /// tables (`MOVED` in the old, `FULL` in the new) and ids minted through
    /// [`dsu`](KeyedDsu::dsu) have no key, so the words are deduped by id
    /// before the column is freed.
    fn drop(&mut self) {
        let mut keyed = vec![0u64; self.dsu.len().div_ceil(64)];
        for t in 0..TABLES {
            let Some(table) = self.chain.table(t) else { break };
            for w in table.groups.iter().flat_map(|g| &g.0) {
                let w = w.load(Ordering::Relaxed);
                if matches!(state(w), FULL | MOVED) {
                    let id = word_id(w);
                    keyed[id / 64] |= 1 << (id % 64);
                }
            }
        }
        for (i, mut bits) in keyed.into_iter().enumerate() {
            while bits != 0 {
                let id = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // SAFETY: a FULL/MOVED word names an id whose cell its
                // claim wrote; each id is visited once; `&mut self`.
                unsafe { self.column.drop_key(id) };
            }
        }
    }
}

impl<K: Hash + Eq> std::fmt::Debug for KeyedDsu<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedDsu")
            .field("keys", &self.key_count())
            .field("set_count", &self.set_count())
            .field("policy", &TwoTrySplit::NAME)
            .finish()
    }
}

impl<K: Hash + Eq> Default for KeyedDsu<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq> KeyedDsu<K> {
    /// Default seed for the key hash and the underlying id order.
    pub const DEFAULT_SEED: u64 = 0x6b65_7973; // "keys"

    /// An empty keyed structure with the default seed.
    pub fn new() -> Self {
        Self::with_seed(Self::DEFAULT_SEED)
    }

    /// An empty keyed structure whose key hash and id order are salted by
    /// `seed`. Allocates no table: the first insert does.
    pub fn with_seed(seed: u64) -> Self {
        KeyedDsu {
            dsu: Dsu::with_seed(0, seed),
            chain: Chain::default(),
            column: KeyColumn::new(),
            salt: seed,
        }
    }

    /// The seeded 64-bit hash all table geometry derives from.
    fn hash_key(&self, key: &K) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.salt.hash(&mut h);
        key.hash(&mut h);
        h.finish()
    }

    /// Resolves `key` (whose hash is `h`) to its dense id, inserting when
    /// `make_key` is `Some` or answering `None` on a miss. Follows the
    /// walk rule of the module docs, where the protocol and its proof live.
    fn resolve<Sk: StatsSink>(
        &self,
        key: &K,
        h: u64,
        make_key: Option<&dyn Fn() -> K>,
        stats: &mut Sk,
    ) -> Option<usize> {
        let chain = &self.chain;
        if make_key.is_some() {
            chain.help_migrate();
        }
        let tag = tag_of(h);
        let mut probes = 0usize;
        // The key's clone, made before any claim CAS and reused across
        // lost ones.
        let mut owned: Option<K> = None;
        let mut t = chain.oldest.load(Ordering::Acquire);
        'tables: loop {
            let table = match (chain.table(t), make_key) {
                (Some(table), _) => table,
                (None, Some(_)) => chain.install(t),
                // The end of the chain: absent.
                (None, None) => break 'tables,
            };
            for group in table.path(tag) {
                probes += 1;
                for slot in &group.0 {
                    let mut w = slot.load(Ordering::Acquire);
                    loop {
                        match state(w) {
                            EMPTY => {
                                let Some(make_key) = make_key else { break 'tables };
                                if owned.is_none() {
                                    owned = Some(make_key());
                                }
                                match cas(slot, EMPTY, tag << TAG_SHIFT | BUSY) {
                                    Ok(_) => {
                                        let key = owned.take().expect("cloned before the claim");
                                        stats.key_probe_steps(probes);
                                        return Some(self.publish(t, slot, tag, key, stats));
                                    }
                                    // Lost: re-examine the word, which may
                                    // now carry this very key.
                                    Err(now) => {
                                        w = now;
                                        continue;
                                    }
                                }
                            }
                            SEALED => {
                                t += 1;
                                continue 'tables;
                            }
                            s if word_tag(w) == tag => {
                                if s == BUSY {
                                    // A matching claim between its CAS and
                                    // its release store: the one wait.
                                    std::hint::spin_loop();
                                    w = slot.load(Ordering::Acquire);
                                    continue;
                                }
                                let id = word_id(w);
                                // SAFETY: the acquire load of this FULL or
                                // MOVED word follows the column write.
                                if unsafe { self.column.get(id) } == key {
                                    stats.key_probe_steps(probes);
                                    return Some(id);
                                }
                            }
                            _ => {}
                        }
                        break;
                    }
                }
            }
            // Every word of the path is occupied: next table.
            t += 1;
        }
        stats.key_probe_steps(probes);
        None
    }

    /// The claim winner's publication: mint the id, write the key, release
    /// `FULL`, then count the key and grow the chain if it is loaded.
    fn publish<Sk: StatsSink>(
        &self,
        t: usize,
        slot: &AtomicU64,
        tag: u64,
        key: K,
        stats: &mut Sk,
    ) -> usize {
        let id = self.dsu.make_set();
        let word = full(tag, id);
        // SAFETY: `id` is fresh from `make_set` and unpublished.
        unsafe { self.column.write(id, key) };
        slot.store(word, Ordering::Release);
        let keys = self.chain.keys.0.fetch_add(1, Ordering::Relaxed) + 1;
        stats.key_inserted();
        self.chain.grow_if_loaded(keys, t);
        id
    }

    /// Maps `key` to its dense id, inserting it as a fresh singleton if
    /// unseen. Idempotent and race-free: every call with equal keys — on
    /// any thread, at any interleaving — returns the same id, and exactly
    /// one [`make_set`](crate::Dsu::make_set) ever runs per
    /// distinct key.
    pub fn insert(&self, key: &K) -> usize
    where
        K: Clone,
    {
        self.insert_with(key, &mut ())
    }

    /// [`insert`](KeyedDsu::insert) reporting work (probe steps, claim
    /// wins, table growth) into `stats`.
    pub fn insert_with<Sk: StatsSink>(&self, key: &K, stats: &mut Sk) -> usize
    where
        K: Clone,
    {
        self.insert_hashed(key, self.hash_key(key), stats)
    }

    fn insert_hashed<Sk: StatsSink>(&self, key: &K, h: u64, stats: &mut Sk) -> usize
    where
        K: Clone,
    {
        let make = || key.clone();
        self.resolve(key, h, Some(&make), stats).expect("insert always resolves")
    }

    /// The dense id of `key`, or `None` if it was never inserted. Never
    /// allocates or claims anything.
    pub fn get(&self, key: &K) -> Option<usize> {
        self.get_with(key, &mut ())
    }

    /// [`get`](KeyedDsu::get) reporting probe work into `stats`.
    pub fn get_with<Sk: StatsSink>(&self, key: &K, stats: &mut Sk) -> Option<usize> {
        self.resolve(key, self.hash_key(key), None, stats)
    }

    /// Unites the sets containing `a` and `b`, inserting unseen keys as
    /// singletons first; `true` iff **this call** performed the link (the
    /// two sets were distinct at its linearization point).
    pub fn merge_keys(&self, a: &K, b: &K) -> bool
    where
        K: Clone,
    {
        self.merge_keys_with(a, b, &mut ())
    }

    /// [`merge_keys`](KeyedDsu::merge_keys) reporting work into `stats`.
    pub fn merge_keys_with<Sk: StatsSink>(&self, a: &K, b: &K, stats: &mut Sk) -> bool
    where
        K: Clone,
    {
        let ia = self.insert_with(a, stats);
        let ib = self.insert_with(b, stats);
        self.dsu.unite_with(ia, ib, stats)
    }

    /// `true` iff `a` and `b` are in the same set at the operation's
    /// linearization point. Never inserts: unseen keys are implicit
    /// singletons, so two equal unseen keys are together and any other
    /// pairing with an unseen key is not.
    pub fn same_set(&self, a: &K, b: &K) -> bool {
        self.same_set_with(a, b, &mut ())
    }

    /// [`same_set`](KeyedDsu::same_set) reporting work into `stats`.
    pub fn same_set_with<Sk: StatsSink>(&self, a: &K, b: &K, stats: &mut Sk) -> bool {
        self.same_set_hashed(a, b, (self.hash_key(a), self.hash_key(b)), stats)
    }

    fn same_set_hashed<Sk: StatsSink>(&self, a: &K, b: &K, h: (u64, u64), stats: &mut Sk) -> bool {
        match (self.resolve(a, h.0, None, stats), self.resolve(b, h.1, None, stats)) {
            (Some(ia), Some(ib)) => self.dsu.same_set_with(ia, ib, stats),
            // At most one key exists: same set exactly when both name the
            // same implicit singleton.
            _ => a == b,
        }
    }

    /// Batched [`merge_keys`](KeyedDsu::merge_keys): resolves every key of
    /// the burst to a dense id in gather waves (inserting unseen keys),
    /// then routes the resolved edge list through the batch ingestion
    /// waves (`bulk`). Returns the number of edges that performed a link.
    pub fn merge_keys_batch(&self, pairs: &[(K, K)]) -> usize
    where
        K: Clone,
    {
        self.merge_keys_batch_with(pairs, &mut ())
    }

    /// [`merge_keys_batch`](KeyedDsu::merge_keys_batch) reporting both the
    /// resolution work (probes, claims, growth) and the batch-wave work
    /// into `stats`.
    pub fn merge_keys_batch_with<Sk: StatsSink>(&self, pairs: &[(K, K)], stats: &mut Sk) -> usize
    where
        K: Clone,
    {
        let mut edges = Vec::with_capacity(pairs.len());
        let mut hashes = Vec::with_capacity(WAVE);
        for wave in pairs.chunks(WAVE) {
            self.gather(wave, &mut hashes);
            edges.extend(wave.iter().zip(&hashes).map(|((a, b), &(ha, hb))| {
                (self.insert_hashed(a, ha, stats), self.insert_hashed(b, hb, stats))
            }));
        }
        self.dsu.unite_batch_with(&edges, stats)
    }

    /// Batched [`same_set`](KeyedDsu::same_set): one verdict per pair,
    /// resolved in gather waves without inserting.
    pub fn same_set_batch(&self, pairs: &[(K, K)]) -> Vec<bool> {
        self.same_set_batch_with(pairs, &mut ())
    }

    /// [`same_set_batch`](KeyedDsu::same_set_batch) reporting work into
    /// `stats`.
    pub fn same_set_batch_with<Sk: StatsSink>(
        &self,
        pairs: &[(K, K)],
        stats: &mut Sk,
    ) -> Vec<bool> {
        let mut verdicts = Vec::with_capacity(pairs.len());
        let mut hashes = Vec::with_capacity(WAVE);
        for wave in pairs.chunks(WAVE) {
            self.gather(wave, &mut hashes);
            verdicts.extend(
                wave.iter().zip(&hashes).map(|((a, b), &h)| self.same_set_hashed(a, b, h, stats)),
            );
        }
        verdicts
    }

    /// The first two steps of a gather wave: hash the wave's keys into
    /// `hashes`, then load each key's home group in the oldest live table.
    /// The loads are independent, so their misses overlap; the in-order
    /// resolution that follows finds the groups cached.
    fn gather(&self, wave: &[(K, K)], hashes: &mut Vec<(u64, u64)>) {
        hashes.clear();
        hashes.extend(wave.iter().map(|(a, b)| (self.hash_key(a), self.hash_key(b))));
        let Some(table) = self.chain.table(self.chain.oldest.load(Ordering::Acquire)) else {
            return;
        };
        let mut seen = 0u64;
        for h in hashes.iter().flat_map(|&(ha, hb)| [ha, hb]) {
            seen ^= table.groups[table.home(tag_of(h))].0[0].load(Ordering::Relaxed);
        }
        // Keeps the loads, whose values the resolution re-reads anyway.
        std::hint::black_box(seen);
    }

    /// Number of distinct keys inserted so far.
    pub fn key_count(&self) -> usize {
        self.chain.keys.0.load(Ordering::Relaxed)
    }

    /// `true` before the first insert.
    pub fn is_empty(&self) -> bool {
        self.key_count() == 0
    }

    /// Number of disjoint sets right now (each unseen key would be one
    /// more).
    pub fn set_count(&self) -> usize {
        self.dsu.set_count()
    }

    /// Tables installed after the first (one per doubling): the id
    /// table's own growth counter, read at quiescence. Growth is layer
    /// bookkeeping, not an operation step, so no [`StatsSink`] event
    /// carries it.
    pub fn id_table_resizes(&self) -> usize {
        self.chain.resizes.load(Ordering::Relaxed)
    }

    /// The underlying dense-id structure. Ids returned by
    /// [`insert`](KeyedDsu::insert)/[`get`](KeyedDsu::get) are its element
    /// indices, so mixed-mode pipelines (keyed ingest, dense analytics)
    /// can drop to the array API at any time.
    pub fn dsu(&self) -> &GrowableDsu {
        &self.dsu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::splitmix64;
    use crate::OpStats;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn keyed_dsu_is_send_and_sync() {
        assert_send_sync::<KeyedDsu<String>>();
        assert_send_sync::<KeyedDsu<u64>>();
    }

    #[test]
    fn insert_is_idempotent_and_dense() {
        let dsu: KeyedDsu<String> = KeyedDsu::new();
        let ids: Vec<usize> = (0..100).map(|i| dsu.insert(&format!("k{i}"))).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "ids are dense 0..n");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(dsu.insert(&format!("k{i}")), *id, "re-insert returns the same id");
            assert_eq!(dsu.get(&format!("k{i}")), Some(*id));
        }
        assert_eq!(dsu.key_count(), 100);
        assert_eq!(dsu.set_count(), 100);
        assert_eq!(dsu.get(&"unseen".to_string()), None);
    }

    #[test]
    fn merge_and_query_semantics() {
        let dsu: KeyedDsu<u64> = KeyedDsu::new();
        assert!(dsu.merge_keys(&10, &20));
        assert!(!dsu.merge_keys(&20, &10), "already united");
        assert!(dsu.same_set(&10, &20));
        assert!(!dsu.same_set(&10, &30), "30 is an unseen singleton");
        assert!(dsu.same_set(&99, &99), "an unseen key is together with itself");
        assert!(!dsu.same_set(&98, &99), "two distinct unseen keys are not");
        assert!(!dsu.merge_keys(&7, &7), "self-merge inserts but never links");
        assert_eq!(dsu.key_count(), 3);
        assert_eq!(dsu.set_count(), 2);
    }

    #[test]
    fn batch_matches_per_op() {
        let pairs: Vec<(u64, u64)> =
            (0..200).map(|i| (splitmix64(i) % 64, splitmix64(i + 1000) % 64)).collect();
        let batched: KeyedDsu<u64> = KeyedDsu::with_seed(7);
        let per_op: KeyedDsu<u64> = KeyedDsu::with_seed(7);
        let links = batched.merge_keys_batch(&pairs);
        let expected = pairs.iter().filter(|(a, b)| per_op.merge_keys(a, b)).count();
        assert_eq!(links, expected);
        assert_eq!(batched.key_count(), per_op.key_count());
        assert_eq!(batched.set_count(), per_op.set_count());
        let queries: Vec<(u64, u64)> = (0..64).map(|i| (i, (i * 7) % 64)).collect();
        let lhs = batched.same_set_batch(&queries);
        let rhs: Vec<bool> = queries.iter().map(|(a, b)| per_op.same_set(a, b)).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn counters_attribute_the_keyed_work() {
        let dsu: KeyedDsu<String> = KeyedDsu::with_seed(3);
        let mut stats = OpStats::default();
        for i in 0..500 {
            dsu.insert_with(&format!("key-{i}"), &mut stats);
        }
        assert_eq!(stats.keys_inserted, 500);
        assert!(stats.key_probe_steps >= 500, "every resolve probes at least once");
        // 500 keys pass the 7/8 load mark of the 256-word first table.
        let resizes = dsu.id_table_resizes();
        assert!(resizes > 0);
        let mut lookups = OpStats::default();
        for i in 0..500 {
            assert!(dsu.get_with(&format!("key-{i}"), &mut lookups).is_some());
        }
        assert_eq!(lookups.keys_inserted, 0, "lookups never claim");
        assert_eq!(dsu.id_table_resizes(), resizes, "lookups never grow the table");
        assert!(lookups.key_probe_steps >= 500);
    }

    #[test]
    fn absent_lookups_miss_cleanly_at_any_fill() {
        // A miss must return None whether its walk stops at an EMPTY word,
        // leaves a table at a SEALED one, or runs off the end of the chain.
        // Fill the table through several doublings so absent probes meet
        // all three.
        let dsu: KeyedDsu<String> = KeyedDsu::with_seed(9);
        assert_eq!(dsu.get(&"before-any-table".to_string()), None);
        for i in 0..2_000 {
            dsu.insert(&format!("present-{i}"));
        }
        for i in 0..2_000 {
            assert_eq!(dsu.get(&format!("absent-{i}")), None);
            assert!(!dsu.same_set(&format!("absent-{i}"), &"present-0".to_string()));
        }
        assert_eq!(dsu.key_count(), 2_000);
    }

    #[test]
    fn lookups_take_about_one_probe_at_any_fill() {
        let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(1);
        let mut inserts = OpStats::default();
        for i in 0..50_000 {
            dsu.insert_with(&splitmix64(i), &mut inserts);
        }
        let mut hits = OpStats::default();
        for i in 0..50_000 {
            assert!(dsu.get_with(&splitmix64(i), &mut hits).is_some());
        }
        let per_key = |s: &OpStats| s.key_probe_steps as f64 / 50_000.0;
        assert!(per_key(&inserts) < 2.0, "inserts probe {} groups per key", per_key(&inserts));
        assert!(per_key(&hits) < 2.0, "lookups probe {} groups per key", per_key(&hits));
    }

    #[test]
    fn construction_allocates_no_table() {
        let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(0);
        assert!(dsu.chain.table(0).is_none(), "the first table is lazy");
        dsu.insert(&1);
        assert!(dsu.chain.table(0).is_some());
        assert_eq!(dsu.id_table_resizes(), 0, "a first table is not growth");
    }

    /// Every `FULL` word of table `t` of `chain`, as `(tag, id)` entries.
    fn entries(chain: &Chain, t: usize) -> Vec<u64> {
        let table = chain.table(t).expect("live");
        let words = table.groups.iter().flat_map(|g| &g.0).map(|w| w.load(Ordering::Relaxed));
        words.filter(|&w| state(w) == FULL).map(|w| w & !STATE_MASK).collect()
    }

    #[test]
    fn migrating_one_chunk_twice_copies_each_word_once() {
        let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(5);
        let chain = &dsu.chain;
        // Fill table 0 to its growth mark without helping any migration:
        // the 225th key installs table 1 and nobody has claimed a chunk.
        let mut i = 0;
        while chain.table(1).is_none() {
            dsu.insert(&splitmix64(i));
            i += 1;
        }
        let before = entries(chain, 0);
        assert_eq!(before.len() as u64, i);
        assert_eq!(chain.table(0).unwrap().chunks(), 1);
        let in_next = entries(chain, 1).len();
        chain.migrate_chunk(0, 0);
        chain.migrate_chunk(0, 0);
        let mut after = entries(chain, 1);
        assert_eq!(after.len(), in_next + before.len(), "one word per migrated key");
        after.sort_unstable();
        after.dedup();
        assert_eq!(after.len(), in_next + before.len(), "no (tag, id) word twice");
        assert!(entries(chain, 0).is_empty(), "the old table holds only MOVED/SEALED words");
        for k in 0..i {
            assert_eq!(dsu.get(&splitmix64(k)), Some(k as usize), "key {k} after migration");
        }
    }

    #[test]
    fn dense_ids_interoperate_with_the_array_api() {
        let dsu: KeyedDsu<String> = KeyedDsu::new();
        let a = dsu.insert(&"a".to_string());
        let b = dsu.insert(&"b".to_string());
        assert!(dsu.dsu().unite(a, b));
        assert!(dsu.same_set(&"a".to_string(), &"b".to_string()));
    }

    #[test]
    fn debug_format() {
        let dsu: KeyedDsu<u64> = KeyedDsu::new();
        dsu.insert(&42);
        let s = format!("{dsu:?}");
        assert!(s.contains("KeyedDsu") && s.contains("two-try"), "{s}");
    }

    #[test]
    fn drop_runs_key_destructors() {
        // Dropping the table drops exactly the owned keys (Arc counts return
        // to 1): after plain inserts, and in the middle of a migration, with
        // keyless ids minted through the array API between the keyed ones.
        use std::sync::Arc;
        let probe = Arc::new(());
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct Tracked(usize, Arc<()>);
        {
            let dsu: KeyedDsu<Tracked> = KeyedDsu::new();
            for i in 0..64 {
                dsu.insert(&Tracked(i, probe.clone()));
            }
            assert!(Arc::strong_count(&probe) >= 65);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop leaked or double-freed keys");
        {
            let dsu: KeyedDsu<Tracked> = KeyedDsu::with_seed(2);
            let chain = &dsu.chain;
            let mut i = 0;
            let insert = |i: &mut usize| {
                dsu.insert(&Tracked(*i, probe.clone()));
                if i.is_multiple_of(3) {
                    dsu.dsu().make_set();
                }
                *i += 1;
            };
            // Tables 0..3 have been migrated when table 4 appears; two more
            // inserts then migrate two of table 3's four chunks.
            while chain.table(4).is_none() {
                insert(&mut i);
            }
            insert(&mut i);
            insert(&mut i);
            let table = chain.table(3).unwrap();
            assert_eq!((table.chunks(), table.done.load(Ordering::Relaxed)), (4, 2));
            assert_eq!(chain.oldest.load(Ordering::Relaxed), 3, "table 3 is mid-migration");
            assert_eq!(dsu.key_count(), i);
            assert!(dsu.dsu().len() > i, "keyless ids exist");
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop mid-migration leaked or double-freed keys");
    }
}
