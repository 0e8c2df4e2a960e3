//! Keyed entity resolution: arbitrary hashable keys over the packed core.
//!
//! Every production consumer of union-find in the related-work sets is
//! *keyed*, not array-indexed: structural-variant mergers unite records by
//! row key, query optimizers unite plan-group ids through an
//! `RwLock<HashMap>`. The bottleneck in those systems is the keyed facade —
//! a lock around a hash map — not the union-find underneath. [`KeyedDsu`]
//! replaces that facade with a **lock-free sharded id table**: keys hash to
//! dense element indices of a growable [`Dsu`], and all
//! set operations run on the packed word store this repo has spent six PRs
//! optimizing.
//!
//! # The id table
//!
//! The table maps `K → usize` (a dense id, assigned by
//! [`make_set`](crate::Dsu::make_set) in insertion order) and never
//! deletes. It is sharded by the **high bits** of a seeded 64-bit hash
//! ([`ShardSpec`] picks the count): inserts of unrelated keys touch
//! different shards' allocations, so no
//! cache line is hammered by every thread, and false sharing cannot cross
//! a shard boundary. Each shard is a directory of doubling open-addressed
//! *segments* (64, 128, 256, … slots). Slots are claimed by CAS and
//! entries **never move or rehash** — growth allocates a fresh segment
//! (counted as [`id_table_resizes`](crate::OpStats::id_table_resizes))
//! and leaves every published slot exactly where a concurrent reader may
//! be probing it.
//!
//! A key's probe path is a deterministic sequence: **one** hashed
//! candidate slot per segment, visited in segment order (a multi-slot
//! window per segment would force every operation to re-scan the
//! saturated early segments' windows end to end; one candidate per
//! segment keeps the whole path at ~one load per allocated segment).
//! Inserts claim the **first empty slot** on that path with a CAS;
//! because slots only ever go from empty to occupied, two racing inserts
//! of the same unseen key cannot both claim — the loser's CAS fails, it
//! re-examines the slot, finds the winner's tag, and adopts the winner's
//! id (proved in the comment on `resolve`; stress-tested in
//! `tests/keyed_semantics.rs`). Exactly one dense id is ever allocated
//! per distinct key.
//!
//! The waits in the structure are both in the id table: a thread that
//! loses a same-key race spins until the winner publishes its id
//! (typically a handful of cycles: the winner is between its claim CAS
//! and one release store), and threads racing to grow one shard meet at
//! that segment's `OnceLock`. The dense store underneath adds none — its
//! racing segment allocators each build the segment and the loser frees
//! its copy. The operations are lock-free in aggregate, not wait-free,
//! which is the paper's own caveat for unbounded universes.
//!
//! # Batched resolution
//!
//! [`merge_keys_batch`](KeyedDsu::merge_keys_batch) first resolves every
//! key of the burst to its dense id, one key after another (inserting
//! unseen keys), and only then routes the resolved edge list through
//! [`unite_batch`], so keyed ingestion inherits the batch waves' gather
//! loads over parent words. The key resolution itself is a plain per-key
//! loop: no key's probe is overlapped with another's.
//! [`same_set_batch`](KeyedDsu::same_set_batch) resolves without
//! inserting and answers queries on the packed core.
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
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::dsu::{Dsu, GrowableDsu};
use crate::find::{FindPolicy, TwoTrySplit};
use crate::knob;
use crate::order::splitmix64;
use crate::stats::{ShardSkew, StatsSink};

/// Slot states, kept in the low bits of `Slot::meta`; the rest of the word
/// is the key's hash tag, so probes skip non-matching slots without
/// touching key storage.
const STATUS_MASK: u64 = 0b11;
const EMPTY: u64 = 0;
const BUSY: u64 = 0b01;
const FULL: u64 = 0b10;

/// log2 of the first segment's slot count per shard.
///
/// Each key has exactly **one** candidate slot per segment (no linear
/// window): early segments saturate under load, and a multi-slot window
/// would make every later operation scan those full windows end to end —
/// measured at >100 wasted probes per op at a few ten-thousand keys. With
/// one candidate per segment the whole probe path is one load per
/// *allocated* segment (~log₂ of the key count), at the cost of segments
/// cascading to the next doubling a little before 100% fill.
const BASE_BITS: u32 = 8;

/// Maximum doubling segments per shard (the first has `2^BASE_BITS` slots;
/// 48 more than covers any addressable key count).
const KEY_SEGMENTS: usize = 48;

/// One id-table slot: a tagged state word, the dense id, and inline key
/// storage written exactly once (by the claim winner, before `meta` is
/// released to `FULL`).
struct Slot<K> {
    meta: AtomicU64,
    id: AtomicUsize,
    key: UnsafeCell<MaybeUninit<K>>,
}

impl<K> Slot<K> {
    fn new() -> Self {
        Slot {
            meta: AtomicU64::new(EMPTY),
            id: AtomicUsize::new(0),
            key: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

/// One shard of the id table: a directory of doubling open-addressed
/// segments plus its local bookkeeping, padded so neighboring shards'
/// headers never share a cache line.
#[repr(align(128))]
struct KeyShard<K> {
    segments: [OnceLock<Box<[Slot<K>]>>; KEY_SEGMENTS],
    /// Published keys in this shard (incremented by claim winners after
    /// their release store, so it may momentarily trail a racing reader's
    /// view — a report counter, not a synchronization point).
    keys: AtomicUsize,
    /// Segments allocated after construction.
    resizes: AtomicUsize,
}

// SAFETY: the only non-Sync field is the `UnsafeCell<MaybeUninit<K>>` in
// each slot. It is written exactly once, by the thread whose CAS moved the
// slot's `meta` from EMPTY to BUSY (unique by CAS), strictly before the
// release store of FULL; every read happens after an acquire load observes
// FULL and treats the key as immutable from then on. So all access is
// either exclusive (the claim winner, pre-publication) or shared read-only
// (post-publication), which is exactly the `Sync` contract for `K: Sync`;
// `K: Send` is required because drop happens on whatever thread drops the
// table.
unsafe impl<K: Send + Sync> Sync for KeyShard<K> {}

impl<K> KeyShard<K> {
    fn new() -> Self {
        KeyShard {
            segments: std::array::from_fn(|_| OnceLock::new()),
            keys: AtomicUsize::new(0),
            resizes: AtomicUsize::new(0),
        }
    }
}

impl<K> Drop for KeyShard<K> {
    fn drop(&mut self) {
        for seg in &mut self.segments {
            if let Some(slots) = seg.get_mut() {
                for slot in slots.iter_mut() {
                    // &mut self: no concurrent claimers, so BUSY is
                    // impossible and FULL keys are fully initialized.
                    if slot.meta.load(Ordering::Relaxed) & STATUS_MASK == FULL {
                        // SAFETY: FULL ⇒ the key was written and published;
                        // exclusive access ⇒ nobody reads it after this.
                        unsafe { (*slot.key.get()).assume_init_drop() };
                    }
                }
            }
        }
    }
}

/// A concurrent union-find over **arbitrary hashable keys**: a lock-free
/// sharded id table in front of a growable [`Dsu`].
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
pub struct KeyedDsu<K, F: FindPolicy = TwoTrySplit> {
    dsu: GrowableDsu<F>,
    shards: Box<[KeyShard<K>]>,
    shard_bits: u32,
    salt: u64,
}

impl<K: Hash + Eq, F: FindPolicy> std::fmt::Debug for KeyedDsu<K, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedDsu")
            .field("keys", &self.key_count())
            .field("set_count", &self.set_count())
            .field("key_shards", &self.shards.len())
            .field("policy", &F::NAME)
            .finish()
    }
}

impl<K: Hash + Eq, F: FindPolicy> Default for KeyedDsu<K, F> {
    fn default() -> Self {
        Self::new()
    }
}

/// How many shards the keyed id table uses.
///
/// Shard counts are always a power of two (construction rounds up) so the
/// shard of a key is a shift of its hash, never a division.
///
/// # Example
///
/// ```
/// use concurrent_dsu::ShardSpec;
///
/// assert_eq!(ShardSpec::with_shards(3).shards(), 4); // rounded up
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// Upper bound on the shard count: beyond a few hundred shards the
    /// headers outgrow L1 and the contention benefit is long exhausted.
    const MAX_SHARDS: usize = 256;

    /// Exactly `shards` shards, rounded up to the next power of two and
    /// clamped to 256.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a sharded table needs at least one shard");
        ShardSpec { shards: shards.next_power_of_two().min(Self::MAX_SHARDS) }
    }

    /// The (power-of-two) shard count this spec requests.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// Environment variable overriding the id-table shard count.
const ENV_KEY_SHARDS: &str = "DSU_KEY_SHARDS";

/// Parses a `DSU_KEY_SHARDS` value: a positive integer shard count.
/// `None` iff `v` is not one (the env reader warns and falls back).
fn parse_key_shards(v: &str) -> Option<ShardSpec> {
    v.trim().parse::<usize>().ok().filter(|&s| s > 0).map(ShardSpec::with_shards)
}

/// The id-table shard count: `DSU_KEY_SHARDS` if set (a positive integer,
/// rounded up to a power of two), else one shard per hardware thread. A
/// set-but-unrecognized value warns once on stderr ([`knob`]) and falls
/// back to the machine-derived count.
///
/// The variable is read on every construction. The machine-derived count
/// is computed once per process: `available_parallelism` can read cgroup
/// files, which costs more than building the structure itself.
fn key_shard_spec() -> ShardSpec {
    static MACHINE: OnceLock<ShardSpec> = OnceLock::new();
    let auto = || {
        *MACHINE.get_or_init(|| {
            ShardSpec::with_shards(std::thread::available_parallelism().map_or(1, |p| p.get()))
        })
    };
    match std::env::var(ENV_KEY_SHARDS) {
        Err(_) => auto(),
        Ok(v) => parse_key_shards(&v).unwrap_or_else(|| {
            knob::warn_unrecognized(
                ENV_KEY_SHARDS,
                &v,
                "a positive integer shard count",
                "available_parallelism",
            );
            auto()
        }),
    }
}

impl<K: Hash + Eq, F: FindPolicy> KeyedDsu<K, F> {
    /// Default seed for the key hash and the underlying id order.
    pub const DEFAULT_SEED: u64 = 0x6b65_7973; // "keys"

    /// An empty keyed structure with the default seed and an id-table
    /// shard count derived from the machine (override with the
    /// `DSU_KEY_SHARDS` environment variable).
    pub fn new() -> Self {
        Self::with_seed(Self::DEFAULT_SEED)
    }

    /// An empty keyed structure whose key hash and id order are salted by
    /// `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_spec(seed, key_shard_spec())
    }

    /// An empty keyed structure with an explicit id-table [`ShardSpec`].
    pub fn with_spec(seed: u64, spec: ShardSpec) -> Self {
        let shards: Box<[KeyShard<K>]> = (0..spec.shards()).map(|_| KeyShard::new()).collect();
        // Pre-allocate every shard's first segment: the common case never
        // pays the directory's OnceLock initialization race, and
        // `id_table_resizes` cleanly means "growth", not "first touch".
        for shard in shards.iter() {
            let _ = shard.segments[0].get_or_init(|| Self::alloc_segment(0));
        }
        let shard_bits = spec.shards().trailing_zeros();
        KeyedDsu { dsu: Dsu::with_seed(0, seed), shards, shard_bits, salt: seed }
    }

    fn alloc_segment(s: usize) -> Box<[Slot<K>]> {
        (0..1usize << (BASE_BITS as usize + s)).map(|_| Slot::new()).collect()
    }

    /// The seeded 64-bit hash all table geometry derives from.
    fn hash_key(&self, key: &K) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.salt.hash(&mut h);
        key.hash(&mut h);
        h.finish()
    }

    #[inline]
    fn shard_of(&self, h: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (h >> (64 - self.shard_bits)) as usize
        }
    }

    /// Resolves `key` to its dense id, inserting (when `insert_key` is
    /// `Some`) or answering `None` on a miss.
    ///
    /// The probe path is the same deterministic slot sequence for every
    /// thread: **one** hashed candidate slot per segment, in segment order
    /// (one candidate, not a window — see the note on [`BASE_BITS`]).
    /// **Why the same key can never claim two slots:** slots move only
    /// from empty to occupied, and a claim is a CAS on the *first empty
    /// slot of the path*. Suppose inserts A and B of one key both claim,
    /// at path positions `i < j`. B claimed at `j`, so B observed position
    /// `i` occupied — and since occupancy is permanent, `i` is occupied by
    /// the same entry forever. That entry carries either B's key (then B
    /// adopts it and never claims, a contradiction) or a different key —
    /// but A's successful CAS at `i` means `i` was *empty* when A claimed,
    /// after which it holds A's key forever, contradicting "a different
    /// key". So at most one claim per key, and every resolver converges on
    /// the winner's id.
    fn resolve<Sk: StatsSink>(
        &self,
        key: &K,
        insert_key: Option<&dyn Fn() -> K>,
        stats: &mut Sk,
    ) -> Option<usize> {
        let h = self.hash_key(key);
        let shard = &self.shards[self.shard_of(h)];
        let tag = h & !STATUS_MASK;
        let mut probes = 0usize;
        for s in 0..KEY_SEGMENTS {
            let seg = match shard.segments[s].get() {
                Some(seg) => seg,
                None if insert_key.is_some() => {
                    let mut allocated = false;
                    let seg = shard.segments[s].get_or_init(|| {
                        allocated = true;
                        Self::alloc_segment(s)
                    });
                    if allocated {
                        shard.resizes.fetch_add(1, Ordering::Relaxed);
                        stats.id_table_resize();
                    }
                    seg
                }
                // Lookup-only: an unallocated segment cannot hold the key,
                // and later segments only exist if this one does — miss.
                None => {
                    stats.key_probe_steps(probes);
                    return None;
                }
            };
            let slot = &seg[splitmix64(h ^ s as u64) as usize & (seg.len() - 1)];
            probes += 1;
            loop {
                let meta = slot.meta.load(Ordering::Acquire);
                if meta == EMPTY {
                    let Some(make_key) = insert_key else {
                        // A completed insert would have claimed this slot
                        // or an earlier one on the path: miss.
                        stats.key_probe_steps(probes);
                        return None;
                    };
                    if slot
                        .meta
                        .compare_exchange(EMPTY, tag | BUSY, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        // Claim won: this thread owns the slot's key cell
                        // until the release store below.
                        // SAFETY: exclusive by the CAS; see KeyShard's
                        // Sync justification.
                        unsafe { (*slot.key.get()).write(make_key()) };
                        let id = self.dsu.make_set();
                        slot.id.store(id, Ordering::Relaxed);
                        slot.meta.store(tag | FULL, Ordering::Release);
                        shard.keys.fetch_add(1, Ordering::Relaxed);
                        stats.key_inserted();
                        stats.key_probe_steps(probes);
                        return Some(id);
                    }
                    // Someone claimed this slot first — re-examine it: it
                    // may be carrying this very key.
                    continue;
                }
                if meta & !STATUS_MASK == tag {
                    if meta & STATUS_MASK == BUSY {
                        // A matching claim is between its CAS and its
                        // release store — the structure's one wait.
                        std::hint::spin_loop();
                        continue;
                    }
                    // FULL with a matching tag: the acquire load above
                    // synchronized with the winner's release store, so
                    // the key cell is initialized and immutable.
                    // SAFETY: published ⇒ read-only; see KeyShard.
                    let stored = unsafe { (*slot.key.get()).assume_init_ref() };
                    if stored == key {
                        stats.key_probe_steps(probes);
                        return Some(slot.id.load(Ordering::Relaxed));
                    }
                }
                // Occupied by a different key (or a colliding tag): next
                // segment on the path.
                break;
            }
        }
        // A lookup that walked every allocated segment without meeting an
        // empty slot simply missed; only an *insert* that failed to claim
        // anywhere in 48 doubling segments indicates a broken table.
        if insert_key.is_none() {
            stats.key_probe_steps(probes);
            return None;
        }
        panic!(
            "KeyedDsu id table exhausted all {KEY_SEGMENTS} doubling segments in one shard — \
             astronomically unlikely under any honest Hash implementation; check the key type's \
             Hash for degenerate output"
        );
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
        let make = || key.clone();
        self.resolve(key, Some(&make), stats).expect("insert always resolves")
    }

    /// The dense id of `key`, or `None` if it was never inserted. Never
    /// allocates or claims anything.
    pub fn get(&self, key: &K) -> Option<usize> {
        self.get_with(key, &mut ())
    }

    /// [`get`](KeyedDsu::get) reporting probe work into `stats`.
    pub fn get_with<Sk: StatsSink>(&self, key: &K, stats: &mut Sk) -> Option<usize> {
        self.resolve(key, None, stats)
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
        match (self.resolve(a, None, stats), self.resolve(b, None, stats)) {
            (Some(ia), Some(ib)) => self.dsu.same_set_with(ia, ib, stats),
            // At most one key exists: same set exactly when both name the
            // same implicit singleton.
            _ => a == b,
        }
    }

    /// Batched [`merge_keys`](KeyedDsu::merge_keys): resolves every key of
    /// the burst to a dense id, key by key (inserting unseen keys), then
    /// routes the resolved edge list through the batch ingestion waves
    /// (`bulk`). Returns the number of edges that performed a link.
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
        let edges = self.resolve_pairs(pairs, stats);
        self.dsu.unite_batch_with(&edges, stats)
    }

    /// Batched [`same_set`](KeyedDsu::same_set): one verdict per pair,
    /// resolved without inserting.
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
        pairs.iter().map(|(a, b)| self.same_set_with(a, b, stats)).collect()
    }

    /// The resolution step of the batch path: every key resolved
    /// (inserting) in order, before any parent word is touched, so the
    /// subsequent waves run on a plain dense edge list.
    fn resolve_pairs<Sk: StatsSink>(&self, pairs: &[(K, K)], stats: &mut Sk) -> Vec<(usize, usize)>
    where
        K: Clone,
    {
        pairs
            .iter()
            .map(|(a, b)| (self.insert_with(a, stats), self.insert_with(b, stats)))
            .collect()
    }

    /// Number of distinct keys inserted so far.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.keys.load(Ordering::Relaxed)).sum()
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

    /// Number of id-table shards.
    pub fn key_shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total open-addressing segments allocated after construction,
    /// summed over shards — the table-growth half of
    /// [`OpStats::id_table_resizes`](crate::OpStats::id_table_resizes),
    /// readable at quiescence without a sink.
    pub fn id_table_resizes(&self) -> usize {
        self.shards.iter().map(|s| s.resizes.load(Ordering::Relaxed)).sum()
    }

    /// How evenly keys spread across the id-table shards (uniform hash ⇒
    /// imbalance near 1.0; a hot shard means a degenerate `Hash`).
    pub fn key_skew(&self) -> ShardSkew {
        ShardSkew::from_counts(self.shards.iter().map(|s| s.keys.load(Ordering::Relaxed) as u64))
    }

    /// The underlying dense-id structure. Ids returned by
    /// [`insert`](KeyedDsu::insert)/[`get`](KeyedDsu::get) are its element
    /// indices, so mixed-mode pipelines (keyed ingest, dense analytics)
    /// can drop to the array API at any time.
    pub fn dsu(&self) -> &GrowableDsu<F> {
        &self.dsu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let dsu: KeyedDsu<String> = KeyedDsu::with_spec(3, ShardSpec::with_shards(2));
        let mut stats = OpStats::default();
        for i in 0..500 {
            dsu.insert_with(&format!("key-{i}"), &mut stats);
        }
        assert_eq!(stats.keys_inserted, 500);
        assert!(stats.key_probe_steps >= 500, "every resolve probes at least once");
        // 500 keys over 2 shards × 256 base slots with one candidate per
        // segment must have cascaded into fresh segments.
        assert!(stats.id_table_resizes > 0);
        assert_eq!(stats.id_table_resizes as usize, dsu.id_table_resizes());
        let mut lookups = OpStats::default();
        for i in 0..500 {
            assert!(dsu.get_with(&format!("key-{i}"), &mut lookups).is_some());
        }
        assert_eq!(lookups.keys_inserted, 0, "lookups never claim");
        assert_eq!(lookups.id_table_resizes, 0, "lookups never grow the table");
        assert!(lookups.key_probe_steps >= 500);
    }

    #[test]
    fn absent_lookups_miss_cleanly_at_any_fill() {
        // Regression: a miss whose probe path runs past the last allocated
        // segment (or through 48 full windows) must return None, not
        // panic. Fill a single-shard table well past segment 0 so absent
        // probes regularly traverse full windows and hit the unallocated
        // tail.
        let dsu: KeyedDsu<String> = KeyedDsu::with_spec(9, ShardSpec::with_shards(1));
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
    fn shard_spec_and_skew() {
        let dsu: KeyedDsu<u64> = KeyedDsu::with_spec(0, ShardSpec::with_shards(8));
        assert_eq!(dsu.key_shard_count(), 8);
        for i in 0..4096 {
            dsu.insert(&splitmix64(i));
        }
        let skew = dsu.key_skew();
        assert_eq!(skew.shards, 8);
        assert!(skew.imbalance < 1.5, "uniform keys must spread across high-bit shards: {skew:?}");
    }

    #[test]
    fn key_shards_knob_grammar() {
        assert_eq!(parse_key_shards("4"), Some(ShardSpec::with_shards(4)));
        assert_eq!(parse_key_shards(" 3 "), Some(ShardSpec::with_shards(4)), "rounded up");
        assert_eq!(parse_key_shards("1000"), Some(ShardSpec::with_shards(256)), "clamped");
        // The values that used to be ignored without a word.
        for bogus in ["abc", "0", "-2", "", "4.5"] {
            assert_eq!(parse_key_shards(bogus), None, "{bogus:?}");
        }
    }

    #[test]
    fn single_shard_still_works() {
        let dsu: KeyedDsu<String> = KeyedDsu::with_spec(0, ShardSpec::with_shards(1));
        assert_eq!(dsu.key_shard_count(), 1);
        assert!(dsu.merge_keys(&"a".into(), &"b".into()));
        assert!(dsu.same_set(&"b".into(), &"a".into()));
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
        // Miri-style sanity: dropping the table drops exactly the owned
        // keys (Arc counts return to 1).
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
    }
}
