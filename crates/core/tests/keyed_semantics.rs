//! Keyed-layer semantics: `KeyedDsu` agrees with a sequential
//! `HashMap<K, usize>` + union-find oracle.
//!
//! The keyed layer adds exactly one thing to the core — a lock-free
//! key → dense-id table — so its contract is exactly one thing: every
//! operation behaves as if the key were first looked up in a sequential
//! map and the operation then ran on the dense core. Single-threaded,
//! verdicts must match the oracle op for op (CI re-runs the suite under
//! `--features strict-sc` for the SeqCst translation). Under concurrency,
//! the table's one hard promise — **at most one id per distinct key, no
//! matter how many threads race the first insert** — is stress-tested
//! directly, including the insert-vs-merge race on the same unseen key,
//! and so is the migration of a table into its doubled successor while
//! inserts and lookups race it. Every structure has one chain of tables,
//! so every claim race of the proptests also runs against its migrations.

use concurrent_dsu::{KeyedDsu, TestWatchdog};
use proptest::prelude::*;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// The sequential reference: a plain map in front of a plain forest —
/// the structure every keyed operation must be indistinguishable from.
#[derive(Default)]
struct Oracle {
    ids: HashMap<String, usize>,
    parent: Vec<usize>,
}

impl Oracle {
    fn id_of(&mut self, key: &str) -> usize {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.parent.len();
        self.ids.insert(key.to_owned(), id);
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn merge(&mut self, a: &str, b: &str) -> bool {
        let (ia, ib) = (self.id_of(a), self.id_of(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }

    fn same_set(&mut self, a: &str, b: &str) -> bool {
        match (self.ids.get(a).copied(), self.ids.get(b).copied()) {
            (Some(ia), Some(ib)) => self.find(ia) == self.find(ib),
            _ => a == b,
        }
    }

    fn set_count(&mut self) -> usize {
        let n = self.parent.len();
        (0..n).filter(|&i| self.find(i) == i).count()
    }
}

/// `(a, b, kind)` triples over a small key universe: kind 0 = merge,
/// 1 = same-set query, 2 = plain insert of `a`. Small universes maximize
/// revisits (the id table's lookup path) while fresh keys keep arriving
/// (the claim path).
fn ops_strategy(keys: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0..keys, 0..keys, 0..3usize), 0..max_len)
}

fn key(i: usize) -> String {
    format!("key-{i:04}")
}

/// A single-threaded run against the oracle, op for op, plus the id-table
/// invariants (dense ids, stable `get`, exact `key_count`).
fn exercise(ops: &[(usize, usize, usize)], seed: u64) {
    let dsu: KeyedDsu<String> = KeyedDsu::with_seed(seed);
    let mut oracle = Oracle::default();
    for (i, &(a, b, kind)) in ops.iter().enumerate() {
        let (ka, kb) = (key(a), key(b));
        match kind {
            0 => assert_eq!(dsu.merge_keys(&ka, &kb), oracle.merge(&ka, &kb), "merge #{i}"),
            1 => assert_eq!(dsu.same_set(&ka, &kb), oracle.same_set(&ka, &kb), "query #{i}"),
            _ => {
                dsu.insert(&ka);
                oracle.id_of(&ka);
            }
        }
    }
    // Same key population, and every oracle verdict reproducible post hoc.
    assert_eq!(dsu.key_count(), oracle.ids.len());
    assert_eq!(dsu.set_count(), oracle.set_count());
    let entries: Vec<(String, usize)> = oracle.ids.iter().map(|(k, &id)| (k.clone(), id)).collect();
    for (k, _) in &entries {
        let id = dsu.get(k).expect("every oracle key is present");
        assert!(id < entries.len(), "ids must be dense 0..key_count");
    }
    // The keyed ids and the oracle ids name the same entities: their
    // same-set relations agree for every key pair.
    for (ka, ia) in &entries {
        for (kb, ib) in &entries {
            assert_eq!(
                dsu.same_set(ka, kb),
                oracle.find(*ia) == oracle.find(*ib),
                "post-hoc disagreement on ({ka}, {kb})"
            );
        }
    }
    // Unseen keys stayed unseen.
    assert_eq!(dsu.get(&"never-inserted".to_string()), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle equivalence — arbitrary op mixes, arbitrary seeds.
    #[test]
    fn keyed_matches_oracle(ops in ops_strategy(24, 120), seed in any::<u64>()) {
        exercise(&ops, seed);
    }

    /// The batch entry points are observationally identical to per-op
    /// loops: same link count, same query verdicts, same final structure.
    #[test]
    fn keyed_batch_matches_per_op(pairs in prop::collection::vec((0..32usize, 0..32usize), 0..160), seed in any::<u64>()) {
        let edges: Vec<(String, String)> = pairs.iter().map(|&(a, b)| (key(a), key(b))).collect();
        let batched: KeyedDsu<String> = KeyedDsu::with_seed(seed);
        let per_op: KeyedDsu<String> = KeyedDsu::with_seed(seed);
        let links = batched.merge_keys_batch(&edges);
        let expected = edges.iter().filter(|(a, b)| per_op.merge_keys(a, b)).count();
        prop_assert_eq!(links, expected, "link counts diverged");
        prop_assert_eq!(batched.key_count(), per_op.key_count());
        prop_assert_eq!(batched.set_count(), per_op.set_count());
        let queries: Vec<(String, String)> =
            (0..40).map(|i| (key(i % 36), key((i * 7 + 3) % 36))).collect();
        let lhs = batched.same_set_batch(&queries);
        let rhs: Vec<bool> = queries.iter().map(|(a, b)| per_op.same_set(a, b)).collect();
        prop_assert_eq!(lhs, rhs, "query verdicts diverged");
    }

    /// Keyed operations through the sparse-u64 window: ids assigned over a
    /// universe scattered across the whole word range still resolve
    /// consistently (the table never assumes key locality).
    #[test]
    fn sparse_u64_keys_resolve_consistently(pairs in prop::collection::vec((0..40u64, 0..40u64), 0..120)) {
        let scatter = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        let dsu: KeyedDsu<u64> = KeyedDsu::new();
        let mut oracle = Oracle::default();
        for &(a, b) in &pairs {
            let (sa, sb) = (scatter(a), scatter(b));
            prop_assert_eq!(
                dsu.merge_keys(&sa, &sb),
                oracle.merge(&format!("{sa}"), &format!("{sb}"))
            );
        }
        prop_assert_eq!(dsu.key_count(), oracle.ids.len());
        prop_assert_eq!(dsu.set_count(), oracle.set_count());
    }
}

/// The table's core concurrent promise, attacked directly: many threads
/// insert the **same unseen key** through a barrier, every round. All
/// must observe one id, and the table must allocate exactly one dense id
/// per round.
#[test]
fn racing_inserts_of_the_same_key_agree_on_one_id() {
    let _wd = TestWatchdog::arm(
        "racing_inserts_of_the_same_key_agree_on_one_id",
        Duration::from_secs(120),
    );
    const THREADS: usize = 8;
    const ROUNDS: usize = 500;
    // Every race runs on one probe path, the worst case for the claim CAS,
    // and the 500 keys double the table twice mid-race.
    let dsu: KeyedDsu<String> = KeyedDsu::with_seed(11);
    let barrier = Barrier::new(THREADS);
    let disagreements = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let dsu = &dsu;
            let barrier = &barrier;
            let disagreements = &disagreements;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let k = format!("round-{r}");
                    barrier.wait();
                    let id = dsu.insert(&k);
                    // Everyone re-reads after the race: get must agree
                    // with what insert returned, forever.
                    if dsu.get(&k) != Some(id) {
                        disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = t;
                }
            });
        }
    });
    assert_eq!(disagreements.load(Ordering::Relaxed), 0, "insert/get id disagreement");
    assert_eq!(dsu.key_count(), ROUNDS, "the table allocated duplicate ids for a racing key");
    // Dense: every id in 0..ROUNDS is some round's id, exactly once.
    let mut seen = vec![false; ROUNDS];
    for r in 0..ROUNDS {
        let id = dsu.get(&format!("round-{r}")).expect("inserted");
        assert!(!seen[id], "id {id} assigned twice");
        seen[id] = true;
    }
}

/// The insert-vs-merge race on the same unseen key: while one thread
/// inserts `fresh-r`, another simultaneously merges it with an anchor.
/// Whatever the interleaving, afterwards both name the same entity: the
/// insert's id must be in the anchor's set.
#[test]
fn concurrent_insert_vs_merge_of_same_unseen_key() {
    let _wd = TestWatchdog::arm(
        "concurrent_insert_vs_merge_of_same_unseen_key",
        Duration::from_secs(120),
    );
    const ROUNDS: usize = 800;
    let dsu: KeyedDsu<String> = KeyedDsu::new();
    let anchor = "anchor".to_string();
    dsu.insert(&anchor);
    let barrier = Barrier::new(2);
    let inserted_ids: Vec<AtomicUsize> =
        (0..ROUNDS).map(|_| AtomicUsize::new(usize::MAX)).collect();
    std::thread::scope(|s| {
        {
            let dsu = &dsu;
            let barrier = &barrier;
            let inserted_ids = &inserted_ids;
            s.spawn(move || {
                for (r, slot) in inserted_ids.iter().enumerate() {
                    let k = format!("fresh-{r}");
                    barrier.wait();
                    slot.store(dsu.insert(&k), Ordering::Relaxed);
                }
            });
        }
        {
            let dsu = &dsu;
            let barrier = &barrier;
            let anchor = &anchor;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let k = format!("fresh-{r}");
                    barrier.wait();
                    dsu.merge_keys(&k, anchor);
                }
            });
        }
    });
    // One id per key (the insert's and the merge's resolutions converged),
    // and every round's key ended up united with the anchor.
    assert_eq!(dsu.key_count(), ROUNDS + 1);
    for (r, slot) in inserted_ids.iter().enumerate() {
        let k = format!("fresh-{r}");
        let id = slot.load(Ordering::Relaxed);
        assert_eq!(dsu.get(&k), Some(id), "round {r}: merge minted a second id");
        assert!(dsu.same_set(&k, &anchor), "round {r}: merge lost");
    }
    assert_eq!(dsu.set_count(), 1);
}

/// Full-mix stress: threads share one keyed structure and race inserts,
/// merges, queries, and batches over an overlapping key range; the final
/// partition must equal a sequential replay's.
#[test]
fn threaded_keyed_stress_matches_sequential_replay() {
    let _wd = TestWatchdog::arm(
        "threaded_keyed_stress_matches_sequential_replay",
        Duration::from_secs(120),
    );
    const THREADS: usize = 4;
    let keys = 96usize;
    let per_thread: Vec<Vec<(String, String)>> = (0..THREADS)
        .map(|t| {
            (0..800)
                .map(|i| {
                    let a = (i * 7919 + t * 131) % keys;
                    let b = (i * 104729 + t * 17 + 5) % keys;
                    (key(a), key(b))
                })
                .collect()
        })
        .collect();
    let dsu: KeyedDsu<String> = KeyedDsu::with_seed(23);
    std::thread::scope(|s| {
        for (t, ops) in per_thread.iter().enumerate() {
            let dsu = &dsu;
            s.spawn(move || {
                for (i, (a, b)) in ops.iter().enumerate() {
                    match i % 4 {
                        0 => {
                            dsu.merge_keys(a, b);
                        }
                        1 => {
                            dsu.same_set(a, b);
                        }
                        2 => {
                            dsu.insert(a);
                        }
                        // One thread per stripe drives the batch path.
                        _ if t % 2 == 0 => {
                            dsu.merge_keys_batch(std::slice::from_ref(&(a.clone(), b.clone())));
                        }
                        _ => {
                            dsu.merge_keys(b, a);
                        }
                    }
                }
            });
        }
    });
    let mut oracle = Oracle::default();
    for ops in &per_thread {
        for (i, (a, b)) in ops.iter().enumerate() {
            match i % 4 {
                1 => {}
                2 => {
                    oracle.id_of(a);
                }
                _ => {
                    oracle.merge(a, b);
                }
            }
        }
    }
    assert_eq!(dsu.key_count(), oracle.ids.len());
    assert_eq!(dsu.set_count(), oracle.set_count());
    let all_keys: Vec<String> = oracle.ids.keys().cloned().collect();
    for ka in &all_keys {
        for kb in &all_keys {
            assert_eq!(dsu.same_set(ka, kb), oracle.same_set(ka, kb), "({ka}, {kb})");
        }
    }
}

/// Growth under contention: enough racing fresh keys to double the table
/// several times while other threads insert — ids stay unique and the
/// table's resize counter records the growth.
#[test]
fn concurrent_growth_keeps_ids_unique() {
    let _wd = TestWatchdog::arm("concurrent_growth_keeps_ids_unique", Duration::from_secs(120));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 4_000;
    let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(5);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let dsu = &dsu;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Half the keys are thread-private, half contended.
                    let k = if i % 2 == 0 { (t * PER_THREAD + i) as u64 } else { i as u64 };
                    dsu.insert(&k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
            });
        }
    });
    let distinct: std::collections::HashSet<u64> = (0..THREADS)
        .flat_map(|t| {
            (0..PER_THREAD).map(move |i| {
                let k = if i % 2 == 0 { (t * PER_THREAD + i) as u64 } else { i as u64 };
                k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            })
        })
        .collect();
    assert_eq!(dsu.key_count(), distinct.len());
    assert_eq!(dsu.dsu().len(), distinct.len(), "make_set ran once per distinct key");
    let mut seen = vec![false; distinct.len()];
    for k in &distinct {
        let id = dsu.get(k).expect("present");
        assert!(!seen[id], "duplicate id {id}");
        seen[id] = true;
    }
    assert!(dsu.id_table_resizes() > 0, "this volume must have grown the table");
}

/// Migration under contention: threads insert overlapping fresh keys
/// through ten doublings, so inserts keep racing the chunked
/// migrations, and each thread keeps re-reading keys it already resolved. A
/// resolved key must never read as absent or change its id, the ids must
/// be exactly `0..key_count()`, and the partition must match a sequential
/// replay of the merges.
#[test]
fn migration_keeps_resolved_keys_stable() {
    let _wd = TestWatchdog::arm("migration_keeps_resolved_keys_stable", Duration::from_secs(300));
    const THREADS: usize = 4;
    // Table `t` of the chain holds `256 << t` words and the next one is
    // installed past 7/8 load, so this many keys install table 10.
    const KEYS: usize = 120_000;
    let key = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    // Merge partners: a deterministic sparse edge set over the key range.
    let partner = |i: usize| (i.wrapping_mul(7919) ^ (i >> 3)) % KEYS;
    let dsu: KeyedDsu<u64> = KeyedDsu::with_seed(13);
    let changed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (dsu, changed) = (&dsu, &changed);
            s.spawn(move || {
                let mut resolved: Vec<(usize, usize)> = Vec::with_capacity(KEYS);
                let mut burst = Vec::new();
                // Neighboring threads walk nearly the same order, so they
                // race on the same fresh keys.
                for step in 0..KEYS {
                    let i = step ^ t;
                    resolved.push((i, dsu.insert(&key(i))));
                    let (j, id) = resolved[(step * 2_654_435_761) % resolved.len()];
                    if dsu.get(&key(j)) != Some(id) {
                        changed.fetch_add(1, Ordering::Relaxed);
                    }
                    match step % 8 {
                        0 => {
                            dsu.merge_keys(&key(i), &key(partner(i)));
                        }
                        4 => burst.push((key(i), key(partner(i)))),
                        _ => {}
                    }
                    if burst.len() == 32 {
                        dsu.merge_keys_batch(&burst);
                        burst.clear();
                    }
                }
                dsu.merge_keys_batch(&burst);
                for &(j, id) in &resolved {
                    if dsu.get(&key(j)) != Some(id) {
                        changed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(changed.load(Ordering::Relaxed), 0, "a resolved key read absent or changed id");
    assert!(dsu.id_table_resizes() >= 10, "only {} doublings", dsu.id_table_resizes());
    assert_eq!(dsu.key_count(), KEYS);
    assert_eq!(dsu.dsu().len(), KEYS, "make_set ran once per distinct key");
    let mut ids: Vec<usize> = (0..KEYS).map(|i| dsu.get(&key(i)).expect("inserted")).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..KEYS), "ids are not exactly 0..key_count()");
    // Sequential replay: every thread merged `(i, partner(i))` for the
    // steps `≡ 0, 4 (mod 8)` of its walk `i = step ^ t`.
    let mut oracle = Oracle::default();
    for t in 0..THREADS {
        for step in (0..KEYS).filter(|s| s % 4 == 0) {
            let i = step ^ t;
            oracle.merge(&key(i).to_string(), &key(partner(i)).to_string());
        }
    }
    for i in 0..KEYS {
        oracle.id_of(&key(i).to_string());
    }
    assert_eq!(dsu.set_count(), oracle.set_count());
    // Each replayed set lies inside one keyed set, and the set counts
    // agree, so the partitions are equal.
    let mut rep: HashMap<usize, usize> = HashMap::new();
    for i in 0..KEYS {
        let root = {
            let id = oracle.id_of(&key(i).to_string());
            oracle.find(id)
        };
        let first = *rep.entry(root).or_insert(i);
        assert!(dsu.same_set(&key(i), &key(first)), "key {i} split from its replayed set");
    }
}

/// A panicking `K::clone` during an insert must leave the key usable: the
/// clone runs before the claim CAS, so a panic there claims nothing, and a
/// later insert of the same key (here from another thread) answers instead
/// of waiting forever on an abandoned claim.
#[test]
fn panicking_clone_does_not_wedge_its_key() {
    static CLONES: AtomicUsize = AtomicUsize::new(0);
    #[derive(PartialEq, Eq, Hash)]
    struct Fragile(u64);
    impl Clone for Fragile {
        fn clone(&self) -> Self {
            if CLONES.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("the first clone of a Fragile key fails");
            }
            Fragile(self.0)
        }
    }
    let dsu = Arc::new(KeyedDsu::<Fragile>::with_seed(1));
    let first = std::panic::catch_unwind(AssertUnwindSafe(|| dsu.insert(&Fragile(7))));
    assert!(first.is_err(), "the first insert's clone panics");
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(&dsu);
    // Not scoped: on a wedged key this thread spins forever, so the test
    // waits on the channel with a timeout and joins only after an answer.
    let reinsert = std::thread::spawn(move || {
        let _ = tx.send(shared.insert(&Fragile(7)));
    });
    let id = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("re-inserting the key never answered: the panicked claim wedged it");
    reinsert.join().expect("the re-inserting thread panicked");
    assert_eq!(id, 0, "the panicked insert minted no id");
    assert_eq!(dsu.get(&Fragile(7)), Some(id));
    assert_eq!(dsu.key_count(), 1);
}
