//! The lock-based **keyed** baseline: `RwLock<HashMap>` in front of a
//! sequential union-find.
//!
//! This is the shape production systems actually deploy (optd guards its
//! query-plan group unions with exactly this structure — SNIPPETS 2/3),
//! and therefore the honest yardstick for [`KeyedDsu`]: same semantics,
//! same key types, one reader–writer lock where the lock-free id table and
//! CAS forest sit. We give the baseline every reasonable advantage —
//! queries walk the forest under a *shared* read guard (a non-mutating
//! find, so lookups scale until a writer shows up), writers do union by
//! rank with full path compression, and the batch entry points amortize
//! one guard acquisition over the whole burst — so any measured gap is the
//! lock, not a strawman.
//!
//! [`KeyedDsu`]: concurrent_dsu::KeyedDsu

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

struct Inner<K> {
    ids: HashMap<K, usize>,
    parent: Vec<usize>,
    rank: Vec<u8>,
    links: usize,
}

impl<K: Hash + Eq + Clone> Inner<K> {
    fn id_of(&mut self, key: &K) -> usize {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.parent.len();
        self.ids.insert(key.clone(), id);
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Mutating find: full path compression (every visited node re-pointed
    /// at the root) — the strongest sequential choice.
    fn find_compress(&mut self, mut x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        while self.parent[x] != root {
            let next = self.parent[x];
            self.parent[x] = root;
            x = next;
        }
        root
    }

    /// Non-mutating find, callable under a shared read guard.
    fn find_ro(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find_compress(a), self.find_compress(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[lo] = hi;
        if self.rank[ra] == self.rank[rb] {
            self.rank[hi] += 1;
        }
        self.links += 1;
        true
    }
}

/// A keyed union-find behind one [`RwLock`]: the deployment-shaped
/// baseline `keyed_ab` measures [`KeyedDsu`](concurrent_dsu::KeyedDsu)
/// against. Semantics match `KeyedDsu` exactly (insert-on-merge, implicit
/// singletons for unseen query keys), so the two can be driven by the same
/// trace and cross-checked verdict for verdict.
///
/// # Example
///
/// ```
/// use dsu_baselines::LockedKeyedDsu;
///
/// let dsu: LockedKeyedDsu<String> = LockedKeyedDsu::new();
/// dsu.merge_keys(&"a".into(), &"b".into());
/// assert!(dsu.same_set(&"b".into(), &"a".into()));
/// assert!(!dsu.same_set(&"a".into(), &"c".into()));
/// assert_eq!(dsu.key_count(), 2);
/// ```
pub struct LockedKeyedDsu<K> {
    inner: RwLock<Inner<K>>,
}

impl<K: Hash + Eq + Clone> Default for LockedKeyedDsu<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> LockedKeyedDsu<K> {
    // Caller code (the key's `Hash`, `Eq` and `Clone`) runs between whole
    // updates, never inside one, so the table is whole whenever a holder
    // panics and a poisoned lock is taken as it stands.
    fn read(&self) -> RwLockReadGuard<'_, Inner<K>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner<K>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K> std::fmt::Debug for LockedKeyedDsu<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.read();
        f.debug_struct("LockedKeyedDsu")
            .field("keys", &inner.ids.len())
            .field("set_count", &(inner.parent.len() - inner.links))
            .finish()
    }
}

impl<K: Hash + Eq + Clone> LockedKeyedDsu<K> {
    /// An empty keyed structure.
    pub fn new() -> Self {
        LockedKeyedDsu {
            inner: RwLock::new(Inner {
                ids: HashMap::new(),
                parent: Vec::new(),
                rank: Vec::new(),
                links: 0,
            }),
        }
    }

    /// Maps `key` to its dense id, inserting it as a singleton if unseen
    /// (write lock).
    pub fn insert(&self, key: &K) -> usize {
        self.write().id_of(key)
    }

    /// The id of `key`, or `None` if never inserted (read lock).
    pub fn get(&self, key: &K) -> Option<usize> {
        self.read().ids.get(key).copied()
    }

    /// Unites the sets of `a` and `b`, inserting unseen keys; `true` iff
    /// this call linked (write lock).
    pub fn merge_keys(&self, a: &K, b: &K) -> bool {
        let mut inner = self.write();
        let (ia, ib) = (inner.id_of(a), inner.id_of(b));
        inner.union(ia, ib)
    }

    /// `true` iff `a` and `b` share a set; unseen keys are implicit
    /// singletons (read lock, non-mutating find).
    pub fn same_set(&self, a: &K, b: &K) -> bool {
        let inner = self.read();
        match (inner.ids.get(a), inner.ids.get(b)) {
            (Some(&ia), Some(&ib)) => inner.find_ro(ia) == inner.find_ro(ib),
            _ => a == b,
        }
    }

    /// Batched [`merge_keys`](LockedKeyedDsu::merge_keys): one write-guard
    /// acquisition for the whole burst. Returns the number of links.
    pub fn merge_keys_batch(&self, pairs: &[(K, K)]) -> usize {
        let mut inner = self.write();
        pairs
            .iter()
            .filter(|(a, b)| {
                let (ia, ib) = (inner.id_of(a), inner.id_of(b));
                inner.union(ia, ib)
            })
            .count()
    }

    /// Batched [`same_set`](LockedKeyedDsu::same_set): one read-guard
    /// acquisition for the whole burst.
    pub fn same_set_batch(&self, pairs: &[(K, K)]) -> Vec<bool> {
        let inner = self.read();
        pairs
            .iter()
            .map(|(a, b)| match (inner.ids.get(a), inner.ids.get(b)) {
                (Some(&ia), Some(&ib)) => inner.find_ro(ia) == inner.find_ro(ib),
                _ => a == b,
            })
            .collect()
    }

    /// Number of distinct keys inserted so far.
    pub fn key_count(&self) -> usize {
        self.read().ids.len()
    }

    /// Number of disjoint sets right now.
    pub fn set_count(&self) -> usize {
        let inner = self.read();
        inner.parent.len() - inner.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_match_keyed_dsu_contract() {
        let dsu: LockedKeyedDsu<u64> = LockedKeyedDsu::new();
        assert_eq!(dsu.insert(&5), dsu.insert(&5));
        assert!(dsu.merge_keys(&10, &20));
        assert!(!dsu.merge_keys(&20, &10));
        assert!(dsu.same_set(&10, &20));
        assert!(dsu.same_set(&99, &99), "unseen key together with itself");
        assert!(!dsu.same_set(&98, &99));
        assert!(!dsu.merge_keys(&7, &7), "self-merge inserts, never links");
        assert_eq!(dsu.key_count(), 4);
        assert_eq!(dsu.set_count(), 3);
        assert_eq!(dsu.get(&123), None);
    }

    #[test]
    fn batch_matches_per_op() {
        let pairs: Vec<(u64, u64)> = (0..300).map(|i| (i % 40, (i * 13 + 1) % 40)).collect();
        let batched: LockedKeyedDsu<u64> = LockedKeyedDsu::new();
        let per_op: LockedKeyedDsu<u64> = LockedKeyedDsu::new();
        let links = batched.merge_keys_batch(&pairs);
        let expected = pairs.iter().filter(|(a, b)| per_op.merge_keys(a, b)).count();
        assert_eq!(links, expected);
        let queries: Vec<(u64, u64)> = (0..40).map(|i| (i, (i * 7) % 41)).collect();
        assert_eq!(
            batched.same_set_batch(&queries),
            queries.iter().map(|(a, b)| per_op.same_set(a, b)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_use_agrees_with_a_sequential_replay() {
        let dsu: LockedKeyedDsu<String> = LockedKeyedDsu::new();
        let pairs: Vec<(String, String)> = (0..256u32)
            .map(|i| (format!("k{}", i % 64), format!("k{}", (i * 37 + 11) % 64)))
            .collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let dsu = &dsu;
                let pairs = &pairs;
                s.spawn(move || {
                    for (i, (a, b)) in pairs.iter().enumerate() {
                        if i % 4 == t {
                            dsu.merge_keys(a, b);
                        } else {
                            dsu.same_set(a, b);
                        }
                    }
                });
            }
        });
        let oracle: LockedKeyedDsu<String> = LockedKeyedDsu::new();
        for (a, b) in &pairs {
            oracle.merge_keys(a, b);
        }
        assert_eq!(dsu.key_count(), oracle.key_count());
        assert_eq!(dsu.set_count(), oracle.set_count());
        for (a, b) in &pairs {
            assert_eq!(dsu.same_set(a, b), oracle.same_set(a, b));
        }
    }

    #[test]
    fn debug_format() {
        let dsu: LockedKeyedDsu<u64> = LockedKeyedDsu::new();
        dsu.insert(&1);
        assert!(format!("{dsu:?}").contains("LockedKeyedDsu"));
    }
}
