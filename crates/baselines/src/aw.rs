//! Anderson–Woll-style concurrent union-find: linking by rank with path
//! halving.
//!
//! ## Relationship to the original
//!
//! Anderson & Woll (STOC '91) make rank linking wait-free by introducing one
//! level of indirection so that a node's parent and rank can be read and
//! CASed together. On 64-bit hardware the same atomicity is obtained by
//! packing `(rank: 16 bits, parent: 48 bits)` into a single `AtomicU64`,
//! which is what this implementation does (it replaces Anderson & Woll's
//! indirection, not their algorithm). Everything the Jayanti–Tarjan paper
//! criticizes about the approach is faithfully present:
//!
//! * rank ties must be detected and resolved *in the data structure* (an
//!   extra CAS to bump the surviving root's rank, which can fail and leave
//!   equal-rank parent/child pairs);
//! * a link must re-validate the full `(parent, rank)` word, so unrelated
//!   rank bumps force retries;
//! * compaction is *path halving*, which Section 3 of the paper proves
//!   cannot beat splitting concurrently.
//!
//! ## Safety argument (no cycles)
//!
//! A link CAS succeeds only if the linked node's whole word — parent *and*
//! rank — is unchanged since it was read as a root. Ranks never decrease,
//! and along any parent path ranks are non-decreasing with ties only along
//! strictly increasing element indices (ties link the smaller index under
//! the larger). A cycle would therefore need a path from the new parent
//! back to the linked root with non-decreasing ranks ending at a rank that
//! the CAS proved unchanged — forcing an all-ties path with decreasing
//! index, a contradiction.

use std::sync::atomic::{AtomicU64, Ordering};

use concurrent_dsu::ConcurrentUnionFind;

const ORD: Ordering = Ordering::SeqCst;
const PARENT_BITS: u32 = 48;
const PARENT_MASK: u64 = (1 << PARENT_BITS) - 1;

/// Packs `(parent, rank)` into one word. `rank` occupies the high 16 bits.
fn pack(parent: usize, rank: u16) -> u64 {
    debug_assert!((parent as u64) <= PARENT_MASK);
    ((rank as u64) << PARENT_BITS) | parent as u64
}

/// Inverse of [`pack`].
fn unpack(word: u64) -> (usize, u16) {
    ((word & PARENT_MASK) as usize, (word >> PARENT_BITS) as u16)
}

/// Wait-free concurrent union-find with **linking by rank** and **path
/// halving**, the Anderson–Woll design re-expressed with packed words.
///
/// Implements [`ConcurrentUnionFind`], so it slots into every harness and
/// application that accepts the Jayanti–Tarjan structure. Expect it to be
/// correct but to scale worse: the paper's Theorem 5.1 algorithm avoids the
/// rank machinery entirely.
///
/// # Example
///
/// ```
/// use dsu_baselines::AwDsu;
///
/// let dsu = AwDsu::new(4);
/// assert!(dsu.unite(0, 1));
/// assert!(dsu.unite(2, 3));
/// assert!(dsu.unite(0, 3));
/// assert!(dsu.same_set(1, 2));
/// ```
pub struct AwDsu {
    words: Box<[AtomicU64]>,
    links: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for AwDsu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AwDsu")
            .field("len", &self.len())
            .field("set_count", &self.set_count())
            .finish()
    }
}

impl AwDsu {
    /// Creates `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 48-bit parent field (`n >= 2^48`).
    pub fn new(n: usize) -> Self {
        assert!((n as u64) <= PARENT_MASK, "AwDsu supports at most 2^48 elements");
        AwDsu {
            words: (0..n).map(|i| AtomicU64::new(pack(i, 0))).collect(),
            links: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of disjoint sets right now.
    pub fn set_count(&self) -> usize {
        self.len() - self.links.load(ORD)
    }

    fn check(&self, x: usize) {
        assert!(x < self.len(), "element {x} out of range (len {})", self.len());
    }

    /// Root of the tree containing `x`, halving the path on the way. The
    /// result may be stale; see
    /// [`ConcurrentUnionFind::find`].
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&self, x: usize) -> usize {
        self.check(x);
        let mut u = x;
        loop {
            let wu = self.words[u].load(ORD);
            let (v, _) = unpack(wu);
            if v == u {
                return u;
            }
            let (w, _) = unpack(self.words[v].load(ORD));
            if w == v {
                return v;
            }
            // Halve: swing u's parent to its grandparent, keeping u's rank
            // bits intact; jump two levels regardless of the CAS outcome.
            let (_, ru) = unpack(wu);
            let _ = self.words[u].compare_exchange(wu, pack(w, ru), ORD, ORD);
            u = w;
        }
    }

    /// `true` iff `x` and `y` are in the same set at the linearization
    /// point (same retry structure as paper Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.check(x);
        self.check(y);
        let mut u = x;
        let mut v = y;
        loop {
            u = self.find(u);
            v = self.find(v);
            if u == v {
                return true;
            }
            let (pu, _) = unpack(self.words[u].load(ORD));
            if pu == u {
                return false;
            }
        }
    }

    /// Unites the sets containing `x` and `y` by rank; `true` iff this call
    /// performed the link.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.check(x);
        self.check(y);
        let mut u = x;
        let mut v = y;
        loop {
            u = self.find(u);
            v = self.find(v);
            if u == v {
                return false;
            }
            let wu = self.words[u].load(ORD);
            let (pu, ru) = unpack(wu);
            if pu != u {
                continue; // u stopped being a root; re-find
            }
            let wv = self.words[v].load(ORD);
            let (pv, rv) = unpack(wv);
            if pv != v {
                continue;
            }
            let linked = if ru < rv {
                self.try_link(u, wu, v)
            } else if rv < ru {
                self.try_link(v, wv, u)
            } else {
                // Rank tie: resolve by element index (smaller goes under),
                // then try once to bump the survivor's rank — exactly the
                // tie machinery randomized linking makes unnecessary.
                let (child, wchild, parent, wparent) =
                    if u < v { (u, wu, v, wv) } else { (v, wv, u, wu) };
                if self.try_link(child, wchild, parent) {
                    let _ = self.words[parent].compare_exchange(
                        wparent,
                        pack(parent, ru + 1),
                        ORD,
                        ORD,
                    );
                    true
                } else {
                    false
                }
            };
            if linked {
                return true;
            }
        }
    }

    /// CAS `child`'s whole word (known root state `wchild`) to point at
    /// `parent`, preserving the child's rank bits.
    fn try_link(&self, child: usize, wchild: u64, parent: usize) -> bool {
        let (_, rank) = unpack(wchild);
        if self.words[child].compare_exchange(wchild, pack(parent, rank), ORD, ORD).is_ok() {
            self.links.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Canonical labels; call only at quiescence.
    pub fn labels_snapshot(&self) -> Vec<usize> {
        let mut labels: Vec<usize> = (0..self.len()).map(|i| self.find(i)).collect();
        for i in 0..labels.len() {
            labels[i] = labels[labels[i]];
        }
        labels
    }

    /// `(parent, rank)` of `x` right now (diagnostics/tests).
    pub fn parent_rank(&self, x: usize) -> (usize, u16) {
        unpack(self.words[x].load(ORD))
    }
}

impl ConcurrentUnionFind for AwDsu {
    fn len(&self) -> usize {
        AwDsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        AwDsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        AwDsu::unite(self, x, y)
    }

    fn find(&self, x: usize) -> usize {
        AwDsu::find(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequential_dsu::{NaiveDsu, Partition};

    #[test]
    fn pack_roundtrip() {
        for &(p, r) in &[(0usize, 0u16), (1, 1), ((1 << 48) - 1, u16::MAX), (12345, 77)] {
            assert_eq!(unpack(pack(p, r)), (p, r));
        }
    }

    #[test]
    fn basics() {
        let dsu = AwDsu::new(6);
        assert_eq!(dsu.set_count(), 6);
        assert!(!dsu.same_set(0, 1));
        assert!(dsu.unite(0, 1));
        assert!(!dsu.unite(0, 1));
        assert!(dsu.same_set(0, 1));
        assert!(dsu.unite(2, 3));
        assert!(dsu.unite(1, 3));
        assert!(dsu.same_set(0, 2));
        assert_eq!(dsu.set_count(), 3);
    }

    #[test]
    fn rank_tie_bumps_rank() {
        let dsu = AwDsu::new(4);
        dsu.unite(0, 1); // tie at 0: 0 -> 1, rank(1) = 1
        let (p0, _) = dsu.parent_rank(0);
        assert_eq!(p0, 1);
        let (_, r1) = dsu.parent_rank(1);
        assert_eq!(r1, 1);
        dsu.unite(2, 3); // 2 -> 3, rank(3) = 1
        dsu.unite(0, 2); // roots 1, 3 tie at rank 1: 1 -> 3, rank(3) = 2
        let (_, r3) = dsu.parent_rank(3);
        assert_eq!(r3, 2);
    }

    #[test]
    fn ranks_never_decrease_along_paths() {
        let dsu = AwDsu::new(256);
        for i in 0..255 {
            dsu.unite(i, i + 1);
        }
        for x in 0..256 {
            let (p, rx) = dsu.parent_rank(x);
            if p != x {
                let (_, rp) = dsu.parent_rank(p);
                assert!(rp >= rx, "parent rank below child rank");
            }
        }
    }

    #[test]
    fn single_threaded_matches_oracle() {
        use rand::{Rng, SeedableRng};
        let n = 48;
        let dsu = AwDsu::new(n);
        let mut oracle = NaiveDsu::new(n);
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(31);
        for _ in 0..600 {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                assert_eq!(dsu.unite(x, y), oracle.unite(x, y));
            } else {
                assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y));
            }
        }
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
    }

    #[test]
    fn concurrent_confluence() {
        let n = 512;
        let dsu = AwDsu::new(n);
        let pairs: Vec<(usize, usize)> =
            (0..2 * n).map(|i| ((i * 31) % n, (i * 101 + 7) % n)).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let dsu = &dsu;
                let pairs = &pairs;
                s.spawn(move || {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        if i % 8 == t {
                            dsu.unite(x, y);
                        } else if i % 3 == 0 {
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
    }

    #[test]
    fn concurrent_unite_true_count_is_exact() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 1024;
        let dsu = AwDsu::new(n);
        let trues = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let dsu = &dsu;
                let trues = &trues;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(500 + t as u64);
                    let mut local = 0;
                    for _ in 0..3000 {
                        if dsu.unite(rng.gen_range(0..n), rng.gen_range(0..n)) {
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
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        AwDsu::new(2).find(2);
    }

    #[test]
    fn debug_format() {
        let dsu = AwDsu::new(2);
        assert!(format!("{dsu:?}").contains("AwDsu"));
    }
}
