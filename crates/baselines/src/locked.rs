//! The lock-based baseline: a sequential union-find behind one mutex.
//!
//! Trivially linearizable (the critical section *is* the linearization
//! point) and trivially non-scalable: all threads serialize. The speedup
//! experiment (E4) uses it as the floor that any wait-free design must
//! clear, mirroring the paper's remark that Anderson & Woll's algorithm has
//! "insignificant speed-up" over sequential execution.

use std::sync::{Mutex, MutexGuard, PoisonError};

use concurrent_dsu::ConcurrentUnionFind;
use sequential_dsu::{Compaction, Linking, SeqDsu};

/// A [`SeqDsu`] wrapped in a global [`Mutex`], exposing the concurrent
/// interface.
///
/// # Example
///
/// ```
/// use dsu_baselines::LockedDsu;
/// use sequential_dsu::{Linking, Compaction};
///
/// let dsu = LockedDsu::new(4, Linking::ByRank, Compaction::Halving);
/// assert!(dsu.unite(0, 1));
/// assert!(dsu.same_set(1, 0));
/// ```
pub struct LockedDsu {
    inner: Mutex<SeqDsu>,
    n: usize,
}

impl std::fmt::Debug for LockedDsu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedDsu")
            .field("len", &self.n)
            .field("set_count", &self.set_count())
            .finish()
    }
}

impl LockedDsu {
    /// Creates `n` singletons guarded by one lock, with the given
    /// sequential rules. Rank + halving is the classic high-performance
    /// sequential choice.
    pub fn new(n: usize, linking: Linking, compaction: Compaction) -> Self {
        LockedDsu { inner: Mutex::new(SeqDsu::new(n, linking, compaction)), n }
    }

    /// Takes the lock. Every `SeqDsu` write re-points one node to an
    /// ancestor or links one root under another, so the forest is valid
    /// between any two writes and a lock poisoned by a panicking holder is
    /// taken as it stands.
    fn seq(&self) -> MutexGuard<'_, SeqDsu> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of disjoint sets right now.
    pub fn set_count(&self) -> usize {
        self.seq().set_count()
    }

    /// Root of `x`'s tree (under the lock).
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&self, x: usize) -> usize {
        self.seq().find(x)
    }

    /// `true` iff `x` and `y` share a set (under the lock).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.seq().same_set(x, y)
    }

    /// Unites the sets of `x` and `y`; `true` iff they were distinct.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.seq().unite(x, y)
    }

    /// Canonical labels; takes the lock, so safe at any time.
    pub fn labels_snapshot(&self) -> Vec<usize> {
        let mut guard = self.seq();
        let n = guard.len();
        let mut labels: Vec<usize> = (0..n).map(|i| guard.find(i)).collect();
        for i in 0..n {
            labels[i] = labels[labels[i]];
        }
        labels
    }
}

impl ConcurrentUnionFind for LockedDsu {
    fn len(&self) -> usize {
        LockedDsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        LockedDsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        LockedDsu::unite(self, x, y)
    }

    fn find(&self, x: usize) -> usize {
        LockedDsu::find(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequential_dsu::{NaiveDsu, Partition};

    #[test]
    fn basics() {
        let dsu = LockedDsu::new(5, Linking::ByRank, Compaction::Halving);
        assert_eq!(dsu.len(), 5);
        assert!(!dsu.is_empty());
        assert!(dsu.unite(0, 4));
        assert!(!dsu.unite(4, 0));
        assert!(dsu.same_set(0, 4));
        assert!(!dsu.same_set(1, 2));
        assert_eq!(dsu.set_count(), 4);
        assert_eq!(dsu.find(0), dsu.find(4));
    }

    #[test]
    fn concurrent_use_is_safe_and_confluent() {
        let n = 256;
        let dsu = LockedDsu::new(n, Linking::BySize, Compaction::Splitting);
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i * 37 + 11) % n)).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
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
    }

    #[test]
    fn behaves_as_trait_object() {
        let dsu: Box<dyn concurrent_dsu::ConcurrentUnionFind> =
            Box::new(LockedDsu::new(3, Linking::Randomized, Compaction::Compression));
        assert!(dsu.unite(0, 2));
        assert!(dsu.same_set(2, 0));
    }

    #[test]
    fn debug_format() {
        let dsu = LockedDsu::new(2, Linking::ByRank, Compaction::None);
        assert!(format!("{dsu:?}").contains("LockedDsu"));
    }
}
