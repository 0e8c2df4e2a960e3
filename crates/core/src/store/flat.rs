//! The flat layout: the direct translation of the paper.
//!
//! A bare `AtomicUsize` parent slab, 8 bytes per element. Ids are not
//! stored: an operation that needs one recomputes the shared
//! [`hashed_id`] of the index, which costs a few multiplies and no memory
//! access. Full `usize` range. Kept as the reference layout, the
//! `n > 2^32` fallback, and the baseline the packed layouts are
//! benchmarked against.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::order::hashed_id;
use crate::store::{DsuStore, ParentStore, CAS_FAILURE, CAS_SUCCESS, LOAD};

/// The flat store: an `AtomicUsize` parent slab, with ids hashed from the
/// index on demand. Full `usize` universe range; the reference layout the
/// packed store is cross-checked and benchmarked against.
#[derive(Debug)]
pub struct FlatStore {
    parents: Box<[AtomicUsize]>,
    seed: u64,
}

impl FlatStore {
    /// Seed used by [`FlatStore::new`] (tests that don't care about ids).
    const DEFAULT_SEED: u64 = 0;

    /// `n` singleton cells (`parent[i] == i`) with a default id seed.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, Self::DEFAULT_SEED)
    }

    /// `n` singleton cells with hashed ids (see [`DsuStore::with_seed`]).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        FlatStore { parents: (0..n).map(AtomicUsize::new).collect(), seed }
    }

    /// The `(id, index)` order key of element `i`.
    #[inline]
    fn key(&self, i: usize) -> (u64, usize) {
        (hashed_id(i, self.seed), i)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` when the store has no cells.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The atomic parent cell of element `i` — for tests and simulators
    /// that build forests directly.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an existing element.
    pub fn parent_cell(&self, i: usize) -> &AtomicUsize {
        &self.parents[i]
    }

    /// A non-atomic snapshot of all parents (quiescence only).
    pub fn snapshot(&self) -> Vec<usize> {
        self.parents.iter().map(|p| p.load(Ordering::Relaxed)).collect()
    }
}

impl ParentStore for FlatStore {
    type Word = usize;

    #[inline]
    fn load_word(&self, i: usize) -> usize {
        self.parents[i].load(LOAD)
    }

    #[inline]
    fn parent_of(w: usize) -> usize {
        w
    }

    #[inline]
    fn cas_from(&self, i: usize, seen: usize, new_parent: usize) -> bool {
        self.parents[i].compare_exchange(seen, new_parent, CAS_SUCCESS, CAS_FAILURE).is_ok()
    }

    #[inline]
    fn cas_parent(&self, i: usize, old: usize, new: usize) -> bool {
        // The word *is* the parent — CAS directly, no pre-read.
        self.cas_from(i, old, new)
    }

    #[inline]
    fn priority(&self, i: usize, _w: usize) -> u64 {
        hashed_id(i, self.seed)
    }

    #[inline]
    fn precedes(&self, u: usize, v: usize) -> bool {
        // The default would load both parent words only to discard them
        // (flat ids are hashed from the index); compare the keys directly.
        self.key(u) < self.key(v)
    }
}

impl DsuStore for FlatStore {
    const NAME: &'static str = "flat";

    fn with_seed(n: usize, seed: u64) -> Self {
        FlatStore::with_seed(n, seed)
    }

    fn len(&self) -> usize {
        self.parents.len()
    }

    fn id_of(&self, u: usize) -> u64 {
        hashed_id(u, self.seed)
    }

    fn snapshot(&self) -> Vec<usize> {
        FlatStore::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_store_starts_as_singletons() {
        let s = FlatStore::new(5);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        for i in 0..5 {
            assert_eq!(s.load_parent(i), i);
        }
        assert_eq!(s.snapshot(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_flat_store() {
        assert!(FlatStore::new(0).is_empty());
        assert_eq!(FlatStore::new(0).snapshot(), Vec::<usize>::new());
    }
}
