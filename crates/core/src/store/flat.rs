//! The flat two-array layout: the direct translation of the paper.
//!
//! An `AtomicUsize` parent slab plus a separate random-permutation id
//! array. Full `usize` range, one extra cache-line touch whenever an
//! operation needs an id. Kept as the reference layout, the `n > 2^32`
//! fallback, and the baseline the packed layouts are benchmarked against.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::order::{IdOrder, PermutationOrder};
use crate::store::{DsuStore, ParentStore, CAS_FAILURE, CAS_SUCCESS, LOAD};

/// The flat two-array store: an `AtomicUsize` parent slab plus a separate
/// permutation id array. Full `usize` universe range; the reference layout
/// the packed store is cross-checked and benchmarked against.
#[derive(Debug)]
pub struct FlatStore {
    parents: Box<[AtomicUsize]>,
    order: PermutationOrder,
}

impl FlatStore {
    /// Seed used by [`FlatStore::new`] (tests that don't care about ids).
    const DEFAULT_SEED: u64 = 0;

    /// `n` singleton cells (`parent[i] == i`) with a default id seed.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, Self::DEFAULT_SEED)
    }

    /// `n` singleton cells with permutation ids (see [`DsuStore::with_seed`]).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        FlatStore {
            parents: (0..n).map(AtomicUsize::new).collect(),
            order: PermutationOrder::new(n, seed),
        }
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
        self.order.id_of(i)
    }

    #[inline]
    fn precedes(&self, u: usize, v: usize) -> bool {
        // The default would load both parent words only to discard them
        // (flat priorities live in the id array); go straight to the order.
        self.order.less(u, v)
    }
}

impl IdOrder for FlatStore {
    fn less(&self, u: usize, v: usize) -> bool {
        self.order.less(u, v)
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
        self.order.id_of(u)
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
