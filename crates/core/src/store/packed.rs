//! The packed single-word layout: parent and id in one `AtomicU64`.
//!
//! ```text
//!   63            32 31             0
//!  +----------------+----------------+
//!  |   random id    |  parent index  |
//!  +----------------+----------------+
//!      immutable          mutable
//! ```
//!
//! A find reads the parent *and* the linking priority of a node in one
//! load, eight elements share a cache line, and the whole structure is one
//! 8-byte word per element. The id is the shared
//! [`hashed_id`](crate::order::hashed_id) of the index, stored rather than
//! recomputed so `Unite` compares root priorities straight from the words
//! the finds already loaded; `(id, index)` is the order, since 32-bit ids
//! can collide. Because the high 32 bits never change after construction,
//! a CAS that only moves the parent can reconstruct the full expected/new
//! words from any read of the cell, and the id bits can be read at any
//! ordering.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::order::hashed_id;
use crate::store::{DsuStore, ParentStore, CAS_FAILURE, CAS_SUCCESS, LOAD, STAT};

/// Low half of a packed word: the mutable parent index (shared by every
/// packed layout — [`PackedStore`] and the growable packed segments).
pub(crate) const PARENT_MASK: u64 = 0xFFFF_FFFF;
/// Bit offset of the immutable id half of a packed word.
pub(crate) const ID_SHIFT: u32 = 32;

/// Packs an id/parent pair into one word (shared by all packed layouts).
#[inline]
pub(crate) const fn pack_word(id: u64, parent: usize) -> u64 {
    (id << ID_SHIFT) | parent as u64
}

/// The parent index carried by a packed word.
#[inline]
pub(crate) const fn packed_parent(w: u64) -> usize {
    (w & PARENT_MASK) as usize
}

/// The id carried by a packed word.
#[inline]
pub(crate) const fn packed_id(w: u64) -> u64 {
    w >> ID_SHIFT
}

/// The word `seen` with its parent half replaced by `new_parent` (id half
/// untouched — ids are immutable, so this is the CAS replacement word).
#[inline]
pub(crate) const fn packed_with_parent(seen: u64, new_parent: usize) -> u64 {
    (seen & !PARENT_MASK) | new_parent as u64
}

/// The packed single-word store: parent index in the low 32 bits, random id
/// in the high 32 (see the [`store`](crate::store) module docs for layout
/// and ordering rationale).
///
/// The default store of [`Dsu`](crate::Dsu); supports universes up to
/// [`PackedStore::MAX_UNIVERSE`] elements.
pub struct PackedStore {
    words: Box<[AtomicU64]>,
}

impl std::fmt::Debug for PackedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedStore").field("len", &self.words.len()).finish()
    }
}

impl PackedStore {
    /// Largest universe the 32-bit parent/id halves can address.
    pub const MAX_UNIVERSE: u64 = 1 << 32;

    /// `n` singleton cells with hashed ids (see [`DsuStore::with_seed`]),
    /// built in one streaming pass.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`PackedStore::MAX_UNIVERSE`].
    pub fn with_seed(n: usize, seed: u64) -> Self {
        assert!(
            n as u64 <= Self::MAX_UNIVERSE,
            "PackedStore packs parent and id into 32 bits each and supports at most 2^32 \
             elements, but n = {n}; use the flat layout (`Dsu<_, FlatStore>`) for larger \
             universes"
        );
        let words = (0..n).map(|i| AtomicU64::new(pack_word(hashed_id(i, seed), i))).collect();
        PackedStore { words }
    }
}

impl ParentStore for PackedStore {
    type Word = u64;

    #[inline]
    fn load_word(&self, i: usize) -> u64 {
        self.words[i].load(LOAD)
    }

    #[inline]
    fn parent_of(w: u64) -> usize {
        packed_parent(w)
    }

    #[inline]
    fn cas_from(&self, i: usize, seen: u64, new_parent: usize) -> bool {
        // The id half never changes, so `seen`'s high bits are the id bits
        // of the replacement word too — no re-read needed.
        self.words[i]
            .compare_exchange(seen, packed_with_parent(seen, new_parent), CAS_SUCCESS, CAS_FAILURE)
            .is_ok()
    }

    #[inline]
    fn priority(&self, _i: usize, w: u64) -> u64 {
        packed_id(w)
    }
}

impl DsuStore for PackedStore {
    const NAME: &'static str = "packed";

    fn with_seed(n: usize, seed: u64) -> Self {
        PackedStore::with_seed(n, seed)
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    fn id_of(&self, u: usize) -> u64 {
        packed_id(self.words[u].load(STAT))
    }

    fn snapshot(&self) -> Vec<usize> {
        self.words.iter().map(|w| packed_parent(w.load(Ordering::Relaxed))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_store_starts_as_singletons() {
        let s = PackedStore::with_seed(5, 7);
        assert_eq!(DsuStore::len(&s), 5);
        for i in 0..5 {
            assert_eq!(s.load_parent(i), i);
        }
        assert_eq!(DsuStore::snapshot(&s), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn packed_ids_are_hashed_and_survive_cas() {
        let s = PackedStore::with_seed(100, 5);
        let ids: Vec<u64> = (0..100).map(|i| s.id_of(i)).collect();
        assert_eq!(ids, (0..100).map(|i| hashed_id(i, 5)).collect::<Vec<_>>());
        assert!(s.cas_parent(2, 2, 5));
        assert!(s.cas_parent(5, 5, 7));
        assert_eq!(s.load_parent(2), 5);
        let after: Vec<u64> = (0..100).map(|i| s.id_of(i)).collect();
        assert_eq!(ids, after, "ids are immutable under parent CASes");
    }

    #[test]
    #[should_panic(expected = "at most 2^32")]
    fn packed_store_rejects_oversized_universe() {
        // Keep the allocation from actually happening: the bound check
        // fires before any memory is touched.
        let _ = PackedStore::with_seed(PackedStore::MAX_UNIVERSE as usize + 1, 0);
    }

    /// The panic must not just state the bound — it must point the caller
    /// at the layout that *does* support the universe. (Regression: the
    /// guidance half of the message was previously untested.)
    #[test]
    fn packed_store_panic_names_the_flat_fallback() {
        let err = std::panic::catch_unwind(|| {
            let _ = PackedStore::with_seed(PackedStore::MAX_UNIVERSE as usize + 1, 0);
        })
        .expect_err("oversized universe must panic");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("FlatStore"), "panic must point at the flat layout: {msg}");
        assert!(msg.contains("at most 2^32"), "panic must state the bound: {msg}");
    }

    #[test]
    fn empty_packed_store() {
        assert!(DsuStore::is_empty(&PackedStore::with_seed(0, 0)));
    }
}
