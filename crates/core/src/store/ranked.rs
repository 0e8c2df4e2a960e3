//! The rank-carrying layout backing union-by-rank linking.
//!
//! ```text
//!   63            32 31             0
//!  +----------------+----------------+
//!  |      rank      |  parent index  |
//!  +----------------+----------------+
//!    mutable (root-     mutable
//!     only bumps)
//! ```
//!
//! [`RankLink`](crate::RankLink) needs a rank that travels with the parent
//! under one word-exact CAS: a link that expects the observed word then
//! fails if the rank moved since the comparison, which is exactly the
//! freezing property the acyclicity argument needs (see
//! [`order`](crate::order)). The random ids — still required, because the
//! layout must remain a full [`DsuStore`] usable with every link policy —
//! are not stored: like the flat layout, it recomputes the shared
//! [`hashed_id`] of the index when the [`RandomLink`](crate::RandomLink)
//! policy asks for a priority, so the layout stays 8 bytes per element.
//!
//! Unlike every other layout, the *high* half of the word is mutable too
//! (rank bumps), but only while the node is a root and only upward:
//! [`ParentStore::try_bump_rank`] re-checks both under CAS. A node's rank
//! is frozen from the moment it is linked, so observed `(rank, index)`
//! keys strictly increase along parent paths — rank linking's Lemma 3.1.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::order::hashed_id;
use crate::store::{
    pack_word, packed_id, packed_parent, packed_with_parent, DsuStore, ParentStore, CAS_FAILURE,
    CAS_SUCCESS, LOAD, STAT,
};

/// The rank-carrying store: parent index in the low 32 bits, union-by-rank
/// rank in the high 32, random ids hashed from the index (see the module
/// docs).
///
/// Supports universes up to [`RankedStore::MAX_UNIVERSE`] elements.
pub struct RankedStore {
    words: Box<[AtomicU64]>,
    seed: u64,
}

impl std::fmt::Debug for RankedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedStore").field("len", &self.words.len()).finish()
    }
}

impl RankedStore {
    /// Largest universe the 32-bit parent half can address.
    pub const MAX_UNIVERSE: u64 = 1 << 32;

    /// `n` singleton cells at rank 0 with hashed ids (see
    /// [`DsuStore::with_seed`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`RankedStore::MAX_UNIVERSE`].
    pub fn with_seed(n: usize, seed: u64) -> Self {
        assert!(
            n as u64 <= Self::MAX_UNIVERSE,
            "RankedStore packs parent and rank into 32 bits each and supports at most 2^32 \
             elements, but n = {n}; use the flat layout (`Dsu<_, FlatStore>`) for larger \
             universes"
        );
        let words = (0..n).map(|i| AtomicU64::new(pack_word(0, i))).collect();
        RankedStore { words, seed }
    }

    /// The current rank of element `i` (a test/diagnostic read; the hot
    /// path reads ranks from words it already holds).
    pub fn rank(&self, i: usize) -> u64 {
        packed_id(self.words[i].load(STAT))
    }
}

impl ParentStore for RankedStore {
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
        // The rank half rides along unchanged: a parent CAS never moves the
        // rank, and expecting `seen` means a concurrent rank bump fails
        // this CAS instead of being silently overwritten.
        self.words[i]
            .compare_exchange(seen, packed_with_parent(seen, new_parent), CAS_SUCCESS, CAS_FAILURE)
            .is_ok()
    }

    #[inline]
    fn priority(&self, i: usize, _w: u64) -> u64 {
        // Random ids are hashed from the index — the word's high half is
        // the rank, which is NOT the priority (RandomLink and RankLink are
        // different orders on this layout, by design).
        hashed_id(i, self.seed)
    }

    #[inline]
    fn rank_of(w: u64) -> u64 {
        packed_id(w)
    }

    #[inline]
    fn try_bump_rank(&self, i: usize, rank: u64) -> bool {
        let seen = self.words[i].load(LOAD);
        packed_parent(seen) == i
            && packed_id(seen) == rank
            && self.words[i]
                .compare_exchange(seen, pack_word(rank + 1, i), CAS_SUCCESS, CAS_FAILURE)
                .is_ok()
    }
}

impl DsuStore for RankedStore {
    const NAME: &'static str = "ranked";

    fn with_seed(n: usize, seed: u64) -> Self {
        RankedStore::with_seed(n, seed)
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    fn id_of(&self, u: usize) -> u64 {
        hashed_id(u, self.seed)
    }

    fn snapshot(&self) -> Vec<usize> {
        self.words.iter().map(|w| packed_parent(w.load(Ordering::Relaxed))).collect()
    }
    fn scan_runs(&self) -> Vec<Range<usize>> {
        std::iter::once(0..self.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_store_starts_as_rank_zero_singletons() {
        let s = RankedStore::with_seed(5, 7);
        assert_eq!(DsuStore::len(&s), 5);
        for i in 0..5 {
            assert_eq!(s.load_parent(i), i);
            assert_eq!(s.rank(i), 0);
        }
        assert_eq!(DsuStore::snapshot(&s), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ids_match_other_layouts_for_same_seed() {
        let ranked = RankedStore::with_seed(64, 99);
        let flat = crate::store::FlatStore::with_seed(64, 99);
        for i in 0..64 {
            assert_eq!(DsuStore::id_of(&ranked, i), DsuStore::id_of(&flat, i));
        }
    }

    #[test]
    fn bump_rank_is_root_only_and_exact() {
        let s = RankedStore::with_seed(4, 1);
        assert!(s.try_bump_rank(2, 0));
        assert_eq!(s.rank(2), 1);
        assert!(!s.try_bump_rank(2, 0), "stale rank must fail");
        assert!(s.try_bump_rank(2, 1));
        assert_eq!(s.rank(2), 2);
        // Link 0 under 2, then a bump of the non-root 0 must fail.
        assert!(s.cas_parent(0, 0, 2));
        assert!(!s.try_bump_rank(0, 0), "non-roots must never be bumped");
        assert_eq!(s.rank(0), 0, "a non-root's rank is frozen");
    }

    #[test]
    fn parent_cas_preserves_rank_and_expects_rank_bits() {
        let s = RankedStore::with_seed(4, 3);
        let stale = s.load_word(1);
        assert!(s.try_bump_rank(1, 0));
        // A CAS against the pre-bump word must fail: the rank moved.
        assert!(!s.cas_from(1, stale, 3), "rank bump must invalidate old words");
        let fresh = s.load_word(1);
        assert!(s.cas_from(1, fresh, 3));
        assert_eq!(s.load_parent(1), 3);
        assert_eq!(s.rank(1), 1, "linking preserves the rank half");
    }

    #[test]
    fn rank_of_reads_the_high_half() {
        let s = RankedStore::with_seed(2, 0);
        assert_eq!(RankedStore::rank_of(s.load_word(0)), 0);
        s.try_bump_rank(0, 0);
        assert_eq!(RankedStore::rank_of(s.load_word(0)), 1);
    }

    #[test]
    #[should_panic(expected = "at most 2^32")]
    fn ranked_store_rejects_oversized_universe() {
        let _ = RankedStore::with_seed(RankedStore::MAX_UNIVERSE as usize + 1, 0);
    }

    #[test]
    fn empty_ranked_store() {
        assert!(DsuStore::is_empty(&RankedStore::with_seed(0, 0)));
    }
}
