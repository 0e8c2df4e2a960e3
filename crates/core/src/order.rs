//! The random total order on elements ("ids") and the linking-policy axis.
//!
//! Randomized linking (paper Section 2, after Goel et al. SODA '14) fixes a
//! uniformly random total order over the elements before any operation runs;
//! `Unite` always links the root that is *smaller in this order* under the
//! larger. The order is immutable, which is exactly why a single-word CAS
//! suffices for linking (paper Section 3).
//!
//! The paper's choice is one point on a design axis. "In Search of the
//! Fastest Concurrent Union-Find Algorithm" (Alistarh, Fedorov & Koval;
//! arXiv 1911.06347, journal version 2003.01203) shows the winner shifts
//! with workload shape and adds two more linking rules: *index* linking
//! (link the smaller array index under the larger — no ids at all, zero
//! extra loads) and *rank* linking (union by rank with a CAS-bumped rank
//! word). [`LinkPolicy`] abstracts the rule; the three implementations are
//! [`RandomLink`] (the paper default), [`IndexLink`], and [`RankLink`].
//!
//! ### What keeps every policy acyclic
//!
//! Lemma 3.1's argument needs exactly one structural property: each link
//! replaces a root's self-pointer by a node that is **strictly larger in
//! the policy's key order at link time**, and a node's key is *frozen from
//! the moment it stops being a root*. Random ids and indices are immutable
//! outright; ranks are mutable, but [`RankLink`] computes the child's key
//! from the very word the link CAS expects (so a concurrent rank bump
//! fails the CAS rather than corrupting the comparison) and rank bumps are
//! root-only CASes that strictly increase the rank. Along any parent path
//! the observed keys are therefore strictly increasing for every policy,
//! which is the invariant the find loops, the batch linker, and the
//! early-termination arguments all rest on.

use crate::store::ParentStore;

/// The random id of element `index` under `seed`: the top 32 bits of
/// [`splitmix64`] of the seeded index. Every store — fixed and growable —
/// derives its ids from this one function and orders elements by the
/// `(id, index)` key, so for a given seed all layouts link identically.
///
/// This is the paper's Section 7 construction: ids drawn from a universe
/// large enough that ties are rare, plus a tie-breaking rule (the index).
/// Randomized linking needs only a uniformly random total order on the
/// nodes, which the key provides without materializing a permutation.
#[inline]
pub fn hashed_id(index: usize, seed: u64) -> u64 {
    splitmix64((index as u64).wrapping_add(seed)) >> 32
}

/// SplitMix64: a fast, well-distributed 64-bit mixing function (Steele,
/// Lea & Flood 2014). Used to give every element an i.i.d.-looking id
/// drawn from its index ([`hashed_id`]; paper Section 7), and to hash keys.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

mod sealed {
    /// Prevents downstream crates from implementing [`super::LinkPolicy`]:
    /// the set of linking rules is the plane from arXiv 1911.06347, and
    /// sealing lets the trait evolve without breaking users (C-SEALED),
    /// exactly like [`FindPolicy`](crate::find::FindPolicy).
    pub trait Sealed {}
}

/// A strategy for choosing which of two roots becomes the child in `Unite`.
///
/// Every policy is a total order on elements expressed as a `(u64, usize)`
/// key with the element index as the tie-break; the root with the
/// **smaller key loses** (is linked under the other). The operations
/// compute the child's key from the exact word the link CAS expects, so
/// the comparison and the link are one atomic observation.
///
/// This trait is **sealed**: the implementations are [`RandomLink`] (the
/// paper's randomized linking), [`IndexLink`], and [`RankLink`].
pub trait LinkPolicy: sealed::Sealed + Send + Sync + 'static {
    /// Short name used in experiment tables (e.g. `"random"`).
    const NAME: &'static str;

    /// `true` when keys can change while a node is a root (rank linking).
    /// Mutable keys invalidate the Section 6 early-termination arguments
    /// (which compare keys *before* loading the word they would CAS), so
    /// the early operations fall back to the standard ones when this is
    /// set — a compile-time branch, free for the immutable policies.
    const MUTABLE_KEYS: bool = false;

    /// The linking key of root `u` observed as word `wu`. Smaller key
    /// loses. The caller must CAS against the same `wu` it passed here:
    /// that word-exactness is what freezes a mutable key at link time.
    fn key<P: ParentStore + ?Sized>(store: &P, u: usize, wu: P::Word) -> (u64, usize);

    /// Whether `u` precedes `v` in this policy's order, loading fresh
    /// words as needed. Used by the early-termination operations, which
    /// compare nodes they have not loaded yet — immutable-key policies
    /// only (see [`MUTABLE_KEYS`](LinkPolicy::MUTABLE_KEYS)).
    fn precedes<P: ParentStore + ?Sized>(store: &P, u: usize, v: usize) -> bool;

    /// Called after a successful link CAS with the child's observed word
    /// and the new parent. [`RankLink`] uses it to bump the parent's rank
    /// on a tie (best-effort, root-only); the immutable policies do
    /// nothing.
    #[inline]
    fn on_linked<P: ParentStore + ?Sized>(_store: &P, _wchild: P::Word, _parent: usize) {}
}

/// The paper's randomized linking: keys are the store's immutable random
/// ids ([`ParentStore::priority`]), index tie-broken. This is the default
/// and the policy all of the paper's theorems are stated for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomLink;

impl sealed::Sealed for RandomLink {}

impl LinkPolicy for RandomLink {
    const NAME: &'static str = "random";

    #[inline]
    fn key<P: ParentStore + ?Sized>(store: &P, u: usize, wu: P::Word) -> (u64, usize) {
        (store.priority(u, wu), u)
    }

    #[inline]
    fn precedes<P: ParentStore + ?Sized>(store: &P, u: usize, v: usize) -> bool {
        // Route through the store so layouts whose words carry no id (the
        // flat and ranked layouts hash the index) can skip the word loads.
        store.precedes(u, v)
    }
}

/// Index linking: the smaller array index loses. No ids are consulted at
/// all — the comparison is free — at the price of the adversary choosing
/// the order (the O(log n) height guarantee becomes average-case over the
/// workload, not worst-case over inputs). arXiv 1911.06347 finds this
/// competitive when the workload itself is random.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexLink;

impl sealed::Sealed for IndexLink {}

impl LinkPolicy for IndexLink {
    const NAME: &'static str = "index";

    #[inline]
    fn key<P: ParentStore + ?Sized>(_store: &P, u: usize, _wu: P::Word) -> (u64, usize) {
        (0, u)
    }

    #[inline]
    fn precedes<P: ParentStore + ?Sized>(_store: &P, u: usize, v: usize) -> bool {
        u < v
    }
}

/// Union by rank, concurrent: keys are `(rank, index)` where the rank
/// lives in the parent word of a rank-carrying layout
/// ([`RankedStore`](crate::RankedStore)); after linking two roots of equal
/// rank the winner's rank is bumped by a best-effort root-only CAS
/// ([`ParentStore::try_bump_rank`]).
///
/// On layouts whose words carry no rank ([`ParentStore::rank_of`] is the
/// defaulted constant 0) every comparison ties and this degenerates to
/// [`IndexLink`] — intentional, so the policy is instantiable everywhere
/// and the rank effect is isolated to the `ranked` store in experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankLink;

impl sealed::Sealed for RankLink {}

impl LinkPolicy for RankLink {
    const NAME: &'static str = "rank";
    const MUTABLE_KEYS: bool = true;

    #[inline]
    fn key<P: ParentStore + ?Sized>(_store: &P, u: usize, wu: P::Word) -> (u64, usize) {
        (P::rank_of(wu), u)
    }

    #[inline]
    fn precedes<P: ParentStore + ?Sized>(store: &P, u: usize, v: usize) -> bool {
        let (wu, wv) = (store.load_word(u), store.load_word(v));
        (P::rank_of(wu), u) < (P::rank_of(wv), v)
    }

    #[inline]
    fn on_linked<P: ParentStore + ?Sized>(store: &P, wchild: P::Word, parent: usize) {
        // Union-by-rank's tie bump. The child's rank is frozen (it just
        // stopped being a root), so "tie" means the parent still has
        // exactly this rank; `try_bump_rank` re-checks root-ness and the
        // rank under CAS, so a lost race is simply a skipped bump.
        store.try_bump_rank(parent, P::rank_of(wchild));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `store.precedes`, the order `unite` links by, is a strict total
    /// order on `0..n`.
    fn check_total_order<P: ParentStore>(store: &P, n: usize) {
        for u in 0..n {
            assert!(!store.precedes(u, u), "irreflexive");
            for v in 0..n {
                if u != v {
                    assert_ne!(store.precedes(u, v), store.precedes(v, u), "antisymmetric & total");
                }
            }
        }
        // Transitivity on all triples (n is small in tests).
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if store.precedes(a, b) && store.precedes(b, c) {
                        assert!(store.precedes(a, c), "transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn every_fixed_store_orders_by_id_then_index() {
        check_total_order(&crate::PackedStore::with_seed(12, 42), 12);
        check_total_order(&crate::FlatStore::with_seed(12, 42), 12);
        check_total_order(&crate::RankedStore::with_seed(12, 42), 12);
    }

    #[test]
    fn hashed_ids_are_a_function_of_index_and_seed() {
        let ids = |seed| (0..64).map(|u| hashed_id(u, seed)).collect::<Vec<_>>();
        assert_eq!(ids(1), ids(1), "same seed, same ids");
        assert_ne!(ids(1), ids(2), "the seed salts the order");
        assert!(ids(1).iter().all(|&id| id < 1 << 32), "ids are 32-bit");
    }

    /// Pairs of indices below `2^18` whose 32-bit ids collide under `seed`,
    /// each as `(lower index, higher index)`. About `2^36 / 2^33 = 8` pairs
    /// are expected for a random seed; the seed the test pins has 5.
    fn colliding_pairs(seed: u64) -> Vec<(usize, usize)> {
        let mut keys: Vec<(u64, usize)> = (0..1 << 18).map(|i| (hashed_id(i, seed), i)).collect();
        keys.sort_unstable();
        let pairs: Vec<_> =
            keys.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| (w[0].1, w[1].1)).collect();
        assert!(!pairs.is_empty(), "no 32-bit id collision below 2^18 for seed {seed}");
        pairs
    }

    /// `lo` precedes `hi` in `store`'s linking order.
    fn orders_by_index<S: ParentStore>(name: &str, store: &S, lo: usize, hi: usize) {
        assert!(store.precedes(lo, hi) && !store.precedes(hi, lo), "{name}: precedes({lo}, {hi})");
    }

    /// The tie-break is the index: when two ids collide, every store orders
    /// the lower index first and `unite` links it under the higher one.
    #[test]
    fn colliding_ids_are_ordered_and_linked_by_index() {
        use crate::{Dsu, DsuStore, EpochStore, FlatStore, GrowableDsu};
        use crate::{PackedStore, RankedStore, TwoTrySplit};
        const SEED: u64 = 2016;
        let n = 1 << 18;
        let packed = PackedStore::with_seed(n, SEED);
        let flat = FlatStore::with_seed(n, SEED);
        let ranked = RankedStore::with_seed(n, SEED);
        let epoch = <EpochStore as DsuStore>::with_seed(n, SEED);
        for (lo, hi) in colliding_pairs(SEED) {
            orders_by_index("packed", &packed, lo, hi);
            orders_by_index("flat", &flat, lo, hi);
            orders_by_index("ranked", &ranked, lo, hi);
            orders_by_index("epoch", &epoch, lo, hi);
        }
        let packed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, SEED);
        let flat: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, SEED);
        let growable: GrowableDsu<TwoTrySplit, EpochStore, RandomLink> =
            GrowableDsu::with_seed(0, SEED);
        for _ in 0..n {
            growable.make_set();
        }
        for (lo, hi) in colliding_pairs(SEED) {
            // Higher index first, so the direction cannot come from the
            // argument order.
            assert!(packed.unite(hi, lo) && flat.unite(hi, lo) && growable.unite(hi, lo));
            assert_eq!(packed.find(lo), hi, "packed linked {hi} under {lo}");
            assert_eq!(flat.find(lo), hi, "flat linked {hi} under {lo}");
            assert_eq!(growable.find(lo), hi, "growable linked {hi} under {lo}");
        }
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit flips ~half the output bits on average.
        let mut total = 0;
        for i in 0..1_000u64 {
            total += (splitmix64(i) ^ splitmix64(i ^ 1)).count_ones();
        }
        let avg = total as f64 / 1_000.0;
        assert!((24.0..40.0).contains(&avg), "avg flipped bits = {avg}");
    }
}
