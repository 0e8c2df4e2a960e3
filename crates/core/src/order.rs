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
//! with workload shape and adds *index* linking (link the smaller array
//! index under the larger — no ids at all, zero extra loads).
//! [`LinkPolicy`] abstracts the rule; the implementations are
//! [`RandomLink`] (the paper default) and [`IndexLink`]. The same paper's
//! union by rank is not implemented: it puts a mutable rank word back
//! beside the parent, and in `variants_ab` it never beat these two outside
//! the noise band (`docs/benchmarks.md`).
//!
//! ### What keeps every policy acyclic
//!
//! Lemma 3.1's argument needs exactly one structural property: each link
//! replaces a root's self-pointer by a node that is **strictly larger in
//! the policy's key order**. Random ids and indices are immutable, so
//! along any parent path the keys are strictly increasing for every
//! policy, which is the invariant the find loops, the batch linker, and
//! the early-termination arguments all rest on.

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
/// **smaller key loses** (is linked under the other). Keys are immutable,
/// so the operations may compare them before loading the words they CAS.
///
/// This trait is **sealed**: the implementations are [`RandomLink`] (the
/// paper's randomized linking) and [`IndexLink`].
pub trait LinkPolicy: sealed::Sealed + Send + Sync + 'static {
    /// Short name used in experiment tables (e.g. `"random"`).
    const NAME: &'static str;

    /// The linking key of root `u` observed as word `wu`. Smaller key
    /// loses.
    fn key<P: ParentStore + ?Sized>(store: &P, u: usize, wu: P::Word) -> (u64, usize);

    /// Whether `u` precedes `v` in this policy's order, loading fresh
    /// words as needed. Used by the early-termination operations, which
    /// compare nodes they have not loaded yet.
    fn precedes<P: ParentStore + ?Sized>(store: &P, u: usize, v: usize) -> bool;
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
        // flat layout hashes the index) can skip the word loads.
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
        use crate::{PackedStore, TwoTrySplit};
        const SEED: u64 = 2016;
        let n = 1 << 18;
        let packed = PackedStore::with_seed(n, SEED);
        let flat = FlatStore::with_seed(n, SEED);
        let epoch = <EpochStore as DsuStore>::with_seed(n, SEED);
        for (lo, hi) in colliding_pairs(SEED) {
            orders_by_index("packed", &packed, lo, hi);
            orders_by_index("flat", &flat, lo, hi);
            orders_by_index("epoch", &epoch, lo, hi);
        }
        let packed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, SEED);
        let flat: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, SEED);
        let growable = GrowableDsu::with_seed(0, SEED);
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
