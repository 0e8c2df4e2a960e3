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

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::store::ParentStore;

/// A fixed total order on element indices.
///
/// Implementations must be immutable after construction, total, and
/// antisymmetric: for `u != v` exactly one of `less(u, v)` / `less(v, u)`
/// holds, and `less(u, u)` is always `false`.
pub trait IdOrder: Send + Sync {
    /// `true` iff `u` precedes `v` in the order.
    fn less(&self, u: usize, v: usize) -> bool;
}

/// The order used by the fixed-universe [`Dsu`](crate::Dsu): an explicit
/// uniformly random permutation of `0..n`, drawn once from a seeded ChaCha
/// generator so experiments are reproducible.
#[derive(Debug, Clone)]
pub struct PermutationOrder {
    ids: Box<[u64]>,
}

impl PermutationOrder {
    /// Draws a uniform permutation of `0..n` with Fisher–Yates.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
        PermutationOrder { ids: ids.into_boxed_slice() }
    }

    /// The id (position in the random order, `0..n`) of element `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn id_of(&self, u: usize) -> u64 {
        self.ids[u]
    }

    /// Number of elements in the order.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the order covers no elements.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl IdOrder for PermutationOrder {
    fn less(&self, u: usize, v: usize) -> bool {
        self.ids[u] < self.ids[v]
    }
}

/// SplitMix64: a fast, well-distributed 64-bit mixing function (Steele,
/// Lea & Flood 2014). Used to give growable elements i.i.d.-looking ids
/// drawn from their index (paper Section 7), and to hash keys.
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
        // Route through the store so layouts with a side order (the flat
        // layout's id array) can skip the parent-word loads.
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

    fn check_total_order<O: IdOrder>(order: &O, n: usize) {
        for u in 0..n {
            assert!(!order.less(u, u), "irreflexive");
            for v in 0..n {
                if u != v {
                    assert_ne!(order.less(u, v), order.less(v, u), "antisymmetric & total");
                }
            }
        }
        // Transitivity on all triples (n is small in tests).
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if order.less(a, b) && order.less(b, c) {
                        assert!(order.less(a, c), "transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn permutation_order_is_a_total_order() {
        let order = PermutationOrder::new(12, 42);
        assert_eq!(order.len(), 12);
        check_total_order(&order, 12);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let order = PermutationOrder::new(100, 7);
        let mut seen = [false; 100];
        for u in 0..100 {
            let id = order.id_of(u) as usize;
            assert!(!seen[id], "id {id} assigned twice");
            seen[id] = true;
        }
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let a = PermutationOrder::new(64, 1);
        let b = PermutationOrder::new(64, 2);
        assert_ne!(
            (0..64).map(|u| a.id_of(u)).collect::<Vec<_>>(),
            (0..64).map(|u| b.id_of(u)).collect::<Vec<_>>()
        );
        // Same seed reproduces exactly.
        let c = PermutationOrder::new(64, 1);
        assert_eq!(
            (0..64).map(|u| a.id_of(u)).collect::<Vec<_>>(),
            (0..64).map(|u| c.id_of(u)).collect::<Vec<_>>()
        );
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

    #[test]
    fn empty_permutation() {
        let order = PermutationOrder::new(0, 9);
        assert!(order.is_empty());
    }
}
