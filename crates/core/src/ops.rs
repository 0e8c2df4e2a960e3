//! The concurrent set operations (paper Algorithms 2, 3, 6, 7), written
//! once, generically over the parent store, id order, and find policy, so
//! [`Dsu`](crate::Dsu) runs the exact same verified code on every layout,
//! fixed or growable.
//!
//! ### Why the loops retry
//!
//! Both `SameSet` and `Unite` rest on two observations (due to Anderson &
//! Woll, restated in paper Section 3): once the two walks meet (`u == v`),
//! the inputs are in the same set now and forever; and if `u < v` and `u`
//! is a root, the inputs are — at that instant — in different sets. The
//! complication relative to the sequential code is that a node that was a
//! root when read can stop being one a moment later, so the operations
//! re-find and re-check until one of the two certainties holds.

use crate::find::FindPolicy;
use crate::order::LinkPolicy;
use crate::stats::StatsSink;
use crate::store::ParentStore;

/// Paper Algorithm 2: `SameSet(x, y)`.
///
/// Returns `true` iff `x` and `y` are in the same set at the linearization
/// point (the last root read performed by the final `find(v)` or the
/// `u.parent` re-read).
pub fn same_set<F, P, S>(store: &P, x: usize, y: usize, stats: &mut S) -> bool
where
    F: FindPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.op_start();
    let mut u = x;
    let mut v = y;
    loop {
        u = F::find(store, u, stats).0;
        v = F::find(store, v, stats).0;
        if u == v {
            return true;
        }
        // u was a root during its find; if it still is, u and v were
        // simultaneously roots of different trees.
        let up = store.load_parent(u);
        stats.read();
        if up == u {
            return false;
        }
    }
}

/// Paper Algorithm 3: `Unite(x, y)`.
///
/// Returns `true` iff this call performed the link (the sets were distinct
/// at the linearization point and this CAS merged them), `false` if the
/// inputs were already together. [`Dsu`](crate::Dsu) counts its links from
/// these verdicts; the union forest is recorded by the
/// [`UnionForest`](crate::UnionForest) store decorator.
pub fn unite<F, L, P, S>(store: &P, x: usize, y: usize, stats: &mut S) -> bool
where
    F: FindPolicy,
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.op_start();
    let mut u = x;
    let mut v = y;
    loop {
        let (ru, wu) = F::find(store, u, stats);
        let (rv, wv) = F::find(store, v, stats);
        u = ru;
        v = rv;
        if u == v {
            return false;
        }
        // Link the root with the smaller linking key under the other. The
        // keys come from the words the finds already loaded (free in the
        // packed layout; under the paper's `RandomLink` this is exactly
        // the store's random order). The CAS expects the exact word the
        // finds observed, so it fails iff the candidate stopped being a
        // root since then, in which case we re-find and retry.
        if L::key(store, u, wu) < L::key(store, v, wv) {
            if store.cas_from(u, wu, v) {
                stats.link_ok();
                return true;
            }
            stats.link_fail();
        } else {
            if store.cas_from(v, wv, u) {
                stats.link_ok();
                return true;
            }
            stats.link_fail();
        }
        stats.cas_retry();
    }
}

/// Paper Algorithm 6: `SameSet` with early termination (Section 6).
///
/// The two find paths are walked concurrently, always stepping from the
/// *smaller* current node, so the operation touches only one path's worth
/// of nodes. The compaction step per iteration is the policy's
/// [`advance`](FindPolicy::advance) (two-try splitting in the paper's
/// listing; one-try executes the body once; no-compaction just walks).
///
/// The early-termination argument compares nodes *before* loading the
/// words it acts on, which is sound because every [`LinkPolicy`]'s keys
/// are immutable.
pub fn same_set_early<F, L, P, S>(store: &P, x: usize, y: usize, stats: &mut S) -> bool
where
    F: FindPolicy,
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.op_start();
    let mut u = x;
    let mut v = y;
    loop {
        if u == v {
            return true;
        }
        if L::precedes(store, v, u) {
            std::mem::swap(&mut u, &mut v);
        }
        // u < v here. If u is a root it cannot be in v's tree (roots have
        // the largest key of their tree), so the sets are distinct.
        let up = store.load_parent(u);
        stats.read();
        if up == u {
            return false;
        }
        u = F::advance(store, u, stats);
    }
}

/// Paper Algorithm 7: `Unite` with early termination (Section 6).
///
/// Like [`same_set_early`], but when the smaller current node turns out to
/// be a root it is immediately linked under the other current node (which
/// need not be a root — linking under any larger-key node preserves every
/// invariant).
pub fn unite_early<F, L, P, S>(store: &P, x: usize, y: usize, stats: &mut S) -> bool
where
    F: FindPolicy,
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.op_start();
    let mut u = x;
    let mut v = y;
    loop {
        if u == v {
            return false;
        }
        if L::precedes(store, v, u) {
            std::mem::swap(&mut u, &mut v);
        }
        if store.cas_parent(u, u, v) {
            stats.link_ok();
            return true;
        }
        // u was not a root (or just stopped being one): compact and climb.
        u = F::advance(store, u, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::{Halving, NoCompaction, OneTrySplit, TwoTrySplit};
    use crate::order::{hashed_id, IndexLink, RandomLink};
    use crate::store::FlatStore;

    /// The store under test plus the `(id, index)` key its seed defines,
    /// computed independently of the store for the assertions.
    fn fixture(n: usize, seed: u64) -> (FlatStore, impl Fn(usize) -> (u64, usize)) {
        (FlatStore::with_seed(n, seed), move |x| (hashed_id(x, seed), x))
    }

    fn run_all_policies(
        test: impl Fn(
            &dyn Fn(&FlatStore, usize, usize) -> bool,
            &dyn Fn(&FlatStore, usize, usize) -> bool,
        ),
    ) {
        macro_rules! with_policy {
            ($f:ty) => {
                test(&|s, x, y| unite::<$f, RandomLink, _, _>(s, x, y, &mut ()), &|s, x, y| {
                    same_set::<$f, _, _>(s, x, y, &mut ())
                });
                test(
                    &|s, x, y| unite_early::<$f, RandomLink, _, _>(s, x, y, &mut ()),
                    &|s, x, y| same_set_early::<$f, RandomLink, _, _>(s, x, y, &mut ()),
                );
            };
        }
        with_policy!(NoCompaction);
        with_policy!(OneTrySplit);
        with_policy!(TwoTrySplit);
        with_policy!(Halving);
    }

    #[test]
    fn unite_then_same_set_all_policies() {
        run_all_policies(|unite_fn, same_fn| {
            let (store, _key) = fixture(8, 11);
            assert!(!same_fn(&store, 0, 5));
            assert!(unite_fn(&store, 0, 5));
            assert!(same_fn(&store, 0, 5));
            assert!(!unite_fn(&store, 5, 0), "re-unite returns false");
            assert!(unite_fn(&store, 5, 6));
            assert!(same_fn(&store, 0, 6));
            assert!(!same_fn(&store, 0, 7));
        });
    }

    #[test]
    fn self_operations() {
        run_all_policies(|unite_fn, same_fn| {
            let (store, _key) = fixture(4, 3);
            assert!(same_fn(&store, 2, 2));
            assert!(!unite_fn(&store, 2, 2));
        });
    }

    #[test]
    fn links_always_point_id_upward() {
        // Lemma 3.1: if x is not a root then x < x.parent in the random
        // order. Exercise all policies on a merge-everything workload.
        run_all_policies(|unite_fn, _| {
            let (store, key) = fixture(64, 99);
            for i in 0..63 {
                unite_fn(&store, i, i + 1);
            }
            for x in 0..64 {
                let p = store.load_parent(x);
                if p != x {
                    assert!(key(x) < key(p), "child key must be below parent key");
                }
            }
        });
    }

    #[test]
    fn early_termination_agrees_with_standard() {
        // Interleave unites built by the standard algorithm with queries by
        // the early-termination one (and vice versa) — they share the store.
        let (store, _key) = fixture(16, 21);
        let mut s = ();
        assert!(unite::<TwoTrySplit, RandomLink, _, _>(&store, 0, 1, &mut s));
        assert!(same_set_early::<TwoTrySplit, RandomLink, _, _>(&store, 0, 1, &mut s));
        assert!(unite_early::<TwoTrySplit, RandomLink, _, _>(&store, 1, 2, &mut s));
        assert!(same_set::<TwoTrySplit, _, _>(&store, 0, 2, &mut s));
        assert!(!same_set_early::<TwoTrySplit, RandomLink, _, _>(&store, 0, 15, &mut s));
    }

    #[test]
    fn stats_account_finds_and_links() {
        let (store, _key) = fixture(8, 2);
        let mut stats = crate::OpStats::default();
        unite::<OneTrySplit, RandomLink, _, _>(&store, 0, 1, &mut stats);
        assert_eq!(stats.ops, 1);
        assert_eq!(stats.finds, 2);
        assert_eq!(stats.links_ok, 1);
        assert_eq!(stats.links_fail, 0);
        same_set::<OneTrySplit, _, _>(&store, 0, 1, &mut stats);
        assert_eq!(stats.ops, 2);
        assert_eq!(stats.finds, 4);
    }

    #[test]
    fn index_linking_links_index_upward() {
        // IndexLink ignores the store's random ids entirely: after any
        // sequence of unites, every non-root's parent has a larger index.
        let (store, _key) = fixture(64, 99);
        for i in 0..63 {
            unite::<TwoTrySplit, IndexLink, _, _>(&store, i, i + 1, &mut ());
        }
        for x in 0..64 {
            let p = store.load_parent(x);
            if p != x {
                assert!(x < p, "child index must be below parent index");
            }
        }
        // The early variants use the same order.
        let (store2, _) = fixture(8, 5);
        assert!(unite_early::<TwoTrySplit, IndexLink, _, _>(&store2, 6, 1, &mut ()));
        assert_eq!(store2.load_parent(1), 6, "index linking must point index-upward");
        assert!(same_set_early::<TwoTrySplit, IndexLink, _, _>(&store2, 1, 6, &mut ()));
    }
}
