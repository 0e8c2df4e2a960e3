//! Union-forest recording, as a store decorator.
//!
//! The *union forest* is the forest the links alone build, compaction
//! ignored (paper Section 3). Corollary 4.2.1 bounds its height by
//! `O(log n)` w.h.p. and the height experiments measure it, but no
//! operation ever reads it. So no layout keeps it: an experiment that
//! needs it wraps its layout in [`UnionForest`], which records each link
//! as it happens, and every other structure pays nothing for it.
//!
//! ```
//! use concurrent_dsu::{Dsu, PackedStore, TwoTrySplit, UnionForest};
//!
//! let dsu: Dsu<TwoTrySplit, UnionForest<PackedStore>> = Dsu::with_seed(8, 42);
//! dsu.unite(0, 1);
//! dsu.unite(1, 2);
//! let forest = dsu.store().forest();
//! assert_eq!(forest.iter().enumerate().filter(|&(x, &p)| p != x).count(), 2);
//! assert!((1..=2).contains(&dsu.store().height()));
//! ```
//!
//! # What counts as a link
//!
//! A successful [`ParentStore::cas_from`] on a *root* word (one whose
//! parent is the element itself) that installs a different parent. Every
//! link path ends in exactly such a CAS: per-op `Unite`'s link CAS, early
//! `Unite`'s blind [`cas_parent`](ParentStore::cas_parent) (which the
//! decorator leaves at the trait default, so it reaches `cas_from` here
//! even on layouts that override it), and the batch waves' seeded CASes.
//! Compaction never CASes a root word: splitting, halving, compression
//! and the batch climb only retarget nodes that already have a parent, so
//! compaction is not recorded.
//!
//! A root that is linked never becomes a root again, so each forest cell
//! is written at most once, by the thread whose CAS linked it. A relaxed
//! store suffices: the forest is read only at quiescence.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::store::{DsuStore, ParentStore};

/// A [`DsuStore`] decorator that records the union forest: every link CAS
/// on the wrapped layout also writes the child's union-forest parent (see
/// the module docs for what counts as a link).
///
/// The wrapped layout's ids, order, words and name are unchanged, so
/// `Dsu<F, UnionForest<S>, L>` links exactly as `Dsu<F, S, L>` does. The
/// decorator adds one word per element and one predictable branch per CAS.
pub struct UnionForest<S> {
    inner: S,
    parent: Box<[AtomicUsize]>,
}

impl<S> std::fmt::Debug for UnionForest<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnionForest").field("len", &self.parent.len()).finish()
    }
}

impl<S: DsuStore> UnionForest<S> {
    /// Wraps a freshly built store (all singletons) with an all-root
    /// forest.
    pub fn new(inner: S) -> Self {
        let parent = (0..inner.len()).map(AtomicUsize::new).collect();
        UnionForest { inner, parent }
    }
}

impl<S> UnionForest<S> {
    /// The union-forest parent of every element (roots point to
    /// themselves). Meaningful only at quiescence.
    pub fn forest(&self) -> Vec<usize> {
        self.parent.iter().map(|p| p.load(Ordering::Relaxed)).collect()
    }

    /// Height of the union forest: the quantity Corollary 4.2.1 bounds by
    /// `O(log n)` w.h.p. Call only at quiescence; `O(n)` time.
    pub fn height(&self) -> usize {
        forest_height(&self.forest())
    }
}

impl<S: ParentStore> ParentStore for UnionForest<S> {
    type Word = S::Word;

    #[inline(always)]
    fn load_word(&self, i: usize) -> S::Word {
        self.inner.load_word(i)
    }

    #[inline(always)]
    fn parent_of(w: S::Word) -> usize {
        S::parent_of(w)
    }

    #[inline(always)]
    fn cas_from(&self, i: usize, seen: S::Word, new_parent: usize) -> bool {
        let ok = self.inner.cas_from(i, seen, new_parent);
        if ok && S::parent_of(seen) == i && new_parent != i {
            self.parent[i].store(new_parent, Ordering::Relaxed);
        }
        ok
    }

    // `cas_parent` stays the trait default (load, then the `cas_from`
    // above): forwarding it would let a layout's own override — the flat
    // layout's direct CAS — link without being recorded.

    #[inline(always)]
    fn priority(&self, i: usize, w: S::Word) -> u64 {
        self.inner.priority(i, w)
    }

    #[inline(always)]
    fn precedes(&self, u: usize, v: usize) -> bool {
        self.inner.precedes(u, v)
    }
}

impl<S: DsuStore> DsuStore for UnionForest<S> {
    const NAME: &'static str = S::NAME;

    fn with_seed(n: usize, seed: u64) -> Self {
        UnionForest::new(S::with_seed(n, seed))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn id_of(&self, u: usize) -> u64 {
        self.inner.id_of(u)
    }

    fn snapshot(&self) -> Vec<usize> {
        self.inner.snapshot()
    }
}

/// Height (max arc count root-to-leaf) of a self-loop-rooted parent forest.
fn forest_height(parent: &[usize]) -> usize {
    let mut depth = vec![usize::MAX; parent.len()];
    let mut tallest = 0;
    for start in 0..parent.len() {
        let mut path = Vec::new();
        let mut u = start;
        while depth[u] == usize::MAX && parent[u] != u {
            path.push(u);
            u = parent[u];
        }
        let mut d = if parent[u] == u && depth[u] == usize::MAX {
            depth[u] = 0;
            0
        } else {
            depth[u]
        };
        for &node in path.iter().rev() {
            d += 1;
            depth[node] = d;
        }
        tallest = tallest.max(depth[start]);
    }
    tallest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FlatStore, PackedStore};

    #[test]
    fn forest_height_helper() {
        assert_eq!(forest_height(&[0, 0, 1, 2]), 3);
        assert_eq!(forest_height(&[0, 1, 2]), 0);
        assert_eq!(forest_height(&[]), 0);
    }

    fn records_links_not_compaction<S: DsuStore>() {
        let s = UnionForest::new(S::with_seed(4, 1));
        // Links: 0 under 1, then 1 under 2 (root words).
        assert!(s.cas_parent(0, 0, 1));
        assert!(s.cas_from(1, s.load_word(1), 2));
        // Compaction: 0 skips to its grandparent (a non-root word).
        assert!(s.cas_parent(0, 1, 2));
        // A failed link changes nothing.
        assert!(!s.cas_parent(3, 1, 2));
        assert_eq!(s.forest(), vec![1, 2, 2, 3], "{}", S::NAME);
        assert_eq!(s.snapshot(), vec![2, 2, 2, 3], "{}", S::NAME);
        assert_eq!(s.height(), 2);
    }

    #[test]
    fn records_links_but_not_compaction_on_every_layout() {
        records_links_not_compaction::<PackedStore>();
        records_links_not_compaction::<FlatStore>();
    }

    #[test]
    fn wrapping_keeps_the_layout_ids_and_name() {
        let bare = PackedStore::with_seed(32, 9);
        let wrapped: UnionForest<PackedStore> = DsuStore::with_seed(32, 9);
        for i in 0..32 {
            assert_eq!(DsuStore::id_of(&wrapped, i), DsuStore::id_of(&bare, i));
        }
        assert_eq!(<UnionForest<PackedStore> as DsuStore>::NAME, "packed");
    }
}
