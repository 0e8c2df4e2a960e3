//! The concurrent `Find` variants (paper Algorithms 1, 4, 5).
//!
//! A find walks parent pointers from a node to a root. With compaction, it
//! also tries to swing each visited node's parent to its grandparent with a
//! CAS; a failed CAS means another process got there first, which is fine —
//! every parent change replaces a parent by one of its proper ancestors in
//! the union forest (Lemma 3.1), so compaction can never break reachability.
//!
//! The paper chooses *splitting* over halving in the concurrent setting
//! because two processes doing halving in lockstep simulate one process
//! doing splitting (Section 3), so halving cannot win; we still provide
//! [`Halving`] for the ablation experiment that demonstrates this, and
//! [`TunedDsu`](crate::TunedDsu) runs it on cache-resident universes,
//! where halving's fewer compaction CASes measured fastest.

use crate::stats::StatsSink;
use crate::store::ParentStore;

mod sealed {
    /// Prevents downstream crates from implementing [`super::FindPolicy`]:
    /// the set of policies is fixed by the paper, and sealing lets us evolve
    /// the trait without breaking users (C-SEALED).
    pub trait Sealed {}
}

/// A strategy for the concurrent `Find` traversal.
///
/// This trait is **sealed**: the implementations are exactly the paper's
/// variants ([`NoCompaction`], [`OneTrySplit`], [`TwoTrySplit`]) plus
/// [`Halving`] and [`Compress`].
pub trait FindPolicy: sealed::Sealed + Send + Sync + 'static {
    /// Short name used in experiment tables (e.g. `"two-try"`).
    const NAME: &'static str;

    /// Walks from `x` to a node that was a root at the moment its parent
    /// word was read (the linearization point of the find), compacting the
    /// path per policy. Returns the root *and the word it was observed
    /// with*, so callers (notably `Unite`) can CAS against or read
    /// priorities from that exact observation without re-loading.
    fn find<P: ParentStore + ?Sized, S: StatsSink>(
        store: &P,
        x: usize,
        stats: &mut S,
    ) -> (usize, P::Word);

    /// One early-termination round (the body of the `while` loop in paper
    /// Algorithms 6/7 after the return checks): performs this policy's
    /// compaction step(s) at `u` and returns the next current node.
    ///
    /// The caller is responsible for the root/equality checks; `advance` on
    /// a root returns the root itself.
    fn advance<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize;
}

/// Paper Algorithm 1: follow parent pointers to the root, never writing.
///
/// Work per find is the current depth of the node; Theorem 4.3 still gives
/// `O(log n)` w.h.p. thanks to randomized linking alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCompaction;

impl sealed::Sealed for NoCompaction {}

impl FindPolicy for NoCompaction {
    const NAME: &'static str = "no-compaction";

    fn find<P: ParentStore + ?Sized, S: StatsSink>(
        store: &P,
        x: usize,
        stats: &mut S,
    ) -> (usize, P::Word) {
        stats.find_start();
        let mut u = x;
        let mut hops = 0;
        loop {
            stats.loop_iter();
            let wu = store.load_word(u);
            stats.read();
            let v = P::parent_of(wu);
            if v == u {
                stats.find_hops(hops);
                return (u, wu);
            }
            u = v;
            hops += 1;
        }
    }

    fn advance<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize {
        stats.loop_iter();
        let v = store.load_parent(u);
        stats.read();
        v
    }
}

/// Paper Algorithm 4: *one-try splitting*. Each loop iteration reads
/// `v = u.parent` and `w = v.parent`; if `v` is a root it is returned,
/// otherwise one CAS tries to swing `u.parent` from `v` to `w` and the walk
/// advances to `v` regardless of the CAS outcome.
///
/// Expected total work `O(m(α(n, m/np²) + log(np²/m + 1)))` (Theorem 5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneTrySplit;

impl sealed::Sealed for OneTrySplit {}

impl FindPolicy for OneTrySplit {
    const NAME: &'static str = "one-try";

    fn find<P: ParentStore + ?Sized, S: StatsSink>(
        store: &P,
        x: usize,
        stats: &mut S,
    ) -> (usize, P::Word) {
        stats.find_start();
        let mut u = x;
        let mut hops = 0;
        loop {
            stats.loop_iter();
            let wu = store.load_word(u);
            stats.read();
            let v = P::parent_of(wu);
            let wv = store.load_word(v);
            stats.read();
            let w = P::parent_of(wv);
            if v == w {
                stats.find_hops(hops + usize::from(v != u));
                return (v, wv);
            }
            if store.cas_from(u, wu, w) {
                stats.compact_cas_ok();
            } else {
                stats.compact_cas_fail();
            }
            u = v;
            hops += 1;
        }
    }

    fn advance<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize {
        stats.loop_iter();
        split_step(store, u, stats)
    }
}

/// Paper Algorithm 5: *two-try splitting*. Like [`OneTrySplit`] but each
/// parent update is attempted twice before the walk advances, which tightens
/// the work bound to `Θ(m(α(n, m/np) + log(np/m + 1)))` (Theorem 5.1) — the
/// paper's headline result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoTrySplit;

impl sealed::Sealed for TwoTrySplit {}

impl FindPolicy for TwoTrySplit {
    const NAME: &'static str = "two-try";

    // Forced: with a plain `#[inline]` LLVM still called it out of line
    // twice per `same_set`/`unite` in the benchmark's release build.
    #[inline(always)]
    fn find<P: ParentStore + ?Sized, S: StatsSink>(
        store: &P,
        x: usize,
        stats: &mut S,
    ) -> (usize, P::Word) {
        stats.find_start();
        let mut u = x;
        let mut hops = 0;
        loop {
            stats.loop_iter();
            let mut v = 0;
            for _ in 0..2 {
                let wu = store.load_word(u);
                stats.read();
                v = P::parent_of(wu);
                let wv = store.load_word(v);
                stats.read();
                let w = P::parent_of(wv);
                if v == w {
                    stats.find_hops(hops + usize::from(v != u));
                    return (v, wv);
                }
                if store.cas_from(u, wu, w) {
                    stats.compact_cas_ok();
                } else {
                    stats.compact_cas_fail();
                }
            }
            u = v;
            hops += 1;
        }
    }

    fn advance<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize {
        stats.loop_iter();
        let mut z = u;
        for _ in 0..2 {
            z = split_step(store, u, stats);
        }
        z
    }
}

/// Concurrent path halving, the compaction Anderson & Woll used: after the
/// grandparent probe and CAS, the walk jumps to the *grandparent* rather
/// than the parent. Section 3 of the paper shows halving cannot beat
/// splitting concurrently, which experiments E6/E12 show with this policy;
/// [`TunedDsu`](crate::TunedDsu)'s cache-resident variant runs it too,
/// because with every word cache-hot its half-as-many compaction CASes
/// measured fastest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Halving;

impl sealed::Sealed for Halving {}

impl FindPolicy for Halving {
    const NAME: &'static str = "halving";

    fn find<P: ParentStore + ?Sized, S: StatsSink>(
        store: &P,
        x: usize,
        stats: &mut S,
    ) -> (usize, P::Word) {
        stats.find_start();
        let mut u = x;
        let mut hops = 0;
        loop {
            stats.loop_iter();
            let wu = store.load_word(u);
            stats.read();
            let v = P::parent_of(wu);
            let wv = store.load_word(v);
            stats.read();
            let w = P::parent_of(wv);
            if v == w {
                stats.find_hops(hops + usize::from(v != u));
                return (v, wv);
            }
            if store.cas_from(u, wu, w) {
                stats.compact_cas_ok();
            } else {
                stats.compact_cas_fail();
            }
            // Jump two levels: w is an ancestor of u in the union forest
            // whether or not the CAS succeeded (Lemma 3.1).
            u = w;
            hops += 2;
        }
    }

    fn advance<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize {
        stats.loop_iter();
        let v = store.load_parent(u);
        stats.read();
        let w = store.load_parent(v);
        stats.read();
        if v == w {
            return v;
        }
        if store.cas_parent(u, v, w) {
            stats.compact_cas_ok();
        } else {
            stats.compact_cas_fail();
        }
        w
    }
}

/// Concurrent two-pass **path compression** — the Section 6 conjecture.
///
/// The paper conjectures that "appropriate concurrent versions of
/// compression will have the bounds of Theorems 5.1 and 5.2" while noting
/// splitting is likely the method of choice (compression needs two passes
/// and is not purely local). This is such an appropriate version:
///
/// 1. First pass walks to a root `r`, recording each `(node, parent)` pair
///    it read.
/// 2. Second pass CASes every recorded node's parent from the *recorded*
///    value to `r`.
///
/// Expecting the recorded parent is what keeps Lemma 3.1 intact: the CAS
/// succeeds only if the parent is unchanged since the first pass, and `r`
/// was read as an ancestor of that exact parent, so every successful update
/// still replaces a parent by a proper union-forest ancestor. If another
/// process moved the parent meanwhile, the CAS fails and we simply skip —
/// one try per node, like [`OneTrySplit`].
///
/// Unlike the other policies this one allocates (the recorded path), which
/// is the concurrent face of the paper's "compression requires two passes
/// over the find path".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Compress;

impl sealed::Sealed for Compress {}

impl FindPolicy for Compress {
    const NAME: &'static str = "compress";

    fn find<P: ParentStore + ?Sized, S: StatsSink>(
        store: &P,
        x: usize,
        stats: &mut S,
    ) -> (usize, P::Word) {
        stats.find_start();
        // Pass 1: locate a root, remembering the words the parents were
        // read from (pass 2 CASes against these exact observations).
        let mut path: Vec<(usize, P::Word)> = Vec::new();
        let mut r = x;
        let root_word = loop {
            stats.loop_iter();
            let wr = store.load_word(r);
            stats.read();
            let p = P::parent_of(wr);
            if p == r {
                break wr;
            }
            path.push((r, wr));
            r = p;
        };
        stats.find_hops(path.len());
        // Pass 2: swing everything at the root (skip the node whose parent
        // already is the root).
        for &(u, wu) in &path {
            if P::parent_of(wu) != r {
                if store.cas_from(u, wu, r) {
                    stats.compact_cas_ok();
                } else {
                    stats.compact_cas_fail();
                }
            }
        }
        (r, root_word)
    }

    fn advance<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize {
        // Compression is not local, so early-termination rounds fall back
        // to a single splitting step (the paper's "method of choice" for
        // local compaction).
        stats.loop_iter();
        split_step(store, u, stats)
    }
}

/// One splitting step at `u` (the body of the `do twice` in Algorithms 6/7):
/// `z ← u.parent; w ← z.parent; CAS(u.parent, z, w)`; returns `z`.
///
/// When `z` is a root (`z == w`) the paper's CAS would write the value
/// already present; we skip that degenerate CAS (pure optimization, no
/// semantic difference).
fn split_step<P: ParentStore + ?Sized, S: StatsSink>(store: &P, u: usize, stats: &mut S) -> usize {
    let wu = store.load_word(u);
    stats.read();
    let z = P::parent_of(wu);
    let wz = store.load_word(z);
    stats.read();
    let w = P::parent_of(wz);
    if z != w {
        if store.cas_from(u, wu, w) {
            stats.compact_cas_ok();
        } else {
            stats.compact_cas_fail();
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FlatStore;
    use std::sync::atomic::Ordering;

    /// Builds a path 0 -> 1 -> ... -> n-1 (n-1 is the root).
    fn path_store(n: usize) -> FlatStore {
        let store = FlatStore::new(n);
        for i in 0..n - 1 {
            store.parent_cell(i).store(i + 1, Ordering::Relaxed);
        }
        store
    }

    #[test]
    fn no_compaction_finds_root_and_writes_nothing() {
        let store = path_store(8);
        let mut stats = crate::OpStats::default();
        assert_eq!(NoCompaction::find(&store, 0, &mut stats).0, 7);
        assert_eq!(stats.compact_cas_ok + stats.compact_cas_fail, 0);
        assert_eq!(store.snapshot(), vec![1, 2, 3, 4, 5, 6, 7, 7]);
        assert_eq!(stats.reads, 8); // one read per node incl. root self-loop
    }

    #[test]
    fn one_try_split_compacts_every_visited_node() {
        let store = path_store(8);
        let mut stats = crate::OpStats::default();
        assert_eq!(OneTrySplit::find(&store, 0, &mut stats).0, 7);
        // Sequentially, splitting sets parent[u] to its grandparent for
        // every non-(root/child-of-root) node on the path.
        assert_eq!(store.snapshot(), vec![2, 3, 4, 5, 6, 7, 7, 7]);
        assert_eq!(stats.compact_cas_fail, 0, "uncontended CAS never fails");
        assert!(stats.compact_cas_ok > 0);
    }

    #[test]
    fn two_try_split_compacts_twice_per_iteration_when_uncontended() {
        let a = path_store(9);
        let b = path_store(9);
        let mut s = ();
        assert_eq!(TwoTrySplit::find(&a, 0, &mut s).0, 8);
        assert_eq!(OneTrySplit::find(&b, 0, &mut s).0, 8);
        // Uncontended, the first try always succeeds, so two-try's second
        // try sees the already-updated parent and splits once more: node 0
        // ends two grandparents up, versus one for one-try.
        assert_eq!(a.snapshot()[0], 3);
        assert_eq!(b.snapshot()[0], 2);
    }

    #[test]
    fn halving_updates_alternate_nodes() {
        let store = path_store(9);
        let mut stats = crate::OpStats::default();
        assert_eq!(Halving::find(&store, 0, &mut stats).0, 8);
        // Visited nodes 0, 2, 4, 6 get halved; 1, 3, 5 untouched.
        assert_eq!(store.snapshot(), vec![2, 2, 4, 4, 6, 6, 8, 8, 8]);
    }

    #[test]
    fn find_on_root_returns_immediately() {
        let store = FlatStore::new(3);
        let mut s = ();
        assert_eq!(NoCompaction::find(&store, 1, &mut s).0, 1);
        assert_eq!(OneTrySplit::find(&store, 1, &mut s).0, 1);
        assert_eq!(TwoTrySplit::find(&store, 1, &mut s).0, 1);
        assert_eq!(Halving::find(&store, 1, &mut s).0, 1);
    }

    #[test]
    fn advance_on_root_stays_put() {
        let store = FlatStore::new(2);
        let mut s = ();
        assert_eq!(NoCompaction::advance(&store, 0, &mut s), 0);
        assert_eq!(OneTrySplit::advance(&store, 0, &mut s), 0);
        assert_eq!(TwoTrySplit::advance(&store, 0, &mut s), 0);
        assert_eq!(Halving::advance(&store, 0, &mut s), 0);
    }

    #[test]
    fn advance_moves_one_step_for_splitting() {
        let store = path_store(8);
        let mut s = ();
        // One-try advance: z = parent(0) = 1.
        assert_eq!(OneTrySplit::advance(&store, 0, &mut s), 1);
        // parent(0) was CASed to 2.
        assert_eq!(store.load_parent(0), 2);
    }

    #[test]
    fn advance_moves_two_steps_for_halving() {
        let store = path_store(8);
        let mut s = ();
        assert_eq!(Halving::advance(&store, 0, &mut s), 2);
        assert_eq!(store.load_parent(0), 2);
    }

    #[test]
    fn two_try_advance_performs_two_splits() {
        let store = path_store(8);
        let mut stats = crate::OpStats::default();
        let z = TwoTrySplit::advance(&store, 0, &mut stats);
        // First split: parent(0): 1 -> 2, z = 1. Second: parent(0): 2 -> 3,
        // z = 2 (reads fresh parent both times).
        assert_eq!(z, 2);
        assert_eq!(store.load_parent(0), 3);
        assert_eq!(stats.compact_cas_ok, 2);
    }

    #[test]
    fn every_policy_terminates_under_concurrent_mutation() {
        // Stress: many threads find from random nodes of a long path; all
        // must terminate and return the root.
        use std::sync::Arc;
        let store = Arc::new(path_store(1 << 12));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let mut s = ();
                    for i in 0..(1 << 12) {
                        let start = (i * 2654435761usize + t * 97) % (1 << 12);
                        match t % 4 {
                            0 => assert_eq!(
                                NoCompaction::find(&*store, start, &mut s).0,
                                (1 << 12) - 1
                            ),
                            1 => assert_eq!(
                                OneTrySplit::find(&*store, start, &mut s).0,
                                (1 << 12) - 1
                            ),
                            2 => assert_eq!(
                                TwoTrySplit::find(&*store, start, &mut s).0,
                                (1 << 12) - 1
                            ),
                            _ => assert_eq!(Halving::find(&*store, start, &mut s).0, (1 << 12) - 1),
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn find_hops_measure_walk_length() {
        // Path 0 -> 1 -> ... -> 7: a plain walk from 0 is 7 hops, and so
        // is a compressing one (pass 1 walks the whole path).
        let mut s = crate::OpStats::default();
        NoCompaction::find(&path_store(8), 0, &mut s);
        assert_eq!(s.find_hops, 7);
        let mut s = crate::OpStats::default();
        OneTrySplit::find(&path_store(8), 0, &mut s);
        assert_eq!(s.find_hops, 7);
        let mut s = crate::OpStats::default();
        Compress::find(&path_store(8), 0, &mut s);
        assert_eq!(s.find_hops, 7);
        // Level-skipping walks (halving, two-try's second try) report the
        // steps they actually took, not the original depth.
        let mut s = crate::OpStats::default();
        TwoTrySplit::find(&path_store(8), 0, &mut s);
        assert!(s.find_hops >= 3 && s.find_hops <= 7, "{}", s.find_hops);
        // A find that starts at a root is zero hops under every policy.
        let store = FlatStore::new(3);
        let mut s = crate::OpStats::default();
        NoCompaction::find(&store, 1, &mut s);
        OneTrySplit::find(&store, 1, &mut s);
        TwoTrySplit::find(&store, 1, &mut s);
        Halving::find(&store, 1, &mut s);
        Compress::find(&store, 1, &mut s);
        assert_eq!(s.find_hops, 0);
        assert_eq!(s.finds, 5);
        // Depth-1 finds are exactly one hop.
        let store = path_store(2);
        let mut s = crate::OpStats::default();
        NoCompaction::find(&store, 0, &mut s);
        TwoTrySplit::find(&store, 0, &mut s);
        assert_eq!(s.find_hops, 2);
    }

    #[test]
    fn policy_names() {
        assert_eq!(NoCompaction::NAME, "no-compaction");
        assert_eq!(OneTrySplit::NAME, "one-try");
        assert_eq!(TwoTrySplit::NAME, "two-try");
        assert_eq!(Halving::NAME, "halving");
        assert_eq!(Compress::NAME, "compress");
    }

    #[test]
    fn compress_flattens_whole_path_uncontended() {
        let store = path_store(8);
        let mut stats = crate::OpStats::default();
        assert_eq!(Compress::find(&store, 0, &mut stats).0, 7);
        // Every node on the path now points straight at the root (node 6
        // already did).
        assert_eq!(store.snapshot(), vec![7, 7, 7, 7, 7, 7, 7, 7]);
        assert_eq!(stats.compact_cas_ok, 6);
        assert_eq!(stats.compact_cas_fail, 0);
        // A second find is all root-probe, no CASes.
        let mut stats2 = crate::OpStats::default();
        assert_eq!(Compress::find(&store, 0, &mut stats2).0, 7);
        assert_eq!(stats2.cas_attempts(), 0);
        assert_eq!(stats2.reads, 2);
    }

    #[test]
    fn compress_skips_changed_parents() {
        use std::sync::atomic::Ordering;
        // Simulate a racing update between the two passes by doing pass 1
        // manually: start a find, then mutate, then check the stale CAS
        // fails gracefully. Easiest deterministic equivalent: run a find
        // concurrently with heavy mutation and just require termination +
        // a root result (exercised more in the stress test below).
        let store = path_store(16);
        store.parent_cell(0).store(5, Ordering::SeqCst);
        let mut s = ();
        let r = Compress::find(&store, 0, &mut s).0;
        assert_eq!(r, 15);
        assert_eq!(store.load_parent(0), 15);
    }

    #[test]
    fn compress_terminates_under_concurrent_mutation() {
        use std::sync::Arc;
        let store = Arc::new(path_store(1 << 10));
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let mut s = ();
                    for i in 0..2000 {
                        let start = (i * 37 + t * 131) % (1 << 10);
                        assert_eq!(Compress::find(&*store, start, &mut s).0, (1 << 10) - 1);
                    }
                });
            }
        });
        // Everything should be fully flattened by now.
        let snap = store.snapshot();
        assert!(snap.iter().all(|&p| p == (1 << 10) - 1));
    }

    #[test]
    fn compress_advance_is_a_split_step() {
        let store = path_store(8);
        let mut s = ();
        assert_eq!(Compress::advance(&store, 0, &mut s), 1);
        assert_eq!(store.load_parent(0), 2);
    }
}
