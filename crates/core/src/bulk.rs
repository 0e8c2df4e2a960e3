//! Batched edge ingestion: `unite_batch` (the bulk counterpart of `unite`).
//!
//! Applications that maintain connected components rarely insert one edge at
//! a time — edges arrive in bursts (a scanned adjacency chunk, a network
//! batch, a Borůvka round). Dispatching each edge through a full `Unite`
//! wastes work on two fronts:
//!
//! 1. **Serialized loads.** Each operation's find is a dependent pointer
//!    chase, and a per-op loop starts the next edge's first load only
//!    after the previous edge retires. A batch knows every future
//!    endpoint, so the filter pass front-loads each group's parent words
//!    in two **gather waves** of mutually independent loads (each
//!    endpoint's word, then its parent's word) the memory system overlaps
//!    — memory-level parallelism per-op dispatch cannot express.
//! 2. **Redundant work per edge.** The walks then run *seeded*: the word
//!    in hand is carried from step to step (one fresh load per visited
//!    node, where the standalone find policies pay two), same-set edges
//!    are dropped with no validation re-read and no CAS, and each
//!    surviving edge's link CAS is issued against the exact root word the
//!    filter observed — no re-traversal between deciding and linking.
//!
//! `unite_batch` structures this as a **filter pass** (gather waves, then
//! seeded root walks, recording for each survivor the `(root, word,
//! target)` observation that nominated the link) and a **link pass** (one
//! seeded CAS per survivor, falling back to the full retry loop only when
//! another link moved the root first).
//!
//! # Why the seeded CAS is still linearizable
//!
//! A recorded survivor `(r, w, v)` has `key(r) < key(v)` under the batch's
//! [`LinkPolicy`], whose keys are immutable, and the link CAS expects the
//! very word `w` the filter observed. If the link CAS succeeds, `r` was
//! still a root — and a root has the largest key of its tree
//! (Lemma 3.1's invariant, which every policy preserves; see
//! [`order`](crate::order)), so `v`, with its larger key, cannot be inside
//! `r`'s tree: the two sets were distinct at the CAS, which is therefore a
//! correct link at its linearization point, exactly the argument behind
//! Algorithm 7.
//! Any staleness (the root moved, the sets merged meanwhile) makes the CAS
//! fail, and the fallback loop re-establishes the answer from fresh reads.
//! Consequently a single-threaded `unite_batch` returns, edge by edge, the
//! *same* booleans a one-at-a-time `unite` sequence would — the property
//! `tests/batch_semantics.rs` checks exhaustively. (The union *forest* may
//! shape differently than per-op's: a batch link can attach a root under a
//! node an earlier link of the same wave already demoted — Algorithm 7's
//! "link under any larger-id node" case. The partition, the verdicts, and
//! Lemma 3.1's id ordering are unaffected.)
//!
//! The batch path's climb always compacts by *seeded one-try splitting*
//! (the carried word doubles as the CAS expectation), independent of the
//! structure's [`FindPolicy`](crate::find::FindPolicy): compaction is a
//! performance-only effect — it never moves a node out of its set and
//! never changes a root — so no operation's result depends on it, and the
//! splitting step is the one whose operands the filter already holds.

use crate::order::LinkPolicy;
use crate::stats::StatsSink;
use crate::store::ParentStore;

/// Edges per gather wave (one filter-then-link round). Each wave issues a
/// group's parent-word loads back to back; the loads are mutually
/// independent, so the memory system overlaps the misses — the
/// memory-level parallelism a per-op `unite` loop cannot express, because
/// each operation's find chain is a dependent pointer chase. 128 edges
/// keeps the wave's scratch a few KB (L1-resident) while giving the
/// hardware far more outstanding misses than it can retire; empirically
/// (A/B on the Zipf ingestion workload, store larger than cache) 128 beat
/// 16/32/64 and 256 on the benchmark host.
pub const GATHER: usize = 128;

/// The climb at the heart of the filter: walk from `u` — whose word `wu`
/// the caller already holds — to a node observed as a root, compacting by
/// *seeded splitting*: each step probes the grandparent with the
/// iteration's single load and tries to swing `u`'s parent to it, CASing
/// against the carried word. One load per visited node (the probe doubles
/// as the next carried word), where the standalone find policies pay two.
///
/// The carried word can be stale under concurrency; that is harmless. A
/// stale parent still names a same-set node of strictly larger id (every
/// value a cell ever holds does, Lemma 3.1), so the climb stays in-set and
/// makes progress; a stale compaction CAS just fails; and a stale "root"
/// observation is caught by whichever CAS the caller issues against the
/// returned word.
fn find_from<P, S>(store: &P, mut u: usize, mut wu: P::Word, stats: &mut S) -> (usize, P::Word)
where
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    loop {
        stats.loop_iter();
        let z = P::parent_of(wu);
        if z == u {
            return (u, wu);
        }
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
        u = z;
        wu = wz;
    }
}

/// Resolves one endpoint to its observed root given the gather waves'
/// words: `wx` is `x`'s word and `wp` the word of `parent(wx)`. The
/// preloaded level unrolls one climb step against words already in hand;
/// with compaction keeping almost every node within two hops of its root,
/// most endpoints resolve here without issuing a single serial load, and
/// the remainder falls through to [`find_from`].
#[inline]
fn resolve<P, S>(store: &P, x: usize, wx: P::Word, wp: P::Word, stats: &mut S) -> (usize, P::Word)
where
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.loop_iter();
    let z = P::parent_of(wx);
    if z == x {
        return (x, wx);
    }
    let w = P::parent_of(wp);
    if z != w {
        if store.cas_from(x, wx, w) {
            stats.compact_cas_ok();
        } else {
            stats.compact_cas_fail();
        }
    }
    find_from(store, z, wp, stats)
}

/// Retry loop for survivors whose seeded CAS lost a race: paper
/// Algorithm 3's loop (re-find both roots, link the smaller, retry on CAS
/// failure), built on the word-carrying climb. No `op_start` — the edge
/// was already counted by its filter.
fn unite_from<L, P, S>(
    store: &P,
    mut u: usize,
    mut v: usize,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
) -> bool
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    loop {
        let wu = store.load_word(u);
        let wv = store.load_word(v);
        stats.read();
        stats.read();
        let (ru, wru) = find_from(store, u, wu, stats);
        let (rv, wrv) = find_from(store, v, wv, stats);
        if ru == rv {
            return false;
        }
        let (child, wc, parent) = nominate::<L, P>(store, ru, wru, rv, wrv);
        if store.cas_from(child, wc, parent) {
            stats.link_ok();
            record_link(child, parent);
            return true;
        }
        stats.link_fail();
        stats.cas_retry();
        // The loser's root moved: restart the finds from the roots just
        // observed (they are ancestors of the originals, so nothing below
        // them needs re-walking).
        u = ru;
        v = rv;
    }
}

/// Nominates the link direction for two distinct observed roots: the
/// smaller-key root (under the batch's [`LinkPolicy`]) goes under the
/// other, the same choice `Unite` makes (index breaks ties). Unlike
/// `SameSet` (paper Algorithm 2), no validation re-read happens at
/// nomination: the filter does not claim the sets are distinct, it only
/// nominates a link for the link pass, whose CAS against the recorded word
/// is the validation (see the module docs).
#[inline]
fn nominate<L, P>(
    store: &P,
    ru: usize,
    wru: P::Word,
    rv: usize,
    wrv: P::Word,
) -> (usize, P::Word, usize)
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
{
    if L::key(store, ru, wru) < L::key(store, rv, wrv) {
        (ru, wru, rv)
    } else {
        (rv, wrv, ru)
    }
}

/// The link pass over one group's survivors: one seeded CAS per survivor
/// on the common path, the full retry loop on a lost race.
fn link_survivors<L, P, S>(
    store: &P,
    survivors: &[(usize, usize, P::Word, usize)],
    stats: &mut S,
    record_link: &impl Fn(usize, usize),
    outcome: &mut impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    let mut links = 0;
    for &(i, root, word, under) in survivors {
        let linked = if store.cas_from(root, word, under) {
            stats.link_ok();
            record_link(root, under);
            true
        } else {
            stats.link_fail();
            stats.cas_retry();
            unite_from::<L, P, S>(store, root, under, stats, record_link)
        };
        links += linked as usize;
        outcome(i, linked);
    }
    links
}

/// Batched `unite` over `edges`, reporting each edge's outcome (its index
/// and whether *this batch* performed the link) into `outcome`; returns the
/// number of successful links.
///
/// Processes the slice in [`GATHER`]-sized waves: gather the group's two
/// parent-word levels, filter every edge (read-mostly — same-set drops cost
/// no link CAS), then link the group's survivors from their recorded
/// observations. Outcomes are reported exactly once per edge but *not* in
/// index order (same-set edges report during the filter step of their
/// wave).
///
/// Kept out of line: it runs once per batch, so the call is free, but when
/// LLVM inlined it into the packed `Dsu::unite_batch` (a heuristic flip
/// after unrelated `Dsu` changes) the filter loop gained register spills
/// and the perfbench cc-rmat per-batch p50 rose about 20 % (2-vCPU Xeon;
/// see `docs/benchmarks.md`).
#[inline(never)]
pub fn unite_batch_sink<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    mut outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    let mut links = 0;
    let mut words: Vec<(P::Word, P::Word)> = Vec::with_capacity(GATHER);
    let mut parents: Vec<(P::Word, P::Word)> = Vec::with_capacity(GATHER);
    let mut survivors: Vec<(usize, usize, P::Word, usize)> = Vec::with_capacity(GATHER);
    for (g, group) in edges.chunks(GATHER).enumerate() {
        let base = g * GATHER;
        // Gather wave 1: the group's first-level words.
        words.clear();
        words.extend(group.iter().map(|&(x, y)| (store.load_word(x), store.load_word(y))));
        stats.reads(2 * group.len());
        // Gather wave 2: the words of those words' parents (a root's
        // "parent" is itself — that re-load stays in L1). Still mutually
        // independent, so the second level of every walk overlaps too.
        parents.clear();
        parents.extend(words.iter().map(|&(wx, wy)| {
            (store.load_word(P::parent_of(wx)), store.load_word(P::parent_of(wy)))
        }));
        stats.reads(2 * group.len());
        // Filter: seeded root walks from the gathered words.
        survivors.clear();
        for (k, &(x, y)) in group.iter().enumerate() {
            stats.op_start();
            if x == y {
                outcome(base + k, false);
                continue;
            }
            let (wx, wy) = words[k];
            let (wpx, wpy) = parents[k];
            let (ru, wru) = resolve(store, x, wx, wpx, stats);
            let (rv, wrv) = resolve(store, y, wy, wpy, stats);
            if ru == rv {
                outcome(base + k, false);
                continue;
            }
            let (root, word, under) = nominate::<L, P>(store, ru, wru, rv, wrv);
            survivors.push((base + k, root, word, under));
        }
        links += link_survivors::<L, P, S>(store, &survivors, stats, &record_link, &mut outcome);
    }
    links
}

/// Batched `unite` over `edges`; returns the number of successful links.
/// See [`unite_batch_sink`] for the two-pass structure.
pub fn unite_batch<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    stats: &mut S,
    record_link: impl Fn(usize, usize),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    unite_batch_sink::<L, P, S>(store, edges, stats, record_link, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::TwoTrySplit;
    use crate::ops;
    use crate::order::RandomLink;
    use crate::store::{DsuStore, FlatStore, PackedStore};

    fn batch_on<P: ParentStore + DsuStore>(store: &P, edges: &[(usize, usize)]) -> usize {
        unite_batch::<RandomLink, _, _>(store, edges, &mut (), |_, _| {})
    }

    #[test]
    fn batch_links_and_filters_both_layouts() {
        let flat = FlatStore::with_seed(8, 11);
        assert_eq!(batch_on(&flat, &[(0, 1), (1, 2), (0, 2), (3, 3)]), 2);
        assert!(ops::same_set::<TwoTrySplit, _, _>(&flat, 0, 2, &mut ()));
        assert!(!ops::same_set::<TwoTrySplit, _, _>(&flat, 0, 3, &mut ()));
        let packed = PackedStore::with_seed(8, 11);
        assert_eq!(batch_on(&packed, &[(0, 1), (1, 2), (0, 2), (3, 3)]), 2);
        assert!(ops::same_set::<TwoTrySplit, _, _>(&packed, 0, 2, &mut ()));
    }

    #[test]
    fn duplicate_edges_in_one_batch_link_once() {
        let store = PackedStore::with_seed(4, 7);
        // Both duplicates survive the filter pass (no links happen during
        // it); the link pass CAS-succeeds once and falls back to a same-set
        // verdict for the second copy.
        assert_eq!(batch_on(&store, &[(0, 1), (0, 1), (1, 0)]), 1);
    }

    #[test]
    fn empty_and_self_loop_batches() {
        let store = PackedStore::with_seed(4, 1);
        assert_eq!(batch_on(&store, &[]), 0);
        assert_eq!(batch_on(&store, &[(2, 2), (0, 0)]), 0);
        assert_eq!(store.snapshot(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn outcomes_report_every_edge_exactly_once() {
        let store = FlatStore::with_seed(6, 3);
        let edges = [(0, 1), (1, 0), (2, 3), (4, 4), (3, 2), (0, 5)];
        let mut seen = vec![0u32; edges.len()];
        let mut bools = vec![false; edges.len()];
        let links = unite_batch_sink::<RandomLink, _, _>(
            &store,
            &edges,
            &mut (),
            |_, _| {},
            |i, linked| {
                seen[i] += 1;
                bools[i] = linked;
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "each edge reported once: {seen:?}");
        assert_eq!(bools, vec![true, false, true, false, false, true]);
        assert_eq!(links, 3);
    }

    #[test]
    fn record_link_fires_per_successful_link() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = PackedStore::with_seed(16, 5);
        let count = AtomicUsize::new(0);
        let edges: Vec<(usize, usize)> = (0..15).map(|i| (i, i + 1)).collect();
        let links = unite_batch::<RandomLink, _, _>(&store, &edges, &mut (), |child, parent| {
            let key = |x| (DsuStore::id_of(&store, x), x);
            assert!(key(child) < key(parent));
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(links, 15);
        assert_eq!(count.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn stats_count_each_edge_as_one_op() {
        let store = FlatStore::with_seed(8, 2);
        let mut stats = crate::OpStats::default();
        unite_batch::<RandomLink, _, _>(&store, &[(0, 1), (0, 1), (2, 2)], &mut stats, |_, _| {});
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.links_ok, 1);
    }

    #[test]
    fn batches_larger_than_gather_wave() {
        // A path over many gather waves, one edge per hop: every wave
        // boundary must carry the partial forest over.
        let n = 40 * GATHER + 1;
        let store = FlatStore::with_seed(n, 9);
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        assert_eq!(batch_on(&store, &edges), n - 1);
        assert!(ops::same_set::<TwoTrySplit, _, _>(&store, 0, n - 1, &mut ()));
    }
}
