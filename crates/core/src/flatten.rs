//! The flatten pass: store-ordered pointer-jumping sweeps that drive every
//! tree to depth ≤ 1, so steady-state finds are a single load.
//!
//! # Why a sweep, not more per-find compaction
//!
//! Every compaction policy in [`find`](crate::find) pays its loads on the
//! *serial* find path: each probe is a dependent pointer chase, and five
//! PRs of locality bets (ROADMAP "Recent") showed that adding anything to
//! that chase loses. A flatten sweep is the opposite shape: it scans the
//! parent array *sequentially* in store order — independent loads the
//! hardware prefetcher streams at DRAM bandwidth — and pointer-jumps each
//! element until its parent is a root. After a quiesced sweep every tree
//! has depth ≤ 1 and every subsequent find is one load (asserted by
//! `tests/flatten_semantics.rs` on every layout). The structure follows
//! the wave/flattening phase of "Provably-Efficient and
//! Internally-Deterministic Parallel Union-Find" (arXiv 2304.09331).
//!
//! # Safety under concurrency
//!
//! The sweep uses the same primitives as the find policies: [`LOAD`]
//! (Acquire) word loads and word-exact [`cas_from`]. Each jump CASes
//! element `i` from its observed word to `i`'s observed *grandparent* — a
//! proper union-forest ancestor of the observed parent (Lemma 3.1), so a
//! successful jump preserves exactly the invariant every compaction CAS
//! preserves and concurrent `unite` / `same_set` verdicts are unaffected
//! (proptested in `tests/flatten_semantics.rs`). A lost CAS just means a
//! concurrent mutator moved the element first; the sweep re-reads and
//! retries, and every retry strictly climbs the random order, so each
//! element terminates.
//!
//! [`LOAD`]: crate::store::LOAD
//! [`cas_from`]: crate::store::ParentStore::cas_from
//!
//! # Scheduling
//!
//! [`flatten_runs_parallel`] carves the store's scan surface (`0..n` for
//! the fixed-universe layouts,
//! [`GrowableStore::scan_runs`](crate::growable::GrowableStore::scan_runs)
//! for the growable ones) into chunks and has workers claim them from a
//! shared atomic cursor — the same dynamic chunk-cursor shape as the graph
//! crate's chunked edge ingestion, because chunks near hot roots finish at
//! very different speeds. Chunks never straddle a run, so a growable sweep
//! never crosses a segment allocation.
//!
//! # When to run it
//!
//! Only between (or concurrently with, but paid against) traffic that will
//! amortize it: the sweep is O(n) loads plus a CAS per deep element.
//! `BENCH_PR9.json` (`flatten_ab`) measures where the trade pays: with
//! splitting already leaving about 0.2 hops per find, it mostly doesn't.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::stats::{OpStats, StatsSink};
use crate::store::ParentStore;

/// Elements per parallel-sweep chunk. Coarser than the edge-ingestion
/// chunk (1024): sweep work per element is two streamed loads in the
/// common flat case, so smaller chunks would be all cursor traffic.
pub const DEFAULT_FLATTEN_CHUNK: usize = 4096;

/// Pointer-jumps one element until its observed parent is an observed
/// root. Loads and CASes report through the ordinary `read` /
/// `compact_cas_*` events (keeping `memory_accesses()` honest);
/// `flatten_jump` / `flatten_cas_lost` attribute them to the sweep.
#[inline]
pub fn flatten_element<P: ParentStore + ?Sized, S: StatsSink>(store: &P, i: usize, stats: &mut S) {
    loop {
        let wu = store.load_word(i);
        stats.read();
        let p = P::parent_of(wu);
        if p == i {
            return; // i is a root.
        }
        let wp = store.load_word(p);
        stats.read();
        let g = P::parent_of(wp);
        if g == p {
            return; // p was observed a root: depth ≤ 1 right now.
        }
        // Same jump as split_step's CAS: g is a proper union-forest
        // ancestor of i's observed parent, so linking verdicts cannot
        // change. Success or not, re-read — on success the new parent g
        // may itself have a parent; on failure someone moved i first.
        if store.cas_from(i, wu, g) {
            stats.compact_cas_ok();
            stats.flatten_jump();
        } else {
            stats.compact_cas_fail();
            stats.flatten_cas_lost();
        }
    }
}

/// One sequential sweep over `runs`, in order (see [`flatten_element`] for
/// the per-element contract). Reports one `flatten_pass` on completion.
pub fn flatten_runs<P: ParentStore + ?Sized, S: StatsSink>(
    store: &P,
    runs: &[Range<usize>],
    stats: &mut S,
) {
    for run in runs {
        for i in run.clone() {
            flatten_element(store, i, stats);
        }
    }
    stats.flatten_pass();
}

/// Splits runs into chunks of at most [`DEFAULT_FLATTEN_CHUNK`] elements,
/// never straddling a run.
fn chunk_runs(runs: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut chunks = Vec::new();
    for run in runs {
        let mut start = run.start;
        while start < run.end {
            let end = run.end.min(start + DEFAULT_FLATTEN_CHUNK);
            chunks.push(start..end);
            start = end;
        }
    }
    chunks
}

/// A parallel sweep over `runs` on `threads` workers claiming chunks from
/// a shared cursor (dynamic scheduling — chunks near hot roots cost
/// different amounts). Returns the merged per-worker counters, including
/// exactly one `flatten_passes`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn flatten_runs_parallel<P: ParentStore + Sync + ?Sized>(
    store: &P,
    runs: &[Range<usize>],
    threads: usize,
) -> OpStats {
    assert!(threads > 0, "a parallel flatten needs at least one worker");
    let chunks = chunk_runs(runs);
    let cursor = AtomicUsize::new(0);
    let mut total = OpStats::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, chunks) = (&cursor, &chunks);
                scope.spawn(move || {
                    let mut stats = OpStats::default();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(c) else { break };
                        for i in chunk.clone() {
                            flatten_element(store, i, &mut stats);
                        }
                    }
                    stats
                })
            })
            .collect();
        for w in workers {
            total.merge(&w.join().expect("flatten worker panicked"));
        }
    });
    total.flatten_pass();
    total
}

#[cfg(test)]
// A one-element `[a..b]` here is one scan run, not an index list.
#[allow(clippy::single_range_in_vec_init)]
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

    fn max_depth(parent: &[usize]) -> usize {
        (0..parent.len())
            .map(|mut u| {
                let mut d = 0;
                while parent[u] != u {
                    u = parent[u];
                    d += 1;
                }
                d
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn flatten_element_flattens_one_path_node() {
        let store = path_store(8);
        let mut stats = OpStats::default();
        flatten_element(&store, 0, &mut stats);
        // 0's parent must now be the root, reached by repeated jumps.
        assert_eq!(store.load_parent(0), 7);
        assert!(stats.flatten_jumps > 0);
        assert_eq!(stats.flatten_cas_lost, 0, "uncontended jumps never lose");
        assert_eq!(stats.compact_cas_ok, stats.flatten_jumps);
        // Root and depth-1 elements are no-ops.
        let mut quiet = OpStats::default();
        flatten_element(&store, 7, &mut quiet);
        flatten_element(&store, 6, &mut quiet);
        assert_eq!(quiet.cas_attempts(), 0);
    }

    #[test]
    fn sequential_flatten_reaches_depth_one() {
        let store = path_store(64);
        let mut stats = OpStats::default();
        flatten_runs(&store, &[0..64], &mut stats);
        assert_eq!(stats.flatten_passes, 1);
        let snap = store.snapshot();
        assert!(max_depth(&snap) <= 1, "post-flatten max depth: {}", max_depth(&snap));
        // A second pass is pure reads: nothing left to jump.
        let mut again = OpStats::default();
        flatten_runs(&store, &[0..64], &mut again);
        assert_eq!(again.flatten_jumps, 0);
        assert_eq!(again.cas_attempts(), 0);
    }

    #[test]
    fn parallel_flatten_reaches_depth_one() {
        for threads in [1, 2, 4] {
            let store = path_store(1 << 12);
            let stats = flatten_runs_parallel(&store, &[0..1 << 12], threads);
            assert_eq!(stats.flatten_passes, 1);
            assert!(stats.flatten_jumps > 0);
            let snap = store.snapshot();
            assert!(max_depth(&snap) <= 1, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        flatten_runs_parallel(&FlatStore::new(4), &[0..4], 0);
    }

    #[test]
    fn chunks_respect_run_boundaries() {
        let runs = [0..DEFAULT_FLATTEN_CHUNK + 7, 100_000..100_003];
        let chunks = chunk_runs(&runs);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], 0..DEFAULT_FLATTEN_CHUNK);
        assert_eq!(chunks[1], DEFAULT_FLATTEN_CHUNK..DEFAULT_FLATTEN_CHUNK + 7);
        assert_eq!(chunks[2], runs[1]);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, runs.iter().map(|r| r.len()).sum::<usize>());
    }
}
