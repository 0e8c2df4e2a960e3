//! Connected components — the paper's flagship application ("maintaining
//! connected components in a graph under edge insertions").
//!
//! The parallel algorithm needs no coordination at all for *correctness* —
//! set union is confluent, so the final partition is the same for every
//! interleaving. What it does need is an ingestion shape that keeps every
//! thread busy and every edge cheap:
//!
//! * **Dynamic chunked scheduling.** Instead of statically pre-assigning
//!   edge `i` to thread `i % p` (which lets one slow or unlucky thread
//!   serialize the tail — on skewed R-MAT inputs the hub edges cluster and
//!   a static shard can be much more expensive than its siblings), a shared
//!   [`AtomicUsize`] cursor hands out fixed-size chunks on demand: fast
//!   threads simply take more chunks. The chunk size trades scheduling
//!   overhead (one `fetch_add` per chunk) against load-balance granularity;
//!   [`DEFAULT_EDGE_CHUNK`] suits the generated graphs here, and
//!   [`unite_edges_parallel_chunked`] exposes the knob.
//! * **Batched ingestion.** Each chunk goes through
//!   [`ConcurrentUnionFind::unite_batch`] — on [`Dsu`] the bulk path
//!   (`concurrent_dsu::bulk`) that overlaps parent-word loads in gather
//!   waves, drops already-connected edges with a read-mostly same-set
//!   filter, and links each survivor with a CAS seeded by the exact root
//!   word the filter observed.
//!
//! The cursor handles every degenerate shape for free: an empty edge list,
//! more threads than edges, or a chunk size larger than the input just
//! leave some workers taking zero chunks.

use std::sync::atomic::{AtomicUsize, Ordering};

use concurrent_dsu::{ConcurrentUnionFind, Dsu, TwoTrySplit};
use sequential_dsu::{Compaction, Linking, SeqDsu};

use crate::graph::EdgeList;

/// Edges per chunk handed out by the dynamic scheduler: small enough that
/// a skewed tail spreads across threads, large enough that the cursor
/// `fetch_add` and the batch setup are noise.
pub const DEFAULT_EDGE_CHUNK: usize = 1024;

/// Component labels via a sequential union-find (rank + halving), the
/// strongest sequential baseline. `labels[v]` is an arbitrary but
/// idempotent representative.
pub fn sequential_components(graph: &EdgeList) -> Vec<usize> {
    let mut dsu = SeqDsu::new(graph.n(), Linking::ByRank, Compaction::Halving);
    for e in graph.edges() {
        dsu.unite(e.u, e.v);
    }
    let mut labels: Vec<usize> = (0..graph.n()).map(|v| dsu.find(v)).collect();
    for v in 0..labels.len() {
        labels[v] = labels[labels[v]];
    }
    labels
}

/// Component labels via the Jayanti–Tarjan structure with `threads`
/// worker threads (two-try splitting, batched chunk ingestion).
pub fn parallel_components(graph: &EdgeList, threads: usize) -> Vec<usize> {
    let dsu: Dsu<TwoTrySplit> = Dsu::new(graph.n());
    unite_edges_parallel(&dsu, graph, threads);
    dsu.labels_snapshot()
}

/// Ingests `graph`'s edges into `dsu` on `threads` threads via the dynamic
/// chunk-cursor scheduler with [`DEFAULT_EDGE_CHUNK`]-sized chunks. Works
/// with any concurrent union-find — the speedup experiment runs it against
/// the baselines too.
///
/// # Panics
///
/// Panics if `threads == 0` or if `dsu.len() < graph.n()`.
pub fn unite_edges_parallel<D: ConcurrentUnionFind>(dsu: &D, graph: &EdgeList, threads: usize) {
    unite_edges_parallel_chunked(dsu, graph, threads, DEFAULT_EDGE_CHUNK);
}

/// [`unite_edges_parallel`] with an explicit chunk size: workers repeatedly
/// `fetch_add` a shared cursor to claim the next `chunk_size` edges and
/// feed them to [`ConcurrentUnionFind::unite_batch`], so no thread is ever
/// idle while edges remain — however skewed the edge order is.
///
/// Degenerate inputs (no edges, `threads > edges`, `chunk_size > edges`)
/// need no special cases: workers that find the cursor exhausted exit
/// without touching the structure.
///
/// # Panics
///
/// Panics if `threads == 0`, `chunk_size == 0`, or `dsu.len() < graph.n()`.
pub fn unite_edges_parallel_chunked<D: ConcurrentUnionFind>(
    dsu: &D,
    graph: &EdgeList,
    threads: usize,
    chunk_size: usize,
) {
    assert!(threads > 0, "need at least one thread");
    assert!(chunk_size > 0, "chunk size must be positive");
    assert!(dsu.len() >= graph.n(), "universe smaller than vertex set");
    let edges = graph.edges();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let cursor = &cursor;
            s.spawn(move || {
                let mut batch: Vec<(usize, usize)> = Vec::with_capacity(chunk_size);
                loop {
                    let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= edges.len() {
                        break;
                    }
                    let end = (start + chunk_size).min(edges.len());
                    batch.clear();
                    batch.extend(edges[start..end].iter().map(|e| (e.u, e.v)));
                    dsu.unite_batch(&batch);
                }
            });
        }
    });
}

/// Number of distinct components given idempotent labels (`labels[l] == l`
/// for every label `l` in use).
pub fn count_components(labels: &[usize]) -> usize {
    labels.iter().enumerate().filter(|&(v, &l)| v == l).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use sequential_dsu::Partition;

    #[test]
    fn sequential_matches_bfs_oracle() {
        for seed in 0..4 {
            let g = gen::gnm(300, 280, seed);
            let ours = Partition::from_labels(&sequential_components(&g));
            let oracle = Partition::from_labels(&g.to_csr().bfs_components());
            assert_eq!(ours, oracle, "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_bfs_oracle() {
        for seed in 0..4 {
            let g = gen::gnm(500, 700, 100 + seed);
            for threads in [1, 2, 4, 8] {
                let ours = Partition::from_labels(&parallel_components(&g, threads));
                let oracle = Partition::from_labels(&g.to_csr().bfs_components());
                assert_eq!(ours, oracle, "seed {seed}, threads {threads}");
            }
        }
    }

    /// The graph pipeline is layout-agnostic: the same chunked ingestion
    /// over a flat-store Dsu yields the same components (the batch path,
    /// the cursor scheduler, and labels_snapshot all run through the
    /// word-based ParentStore interface).
    #[test]
    fn parallel_ingestion_works_on_flat_store() {
        let g = gen::gnm(600, 900, 77);
        let dsu: Dsu<TwoTrySplit, concurrent_dsu::FlatStore> = Dsu::new(g.n());
        unite_edges_parallel(&dsu, &g, 4);
        let ours = Partition::from_labels(&dsu.labels_snapshot());
        let oracle = Partition::from_labels(&g.to_csr().bfs_components());
        assert_eq!(ours, oracle);
    }

    #[test]
    fn parallel_works_on_skewed_graphs() {
        let g = gen::rmat_standard(9, 4000, 5);
        let ours = Partition::from_labels(&parallel_components(&g, 8));
        let oracle = Partition::from_labels(&g.to_csr().bfs_components());
        assert_eq!(ours, oracle);
    }

    /// Regression: the old static sharding assigned empty ranges when
    /// `threads > edges.len()`; the chunk cursor must handle every tiny
    /// shape — zero edges, one edge, more threads than edges, chunks wider
    /// than the input — without panicking and with correct results.
    #[test]
    fn degenerate_shapes_more_threads_than_edges() {
        for m in [0usize, 1, 2, 5] {
            let pairs: Vec<(usize, usize)> = (0..m).map(|i| (i, i + 1)).collect();
            let g = EdgeList::from_pairs(8, &pairs);
            for threads in [1, 3, 8, 16] {
                for chunk in [1, 2, 1024] {
                    let dsu: Dsu = Dsu::new(8);
                    unite_edges_parallel_chunked(&dsu, &g, threads, chunk);
                    assert_eq!(dsu.set_count(), 8 - m, "m={m} threads={threads} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn chunk_sizes_do_not_change_the_partition() {
        let g = gen::gnm(400, 900, 77);
        let oracle = Partition::from_labels(&g.to_csr().bfs_components());
        for chunk in [1, 7, 64, 4096] {
            let dsu: Dsu = Dsu::new(g.n());
            unite_edges_parallel_chunked(&dsu, &g, 4, chunk);
            assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle, "chunk {chunk}");
        }
    }

    #[test]
    fn count_components_counts() {
        let g = gen::tree_plus(64, 10, 3); // connected
        let labels = sequential_components(&g);
        assert_eq!(count_components(&labels), 1);
        let empty = EdgeList::new(5);
        assert_eq!(count_components(&sequential_components(&empty)), 5);
    }

    #[test]
    fn generic_over_baseline_structures() {
        let g = gen::gnm(200, 300, 9);
        let dsu =
            concurrent_dsu::Dsu::<concurrent_dsu::OneTrySplit, concurrent_dsu::EpochStore>::new(
                200,
            );
        unite_edges_parallel(&dsu, &g, 4);
        let ours = Partition::from_labels(&dsu.labels_snapshot());
        let oracle = Partition::from_labels(&g.to_csr().bfs_components());
        assert_eq!(ours, oracle);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let g = EdgeList::new(2);
        let dsu: Dsu = Dsu::new(2);
        unite_edges_parallel(&dsu, &g, 0);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        let g = EdgeList::new(2);
        let dsu: Dsu = Dsu::new(2);
        unite_edges_parallel_chunked(&dsu, &g, 1, 0);
    }
}
