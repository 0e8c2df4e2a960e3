//! Minimum spanning trees/forests: sequential Kruskal (the classic
//! union-find client) and a parallel Borůvka driven by the concurrent
//! structure.
//!
//! Experiments generate **distinct** edge weights, making the MSF unique,
//! so the two algorithms must agree on the exact edge set — a sharp
//! cross-validation of the concurrent `unite`'s linearizable `true/false`
//! return.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use concurrent_dsu::{Dsu, TwoTrySplit};
use sequential_dsu::{Compaction, Linking, SeqDsu};

use crate::graph::EdgeList;

/// The result of an MSF computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msf {
    /// Total weight of the chosen edges.
    pub total_weight: u64,
    /// Indices (into `graph.edges()`) of the chosen edges, sorted.
    pub edges: Vec<usize>,
}

/// Kruskal's algorithm with the sequential union-find: sort edges by
/// weight, take an edge iff its endpoints are in different sets.
pub fn kruskal(graph: &EdgeList) -> Msf {
    let mut order: Vec<usize> = (0..graph.len()).collect();
    order.sort_unstable_by_key(|&i| (graph.edges()[i].w, i));
    let mut dsu = SeqDsu::new(graph.n(), Linking::ByRank, Compaction::Halving);
    let mut chosen = Vec::new();
    let mut total = 0u64;
    for i in order {
        let e = graph.edges()[i];
        if e.u != e.v && dsu.unite(e.u, e.v) {
            chosen.push(i);
            total += e.w;
        }
    }
    chosen.sort_unstable();
    Msf { total_weight: total, edges: chosen }
}

/// Edges per chunk claimed from the scan cursor in Borůvka's phase 1 —
/// same dynamic-scheduling rationale as
/// [`components::DEFAULT_EDGE_CHUNK`](crate::components::DEFAULT_EDGE_CHUNK).
const SCAN_CHUNK: usize = 1024;

/// Parallel Borůvka on `threads` threads over the Jayanti–Tarjan structure.
///
/// Each round: (1) workers claim fixed-size edge chunks from a shared
/// cursor (dynamic scheduling, so a skewed edge order cannot serialize one
/// thread) and, for each edge whose endpoints are in different components,
/// `fetch_min` a packed `(weight, edge index)` into both components'
/// "cheapest outgoing" slots; (2) the chosen edges — deduplicated, since
/// both endpoints' components may pick the same edge — are united through
/// the batch API ([`Dsu::unite_batch_results`]), whose per-edge verdicts
/// say exactly which edges joined the forest. With distinct weights there
/// are `O(log n)` rounds and the result is the unique MSF.
///
/// # Panics
///
/// Panics if `threads == 0`, if any weight is `>= 2^40`, or if the graph
/// has `>= 2^24` edges (the packing limits; the experiments stay far
/// below both).
pub fn boruvka_parallel(graph: &EdgeList, threads: usize) -> Msf {
    assert!(threads > 0, "need at least one thread");
    assert!(graph.len() < (1 << 24), "too many edges for packed fetch_min");
    const W_SHIFT: u32 = 24;
    let n = graph.n();
    let edges = graph.edges();
    for e in edges {
        assert!(e.w < (1 << 40), "weight {} exceeds 40-bit packing", e.w);
    }
    let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
    let mut chosen: Vec<usize> = Vec::new();
    let mut total = 0u64;
    let cheapest: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    loop {
        // Phase 1: cheapest outgoing edge per current component, scanned in
        // dynamically claimed chunks.
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let dsu = &dsu;
                let cheapest = &cheapest;
                let cursor = &cursor;
                s.spawn(move || loop {
                    let start = cursor.fetch_add(SCAN_CHUNK, Ordering::Relaxed);
                    if start >= edges.len() {
                        break;
                    }
                    let end = (start + SCAN_CHUNK).min(edges.len());
                    for (off, e) in edges[start..end].iter().enumerate() {
                        if e.u != e.v {
                            let ru = dsu.find(e.u);
                            let rv = dsu.find(e.v);
                            if ru != rv {
                                let packed = (e.w << W_SHIFT) | (start + off) as u64;
                                cheapest[ru].fetch_min(packed, Ordering::Relaxed);
                                cheapest[rv].fetch_min(packed, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        // Phase 2 (coordinator): gather the round's candidate edges, then
        // unite them as one batch; the per-edge verdicts are the MSF
        // membership bits.
        let mut candidates: Vec<usize> = Vec::new();
        for slot in cheapest.iter() {
            let packed = slot.swap(u64::MAX, Ordering::Relaxed);
            if packed != u64::MAX {
                candidates.push((packed & ((1 << W_SHIFT) - 1)) as usize);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let pairs: Vec<(usize, usize)> =
            candidates.iter().map(|&i| (edges[i].u, edges[i].v)).collect();
        let linked = dsu.unite_batch_results(&pairs);
        let mut progressed = false;
        for (k, &i) in candidates.iter().enumerate() {
            if linked[k] {
                chosen.push(i);
                total += edges[i].w;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    chosen.sort_unstable();
    Msf { total_weight: total, edges: chosen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Brute force MSF by trying all spanning subsets — only for tiny n.
    fn brute_force_msf_weight(graph: &EdgeList) -> u64 {
        // Kruskal is itself textbook-correct; brute force double-checks it
        // on tiny graphs by enumerating subsets of edges.
        let m = graph.len();
        assert!(m <= 16);
        let target_components = {
            let labels = graph.to_csr().bfs_components();
            labels.iter().enumerate().filter(|&(v, &l)| v == l).count()
        };
        let mut best = u64::MAX;
        'subsets: for mask in 0u32..(1 << m) {
            let mut dsu = SeqDsu::new(graph.n(), Linking::BySize, Compaction::None);
            let mut weight = 0;
            let mut picked = 0;
            for i in 0..m {
                if mask & (1 << i) != 0 {
                    let e = graph.edges()[i];
                    if e.u == e.v || !dsu.unite(e.u, e.v) {
                        continue 'subsets; // cycle edge: never optimal
                    }
                    weight += e.w;
                    picked += 1;
                }
            }
            if dsu.set_count() == target_components && picked == graph.n() - target_components {
                best = best.min(weight);
            }
        }
        best
    }

    #[test]
    fn kruskal_matches_brute_force() {
        for seed in 0..6 {
            let g = gen::gnm(7, 12, seed);
            assert_eq!(kruskal(&g).total_weight, brute_force_msf_weight(&g), "seed {seed}");
        }
    }

    #[test]
    fn kruskal_on_disconnected_graph_builds_forest() {
        let mut g = EdgeList::new(6);
        g.push(0, 1, 5);
        g.push(1, 2, 3);
        g.push(0, 2, 9); // cycle edge, dropped
        g.push(3, 4, 1); // second component; 5 isolated
        let msf = kruskal(&g);
        assert_eq!(msf.total_weight, 9);
        assert_eq!(msf.edges, vec![0, 1, 3]);
    }

    #[test]
    fn boruvka_agrees_with_kruskal_exactly() {
        for seed in 0..5 {
            let g = gen::gnm(400, 1500, 50 + seed);
            let k = kruskal(&g);
            for threads in [1, 4, 8] {
                let b = boruvka_parallel(&g, threads);
                assert_eq!(b.total_weight, k.total_weight, "seed {seed} threads {threads}");
                assert_eq!(b.edges, k.edges, "unique MSF ⇒ identical edge sets");
            }
        }
    }

    #[test]
    fn boruvka_on_grid() {
        let g = gen::grid(12, 17, 4);
        let k = kruskal(&g);
        let b = boruvka_parallel(&g, 4);
        assert_eq!(b.total_weight, k.total_weight);
        // A connected graph's spanning tree has n - 1 edges.
        assert_eq!(b.edges.len(), g.n() - 1);
    }

    #[test]
    fn boruvka_on_disconnected_and_self_loops() {
        let mut g = EdgeList::new(5);
        g.push(0, 0, 7); // self loop ignored
        g.push(0, 1, 2);
        g.push(2, 3, 4);
        let b = boruvka_parallel(&g, 2);
        assert_eq!(b.total_weight, 6);
        assert_eq!(b.edges, vec![1, 2]);
    }

    #[test]
    fn empty_graph_msf() {
        let g = EdgeList::new(3);
        assert_eq!(kruskal(&g).total_weight, 0);
        assert_eq!(boruvka_parallel(&g, 2).total_weight, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn boruvka_zero_threads() {
        boruvka_parallel(&EdgeList::new(1), 0);
    }
}
