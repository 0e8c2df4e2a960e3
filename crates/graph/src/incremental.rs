//! On-line incremental connectivity over an edge stream — the "edge
//! insertions interleaved with connectivity queries" application from the
//! paper's introduction, plus cycle detection (an inserted edge closes a
//! cycle iff its endpoints were already connected).

use concurrent_dsu::{Dsu, TwoTrySplit};

/// A connectivity index over `0..n` maintained under concurrent edge
/// insertions and queries, backed by the Jayanti–Tarjan structure.
///
/// All methods take `&self` and are safe to call from many threads; both
/// operations are linearizable, so a `connected(x, y) == true` observed by
/// any thread is permanent.
///
/// # Example
///
/// ```
/// use dsu_graph::incremental::IncrementalConnectivity;
///
/// let conn = IncrementalConnectivity::new(4);
/// assert!(!conn.connected(0, 3));
/// assert!(conn.insert(0, 1)); // tree edge
/// assert!(conn.insert(1, 3)); // tree edge
/// assert!(conn.connected(0, 3));
/// assert!(!conn.insert(0, 3)); // closes a cycle
/// ```
#[derive(Debug)]
pub struct IncrementalConnectivity {
    dsu: Dsu<TwoTrySplit>,
}

impl IncrementalConnectivity {
    /// `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        IncrementalConnectivity { dsu: Dsu::new(n) }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.dsu.len()
    }

    /// `true` if the vertex set is empty.
    pub fn is_empty(&self) -> bool {
        self.dsu.is_empty()
    }

    /// Inserts edge `(x, y)`. Returns `true` if it joined two components (a
    /// spanning-forest edge), `false` if it closed a cycle.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn insert(&self, x: usize, y: usize) -> bool {
        self.dsu.unite(x, y)
    }

    /// Inserts a burst of edges through the batched ingestion path
    /// (`concurrent_dsu::bulk`): already-connected edges are dropped by a
    /// read-mostly same-set filter before any link CAS. Returns the number
    /// of spanning-forest edges the burst contributed.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn insert_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.dsu.unite_batch(edges)
    }

    /// [`insert_batch`](IncrementalConnectivity::insert_batch) that also
    /// reports, per edge, whether it was a forest edge (`true`) or closed a
    /// cycle (`false`).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn insert_batch_results(&self, edges: &[(usize, usize)]) -> Vec<bool> {
        self.dsu.unite_batch_results(edges)
    }

    /// `true` iff `x` and `y` are currently connected.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn connected(&self, x: usize, y: usize) -> bool {
        self.dsu.same_set(x, y)
    }

    /// Current number of connected components.
    pub fn component_count(&self) -> usize {
        self.dsu.set_count()
    }
}

/// Streams `edges` into a fresh index as one batch and returns
/// `(forest_edges, cycle_edges)`. For any graph,
/// `cycle_edges = m - n + components` — the classic circuit-rank identity
/// the tests verify. Self-loops filter out as cycles (the batch path's
/// same-set read is trivially true for them).
pub fn classify_edges(n: usize, edges: &[(usize, usize)]) -> (usize, usize) {
    let conn = IncrementalConnectivity::new(n);
    let forest = conn.insert_batch(edges);
    (forest, edges.len() - forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn insert_and_query() {
        let conn = IncrementalConnectivity::new(5);
        assert_eq!(conn.len(), 5);
        assert!(!conn.is_empty());
        assert_eq!(conn.component_count(), 5);
        assert!(conn.insert(0, 1));
        assert!(conn.insert(2, 3));
        assert!(!conn.connected(1, 2));
        assert!(conn.insert(1, 2));
        assert!(conn.connected(0, 3));
        assert!(!conn.insert(0, 3));
        assert_eq!(conn.component_count(), 2);
    }

    #[test]
    fn circuit_rank_identity() {
        for seed in 0..4 {
            let g = gen::gnm(200, 500, seed);
            let pairs: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
            let (forest, cycles) = classify_edges(200, &pairs);
            let labels = g.to_csr().bfs_components();
            let comps = labels.iter().enumerate().filter(|&(v, &l)| v == l).count();
            assert_eq!(forest, 200 - comps, "forest edges = n - c");
            assert_eq!(cycles, 500 - forest, "cycle edges = m - (n - c)");
        }
    }

    #[test]
    fn self_loops_count_as_cycles() {
        let (forest, cycles) = classify_edges(3, &[(0, 0), (0, 1)]);
        assert_eq!((forest, cycles), (1, 1));
    }

    #[test]
    fn insert_batch_matches_per_edge_inserts() {
        let batched = IncrementalConnectivity::new(64);
        let per_op = IncrementalConnectivity::new(64);
        let edges: Vec<(usize, usize)> =
            (0..200).map(|i| ((i * 37) % 64, (i * 11 + 5) % 64)).collect();
        let results = batched.insert_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.insert(x, y)).collect();
        assert_eq!(results, expected);
        assert_eq!(batched.component_count(), per_op.component_count());
        assert_eq!(
            batched.insert_batch(&edges),
            0,
            "re-inserting the same burst adds no forest edges"
        );
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        let n = 1000;
        let conn = IncrementalConnectivity::new(n);
        std::thread::scope(|s| {
            // Writers insert a path; readers poll connectivity.
            for t in 0..4 {
                let conn = &conn;
                s.spawn(move || {
                    for i in (t..n - 1).step_by(4) {
                        conn.insert(i, i + 1);
                    }
                });
            }
            for _ in 0..4 {
                let conn = &conn;
                s.spawn(move || {
                    let mut trues = 0;
                    for i in 0..n - 1 {
                        if conn.connected(i, i + 1) {
                            trues += 1;
                        }
                    }
                    trues
                });
            }
        });
        assert!(conn.connected(0, n - 1));
        assert_eq!(conn.component_count(), 1);
    }
}
