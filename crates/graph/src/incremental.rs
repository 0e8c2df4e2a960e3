//! On-line incremental connectivity over an edge stream — the "edge
//! insertions interleaved with connectivity queries" application from the
//! paper's introduction, plus cycle detection (an inserted edge closes a
//! cycle iff its endpoints were already connected), and a versioned
//! variant ([`VersionedConnectivity`]) whose edge bursts are speculative:
//! snapshot → ingest → validate → commit-or-rollback.

use concurrent_dsu::{
    BatchOutcome, Dsu, Epoch, EpochStore, GrowableDsu, TwoTrySplit, VersionedDsu,
};

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

    /// One sequential flatten sweep ([`Dsu::flatten`]): pointer-jumps the
    /// whole forest to depth ≤ 1, so a following query burst resolves
    /// every `connected` in O(1) loads per endpoint. Safe concurrently
    /// with ongoing inserts; call it at an ingest→query phase boundary.
    pub fn flatten(&self) {
        self.dsu.flatten();
    }

    /// [`flatten`](IncrementalConnectivity::flatten) fanned over
    /// `threads` workers ([`Dsu::flatten_parallel`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn flatten_parallel(&self, threads: usize) {
        self.dsu.flatten_parallel(threads);
    }
}

/// [`IncrementalConnectivity`] over the epoch-versioned structure
/// ([`VersionedDsu`]): same concurrent insert/query surface, plus O(1)
/// snapshots, rollback, time-travel queries, and **speculative bursts** —
/// ingest a batch, validate the resulting connectivity, and either keep it
/// or roll the whole burst back bit-identically. The tool for untrusted
/// edge streams: a poisoned burst (corrupt upstream, failed downstream
/// validation, chaos-injected abort) never contaminates the index.
///
/// Concurrent methods take `&self` exactly like
/// [`IncrementalConnectivity`]'s; version transitions take `&mut self`
/// (quiescence, compiler-enforced — see `concurrent_dsu::epoch`).
///
/// # Example
///
/// ```
/// use dsu_graph::incremental::VersionedConnectivity;
/// use concurrent_dsu::BatchOutcome;
///
/// let mut conn = VersionedConnectivity::new(6);
/// conn.insert(0, 1);
///
/// // A burst that would merge everything is rejected by the validator
/// // and rolls back completely…
/// let outcome = conn.try_insert_batch(
///     &[(1, 2), (2, 3), (3, 4), (4, 5)],
///     |view, _forest_edges| view.component_count() > 2,
/// );
/// assert_eq!(outcome, BatchOutcome::RolledBack);
/// assert!(!conn.connected(1, 2));
///
/// // …while an accepted burst commits.
/// let outcome = conn.try_insert_batch(&[(1, 2)], |view, _| view.connected(0, 2));
/// assert!(outcome.is_committed());
/// assert!(conn.connected(0, 2));
/// ```
#[derive(Debug)]
pub struct VersionedConnectivity {
    dsu: VersionedDsu<TwoTrySplit, EpochStore>,
}

impl VersionedConnectivity {
    /// `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        VersionedConnectivity { dsu: VersionedDsu::with_initial(n) }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.dsu.len()
    }

    /// `true` if the vertex set is empty.
    pub fn is_empty(&self) -> bool {
        self.dsu.is_empty()
    }

    /// See [`IncrementalConnectivity::insert`].
    pub fn insert(&self, x: usize, y: usize) -> bool {
        self.dsu.unite(x, y)
    }

    /// See [`IncrementalConnectivity::insert_batch`].
    pub fn insert_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.dsu.unite_batch(edges)
    }

    /// See [`IncrementalConnectivity::connected`].
    pub fn connected(&self, x: usize, y: usize) -> bool {
        self.dsu.same_set(x, y)
    }

    /// Current number of connected components.
    pub fn component_count(&self) -> usize {
        self.dsu.set_count()
    }

    /// Records an O(1) snapshot of the current connectivity.
    pub fn snapshot(&mut self) -> Epoch {
        self.dsu.snapshot()
    }

    /// Restores the connectivity recorded at `at`, discarding every edge
    /// inserted since (and any later snapshots).
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped or already rolled past.
    pub fn rollback(&mut self, at: Epoch) {
        self.dsu.rollback(at)
    }

    /// Forgets snapshot `at`, releasing its retained segments.
    pub fn drop_snapshot(&mut self, at: Epoch) {
        self.dsu.drop_snapshot(at)
    }

    /// `true` iff `x` and `y` were connected at snapshot `at` — the
    /// time-travel query ("were these hosts in the same partition before
    /// last night's ingest?"). Safe concurrently with ongoing inserts.
    ///
    /// # Panics
    ///
    /// Panics if `at` was dropped/rolled past or a vertex did not exist at
    /// `at`.
    pub fn connected_at(&self, at: Epoch, x: usize, y: usize) -> bool {
        self.dsu.same_set_at(at, x, y)
    }

    /// Speculative burst: snapshot, ingest `edges`, hand the post-ingest
    /// connectivity (as a read-only [`ConnectivityView`]) plus the
    /// forest-edge count to `validate`, then commit or roll back
    /// bit-identically. The snapshot is released either way.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range — before any state changes.
    pub fn try_insert_batch<V>(&mut self, edges: &[(usize, usize)], validate: V) -> BatchOutcome
    where
        V: FnOnce(&ConnectivityView<'_>, usize) -> bool,
    {
        self.dsu.try_unite_batch(edges, |dsu, forest_edges| {
            validate(&ConnectivityView { dsu }, forest_edges)
        })
    }

    /// Lifetime counters `(snapshots_taken, rollbacks)`.
    pub fn version_counters(&self) -> (u64, u64) {
        (self.dsu.snapshots_taken(), self.dsu.rollbacks())
    }

    /// The wrapped versioned structure, for the full epoch surface
    /// (auto-snapshot policy, stats reporting, raw store access).
    pub fn dsu(&self) -> &VersionedDsu<TwoTrySplit, EpochStore> {
        &self.dsu
    }

    /// Exclusive access to the wrapped structure (epoch transitions).
    pub fn dsu_mut(&mut self) -> &mut VersionedDsu<TwoTrySplit, EpochStore> {
        &mut self.dsu
    }
}

/// The read-only connectivity a [`VersionedConnectivity::try_insert_batch`]
/// validator sees: the post-ingest state, before the commit/rollback
/// decision.
pub struct ConnectivityView<'a> {
    dsu: &'a GrowableDsu<TwoTrySplit, EpochStore>,
}

impl ConnectivityView<'_> {
    /// `true` iff `x` and `y` are connected in the speculative state.
    pub fn connected(&self, x: usize, y: usize) -> bool {
        self.dsu.same_set(x, y)
    }

    /// Component count of the speculative state.
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
    fn flatten_preserves_connectivity() {
        let n = 512;
        let conn = IncrementalConnectivity::new(n);
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        conn.insert_batch(&edges);
        conn.flatten();
        assert!(conn.connected(0, n - 1));
        assert_eq!(conn.component_count(), 1);

        // A sweep racing ongoing inserts must not change any verdict.
        let racy = IncrementalConnectivity::new(n);
        std::thread::scope(|s| {
            let c = &racy;
            s.spawn(move || {
                for &(x, y) in &edges {
                    c.insert(x, y);
                }
            });
            s.spawn(move || {
                for _ in 0..8 {
                    c.flatten_parallel(2);
                }
            });
        });
        assert_eq!(racy.component_count(), 1);
        assert!(racy.connected(0, n - 1));
    }

    #[test]
    fn versioned_speculative_bursts_commit_or_vanish() {
        let mut conn = VersionedConnectivity::new(100);
        let good: Vec<(usize, usize)> = (0..49).map(|i| (i, i + 1)).collect();
        // Poisoned burst: connects the two halves the validator insists
        // stay separate.
        let mut poisoned: Vec<(usize, usize)> = (50..99).map(|i| (i, i + 1)).collect();
        poisoned.push((0, 99));

        assert!(conn.try_insert_batch(&good, |v, _| !v.connected(0, 99)).is_committed());
        assert_eq!(
            conn.try_insert_batch(&poisoned, |v, _| !v.connected(0, 99)),
            BatchOutcome::RolledBack
        );
        // The committed burst survives; the poisoned one vanished whole —
        // including its innocent-looking edges.
        assert!(conn.connected(0, 49));
        assert!(!conn.connected(50, 51));
        assert!(!conn.connected(0, 99));
        assert_eq!(conn.component_count(), 51);
        assert_eq!(conn.version_counters(), (2, 1));
    }

    #[test]
    fn versioned_time_travel_and_rollback() {
        let mut conn = VersionedConnectivity::new(8);
        conn.insert(0, 1);
        let before = conn.snapshot();
        conn.insert_batch(&[(1, 2), (3, 4)]);
        assert!(conn.connected(0, 2));
        assert!(!conn.connected_at(before, 0, 2), "0-2 joined after the snapshot");
        assert!(conn.connected_at(before, 0, 1));
        conn.rollback(before);
        assert!(!conn.connected(0, 2));
        assert!(!conn.connected(3, 4));
        assert!(conn.connected(0, 1));
        conn.drop_snapshot(before);
    }

    #[test]
    fn versioned_matches_plain_on_committed_history() {
        // Interleave committed bursts with rejected ones: the versioned
        // index must agree with a plain index fed only the committed edges.
        let mut versioned = VersionedConnectivity::new(64);
        let plain = IncrementalConnectivity::new(64);
        for round in 0..10u64 {
            let burst: Vec<(usize, usize)> = (0..12)
                .map(|i| {
                    let r = concurrent_dsu::order::splitmix64(round * 64 + i);
                    ((r as usize) % 64, ((r >> 32) as usize) % 64)
                })
                .collect();
            let accept = round % 3 != 0;
            let outcome = versioned.try_insert_batch(&burst, |_, _| accept);
            assert_eq!(outcome.is_committed(), accept);
            if accept {
                plain.insert_batch(&burst);
            }
        }
        assert_eq!(versioned.component_count(), plain.component_count());
        for x in 0..64 {
            for y in (x + 1)..64 {
                assert_eq!(versioned.connected(x, y), plain.connected(x, y), "({x},{y})");
            }
        }
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
