//! Batched edge arrivals: the ingestion-shaped workload.
//!
//! Streaming-graph systems rarely see one edge at a time — edges land in
//! bursts (a log segment, a network buffer, a crawler frontier), and each
//! burst is ingested as a unit. This module generates that shape for the
//! batch-vs-per-op experiments: a sequence of fixed-size edge bursts over
//! `0..n`, with endpoints drawn uniformly or Zipf-skewed (skew concentrates
//! bursts on hub vertices, the regime where early same-set filtering and
//! dynamic chunk scheduling matter most).

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::gen::{ElementDist, PairSampler};

/// A recipe for a batched edge-arrival trace: universe size, burst count,
/// burst size and endpoint distribution. Same spec + same seed = same
/// trace.
///
/// # Example
///
/// ```
/// use dsu_workloads::{EdgeBatchSpec, ElementDist};
///
/// let arrivals = EdgeBatchSpec::new(1000, 16, 64)
///     .element_dist(ElementDist::Zipf(1.0))
///     .generate(7);
/// assert_eq!(arrivals.batches.len(), 16);
/// assert_eq!(arrivals.total_edges(), 16 * 64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EdgeBatchSpec {
    n: usize,
    batches: usize,
    batch_size: usize,
    dist: ElementDist,
}

impl EdgeBatchSpec {
    /// A spec for `batches` bursts of `batch_size` edges each over `0..n`;
    /// endpoints default to uniform.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` while the spec would generate edges.
    pub fn new(n: usize, batches: usize, batch_size: usize) -> Self {
        assert!(n > 0 || batches * batch_size == 0, "cannot generate edges over an empty universe");
        EdgeBatchSpec { n, batches, batch_size, dist: ElementDist::Uniform }
    }

    /// Sets the endpoint distribution.
    pub fn element_dist(mut self, dist: ElementDist) -> Self {
        self.dist = dist;
        self
    }

    /// Universe size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of bursts.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Edges per burst.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Materializes the arrival trace for `seed`.
    pub fn generate(&self, seed: u64) -> EdgeBatches {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let sampler = PairSampler::new(self.n, self.dist);
        let batches = (0..self.batches)
            .map(|_| (0..self.batch_size).map(|_| sampler.draw(&mut rng)).collect())
            .collect();
        EdgeBatches { n: self.n, batches }
    }
}

/// A materialized batched edge-arrival trace: bursts of endpoint pairs
/// over the universe `0..n`, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeBatches {
    /// Universe size; all endpoints are `< n`.
    pub n: usize,
    /// The bursts, in arrival order.
    pub batches: Vec<Vec<(usize, usize)>>,
}

impl EdgeBatches {
    /// Total number of edges across all bursts.
    pub fn total_edges(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// `true` if the trace carries no edges.
    pub fn is_empty(&self) -> bool {
        self.total_edges() == 0
    }

    /// All edges in arrival order, burst structure flattened away — the
    /// input shape of the per-op ingestion baseline.
    pub fn flatten(&self) -> Vec<(usize, usize)> {
        self.batches.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_shape() {
        let spec = EdgeBatchSpec::new(100, 8, 32);
        let a = spec.generate(5);
        assert_eq!(a, spec.generate(5));
        assert_ne!(a, spec.generate(6));
        assert_eq!(a.batches.len(), 8);
        assert!(a.batches.iter().all(|b| b.len() == 32));
        assert_eq!(a.total_edges(), 256);
        assert_eq!(a.flatten().len(), 256);
        assert!(!a.is_empty());
    }

    #[test]
    fn endpoints_in_range_for_all_dists() {
        for dist in [ElementDist::Uniform, ElementDist::Zipf(1.2)] {
            let a = EdgeBatchSpec::new(41, 6, 50).element_dist(dist).generate(3);
            for &(x, y) in &a.flatten() {
                assert!(x < 41 && y < 41, "{dist:?} emitted ({x}, {y})");
            }
        }
    }

    #[test]
    fn zipf_bursts_are_skewed() {
        let a = EdgeBatchSpec::new(1000, 30, 1000).element_dist(ElementDist::Zipf(1.5)).generate(9);
        let edges = a.flatten();
        let hits_0 = edges.iter().filter(|&&(x, _)| x == 0).count();
        let hits_500 = edges.iter().filter(|&&(x, _)| x == 500).count();
        assert!(hits_0 > 20 * (hits_500 + 1), "0:{hits_0} vs 500:{hits_500}");
    }

    #[test]
    fn flatten_preserves_arrival_order() {
        let a = EdgeBatchSpec::new(10, 3, 2).generate(1);
        let flat = a.flatten();
        assert_eq!(&flat[0..2], &a.batches[0][..]);
        assert_eq!(&flat[2..4], &a.batches[1][..]);
        assert_eq!(&flat[4..6], &a.batches[2][..]);
    }

    #[test]
    fn empty_trace() {
        let a = EdgeBatchSpec::new(0, 0, 0).generate(2);
        assert!(a.is_empty());
        let b = EdgeBatchSpec::new(5, 0, 64).generate(2);
        assert!(b.is_empty() && b.batches.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn nonempty_edges_need_elements() {
        EdgeBatchSpec::new(0, 2, 2);
    }

    #[test]
    fn accessors() {
        let spec = EdgeBatchSpec::new(8, 4, 16);
        assert_eq!(spec.n(), 8);
        assert_eq!(spec.batches(), 4);
        assert_eq!(spec.batch_size(), 16);
    }
}
