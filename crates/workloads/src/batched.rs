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
/// burst size, endpoint distribution, intra-burst endpoint re-hits, and
/// exact-duplicate injection. Same spec + same seed = same trace.
///
/// # Example
///
/// ```
/// use dsu_workloads::{EdgeBatchSpec, ElementDist};
///
/// let arrivals = EdgeBatchSpec::new(1000, 16, 64)
///     .element_dist(ElementDist::Zipf(1.0))
///     .repeat_within_burst(0.3)
///     .duplicate_fraction(0.2)
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
    repeat: f64,
    duplicate: f64,
}

impl EdgeBatchSpec {
    /// A spec for `batches` bursts of `batch_size` edges each over `0..n`;
    /// endpoints default to uniform with no intra-burst re-hits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` while the spec would generate edges.
    pub fn new(n: usize, batches: usize, batch_size: usize) -> Self {
        assert!(n > 0 || batches * batch_size == 0, "cannot generate edges over an empty universe");
        EdgeBatchSpec {
            n,
            batches,
            batch_size,
            dist: ElementDist::Uniform,
            repeat: 0.0,
            duplicate: 0.0,
        }
    }

    /// Sets the endpoint distribution.
    pub fn element_dist(mut self, dist: ElementDist) -> Self {
        self.dist = dist;
        self
    }

    /// Sets the intra-burst re-hit probability: each endpoint is, with
    /// probability `p`, replaced by a uniformly chosen endpoint that
    /// already appeared *earlier in the same burst* (the first edge of a
    /// burst is always fresh). This is the temporal-locality axis the
    /// element distribution cannot express — real bursts (a crawler
    /// frontier, a log segment) revisit the entities they just touched:
    /// at `p = 0` every endpoint is an independent draw, at `p → 1` a
    /// burst hammers a handful of endpoints.
    ///
    /// `p = 0.0` (the default) leaves the generated stream byte-identical
    /// to specs predating this knob.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn repeat_within_burst(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "re-hit probability must be in [0, 1]");
        self.repeat = p;
        self
    }

    /// Sets the exact-duplicate injection probability: each edge after the
    /// first of a burst is, with probability `p`, replaced *wholesale* by
    /// a copy of a uniformly chosen earlier edge of the same burst. Where
    /// [`repeat_within_burst`](EdgeBatchSpec::repeat_within_burst) re-hits
    /// individual *endpoints*, this knob manufactures byte-identical
    /// *pairs* — so the cost of redundant edges can be measured
    /// independently of Zipf skew (Zipf streams produce duplicates only as
    /// a side effect of endpoint popularity).
    ///
    /// `p = 0.0` (the default) leaves the generated stream byte-identical
    /// to specs predating this knob.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn duplicate_fraction(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate fraction must be in [0, 1]");
        self.duplicate = p;
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
        use rand::Rng;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let sampler = PairSampler::new(self.n, self.dist);
        let mut seen: Vec<usize> = Vec::with_capacity(2 * self.batch_size);
        let mut edges_so_far: Vec<(usize, usize)> = Vec::with_capacity(self.batch_size);
        let batches = (0..self.batches)
            .map(|_| {
                seen.clear();
                edges_so_far.clear();
                (0..self.batch_size)
                    .map(|_| {
                        let (mut x, mut y) = sampler.draw(&mut rng);
                        // Intra-burst re-hits: the `repeat == 0.0` guard
                        // keeps the RNG stream (and thus every pre-knob
                        // trace) byte-identical when the knob is unset.
                        if self.repeat > 0.0 && !seen.is_empty() {
                            if rng.gen_bool(self.repeat) {
                                x = seen[rng.gen_range(0..seen.len())];
                            }
                            if rng.gen_bool(self.repeat) {
                                y = seen[rng.gen_range(0..seen.len())];
                            }
                        }
                        // Exact-duplicate injection replaces the whole
                        // edge; same `== 0.0` byte-identity guard.
                        if self.duplicate > 0.0
                            && !edges_so_far.is_empty()
                            && rng.gen_bool(self.duplicate)
                        {
                            (x, y) = edges_so_far[rng.gen_range(0..edges_so_far.len())];
                        }
                        seen.push(x);
                        seen.push(y);
                        edges_so_far.push((x, y));
                        (x, y)
                    })
                    .collect()
            })
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
        for dist in [ElementDist::Uniform, ElementDist::Zipf(1.2), ElementDist::Locality(8)] {
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
    fn repeat_knob_rehits_within_bursts_only() {
        let spec = EdgeBatchSpec::new(100_000, 10, 200).repeat_within_burst(1.0);
        let a = spec.generate(4);
        assert_eq!(a, spec.generate(4), "deterministic under the knob");
        for burst in &a.batches {
            // With p = 1.0 every endpoint after the first edge re-hits an
            // earlier one: each burst touches exactly the two endpoints of
            // its opening edge (drawn uniformly over a huge universe, so a
            // fresh draw colliding by chance is essentially impossible).
            let mut distinct: Vec<usize> = burst.iter().flat_map(|&(x, y)| [x, y]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() <= 2, "burst leaked fresh endpoints: {distinct:?}");
        }
        // Bursts are independent: consecutive bursts (almost surely) pick
        // different hot pairs.
        assert_ne!(a.batches[0][0], a.batches[1][0]);
    }

    #[test]
    fn zero_repeat_is_byte_identical_to_unset() {
        let base = EdgeBatchSpec::new(500, 6, 40).element_dist(ElementDist::Zipf(1.1));
        assert_eq!(base.generate(9), base.repeat_within_burst(0.0).generate(9));
    }

    #[test]
    fn duplicate_knob_injects_exact_copies_within_bursts() {
        let spec = EdgeBatchSpec::new(100_000, 8, 150).duplicate_fraction(0.5);
        let a = spec.generate(11);
        assert_eq!(a, spec.generate(11), "deterministic under the knob");
        let mut injected = 0usize;
        for burst in &a.batches {
            let mut seen_pairs: Vec<(usize, usize)> = Vec::new();
            for &e in burst {
                if seen_pairs.contains(&e) {
                    injected += 1;
                }
                seen_pairs.push(e);
            }
        }
        // p = 0.5 over 8 bursts x 149 eligible edges: duplicates abound
        // (a fresh uniform pair over 10^5 elements colliding by chance is
        // essentially impossible, so every duplicate is an injected one).
        assert!(injected > 300, "only {injected} duplicates injected");
    }

    #[test]
    fn duplicate_one_makes_each_burst_a_single_edge() {
        let a = EdgeBatchSpec::new(100_000, 5, 60).duplicate_fraction(1.0).generate(3);
        for burst in &a.batches {
            assert!(burst.iter().all(|&e| e == burst[0]), "burst leaked a fresh edge: {burst:?}");
        }
        // Bursts are independent: consecutive bursts pick different edges.
        assert_ne!(a.batches[0][0], a.batches[1][0]);
    }

    #[test]
    fn zero_duplicate_is_byte_identical_to_unset() {
        let base = EdgeBatchSpec::new(500, 6, 40)
            .element_dist(ElementDist::Zipf(1.1))
            .repeat_within_burst(0.25);
        assert_eq!(base.generate(9), base.duplicate_fraction(0.0).generate(9));
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bad_duplicate_rejected() {
        EdgeBatchSpec::new(10, 1, 1).duplicate_fraction(-0.1);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bad_repeat_rejected() {
        EdgeBatchSpec::new(10, 1, 1).repeat_within_burst(1.5);
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
