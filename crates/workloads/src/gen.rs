//! Seeded workload generators.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::op::{Op, Workload};
use crate::zipf::Zipf;

/// How operand elements are drawn from `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ElementDist {
    /// Uniformly at random.
    #[default]
    Uniform,
    /// Zipf with the given exponent: element 0 is the most popular. Skew
    /// concentrates contention on few elements (hot roots).
    Zipf(f64),
}

/// Draws operand pairs from `0..n` per an [`ElementDist`] — the sampling
/// core shared by [`WorkloadSpec`] and the batched edge generator
/// ([`EdgeBatchSpec`](crate::EdgeBatchSpec)).
pub(crate) struct PairSampler {
    n: usize,
    /// `None` for [`ElementDist::Uniform`].
    zipf: Option<Zipf>,
}

impl PairSampler {
    pub(crate) fn new(n: usize, dist: ElementDist) -> Self {
        let zipf = match dist {
            ElementDist::Uniform => None,
            ElementDist::Zipf(s) => Some(Zipf::new(n as u64, s)),
        };
        PairSampler { n, zipf }
    }

    pub(crate) fn draw(&self, rng: &mut ChaCha12Rng) -> (usize, usize) {
        match &self.zipf {
            None => (rng.gen_range(0..self.n), rng.gen_range(0..self.n)),
            // Zipf yields 1..=n; element k-1 gets mass k^(-s).
            Some(zipf) => ((zipf.sample(rng) - 1) as usize, (zipf.sample(rng) - 1) as usize),
        }
    }
}

/// A recipe for a random [`Workload`]: universe size, op count, unite
/// fraction, and operand distribution. Same spec + same seed = same trace.
///
/// # Example
///
/// ```
/// use dsu_workloads::{WorkloadSpec, ElementDist};
///
/// let w = WorkloadSpec::new(100, 1000)
///     .unite_fraction(0.5)
///     .element_dist(ElementDist::Zipf(1.1))
///     .generate(7);
/// assert_eq!(w.n, 100);
/// assert_eq!(w.len(), 1000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    n: usize,
    m: usize,
    unite_fraction: f64,
    dist: ElementDist,
}

impl WorkloadSpec {
    /// A spec for `m` operations over `0..n`; defaults: 50% unites,
    /// uniform operands.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` and `m > 0` (no elements to operate on).
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0 || m == 0, "cannot generate ops over an empty universe");
        WorkloadSpec { n, m, unite_fraction: 0.5, dist: ElementDist::Uniform }
    }

    /// Sets the fraction of operations that are unites (rest are
    /// same-sets).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn unite_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "unite fraction must be in [0, 1]");
        self.unite_fraction = f;
        self
    }

    /// Sets the operand distribution.
    pub fn element_dist(mut self, dist: ElementDist) -> Self {
        self.dist = dist;
        self
    }

    /// Universe size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Operation count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Materializes the trace for `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let sampler = PairSampler::new(self.n, self.dist);
        let mut ops = Vec::with_capacity(self.m);
        for _ in 0..self.m {
            let (x, y) = sampler.draw(&mut rng);
            let op =
                if rng.gen_bool(self.unite_fraction) { Op::Unite(x, y) } else { Op::SameSet(x, y) };
            ops.push(op);
        }
        Workload::new(self.n, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let spec = WorkloadSpec::new(64, 500).unite_fraction(0.3);
        assert_eq!(spec.generate(9), spec.generate(9));
        assert_ne!(spec.generate(9), spec.generate(10));
    }

    #[test]
    fn unite_fraction_is_respected() {
        let w = WorkloadSpec::new(100, 20_000).unite_fraction(0.25).generate(1);
        let f = w.unite_fraction();
        assert!((f - 0.25).abs() < 0.02, "fraction = {f}");
        let all = WorkloadSpec::new(10, 100).unite_fraction(1.0).generate(2);
        assert_eq!(all.unite_fraction(), 1.0);
        let none = WorkloadSpec::new(10, 100).unite_fraction(0.0).generate(3);
        assert_eq!(none.unite_fraction(), 0.0);
    }

    #[test]
    fn operands_in_range_for_all_dists() {
        for dist in [ElementDist::Uniform, ElementDist::Zipf(1.3)] {
            let w = WorkloadSpec::new(37, 2_000).element_dist(dist).generate(4);
            for op in &w.ops {
                let (x, y) = op.operands();
                assert!(x < 37 && y < 37, "{dist:?} emitted {op:?}");
            }
        }
    }

    #[test]
    fn zipf_dist_is_skewed() {
        let w = WorkloadSpec::new(1000, 30_000).element_dist(ElementDist::Zipf(1.5)).generate(5);
        let hits_0 = w.ops.iter().filter(|o| o.operands().0 == 0).count();
        let hits_500 = w.ops.iter().filter(|o| o.operands().0 == 500).count();
        assert!(hits_0 > 20 * (hits_500 + 1), "0:{hits_0} vs 500:{hits_500}");
    }

    #[test]
    fn empty_workload() {
        let w = WorkloadSpec::new(0, 0).generate(7);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn nonempty_ops_need_elements() {
        WorkloadSpec::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bad_fraction_rejected() {
        WorkloadSpec::new(4, 4).unite_fraction(1.5);
    }

    #[test]
    fn accessors() {
        let spec = WorkloadSpec::new(8, 16);
        assert_eq!(spec.n(), 8);
        assert_eq!(spec.m(), 16);
        assert_eq!(ElementDist::default(), ElementDist::Uniform);
    }
}
