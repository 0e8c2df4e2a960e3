//! A Zipf-distributed integer sampler.
//!
//! Skewed element popularity is the realistic regime for union-find
//! workloads (graph degrees, storage allocators, symbol tables), and it
//! maximizes contention on the high-degree elements — exactly where the
//! concurrent algorithm's CAS retries show up. We implement the
//! *rejection-inversion* sampler of Hörmann & Derflinger (1996): `O(1)`
//! expected time per sample, no `O(n)` tables, any exponent `s >= 0`.
//!
//! `P(X = k) ∝ k^(-s)` for `k ∈ 1..=n`; `s = 0` degenerates to the uniform
//! distribution and `s → ∞` to the point mass at 1.

use rand::Rng;

/// Rejection-inversion Zipf sampler over `1..=n` with exponent `s`.
///
/// # Example
///
/// ```
/// use dsu_workloads::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(100, 1.2);
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
/// let k = zipf.sample(&mut rng);
/// assert!((1..=100).contains(&k));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    /// Creates a sampler over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf requires a non-empty support");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be finite and >= 0");
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(n as f64 + 0.5, s);
        let threshold = 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s);
        Zipf { n, s, h_x1, h_n, threshold }
    }

    /// Number of support points.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws one value in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            // u is uniform in (h_x1, h_n]; note h_n < h_x1 numerically
            // because hIntegral is decreasing-ish in our parameterization —
            // follow the reference formulation exactly.
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            let k_int = k as u64;
            if k - x <= self.threshold || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k_int;
            }
        }
    }
}

/// `H(x) = ∫ t^(-s) dt`, normalized so the sampler's algebra works:
/// `(x^(1-s) - 1) / (1 - s)` for `s != 1`, `ln x` for `s = 1`, computed in
/// the numerically stable `helper * ln x` form.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^(-s)`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(x: f64, s: f64) -> f64 {
    let mut t = x * (1.0 - s);
    if t < -1.0 {
        // Numerical guard from the reference implementation.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `ln(1 + x) / x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn histogram(n: u64, s: f64, samples: usize, seed: u64) -> Vec<u64> {
        let zipf = Zipf::new(n, s);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..samples {
            let k = zipf.sample(&mut rng);
            counts[k as usize] += 1;
        }
        counts
    }

    #[test]
    fn support_is_respected() {
        let zipf = Zipf::new(10, 1.5);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=10).contains(&k));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let n = 16;
        let counts = histogram(n, 0.0, 160_000, 2);
        let expected = 160_000.0 / n as f64;
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let c = count as f64;
            assert!(
                (c - expected).abs() < 0.1 * expected,
                "count[{k}] = {c}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn frequencies_match_pmf_for_s1() {
        // s = 1 (the ln special case): compare empirical frequencies to the
        // normalized harmonic pmf within 10% on the popular values.
        let n = 50u64;
        let s = 1.0;
        let samples = 400_000;
        let counts = histogram(n, s, samples, 3);
        let z: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for k in 1..=5u64 {
            let expected = samples as f64 * (k as f64).powf(-s) / z;
            let got = counts[k as usize] as f64;
            assert!(
                (got - expected).abs() < 0.1 * expected,
                "k={k}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn frequencies_match_pmf_for_skewed() {
        let n = 100u64;
        let s = 1.7;
        let samples = 300_000;
        let counts = histogram(n, s, samples, 4);
        let z: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for k in [1u64, 2, 3, 10] {
            let expected = samples as f64 * (k as f64).powf(-s) / z;
            let got = counts[k as usize] as f64;
            assert!(
                (got - expected).abs() < 0.12 * expected + 30.0,
                "k={k}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn monotone_counts_under_skew() {
        let counts = histogram(32, 1.2, 100_000, 5);
        assert!(counts[1] > counts[4]);
        assert!(counts[4] > counts[16]);
    }

    #[test]
    fn single_point_support() {
        let zipf = Zipf::new(1, 2.0);
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 1);
        }
    }

    #[test]
    fn accessors() {
        let zipf = Zipf::new(9, 0.5);
        assert_eq!(zipf.n(), 9);
        assert_eq!(zipf.exponent(), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-empty support")]
    fn zero_support_rejected() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_exponent_rejected() {
        Zipf::new(5, -0.1);
    }

    #[test]
    fn helpers_are_stable_near_zero() {
        assert!((helper1(1e-12) - 1.0).abs() < 1e-9);
        assert!((helper2(1e-12) - 1.0).abs() < 1e-9);
        assert!((helper1(0.5) - (1.5f64.ln() / 0.5)).abs() < 1e-12);
        assert!((helper2(0.5) - (0.5f64.exp_m1() / 0.5)).abs() < 1e-12);
    }
}
