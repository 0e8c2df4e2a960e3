//! Keyed workload generation: the entity-resolution-shaped traces.
//!
//! The array workloads draw operands from a dense, pre-sized `0..n` — the
//! shape of the paper's experiments, but not of any production consumer.
//! Real dedup/ER traffic arrives as **keys**: record ids, e-mail strings,
//! sparse 64-bit hashes, with no universe size known up front and a
//! constant trickle of never-seen keys (insert-heavy churn). This module
//! generates that shape for the `KeyedDsu` experiments along the three
//! axes the array generators cannot express:
//!
//! * **string keys** — heap-allocated, hash-cost-bearing operands
//!   ([`KeyedWorkload::into_strings`]);
//! * **sparse u64 universes** — 64-bit keys scattered over the whole word
//!   range, so no dense array could hold them
//!   ([`KeyedWorkload::into_sparse_u64`]);
//! * **insert-heavy churn** — a tunable fraction of operands are keys the
//!   trace has never mentioned before ([`KeyedSpec::fresh_fraction`]),
//!   optionally with revisits biased to recently introduced keys
//!   ([`KeyedSpec::revisit_window`]) the way a crawler frontier or log
//!   segment revisits what it just touched.
//!
//! Generation is two-phase: [`KeyedSpec::generate`] produces a trace over
//! **dense key indices** (index `k` = the `k`-th distinct key the trace
//! introduces), and the `into_*` adapters materialize those indices as
//! concrete key types. The index trace is the oracle-friendly form — tests
//! replay it against a `HashMap`-backed sequential oracle — and one spec +
//! seed yields byte-identical traces across all key materializations.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// One keyed operation over keys of type `K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyedOp<K> {
    /// Unite the sets of the two keys, inserting unseen keys first.
    Merge(K, K),
    /// Query whether the two keys share a set (never inserts).
    SameSet(K, K),
}

impl<K> KeyedOp<K> {
    /// Both operand keys, in order.
    pub fn keys(&self) -> (&K, &K) {
        match self {
            KeyedOp::Merge(a, b) | KeyedOp::SameSet(a, b) => (a, b),
        }
    }

    /// `true` for [`Merge`](KeyedOp::Merge).
    pub fn is_merge(&self) -> bool {
        matches!(self, KeyedOp::Merge(..))
    }

    /// The same operation with both keys rebuilt by `f`.
    pub fn map<T>(&self, mut f: impl FnMut(&K) -> T) -> KeyedOp<T> {
        match self {
            KeyedOp::Merge(a, b) => KeyedOp::Merge(f(a), f(b)),
            KeyedOp::SameSet(a, b) => KeyedOp::SameSet(f(a), f(b)),
        }
    }
}

/// A keyed operation trace plus the number of distinct keys it mentions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedWorkload<K> {
    /// The operations, in arrival order.
    pub ops: Vec<KeyedOp<K>>,
    /// Distinct keys mentioned anywhere in the trace (merge or query).
    pub distinct_keys: usize,
}

impl<K> KeyedWorkload<K> {
    /// Operation count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the trace has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Fraction of operations that are merges.
    pub fn merge_fraction(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| o.is_merge()).count() as f64 / self.ops.len() as f64
    }

    /// Deals the trace round-robin across `p` workers (op `i` to worker
    /// `i % p`), preserving each worker's arrival order — the same
    /// dealing the array [`Workload::shard`](crate::Workload::shard) uses,
    /// so threaded keyed and array experiments split work identically.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn shard(&self, p: usize) -> Vec<Vec<KeyedOp<K>>>
    where
        K: Clone,
    {
        assert!(p > 0, "cannot shard across zero workers");
        let mut shards: Vec<Vec<KeyedOp<K>>> = (0..p).map(|_| Vec::new()).collect();
        for (i, op) in self.ops.iter().enumerate() {
            shards[i % p].push(op.clone());
        }
        shards
    }

    /// The same trace with every key rebuilt by `f` (must be injective, or
    /// distinct indices would collapse into one key).
    pub fn map_keys<T>(&self, mut f: impl FnMut(&K) -> T) -> KeyedWorkload<T> {
        KeyedWorkload {
            ops: self.ops.iter().map(|op| op.map(&mut f)).collect(),
            distinct_keys: self.distinct_keys,
        }
    }
}

impl KeyedWorkload<usize> {
    /// Materializes the index trace over a **sparse 64-bit universe**:
    /// index `k` becomes `splitmix(salt, k)`, scattering keys across the
    /// whole `u64` range (splitmix64 is a bijection, so distinct indices
    /// stay distinct).
    pub fn into_sparse_u64(&self, salt: u64) -> KeyedWorkload<u64> {
        self.map_keys(|&k| mix(salt, k as u64))
    }

    /// Materializes the index trace as **string keys**: index `k` becomes
    /// `"{prefix}-{hex of splitmix(salt, k)}"` — distinct, realistic-length
    /// identifiers whose hashing cost the dense trace never pays.
    pub fn into_strings(&self, prefix: &str, salt: u64) -> KeyedWorkload<String> {
        self.map_keys(|&k| format!("{prefix}-{:016x}", mix(salt, k as u64)))
    }
}

/// splitmix64 keyed by a salt — the key materializers' index scrambler.
fn mix(salt: u64, k: u64) -> u64 {
    let mut z = salt.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A recipe for a keyed trace: op count, merge : query mix, churn rate,
/// and revisit recency. Same spec + same seed = same trace.
///
/// # Example
///
/// ```
/// use dsu_workloads::KeyedSpec;
///
/// let trace = KeyedSpec::new(10_000)
///     .merge_fraction(0.7)
///     .fresh_fraction(0.4)
///     .revisit_window(256)
///     .generate(7);
/// assert_eq!(trace.len(), 10_000);
/// let strings = trace.into_strings("user", 7);
/// let sparse = trace.into_sparse_u64(7);
/// assert_eq!(strings.distinct_keys, sparse.distinct_keys);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeyedSpec {
    m: usize,
    merge_fraction: f64,
    fresh_fraction: f64,
    revisit_window: Option<usize>,
}

impl KeyedSpec {
    /// A spec for `m` keyed operations; defaults: 70% merges (ingest-heavy,
    /// the ER shape), 50% fresh operands, revisits uniform over everything
    /// seen.
    pub fn new(m: usize) -> Self {
        KeyedSpec { m, merge_fraction: 0.7, fresh_fraction: 0.5, revisit_window: None }
    }

    /// Sets the fraction of operations that are merges (rest are same-set
    /// queries).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn merge_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "merge fraction must be in [0, 1]");
        self.merge_fraction = f;
        self
    }

    /// Sets the churn rate: the probability that each operand is a
    /// **never-seen key** rather than a revisit. `1.0` is pure insert
    /// churn (every operand fresh — the id table's claim path on every
    /// touch); `0.0` revisits a single key forever. The first operand of a
    /// trace is always fresh.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn fresh_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fresh fraction must be in [0, 1]");
        self.fresh_fraction = f;
        self
    }

    /// Restricts revisits to the `w` most recently introduced keys —
    /// temporal locality: a log segment or crawler frontier mostly
    /// re-mentions what it just introduced. `None` (the default) revisits
    /// uniformly over every key seen so far; `w = 0` is treated as `1`.
    pub fn revisit_window(mut self, w: usize) -> Self {
        self.revisit_window = Some(w.max(1));
        self
    }

    /// Materializes the dense-index trace for `seed` (see the module docs
    /// for the two-phase scheme).
    pub fn generate(&self, seed: u64) -> KeyedWorkload<usize> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut seen = 0usize;
        let draw = |rng: &mut ChaCha12Rng, seen: &mut usize| {
            if *seen == 0 || rng.gen_bool(self.fresh_fraction) {
                let k = *seen;
                *seen += 1;
                return k;
            }
            match self.revisit_window {
                Some(w) => {
                    let lo = seen.saturating_sub(w);
                    rng.gen_range(lo..*seen)
                }
                None => rng.gen_range(0..*seen),
            }
        };
        let ops = (0..self.m)
            .map(|_| {
                let a = draw(&mut rng, &mut seen);
                let b = draw(&mut rng, &mut seen);
                if rng.gen_bool(self.merge_fraction) {
                    KeyedOp::Merge(a, b)
                } else {
                    KeyedOp::SameSet(a, b)
                }
            })
            .collect();
        KeyedWorkload { ops, distinct_keys: seen }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_mix() {
        let spec = KeyedSpec::new(5_000).merge_fraction(0.3).fresh_fraction(0.6);
        let a = spec.generate(9);
        assert_eq!(a, spec.generate(9));
        assert_ne!(a, spec.generate(10));
        let f = a.merge_fraction();
        assert!((f - 0.3).abs() < 0.03, "merge fraction = {f}");
    }

    #[test]
    fn indices_are_dense_in_first_appearance_order() {
        let w = KeyedSpec::new(2_000).generate(1);
        let mut next = 0usize;
        for op in &w.ops {
            let (&a, &b) = op.keys();
            for k in [a, b] {
                assert!(k <= next, "index {k} appeared before {next} was introduced");
                if k == next {
                    next += 1;
                }
            }
        }
        assert_eq!(next, w.distinct_keys);
    }

    #[test]
    fn churn_extremes() {
        let all_fresh = KeyedSpec::new(500).fresh_fraction(1.0).generate(2);
        assert_eq!(all_fresh.distinct_keys, 1_000, "every operand must be a new key");
        let no_fresh = KeyedSpec::new(500).fresh_fraction(0.0).generate(3);
        assert_eq!(no_fresh.distinct_keys, 1, "only the forced first operand is fresh");
    }

    #[test]
    fn revisit_window_bounds_recency() {
        let w = KeyedSpec::new(10_000).fresh_fraction(0.5).revisit_window(16).generate(4);
        let mut seen = 0usize;
        for op in &w.ops {
            let (&a, &b) = op.keys();
            for k in [a, b] {
                if k == seen {
                    seen += 1;
                } else {
                    assert!(k + 16 >= seen, "revisit of {k} outside window (seen {seen})");
                }
            }
        }
    }

    #[test]
    fn materializers_preserve_structure() {
        let idx = KeyedSpec::new(1_000).generate(5);
        let sparse = idx.into_sparse_u64(42);
        let strings = idx.into_strings("rec", 42);
        assert_eq!(sparse.len(), idx.len());
        assert_eq!(strings.distinct_keys, idx.distinct_keys);
        // Injective mapping: distinct indices stay distinct keys.
        let mut seen = std::collections::HashSet::new();
        for op in &sparse.ops {
            let (&a, &b) = op.keys();
            seen.insert(a);
            seen.insert(b);
        }
        assert_eq!(seen.len(), sparse.distinct_keys);
        // Sparse means sparse: keys use the high half of the u64 range too.
        assert!(seen.iter().any(|&k| k > u64::MAX / 2));
        // Merge/query structure carries over op-by-op.
        for (a, b) in idx.ops.iter().zip(&strings.ops) {
            assert_eq!(a.is_merge(), b.is_merge());
        }
        assert!(strings.ops[0].keys().0.starts_with("rec-"));
    }

    #[test]
    fn shard_deals_round_robin() {
        let w = KeyedSpec::new(103).generate(6);
        let shards = w.shard(4);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 103);
        assert_eq!(shards[0].len(), 26);
        assert_eq!(shards[3].len(), 25);
        assert_eq!(shards[1][0], w.ops[1]);
    }

    #[test]
    fn empty_trace() {
        let w = KeyedSpec::new(0).generate(7);
        assert!(w.is_empty());
        assert_eq!(w.merge_fraction(), 0.0);
        assert_eq!(w.distinct_keys, 0);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn shard_rejects_zero() {
        KeyedSpec::new(4).generate(8).shard(0);
    }
}
