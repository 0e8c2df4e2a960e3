//! Operation traces: the unit of input for every experiment. Traces are
//! not serialized: every generator rebuilds its trace from a seed.

/// One union-find operation over elements of `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `Unite(x, y)`: merge the sets containing `x` and `y`.
    Unite(usize, usize),
    /// `SameSet(x, y)`: query whether `x` and `y` share a set.
    SameSet(usize, usize),
}

impl Op {
    /// The two operand elements.
    pub fn operands(self) -> (usize, usize) {
        match self {
            Op::Unite(x, y) | Op::SameSet(x, y) => (x, y),
        }
    }

    /// `true` for `Unite`.
    pub fn is_unite(self) -> bool {
        matches!(self, Op::Unite(..))
    }
}

/// A reproducible operation trace over the universe `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Universe size; all operands are `< n`.
    pub n: usize,
    /// The operations, in program order (per-thread order after sharding).
    pub ops: Vec<Op>,
}

impl Workload {
    /// Wraps a raw op list, validating operands.
    ///
    /// # Panics
    ///
    /// Panics if any operand is `>= n`.
    pub fn new(n: usize, ops: Vec<Op>) -> Self {
        for (i, op) in ops.iter().enumerate() {
            let (x, y) = op.operands();
            assert!(x < n && y < n, "op {i} ({op:?}) out of universe 0..{n}");
        }
        Workload { n, ops }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Fraction of operations that are unites.
    pub fn unite_fraction(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| o.is_unite()).count() as f64 / self.ops.len() as f64
    }

    /// Splits the trace into `p` round-robin shards (op `i` goes to thread
    /// `i % p`), the assignment the experiments use so each thread sees a
    /// statistically identical stream.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn shard(&self, p: usize) -> Vec<Vec<Op>> {
        assert!(p > 0, "cannot shard across zero threads");
        let mut shards = vec![Vec::with_capacity(self.ops.len() / p + 1); p];
        for (i, &op) in self.ops.iter().enumerate() {
            shards[i % p].push(op);
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_and_kind() {
        assert_eq!(Op::Unite(1, 2).operands(), (1, 2));
        assert_eq!(Op::SameSet(3, 4).operands(), (3, 4));
        assert!(Op::Unite(0, 0).is_unite());
        assert!(!Op::SameSet(0, 0).is_unite());
    }

    #[test]
    fn sharding_is_round_robin_and_complete() {
        let ops: Vec<Op> = (0..10).map(|i| Op::Unite(i, i)).collect();
        let w = Workload::new(10, ops.clone());
        let shards = w.shard(3);
        assert_eq!(shards[0], vec![ops[0], ops[3], ops[6], ops[9]]);
        assert_eq!(shards[1], vec![ops[1], ops[4], ops[7]]);
        assert_eq!(shards[2], vec![ops[2], ops[5], ops[8]]);
    }

    #[test]
    fn shard_more_threads_than_ops() {
        let w = Workload::new(4, vec![Op::SameSet(0, 1)]);
        let shards = w.shard(8);
        assert_eq!(shards.iter().filter(|s| !s.is_empty()).count(), 1);
    }

    #[test]
    #[should_panic(expected = "zero threads")]
    fn shard_zero_panics() {
        Workload::new(1, vec![]).shard(0);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn oob_ops_rejected() {
        Workload::new(2, vec![Op::Unite(0, 2)]);
    }

    #[test]
    fn unite_fraction_counts() {
        let w = Workload::new(
            4,
            vec![Op::Unite(0, 1), Op::SameSet(0, 1), Op::Unite(2, 3), Op::Unite(1, 2)],
        );
        assert!((w.unite_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(Workload::new(1, vec![]).unite_fraction(), 0.0);
    }
}
