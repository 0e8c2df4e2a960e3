//! The sequential oracle every run is checked against, built outside the
//! timed phase. Set union is confluent, so whatever the interleaving, the
//! final partition must equal the oracle's; a `true` same-set verdict must
//! be connected in that final partition.

use sequential_dsu::{Compaction, Linking, SeqDsu};

/// Final partition of a union sequence, as each element's root.
pub struct Oracle {
    roots: Vec<u32>,
}

impl Oracle {
    /// Runs `unions` through a sequential rank + halving union-find on `0..n`.
    pub fn build(n: usize, unions: impl IntoIterator<Item = (usize, usize)>) -> Self {
        assert!(n < u32::MAX as usize, "oracle roots are stored as u32");
        let mut dsu = SeqDsu::new(n, Linking::ByRank, Compaction::Halving);
        for (a, b) in unions {
            dsu.unite(a, b);
        }
        Oracle { roots: (0..n).map(|v| dsu.find(v) as u32).collect() }
    }

    pub fn len(&self) -> usize {
        self.roots.len()
    }

    pub fn root(&self, v: usize) -> usize {
        self.roots[v] as usize
    }

    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.roots[a] == self.roots[b]
    }

    /// `true` iff `labels` (one per element) induces exactly the oracle's
    /// partition.
    pub fn same_partition(&self, labels: &[usize]) -> bool {
        if labels.len() != self.len() {
            return false;
        }
        let mut m = PartitionMatch::new(self.len(), labels.len());
        (0..labels.len()).all(|v| m.pair(self.root(v), labels[v]))
    }
}

/// Checks that two labelings of the same elements induce one partition:
/// the map between their labels must be a bijection.
pub struct PartitionMatch {
    fwd: Vec<u32>,
    bwd: Vec<u32>,
}

impl PartitionMatch {
    /// Labels of the first labeling lie in `0..left`, of the second in
    /// `0..right`.
    pub fn new(left: usize, right: usize) -> Self {
        PartitionMatch { fwd: vec![u32::MAX; left], bwd: vec![u32::MAX; right] }
    }

    /// Records that one element carries label `l` on the left and `r` on
    /// the right; `false` if that contradicts an earlier pair.
    pub fn pair(&mut self, l: usize, r: usize) -> bool {
        let (Some(f), Some(b)) = (self.fwd.get(l).copied(), self.bwd.get(r).copied()) else {
            return false;
        };
        if f == u32::MAX && b == u32::MAX {
            self.fwd[l] = r as u32;
            self.bwd[r] = l as u32;
            return true;
        }
        f == r as u32 && b == l as u32
    }
}

/// Number of labels `l` with `labels[l] == l`, i.e. sets of an idempotent
/// labeling.
pub fn set_count(labels: &[usize]) -> usize {
    labels.iter().enumerate().filter(|&(v, &l)| v == l).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_match_refutes_merged_and_split_sets() {
        let oracle = Oracle::build(5, [(0, 1), (2, 3)]);
        assert!(oracle.same_partition(&[1, 1, 3, 3, 4]));
        // 0 and 1 split apart.
        assert!(!oracle.same_partition(&[0, 1, 3, 3, 4]));
        // {0,1} and {2,3} merged.
        assert!(!oracle.same_partition(&[1, 1, 1, 1, 4]));
        assert!(!oracle.same_partition(&[1, 1, 3, 3]));
    }
}
