//! The classical compressed-forest union-find with pluggable linking and
//! compaction rules (paper Section 2).
//!
//! Each element stores a parent pointer; roots point to themselves. `Find`
//! walks the find path to the root, optionally compacting it; `Unite` links
//! one root under the other according to the linking rule. Any of the three
//! compaction methods combines with any of the three linking methods for a
//! bound of `O(m α(n, m/n))` over `m` operations (worst-case for size/rank,
//! expected for randomized linking).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// How `Unite` decides which root becomes the child (paper Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linking {
    /// Link the root of the smaller tree (by node count) under the larger,
    /// breaking ties toward the second argument.
    BySize,
    /// Link the root of smaller rank under the larger; a tie links the first
    /// root under the second and increments the survivor's rank.
    ByRank,
    /// Randomized linking (Goel et al., SODA '14): a fixed uniformly random
    /// total order on elements; the smaller root in that order is linked
    /// under the larger. This is the rule the concurrent algorithm adopts.
    Randomized,
}

impl Linking {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Linking::BySize => "size",
            Linking::ByRank => "rank",
            Linking::Randomized => "random",
        }
    }
}

impl std::fmt::Display for Linking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How `Find` compacts the find path (paper Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compaction {
    /// Plain walk to the root; the forest is never restructured by finds.
    None,
    /// Path halving: every other node on the find path gets its parent
    /// replaced by its grandparent, starting with the first node.
    Halving,
    /// Path splitting: every node on the find path gets its parent replaced
    /// by its grandparent. One pass; this is the rule the paper lifts to the
    /// concurrent setting (one-try / two-try splitting).
    Splitting,
    /// Path compression: every node on the find path gets its parent
    /// replaced by the root. Requires two passes over the path.
    Compression,
}

impl Compaction {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Compaction::None => "none",
            Compaction::Halving => "halving",
            Compaction::Splitting => "splitting",
            Compaction::Compression => "compression",
        }
    }
}

impl std::fmt::Display for Compaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Work counters for a [`SeqDsu`]; all counts are cumulative since creation.
///
/// `parent_reads` is the machine-level measure the paper's work bounds speak
/// about (each find-loop iteration reads at least one parent pointer);
/// `pointer_updates` counts compaction writes, the quantity Section 3's
/// halving-vs-splitting argument compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Calls to `find` (including those inside `same_set` / `unite`).
    pub finds: u64,
    /// Parent-pointer reads performed while walking find paths.
    pub parent_reads: u64,
    /// Parent-pointer writes performed by compaction.
    pub pointer_updates: u64,
    /// Successful links (equivalently, `unite` calls that merged two sets).
    pub links: u64,
}

/// A sequential union-find over elements `0..n` with a chosen linking and
/// compaction rule.
///
/// The twelve `(Linking, Compaction)` combinations cover the nine algorithms
/// of paper Section 2 plus the three no-compaction variants analyzed in
/// Section 4.
///
/// # Example
///
/// ```
/// use sequential_dsu::{SeqDsu, Linking, Compaction};
///
/// let mut dsu = SeqDsu::new(4, Linking::BySize, Compaction::Compression);
/// assert!(dsu.unite(0, 1));
/// assert!(!dsu.unite(1, 0)); // already together
/// assert_eq!(dsu.set_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SeqDsu {
    parent: Vec<usize>,
    /// Size, rank, or random priority, depending on `linking`.
    aux: Vec<u64>,
    /// Parent in the *union forest* (links only, never rewritten by
    /// compaction); used to measure union-forest height (Corollary 4.2.1).
    forest_parent: Vec<usize>,
    linking: Linking,
    compaction: Compaction,
    sets: usize,
    stats: SeqStats,
}

impl SeqDsu {
    /// Default RNG seed for [`Linking::Randomized`] priorities; fixed so that
    /// runs are reproducible unless a seed is given via [`SeqDsu::with_seed`].
    pub const DEFAULT_SEED: u64 = 0x4a61_7961_6e74_6969; // "Jayantii"

    /// Creates `n` singleton sets with the given rules.
    ///
    /// Randomized linking draws its priorities from a fixed seed; use
    /// [`SeqDsu::with_seed`] to control it.
    pub fn new(n: usize, linking: Linking, compaction: Compaction) -> Self {
        Self::with_seed(n, linking, compaction, Self::DEFAULT_SEED)
    }

    /// Creates `n` singleton sets, seeding the random total order used by
    /// [`Linking::Randomized`] (ignored by the deterministic rules).
    pub fn with_seed(n: usize, linking: Linking, compaction: Compaction, seed: u64) -> Self {
        let aux = match linking {
            Linking::BySize => vec![1; n],
            Linking::ByRank => vec![0; n],
            Linking::Randomized => {
                // A random permutation of 0..n: all priorities distinct, so
                // comparisons never tie.
                let mut ids: Vec<u64> = (0..n as u64).collect();
                ids.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
                ids
            }
        };
        SeqDsu {
            parent: (0..n).collect(),
            aux,
            forest_parent: (0..n).collect(),
            linking,
            compaction,
            sets: n,
            stats: SeqStats::default(),
        }
    }

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently maintained.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// The linking rule this structure was built with.
    pub fn linking(&self) -> Linking {
        self.linking
    }

    /// The compaction rule this structure was built with.
    pub fn compaction(&self) -> Compaction {
        self.compaction
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> SeqStats {
        self.stats
    }

    /// Resets the work counters to zero (the forest is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = SeqStats::default();
    }

    /// Returns the root of the tree containing `x`, compacting the find path
    /// according to the configured rule.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        self.stats.finds += 1;
        match self.compaction {
            Compaction::None => self.find_plain(x),
            Compaction::Halving => self.find_halving(x),
            Compaction::Splitting => self.find_splitting(x),
            Compaction::Compression => self.find_compression(x),
        }
    }

    fn find_plain(&mut self, mut u: usize) -> usize {
        loop {
            let v = self.parent[u];
            self.stats.parent_reads += 1;
            if v == u {
                return u;
            }
            u = v;
        }
    }

    fn find_halving(&mut self, mut u: usize) -> usize {
        // Replace the parent of every other node on the path by its
        // grandparent, starting with the first node.
        loop {
            let v = self.parent[u];
            self.stats.parent_reads += 1;
            if v == u {
                return u;
            }
            let w = self.parent[v];
            self.stats.parent_reads += 1;
            if w == v {
                return v;
            }
            self.parent[u] = w;
            self.stats.pointer_updates += 1;
            u = w;
        }
    }

    fn find_splitting(&mut self, mut u: usize) -> usize {
        // Replace the parent of every node on the path by its grandparent.
        loop {
            let v = self.parent[u];
            self.stats.parent_reads += 1;
            if v == u {
                return u;
            }
            let w = self.parent[v];
            self.stats.parent_reads += 1;
            if w == v {
                return v;
            }
            self.parent[u] = w;
            self.stats.pointer_updates += 1;
            u = v;
        }
    }

    fn find_compression(&mut self, x: usize) -> usize {
        // First pass: locate the root.
        let mut root = x;
        loop {
            let v = self.parent[root];
            self.stats.parent_reads += 1;
            if v == root {
                break;
            }
            root = v;
        }
        // Second pass: point everything on the path at the root.
        let mut u = x;
        while u != root {
            let next = self.parent[u];
            self.stats.parent_reads += 1;
            if next != root {
                self.parent[u] = root;
                self.stats.pointer_updates += 1;
            }
            u = next;
        }
        root
    }

    /// Returns `true` iff `x` and `y` are currently in the same set.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }

    /// Unites the sets containing `x` and `y`.
    ///
    /// Returns `true` iff the two were in different sets (a link happened).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite(&mut self, x: usize, y: usize) -> bool {
        let u = self.find(x);
        let v = self.find(y);
        if u == v {
            return false;
        }
        self.link(u, v);
        true
    }

    /// Links root `u` and root `v` per the linking rule.
    fn link(&mut self, u: usize, v: usize) {
        debug_assert_eq!(self.parent[u], u);
        debug_assert_eq!(self.parent[v], v);
        debug_assert_ne!(u, v);
        let (child, new_parent) = match self.linking {
            Linking::BySize => {
                if self.aux[u] <= self.aux[v] {
                    (u, v)
                } else {
                    (v, u)
                }
            }
            Linking::ByRank => {
                if self.aux[u] < self.aux[v] {
                    (u, v)
                } else if self.aux[u] > self.aux[v] {
                    (v, u)
                } else {
                    // Tie: link u under v and raise v's rank.
                    self.aux[v] += 1;
                    (u, v)
                }
            }
            Linking::Randomized => {
                if self.aux[u] < self.aux[v] {
                    (u, v)
                } else {
                    (v, u)
                }
            }
        };
        if self.linking == Linking::BySize {
            self.aux[new_parent] += self.aux[child];
        }
        self.parent[child] = new_parent;
        self.forest_parent[child] = new_parent;
        self.sets -= 1;
        self.stats.links += 1;
    }

    /// The height of the *union forest*: the forest built by links alone,
    /// ignoring compaction (paper Section 3). Corollary 4.2.1 proves this is
    /// `O(log n)` w.h.p. under randomized linking.
    ///
    /// Runs in `O(n)` with memoized depths.
    pub fn union_forest_height(&self) -> usize {
        union_forest_height(&self.forest_parent)
    }

    /// The current parent pointer of `x` (diagnostics; `x` itself if root).
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn parent_of(&self, x: usize) -> usize {
        self.parent[x]
    }

    /// `SameSet` with **early termination** (paper Section 6, after Goel
    /// et al.): the two find walks are interleaved, always advancing the
    /// node that is smaller in the random total order, so only one path's
    /// worth of nodes is visited. Compaction is one splitting step per
    /// round regardless of the configured [`Compaction`] (splitting is the
    /// local rule early termination composes with).
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range, or if this structure does not
    /// use [`Linking::Randomized`] (the other rules maintain no total
    /// order compatible with parenthood).
    pub fn same_set_early(&mut self, x: usize, y: usize) -> bool {
        self.require_randomized();
        let mut u = x;
        let mut v = y;
        loop {
            if u == v {
                return true;
            }
            if self.aux[v] < self.aux[u] {
                std::mem::swap(&mut u, &mut v);
            }
            // u is the smaller; a root here cannot be in v's tree.
            self.stats.parent_reads += 1;
            if self.parent[u] == u {
                return false;
            }
            u = self.split_once(u);
        }
    }

    /// `Unite` with early termination (paper Section 6). Returns `true`
    /// iff a link happened.
    ///
    /// # Panics
    ///
    /// Same conditions as [`same_set_early`](SeqDsu::same_set_early).
    pub fn unite_early(&mut self, x: usize, y: usize) -> bool {
        self.require_randomized();
        let mut u = x;
        let mut v = y;
        loop {
            if u == v {
                return false;
            }
            if self.aux[v] < self.aux[u] {
                std::mem::swap(&mut u, &mut v);
            }
            self.stats.parent_reads += 1;
            if self.parent[u] == u {
                // Link the smaller root under the current larger node —
                // which need not be a root (ids only grow upward, so no
                // cycle can form).
                self.parent[u] = v;
                self.forest_parent[u] = v;
                self.sets -= 1;
                self.stats.links += 1;
                return true;
            }
            u = self.split_once(u);
        }
    }

    fn require_randomized(&self) {
        assert!(
            self.linking == Linking::Randomized,
            "early termination requires randomized linking (got {})",
            self.linking
        );
    }

    /// One sequential splitting step at `u`: swing `u`'s parent to its
    /// grandparent and return the old parent.
    fn split_once(&mut self, u: usize) -> usize {
        let v = self.parent[u];
        let w = self.parent[v];
        self.stats.parent_reads += 2;
        if v != w {
            self.parent[u] = w;
            self.stats.pointer_updates += 1;
        }
        v
    }

    /// Depth of `x` in the **current compressed forest** (0 for a root).
    /// Unlike [`union_forest_depth`](SeqDsu::union_forest_depth), this sees
    /// the effects of compaction.
    pub fn depth_of(&self, x: usize) -> usize {
        let mut d = 0;
        let mut u = x;
        while self.parent[u] != u {
            u = self.parent[u];
            d += 1;
        }
        d
    }

    /// Depth of `x` in the union forest (0 for a union-forest root).
    pub fn union_forest_depth(&self, x: usize) -> usize {
        let mut d = 0;
        let mut u = x;
        while self.forest_parent[u] != u {
            u = self.forest_parent[u];
            d += 1;
        }
        d
    }

    /// The canonical partition currently represented (uses `find` on every
    /// element, so it compacts paths as a side effect).
    pub fn partition(&mut self) -> crate::Partition {
        let labels: Vec<usize> = (0..self.len()).map(|i| self.find(i)).collect();
        crate::Partition::from_labels(&labels)
    }
}

/// Computes the height (longest root-to-leaf arc count) of a parent-pointer
/// forest where roots are self-loops. Shared with the concurrent crate's
/// tests via copy; kept here as the canonical definition.
pub fn union_forest_height(parent: &[usize]) -> usize {
    let mut depth = vec![usize::MAX; parent.len()];
    let mut tallest = 0;
    for start in 0..parent.len() {
        // Walk up until a memoized node or a root, then unwind.
        let mut path = Vec::new();
        let mut u = start;
        while depth[u] == usize::MAX && parent[u] != u {
            path.push(u);
            u = parent[u];
        }
        let mut d = if parent[u] == u && depth[u] == usize::MAX {
            depth[u] = 0;
            0
        } else {
            depth[u]
        };
        for &node in path.iter().rev() {
            d += 1;
            depth[node] = d;
        }
        tallest = tallest.max(depth[start]);
    }
    tallest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_VARIANTS;

    #[test]
    fn singletons_are_disjoint() {
        for (linking, compaction) in ALL_VARIANTS {
            let mut dsu = SeqDsu::new(5, linking, compaction);
            for i in 0..5 {
                for j in 0..5 {
                    assert_eq!(dsu.same_set(i, j), i == j, "{linking}/{compaction}");
                }
            }
            assert_eq!(dsu.set_count(), 5);
        }
    }

    #[test]
    fn unite_merges_and_is_idempotent() {
        for (linking, compaction) in ALL_VARIANTS {
            let mut dsu = SeqDsu::new(6, linking, compaction);
            assert!(dsu.unite(0, 1));
            assert!(dsu.unite(2, 3));
            assert!(dsu.unite(0, 3));
            assert!(!dsu.unite(1, 2), "{linking}/{compaction}: already merged");
            assert!(dsu.same_set(0, 2));
            assert!(!dsu.same_set(0, 4));
            assert_eq!(dsu.set_count(), 3);
            assert_eq!(dsu.stats().links, 3);
        }
    }

    #[test]
    fn chain_union_keeps_trees_shallow_with_size_linking() {
        let n = 1 << 12;
        let mut dsu = SeqDsu::new(n, Linking::BySize, Compaction::None);
        for i in 1..n {
            dsu.unite(0, i);
        }
        // Linking by size on a star-building sequence keeps height <= log n;
        // here every unite links a singleton under the big root: height 1.
        assert!(dsu.union_forest_height() <= 1 + (n as f64).log2() as usize);
        assert_eq!(dsu.set_count(), 1);
    }

    #[test]
    fn rank_tie_breaking_increments_rank() {
        let mut dsu = SeqDsu::new(4, Linking::ByRank, Compaction::None);
        dsu.unite(0, 1); // tie at rank 0: 0 -> 1, rank(1) = 1
        assert_eq!(dsu.find(0), 1);
        dsu.unite(2, 3); // tie: 2 -> 3, rank(3) = 1
        dsu.unite(1, 3); // tie at rank 1: 1 -> 3, rank(3) = 2
        assert_eq!(dsu.find(0), 3);
        assert_eq!(dsu.aux[3], 2);
    }

    #[test]
    fn size_linking_tracks_sizes() {
        let mut dsu = SeqDsu::new(8, Linking::BySize, Compaction::None);
        dsu.unite(0, 1);
        dsu.unite(2, 3);
        dsu.unite(0, 2);
        let root = dsu.find(0);
        assert_eq!(dsu.aux[root], 4);
    }

    #[test]
    fn randomized_linking_respects_priorities() {
        let mut dsu = SeqDsu::with_seed(16, Linking::Randomized, Compaction::None, 7);
        for i in 0..15 {
            dsu.unite(i, i + 1);
        }
        // Along every union-forest path, priorities strictly increase
        // (Lemma 3.1 analogue).
        for x in 0..16 {
            let p = dsu.forest_parent[x];
            if p != x {
                assert!(dsu.aux[x] < dsu.aux[p], "child priority must be smaller");
            }
        }
    }

    #[test]
    fn compression_flattens_path() {
        let mut dsu = SeqDsu::new(8, Linking::Randomized, Compaction::Compression);
        for i in 0..7 {
            dsu.unite(i, i + 1);
        }
        let root = dsu.find(0);
        // After finding from 0, everything on that path points at the root.
        assert_eq!(dsu.parent[0], root);
    }

    #[test]
    fn splitting_halves_depth_roughly() {
        // Build a long path manually (bypassing linking) and check one
        // splitting find reduces every visited node's parent to grandparent.
        let n = 64;
        let mut dsu = SeqDsu::new(n, Linking::Randomized, Compaction::Splitting);
        for i in 0..n - 1 {
            dsu.parent[i] = i + 1;
            dsu.forest_parent[i] = i + 1;
        }
        dsu.sets = 1;
        let root = dsu.find(0);
        assert_eq!(root, n - 1);
        // Node 0's parent must now be node 2 (its old grandparent).
        assert_eq!(dsu.parent[0], 2);
        assert_eq!(dsu.parent[1], 3);
    }

    #[test]
    fn halving_skips_every_other_node() {
        let n = 16;
        let mut dsu = SeqDsu::new(n, Linking::Randomized, Compaction::Halving);
        for i in 0..n - 1 {
            dsu.parent[i] = i + 1;
            dsu.forest_parent[i] = i + 1;
        }
        dsu.sets = 1;
        let root = dsu.find(0);
        assert_eq!(root, n - 1);
        assert_eq!(dsu.parent[0], 2); // halved
        assert_eq!(dsu.parent[2], 4); // halved
        assert_eq!(dsu.parent[1], 2); // untouched (skipped node)
    }

    #[test]
    fn no_compaction_never_updates_pointers() {
        let mut dsu = SeqDsu::new(128, Linking::ByRank, Compaction::None);
        for i in 0..127 {
            dsu.unite(i, i + 1);
        }
        for i in 0..128 {
            dsu.find(i);
        }
        assert_eq!(dsu.stats().pointer_updates, 0);
    }

    #[test]
    fn compaction_reduces_reads_on_repeated_finds() {
        let build = |compaction| {
            let n = 4096;
            let mut dsu = SeqDsu::new(n, Linking::ByRank, compaction);
            // Binomial-style pairwise merging builds Θ(log n)-deep trees
            // under rank linking (a chain-unite order would give stars).
            let mut step = 1;
            while step < n {
                for i in (0..n).step_by(2 * step) {
                    if i + step < n {
                        dsu.unite(i, i + step);
                    }
                }
                step *= 2;
            }
            dsu.reset_stats();
            for _ in 0..4 {
                for i in 0..n {
                    dsu.find(i);
                }
            }
            dsu.stats().parent_reads
        };
        let none = build(Compaction::None);
        for c in [Compaction::Halving, Compaction::Splitting, Compaction::Compression] {
            assert!(build(c) <= none, "{c} should not read more than no compaction");
        }
    }

    #[test]
    fn union_forest_height_of_path_is_length() {
        let parent = vec![1, 2, 3, 3];
        assert_eq!(union_forest_height(&parent), 3);
        let singletons = vec![0, 1, 2];
        assert_eq!(union_forest_height(&singletons), 0);
    }

    #[test]
    fn union_forest_ignores_compaction() {
        let mut dsu = SeqDsu::new(64, Linking::Randomized, Compaction::Compression);
        for i in 0..63 {
            dsu.unite(i, i + 1);
        }
        let h_before = dsu.union_forest_height();
        for i in 0..64 {
            dsu.find(i); // compresses aggressively
        }
        assert_eq!(dsu.union_forest_height(), h_before);
    }

    #[test]
    fn partition_is_canonical() {
        let mut a = SeqDsu::new(6, Linking::BySize, Compaction::Compression);
        let mut b = SeqDsu::new(6, Linking::Randomized, Compaction::None);
        for dsu in [&mut a, &mut b] {
            dsu.unite(0, 3);
            dsu.unite(4, 5);
        }
        assert_eq!(a.partition(), b.partition());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn find_rejects_out_of_range() {
        let mut dsu = SeqDsu::new(3, Linking::BySize, Compaction::None);
        dsu.find(3);
    }

    #[test]
    fn empty_universe_is_fine() {
        let dsu = SeqDsu::new(0, Linking::BySize, Compaction::None);
        assert!(dsu.is_empty());
        assert_eq!(dsu.set_count(), 0);
        assert_eq!(dsu.union_forest_height(), 0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Linking::Randomized.to_string(), "random");
        assert_eq!(Compaction::Splitting.to_string(), "splitting");
    }

    #[test]
    fn early_termination_matches_standard_ops() {
        use crate::NaiveDsu;
        use rand::{Rng, SeedableRng};
        let n = 48;
        let mut dsu = SeqDsu::with_seed(n, Linking::Randomized, Compaction::Splitting, 9);
        let mut oracle = NaiveDsu::new(n);
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(17);
        for _ in 0..600 {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            match rng.gen_range(0..4) {
                0 => assert_eq!(dsu.unite(x, y), oracle.unite(x, y)),
                1 => assert_eq!(dsu.unite_early(x, y), oracle.unite(x, y)),
                2 => assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y)),
                _ => assert_eq!(dsu.same_set_early(x, y), oracle.same_set(x, y)),
            }
        }
        assert_eq!(dsu.partition(), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
    }

    #[test]
    fn early_termination_self_ops() {
        let mut dsu = SeqDsu::new(4, Linking::Randomized, Compaction::Splitting);
        assert!(dsu.same_set_early(2, 2));
        assert!(!dsu.unite_early(2, 2));
        assert_eq!(dsu.set_count(), 4);
    }

    #[test]
    fn early_termination_walks_one_path() {
        // A long path plus a far-away singleton: the early query should
        // only pay for one side.
        let n = 1 << 10;
        let mut dsu = SeqDsu::new(n, Linking::Randomized, Compaction::Splitting);
        for i in 0..n - 2 {
            dsu.unite(i, i + 1);
        }
        dsu.reset_stats();
        let singleton = n - 1;
        assert!(!dsu.same_set_early(0, singleton));
        // Walking only the smaller current node, the op is bounded by the
        // smaller tree's depth + O(1) — far below a double traversal.
        assert!(dsu.stats().parent_reads < 64, "reads = {}", dsu.stats().parent_reads);
    }

    #[test]
    #[should_panic(expected = "randomized linking")]
    fn early_termination_requires_random_order() {
        let mut dsu = SeqDsu::new(4, Linking::ByRank, Compaction::Halving);
        dsu.same_set_early(0, 1);
    }

    #[test]
    fn early_unites_maintain_id_order_invariant() {
        let mut dsu = SeqDsu::with_seed(64, Linking::Randomized, Compaction::Splitting, 4);
        for i in 0..63 {
            dsu.unite_early(i, i + 1);
        }
        for x in 0..64 {
            let p = dsu.parent_of(x);
            if p != x {
                assert!(dsu.aux[x] < dsu.aux[p]);
            }
        }
        assert_eq!(dsu.set_count(), 1);
    }
}
