//! A union-find whose (find × link) variant is picked from its universe
//! size at construction.
//!
//! The crate ships a plane of interchangeable variants — five find
//! policies ([`find`](crate::find)) × two link policies
//! ([`order`](crate::order)) — all proven observationally equivalent by
//! the semantics suites. Equivalent is not equally fast, and the
//! `variants_ab` bench (see its section of `docs/benchmarks.md`) splits
//! the plane by one question: does the parent array fit in cache?
//!
//! * **Cache-resident** (at most 8 MiB of parent words, `n ≤ 2^20`):
//!   `halving/index` beats the paper default — with every word cache-hot,
//!   the variant that does the least per op wins, and halving issues
//!   half the compaction CASes of splitting.
//! * **DRAM-resident**: no variant beats the paper default
//!   (`two-try/random`) outside noise, so it stays.
//!
//! The choice depends on `n` alone, so [`TunedDsu`] makes it once, in
//! [`with_seed`](TunedDsu::with_seed), and every operation is one enum
//! match in front of a monomorphized [`Dsu`]: no lock, no sampling, no
//! atomic of its own. A caller who knows its regime can name the variant
//! as type parameters instead (`Dsu<Halving, PackedStore, IndexLink>`).

use crate::dsu::Dsu;
use crate::find::{Halving, TwoTrySplit};
use crate::order::{IndexLink, RandomLink};
use crate::store::PackedStore;
use crate::ConcurrentUnionFind;

/// Parent-array bytes up to which a universe counts as cache-resident.
const CACHE_BUDGET_BYTES: usize = 8 << 20;

/// A union-find that runs `halving/index` when its parent array fits in
/// 8 MiB and the paper default above that (see the module docs).
///
/// # Example
///
/// ```
/// use concurrent_dsu::TunedDsu;
///
/// let dsu = TunedDsu::new(100);
/// assert_eq!(dsu.variant(), "halving/index");
/// assert!(dsu.unite(1, 2));
/// assert!(dsu.same_set(2, 1));
/// ```
#[derive(Debug)]
pub enum TunedDsu {
    /// `halving/index`, for universes of at most `2^20` elements.
    CacheResident(Dsu<Halving, PackedStore, IndexLink>),
    /// The paper default, `two-try/random`, above that.
    DramResident(Dsu<TwoTrySplit, PackedStore, RandomLink>),
}

/// Runs `$body` with `$d` bound to whichever `Dsu` the structure holds.
macro_rules! dispatch {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            TunedDsu::CacheResident($d) => $body,
            TunedDsu::DramResident($d) => $body,
        }
    };
}

impl TunedDsu {
    /// `n` singleton sets with the crate's default id seed.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, Dsu::<TwoTrySplit>::DEFAULT_SEED)
    }

    /// `n` singleton sets, ids seeded from `seed`; `n` picks the variant.
    pub fn with_seed(n: usize, seed: u64) -> Self {
        if n.saturating_mul(8) <= CACHE_BUDGET_BYTES {
            TunedDsu::CacheResident(Dsu::with_seed(n, seed))
        } else {
            TunedDsu::DramResident(Dsu::with_seed(n, seed))
        }
    }

    /// The variant's `<find>/<link>` tag, e.g. `"halving/index"`.
    pub fn variant(&self) -> String {
        dispatch!(self, d => format!("{}/{}", d.policy_name(), d.link_name()))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        dispatch!(self, d => d.len())
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        dispatch!(self, d => d.set_count())
    }

    /// See [`Dsu::find`].
    pub fn find(&self, x: usize) -> usize {
        dispatch!(self, d => d.find(x))
    }

    /// See [`Dsu::same_set`].
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        dispatch!(self, d => d.same_set(x, y))
    }

    /// See [`Dsu::unite`].
    pub fn unite(&self, x: usize, y: usize) -> bool {
        dispatch!(self, d => d.unite(x, y))
    }

    /// See [`Dsu::unite_batch`].
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        dispatch!(self, d => d.unite_batch(edges))
    }

    /// See [`Dsu::labels_snapshot`].
    pub fn labels_snapshot(&self) -> Vec<usize> {
        dispatch!(self, d => d.labels_snapshot())
    }
}

impl ConcurrentUnionFind for TunedDsu {
    fn len(&self) -> usize {
        TunedDsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        TunedDsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        TunedDsu::unite(self, x, y)
    }

    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        TunedDsu::unite_batch(self, edges)
    }

    fn find(&self, x: usize) -> usize {
        TunedDsu::find(self, x)
    }
}
