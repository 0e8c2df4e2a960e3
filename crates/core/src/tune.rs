//! Self-tuning variant dispatch: sample the workload, pick a variant,
//! switch.
//!
//! The crate ships a plane of interchangeable variants — five find
//! policies ([`find`](crate::find)) × three link policies
//! ([`order`](crate::order)) — all proven observationally equivalent by
//! the semantics suites. Equivalent is not equally fast: which variant
//! wins depends on the workload (cache-resident vs DRAM-resident
//! universes, uniform vs skewed edge endpoints), and callers rarely know
//! their regime up front. [`TunedDsu`] closes that loop:
//!
//! 1. **Sample.** The first `sample_budget` operations run on the paper
//!    default (`two-try/random`) while their [`OpStats`] counters are
//!    profiled and every unite edge is buffered.
//! 2. **Score.** At the decision point the sampled profile is classified
//!    into a regime (resident × skew, see [`WorkloadProfile`]) and looked
//!    up in a shipped [`DecisionTable`] — the table is *data*, measured by
//!    the `variants_ab` bench and recorded in `docs/benchmarks.md`, not a
//!    heuristic buried in code.
//! 3. **Switch.** If the table picks a non-default variant, a fresh
//!    structure of that variant is built and the buffered edges are
//!    replayed into it, then dispatch swaps over. Set union is confluent,
//!    so the replayed structure's partition equals the sampled one's at
//!    the swap point and every verdict stays linearizable.
//!
//! Replay-and-swap rather than relinking in place is deliberate: the
//! acyclicity argument of every link policy is *per-policy* (random ids,
//! indices, or rank words must increase along parent paths), and a forest
//! built by one policy is not a reachable state of another — mutating the
//! link rule mid-structure could create key inversions and, with them,
//! cycles. A fresh build under the new policy re-establishes the new
//! invariant from scratch.
//!
//! Dispatch after the switch is a single enum discriminant branch at the
//! operation boundary ([`VariantDsu`] holds fifteen monomorphized `Dsu`
//! instantiations), so the steady-state cost over a hand-picked variant
//! is one predictable jump — no trait objects on the find loop.
//!
//! The `DSU_TUNER` environment variable overrides the whole mechanism:
//! `off` pins the default variant and never samples, `auto` (and unset)
//! samples and decides, and an explicit `<find>/<link>` tag (e.g.
//! `halving/index`) forces that variant from construction. See
//! [`TunerMode`].

use crate::dsu::Dsu;
use crate::find::{Compress, Halving, NoCompaction, OneTrySplit, TwoTrySplit};
use crate::order::{IndexLink, RandomLink, RankLink};
use crate::stats::{OpStats, StatsSink};
use crate::store::RankedStore;
use crate::ConcurrentUnionFind;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, RwLock};

/// The find-policy axis of a [`Variant`], as runtime data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindKind {
    /// [`NoCompaction`]: pure traversal, pointers never rewritten.
    NoCompaction,
    /// [`OneTrySplit`]: one splitting CAS attempt per iteration.
    OneTry,
    /// [`TwoTrySplit`]: the paper default — retry the split once.
    TwoTry,
    /// [`Halving`]: advance two levels per splitting attempt.
    Halving,
    /// [`Compress`]: full path compression to the found root.
    Compress,
}

impl FindKind {
    /// All find kinds, in `find` module declaration order.
    pub const ALL: [FindKind; 5] = [
        FindKind::NoCompaction,
        FindKind::OneTry,
        FindKind::TwoTry,
        FindKind::Halving,
        FindKind::Compress,
    ];

    /// The `FindPolicy::NAME` of the corresponding policy type.
    pub fn name(self) -> &'static str {
        match self {
            FindKind::NoCompaction => "no-compaction",
            FindKind::OneTry => "one-try",
            FindKind::TwoTry => "two-try",
            FindKind::Halving => "halving",
            FindKind::Compress => "compress",
        }
    }
}

/// The link-policy axis of a [`Variant`], as runtime data.
///
/// `Rank` pairs [`RankLink`] with [`RankedStore`] (the only fixed-universe
/// layout carrying a rank word); the other two run on the crate's
/// [`DefaultStore`](crate::DefaultStore). That pairing is what makes the
/// axis meaningful — on a rank-less layout `RankLink` degenerates to index
/// linking and the variant would be a duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// [`RandomLink`]: the paper's randomized linking.
    Random,
    /// [`IndexLink`]: deterministic index-order linking.
    Index,
    /// [`RankLink`] on [`RankedStore`]: link-by-rank with best-effort
    /// root bumps.
    Rank,
}

impl LinkKind {
    /// All link kinds, in `order` module declaration order.
    pub const ALL: [LinkKind; 3] = [LinkKind::Random, LinkKind::Index, LinkKind::Rank];

    /// The `LinkPolicy::NAME` of the corresponding policy type.
    pub fn name(self) -> &'static str {
        match self {
            LinkKind::Random => "random",
            LinkKind::Index => "index",
            LinkKind::Rank => "rank",
        }
    }
}

/// One point of the (find × link) variant plane, as runtime data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variant {
    /// Find policy.
    pub find: FindKind,
    /// Link policy (with its paired store, see [`LinkKind`]).
    pub link: LinkKind,
}

/// The sampling default: the paper's `two-try/random`.
pub const DEFAULT_VARIANT: Variant = Variant { find: FindKind::TwoTry, link: LinkKind::Random };

impl Variant {
    /// The canonical `<find>/<link>` tag, e.g. `"two-try/random"` — the
    /// format `DSU_TUNER` accepts and diagnostics print.
    pub fn tag(self) -> String {
        format!("{}/{}", self.find.name(), self.link.name())
    }

    /// Parses a `<find>/<link>` tag. Inverse of [`tag`](Variant::tag).
    pub fn parse(s: &str) -> Option<Variant> {
        let (f, l) = s.split_once('/')?;
        let find = FindKind::ALL.into_iter().find(|k| k.name() == f)?;
        let link = LinkKind::ALL.into_iter().find(|k| k.name() == l)?;
        Some(Variant { find, link })
    }

    /// Every variant in the plane, find-major.
    pub fn all() -> impl Iterator<Item = Variant> {
        FindKind::ALL
            .into_iter()
            .flat_map(|find| LinkKind::ALL.into_iter().map(move |link| Variant { find, link }))
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.find.name(), self.link.name())
    }
}

macro_rules! variants {
    ($( $arm:ident : $fk:ident, $lk:ident, $f:ty, $s:ty, $l:ty; )*) => {
        /// One monomorphized (find × link) variant, dispatched by enum
        /// discriminant at the operation boundary.
        ///
        /// Each arm is a concrete [`Dsu`] instantiation — the find loops
        /// inside are fully monomorphized, so the only dynamic cost of
        /// tuned dispatch is the `match` below each method.
        #[derive(Debug)]
        pub enum VariantDsu {
            $(
                #[doc = concat!("`", stringify!($fk), "` × `", stringify!($lk), "`.")]
                $arm(Dsu<$f, $s, $l>),
            )*
        }

        impl VariantDsu {
            /// Builds a fresh structure of the given variant over `n`
            /// elements, ids seeded from `seed`.
            pub fn build(v: Variant, n: usize, seed: u64) -> Self {
                match (v.find, v.link) {
                    $( (FindKind::$fk, LinkKind::$lk) => VariantDsu::$arm(Dsu::with_seed(n, seed)), )*
                }
            }

            /// Which point of the plane this is.
            pub fn variant(&self) -> Variant {
                match self {
                    $( VariantDsu::$arm(_) => Variant { find: FindKind::$fk, link: LinkKind::$lk }, )*
                }
            }

            /// See [`Dsu::len`].
            pub fn len(&self) -> usize {
                match self { $( VariantDsu::$arm(d) => d.len(), )* }
            }

            /// `true` if the universe is empty.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// See [`Dsu::set_count`].
            pub fn set_count(&self) -> usize {
                match self { $( VariantDsu::$arm(d) => d.set_count(), )* }
            }

            /// See [`Dsu::find`].
            pub fn find(&self, x: usize) -> usize {
                match self { $( VariantDsu::$arm(d) => d.find(x), )* }
            }

            /// See [`Dsu::same_set`].
            pub fn same_set(&self, x: usize, y: usize) -> bool {
                match self { $( VariantDsu::$arm(d) => d.same_set(x, y), )* }
            }

            /// See [`Dsu::unite`].
            pub fn unite(&self, x: usize, y: usize) -> bool {
                match self { $( VariantDsu::$arm(d) => d.unite(x, y), )* }
            }

            /// See [`Dsu::same_set_with`].
            pub fn same_set_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
                match self { $( VariantDsu::$arm(d) => d.same_set_with(x, y, stats), )* }
            }

            /// See [`Dsu::unite_with`].
            pub fn unite_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
                match self { $( VariantDsu::$arm(d) => d.unite_with(x, y, stats), )* }
            }

            /// See [`Dsu::unite_batch`].
            pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
                match self { $( VariantDsu::$arm(d) => d.unite_batch(edges), )* }
            }

            /// See [`Dsu::labels_snapshot`].
            pub fn labels_snapshot(&self) -> Vec<usize> {
                match self { $( VariantDsu::$arm(d) => d.labels_snapshot(), )* }
            }

            /// See [`Dsu::flatten`].
            pub fn flatten(&self) {
                match self { $( VariantDsu::$arm(d) => d.flatten(), )* }
            }

            /// See [`Dsu::flatten_parallel`].
            pub fn flatten_parallel(&self, threads: usize) -> OpStats {
                match self { $( VariantDsu::$arm(d) => d.flatten_parallel(threads), )* }
            }
        }
    };
}

variants! {
    NoCompactionRandom: NoCompaction, Random, NoCompaction, crate::DefaultStore, RandomLink;
    OneTryRandom:       OneTry,       Random, OneTrySplit,  crate::DefaultStore, RandomLink;
    TwoTryRandom:       TwoTry,       Random, TwoTrySplit,  crate::DefaultStore, RandomLink;
    HalvingRandom:      Halving,      Random, Halving,      crate::DefaultStore, RandomLink;
    CompressRandom:     Compress,     Random, Compress,     crate::DefaultStore, RandomLink;
    NoCompactionIndex:  NoCompaction, Index,  NoCompaction, crate::DefaultStore, IndexLink;
    OneTryIndex:        OneTry,       Index,  OneTrySplit,  crate::DefaultStore, IndexLink;
    TwoTryIndex:        TwoTry,       Index,  TwoTrySplit,  crate::DefaultStore, IndexLink;
    HalvingIndex:       Halving,      Index,  Halving,      crate::DefaultStore, IndexLink;
    CompressIndex:      Compress,     Index,  Compress,     crate::DefaultStore, IndexLink;
    NoCompactionRank:   NoCompaction, Rank,   NoCompaction, RankedStore,         RankLink;
    OneTryRank:         OneTry,       Rank,   OneTrySplit,  RankedStore,         RankLink;
    TwoTryRank:         TwoTry,       Rank,   TwoTrySplit,  RankedStore,         RankLink;
    HalvingRank:        Halving,      Rank,   Halving,      RankedStore,         RankLink;
    CompressRank:       Compress,     Rank,   Compress,     RankedStore,         RankLink;
}

/// What the tuner learned from the sampling prefix, as the decision
/// table's input.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Universe size (elements).
    pub n: usize,
    /// Counters merged over every sampled operation.
    pub stats: OpStats,
}

impl WorkloadProfile {
    /// `true` if the parent array overflows `cache_budget_bytes` — the
    /// regime where pointer chases miss to DRAM and shorter paths beat
    /// cheaper iterations.
    pub fn dram_resident(&self, cache_budget_bytes: usize) -> bool {
        self.n.saturating_mul(8) > cache_budget_bytes
    }

    /// Fraction of sampled operations that performed a link. Uniform
    /// fresh-edge streams link on most unites; skewed (hot-endpoint)
    /// streams keep re-uniting already-merged elements and link rarely.
    pub fn link_rate(&self) -> f64 {
        if self.stats.ops == 0 {
            return 0.0;
        }
        self.stats.links_ok as f64 / self.stats.ops as f64
    }
}

/// One regime row of a [`DecisionTable`].
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Matches profiles whose parent array spills past the cache budget.
    pub dram_resident: bool,
    /// Matches profiles whose sampled link rate falls below the skew
    /// threshold.
    pub skewed: bool,
    /// The variant this regime dispatches to.
    pub variant: Variant,
}

/// The shipped variant × regime table the tuner scores against.
///
/// Regimes are the cross product of two booleans — resident (does the
/// parent array fit the cache budget?) × skew (did the sampled prefix
/// keep linking, or mostly re-unite?) — so the table is four rows. The
/// variants in [`builtin`](DecisionTable::builtin) are *measured*, by
/// `variants_ab` (see `docs/benchmarks.md` and `BENCH_PR8.json`), and the
/// two extreme probes (cache-resident uniform, DRAM-resident skewed) are
/// re-checked against the live matrix by the harness.
#[derive(Debug, Clone, Copy)]
pub struct DecisionTable {
    /// One rule per regime; [`choose`](DecisionTable::choose) returns the
    /// first match, or the default variant if none matches.
    pub rules: [Rule; 4],
    /// Parent-array bytes above which a profile counts as DRAM-resident.
    pub cache_budget_bytes: usize,
    /// Sampled link rate below which a profile counts as skewed.
    pub skew_link_rate: f64,
}

impl DecisionTable {
    /// The shipped table. Variants per regime come from the PR 8
    /// `variants_ab` matrix on the reference machine; the bench's JSON
    /// carries the fingerprint that ties the numbers to the hardware.
    pub fn builtin() -> Self {
        DecisionTable {
            rules: [
                // Cache-resident: halving/index won the cache-uniform
                // probe by 1.14x over the paper default — with every word
                // in cache the win goes to the variant that touches the
                // fewest of them per op (halving writes half the compaction
                // CASes of splitting; index linking compares indices, not
                // ids). Both skew rows carry the regime winner: the
                // matrix probed residency, not skew, and the cache gap
                // between the two was inside noise.
                Rule {
                    dram_resident: false,
                    skewed: false,
                    variant: Variant { find: FindKind::Halving, link: LinkKind::Index },
                },
                Rule {
                    dram_resident: false,
                    skewed: true,
                    variant: Variant { find: FindKind::Halving, link: LinkKind::Index },
                },
                // DRAM-resident: keep the paper default. On the dram-zipf
                // probe the splitting/halving cluster is tied within ~1%
                // and the nominal winner jitters run to run, but
                // two-try/random stayed inside the tie band of every
                // winner measured — and the decisive result is negative:
                // compress measured ~2.5x WORSE (its extra full pass is
                // all misses), refuting the "aggressive compaction for
                // DRAM" intuition, and no-compaction 1.4-2.3x worse. When
                // no variant beats the default outside noise, the honest
                // table row is the default: a switch costs a replay and
                // buys nothing.
                Rule { dram_resident: true, skewed: false, variant: DEFAULT_VARIANT },
                Rule { dram_resident: true, skewed: true, variant: DEFAULT_VARIANT },
            ],
            cache_budget_bytes: 8 << 20,
            skew_link_rate: 0.5,
        }
    }

    /// Classifies `profile` and returns its regime's rule (`None` if no
    /// rule matches, which the builtin table makes impossible).
    pub fn rule_for(&self, profile: &WorkloadProfile) -> Option<&Rule> {
        let dram = profile.dram_resident(self.cache_budget_bytes);
        let skewed = profile.link_rate() < self.skew_link_rate;
        self.rules.iter().find(|r| r.dram_resident == dram && r.skewed == skewed)
    }

    /// Classifies `profile` and returns its regime's variant (the default
    /// variant if no rule matches, which the builtin table makes
    /// impossible).
    pub fn choose(&self, profile: &WorkloadProfile) -> Variant {
        self.rule_for(profile).map(|r| r.variant).unwrap_or(DEFAULT_VARIANT)
    }
}

impl Default for DecisionTable {
    fn default() -> Self {
        DecisionTable::builtin()
    }
}

/// How a [`TunedDsu`] decides, parsed from the `DSU_TUNER` environment
/// variable at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerMode {
    /// Never sample, never switch: the structure is exactly the default
    /// variant with a discriminant check per op.
    Off,
    /// Sample a prefix, score it against the table, switch once.
    Auto,
    /// Skip sampling and build this variant at construction.
    Forced(Variant),
}

impl TunerMode {
    /// Parses a `DSU_TUNER` value: `off`, `auto`, or a `<find>/<link>`
    /// tag. Unrecognized values fall back to `Auto` (the unset default)
    /// silently — a misspelled knob should degrade to the self-tuning
    /// behavior, not abort the host process. Use
    /// [`parse_recognized`](TunerMode::parse_recognized) to detect the
    /// degradation.
    pub fn parse(s: &str) -> TunerMode {
        Self::parse_recognized(s).unwrap_or(TunerMode::Auto)
    }

    /// [`parse`](TunerMode::parse) distinguishing recognized values from
    /// the degradation fallback: `None` iff `s` is neither a mode keyword
    /// nor a valid variant tag.
    pub fn parse_recognized(s: &str) -> Option<TunerMode> {
        match s.trim() {
            "off" => Some(TunerMode::Off),
            "" | "auto" => Some(TunerMode::Auto),
            tag => Variant::parse(tag).map(TunerMode::Forced),
        }
    }

    /// Reads `DSU_TUNER` from the environment (`Auto` when unset); a
    /// set-but-unrecognized value degrades to `Auto` with a one-time
    /// stderr warning ([`knob`](crate::knob)).
    pub fn from_env() -> TunerMode {
        match std::env::var("DSU_TUNER") {
            Err(_) => TunerMode::Auto,
            Ok(v) => Self::parse_recognized(&v).unwrap_or_else(|| {
                crate::knob::warn_unrecognized(
                    "DSU_TUNER",
                    &v,
                    "off | auto | <find>/<link> (e.g. `halving/index`)",
                    "auto",
                );
                TunerMode::Auto
            }),
        }
    }
}

const STATE_SAMPLING: u8 = 0;
const STATE_DECIDING: u8 = 1;
const STATE_COMMITTED: u8 = 2;

/// Default number of operations the tuner samples before deciding.
pub const DEFAULT_SAMPLE_BUDGET: u64 = 4096;

/// A union-find that picks its own (find × link) variant from the
/// workload.
///
/// Operations before the decision point run on the default variant while
/// their counters are profiled and their unite edges buffered; at the
/// decision point the profile is scored against the [`DecisionTable`] and,
/// if a different variant wins, a fresh structure is built, the buffer is
/// replayed into it, and dispatch switches over (see the module docs for
/// why replay rather than in-place relinking). All of it is safe under
/// concurrency: sampling ops hold a read lock, the switch holds the write
/// lock, so the buffer is complete when replay starts and verdicts stay
/// linearizable across the swap.
///
/// Diagnostics: [`tuner_samples`](TunedDsu::tuner_samples),
/// [`tuner_switches`](TunedDsu::tuner_switches), and
/// [`chosen_variant`](TunedDsu::chosen_variant) expose the decision;
/// [`report_into`](TunedDsu::report_into) feeds them to a [`StatsSink`]
/// for harness attribution.
///
/// # Example
///
/// ```
/// use concurrent_dsu::{TunedDsu, TunerMode, ConcurrentUnionFind};
///
/// // Forced mode pins a variant up front (what `DSU_TUNER=halving/index`
/// // does process-wide).
/// let dsu = TunedDsu::with_mode(100, 7, TunerMode::parse("halving/index"));
/// assert!(dsu.unite(1, 2));
/// assert!(dsu.same_set(2, 1));
/// assert_eq!(dsu.chosen_variant().tag(), "halving/index");
/// ```
pub struct TunedDsu {
    n: usize,
    seed: u64,
    inner: RwLock<VariantDsu>,
    state: AtomicU8,
    sampled: AtomicU64,
    switches: AtomicU64,
    sample_budget: u64,
    buffer: Mutex<Vec<(usize, usize)>>,
    profile: Mutex<OpStats>,
    table: DecisionTable,
}

impl std::fmt::Debug for TunedDsu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TunedDsu")
            .field("len", &self.n)
            .field("variant", &self.chosen_variant().tag())
            .field("committed", &(self.state.load(Ordering::Acquire) == STATE_COMMITTED))
            .field("tuner_samples", &self.tuner_samples())
            .field("tuner_switches", &self.tuner_switches())
            .finish()
    }
}

impl TunedDsu {
    /// `n` singleton sets, mode from `DSU_TUNER`, the crate's default
    /// id seed.
    pub fn new(n: usize) -> Self {
        Self::with_mode(n, Dsu::<TwoTrySplit>::DEFAULT_SEED, TunerMode::from_env())
    }

    /// `n` singleton sets with a fixed seed, mode from `DSU_TUNER`.
    pub fn with_seed(n: usize, seed: u64) -> Self {
        Self::with_mode(n, seed, TunerMode::from_env())
    }

    /// `n` singleton sets with an explicit mode (ignoring the
    /// environment) and the builtin table.
    pub fn with_mode(n: usize, seed: u64, mode: TunerMode) -> Self {
        Self::with_config(n, seed, mode, DEFAULT_SAMPLE_BUDGET, DecisionTable::builtin())
    }

    /// Full-control constructor: mode, sampling budget, and table.
    pub fn with_config(
        n: usize,
        seed: u64,
        mode: TunerMode,
        sample_budget: u64,
        table: DecisionTable,
    ) -> Self {
        let (start, state, switches) = match mode {
            TunerMode::Off => (DEFAULT_VARIANT, STATE_COMMITTED, 0),
            TunerMode::Auto => (DEFAULT_VARIANT, STATE_SAMPLING, 0),
            // A forced non-default variant counts as a switch so that
            // attribution reports show forced runs as "dispatched away
            // from the default", same as auto runs that decided to move.
            TunerMode::Forced(v) => (v, STATE_COMMITTED, u64::from(v != DEFAULT_VARIANT)),
        };
        TunedDsu {
            n,
            seed,
            inner: RwLock::new(VariantDsu::build(start, n, seed)),
            state: AtomicU8::new(state),
            sampled: AtomicU64::new(0),
            switches: AtomicU64::new(switches),
            sample_budget,
            buffer: Mutex::new(Vec::new()),
            profile: Mutex::new(OpStats::default()),
            table,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Operations routed through the sampling prefix so far.
    pub fn tuner_samples(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Variant switches committed (0 or 1; forced non-default modes
    /// count their construction-time dispatch).
    pub fn tuner_switches(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// The variant currently dispatched to. Before the decision point
    /// this is the sampling default.
    pub fn chosen_variant(&self) -> Variant {
        self.inner.read().unwrap().variant()
    }

    /// `true` once the decision point has passed (immediately, for `Off`
    /// and `Forced` modes).
    pub fn committed(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_COMMITTED
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.inner.read().unwrap().set_count()
    }

    /// Set labels for every element (see [`Dsu::labels_snapshot`]).
    pub fn labels_snapshot(&self) -> Vec<usize> {
        self.inner.read().unwrap().labels_snapshot()
    }

    /// One sequential flatten sweep on the currently dispatched variant
    /// (see [`Dsu::flatten`]); safe concurrently with ongoing operations.
    pub fn flatten(&self) {
        self.inner.read().unwrap().flatten();
    }

    /// Parallel flatten sweep on the currently dispatched variant (see
    /// [`Dsu::flatten_parallel`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn flatten_parallel(&self, threads: usize) -> OpStats {
        self.inner.read().unwrap().flatten_parallel(threads)
    }

    /// Reports the tuner's dispatch accounting into a harness sink: one
    /// `tuner_samples` bulk event and one `tuner_switch` per committed
    /// switch. Call at quiescence, once per structure — the events
    /// describe the structure's lifetime, not a per-thread share.
    pub fn report_into<Sk: StatsSink>(&self, sink: &mut Sk) {
        sink.tuner_samples(self.tuner_samples() as usize);
        for _ in 0..self.tuner_switches() {
            sink.tuner_switch();
        }
    }

    /// Returns the root of the tree currently containing `x` (stale by
    /// the time the caller looks; see [`ConcurrentUnionFind::find`]).
    pub fn find(&self, x: usize) -> usize {
        self.inner.read().unwrap().find(x)
    }

    /// Linearizable same-set test.
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        let guard = self.inner.read().unwrap();
        if self.state.load(Ordering::Acquire) == STATE_COMMITTED {
            return guard.same_set(x, y);
        }
        // Sampling: profile the op. Queries don't need buffering — the
        // replayed structure reproduces the partition, and verdicts are
        // partition-determined.
        let mut local = OpStats::default();
        let verdict = guard.same_set_with(x, y, &mut local);
        drop(guard);
        self.absorb_sample(local, 1);
        verdict
    }

    /// Unites the sets containing `x` and `y`; `true` iff this call
    /// performed the link.
    pub fn unite(&self, x: usize, y: usize) -> bool {
        let guard = self.inner.read().unwrap();
        if self.state.load(Ordering::Acquire) == STATE_COMMITTED {
            return guard.unite(x, y);
        }
        let mut local = OpStats::default();
        let verdict = guard.unite_with(x, y, &mut local);
        // Buffered while still holding the read guard: the committer
        // drains the buffer under the *write* lock, so every edge pushed
        // under a read guard is visible to the replay.
        self.buffer.lock().unwrap().push((x, y));
        drop(guard);
        self.absorb_sample(local, 1);
        verdict
    }

    /// Batch ingestion; returns the number of edges that performed a
    /// link.
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        let guard = self.inner.read().unwrap();
        if self.state.load(Ordering::Acquire) == STATE_COMMITTED {
            return guard.unite_batch(edges);
        }
        let mut local = OpStats::default();
        let mut links = 0usize;
        for &(x, y) in edges {
            links += guard.unite_with(x, y, &mut local) as usize;
        }
        self.buffer.lock().unwrap().extend_from_slice(edges);
        drop(guard);
        self.absorb_sample(local, edges.len() as u64);
        links
    }

    /// Merges a sampled op's counters into the profile, advances the
    /// sample count, and commits a decision once the budget is spent.
    fn absorb_sample(&self, local: OpStats, ops: u64) {
        self.profile.lock().unwrap().merge(&local);
        let seen = self.sampled.fetch_add(ops, Ordering::Relaxed) + ops;
        if seen >= self.sample_budget {
            self.try_commit();
        }
    }

    /// Races to become the deciding thread; the loser returns
    /// immediately. The winner scores the profile, optionally builds and
    /// replays the chosen variant, and swaps dispatch — all under the
    /// write lock, so no sampled edge can be missed and no op observes a
    /// half-switched structure.
    fn try_commit(&self) {
        if self
            .state
            .compare_exchange(STATE_SAMPLING, STATE_DECIDING, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let mut guard = self.inner.write().unwrap();
        let profile = WorkloadProfile { n: self.n, stats: *self.profile.lock().unwrap() };
        let chosen = self.table.choose(&profile);
        let edges = std::mem::take(&mut *self.buffer.lock().unwrap());
        if chosen != guard.variant() {
            let fresh = VariantDsu::build(chosen, self.n, self.seed);
            fresh.unite_batch(&edges);
            *guard = fresh;
            self.switches.fetch_add(1, Ordering::Relaxed);
        }
        self.state.store(STATE_COMMITTED, Ordering::Release);
    }
}

impl ConcurrentUnionFind for VariantDsu {
    fn len(&self) -> usize {
        VariantDsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        VariantDsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        VariantDsu::unite(self, x, y)
    }

    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        VariantDsu::unite_batch(self, edges)
    }

    fn find(&self, x: usize) -> usize {
        VariantDsu::find(self, x)
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

#[cfg(test)]
mod tests {
    use super::*;
    use sequential_dsu::{NaiveDsu, Partition};

    #[test]
    fn variant_tags_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for v in Variant::all() {
            let tag = v.tag();
            assert_eq!(Variant::parse(&tag), Some(v), "tag {tag} must parse back");
            assert!(seen.insert(tag), "tags must be distinct");
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(Variant::parse("two-try"), None);
        assert_eq!(Variant::parse("two-try/bogus"), None);
        assert_eq!(Variant::parse("bogus/random"), None);
    }

    #[test]
    fn tuner_mode_parses() {
        assert_eq!(TunerMode::parse("off"), TunerMode::Off);
        assert_eq!(TunerMode::parse("auto"), TunerMode::Auto);
        assert_eq!(TunerMode::parse(""), TunerMode::Auto);
        assert_eq!(
            TunerMode::parse(" halving/index "),
            TunerMode::Forced(Variant::parse("halving/index").unwrap())
        );
        // Misspellings degrade to auto, never panic.
        assert_eq!(TunerMode::parse("halving/indx"), TunerMode::Auto);
    }

    #[test]
    fn tuner_mode_parse_recognized_detects_degradation() {
        assert_eq!(TunerMode::parse_recognized("off"), Some(TunerMode::Off));
        assert_eq!(TunerMode::parse_recognized(""), Some(TunerMode::Auto));
        assert!(matches!(TunerMode::parse_recognized("halving/index"), Some(TunerMode::Forced(_))));
        // The misspellings that `parse` degrades to Auto are surfaced as
        // unrecognized here, which is what lets `from_env` warn.
        assert_eq!(TunerMode::parse_recognized("halving/indx"), None);
        assert_eq!(TunerMode::parse_recognized("bogus"), None);
    }

    #[test]
    fn every_variant_builds_and_matches_oracle() {
        let n = 64;
        let edges: Vec<(usize, usize)> =
            (0..3 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 11) % n)).collect();
        let mut oracle = NaiveDsu::new(n);
        for &(x, y) in &edges {
            oracle.unite(x, y);
        }
        for v in Variant::all() {
            let dsu = VariantDsu::build(v, n, 9);
            assert_eq!(dsu.variant(), v);
            assert_eq!(dsu.len(), n);
            let mut links = 0;
            for &(x, y) in &edges {
                links += dsu.unite(x, y) as usize;
            }
            assert_eq!(links, n - oracle.set_count(), "{v}");
            assert_eq!(dsu.set_count(), oracle.set_count(), "{v}");
            assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition(), "{v}");
            assert!(dsu.same_set(edges[0].0, dsu.find(edges[0].0)), "{v}");
        }
    }

    #[test]
    fn off_mode_never_samples_or_switches() {
        let dsu = TunedDsu::with_mode(32, 1, TunerMode::Off);
        for i in 0..31 {
            dsu.unite(i, i + 1);
        }
        assert_eq!(dsu.tuner_samples(), 0);
        assert_eq!(dsu.tuner_switches(), 0);
        assert_eq!(dsu.chosen_variant(), DEFAULT_VARIANT);
        assert!(dsu.committed());
        assert_eq!(dsu.set_count(), 1);
    }

    #[test]
    fn forced_mode_dispatches_immediately() {
        let v = Variant::parse("compress/rank").unwrap();
        let dsu = TunedDsu::with_mode(32, 1, TunerMode::Forced(v));
        assert!(dsu.committed());
        assert_eq!(dsu.chosen_variant(), v);
        assert_eq!(dsu.tuner_switches(), 1, "forced non-default counts as a dispatch switch");
        dsu.unite(0, 1);
        assert_eq!(dsu.tuner_samples(), 0);
        // Forcing the default is not a switch.
        let dflt = TunedDsu::with_mode(32, 1, TunerMode::Forced(DEFAULT_VARIANT));
        assert_eq!(dflt.tuner_switches(), 0);
    }

    #[test]
    fn auto_mode_commits_table_choice_and_keeps_partition() {
        // Tiny budget so the switch happens mid-stream; a DRAM-sized
        // universe is impractical here, so this exercises the
        // cache-resident rows (choice = default → no switch) and the
        // forced path covers non-default dispatch. The mid-stream
        // *switching* replay is exercised with a custom table below.
        let n = 256;
        let table = DecisionTable {
            rules: [
                // Same regime split as builtin, but the cache-resident
                // rows pick a non-default variant so the replay path runs.
                Rule {
                    dram_resident: false,
                    skewed: false,
                    variant: Variant::parse("halving/index").unwrap(),
                },
                Rule {
                    dram_resident: false,
                    skewed: true,
                    variant: Variant::parse("halving/index").unwrap(),
                },
                Rule { dram_resident: true, skewed: false, variant: DEFAULT_VARIANT },
                Rule { dram_resident: true, skewed: true, variant: DEFAULT_VARIANT },
            ],
            ..DecisionTable::builtin()
        };
        let dsu = TunedDsu::with_config(n, 5, TunerMode::Auto, 64, table);
        let edges: Vec<(usize, usize)> =
            (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 7) % n)).collect();
        let mut oracle = NaiveDsu::new(n);
        let mut links = 0;
        for &(x, y) in &edges {
            assert_eq!(dsu.unite(x, y), oracle.unite(x, y), "verdicts diverged at ({x},{y})");
            links += 1;
            if links == 64 {
                // Decision point: the cache-resident table row must have
                // switched us onto halving/index.
                assert!(dsu.committed());
                assert_eq!(dsu.chosen_variant(), Variant::parse("halving/index").unwrap());
                assert_eq!(dsu.tuner_switches(), 1);
            }
        }
        assert_eq!(dsu.tuner_samples(), 64);
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
        let mut stats = OpStats::default();
        dsu.report_into(&mut stats);
        assert_eq!((stats.tuner_samples, stats.tuner_switches), (64, 1));
    }

    #[test]
    fn auto_mode_keeps_default_when_table_says_so() {
        // A table whose every row names the default variant: committing
        // must not count a switch and must keep the original structure.
        let keep = DecisionTable {
            rules: DecisionTable::builtin().rules.map(|r| Rule { variant: DEFAULT_VARIANT, ..r }),
            ..DecisionTable::builtin()
        };
        let dsu = TunedDsu::with_config(128, 5, TunerMode::Auto, 32, keep);
        let mut oracle = NaiveDsu::new(128);
        for i in 0..127 {
            assert_eq!(dsu.unite(i, i + 1), oracle.unite(i, i + 1));
        }
        assert!(dsu.committed());
        assert_eq!(dsu.chosen_variant(), DEFAULT_VARIANT);
        assert_eq!(dsu.tuner_switches(), 0);
        assert_eq!(dsu.tuner_samples(), 32);
        assert_eq!(dsu.set_count(), 1);
    }

    #[test]
    fn profile_classifies_regimes() {
        let stats = OpStats { ops: 100, links_ok: 90, ..OpStats::default() };
        let uniform = WorkloadProfile { n: 1 << 10, stats };
        let table = DecisionTable::builtin();
        assert!(!uniform.dram_resident(table.cache_budget_bytes));
        assert!(uniform.link_rate() > table.skew_link_rate);
        assert_eq!(table.choose(&uniform), table.rules[0].variant);

        let skewed_stats = OpStats { ops: 100, links_ok: 5, ..OpStats::default() };
        let dram_skewed = WorkloadProfile { n: 1 << 28, stats: skewed_stats };
        assert!(dram_skewed.dram_resident(table.cache_budget_bytes));
        assert_eq!(table.choose(&dram_skewed), table.rules[3].variant);
    }
}
