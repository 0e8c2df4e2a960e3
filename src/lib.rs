//! # jt-dsu — a reproduction of *A Randomized Concurrent Algorithm for
//! Disjoint Set Union* (Jayanti & Tarjan, PODC 2016)
//!
//! This meta crate re-exports the whole workspace so examples and
//! downstream users can depend on one name:
//!
//! * [`concurrent_dsu`] — the paper's contribution: wait-free union-find
//!   with randomized linking ([`Dsu`]; [`GrowableDsu`] is `Dsu` on the
//!   growable store);
//! * [`sequential_dsu`] — the Section 2 sequential baselines and the
//!   inverse-Ackermann utilities;
//! * [`dsu_baselines`] — Anderson–Woll-style rank linking and a global
//!   lock baseline;
//! * [`apram`] / [`apram_dsu`] — the APRAM model as an executable
//!   simulator, and the algorithms as step machines;
//! * [`linearize`] — Wing–Gong linearizability checking;
//! * [`dsu_graph`] — graph generators and the applications (connected
//!   components, MST, percolation);
//! * [`dsu_workloads`] — seeded workload generation, including the
//!   Lemma 5.3 lower-bound construction;
//! * [`dsu_harness`] — the experiment driver behind the `e01`–`e16`
//!   binaries and the interleaved A/B examples.
//!
//! ## Quick start
//!
//! ```
//! use jt_dsu::Dsu;
//!
//! let dsu: Dsu = Dsu::new(8);
//! assert!(dsu.unite(0, 1));
//! assert!(dsu.same_set(1, 0));
//!
//! // Edges that arrive in bursts go through the batch path (gather
//! // waves + same-set filtering + seeded link CASes; see
//! // `concurrent_dsu::bulk`):
//! assert_eq!(dsu.unite_batch(&[(1, 2), (2, 0), (3, 4)]), 2);
//! assert_eq!(dsu.set_count(), 5);
//! ```
//!
//! ## Keyed entity resolution
//!
//! Elements that are strings, sparse u64s, or any hashable keys go
//! through [`KeyedDsu`] — a lock-free id table in front of the
//! growable core, replacing the `RwLock<HashMap>` facade real systems
//! deploy (measured against exactly that baseline in `keyed_ab`):
//!
//! ```
//! use jt_dsu::KeyedDsu;
//!
//! let dsu: KeyedDsu<String> = KeyedDsu::new();
//! dsu.merge_keys(&"alice".to_string(), &"al".to_string());
//! assert!(dsu.same_set(&"al".to_string(), &"alice".to_string()));
//! assert_eq!(dsu.key_count(), 2);
//! ```
//!
//! ## Choosing a storage layout
//!
//! [`Dsu`] is also generic over its parent store: packed (default) or flat
//! (universes beyond `2^32`) — see the layout-selection guide in
//! [`concurrent_dsu::store`]:
//!
//! ```
//! use jt_dsu::concurrent_dsu::{Dsu, FlatStore, TwoTrySplit};
//!
//! let dsu: Dsu<TwoTrySplit, FlatStore> = Dsu::new(1000);
//! assert!(dsu.unite(1, 999));
//! ```
//!
//! ## CI
//!
//! `.github/workflows/ci.yml` runs, on every push/PR:
//!
//! * `lint`: fmt, clippy and rustdoc, all `-D warnings`, plus the two
//!   gates' own unit tests;
//! * `test`, one cell per memory ordering: the `default` cell builds and
//!   tests the whole workspace (doc-tests, the fault and native
//!   linearizability suites included) and the benchmark, and fails unless
//!   the benchmark's 16 single-client count rows equal
//!   `scripts/count_rows_baseline.json`; the `strict-sc` cell runs the
//!   core suite with every access `SeqCst`. Tests name the flat layout and
//!   index linking explicitly where they cover them, so both cells run
//!   those too;
//! * `bench-smoke`, which runs the A/B examples and the `chaos_ab` sweep
//!   in quick mode, archives their JSON (machine-fingerprinted), and
//!   fail-soft-compares the A/B examples' medians *and* ratios against the
//!   previous run's cached baseline (>15% regression warns in the job
//!   summary, never turns red; baselines from a different machine are
//!   skipped, not compared; the chaos sweep fails only on a history that
//!   does not linearize);
//! * `harness-smoke`: every experiment binary (e01–e16, e13 and e16 are
//!   the fault and rollback-under-chaos ones) end to end in quick mode
//!   through `run_all`, and `store_diag`'s phase timings and layer counter
//!   checks (the cross-layout counter equality and exact-zero checks run
//!   as `crates/core/tests/attribution.rs` in the test job).
//!
//! A weekly `schedule` (plus `workflow_dispatch`) triggers `bench-full`,
//! the non-quick A/B runs. Runs on the same ref cancel their
//! predecessors.
//!
//! See `ARCHITECTURE.md` for the crate map and layer diagram,
//! `docs/benchmarks.md` for every measured claim and its artifact, and
//! `ROADMAP.md` for direction.

pub use apram;
pub use apram_dsu;
pub use concurrent_dsu;
pub use dsu_baselines;
pub use dsu_graph;
pub use dsu_harness;
pub use dsu_workloads;
pub use linearize;
pub use sequential_dsu;

pub use concurrent_dsu::{
    BatchOutcome, ConcurrentUnionFind, Dsu, Epoch, GrowableDsu, Halving, KeyedDsu, NoCompaction,
    OneTrySplit, OpStats, TwoTrySplit, VersionedDsu,
};
pub use sequential_dsu::{Compaction, Linking, Partition, SeqDsu};
