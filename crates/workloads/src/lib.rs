//! Workload generation for the disjoint-set-union experiments.
//!
//! The paper proves its bounds over *arbitrary* operation sequences; the
//! experiments need concrete, reproducible ones. This crate provides:
//!
//! * [`Op`] / [`Workload`] — an operation trace (unite / same-set over
//!   `0..n`), with helpers to shard a trace across `p` threads;
//! * [`WorkloadSpec`] — seeded generators: uniform or Zipf-skewed
//!   ([`Zipf`], our own rejection-inversion sampler) element choice, with
//!   a configurable unite : same-set mix;
//! * [`EdgeBatchSpec`] — batched edge arrivals (bursts of endpoint pairs,
//!   optionally Zipf-skewed): the input shape of the batch-ingestion
//!   experiments;
//! * [`KeyedSpec`] / [`KeyedWorkload`] — keyed entity-resolution traces
//!   (string keys, sparse u64 universes, insert-heavy churn): the input
//!   shape of the `KeyedDsu` experiments, which no dense `0..n` generator
//!   can express;
//! * [`binomial`] — the adversarial workload of paper Lemma 5.3 /
//!   Theorem 5.4: a binomial-tree-style union schedule whose resulting
//!   forest has Ω(log k) average depth, followed by a `SameSet` storm that
//!   realizes the Ω(m log(np/m)) lower bound.
//!
//! Every generator is deterministic in its seed, so an experiment's exact
//! input is reproduced by re-running it with the same seed.
//!
//! # Example
//!
//! ```
//! use dsu_workloads::{WorkloadSpec, ElementDist};
//!
//! let spec = WorkloadSpec::new(1000, 5000).unite_fraction(0.3);
//! let workload = spec.generate(42);
//! assert_eq!(workload.ops.len(), 5000);
//! let shards = workload.shard(4);
//! assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), 5000);
//! ```

pub mod batched;
pub mod binomial;
pub mod gen;
pub mod keyed;
pub mod op;
pub mod zipf;

pub use batched::{EdgeBatchSpec, EdgeBatches};
pub use binomial::{binomial_build_ops, lower_bound_workload, LowerBoundWorkload};
pub use gen::{ElementDist, WorkloadSpec};
pub use keyed::{KeyedOp, KeyedSpec, KeyedWorkload};
pub use op::{Op, Workload};
pub use zipf::Zipf;
