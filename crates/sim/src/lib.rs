//! The paper's algorithms, hand-compiled to APRAM **step machines**.
//!
//! The native `concurrent-dsu` crate runs on real threads, where the OS
//! schedules instructions and no experiment can dictate an interleaving.
//! This crate re-expresses the very same pseudocode — `Find` without
//! compaction, with one-try and two-try splitting, halving, `SameSet`,
//! `Unite`, and their early-termination variants — as explicit state
//! machines over the [`apram`] simulator, where every shared-memory access
//! is one schedulable step. That unlocks the paper's schedule-sensitive
//! constructions:
//!
//! * **Section 3's lockstep simulation** — two processes doing halving in
//!   lockstep behave exactly like one process doing splitting
//!   ([`lockstep_halving_vs_splitting`]);
//! * **Theorem 5.4's lower bound** — lockstep `SameSet` storms against
//!   binomial trees (driven by the harness, experiment E5);
//! * **Lemma 3.2's linearizability** — arbitrary adversarial schedules
//!   produce timed histories ([`OpRecord`]) fed straight into the
//!   [`linearize`] checker (experiment E8).
//!
//! # Example
//!
//! ```
//! use apram_dsu::{DsuProcess, Policy, random_ids, run_concurrent};
//! use apram::SeededRandom;
//! use linearize::{check_linearizable, DsuOp, DsuSpec};
//!
//! let ids = random_ids(4, 42);
//! let procs = vec![
//!     DsuProcess::new(vec![DsuOp::Unite(0, 1), DsuOp::SameSet(0, 2)], Policy::TwoTry, false, ids.clone()),
//!     DsuProcess::new(vec![DsuOp::Unite(1, 2)], Policy::TwoTry, false, ids.clone()),
//! ];
//! let outcome = run_concurrent(4, procs, &mut SeededRandom::new(7), 100_000);
//! assert!(outcome.report.completed);
//! let history = outcome.history();
//! assert!(check_linearizable(&DsuSpec::new(4), &history).is_ok());
//! ```

pub mod explore;
pub mod find_sm;
pub mod lockstep;
pub mod process;

pub use explore::{explore_all_schedules, ExploreReport};
pub use find_sm::{AdvanceSm, FindSm, Policy};
pub use lockstep::{lockstep_halving_vs_splitting, LockstepComparison};
pub use process::{
    random_ids, run_concurrent, ConcurrentOutcome, DsuProcess, FindProgram, OpRecord,
};
