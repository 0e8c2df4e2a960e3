//! Work accounting.
//!
//! The paper's bounds are about *total work*: the number of primitive steps
//! (shared-memory reads and CASes) summed over all processes. To measure it
//! without perturbing the measured thing, each operation has a `*_with`
//! variant that reports its steps into a caller-owned [`StatsSink`]. The
//! default sink `()` compiles to nothing; [`OpStats`] is a plain struct of
//! counters the harness keeps per thread and sums afterwards — no shared
//! cache lines, no atomics on the hot path.
//!
//! A sink sees operation steps only: the reads, CASes and loop iterations
//! of the paper's accounting, plus the id-table probes and key claims of a
//! keyed operation. A layer's own events are counters on the structure
//! that does that work, read at quiescence:
//! [`FaultyStore::fault_report`](crate::FaultyStore::fault_report) for
//! injected faults, [`EpochFork::epoch_report`](crate::EpochFork::epoch_report)
//! for copy-on-write forks,
//! [`VersionedDsu::snapshots_taken`](crate::VersionedDsu::snapshots_taken)
//! and [`rollbacks`](crate::VersionedDsu::rollbacks) for epoch transitions,
//! and [`KeyedDsu::id_table_resizes`](crate::KeyedDsu::id_table_resizes)
//! for id-table growth.

/// Receives fine-grained work events from the union-find operations.
///
/// Methods are `&mut self`: a sink belongs to one thread. The unit type `()`
/// implements the trait as a zero-cost no-op. No method has a default, so
/// a sink that wraps another (like [`RetryBudget`](crate::RetryBudget))
/// cannot silently drop an event by forgetting to forward it.
pub trait StatsSink {
    /// A find-loop iteration started (the unit of "cost" in Theorem 5.1's
    /// accounting: one iteration = one grandparent probe, possibly with
    /// CASes).
    fn loop_iter(&mut self);
    /// A shared parent pointer was read.
    fn read(&mut self);
    /// `n` shared parent pointers were read at once (a batch gather wave).
    fn reads(&mut self, n: usize);
    /// A CAS on a parent pointer succeeded during path compaction.
    fn compact_cas_ok(&mut self);
    /// A CAS on a parent pointer failed during path compaction (the work
    /// Anderson & Woll's analysis ignored; see paper Section 5).
    fn compact_cas_fail(&mut self);
    /// A link CAS succeeded (a `Unite` merged two sets).
    fn link_ok(&mut self);
    /// A link CAS failed (the root moved under the `Unite`'s feet; the
    /// operation restarts its finds).
    fn link_fail(&mut self);
    /// A top-level operation (`same_set` / `unite`) started.
    fn op_start(&mut self);
    /// A `find` traversal started.
    fn find_start(&mut self);
    /// An operation is about to re-run its find/link sequence because a
    /// link CAS failed — the retry that follows every
    /// [`link_fail`](StatsSink::link_fail) on a path that loops rather
    /// than falls through. Counted separately from the failure itself so
    /// retry-budget watchdogs ([`RetryBudget`](crate::RetryBudget)) can
    /// bound *progress*, and so fault-attribution reports can compare
    /// retries against a [`fault_report`](crate::FaultyStore::fault_report).
    fn cas_retry(&mut self);
    /// A [`KeyedDsu`](crate::KeyedDsu) insert claimed a slot and allocated
    /// a fresh dense id for a previously unseen key (the losing side of a
    /// same-key race does *not* report this — exactly one per distinct
    /// key ever).
    fn key_inserted(&mut self);
    /// A keyed resolution (insert or lookup) examined `n` id-table probe
    /// groups (one cache line of 8 words each) before finding its key,
    /// claiming a word, or concluding a miss — the keyed layer's analogue
    /// of find-loop iterations.
    fn key_probe_steps(&mut self, n: usize);
    /// A `find` traversal reached its root after `n` parent hops (`n = 0`
    /// when the start node was already a root): the *path length* the
    /// work bounds charge. The loads behind the hops are already counted
    /// by [`read`](StatsSink::read), so this is attribution, not extra
    /// access accounting.
    fn find_hops(&mut self, n: usize);
}

impl StatsSink for () {
    #[inline(always)]
    fn loop_iter(&mut self) {}
    #[inline(always)]
    fn read(&mut self) {}
    #[inline(always)]
    fn reads(&mut self, _n: usize) {}
    #[inline(always)]
    fn compact_cas_ok(&mut self) {}
    #[inline(always)]
    fn compact_cas_fail(&mut self) {}
    #[inline(always)]
    fn link_ok(&mut self) {}
    #[inline(always)]
    fn link_fail(&mut self) {}
    #[inline(always)]
    fn op_start(&mut self) {}
    #[inline(always)]
    fn find_start(&mut self) {}
    #[inline(always)]
    fn cas_retry(&mut self) {}
    #[inline(always)]
    fn key_inserted(&mut self) {}
    #[inline(always)]
    fn key_probe_steps(&mut self, _n: usize) {}
    #[inline(always)]
    fn find_hops(&mut self, _n: usize) {}
}

/// Plain counters for the events of [`StatsSink`]. Keep one per thread and
/// [`merge`](OpStats::merge) them after the run.
///
/// # Example
///
/// ```
/// use concurrent_dsu::{Dsu, OpStats};
///
/// let dsu: Dsu = Dsu::new(16);
/// let mut stats = OpStats::default();
/// dsu.unite_with(0, 1, &mut stats);
/// dsu.same_set_with(0, 1, &mut stats);
/// assert_eq!(stats.ops, 2);
/// assert_eq!(stats.links_ok, 1);
/// assert!(stats.reads > 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Top-level operations started.
    pub ops: u64,
    /// `find` traversals started.
    pub finds: u64,
    /// Find-loop iterations (the paper's unit of find cost).
    pub loop_iters: u64,
    /// Shared parent-pointer reads.
    pub reads: u64,
    /// Successful compaction CASes (pointer updates).
    pub compact_cas_ok: u64,
    /// Failed compaction CASes.
    pub compact_cas_fail: u64,
    /// Successful link CASes.
    pub links_ok: u64,
    /// Failed link CASes.
    pub links_fail: u64,
    /// Find/link retries after failed link CASes (each follows a
    /// `links_fail` on a looping path; bounded by retry-budget watchdogs).
    pub cas_retries: u64,
    /// Distinct keys inserted into a keyed id table (one per claim-winning
    /// insert; same-key races count once).
    pub keys_inserted: u64,
    /// Id-table probe groups examined by keyed resolutions (the keyed
    /// layer's walk cost; compare against `reads` to see where a keyed
    /// workload spends its memory traffic).
    pub key_probe_steps: u64,
    /// Parent hops summed over all `find` traversals (path length; the
    /// hops' loads are already in `reads`). `find_hops / finds` is the mean
    /// observed tree depth.
    pub find_hops: u64,
}

impl OpStats {
    /// Sum of all shared-memory accesses (reads + all CASes): the paper's
    /// "total number of primitive steps" up to the constant local work per
    /// access.
    pub fn memory_accesses(&self) -> u64 {
        self.reads + self.compact_cas_ok + self.compact_cas_fail + self.links_ok + self.links_fail
    }

    /// All CAS attempts, successful or not.
    pub fn cas_attempts(&self) -> u64 {
        self.compact_cas_ok + self.compact_cas_fail + self.links_ok + self.links_fail
    }

    /// Adds another thread's counters into this one.
    pub fn merge(&mut self, other: &OpStats) {
        self.ops += other.ops;
        self.finds += other.finds;
        self.loop_iters += other.loop_iters;
        self.reads += other.reads;
        self.compact_cas_ok += other.compact_cas_ok;
        self.compact_cas_fail += other.compact_cas_fail;
        self.links_ok += other.links_ok;
        self.links_fail += other.links_fail;
        self.cas_retries += other.cas_retries;
        self.keys_inserted += other.keys_inserted;
        self.key_probe_steps += other.key_probe_steps;
        self.find_hops += other.find_hops;
    }

    /// Mean parent hops per `find` — the observed tree depth (`NaN` if no
    /// finds ran).
    pub fn hops_per_find(&self) -> f64 {
        self.find_hops as f64 / self.finds as f64
    }
}

impl StatsSink for OpStats {
    #[inline]
    fn loop_iter(&mut self) {
        self.loop_iters += 1;
    }
    #[inline]
    fn read(&mut self) {
        self.reads += 1;
    }
    #[inline]
    fn reads(&mut self, n: usize) {
        self.reads += n as u64;
    }
    #[inline]
    fn compact_cas_ok(&mut self) {
        self.compact_cas_ok += 1;
    }
    #[inline]
    fn compact_cas_fail(&mut self) {
        self.compact_cas_fail += 1;
    }
    #[inline]
    fn link_ok(&mut self) {
        self.links_ok += 1;
    }
    #[inline]
    fn link_fail(&mut self) {
        self.links_fail += 1;
    }
    #[inline]
    fn op_start(&mut self) {
        self.ops += 1;
    }
    #[inline]
    fn find_start(&mut self) {
        self.finds += 1;
    }
    #[inline]
    fn cas_retry(&mut self) {
        self.cas_retries += 1;
    }
    #[inline]
    fn key_inserted(&mut self) {
        self.keys_inserted += 1;
    }
    #[inline]
    fn key_probe_steps(&mut self, n: usize) {
        self.key_probe_steps += n as u64;
    }
    #[inline]
    fn find_hops(&mut self, n: usize) {
        self.find_hops += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_sink_is_inert() {
        let mut sink = ();
        sink.loop_iter();
        sink.read();
        sink.link_ok();
        // Nothing to assert beyond "it compiles and runs".
    }

    #[test]
    fn opstats_counts_and_merges() {
        let mut a = OpStats::default();
        a.op_start();
        a.find_start();
        a.loop_iter();
        a.read();
        a.read();
        a.compact_cas_ok();
        a.link_fail();
        assert_eq!(a.ops, 1);
        assert_eq!(a.reads, 2);
        assert_eq!(a.memory_accesses(), 4);
        assert_eq!(a.cas_attempts(), 2);

        let mut b = OpStats::default();
        b.op_start();
        b.link_ok();
        b.merge(&a);
        assert_eq!(b.ops, 2);
        assert_eq!(b.links_ok, 1);
        assert_eq!(b.links_fail, 1);
        assert_eq!(b.reads, 2);
    }

    #[test]
    fn retry_counters_count_and_merge() {
        let mut a = OpStats::default();
        a.link_fail();
        a.cas_retry();
        a.cas_retry();
        assert_eq!(a.cas_retries, 2);
        // Retries are bookkeeping; the accesses they describe are already
        // counted by link_fail/read.
        assert_eq!(a.memory_accesses(), 1);
        let mut b = OpStats::default();
        b.cas_retry();
        b.merge(&a);
        assert_eq!(b.cas_retries, 3);
        // The unit sink accepts the event too.
        let mut unit = ();
        unit.cas_retry();
    }

    #[test]
    fn keyed_counters_count_and_merge() {
        let mut a = OpStats::default();
        a.key_inserted();
        a.key_inserted();
        a.key_probe_steps(5);
        assert_eq!((a.keys_inserted, a.key_probe_steps), (2, 5));
        // Keyed-table probes are bookkeeping here; the slot loads they
        // describe live outside the parent store's access totals.
        assert_eq!(a.memory_accesses(), 0);
        let mut b = OpStats::default();
        b.key_probe_steps(2);
        b.merge(&a);
        assert_eq!((b.keys_inserted, b.key_probe_steps), (2, 7));
        // The unit sink accepts the new events too.
        let mut unit = ();
        unit.key_inserted();
        unit.key_probe_steps(1);
    }

    #[test]
    fn find_hops_count_and_merge() {
        let mut a = OpStats::default();
        a.find_start();
        a.find_start();
        a.find_hops(3);
        a.find_hops(0);
        assert_eq!(a.find_hops, 3);
        assert!((a.hops_per_find() - 1.5).abs() < 1e-12);
        // Hops are attribution bookkeeping; the loads they describe are
        // already counted by read.
        assert_eq!(a.memory_accesses(), 0);
        let mut b = OpStats::default();
        b.find_hops(2);
        b.merge(&a);
        assert_eq!(b.find_hops, 5);
        // The unit sink accepts the event too.
        let mut unit = ();
        unit.find_hops(1);
    }
}
