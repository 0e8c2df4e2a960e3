//! Work accounting.
//!
//! The paper's bounds are about *total work*: the number of primitive steps
//! (shared-memory reads and CASes) summed over all processes. To measure it
//! without perturbing the measured thing, each operation has a `*_with`
//! variant that reports events into a caller-owned [`StatsSink`]. The
//! default sink `()` compiles to nothing; [`OpStats`] is a plain struct of
//! counters the harness keeps per thread and sums afterwards — no shared
//! cache lines, no atomics on the hot path.

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
    /// retries against injected faults.
    fn cas_retry(&mut self);
    /// A fault-injection layer ([`FaultyStore`](crate::FaultyStore))
    /// reports `n` injected faults (spurious CAS failures, delayed loads,
    /// stall windows). Fed from
    /// [`fault_report`](crate::FaultyStore::fault_report) totals by
    /// harness code at quiescence — the store itself never sees a sink.
    /// Exactly zero on unfaulted runs.
    fn faults_injected(&mut self, n: usize);
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
    /// A [`KeyedDsu`](crate::KeyedDsu) installed a doubled table because
    /// its keys passed 7/8 of its newest one — the keyed id table's growth
    /// event (entries then migrate into it in chunks; the first table is
    /// not counted).
    fn id_table_resize(&mut self);
    /// A `find` traversal reached its root after `n` parent hops (`n = 0`
    /// when the start node was already a root): the *path length* the
    /// work bounds charge. The loads behind the hops are already counted
    /// by [`read`](StatsSink::read), so this is attribution, not extra
    /// access accounting.
    fn find_hops(&mut self, n: usize);
    /// A [`VersionedDsu`](crate::VersionedDsu) recorded an O(1) snapshot
    /// (an epoch boundary: segment pointers cloned, the epoch counter
    /// bumped — no cells copied). Exactly zero on unversioned runs.
    fn snapshot_taken(&mut self);
    /// An [`EpochStore`](crate::EpochStore) copy-on-wrote one segment: the
    /// first mutation after a snapshot displaced the shared segment node
    /// with a private copy. Fed from
    /// [`epoch_report`](crate::EpochFork::epoch_report) totals by harness
    /// code at quiescence, like [`faults_injected`]. Exactly zero on
    /// unversioned runs.
    ///
    /// [`faults_injected`]: StatsSink::faults_injected
    fn segments_forked(&mut self, n: usize);
    /// A [`VersionedDsu`](crate::VersionedDsu) rolled the forest back to a
    /// recorded snapshot. Exactly zero on unversioned runs.
    fn rollback_done(&mut self);
    /// Segment forks copied `n` cells (the actual CoW byte traffic behind
    /// [`segments_forked`](StatsSink::segments_forked); fed from the same
    /// quiescent report). Exactly zero on unversioned runs.
    fn cow_copies(&mut self, n: usize);
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
    fn faults_injected(&mut self, _n: usize) {}
    #[inline(always)]
    fn key_inserted(&mut self) {}
    #[inline(always)]
    fn key_probe_steps(&mut self, _n: usize) {}
    #[inline(always)]
    fn id_table_resize(&mut self) {}
    #[inline(always)]
    fn find_hops(&mut self, _n: usize) {}
    #[inline(always)]
    fn snapshot_taken(&mut self) {}
    #[inline(always)]
    fn segments_forked(&mut self, _n: usize) {}
    #[inline(always)]
    fn rollback_done(&mut self) {}
    #[inline(always)]
    fn cow_copies(&mut self, _n: usize) {}
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
    /// Faults injected by a fault-injection layer, as reported at
    /// quiescence by harness code. Exactly zero on unfaulted runs.
    pub faults_injected: u64,
    /// Distinct keys inserted into a keyed id table (one per claim-winning
    /// insert; same-key races count once).
    pub keys_inserted: u64,
    /// Id-table probe groups examined by keyed resolutions (the keyed
    /// layer's walk cost; compare against `reads` to see where a keyed
    /// workload spends its memory traffic).
    pub key_probe_steps: u64,
    /// Doubled tables installed by keyed id tables (growth events, each
    /// followed by a chunked migration; first tables not counted).
    pub id_table_resizes: u64,
    /// Parent hops summed over all `find` traversals (path length; the
    /// hops' loads are already in `reads`). `find_hops / finds` is the mean
    /// observed tree depth.
    pub find_hops: u64,
    /// O(1) snapshots recorded by versioned structures (epoch boundaries;
    /// no cells copied at snapshot time). Exactly zero on unversioned runs.
    pub snapshots_taken: u64,
    /// Segments copy-on-write-forked (first mutation of a shared segment
    /// after a snapshot). Exactly zero on unversioned runs.
    pub segments_forked: u64,
    /// Rollbacks to a recorded snapshot. Exactly zero on unversioned runs.
    pub rollbacks: u64,
    /// Cells copied by segment forks — the deferred CoW cost the O(1)
    /// snapshots push onto first-mutation. Exactly zero on unversioned
    /// runs.
    pub cow_copies: u64,
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
        self.faults_injected += other.faults_injected;
        self.keys_inserted += other.keys_inserted;
        self.key_probe_steps += other.key_probe_steps;
        self.id_table_resizes += other.id_table_resizes;
        self.find_hops += other.find_hops;
        self.snapshots_taken += other.snapshots_taken;
        self.segments_forked += other.segments_forked;
        self.rollbacks += other.rollbacks;
        self.cow_copies += other.cow_copies;
    }

    /// Mean find-loop iterations per operation (`NaN` if no ops ran).
    pub fn iters_per_op(&self) -> f64 {
        self.loop_iters as f64 / self.ops as f64
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
    fn faults_injected(&mut self, n: usize) {
        self.faults_injected += n as u64;
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
    fn id_table_resize(&mut self) {
        self.id_table_resizes += 1;
    }
    #[inline]
    fn find_hops(&mut self, n: usize) {
        self.find_hops += n as u64;
    }
    #[inline]
    fn snapshot_taken(&mut self) {
        self.snapshots_taken += 1;
    }
    #[inline]
    fn segments_forked(&mut self, n: usize) {
        self.segments_forked += n as u64;
    }
    #[inline]
    fn rollback_done(&mut self) {
        self.rollbacks += 1;
    }
    #[inline]
    fn cow_copies(&mut self, n: usize) {
        self.cow_copies += n as u64;
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
    fn retry_and_fault_counters_count_and_merge() {
        let mut a = OpStats::default();
        a.link_fail();
        a.cas_retry();
        a.cas_retry();
        a.faults_injected(5);
        assert_eq!((a.cas_retries, a.faults_injected), (2, 5));
        // Retries and injected-fault tallies are bookkeeping; the accesses
        // they describe are already counted by link_fail/read.
        assert_eq!(a.memory_accesses(), 1);
        let mut b = OpStats::default();
        b.cas_retry();
        b.merge(&a);
        assert_eq!((b.cas_retries, b.faults_injected), (3, 5));
        // The unit sink accepts the new events too.
        let mut unit = ();
        unit.cas_retry();
        unit.faults_injected(1);
    }

    #[test]
    fn keyed_counters_count_and_merge() {
        let mut a = OpStats::default();
        a.key_inserted();
        a.key_inserted();
        a.key_probe_steps(5);
        a.id_table_resize();
        assert_eq!((a.keys_inserted, a.key_probe_steps, a.id_table_resizes), (2, 5, 1));
        // Keyed-table probes are bookkeeping here; the slot loads they
        // describe live outside the parent store's access totals.
        assert_eq!(a.memory_accesses(), 0);
        let mut b = OpStats::default();
        b.key_probe_steps(2);
        b.merge(&a);
        assert_eq!((b.keys_inserted, b.key_probe_steps, b.id_table_resizes), (2, 7, 1));
        // The unit sink accepts the new events too.
        let mut unit = ();
        unit.key_inserted();
        unit.key_probe_steps(1);
        unit.id_table_resize();
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

    #[test]
    fn epoch_counters_count_and_merge() {
        let mut a = OpStats::default();
        a.snapshot_taken();
        a.snapshot_taken();
        a.segments_forked(3);
        a.rollback_done();
        a.cow_copies(128);
        assert_eq!(
            (a.snapshots_taken, a.segments_forked, a.rollbacks, a.cow_copies),
            (2, 3, 1, 128)
        );
        // Epoch events are versioning bookkeeping, not shared-memory
        // accesses — the fork copies' loads/stores happen outside the
        // ParentStore access contract the paper's work bounds count.
        assert_eq!(a.memory_accesses(), 0);
        let mut b = OpStats::default();
        b.rollback_done();
        b.merge(&a);
        assert_eq!(
            (b.snapshots_taken, b.segments_forked, b.rollbacks, b.cow_copies),
            (2, 3, 2, 128)
        );
        // The unit sink accepts the new events too.
        let mut unit = ();
        unit.snapshot_taken();
        unit.segments_forked(1);
        unit.rollback_done();
        unit.cow_copies(1);
    }

    #[test]
    fn iters_per_op() {
        let mut s = OpStats::default();
        s.op_start();
        s.op_start();
        s.loop_iter();
        s.loop_iter();
        s.loop_iter();
        assert!((s.iters_per_op() - 1.5).abs() < 1e-12);
    }
}
