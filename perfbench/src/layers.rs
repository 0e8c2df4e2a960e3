//! The traced run: the per-layer table.
//!
//! It first runs the chosen workload with traced and untraced repeats
//! alternating (their throughput ratio is `trace.overhead_frac`), then
//! measures every layer on the input the table assigns it, the same in
//! every traced run: the graph, bulk and dsu rows on cc-rmat's graph, the
//! keyed and growable rows on keyed-dedup's trace, the epoch rows on
//! online-mix's stream, and the ladder on prefixes of both. Spans come from
//! the benchmark's own calls into public functions; counts come from the
//! `*_with` twins at p=1, where they repeat exactly, and contention counts
//! (`*_p2`) from p=2 passes. Where a public call cannot be split from
//! outside (`merge_keys_batch`), the run issues the public calls it is made
//! of instead and checks that they give the same partition and link count.
//! Every pass is checked against the oracle like the end-to-end runs.
//!
//! Which end-to-end metric each row should move, on which workload:
//!
//! | rows | layer | should move (workload) |
//! |---|---|---|
//! | `graph.ingest_ns_per_edge`, `graph.self_ns_per_edge` (span minus its `unite_batch` children) | graph | `throughput_mops` (cc-rmat) |
//! | `bulk.ns_per_edge` | bulk | `throughput_mops` (cc-rmat, keyed-dedup); nothing on online-mix |
//! | `bulk.useful_link_ratio` | bulk | `throughput_mops` (cc-rmat) |
//! | `find.<workload>.*` | find | `throughput_mops` (all); `latency_p50_us` (online-mix) |
//! | `ops.<workload>.*_p2` | ops | `latency_p99_us` (online-mix); `throughput_mops` (cc-rmat) |
//! | `dsu.new_ns_per_elem` | dsu | `setup_s` (cc-rmat) |
//! | `dsu.labels_ns_per_elem` | dsu | `throughput_mops` (cc-rmat) |
//! | `keyed.resolve_ns_per_key` | keyed | `throughput_mops`, `latency_p50_us` (keyed-dedup); nothing elsewhere |
//! | `growable.batch_ns_per_edge` | growable | `throughput_mops` (keyed-dedup) |
//! | `keyed.query_ns_per_op` | keyed | `latency_p99_us` (keyed-dedup) |
//! | `keyed.probe_steps_per_key`, `keyed.claim_ratio`, `keyed.id_table_resizes` | keyed | `throughput_mops`, `mem_peak_mb` (keyed-dedup) |
//! | `epoch.setup_ns_per_elem` | epoch | `setup_s` (online-mix) |
//! | `epoch.snapshot_us`, `epoch.drop_us` | epoch | `latency_p99_us` (online-mix) |
//! | `epoch.segments_forked_per_ckpt`, `epoch.cow_cells_per_ckpt` | epoch | `latency_p99_us`, `mem_peak_mb` (online-mix); nothing elsewhere |
//! | `epoch.post_ckpt_ns_per_op` vs `epoch.steady_ns_per_op` | epoch / ops | `latency_p99_us` vs `latency_p50_us` (online-mix) |
//! | `ladder.<L>.*` | dsu, growable, epoch, tune, keyed | `growable − dsu`: online-mix, keyed-dedup; `keyed_u64 − growable`: keyed-dedup; `tuned`: no workload |
//! | `trace.overhead_frac` | — | — |

use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};
use std::thread;
use std::time::Instant;

use concurrent_dsu::{Dsu, EpochFork, GrowableDsu, KeyedDsu, OpStats, TunedDsu, VersionedDsu};
use dsu_graph::components::{unite_edges_parallel, DEFAULT_EDGE_CHUNK as CHUNK};

use crate::check::{Oracle, PartitionMatch};
use crate::gen::{self, Sizes, SplitMix};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, cc_rmat, keyed_dedup, online_mix};
use crate::{Workload, CLIENTS};

pub fn run(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let own = Tracer::new();
    let (run, overhead) = workloads::overhead(w, seed, seconds, sizes, &own);
    run.count_into(&mut out);
    drop(run);
    let mut timed = |name, section: fn(&Sizes, u64, &mut Outcome) -> Tracer| {
        let t = Instant::now();
        let tr = section(sizes, seed, &mut out);
        println!("# section {name}: {:.1} s", t.elapsed().as_secs_f64());
        (name, tr)
    };
    let sections = [
        (w.name(), own),
        timed("graph", graph),
        timed("keyed", keyed),
        timed("epoch", epoch),
        timed("ladder", ladder),
    ];
    out.metric("trace.overhead_frac", overhead, "fraction");
    let path = format!("{}/out/spans-{}-{seed}.tsv", env!("CARGO_MANIFEST_DIR"), w.name());
    match write_spans(&path, &sections) {
        Ok(()) => println!("# spans: {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    out
}

fn write_spans(path: &str, sections: &[(&str, Tracer)]) -> std::io::Result<()> {
    let dir = std::path::Path::new(path).parent().expect("a span file has a directory");
    std::fs::create_dir_all(dir)?;
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "section\tid\tparent\treq\tname\tstart_ns\tend_ns")?;
    for (name, tr) in sections {
        tr.write_tsv(&mut f, name)?;
    }
    f.flush()
}

/// Per-op find metrics of one workload's counting pass. The batch path's
/// gather waves count no find traversals, so a pass without any reports
/// no hops row; its walks still show in the reads.
fn find_rows(out: &mut Outcome, workload: &str, st: &OpStats, ops: f64) {
    out.metric(format!("find.{workload}.reads_per_op"), st.reads as f64 / ops, "reads/op");
    if st.finds > 0 {
        out.metric(
            format!("find.{workload}.hops_per_find"),
            st.find_hops as f64 / st.finds as f64,
            "hops",
        );
    }
    out.metric(
        format!("find.{workload}.compact_cas_ok_per_op"),
        st.compact_cas_ok as f64 / ops,
        "cas/op",
    );
}

/// Contention metrics of one workload's p=2 counting pass.
fn contention_rows(out: &mut Outcome, workload: &str, st: &OpStats, ops: f64) {
    let links = (st.links_ok + st.links_fail) as f64;
    out.metric(
        format!("ops.{workload}.link_cas_fail_ratio_p2"),
        st.links_fail as f64 / links,
        "fraction",
    );
    out.metric(
        format!("ops.{workload}.cas_retries_per_op_p2"),
        st.cas_retries as f64 / ops,
        "retries/op",
    );
}

/// graph, bulk and dsu rows on cc-rmat's graph.
fn graph(sizes: &Sizes, seed: u64, out: &mut Outcome) -> Tracer {
    let tr = Tracer::new();
    let input = cc_rmat::input(sizes, seed);
    let g = &input.graph;
    let (n, m) = (g.n(), g.len());
    let failed = |labels: &[usize], links: usize| {
        if cc_rmat::verify(&input, labels, links) {
            0
        } else {
            m as u64
        }
    };

    // The pipeline on one worker: its self time is the graph layer's own.
    let slots: Vec<AtomicU32> = (0..m.div_ceil(CHUNK)).map(|_| 0.into()).collect();
    let dsu: Dsu = tr.span("dsu.new", 0, 0, |_| Dsu::new(n));
    let gid = tr.id();
    let timed = cc_rmat::Timed::new(&dsu, &slots, Some((&tr, gid)));
    let t0 = Instant::now();
    unite_edges_parallel(&timed, g, 1);
    tr.record(gid, 0, 0, "graph.unite_edges_parallel", t0, Instant::now());
    let pipeline_links = timed.links();
    out.count(
        m as u64,
        failed(&tr.span("dsu.labels_snapshot", 0, 0, |_| dsu.labels_snapshot()), pipeline_links),
    );
    drop(dsu);

    // The same chunks straight into the bulk layer, on a fresh structure.
    let chunks =
        || g.edges().chunks(CHUNK).map(|c| c.iter().map(|e| (e.u, e.v)).collect::<Vec<_>>());
    let dsu: Dsu = tr.span("dsu.new", 0, 0, |_| Dsu::new(n));
    let mut links = 0;
    for (k, batch) in chunks().enumerate() {
        links += tr.span("bulk.unite_batch", 0, k as u64, |_| dsu.unite_batch(&batch));
    }
    out.count(
        m as u64,
        failed(&tr.span("dsu.labels_snapshot", 0, 0, |_| dsu.labels_snapshot()), links),
    );
    out.count(1, u64::from(links != pipeline_links));
    drop(dsu);

    // Counts at p=1.
    let dsu: Dsu = tr.span("dsu.new", 0, 0, |_| Dsu::new(n));
    let mut st = OpStats::default();
    let links: usize = chunks().map(|batch| dsu.unite_batch_with(&batch, &mut st)).sum();
    out.count(m as u64, failed(&dsu.labels_snapshot(), links));
    drop(dsu);

    // Contention counts at p=2, chunks claimed from a shared cursor like
    // the graph layer's workers do.
    let dsu: Dsu = tr.span("dsu.new", 0, 0, |_| Dsu::new(n));
    let cursor = AtomicUsize::new(0);
    let (links, p2) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let (mut links, mut st) = (0, OpStats::default());
                    loop {
                        let start = cursor.fetch_add(CHUNK, Relaxed);
                        if start >= m {
                            return (links, st);
                        }
                        let batch: Vec<_> = g.edges()[start..(start + CHUNK).min(m)]
                            .iter()
                            .map(|e| (e.u, e.v))
                            .collect();
                        links += dsu.unite_batch_with(&batch, &mut st);
                    }
                })
            })
            .collect();
        handles.into_iter().fold((0, OpStats::default()), |(l, mut acc), h| {
            let (links, st) = h.join().expect("contention worker panicked");
            acc.merge(&st);
            (l + links, acc)
        })
    });
    out.count(m as u64, failed(&dsu.labels_snapshot(), links));
    drop(dsu);

    let mf = m as f64;
    out.metric(
        "graph.ingest_ns_per_edge",
        tr.total_ns("graph.unite_edges_parallel") / mf,
        "ns/edge",
    );
    out.metric("graph.self_ns_per_edge", tr.self_ns("graph.unite_edges_parallel") / mf, "ns/edge");
    out.metric("bulk.ns_per_edge", tr.total_ns("bulk.unite_batch") / mf, "ns/edge");
    out.metric("bulk.useful_link_ratio", st.links_ok as f64 / mf, "fraction");
    out.metric("dsu.new_ns_per_elem", median(&tr.durations("dsu.new")) / n as f64, "ns/elem");
    out.metric(
        "dsu.labels_ns_per_elem",
        median(&tr.durations("dsu.labels_snapshot")) / n as f64,
        "ns/elem",
    );
    find_rows(out, "cc-rmat", &st, mf);
    contention_rows(out, "cc-rmat", &p2, mf);
    tr
}

/// keyed and growable rows on keyed-dedup's trace, at p=1.
fn keyed(sizes: &Sizes, seed: u64, out: &mut Outcome) -> Tracer {
    let tr = Tracer::new();
    let input = keyed_dedup::input(sizes, seed);
    let reqs = || keyed_dedup::serial(&input);
    let merges = reqs().map(|r| r.merges.len()).sum::<usize>() as f64;
    let queries = reqs().map(|r| r.queries.len()).sum::<usize>() as f64;

    // `merge_keys_batch` split into the public calls it is made of.
    let kd: KeyedDsu<String> = KeyedDsu::new();
    let (mut links, mut verdicts) = (0, Vec::new());
    for (k, req) in reqs().enumerate() {
        let k = k as u64;
        let ids: Vec<(usize, usize)> = tr.span("keyed.insert", 0, k, |_| {
            req.merges.iter().map(|(a, b)| (kd.insert(a), kd.insert(b))).collect()
        });
        links += tr.span("growable.unite_batch", 0, k, |_| kd.dsu().unite_batch(&ids));
        verdicts.push(tr.span("keyed.same_set_batch", 0, k, |_| kd.same_set_batch(&req.queries)));
    }
    let failed =
        keyed_dedup::verify(&input, &kd, links, reqs().zip(verdicts.iter().map(Vec::as_slice)));
    out.count(input.ops as u64, failed);
    let split_labels = kd.dsu().labels_snapshot();
    drop(kd);

    // The composed calls, counted.
    let kd: KeyedDsu<String> = KeyedDsu::new();
    let (mut ms, mut qs) = (OpStats::default(), OpStats::default());
    let (mut links2, mut verdicts) = (0, Vec::new());
    for req in reqs() {
        links2 += kd.merge_keys_batch_with(&req.merges, &mut ms);
        verdicts.push(kd.same_set_batch_with(&req.queries, &mut qs));
    }
    let failed =
        keyed_dedup::verify(&input, &kd, links2, reqs().zip(verdicts.iter().map(Vec::as_slice)));
    out.count(input.ops as u64, failed);
    // At p=1 both passes assign ids in the same order, so their id
    // partitions must match exactly.
    let labels = kd.dsu().labels_snapshot();
    let mut same = PartitionMatch::new(labels.len(), labels.len());
    let agree = links == links2
        && split_labels.len() == labels.len()
        && (0..labels.len()).all(|i| same.pair(split_labels[i], labels[i]));
    out.count(1, u64::from(!agree));

    let mut all = ms;
    all.merge(&qs);
    out.metric("keyed.resolve_ns_per_key", tr.total_ns("keyed.insert") / (2.0 * merges), "ns/key");
    out.metric(
        "growable.batch_ns_per_edge",
        tr.total_ns("growable.unite_batch") / merges,
        "ns/edge",
    );
    out.metric("keyed.query_ns_per_op", tr.total_ns("keyed.same_set_batch") / queries, "ns/op");
    out.metric(
        "keyed.probe_steps_per_key",
        ms.key_probe_steps as f64 / (2.0 * merges),
        "probes/key",
    );
    out.metric("keyed.claim_ratio", ms.keys_inserted as f64 / (2.0 * merges), "fraction");
    out.metric("keyed.id_table_resizes", kd.id_table_resizes() as f64, "count");
    find_rows(out, "keyed-dedup", &all, merges + queries);
    tr
}

/// epoch rows on online-mix's stream.
fn epoch(sizes: &Sizes, seed: u64, out: &mut Outcome) -> Tracer {
    let tr = Tracer::new();
    let input = online_mix::input(sizes.online_n, sizes.online_ops, seed);
    let (n, m) = (input.n, input.ops.len());
    let plain = |vd: &VersionedDsu, a, b, unite, _: &mut ()| {
        if unite {
            vd.unite(a, b)
        } else {
            vd.same_set(a, b)
        }
    };
    let counted = |vd: &VersionedDsu, a, b, unite, st: &mut OpStats| {
        if unite {
            vd.dsu().unite_with(a, b, st)
        } else {
            vd.dsu().same_set_with(a, b, st)
        }
    };

    // The workload's own shape, traced.
    let mut verdicts = vec![0u64; m.div_ceil(64)];
    let mut lats = vec![Vec::new(); CLIENTS];
    let mut vd: VersionedDsu =
        tr.span("epoch.with_initial", 0, 0, |_| VersionedDsu::with_initial(n));
    let (links, ()) = online_mix::checkpointed(
        &mut vd,
        &input,
        sizes,
        &mut verdicts,
        &mut lats,
        Some(&tr),
        &plain,
    );
    let cow = vd.dsu().store().epoch_report();
    out.count(m as u64, online_mix::verify(&input, &vd.labels_snapshot(), links, &verdicts));
    drop(vd);

    // Counts at p=1, then contention counts at p=2.
    let quiet = Sizes { sample_every: 0, ..*sizes };
    let mut count = |clients: usize| {
        let mut verdicts = vec![0u64; m.div_ceil(64)];
        let mut vd: VersionedDsu = VersionedDsu::with_initial(n);
        let mut lats = vec![Vec::new(); clients];
        let (links, st): (usize, OpStats) = online_mix::checkpointed(
            &mut vd,
            &input,
            &quiet,
            &mut verdicts,
            &mut lats,
            None,
            &counted,
        );
        out.count(m as u64, online_mix::verify(&input, &vd.labels_snapshot(), links, &verdicts));
        st
    };
    let p1 = count(1);
    let p2 = count(CLIENTS);

    let ckpts = m.div_ceil(sizes.ckpt_every).saturating_sub(1).max(1) as f64;
    let post_ops = (m.div_ceil(sizes.ckpt_every) - 1) * sizes.post_ckpt_ops.min(sizes.ckpt_every);
    out.metric("epoch.setup_ns_per_elem", tr.total_ns("epoch.with_initial") / n as f64, "ns/elem");
    out.metric("epoch.snapshot_us", median(&tr.durations("epoch.snapshot")) / 1e3, "us");
    out.metric("epoch.drop_us", median(&tr.durations("epoch.drop_snapshot")) / 1e3, "us");
    out.metric("epoch.segments_forked_per_ckpt", cow.segments_forked as f64 / ckpts, "segments");
    out.metric("epoch.cow_cells_per_ckpt", cow.cow_copies as f64 / ckpts, "cells");
    out.metric(
        "epoch.post_ckpt_ns_per_op",
        tr.total_ns("epoch.post_ckpt") / post_ops as f64,
        "ns/op",
    );
    out.metric(
        "epoch.steady_ns_per_op",
        tr.total_ns("epoch.steady") / (m - post_ops) as f64,
        "ns/op",
    );
    find_rows(out, "online-mix", &p1, m as f64);
    contention_rows(out, "online-mix", &p2, m as f64);
    tr
}

/// One rung of the layer ladder: a layer's public per-op, counting and
/// batch entry points.
trait Rung: Sync + Sized {
    const NAME: &'static str;
    type Edge: Send;
    fn build(n: usize) -> Self;
    /// Whether the layer has `*_with` twins (the ladder's reads row).
    const COUNTED: bool;
    fn op(&self, a: usize, b: usize, unite: bool) -> bool;
    /// The `*_with` twin; only called when [`Rung::COUNTED`].
    fn op_with(&self, a: usize, b: usize, unite: bool, st: &mut OpStats) -> bool;
    fn edge(e: (usize, usize)) -> Self::Edge;
    fn batch(&self, edges: &[Self::Edge]) -> usize;
    /// Idempotent labels of elements `0..n`.
    fn labels(&self, n: usize) -> Vec<usize>;
}

macro_rules! dense_rung {
    ($ty:ty, $name:literal, $build:expr, $counted:literal, $with:expr) => {
        impl Rung for $ty {
            const NAME: &'static str = $name;
            const COUNTED: bool = $counted;
            type Edge = (usize, usize);
            fn build(n: usize) -> Self {
                $build(n)
            }
            fn op(&self, a: usize, b: usize, unite: bool) -> bool {
                if unite {
                    self.unite(a, b)
                } else {
                    self.same_set(a, b)
                }
            }
            fn op_with(&self, a: usize, b: usize, unite: bool, st: &mut OpStats) -> bool {
                #[allow(clippy::redundant_closure_call)]
                $with(self, a, b, unite, st)
            }
            fn edge(e: (usize, usize)) -> Self::Edge {
                e
            }
            fn batch(&self, edges: &[Self::Edge]) -> usize {
                self.unite_batch(edges)
            }
            fn labels(&self, _n: usize) -> Vec<usize> {
                self.labels_snapshot()
            }
        }
    };
}

dense_rung!(Dsu, "dsu", Dsu::new, true, |d: &Dsu, a, b, u, st: &mut OpStats| {
    if u {
        d.unite_with(a, b, st)
    } else {
        d.same_set_with(a, b, st)
    }
});
dense_rung!(
    GrowableDsu,
    "growable",
    GrowableDsu::with_initial,
    true,
    |d: &GrowableDsu, a, b, u, st: &mut OpStats| {
        if u {
            d.unite_with(a, b, st)
        } else {
            d.same_set_with(a, b, st)
        }
    }
);
dense_rung!(
    VersionedDsu,
    "versioned",
    VersionedDsu::with_initial,
    true,
    |d: &VersionedDsu, a, b, u, st: &mut OpStats| {
        if u {
            d.dsu().unite_with(a, b, st)
        } else {
            d.dsu().same_set_with(a, b, st)
        }
    }
);
// `TunedDsu` has no `*_with` twin, so the ladder has no reads row for it.
dense_rung!(TunedDsu, "tuned", TunedDsu::new, false, |_: &TunedDsu, _, _, _, _: &mut OpStats| {
    unreachable!("TunedDsu has no *_with twin")
});

/// Element `i`'s key in the keyed rung: scattered over the whole `u64`
/// range like real sparse ids. Computing it costs a few ns of the rung's
/// hundreds.
fn key(i: usize) -> u64 {
    SplitMix::new(i as u64, 3).next_u64()
}

impl Rung for KeyedDsu<u64> {
    const NAME: &'static str = "keyed_u64";
    const COUNTED: bool = true;
    type Edge = (u64, u64);
    fn build(_: usize) -> Self {
        KeyedDsu::new()
    }
    fn op(&self, a: usize, b: usize, unite: bool) -> bool {
        if unite {
            self.merge_keys(&key(a), &key(b))
        } else {
            self.same_set(&key(a), &key(b))
        }
    }
    fn op_with(&self, a: usize, b: usize, unite: bool, st: &mut OpStats) -> bool {
        if unite {
            self.merge_keys_with(&key(a), &key(b), st)
        } else {
            self.same_set_with(&key(a), &key(b), st)
        }
    }
    fn edge(e: (usize, usize)) -> Self::Edge {
        (key(e.0), key(e.1))
    }
    fn batch(&self, edges: &[Self::Edge]) -> usize {
        self.merge_keys_batch(edges)
    }
    fn labels(&self, n: usize) -> Vec<usize> {
        // Each set is labelled by its first element; keys never inserted
        // are singletons.
        let ids = self.dsu().labels_snapshot();
        let mut first = vec![usize::MAX; ids.len()];
        (0..n)
            .map(|i| match self.get(&key(i)) {
                Some(id) => {
                    let root = ids[id];
                    if first[root] == usize::MAX {
                        first[root] = i;
                    }
                    first[root]
                }
                None => i,
            })
            .collect()
    }
}

/// The ladder's inputs: a prefix of online-mix's stream and a prefix of
/// cc-rmat's edges, each with its oracle.
struct LadderInput {
    stream: online_mix::Input,
    edges: Vec<(usize, usize)>,
    edge_oracle: Oracle,
}

/// Runs one rung: per-op at p=1 and p=2, counted per-op at p=1, and batch
/// ingestion at p=1, each on a fresh structure and each checked.
fn rung<L: Rung>(idx: u64, li: &LadderInput, tr: &Tracer, out: &mut Outcome) {
    let s = &li.stream;
    let m = s.ops.len();
    let per_op = |clients: usize, out: &mut Outcome| {
        let layer = L::build(s.n);
        let mut verdicts = vec![0u64; m.div_ceil(64)];
        let mut lats = vec![Vec::new(); clients];
        let op = |l: &L, a, b, u, _: &mut ()| l.op(a, b, u);
        let t0 = Instant::now();
        let (links, ()) =
            online_mix::drive(&layer, &s.ops, 0, 0, &mut verdicts, &mut lats, 0, None, &op);
        let t1 = Instant::now();
        tr.record(
            tr.id(),
            0,
            idx,
            if clients == 1 { "ladder.ops_p1" } else { "ladder.ops_p2" },
            t0,
            t1,
        );
        out.count(m as u64, online_mix::verify(s, &layer.labels(s.n), links, &verdicts));
        (t1 - t0).as_nanos() as f64 / m as f64
    };
    let p1 = per_op(1, out);
    let p2 = per_op(CLIENTS, out);
    out.metric(format!("ladder.{}.op_ns_p1", L::NAME), p1, "ns/op");
    out.metric(format!("ladder.{}.op_ns_p2", L::NAME), p2, "ns/op");

    if L::COUNTED {
        let layer = L::build(s.n);
        let mut verdicts = vec![0u64; m.div_ceil(64)];
        let op = |l: &L, a, b, u, st: &mut OpStats| l.op_with(a, b, u, st);
        let (links, st): (usize, OpStats) =
            online_mix::drive(&layer, &s.ops, 0, 0, &mut verdicts, &mut [Vec::new()], 0, None, &op);
        out.count(m as u64, online_mix::verify(s, &layer.labels(s.n), links, &verdicts));
        out.metric(
            format!("ladder.{}.reads_per_op", L::NAME),
            st.reads as f64 / m as f64,
            "reads/op",
        );
    }

    let edges: Vec<L::Edge> = li.edges.iter().map(|&e| L::edge(e)).collect();
    let n = li.edge_oracle.len();
    let layer = L::build(n);
    let t0 = Instant::now();
    let links: usize = edges.chunks(CHUNK).map(|c| layer.batch(c)).sum();
    let t1 = Instant::now();
    tr.record(tr.id(), 0, idx, "ladder.batch", t0, t1);
    let labels = layer.labels(n);
    let ok =
        li.edge_oracle.same_partition(&labels) && links + crate::check::set_count(&labels) == n;
    out.count(edges.len() as u64, if ok { 0 } else { edges.len() as u64 });
    out.metric(
        format!("ladder.{}.batch_ns_per_edge", L::NAME),
        (t1 - t0).as_nanos() as f64 / edges.len() as f64,
        "ns/edge",
    );
}

/// The layer ladder: the same per-op stream and the same edge prefix
/// through each layer stacked on the bare `Dsu`.
fn ladder(sizes: &Sizes, seed: u64, out: &mut Outcome) -> Tracer {
    let tr = Tracer::new();
    let g = gen::rmat(sizes.rmat_scale, sizes.ladder_edges, seed);
    let edges: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let edge_oracle = Oracle::build(g.n(), edges.iter().copied());
    drop(g);
    let li = LadderInput {
        stream: online_mix::input(sizes.online_n, sizes.ladder_ops, seed),
        edges,
        edge_oracle,
    };
    rung::<Dsu>(0, &li, &tr, out);
    rung::<GrowableDsu>(1, &li, &tr, out);
    rung::<VersionedDsu>(2, &li, &tr, out);
    rung::<TunedDsu>(3, &li, &tr, out);
    rung::<KeyedDsu<u64>>(4, &li, &tr, out);
    tr
}
