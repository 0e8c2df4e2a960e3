//! cc-rmat: static connected components of a power-law graph, the paper's
//! flagship application and the benchmark's DRAM-resident point.
//!
//! Timed phase: `unite_edges_parallel(&dsu, &g, 2)` then `labels_snapshot()`.
//! The graph layer's two workers are the clients; a request is one
//! 1024-edge chunk they hand the structure, timed by a transparent
//! [`ConcurrentUnionFind`] wrapper the graph layer is given in place of the
//! bare `Dsu`.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use concurrent_dsu::{ConcurrentUnionFind, Dsu};
use dsu_graph::components::{unite_edges_parallel, DEFAULT_EDGE_CHUNK};
use dsu_graph::EdgeList;

use super::{ns, repeat, Repeat, Run, Tracing};
use crate::check::{self, Oracle};
use crate::gen::{self, Sizes};
use crate::report;
use crate::trace::Tracer;
use crate::{alloc, CLIENTS};

pub struct Input {
    pub graph: EdgeList,
    pub oracle: Oracle,
}

pub fn input(sizes: &Sizes, seed: u64) -> Input {
    let graph = gen::rmat(sizes.rmat_scale, sizes.rmat_edges, seed);
    let oracle = Oracle::build(graph.n(), graph.edges().iter().map(|e| (e.u, e.v)));
    println!("# cc-rmat: {} vertices, {} edges", graph.n(), graph.len());
    Input { graph, oracle }
}

/// The structure under test: `Dsu` in the benchmark, a deliberately broken
/// wrapper in the canary test.
pub trait Structure: ConcurrentUnionFind {
    fn labels_snapshot(&self) -> Vec<usize>;
}

impl Structure for Dsu {
    fn labels_snapshot(&self) -> Vec<usize> {
        Dsu::labels_snapshot(self)
    }
}

/// Forwards every call to `inner`, timing each batch the graph layer's
/// workers submit and totalling the links those batches report.
pub struct Timed<'a, D> {
    inner: &'a D,
    latency_ns: &'a [AtomicU32],
    next: AtomicUsize,
    links: AtomicUsize,
    /// The tracer and the span batches are children of.
    trace: Option<(&'a Tracer, u64)>,
}

impl<'a, D: ConcurrentUnionFind> Timed<'a, D> {
    pub fn new(
        inner: &'a D,
        latency_ns: &'a [AtomicU32],
        trace: Option<(&'a Tracer, u64)>,
    ) -> Self {
        Timed { inner, latency_ns, next: AtomicUsize::new(0), links: AtomicUsize::new(0), trace }
    }

    pub fn links(&self) -> usize {
        self.links.load(Relaxed)
    }

    pub fn latencies(&self) -> impl Iterator<Item = u32> + '_ {
        let k = self.next.load(Relaxed).min(self.latency_ns.len());
        self.latency_ns[..k].iter().map(|x| x.load(Relaxed))
    }
}

impl<D: ConcurrentUnionFind> ConcurrentUnionFind for Timed<'_, D> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        self.inner.same_set(x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        self.inner.unite(x, y)
    }

    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        if report::aborted() {
            return 0;
        }
        let start = Instant::now();
        let links = self.inner.unite_batch(edges);
        let end = Instant::now();
        let k = self.next.fetch_add(1, Relaxed);
        if let Some(slot) = self.latency_ns.get(k) {
            slot.store(ns(end - start), Relaxed);
        }
        self.links.fetch_add(links, Relaxed);
        if let Some((tr, parent)) = self.trace {
            tr.record(tr.id(), parent, k as u64, "dsu.unite_batch", start, end);
        }
        links
    }

    fn find(&self, x: usize) -> usize {
        self.inner.find(x)
    }
}

/// `true` iff `labels` is the oracle's partition and `links` successful
/// links account for it (elements minus final sets).
pub fn verify(input: &Input, labels: &[usize], links: usize) -> bool {
    input.oracle.same_partition(labels) && links + check::set_count(labels) == labels.len()
}

pub fn run(input: &Input, seconds: f64, tracing: Tracing) -> Run {
    run_with(input, seconds, tracing, |n| -> Dsu { Dsu::new(n) })
}

/// [`run`] over any structure `make(n)` builds.
pub fn run_with<D: Structure>(
    input: &Input,
    seconds: f64,
    tracing: Tracing,
    make: impl Fn(usize) -> D,
) -> Run {
    let g = &input.graph;
    let (n, m) = (g.n(), g.len());
    repeat(seconds, m as u64, tracing, |tr, lat| {
        let slots: Vec<AtomicU32> = (0..m.div_ceil(DEFAULT_EDGE_CHUNK)).map(|_| 0.into()).collect();
        let base = alloc::live();
        alloc::reset_peak();
        let t = Instant::now();
        let dsu = match tr {
            Some(tr) => tr.span("dsu.new", 0, 0, |_| make(n)),
            None => make(n),
        };
        let setup_s = t.elapsed().as_secs_f64();
        let gid = tr.map_or(0, Tracer::id);
        let timed = Timed::new(&dsu, &slots, tr.map(|t| (t, gid)));
        let t0 = Instant::now();
        unite_edges_parallel(&timed, g, CLIENTS);
        let t1 = Instant::now();
        let labels = dsu.labels_snapshot();
        let t2 = Instant::now();
        let mem_bytes = alloc::peak() - base;
        if let Some(tr) = tr {
            tr.record(gid, 0, 0, "graph.unite_edges_parallel", t0, t1);
            tr.record(tr.id(), 0, 0, "dsu.labels_snapshot", t1, t2);
        }
        let ok = verify(input, &labels, timed.links());
        lat.extend(timed.latencies());
        Repeat {
            ops: m as u64,
            failed: if ok { 0 } else { m as u64 },
            setup_s,
            timed_s: (t2 - t0).as_secs_f64(),
            mem_bytes,
            traced: tr.is_some(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A contender that silently drops one edge in `every`: the checker
    /// must refute it.
    struct DropEvery {
        inner: Dsu,
        every: usize,
        seen: AtomicUsize,
    }

    impl DropEvery {
        fn keep(&self) -> bool {
            self.seen.fetch_add(1, Relaxed) % self.every != self.every - 1
        }
    }

    impl ConcurrentUnionFind for DropEvery {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn same_set(&self, x: usize, y: usize) -> bool {
            self.inner.same_set(x, y)
        }
        fn unite(&self, x: usize, y: usize) -> bool {
            self.keep() && self.inner.unite(x, y)
        }
        fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
            let kept: Vec<(usize, usize)> = edges.iter().copied().filter(|_| self.keep()).collect();
            self.inner.unite_batch(&kept)
        }
        fn find(&self, x: usize) -> usize {
            self.inner.find(x)
        }
    }

    impl Structure for DropEvery {
        fn labels_snapshot(&self) -> Vec<usize> {
            self.inner.labels_snapshot()
        }
    }

    #[test]
    fn quick_run_passes_the_oracle() {
        let input = input(&Sizes::QUICK, 5);
        let out = run(&input, 0.05, Tracing::Off).outcome();
        assert!(out.correct(), "{}", out.json());
    }

    #[test]
    fn canary_that_drops_unites_is_refuted() {
        let input = input(&Sizes::QUICK, 5);
        let make = |n| DropEvery { inner: Dsu::new(n), every: 50, seen: AtomicUsize::new(0) };
        let out = run_with(&input, 0.05, Tracing::Off, make).outcome();
        assert!(out.failed > 0 && !out.correct(), "{}", out.json());
    }
}
