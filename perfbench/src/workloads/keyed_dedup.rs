//! keyed-dedup: streaming entity resolution over string keys, the
//! deployment-shaped top of the stack. The universe grows from empty, so
//! this is the one workload exercising growth.
//!
//! A request is one micro-batch of consecutive trace ops from a client's
//! round-robin shard: `merge_keys_batch` on its merges, then
//! `same_set_batch` on its queries.

use std::thread;
use std::time::Instant;

use concurrent_dsu::KeyedDsu;
use dsu_workloads::{KeyedOp, KeyedSpec};

use super::{ns, repeat, Repeat, Run, Tracing};
use crate::check::{self, Oracle, PartitionMatch};
use crate::gen::Sizes;
use crate::report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, CLIENTS};

/// Structures built per repeat for the set-up time.
const SETUP_TRIES: usize = 7;

/// One client request.
#[derive(Default)]
pub struct Request {
    pub merges: Vec<(String, String)>,
    /// The merges' dense key indices, for the oracle.
    pub merge_idx: Vec<(u32, u32)>,
    pub queries: Vec<(String, String)>,
    /// Per query: connected in the oracle's final partition, so a `true`
    /// verdict is allowed.
    pub query_ok: Vec<bool>,
}

pub struct Input {
    /// Each client's requests, in issue order.
    pub clients: Vec<Vec<Request>>,
    /// Final partition over dense key indices.
    pub oracle: Oracle,
    /// Distinct keys some merge mentions (queries never insert).
    pub inserted: usize,
    /// Oracle sets among the inserted keys.
    pub inserted_sets: usize,
    pub ops: usize,
}

/// The trace: ≈70 % merges, 40 % fresh keys, revisits within the last 4096
/// keys, keys materialized as strings.
pub fn input(sizes: &Sizes, seed: u64) -> Input {
    let trace = KeyedSpec::new(sizes.keyed_ops)
        .merge_fraction(0.7)
        .fresh_fraction(0.4)
        .revisit_window(4096)
        .generate(seed);
    let merges = || {
        trace.ops.iter().filter_map(|op| match *op {
            KeyedOp::Merge(a, b) => Some((a, b)),
            KeyedOp::SameSet(..) => None,
        })
    };
    let oracle = Oracle::build(trace.distinct_keys, merges());
    let mut inserted = vec![false; trace.distinct_keys];
    for (a, b) in merges() {
        inserted[a] = true;
        inserted[b] = true;
    }
    let mut root_seen = vec![false; trace.distinct_keys];
    let mut inserted_sets = 0;
    for k in (0..trace.distinct_keys).filter(|&k| inserted[k]) {
        if !std::mem::replace(&mut root_seen[oracle.root(k)], true) {
            inserted_sets += 1;
        }
    }
    let strings = trace.into_strings("rec", seed);
    let mut clients: Vec<Vec<Request>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut open: Vec<(Request, usize)> = (0..CLIENTS).map(|_| (Request::default(), 0)).collect();
    for (i, (op, idx)) in strings.ops.into_iter().zip(&trace.ops).enumerate() {
        let c = i % CLIENTS;
        let (req, len) = &mut open[c];
        match (op, idx) {
            (KeyedOp::Merge(a, b), &KeyedOp::Merge(ia, ib)) => {
                req.merges.push((a, b));
                req.merge_idx.push((ia as u32, ib as u32));
            }
            (KeyedOp::SameSet(a, b), &KeyedOp::SameSet(ia, ib)) => {
                req.queries.push((a, b));
                req.query_ok.push(oracle.connected(ia, ib));
            }
            _ => unreachable!("into_strings keeps each op's kind"),
        }
        *len += 1;
        if *len == sizes.keyed_batch {
            clients[c].push(std::mem::take(req));
            *len = 0;
        }
    }
    for (c, (req, len)) in open.into_iter().enumerate() {
        if len > 0 {
            clients[c].push(req);
        }
    }
    let inserted = inserted.iter().filter(|&&x| x).count();
    println!(
        "# keyed-dedup: {} ops, {} distinct keys, {inserted} inserted",
        sizes.keyed_ops, trace.distinct_keys
    );
    Input { clients, oracle, inserted, inserted_sets, ops: sizes.keyed_ops }
}

/// Every request in the order a single caller would issue them (clients'
/// requests interleaved round-robin), for the p=1 passes.
pub fn serial(input: &Input) -> impl Iterator<Item = &Request> {
    let longest = input.clients.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |k| input.clients.iter().filter_map(move |reqs| reqs.get(k)))
}

/// Operations refuted by the oracle: every op when a whole-run check fails
/// (partition, key count, or links ≠ keys − sets), otherwise the `true`
/// query verdicts the final partition does not support. `verdicts` pairs
/// every request with its `same_set_batch` result.
pub fn verify<'a>(
    input: &Input,
    kd: &KeyedDsu<String>,
    links: usize,
    verdicts: impl Iterator<Item = (&'a Request, &'a [bool])>,
) -> u64 {
    let labels = kd.dsu().labels_snapshot();
    let sets = check::set_count(&labels);
    let mut whole = kd.key_count() == input.inserted
        && sets == input.inserted_sets
        && links + sets == labels.len();
    let mut m = PartitionMatch::new(input.oracle.len(), labels.len());
    let mut refuted = 0;
    let mut answered = 0;
    for (req, v) in verdicts {
        answered += 1;
        whole &= v.len() == req.queries.len();
        refuted += v.iter().zip(&req.query_ok).filter(|&(&v, &ok)| v && !ok).count() as u64;
        for ((a, b), &(ia, ib)) in req.merges.iter().zip(&req.merge_idx) {
            for (key, idx) in [(a, ia), (b, ib)] {
                whole &= match kd.get(key) {
                    Some(id) if id < labels.len() => {
                        m.pair(input.oracle.root(idx as usize), labels[id])
                    }
                    _ => false,
                };
            }
        }
    }
    whole &= answered == input.clients.iter().map(Vec::len).sum::<usize>();
    if whole {
        refuted
    } else {
        input.ops as u64
    }
}

/// One client's closed loop; returns the links its merges performed.
fn client(
    kd: &KeyedDsu<String>,
    c: usize,
    reqs: &[Request],
    verdicts: &mut Vec<Vec<bool>>,
    lat: &mut Vec<u32>,
    tr: Option<&Tracer>,
) -> usize {
    let mut links = 0;
    for (k, req) in reqs.iter().enumerate() {
        if report::aborted() {
            break;
        }
        let start = Instant::now();
        let (l, v) = match tr {
            None => (kd.merge_keys_batch(&req.merges), kd.same_set_batch(&req.queries)),
            Some(tr) => {
                let rid = (c as u64) << 32 | k as u64;
                tr.span("client.request", 0, rid, |id| {
                    let l = tr.span("keyed.merge_keys_batch", id, rid, |_| {
                        kd.merge_keys_batch(&req.merges)
                    });
                    let v = tr
                        .span("keyed.same_set_batch", id, rid, |_| kd.same_set_batch(&req.queries));
                    (l, v)
                })
            }
        };
        lat.push(ns(start.elapsed()));
        links += l;
        verdicts.push(v);
    }
    links
}

pub fn run(input: &Input, seconds: f64, tracing: Tracing) -> Run {
    repeat(seconds, input.ops as u64, tracing, |tr, lat| {
        let mut verdicts: Vec<Vec<Vec<bool>>> =
            input.clients.iter().map(|r| Vec::with_capacity(r.len())).collect();
        let mut lats: Vec<Vec<u32>> =
            input.clients.iter().map(|r| Vec::with_capacity(r.len())).collect();
        let base = alloc::live();
        alloc::reset_peak();
        // Construction takes ~0.1 ms, so one timing is mostly noise: build
        // several, keep the last, report their median.
        let mut times = Vec::with_capacity(SETUP_TRIES);
        let mut build = || {
            let t = Instant::now();
            let kd: KeyedDsu<String> = match tr {
                Some(tr) => tr.span("keyed.new", 0, 0, |_| KeyedDsu::new()),
                None => KeyedDsu::new(),
            };
            times.push(t.elapsed().as_secs_f64());
            kd
        };
        let mut kd = build();
        for _ in 1..SETUP_TRIES {
            kd = build();
        }
        let setup_s = median(&times);
        let t0 = Instant::now();
        let links: usize = thread::scope(|s| {
            let handles: Vec<_> = (input.clients.iter().zip(&mut verdicts).zip(&mut lats))
                .enumerate()
                .map(|(c, ((reqs, v), l))| {
                    let kd = &kd;
                    s.spawn(move || client(kd, c, reqs, v, l, tr))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("keyed-dedup client panicked")).sum()
        });
        let timed_s = t0.elapsed().as_secs_f64();
        let mem_bytes = alloc::peak() - base;
        let answered = input
            .clients
            .iter()
            .zip(&verdicts)
            .flat_map(|(reqs, vs)| reqs.iter().zip(vs.iter().map(Vec::as_slice)));
        let failed = verify(input, &kd, links, answered);
        lat.extend(lats.concat());
        Repeat { ops: input.ops as u64, failed, setup_s, timed_s, mem_bytes, traced: tr.is_some() }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_the_oracle() {
        let input = input(&Sizes::QUICK, 3);
        let out = run(&input, 0.05, Tracing::Off).outcome();
        assert!(out.correct(), "{}", out.json());
    }
}
