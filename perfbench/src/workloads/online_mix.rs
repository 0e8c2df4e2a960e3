//! online-mix: an online connectivity service with checkpoints. Read-heavy
//! where cc-rmat is write-only, cache-resident where cc-rmat is not, and
//! every hop goes through `EpochStore`'s segment lookup.
//!
//! A request is one `unite` or `same_set` on a `VersionedDsu`. Every
//! `ckpt_every` ops the clients quiesce, the main thread takes a snapshot
//! and drops the one two back (the quiesce is inside the timed phase).
//! Latency is timed on a fixed one-in-`sample_every` subset of ops, because
//! the clock pair costs more than an op.

use std::collections::VecDeque;
use std::thread;
use std::time::Instant;

use concurrent_dsu::VersionedDsu;

use super::{ns, repeat, Repeat, Run, Sink, Tracing};
use crate::check::{self, Oracle};
use crate::gen::{self, decode, Sizes};
use crate::report;
use crate::trace::Tracer;
use crate::{alloc, CLIENTS};

pub struct Input {
    pub n: usize,
    pub ops: Vec<u64>,
    /// Bit `i`: op `i` is a query connected in the oracle's final
    /// partition, so a `true` verdict is allowed.
    pub allowed: Vec<u64>,
    pub oracle: Oracle,
}

/// `m` ops over `0..n` (see [`gen::online_ops`]) with their oracle.
pub fn input(n: usize, m: usize, seed: u64) -> Input {
    let ops = gen::online_ops(n, m, seed);
    let oracle =
        Oracle::build(n, ops.iter().map(|&op| decode(op)).filter(|o| o.2).map(|o| (o.0, o.1)));
    let mut allowed = vec![0u64; m.div_ceil(64)];
    for (i, &op) in ops.iter().enumerate() {
        let (a, b, unite) = decode(op);
        if !unite && oracle.connected(a, b) {
            allowed[i / 64] |= 1 << (i % 64);
        }
    }
    println!("# online-mix: {n} elements, {m} ops");
    Input { n, ops, allowed, oracle }
}

/// Operations refuted by the oracle: every op when the final partition or
/// the link count (elements − sets) is wrong, otherwise the `true` query
/// verdicts (bits of `verdicts`) that the final partition does not support.
pub fn verify(input: &Input, labels: &[usize], links: usize, verdicts: &[u64]) -> u64 {
    if !input.oracle.same_partition(labels) || links + check::set_count(labels) != labels.len() {
        return input.ops.len() as u64;
    }
    verdicts.iter().zip(&input.allowed).map(|(v, a)| u64::from((v & !a).count_ones())).sum()
}

/// `clients` contiguous pieces of `0..len`, every inner boundary a
/// multiple of 64 so each piece owns whole words of a verdict bitset.
fn pieces(len: usize, clients: usize) -> Vec<std::ops::Range<usize>> {
    let cut = |c: usize| if c == clients { len } else { (len * c / clients) & !63 };
    (0..clients).map(|c| cut(c)..cut(c + 1)).collect()
}

/// One client's closed loop over `ops` (global index of `ops[0]` is
/// `first`); sets verdict bit `j` of `words` for each `true` query and
/// returns the links its unites performed.
#[allow(clippy::too_many_arguments)]
fn client<S, St: Sink, F>(
    s: &S,
    ops: &[u64],
    first: usize,
    every: usize,
    words: &mut [u64],
    lat: &mut Vec<u32>,
    sink: &mut St,
    op: &F,
) -> usize
where
    F: Fn(&S, usize, usize, bool, &mut St) -> bool,
{
    let mut links = 0;
    // Countdown instead of `%`: a division per op would cost more than
    // the sampling.
    let mut until = if every == 0 { usize::MAX } else { (every - first % every) % every };
    for (j, &packed) in ops.iter().enumerate() {
        if j % 4096 == 0 && report::aborted() {
            break;
        }
        let (a, b, unite) = decode(packed);
        let r = if until == 0 {
            until = every;
            let t = Instant::now();
            let r = op(s, a, b, unite, sink);
            lat.push(ns(t.elapsed()));
            r
        } else {
            op(s, a, b, unite, sink)
        };
        until -= 1;
        if r {
            if unite {
                links += 1;
            } else {
                words[j / 64] |= 1 << (j % 64);
            }
        }
    }
    links
}

/// Runs `ops` (global index of `ops[0]` is `first`) on `lats.len()` client
/// threads, each taking one contiguous piece. With a tracer, each client's
/// first `post / clients` ops and the rest get their own spans
/// (`epoch.post_ckpt`, `epoch.steady`). Returns links and merged sinks.
#[allow(clippy::too_many_arguments)]
pub fn drive<S: Sync, St: Sink, F>(
    s: &S,
    ops: &[u64],
    first: usize,
    every: usize,
    words: &mut [u64],
    lats: &mut [Vec<u32>],
    post: usize,
    tr: Option<&Tracer>,
    op: &F,
) -> (usize, St)
where
    F: Fn(&S, usize, usize, bool, &mut St) -> bool + Sync,
{
    let clients = lats.len();
    thread::scope(|sc| {
        let mut words = words;
        let mut handles = Vec::with_capacity(clients);
        for (range, lat) in pieces(ops.len(), clients).into_iter().zip(lats.iter_mut()) {
            let (w, rest) = std::mem::take(&mut words).split_at_mut(range.len().div_ceil(64));
            words = rest;
            let piece = &ops[range.clone()];
            let start = first + range.start;
            handles.push(sc.spawn(move || {
                let mut sink = St::default();
                let links = match tr {
                    None => client(s, piece, start, every, w, lat, &mut sink, op),
                    Some(tr) => {
                        let cut = (post / clients).min(piece.len());
                        assert!(
                            cut.is_multiple_of(64) || cut == piece.len(),
                            "post-checkpoint span must cover whole verdict words"
                        );
                        let (wp, ws) = w.split_at_mut(cut.div_ceil(64));
                        let mut links = 0;
                        if cut > 0 {
                            links += tr.span("epoch.post_ckpt", 0, 0, |_| {
                                client(s, &piece[..cut], start, every, wp, lat, &mut sink, op)
                            });
                        }
                        links
                            + tr.span("epoch.steady", 0, 0, |_| {
                                client(s, &piece[cut..], start + cut, every, ws, lat, &mut sink, op)
                            })
                    }
                };
                (links, sink)
            }));
        }
        let mut total = (0, St::default());
        for h in handles {
            let (links, sink) = h.join().expect("online-mix client panicked");
            total.0 += links;
            total.1.absorb(sink);
        }
        total
    })
}

/// Runs the whole stream on `vd` in checkpoint segments: after each
/// segment the clients have quiesced, the main thread snapshots and drops
/// the snapshot two back.
#[allow(clippy::too_many_arguments)]
pub fn checkpointed<St: Sink, F>(
    vd: &mut VersionedDsu,
    input: &Input,
    sizes: &Sizes,
    verdicts: &mut [u64],
    lats: &mut [Vec<u32>],
    tr: Option<&Tracer>,
    op: &F,
) -> (usize, St)
where
    F: Fn(&VersionedDsu, usize, usize, bool, &mut St) -> bool + Sync,
{
    assert!(
        sizes.ckpt_every.is_multiple_of(64),
        "checkpoints must fall on verdict word boundaries"
    );
    let mut retained = VecDeque::new();
    let mut total = (0, St::default());
    let segments =
        input.ops.chunks(sizes.ckpt_every).zip(verdicts.chunks_mut(sizes.ckpt_every / 64));
    for (k, (seg, words)) in segments.enumerate() {
        if k > 0 {
            let e = match tr {
                Some(tr) => tr.span("epoch.snapshot", 0, k as u64, |_| vd.snapshot()),
                None => vd.snapshot(),
            };
            retained.push_back(e);
            if retained.len() > 2 {
                let old = retained.pop_front().expect("three snapshots retained");
                match tr {
                    Some(tr) => {
                        tr.span("epoch.drop_snapshot", 0, k as u64, |_| vd.drop_snapshot(old))
                    }
                    None => vd.drop_snapshot(old),
                }
            }
        }
        let post = if k > 0 { sizes.post_ckpt_ops } else { 0 };
        let first = k * sizes.ckpt_every;
        let (links, sink) = drive(&*vd, seg, first, sizes.sample_every, words, lats, post, tr, op);
        total.0 += links;
        total.1.absorb(sink);
    }
    total
}

pub fn run(input: &Input, sizes: &Sizes, seconds: f64, tracing: Tracing) -> Run {
    let m = input.ops.len();
    repeat(seconds, m as u64, tracing, |tr, lat| {
        let mut verdicts = vec![0u64; m.div_ceil(64)];
        let per_client = m / sizes.sample_every.max(1) / CLIENTS + 2;
        let mut lats: Vec<Vec<u32>> =
            (0..CLIENTS).map(|_| Vec::with_capacity(per_client)).collect();
        let base = alloc::live();
        alloc::reset_peak();
        let t = Instant::now();
        let mut vd: VersionedDsu = match tr {
            Some(tr) => {
                tr.span("epoch.with_initial", 0, 0, |_| VersionedDsu::with_initial(input.n))
            }
            None => VersionedDsu::with_initial(input.n),
        };
        let setup_s = t.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let op = |vd: &VersionedDsu, a, b, unite, _: &mut ()| {
            if unite {
                vd.unite(a, b)
            } else {
                vd.same_set(a, b)
            }
        };
        let (links, ()) = checkpointed(&mut vd, input, sizes, &mut verdicts, &mut lats, tr, &op);
        let timed_s = t0.elapsed().as_secs_f64();
        let mem_bytes = alloc::peak() - base;
        let failed = verify(input, &vd.labels_snapshot(), links, &verdicts);
        lat.extend(lats.concat());
        Repeat { ops: m as u64, failed, setup_s, timed_s, mem_bytes, traced: tr.is_some() }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_the_oracle() {
        let s = Sizes::QUICK;
        let input = input(s.online_n, s.online_ops, 9);
        let out = run(&input, &s, 0.05, Tracing::Off).outcome();
        assert!(out.correct(), "{}", out.json());
    }

    #[test]
    fn pieces_are_word_aligned_and_cover() {
        let p = pieces(1000, CLIENTS);
        assert_eq!(p.first().map(|r| r.start), Some(0));
        assert_eq!(p.last().map(|r| r.end), Some(1000));
        assert!(p.windows(2).all(|w| w[0].end == w[1].start && w[1].start % 64 == 0));
    }

    #[test]
    fn checker_refutes_a_wrong_verdict_and_a_wrong_partition() {
        let input = input(4096, 1024, 1);
        let labels: Vec<usize> = (0..4096).map(|v| input.oracle.root(v)).collect();
        let links = 4096 - check::set_count(&labels);
        let mut verdicts = input.allowed.clone();
        assert_eq!(verify(&input, &labels, links, &verdicts), 0);
        // A `true` for a query whose endpoints are never connected.
        let (i, _) = input
            .ops
            .iter()
            .enumerate()
            .find(|&(_, &op)| {
                let (a, b, unite) = decode(op);
                !unite && !input.oracle.connected(a, b)
            })
            .expect("a disconnected query");
        verdicts[i / 64] |= 1 << (i % 64);
        assert_eq!(verify(&input, &labels, links, &verdicts), 1);
        // One element split off its set.
        let v = (0..4096).find(|&v| labels[v] != v).expect("a non-root element");
        let mut split = labels.clone();
        split[v] = v;
        assert_eq!(verify(&input, &split, links, &input.allowed), 1024);
    }
}
