//! Site percolation on a square grid — the classroom union-find
//! application (Sedgewick & Wayne) cited by the paper's introduction.
//!
//! Sites of an `size × size` grid open one by one in random order; the
//! system *percolates* when an open path connects the top row to the bottom
//! row. Two virtual elements (TOP, BOTTOM) turn the question into one
//! `same_set` query. The percolation threshold for site percolation on the
//! square lattice is ≈ 0.592746; the Monte-Carlo estimate converging there
//! is a nice end-to-end sanity check of any union-find.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use concurrent_dsu::{Dsu, TwoTrySplit, VersionedDsu};
use sequential_dsu::{Compaction, Linking, SeqDsu};

/// One percolation trial: opens sites of an `size × size` grid in a
/// seed-determined uniform order and returns the fraction of open sites at
/// the moment the grid first percolates.
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn percolation_threshold(size: usize, seed: u64) -> f64 {
    assert!(size > 0, "grid must be non-empty");
    let n = size * size;
    let top = n;
    let bottom = n + 1;
    let mut dsu = SeqDsu::new(n + 2, Linking::ByRank, Compaction::Halving);
    let mut open = vec![false; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
    for (steps, &site) in order.iter().enumerate() {
        open[site] = true;
        let (r, c) = (site / size, site % size);
        if r == 0 {
            dsu.unite(site, top);
        }
        if r == size - 1 {
            dsu.unite(site, bottom);
        }
        let mut link = |other: usize| {
            if open[other] {
                dsu.unite(site, other);
            }
        };
        if r > 0 {
            link(site - size);
        }
        if r + 1 < size {
            link(site + size);
        }
        if c > 0 {
            link(site - 1);
        }
        if c + 1 < size {
            link(site + 1);
        }
        if dsu.same_set(top, bottom) {
            return (steps + 1) as f64 / n as f64;
        }
    }
    1.0
}

/// [`percolation_threshold`] with sites opened in bursts of `batch`,
/// united through the batched ingestion path ([`Dsu::unite_batch`]),
/// checking percolation once per burst — the batched-arrival shape the
/// rest of the workspace ingests edges in.
///
/// With `batch == 1` this opens sites in the same seed-determined order
/// and performs the same unites as [`percolation_threshold`], so the two
/// agree exactly (the tests check this); larger bursts coarsen the
/// answer's resolution to the burst boundary (never undershooting the
/// one-by-one threshold), trading precision for bulk ingestion.
///
/// # Panics
///
/// Panics if `size == 0` or `batch == 0`.
pub fn percolation_threshold_batched(size: usize, seed: u64, batch: usize) -> f64 {
    assert!(size > 0, "grid must be non-empty");
    assert!(batch > 0, "batch must be non-empty");
    let n = size * size;
    let top = n;
    let bottom = n + 1;
    let dsu: Dsu<TwoTrySplit> = Dsu::new(n + 2);
    let mut open = vec![false; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(6 * batch);
    let mut opened = 0;
    for burst in order.chunks(batch) {
        for &site in burst {
            open[site] = true;
        }
        pairs.clear();
        for &site in burst {
            let (r, c) = (site / size, site % size);
            if r == 0 {
                pairs.push((site, top));
            }
            if r == size - 1 {
                pairs.push((site, bottom));
            }
            let mut link = |other: usize| {
                if open[other] {
                    pairs.push((site, other));
                }
            };
            if r > 0 {
                link(site - size);
            }
            if r + 1 < size {
                link(site + size);
            }
            if c > 0 {
                link(site - 1);
            }
            if c + 1 < size {
                link(site + 1);
            }
        }
        dsu.unite_batch(&pairs);
        opened += burst.len();
        if dsu.same_set(top, bottom) {
            return opened as f64 / n as f64;
        }
    }
    1.0
}

/// The exact one-by-one percolation threshold recovered from **batched**
/// ingestion by binary search over epoch snapshots — the first payoff of
/// the versioned structure ([`VersionedDsu`]).
///
/// [`percolation_threshold`] pays one connectivity probe per opened site;
/// [`percolation_threshold_batched`] amortizes ingestion but coarsens the
/// answer to the burst boundary. This routine gets both: ingest in bursts
/// of `batch`, and when a burst first percolates, binary-search the exact
/// crossing *inside* the burst by rolling back to the pre-burst snapshot
/// (O(1) to take, O(forked segments) to restore) and replaying half-ranges
/// — instead of the linear re-sweep from scratch a snapshotless structure
/// would need.
///
/// The recovered threshold is **exactly** [`percolation_threshold`]`(size,
/// seed)` for every batch size (the tests pin this), because
/// prefix-connectivity is order-independent: whether the first `k` sites
/// of the shuffled order percolate depends only on the *set* of open
/// sites (set union is confluent and site-opening monotone), so
/// "percolates after `k` sites" is a monotone predicate of `k` and binary
/// search recovers its exact threshold.
///
/// # Panics
///
/// Panics if `size == 0` or `batch == 0`.
pub fn percolation_threshold_versioned(size: usize, seed: u64, batch: usize) -> f64 {
    assert!(size > 0, "grid must be non-empty");
    assert!(batch > 0, "batch must be non-empty");
    let n = size * size;
    let top = n;
    let bottom = n + 1;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
    // pos[site] = when `site` opens; an edge (site, neighbor) belongs to
    // the prefix-`k` graph iff both positions are below `k`, and is
    // emitted exactly once — by the later endpoint.
    let mut pos = vec![0usize; n];
    for (k, &site) in order.iter().enumerate() {
        pos[site] = k;
    }
    let edges_for = |range: std::ops::Range<usize>, out: &mut Vec<(usize, usize)>| {
        out.clear();
        for k in range {
            let site = order[k];
            let (r, c) = (site / size, site % size);
            if r == 0 {
                out.push((site, top));
            }
            if r == size - 1 {
                out.push((site, bottom));
            }
            let mut link = |other: usize| {
                if pos[other] < k {
                    out.push((site, other));
                }
            };
            if r > 0 {
                link(site - size);
            }
            if r + 1 < size {
                link(site + size);
            }
            if c > 0 {
                link(site - 1);
            }
            if c + 1 < size {
                link(site + 1);
            }
        }
    };

    let mut dsu: VersionedDsu = VersionedDsu::with_initial(n + 2);
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(6 * batch);
    let mut opened = 0;
    while opened < n {
        let burst_end = (opened + batch).min(n);
        // O(1) guard before the burst — the candidate rollback point.
        let pre = dsu.snapshot();
        edges_for(opened..burst_end, &mut pairs);
        dsu.unite_batch(&pairs);
        if dsu.same_set(top, bottom) {
            // The crossing is in (opened, burst_end]: shrink it to one
            // site by replaying half-ranges off the pre-burst snapshot.
            let (mut lo, mut hi) = (opened, burst_end);
            let mut base = pre;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                dsu.rollback(base); // state: exactly `lo` sites open
                edges_for(lo..mid, &mut pairs);
                dsu.unite_batch(&pairs);
                if dsu.same_set(top, bottom) {
                    hi = mid;
                } else {
                    // Advance the invariant "not percolated at lo": keep
                    // the mid-state and guard it with a fresh snapshot.
                    lo = mid;
                    dsu.drop_snapshot(base);
                    base = dsu.snapshot();
                }
            }
            return hi as f64 / n as f64;
        }
        dsu.drop_snapshot(pre);
        opened = burst_end;
    }
    1.0
}

/// Monte-Carlo estimate of the percolation threshold: the mean of
/// [`percolation_threshold`] over `trials` trials with consecutive seeds.
///
/// # Panics
///
/// Panics if `trials == 0` or `size == 0`.
pub fn percolation_mc(size: usize, trials: usize, base_seed: u64) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let sum: f64 = (0..trials).map(|t| percolation_threshold(size, base_seed + t as u64)).sum();
    sum / trials as f64
}

/// [`percolation_mc`] with trials fanned out over `threads` OS threads —
/// percolation is embarrassingly parallel across trials, which is itself a
/// realistic "many independent union-finds" load pattern.
///
/// # Panics
///
/// Panics if `trials == 0`, `size == 0`, or `threads == 0`.
pub fn percolation_mc_parallel(size: usize, trials: usize, base_seed: u64, threads: usize) -> f64 {
    assert!(threads > 0, "need at least one thread");
    assert!(trials > 0, "need at least one trial");
    let sum: f64 = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            handles.push(s.spawn(move || {
                let mut acc = 0.0;
                let mut trial = t;
                while trial < trials {
                    acc += percolation_threshold(size, base_seed + trial as u64);
                    trial += threads;
                }
                acc
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    sum / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_by_one_grid_percolates_immediately() {
        assert_eq!(percolation_threshold(1, 0), 1.0);
    }

    #[test]
    fn threshold_is_a_fraction() {
        for seed in 0..5 {
            let f = percolation_threshold(16, seed);
            assert!((0.0..=1.0).contains(&f));
            // Percolation needs at least `size` open sites (a full column).
            assert!(f >= 16.0 / 256.0);
        }
    }

    #[test]
    fn estimate_near_literature_value() {
        // p_c ≈ 0.5927 for site percolation; a 32x32 grid over 40 seeded
        // trials lands within ±0.06 comfortably (finite-size effects skew
        // slightly high on small grids).
        let est = percolation_mc(32, 40, 1000);
        assert!((0.52..=0.68).contains(&est), "estimate {est} suspiciously far from 0.5927");
    }

    #[test]
    fn batched_with_batch_one_equals_sequential() {
        for seed in 0..6 {
            assert_eq!(
                percolation_threshold_batched(12, seed, 1),
                percolation_threshold(12, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn batched_thresholds_bracket_the_exact_one() {
        for seed in [3, 9] {
            let exact = percolation_threshold(16, seed);
            for batch in [4, 16, 64] {
                let coarse = percolation_threshold_batched(16, seed, batch);
                // Bursts only check at burst boundaries: the answer rounds
                // the exact threshold up to the next boundary.
                assert!(coarse >= exact, "batch {batch} undershot");
                assert!(
                    coarse - exact <= batch as f64 / 256.0,
                    "batch {batch}: {coarse} too far above {exact}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch must be non-empty")]
    fn zero_batch_rejected() {
        percolation_threshold_batched(4, 0, 0);
    }

    #[test]
    fn versioned_recovers_the_exact_threshold_for_every_batch() {
        // The whole point: batched ingestion, *one-by-one* answer. Exact
        // equality (not tolerance) across seeds and batch sizes, including
        // batches far larger than the crossing burst.
        for seed in 0..6 {
            let exact = percolation_threshold(12, seed);
            for batch in [1, 3, 16, 50, 144] {
                assert_eq!(
                    percolation_threshold_versioned(12, seed, batch),
                    exact,
                    "seed {seed} batch {batch}"
                );
            }
        }
    }

    #[test]
    fn versioned_one_by_one_grid() {
        assert_eq!(percolation_threshold_versioned(1, 0, 4), 1.0);
    }

    #[test]
    fn parallel_mc_equals_sequential_mc() {
        let seq = percolation_mc(16, 24, 77);
        let par = percolation_mc_parallel(16, 24, 77, 4);
        assert!((seq - par).abs() < 1e-12, "same trials, same mean");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        percolation_mc(4, 0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        percolation_threshold(0, 0);
    }
}
