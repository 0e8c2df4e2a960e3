//! Seeded input generation and the workload sizes. Everything here runs
//! before timing starts and depends only on the seed and the sizes, so one
//! seed gives byte-identical inputs in every process.

use dsu_graph::EdgeList;

/// Every size the workloads and the traced layer table use.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// cc-rmat: `n = 2^rmat_scale` vertices.
    pub rmat_scale: u32,
    /// cc-rmat: R-MAT draws (self-loops are dropped, so slightly fewer edges).
    pub rmat_edges: usize,
    /// keyed-dedup: trace operations. 3M ops insert ≈2.1M distinct keys,
    /// far enough from the id table's next doubling segment (one more
    /// 2^23-slot segment per shard) that every seed allocates the same
    /// segments; near a doubling, memory would differ by ~30 % from seed
    /// to seed.
    pub keyed_ops: usize,
    /// keyed-dedup: trace operations per request (micro-batch). A pass has
    /// ~50 growth stalls (id-table and store segments); at 256 ops per
    /// request they are under 0.5 % of requests, so p99 measures ordinary
    /// requests instead of straddling the stalls (at 1024 it wandered by a
    /// quarter from seed to seed).
    pub keyed_batch: usize,
    /// online-mix: elements.
    pub online_n: usize,
    /// online-mix: operations.
    pub online_ops: usize,
    /// online-mix: operations between checkpoints.
    pub ckpt_every: usize,
    /// online-mix: time one op in this many (the clock pair costs more than
    /// an op).
    pub sample_every: usize,
    /// Traced run: ops right after a checkpoint that count as "post".
    pub post_ckpt_ops: usize,
    /// Traced run: online-mix stream prefix each ladder layer runs.
    pub ladder_ops: usize,
    /// Traced run: cc-rmat edge prefix each ladder layer ingests.
    pub ladder_edges: usize,
}

impl Sizes {
    /// The benchmark's sizes: cc-rmat is the DRAM-resident point (its
    /// 2^24-element store outgrows a ~100 MB L3), online-mix's 2^22 fits.
    pub const FULL: Sizes = Sizes {
        rmat_scale: 24,
        rmat_edges: 1 << 25,
        keyed_ops: 3_000_000,
        keyed_batch: 256,
        online_n: 1 << 22,
        online_ops: 32 << 20,
        ckpt_every: 1 << 22,
        sample_every: 64,
        post_ckpt_ops: 1 << 16,
        ladder_ops: 1 << 22,
        ladder_edges: 1 << 22,
    };

    /// Small sizes with the same shapes, for the benchmark's own tests.
    #[cfg(test)]
    pub const QUICK: Sizes = Sizes {
        rmat_scale: 12,
        rmat_edges: 1 << 13,
        keyed_ops: 20_000,
        keyed_batch: 256,
        online_n: 1 << 12,
        online_ops: 1 << 16,
        ckpt_every: 1 << 13,
        sample_every: 16,
        post_ckpt_ops: 1 << 10,
        ladder_ops: 1 << 14,
        ladder_edges: 1 << 13,
    };

    /// The sizes as a JSON object, for the fingerprint line.
    pub fn json(&self) -> String {
        format!(
            "{{\"rmat_scale\":{},\"rmat_edges\":{},\"keyed_ops\":{},\"keyed_batch\":{},\
             \"online_n\":{},\"online_ops\":{},\"ckpt_every\":{},\"sample_every\":{},\
             \"ladder_ops\":{},\"ladder_edges\":{}}}",
            self.rmat_scale,
            self.rmat_edges,
            self.keyed_ops,
            self.keyed_batch,
            self.online_n,
            self.online_ops,
            self.ckpt_every,
            self.sample_every,
            self.ladder_ops,
            self.ladder_edges
        )
    }
}

/// splitmix64: a cheap, seedable generator. The repository's ChaCha-based
/// R-MAT costs ~26 s at scale 24; this one keeps generation to seconds.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `stream` of `seed` (independent inputs of one seed
    /// use different streams).
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// R-MAT quadrant thresholds for (0.57, 0.19, 0.19, 0.05) on 16-bit draws.
const RMAT_A: u64 = 37_356;
const RMAT_AB: u64 = 49_807;
const RMAT_ABC: u64 = 62_259;

/// A seeded bijection of `0..2^bits`: xor, odd multiplies and xor-shifts
/// are each invertible modulo `2^bits`. It scatters R-MAT's hubs like a
/// random relabeling would, without a 2^scale-entry table whose random
/// lookups would dominate generation.
fn relabel(x: u64, bits: u32, keys: [u64; 3]) -> u64 {
    let mask = (1u64 << bits) - 1;
    let half = bits.div_ceil(2);
    let mut x = (x ^ keys[0]) & mask;
    x = x.wrapping_mul(keys[1] | 1) & mask;
    x ^= x >> half;
    x = x.wrapping_mul(keys[2] | 1) & mask;
    x ^ (x >> half)
}

/// R-MAT draws per independently seeded block: a block is the unit of
/// parallel generation, so any whole-block prefix is reproducible alone.
const RMAT_BLOCK: usize = 1 << 20;

/// One block of raw (unscrambled) R-MAT endpoint pairs, self-loops kept.
fn rmat_block(scale: u32, draws: usize, seed: u64, block: usize) -> Vec<(u64, u64)> {
    let mut rng = SplitMix::new(seed ^ (block as u64).wrapping_mul(0xA24B_AED4_963E_E407), 4);
    (0..draws)
        .map(|_| {
            let (mut u, mut v) = (0u64, 0u64);
            let (mut bits, mut left) = (0u64, 0u32);
            for _ in 0..scale {
                if left == 0 {
                    bits = rng.next_u64();
                    left = 4;
                }
                let r = bits & 0xFFFF;
                bits >>= 16;
                left -= 1;
                // Quadrant 0..4 without branches: bit 1 picks u's half,
                // bit 0 picks v's.
                let q = u64::from(r >= RMAT_A) + u64::from(r >= RMAT_AB) + u64::from(r >= RMAT_ABC);
                u = u << 1 | q >> 1;
                v = v << 1 | (q & 1);
            }
            (u, v)
        })
        .collect()
}

/// An R-MAT graph with the standard (0.57, 0.19, 0.19, 0.05) quadrants on
/// `2^scale` vertices from `draws` draws, self-loops dropped. Vertex labels
/// are scrambled by a seeded bijection so hubs do not cluster at low
/// indices. Blocks are generated on two threads; a shorter `draws` yields
/// a prefix of the longer graph's edges.
pub fn rmat(scale: u32, draws: usize, seed: u64) -> EdgeList {
    let mut rng = SplitMix::new(seed, 1);
    let keys = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
    let mut g = EdgeList::new(1usize << scale);
    let blocks = draws.div_ceil(RMAT_BLOCK);
    let len = |b: usize| RMAT_BLOCK.min(draws - b * RMAT_BLOCK);
    for pair in (0..blocks).step_by(2) {
        let (first, second) = std::thread::scope(|s| {
            let next = (pair + 1 < blocks)
                .then(|| s.spawn(move || rmat_block(scale, len(pair + 1), seed, pair + 1)));
            let first = rmat_block(scale, len(pair), seed, pair);
            (first, next.map(|h| h.join().expect("R-MAT generator panicked")))
        });
        for (u, v) in first.into_iter().chain(second.into_iter().flatten()) {
            if u != v {
                let w = g.len() as u64;
                g.push(relabel(u, scale, keys) as usize, relabel(v, scale, keys) as usize, w);
            }
        }
    }
    g
}

/// Bit 63 of an online op marks a `unite`; bits 0..32 and 32..63 are the
/// endpoints.
const UNITE_BIT: u64 = 1 << 63;

/// `m` online ops over `0..n`: 20 % `unite`, 80 % `same_set`, uniform
/// endpoints. A shorter `m` yields a prefix of the longer stream.
pub fn online_ops(n: usize, m: usize, seed: u64) -> Vec<u64> {
    assert!(n <= 1 << 31, "online-mix endpoints are packed in 31 bits");
    let mut rng = SplitMix::new(seed, 2);
    (0..m)
        .map(|_| {
            let a = rng.below(n) as u64;
            let b = rng.below(n) as u64;
            let unite = if rng.below(5) == 0 { UNITE_BIT } else { 0 };
            a | b << 32 | unite
        })
        .collect()
}

/// Endpoints and kind of a packed online op.
#[inline]
pub fn decode(op: u64) -> (usize, usize, bool) {
    ((op & 0xFFFF_FFFF) as usize, ((op >> 32) & 0x7FFF_FFFF) as usize, op & UNITE_BIT != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_is_a_bijection() {
        let keys = [7, 0x1234_5678_9abc_def1, 0xfedc_ba98_7654_3211];
        let mut seen = vec![false; 1 << 11];
        for x in 0..1u64 << 11 {
            let y = relabel(x, 11, keys) as usize;
            assert!(!std::mem::replace(&mut seen[y], true), "{x} collides");
        }
    }
}
