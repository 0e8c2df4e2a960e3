//! Seeded graph generators.
//!
//! All generators are deterministic in their seed (ChaCha12), so every
//! experiment's input can be reproduced exactly. Weights, where present,
//! are a random permutation of `0..m` — distinct, so minimum spanning trees
//! are unique and Kruskal/Borůvka must agree edge-for-edge.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::graph::EdgeList;

/// Uniform `G(n, m)`: `m` edges drawn uniformly (self-loops excluded,
/// parallel edges possible for simplicity — harmless to every consumer).
///
/// # Panics
///
/// Panics if `n < 2` and `m > 0`.
pub fn gnm(n: usize, m: usize, seed: u64) -> EdgeList {
    assert!(n >= 2 || m == 0, "need at least two vertices for edges");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut g = EdgeList::new(n);
    let mut weights: Vec<u64> = (0..m as u64).collect();
    weights.shuffle(&mut rng);
    for w in weights {
        let u = rng.gen_range(0..n);
        let v = loop {
            let v = rng.gen_range(0..n);
            if v != u {
                break v;
            }
        };
        g.push(u, v, w);
    }
    g
}

/// A 2-D grid graph on `rows × cols` vertices with the usual 4-neighbor
/// adjacency; vertex `(r, c)` is `r * cols + c`.
pub fn grid(rows: usize, cols: usize, seed: u64) -> EdgeList {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let n = rows * cols;
    let mut pairs = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                pairs.push((v, v + 1));
            }
            if r + 1 < rows {
                pairs.push((v, v + cols));
            }
        }
    }
    let mut weights: Vec<u64> = (0..pairs.len() as u64).collect();
    weights.shuffle(&mut rng);
    let mut g = EdgeList::new(n);
    for (&(u, v), &w) in pairs.iter().zip(&weights) {
        g.push(u, v, w);
    }
    g
}

/// R-MAT (Chakrabarti–Zhan–Faloutsos): recursively biased quadrant choice
/// produces the skewed degree distributions of real networks — the
/// contention-heavy regime for concurrent union-find. `scale` gives
/// `n = 2^scale` vertices.
///
/// # Panics
///
/// Panics if the quadrant probabilities are negative or don't sum to ~1.
pub fn rmat(scale: u32, m: usize, probs: (f64, f64, f64, f64), seed: u64) -> EdgeList {
    let (a, b, c, d) = probs;
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0, "negative probability");
    assert!(((a + b + c + d) - 1.0).abs() < 1e-9, "probabilities must sum to 1");
    let n = 1usize << scale;
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut weights: Vec<u64> = (0..m as u64).collect();
    weights.shuffle(&mut rng);
    let mut g = EdgeList::new(n);
    for w in weights {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left: nothing to add
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            g.push(u, v, w);
        }
    }
    g
}

/// The standard R-MAT parameters (0.57, 0.19, 0.19, 0.05).
pub fn rmat_standard(scale: u32, m: usize, seed: u64) -> EdgeList {
    rmat(scale, m, (0.57, 0.19, 0.19, 0.05), seed)
}

/// A uniformly random spanning tree (each vertex `i > 0` attaches to a
/// uniform vertex `< i`, then labels are shuffled) plus `extra` uniform
/// non-loop edges: connected by construction, with tunable density.
pub fn tree_plus(n: usize, extra: usize, seed: u64) -> EdgeList {
    assert!(n >= 1, "need at least one vertex");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut relabel: Vec<usize> = (0..n).collect();
    relabel.shuffle(&mut rng);
    let m = n.saturating_sub(1) + extra;
    let mut weights: Vec<u64> = (0..m as u64).collect();
    weights.shuffle(&mut rng);
    let mut g = EdgeList::new(n);
    let mut wi = 0;
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.push(relabel[i], relabel[j], weights[wi]);
        wi += 1;
    }
    for _ in 0..extra {
        if n < 2 {
            break;
        }
        let u = rng.gen_range(0..n);
        let v = loop {
            let v = rng.gen_range(0..n);
            if v != u {
                break v;
            }
        };
        g.push(u, v, weights[wi]);
        wi += 1;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Csr;

    fn component_count(csr: &Csr) -> usize {
        let labels = csr.bfs_components();
        labels.iter().enumerate().filter(|&(i, &l)| i == l).count()
    }

    #[test]
    fn gnm_shape_and_determinism() {
        let g = gnm(100, 250, 3);
        assert_eq!(g.n(), 100);
        assert_eq!(g.len(), 250);
        assert_eq!(g, gnm(100, 250, 3));
        assert_ne!(g, gnm(100, 250, 4));
        for e in g.edges() {
            assert_ne!(e.u, e.v, "no self-loops");
        }
    }

    #[test]
    fn gnm_weights_are_distinct() {
        let g = gnm(50, 200, 5);
        let mut ws: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 200);
    }

    #[test]
    fn grid_edge_count_and_connectivity() {
        let g = grid(5, 8, 2);
        assert_eq!(g.n(), 40);
        assert_eq!(g.len(), 5 * 7 + 4 * 8); // horizontal + vertical
        assert_eq!(component_count(&g.to_csr()), 1);
    }

    #[test]
    fn rmat_shape_and_skew() {
        let g = rmat_standard(10, 8000, 11);
        assert_eq!(g.n(), 1024);
        assert!(g.len() <= 8000); // self-loop candidates dropped
        assert!(g.len() > 7000, "too many dropped: {}", g.len());
        // Degree skew: the max degree should dwarf the average.
        let csr = g.to_csr();
        let max_deg = (0..1024).map(|v| csr.degree(v)).max().unwrap();
        let avg = 2.0 * g.len() as f64 / 1024.0;
        assert!(max_deg as f64 > 4.0 * avg, "max {max_deg} vs avg {avg}");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_checks_probabilities() {
        rmat(4, 10, (0.5, 0.5, 0.5, 0.5), 0);
    }

    #[test]
    fn tree_plus_is_connected() {
        for seed in 0..5 {
            let g = tree_plus(500, 100, seed);
            assert_eq!(g.n(), 500);
            assert_eq!(g.len(), 599);
            assert_eq!(component_count(&g.to_csr()), 1);
        }
    }

    #[test]
    fn tree_plus_single_vertex() {
        let g = tree_plus(1, 0, 0);
        assert_eq!(g.n(), 1);
        assert!(g.is_empty());
    }
}
