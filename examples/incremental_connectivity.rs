//! On-line incremental connectivity: writers stream graph edges in while
//! readers continuously answer connectivity queries — "maintaining
//! connected components in a graph under edge insertions" from the paper's
//! introduction, plus on-the-fly cycle detection.
//!
//! Also demonstrates the growable structure: vertices are *created* during
//! the stream (paper Section 3 remark / Section 7).
//!
//! Run with: `cargo run --release --example incremental_connectivity`

use jt_dsu::{Dsu, GrowableDsu};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Streams `edges` into a fresh structure as one batch and returns
/// `(forest_edges, cycle_edges)`: `unite_batch` counts the edges that
/// joined two components, and every other edge closed a cycle (for any
/// graph, `cycle_edges = m - n + components`). Self-loops count as cycles.
fn classify_edges(n: usize, edges: &[(usize, usize)]) -> (usize, usize) {
    let dsu: Dsu = Dsu::new(n);
    let forest = dsu.unite_batch(edges);
    (forest, edges.len() - forest)
}

fn main() {
    // Part 1: fixed universe, concurrent writers + readers. Both operations
    // are linearizable, so a `same_set == true` any reader sees is
    // permanent.
    let n = 1 << 18;
    let conn: Dsu = Dsu::new(n);
    let true_answers = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..4 {
            let conn = &conn;
            s.spawn(move || {
                for i in (t..n - 1).step_by(4) {
                    conn.unite(i, i + 1); // a long path, built out of order
                }
            });
        }
        for _ in 0..4 {
            let conn = &conn;
            let true_answers = &true_answers;
            s.spawn(move || {
                let mut local = 0;
                for i in (0..n).step_by(64) {
                    if conn.same_set(i, (i + n / 2) % n) {
                        local += 1;
                    }
                }
                true_answers.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    println!(
        "streamed {} edges on 4 writer threads; readers saw {} early-true answers; \
         final components: {}",
        n - 1,
        true_answers.load(Ordering::Relaxed),
        conn.set_count()
    );
    assert_eq!(conn.set_count(), 1);

    // Part 2: cycle classification over a random stream.
    let edges: Vec<(usize, usize)> =
        (0..50_000).map(|i| ((i * 7919) % 10_000, (i * 104_729 + 3) % 10_000)).collect();
    let (forest, cycles) = classify_edges(10_000, &edges);
    println!("edge stream of {}: {forest} forest edges, {cycles} cycle edges", edges.len());

    // Part 3: growing universe — vertices appear as the stream mentions them.
    let dsu: GrowableDsu = GrowableDsu::new(0);
    let mut vertex_of = std::collections::HashMap::new();
    let mut intern = |dsu: &GrowableDsu, name: &str| {
        *vertex_of.entry(name.to_string()).or_insert_with(|| dsu.make_set())
    };
    let stream = [("a", "b"), ("c", "d"), ("b", "c"), ("e", "a")];
    for (u, v) in stream {
        let (x, y) = (intern(&dsu, u), intern(&dsu, v));
        let linked = dsu.unite(x, y);
        println!("insert ({u}, {v}): {}", if linked { "new link" } else { "cycle" });
    }
    assert!(dsu.same_set(vertex_of["e"], vertex_of["d"]));
    println!("growable universe ended with {} vertices in {} set(s)", dsu.len(), dsu.set_count());
}
