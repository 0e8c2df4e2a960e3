//! Graph substrate and union-find applications.
//!
//! The paper's introduction motivates concurrent set union with graph
//! workloads: maintaining connected components under edge insertions,
//! minimum spanning trees, and percolation testing. This crate provides the
//! graphs, the generators, and those applications, each in a sequential
//! (oracle) and a concurrent (measured) flavor:
//!
//! * [`EdgeList`] / [`Csr`] — graph representations, with a BFS component
//!   oracle that owes nothing to union-find;
//! * [`gen`] — seeded generators: `G(n, m)`, 2-D grids, R-MAT skewed
//!   graphs, and random trees with extra edges;
//! * [`components`] — connected components sequentially and in parallel
//!   over any [`ConcurrentUnionFind`](concurrent_dsu::ConcurrentUnionFind);
//! * [`mst`] — Kruskal (sequential) and a parallel Borůvka built on the
//!   concurrent structure;
//! * [`percolation`] — site-percolation on a square grid (the
//!   Sedgewick–Wayne classroom application the paper cites), including
//!   [`percolation::percolation_threshold_versioned`], which recovers the
//!   exact one-by-one percolation threshold from batched ingestion by
//!   binary search over the epoch layer's snapshots.
//!
//! # Example
//!
//! ```
//! use dsu_graph::gen;
//! use dsu_graph::components::{parallel_components, count_components};
//!
//! let g = gen::gnm(1000, 1500, 7);
//! let labels = parallel_components(&g, 4);
//! let k = count_components(&labels);
//! assert!(k >= 1 && k <= 1000);
//! ```

pub mod components;
pub mod gen;
pub mod graph;
pub mod mst;
pub mod percolation;

pub use graph::{Csr, Edge, EdgeList};
