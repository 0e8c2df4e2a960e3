//! Forest visualization: render parent-pointer snapshots as Graphviz DOT
//! or indented ASCII trees.
//!
//! Union-find bugs are tree-shape bugs; being able to *look* at the forest
//! — compare the compressed forest against the union forest, watch
//! splitting shorten paths — is worth more than another counter. Both
//! renderers take plain `&[usize]` snapshots
//! ([`Dsu::parents_snapshot`](crate::Dsu::parents_snapshot) /
//! [`UnionForest::forest`](crate::UnionForest::forest)), so
//! they work for any structure in the workspace and for the APRAM
//! simulator's memories alike.

/// Renders a parent forest in Graphviz DOT, children pointing at parents.
///
/// Roots are drawn as double circles. `labels` supplies an optional
/// annotation per node (e.g. the random id); pass `|_| None` for plain
/// node numbers.
///
/// # Panics
///
/// Panics if a parent pointer is out of range.
///
/// # Example
///
/// ```
/// use concurrent_dsu::{viz, Dsu};
///
/// let dsu: Dsu = Dsu::new(4);
/// dsu.unite(0, 1);
/// let dot = viz::to_dot(&dsu.parents_snapshot(), |v| Some(format!("id {}", dsu.id_of(v))));
/// assert!(dot.starts_with("digraph forest {"));
/// assert!(dot.contains("->"));
/// ```
pub fn to_dot(parent: &[usize], labels: impl Fn(usize) -> Option<String>) -> String {
    let mut out = String::from("digraph forest {\n  rankdir=BT;\n");
    for (v, &p) in parent.iter().enumerate() {
        assert!(p < parent.len(), "parent {p} of {v} out of range");
        let label = match labels(v) {
            Some(extra) => format!("{v}\\n{extra}"),
            None => v.to_string(),
        };
        let shape = if p == v { "doublecircle" } else { "circle" };
        out.push_str(&format!("  n{v} [label=\"{label}\", shape={shape}];\n"));
        if p != v {
            out.push_str(&format!("  n{v} -> n{p};\n"));
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a parent forest as indented ASCII, one tree per root, children
/// sorted ascending:
///
/// ```text
/// 3
/// ├── 0
/// │   └── 2
/// └── 1
/// ```
///
/// # Panics
///
/// Panics if a parent pointer is out of range or the "forest" contains a
/// cycle.
pub fn to_ascii(parent: &[usize]) -> String {
    let n = parent.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (v, &p) in parent.iter().enumerate() {
        assert!(p < n, "parent {p} of {v} out of range");
        if p == v {
            roots.push(v);
        } else {
            children[p].push(v);
        }
    }
    let mut out = String::new();
    let mut emitted = 0usize;
    for &root in &roots {
        out.push_str(&root.to_string());
        out.push('\n');
        emitted += 1;
        emit_children(&children, root, "", &mut out, &mut emitted);
    }
    assert_eq!(emitted, n, "cycle detected: not all nodes reachable from roots");
    out
}

fn emit_children(
    children: &[Vec<usize>],
    node: usize,
    prefix: &str,
    out: &mut String,
    emitted: &mut usize,
) {
    let kids = &children[node];
    for (i, &kid) in kids.iter().enumerate() {
        let last = i + 1 == kids.len();
        out.push_str(prefix);
        out.push_str(if last { "└── " } else { "├── " });
        out.push_str(&kid.to_string());
        out.push('\n');
        *emitted += 1;
        let next_prefix = format!("{prefix}{}", if last { "    " } else { "│   " });
        emit_children(children, kid, &next_prefix, out, emitted);
    }
}

/// [`to_ascii`] plus a trailing [`DepthHistogram::summary`] line — the
/// forest dump to reach for when tree *shape* (not just membership) is the
/// question, e.g. before/after a storm of compacting finds.
///
/// # Panics
///
/// Panics if a parent pointer is out of range or the "forest" contains a
/// cycle.
pub fn forest_report(parent: &[usize]) -> String {
    format!("{}{}\n", to_ascii(parent), depth_histogram(parent).summary())
}

/// Depth distribution of a parent forest: how far each node sits from its
/// root, as a histogram plus max/mean — the shape summary path compaction
/// is judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthHistogram {
    /// `buckets[d]` = number of nodes at depth exactly `d` (roots are
    /// depth 0); length is `max + 1`, empty for an empty forest.
    pub buckets: Vec<usize>,
    /// Deepest node's depth.
    pub max: usize,
    /// Mean depth over all nodes (0.0 for an empty forest).
    pub mean: f64,
}

impl DepthHistogram {
    /// Number of nodes deeper than 1 — exactly zero when every node is a
    /// root or a root's child.
    pub fn nodes_deeper_than_one(&self) -> usize {
        self.buckets.iter().skip(2).sum()
    }

    /// One-line render for forest dumps and diagnostics, e.g.
    /// `depth max 3 mean 1.250 | 0:2 1:3 2:2 3:1`.
    pub fn summary(&self) -> String {
        let spread: Vec<String> =
            self.buckets.iter().enumerate().map(|(d, c)| format!("{d}:{c}")).collect();
        format!("depth max {} mean {:.3} | {}", self.max, self.mean, spread.join(" "))
    }
}

/// Computes the [`DepthHistogram`] of a parent snapshot in `O(n)` via
/// memoized root walks.
///
/// # Panics
///
/// Panics if a parent pointer is out of range or the "forest" contains a
/// cycle.
pub fn depth_histogram(parent: &[usize]) -> DepthHistogram {
    let n = parent.len();
    const UNKNOWN: usize = usize::MAX;
    let mut depth = vec![UNKNOWN; n];
    let mut path = Vec::new();
    for start in 0..n {
        let mut v = start;
        while depth[v] == UNKNOWN {
            assert!(parent[v] < n, "parent {} of {v} out of range", parent[v]);
            if parent[v] == v {
                depth[v] = 0;
                break;
            }
            path.push(v);
            assert!(path.len() <= n, "cycle detected at {v}");
            v = parent[v];
        }
        while let Some(u) = path.pop() {
            depth[u] = depth[parent[u]] + 1;
        }
    }
    let max = depth.iter().copied().max().unwrap_or(0);
    let mut buckets = vec![0usize; if n == 0 { 0 } else { max + 1 }];
    for &d in &depth {
        buckets[d] += 1;
    }
    let mean = if n == 0 { 0.0 } else { depth.iter().sum::<usize>() as f64 / n as f64 };
    DepthHistogram { buckets, max, mean }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_marks_roots_and_edges() {
        // 0 -> 2, 1 -> 2, 2 root, 3 root.
        let dot = to_dot(&[2, 2, 2, 3], |_| None);
        assert!(dot.contains("n0 -> n2;"));
        assert!(dot.contains("n1 -> n2;"));
        assert!(!dot.contains("n2 -> "));
        assert!(dot.contains("n2 [label=\"2\", shape=doublecircle];"));
        assert!(dot.contains("n3 [label=\"3\", shape=doublecircle];"));
    }

    #[test]
    fn dot_includes_labels() {
        let dot = to_dot(&[1, 1], |v| Some(format!("x{v}")));
        assert!(dot.contains("0\\nx0"));
    }

    #[test]
    fn ascii_draws_nested_trees() {
        // 3 is root of {0, 1, 2}: 0 -> 3, 1 -> 3, 2 -> 0.
        let art = to_ascii(&[3, 3, 0, 3]);
        let expected = "3\n├── 0\n│   └── 2\n└── 1\n";
        assert_eq!(art, expected);
    }

    #[test]
    fn ascii_multiple_roots() {
        let art = to_ascii(&[0, 1, 2]);
        assert_eq!(art, "0\n1\n2\n");
    }

    #[test]
    fn ascii_empty() {
        assert_eq!(to_ascii(&[]), "");
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn ascii_detects_cycles() {
        // 0 -> 1 -> 0 is not a forest.
        to_ascii(&[1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dot_bounds_check() {
        to_dot(&[5], |_| None);
    }

    #[test]
    fn depth_histogram_counts_shape() {
        // 3 root of {0, 1, 2}: 0 -> 3, 1 -> 3, 2 -> 0; plus singleton 4.
        let h = depth_histogram(&[3, 3, 0, 3, 4]);
        assert_eq!(h.buckets, vec![2, 2, 1]);
        assert_eq!(h.max, 2);
        assert!((h.mean - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(h.nodes_deeper_than_one(), 1);
        assert_eq!(h.summary(), "depth max 2 mean 0.800 | 0:2 1:2 2:1");
    }

    #[test]
    fn depth_histogram_empty_and_flat() {
        let empty = depth_histogram(&[]);
        assert_eq!((empty.max, empty.mean, empty.nodes_deeper_than_one()), (0, 0.0, 0));
        let flat = depth_histogram(&[1, 1, 1]);
        assert_eq!(flat.nodes_deeper_than_one(), 0);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn depth_histogram_detects_cycles() {
        depth_histogram(&[1, 0]);
    }

    #[test]
    fn depth_one_forest_has_zero_deep_nodes() {
        // Every node a root or a root's child: two stars and a singleton.
        // The histogram must report *exactly zero* nodes deeper than 1.
        let parent: Vec<usize> = (0..64).map(|i| if i == 63 { 63 } else { i % 2 }).collect();
        let h = depth_histogram(&parent);
        assert_eq!(h.nodes_deeper_than_one(), 0, "{}", h.summary());
        assert_eq!((h.max, h.buckets.clone()), (1, vec![3, 61]));
        let report = forest_report(&parent);
        assert!(report.trim_end().ends_with(&h.summary()), "{report}");
        assert_eq!(report.lines().count(), 64 + 1, "one line per node plus the summary");
    }

    #[test]
    fn renders_real_structure() {
        let dsu: crate::Dsu = crate::Dsu::new(6);
        dsu.unite(0, 1);
        dsu.unite(2, 3);
        dsu.unite(0, 2);
        let snapshot = dsu.parents_snapshot();
        let art = to_ascii(&snapshot);
        // 6 nodes, one line each.
        assert_eq!(art.lines().count(), 6);
        let dot = to_dot(&snapshot, |v| Some(dsu.id_of(v).to_string()));
        // Three links happened, so exactly three nodes are non-roots.
        assert_eq!(dot.matches(" -> ").count(), 3);
    }
}
