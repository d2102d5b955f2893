//! Connected components of generic undirected graphs: a sequential
//! union–find with canonical labels.
//!
//! Theorem 8 of the paper invokes the Cole–Vishkin connected-components
//! algorithm on the undirected view of a pseudoforest.  No production path
//! needs general components: the switching graph is functional, so its
//! components come from the forest pointer-jumping and min-label cycle
//! kernels (`SwitchingGraph::components` in `pm_popular`).  What remains
//! here is the sequential baseline, used as the test oracle for those
//! components and as the component-counting step of the Theorem 8
//! reproductions in [`crate::cycle`] and [`crate::pseudoforest`]
//! (experiment E7).  Labels are canonical: every vertex is labelled with the
//! minimum vertex id of its component.

/// Canonical component labelling: `label[v]` is the smallest vertex id in
/// `v`'s component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// Per-vertex canonical label (minimum vertex id of the component).
    pub label: Vec<usize>,
    /// Number of distinct components.
    pub count: usize,
}

/// Sequential union–find with canonical (min-vertex) labels.
///
/// # Panics
///
/// Panics if an edge endpoint is out of range.
pub fn connected_components_union_find(n: usize, edges: &[(usize, usize)]) -> ComponentLabels {
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            // Union by canonical label: the smaller id becomes the root, so
            // every root is its component's minimum vertex.
            let (small, big) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[big] = small;
        }
    }

    let mut label = vec![0usize; n];
    for (v, l) in label.iter_mut().enumerate() {
        *l = find(&mut parent, v);
    }
    let count = label.iter().enumerate().filter(|&(v, &l)| v == l).count();
    ComponentLabels { label, count }
}

/// Number of connected components (sequential).
pub fn count_components(n: usize, edges: &[(usize, usize)]) -> usize {
    connected_components_union_find(n, edges).count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical labels by flooding from every vertex in increasing order:
    /// the first vertex to reach a component is its minimum.
    fn flood_labels(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut label = vec![usize::MAX; n];
        for s in 0..n {
            if label[s] != usize::MAX {
                continue;
            }
            label[s] = s;
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &w in &adj[u] {
                    if label[w] == usize::MAX {
                        label[w] = s;
                        stack.push(w);
                    }
                }
            }
        }
        label
    }

    fn check_agreement(n: usize, edges: &[(usize, usize)]) {
        let uf = connected_components_union_find(n, edges);
        let want = flood_labels(n, edges);
        assert_eq!(uf.label, want, "labels differ for n={n}");
        let roots = want.iter().enumerate().filter(|&(v, &l)| v == l).count();
        assert_eq!(uf.count, roots);
    }

    #[test]
    fn empty_graph() {
        let c = connected_components_union_find(0, &[]);
        assert_eq!(c.count, 0);
        let c = connected_components_union_find(5, &[]);
        assert_eq!(c.count, 5);
        assert_eq!(c.label, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn simple_components() {
        // {0,1,2} via path, {3,4} via edge, {5} isolated
        let edges = [(0, 1), (1, 2), (3, 4)];
        check_agreement(6, &edges);
        let seq = connected_components_union_find(6, &edges);
        assert_eq!(seq.label, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(seq.count, 3);
    }

    #[test]
    fn cycles_and_self_loops() {
        let edges = [(0, 1), (1, 2), (2, 0), (3, 3)];
        check_agreement(5, &edges);
        let seq = connected_components_union_find(5, &edges);
        assert_eq!(seq.count, 3); // {0,1,2}, {3}, {4}
    }

    #[test]
    fn random_graphs_agree() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for &n in &[2usize, 10, 100, 1000] {
            for density in [1usize, 2, 4] {
                let m = n * density / 2;
                let edges: Vec<(usize, usize)> = (0..m)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                    .collect();
                check_agreement(n, &edges);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_endpoint_panics() {
        let _ = connected_components_union_find(2, &[(0, 7)]);
    }

    #[test]
    fn count_components_helper() {
        assert_eq!(count_components(4, &[(0, 1), (2, 3)]), 2);
        assert_eq!(count_components(4, &[]), 4);
        assert_eq!(count_components(4, &[(0, 1), (1, 2), (2, 3)]), 1);
    }
}
