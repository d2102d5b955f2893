//! Bipartite graphs over a left vertex set (applicants) and a right vertex
//! set (posts).
//!
//! The popular matching instance is a bipartite graph `G = (A ∪ P, E)`; the
//! reduced graph `G'` of Section III is another bipartite graph over the
//! same vertex sets.  Adjacency is stored in a flat CSR layout for *both*
//! sides — one offsets array plus one flat neighbour array per side — so
//! degree queries from either side are O(1), neighbourhoods are contiguous
//! slices, and Hopcroft–Karp's BFS/DFS sweeps stream through memory instead
//! of hopping between per-vertex heap allocations.  Both CSR arrays are
//! 32-bit ([`Idx`] neighbours, `u32` offsets — DESIGN.md §7): vertex and
//! edge counts are checked to fit at construction, and every sweep over the
//! adjacency moves half the bytes of the former `usize` layout.  Graphs are
//! built in one shot ([`from_edges`](BipartiteGraph::from_edges) or the
//! allocation-lean [`from_left_csr`](BipartiteGraph::from_left_csr)) and
//! are immutable afterwards.

use rayon::prelude::*;

use pm_pram::Idx;

/// A simple undirected bipartite graph with `n_left` left vertices and
/// `n_right` right vertices, in 32-bit CSR form.  Parallel edges are not
/// stored (duplicates in the input edge list are dropped).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    /// Left CSR: neighbours of `l` are `left_adj[left_off[l]..left_off[l+1]]`.
    left_off: Vec<u32>,
    left_adj: Vec<Idx>,
    /// Right CSR: neighbours of `r` are `right_adj[right_off[r]..right_off[r+1]]`.
    right_off: Vec<u32>,
    right_adj: Vec<Idx>,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    ///
    /// # Panics
    /// Panics if a side exceeds the 32-bit index range.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        assert!(
            n_left <= Idx::MAX_INDEX && n_right <= Idx::MAX_INDEX,
            "side size exceeds the u32 index layer"
        );
        Self {
            n_left,
            n_right,
            left_off: vec![0; n_left + 1],
            left_adj: Vec::new(),
            right_off: vec![0; n_right + 1],
            right_adj: Vec::new(),
        }
    }

    /// Builds a graph from an edge list of `(left, right)` pairs.  Duplicate
    /// pairs are dropped; per-vertex neighbour order follows the first
    /// occurrence of each edge in the list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a count exceeds the 32-bit
    /// index range.
    pub fn from_edges(n_left: usize, n_right: usize, edges: &[(usize, usize)]) -> Self {
        assert!(
            n_left <= Idx::MAX_INDEX && n_right <= Idx::MAX_INDEX && edges.len() <= Idx::MAX_INDEX,
            "graph size exceeds the u32 index layer"
        );
        for &(l, r) in edges {
            assert!(l < n_left, "left endpoint {l} out of range");
            assert!(r < n_right, "right endpoint {r} out of range");
        }
        // Dedup keeping first occurrences, then two counting-sort passes.
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        let deduped: Vec<(usize, usize)> =
            edges.iter().copied().filter(|&e| seen.insert(e)).collect();

        let mut counts = vec![0u32; n_left];
        for &(l, _) in &deduped {
            counts[l] += 1;
        }
        let left_off = bounds_from_counts(&counts);
        let mut cursor = left_off[..n_left].to_vec();
        let mut left_adj = vec![Idx::ZERO; deduped.len()];
        for &(l, r) in &deduped {
            left_adj[cursor[l] as usize] = Idx::new(r);
            cursor[l] += 1;
        }
        let (right_off, right_adj) = transpose(n_right, &deduped);
        Self {
            n_left,
            n_right,
            left_off,
            left_adj,
            right_off,
            right_adj,
        }
    }

    /// Builds a graph directly from a left-side CSR adjacency: the
    /// neighbours of left vertex `l` are `flat[offsets[l]..offsets[l + 1]]`.
    /// This is the fast path for callers that already hold flat adjacency
    /// (the reduced graph, Algorithm 2's remainder, the ties reduction) —
    /// no edge-list materialisation and no dedup hashing.
    ///
    /// # Panics
    /// Panics if `offsets` is not a monotone boundary array over `flat`, or
    /// if a neighbour is out of range.  Duplicate neighbours within one left
    /// vertex are the caller's responsibility (checked in debug builds).
    pub fn from_left_csr(n_left: usize, n_right: usize, offsets: Vec<u32>, flat: Vec<Idx>) -> Self {
        assert!(
            n_right <= Idx::MAX_INDEX,
            "side size exceeds the u32 index layer"
        );
        assert_eq!(offsets.len(), n_left + 1, "offsets length mismatch");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            flat.len(),
            "offsets/flat mismatch"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert!(
            flat.iter().all(|&r| r.get() < n_right),
            "right endpoint out of range"
        );
        debug_assert!(
            (0..n_left).all(|l| {
                let s = &flat[offsets[l] as usize..offsets[l + 1] as usize];
                s.iter().all(|r| s.iter().filter(|&x| x == r).count() == 1)
            }),
            "duplicate neighbour in CSR input"
        );
        let mut counts = vec![0u32; n_right];
        for &r in &flat {
            counts[r] += 1;
        }
        let right_off = bounds_from_counts(&counts);
        let mut cursor = right_off[..n_right].to_vec();
        let mut right_adj = vec![Idx::ZERO; flat.len()];
        for l in 0..n_left {
            for &r in &flat[offsets[l] as usize..offsets[l + 1] as usize] {
                right_adj[cursor[r.get()] as usize] = Idx::new(l);
                cursor[r.get()] += 1;
            }
        }
        Self {
            n_left,
            n_right,
            left_off: offsets,
            left_adj: flat,
            right_off,
            right_adj,
        }
    }

    /// Number of left vertices (applicants).
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices (posts).
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.left_adj.len()
    }

    /// Degree of a left vertex.
    pub fn degree_left(&self, l: usize) -> usize {
        (self.left_off[l + 1] - self.left_off[l]) as usize
    }

    /// Degree of a right vertex.
    pub fn degree_right(&self, r: usize) -> usize {
        (self.right_off[r + 1] - self.right_off[r]) as usize
    }

    /// Neighbours (right vertices) of a left vertex, in insertion order.
    pub fn neighbors_left(&self, l: usize) -> &[Idx] {
        &self.left_adj[self.left_off[l] as usize..self.left_off[l + 1] as usize]
    }

    /// Neighbours (left vertices) of a right vertex, in insertion order.
    pub fn neighbors_right(&self, r: usize) -> &[Idx] {
        &self.right_adj[self.right_off[r] as usize..self.right_off[r + 1] as usize]
    }

    /// The left-side CSR arrays `(offsets, flat)` — the raw 32-bit layout,
    /// for callers (like the ties reduction) that re-wrap the adjacency
    /// without materialising per-vertex vectors.
    pub fn left_csr(&self) -> (&[u32], &[Idx]) {
        (&self.left_off, &self.left_adj)
    }

    /// True iff the edge `(left, right)` is present.
    pub fn has_edge(&self, left: usize, right: usize) -> bool {
        self.neighbors_left(left).contains(&Idx::new(right))
    }

    /// All edges as `(left, right)` pairs, grouped by left vertex.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.left_adj.len());
        for l in 0..self.n_left {
            for &r in self.neighbors_left(l) {
                out.push((l, r.get()));
            }
        }
        out
    }

    /// Checks that a candidate matching (given as `assignment[left] =
    /// Some(right)`) uses only edges of this graph and matches each right
    /// vertex at most once.
    pub fn is_valid_matching(&self, assignment: &[Option<usize>]) -> bool {
        if assignment.len() != self.n_left {
            return false;
        }
        let mut used = vec![false; self.n_right];
        for (l, &a) in assignment.iter().enumerate() {
            if let Some(r) = a {
                if r >= self.n_right || !self.has_edge(l, r) || used[r] {
                    return false;
                }
                used[r] = true;
            }
        }
        true
    }

    /// Number of matched left vertices in a candidate matching.
    pub fn matching_size(assignment: &[Option<usize>]) -> usize {
        assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Right-vertex degrees computed in parallel (one PRAM round's worth of
    /// work); convenient for Algorithm 2's "some post has degree 1" tests.
    pub fn right_degrees(&self) -> Vec<usize> {
        if self.n_right >= pm_pram::SEQUENTIAL_CUTOFF {
            (0..self.n_right)
                .into_par_iter()
                .map(|r| (self.right_off[r + 1] - self.right_off[r]) as usize)
                .collect()
        } else {
            self.right_off
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .collect()
        }
    }

    /// Resident heap bytes of the four CSR arrays — the footprint estimate
    /// the bench harness reports as `bytes_per_entity`.
    pub fn heap_bytes(&self) -> usize {
        (self.left_off.len() + self.right_off.len()) * std::mem::size_of::<u32>()
            + (self.left_adj.len() + self.right_adj.len()) * std::mem::size_of::<Idx>()
    }
}

/// `n + 1` CSR boundaries from per-vertex counts (sequential; the callers
/// charging PRAM rounds use `pm_pram::scan::csr_offsets_into_u32` instead).
fn bounds_from_counts(counts: &[u32]) -> Vec<u32> {
    let mut off = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    off.push(0);
    for &c in counts {
        acc += c;
        off.push(acc);
    }
    off
}

/// Right-side CSR of a (deduplicated) edge list.
fn transpose(n_right: usize, edges: &[(usize, usize)]) -> (Vec<u32>, Vec<Idx>) {
    let mut counts = vec![0u32; n_right];
    for &(_, r) in edges {
        counts[r] += 1;
    }
    let off = bounds_from_counts(&counts);
    let mut cursor = off[..n_right].to_vec();
    let mut adj = vec![Idx::ZERO; edges.len()];
    for &(l, r) in edges {
        adj[cursor[r] as usize] = Idx::new(l);
        cursor[r] += 1;
    }
    (off, adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idxs(xs: &[usize]) -> Vec<Idx> {
        xs.iter().map(|&x| Idx::new(x)).collect()
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(3, 2);
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 2);
        assert_eq!(g.num_edges(), 0);
        assert!(g.edges().is_empty());
        assert_eq!(g.degree_left(2), 0);
        assert_eq!(g.degree_right(1), 0);
    }

    #[test]
    fn duplicate_edges_are_dropped() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (0, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree_left(0), 2);
        assert_eq!(g.degree_left(1), 0);
        assert_eq!(g.degree_right(0), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.neighbors_left(0), idxs(&[0, 1]).as_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = BipartiteGraph::from_edges(1, 1, &[(0, 5)]);
    }

    #[test]
    fn edge_list_roundtrip() {
        let edges = vec![(0, 1), (1, 0), (2, 1), (2, 2)];
        let g = BipartiteGraph::from_edges(3, 3, &edges);
        assert_eq!(g.edges(), edges);
        assert_eq!(g.right_degrees(), vec![1, 2, 1]);
        assert_eq!(g.neighbors_right(1), idxs(&[0, 2]).as_slice());
    }

    #[test]
    fn from_left_csr_matches_from_edges() {
        let edges = vec![(0, 1), (0, 2), (1, 0), (2, 2)];
        let via_edges = BipartiteGraph::from_edges(3, 3, &edges);
        let via_csr = BipartiteGraph::from_left_csr(3, 3, vec![0, 2, 3, 4], idxs(&[1, 2, 0, 2]));
        assert_eq!(via_edges, via_csr);
        let (off, flat) = via_csr.left_csr();
        assert_eq!(off, &[0, 2, 3, 4]);
        assert_eq!(flat, idxs(&[1, 2, 0, 2]).as_slice());
        assert!(via_csr.heap_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "offsets/flat mismatch")]
    fn from_left_csr_checks_boundaries() {
        let _ = BipartiteGraph::from_left_csr(1, 1, vec![0, 2], idxs(&[0]));
    }

    #[test]
    fn matching_validation() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 2)]);
        // Valid matching.
        assert!(g.is_valid_matching(&[Some(0), Some(1), Some(2)]));
        // Uses a non-edge.
        assert!(!g.is_valid_matching(&[Some(1), Some(0), Some(2)]));
        // Post 0 used twice.
        assert!(!g.is_valid_matching(&[Some(0), Some(0), Some(2)]));
        // Partial matchings are fine.
        assert!(g.is_valid_matching(&[None, Some(0), None]));
        // Wrong length.
        assert!(!g.is_valid_matching(&[Some(0)]));
        assert_eq!(BipartiteGraph::matching_size(&[Some(0), None, Some(2)]), 2);
    }
}
