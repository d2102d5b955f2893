//! Directed pseudoforests (functional graphs with optional successors).
//!
//! Definition 3 of the paper: a *directed pseudoforest* is a directed graph
//! in which every vertex has out-degree at most one.  Both switching graphs
//! used by the paper are of this shape: the switching graph `G_M` of a
//! popular matching (Lemma 4) and the switching graph `H_M` of a stable
//! matching (Lemma 17).  Every weakly-connected component contains either a
//! single sink or a single cycle, and the algorithms need exactly two
//! queries answered in NC: *which vertices lie on a cycle* and *what is the
//! vertex sequence of each cycle*.

use rayon::prelude::*;

use pm_pram::tracker::DepthTracker;
use pm_pram::{Idx, Workspace, SEQUENTIAL_CUTOFF};

use crate::connected::{connected_components_parallel, ComponentLabels};

/// Marks the vertices of a raw successor slice that lie on a directed
/// cycle, writing into `out` (capacity reused) with all scratch checked out
/// of `ws` — the allocation-free kernel behind
/// [`FunctionalGraph::on_cycle_parallel`], usable without materialising a
/// `FunctionalGraph` (the switching-graph pipeline feeds its own successor
/// array straight in).  `Idx::NONE` marks a sink.
pub fn on_cycle_of_idx(
    succ: &[Idx],
    out: &mut Vec<bool>,
    ws: &mut Workspace,
    tracker: &DepthTracker,
) {
    let n = succ.len();
    out.clear();
    if n == 0 {
        return;
    }
    // Sinks become fixed points so iteration is total.  The doubling
    // ping-pongs two checked-out buffers; both are fully overwritten
    // before any read, so the checkouts skip the fill.
    let mut ptr = ws.take_idx_dirty(n, Idx::ZERO);
    for (v, p) in ptr.iter_mut().enumerate() {
        *p = if succ[v].is_none() {
            Idx::new(v)
        } else {
            succ[v]
        };
    }
    let mut scratch = ws.take_idx_dirty(n, Idx::ZERO);
    let rounds = if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    };
    for _ in 0..rounds {
        tracker.round();
        tracker.work(n as u64);
        if n >= SEQUENTIAL_CUTOFF {
            scratch
                .par_iter_mut()
                .enumerate()
                .for_each(|(v, s)| *s = ptr[ptr[v]]);
        } else {
            for (v, s) in scratch.iter_mut().enumerate() {
                *s = ptr[ptr[v]];
            }
        }
        std::mem::swap(&mut ptr, &mut scratch);
    }

    // Image computation: one concurrent-write round.
    tracker.round();
    tracker.work(n as u64);
    let mut in_image = ws.take_bool(n, false);
    for &target in &ptr {
        in_image[target] = true;
    }
    out.resize(n, false);
    for (v, o) in out.iter_mut().enumerate() {
        *o = in_image[v] && succ[v].is_some();
    }
    ws.put_idx(ptr);
    ws.put_idx(scratch);
    ws.put_bool(in_image);
}

/// Extracts every directed cycle of a raw successor slice given its
/// cycle-vertex marking, each cycle in successor order starting from its
/// smallest vertex, sorted by that smallest vertex.
pub fn extract_cycles_marked_idx(succ: &[Idx], on_cycle: &[bool]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut seen = vec![false; n];
    let mut cycles = Vec::new();
    for start in 0..n {
        if !on_cycle[start] || seen[start] {
            continue;
        }
        let mut cycle = Vec::new();
        let mut v = start;
        loop {
            seen[v] = true;
            cycle.push(v);
            let next = succ[v];
            debug_assert!(next.is_some(), "cycle vertex has a successor");
            v = next.get();
            if v == start {
                break;
            }
        }
        cycles.push(cycle);
    }
    cycles.sort_by_key(|c| c[0]);
    cycles
}

/// A directed graph where every vertex has at most one outgoing edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalGraph {
    succ: Vec<Option<usize>>,
}

impl FunctionalGraph {
    /// Creates a functional graph from the successor array.
    ///
    /// # Panics
    /// Panics if a successor index is out of range.
    pub fn new(succ: Vec<Option<usize>>) -> Self {
        let n = succ.len();
        for (v, s) in succ.iter().enumerate() {
            if let Some(s) = s {
                assert!(*s < n, "successor of {v} out of range");
            }
        }
        Self { succ }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.succ.len()
    }

    /// The successor of `v`, if any.
    pub fn successor(&self, v: usize) -> Option<usize> {
        self.succ[v]
    }

    /// The successor array.
    pub fn successors(&self) -> &[Option<usize>] {
        &self.succ
    }

    /// Vertices with no outgoing edge (the sinks of the pseudoforest).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.n()).filter(|&v| self.succ[v].is_none()).collect()
    }

    /// The directed edges `(v, succ(v))`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.succ
            .iter()
            .enumerate()
            .filter_map(|(v, s)| s.map(|s| (v, s)))
            .collect()
    }

    /// Marks the vertices that lie on a (directed) cycle, using function
    /// composition by pointer doubling: after `⌈log₂ n⌉` squarings the array
    /// holds `succ^N` with `N ≥ n`, and a vertex is on a cycle iff it is in
    /// the image of `succ^N` restricted to non-sinks.
    pub fn on_cycle_parallel(&self, tracker: &DepthTracker) -> Vec<bool> {
        let mut out = Vec::new();
        on_cycle_of_idx(&self.succ_idx(), &mut out, &mut Workspace::new(), tracker);
        out
    }

    /// The successor array in the `Idx`-sentinel form the parallel kernels
    /// take.  `new` keeps every successor below `n`, so checking `n` once
    /// covers every narrowing.
    fn succ_idx(&self) -> Vec<Idx> {
        assert!(
            self.n() <= Idx::MAX_INDEX + 1,
            "functional graph exceeds the u32 index layer"
        );
        self.succ.iter().map(|&s| Idx::from_option(s)).collect()
    }

    /// Sequential cycle-vertex detection (three-colour walk), the baseline
    /// the parallel method is validated against.
    pub fn on_cycle_sequential(&self) -> Vec<bool> {
        let n = self.n();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut on_cycle = vec![false; n];
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            // Walk the unique path from `start` until a visited vertex or sink.
            let mut path = Vec::new();
            let mut v = start;
            loop {
                if state[v] == 1 {
                    // Found a new cycle: it is the suffix of `path` from `v`.
                    let pos = path.iter().position(|&u| u == v).expect("on stack");
                    for &u in &path[pos..] {
                        on_cycle[u] = true;
                    }
                    break;
                }
                if state[v] == 2 {
                    break;
                }
                state[v] = 1;
                path.push(v);
                match self.succ[v] {
                    Some(next) => v = next,
                    None => break,
                }
            }
            for &u in &path {
                state[u] = 2;
            }
        }
        on_cycle
    }

    /// Extracts every directed cycle, each given in successor order starting
    /// from its smallest vertex, sorted by that smallest vertex.
    ///
    /// Cycle membership is determined in parallel
    /// ([`on_cycle_parallel`](Self::on_cycle_parallel)); the canonical
    /// representative of each cycle is found by min-label pointer doubling;
    /// the final vertex sequences are read off by walking each cycle once
    /// (total `O(n)` work).
    pub fn cycles_parallel(&self, tracker: &DepthTracker) -> Vec<Vec<usize>> {
        let succ = self.succ_idx();
        let mut on_cycle = Vec::new();
        on_cycle_of_idx(&succ, &mut on_cycle, &mut Workspace::new(), tracker);
        extract_cycles_marked_idx(&succ, &on_cycle)
    }

    /// Sequential counterpart of [`cycles_parallel`](Self::cycles_parallel).
    pub fn cycles_sequential(&self) -> Vec<Vec<usize>> {
        extract_cycles_marked_idx(&self.succ_idx(), &self.on_cycle_sequential())
    }

    /// Weakly-connected components of the pseudoforest (parallel).
    pub fn weak_components(&self, tracker: &DepthTracker) -> ComponentLabels {
        connected_components_parallel(self.n(), &self.edges(), tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fg(succ: Vec<Option<usize>>) -> FunctionalGraph {
        FunctionalGraph::new(succ)
    }

    #[test]
    fn empty_graph() {
        let g = fg(vec![]);
        let t = DepthTracker::new();
        assert!(g.on_cycle_parallel(&t).is_empty());
        assert!(g.cycles_parallel(&t).is_empty());
        assert!(g.sinks().is_empty());
    }

    #[test]
    fn single_sink_and_self_loop() {
        let t = DepthTracker::new();
        // vertex 0 is a sink; vertex 1 is a self-loop (a cycle of length 1)
        let g = fg(vec![None, Some(1)]);
        assert_eq!(g.sinks(), vec![0]);
        assert_eq!(g.on_cycle_parallel(&t), vec![false, true]);
        assert_eq!(g.on_cycle_sequential(), vec![false, true]);
        assert_eq!(g.cycles_parallel(&t), vec![vec![1]]);
    }

    #[test]
    fn simple_cycle_with_tail() {
        let t = DepthTracker::new();
        // 3 -> 0 -> 1 -> 2 -> 0, 4 -> 3, sink 5
        let g = fg(vec![Some(1), Some(2), Some(0), Some(0), Some(3), None]);
        let on = g.on_cycle_parallel(&t);
        assert_eq!(on, vec![true, true, true, false, false, false]);
        assert_eq!(on, g.on_cycle_sequential());
        assert_eq!(g.cycles_parallel(&t), vec![vec![0, 1, 2]]);
        assert_eq!(g.cycles_sequential(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn two_cycles_and_tree_component() {
        let t = DepthTracker::new();
        // cycle A: 0 -> 1 -> 0; cycle B: 2 -> 3 -> 4 -> 2;
        // tree component: 5 -> 6, 6 sink; tail onto cycle A: 7 -> 0
        let g = fg(vec![
            Some(1),
            Some(0),
            Some(3),
            Some(4),
            Some(2),
            Some(6),
            None,
            Some(0),
        ]);
        let cycles = g.cycles_parallel(&t);
        assert_eq!(cycles, vec![vec![0, 1], vec![2, 3, 4]]);
        assert_eq!(cycles, g.cycles_sequential());
        assert_eq!(g.sinks(), vec![6]);
        let comps = g.weak_components(&t);
        assert_eq!(comps.count, 3);
    }

    #[test]
    fn cycle_order_follows_successors() {
        let t = DepthTracker::new();
        // 2 -> 5 -> 1 -> 2 is a cycle; canonical start is 1.
        let g = fg(vec![None, Some(2), Some(5), None, None, Some(1)]);
        assert_eq!(g.cycles_parallel(&t), vec![vec![1, 2, 5]]);
    }

    #[test]
    fn long_path_no_cycle() {
        let t = DepthTracker::new();
        let n = 50_000;
        let succ: Vec<Option<usize>> = (0..n)
            .map(|v| if v + 1 < n { Some(v + 1) } else { None })
            .collect();
        let g = fg(succ);
        assert!(g.on_cycle_parallel(&t).iter().all(|&b| !b));
        assert!(g.cycles_parallel(&t).is_empty());
    }

    /// Every directed cycle by brute-force walking: `s` starts a cycle iff
    /// the walk from `s` returns to `s` without meeting a smaller vertex.
    fn naive_cycles(succ: &[Option<usize>]) -> Vec<Vec<usize>> {
        let mut cycles = Vec::new();
        for s in 0..succ.len() {
            let mut cycle = vec![s];
            let mut v = s;
            while let Some(w) = succ[v] {
                if w == s {
                    cycles.push(cycle);
                    break;
                }
                if w < s || cycle.len() > succ.len() {
                    break;
                }
                cycle.push(w);
                v = w;
            }
        }
        cycles
    }

    #[test]
    fn idx_sentinel_kernels_match_naive_cycles() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(555);
        let t = DepthTracker::new();
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        for &n in &[0usize, 1, 2, 40, 3000] {
            let succ: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    if rng.random_range(0..6) == 0 {
                        None
                    } else {
                        Some(rng.random_range(0..n))
                    }
                })
                .collect();
            let want = naive_cycles(&succ);
            let mut want_marks = vec![false; n];
            for &v in want.iter().flatten() {
                want_marks[v] = true;
            }
            let succ_idx: Vec<Idx> = succ.iter().map(|&s| Idx::from_option(s)).collect();
            on_cycle_of_idx(&succ_idx, &mut out, &mut ws, &t);
            assert_eq!(out, want_marks, "n = {n}");
            assert_eq!(extract_cycles_marked_idx(&succ_idx, &out), want, "n = {n}");
        }
    }

    #[test]
    fn large_random_functional_graphs_match_sequential() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for &n in &[2usize, 17, 400, 5000] {
            let succ: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    if rng.random_range(0..8) == 0 {
                        None
                    } else {
                        Some(rng.random_range(0..n))
                    }
                })
                .collect();
            let g = fg(succ);
            let t = DepthTracker::new();
            assert_eq!(g.on_cycle_parallel(&t), g.on_cycle_sequential(), "n={n}");
            assert_eq!(g.cycles_parallel(&t), g.cycles_sequential(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_successor_panics() {
        let _ = fg(vec![Some(3)]);
    }
}
