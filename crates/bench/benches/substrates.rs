//! Criterion benches for experiment E7 and the PRAM substrates: the four
//! pseudoforest cycle finders of Section IV-A, switching-graph components,
//! prefix scans and pointer jumping.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::workloads;
use pm_graph::connected::connected_components_union_find;
use pm_graph::cycle::{
    cycle_vertices_via_cc, cycle_vertices_via_closure, cycle_vertices_via_rank, undirected_view,
};
use pm_popular::instance::Assignment;
use pm_popular::reduced::ReducedGraph;
use pm_popular::switching::SwitchingGraph;
use pm_pram::pointer::pointer_jump_roots;
use pm_pram::scan::prefix_sum_exclusive;
use pm_pram::{DepthTracker, Idx};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// E7 — the four cycle-finding methods on random pseudoforests.
fn bench_cycle_finding(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_pseudoforest_cycles");
    for &n in &[256usize, 1_024] {
        let fg = workloads::pseudoforest(n);
        let ug = undirected_view(&fg);

        group.bench_with_input(BenchmarkId::new("pointer_doubling", n), &fg, |b, fg| {
            b.iter(|| {
                let tracker = DepthTracker::new();
                fg.on_cycle_parallel(&tracker)
            })
        });
        group.bench_with_input(BenchmarkId::new("transitive_closure", n), &fg, |b, fg| {
            b.iter(|| {
                let tracker = DepthTracker::new();
                cycle_vertices_via_closure(fg, &tracker)
            })
        });
        group.bench_with_input(BenchmarkId::new("sequential_walk", n), &fg, |b, fg| {
            b.iter(|| fg.on_cycle_sequential())
        });
        // The rank and component-counting oracles are O(m) rank/CC calls; they
        // are only benched at the smaller sizes to keep `cargo bench` short.
        if n <= 1_024 {
            group.bench_with_input(BenchmarkId::new("incidence_rank", n), &ug, |b, ug| {
                b.iter(|| {
                    let tracker = DepthTracker::new();
                    cycle_vertices_via_rank(&workloads::pseudoforest(n), &tracker).len()
                        + ug.num_edges()
                })
            });
            group.bench_with_input(BenchmarkId::new("component_counting", n), &fg, |b, fg| {
                b.iter(|| {
                    let tracker = DepthTracker::new();
                    cycle_vertices_via_cc(fg, &tracker)
                })
            });
        }
    }
    group.finish();
}

/// Connected components of a switching graph shaped as a long path with
/// random tails: `SwitchingGraph::components` (functional-graph labelling)
/// vs union–find over its `(p, succ p)` edges (the Theorem 8 substrate).
fn bench_connected_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_connected_components");
    {
        let n = 100_000usize;
        // Posts 0..n/2 form the spine 0 → 1 → … → n/2 − 1 (its end is the
        // sink); every later post t hangs off a pseudo-random earlier post,
        // so each tail runs into the spine.
        let spine = n / 2;
        let succ = |p: usize| -> Option<usize> {
            if p + 1 < spine {
                Some(p + 1)
            } else if p < spine {
                None
            } else {
                Some(((p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % p)
            }
        };
        let matched: Vec<usize> = (0..n).filter(|&p| succ(p).is_some()).collect();
        let f: Vec<Idx> = matched.iter().map(|&p| Idx::new(p)).collect();
        let s: Vec<Idx> = matched
            .iter()
            .map(|&p| Idx::new(succ(p).unwrap()))
            .collect();
        let is_f_post = vec![false; n + f.len()];
        let reduced = ReducedGraph::from_parts(n, f, s, is_f_post);
        let sg = SwitchingGraph::build(&reduced, &Assignment::new(matched), &DepthTracker::new());
        let edges: Vec<(usize, usize)> = (0..n).filter_map(|p| succ(p).map(|q| (p, q))).collect();
        let total = reduced.total_posts();
        // The cycle marking is memoised on the graph, so every iteration
        // after the first times the labelling and the bucketing.
        group.bench_with_input(BenchmarkId::new("switching_components", n), &sg, |b, sg| {
            b.iter(|| sg.components(&DepthTracker::new()).len())
        });
        group.bench_with_input(BenchmarkId::new("union_find", n), &edges, |b, edges| {
            b.iter(|| connected_components_union_find(total, edges).count)
        });
    }
    group.finish();
}

/// PRAM primitives: prefix sums and pointer jumping.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_primitives");
    {
        let n = 1_000_000usize;
        let xs: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
        group.bench_with_input(BenchmarkId::new("prefix_sum", n), &xs, |b, xs| {
            b.iter(|| {
                let tracker = DepthTracker::new();
                prefix_sum_exclusive(xs, &tracker).1
            })
        });
        let parent: Vec<usize> = (0..n).map(|i| i.saturating_sub(1)).collect();
        group.bench_with_input(
            BenchmarkId::new("pointer_jumping_path", n),
            &parent,
            |b, parent| {
                b.iter(|| {
                    let tracker = DepthTracker::new();
                    pointer_jump_roots(parent, &tracker).rounds
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_cycle_finding, bench_connected_components, bench_primitives
}
criterion_main!(benches);
