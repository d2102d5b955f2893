//! Criterion benches for experiments E9 (ties reduction / Hopcroft–Karp) and
//! E10 (Algorithm 4, the next stable matching).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::workloads;
use pm_matching::gale_shapley::gale_shapley_man_optimal;
use pm_matching::hopcroft_karp::hopcroft_karp;
use pm_pram::DepthTracker;
use pm_stable::next::{next_stable_matchings, reduced_men_lists, NextStableOutcome};
use pm_stable::rotations::exposed_rotations_sequential;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// E9 — the maximum-matching oracle of the ties reduction.
fn bench_ties(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_ties_reduction");
    for &n in &[10_000usize, 50_000] {
        let g = workloads::bipartite(n);
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", n), &g, |b, g| {
            b.iter(|| hopcroft_karp(g).size())
        });
    }
    group.finish();
}

/// E10 — Algorithm 4 vs the sequential rotation finder at the man-optimal
/// matching of random instances, and a whole lattice walk with Algorithm 4.
fn bench_next_stable(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_next_stable");
    for &n in &[256usize, 1_024] {
        let inst = workloads::stable_marriage(n);
        let m0 = inst.man_optimal();

        group.bench_with_input(
            BenchmarkId::new("algorithm4", n),
            &(&inst, &m0),
            |b, (inst, m0)| {
                b.iter(|| {
                    let tracker = DepthTracker::new();
                    next_stable_matchings(inst, m0, &tracker)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_rotations", n),
            &(&inst, &m0),
            |b, (inst, m0)| b.iter(|| exposed_rotations_sequential(inst, m0)),
        );
        group.bench_with_input(
            BenchmarkId::new("reduced_lists_only", n),
            &(&inst, &m0),
            |b, (inst, m0)| {
                b.iter(|| {
                    let tracker = DepthTracker::new();
                    reduced_men_lists(inst, m0, &tracker).len()
                })
            },
        );
    }

    // The access pattern of the paper batch: man-optimal → woman-optimal,
    // eliminating the first exposed rotation at every step.
    let inst = workloads::stable_marriage(256);
    group.bench_with_input(BenchmarkId::new("walk", 256), &inst, |b, inst| {
        b.iter(|| {
            let tracker = DepthTracker::new();
            let mut current = inst.man_optimal();
            let mut steps = 0usize;
            while let NextStableOutcome::Next(results) =
                next_stable_matchings(inst, &current, &tracker)
            {
                current = results.into_iter().next().expect("a rotation").1;
                steps += 1;
            }
            steps
        })
    });
    group.finish();
}

/// The Gale–Shapley substrate (not an NC algorithm — the paper's point is
/// exactly that this step is hard to parallelise; measured for context).
fn bench_gale_shapley(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_gale_shapley");
    for &n in &[1_024usize, 2_048] {
        let inst = workloads::stable_marriage(n);
        group.bench_with_input(BenchmarkId::new("man_optimal", n), &inst, |b, inst| {
            b.iter(|| gale_shapley_man_optimal(inst.men_prefs(), inst.women_prefs()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ties, bench_next_stable, bench_gale_shapley
}
criterion_main!(benches);
