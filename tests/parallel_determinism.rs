//! Parallel determinism: the full pipelines must be **bit-for-bit
//! identical** across thread counts.
//!
//! The executor in `shims/rayon` partitions work into chunks whose
//! boundaries depend on the thread count, so any order-dependence or data
//! race in the algorithms would show up as 1-thread vs 4-thread divergence.
//! These property tests run the popular-matching and ties pipelines on
//! seeded random instances under `ThreadPool::install(1)` and
//! `install(4)` (the in-process equivalent of `PM_THREADS=1` / `=4`, which
//! the CI matrix also exercises) and assert identical matchings, work
//! counts, and round counts.  Algorithm 4 (the next stable matchings) gets
//! the same check at the size where its men go parallel.

use pm_popular::ties::popular_matching_rank1;
use pm_popular::PopularError;
use popular_matchings::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools always build")
}

/// Everything observable from one popular-matching pipeline run: the
/// assignment (or the error kind), the realised PRAM stats, and the peel
/// round count.
#[derive(Debug, PartialEq, Eq)]
struct PipelineFingerprint {
    outcome: Result<(Vec<usize>, u32), String>,
    stats: PramStats,
}

fn popular_fingerprint(inst: &PrefInstance) -> PipelineFingerprint {
    let tracker = DepthTracker::new();
    let outcome = match popular_matching_run(inst, &tracker) {
        Ok(run) => Ok((
            (0..inst.num_applicants())
                .map(|a| run.matching.post(a))
                .collect(),
            run.peel_rounds,
        )),
        Err(e) => Err(format!("{e:?}")),
    };
    PipelineFingerprint {
        outcome,
        stats: tracker.stats(),
    }
}

#[test]
fn popular_pipeline_is_identical_across_thread_counts() {
    // Sizes above pm_pram::SEQUENTIAL_CUTOFF so the parallel paths run.
    for (seed, n) in [(1u64, 4_000usize), (2, 6_000), (3, 5_000)] {
        let cfg = GeneratorConfig {
            num_applicants: n,
            num_posts: n,
            list_len: 5,
            seed,
        };
        let inst = generators::solvable(&cfg);
        let one = pool(1).install(|| popular_fingerprint(&inst));
        let four = pool(4).install(|| popular_fingerprint(&inst));
        assert_eq!(
            one, four,
            "popular pipeline diverged between 1 and 4 threads (seed {seed})"
        );
        assert!(one.outcome.is_ok(), "solvable workload must solve");
    }
}

#[test]
fn contended_pipeline_errors_identically_across_thread_counts() {
    // Master-list contention usually admits no popular matching; the
    // *error* path must be as deterministic as the success path.
    let cfg = GeneratorConfig {
        num_applicants: 4_000,
        num_posts: 400,
        list_len: 4,
        seed: 7,
    };
    let inst = generators::master_list(&cfg, 50);
    let one = pool(1).install(|| popular_fingerprint(&inst));
    let four = pool(4).install(|| popular_fingerprint(&inst));
    assert_eq!(one, four);
}

#[test]
fn max_cardinality_pipeline_is_identical_across_thread_counts() {
    let cfg = GeneratorConfig {
        num_applicants: 4_000,
        num_posts: 4_000,
        list_len: 5,
        seed: 11,
    };
    let inst = generators::solvable(&cfg);
    let run = |threads: usize| {
        pool(threads).install(|| {
            let tracker = DepthTracker::new();
            let m = maximum_cardinality_popular_matching_nc(&inst, &tracker).map(|m| {
                (0..inst.num_applicants())
                    .map(|a| m.post(a))
                    .collect::<Vec<_>>()
            });
            (m.map_err(|e| format!("{e:?}")), tracker.stats())
        })
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn serving_pipeline_is_identical_across_thread_counts() {
    // The batched serving path re-chunks the request stream per width and
    // hands each chunk to a different warm sub-solver; results must not
    // depend on either.
    let insts: Vec<PrefInstance> = (0..9)
        .map(|i| {
            let cfg = GeneratorConfig {
                num_applicants: 2_000 + 700 * (i % 3),
                num_posts: 2_500 + 700 * (i % 3),
                list_len: 5,
                seed: 100 + i as u64,
            };
            generators::solvable(&cfg)
        })
        .collect();
    let run = |threads: usize| {
        pool(threads).install(|| {
            let mut solver = PopularSolver::new(0, 0);
            solver
                .solve_batch(&insts)
                .into_iter()
                .map(|r| {
                    r.map(|m| m.as_slice().to_vec())
                        .map_err(|e| format!("{e:?}"))
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn ties_pipeline_is_identical_across_thread_counts() {
    for seed in [21u64, 22] {
        let g = generators::random_bipartite(5_000, 5_000, 4.0 / 5_000.0, seed);
        let run = |threads: usize| {
            pool(threads).install(|| {
                let inst = pm_popular::ties::rank1_instance(&g)
                    .map_err(|e: PopularError| format!("{e:?}"))?;
                Ok::<_, String>((inst, popular_matching_rank1(&g).pairs()))
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(
            one, four,
            "ties pipeline diverged between 1 and 4 threads (seed {seed})"
        );
    }
}

#[test]
fn next_stable_matchings_is_identical_across_thread_counts() {
    // At SEQUENTIAL_CUTOFF the successor kernel and the cycle finder take
    // their par_iter branches; no smaller instance runs them.
    let inst = generators::random_sm_instance(popular_matchings::pram::SEQUENTIAL_CUTOFF, 31);
    let m0 = inst.man_optimal();
    let run = |threads: usize| {
        pool(threads).install(|| {
            let tracker = DepthTracker::new();
            (next_stable_matchings(&inst, &m0, &tracker), tracker.stats())
        })
    };
    let one = run(1);
    assert_eq!(one, run(4));
    assert!(
        matches!(one.0, NextStableOutcome::Next(_)),
        "the man-optimal matching of a random instance exposes a rotation"
    );
}
