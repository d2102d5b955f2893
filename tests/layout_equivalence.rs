//! Layout equivalence: the locality layout pass (`pm_instances::layout`,
//! DESIGN.md §12) must change *where bytes live*, never *what is computed*.
//!
//! Popularity is label-invariant, but the relabeling legitimately shifts
//! every min-label tie-break the kernels take, so the layout path's answer
//! is a possibly *different* matching than a direct solve's.  The contract
//! these tests pin is therefore not answer equality but:
//!
//! * the mapped-back answer is **popular on the original instance** (brute
//!   force on small instances, the Theorem 1 characterisation at size);
//! * infeasibility is preserved exactly (`NoPopularMatching` on the twin
//!   iff on the original);
//! * the full pipeline — permutation, twin, solve, map-back — is
//!   **bit-identical across thread counts**;
//! * warm layout solves allocate nothing (the map-back buffer is pooled);
//! * the layout snapshot round-trips canonically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use popular_matchings::prelude::*;
use rayon::ThreadPoolBuilder;

thread_local! {
    /// Heap allocations made by this thread.  Per-thread, not process-wide:
    /// sibling tests run concurrently on other threads of the test binary,
    /// and their allocations must not land in a measured window.  The
    /// `const` initialiser and the drop-free `Cell` make the access itself
    /// allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the thread-local counter
// increment allocates nothing and does not affect the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools always build")
}

#[test]
fn layout_answers_are_popular_on_the_original_small() {
    // Small instances, exhaustive oracle: whatever matching the layout
    // path returns, brute force confirms popularity on the ORIGINAL; when
    // it reports infeasible, brute force confirms no popular matching
    // exists.  Sweeping seeds covers both outcomes.
    use pm_popular::verify::{brute_force_popular_matching, is_popular_brute_force};
    let mut solved = 0u32;
    let mut infeasible = 0u32;
    for seed in 0..40u64 {
        let cfg = GeneratorConfig {
            num_applicants: 6,
            num_posts: 6,
            list_len: 3,
            seed,
        };
        let inst = generators::uniform_strict(&cfg);
        let r = optimize_layout(&inst).expect("valid instance relabels");
        let mut rs = RelabeledSolver::new(0, 0);
        match rs.solve(&r) {
            Ok(m) => {
                assert!(
                    is_popular_brute_force(&inst, m),
                    "layout answer not popular on the original (seed {seed})"
                );
                solved += 1;
            }
            Err(PopularError::NoPopularMatching) => {
                assert!(
                    brute_force_popular_matching(&inst).is_none(),
                    "layout path reported infeasible but a popular matching exists (seed {seed})"
                );
                infeasible += 1;
            }
            Err(e) => panic!("unexpected error (seed {seed}): {e}"),
        }
    }
    assert!(
        solved > 0 && infeasible > 0,
        "seed sweep must cover both outcomes"
    );
}

#[test]
fn layout_answers_are_popular_on_the_original_at_size() {
    // At sizes where brute force is unthinkable, the Theorem 1
    // characterisation is the oracle — run against the ORIGINAL instance,
    // for both the popular and the maximum-cardinality solve.
    for (seed, n) in [(5u64, 3_000usize), (9, 4_500)] {
        let cfg = GeneratorConfig {
            num_applicants: n,
            num_posts: n + n / 8 + 1,
            list_len: 5,
            seed,
        };
        let inst = generators::clustered_scattered(&cfg, 256);
        let r = optimize_layout(&inst).expect("valid instance relabels");
        let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
        let m = rs.solve(&r).expect("solvable workload").clone();
        assert!(is_popular_characterization(&inst, &m));
        let mc = rs.solve_max_cardinality(&r).expect("solvable workload");
        assert!(is_popular_characterization(&inst, mc));
        // Max-cardinality popular matchings all have the same size; the
        // layout path must reach it too.
        let tracker = DepthTracker::new();
        let direct = maximum_cardinality_popular_matching_nc(&inst, &tracker).unwrap();
        assert_eq!(mc.size(&inst), direct.size(&inst));
    }
}

#[test]
fn infeasibility_is_preserved_exactly() {
    // Master-list contention usually admits no popular matching; the
    // layout path must report exactly what the direct path reports.
    for seed in [3u64, 13] {
        let cfg = GeneratorConfig {
            num_applicants: 2_000,
            num_posts: 200,
            list_len: 4,
            seed,
        };
        let inst = generators::master_list(&cfg, 30);
        let r = optimize_layout(&inst).expect("valid instance relabels");
        let mut direct = PopularSolver::new(0, 0);
        let mut layered = RelabeledSolver::new(0, 0);
        let d = direct.solve(&inst).map(|m| m.size(&inst));
        let l = layered.solve(&r).map(|m| m.size(&inst));
        assert_eq!(d, l, "direct and layout paths disagree (seed {seed})");
    }
}

#[test]
fn layout_pipeline_is_identical_across_thread_counts() {
    // The permutation (a BFS over the incidence), the twin's CSR arrays,
    // and the mapped-back answer must all be bit-identical at width 1 and
    // width 4 — the layout pass must not introduce the repo's first
    // scheduling-dependent result.
    for (seed, n) in [(1u64, 4_000usize), (2, 6_000)] {
        let cfg = GeneratorConfig {
            num_applicants: n,
            num_posts: n + n / 8 + 1,
            list_len: 5,
            seed,
        };
        let inst = generators::clustered_scattered(&cfg, 256);
        let run = |threads: usize| {
            pool(threads).install(|| {
                let r = optimize_layout(&inst).expect("valid instance relabels");
                let mut rs = RelabeledSolver::new(0, 0);
                let m = rs.solve(&r).expect("solvable workload").as_slice().to_vec();
                let (twin, perm) = r.into_parts();
                (twin, perm.forward().to_vec(), m)
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.0, four.0, "twin diverged across widths (seed {seed})");
        assert_eq!(
            one.1, four.1,
            "permutation diverged across widths (seed {seed})"
        );
        assert_eq!(one.2, four.2, "answer diverged across widths (seed {seed})");
    }
}

#[test]
fn warm_layout_solves_allocate_nothing() {
    // The RelabeledSolver owns both the twin-solve workspace and the
    // map-back buffer, so a warm solve must not touch the allocator at
    // all — the same gate the harness runs at n = 10^5..10^6, pinned here
    // at test size so `cargo test` catches regressions without the bench.
    // `install(1)` runs the whole solve inline on this thread, so the
    // per-thread count sees every allocation the solve makes.
    let cfg = GeneratorConfig {
        num_applicants: 3_000,
        num_posts: 3_400,
        list_len: 5,
        seed: 77,
    };
    let inst = generators::clustered_scattered(&cfg, 256);
    let r = optimize_layout(&inst).expect("valid instance relabels");
    let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
    let p1 = pool(1);
    // Warm to steady state (capacity growth settles within a few solves).
    let mut warmups = 0u32;
    loop {
        let before = allocations();
        p1.install(|| {
            std::hint::black_box(rs.solve(&r).expect("solvable").num_applicants());
        });
        warmups += 1;
        if allocations() == before || warmups >= 10 {
            break;
        }
    }
    let before = allocations();
    p1.install(|| {
        for _ in 0..3 {
            std::hint::black_box(rs.solve(&r).expect("solvable").num_applicants());
        }
    });
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "warm layout solves performed {allocs} allocations after {warmups} warm-ups"
    );
}

#[test]
fn layout_snapshot_roundtrip_is_canonical() {
    use pm_instances::snapshot;
    let cfg = GeneratorConfig {
        num_applicants: 500,
        num_posts: 560,
        list_len: 5,
        seed: 21,
    };
    for inst in [
        generators::clustered_scattered(&cfg, 32),
        generators::with_ties(&cfg, 3),
    ] {
        let r = optimize_layout(&inst).expect("valid instance relabels");
        let bytes = snapshot::to_bytes_layout(r.instance(), r.permutation());
        let (twin, perm) = snapshot::from_bytes_layout(&bytes).expect("roundtrip");
        let perm = perm.expect("layout snapshot carries its permutation");
        assert_eq!(&twin, r.instance());
        assert_eq!(&perm, r.permutation());
        assert_eq!(
            snapshot::to_bytes_layout(&twin, &perm),
            bytes,
            "layout snapshots must be canonical"
        );
        // A reconstructed Relabeled keeps serving the original contract:
        // answers map back and verify popular on the original instance.
        let reloaded = Relabeled::new(twin, perm).expect("size contract holds");
        let mut rs = RelabeledSolver::new(0, 0);
        if let Ok(m) = rs.solve(&reloaded) {
            assert!(is_popular_characterization(&inst, m));
        }
    }
}
