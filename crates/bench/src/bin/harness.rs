//! The experiment harness: regenerates every table of EXPERIMENTS.md and
//! records the machine-readable perf trajectory.
//!
//! ```text
//! cargo run --release -p pm_bench --bin harness            # full sweep
//! cargo run --release -p pm_bench --bin harness -- --quick # smaller sizes
//! cargo run --release -p pm_bench --bin harness -- --json  # BENCH_popular.json
//! cargo run --release -p pm_bench --bin harness -- --json --workloads 'served/*'
//! cargo run --release -p pm_bench --bin harness -- --profile # per-kernel phases
//! ```
//!
//! Markdown output (one table per experiment, E1–E10) is designed to be
//! pasted directly into EXPERIMENTS.md.
//!
//! `--json` measures the workloads of one table, [`registry`], and writes
//! the schema-6 `BENCH_popular.json` trajectory, keeping the file's
//! `"baseline"` object verbatim.  A [`Workload`] entry holds a row name, its
//! quick and full sizes, whether it is swept across executor widths, and a
//! set-up that builds its state at one size, runs its checks and gates, and
//! hands the timed op to [`Ctx::measure`] — the one measurement protocol.
//! Members of a registry family are measured size by size and share that
//! size's [`Inputs`].  The binary installs a counting global allocator for
//! [`zero_alloc_gate`] and the snapshot-load bound; every gate exits 1 on a
//! miss.
//!
//! `--json-out PATH` overrides the output path; `--quick` shrinks the size
//! sweep in both modes; `--threads 1,4` sets the widths (default `1,2,4`);
//! `--workloads GLOB` (`*` wildcard) restricts the run to matching workload
//! names, and exits 2 listing the registered names when it matches none —
//! pair it with `--json-out` to keep the committed trajectory file whole.
//! `--assert-speedup FLOOR` is the multicore regression gate of
//! [`assert_speedup_floor`].  `--profile` (its own mode, takes precedence)
//! prints the per-kernel phase clock of `pm_popular::profile` per warm
//! solve and per warm Hopcroft–Karp `solve_ties`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm_bench::workloads;
use pm_bench::{ms, time, time_best, Table};

/// Number of heap allocations observed process-wide (relaxed; exact when
/// read around a single-threaded region, which is how the zero-allocation
/// gate uses it).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// A [`System`] allocator that counts every allocation (including
/// `realloc`/`alloc_zeroed`) — the measuring instrument behind the
/// zero-allocation and cold-ingest gates.
struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System`; the only addition is
// a relaxed counter increment, which allocates nothing and has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

use pm_graph::cycle::{
    cycle_vertices_via_cc, cycle_vertices_via_closure, cycle_vertices_via_rank, undirected_view,
};
use pm_instances::paper;
use pm_matching::hopcroft_karp::hopcroft_karp;
use pm_popular::algorithm1::{popular_matching_nc, popular_matching_run};
use pm_popular::delta::{Delta, DeltaMode, DeltaSolver, DeltaStats};
use pm_popular::instance::PrefInstance;
use pm_popular::max_cardinality::maximum_cardinality_popular_matching_nc;
use pm_popular::optimal::{fair_popular_matching, rank_maximal_popular_matching};
use pm_popular::profile::Profile;
use pm_popular::relabel::{Relabeled, RelabeledSolver};
use pm_popular::sequential::popular_matching_sequential;
use pm_popular::solver::PopularSolver;
use pm_popular::switching::{ComponentKind, SwitchingGraph};
use pm_popular::ties::popular_matching_rank1;
use pm_popular::verify::is_popular_characterization;
use pm_popular::PopularError;
use pm_pram::DepthTracker;
use pm_serve::faults::Spec;
use pm_serve::{DeltaRequest, Request, ServeError, Server, ServerConfig, SolveMode};
use pm_stable::next::{next_stable_matchings, NextStableOutcome};
use pm_stable::rotations::exposed_rotations_sequential;

/// The value following `flag` on the command line.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--profile") {
        run_profile(quick);
        return;
    }
    if args.iter().any(|a| a == "--json") {
        let threads: Vec<usize> = flag_value(&args, "--threads").map_or_else(
            || vec![1, 2, 4],
            |list| {
                list.split(',')
                    .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4"))
                    .collect()
            },
        );
        assert!(
            threads.first() == Some(&1) && threads.windows(2).all(|w| w[0] < w[1]),
            "--threads must be strictly increasing and start at 1 \
             (speedup_vs_1 compares the first and last entries)"
        );
        let speedup_floor: Option<f64> = flag_value(&args, "--assert-speedup")
            .map(|v| v.parse().expect("--assert-speedup takes e.g. 3.0"));
        run_json(
            quick,
            &threads,
            flag_value(&args, "--json-out").unwrap_or("BENCH_popular.json"),
            flag_value(&args, "--workloads"),
            speedup_floor,
        );
        return;
    }
    let threads = rayon::current_num_threads();
    println!(
        "<!-- harness run: {} rayon threads, quick = {quick} -->\n",
        threads
    );

    e1_e2_paper_popular_example();
    e3_paper_stable_example();
    e4_peel_rounds(quick);
    e5_parallel_vs_sequential(quick);
    e6_max_cardinality(quick);
    e7_pseudoforest_cycles(quick);
    e8_optimal_variants(quick);
    e9_ties_reduction(quick);
    e10_next_stable(quick);
}

// ---------------------------------------------------------------- E1 / E2

fn e1_e2_paper_popular_example() {
    let inst = paper::figure1_instance();
    let tracker = DepthTracker::new();
    let run = popular_matching_run(&inst, &tracker).expect("Figure 1 is solvable");

    let mut t = Table::new(
        "E1 — Figures 1–3: reduced graph and popular matching of the paper's example",
        &[
            "applicant",
            "f(a)",
            "s(a)",
            "matched to",
            "paper's matching",
        ],
    );
    let paper_m = paper::figure1_popular_matching();
    for a in 0..inst.num_applicants() {
        t.row(vec![
            format!("a{}", a + 1),
            post(&inst, run.reduced.f(a)),
            post(&inst, run.reduced.s(a)),
            post(&inst, run.matching.post(a)),
            post(&inst, paper_m.post(a)),
        ]);
    }
    t.print();
    println!(
        "- peel rounds = {} (Lemma 2 bound {}), matching size = {}, popular = {}\n",
        run.peel_rounds,
        (inst.num_applicants() as f64).log2().ceil() as u32 + 1,
        run.matching.size(&inst),
        is_popular_characterization(&inst, &run.matching),
    );

    // E2: switching graph of the paper's matching.
    let sg = SwitchingGraph::build(&run.reduced, &paper_m, &tracker);
    let comps = sg.components(&tracker);
    let mut t2 = Table::new(
        "E2 — Figure 4: switching graph G_M of the paper's matching",
        &["component", "kind", "posts", "switching paths from"],
    );
    for (i, c) in comps.iter().enumerate() {
        let (kind, starts) = match c.kind {
            ComponentKind::Cycle(cycle) => {
                (format!("cycle of length {}", cycle.len()), "-".to_string())
            }
            ComponentKind::Tree { sink } => {
                let starts: Vec<String> = c
                    .posts
                    .iter()
                    .filter(|&&q| q != sink && sg.is_s_post(q))
                    .map(|&q| post(&inst, q))
                    .collect();
                (
                    format!("tree with sink {}", post(&inst, sink)),
                    starts.join(" "),
                )
            }
        };
        t2.row(vec![
            format!("{}", i + 1),
            kind,
            c.posts
                .iter()
                .map(|&p| post(&inst, p))
                .collect::<Vec<_>>()
                .join(" "),
            starts,
        ]);
    }
    t2.print();
}

// --------------------------------------------------------------------- E3

fn e3_paper_stable_example() {
    let (inst, m) = paper::figure5_instance();
    let tracker = DepthTracker::new();
    let outcome = next_stable_matchings(&inst, &m, &tracker);
    let mut t = Table::new(
        "E3 — Figures 5–7: exposed rotations of the paper's stable matching",
        &["rotation", "men", "M\\rho (man -> woman)"],
    );
    if let NextStableOutcome::Next(results) = outcome {
        for (i, (rot, next)) in results.iter().enumerate() {
            t.row(vec![
                format!("rho{}", i + 1),
                rot.men()
                    .iter()
                    .map(|m| format!("m{}", m + 1))
                    .collect::<Vec<_>>()
                    .join(" "),
                (0..inst.n())
                    .map(|man| format!("m{}-w{}", man + 1, next.wife(man) + 1))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]);
        }
    }
    t.print();
    let all = pm_stable::lattice::all_stable_matchings(&inst, &tracker);
    println!(
        "- the Figure 5 instance has {} stable matchings in total\n",
        all.len()
    );
}

// --------------------------------------------------------------------- E4

fn e4_peel_rounds(quick: bool) {
    let mut t = Table::new(
        "E4 — Lemma 2: degree-1 peeling rounds of Algorithm 2",
        &[
            "workload",
            "n (applicants)",
            "peel rounds",
            "⌈log2 n⌉ + 1 bound",
            "within bound",
        ],
    );
    let mut row = |label: &str, inst: &PrefInstance| {
        let tracker = DepthTracker::new();
        let run = popular_matching_run(inst, &tracker).expect("solvable workload");
        let n = inst.num_applicants();
        let bound = (n as f64).log2().ceil() as u32 + 1;
        t.row(vec![
            label.to_string(),
            n.to_string(),
            run.peel_rounds.to_string(),
            bound.to_string(),
            (run.peel_rounds <= bound).to_string(),
        ]);
    };
    let uniform_sizes: Vec<usize> = if quick {
        vec![1_000, 16_000]
    } else {
        vec![1_024, 16_384, 262_144]
    };
    for &n in &uniform_sizes {
        row("uniform (solvable)", &workloads::solvable_uniform(n));
    }
    let depths: Vec<usize> = if quick {
        vec![6, 10, 14]
    } else {
        vec![6, 10, 14, 17]
    };
    for &d in &depths {
        row("binary-tree worst case", &workloads::peeling_tree(d));
    }
    t.print();
}

// --------------------------------------------------------------------- E5

fn e5_parallel_vs_sequential(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000, 64_000]
    } else {
        workloads::harness_sizes()
    };
    let reps = if quick { 2 } else { 3 };
    let mut t = Table::new(
        "E5 — Theorem 3: NC popular matching vs sequential baseline (solvable uniform workload)",
        &[
            "n",
            "sequential ms",
            "parallel ms",
            "seq/par",
            "PRAM depth",
            "PRAM work",
            "both popular",
            "size",
        ],
    );
    for &n in &sizes {
        let inst = workloads::solvable_uniform(n);
        let (seq, seq_t) = time_best(reps, || popular_matching_sequential(&inst).unwrap());
        let (par, par_t) = time_best(reps, || {
            let tracker = DepthTracker::new();
            pm_popular::algorithm1::popular_matching_nc(&inst, &tracker).unwrap()
        });
        let depth_tracker = DepthTracker::new();
        let _ = pm_popular::algorithm1::popular_matching_nc(&inst, &depth_tracker).unwrap();
        let stats = depth_tracker.stats();
        let both_popular =
            is_popular_characterization(&inst, &seq) && is_popular_characterization(&inst, &par);
        t.row(vec![
            n.to_string(),
            ms(seq_t),
            ms(par_t),
            format!("{:.2}x", seq_t.as_secs_f64() / par_t.as_secs_f64()),
            stats.depth.to_string(),
            stats.work.to_string(),
            both_popular.to_string(),
            par.size(&inst).to_string(),
        ]);
    }
    t.print();

    // Feasibility on the contended workload (popular matchings usually do
    // not exist there — part of the observed "shape").
    let mut t2 = Table::new(
        "E5b — feasibility under contention (master-list workload)",
        &["n", "popular matching exists", "parallel ms"],
    );
    for &n in &sizes {
        let inst = workloads::contended(n.min(64_000));
        let (res, par_t) = time_best(reps, || {
            let tracker = DepthTracker::new();
            pm_popular::algorithm1::popular_matching_nc(&inst, &tracker)
        });
        let exists = match res {
            Ok(_) => "yes",
            Err(PopularError::NoPopularMatching) => "no",
            Err(_) => "error",
        };
        t2.row(vec![
            inst.num_applicants().to_string(),
            exists.to_string(),
            ms(par_t),
        ]);
    }
    t2.print();
}

// --------------------------------------------------------------------- E6

fn e6_max_cardinality(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000]
    } else {
        vec![4_000, 16_000, 64_000, 256_000]
    };
    let mut t = Table::new(
        "E6 — Theorem 10: maximum-cardinality popular matching (Algorithm 3), paired-pressure workload",
        &["n (applicants)", "minimum popular size", "Algorithm 1 size", "maximum popular size", "spread", "algorithm 3 ms", "PRAM depth"],
    );
    for &n in &sizes {
        let inst = workloads::paired_pressure(n / 2);
        let tracker = DepthTracker::new();
        let run = popular_matching_run(&inst, &tracker).expect("pressured workload is solvable");
        // The smallest popular matching (cardinality weights, minimised): the
        // worst outcome Theorem 9 allows — the spread to the maximum is what
        // Algorithm 3 is able to recover from an adversarial starting point.
        let min = pm_popular::optimal::optimal_popular_matching(
            &inst,
            |a, p| {
                if p == inst.last_resort(a) {
                    pm_linalg::BigUint::zero()
                } else {
                    pm_linalg::BigUint::one()
                }
            },
            pm_popular::optimal::Objective::Minimize,
            &tracker,
        )
        .unwrap();
        let ((), alg3_t) = time_best(2, || {
            let tracker = DepthTracker::new();
            let _ = maximum_cardinality_popular_matching_nc(&inst, &tracker).unwrap();
        });
        let tracker2 = DepthTracker::new();
        let max = maximum_cardinality_popular_matching_nc(&inst, &tracker2).unwrap();
        t.row(vec![
            n.to_string(),
            min.size(&inst).to_string(),
            run.matching.size(&inst).to_string(),
            max.size(&inst).to_string(),
            (max.size(&inst) - min.size(&inst)).to_string(),
            ms(alg3_t),
            tracker2.stats().depth.to_string(),
        ]);
    }
    t.print();
}

// --------------------------------------------------------------------- E7

fn e7_pseudoforest_cycles(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![64, 256, 1_024]
    } else {
        workloads::pseudoforest_sizes()
    };
    let mut t = Table::new(
        "E7 — Section IV-A: cycle finding in pseudoforests (ms)",
        &[
            "n",
            "pointer doubling",
            "transitive closure",
            "incidence rank",
            "component counting",
            "sequential",
        ],
    );
    for &n in &sizes {
        let fg = workloads::pseudoforest(n);
        let _ug = undirected_view(&fg);
        let tracker = DepthTracker::new();
        let reference = fg.on_cycle_sequential();

        let (d, t_doubling) = time_best(3, || fg.on_cycle_parallel(&tracker));
        let (c, t_closure) = time_best(3, || cycle_vertices_via_closure(&fg, &tracker));
        let (r, t_rank) = time_best(1, || cycle_vertices_via_rank(&fg, &tracker));
        let (cc, t_cc) = time_best(1, || cycle_vertices_via_cc(&fg, &tracker));
        let (_, t_seq) = time_best(3, || fg.on_cycle_sequential());

        assert_eq!(d, reference);
        assert_eq!(c, reference);
        // rank / cc methods return edge-derived vertex marks; agreement was
        // unit-tested, here we only check counts to avoid re-deriving.
        assert_eq!(
            r.iter().filter(|&&b| b).count(),
            reference.iter().filter(|&&b| b).count()
        );
        assert_eq!(
            cc.iter().filter(|&&b| b).count(),
            reference.iter().filter(|&&b| b).count()
        );

        t.row(vec![
            n.to_string(),
            ms(t_doubling),
            ms(t_closure),
            ms(t_rank),
            ms(t_cc),
            ms(t_seq),
        ]);
    }
    t.print();
}

// --------------------------------------------------------------------- E8

fn e8_optimal_variants(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000]
    } else {
        vec![4_000, 16_000, 64_000]
    };
    let mut t = Table::new(
        "E8 — Section IV-E: optimal popular matchings (A1 fraction 0.4)",
        &[
            "n",
            "first choices (arbitrary)",
            "first choices (rank-maximal)",
            "last resorts (arbitrary)",
            "last resorts (fair)",
            "rank-maximal ms",
            "fair ms",
        ],
    );
    for &n in &sizes {
        let inst = workloads::pressured(n, 0.4);
        let tracker = DepthTracker::new();
        let arbitrary = pm_popular::algorithm1::popular_matching_nc(&inst, &tracker).unwrap();
        let (rm, rm_t) = time_best(2, || {
            let tr = DepthTracker::new();
            rank_maximal_popular_matching(&inst, &tr).unwrap()
        });
        let (fair, fair_t) = time_best(2, || {
            let tr = DepthTracker::new();
            fair_popular_matching(&inst, &tr).unwrap()
        });
        let p_arb = Profile::of(&inst, &arbitrary);
        let p_rm = Profile::of(&inst, &rm);
        let p_fair = Profile::of(&inst, &fair);
        t.row(vec![
            n.to_string(),
            p_arb.0[0].to_string(),
            p_rm.0[0].to_string(),
            p_arb.0.last().unwrap().to_string(),
            p_fair.0.last().unwrap().to_string(),
            ms(rm_t),
            ms(fair_t),
        ]);
    }
    t.print();
}

// --------------------------------------------------------------------- E9

fn e9_ties_reduction(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000]
    } else {
        vec![4_000, 16_000, 64_000, 256_000]
    };
    let mut t = Table::new(
        "E9 — Theorem 11: ties reduction vs Hopcroft–Karp (expected degree 4)",
        &[
            "n (per side)",
            "maximum matching size",
            "rank-1 popular oracle size",
            "sizes equal",
            "HK ms",
        ],
    );
    for &n in &sizes {
        let g = workloads::bipartite(n);
        let (hk, hk_t) = time_best(2, || hopcroft_karp(&g));
        let oracle = popular_matching_rank1(&g);
        t.row(vec![
            n.to_string(),
            hk.size().to_string(),
            oracle.size().to_string(),
            (hk.size() == oracle.size()).to_string(),
            ms(hk_t),
        ]);
    }
    t.print();
}

// -------------------------------------------------------------------- E10

fn e10_next_stable(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![64, 256]
    } else {
        workloads::stable_sizes()
    };
    let mut t = Table::new(
        "E10 — Theorem 16: next stable matching (Algorithm 4) at the man-optimal matching",
        &[
            "n",
            "exposed rotations",
            "algorithm 4 ms",
            "sequential finder ms",
            "lattice size (n ≤ 256)",
        ],
    );
    for &n in &sizes {
        let inst = workloads::stable_marriage(n);
        let m0 = inst.man_optimal();
        let (outcome, par_t) = time_best(2, || {
            let tracker = DepthTracker::new();
            next_stable_matchings(&inst, &m0, &tracker)
        });
        let (seq, seq_t) = time_best(2, || exposed_rotations_sequential(&inst, &m0));
        let rotations = match &outcome {
            NextStableOutcome::WomanOptimal => 0,
            NextStableOutcome::Next(v) => v.len(),
        };
        assert_eq!(rotations, seq.len());
        let lattice = if n <= 256 {
            let tracker = DepthTracker::new();
            pm_stable::lattice::all_stable_matchings(&inst, &tracker)
                .len()
                .to_string()
        } else {
            "-".to_string()
        };
        t.row(vec![
            n.to_string(),
            rotations.to_string(),
            ms(par_t),
            ms(seq_t),
            lattice,
        ]);
    }
    t.print();
}

// ---------------------------------------------------- perf trajectory JSON

/// Integer fields of one row after its wall clock, rendered verbatim in
/// order (`depth`, `work`, `requests`, `allocs_per_solve`, …).
type Extras = Vec<(&'static str, u64)>;

/// One measured point on the perf trajectory.
struct JsonResult {
    workload: &'static str,
    n: usize,
    /// Best-of-N wall clock per executor width, in `--threads` order (the
    /// first entry is the 1-thread reference), per request of the timed op.
    wall_ms_by_threads: Vec<(usize, f64)>,
    extra: Extras,
}

impl JsonResult {
    /// The 1-thread wall clock — the trajectory number comparable with the
    /// pre-executor history of this file.
    fn wall_ms_1(&self) -> f64 {
        self.wall_ms_by_threads[0].1
    }

    /// Speedup of the widest swept configuration over one thread.
    fn speedup_vs_1(&self) -> f64 {
        self.wall_ms_1() / self.wall_ms_by_threads.last().expect("non-empty sweep").1
    }
}

/// One registered trajectory workload.
struct Workload {
    name: &'static str,
    /// Sizes under `--quick` and in the full sweep.
    sizes: [&'static [usize]; 2],
    /// Swept across the `--threads` widths; otherwise timed once on the
    /// calling thread and recorded as width 1.
    sweep: bool,
    /// Builds the workload's state at one size, runs its checks and gates,
    /// and hands its op to [`Ctx::measure`].
    setup: fn(&Ctx) -> JsonResult,
}

impl Workload {
    /// The `faults/` family needs the serving layer's fail points
    /// (`--features faults`); it is skipped with a notice without them.
    fn runnable(&self) -> bool {
        !self.name.starts_with("faults/") || Spec::compiled_in()
    }
}

const WIDE: [&[usize]; 2] = [&[10_000, 100_000], &[10_000, 100_000, 1_000_000]];
const DEEP: [&[usize]; 2] = [&[100_000], &[100_000, 1_000_000]];
const SMALL: [&[usize]; 2] = [&[10_000], &[10_000, 100_000]];
const SWEEP: bool = true;
const WIDTH_1: bool = false;

fn workload(
    name: &'static str,
    sizes: [&'static [usize]; 2],
    sweep: bool,
    setup: fn(&Ctx) -> JsonResult,
) -> Workload {
    Workload {
        name,
        sizes,
        sweep,
        setup,
    }
}

/// Every trajectory workload, in row order.  Each inner list is a family:
/// its members are measured size by size and share that size's [`Inputs`].
fn registry() -> Vec<Vec<Workload>> {
    let w = workload;
    vec![
        vec![w("popular_matching_run/uniform", WIDE, SWEEP, |c| {
            let inst = c.inputs.uniform();
            tracked(c, inst, |t| {
                popular_matching_run(inst, t).expect("solvable")
            })
        })],
        vec![w("max_cardinality/paired", DEEP, SWEEP, |c| {
            let inst = &workloads::paired_pressure(c.n / 2);
            tracked(c, inst, |t| {
                maximum_cardinality_popular_matching_nc(inst, t).expect("solvable")
            })
        })],
        vec![w("switching_graph/uniform", DEEP, SWEEP, |c| {
            switching(c, c.inputs.uniform(), None)
        })],
        vec![w("ties_rank1/bipartite", DEEP, SWEEP, ties_rank1)],
        // E23: the pipeline without and with the locality layout pass
        // (DESIGN.md §12) on the clustered-scattered workload.
        vec![
            w("layout/switching_graph/off", DEEP, SWEEP, |c| {
                switching(c, &c.inputs.layout().inst, None)
            }),
            w("layout/switching_graph/on", DEEP, SWEEP, |c| {
                let l = c.inputs.layout();
                switching(c, l.twin.instance(), Some(l.pass_us))
            }),
            w("layout/warm_solve/off", DEEP, SWEEP, |c| {
                let inst = &c.inputs.layout().inst;
                let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
                let solve = || black_box(solver.solve(inst).expect("solvable").num_applicants());
                warm_solves(c, None, solve, vec![bytes(inst)])
            }),
            // Through the layout, answers in original ids: the map-back
            // buffer is pooled, so warm layout solves allocate nothing.
            w("layout/warm_solve/on", DEEP, SWEEP, |c| {
                let l = c.inputs.layout();
                let mut rs = RelabeledSolver::new(l.inst.num_applicants(), l.inst.num_posts());
                let solve = || black_box(rs.solve(&l.twin).expect("solvable").num_applicants());
                let tail = vec![("layout_pass_us", l.pass_us), bytes(l.twin.instance())];
                warm_solves(c, Some("warm layout solve (RelabeledSolver)"), solve, tail)
            }),
        ],
        vec![w("served/warm_solve/uniform", WIDE, SWEEP, |c| {
            let inst = c.inputs.uniform();
            let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
            let solve = || black_box(solver.solve(inst).expect("solvable").num_applicants());
            let gate = Some("warm PopularSolver::solve");
            warm_solves(c, gate, solve, vec![bytes(inst)])
        })],
        // The cold free-function path on the same request stream.
        vec![w("served/cold_solve/uniform", WIDE, SWEEP, |c| {
            let (inst, requests) = (c.inputs.uniform(), c.requests());
            let op = |_: &mut ()| {
                for _ in 0..requests {
                    let m = popular_matching_nc(inst, &DepthTracker::new()).expect("solvable");
                    black_box(m.num_applicants());
                }
            };
            let extra = vec![("requests", requests as u64), bytes(inst)];
            c.measure(requests, &mut (), op, |_, _| extra)
        })],
        vec![w(
            "served/batch/uniform",
            [&[10_000], &[100_000]],
            SWEEP,
            served_batch,
        )],
        vec![w("served/incremental/edit_churn", WIDE, SWEEP, edit_churn)],
        vec![w(
            "served/incremental/mixed_churn",
            SMALL,
            SWEEP,
            mixed_churn,
        )],
        vec![w(
            "served/incremental/server_churn",
            SMALL,
            WIDTH_1,
            server_churn,
        )],
        vec![w("served/server_warm/uniform", SMALL, WIDTH_1, |c| {
            server_bursts(c, Served::Nominal)
        })],
        vec![w("served/degraded/uniform", SMALL, WIDTH_1, |c| {
            server_bursts(c, Served::Degraded)
        })],
        vec![w("faults/chaos/uniform", SMALL, WIDTH_1, |c| {
            server_bursts(c, Served::Chaos)
        })],
        // The three ways a `PrefInstance` comes into existence.  Ingest is
        // sequential, so a thread sweep would record noise.
        vec![
            w("cold/nested_build/uniform", DEEP, WIDTH_1, |c| {
                let inst = c.inputs.uniform();
                // The nested API forces every producer to materialise
                // per-applicant vectors, modelled by cloning them per op.
                let lists: Vec<Vec<usize>> = (0..inst.num_applicants())
                    .map(|a| inst.strict_list(a).expect("uniform workload is strict"))
                    .collect();
                ingest(c, "nested build", || {
                    PrefInstance::new_strict(inst.num_posts(), lists.clone()).expect("valid")
                })
            }),
            w("cold/text_parse/uniform", DEEP, WIDTH_1, |c| {
                let text = pm_instances::io::text(c.inputs.uniform()).to_string();
                ingest(c, "text parse", || {
                    pm_instances::io::parse(&text).expect("parses")
                })
            }),
            w("cold/snapshot_load/uniform", DEEP, WIDTH_1, snapshot_load),
        ],
    ]
}

/// The measuring order: family by family and size by size, the selected
/// members that run at that size.  Workloads needing fail points drop out
/// when those are compiled out.
fn plan<'r>(
    registry: &'r [Vec<Workload>],
    quick: bool,
    selected: &dyn Fn(&str) -> bool,
) -> Vec<(usize, Vec<&'r Workload>)> {
    let sizes = |w: &Workload| w.sizes[usize::from(!quick)];
    let mut steps = Vec::new();
    for family in registry {
        let members: Vec<&Workload> = family
            .iter()
            .filter(|w| selected(w.name) && w.runnable())
            .collect();
        let ns: BTreeSet<usize> = members.iter().flat_map(|w| sizes(w)).copied().collect();
        for n in ns {
            let at_n = members.iter().filter(|w| sizes(w).contains(&n));
            steps.push((n, at_n.copied().collect()));
        }
    }
    steps
}

/// What a family's members share at one size, each built on first use.
#[derive(Default)]
struct Inputs {
    n: usize,
    uniform: OnceCell<Arc<PrefInstance>>,
    layout: OnceCell<LayoutPair>,
}

/// The clustered-scattered instance, its relabeled twin, and the one-off
/// cost of the layout pass (snapshots persist the twin, so the pass is an
/// extra field, not a lap).
struct LayoutPair {
    inst: PrefInstance,
    twin: Relabeled,
    pass_us: u64,
}

impl Inputs {
    fn uniform(&self) -> &Arc<PrefInstance> {
        self.uniform
            .get_or_init(|| Arc::new(workloads::solvable_uniform(self.n)))
    }

    fn layout(&self) -> &LayoutPair {
        self.layout.get_or_init(|| {
            let inst = workloads::clustered_scattered(self.n);
            let (twin, pass) = time(|| {
                pm_instances::layout::optimize_layout(&inst).expect("valid instance relabels")
            });
            // Correctness once per size, untimed: the twin's solve, mapped
            // back through the inverse permutation, must be popular on the
            // ORIGINAL (tie-break shifts may make it a different matching
            // than the direct solve's).
            let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
            assert!(
                is_popular_characterization(&inst, rs.solve(&twin).expect("solvable workload")),
                "layout-path answer is not popular on the original instance at n = {}",
                self.n
            );
            let pass_us = pass.as_micros() as u64;
            LayoutPair {
                inst,
                twin,
                pass_us,
            }
        })
    }
}

/// The settings of one `--json` run.
struct Run<'a> {
    quick: bool,
    threads: &'a [usize],
    reps: usize,
}

/// One workload at one size: the run, the registry entry and the family's
/// inputs.
struct Ctx<'a> {
    run: &'a Run<'a>,
    w: &'a Workload,
    n: usize,
    inputs: &'a Inputs,
}

/// The state a timed op runs over.
trait OpState {
    /// Rebuilds, untimed, the state of an op that consumes it, and returns
    /// `true`; [`Ctx::measure`] then times a single op per width instead
    /// of the best of `reps`.
    fn fresh(&mut self) -> bool {
        false
    }
}

impl OpState for () {}
impl OpState for DeltaSolver {}

impl Ctx<'_> {
    /// Warm solves per timed op of the `served/` and `layout/` solve rows.
    fn requests(&self) -> usize {
        if self.n >= 1_000_000 {
            2
        } else if self.run.quick {
            4
        } else {
            8
        }
    }

    /// Length of one churn stream of the `served/incremental/` rows.
    fn deltas(&self) -> usize {
        if self.run.quick {
            32
        } else {
            64
        }
    }

    /// The measurement protocol of every row: at each `--threads` width (or
    /// once, as width 1, when the workload is not swept) the best of `reps`
    /// timed ops, divided by the `per_op` requests one op serves.  Warm-ups
    /// are the set-up's: the zero-allocation gate's, or one untimed op.
    /// `report` then yields the row's extra fields from the state and the
    /// width-1 figure; post-timing gates run there.
    fn measure<S: OpState, R>(
        &self,
        per_op: usize,
        state: &mut S,
        mut op: impl FnMut(&mut S) -> R,
        report: impl FnOnce(&mut S, f64) -> Extras,
    ) -> JsonResult {
        let mut timed = || {
            if state.fresh() {
                time(|| op(state)).1
            } else {
                time_best(self.run.reps, || op(state)).1
            }
        };
        let widths: &[usize] = if self.w.sweep { self.run.threads } else { &[1] };
        let wall_ms_by_threads: Vec<(usize, f64)> = widths
            .iter()
            .map(|&t| {
                let best = if self.w.sweep {
                    on_width(t, &mut timed)
                } else {
                    timed()
                };
                (t, best.as_secs_f64() * 1e3 / per_op as f64)
            })
            .collect();
        let extra = report(state, wall_ms_by_threads[0].1);
        JsonResult {
            workload: self.w.name,
            n: self.n,
            wall_ms_by_threads,
            extra,
        }
    }
}

/// Runs `f` with parallel calls fanning out to `threads` workers.
fn on_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.expect("shim pools always build").install(f)
}

/// The zero-allocation gate: at width 1, runs `op` until one run allocates
/// nothing (capacity growth settles within a few; 10 is far beyond it),
/// then three more runs must not touch the allocator at all, or the harness
/// exits 1.  Returns the measured count (0) for the trajectory.
fn zero_alloc_gate<R>(what: &str, n: usize, mut op: impl FnMut() -> R) -> u64 {
    on_width(1, || {
        let steady = (1..=10u32).find(|_| {
            let before = allocation_count();
            op();
            allocation_count() == before
        });
        let warmups = steady.unwrap_or(10);
        let before = allocation_count();
        for _ in 0..3 {
            op();
        }
        let allocs = allocation_count() - before;
        if allocs != 0 {
            eprintln!(
                "ZERO-ALLOC GATE FAILED: {what} performed {allocs} allocations over 3 runs \
                 at n = {n} after {warmups} warm-ups (expected 0)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "zero-alloc gate passed at n = {n} \
             (0 allocations across 3 runs of {what}, {warmups} warm-ups to steady state)"
        );
        allocs
    })
}

/// The `depth` and `work` fields: what one untimed call of `f` charges to
/// a fresh tracker (executor-independent, which the determinism tests
/// assert).
fn charged<R>(f: impl FnOnce(&DepthTracker) -> R) -> Extras {
    let tracker = DepthTracker::new();
    f(&tracker);
    let s = tracker.stats();
    vec![("depth", s.depth), ("work", s.work)]
}

/// A row whose op is one call of `f` on a fresh tracker.
fn tracked<R>(c: &Ctx, inst: &PrefInstance, f: impl Fn(&DepthTracker) -> R) -> JsonResult {
    let mut extra = charged(&f);
    extra.push(bytes(inst));
    c.measure(1, &mut (), |_| f(&DepthTracker::new()), |_, _| extra)
}

/// Switching-graph build + components + margins over a popular matching
/// of `subject`; `layout_pass_us` marks the relabeled twin of a layout A/B.
fn switching(c: &Ctx, subject: &PrefInstance, layout_pass_us: Option<u64>) -> JsonResult {
    let run = popular_matching_run(subject, &DepthTracker::new()).expect("solvable workload");
    let build = |tr: &DepthTracker| {
        let sg = SwitchingGraph::build(&run.reduced, &run.matching, tr);
        black_box((sg.components(tr).len(), sg.margins_to_sink(tr).len()))
    };
    let mut extra = charged(build);
    extra.push(bytes(subject));
    extra.extend(layout_pass_us.map(|us| ("layout_pass_us", us)));
    c.measure(1, &mut (), |_| build(&DepthTracker::new()), |_, _| extra)
}

fn ties_rank1(c: &Ctx) -> JsonResult {
    let g = workloads::bipartite(c.n);
    // The op runs two stages: the rank-1 instance construction (one O(|E|)
    // validation round) and the Hopcroft-Karp oracle (charged by
    // `solve_ties` on the solver's internal tracker); the recorded stats
    // charge both so they describe exactly what is measured.
    let mut extra = charged(|t| {
        t.round();
        t.work(g.num_edges() as u64);
        let mut solver = PopularSolver::new(0, 0);
        let _ = solver.solve_ties(&g).expect("valid ties graph");
        t.absorb(solver.stats());
    });
    let bpe = bytes_per_entity(g.heap_bytes(), g.n_left() + g.n_right());
    extra.push(("bytes_per_entity", bpe));
    let op = |_: &mut ()| {
        let inst = pm_popular::ties::rank1_instance(&g).unwrap();
        black_box(inst.num_edges());
        popular_matching_rank1(&g).size()
    };
    c.measure(1, &mut (), op, |_, _| extra)
}

/// `requests` warm solves per op on one reused solver.  With a gate name
/// the zero-allocation gate warms the solver and its count is recorded as
/// `allocs_per_solve`; without one, a single untimed solve warms it.
fn warm_solves(
    c: &Ctx,
    gate: Option<&str>,
    mut solve: impl FnMut() -> usize,
    tail: Extras,
) -> JsonResult {
    let requests = c.requests();
    let mut extra = vec![("requests", requests as u64)];
    if let Some(what) = gate {
        let allocs = zero_alloc_gate(what, c.n, &mut solve);
        extra.push(("allocs_per_solve", allocs));
    } else {
        solve();
    }
    extra.extend(tail);
    let op = |_: &mut ()| {
        for _ in 0..requests {
            solve();
        }
    };
    c.measure(requests, &mut (), op, |_, _| extra)
}

/// Batched throughput: [`PopularSolver::solve_batch`] over independent
/// instances, per instance.
fn served_batch(c: &Ctx) -> JsonResult {
    let batch = if c.run.quick { 4 } else { 8 };
    let insts = workloads::batch_instances(c.n, batch);
    // Answers checked once, untimed, on a separate solver so the timed one
    // starts cold as before.
    let answers = PopularSolver::new(c.n, c.n).solve_batch(&insts);
    for (inst, answer) in insts.iter().zip(answers) {
        let m = answer.expect("batch instances are solvable");
        assert!(
            is_popular_characterization(inst, &m),
            "unpopular batch answer"
        );
    }
    let batch_bytes = insts.iter().map(PrefInstance::heap_bytes).sum();
    let entities = insts.iter().map(|i| i.num_applicants() + i.total_posts());
    let bpe = bytes_per_entity(batch_bytes, entities.sum());
    let extra = vec![("batch", batch as u64), ("bytes_per_entity", bpe)];
    let mut solver = PopularSolver::new(c.n, c.n);
    let op = |_: &mut ()| black_box(solver.solve_batch(&insts).len());
    c.measure(batch, &mut (), op, |_, _| extra)
}

/// The edit-churn stream and its reversed-tails twin: one pass applies
/// both, so every edit lands on a list the previous half-pass changed away
/// — replaying a single stream would time no-op applies on clean shards
/// instead of shard re-solves.
fn edit_streams(c: &Ctx) -> [Vec<Delta>; 2] {
    let inst = c.inputs.uniform();
    let stream = workloads::edit_churn_stream(inst, c.deltas());
    [workloads::resampled_twin(inst, &stream), stream]
}

/// Fraction of a full warm solve the amortized per-delta cost of pure-edit
/// churn may reach before the harness exits non-zero (the incremental
/// regression gate CI runs on every push).  Dirty-component re-solves on
/// star-shaped components are microseconds against a full solve's hundreds
/// of milliseconds at n = 10^6, so 20% is a loose tripwire: it only fires
/// when the delta path has collapsed into near-constant full re-solves.
const INCREMENTAL_GATE_FRACTION: f64 = 0.20;

/// Pure `EditPrefList` churn with the first choice pinned (no f-census
/// flips) against a warm [`DeltaSolver`]: every apply-and-flush round
/// re-solves only the edited applicant's component and splices it into the
/// cached global matching.  Gated twice: zero allocations per warm pass,
/// and the amortized per-delta cost within [`INCREMENTAL_GATE_FRACTION`] of
/// a full warm solve.
fn edit_churn(c: &Ctx) -> JsonResult {
    let (inst, n, streams) = (c.inputs.uniform(), c.n, edit_streams(c));
    let pass_deltas = 2 * c.deltas();
    // The full-warm-solve reference of the incremental gate: same instance,
    // width 1, steady-state solver.
    let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
    let mut solve = || black_box(solver.solve(inst).expect("solvable").num_applicants());
    let full_warm_ms = on_width(1, || {
        solve();
        time_best(c.run.reps, solve).1.as_secs_f64() * 1e3
    });
    drop(solver);

    let ds = on_width(1, || DeltaSolver::install(inst, DeltaMode::Popular));
    let mut ds = ds.expect("solvable workload");
    let pass = |ds: &mut DeltaSolver| {
        for d in streams.iter().flatten() {
            ds.apply(d).expect("edit churn deltas are valid");
            black_box(ds.flush().expect("solvable").num_applicants());
        }
    };
    let allocs = zero_alloc_gate("warm delta apply+flush pass", n, || pass(&mut ds));
    c.measure(pass_deltas, &mut ds, pass, |ds, amortized_ms| {
        if amortized_ms > INCREMENTAL_GATE_FRACTION * full_warm_ms {
            eprintln!(
                "INCREMENTAL GATE FAILED: amortized per-delta cost {amortized_ms:.3} ms \
                 exceeds {INCREMENTAL_GATE_FRACTION} x full warm solve ({full_warm_ms:.3} ms) \
                 at n = {n} — the delta path is re-solving from scratch"
            );
            std::process::exit(1);
        }
        eprintln!(
            "incremental gate passed at n = {n} ({amortized_ms:.3} ms/delta vs \
             {full_warm_ms:.3} ms full warm solve)"
        );
        let mut extra = vec![
            ("deltas", pass_deltas as u64),
            ("full_warm_solve_us", (full_warm_ms * 1e3) as u64),
            ("allocs_per_pass", allocs),
        ];
        extra.extend(delta_fields(&ds.stats()));
        extra
    })
}

/// The incremental layer's counters, in row order.
fn delta_fields(s: &DeltaStats) -> [(&'static str, u64); 4] {
    [
        ("shard_solves", s.shard_solves),
        ("full_solves", s.full_solves),
        ("fallback_full_solves", s.fallback_full_solves),
        ("spliced_applicants", s.spliced_applicants),
    ]
}

/// The state of `served/incremental/mixed_churn`.  The stream mutates the
/// instance, so it cannot be replayed on the same solver: each width
/// reinstalls a fresh one and times one pass.
struct MixedChurn<'a> {
    inst: &'a PrefInstance,
    solver: Option<DeltaSolver>,
    infeasible_flushes: u64,
}

impl OpState for MixedChurn<'_> {
    fn fresh(&mut self) -> bool {
        let solver = DeltaSolver::install(self.inst, DeltaMode::Popular);
        self.solver = Some(solver.expect("solvable workload"));
        self.infeasible_flushes = 0;
        true
    }
}

/// The honest churn mix (edits, applicant add/remove, post add/remove);
/// post-set changes force full rebuilds by design, so this records what
/// heterogeneous churn costs, fallbacks included.
fn mixed_churn(c: &Ctx) -> JsonResult {
    let (inst, deltas) = (c.inputs.uniform(), c.deltas());
    let stream = workloads::mixed_churn_stream(inst, deltas);
    let op = |s: &mut MixedChurn| {
        let ds = s.solver.as_mut().expect("installed by `fresh`");
        for d in &stream {
            ds.apply(d).expect("mirror-validated deltas are valid");
            match ds.flush() {
                Ok(m) => {
                    black_box(m.num_applicants());
                }
                Err(PopularError::NoPopularMatching) => s.infeasible_flushes += 1,
                Err(e) => panic!("mixed churn flush failed: {e}"),
            }
        }
    };
    let state = &mut MixedChurn {
        inst,
        solver: None,
        infeasible_flushes: 0,
    };
    c.measure(deltas, state, op, |s, _| {
        let mut extra = vec![
            ("deltas", deltas as u64),
            ("infeasible_flushes", s.infeasible_flushes),
        ];
        extra.extend(delta_fields(&s.solver.as_ref().expect("measured").stats()));
        extra
    })
}

/// The edit-churn streams through the fault-tolerant [`Server`] delta path
/// (bounded queue, scheduling tick, coalescing, health gate).  One op
/// submits a whole stream, then waits for every ticket: the single worker
/// drains the queue in coalesced rounds, so this measures the full tick
/// path — queue, drain, apply, one flush per round, response fan-out.
fn server_churn(c: &Ctx) -> JsonResult {
    let (streams, deltas) = (edit_streams(c), c.deltas());
    let server = Server::start(server_config(deltas));
    let installed = server.install_delta(1, c.inputs.uniform(), SolveMode::Popular);
    installed.expect("solvable workload");
    let submit = |d: &Delta| {
        let ticket = server.submit_delta(DeltaRequest::new(1, d.clone()));
        ticket.expect("burst fits the pending capacity")
    };
    let burst = |_: &mut ()| {
        for stream in &streams {
            let tickets: Vec<_> = stream.iter().map(submit).collect();
            for t in tickets {
                let resp = t.wait().expect("edit churn deltas solve cleanly");
                black_box(resp.matching.num_applicants());
            }
        }
    };
    burst(&mut ());
    let row = c.measure(2 * deltas, &mut (), burst, |_, _| {
        let s = server.stats();
        let d = server.delta_stats(1).expect("installed above");
        let mut extra = vec![
            ("deltas", 2 * deltas as u64),
            ("served", s.served),
            ("delta_ticks", s.delta_ticks),
            ("deltas_coalesced", s.deltas_coalesced),
            ("degraded_responses", s.degraded_responses),
            ("panics_recovered", s.panics_recovered),
        ];
        extra.extend(&delta_fields(&d)[..3]);
        extra
    });
    server.shutdown();
    row
}

/// A one-worker server configuration with the fail points inert.
fn server_config(queue_capacity: usize) -> ServerConfig {
    ServerConfig {
        queue_capacity,
        faults: Spec::none(),
        ..ServerConfig::default()
    }
}

/// The server-routed workloads.
#[derive(PartialEq)]
enum Served {
    /// `served/server_warm`, under the zero-rejected gate: at nominal,
    /// injection-free load a burst that fits the queue is never rejected or
    /// shed.
    Nominal,
    /// `served/degraded`: a force-degraded id answers every request with
    /// the serial-dictatorship fallback.
    Degraded,
    /// `faults/chaos`: two workers under `panic:0.05,delay:1ms` injection
    /// (or `PM_FAULTS` when set); only deadlocks and corruption fail it.
    Chaos,
}

/// Bursts of uniform requests (one queue's worth, then a wait on every
/// ticket) through a [`Server`] — the full fault-tolerant path: bounded
/// queue, deadline check, health gate, `catch_unwind` — recording its
/// counters.  The server owns its worker threads, so these run at width 1.
fn server_bursts(c: &Ctx, mode: Served) -> JsonResult {
    let requests: usize = if c.run.quick { 8 } else { 16 };
    let mut config = server_config(requests);
    match mode {
        Served::Nominal => {}
        Served::Degraded => config.backoff_max = Duration::from_secs(3600),
        Served::Chaos => {
            config.workers = 2;
            config.faults = match std::env::var(pm_serve::faults::ENV_VAR) {
                Ok(s) if !s.trim().is_empty() => Spec::from_env(),
                _ => Spec::parse("panic:0.05,delay:1ms").expect("built-in spec parses"),
            };
        }
    }
    let server = Server::start(config);
    let request = || Request::new(Arc::clone(c.inputs.uniform()), 1);
    // Returns the degraded-answer count the client side observed.
    let burst = |_: &mut ()| -> u64 {
        let tickets: Vec<_> = (0..requests)
            .map(|_| {
                server
                    .submit(request())
                    .expect("burst fits the queue capacity")
            })
            .collect();
        let mut degraded = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(resp) => degraded += u64::from(resp.is_degraded()),
                Err(ServeError::Faulted) => {}
                Err(e) => panic!("server burst failed: {e}"),
            }
        }
        degraded
    };
    if mode == Served::Degraded {
        server.force_degrade(1);
    }
    // The untimed warm-up burst.
    let degraded = burst(&mut ());
    if mode == Served::Degraded {
        let msg = "a force-degraded id must answer every request degraded";
        assert_eq!(degraded, requests as u64, "{msg}");
    }
    let row = c.measure(requests, &mut (), burst, |_, _| {
        let s = server.stats();
        if mode == Served::Nominal {
            if s.rejected != 0 || s.shed != 0 {
                eprintln!(
                    "ZERO-REJECTED GATE FAILED: {} rejected {} and shed {} requests at \
                     nominal load, n = {} (expected 0 / 0)",
                    c.w.name, s.rejected, s.shed, c.n
                );
                std::process::exit(1);
            }
            eprintln!(
                "zero-rejected gate passed at n = {} ({} requests served)",
                c.n, s.served
            );
        }
        vec![
            ("requests", requests as u64),
            ("served", s.served),
            ("rejected", s.rejected),
            ("shed", s.shed),
            ("panics_recovered", s.panics_recovered),
            ("degraded_responses", s.degraded_responses),
        ]
    });
    server.shutdown();
    row
}

/// An ingest path timed on the uniform instance; its result is checked,
/// untimed, to reproduce the instance.
fn ingest(c: &Ctx, what: &str, mut load: impl FnMut() -> PrefInstance) -> JsonResult {
    let inst = c.inputs.uniform();
    assert!(load() == **inst, "{what} must reproduce the instance");
    c.measure(1, &mut (), |_| load(), |_, _| vec![bytes(inst)])
}

/// Allocations one snapshot load may make — essentially one per flat
/// buffer plus the file read — before the harness exits non-zero.  A
/// regression here means the loader started restructuring instead of
/// filling flat buffers.
const COLD_ALLOC_BOUND: u64 = 16;

fn snapshot_load(c: &Ctx) -> JsonResult {
    use pm_instances::snapshot;
    let (inst, n) = (c.inputs.uniform(), c.n);
    let path = std::env::temp_dir().join(format!("pm_bench_cold_{n}.pmsnap"));
    snapshot::write_file(inst, &path).expect("snapshot write");
    // Allocation gate: one load, counted exactly.
    let before = allocation_count();
    let loaded = snapshot::read_file(&path).expect("snapshot read");
    let allocs = allocation_count() - before;
    assert!(
        loaded == **inst,
        "snapshot load must reproduce the instance"
    );
    drop(loaded);
    if allocs > COLD_ALLOC_BOUND {
        eprintln!(
            "COLD-ALLOC GATE FAILED: snapshot_load performed {allocs} allocations \
             at n = {n} (bound {COLD_ALLOC_BOUND}) — the loader is restructuring \
             instead of filling flat buffers"
        );
        std::process::exit(1);
    }
    eprintln!(
        "cold-alloc gate passed at n = {n} \
         ({allocs} allocations per snapshot load, bound {COLD_ALLOC_BOUND})"
    );
    let extra = vec![("allocs_per_load", allocs), bytes(inst)];
    let load = |_: &mut ()| snapshot::read_file(&path).expect("snapshot read");
    let row = c.measure(1, &mut (), load, |_, _| extra);
    std::fs::remove_file(&path).ok();
    row
}

/// Times the registered workloads the `--workloads` glob selects and writes
/// `BENCH_popular.json`, keeping the file's `"baseline"` object.  Sizes go
/// up to 10⁶ in the full sweep (10⁵ under `--quick`, which CI runs).
fn run_json(
    quick: bool,
    threads: &[usize],
    out_path: &str,
    filter: Option<&str>,
    speedup_floor: Option<f64>,
) {
    let registry = registry();
    let selected = |name: &str| filter.is_none_or(|pat| glob_match(pat, name));
    let names: Vec<&str> = registry.iter().flatten().map(|w| w.name).collect();
    if let Some(pat) = filter {
        if !names.iter().any(|name| selected(name)) {
            let names = names.join("\n  ");
            eprintln!(
                "workload filter {pat} matches no registered workload; registered:\n  {names}"
            );
            std::process::exit(2);
        }
        eprintln!("workload filter: {pat} (unselected workloads are dropped from the output file)");
    }
    for w in registry
        .iter()
        .flatten()
        .filter(|w| !w.runnable() && selected(w.name))
    {
        eprintln!(
            "{} skipped: fail points compiled out \
             (rebuild with `--features faults` to measure under injection)",
            w.name
        );
    }
    let reps = if quick { 2 } else { 3 };
    let run = &Run {
        quick,
        threads,
        reps,
    };
    let mut results = Vec::new();
    for (n, members) in plan(&registry, quick, &selected) {
        let inputs = &Inputs {
            n,
            ..Inputs::default()
        };
        for w in members {
            results.push((w.setup)(&Ctx { run, w, n, inputs }));
        }
    }

    let baseline = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|old| extract_object(&old, "baseline"));
    let json = render_json(quick, threads, &results, baseline.as_deref());
    std::fs::write(out_path, &json).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    println!("{json}");
    if let Some(floor) = speedup_floor {
        assert_speedup_floor(&results, threads, floor);
    }
}

/// The multicore regression gate behind `--assert-speedup FLOOR` (the CI
/// PM_THREADS=4 bench leg): every n ≥ 10⁶ workload swept at more than one
/// width must reach `floor` speedup of the widest width over one thread.
/// A miss downgrades to a warning when the runner reports fewer hardware
/// threads than the sweep's widest width — a 2-core shared runner cannot
/// reach a 3× floor, and that is a hardware fact, not a regression.
fn assert_speedup_floor(results: &[JsonResult], threads: &[usize], floor: f64) {
    const GATE_MIN_N: usize = 1_000_000;
    let widest = *threads.last().expect("non-empty sweep");
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let gated: Vec<&JsonResult> = results
        .iter()
        .filter(|r| r.n >= GATE_MIN_N && r.wall_ms_by_threads.len() > 1)
        .collect();
    if gated.is_empty() {
        eprintln!(
            "speedup gate: no n >= {GATE_MIN_N} workload in this sweep \
             (quick or filtered run) — nothing to assert"
        );
        return;
    }
    let mut failed = false;
    for r in gated {
        let s = r.speedup_vs_1();
        let ok = s >= floor;
        eprintln!(
            "speedup gate: {} n={} speedup_vs_1 = {s:.2} (floor {floor:.2}) — {}",
            r.workload,
            r.n,
            if ok { "ok" } else { "BELOW FLOOR" }
        );
        failed |= !ok;
    }
    if failed {
        if hw < widest {
            eprintln!(
                "speedup gate: WARNING only — runner reports {hw} hardware thread(s) \
                 for a {widest}-wide sweep; the {floor:.1}x floor is unreachable \
                 on this machine, not a regression signal"
            );
        } else {
            eprintln!("speedup gate: FAILED (workloads below the floor listed above)");
            std::process::exit(1);
        }
    }
}

/// `--profile`: the per-kernel phase clock (pm_popular::profile) over warm
/// solves of the headline uniform workload, then over warm `solve_ties`
/// laps of the Hopcroft–Karp referee on the bipartite workload.
fn run_profile(quick: bool) {
    use pm_popular::profile::SolvePhase::*;
    let sizes: &[usize] = WIDE[usize::from(!quick)];
    println!(
        "<!-- harness --profile: {} rayon threads, {PROFILE_LAPS} warm solves per size -->\n",
        rayon::current_num_threads()
    );
    // Census and Jump are sub-spans *inside* Algorithm 2, so these columns
    // do not sum to the total.
    let title =
        "Per-kernel phase wall time, ms per warm solve (census/jump nest inside algorithm2)";
    phase_table(
        title,
        sizes,
        &[Reduce, Algorithm2, Promote, Census, Jump],
        |n| {
            let inst = workloads::solvable_uniform(n);
            let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
            move || {
                black_box(solver.solve(&inst).expect("solvable").num_applicants());
            }
        },
    );
    // hk_dfs covers the layered search *including* its in-place path flips;
    // hk_augment is the final matching write-out, so the three phases
    // partition the referee.
    let title =
        "Hopcroft–Karp referee phases, ms per warm solve_ties (bipartite, expected degree 4)";
    phase_table(title, sizes, &[HkBfs, HkDfs, HkAugment], |n| {
        let g = workloads::bipartite(n);
        let mut solver = PopularSolver::new(0, 0);
        move || {
            black_box(solver.solve_ties(&g).expect("valid ties graph").size());
        }
    });
}

/// Warm laps per size of a `--profile` table.
const PROFILE_LAPS: u32 = 5;

/// One `--profile` table: per size, one untimed lap warms the workspace (so
/// the phase totals describe steady-state serving, not first-touch page
/// faults), then [`PROFILE_LAPS`] laps run with the phase clock on.  The
/// clock is two relaxed atomics per span, so these are the same solves the
/// trajectory file times.
fn phase_table<L: FnMut()>(
    title: &str,
    sizes: &[usize],
    phases: &[pm_popular::profile::SolvePhase],
    lap_at: impl Fn(usize) -> L,
) {
    use pm_popular::profile::{enable_phase_timings, phase_timings, reset_phase_timings};
    let per_lap = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3 / f64::from(PROFILE_LAPS));
    let mut headers = vec!["n"];
    headers.extend(phases.iter().map(|p| p.name()));
    headers.push("total");
    let mut t = Table::new(title, &headers);
    for &n in sizes {
        let mut lap = lap_at(n);
        lap();
        reset_phase_timings();
        enable_phase_timings(true);
        let (_, total) = time(|| (0..PROFILE_LAPS).for_each(|_| lap()));
        enable_phase_timings(false);
        let timings = phase_timings();
        let mut row = vec![n.to_string()];
        row.extend(phases.iter().map(|&p| per_lap(timings.get(p))));
        row.push(per_lap(total));
        t.row(row);
    }
    t.print();
}

/// `*`-wildcard matching for `--workloads` (iterative backtracking; `*`
/// matches any — possibly empty — substring, `/` included).
fn glob_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == b'*')
}

fn render_json(
    quick: bool,
    threads: &[usize],
    results: &[JsonResult],
    baseline: Option<&str>,
) -> String {
    let rows = results.iter().map(|r| {
        let by_threads: Vec<String> = r
            .wall_ms_by_threads
            .iter()
            .map(|(t, ms)| format!("\"{t}\": {ms:.3}"))
            .collect();
        let by_threads = by_threads.join(", ");
        let extra: String = r
            .extra
            .iter()
            .map(|(key, v)| format!(", \"{key}\": {v}"))
            .collect();
        // `wall_ms` stays the 1-thread number so the trajectory remains
        // comparable with the sequential-shim history of this file.
        format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"wall_ms\": {:.3}, \
             \"wall_ms_by_threads\": {{{by_threads}}}, \"speedup_vs_1\": {:.2}{extra}}}",
            r.workload,
            r.n,
            r.wall_ms_1(),
            r.speedup_vs_1(),
        )
    });
    let mut rows = rows.collect::<Vec<_>>().join(",\n");
    if !rows.is_empty() {
        rows.push('\n');
    }
    // The effective tuning knobs of this run (PM_CHUNK_BYTES /
    // PM_PREFETCH_DIST env overrides land here), so trajectory numbers are
    // reproducible without knowing the runner's environment.
    let mut out = format!(
        "{{\n  \"schema\": 6,\n  \"harness\": \"pm_bench --json\",\n  \"quick\": {quick},\n  \
         \"rayon_threads\": {},\n  \"chunk_bytes\": {},\n  \"prefetch_dist\": {},\n  \
         \"prefetch_compiled\": {},\n  \"thread_sweep\": [{}],\n  \"results\": [\n{rows}  ]",
        rayon::current_num_threads(),
        pm_pram::tune::chunk_bytes(),
        pm_pram::tune::prefetch_dist(),
        cfg!(feature = "prefetch"),
        threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(b) = baseline {
        out.push_str(",\n  \"baseline\": ");
        out.push_str(b);
    }
    out.push_str("\n}\n");
    out
}

/// Extracts the balanced-brace JSON object bound to the given top-level key
/// from `text`, e.g. `extract_object(s, "baseline")` returns the `{...}`
/// after `"baseline":`.  Good enough for the harness's own output format
/// (no braces inside strings).
fn extract_object(text: &str, key: &str) -> Option<String> {
    let at = text.find(&format!("\"{key}\""))?;
    let start = at + text[at..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..=start + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

// ------------------------------------------------------------------ utils

/// The `bytes_per_entity` field of an instance: resident heap bytes of its
/// flat arrays per entity (applicants plus extended posts) — the
/// peak-footprint estimate of the workload's *input*, so the 32-bit index
/// narrowing (DESIGN.md §7) is visible as data, not prose.
fn bytes(inst: &PrefInstance) -> (&'static str, u64) {
    let entities = inst.num_applicants() + inst.total_posts();
    let bpe = bytes_per_entity(inst.heap_bytes(), entities);
    ("bytes_per_entity", bpe)
}

/// `bytes / entities`, rounded to the nearest byte.
fn bytes_per_entity(bytes: usize, entities: usize) -> u64 {
    (bytes as u64 + entities as u64 / 2) / (entities as u64).max(1)
}

fn post(inst: &PrefInstance, p: usize) -> String {
    if inst.is_last_resort(p) {
        format!("l(a{})", p - inst.num_posts() + 1)
    } else {
        format!("p{}", p + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(workload, n)` rows a run measures, in order.
    fn rows(quick: bool) -> Vec<(&'static str, usize)> {
        let registry = registry();
        let steps = plan(&registry, quick, &|_| true);
        let rows = steps
            .into_iter()
            .flat_map(|(n, ws)| ws.into_iter().map(move |w| (w.name, n)));
        rows.collect()
    }

    /// `expected` with the `faults/chaos/uniform` rows a `--features
    /// faults` build adds after the last `served/degraded` row.
    fn with_chaos(
        mut expected: Vec<(&'static str, usize)>,
        sizes: &[usize],
    ) -> Vec<(&'static str, usize)> {
        if Spec::compiled_in() {
            let last_degraded = expected
                .iter()
                .rposition(|&(name, _)| name == "served/degraded/uniform")
                .expect("degraded rows are registered");
            let chaos = sizes.iter().map(|&n| ("faults/chaos/uniform", n));
            expected.splice(last_degraded + 1..last_degraded + 1, chaos);
        }
        expected
    }

    #[test]
    fn glob_match_edge_cases() {
        assert!(glob_match("", ""));
        assert!(!glob_match("", "served/batch/uniform"));
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "served/batch/uniform"));
        assert!(glob_match("**", "cold/text_parse/uniform"));
        assert!(glob_match("*churn", "served/incremental/edit_churn"));
        assert!(!glob_match("*churn", "served/incremental/edit_churn/x"));
        assert!(glob_match("served/*", "served/incremental/server_churn"));
        assert!(!glob_match("served/*", "faults/chaos/uniform"));
        assert!(glob_match(
            "served/incremental*",
            "served/incremental/mixed_churn"
        ));
        assert!(glob_match("served**uniform", "served/warm_solve/uniform"));
        assert!(glob_match("layout/*/on", "layout/switching_graph/on"));
        assert!(!glob_match("layout/*/on", "layout/warm_solve/off"));
        assert!(glob_match("*/*/*", "cold/snapshot_load/uniform"));
        assert!(!glob_match("srved/*", "served/batch/uniform"));
        assert!(!glob_match("served/batch/uniform", "served/batch"));
        assert!(!glob_match("served/batch", "served/batch/uniform"));
    }

    #[test]
    fn registry_names_are_unique() {
        let registry = registry();
        let mut names: Vec<&str> = registry.iter().flatten().map(|w| w.name).collect();
        let registered = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registered, "duplicate workload names");
    }

    #[test]
    fn quick_rows_are_the_recorded_quick_rows() {
        let quick = vec![
            ("popular_matching_run/uniform", 10_000),
            ("popular_matching_run/uniform", 100_000),
            ("max_cardinality/paired", 100_000),
            ("switching_graph/uniform", 100_000),
            ("ties_rank1/bipartite", 100_000),
            ("layout/switching_graph/off", 100_000),
            ("layout/switching_graph/on", 100_000),
            ("layout/warm_solve/off", 100_000),
            ("layout/warm_solve/on", 100_000),
            ("served/warm_solve/uniform", 10_000),
            ("served/warm_solve/uniform", 100_000),
            ("served/cold_solve/uniform", 10_000),
            ("served/cold_solve/uniform", 100_000),
            ("served/batch/uniform", 10_000),
            ("served/incremental/edit_churn", 10_000),
            ("served/incremental/edit_churn", 100_000),
            ("served/incremental/mixed_churn", 10_000),
            ("served/incremental/server_churn", 10_000),
            ("served/server_warm/uniform", 10_000),
            ("served/degraded/uniform", 10_000),
            ("cold/nested_build/uniform", 100_000),
            ("cold/text_parse/uniform", 100_000),
            ("cold/snapshot_load/uniform", 100_000),
        ];
        assert_eq!(quick.len(), 23);
        assert_eq!(rows(true), with_chaos(quick, &[10_000]));
    }

    #[test]
    fn full_rows_are_the_committed_trajectory_rows() {
        // The rows of the committed full-sweep `BENCH_popular.json`.
        let full = vec![
            ("popular_matching_run/uniform", 10_000),
            ("popular_matching_run/uniform", 100_000),
            ("popular_matching_run/uniform", 1_000_000),
            ("max_cardinality/paired", 100_000),
            ("max_cardinality/paired", 1_000_000),
            ("switching_graph/uniform", 100_000),
            ("switching_graph/uniform", 1_000_000),
            ("ties_rank1/bipartite", 100_000),
            ("ties_rank1/bipartite", 1_000_000),
            ("layout/switching_graph/off", 100_000),
            ("layout/switching_graph/on", 100_000),
            ("layout/warm_solve/off", 100_000),
            ("layout/warm_solve/on", 100_000),
            ("layout/switching_graph/off", 1_000_000),
            ("layout/switching_graph/on", 1_000_000),
            ("layout/warm_solve/off", 1_000_000),
            ("layout/warm_solve/on", 1_000_000),
            ("served/warm_solve/uniform", 10_000),
            ("served/warm_solve/uniform", 100_000),
            ("served/warm_solve/uniform", 1_000_000),
            ("served/cold_solve/uniform", 10_000),
            ("served/cold_solve/uniform", 100_000),
            ("served/cold_solve/uniform", 1_000_000),
            ("served/batch/uniform", 100_000),
            ("served/incremental/edit_churn", 10_000),
            ("served/incremental/edit_churn", 100_000),
            ("served/incremental/edit_churn", 1_000_000),
            ("served/incremental/mixed_churn", 10_000),
            ("served/incremental/mixed_churn", 100_000),
            ("served/incremental/server_churn", 10_000),
            ("served/incremental/server_churn", 100_000),
            ("served/server_warm/uniform", 10_000),
            ("served/server_warm/uniform", 100_000),
            ("served/degraded/uniform", 10_000),
            ("served/degraded/uniform", 100_000),
            ("cold/nested_build/uniform", 100_000),
            ("cold/text_parse/uniform", 100_000),
            ("cold/snapshot_load/uniform", 100_000),
            ("cold/nested_build/uniform", 1_000_000),
            ("cold/text_parse/uniform", 1_000_000),
            ("cold/snapshot_load/uniform", 1_000_000),
        ];
        assert_eq!(full.len(), 41);
        assert_eq!(rows(false), with_chaos(full, &[10_000, 100_000]));
    }

    #[test]
    fn a_family_shares_its_inputs_size_by_size() {
        let registry = registry();
        let steps = plan(&registry, false, &|name| name.starts_with("cold/"));
        let step = |(n, ws): &(usize, Vec<&Workload>)| (*n, ws.len());
        assert_eq!(
            steps.iter().map(step).collect::<Vec<_>>(),
            [(100_000, 3), (1_000_000, 3)]
        );
        assert!(plan(&registry, true, &|name| glob_match("srved/*", name)).is_empty());
    }

    #[test]
    fn render_extract_rerender_is_byte_identical() {
        let results = vec![
            JsonResult {
                workload: "popular_matching_run/uniform",
                n: 10_000,
                wall_ms_by_threads: vec![(1, 1.5), (2, 0.75)],
                extra: vec![("depth", 11), ("work", 305_137), ("bytes_per_entity", 8)],
            },
            JsonResult {
                workload: "served/server_warm/uniform",
                n: 10_000,
                wall_ms_by_threads: vec![(1, 0.8934)],
                extra: vec![("requests", 16)],
            },
        ];
        let baseline = "{\n    \"note\": \"nested {braces}\",\n    \"results\": [\n      \
                        {\"workload\": \"x\", \"n\": 1, \"wall_ms\": 2.0}\n    ]\n  }";
        let first = render_json(true, &[1, 2], &results, Some(baseline));
        let kept = extract_object(&first, "baseline").expect("baseline survives");
        assert_eq!(kept, baseline);
        assert_eq!(render_json(true, &[1, 2], &results, Some(&kept)), first);
        assert!(first.contains(
            "    {\"workload\": \"popular_matching_run/uniform\", \"n\": 10000, \
             \"wall_ms\": 1.500, \"wall_ms_by_threads\": {\"1\": 1.500, \"2\": 0.750}, \
             \"speedup_vs_1\": 2.00, \"depth\": 11, \"work\": 305137, \"bytes_per_entity\": 8},\n"
        ));
        assert!(first.contains(
            "\"wall_ms_by_threads\": {\"1\": 0.893}, \"speedup_vs_1\": 1.00, \"requests\": 16}\n  ]"
        ));
        assert!(first.starts_with("{\n  \"schema\": 6,\n  \"harness\": \"pm_bench --json\",\n"));
        assert!(first.contains("  \"thread_sweep\": [1, 2],\n  \"results\": [\n"));

        let empty = render_json(true, &[1], &[], None);
        assert!(empty.ends_with("  \"results\": [\n  ]\n}\n"), "{empty}");
        assert_eq!(extract_object(&empty, "baseline"), None);
    }
}
