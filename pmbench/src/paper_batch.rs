//! `paper_batch`: offline analysis.  One client runs jobs back to back,
//! cycling over four input seeds.  A job decodes a snapshot, runs the
//! layout pass, solves max-cardinality on the relabeled twin, builds the
//! switching graph of that matching and its components, solves the
//! Section V ties reduction, and walks the stable-matching lattice from
//! the man-optimal to the woman-optimal matching with Algorithm 4.

use std::time::Instant;

use pm_graph::BipartiteGraph;
use pm_instances::generators;
use pm_instances::{layout, snapshot};
use pm_matching::hopcroft_karp::hopcroft_karp;
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::profile::{enable_phase_timings, phase_timings, SolvePhase};
use pm_popular::verify::is_popular_characterization;
use pm_popular::{PopularSolver, ReducedGraph, RelabeledSolver, SwitchingGraph};
use pm_pram::DepthTracker;
use pm_stable::instance::{SmInstance, StableMatching};
use pm_stable::next::{next_stable_matchings, NextStableOutcome};

use crate::alloc::allocations;
use crate::layers::{bytes_per_entity, PhaseSums};
use crate::report::{Metrics, Outcome};
use crate::run::{
    common_metrics, run_timed, timed, zero_unset, Client, Latencies, OpResult, RunOpts, SETUP_REPS,
};
use crate::stats::{mean, ratio};
use crate::trace::{self, Tracer};
use crate::{strict_config, sub_seed};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Applicants of the layout/max-cardinality instance, and left and
    /// right vertices of the ties graph.
    pub n: usize,
    /// Men (and women) of the stable-marriage instance.
    pub sm_n: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 1 << 16,
        sm_n: 256,
    };

    /// A size that runs in well under a second, for the smoke tests.
    pub const TINY: Params = Params { n: 4_096, sm_n: 32 };
}

/// Community width of the `clustered_scattered` instance.
const COMMUNITY: usize = 256;
/// Expected degree of a left vertex in the ties graph.
const TIES_DEGREE: f64 = 4.0;
/// Input seeds the jobs cycle over.
const SEEDS: u64 = 4;

struct JobInput {
    original: PrefInstance,
    snapshot: Vec<u8>,
    graph: BipartiteGraph,
    sm: SmInstance,
}

fn generate(p: &Params, seed: u64) -> Vec<JobInput> {
    (0..SEEDS)
        .map(|s| {
            let cfg = strict_config(p.n, sub_seed(seed, 3 * s));
            let original = generators::clustered_scattered(&cfg, COMMUNITY);
            let density = TIES_DEGREE / p.n as f64;
            JobInput {
                snapshot: snapshot::to_bytes(&original),
                original,
                graph: generators::random_bipartite(p.n, p.n, density, sub_seed(seed, 3 * s + 1)),
                sm: generators::random_sm_instance(p.sm_n, sub_seed(seed, 3 * s + 2)),
            }
        })
        .collect()
}

/// The answers of one job, compared across jobs of the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JobOutput {
    matching: Assignment,
    components: usize,
    ties_size: usize,
    walk: Vec<StableMatching>,
    rotations: usize,
}

/// The solvers a client keeps warm across jobs.
#[derive(Debug)]
struct Solvers {
    relabeled: RelabeledSolver,
    ties: PopularSolver,
}

impl Solvers {
    fn new(p: &Params) -> Self {
        Self {
            relabeled: RelabeledSolver::new(p.n, p.n + p.n / 8 + 1),
            ties: PopularSolver::new(0, 0),
        }
    }
}

/// Phase-clock slices the replay collects around the solver and ties steps.
#[derive(Debug, Default)]
struct ReplayProbe {
    solver: PhaseSums,
    ties: PhaseSums,
    allocs: Vec<f64>,
    depth: Vec<f64>,
    work: Vec<f64>,
}

/// Runs one job, recording a span per step under one root span.
fn job(
    solvers: &mut Solvers,
    input: &JobInput,
    tracer: &mut Tracer,
    op: u64,
    mut probe: Option<&mut ReplayProbe>,
) -> Result<JobOutput, String> {
    let root = tracer.open("paper.job", op, None);

    let s = tracer.open("instances.decode", op, root);
    let inst = snapshot::from_bytes(&input.snapshot).map_err(|e| format!("decode: {e}"))?;
    tracer.close(s);

    let s = tracer.open("instances.layout", op, root);
    let relabeled = layout::optimize_layout(&inst).map_err(|e| format!("layout: {e}"))?;
    tracer.close(s);

    let s = tracer.open("solver.relabeled_max_card", op, root);
    let (before, a0) = (phase_timings(), allocations());
    let matching = solvers
        .relabeled
        .solve_max_cardinality(&relabeled)
        .map_err(|e| format!("max-cardinality: {e}"))?
        .clone();
    tracer.close(s);
    if let Some(p) = probe.as_deref_mut() {
        p.allocs.push((allocations() - a0) as f64);
        p.solver.add(&before, &phase_timings());
        let stats = solvers.relabeled.stats();
        p.depth.push(stats.depth as f64);
        p.work.push(stats.work as f64);
    }

    let tracker = DepthTracker::new();
    let s = tracer.open("switching.build", op, root);
    let reduced =
        ReducedGraph::build_parallel(&inst, &tracker).map_err(|e| format!("reduced graph: {e}"))?;
    let sg = SwitchingGraph::build(&reduced, &matching, &tracker);
    tracer.close(s);

    let s = tracer.open("switching.components", op, root);
    let components = sg.components(&tracker).len();
    tracer.close(s);

    let s = tracer.open("matching.ties", op, root);
    let before = phase_timings();
    let ties_size = solvers
        .ties
        .solve_ties(&input.graph)
        .map_err(|e| format!("ties: {e}"))?
        .size();
    tracer.close(s);
    if let Some(p) = probe {
        p.ties.add(&before, &phase_timings());
    }

    let s = tracer.open("stable.walk", op, root);
    let mut walk = vec![input.sm.man_optimal()];
    let mut rotations = 0;
    loop {
        let step = tracer.open("stable.next", op, s);
        let next = next_stable_matchings(&input.sm, walk.last().expect("walk starts"), &tracker);
        tracer.close(step);
        match next {
            NextStableOutcome::WomanOptimal => break,
            NextStableOutcome::Next(v) => {
                rotations += v.len();
                walk.push(v.into_iter().next().expect("a rotation").1);
            }
        }
    }
    tracer.close(s);
    tracer.close(root);
    Ok(JobOutput {
        matching,
        components,
        ties_size,
        walk,
        rotations,
    })
}

/// The answer checks of a job's first output on its seed.
fn check(input: &JobInput, out: &JobOutput) -> Result<(), String> {
    if !is_popular_characterization(&input.original, &out.matching) {
        return Err("layout answer is not popular on the original instance".into());
    }
    if out.ties_size != hopcroft_karp(&input.graph).size() {
        return Err("ties answer size differs from Hopcroft-Karp".into());
    }
    if !out.walk.iter().all(|m| input.sm.is_stable(m)) {
        return Err("a walk step is not stable".into());
    }
    if out.walk.last() != Some(&input.sm.woman_optimal()) {
        return Err("the walk does not end at the woman-optimal matching".into());
    }
    Ok(())
}

/// Per-client state.
struct ClientState {
    solvers: Solvers,
    /// `(op id, seed index)` of the traced jobs, for the replay.
    traced: Vec<(u64, usize)>,
    /// Steps and rotations of every traced job's walk, and its components.
    walk_steps: Vec<f64>,
    rotations: Vec<f64>,
    components: Vec<f64>,
}

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = generate(p, opts.seed);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    let epoch = Instant::now();
    for _ in 0..SETUP_REPS {
        let (s, secs) = timed(|| {
            let mut solvers = Solvers::new(p);
            let mut tracer = Tracer::new(epoch, false);
            inputs
                .iter()
                .map(|input| job(&mut solvers, input, &mut tracer, 0, None))
                .collect::<Result<Vec<_>, _>>()
                .map(|firsts| (solvers, firsts))
        });
        let (solvers, firsts) = s?;
        setup_s.push(secs);
        if setup.as_ref().is_some_and(|(_, prev)| prev != &firsts) {
            out.problems
                .push("paper_batch: answers differ between set-ups".into());
        }
        setup = Some((solvers, firsts));
    }
    let (solvers, firsts) = setup.expect("at least one set-up");
    let first_ok: Vec<bool> = inputs
        .iter()
        .zip(&firsts)
        .enumerate()
        .map(|(s, (input, first))| {
            check(input, first)
                .map_err(|e| out.problems.push(format!("paper_batch seed {s}: {e}")))
                .is_ok()
        })
        .collect();

    let state = ClientState {
        solvers,
        traced: Vec::new(),
        walk_steps: Vec::new(),
        rotations: Vec::new(),
        components: Vec::new(),
    };
    let clients = Client::many(epoch, vec![state]);
    let timed_run = run_timed(
        opts,
        Latencies::All,
        clients,
        |c: &mut Client<ClientState>| {
            let s = (c.k % SEEDS) as usize;
            let op = c.op_id(c.k);
            let t0 = Instant::now();
            let result = job(&mut c.state.solvers, &inputs[s], &mut c.tracer, op, None);
            let latency = t0.elapsed();
            let ok = first_ok[s] && result.as_ref().is_ok_and(|o| *o == firsts[s]);
            if let (Ok(o), true) = (&result, c.tracer.is_enabled()) {
                c.state.traced.push((op, s));
                c.state.walk_steps.push((o.walk.len() - 1) as f64);
                c.state.rotations.push(o.rotations as f64);
                c.state.components.push(o.components as f64);
            }
            OpResult { latency, ok }
        },
    );
    common_metrics(&mut out, &setup_s, &timed_run)?;
    if out.failed > 0 {
        out.problems.push(format!(
            "paper_batch: {} of {} jobs failed or differed from the first answer",
            out.failed, out.attempted
        ));
    }
    if opts.trace {
        let client = timed_run.clients.into_iter().next().expect("one client");
        let spans = client.tracer.into_spans();
        let m = &mut out.metrics;
        step_metrics(m, &spans);
        m.set("stable.walk_steps", mean(&client.state.walk_steps));
        m.set("stable.rotations", mean(&client.state.rotations));
        m.set("switching.components", mean(&client.state.components));
        m.set(
            "instances.bytes_per_entity",
            bytes_per_entity(&inputs[0].original),
        );
        let mut solvers = client.state.solvers;
        replay(&mut solvers, &inputs, &client.state.traced, m)?;
        out.spans = spans;
        zero_unset(m);
    }
    Ok(out)
}

/// Step means from the job spans, and the share of the job root spans that
/// the step spans' self times account for.
fn step_metrics(m: &mut Metrics, spans: &[trace::Span]) {
    for (span, metric) in [
        ("instances.decode", "instances.decode_ms"),
        ("instances.layout", "instances.layout_ms"),
        ("solver.relabeled_max_card", "solver.relabeled_max_card_ms"),
        ("switching.build", "switching.build_ms"),
        ("switching.components", "switching.components_ms"),
        ("matching.ties", "matching.ties_ms"),
        ("stable.next", "stable.next_ms"),
    ] {
        m.set(metric, mean(&trace::durations_ms(spans, span)));
    }
    let selfs = trace::self_times(spans);
    let (mut roots, mut steps) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            roots += s.dur_ns();
        } else {
            steps += self_ns;
        }
    }
    m.set("trace.step_self_frac", ratio(steps as f64, roots as f64));
}

/// Replays the traced jobs on this thread with the phase clock on, for the
/// solver, PRAM and Hopcroft-Karp phase slices.
fn replay(
    solvers: &mut Solvers,
    inputs: &[JobInput],
    traced: &[(u64, usize)],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut probe = ReplayProbe::default();
    enable_phase_timings(true);
    let result = traced.iter().try_for_each(|&(op, s)| {
        job(solvers, &inputs[s], &mut tracer, op, Some(&mut probe)).map(drop)
    });
    enable_phase_timings(false);
    result?;
    probe.solver.set_solver_metrics(m);
    m.set("solver.allocs_per_solve", mean(&probe.allocs));
    m.set("pram.depth", mean(&probe.depth));
    m.set("pram.work", mean(&probe.work));
    m.set("matching.hk_bfs_ms", probe.ties.mean_ms(SolvePhase::HkBfs));
    m.set("matching.hk_dfs_ms", probe.ties.mean_ms(SolvePhase::HkDfs));
    m.set(
        "matching.hk_augment_ms",
        probe.ties.mean_ms(SolvePhase::HkAugment),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::{assert_clean, smoke_opts};

    #[test]
    fn smoke_untraced_and_traced() {
        for trace in [false, true] {
            let out = run(&Params::TINY, &smoke_opts(trace)).expect("runs");
            assert_clean(&out, trace);
            if trace {
                let frac = out.metrics.get("trace.step_self_frac").expect("set");
                assert!(frac >= 0.95, "step spans cover {frac} of the job spans");
            }
        }
    }

    #[test]
    fn job_checks_catch_wrong_answers() {
        let p = Params::TINY;
        let input = &generate(&p, 5)[0];
        let mut tracer = Tracer::new(Instant::now(), false);
        let good = job(&mut Solvers::new(&p), input, &mut tracer, 0, None).expect("job runs");
        assert_eq!(check(input, &good), Ok(()));
        let mut wrong = good.clone();
        wrong.ties_size += 1;
        assert!(check(input, &wrong).is_err());
        let mut wrong = good.clone();
        wrong.walk.truncate(1);
        assert!(check(input, &wrong).is_err());
        let mut wrong = good;
        wrong.matching = Assignment::all_last_resort(&input.original);
        assert!(check(input, &wrong).is_err());
    }
}
