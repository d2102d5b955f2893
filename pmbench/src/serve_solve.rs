//! `serve_solve`: read traffic.  Two closed-loop clients send full solves
//! through one `pm_serve::Server` worker, over eight instances of which one
//! has no popular matching; every fourth request of a client asks for a
//! maximum-cardinality popular matching.

use std::sync::Arc;
use std::time::Instant;

use pm_instances::generators::{self, GeneratorConfig};
use pm_instances::snapshot;
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::max_cardinality::maximum_cardinality_popular_matching_sequential;
use pm_popular::profile::{enable_phase_timings, phase_timings};
use pm_popular::sequential::popular_matching_sequential;
use pm_popular::verify::is_popular_characterization;
use pm_popular::{PopularError, PopularSolver};
use pm_serve::faults::Spec;
use pm_serve::{Request, Response, ServeError, Server, ServerConfig, SolveMode};

use crate::alloc::allocations;
use crate::layers::{bytes_per_entity, serve_call, serve_counters, serve_metrics, PhaseSums};
use crate::report::{Metrics, Outcome};
use crate::run::{
    common_metrics, run_timed, timed, zero_unset, Client, Latencies, OpResult, RunOpts, SETUP_REPS,
};
use crate::stats::mean;
use crate::trace::{self, Span, Tracer};
use crate::{strict_config, sub_seed};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Applicants per instance.
    pub n: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params { n: 100_000 };

    /// A size that runs in well under a second, for the smoke tests.
    pub const TINY: Params = Params { n: 2_000 };
}

/// Instances; the last generated one has no popular matching.
const INSTANCES: usize = 8;
/// Closed-loop clients.
const CLIENTS: usize = 2;

/// Every `MAX_CARD_EVERY`-th request of a client is max-cardinality.
const MAX_CARD_EVERY: u64 = 4;
const MODES: [SolveMode; 2] = [SolveMode::Popular, SolveMode::MaxCardinality];

/// What the server answered, reduced to what the checks compare.
type Answer = Result<Assignment, ServeError>;

/// The instances, as the benchmark generated them, plus their snapshots.
struct Inputs {
    originals: Vec<PrefInstance>,
    snapshots: Vec<Vec<u8>>,
}

fn generate(p: &Params, seed: u64) -> Result<Inputs, String> {
    let mut originals: Vec<PrefInstance> = (0..INSTANCES as u64 - 1)
        .map(|i| generators::solvable(&strict_config(p.n, sub_seed(seed, i))))
        .collect();
    let infeasible = (0..64u64)
        .map(|t| {
            let cfg = GeneratorConfig {
                num_posts: p.n,
                ..strict_config(p.n, sub_seed(seed, 1000 + t))
            };
            generators::master_list(&cfg, 8)
        })
        .find(|inst| {
            matches!(
                popular_matching_sequential(inst),
                Err(PopularError::NoPopularMatching)
            )
        })
        .ok_or("no infeasible master-list instance in 64 draws")?;
    originals.push(infeasible);
    let snapshots = originals.iter().map(snapshot::to_bytes).collect();
    Ok(Inputs {
        originals,
        snapshots,
    })
}

/// The instance and mode of a client's `k`-th request.  The instance index
/// advances one extra step every eight requests, so the max-cardinality
/// requests visit every instance.
fn schedule(client: usize, k: u64) -> (usize, SolveMode) {
    let inst = (k + k / 8 + 3 * client as u64) % INSTANCES as u64;
    let mode = if k % MAX_CARD_EVERY == MAX_CARD_EVERY - 1 {
        SolveMode::MaxCardinality
    } else {
        SolveMode::Popular
    };
    (inst as usize, mode)
}

fn mode_index(mode: SolveMode) -> usize {
    usize::from(mode == SolveMode::MaxCardinality)
}

fn ask(server: &Server, inst: &Arc<PrefInstance>, id: usize, mode: SolveMode) -> Answer {
    let req = Request::new(Arc::clone(inst), id as u64).with_mode(mode);
    server.call(req).and_then(full_quality)
}

/// The matching of an undegraded response; a degraded one is a failure.
fn full_quality(r: Response) -> Answer {
    if r.is_degraded() {
        Err(ServeError::Faulted)
    } else {
        Ok(r.matching)
    }
}

/// A started server with its decoded instances, warm on every
/// (instance, mode) pair.
struct Setup {
    server: Server,
    insts: Vec<Arc<PrefInstance>>,
    answers: Vec<[Answer; 2]>,
    decode_ms: f64,
}

fn set_up(inputs: &Inputs) -> Result<Setup, String> {
    let (insts, decode_s) = timed(|| {
        inputs
            .snapshots
            .iter()
            .map(|b| snapshot::from_bytes(b).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()
    });
    let insts = insts.map_err(|e| format!("snapshot decode failed: {e}"))?;
    let server = Server::start(ServerConfig {
        workers: 1,
        faults: Spec::none(),
        ..ServerConfig::default()
    });
    let answers = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| MODES.map(|mode| ask(&server, inst, i, mode)))
        .collect();
    Ok(Setup {
        server,
        insts,
        answers,
        decode_ms: decode_s * 1e3 / inputs.snapshots.len() as f64,
    })
}

/// Checks the first answer of every (instance, mode) pair against the
/// sequential references: `ok[i][mode]`.
fn check_first_answers(inputs: &Inputs, answers: &[[Answer; 2]]) -> Vec<[bool; 2]> {
    inputs
        .originals
        .iter()
        .zip(answers)
        .map(|(inst, pair)| {
            let feasible = popular_matching_sequential(inst).is_ok();
            [0, 1].map(|j| match (feasible, &pair[j]) {
                (false, Err(ServeError::Solve(PopularError::NoPopularMatching))) => true,
                (true, Ok(m)) if is_popular_characterization(inst, m) => {
                    MODES[j] == SolveMode::Popular
                        || maximum_cardinality_popular_matching_sequential(inst)
                            .is_ok_and(|best| best.size(inst) == m.size(inst))
                }
                _ => false,
            })
        })
        .collect()
}

/// A client's traced requests, for the replay: `(op id, instance, mode)`.
type OpLog = Vec<(u64, usize, SolveMode)>;

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = generate(p, opts.seed)?;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let prev = setup.take().map(|s| {
            s.server.shutdown();
            s.answers
        });
        let (s, secs) = timed(|| set_up(&inputs));
        let s = s?;
        setup_s.push(secs);
        if prev.is_some_and(|a| a != s.answers) {
            out.problems
                .push("serve_solve: answers differ between set-ups".into());
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let first_ok = check_first_answers(&inputs, &setup.answers);
    for (i, ok) in first_ok.iter().enumerate() {
        for (mode, _) in MODES.iter().zip(ok).filter(|(_, ok)| !**ok) {
            out.problems.push(format!(
                "serve_solve: wrong {mode:?} answer on instance {i}"
            ));
        }
    }

    let epoch = Instant::now();
    let before = setup.server.stats();
    let clients = Client::many(epoch, vec![OpLog::new(); CLIENTS]);
    let timed_run = run_timed(opts, Latencies::All, clients, |c: &mut Client<OpLog>| {
        let k = c.k;
        let (i, mode) = schedule(c.id, k);
        let op = c.op_id(k);
        let req = Request::new(Arc::clone(&setup.insts[i]), i as u64).with_mode(mode);
        let (answer, latency) = serve_call(
            &mut c.tracer,
            op,
            || setup.server.submit(req),
            |t| t.wait().and_then(full_quality),
        );
        if c.tracer.is_enabled() {
            c.state.push((op, i, mode));
        }
        let ok = first_ok[i][mode_index(mode)] && answer == setup.answers[i][mode_index(mode)];
        OpResult { latency, ok }
    });
    let after = setup.server.stats();
    common_metrics(&mut out, &setup_s, &timed_run)?;
    if out.failed > 0 {
        out.problems.push(format!(
            "serve_solve: {} of {} requests failed or differed from the first answer",
            out.failed, out.attempted
        ));
    }
    if opts.trace {
        let m = &mut out.metrics;
        serve_counters(m, &before, &after, &timed_run.main);
        m.set("instances.decode_ms", setup.decode_ms);
        m.set(
            "instances.bytes_per_entity",
            bytes_per_entity(&setup.insts[0]),
        );
        let mut lists = Vec::new();
        let mut log = Vec::new();
        for c in timed_run.clients {
            log.extend(c.state);
            lists.push(c.tracer.into_spans());
        }
        let spans = trace::merge(lists);
        let replay = replay(&setup.insts, &log, epoch, m);
        serve_metrics(m, &spans, &replay);
        out.spans = trace::merge(vec![spans, replay]);
        zero_unset(m);
    }
    setup.server.shutdown();
    Ok(out)
}

/// Replays the traced requests, client by client, directly against a warm
/// `PopularSolver` on this thread with the phase clock on; returns the
/// replay spans (one root per request, sharing the request's op id).
fn replay(
    insts: &[Arc<PrefInstance>],
    log: &[(u64, usize, SolveMode)],
    epoch: Instant,
    m: &mut Metrics,
) -> Vec<Span> {
    let n = insts[0].num_applicants();
    let mut solver = PopularSolver::new(n, insts[0].num_posts());
    // Warm every (instance, mode) pair once; the PRAM counts and peeling
    // rounds are exact per pair, so they are averaged over pairs.
    let (mut depth, mut work, mut peel) = (Vec::new(), Vec::new(), Vec::new());
    for inst in insts {
        for mode in MODES {
            if solve(&mut solver, inst, mode).is_ok() {
                let s = solver.stats();
                depth.push(s.depth as f64);
                work.push(s.work as f64);
                peel.push(f64::from(solver.peel_rounds()));
            }
        }
    }
    m.set("pram.depth", mean(&depth));
    m.set("pram.work", mean(&work));
    m.set("solver.peel_rounds", mean(&peel));

    let mut tracer = Tracer::new(epoch, true);
    let mut phases = PhaseSums::default();
    let (mut popular, mut max_card, mut infeasible, mut allocs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    enable_phase_timings(true);
    for &(op, i, mode) in log {
        let before = phase_timings();
        let a0 = allocations();
        let start = tracer.now_ns();
        let result = solve(&mut solver, &insts[i], mode);
        let end = tracer.now_ns();
        allocs.push((allocations() - a0) as f64);
        phases.add(&before, &phase_timings());
        let name = match (&result, mode) {
            (Err(_), _) => "solver.infeasible",
            (Ok(()), SolveMode::Popular) => "solver.solve",
            (Ok(()), SolveMode::MaxCardinality) => "solver.max_card",
        };
        tracer.record(Span {
            name,
            op,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        let ms = (end - start) as f64 / 1e6;
        match name {
            "solver.infeasible" => infeasible.push(ms),
            "solver.solve" => popular.push(ms),
            _ => max_card.push(ms),
        }
    }
    enable_phase_timings(false);
    m.set("solver.solve_ms", mean(&popular));
    m.set("solver.max_card_ms", mean(&max_card));
    m.set("solver.infeasible_ms", mean(&infeasible));
    m.set("solver.allocs_per_solve", mean(&allocs));
    phases.set_solver_metrics(m);
    tracer.into_spans()
}

fn solve(
    solver: &mut PopularSolver,
    inst: &PrefInstance,
    mode: SolveMode,
) -> Result<(), PopularError> {
    match mode {
        SolveMode::Popular => solver.solve(inst).map(drop),
        SolveMode::MaxCardinality => solver.solve_max_cardinality(inst).map(drop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::{assert_clean, smoke_opts};

    #[test]
    fn smoke_untraced_and_traced() {
        for trace in [false, true] {
            assert_clean(
                &run(&Params::TINY, &smoke_opts(trace)).expect("runs"),
                trace,
            );
        }
    }

    #[test]
    fn first_answer_checks_catch_wrong_answers() {
        let inputs = generate(&Params::TINY, 5).expect("inputs");
        let mut solver = PopularSolver::new(0, 0);
        let mut answers: Vec<[Answer; 2]> = inputs
            .originals
            .iter()
            .map(|inst| {
                MODES.map(|mode| {
                    solve(&mut solver, inst, mode)
                        .map(|()| solver.take_matching())
                        .map_err(ServeError::Solve)
                })
            })
            .collect();
        assert!(check_first_answers(&inputs, &answers)
            .iter()
            .all(|ok| ok == &[true, true]));
        let last = answers.len() - 1;
        answers[0][0] = Ok(Assignment::all_last_resort(&inputs.originals[0]));
        answers[last][1] = Ok(Assignment::all_last_resort(&inputs.originals[last]));
        let ok = check_first_answers(&inputs, &answers);
        assert_eq!((ok[0], ok[last]), ([false, true], [true, false]));
    }
}
