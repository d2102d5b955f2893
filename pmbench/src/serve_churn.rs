//! `serve_churn`: write traffic.  One large instance is installed for
//! incremental serving; two closed-loop clients stream `EditPrefList`
//! deltas through `Server::submit_delta`, each over its own half of the
//! applicants, so the final instance does not depend on how the two
//! streams interleave.

use std::time::Instant;

use pm_instances::churn::{edit_churn, resampled_twin};
use pm_instances::{generators, snapshot, ChurnConfig};
use pm_popular::delta::{Delta, DeltaMode, DeltaSolver, DeltaStats};
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::profile::{enable_phase_timings, phase_timings};
use pm_popular::verify::is_popular_characterization;
use pm_pram::Idx;
use pm_serve::faults::Spec;
use pm_serve::{DeltaRequest, ServeError, Server, ServerConfig, SolveMode};

use crate::layers::{bytes_per_entity, serve_call, serve_counters, serve_metrics, PhaseSums};
use crate::report::{Metrics, Outcome};
use crate::run::{
    common_metrics, run_timed, timed, zero_unset, Client, Latencies, OpResult, RunOpts, SETUP_REPS,
};
use crate::stats::{mean, median, ratio};
use crate::trace::{self, Span, Tracer};
use crate::{strict_config, sub_seed};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Applicants.
    pub n: usize,
    /// Deltas in the generated churn stream (and in its twin).
    pub stream_len: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 1_000_000,
        stream_len: 1 << 14,
    };

    /// A size that runs in well under a second, for the smoke tests.
    pub const TINY: Params = Params {
        n: 20_000,
        stream_len: 512,
    };
}

/// Closed-loop clients.
const CLIENTS: usize = 2;

/// The instance id the deltas address.
const ID: u64 = 0;

struct Inputs {
    original: PrefInstance,
    snapshot: Vec<u8>,
    /// Per client: its share of the churn stream and of the stream's twin.
    streams: Vec<[Vec<Delta>; 2]>,
    /// Set-up's warm-up delta: applicant 0 re-submits its own list.
    warm_up: Delta,
}

fn generate(p: &Params, seed: u64) -> Inputs {
    let original = generators::solvable(&strict_config(p.n, sub_seed(seed, 0)));
    let cfg = ChurnConfig {
        deltas: p.stream_len,
        seed: sub_seed(seed, 1),
    };
    let stream = edit_churn(&original, &cfg);
    let twin = resampled_twin(&original, &stream, sub_seed(seed, 2));
    let share = |all: &[Delta], c: usize| -> Vec<Delta> {
        all.iter()
            .filter(
                |d| matches!(d, Delta::EditPrefList { applicant, .. } if applicant % CLIENTS == c),
            )
            .cloned()
            .collect()
    };
    let streams = (0..CLIENTS)
        .map(|c| [share(&stream, c), share(&twin, c)])
        .collect();
    let warm_up = Delta::EditPrefList {
        applicant: 0,
        prefs: original.flat_list(0).iter().map(|p| p.get()).collect(),
    };
    Inputs {
        snapshot: snapshot::to_bytes(&original),
        original,
        streams,
        warm_up,
    }
}

/// Client `c`'s `k`-th delta: its share of the stream and of the twin,
/// alternating pass by pass so endless replay keeps drawing fresh tails.
fn delta_of(inputs: &Inputs, c: usize, k: u64) -> &Delta {
    let [stream, twin] = &inputs.streams[c];
    let len = stream.len() as u64;
    let pass = if (k / len).is_multiple_of(2) {
        stream
    } else {
        twin
    };
    &pass[(k % len) as usize]
}

fn send(server: &Server, delta: &Delta) -> Result<Assignment, ServeError> {
    server
        .apply_delta(DeltaRequest::new(ID, delta.clone()))
        .and_then(|r| {
            if r.is_degraded() {
                Err(ServeError::Faulted)
            } else {
                Ok(r.matching)
            }
        })
}

struct Setup {
    server: Server,
    install_s: f64,
    decode_ms: f64,
    bytes_per_entity: f64,
}

fn set_up(inputs: &Inputs) -> Result<Setup, String> {
    let (inst, decode_s) = timed(|| snapshot::from_bytes(&inputs.snapshot));
    let inst = inst.map_err(|e| format!("snapshot decode failed: {e}"))?;
    let server = Server::start(ServerConfig {
        workers: 1,
        faults: Spec::none(),
        ..ServerConfig::default()
    });
    let (installed, install_s) = timed(|| server.install_delta(ID, &inst, SolveMode::Popular));
    installed.map_err(|e| format!("install failed: {e}"))?;
    send(&server, &inputs.warm_up).map_err(|e| format!("warm-up delta failed: {e}"))?;
    Ok(Setup {
        server,
        install_s,
        decode_ms: decode_s * 1e3,
        bytes_per_entity: bytes_per_entity(&inst),
    })
}

/// The deltas a client's server accepted, in order: `(op id, k, traced)`.
type Applied = Vec<(u64, u64, bool)>;

/// Rebuilds the instance by replaying every applied delta on the original
/// and checks that `matching` is popular on it.
fn check_final(inputs: &Inputs, applied: &[Vec<u64>], matching: &Assignment) -> Result<(), String> {
    let parts = inputs.original.csr_parts();
    let mut flat = parts.post_flat.to_vec();
    let off = parts.list_off.to_vec();
    for (c, ks) in applied.iter().enumerate() {
        for &k in ks {
            let Delta::EditPrefList { applicant, prefs } = delta_of(inputs, c, k) else {
                return Err("churn stream holds only edits".into());
            };
            let range = off[*applicant] as usize..off[applicant + 1] as usize;
            if range.len() != prefs.len() {
                return Err(format!(
                    "edit of applicant {applicant} changes its list length"
                ));
            }
            for (slot, &p) in flat[range].iter_mut().zip(prefs) {
                *slot = Idx::new(p);
            }
        }
    }
    let rebuilt = PrefInstance::from_strict_csr(parts.num_posts, flat, off)
        .map_err(|e| format!("rebuilt instance is invalid: {e}"))?;
    if is_popular_characterization(&rebuilt, matching) {
        Ok(())
    } else {
        Err("final matching is not popular on the rebuilt instance".into())
    }
}

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = generate(p, opts.seed);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut install_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = setup.take() {
            prev.server.shutdown();
        }
        let (s, secs) = timed(|| set_up(&inputs));
        let s = s?;
        setup_s.push(secs);
        install_s.push(s.install_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let server = &setup.server;

    let epoch = Instant::now();
    let (stats0, dstats0) = (server.stats(), delta_stats(server)?);
    let clients = Client::many(epoch, vec![Applied::new(); CLIENTS]);
    // A delta lasts a few milliseconds, as long as one episode of host CPU
    // steal, which can double it: the percentiles leave out the deltas
    // that completed next to one.
    let timed_run = run_timed(
        opts,
        Latencies::AwayFromSteal,
        clients,
        |c: &mut Client<Applied>| {
            let k = c.k;
            let op = c.op_id(k);
            let req = DeltaRequest::new(ID, delta_of(&inputs, c.id, k).clone());
            let (answer, latency) =
                serve_call(&mut c.tracer, op, || server.submit_delta(req), |t| t.wait());
            let ok = answer.is_ok_and(|r| !r.is_degraded());
            if ok {
                c.state.push((op, k, c.tracer.is_enabled()));
            }
            OpResult { latency, ok }
        },
    );
    let (stats1, dstats1) = (server.stats(), delta_stats(server)?);
    common_metrics(&mut out, &setup_s, &timed_run)?;

    // One more delta after the clients stopped: its answer reflects every
    // delta applied, and is the one the final check judges.
    let mut applied: Vec<Vec<u64>> = timed_run
        .clients
        .iter()
        .map(|c| c.state.iter().map(|&(_, k, _)| k).collect())
        .collect();
    let last_k = timed_run.clients[0].k;
    match send(server, delta_of(&inputs, 0, last_k)) {
        Ok(m) => {
            applied[0].push(last_k);
            if let Err(e) = check_final(&inputs, &applied, &m) {
                out.problems.push(format!("serve_churn: {e}"));
            }
        }
        Err(e) => out
            .problems
            .push(format!("serve_churn: final delta failed: {e}")),
    }
    if out.failed > 0 {
        out.problems.push(format!(
            "serve_churn: {} of {} deltas failed",
            out.failed, out.attempted
        ));
    }

    if !opts.trace {
        setup.server.shutdown();
        return Ok(out);
    }
    let m = &mut out.metrics;
    serve_counters(m, &stats0, &stats1, &timed_run.main);
    let deltas = (dstats1.deltas_applied - dstats0.deltas_applied) as f64;
    m.set(
        "delta.shard_solves_per_delta",
        ratio((dstats1.shard_solves - dstats0.shard_solves) as f64, deltas),
    );
    m.set(
        "delta.spliced_per_delta",
        ratio(
            (dstats1.spliced_applicants - dstats0.spliced_applicants) as f64,
            deltas,
        ),
    );
    m.set(
        "delta.full_solves",
        (dstats1.full_solves - dstats0.full_solves) as f64,
    );
    m.set(
        "delta.fallback_full_solves",
        (dstats1.fallback_full_solves - dstats0.fallback_full_solves) as f64,
    );
    m.set("delta.install_s", median(&install_s));
    m.set("instances.decode_ms", setup.decode_ms);
    m.set("instances.bytes_per_entity", setup.bytes_per_entity);

    // The replay runs on a mirror solver after the server is gone, so the
    // two large solvers never coexist.
    setup.server.shutdown();
    let mut lists = Vec::new();
    let mut log = Vec::new();
    for c in timed_run.clients {
        log.extend(
            c.state
                .into_iter()
                .map(|(op, k, traced)| (c.id, op, k, traced)),
        );
        lists.push(c.tracer.into_spans());
    }
    // Untraced deltas first, so the mirror reaches each traced delta in
    // the state the server applied it to.
    log.sort_by_key(|&(c, _, k, traced)| (traced, c, k));
    let spans = trace::merge(lists);
    let replay = replay(&inputs, &log, epoch, &mut out.metrics)?;
    serve_metrics(&mut out.metrics, &spans, &replay);
    out.spans = trace::merge(vec![spans, replay]);
    zero_unset(&mut out.metrics);
    Ok(out)
}

fn delta_stats(server: &Server) -> Result<DeltaStats, String> {
    server
        .delta_stats(ID)
        .ok_or_else(|| "the churn instance is not installed".into())
}

/// Replays the applied deltas on a mirror `DeltaSolver` (apply + flush per
/// delta), timing the traced ones with the phase clock on.
fn replay(
    inputs: &Inputs,
    log: &[(usize, u64, u64, bool)],
    epoch: Instant,
    m: &mut Metrics,
) -> Result<Vec<Span>, String> {
    let err = |e: pm_popular::PopularError| format!("mirror solver: {e}");
    let mut mirror = DeltaSolver::install(&inputs.original, DeltaMode::Popular).map_err(err)?;
    mirror.apply(&inputs.warm_up).map_err(err)?;
    mirror.flush().map_err(err)?;
    let mut tracer = Tracer::new(epoch, true);
    let mut phases = PhaseSums::default();
    let (mut apply_us, mut flush_us, mut depth, mut work) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(c, op, k, traced) in log {
        let delta = delta_of(inputs, c, k);
        if !traced {
            mirror.apply(delta).map_err(err)?;
            mirror.flush().map_err(err)?;
            continue;
        }
        enable_phase_timings(true);
        let before = phase_timings();
        let root = tracer.open("delta.op", op, None);
        let a = tracer.open("delta.apply", op, root);
        mirror.apply(delta).map_err(err)?;
        tracer.close(a);
        let f = tracer.open("delta.flush", op, root);
        mirror.flush().map_err(err)?;
        tracer.close(f);
        tracer.close(root);
        phases.add(&before, &phase_timings());
        enable_phase_timings(false);
        let spans = tracer.spans();
        apply_us.push(spans[a.expect("tracer on")].dur_ns() as f64 / 1e3);
        flush_us.push(spans[f.expect("tracer on")].dur_ns() as f64 / 1e3);
        let s = mirror.pram_stats();
        depth.push(s.depth as f64);
        work.push(s.work as f64);
    }
    m.set("delta.apply_us", mean(&apply_us));
    m.set("delta.flush_us", mean(&flush_us));
    m.set("pram.depth", mean(&depth));
    m.set("pram.work", mean(&work));
    phases.set_solver_metrics(m);
    Ok(tracer.into_spans())
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
    fn final_check_replays_the_applied_deltas() {
        let inputs = generate(&Params::TINY, 5);
        let mut mirror =
            DeltaSolver::install(&inputs.original, DeltaMode::Popular).expect("installs");
        let applied = vec![vec![0, 1, 2], vec![0, 1]];
        for (c, ks) in applied.iter().enumerate() {
            for &k in ks {
                mirror.apply(delta_of(&inputs, c, k)).expect("valid delta");
            }
        }
        let good = mirror.flush().expect("solvable").clone();
        assert_eq!(check_final(&inputs, &applied, &good), Ok(()));
        let bad = Assignment::all_last_resort(&inputs.original);
        assert!(check_final(&inputs, &applied, &bad).is_err());
    }
}
