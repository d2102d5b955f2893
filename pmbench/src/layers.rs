//! Per-layer measurement helpers shared by the workloads: the traced serve
//! call, the serve-layer counters and span metrics, and the phase-clock
//! slices of the solver and PRAM kernels.

use std::time::{Duration, Instant};

use pm_popular::instance::PrefInstance;
use pm_popular::profile::{PhaseTimings, SolvePhase};
use pm_serve::{ServeError, StatsSnapshot};

use crate::report::Metrics;
use crate::run::Phase;
use crate::stats::{mean, percentile, ratio, sorted};
use crate::trace::{self, Span, Tracer};

/// One blocking request as a client sends it: `submit`, then `wait`, under a
/// `serve.call` span with `serve.submit` and `serve.wait` children.  Returns
/// the answer and its latency.
pub(crate) fn serve_call<T, R>(
    tracer: &mut Tracer,
    op: u64,
    submit: impl FnOnce() -> Result<T, ServeError>,
    wait: impl FnOnce(T) -> Result<R, ServeError>,
) -> (Result<R, ServeError>, Duration) {
    let t0 = Instant::now();
    let root = tracer.open("serve.call", op, None);
    let s = tracer.open("serve.submit", op, root);
    let ticket = submit();
    tracer.close(s);
    let w = tracer.open("serve.wait", op, root);
    let answer = ticket.and_then(wait);
    tracer.close(w);
    tracer.close(root);
    (answer, t0.elapsed())
}

/// Serve-layer counters over the timed phases, and allocations per
/// operation over the untraced phase.
pub(crate) fn serve_counters(
    m: &mut Metrics,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    untraced: &Phase,
) {
    m.set("serve.rejected", (after.rejected - before.rejected) as f64);
    m.set("serve.shed", (after.shed - before.shed) as f64);
    m.set(
        "serve.degraded",
        (after.degraded_responses - before.degraded_responses) as f64,
    );
    m.set(
        "serve.coalesce_ratio",
        ratio(
            (after.deltas_coalesced - before.deltas_coalesced) as f64,
            (after.delta_ticks - before.delta_ticks) as f64,
        ),
    );
    m.set(
        "serve.allocs_per_op",
        ratio(untraced.allocs as f64, untraced.attempted as f64),
    );
}

/// Serve-layer span metrics: the call distribution, the submit cost, and
/// the mean call time left after subtracting the mean direct replay of the
/// same operations (the serve layer's self time, queueing included).
/// `replay` holds one root span per replayed operation.
pub(crate) fn serve_metrics(m: &mut Metrics, client: &[Span], replay: &[Span]) {
    let calls = sorted(&trace::durations_ms(client, "serve.call"));
    m.set("serve.call_ms", percentile(&calls, 0.5));
    m.set("serve.call_p99_ms", percentile(&calls, 0.99));
    m.set(
        "serve.submit_us",
        mean(&trace::durations_ms(client, "serve.submit")) * 1e3,
    );
    let replay_roots: Vec<f64> = replay
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    m.set("serve.self_ms", mean(&calls) - mean(&replay_roots));
}

/// `PrefInstance::heap_bytes` per applicant or post.
pub(crate) fn bytes_per_entity(inst: &PrefInstance) -> f64 {
    inst.heap_bytes() as f64 / (inst.num_applicants() + inst.total_posts()) as f64
}

/// Phase-clock time of the solver and PRAM kernels, summed over the
/// operations it was taken around.
#[derive(Debug, Default)]
pub(crate) struct PhaseSums {
    ops: usize,
    ms: [f64; SolvePhase::COUNT],
}

impl PhaseSums {
    /// Adds one operation's `after − before`.
    pub fn add(&mut self, before: &PhaseTimings, after: &PhaseTimings) {
        self.ops += 1;
        for (ms, p) in self.ms.iter_mut().zip(SolvePhase::ALL) {
            *ms += (after.get(p) - before.get(p)).as_secs_f64() * 1e3;
        }
    }

    /// Mean milliseconds of `phase` per operation.
    pub fn mean_ms(&self, phase: SolvePhase) -> f64 {
        let i = SolvePhase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("every phase is listed");
        ratio(self.ms[i], self.ops as f64)
    }

    /// Sets the solver and PRAM phase metrics.
    pub fn set_solver_metrics(&self, m: &mut Metrics) {
        m.set("solver.reduce_ms", self.mean_ms(SolvePhase::Reduce));
        m.set("solver.algorithm2_ms", self.mean_ms(SolvePhase::Algorithm2));
        m.set("solver.promote_ms", self.mean_ms(SolvePhase::Promote));
        m.set("pram.census_ms", self.mean_ms(SolvePhase::Census));
        m.set("pram.jump_ms", self.mean_ms(SolvePhase::Jump));
    }
}
