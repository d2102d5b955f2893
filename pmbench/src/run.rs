//! The closed-loop runner shared by the workloads, and the metrics every
//! workload derives from it the same way.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::alloc::allocations;
use crate::report::{Metrics, Outcome};
use crate::stats::{latency_summary, median, percentile, ratio, sorted};
use crate::steal;
use crate::trace::Tracer;

/// Every untraced run collects at least this many operations, so the p90
/// keeps ten samples beyond it.
pub const MIN_OPS: u64 = 100;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase (a traced run splits it into an untraced
    /// and a traced half).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One client of a closed loop: its next operation index, its span
/// recorder, and workload-specific state.
#[derive(Debug)]
pub struct Client<T> {
    /// Client number.
    pub id: usize,
    /// Index of the client's next operation.
    pub k: u64,
    /// Span recorder (enabled only in the traced phase).
    pub tracer: Tracer,
    /// Workload state.
    pub state: T,
}

impl<T> Client<T> {
    /// `clients` clients sharing one span epoch.
    pub fn many(epoch: Instant, states: Vec<T>) -> Vec<Self> {
        states
            .into_iter()
            .enumerate()
            .map(|(id, state)| Client {
                id,
                k: 0,
                tracer: Tracer::new(epoch, false),
                state,
            })
            .collect()
    }

    /// Id shared by the spans of this client's operation `k`.
    pub fn op_id(&self, k: u64) -> u64 {
        ((self.id as u64) << 40) | k
    }
}

/// What one operation reports to the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Time from sending the operation to its answer (answer checks
    /// excluded).
    pub latency: Duration,
    /// The answer was delivered, undegraded and right.
    pub ok: bool,
}

/// The totals of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Wall time from the start barrier to the last client's return.
    pub wall_s: f64,
    /// Latency of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each operation completed, in seconds from the phase start (in
    /// the order of `latencies_ms`).
    pub done_s: Vec<f64>,
    /// When the host CPU steal counter was seen to grow, in seconds from
    /// the phase start (ascending).
    pub steal_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Heap allocations made process-wide during the phase.
    pub allocs: u64,
}

/// Runs `clients` closed loops (each sends its next operation only after
/// the previous one returned) until `seconds` have passed and at least
/// `min_ops` operations completed, sampling host CPU steal meanwhile if
/// `sample_steal`.
pub fn closed_loop<T: Send>(
    mut clients: Vec<Client<T>>,
    seconds: f64,
    min_ops: u64,
    sample_steal: bool,
    op: &(impl Fn(&mut Client<T>) -> OpResult + Sync),
) -> (Vec<Client<T>>, Phase) {
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // The clients, the steal sampler if any, and this thread.
    let barrier = Barrier::new(clients.len() + usize::from(sample_steal) + 1);
    let budget = Duration::from_secs_f64(seconds);
    let (per_client, steal_s, wall, allocs) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (done, barrier) = (&done, &barrier);
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut failed = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < budget || done.load(Ordering::Relaxed) < min_ops {
                        let r = op(c);
                        c.k += 1;
                        let done_s = start.elapsed().as_secs_f64();
                        lat.push((r.latency.as_secs_f64() * 1e3, done_s));
                        failed += u64::from(!r.ok);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    (lat, failed)
                })
            })
            .collect();
        let sampler = sample_steal.then(|| {
            let (stop, barrier) = (&stop, &barrier);
            scope.spawn(move || {
                barrier.wait();
                steal::sample(Instant::now(), stop)
            })
        });
        barrier.wait();
        let (start, a0) = (Instant::now(), allocations());
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let (wall, allocs) = (start.elapsed(), allocations() - a0);
        // Stop the sampler before a client's panic is re-raised, or the
        // scope would wait for it forever.
        stop.store(true, Ordering::Relaxed);
        let steal_s =
            sampler.map_or_else(Vec::new, |s| s.join().expect("the steal sampler panicked"));
        let per_client: Vec<_> = joined
            .into_iter()
            .map(|r| r.expect("a benchmark client panicked"))
            .collect();
        (per_client, steal_s, wall, allocs)
    });
    let mut phase = Phase {
        wall_s: wall.as_secs_f64(),
        allocs,
        steal_s,
        ..Phase::default()
    };
    for (lat, failed) in per_client {
        phase.attempted += lat.len() as u64;
        phase.failed += failed;
        for (ms, done_s) in lat {
            phase.latencies_ms.push(ms);
            phase.done_s.push(done_s);
        }
    }
    (clients, phase)
}

impl Phase {
    /// The latencies of the operations that did not complete next to host
    /// CPU steal (see [`steal::near`]).
    pub fn latencies_away_from_steal_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.done_s)
            .filter(|&(_, &done_s)| !steal::near(&self.steal_s, done_s))
            .map(|(&ms, _)| ms)
            .collect()
    }
}

/// Which operations the latency percentiles of an untraced run cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latencies {
    /// Every operation.
    All,
    /// The operations that did not complete next to host CPU steal, for a
    /// workload whose operations last about as long as a steal episode;
    /// every operation when that leaves too few for a p90.  Only this
    /// choice samples steal, and only in an untraced run.
    AwayFromSteal,
}

/// The timed phases of one run: the measured phase and, in a traced run,
/// the traced phase that follows it.
#[derive(Debug)]
pub struct Timed<T> {
    /// The clients after the last phase.
    pub clients: Vec<Client<T>>,
    /// Untraced phase: the whole run, or a traced run's first half.
    pub main: Phase,
    /// A traced run's second half, with spans recorded.
    pub traced: Option<Phase>,
    /// Which operations the latency percentiles cover.
    pub latencies: Latencies,
}

/// Runs the timed phase(s) `opts` asks for.
pub fn run_timed<T: Send>(
    opts: &RunOpts,
    latencies: Latencies,
    clients: Vec<Client<T>>,
    op: impl Fn(&mut Client<T>) -> OpResult + Sync,
) -> Timed<T> {
    if !opts.trace {
        let sample_steal = latencies == Latencies::AwayFromSteal;
        let (clients, main) = closed_loop(clients, opts.seconds, MIN_OPS, sample_steal, &op);
        return Timed {
            clients,
            main,
            traced: None,
            latencies,
        };
    }
    let half = opts.seconds / 2.0;
    let (mut clients, main) = closed_loop(clients, half, 1, false, &op);
    clients.iter_mut().for_each(|c| c.tracer.set_enabled(true));
    let (mut clients, traced) = closed_loop(clients, half, 1, false, &op);
    clients.iter_mut().for_each(|c| c.tracer.set_enabled(false));
    Timed {
        clients,
        main,
        traced: Some(traced),
        latencies,
    }
}

impl<T> Timed<T> {
    /// Operations attempted over every phase.
    pub fn attempted(&self) -> u64 {
        self.main.attempted + self.traced.as_ref().map_or(0, |p| p.attempted)
    }

    /// Operations failed over every phase.
    pub fn failed(&self) -> u64 {
        self.main.failed + self.traced.as_ref().map_or(0, |p| p.failed)
    }
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the end-to-end metrics of an untraced run, or the per-layer
/// metrics every workload derives the same way in a traced run.
pub fn common_metrics<T>(
    out: &mut Outcome,
    setup_s: &[f64],
    timed: &Timed<T>,
) -> Result<(), String> {
    out.attempted = timed.attempted();
    out.failed = timed.failed();
    let m: &mut Metrics = &mut out.metrics;
    let main = &timed.main;
    match &timed.traced {
        None => {
            let lat = match timed.latencies {
                Latencies::All => latency_summary(&main.latencies_ms)?,
                Latencies::AwayFromSteal => {
                    let away = main.latencies_away_from_steal_ms();
                    out.notes.push(format!(
                        "host CPU steal: the counter grew at {} readings; {} of {} operations \
                         completed within {} ms of one",
                        main.steal_s.len(),
                        main.latencies_ms.len() - away.len(),
                        main.latencies_ms.len(),
                        steal::ZONE_S * 1e3,
                    ));
                    latency_summary(&away).or_else(|_| latency_summary(&main.latencies_ms))?
                }
            };
            m.set("setup_s", median(setup_s));
            m.set(
                "ops_per_s",
                (main.attempted - main.failed) as f64 / main.wall_s,
            );
            m.set("latency_p50_ms", lat.p50);
            m.set("latency_p90_ms", lat.p90);
            m.set(
                "success_frac",
                ratio((main.attempted - main.failed) as f64, main.attempted as f64),
            );
            m.set("peak_rss_mb", peak_rss_mb());
            out.notes.push(format!(
                "latency: p50 {:.4} ms, p90 {:.4} ms over {} samples; failed_frac {}",
                lat.p50,
                lat.p90,
                lat.samples,
                ratio(main.failed as f64, main.attempted as f64)
            ));
        }
        Some(traced) => {
            let untraced_p50 = percentile(&sorted(&main.latencies_ms), 0.5);
            let traced_p50 = percentile(&sorted(&traced.latencies_ms), 0.5);
            m.set(
                "failed_frac",
                ratio(out.failed as f64, out.attempted as f64),
            );
            m.set("latency_samples", traced.latencies_ms.len() as f64);
            m.set("trace.overhead_frac", ratio(traced_p50, untraced_p50) - 1.0);
        }
    }
    Ok(())
}

/// Fills every per-layer metric a workload left unset with 0: the layer is
/// bypassed on that workload.
pub fn zero_unset(m: &mut Metrics) {
    for &(name, _) in crate::report::PER_LAYER {
        if m.get(name).is_none() {
            m.set(name, 0.0);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::{result_line, END_TO_END, PER_LAYER};

    /// A short run with every check on.
    pub(crate) fn smoke_opts(trace: bool) -> RunOpts {
        RunOpts {
            seed: 7,
            seconds: 0.4,
            trace,
        }
    }

    #[test]
    fn latencies_next_to_steal_are_left_out() {
        let phase = Phase {
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            done_s: vec![0.5, 1.005, 0.995, 2.0],
            steal_s: vec![1.0],
            ..Phase::default()
        };
        assert_eq!(phase.latencies_away_from_steal_ms(), vec![1.0, 4.0]);
    }

    /// The run answered everything right and measured every metric.
    pub(crate) fn assert_clean(out: &Outcome, trace: bool) {
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let table = if trace { PER_LAYER } else { END_TO_END };
        result_line(true, out, table).expect("every metric measured");
        if !trace {
            assert!(out.attempted >= MIN_OPS);
        }
    }
}
