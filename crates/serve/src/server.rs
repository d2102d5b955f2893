//! The long-lived serving front end: worker threads holding warm
//! [`PopularSolver`]s behind the bounded queue, with panic isolation and
//! the degradation policy wired in (see the crate docs for the failure
//! model).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pm_popular::delta::{Delta, DeltaMode, DeltaSolver, DeltaStats};
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::solver::PopularSolver;
use pm_popular::PopularError;

use crate::degrade::{serial_dictatorship, FailureDisposition, Gate, HealthMap};
use crate::faults::{InjectedFault, Spec};
use crate::queue::{BoundedQueue, PushError};

/// Which pipeline a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Algorithm 1: any popular matching.
    #[default]
    Popular,
    /// Algorithms 1 + 3: a maximum-cardinality popular matching.
    MaxCardinality,
}

/// A solve request.
///
/// `instance_id` keys the degradation state and the last-good cache:
/// requests sharing an id are treated as traffic against one logical
/// instance (the id is the client's to choose — e.g. a tenant or snapshot
/// id).  The instance itself travels as an `Arc` so a queue full of
/// requests against one big instance costs one allocation, not many.
#[derive(Debug, Clone)]
pub struct Request {
    /// The (validated) instance to solve.
    pub instance: Arc<PrefInstance>,
    /// Degradation/cache key; see the type docs.
    pub instance_id: u64,
    /// Which pipeline to run.
    pub mode: SolveMode,
    /// Latest useful completion time.  `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A [`SolveMode::Popular`] request with no deadline.
    pub fn new(instance: Arc<PrefInstance>, instance_id: u64) -> Self {
        Self {
            instance,
            instance_id,
            mode: SolveMode::Popular,
            deadline: None,
        }
    }

    /// Sets the pipeline.
    pub fn with_mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the deadline as a timeout from now (a timeout too large to
    /// represent as an [`Instant`] means no deadline).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = deadline_after(timeout);
        self
    }
}

/// `timeout` from now, or `None` (no deadline) if that overflows [`Instant`].
fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// How trustworthy a [`Response`]'s matching is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// A fresh solve of the submitted instance: popular (or
    /// maximum-cardinality popular) as requested.
    Full,
    /// The cached matching of this id's last *successful* solve — possibly
    /// computed against an older snapshot of the instance.
    Stale,
    /// A serial-dictatorship approximation: valid, but with no popularity
    /// guarantee.
    Fallback,
}

/// A successful (possibly degraded) answer to a [`Request`] or a
/// [`DeltaRequest`].
///
/// Every delta coalesced into the same scheduling tick receives the *same*
/// matching — the result of one incremental solve after all of them were
/// applied (deltas are applied in submission order, so the matching
/// reflects each submitter's mutation).
#[derive(Debug, Clone)]
pub struct Response {
    /// The matching (of the mutated instance, for a delta).
    pub matching: Assignment,
    /// Full, stale or fallback — degraded answers are always flagged.
    pub quality: Quality,
    /// True iff the solve finished after the request's deadline (the
    /// answer is delivered anyway; the overrun is also counted in
    /// [`StatsSnapshot::deadline_overruns`]).
    pub overran_deadline: bool,
    /// How many requests this solve round answered: 1 for a solve request,
    /// the number of deltas coalesced into the tick for a delta (≥ 1).
    pub coalesced: usize,
}

impl Response {
    /// True iff this answer came from the degradation path rather than a
    /// fresh solve (or incremental flush) of the submitted instance.
    pub fn is_degraded(&self) -> bool {
        self.quality != Quality::Full
    }
}

/// Why a request got no (full or degraded) matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full — backpressure.  Retry later, shed load
    /// upstream, or widen the deployment; the server never buffers without
    /// limit.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The deadline passed while the request waited; it was shed without
    /// touching a solver.
    DeadlineExpired {
        /// How long the request had been queued when it was shed.
        queued_for: Duration,
    },
    /// The solver answered with a typed error (no popular matching, ties
    /// not supported, …) — a deterministic property of the input, not a
    /// server failure, so it never triggers degradation.
    Solve(PopularError),
    /// The solve failed (panic or injected fault) and the instance has not
    /// yet crossed the degradation threshold `K`.
    Faulted,
    /// The server is shut down (or the worker serving this request died).
    Closed,
    /// A delta was submitted for an instance id that was never installed
    /// with [`Server::install_delta`] (or was installed and since removed).
    UnknownInstance {
        /// The id the delta was addressed to.
        instance_id: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "overloaded: the request queue (capacity {capacity}) is full"
                )
            }
            ServeError::DeadlineExpired { queued_for } => {
                write!(f, "deadline expired after queueing for {queued_for:?}")
            }
            ServeError::Solve(e) => write!(f, "solve error: {e}"),
            ServeError::Faulted => write!(f, "solve failed (panic or injected fault)"),
            ServeError::Closed => write!(f, "server closed"),
            ServeError::UnknownInstance { instance_id } => {
                write!(f, "no delta solver installed for instance id {instance_id}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Server tuning knobs.  `Default` is a sensible single-machine deployment;
/// every field can be overridden before [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, each holding one warm [`PopularSolver`] (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Consecutive failures on one instance id before the server degrades
    /// it (`K`; clamped to ≥ 1).
    pub degrade_after: u32,
    /// First re-promotion probe delay after degrading.
    pub backoff_initial: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
    /// Fault-injection spec.  `Default` reads [`PM_FAULTS`]; pass
    /// [`Spec::none`] for a deterministic server regardless of the
    /// environment.
    ///
    /// [`PM_FAULTS`]: crate::faults::ENV_VAR
    pub faults: Spec,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            degrade_after: 3,
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            faults: Spec::from_env(),
        }
    }
}

/// Counter snapshot (monotonic since [`Server::start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests answered by a fresh solve (including typed solve errors —
    /// the solver ran and produced its deterministic answer).
    pub served: u64,
    /// Requests rejected at submit because the queue was full.
    pub rejected: u64,
    /// Requests shed because their deadline expired before a solver picked
    /// them up.
    pub shed: u64,
    /// Solve panics trapped by `catch_unwind` (each also discards and
    /// rebuilds the worker's solver).
    pub panics_recovered: u64,
    /// Degraded answers served (stale last-good or fallback).
    pub degraded_responses: u64,
    /// Solves that finished after their request's deadline.
    pub deadline_overruns: u64,
    /// Typed solver errors passed through to clients (subset of `served`).
    pub solve_errors: u64,
    /// Delta scheduling ticks that found work (each is one coalesced
    /// apply-and-flush round on an incremental solver).
    pub delta_ticks: u64,
    /// Deltas applied through [`Server::submit_delta`] (so
    /// `deltas_coalesced / delta_ticks` is the mean coalescing factor).
    pub deltas_coalesced: u64,
}

#[derive(Debug, Default)]
struct Stats {
    served: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    panics_recovered: AtomicU64,
    degraded_responses: AtomicU64,
    deadline_overruns: AtomicU64,
    solve_errors: AtomicU64,
    delta_ticks: AtomicU64,
    deltas_coalesced: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
            deadline_overruns: self.deadline_overruns.load(Ordering::Relaxed),
            solve_errors: self.solve_errors.load(Ordering::Relaxed),
            delta_ticks: self.delta_ticks.load(Ordering::Relaxed),
            deltas_coalesced: self.deltas_coalesced.load(Ordering::Relaxed),
        }
    }
}

/// One client waiting on a serving round: its deadline and reply slot.
struct Waiter {
    deadline: Option<Instant>,
    enqueued_at: Instant,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

impl Waiter {
    fn send(&self, answer: Result<Response, ServeError>) {
        // A client that dropped its ticket no longer wants the answer.
        let _ = self.reply.send(answer);
    }

    /// Sheds the waiter if its deadline passed while it queued: counted,
    /// and answered without touching a solver.
    fn shed(&self, stats: &Stats, now: Instant) -> bool {
        let expired = self.deadline.is_some_and(|d| now >= d);
        if expired {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            self.send(Err(ServeError::DeadlineExpired {
                queued_for: now - self.enqueued_at,
            }));
        }
        expired
    }
}

/// What travels through the bounded queue: a one-shot solve, or a
/// scheduling tick telling a worker to drain one instance's pending deltas
/// in a single coalesced apply-and-flush round.
enum Job {
    Solve { req: Request, waiter: Waiter },
    DeltaTick { instance_id: u64 },
}

/// The handle for an in-flight request or delta; [`wait`](Ticket::wait)
/// blocks for the outcome.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers.  A worker that died without
    /// replying (process-fatal conditions only — solve panics are trapped)
    /// surfaces as [`ServeError::Closed`].
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Like [`wait`](Self::wait) with an upper bound; `None` on timeout
    /// (the request stays in flight and can be waited on again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// A preference mutation against an installed incremental instance (see
/// [`Server::install_delta`]).
#[derive(Debug, Clone)]
pub struct DeltaRequest {
    /// The id [`Server::install_delta`] registered the instance under.
    pub instance_id: u64,
    /// The mutation to apply.
    pub delta: Delta,
    /// Latest useful completion time.  `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl DeltaRequest {
    /// A delta with no deadline.
    pub fn new(instance_id: u64, delta: Delta) -> Self {
        Self {
            instance_id,
            delta,
            deadline: None,
        }
    }

    /// Sets the deadline as a timeout from now (a timeout too large to
    /// represent as an [`Instant`] means no deadline).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = deadline_after(timeout);
        self
    }
}

/// A submitted delta waiting for its scheduling tick.
struct PendingDelta {
    seq: u64,
    delta: Delta,
    waiter: Waiter,
}

/// One installed incremental instance: the warm [`DeltaSolver`], its queue
/// of not-yet-applied deltas, and the tick-scheduling latch.
struct DeltaState {
    solver: Mutex<DeltaSolver>,
    pending: Mutex<VecDeque<PendingDelta>>,
    /// True while a [`Job::DeltaTick`] for this instance is queued (or a
    /// worker is between clearing the latch and draining `pending`).  The
    /// swap-to-true in [`Server::submit_delta`] makes sure at most one tick
    /// is in the queue per instance, which is what turns a burst of deltas
    /// into one coalesced solve round.
    scheduled: AtomicBool,
    seq: AtomicU64,
}

impl DeltaState {
    fn lock_solver(&self) -> MutexGuard<'_, DeltaSolver> {
        self.solver
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_pending(&self) -> MutexGuard<'_, VecDeque<PendingDelta>> {
        self.pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

struct Shared {
    queue: BoundedQueue<Job>,
    health: HealthMap,
    stats: Stats,
    faults: Spec,
    queue_capacity: usize,
    deltas: Mutex<HashMap<u64, Arc<DeltaState>>>,
}

impl Shared {
    /// Sheds a request whose deadline already passed at submit, or opens
    /// its reply channel.
    fn waiter(&self, deadline: Option<Instant>) -> Result<(Waiter, Ticket), ServeError> {
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExpired {
                queued_for: Duration::ZERO,
            });
        }
        let (reply, rx) = mpsc::channel();
        let waiter = Waiter {
            deadline,
            enqueued_at: now,
            reply,
        };
        Ok((waiter, Ticket { rx }))
    }

    /// Counts a backpressure rejection.
    fn overloaded(&self) -> ServeError {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        ServeError::Overloaded {
            capacity: self.queue_capacity,
        }
    }

    fn delta_state(&self, instance_id: u64) -> Option<Arc<DeltaState>> {
        self.deltas
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&instance_id)
            .cloned()
    }
}

/// The serving front end (see the crate docs).  Dropping the server closes
/// the queue, lets the workers drain it, and joins them.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker threads and returns the handle.
    pub fn start(cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            health: HealthMap::new(cfg.degrade_after, cfg.backoff_initial, cfg.backoff_max),
            stats: Stats::default(),
            faults: cfg.faults.clone(),
            queue_capacity: cfg.queue_capacity.max(1),
            deltas: Mutex::new(HashMap::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits a request; returns immediately with a [`Ticket`] or a typed
    /// rejection ([`Overloaded`](ServeError::Overloaded) under
    /// backpressure, [`DeadlineExpired`](ServeError::DeadlineExpired) if
    /// the deadline already passed).
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let (waiter, ticket) = self.shared.waiter(req.deadline)?;
        match self.shared.queue.try_push(Job::Solve { req, waiter }) {
            Ok(_) => Ok(ticket),
            Err(PushError::Full(_)) => Err(self.shared.overloaded()),
            Err(PushError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Submit + wait, for callers that want a blocking RPC shape.
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Installs (or reinstalls) an incremental solver for `instance_id`:
    /// one full solve now, then [`submit_delta`](Self::submit_delta)
    /// mutations pay only for their dirty components.
    ///
    /// Runs the installing solve on the caller's thread — it is setup, not
    /// serving traffic — and replaces any previous solver under the same id
    /// (the documented recovery for an instance whose solver got stuck).
    ///
    /// # Errors
    /// [`ServeError::Solve`] if the instance is rejected up front (e.g.
    /// tied lists).  An instance with *no* popular matching installs fine:
    /// infeasibility is a per-component property the delta layer tracks,
    /// and deltas that heal it start answering again.
    pub fn install_delta(
        &self,
        instance_id: u64,
        inst: &PrefInstance,
        mode: SolveMode,
    ) -> Result<(), ServeError> {
        let mode = match mode {
            SolveMode::Popular => DeltaMode::Popular,
            SolveMode::MaxCardinality => DeltaMode::MaxCardinality,
        };
        let solver = DeltaSolver::install(inst, mode).map_err(ServeError::Solve)?;
        let state = Arc::new(DeltaState {
            solver: Mutex::new(solver),
            pending: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        self.shared
            .deltas
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(instance_id, state);
        Ok(())
    }

    /// Submits a preference mutation; returns immediately with a
    /// [`Ticket`].  Deltas submitted while a scheduling tick is
    /// already queued for the same instance are *coalesced*: one worker
    /// applies them all in submission order and runs a single incremental
    /// solve, and every submitter gets that solve's matching.
    ///
    /// # Errors
    /// * [`ServeError::UnknownInstance`] — no [`install_delta`](Self::install_delta)
    ///   for this id.
    /// * [`ServeError::Overloaded`] — the instance's pending-delta queue or
    ///   the server queue is full.
    /// * [`ServeError::DeadlineExpired`] — the deadline already passed.
    pub fn submit_delta(&self, req: DeltaRequest) -> Result<Ticket, ServeError> {
        let (waiter, ticket) = self.shared.waiter(req.deadline)?;
        let Some(state) = self.shared.delta_state(req.instance_id) else {
            return Err(ServeError::UnknownInstance {
                instance_id: req.instance_id,
            });
        };
        let seq = state.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut pending = state.lock_pending();
            if pending.len() >= self.shared.queue_capacity {
                return Err(self.shared.overloaded());
            }
            pending.push_back(PendingDelta {
                seq,
                delta: req.delta,
                waiter,
            });
        }
        // At most one tick per instance sits in the server queue: the first
        // submitter after a tick drained (or none existed) schedules it,
        // later ones ride along.
        if !state.scheduled.swap(true, Ordering::AcqRel) {
            let push = self.shared.queue.try_push(Job::DeltaTick {
                instance_id: req.instance_id,
            });
            if let Err(e) = push {
                // Roll back: un-latch, and withdraw our delta unless a
                // concurrently running tick already claimed it (then the
                // ticket is live and the scheduling failure is moot).
                state.scheduled.store(false, Ordering::Release);
                let withdrawn = {
                    let mut pending = state.lock_pending();
                    let before = pending.len();
                    pending.retain(|p| p.seq != seq);
                    pending.len() < before
                };
                if withdrawn {
                    return Err(match e {
                        PushError::Full(_) => self.shared.overloaded(),
                        PushError::Closed(_) => ServeError::Closed,
                    });
                }
            }
        }
        Ok(ticket)
    }

    /// Submit + wait for a delta, for callers that want a blocking RPC
    /// shape (no coalescing benefit: the next delta is only submitted after
    /// this one's round completed).
    pub fn apply_delta(&self, req: DeltaRequest) -> Result<Response, ServeError> {
        self.submit_delta(req)?.wait()
    }

    /// Counters of `instance_id`'s incremental solver (`None` if not
    /// installed).  Briefly locks the solver — don't poll in a tight loop.
    pub fn delta_stats(&self, instance_id: u64) -> Option<DeltaStats> {
        let state = self.shared.delta_state(instance_id)?;
        let stats = state.lock_solver().stats();
        Some(stats)
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Current queue depth (for load shedding decisions upstream).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Forces `instance_id` into the degraded state with the probe window
    /// pushed `backoff_max` out — the ops/bench hook for exercising and
    /// measuring the degraded path without injecting failures.
    pub fn force_degrade(&self, instance_id: u64) {
        self.shared
            .health
            .force_degrade(instance_id, Instant::now());
    }

    /// Closes the queue, drains outstanding requests, joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            // A worker that somehow died still closed its reply channels;
            // nothing useful to do with its panic payload here.
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What one isolated solve attempt produced.
enum Attempt {
    Ok(Assignment),
    TypedError(PopularError),
    /// Panic (true) or injected I/O fault (false).
    Failed {
        panicked: bool,
    },
}

/// The three steps of a serving round that differ between a solve request
/// and a delta tick; everything else is [`serve_round`].
trait RoundHooks {
    /// The solve itself, run behind the fault point under `catch_unwind`.
    fn attempt(&mut self) -> Result<Assignment, PopularError>;
    /// Repairs the warm state after the attempt (or the fault point)
    /// panicked, so no later round observes dirty buffers.
    fn after_panic(&mut self);
    /// The serial-dictatorship answer of last resort; `None` answers
    /// [`ServeError::Faulted`].
    fn fallback(&self) -> Option<Assignment>;
}

/// A solve request against the worker's warm [`PopularSolver`].
struct SolveHooks<'a> {
    solver: &'a mut PopularSolver,
    req: &'a Request,
}

impl RoundHooks for SolveHooks<'_> {
    fn attempt(&mut self) -> Result<Assignment, PopularError> {
        let instance = &self.req.instance;
        match self.req.mode {
            SolveMode::Popular => self.solver.solve(instance).cloned(),
            SolveMode::MaxCardinality => self.solver.solve_max_cardinality(instance).cloned(),
        }
    }

    fn after_panic(&mut self) {
        // A panic mid-solve leaves the solver poisoned (workspace epoch
        // check); a panic at the fail point may not.  Either way the warm
        // state is discarded wholesale.
        *self.solver = PopularSolver::new(0, 0);
    }

    fn fallback(&self) -> Option<Assignment> {
        Some(serial_dictatorship(&self.req.instance))
    }
}

/// A delta tick's coalesced flush on the instance's incremental solver.
impl RoundHooks for DeltaSolver {
    fn attempt(&mut self) -> Result<Assignment, PopularError> {
        self.flush().cloned()
    }

    fn after_panic(&mut self) {
        // Discarding the solver would lose the warm component decomposition
        // for good; instead a poisoned shard re-solves fully from the
        // intact raw lists (DESIGN.md §10).  If recovery itself panics the
        // solver stays poisoned and later rounds answer `SolverPoisoned` as
        // a typed error (reinstalling is the ultimate backstop).
        let _ = catch_unwind(AssertUnwindSafe(|| self.recover().map(|_| ())));
    }

    fn fallback(&self) -> Option<Assignment> {
        // The solver's *current* (post-mutation) instance; unavailable only
        // for a poisoned solver that failed to recover.
        let snapshot = self.snapshot_instance().ok()?;
        Some(serial_dictatorship(&snapshot))
    }
}

fn worker_loop(shared: &Shared) {
    let mut solver = PopularSolver::new(0, 0);
    while let Some(job) = shared.queue.pop() {
        match job {
            Job::Solve { req, waiter } => {
                let now = Instant::now();
                if !waiter.shed(&shared.stats, now) {
                    let mut hooks = SolveHooks {
                        solver: &mut solver,
                        req: &req,
                    };
                    let waiters = std::slice::from_ref(&waiter);
                    serve_round(shared, req.instance_id, now, waiters, &mut hooks);
                }
            }
            Job::DeltaTick { instance_id } => handle_delta_tick(shared, instance_id),
        }
    }
}

/// Drains one instance's pending deltas, sheds the expired ones, applies
/// the rest in submission order, and answers them all from one
/// [`serve_round`] that flushes the incremental solver once.
fn handle_delta_tick(shared: &Shared, instance_id: u64) {
    let Some(state) = shared.delta_state(instance_id) else {
        return; // uninstalled since the tick was queued
    };
    // The solver lock serialises rounds per instance (a redundant tick just
    // finds an empty queue).  Clear the scheduled latch *before* draining:
    // a submit landing after the drain must schedule a fresh tick; one
    // landing in between is coalesced into this round and its redundant
    // tick drains nothing.
    let mut solver = state.lock_solver();
    state.scheduled.store(false, Ordering::Release);
    let batch: Vec<PendingDelta> = state.lock_pending().drain(..).collect();
    if batch.is_empty() {
        return;
    }
    shared.stats.delta_ticks.fetch_add(1, Ordering::Relaxed);

    // A rejected delta (validation error) is a typed answer for that
    // submitter only — the rest of the round proceeds without it.
    let now = Instant::now();
    let mut applied: Vec<Waiter> = Vec::with_capacity(batch.len());
    for p in batch {
        if p.waiter.shed(&shared.stats, now) {
            continue;
        }
        let ds = &mut *solver;
        match catch_unwind(AssertUnwindSafe(|| ds.apply(&p.delta))) {
            Ok(Ok(())) => applied.push(p.waiter),
            Ok(Err(e)) => {
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                shared.stats.solve_errors.fetch_add(1, Ordering::Relaxed);
                p.waiter.send(Err(ServeError::Solve(e)));
            }
            Err(payload) => {
                // A panic mid-apply latches the solver's poisoning guard;
                // recover so the rest of the round isn't answered
                // `SolverPoisoned`.
                drop(payload);
                shared
                    .stats
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                ds.after_panic();
                p.waiter.send(Err(ServeError::Faulted));
            }
        }
    }
    if applied.is_empty() {
        return;
    }
    shared
        .stats
        .deltas_coalesced
        .fetch_add(applied.len() as u64, Ordering::Relaxed);
    // The mutations are already applied to the raw instance state: a
    // degraded round leaves them for the next full-quality flush.
    serve_round(shared, instance_id, now, &applied, &mut *solver);
}

/// One serving round (DESIGN.md §9) for the `waiters` of `instance_id`:
/// the health gate, then the fault point and the attempt under
/// `catch_unwind`, then the success / typed-error / failure disposition,
/// answered to every waiter with the counters booked per waiter.
fn serve_round(
    shared: &Shared,
    instance_id: u64,
    now: Instant,
    waiters: &[Waiter],
    hooks: &mut impl RoundHooks,
) {
    // Degradation gate: a degraded id inside its backoff window is answered
    // without solver traffic.
    let probing = match shared.health.gate(instance_id, now) {
        Gate::Solve { probe } => probe,
        Gate::Stale(matching) => {
            return respond_degraded(shared, waiters, Quality::Stale, Some(matching))
        }
        Gate::Fallback => {
            return respond_degraded(shared, waiters, Quality::Fallback, hooks.fallback())
        }
    };

    // Only the hooks cross the unwind boundary — the reply channels stay
    // out here so every path answers.
    let faults = &shared.faults;
    let attempt = match catch_unwind(AssertUnwindSafe(
        || -> Result<Result<Assignment, PopularError>, InjectedFault> {
            faults.fail_solve()?;
            Ok(hooks.attempt())
        },
    )) {
        Ok(Ok(Ok(matching))) => Attempt::Ok(matching),
        Ok(Ok(Err(e))) => Attempt::TypedError(e),
        Ok(Err(InjectedFault::Io)) => Attempt::Failed { panicked: false },
        Err(payload) => {
            drop(payload);
            Attempt::Failed { panicked: true }
        }
    };

    let n = waiters.len() as u64;
    match attempt {
        Attempt::Ok(matching) => {
            let finished = Instant::now();
            shared.health.record_success(instance_id, &matching);
            shared.stats.served.fetch_add(n, Ordering::Relaxed);
            respond(shared, waiters, matching, Quality::Full, finished);
        }
        Attempt::TypedError(e) => {
            // A deterministic property of the input: answered, not a
            // failure.  A *probe* landing here proves the solver healthy,
            // so the id is re-promoted (with nothing to cache).
            if probing {
                shared.health.record_healthy(instance_id);
            }
            shared.stats.served.fetch_add(n, Ordering::Relaxed);
            shared.stats.solve_errors.fetch_add(n, Ordering::Relaxed);
            send_all(waiters, e, |_, e| Err(ServeError::Solve(e)));
        }
        Attempt::Failed { panicked } => {
            if panicked {
                shared
                    .stats
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                hooks.after_panic();
            }
            match shared.health.record_failure(instance_id, Instant::now()) {
                FailureDisposition::Error => {
                    send_all(waiters, (), |_, ()| Err(ServeError::Faulted));
                }
                FailureDisposition::Stale(matching) => {
                    respond_degraded(shared, waiters, Quality::Stale, Some(matching));
                }
                FailureDisposition::Fallback => {
                    respond_degraded(shared, waiters, Quality::Fallback, hooks.fallback());
                }
            }
        }
    }
}

/// Answers every waiter degraded with `matching` flagged `quality`, or
/// [`ServeError::Faulted`] if there is no matching to give.
fn respond_degraded(
    shared: &Shared,
    waiters: &[Waiter],
    quality: Quality,
    matching: Option<Assignment>,
) {
    let Some(matching) = matching else {
        return send_all(waiters, (), |_, ()| Err(ServeError::Faulted));
    };
    shared
        .stats
        .degraded_responses
        .fetch_add(waiters.len() as u64, Ordering::Relaxed);
    respond(shared, waiters, matching, quality, Instant::now());
}

/// Answers every waiter with `matching`, counting each deadline that
/// `finished` overran.
fn respond(
    shared: &Shared,
    waiters: &[Waiter],
    matching: Assignment,
    quality: Quality,
    finished: Instant,
) {
    send_all(waiters, matching, |w, matching| {
        let overran = w.deadline.is_some_and(|d| finished > d);
        if overran {
            shared
                .stats
                .deadline_overruns
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(Response {
            matching,
            quality,
            overran_deadline: overran,
            coalesced: waiters.len(),
        })
    });
}

/// Sends each waiter its answer built from `value`: the last waiter takes
/// `value` itself, so a lone waiter costs no clone.
fn send_all<T: Clone>(
    waiters: &[Waiter],
    value: T,
    answer: impl Fn(&Waiter, T) -> Result<Response, ServeError>,
) {
    if let Some((last, rest)) = waiters.split_last() {
        for w in rest {
            w.send(answer(w, value.clone()));
        }
        last.send(answer(last, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Spec;

    fn quiet_server() -> Server {
        Server::start(ServerConfig {
            faults: Spec::none(),
            ..ServerConfig::default()
        })
    }

    #[test]
    fn request_timeout_past_instant_range_means_no_deadline() {
        let inst = Arc::new(PrefInstance::new_strict(2, vec![vec![0, 1], vec![1]]).unwrap());
        let req = Request::new(Arc::clone(&inst), 1).with_timeout(Duration::MAX);
        assert_eq!(req.deadline, None);
        let near = Request::new(Arc::clone(&inst), 1).with_timeout(Duration::from_secs(60));
        assert!(near.deadline.is_some());

        let server = quiet_server();
        let resp = server.call(req).unwrap();
        assert_eq!(resp.quality, Quality::Full);
        assert!(!resp.overran_deadline);
        assert_eq!(resp.coalesced, 1);
        server.shutdown();
    }

    #[test]
    fn delta_timeout_past_instant_range_means_no_deadline() {
        let inst = PrefInstance::new_strict(2, vec![vec![0, 1], vec![1]]).unwrap();
        let edit = Delta::EditPrefList {
            applicant: 0,
            prefs: vec![1, 0],
        };
        let req = DeltaRequest::new(3, edit.clone()).with_timeout(Duration::MAX);
        assert_eq!(req.deadline, None);
        let near = DeltaRequest::new(3, edit).with_timeout(Duration::from_secs(60));
        assert!(near.deadline.is_some());

        let server = quiet_server();
        server.install_delta(3, &inst, SolveMode::Popular).unwrap();
        let resp = server.apply_delta(req).unwrap();
        assert_eq!(resp.quality, Quality::Full);
        assert!(!resp.overran_deadline);
        server.shutdown();
    }
}
