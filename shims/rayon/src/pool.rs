//! The shared-memory executor behind every parallel combinator: a lazily
//! spawned global pool of [`std::thread`] workers fed fixed-size chunk
//! batches.
//!
//! # Architecture
//!
//! A *batch* is one parallel call (a `for_each`, `collect`, `sum`, …): a
//! type-erased chunk runner plus an atomic claim counter.  The calling
//! thread publishes the batch on a global queue, wakes the workers, and then
//! **participates**: it claims and runs chunks exactly like a worker, and
//! only blocks once every chunk has been claimed.  Because the caller can
//! always run its own chunks to completion, a parallel call never deadlocks
//! — even with zero workers, or with every worker busy on other batches.
//!
//! The chunk runner borrows the caller's stack (the producer, the user's
//! closures).  That borrow is erased to `'static` when the batch is
//! enqueued; soundness comes from the blocking protocol: [`execute`] does
//! not return until the completion count reaches the chunk count, and a
//! worker bumps that count only *after* its last touch of the borrowed
//! data.
//!
//! # Sizing and determinism
//!
//! The pool size is `PM_THREADS` (default: [`std::thread::available_parallelism`]).
//! [`with_threads`] installs a per-thread override — used by the bench
//! harness's thread sweep and the determinism property tests — growing the
//! pool on demand.  The override genuinely *bounds* parallelism, not just
//! the chunk count: each batch carries `width` staffing *slots*, a thread
//! must acquire a slot before touching the batch ([`Batch::try_join`]; the
//! caller pre-owns slot 0), and workers adopt the batch width as their
//! `current_num_threads` while running its chunks — so a width-2 sweep leg
//! stays width-2 even after an earlier leg grew the pool to 4.  Scheduling
//! never influences results: chunk boundaries are a pure function of
//! `(len, thread count, min chunk)`, chunk results are combined in chunk
//! order, and all combining operators the workspace uses are associative.
//!
//! # Sticky chunk→thread affinity
//!
//! Each slot owns a *contiguous* range of chunk indices (`n_chunks / width`,
//! rounded up); a runner drains its own slot's range first and steals from
//! other slots only once its own is empty.  Workers remember the slot they
//! held last ([`PREFERRED_SLOT`]) and re-acquire it on the next batch when
//! free, and the caller always holds slot 0 — so across the consecutive
//! parallel calls of a round-synchronous loop, the same thread keeps
//! touching the same contiguous array region round after round, preserving
//! per-thread cache/NUMA residency of the data it warmed.  This is pure
//! scheduling: which thread runs a chunk never affects any result.
//!
//! # Panics
//!
//! A panic inside a chunk is caught on the executing thread, the first
//! payload is stored on the batch, the remaining chunks still run, and the
//! payload is re-raised on the calling thread once the batch completes — the
//! pool itself never loses a worker to a user panic.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One staffing slot of a [`Batch`]: ownership flag plus the claim cursor
/// into the slot's contiguous chunk range.
struct SlotState {
    /// Whether a runner holds this slot (at most one ever does).
    taken: AtomicBool,
    /// Next unclaimed offset within the slot's chunk range; values past the
    /// range length mean the range is drained.  Any runner may bump this
    /// (stealing), so claims stay exactly-once without a global counter.
    cursor: AtomicUsize,
}

/// One parallel call: `job(i)` runs chunk `i` for `i < n_chunks`.
///
/// The `'static` on `job` is a lie told by [`execute`]; see the module docs
/// for why the blocking protocol makes it sound.
struct Batch {
    job: &'static (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// The effective thread width when the batch was submitted.  Workers
    /// running this batch's chunks adopt it as their `current_num_threads`
    /// so nested code observes the same width on every thread, and the slot
    /// count staffs the batch with at most `width` threads (caller
    /// included) — `install(n)` genuinely bounds parallelism even after the
    /// global pool has grown wider.
    width: usize,
    /// Chunks per slot range: slot `s` owns chunk indices
    /// `[s * per, min((s + 1) * per, n_chunks))` — contiguous, so a slot
    /// maps to a contiguous region of the underlying arrays.
    per: usize,
    /// One staffing slot per unit of width; slot 0 is pre-owned by the
    /// calling thread.
    slots: Box<[SlotState]>,
    /// Number of chunks that have finished running.
    done: AtomicUsize,
    finished: Mutex<bool>,
    finished_cv: Condvar,
    /// First panic payload raised by any chunk, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    fn new(job: &'static (dyn Fn(usize) + Sync), n_chunks: usize, width: usize) -> Arc<Self> {
        let width = width.max(1);
        let slots = (0..width)
            .map(|s| SlotState {
                taken: AtomicBool::new(s == 0),
                cursor: AtomicUsize::new(0),
            })
            .collect();
        Arc::new(Batch {
            job,
            n_chunks,
            width,
            per: n_chunks.div_ceil(width),
            slots,
            done: AtomicUsize::new(0),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// The contiguous chunk range owned by slot `s`.
    fn slot_range(&self, s: usize) -> (usize, usize) {
        (
            (s * self.per).min(self.n_chunks),
            ((s + 1) * self.per).min(self.n_chunks),
        )
    }

    /// Claims the next unclaimed chunk, preferring `slot`'s own contiguous
    /// range and stealing from the other slots (in circular order) only
    /// once it is drained.  Which thread claims a chunk never affects
    /// results; affinity is purely a locality optimisation.
    fn claim(&self, slot: usize) -> Option<usize> {
        let w = self.slots.len();
        for k in 0..w {
            let s = (slot + k) % w;
            let (start, end) = self.slot_range(s);
            let len = end - start;
            let st = &self.slots[s];
            // Cheap pre-check so fully drained ranges are skipped without
            // growing their cursors unboundedly.
            if st.cursor.load(Ordering::Acquire) >= len {
                continue;
            }
            let i = st.cursor.fetch_add(1, Ordering::AcqRel);
            if i < len {
                return Some(start + i);
            }
        }
        None
    }

    /// Acquires a staffing slot, preferring `preferred` (the slot this
    /// thread held on the previous batch) so chunk→thread affinity is
    /// stable across the consecutive calls of a round-synchronous loop.
    /// Returns the slot id, or `None` when the batch is fully staffed.
    fn try_join(&self, preferred: usize) -> Option<usize> {
        let w = self.slots.len();
        let first = if preferred < w { preferred } else { 0 };
        for k in 0..w {
            let s = (first + k) % w;
            if !self.slots[s].taken.swap(true, Ordering::AcqRel) {
                return Some(s);
            }
        }
        None
    }

    /// Whether every chunk has been claimed (not necessarily finished).
    fn exhausted(&self) -> bool {
        self.slots.iter().enumerate().all(|(s, st)| {
            let (start, end) = self.slot_range(s);
            st.cursor.load(Ordering::Acquire) >= end - start
        })
    }

    /// Runs one claimed chunk, capturing a panic instead of unwinding.
    fn run_chunk(&self, i: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.job)(i))) {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        // AcqRel: release our writes (results) to whoever observes the final
        // count, and acquire every earlier finisher's writes so the last
        // finisher's signal carries all of them to the caller.
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n_chunks {
            *self.finished.lock().unwrap() = true;
            self.finished_cv.notify_all();
        }
    }

    /// Blocks until every chunk has finished.
    fn wait(&self) {
        let mut finished = self.finished.lock().unwrap();
        while !*finished {
            finished = self.finished_cv.wait(finished).unwrap();
        }
    }
}

/// State shared between the workers and every calling thread.
struct Shared {
    /// Batches with unclaimed chunks (exhausted ones are pruned lazily).
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_cv: Condvar,
    /// Number of workers spawned so far (monotone; workers never exit).
    spawned: Mutex<usize>,
    spawned_hint: AtomicUsize,
}

static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();

fn shared() -> &'static Arc<Shared> {
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            spawned: Mutex::new(0),
            spawned_hint: AtomicUsize::new(0),
        })
    })
}

thread_local! {
    /// Per-thread override of the pool width, installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while this thread is running a chunk of some batch.  Parallel
    /// calls made in that state run inline (sequentially) instead of
    /// re-entering the pool: the outer call already owns the fan-out, and
    /// never blocking a worker on another batch rules out deadlock.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// The staffing slot this worker held on the last batch it ran.  Workers
    /// re-acquire the same slot when it is free, which keeps chunk→thread
    /// assignment stable across the batches of a round-synchronous loop
    /// (the sticky-affinity epoch; see the module docs).
    static PREFERRED_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The process-wide default thread count: `PM_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
pub(crate) fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        match std::env::var("PM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// The thread count parallel calls on this thread currently fan out to.
pub(crate) fn effective_threads() -> usize {
    OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(configured_threads)
}

/// Whether this thread is inside a chunk of an active batch.
pub(crate) fn in_parallel_context() -> bool {
    IN_PARALLEL.with(|f| f.get())
}

/// Runs `f` with parallel calls fanning out to `n` threads, growing the
/// worker pool if needed, and restores the previous width afterwards (also
/// on panic).
pub(crate) fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    if n > 1 {
        ensure_workers(n - 1);
    }
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Grows the pool to at least `target` workers (the calling thread is the
/// `+1` that brings the total to the configured thread count).
fn ensure_workers(target: usize) {
    let s = shared();
    if s.spawned_hint.load(Ordering::Relaxed) >= target {
        return;
    }
    let mut spawned = s.spawned.lock().unwrap();
    while *spawned < target {
        let worker_shared = Arc::clone(s);
        std::thread::Builder::new()
            .name(format!("pm-rayon-{spawned}"))
            .spawn(move || worker_loop(&worker_shared))
            .expect("failed to spawn pool worker");
        *spawned += 1;
    }
    s.spawned_hint.store(*spawned, Ordering::Relaxed);
}

fn worker_loop(shared: &Shared) -> ! {
    // Workers run every chunk in "nested" mode: anything parallel inside a
    // chunk executes inline on this thread.
    IN_PARALLEL.with(|f| f.set(true));
    loop {
        let (batch, slot) = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                queue.retain(|b| !b.exhausted());
                // Join the first batch with an open staffing slot — the slot
                // this worker held last time when free; fully staffed
                // batches are left to their current runners.
                let preferred = PREFERRED_SLOT.with(|p| p.get());
                if let Some(found) = queue
                    .iter()
                    .find_map(|b| b.try_join(preferred).map(|s| (Arc::clone(b), s)))
                {
                    break found;
                }
                queue = shared.work_cv.wait(queue).unwrap();
            }
        };
        PREFERRED_SLOT.with(|p| p.set(slot));
        // Adopt the batch's width so nested code observes the same
        // `current_num_threads` regardless of which thread runs the chunk.
        OVERRIDE.with(|o| o.set(Some(batch.width)));
        while let Some(i) = batch.claim(slot) {
            batch.run_chunk(i);
        }
        OVERRIDE.with(|o| o.set(None));
    }
}

/// Runs `job(0..n_chunks)` across the pool with caller participation and
/// blocks until every chunk has finished.  Inline (sequential, in order)
/// when the effective width is 1, when there is a single chunk, or when
/// already inside a chunk.  Re-raises the first chunk panic.
pub(crate) fn execute(job: &(dyn Fn(usize) + Sync), n_chunks: usize) {
    let width = effective_threads();
    if n_chunks <= 1 || width <= 1 || in_parallel_context() {
        for i in 0..n_chunks {
            job(i);
        }
        return;
    }
    ensure_workers(width - 1);

    // Erase the borrow; `execute` blocks until `done == n_chunks`, and no
    // thread touches `job` after bumping `done`, so the reference never
    // outlives the data (module docs).
    let job_static: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
    };
    let batch = Batch::new(job_static, n_chunks, width);

    let s = shared();
    s.queue.lock().unwrap().push_back(Arc::clone(&batch));
    s.work_cv.notify_all();

    // Participate: run chunks on this thread until none are left to claim.
    // The caller always holds slot 0, so its chunk range — the front of the
    // arrays — stays on the calling thread across consecutive calls.
    IN_PARALLEL.with(|f| f.set(true));
    while let Some(i) = batch.claim(0) {
        batch.run_chunk(i);
    }
    IN_PARALLEL.with(|f| f.set(false));

    batch.wait();
    // Tidy up in case no worker pruned the exhausted batch yet.
    s.queue.lock().unwrap().retain(|b| !Arc::ptr_eq(b, &batch));
    let payload = batch.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Runs `f(i)` for every chunk index and returns the results in chunk
/// order.  The per-chunk results cross threads, hence `R: Send`.
pub(crate) fn run_chunks<R, F>(n_chunks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::cell::UnsafeCell;
    struct Slots<R>(Box<[UnsafeCell<Option<R>>]>);
    // Each slot is written by exactly one thread (its chunk's unique
    // claimer) and read only after the batch completes.
    unsafe impl<R: Send> Sync for Slots<R> {}
    impl<R> Slots<R> {
        /// # Safety
        /// Each index must be written by at most one thread at a time.
        unsafe fn put(&self, i: usize, r: R) {
            unsafe { *self.0[i].get() = Some(r) };
        }
    }

    let slots: Slots<R> = Slots((0..n_chunks).map(|_| UnsafeCell::new(None)).collect());
    let job = |i: usize| {
        let r = f(i);
        // SAFETY: chunk `i` has a unique claimer.
        unsafe { slots.put(i, r) };
    };
    execute(&job, n_chunks);
    slots
        .0
        .into_vec()
        .into_iter()
        .map(|cell| cell.into_inner().expect("pool: chunk result missing"))
        .collect()
}
