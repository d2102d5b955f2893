//! Work-chunking multithreaded stand-in for the subset of [rayon] this
//! workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! rayon cannot be vendored.  Until PR 3 this shim executed everything
//! sequentially; it is now a real shared-memory executor: a lazily spawned
//! global pool of [`std::thread`] workers (see [`mod@self`] internals in
//! `pool.rs`) runs every parallel call as a batch of contiguous chunks with
//! caller participation.  The crate mirrors the rayon API surface the
//! workspace calls — `par_iter`, `par_iter_mut`, `par_chunks`,
//! `par_chunks_mut`, `into_par_iter`, the map/filter/zip/enumerate
//! combinators with their for_each/collect/sum/reduce/min/max terminals,
//! [`join`], [`current_num_threads`], and a [`ThreadPoolBuilder`] —
//! so swapping in the real rayon remains a `Cargo.toml`-only change.
//!
//! # Execution model
//!
//! Combinators build a lazy [`Producer`] pipeline; a terminal partitions
//! the index space `0..len` into contiguous chunks (at most `threads × 4`,
//! never smaller than a minimum chunk length), runs each chunk's sequential
//! iterator on one pool thread, and combines the per-chunk results **in
//! chunk order**.  Three consequences:
//!
//! * **Determinism** — chunk boundaries depend only on the length and the
//!   thread count, and every combining operator the workspace uses is
//!   associative, so results are bit-for-bit identical across thread
//!   counts (a property test in the workspace asserts this end to end).
//! * **No nested fan-out** — a parallel call made from inside a chunk runs
//!   inline on that thread; the outermost call owns the parallelism.
//! * **Small inputs stay cheap** — a call whose length does not exceed the
//!   minimum chunk length (or when the pool width is 1) executes inline
//!   with no synchronisation at all.
//!
//! # Thread count
//!
//! The pool width defaults to `PM_THREADS` (falling back to
//! [`std::thread::available_parallelism`]).  A
//! [`ThreadPoolBuilder`]-built [`ThreadPool`] overrides it for the dynamic
//! extent of [`ThreadPool::install`], which is how the bench harness
//! sweeps thread counts and how the determinism tests pin 1 vs 4 threads
//! inside one process.  (The real rayon reads `RAYON_NUM_THREADS`
//! instead; the builder API is swap-compatible.)
//!
//! ```
//! use rayon::prelude::*;
//!
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
//! let squares: Vec<usize> = pool.install(|| (0..10_000).into_par_iter().map(|x| x * x).collect());
//! assert_eq!(squares[9_999], 9_999 * 9_999);
//! ```
//!
//! [rayon]: https://docs.rs/rayon

mod pool;
mod producer;

pub use producer::{
    ChunksMutProducer, ChunksProducer, ClonedProducer, CopiedProducer, EnumerateProducer,
    FilterProducer, IndexedProducer, MapProducer, Producer, RangeProducer, SliceMutProducer,
    SliceProducer, ZipProducer,
};

/// The combinators and conversion traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut,
    };
}

/// Chunks per thread a terminal aims for: mild over-partitioning smooths
/// out uneven per-item work without shrinking chunks below the minimum.
const OVERPARTITION: usize = 4;

/// Default minimum items per chunk for element-wise sources; below this,
/// fan-out costs more than it buys.  Sub-slice sources (`par_chunks*`)
/// use 1 — each of their items is already a block of work — and
/// [`ParIter::with_min_len`] overrides per call site.
const DEFAULT_MIN_LEN: usize = 1024;

/// Per-call fan-out work cutoff for element-wise pipelines: an element-wise
/// call shorter than this runs inline on the caller thread even when it
/// would split into more than one chunk.  Fanning a 2–4-chunk, few-µs
/// pipeline across the pool costs more in enqueue/wake/claim latency than
/// the chunks cost to run — the depth-2 low-work calls behind the
/// `ties_rank1` width-4 regression.  Heavy-item sources (`par_chunks*`,
/// explicit `with_min_len` below the default) keep their fan-out: their
/// per-item work is real.  Inline execution runs the identical chunks in
/// chunk order, so results are bit-identical either way.
const FANOUT_MIN_ITEMS: usize = 4 * DEFAULT_MIN_LEN;

/// Whether a parallel call over `len` items with the given per-chunk
/// minimum would fan out to the pool (rather than run inline) at the
/// current effective thread count.  Exposed for the crossover tests.
#[doc(hidden)]
pub fn would_fan_out(len: usize, min_len: usize) -> bool {
    let threads = pool::effective_threads();
    let chunk = len
        .div_ceil((threads * OVERPARTITION).max(1))
        .max(min_len)
        .max(1);
    let n_chunks = len.div_ceil(chunk).max(1);
    n_chunks > 1
        && threads > 1
        && !pool::in_parallel_context()
        && !(min_len >= DEFAULT_MIN_LEN && len < FANOUT_MIN_ITEMS)
}

/// Number of threads parallel calls currently fan out to: the innermost
/// [`ThreadPool::install`] override, else `PM_THREADS`, else
/// [`std::thread::available_parallelism`].
pub fn current_num_threads() -> usize {
    pool::effective_threads()
}

/// Runs `a` on the calling thread while offering `b` to the pool (the
/// caller runs `b` itself if no worker is free); returns both results.
/// Mirrors `rayon::join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(a, b)
}

// ------------------------------------------------------------- thread pools

/// Builder for a [`ThreadPool`]; mirrors `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads; 0 (the default) means the process-wide
    /// default (`PM_THREADS` / available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.  Never fails in the shim; the `Result` mirrors the
    /// real rayon signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: if self.num_threads == 0 {
                current_num_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// A handle that pins the fan-out width of parallel calls; workers are
/// shared with the global pool (grown on demand), so building is cheap.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with parallel calls fanning out to this pool's width.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        pool::with_threads(self.threads, op)
    }

    /// The width of this pool.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Error building a [`ThreadPool`]; never produced by the shim.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

// ------------------------------------------------------------ the iterator

/// A parallel iterator: a lazy [`Producer`] pipeline plus the minimum
/// chunk length its terminal will respect.
pub struct ParIter<P> {
    p: P,
    min_len: usize,
}

/// Types convertible into a [`ParIter`]; mirrors
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Element type of the resulting iterator.
    type Item: Send;
    /// Producer backing the resulting iterator.
    type Producer: Producer<Item = Self::Item>;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Producer>;
}

impl<P: Producer> IntoParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Producer = P;
    fn into_par_iter(self) -> ParIter<P> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Producer = RangeProducer;
    fn into_par_iter(self) -> ParIter<RangeProducer> {
        ParIter {
            p: RangeProducer {
                start: self.start,
                end: self.end.max(self.start),
            },
            min_len: DEFAULT_MIN_LEN,
        }
    }
}

impl<'d, T: Sync> IntoParallelIterator for &'d [T] {
    type Item = &'d T;
    type Producer = SliceProducer<'d, T>;
    fn into_par_iter(self) -> ParIter<SliceProducer<'d, T>> {
        ParIter {
            p: SliceProducer { slice: self },
            min_len: DEFAULT_MIN_LEN,
        }
    }
}

impl<'d, T: Send> IntoParallelIterator for &'d mut [T] {
    type Item = &'d mut T;
    type Producer = SliceMutProducer<'d, T>;
    fn into_par_iter(self) -> ParIter<SliceMutProducer<'d, T>> {
        ParIter {
            p: SliceMutProducer::new(self),
            min_len: DEFAULT_MIN_LEN,
        }
    }
}

/// `par_iter` / `par_chunks` on slices; mirrors `rayon::slice::ParallelSlice`
/// plus the by-reference iterator entry points.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>>;
    /// Parallel iterator over non-overlapping chunks of length `size`.
    fn par_chunks(&self, size: usize) -> ParIter<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>> {
        ParIter {
            p: SliceProducer { slice: self },
            min_len: DEFAULT_MIN_LEN,
        }
    }
    fn par_chunks(&self, size: usize) -> ParIter<ChunksProducer<'_, T>> {
        assert!(size > 0, "chunk size must be non-zero");
        ParIter {
            p: ChunksProducer { slice: self, size },
            min_len: 1,
        }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on slices; mirrors
/// `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>>;
    /// Parallel iterator over non-overlapping mutable chunks of length `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>> {
        ParIter {
            p: SliceMutProducer::new(self),
            min_len: DEFAULT_MIN_LEN,
        }
    }
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
        ParIter {
            p: ChunksMutProducer::new(self, size),
            min_len: 1,
        }
    }
}

/// Collections buildable from a parallel iterator; mirrors
/// `rayon::iter::FromParallelIterator`.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds `Self` from the iterator, preserving item order.
    fn from_par_iter<P: Producer<Item = T>>(iter: ParIter<P>) -> Self;
}

/// Raw base pointer of a collect target, shared with the pool threads that
/// each write a disjoint sub-range of the buffer.
struct SendPtr<T>(*mut T);
// SAFETY: threads write disjoint in-bounds ranges (executor partition).
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than a field read) so closures capture the `Sync`
    /// wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: Producer<Item = T>>(iter: ParIter<P>) -> Self {
        let ParIter { p, min_len } = iter;
        let len = p.p_len();
        if p.exact() {
            // Exact length: every chunk writes its items straight into its
            // slot range of the output buffer — no intermediate vectors.
            // Unwind accounting mirrors real rayon: a panicking chunk drops
            // its own partial prefix (the guard below), completed chunks
            // register their range in `written`, and the catch_unwind arm
            // drops every registered range before re-raising — nothing
            // already written outlives the panic.
            let mut out: Vec<T> = Vec::with_capacity(len);
            let base = SendPtr(out.as_mut_ptr());
            let written: std::sync::Mutex<Vec<(usize, usize)>> = std::sync::Mutex::new(Vec::new());
            /// Drops `out[s..s + k]` unless disarmed by chunk completion.
            struct ChunkGuard<'a, T> {
                base: &'a SendPtr<T>,
                s: usize,
                k: usize,
                armed: bool,
            }
            impl<T> Drop for ChunkGuard<'_, T> {
                fn drop(&mut self) {
                    if self.armed {
                        // SAFETY: this chunk wrote exactly `k` items at `s..`
                        // and nobody else touches that range.
                        unsafe {
                            for i in 0..self.k {
                                std::ptr::drop_in_place(self.base.get().add(self.s + i));
                            }
                        }
                    }
                }
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(&p, min_len, |s, e, it| {
                    let mut guard = ChunkGuard {
                        base: &base,
                        s,
                        k: 0,
                        armed: true,
                    };
                    for item in it {
                        assert!(guard.k < e - s, "exact producer yielded too many items");
                        // SAFETY: slot s + k is in-bounds and owned by this chunk.
                        unsafe { std::ptr::write(base.get().add(s + guard.k), item) };
                        guard.k += 1;
                    }
                    assert_eq!(guard.k, e - s, "exact producer yielded too few items");
                    guard.armed = false;
                    written.lock().unwrap().push((s, guard.k));
                    guard.k
                })
            }));
            let counts = match result {
                Ok(counts) => counts,
                Err(payload) => {
                    // SAFETY: the registered ranges are disjoint, fully
                    // written, and belong to no live chunk guard.
                    for (s, k) in written.lock().unwrap().drain(..) {
                        unsafe {
                            for i in 0..k {
                                std::ptr::drop_in_place(base.get().add(s + i));
                            }
                        }
                    }
                    std::panic::resume_unwind(payload);
                }
            };
            debug_assert_eq!(counts.iter().sum::<usize>(), len);
            // SAFETY: all `len` slots are initialised (asserted per chunk).
            unsafe { out.set_len(len) };
            out
        } else {
            // Inexact (filtered) length: collect per chunk, then append in
            // chunk order — order preservation without index bookkeeping.
            let parts: Vec<Vec<T>> = run(&p, min_len, |_, _, it| it.collect());
            let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
            for part in parts {
                out.extend(part);
            }
            out
        }
    }
}

/// Partitions the pipeline's index space and runs `f` once per chunk —
/// `f(start, end, items)` — returning per-chunk results in chunk order.
fn run<'p, P, R, F>(p: &'p P, min_len: usize, f: F) -> Vec<R>
where
    P: Producer,
    R: Send,
    F: Fn(usize, usize, P::ChunkIter<'p>) -> R + Sync,
{
    let len = p.p_len();
    let threads = pool::effective_threads();
    let chunk = len
        .div_ceil((threads * OVERPARTITION).max(1))
        .max(min_len)
        .max(1);
    let n_chunks = len.div_ceil(chunk).max(1);
    let run_one = move |i: usize| {
        let s = i * chunk;
        let e = ((i + 1) * chunk).min(len);
        // SAFETY: the executor (or the loop below) invokes every chunk
        // index exactly once, so the ranges are disjoint.
        f(s, e, unsafe { p.chunk(s, e) })
    };
    // The trailing condition is the fan-out work cutoff: element-wise
    // pipelines below [`FANOUT_MIN_ITEMS`] stay on the caller thread (see
    // the const docs; inline runs the identical chunks in chunk order).
    if n_chunks == 1
        || threads <= 1
        || pool::in_parallel_context()
        || (min_len >= DEFAULT_MIN_LEN && len < FANOUT_MIN_ITEMS)
    {
        (0..n_chunks).map(run_one).collect()
    } else {
        pool::run_chunks(n_chunks, run_one)
    }
}

impl<P: Producer> ParIter<P> {
    /// Map every element through `f`.
    pub fn map<B, F>(self, f: F) -> ParIter<MapProducer<P, F>>
    where
        F: Fn(P::Item) -> B + Sync,
        B: Send,
    {
        ParIter {
            p: MapProducer { base: self.p, f },
            min_len: self.min_len,
        }
    }

    /// Keep only elements matching the predicate.
    pub fn filter<F>(self, f: F) -> ParIter<FilterProducer<P, F>>
    where
        F: Fn(&P::Item) -> bool + Sync,
    {
        ParIter {
            p: FilterProducer { base: self.p, f },
            min_len: self.min_len,
        }
    }

    /// Pair every element with its global index.
    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>>
    where
        P: IndexedProducer,
    {
        ParIter {
            p: EnumerateProducer { base: self.p },
            min_len: self.min_len,
        }
    }

    /// Zip with another parallel iterator (or anything convertible to one),
    /// truncated to the shorter side.
    pub fn zip<Z>(self, other: Z) -> ParIter<ZipProducer<P, Z::Producer>>
    where
        P: IndexedProducer,
        Z: IntoParallelIterator,
        Z::Producer: IndexedProducer,
    {
        let other = other.into_par_iter();
        ParIter {
            p: ZipProducer {
                a: self.p,
                b: other.p,
            },
            // The heavier side dominates per-item cost, so the *smaller*
            // minimum wins (a zipped `par_chunks` keeps its fan-out even
            // when paired with an element-wise source).
            min_len: self.min_len.min(other.min_len),
        }
    }

    /// Lower bound on items per chunk; larger values reduce fan-out
    /// overhead, smaller ones expose more parallelism for heavy items.
    pub fn with_min_len(self, min: usize) -> Self {
        ParIter {
            p: self.p,
            min_len: min.max(1),
        }
    }

    /// Run `f` on every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Sync,
    {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| {
            for item in it {
                f(item);
            }
        });
    }

    /// Collect into any [`FromParallelIterator`] collection, preserving
    /// item order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<P::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sum the elements.
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| it.sum::<S>()).into_iter().sum()
    }

    /// Count the elements.
    pub fn count(self) -> usize {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| it.count()).into_iter().sum()
    }

    /// Minimum element, `None` if empty.  Ties resolve to the first
    /// occurrence, matching [`Iterator::min`] on the sequential order.
    pub fn min(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| it.min())
            .into_iter()
            .flatten()
            .min()
    }

    /// Maximum element, `None` if empty.  Ties resolve to the last
    /// occurrence, matching [`Iterator::max`] on the sequential order.
    pub fn max(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| it.max())
            .into_iter()
            .flatten()
            .max()
    }

    /// rayon-style reduce: fold from `identity()` with `op`.  `op` must be
    /// associative and `identity()` its identity, in which case the result
    /// is identical for every thread count (note the two-argument
    /// signature, unlike [`Iterator::reduce`]).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| it.fold(identity(), &op))
            .into_iter()
            .fold(identity(), op)
    }

    /// Reduce without an identity; `None` if empty.  `op` must be
    /// associative for thread-count-independent results.
    pub fn reduce_with<OP>(self, op: OP) -> Option<P::Item>
    where
        OP: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        let ParIter { p, min_len } = self;
        run(&p, min_len, |_, _, it| it.reduce(&op))
            .into_iter()
            .flatten()
            .reduce(op)
    }

    /// Split pair elements into two collections, preserving order.
    pub fn unzip<A, B, FromA, FromB>(self) -> (FromA, FromB)
    where
        P: Producer<Item = (A, B)>,
        A: Send,
        B: Send,
        FromA: Default + Extend<A>,
        FromB: Default + Extend<B>,
    {
        let ParIter { p, min_len } = self;
        let parts: Vec<(Vec<A>, Vec<B>)> = run(&p, min_len, |s, e, it| {
            let cap = e - s;
            let mut va = Vec::with_capacity(cap);
            let mut vb = Vec::with_capacity(cap);
            for (a, b) in it {
                va.push(a);
                vb.push(b);
            }
            (va, vb)
        });
        let mut fa = FromA::default();
        let mut fb = FromB::default();
        for (va, vb) in parts {
            fa.extend(va);
            fb.extend(vb);
        }
        (fa, fb)
    }
}

impl<'d, T, P> ParIter<P>
where
    T: Clone + Send + Sync + 'd,
    P: Producer<Item = &'d T>,
{
    /// Clone every referenced element.
    pub fn cloned(self) -> ParIter<ClonedProducer<P>> {
        ParIter {
            p: ClonedProducer { base: self.p },
            min_len: self.min_len,
        }
    }
}

impl<'d, T, P> ParIter<P>
where
    T: Copy + Send + Sync + 'd,
    P: Producer<Item = &'d T>,
{
    /// Copy every referenced element.
    pub fn copied(self) -> ParIter<CopiedProducer<P>> {
        ParIter {
            p: CopiedProducer { base: self.p },
            min_len: self.min_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A pool wide enough that chunked fan-out actually happens even on a
    /// single-core machine.
    fn pool4() -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn map_collect_roundtrip() {
        let v: Vec<usize> = (0..10usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        let v: Vec<usize> =
            pool4().install(|| (0..100_000).into_par_iter().map(|x| x * 2).collect());
        assert_eq!(v.len(), 100_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn two_arg_reduce_matches_fold() {
        let xs = [1u64, 2, 3, 4];
        let s = xs.par_iter().copied().reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 10);
    }

    #[test]
    fn chunks_zip_unzip() {
        let mut out = vec![0u64; 8];
        let xs = [1u64; 8];
        out.par_chunks_mut(3)
            .zip(xs.par_chunks(3))
            .for_each(|(o, c)| {
                for (oi, x) in o.iter_mut().zip(c) {
                    *oi = *x + 1;
                }
            });
        assert_eq!(out, vec![2u64; 8]);
        let (a, b): (Vec<usize>, Vec<usize>) =
            (0..4usize).into_par_iter().map(|i| (i, i * i)).unzip();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![0, 1, 4, 9]);
    }

    #[test]
    fn parallel_results_match_sequential() {
        let n = 50_000usize;
        let xs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let seq_sum: u64 = xs.iter().sum();
        let seq_min = xs.iter().copied().min();
        let seq_max = xs.iter().copied().max();
        pool4().install(|| {
            assert_eq!(xs.par_iter().sum::<u64>(), seq_sum);
            assert_eq!(xs.par_iter().copied().min(), seq_min);
            assert_eq!(xs.par_iter().copied().max(), seq_max);
            assert_eq!(xs.par_iter().count(), n);
            let filtered: Vec<u64> = xs.par_iter().copied().filter(|x| x % 3 == 0).collect();
            let seq_filtered: Vec<u64> = xs.iter().copied().filter(|x| x % 3 == 0).collect();
            assert_eq!(filtered, seq_filtered);
        });
    }

    #[test]
    fn enumerate_yields_global_indices() {
        let xs = vec![7u32; 30_000];
        let idx: Vec<usize> = pool4().install(|| {
            xs.par_iter()
                .enumerate()
                .map(|(i, &x)| i + x as usize)
                .collect()
        });
        assert!(idx.iter().enumerate().all(|(i, &v)| v == i + 7));
    }

    #[test]
    fn par_iter_mut_writes_disjoint_elements() {
        let mut xs = vec![0usize; 40_000];
        pool4().install(|| {
            xs.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 3);
        });
        assert!(xs.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn non_commutative_reduce_preserves_order() {
        // String concatenation is associative but not commutative: any
        // chunking that combines out of order would scramble the digits.
        let parts: Vec<String> = (0..4000).map(|i| format!("{},", i % 10)).collect();
        let seq = parts.concat();
        let par = pool4().install(|| parts.par_iter().cloned().reduce(String::new, |a, b| a + &b));
        assert_eq!(par, seq);
    }

    #[test]
    fn same_results_across_thread_counts() {
        let xs: Vec<u64> = (0..30_000u64).map(|i| (i * 48271) % 65537).collect();
        let runs: Vec<(u64, Vec<u64>)> = [1usize, 2, 4, 7]
            .iter()
            .map(|&t| {
                let pool = crate::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap();
                pool.install(|| {
                    let s = xs.par_iter().sum::<u64>();
                    let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
                    (s, doubled)
                })
            })
            .collect();
        for pair in runs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        let hits = AtomicUsize::new(0);
        pool4().install(|| {
            (0..8_192usize).into_par_iter().for_each(|_| {
                // Nested call: must execute inline without deadlocking.
                let s: usize = (0..64usize).into_par_iter().sum();
                assert_eq!(s, 64 * 63 / 2);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8_192);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = pool4().install(|| {
            crate::join(
                || (0..10_000u64).sum::<u64>(),
                || (0..1_000u64).product::<u64>(),
            )
        });
        assert_eq!(a, 10_000 * 9_999 / 2);
        assert_eq!(b, 0);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            pool4().install(|| {
                (0..50_000usize).into_par_iter().for_each(|i| {
                    assert!(i != 31_337, "boom at {i}");
                });
            });
        });
        assert!(result.is_err());
        // The pool survives a user panic: subsequent calls still work.
        let s: usize = pool4().install(|| (0..10_000usize).into_par_iter().sum());
        assert_eq!(s, 10_000 * 9_999 / 2);
    }

    #[test]
    fn collect_drops_written_items_when_a_chunk_panics() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
        let result = std::panic::catch_unwind(|| {
            pool4().install(|| {
                (0..20_000usize)
                    .into_par_iter()
                    .map(|i| {
                        assert!(i != 15_000, "boom");
                        CREATED.fetch_add(1, Ordering::Relaxed);
                        Counted
                    })
                    .collect::<Vec<Counted>>()
            })
        });
        assert!(result.is_err());
        // Every item that was constructed — in completed chunks, and in the
        // panicking chunk's partial prefix — was dropped, not leaked in the
        // abandoned output buffer.
        assert_eq!(
            CREATED.load(Ordering::Relaxed),
            DROPPED.load(Ordering::Relaxed)
        );
        assert!(CREATED.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn with_min_len_fans_out_small_heavy_inputs() {
        // 64 items is below the default minimum chunk length; with_min_len(1)
        // must still produce the right answer (and allows fan-out).
        let total: usize = pool4().install(|| {
            (0..64usize)
                .into_par_iter()
                .with_min_len(1)
                .map(|i| (0..1000).map(|j| (i * j) % 7).sum::<usize>())
                .sum()
        });
        let seq: usize = (0..64)
            .map(|i| (0..1000).map(|j| (i * j) % 7).sum::<usize>())
            .sum();
        assert_eq!(total, seq);
    }

    #[test]
    fn install_width_bounds_worker_participation() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Grow the global pool to 4 workers first; a narrower install
        // afterwards must still be staffed by at most its own width.
        pool4().install(|| (0..100_000usize).into_par_iter().for_each(|_| {}));
        let pool2 = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let tids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool2.install(|| {
            (0..64usize).into_par_iter().with_min_len(1).for_each(|i| {
                tids.lock().unwrap().insert(std::thread::current().id());
                // Enough per-chunk work that extra workers would have
                // time to (incorrectly) join the batch.
                std::hint::black_box((0..20_000u64).map(|j| j ^ i as u64).sum::<u64>());
            });
        });
        let distinct = tids.lock().unwrap().len();
        assert!(distinct <= 2, "width-2 install ran on {distinct} threads");
    }

    #[test]
    fn current_num_threads_inside_chunks_matches_install_width() {
        // Grow the pool beyond the width we then install.
        pool4().install(|| (0..100_000usize).into_par_iter().for_each(|_| {}));
        let pool2 = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let widths: Vec<usize> = pool2.install(|| {
            (0..64usize)
                .into_par_iter()
                .with_min_len(1)
                .map(|_| crate::current_num_threads())
                .collect()
        });
        assert!(widths.iter().all(|&w| w == 2), "observed widths {widths:?}");
    }

    #[test]
    fn fanout_cutoff_crossover_is_pinned() {
        pool4().install(|| {
            // Element-wise pipelines: inline strictly below the cutoff,
            // fanned out at and above it.
            assert!(!crate::would_fan_out(
                crate::FANOUT_MIN_ITEMS - 1,
                crate::DEFAULT_MIN_LEN
            ));
            assert!(crate::would_fan_out(
                crate::FANOUT_MIN_ITEMS,
                crate::DEFAULT_MIN_LEN
            ));
            // Heavy-item sources (chunked / explicit small min_len) keep
            // their fan-out even for short lengths.
            assert!(crate::would_fan_out(64, 1));
        });
        // Width 1 never fans out regardless of length.
        let pool1 = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool1.install(|| assert!(!crate::would_fan_out(1 << 20, crate::DEFAULT_MIN_LEN)));
    }

    #[test]
    fn below_cutoff_elementwise_calls_stay_on_the_caller_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let tids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool4().install(|| {
            (0..crate::FANOUT_MIN_ITEMS - 1)
                .into_par_iter()
                .for_each(|_| {
                    tids.lock().unwrap().insert(std::thread::current().id());
                });
        });
        let tids = tids.lock().unwrap();
        assert_eq!(tids.len(), 1, "below-cutoff call left the caller thread");
        assert!(tids.contains(&std::thread::current().id()));
    }

    #[test]
    fn results_identical_across_the_fanout_cutoff() {
        // The same computation just under and just over the cutoff, against
        // the sequential reference: the cutoff changes scheduling only.
        for n in [
            crate::FANOUT_MIN_ITEMS - 1,
            crate::FANOUT_MIN_ITEMS,
            crate::FANOUT_MIN_ITEMS + 1,
        ] {
            let want: Vec<usize> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
            let got: Vec<usize> = pool4().install(|| {
                (0..n)
                    .into_par_iter()
                    .map(|i| i.wrapping_mul(2654435761))
                    .collect()
            });
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<usize> = (0..0usize).into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        let empty: [u64; 0] = [];
        assert_eq!(empty.par_iter().sum::<u64>(), 0);
        assert_eq!(empty.par_iter().copied().min(), None);
        assert_eq!(empty.par_iter().copied().reduce_with(|a, b| a + b), None);
    }
}
