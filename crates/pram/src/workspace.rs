//! The reusable solver workspace: typed buffer pools and epoch marks.
//!
//! Every NC algorithm in this repository is a pipeline of synchronous
//! rounds over dense arrays, and until this module existed each call heap-
//! allocated all of its scratch from scratch — pointer-jumping double
//! buffers, CSR offset arrays, liveness flags, match arrays.  A
//! [`Workspace`] owns that scratch instead: buffers are *checked out* with
//! the `take_*` methods (a cleared, resized `Vec` whose capacity survives
//! from the last checkout) and *returned* with the `put_*` methods when the
//! algorithm is done with them.  A solver that keeps one workspace alive
//! across requests therefore performs **zero heap allocations on a warm
//! solve**: every `take` is a `clear` + in-capacity `resize`, every `put`
//! pushes onto a free list that already has room.
//!
//! # Checkout discipline
//!
//! * `take_*(len, fill)` hands out a buffer of exactly `len` elements, all
//!   set to `fill`.  `take_*_empty()` hands out a zero-length buffer for
//!   push-style accumulation (its capacity also survives reuse).
//! * Buffers must be `put_*` back before the solve returns, in any order;
//!   the pools are plain LIFO free lists.  A buffer that is *not* returned
//!   is simply dropped — correctness is unaffected, the next checkout just
//!   re-allocates.
//! * Nested checkouts are fine (the pools are per-type `Vec<Vec<T>>`), and
//!   algorithms at different layers (`pm_pram`, `pm_graph`, `pm_popular`)
//!   share one workspace so the same slabs back every phase of a pipeline.
//!
//! # Epoch clearing
//!
//! Sparse "have I seen this id?" sets are served by [`EpochMarks`], which
//! clears in O(1) by bumping a generation counter instead of rewriting the
//! array — the pattern the instance validator uses for duplicate detection,
//! made reusable across solves.
//!
//! # Panic poisoning
//!
//! A panic that unwinds through a solve leaves checked-out buffers
//! unreturned and half-written — the pool itself stays memory-safe, but the
//! *contents* of anything later handed back out are garbage relative to the
//! interrupted algorithm's invariants.  The serving layer brackets every
//! solve with [`begin_epoch`](Workspace::begin_epoch) /
//! [`end_epoch`](Workspace::end_epoch): if a panic skips the `end_epoch`,
//! the next `begin_epoch` observes the still-open epoch, sets a permanent
//! poison flag (and fires a debug assertion), and the solver refuses
//! further work with a typed error instead of silently serving from dirty
//! state.  Recovery is by discarding the workspace and rebuilding — exactly
//! what `pm_serve` does after `catch_unwind` traps a solve panic.

use std::sync::atomic::AtomicU32;

use crate::idx::Idx;

/// A free list of reusable `Vec<T>` buffers (one per element type held by a
/// [`Workspace`]), kept sorted by capacity.
///
/// Checkouts are **best-fit**: `take(len, _)` hands out the smallest free
/// buffer whose capacity already covers `len`; when nothing fits it
/// allocates fresh (on the calloc fast path for zero fills) and leaves the
/// undersized buffers pooled for smaller roles, so a stream of growing
/// request sizes converges with at most one resident buffer per (role,
/// largest-size) pair.  `take_empty` hands out the largest free buffer
/// (push-style roles grow to data-dependent sizes, so they get first claim
/// on big slabs).  Best-fit matters: a plain LIFO stack rotates buffers
/// through roles across otherwise-identical solves, re-pairing small
/// buffers with large roles for many warm-up iterations, whereas best-fit
/// reaches the zero-allocation steady state after a couple of warm calls.
#[derive(Debug, Default)]
struct BufPool<T> {
    free: Vec<Vec<T>>,
}

impl<T: Clone> BufPool<T> {
    fn take(&mut self, len: usize, fill: T) -> Vec<T> {
        match self.pop_fitting(len) {
            Some(mut v) => {
                v.clear();
                v.resize(len, fill);
                v
            }
            // Cold checkout: `from_elem` hits the `alloc_zeroed` fast path
            // for zero fills (lazily-zeroed pages, no explicit memset) —
            // the same allocation profile the pre-workspace code had, so
            // the one-shot free functions stay as fast as ever.
            None => vec![fill; len],
        }
    }

    /// Best-fit pop: the smallest free buffer whose capacity covers `len`,
    /// or `None` when nothing fits (the caller allocates fresh; undersized
    /// buffers stay pooled for smaller roles).
    fn pop_fitting(&mut self, len: usize) -> Option<Vec<T>> {
        let idx = self.free.iter().position(|v| v.capacity() >= len)?;
        Some(self.free.remove(idx))
    }

    /// Like `take`, but the contents are **unspecified** (stale data from
    /// earlier checkouts); only the length is guaranteed.  For roles that
    /// overwrite every slot before reading — skips the O(len) fill.
    fn take_dirty(&mut self, len: usize, fill: T) -> Vec<T> {
        match self.pop_fitting(len) {
            Some(mut v) => {
                if v.len() > len {
                    v.truncate(len);
                } else {
                    // In-capacity resize: only the gap beyond the stale
                    // length is filled.
                    v.resize(len, fill);
                }
                v
            }
            None => vec![fill; len],
        }
    }

    fn take_empty(&mut self) -> Vec<T> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v
    }

    fn put(&mut self, v: Vec<T>) {
        let at = self
            .free
            .iter()
            .position(|f| f.capacity() >= v.capacity())
            .unwrap_or(self.free.len());
        self.free.insert(at, v);
    }
}

macro_rules! pool_methods {
    ($take:ident, $take_empty:ident, $take_dirty:ident, $put:ident, $field:ident, $ty:ty) => {
        /// Checks out a buffer of `len` elements, all set to `fill`.
        pub fn $take(&mut self, len: usize, fill: $ty) -> Vec<$ty> {
            self.$field.take(len, fill)
        }

        /// Checks out an empty buffer (capacity reused) for push-style fills.
        pub fn $take_empty(&mut self) -> Vec<$ty> {
            self.$field.take_empty()
        }

        /// Checks out a buffer of `len` elements with **unspecified**
        /// contents (stale data from an earlier checkout; `fill` is used
        /// only to extend a too-short buffer).  Strictly for roles that
        /// write every slot before reading it — skips the O(len) fill of
        /// the clean variant.
        pub fn $take_dirty(&mut self, len: usize, fill: $ty) -> Vec<$ty> {
            self.$field.take_dirty(len, fill)
        }

        /// Returns a buffer to the pool for the next checkout.
        pub fn $put(&mut self, v: Vec<$ty>) {
            self.$field.put(v);
        }
    };
}

/// A slab of typed, reusable scratch buffers shared by every layer of the
/// solver pipeline (see the module docs for the checkout discipline).
#[derive(Debug, Default)]
pub struct Workspace {
    bools: BufPool<bool>,
    // The 32-bit pools of the narrowed hot path (DESIGN.md §7): indices and
    // sentinel arrays are `Idx`, counts/distances are `u32`, margins are
    // `i32`, edge lists are `(Idx, Idx)`.
    idxs: BufPool<Idx>,
    u32s: BufPool<u32>,
    i32s: BufPool<i32>,
    idx_pairs: BufPool<(Idx, Idx)>,
    atomics_u32: Vec<Vec<AtomicU32>>,
    // Panic-poisoning state (see the module docs): `epoch_open` is true
    // between `begin_epoch` and `end_epoch`; `poisoned` latches permanently
    // once a begin observes a still-open epoch (a panic unwound a solve).
    epoch_open: bool,
    poisoned: bool,
}

impl Workspace {
    /// Creates an empty workspace; buffers are allocated lazily on first
    /// checkout and reused forever after.
    pub fn new() -> Self {
        Self::default()
    }

    pool_methods!(
        take_bool,
        take_bool_empty,
        take_bool_dirty,
        put_bool,
        bools,
        bool
    );
    pool_methods!(take_idx, take_idx_empty, take_idx_dirty, put_idx, idxs, Idx);
    pool_methods!(take_u32, take_u32_empty, take_u32_dirty, put_u32, u32s, u32);
    pool_methods!(take_i32, take_i32_empty, take_i32_dirty, put_i32, i32s, i32);
    pool_methods!(
        take_idx_pair,
        take_idx_pair_empty,
        take_idx_pair_dirty,
        put_idx_pair,
        idx_pairs,
        (Idx, Idx)
    );

    /// Checks out a buffer of `len` `AtomicU32`s initialised to the identity
    /// permutation (`v[i] == i`) — the shape the connected-components
    /// hooking loop starts from.  Atomics are not `Clone`, so this pool
    /// refills by pushing within the retained capacity.
    ///
    /// # Panics
    /// Debug builds panic if `len` exceeds `u32` range (the instance-size
    /// funnel makes that unreachable on the solve path).
    pub fn take_atomic_u32_identity(&mut self, len: usize) -> Vec<AtomicU32> {
        debug_assert!(len <= Idx::MAX_INDEX + 1);
        let mut v = self.atomics_u32.pop().unwrap_or_default();
        v.clear();
        v.reserve(len);
        for i in 0..len as u32 {
            v.push(AtomicU32::new(i));
        }
        v
    }

    /// Returns a 32-bit atomic buffer to the pool.
    pub fn put_atomic_u32(&mut self, v: Vec<AtomicU32>) {
        self.atomics_u32.push(v);
    }

    /// Opens a solve epoch (see the module docs on panic poisoning).
    ///
    /// If the previous epoch was never closed — a panic unwound the solve
    /// that opened it — the workspace is permanently poisoned and a debug
    /// assertion fires; release builds record the same condition in the
    /// O(1) [`is_poisoned`](Self::is_poisoned) flag.  Callers that must
    /// stay panic-free on the detection path (the serving layer) should
    /// test [`epoch_open`](Self::epoch_open)/[`is_poisoned`] *before*
    /// calling this.
    pub fn begin_epoch(&mut self) {
        if self.epoch_open {
            self.poisoned = true;
            debug_assert!(
                false,
                "workspace epoch reopened: a panic unwound the previous solve, \
                 its checked-out buffers are inconsistent — discard this workspace"
            );
        }
        self.epoch_open = true;
    }

    /// Closes the current solve epoch.  Must run on every non-panicking
    /// exit path of a solve (typed errors included).
    pub fn end_epoch(&mut self) {
        self.epoch_open = false;
    }

    /// True while a solve epoch is open.  An open epoch observed *between*
    /// solves means the last solve panicked before its `end_epoch`.
    pub fn epoch_open(&self) -> bool {
        self.epoch_open
    }

    /// True once the workspace has been caught reopening an unclosed epoch:
    /// pooled buffer contents can no longer be trusted and the workspace
    /// must be discarded.  The flag latches — there is deliberately no way
    /// to clear it short of rebuilding.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// A sparse membership set over `0..capacity` with O(1) clearing: an entry
/// is *in* the set iff its stamp equals the current epoch, so `clear` is a
/// single counter bump and the backing array is written only where the set
/// is actually used.
#[derive(Debug, Default)]
pub struct EpochMarks {
    stamp: Vec<u64>,
    epoch: u64,
}

impl EpochMarks {
    /// Creates an empty mark set over an empty domain; grow with
    /// [`reset`](Self::reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the set and (re)sizes the domain to `capacity`.  Growing past
    /// the retained capacity is the only operation that allocates.
    pub fn reset(&mut self, capacity: usize) {
        self.epoch += 1;
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
        }
        if self.epoch == u64::MAX {
            // Unreachable in practice; kept for paranoia so a wrapped epoch
            // can never alias a stale stamp.
            self.stamp.clear();
            self.stamp.resize(capacity, 0);
            self.epoch = 1;
        }
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    /// True iff `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

/// A sparse `id -> u32` map over `0..capacity` with O(1) clearing — the
/// value-carrying sibling of [`EpochMarks`].  An entry is *present* iff its
/// stamp equals the current epoch, so `reset` is a single counter bump and
/// the backing arrays are written only where the map is actually used.
///
/// This is the remap table of the incremental solver: a component shard
/// renumbers its (sparse, global) post ids into a dense `0..k` id space
/// before handing the slice to the solve kernels, and a stamped map lets
/// every shard start from a logically-empty table without an O(total)
/// clear or a per-shard hash map allocation.
#[derive(Debug, Default)]
pub struct EpochMap {
    stamp: Vec<u64>,
    val: Vec<u32>,
    epoch: u64,
}

impl EpochMap {
    /// Creates an empty map over an empty domain; grow with
    /// [`reset`](Self::reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the map and (re)sizes the domain to `capacity`.  Growing past
    /// the retained capacity is the only operation that allocates.
    pub fn reset(&mut self, capacity: usize) {
        self.epoch += 1;
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.val.resize(capacity, 0);
        }
        if self.epoch == u64::MAX {
            // Unreachable in practice; kept so a wrapped epoch can never
            // alias a stale stamp (same paranoia as EpochMarks).
            self.stamp.clear();
            self.stamp.resize(capacity, 0);
            self.epoch = 1;
        }
    }

    /// Sets `key -> value`, overwriting any current-epoch entry.
    pub fn set(&mut self, key: usize, value: u32) {
        self.stamp[key] = self.epoch;
        self.val[key] = value;
    }

    /// The value mapped to `key` this epoch, if any.
    pub fn get(&self, key: usize) -> Option<u32> {
        (self.stamp[key] == self.epoch).then(|| self.val[key])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_cleared_filled_buffer() {
        let mut ws = Workspace::new();
        let mut v = ws.take_u32(4, 7);
        assert_eq!(v, vec![7, 7, 7, 7]);
        v[0] = 99;
        ws.put_u32(v);
        // The next checkout must not observe stale contents.
        let v = ws.take_u32(6, 1);
        assert_eq!(v, vec![1; 6]);
        ws.put_u32(v);
    }

    #[test]
    fn dirty_take_has_right_length_and_skips_fill() {
        let mut ws = Workspace::new();
        let mut v = ws.take_u32(8, 42);
        v[0] = 7;
        ws.put_u32(v);
        // Same length back: contents are stale, length is exact.
        let v = ws.take_u32_dirty(8, 0);
        assert_eq!(v.len(), 8);
        assert_eq!(v[0], 7, "dirty take must not refill");
        ws.put_u32(v);
        // Shorter request truncates; longer request extends with the fill.
        let v = ws.take_u32_dirty(3, 0);
        assert_eq!(v.len(), 3);
        ws.put_u32(v);
        let v = ws.take_u32_dirty(20, 5);
        assert_eq!(v.len(), 20);
        assert_eq!(v[19], 5);
        ws.put_u32(v);
    }

    #[test]
    fn best_fit_checkout_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take_u32(10, 0);
        let big = ws.take_u32(1000, 0);
        let (small_cap, big_cap) = (small.capacity(), big.capacity());
        ws.put_u32(big);
        ws.put_u32(small);
        // A mid-size request must take the big buffer, not grow the small one.
        let v = ws.take_u32(500, 0);
        assert!(v.capacity() >= big_cap.min(1000));
        ws.put_u32(v);
        // A small request takes the small buffer even though the big one
        // was returned more recently.
        let v = ws.take_u32(5, 0);
        assert!(v.capacity() < 1000 || small_cap >= 1000);
        ws.put_u32(v);
    }

    #[test]
    fn capacity_survives_reuse() {
        let mut ws = Workspace::new();
        let v = ws.take_u32(1000, 0);
        let cap = v.capacity();
        ws.put_u32(v);
        let v = ws.take_u32(500, 3);
        assert!(v.capacity() >= cap, "capacity must be retained");
        assert_eq!(v.len(), 500);
        ws.put_u32(v);
    }

    #[test]
    fn pools_are_per_type_and_nestable() {
        let mut ws = Workspace::new();
        let a = ws.take_bool(3, true);
        let b = ws.take_bool(2, false);
        let c = ws.take_i32(2, -1);
        assert_eq!(a, vec![true; 3]);
        assert_eq!(b, vec![false; 2]);
        assert_eq!(c, vec![-1; 2]);
        ws.put_bool(a);
        ws.put_bool(b);
        ws.put_i32(c);
        let p = ws.take_idx_pair_empty();
        assert!(p.is_empty());
        ws.put_idx_pair(p);
        let o = ws.take_idx(2, Idx::NONE);
        assert_eq!(o, vec![Idx::NONE, Idx::NONE]);
        ws.put_idx(o);
    }

    #[test]
    fn atomic_identity_checkout() {
        use std::sync::atomic::Ordering;
        let mut ws = Workspace::new();
        let v = ws.take_atomic_u32_identity(5);
        assert_eq!(v.len(), 5);
        for (i, a) in v.iter().enumerate() {
            assert_eq!(a.load(Ordering::Relaxed) as usize, i);
        }
        v[2].store(77, Ordering::Relaxed);
        ws.put_atomic_u32(v);
        let v = ws.take_atomic_u32_identity(3);
        assert_eq!(v[2].load(Ordering::Relaxed), 2, "reinitialised on take");
        ws.put_atomic_u32(v);
    }

    #[test]
    fn narrow_pools_are_independent() {
        use std::sync::atomic::Ordering;
        let mut ws = Workspace::new();
        let a = ws.take_idx(3, Idx::NONE);
        assert_eq!(a, vec![Idx::NONE; 3]);
        let b = ws.take_u32(2, 7);
        assert_eq!(b, vec![7, 7]);
        let c = ws.take_i32(2, -3);
        assert_eq!(c, vec![-3, -3]);
        let d = ws.take_idx_pair_empty();
        assert!(d.is_empty());
        ws.put_idx(a);
        ws.put_u32(b);
        ws.put_i32(c);
        ws.put_idx_pair(d);
        let v = ws.take_atomic_u32_identity(4);
        assert_eq!(v[3].load(Ordering::Relaxed), 3);
        v[1].store(99, Ordering::Relaxed);
        ws.put_atomic_u32(v);
        let v = ws.take_atomic_u32_identity(2);
        assert_eq!(v[1].load(Ordering::Relaxed), 1, "reinitialised on take");
        ws.put_atomic_u32(v);
    }

    #[test]
    fn panic_inside_epoch_poisons_the_workspace() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut ws = Workspace::new();

        // A clean solve: epoch opens, buffers cycle, epoch closes.
        ws.begin_epoch();
        let v = ws.take_idx(4, Idx::NONE);
        ws.put_idx(v);
        ws.end_epoch();
        assert!(!ws.epoch_open());
        assert!(!ws.is_poisoned());

        // A solve that panics mid-flight: the checkout is never returned
        // and `end_epoch` never runs.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            ws.begin_epoch();
            let _buf = ws.take_u32(8, 0);
            panic!("injected solve panic");
        }));
        assert!(unwound.is_err());
        assert!(ws.epoch_open(), "the unwound epoch must still be open");
        assert!(
            !ws.is_poisoned(),
            "poison latches on the *next* begin, when reuse is attempted"
        );

        // The next solve attempt detects the inconsistent state.  In debug
        // builds the detection is an assertion (caught here); either way
        // the release-mode flag is set before the assertion fires.
        let reuse = catch_unwind(AssertUnwindSafe(|| ws.begin_epoch()));
        assert_eq!(
            reuse.is_err(),
            cfg!(debug_assertions),
            "debug builds assert on reuse, release builds only set the flag"
        );
        assert!(ws.is_poisoned(), "reuse after a panic must poison");
        // Poison latches: closing the epoch does not clear it.
        ws.end_epoch();
        assert!(ws.is_poisoned());
    }

    #[test]
    fn epoch_marks_clear_in_constant_time() {
        let mut m = EpochMarks::new();
        m.reset(10);
        assert!(m.insert(3));
        assert!(!m.insert(3));
        assert!(m.contains(3));
        assert!(!m.contains(4));
        m.reset(10);
        assert!(!m.contains(3), "reset must clear membership");
        assert!(m.insert(3));
    }

    #[test]
    fn epoch_map_clears_in_constant_time_and_overwrites() {
        let mut m = EpochMap::new();
        m.reset(8);
        assert_eq!(m.get(2), None);
        m.set(2, 41);
        m.set(2, 42);
        m.set(7, 9);
        assert_eq!(m.get(2), Some(42));
        assert_eq!(m.get(7), Some(9));
        assert_eq!(m.get(3), None);
        m.reset(8);
        assert_eq!(m.get(2), None, "reset must clear all entries");
        m.set(2, 1);
        assert_eq!(m.get(2), Some(1));
        // Growing the domain keeps earlier entries addressable.
        m.reset(16);
        m.set(15, 5);
        assert_eq!(m.get(15), Some(5));
        assert_eq!(m.get(2), None);
    }
}
