//! Chunk producers: the splittable data sources and lazy adaptors behind
//! [`ParIter`](crate::ParIter).
//!
//! A [`Producer`] spans `p_len()` *positions* and can materialise any
//! contiguous sub-range of them as a sequential iterator via
//! [`chunk`](Producer::chunk).  The executor partitions `0..p_len()` into
//! contiguous chunks, hands each chunk to one pool thread exactly once, and
//! combines the per-chunk results in chunk order — which is what makes every
//! combinator deterministic and order-preserving regardless of the thread
//! count.
//!
//! Adaptors (`Map`, `Filter`, `Enumerate`, `Zip`, `Cloned`, `Copied`) wrap a
//! base producer and transform its chunk iterators lazily; user closures are
//! shared across threads by reference, which is why the combinators demand
//! `Fn + Sync` rather than `FnMut`.
//!
//! [`IndexedProducer`] marks producers whose positions correspond 1:1 to
//! items (`chunk(s, e)` yields exactly `e - s` of them).  Position-sensitive
//! adaptors — `enumerate`, `zip` — are only available on indexed producers;
//! `filter` forfeits the marker.

use std::marker::PhantomData;

/// A splittable source of items: the executor materialises disjoint
/// sub-ranges of `0..p_len()` on different pool threads.
///
/// `Sync` is a supertrait because one producer is shared by reference with
/// every thread of a parallel call; `Item: Send` because chunk results move
/// back to the calling thread.
pub trait Producer: Sync {
    /// The element type produced.
    type Item: Send;

    /// The sequential iterator over one chunk of positions.
    type ChunkIter<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;

    /// Number of positions this producer spans.
    fn p_len(&self) -> usize;

    /// Whether `chunk(s, e)` yields exactly `e - s` items ([`Filter`] does
    /// not).  Exact producers allow write-in-place collection.
    fn exact(&self) -> bool {
        true
    }

    /// Materialises positions `start..end`.
    ///
    /// # Safety
    ///
    /// Over the lifetime of the producer, every position may be requested
    /// **at most once** across all calls (ranges must be disjoint).  Mutable
    /// sources rely on this to hand out exclusive references without
    /// synchronisation.
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_>;
}

/// Marker: positions correspond 1:1 to items, so global indices are
/// meaningful and equal-length pairing (`zip`) is well-defined.
pub trait IndexedProducer: Producer {}

// ------------------------------------------------------------------ sources

/// Producer for `Range<usize>`.
pub struct RangeProducer {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Producer for RangeProducer {
    type Item = usize;
    type ChunkIter<'a> = std::ops::Range<usize>;
    fn p_len(&self) -> usize {
        self.end - self.start
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        self.start + start..self.start + end
    }
}
impl IndexedProducer for RangeProducer {}

/// Producer for `&[T]` (shared references).
pub struct SliceProducer<'d, T> {
    pub(crate) slice: &'d [T],
}

impl<'d, T: Sync> Producer for SliceProducer<'d, T> {
    type Item = &'d T;
    type ChunkIter<'a>
        = std::slice::Iter<'d, T>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        self.slice[start..end].iter()
    }
}
impl<T: Sync> IndexedProducer for SliceProducer<'_, T> {}

/// Producer for `&mut [T]` (exclusive references).
///
/// Stored as a raw pointer so disjoint chunks can be materialised through a
/// shared `&self`; the [`Producer::chunk`] contract (each position at most
/// once) is exactly the no-aliasing argument.
pub struct SliceMutProducer<'d, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'d mut [T]>,
}

impl<'d, T> SliceMutProducer<'d, T> {
    pub(crate) fn new(slice: &'d mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }
}

// SAFETY: sharing the producer only enables handing out `&'d mut T` to
// *disjoint* elements (chunk contract), which is the same capability
// `&mut [T]: Send` grants; it requires `T: Send`.
unsafe impl<T: Send> Sync for SliceMutProducer<'_, T> {}

impl<'d, T: Send + 'd> Producer for SliceMutProducer<'d, T> {
    type Item = &'d mut T;
    type ChunkIter<'a>
        = std::slice::IterMut<'d, T>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.len
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        debug_assert!(start <= end && end <= self.len);
        // SAFETY: in-bounds by the executor's partition; exclusive by the
        // chunk contract; lifetime 'd matches the borrow we were built from.
        let sub: &'d mut [T] =
            unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) };
        sub.iter_mut()
    }
}
impl<'d, T: Send + 'd> IndexedProducer for SliceMutProducer<'d, T> {}

/// Producer for `slice.par_chunks(size)`: each position is one sub-slice.
pub struct ChunksProducer<'d, T> {
    pub(crate) slice: &'d [T],
    pub(crate) size: usize,
}

impl<'d, T: Sync> Producer for ChunksProducer<'d, T> {
    type Item = &'d [T];
    type ChunkIter<'a>
        = std::slice::Chunks<'d, T>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        let lo = start * self.size;
        let hi = (end * self.size).min(self.slice.len());
        self.slice[lo..hi].chunks(self.size)
    }
}
impl<T: Sync> IndexedProducer for ChunksProducer<'_, T> {}

/// Producer for `slice.par_chunks_mut(size)`.
pub struct ChunksMutProducer<'d, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'d mut [T]>,
}

impl<'d, T> ChunksMutProducer<'d, T> {
    pub(crate) fn new(slice: &'d mut [T], size: usize) -> Self {
        assert!(size > 0, "chunk size must be non-zero");
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            size,
            _marker: PhantomData,
        }
    }
}

// SAFETY: as for `SliceMutProducer` — disjoint exclusive sub-slices only.
unsafe impl<T: Send> Sync for ChunksMutProducer<'_, T> {}

impl<'d, T: Send + 'd> Producer for ChunksMutProducer<'d, T> {
    type Item = &'d mut [T];
    type ChunkIter<'a>
        = std::slice::ChunksMut<'d, T>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        let lo = start * self.size;
        let hi = (end * self.size).min(self.len);
        debug_assert!(lo <= hi);
        // SAFETY: disjoint in-bounds range (chunk contract), lifetime 'd.
        let sub: &'d mut [T] = unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) };
        sub.chunks_mut(self.size)
    }
}
impl<'d, T: Send + 'd> IndexedProducer for ChunksMutProducer<'d, T> {}

// ----------------------------------------------------------------- adaptors

/// Lazy `map` adaptor; the closure is shared across threads by reference.
pub struct MapProducer<P, F> {
    pub(crate) base: P,
    pub(crate) f: F,
}

impl<P, F, B> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> B + Sync,
    B: Send,
{
    type Item = B;
    type ChunkIter<'a>
        = std::iter::Map<P::ChunkIter<'a>, &'a F>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn exact(&self) -> bool {
        self.base.exact()
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        // SAFETY: forwards the contract unchanged.
        unsafe { self.base.chunk(start, end) }.map(&self.f)
    }
}
impl<P, F, B> IndexedProducer for MapProducer<P, F>
where
    P: IndexedProducer,
    F: Fn(P::Item) -> B + Sync,
    B: Send,
{
}

/// Lazy `filter` adaptor.  Positions still index the *base* items, so the
/// producer is no longer [`IndexedProducer`] and `exact()` is false.
pub struct FilterProducer<P, F> {
    pub(crate) base: P,
    pub(crate) f: F,
}

impl<P, F> Producer for FilterProducer<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Sync,
{
    type Item = P::Item;
    type ChunkIter<'a>
        = std::iter::Filter<P::ChunkIter<'a>, &'a F>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn exact(&self) -> bool {
        false
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        // SAFETY: forwards the contract unchanged.
        unsafe { self.base.chunk(start, end) }.filter(&self.f)
    }
}

/// `enumerate` adaptor: pairs every item with its **global** index, which is
/// why it exists only for indexed producers.
pub struct EnumerateProducer<P> {
    pub(crate) base: P,
}

impl<P: IndexedProducer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type ChunkIter<'a>
        = std::iter::Zip<std::ops::Range<usize>, P::ChunkIter<'a>>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        // SAFETY: forwards the contract unchanged.
        (start..end).zip(unsafe { self.base.chunk(start, end) })
    }
}
impl<P: IndexedProducer> IndexedProducer for EnumerateProducer<P> {}

/// `zip` adaptor over two indexed producers, truncated to the shorter one.
pub struct ZipProducer<A, B> {
    pub(crate) a: A,
    pub(crate) b: B,
}

impl<A: IndexedProducer, B: IndexedProducer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type ChunkIter<'a>
        = std::iter::Zip<A::ChunkIter<'a>, B::ChunkIter<'a>>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.a.p_len().min(self.b.p_len())
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        // SAFETY: both sides receive the same disjoint ranges; indexed
        // producers yield exactly end-start items, so the pairing is exact.
        unsafe { self.a.chunk(start, end).zip(self.b.chunk(start, end)) }
    }
}
impl<A: IndexedProducer, B: IndexedProducer> IndexedProducer for ZipProducer<A, B> {}

/// `cloned` adaptor over a producer of references.
pub struct ClonedProducer<P> {
    pub(crate) base: P,
}

impl<'d, T, P> Producer for ClonedProducer<P>
where
    T: Clone + Send + Sync + 'd,
    P: Producer<Item = &'d T>,
{
    type Item = T;
    type ChunkIter<'a>
        = std::iter::Cloned<P::ChunkIter<'a>>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn exact(&self) -> bool {
        self.base.exact()
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        // SAFETY: forwards the contract unchanged.
        unsafe { self.base.chunk(start, end) }.cloned()
    }
}
impl<'d, T, P> IndexedProducer for ClonedProducer<P>
where
    T: Clone + Send + Sync + 'd,
    P: IndexedProducer<Item = &'d T>,
{
}

/// `copied` adaptor over a producer of references.
pub struct CopiedProducer<P> {
    pub(crate) base: P,
}

impl<'d, T, P> Producer for CopiedProducer<P>
where
    T: Copy + Send + Sync + 'd,
    P: Producer<Item = &'d T>,
{
    type Item = T;
    type ChunkIter<'a>
        = std::iter::Copied<P::ChunkIter<'a>>
    where
        Self: 'a;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn exact(&self) -> bool {
        self.base.exact()
    }
    unsafe fn chunk(&self, start: usize, end: usize) -> Self::ChunkIter<'_> {
        // SAFETY: forwards the contract unchanged.
        unsafe { self.base.chunk(start, end) }.copied()
    }
}
impl<'d, T, P> IndexedProducer for CopiedProducer<P>
where
    T: Copy + Send + Sync + 'd,
    P: IndexedProducer<Item = &'d T>,
{
}
