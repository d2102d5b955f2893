//! Parallel prefix scans (prefix sums).
//!
//! Prefix sums are the workhorse primitive of PRAM algorithms: the paper uses
//! them to compress soft-deleted preference lists in Algorithm 4 ("we can
//! compress the preference list using parallel prefix sum technique") and we
//! use them throughout for stream compaction and for assigning slots when
//! building graphs in parallel.
//!
//! The implementation is the standard two-pass blocked scan: the input is
//! divided into chunks, each chunk is reduced in parallel, the chunk totals
//! are scanned sequentially (there are only `O(n / chunk)` of them), and a
//! second parallel pass produces the final prefix values.  This is the
//! work-optimal O(n) / depth O(log n) scheme of Blelloch, with the depth
//! charged as two rounds on the [`DepthTracker`].

use rayon::prelude::*;

use crate::tracker::DepthTracker;
use crate::SEQUENTIAL_CUTOFF;

/// Generic exclusive prefix scan under an associative operation `op` with
/// identity `identity`.
///
/// Returns the vector of prefixes (`out[i] = op(x[0], ..., x[i-1])`, with
/// `out[0] = identity`) and the total reduction of the whole input.
///
/// The operation must be associative; it does not need to be commutative.
pub fn prefix_scan_exclusive<T, F>(
    xs: &[T],
    identity: T,
    op: F,
    tracker: &DepthTracker,
) -> (Vec<T>, T)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Send + Sync,
{
    tracker.work(xs.len() as u64);
    if xs.is_empty() {
        tracker.round();
        return (Vec::new(), identity);
    }
    if xs.len() < SEQUENTIAL_CUTOFF {
        tracker.round();
        return sequential_exclusive(xs, identity, &op);
    }

    let chunk = crate::par_chunk_len_bytes(xs.len(), std::mem::size_of::<T>());

    // Round 1: reduce each chunk in parallel.
    tracker.round();
    let chunk_totals: Vec<T> = xs
        .par_chunks(chunk)
        .map(|c| {
            let mut acc = c[0].clone();
            for x in &c[1..] {
                acc = op(&acc, x);
            }
            acc
        })
        .collect();

    // Sequential scan over the (few) chunk totals.
    let mut offsets = Vec::with_capacity(chunk_totals.len());
    let mut acc = identity.clone();
    for t in &chunk_totals {
        offsets.push(acc.clone());
        acc = op(&acc, t);
    }
    let total = acc;

    // Round 2: rescan each chunk in parallel, seeded with its offset.
    tracker.round();
    let mut out: Vec<T> = vec![identity; xs.len()];
    out.par_chunks_mut(chunk)
        .zip(xs.par_chunks(chunk))
        .zip(offsets.par_iter())
        .for_each(|((o, c), seed)| {
            let mut acc = seed.clone();
            for (oi, x) in o.iter_mut().zip(c.iter()) {
                *oi = acc.clone();
                acc = op(&acc, x);
            }
        });

    (out, total)
}

/// Generic inclusive prefix scan: `out[i] = op(x[0], ..., x[i])`.
pub fn prefix_scan_inclusive<T, F>(xs: &[T], identity: T, op: F, tracker: &DepthTracker) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Send + Sync,
{
    let (mut ex, _total) = prefix_scan_exclusive(xs, identity, &op, tracker);
    tracker.round();
    tracker.work(xs.len() as u64);
    ex.par_iter_mut().zip(xs.par_iter()).for_each(|(e, x)| {
        *e = op(e, x);
    });
    ex
}

/// Exclusive prefix sum over `u64` values; returns the prefixes and the total.
pub fn prefix_sum_exclusive(xs: &[u64], tracker: &DepthTracker) -> (Vec<u64>, u64) {
    prefix_scan_exclusive(xs, 0u64, |a, b| a + b, tracker)
}

/// Inclusive prefix sum over `u64` values.
pub fn prefix_sum_inclusive(xs: &[u64], tracker: &DepthTracker) -> Vec<u64> {
    prefix_scan_inclusive(xs, 0u64, |a, b| a + b, tracker)
}

/// CSR row-boundary array for the given per-row counts: writes the
/// `counts.len() + 1` offsets into `out` (capacity reused), with `out[i]`
/// the start of row `i` and `out[n]` the total, and returns the total.  Row
/// `i`'s slice of the flat payload is `flat[out[i]..out[i + 1]]` — the form
/// every flat adjacency builder in the workspace consumes.
///
/// Counts, offsets and the chunk scratch are all 4-byte.  `chunk_scratch`
/// holds the per-chunk totals of the blocked parallel path — hand both
/// buffers out of a [`crate::Workspace`] and a warm call performs no heap
/// allocation.
///
/// # Panics
///
/// Panics if the grand total overflows `u32` (unreachable behind the
/// instance-size funnel).
pub fn csr_offsets_into_u32(
    counts: &[u32],
    out: &mut Vec<u32>,
    chunk_scratch: &mut Vec<u32>,
    tracker: &DepthTracker,
) -> usize {
    let len = counts.len();
    tracker.work(len as u64);
    if len < SEQUENTIAL_CUTOFF {
        tracker.round();
        out.clear();
        out.reserve(len + 1);
        let mut acc = 0u32;
        for &c in counts {
            out.push(acc);
            acc = acc.checked_add(c).expect("u32 CSR total overflow");
        }
        out.push(acc);
        return acc as usize;
    }

    let chunk = crate::par_chunk_len_bytes(len, std::mem::size_of::<u32>());
    let n_chunks = len.div_ceil(chunk);

    // Round 1: per-chunk totals, written in place (no collect).
    tracker.round();
    chunk_scratch.clear();
    chunk_scratch.resize(n_chunks, 0);
    chunk_scratch
        .par_iter_mut()
        .enumerate()
        .with_min_len(1)
        .for_each(|(ci, t)| {
            let s = ci * chunk;
            let e = ((ci + 1) * chunk).min(len);
            let sum: u64 = counts[s..e].iter().map(|&c| u64::from(c)).sum();
            *t = u32::try_from(sum).expect("u32 CSR chunk-total overflow");
        });

    // Sequential exclusive scan over the (few) chunk totals.
    let mut acc = 0u32;
    for t in chunk_scratch.iter_mut() {
        let c = *t;
        *t = acc;
        acc = acc.checked_add(c).expect("u32 CSR total overflow");
    }
    let total = acc;

    // Round 2: rescan each chunk seeded with its offset.
    tracker.round();
    let out_len = len + 1;
    if out.capacity() < out_len {
        // Cold: a fresh zeroed buffer (calloc fast path) beats growing and
        // memsetting the old one; every cell is overwritten below anyway.
        *out = vec![0; out_len];
    } else {
        out.clear();
        out.resize(out_len, 0);
    }
    out[..len]
        .par_chunks_mut(chunk)
        .zip(counts.par_chunks(chunk))
        .zip(chunk_scratch.par_iter())
        .for_each(|((o, c), &seed)| {
            let mut acc = seed;
            for (oi, &ci) in o.iter_mut().zip(c.iter()) {
                *oi = acc;
                acc += ci;
            }
        });
    out[len] = total;
    total as usize
}

/// The degree statistics a fused offsets-plus-census scan reports: how many
/// rows have a non-zero count and how many have a count of exactly one.
/// These are the two numbers Algorithm 2's degree-1 peeling loop needs to
/// seed its incremental liveness bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegreeCensus {
    /// Number of rows whose count is non-zero.
    pub nonzero: usize,
    /// Number of rows whose count is exactly one.
    pub ones: usize,
}

/// Fused twin of [`csr_offsets_into_u32`]: builds the CSR row boundaries
/// *and*, in the same sweeps over `counts`, writes `alive[i] = counts[i] != 0`
/// and tallies the [`DegreeCensus`].  The unfused formulation pays a third
/// full traversal of `counts` for the census; here the census rides the scan
/// rounds for free, so each round reads the counts array exactly once.
///
/// Work/depth accounting is bit-identical to [`csr_offsets_into_u32`]: the
/// census is a fused by-product, not an extra PRAM step (the unfused callers
/// never charged their census loop separately).  The census tallies are
/// accumulated with commutative relaxed adds, so they are deterministic at
/// every thread count.  Returns the grand total and the census.
///
/// # Panics
///
/// `alive.len()` must equal `counts.len()`.
pub fn csr_offsets_census_into_u32(
    counts: &[u32],
    out: &mut Vec<u32>,
    chunk_scratch: &mut Vec<u32>,
    alive: &mut [bool],
    tracker: &DepthTracker,
) -> (usize, DegreeCensus) {
    let len = counts.len();
    assert_eq!(alive.len(), len, "alive/counts length mismatch");
    tracker.work(len as u64);
    if len < SEQUENTIAL_CUTOFF {
        tracker.round();
        out.clear();
        out.reserve(len + 1);
        let mut acc = 0u32;
        let mut census = DegreeCensus::default();
        for (&c, al) in counts.iter().zip(alive.iter_mut()) {
            out.push(acc);
            acc = acc.checked_add(c).expect("u32 CSR total overflow");
            *al = c != 0;
            census.nonzero += usize::from(c != 0);
            census.ones += usize::from(c == 1);
        }
        out.push(acc);
        return (acc as usize, census);
    }

    let chunk = crate::par_chunk_len_bytes(len, std::mem::size_of::<u32>());
    let n_chunks = len.div_ceil(chunk);

    // Round 1: per-chunk totals, written in place (identical to the unfused
    // scan — the census rides round 2, where the counts are re-read anyway).
    tracker.round();
    chunk_scratch.clear();
    chunk_scratch.resize(n_chunks, 0);
    chunk_scratch
        .par_iter_mut()
        .enumerate()
        .with_min_len(1)
        .for_each(|(ci, t)| {
            let s = ci * chunk;
            let e = ((ci + 1) * chunk).min(len);
            let sum: u64 = counts[s..e].iter().map(|&c| u64::from(c)).sum();
            *t = u32::try_from(sum).expect("u32 CSR chunk-total overflow");
        });

    // Sequential exclusive scan over the (few) chunk totals.
    let mut acc = 0u32;
    for t in chunk_scratch.iter_mut() {
        let c = *t;
        *t = acc;
        acc = acc.checked_add(c).expect("u32 CSR total overflow");
    }
    let total = acc;

    // Round 2: rescan each chunk seeded with its offset, with the liveness
    // flags and the census folded into the same pass.
    tracker.round();
    let nonzero = std::sync::atomic::AtomicUsize::new(0);
    let ones = std::sync::atomic::AtomicUsize::new(0);
    let out_len = len + 1;
    if out.capacity() < out_len {
        *out = vec![0; out_len];
    } else {
        out.clear();
        out.resize(out_len, 0);
    }
    out[..len]
        .par_chunks_mut(chunk)
        .zip(counts.par_chunks(chunk))
        .zip(alive.par_chunks_mut(chunk))
        .zip(chunk_scratch.par_iter())
        .for_each(|(((o, c), al), &seed)| {
            let mut acc = seed;
            let mut nz = 0usize;
            let mut on = 0usize;
            for ((oi, &ci), ai) in o.iter_mut().zip(c.iter()).zip(al.iter_mut()) {
                *oi = acc;
                acc += ci;
                *ai = ci != 0;
                nz += usize::from(ci != 0);
                on += usize::from(ci == 1);
            }
            nonzero.fetch_add(nz, std::sync::atomic::Ordering::Relaxed);
            ones.fetch_add(on, std::sync::atomic::Ordering::Relaxed);
        });
    out[len] = total;
    let census = DegreeCensus {
        nonzero: nonzero.into_inner(),
        ones: ones.into_inner(),
    };
    (total as usize, census)
}

fn sequential_exclusive<T, F>(xs: &[T], identity: T, op: &F) -> (Vec<T>, T)
where
    T: Clone,
    F: Fn(&T, &T) -> T,
{
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = identity;
    for x in xs {
        out.push(acc.clone());
        acc = op(&acc, x);
    }
    (out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_exclusive(xs: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn empty_input() {
        let t = DepthTracker::new();
        let (p, total) = prefix_sum_exclusive(&[], &t);
        assert!(p.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_element() {
        let t = DepthTracker::new();
        let (p, total) = prefix_sum_exclusive(&[7], &t);
        assert_eq!(p, vec![0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn small_matches_naive() {
        let t = DepthTracker::new();
        let xs = vec![3, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(prefix_sum_exclusive(&xs, &t), naive_exclusive(&xs));
    }

    #[test]
    fn large_matches_naive() {
        let t = DepthTracker::new();
        let xs: Vec<u64> = (0..100_000).map(|i| (i * 2654435761u64) % 97).collect();
        assert_eq!(prefix_sum_exclusive(&xs, &t), naive_exclusive(&xs));
        // Large input goes through the two-round blocked path.
        assert!(t.stats().depth >= 2);
    }

    #[test]
    fn inclusive_is_exclusive_shifted() {
        let t = DepthTracker::new();
        let xs: Vec<u64> = (0..50_000).map(|i| i % 13).collect();
        let inc = prefix_sum_inclusive(&xs, &t);
        let (exc, total) = prefix_sum_exclusive(&xs, &t);
        for i in 0..xs.len() {
            assert_eq!(inc[i], exc[i] + xs[i]);
        }
        assert_eq!(*inc.last().unwrap(), total);
    }

    #[test]
    fn non_commutative_operation_string_concat() {
        // String concatenation is associative but not commutative; the scan
        // must preserve order.
        let t = DepthTracker::new();
        let xs: Vec<String> = (0..3000).map(|i| format!("{},", i % 10)).collect();
        let (scanned, total) =
            prefix_scan_exclusive(&xs, String::new(), |a, b| format!("{a}{b}"), &t);
        let mut acc = String::new();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(scanned[i], acc, "prefix {i}");
            acc.push_str(x);
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn offsets_from_counts_builds_csr_offsets() {
        let t = DepthTracker::new();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let total = csr_offsets_into_u32(&[2, 0, 3, 1], &mut out, &mut scratch, &t);
        assert_eq!(out, vec![0, 2, 2, 5, 6]);
        assert_eq!(total, 6);
        assert_eq!(csr_offsets_into_u32(&[], &mut out, &mut scratch, &t), 0);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn offsets_from_counts_matches_naive_on_large_input() {
        // Exercises the blocked two-round path.
        let t = DepthTracker::new();
        let counts: Vec<u32> = (0..70_000).map(|i| (i * 31) % 11).collect();
        let (mut off, mut scratch) = (Vec::new(), Vec::new());
        let total = csr_offsets_into_u32(&counts, &mut off, &mut scratch, &t);
        let mut acc = 0u32;
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(off[i], acc, "offset {i}");
            acc += c;
        }
        assert_eq!(off[counts.len()], acc);
        assert_eq!(total, acc as usize);
        assert!(t.stats().depth >= 2);
    }

    #[test]
    fn into_variants_match_allocating_scans() {
        let t = DepthTracker::new();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let mut alive = Vec::new();
        for n in [0usize, 1, 5, 3000, 70_000] {
            let counts: Vec<u32> = (0..n).map(|i| ((i * 31) % 11) as u32).collect();
            let (want, want_total) = prefix_scan_exclusive(&counts, 0u32, |a, b| a + b, &t);
            let total = csr_offsets_into_u32(&counts, &mut out, &mut scratch, &t);
            assert_eq!(out[..n], want[..], "n = {n}");
            assert_eq!(out[n], want_total, "n = {n}");
            assert_eq!(total, want_total as usize);
            alive.resize(n, false);
            let (total, _) =
                csr_offsets_census_into_u32(&counts, &mut out, &mut scratch, &mut alive, &t);
            assert_eq!(out[..n], want[..], "n = {n}");
            assert_eq!(total, want_total as usize);
        }
    }

    #[test]
    fn u32_csr_scan_matches_usize_scan() {
        let t = DepthTracker::new();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for n in [0usize, 1, 5, 3000, 70_000] {
            let counts: Vec<usize> = (0..n).map(|i| (i * 31) % 11).collect();
            let counts32: Vec<u32> = counts.iter().map(|&c| c as u32).collect();
            let total = csr_offsets_into_u32(&counts32, &mut out, &mut scratch, &t);
            let (mut want, want_total) = prefix_scan_exclusive(&counts, 0usize, |a, b| a + b, &t);
            want.push(want_total);
            let out_usize: Vec<usize> = out.iter().map(|&o| o as usize).collect();
            assert_eq!(out_usize, want, "n = {n}");
            assert_eq!(total, want_total);
        }
    }

    #[test]
    fn census_scan_matches_unfused_scan_plus_census() {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut out_ref = Vec::new();
        let mut scratch_ref = Vec::new();
        for n in [0usize, 1, 5, 3000, 70_000] {
            let counts: Vec<u32> = (0..n).map(|i| ((i * 31) % 11) as u32 % 3).collect();
            let mut alive = vec![false; n];
            let tf = DepthTracker::new();
            let (total, census) =
                csr_offsets_census_into_u32(&counts, &mut out, &mut scratch, &mut alive, &tf);
            let tu = DepthTracker::new();
            let want_total = csr_offsets_into_u32(&counts, &mut out_ref, &mut scratch_ref, &tu);
            assert_eq!(out, out_ref, "n = {n}");
            assert_eq!(total, want_total, "n = {n}");
            assert_eq!(tf.stats(), tu.stats(), "accounting differs at n = {n}");
            let want_nonzero = counts.iter().filter(|&&c| c != 0).count();
            let want_ones = counts.iter().filter(|&&c| c == 1).count();
            assert_eq!(census.nonzero, want_nonzero, "n = {n}");
            assert_eq!(census.ones, want_ones, "n = {n}");
            let want_alive: Vec<bool> = counts.iter().map(|&c| c != 0).collect();
            assert_eq!(alive, want_alive, "n = {n}");
        }
    }

    #[test]
    fn max_scan_monoid() {
        let t = DepthTracker::new();
        let xs: Vec<u64> = vec![1, 5, 3, 9, 2, 9, 11, 0];
        let inc = prefix_scan_inclusive(&xs, u64::MIN, |a, b| *a.max(b), &t);
        assert_eq!(inc, vec![1, 5, 5, 9, 9, 9, 11, 11]);
    }
}
