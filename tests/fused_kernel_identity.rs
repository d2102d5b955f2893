//! Fused-kernel bit-identity: the single-sweep fused primitives in
//! `pm_pram` must be **interchangeable** with their unfused two-pass
//! ancestors — identical outputs *and* identical `DepthTracker` depth/work
//! charges — at every input size and executor width.
//!
//! Same harness shape as `tests/parallel_determinism.rs`: each property
//! runs under `ThreadPool::install(1)` and `install(4)` (the in-process
//! equivalent of the CI `PM_THREADS` matrix) and the size sweep straddles
//! `SEQUENTIAL_CUTOFF` so the inline, boundary and blocked code paths are
//! all exercised.  Any divergence here means the fusion changed semantics
//! or accounting, which would silently skew every depth/work trajectory
//! the experiments record.

use pm_pram::compact::compact_indices_fused_into_idx;
use pm_pram::scan::{csr_offsets_census_into_u32, csr_offsets_into_u32, DegreeCensus};
use pm_pram::{DepthTracker, Idx, PramStats, Workspace, SEQUENTIAL_CUTOFF};
use rayon::ThreadPoolBuilder;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools always build")
}

/// Sizes straddling the sequential cutoff plus a blocked-path size large
/// enough for multi-chunk fan-out at width 4.
fn sizes() -> [usize; 7] {
    [
        0,
        1,
        17,
        SEQUENTIAL_CUTOFF - 1,
        SEQUENTIAL_CUTOFF,
        SEQUENTIAL_CUTOFF + 1,
        50_000,
    ]
}

/// Deterministic pseudo-random counts with plenty of zeros and ones, so the
/// census fields are all non-trivial.
fn counts(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 4) as u32
        })
        .collect()
}

/// Everything observable from one scan+census run.
#[derive(Debug, PartialEq, Eq)]
struct ScanFingerprint {
    offsets: Vec<u32>,
    alive: Vec<bool>,
    total: usize,
    census: DegreeCensus,
    stats: PramStats,
}

/// The unfused reference: the plain scan, then the separate census loop the
/// fused kernel replaced (which the callers never charged on the tracker).
fn unfused_scan(counts: &[u32]) -> ScanFingerprint {
    let tracker = DepthTracker::new();
    let mut offsets = Vec::new();
    let mut scratch = Vec::new();
    let total = csr_offsets_into_u32(counts, &mut offsets, &mut scratch, &tracker);
    let mut census = DegreeCensus::default();
    let alive: Vec<bool> = counts
        .iter()
        .map(|&c| {
            census.nonzero += usize::from(c != 0);
            census.ones += usize::from(c == 1);
            c != 0
        })
        .collect();
    ScanFingerprint {
        offsets,
        alive,
        total,
        census,
        stats: tracker.stats(),
    }
}

fn fused_scan(counts: &[u32]) -> ScanFingerprint {
    let tracker = DepthTracker::new();
    let mut offsets = Vec::new();
    let mut scratch = Vec::new();
    let mut alive = vec![true; counts.len()];
    let (total, census) =
        csr_offsets_census_into_u32(counts, &mut offsets, &mut scratch, &mut alive, &tracker);
    ScanFingerprint {
        offsets,
        alive,
        total,
        census,
        stats: tracker.stats(),
    }
}

#[test]
fn fused_scan_census_is_bit_identical_to_unfused_across_widths() {
    for seed in [1u64, 2, 3] {
        for n in sizes() {
            let cs = counts(n, seed);
            let reference = unfused_scan(&cs);
            for threads in [1usize, 4] {
                let fused = pool(threads).install(|| fused_scan(&cs));
                assert_eq!(
                    fused, reference,
                    "fused scan+census diverged from unfused (n = {n}, seed = {seed}, \
                     {threads} threads)"
                );
            }
            // The unfused reference itself must also be width-independent.
            let reference4 = pool(4).install(|| unfused_scan(&cs));
            assert_eq!(
                reference, reference4,
                "unfused scan width-dependent (n = {n})"
            );
        }
    }
}

/// Everything observable from one compaction run.
#[derive(Debug, PartialEq, Eq)]
struct CompactFingerprint {
    kept: Vec<Idx>,
    stats: PramStats,
}

fn compact<F>(n: usize, keep: F) -> CompactFingerprint
where
    F: Fn(usize) -> bool + Send + Sync,
{
    let tracker = DepthTracker::new();
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    compact_indices_fused_into_idx(n, keep, &mut out, &mut ws, &tracker);
    CompactFingerprint {
        kept: out,
        stats: tracker.stats(),
    }
}

/// The unfused flag/scan/scatter compaction as an in-test reference: the
/// kept indices by sequential filter, and the charges that kernel records —
/// a predicate round, one scan round (two on the blocked path) and a
/// scatter round, each costing `n` work.
fn unfused_compact<F>(n: usize, keep: F) -> CompactFingerprint
where
    F: Fn(usize) -> bool,
{
    let depth = if n < SEQUENTIAL_CUTOFF { 3 } else { 4 };
    CompactFingerprint {
        kept: (0..n).filter(|&i| keep(i)).map(Idx::new).collect(),
        stats: PramStats {
            depth,
            work: 3 * n as u64,
            phases: 0,
        },
    }
}

#[test]
fn fused_compaction_is_bit_identical_to_unfused_across_widths() {
    // A pure, cheap predicate with an irregular keep pattern (~37% kept).
    let keep = |i: usize| (i.wrapping_mul(2654435761) >> 7) % 8 < 3;
    for n in sizes() {
        let reference = unfused_compact(n, keep);
        for threads in [1usize, 4] {
            let fused = pool(threads).install(|| compact(n, keep));
            assert_eq!(
                fused.kept, reference.kept,
                "fused compaction output diverged (n = {n}, {threads} threads)"
            );
            assert_eq!(
                fused.stats, reference.stats,
                "fused compaction depth/work charges diverged (n = {n}, {threads} threads)"
            );
        }
        // Degenerate predicates: keep-all and keep-none.
        for (name, pred) in [("all", true), ("none", false)] {
            let r = unfused_compact(n, |_| pred);
            for threads in [1usize, 4] {
                let f = pool(threads).install(|| compact(n, |_| pred));
                assert_eq!(
                    f, r,
                    "fused compaction diverged on keep-{name} (n = {n}, {threads} threads)"
                );
            }
        }
    }
}
