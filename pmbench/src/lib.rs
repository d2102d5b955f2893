//! The repository benchmark: three closed-loop workloads driven through the
//! public API of the workspace crates, end-to-end metrics from an untraced
//! run and per-layer metrics from a traced one.
//!
//! * [`serve_solve`] — read traffic: full solves through `pm_serve`.
//! * [`serve_churn`] — write traffic: preference deltas through `pm_serve`.
//! * [`paper_batch`] — offline analysis jobs over the paper's other
//!   pipelines (layout, max-cardinality, switching graph, ties, stable walk).
//!
//! Every input is generated from the `--seed` argument and handed to the
//! program as snapshot bytes or delta streams; every answer is checked
//! outside the timed spans.  `METRICS.md` beside this crate lists each metric
//! and the end-to-end metric it should move.

mod alloc;
pub mod fingerprint;
mod layers;
pub mod paper_batch;
pub mod report;
pub mod run;
pub mod serve_churn;
pub mod serve_solve;
mod stats;
mod steal;
pub mod trace;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read traffic: served full solves.
    ServeSolve,
    /// Write traffic: served delta streams.
    ServeChurn,
    /// Offline jobs over the non-serving pipelines.
    PaperBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeSolve,
        Workload::ServeChurn,
        Workload::PaperBatch,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSolve => "serve_solve",
            Workload::ServeChurn => "serve_churn",
            Workload::PaperBatch => "paper_batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Derives an independent sub-seed for input `tag` from the workload seed
/// (SplitMix64 finaliser), so every generated input depends on the seed
/// argument and on nothing else.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The strict-instance generator config the workloads share: list length
/// 5 and one eighth more posts than applicants.
pub(crate) fn strict_config(n: usize, seed: u64) -> pm_instances::GeneratorConfig {
    pm_instances::GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 5,
        seed,
    }
}
