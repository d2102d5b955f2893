//! # popular-matchings
//!
//! A reproduction of *Hu & Garg, "NC Algorithms for Popular Matchings in
//! One-Sided Preference Systems and Related Problems"* (2020) as a Rust
//! workspace: the NC popular-matching algorithms (Algorithms 1–4 of the
//! paper), every substrate they rely on (PRAM-style primitives, graph and
//! linear-algebra kernels, classical matching baselines), instance
//! generators, and a benchmark harness that regenerates every experiment
//! described in `EXPERIMENTS.md`.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names and provides a [`prelude`] for the examples.
//!
//! ```
//! use popular_matchings::prelude::*;
//!
//! // Figure 1 of the paper.
//! let inst = pm_instances::paper::figure1_instance();
//! let tracker = DepthTracker::new();
//! let matching = popular_matching_nc(&inst, &tracker).unwrap();
//! assert!(is_popular_characterization(&inst, &matching));
//! assert_eq!(matching.size(&inst), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pm_graph as graph;
pub use pm_instances as instances;
pub use pm_linalg as linalg;
pub use pm_matching as matching;
pub use pm_popular as popular;
pub use pm_pram as pram;
pub use pm_serve as serve;
pub use pm_stable as stable;

/// Everything the examples and most downstream users need in one import.
pub mod prelude {
    pub use pm_graph::{BipartiteGraph, FunctionalGraph};
    pub use pm_instances::generators::{self, GeneratorConfig};
    pub use pm_instances::layout::optimize_layout;
    pub use pm_instances::{self, paper, ChurnConfig};
    pub use pm_popular::algorithm1::{popular_matching_nc, popular_matching_run};
    pub use pm_popular::delta::{Delta, DeltaMode, DeltaSolver, DeltaStats};
    pub use pm_popular::instance::{Assignment, PrefInstance};
    pub use pm_popular::max_cardinality::maximum_cardinality_popular_matching_nc;
    pub use pm_popular::optimal::{fair_popular_matching, rank_maximal_popular_matching};
    pub use pm_popular::profile::Profile;
    pub use pm_popular::relabel::{PostPermutation, Relabeled, RelabeledSolver};
    pub use pm_popular::sequential::popular_matching_sequential;
    pub use pm_popular::solver::PopularSolver;
    pub use pm_popular::switching::SwitchingGraph;
    pub use pm_popular::verify::{is_popular_characterization, more_popular};
    pub use pm_popular::PopularError;
    pub use pm_pram::{DepthTracker, Idx, PramStats, Workspace};
    pub use pm_serve::{
        DeltaRequest, Quality, Request, Response, ServeError, Server, ServerConfig,
    };
    pub use pm_stable::instance::{SmInstance, StableMatching};
    pub use pm_stable::lattice::all_stable_matchings;
    pub use pm_stable::next::{next_stable_matchings, NextStableOutcome};
}
