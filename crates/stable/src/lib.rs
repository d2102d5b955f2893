//! Stable marriage substrate and the NC "next" stable matching algorithm.
//!
//! Section VI of Hu & Garg (2020): finding the *first* stable matching fast
//! in parallel is obstructed by CC-completeness (Mayr–Subramanian), but
//! given a stable matching `M`, all of its successors in the stable-matching
//! lattice — the matchings `M\ρ` for every rotation `ρ` exposed in `M` —
//! can be produced in NC (Theorem 16, Algorithm 4).  The key objects:
//!
//! * [`instance`] — the stable marriage instance (preference and ranking
//!   matrices `mp`, `wp`, `mr`, `wr`) and the [`StableMatching`] value type
//!   with the dominance order of Definition 6;
//! * [`rotations`] — rotations (Definition 7), their elimination
//!   (Definition 8), and a sequential exposed-rotation finder used as the
//!   baseline;
//! * [`next`] — Algorithm 4: the switching graph `H_M` (a functional graph
//!   over the men) from one fused soft-delete + find-first kernel over the
//!   ranking matrices, cycle finding in NC, and the elimination of every
//!   exposed rotation in one parallel step; the paper's reduced preference
//!   lists (soft-deletion + prefix-sum compaction) remain as the Figure 6
//!   exposition;
//! * [`lattice`] — repeated application of Algorithm 4 to walk the entire
//!   lattice from the man-optimal to the woman-optimal matching
//!   (the "enumerate stable matchings in parallel, with small parallel time
//!   per matching" application the paper quotes from Gusfield–Irving).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod instance;
pub mod lattice;
pub mod next;
pub mod rotations;

pub use instance::{SmInstance, StableMatching};
pub use lattice::all_stable_matchings;
pub use next::{next_stable_matchings, NextStableOutcome};
pub use rotations::Rotation;
