//! Graph substrate for the NC popular-matching reproduction.
//!
//! The algorithms of Hu & Garg (2020) operate on three kinds of graphs:
//!
//! * the **bipartite graph** `G = (A ∪ P, E)` of applicants and posts and
//!   its *reduced graph* `G'` ([`bipartite`]);
//! * **directed pseudoforests** — the switching graph `G_M` of a popular
//!   matching (Lemma 4) and the switching graph `H_M` of a stable matching
//!   (Lemma 17) both have out-degree ≤ 1 per vertex ([`functional`],
//!   [`pseudoforest`]);
//! * generic undirected graphs for connected-component counting
//!   ([`connected`]).
//!
//! [`cycle`] implements the three NC approaches of Section IV-A for finding
//! the unique cycle of each pseudoforest component (transitive closure,
//! incidence-matrix rank, connected-component counting) plus a fast
//! pointer-doubling method and a sequential baseline, so the benchmark
//! harness can compare them (experiment E7).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bipartite;
pub mod connected;
pub mod cycle;
pub mod functional;
pub mod pseudoforest;

pub use bipartite::BipartiteGraph;
pub use connected::{
    connected_components_idx_ws, connected_components_parallel, connected_components_union_find,
    ComponentLabels, ComponentLabelsIdx,
};
pub use functional::{extract_cycles_marked_idx, on_cycle_of_idx, FunctionalGraph};
pub use pseudoforest::UndirectedGraph;
