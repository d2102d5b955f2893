//! Walking the stable-matching lattice with Algorithm 4.
//!
//! The set of stable matchings forms a distributive lattice under the
//! dominance order (Definition 6), with the man-optimal matching `M₀` at the
//! bottom and the woman-optimal matching `M_z` at the top.  Section VI's
//! motivation (quoting Gusfield–Irving) is that "after sufficient
//! preprocessing, the stable matchings could be enumerated in parallel,
//! with small parallel time per matching": starting from any stable
//! matching, repeatedly applying Algorithm 4 yields all of its successors,
//! and the closure of that process from `M₀` is the entire lattice.

use std::collections::BTreeSet;

use pm_pram::tracker::DepthTracker;

use crate::instance::{SmInstance, StableMatching};
use crate::next::{next_stable_matchings, NextStableOutcome};

/// Enumerates **all** stable matchings of the instance by breadth-first
/// closure of Algorithm 4 starting from the man-optimal matching.  The
/// matchings are returned in the (deterministic) order of discovery, with
/// `M₀` first.
///
/// The number of stable matchings can be exponential in `n`; this is an
/// enumeration routine, so its cost is proportional to the output size times
/// the per-matching cost of Algorithm 4: `2⌈log₂ n⌉ + 3` rounds per
/// matching, the "small parallel time per matching" of the paper (pinned by
/// `next::tests::depth_per_call_is_logarithmic`).
pub fn all_stable_matchings(inst: &SmInstance, tracker: &DepthTracker) -> Vec<StableMatching> {
    let m0 = inst.man_optimal();
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut order = Vec::new();
    let mut frontier = vec![m0];

    while let Some(current) = frontier.pop() {
        if !seen.insert(current.as_slice().to_vec()) {
            continue;
        }
        order.push(current.clone());
        if let NextStableOutcome::Next(results) = next_stable_matchings(inst, &current, tracker) {
            for (_, next) in results {
                if !seen.contains(next.as_slice()) {
                    frontier.push(next);
                }
            }
        }
    }
    order
}

/// Counts the stable matchings (convenience wrapper over
/// [`all_stable_matchings`]).
pub fn count_stable_matchings(inst: &SmInstance) -> usize {
    let tracker = DepthTracker::new();
    all_stable_matchings(inst, &tracker).len()
}

/// Enumerates all stable matchings by brute force over permutations —
/// usable only for `n ≤ 7`, as the ground truth for the lattice walk.
pub fn brute_force_stable_matchings(inst: &SmInstance) -> Vec<StableMatching> {
    let n = inst.n();
    let mut out = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];

    fn rec(
        inst: &SmInstance,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<StableMatching>,
    ) {
        let n = inst.n();
        if current.len() == n {
            let m = StableMatching::new(current.clone());
            if inst.is_stable(&m) {
                out.push(m);
            }
            return;
        }
        for w in 0..n {
            if !used[w] {
                used[w] = true;
                current.push(w);
                rec(inst, current, used, out);
                current.pop();
                used[w] = false;
            }
        }
    }

    rec(inst, &mut current, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::figure5_instance;

    #[test]
    fn lattice_walk_finds_every_stable_matching_small() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for n in [1usize, 2, 3, 4, 5] {
            for _ in 0..10 {
                let mut gen = || {
                    (0..n)
                        .map(|_| {
                            let mut l: Vec<usize> = (0..n).collect();
                            l.shuffle(&mut rng);
                            l
                        })
                        .collect::<Vec<_>>()
                };
                let inst = SmInstance::new(gen(), gen());
                let t = DepthTracker::new();
                let mut walked: Vec<Vec<usize>> = all_stable_matchings(&inst, &t)
                    .into_iter()
                    .map(|m| m.as_slice().to_vec())
                    .collect();
                let mut brute: Vec<Vec<usize>> = brute_force_stable_matchings(&inst)
                    .into_iter()
                    .map(|m| m.as_slice().to_vec())
                    .collect();
                walked.sort();
                brute.sort();
                assert_eq!(walked, brute, "n={n}");
            }
        }
    }

    #[test]
    fn walk_starts_at_man_optimal_and_contains_both_extremes() {
        let (inst, m) = figure5_instance();
        let t = DepthTracker::new();
        let all = all_stable_matchings(&inst, &t);
        assert_eq!(all[0], inst.man_optimal());
        assert!(all.contains(&inst.woman_optimal()));
        assert!(all.contains(&m), "Figure 5's matching is in the lattice");
        // Every enumerated matching is stable and dominated by M0.
        let m0 = inst.man_optimal();
        for s in &all {
            assert!(inst.is_stable(s));
            assert!(m0.dominates(s, &inst));
        }
        assert_eq!(count_stable_matchings(&inst), all.len());
    }

    #[test]
    fn single_stable_matching_instance() {
        // Everyone agrees on the ranking: exactly one stable matching.
        let men = vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 2]];
        let women = vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 2]];
        let inst = SmInstance::new(men, women);
        assert_eq!(count_stable_matchings(&inst), 1);
        assert_eq!(inst.man_optimal(), inst.woman_optimal());
    }

    #[test]
    fn latin_square_instance_has_many_stable_matchings() {
        // The classic 4x4 "cyclic" instance with 2^(n/2) = ... several stable
        // matchings; at minimum, the man- and woman-optimal ones differ and
        // the walk finds more than two.
        let men = vec![
            vec![0, 1, 2, 3],
            vec![1, 0, 3, 2],
            vec![2, 3, 0, 1],
            vec![3, 2, 1, 0],
        ];
        let women = vec![
            vec![3, 2, 1, 0],
            vec![2, 3, 0, 1],
            vec![1, 0, 3, 2],
            vec![0, 1, 2, 3],
        ];
        let inst = SmInstance::new(men, women);
        let t = DepthTracker::new();
        let all = all_stable_matchings(&inst, &t);
        assert!(all.len() >= 3, "found {}", all.len());
        let brute = brute_force_stable_matchings(&inst);
        assert_eq!(all.len(), brute.len());
    }
}
