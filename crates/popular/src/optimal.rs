//! Optimal (weighted), rank-maximal and fair popular matchings
//! (Section IV-E).
//!
//! With a weight `w(a, p)` on every acceptable pair, an *optimal* popular
//! matching maximises (or minimises) the total weight among popular
//! matchings.  By Theorem 9 the optimum is reached from an arbitrary popular
//! matching by choosing, independently per switching-graph component, the
//! move that most improves the total weight — exactly like Algorithm 3 but
//! with weights instead of cardinality margins.  The rank-maximal and fair
//! variants are the exponential weight assignments of the paper (weights up
//! to `n₁^{n₂+1}`, hence the [`BigUint`] arithmetic); their correctness is
//! cross-checked against lexicographic profile comparison in the tests.

use pm_linalg::BigUint;
use pm_pram::tracker::DepthTracker;

use crate::algorithm1::popular_matching_run;
use crate::error::PopularError;
use crate::instance::{Assignment, PrefInstance};
use crate::switching::{ComponentKind, SwitchingGraph};

/// Whether the optimal popular matching maximises or minimises total weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximise the total weight.
    Maximize,
    /// Minimise the total weight.
    Minimize,
}

/// Computes an optimal popular matching for an arbitrary non-negative weight
/// function `w(applicant, extended post)`.
///
/// The weight function is consulted only on pairs `(a, f(a))`, `(a, s(a))`
/// — the only pairs a popular matching can use.
pub fn optimal_popular_matching<W>(
    inst: &PrefInstance,
    weight: W,
    objective: Objective,
    tracker: &DepthTracker,
) -> Result<Assignment, PopularError>
where
    W: Fn(usize, usize) -> BigUint,
{
    let run = popular_matching_run(inst, tracker)?;
    let sg = SwitchingGraph::build(&run.reduced, &run.matching, tracker);
    let components = sg.components(tracker);
    let total_posts = run.reduced.total_posts();

    // Per matched post p (edge a = applicant at p): weight if a stays on p,
    // and weight if a switches to succ(p).
    let stay = |p: usize| -> BigUint {
        let a = sg.applicant_at(p).expect("matched post");
        weight(a, p)
    };
    let switch = |p: usize| -> BigUint {
        let a = sg.applicant_at(p).expect("matched post");
        weight(a, sg.successor(p).expect("matched post has a successor"))
    };

    // Suffix sums towards the sink for every tree vertex, computed once with
    // memoised chain walks (O(total_posts) pushes overall).
    let fg = sg.functional_graph();
    let on_cycle = fg.on_cycle_sequential();
    let mut suffix_stay: Vec<Option<BigUint>> = vec![None; total_posts];
    let mut suffix_switch: Vec<Option<BigUint>> = vec![None; total_posts];
    for start in 0..total_posts {
        if suffix_stay[start].is_some() || on_cycle[start] {
            continue;
        }
        // Walk down to the first memoised vertex, the sink, or a cycle entry.
        let mut chain = Vec::new();
        let mut v = start;
        loop {
            if suffix_stay[v].is_some() || on_cycle[v] || sg.successor(v).is_none() {
                break;
            }
            chain.push(v);
            v = sg.successor(v).expect("checked above");
        }
        let (mut acc_stay, mut acc_switch) = if on_cycle[v] {
            // Paths that run into a cycle are not switching paths; give them
            // zero suffixes (they are filtered out later anyway).
            (BigUint::zero(), BigUint::zero())
        } else {
            (
                suffix_stay[v].clone().unwrap_or_else(BigUint::zero),
                suffix_switch[v].clone().unwrap_or_else(BigUint::zero),
            )
        };
        for &p in chain.iter().rev() {
            acc_stay = acc_stay.add(&stay(p));
            acc_switch = acc_switch.add(&switch(p));
            suffix_stay[p] = Some(acc_stay.clone());
            suffix_switch[p] = Some(acc_switch.clone());
        }
    }

    // "x improves on y" under the objective, comparing gains by cross sums to
    // avoid signed arithmetic: switch_x − stay_x > switch_y − stay_y  ⟺
    // switch_x + stay_y > switch_y + stay_x.
    let better = |sw_x: &BigUint, st_x: &BigUint, sw_y: &BigUint, st_y: &BigUint| -> bool {
        let lhs = sw_x.add(st_y);
        let rhs = sw_y.add(st_x);
        match objective {
            Objective::Maximize => lhs > rhs,
            Objective::Minimize => lhs < rhs,
        }
    };

    let mut improved = run.matching.clone();
    for comp in &components {
        match comp.kind {
            ComponentKind::Cycle(cycle) => {
                let mut cycle_stay = BigUint::zero();
                let mut cycle_switch = BigUint::zero();
                for &p in cycle {
                    cycle_stay = cycle_stay.add(&stay(p));
                    cycle_switch = cycle_switch.add(&switch(p));
                }
                let apply = match objective {
                    Objective::Maximize => cycle_switch > cycle_stay,
                    Objective::Minimize => cycle_switch < cycle_stay,
                };
                if apply {
                    sg.apply_cycle(&mut improved, cycle);
                }
            }
            ComponentKind::Tree { sink } => {
                // Candidates: s-posts other than the sink; "do nothing" is the
                // zero-gain option.
                let mut best: Option<(usize, BigUint, BigUint)> = None;
                for &q in comp.posts {
                    if q == sink || !sg.is_s_post(q) || sg.successor(q).is_none() {
                        continue;
                    }
                    let sw = suffix_switch[q]
                        .clone()
                        .expect("tree vertex has suffix sums");
                    let st = suffix_stay[q].clone().expect("tree vertex has suffix sums");
                    let is_better = match &best {
                        None => true,
                        Some((_, b_sw, b_st)) => better(&sw, &st, b_sw, b_st),
                    };
                    if is_better {
                        best = Some((q, sw, st));
                    }
                }
                if let Some((q, sw, st)) = best {
                    let apply = match objective {
                        Objective::Maximize => sw > st,
                        Objective::Minimize => sw < st,
                    };
                    if apply {
                        sg.apply_path(&mut improved, q);
                    }
                }
            }
        }
    }
    Ok(improved)
}

/// Total weight of a matching under a weight function (last resorts included
/// — pass a function that maps them to zero if they should not count).
pub fn total_weight<W>(inst: &PrefInstance, m: &Assignment, weight: W) -> BigUint
where
    W: Fn(usize, usize) -> BigUint,
{
    let mut sum = BigUint::zero();
    for a in 0..inst.num_applicants() {
        sum = sum.add(&weight(a, m.post(a)));
    }
    sum
}

fn weight_base(inst: &PrefInstance) -> u64 {
    // The paper states the weights with base n₁.  For the total weight to
    // order matchings exactly like the lexicographic profile orders, the base
    // must strictly exceed the largest possible digit (x_k ≤ n₁ applicants can
    // share a rank), so we use n₁ + 1 (at least 2); this only makes the
    // weights marginally larger and keeps them at Õ(n) bits.
    (inst.num_applicants() as u64 + 1).max(2)
}

/// The largest exponent any realised rank can need: the paper uses ranks up
/// to `n₂ + 1`, but no applicant is ever matched beyond the length of its
/// own list, so all profile entries between the longest list and `n₂` are
/// zero for every matching and the exponent range can be compressed to
/// `1 ..= max_list_len + 1` without changing any comparison.  This keeps the
/// weights at `O(list_len · log n)` bits instead of `Õ(n)` bits — the same
/// numbers the paper's argument needs, just without the common zero digits.
fn compressed_top_rank(inst: &PrefInstance) -> u32 {
    (0..inst.num_applicants())
        .map(|a| inst.num_ranks(a) as u32)
        .max()
        .unwrap_or(0)
        + 1
}

/// The rank-maximal weight of the pair `(a, p)`: `B^(R − k)` for the `k`-th
/// ranked post (with `R` the compressed top rank, standing in for the
/// paper's `n₂ + 1`), `0` for the last resort.
pub fn rank_maximal_weight(inst: &PrefInstance, a: usize, p: usize) -> BigUint {
    if p == inst.last_resort(a) {
        return BigUint::zero();
    }
    let k = inst.rank(a, p).expect("weight of an acceptable pair") as u32 + 1;
    let exponent = compressed_top_rank(inst).saturating_sub(k);
    BigUint::pow_u64(weight_base(inst), exponent)
}

/// The fair weight of the pair `(a, p)`: `B^k` for the `k`-th ranked post
/// and `B^R` for the last resort (again with the compressed top rank `R`
/// standing in for the paper's `n₂ + 1`).
pub fn fair_weight(inst: &PrefInstance, a: usize, p: usize) -> BigUint {
    let k = if p == inst.last_resort(a) {
        compressed_top_rank(inst)
    } else {
        inst.rank(a, p).expect("weight of an acceptable pair") as u32 + 1
    };
    BigUint::pow_u64(weight_base(inst), k)
}

/// A rank-maximal popular matching: lexicographically maximises the profile
/// among popular matchings (`≻_R`).
pub fn rank_maximal_popular_matching(
    inst: &PrefInstance,
    tracker: &DepthTracker,
) -> Result<Assignment, PopularError> {
    optimal_popular_matching(
        inst,
        |a, p| rank_maximal_weight(inst, a, p),
        Objective::Maximize,
        tracker,
    )
}

/// A fair popular matching: lexicographically minimises the profile from the
/// worst rank down (`≺_F`); always maximum cardinality.
pub fn fair_popular_matching(
    inst: &PrefInstance,
    tracker: &DepthTracker,
) -> Result<Assignment, PopularError> {
    optimal_popular_matching(
        inst,
        |a, p| fair_weight(inst, a, p),
        Objective::Minimize,
        tracker,
    )
}

/// Maximum-cardinality popular matching expressed as a weight problem
/// (weight 1 on real posts, 0 on last resorts) — the special case noted in
/// Section IV-E, used to cross-check Algorithm 3.
pub fn maximum_cardinality_via_weights(
    inst: &PrefInstance,
    tracker: &DepthTracker,
) -> Result<Assignment, PopularError> {
    optimal_popular_matching(
        inst,
        |a, p| {
            if p == inst.last_resort(a) {
                BigUint::zero()
            } else {
                BigUint::one()
            }
        },
        Objective::Maximize,
        tracker,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_cardinality::maximum_cardinality_popular_matching_nc;
    use crate::profile::Profile;
    use crate::verify::{enumerate_assignments, is_popular_characterization};
    use std::cmp::Ordering;

    fn random_instance(rng: &mut impl rand::RngExt, max_a: usize, max_p: usize) -> PrefInstance {
        let n_a = rng.random_range(1..=max_a);
        let n_p = rng.random_range(1..=max_p);
        let lists: Vec<Vec<usize>> = (0..n_a)
            .map(|_| {
                let mut posts: Vec<usize> = (0..n_p).collect();
                for i in (1..posts.len()).rev() {
                    posts.swap(i, rng.random_range(0..=i));
                }
                posts.truncate(rng.random_range(1..=posts.len()));
                posts
            })
            .collect();
        PrefInstance::new_strict(n_p, lists).unwrap()
    }

    fn popular_matchings(inst: &PrefInstance) -> Vec<Assignment> {
        enumerate_assignments(inst)
            .into_iter()
            .filter(|m| is_popular_characterization(inst, m))
            .collect()
    }

    #[test]
    fn rank_maximal_profile_matches_brute_force() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut checked = 0;
        for _ in 0..150 {
            let inst = random_instance(&mut rng, 5, 4);
            let t = DepthTracker::new();
            let Ok(rm) = rank_maximal_popular_matching(&inst, &t) else {
                continue;
            };
            assert!(is_popular_characterization(&inst, &rm));
            let best = popular_matchings(&inst)
                .iter()
                .map(|m| Profile::of(&inst, m))
                .max_by(|a, b| a.cmp_rank_maximal(b))
                .unwrap();
            assert_eq!(
                Profile::of(&inst, &rm).cmp_rank_maximal(&best),
                Ordering::Equal,
                "rank-maximal profile mismatch for {inst:?}"
            );
            checked += 1;
        }
        assert!(checked > 40);
    }

    #[test]
    fn fair_profile_matches_brute_force() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut checked = 0;
        for _ in 0..150 {
            let inst = random_instance(&mut rng, 5, 4);
            let t = DepthTracker::new();
            let Ok(fair) = fair_popular_matching(&inst, &t) else {
                continue;
            };
            assert!(is_popular_characterization(&inst, &fair));
            let best = popular_matchings(&inst)
                .iter()
                .map(|m| Profile::of(&inst, m))
                .min_by(|a, b| a.cmp_fair(b))
                .unwrap();
            assert_eq!(
                Profile::of(&inst, &fair).cmp_fair(&best),
                Ordering::Equal,
                "fair profile mismatch for {inst:?}"
            );
            // Remark in the paper: fair ⇒ maximum cardinality.
            let max = maximum_cardinality_popular_matching_nc(&inst, &t).unwrap();
            assert_eq!(fair.size(&inst), max.size(&inst));
            checked += 1;
        }
        assert!(checked > 40);
    }

    #[test]
    fn weight_formulation_of_cardinality_agrees_with_algorithm3() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..150 {
            let inst = random_instance(&mut rng, 6, 5);
            let t = DepthTracker::new();
            let via_weights = maximum_cardinality_via_weights(&inst, &t);
            let via_alg3 = maximum_cardinality_popular_matching_nc(&inst, &t);
            match (via_weights, via_alg3) {
                (Ok(a), Ok(b)) => assert_eq!(a.size(&inst), b.size(&inst)),
                (Err(x), Err(y)) => assert_eq!(x, y),
                (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn custom_weights_are_maximised() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut checked = 0;
        for _ in 0..100 {
            let inst = random_instance(&mut rng, 5, 4);
            // A deterministic pseudo-random (but reproducible) weight table.
            let w = |a: usize, p: usize| -> BigUint {
                if p >= inst.num_posts() {
                    BigUint::zero()
                } else {
                    BigUint::from_u64(((a * 31 + p * 17) % 23 + 1) as u64)
                }
            };
            let t = DepthTracker::new();
            let Ok(opt) = optimal_popular_matching(&inst, w, Objective::Maximize, &t) else {
                continue;
            };
            let best = popular_matchings(&inst)
                .iter()
                .map(|m| total_weight(&inst, m, w))
                .max()
                .unwrap();
            assert_eq!(
                total_weight(&inst, &opt, w),
                best,
                "weight mismatch for {inst:?}"
            );
            checked += 1;
        }
        assert!(checked > 30);
    }

    #[test]
    fn weight_helpers_are_monotone_in_rank() {
        let inst = PrefInstance::new_strict(3, vec![vec![0, 1, 2]]).unwrap();
        // Better ranks get strictly larger rank-maximal weights …
        assert!(rank_maximal_weight(&inst, 0, 0) > rank_maximal_weight(&inst, 0, 1));
        assert!(rank_maximal_weight(&inst, 0, 1) > rank_maximal_weight(&inst, 0, 2));
        assert!(
            rank_maximal_weight(&inst, 0, 2) > rank_maximal_weight(&inst, 0, inst.last_resort(0))
        );
        // … and strictly smaller fair weights.
        assert!(fair_weight(&inst, 0, 0) < fair_weight(&inst, 0, 1));
        assert!(fair_weight(&inst, 0, 2) < fair_weight(&inst, 0, inst.last_resort(0)));
    }

    #[test]
    fn errors_propagate() {
        let infeasible =
            PrefInstance::new_strict(2, vec![vec![0, 1], vec![0, 1], vec![0, 1]]).unwrap();
        let t = DepthTracker::new();
        assert_eq!(
            rank_maximal_popular_matching(&infeasible, &t),
            Err(PopularError::NoPopularMatching)
        );
        assert_eq!(
            fair_popular_matching(&infeasible, &t),
            Err(PopularError::NoPopularMatching)
        );
    }
}
