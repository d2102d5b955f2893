//! Differential test of Algorithm 4's successor kernel and of the stability
//! precondition over the cached rank matrix.
//!
//! At every matching of a man-optimal → woman-optimal walk on random
//! instances (n = 2..=64), and at every matching of the whole lattice for
//! n ≤ 8:
//!
//! * the successor of `m` in `H_M`, built by [`switching_graph_hm`]'s fused
//!   kernel, equals `p_M` of entry `[1]` of the materialised reduced list
//!   (Figure 6) and the sequential [`rotations::next_m`];
//! * [`next_stable_matchings`] equals the outcome built from the reduced
//!   lists, the formulation the kernel replaces;
//! * `SmInstance::is_stable` agrees with the free
//!   [`gale_shapley::is_stable`] on the matching itself, on every matching
//!   one swapped pair away, and on non-permutations.

use pm_graph::functional::FunctionalGraph;
use pm_matching::gale_shapley;
use pm_pram::DepthTracker;
use pm_stable::lattice::all_stable_matchings;
use pm_stable::next::{
    next_stable_matchings, reduced_men_lists, switching_graph_hm, NextStableOutcome,
};
use pm_stable::rotations::{self, Rotation};
use pm_stable::{SmInstance, StableMatching};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn random_instance(n: usize, rng: &mut rand::rngs::StdRng) -> SmInstance {
    let mut gen = || {
        (0..n)
            .map(|_| {
                let mut l: Vec<usize> = (0..n).collect();
                l.shuffle(rng);
                l
            })
            .collect::<Vec<_>>()
    };
    SmInstance::new(gen(), gen())
}

/// Algorithm 4 over the materialised reduced lists: `H_M` from entry `[1]`
/// of every list, its cycles, and one elimination per cycle.
fn outcome_from_reduced_lists(inst: &SmInstance, matching: &StableMatching) -> NextStableOutcome {
    let tracker = DepthTracker::new();
    let husbands = matching.husbands();
    let succ = reduced_men_lists(inst, matching, &tracker)
        .iter()
        .map(|list| list.get(1).map(|&w| husbands[w]))
        .collect();
    let cycles = FunctionalGraph::new(succ).cycles_parallel(&tracker);
    if cycles.is_empty() {
        return NextStableOutcome::WomanOptimal;
    }
    NextStableOutcome::Next(
        cycles
            .into_iter()
            .map(|men| {
                let rotation = Rotation {
                    pairs: men.iter().map(|&m| (m, matching.wife(m))).collect(),
                };
                let next = rotation.eliminate(matching);
                (rotation, next)
            })
            .collect(),
    )
}

fn agrees_with_free_checker(inst: &SmInstance, wives: Vec<usize>, ctx: &str) {
    let free = gale_shapley::is_stable(inst.men_prefs(), inst.women_prefs(), &wives);
    assert_eq!(
        inst.is_stable(&StableMatching::new(wives)),
        free,
        "{ctx}: stability checkers disagree"
    );
}

/// Every check of the module docs at one stable matching.
fn check_at(inst: &SmInstance, matching: &StableMatching, ctx: &str) {
    let n = inst.n();
    let husbands = matching.husbands();
    let tracker = DepthTracker::new();
    let kernel = switching_graph_hm(inst, matching, &tracker);
    let reduced = reduced_men_lists(inst, matching, &tracker);
    for (m, list) in reduced.iter().enumerate() {
        assert_eq!(list[0], matching.wife(m), "{ctx}: m={m}");
        let from_lists = list.get(1).map(|&w| husbands[w]);
        assert_eq!(
            kernel.successor(m),
            from_lists,
            "{ctx}: m={m} vs reduced lists"
        );
        assert_eq!(
            kernel.successor(m),
            rotations::next_m(inst, matching, m),
            "{ctx}: m={m} vs next_m"
        );
    }
    assert_eq!(
        next_stable_matchings(inst, matching, &tracker),
        outcome_from_reduced_lists(inst, matching),
        "{ctx}: outcome"
    );

    let wives = matching.as_slice();
    assert!(inst.is_stable(matching), "{ctx}");
    agrees_with_free_checker(inst, wives.to_vec(), ctx);
    for i in 0..n {
        let mut swapped = wives.to_vec();
        swapped.swap(i, (i + 1) % n);
        agrees_with_free_checker(inst, swapped, ctx);
    }
    let mut repeated = wives.to_vec();
    repeated[0] = repeated[n - 1];
    agrees_with_free_checker(inst, repeated, ctx);
    let mut out_of_range = wives.to_vec();
    out_of_range[n - 1] = n;
    agrees_with_free_checker(inst, out_of_range, ctx);
    agrees_with_free_checker(inst, wives[..n - 1].to_vec(), ctx);
}

#[test]
fn kernel_matches_reduced_lists_along_walks() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CC);
    for n in 2..=64usize {
        let inst = random_instance(n, &mut rng);
        let mz = inst.woman_optimal();
        let mut current = inst.man_optimal();
        let mut step = 0;
        loop {
            check_at(&inst, &current, &format!("n={n} step={step}"));
            match next_stable_matchings(&inst, &current, &DepthTracker::new()) {
                NextStableOutcome::WomanOptimal => break,
                NextStableOutcome::Next(results) => current = results[0].1.clone(),
            }
            step += 1;
        }
        assert_eq!(current, mz, "n={n}");
    }
}

#[test]
fn kernel_matches_reduced_lists_on_whole_lattices() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A7);
    for n in 2..=8usize {
        for case in 0..6 {
            let inst = random_instance(n, &mut rng);
            for (i, matching) in all_stable_matchings(&inst, &DepthTracker::new())
                .iter()
                .enumerate()
            {
                check_at(&inst, matching, &format!("n={n} case={case} lattice[{i}]"));
            }
        }
    }
}
