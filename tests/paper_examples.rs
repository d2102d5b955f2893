//! Integration tests reproducing every worked example of the paper
//! (experiments E1, E2, E3 of EXPERIMENTS.md) through the public facade.

use popular_matchings::popular::switching::ComponentKind;
use popular_matchings::popular::verify::is_popular_brute_force;
use popular_matchings::prelude::*;

/// Ground truth for E1, checked definitionally rather than through the
/// Theorem 1 characterisation: the size-8 matching printed in Section II of
/// the paper is popular under the brute-force "no assignment is preferred by
/// a majority" definition, and so is the matching Algorithm 1 computes.
/// This pins the assertions below to the paper, not to the implementation.
#[test]
fn e1_figure1_ground_truth_via_brute_force() {
    let inst = paper::figure1_instance();
    let paper_matching = pm_instances::paper::figure1_popular_matching();
    assert!(paper_matching.is_valid(&inst));
    assert_eq!(
        paper_matching.size(&inst),
        8,
        "the paper's matching is applicant-perfect"
    );
    assert!(is_popular_brute_force(&inst, &paper_matching));

    let tracker = DepthTracker::new();
    let run = popular_matching_run(&inst, &tracker).expect("Figure 1 is solvable");
    assert!(is_popular_brute_force(&inst, &run.matching));
}

/// E1 — Figures 1–3: reduced graph, Algorithm 2 peeling, popular matching.
#[test]
fn e1_figure1_to_figure3_pipeline() {
    let inst = paper::figure1_instance();
    let tracker = DepthTracker::new();

    // Figure 2: f-posts {p1,p4,p5,p7}, s-posts {p2,p3,p6,p8,p9} and the
    // reduced lists.
    let run = popular_matching_run(&inst, &tracker).expect("Figure 1 is solvable");
    assert_eq!(run.reduced.f_posts(), vec![0, 3, 4, 6]);
    assert_eq!(run.reduced.s_posts(), vec![1, 2, 5, 7, 8]);
    for (a, (f, s)) in pm_instances::paper::figure2_reduced_lists()
        .into_iter()
        .enumerate()
    {
        assert_eq!(run.reduced.f(a), f);
        assert_eq!(run.reduced.s(a), s);
    }

    // Section III-C: the while loop matches (a8,p9), (a6,p6), (a7,p8), (a5,p5).
    assert_eq!(run.matching.post(7), 8);
    assert_eq!(run.matching.post(5 - 1), 4); // a5 -> p5
    assert_eq!(run.matching.post(6 - 1), 6); // after promotion a6 ends on p7 or p6
                                             // (a6 is matched to p6 by peeling and may be the applicant promoted to p7;
                                             //  either way the matching is popular — checked below.)

    // Figure 3: after peeling, a1..a4 are matched within {p1..p4}.
    for a in 0..4 {
        assert!(run.matching.post(a) <= 3);
    }

    // The resulting matching is popular and applicant-perfect on real posts.
    assert!(is_popular_characterization(&inst, &run.matching));
    assert_eq!(run.matching.size(&inst), 8);

    // The exact matching printed in the paper is also popular.
    let paper_matching = pm_instances::paper::figure1_popular_matching();
    assert!(is_popular_characterization(&inst, &paper_matching));

    // Lemma 2: the peeling loop stays within ⌈log₂ n⌉ + 1 rounds.
    let bound = (inst.num_applicants() as f64).log2().ceil() as u32 + 1;
    assert!(run.peel_rounds <= bound);
}

/// E2 — Figure 4: the switching graph of the paper's matching has one
/// switching cycle (p1 p2 p4 p3) and two switching paths (from p8 and p9).
#[test]
fn e2_figure4_switching_graph() {
    let inst = paper::figure1_instance();
    let tracker = DepthTracker::new();
    let run = popular_matching_run(&inst, &tracker).unwrap();
    let m = pm_instances::paper::figure1_popular_matching();
    let sg = SwitchingGraph::build(&run.reduced, &m, &tracker);

    let components = sg.components(&tracker);
    assert_eq!(components.len(), 2, "Figure 4 has two components");

    let mut cycles = 0;
    let mut trees = 0;
    for c in &components {
        match &c.kind {
            ComponentKind::Cycle(cycle) => {
                cycles += 1;
                let mut sorted = cycle.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2, 3], "the cycle is on p1..p4");
            }
            ComponentKind::Tree { sink } => {
                trees += 1;
                assert_eq!(*sink, 5, "the sink is p6");
            }
        }
    }
    assert_eq!((cycles, trees), (1, 1));

    // Two switching paths, starting at the s-posts p8 and p9.
    assert!(sg.switching_path(7).is_some());
    assert!(sg.switching_path(8).is_some());
    assert!(
        sg.switching_path(4).is_none(),
        "p5 is an f-post, not a path start"
    );

    // All margins are zero on this instance, so the matching is already
    // maximum-cardinality.
    let max = maximum_cardinality_popular_matching_nc(&inst, &tracker).unwrap();
    assert_eq!(max.size(&inst), m.size(&inst));
}

/// E3 — Figures 5–7: the stable marriage example, its reduced lists, the
/// switching graph H_M and the two exposed rotations.
#[test]
fn e3_figure5_to_figure7_pipeline() {
    let (inst, m) = paper::figure5_instance();
    let tracker = DepthTracker::new();
    assert!(inst.is_stable(&m));

    // Figure 6: the reduced lists (spot-check the full table).
    let reduced = popular_matchings::stable::next::reduced_men_lists(&inst, &m, &tracker);
    assert_eq!(reduced[0], vec![7, 2]); // m1: w8 w3
    assert_eq!(reduced[2], vec![4, 0, 5, 1]); // m3: w5 w1 w6 w2
    assert_eq!(reduced[7], vec![3, 1, 5]); // m8: w4 w2 w6

    // Figure 7: rotations (m1 m2 m4) and (m3 m6).
    let outcome = next_stable_matchings(&inst, &m, &tracker);
    let NextStableOutcome::Next(results) = outcome else {
        panic!("M is not woman-optimal");
    };
    let men: Vec<Vec<usize>> = results.iter().map(|(r, _)| r.men()).collect();
    assert_eq!(men, pm_instances::paper::figure7_rotation_men());

    // Every elimination is stable and immediately dominated by M.
    for (_, next) in &results {
        assert!(inst.is_stable(next));
        assert!(m.strictly_dominates(next, &inst));
    }

    // The woman-optimal matching exposes no rotation.
    assert_eq!(
        next_stable_matchings(&inst, &inst.woman_optimal(), &tracker),
        NextStableOutcome::WomanOptimal
    );
}
