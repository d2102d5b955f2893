//! Property-based integration tests (experiments E11 and E12): structural
//! invariants of the switching graph, popularity of every algorithm output,
//! and agreement between the parallel algorithms and their sequential
//! baselines, on randomly generated instances.
//!
//! These used to be `proptest` strategies; they are now plain seeded-`rand`
//! loops so the suite has no dependencies the offline build cannot provide.
//! Every case is deterministic per seed, so failures reproduce exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use popular_matchings::graph::connected::connected_components_union_find;
use popular_matchings::popular::algorithm1::popular_matching_run;
use popular_matchings::popular::max_cardinality::{
    improve_to_maximum_cardinality, maximum_cardinality_popular_matching_nc,
};
use popular_matchings::popular::reduced::ReducedGraph;
use popular_matchings::popular::switching::ComponentKind;
use popular_matchings::popular::verify::{
    enumerate_assignments, is_popular_brute_force, is_popular_characterization,
};
use popular_matchings::prelude::*;

const CASES: usize = 96;

/// A random strict preference instance with up to `max_a` applicants and
/// `max_p` posts: every list is a random non-empty sequence of posts, deduped
/// keeping first occurrences so it is a valid strict preference list.
fn strict_instance(rng: &mut StdRng, max_a: usize, max_p: usize) -> PrefInstance {
    let n_a = rng.random_range(1..=max_a);
    let n_p = rng.random_range(1..=max_p);
    let lists: Vec<Vec<usize>> = (0..n_a)
        .map(|_| {
            let len = rng.random_range(1..=n_p);
            let mut seen = vec![false; n_p];
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                let p = rng.random_range(0..n_p);
                if !seen[p] {
                    seen[p] = true;
                    list.push(p);
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(n_p, lists).expect("deduped lists are valid")
}

/// E12 — every matching produced by Algorithm 1 is popular, both by the
/// Theorem 1 characterisation and by the definitional brute-force check.
#[test]
fn algorithm1_outputs_are_popular() {
    let mut rng = StdRng::seed_from_u64(0xE12);
    for case in 0..CASES {
        let inst = strict_instance(&mut rng, 5, 5);
        let tracker = DepthTracker::new();
        match popular_matching_nc(&inst, &tracker) {
            Ok(m) => {
                assert!(m.is_valid(&inst), "case {case}");
                assert!(is_popular_characterization(&inst, &m), "case {case}");
                assert!(is_popular_brute_force(&inst, &m), "case {case}");
            }
            Err(PopularError::NoPopularMatching) => {
                // No valid assignment may be popular.
                for cand in enumerate_assignments(&inst) {
                    assert!(!is_popular_brute_force(&inst, &cand), "case {case}");
                }
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
}

/// The parallel algorithm and the sequential baseline agree on feasibility,
/// and both outputs are popular (Algorithm 1 returns an *arbitrary* popular
/// matching, so only popularity and validity are compared).
#[test]
fn parallel_and_sequential_feasibility_agree() {
    let mut rng = StdRng::seed_from_u64(0xFEA5);
    for case in 0..CASES {
        let inst = strict_instance(&mut rng, 6, 6);
        let tracker = DepthTracker::new();
        let par = popular_matching_nc(&inst, &tracker);
        let seq = popular_matching_sequential(&inst);
        match (par, seq) {
            (Ok(p), Ok(s)) => {
                assert!(is_popular_characterization(&inst, &p), "case {case}");
                assert!(is_popular_characterization(&inst, &s), "case {case}");
            }
            (Err(PopularError::NoPopularMatching), Err(PopularError::NoPopularMatching)) => {}
            (p, s) => panic!("case {case}: disagreement: {p:?} vs {s:?}"),
        }
    }
}

/// The NC algorithm, the sequential baseline, and the definitional
/// brute-force check all agree on existence, and every produced matching is
/// popular by brute force, on random strict instances with up to 10
/// applicants and posts.
#[test]
fn nc_sequential_and_brute_force_agree_on_popularity() {
    let mut rng = StdRng::seed_from_u64(0xA62EE);
    for case in 0..CASES {
        // Brute force enumerates all assignments: keep the instance small
        // (the enumeration is exponential in the number of applicants).
        let inst = strict_instance(&mut rng, 4, 10);
        let tracker = DepthTracker::new();
        let nc = popular_matching_nc(&inst, &tracker);
        let seq = popular_matching_sequential(&inst);
        // Enumerate once and compare pairwise (is_popular_brute_force would
        // re-enumerate all assignments for every candidate).
        let candidates = enumerate_assignments(&inst);
        let brute_exists = candidates.iter().any(|m| {
            candidates
                .iter()
                .all(|other| !more_popular(&inst, other, m))
        });
        assert_eq!(
            nc.is_ok(),
            brute_exists,
            "case {case}: NC vs brute force existence"
        );
        assert_eq!(
            seq.is_ok(),
            brute_exists,
            "case {case}: sequential vs brute force existence"
        );
        if let Ok(m) = nc {
            assert!(
                is_popular_brute_force(&inst, &m),
                "case {case}: NC output popular"
            );
        }
        if let Ok(m) = seq {
            assert!(
                is_popular_brute_force(&inst, &m),
                "case {case}: sequential output popular"
            );
        }
    }
}

/// The flat-CSR instance storage is observationally identical to the nested
/// `Vec<Vec<Vec<usize>>>` layout it replaced: every accessor reproduces the
/// nested input, and the whole pipeline (reduced graph, matching, switching
/// components) is byte-identical to a reference computed straight from the
/// nested lists — on random strict *and* tied instances, including the
/// last-resort edge cases (lists whose every entry is an f-post).
#[test]
fn csr_layout_agrees_with_nested_reference() {
    let mut rng = StdRng::seed_from_u64(0xC52);
    for case in 0..CASES {
        // Random tied lists, nested form: the ground truth.
        let n_p = rng.random_range(1..=6usize);
        let n_a = rng.random_range(1..=6usize);
        let nested: Vec<Vec<Vec<usize>>> = (0..n_a)
            .map(|_| {
                let len = rng.random_range(1..=n_p);
                let mut seen = vec![false; n_p];
                let mut posts = Vec::new();
                for _ in 0..len {
                    let p = rng.random_range(0..n_p);
                    if !seen[p] {
                        seen[p] = true;
                        posts.push(p);
                    }
                }
                // Split into consecutive tie groups of random sizes.
                let mut groups = Vec::new();
                let mut rest = posts.as_slice();
                while !rest.is_empty() {
                    let take = rng.random_range(1..=rest.len());
                    groups.push(rest[..take].to_vec());
                    rest = &rest[take..];
                }
                groups
            })
            .collect();
        let inst = PrefInstance::new_with_ties(n_p, nested.clone()).expect("valid lists");

        // Accessors reproduce the nested layout exactly.
        for (a, list) in nested.iter().enumerate() {
            assert_eq!(inst.num_ranks(a), list.len(), "case {case}");
            let flat: Vec<usize> = list.iter().flatten().copied().collect();
            assert_eq!(inst.flat_list(a), flat.as_slice(), "case {case}");
            assert_eq!(inst.first_choice(a), list[0][0], "case {case}");
            for (r, group) in list.iter().enumerate() {
                assert_eq!(inst.group_slice(a, r), group.as_slice(), "case {case}");
                for &p in group {
                    assert_eq!(inst.rank(a, p), Some(r), "case {case}");
                }
            }
            let collected: Vec<&[pm_pram::Idx]> = inst.groups(a).collect();
            let expected: Vec<&[usize]> = list.iter().map(Vec::as_slice).collect();
            assert_eq!(collected, expected, "case {case}");
            // Unranked posts and foreign last resorts stay unranked.
            for p in 0..n_p {
                if !flat.contains(&p) {
                    assert_eq!(inst.rank(a, p), None, "case {case}");
                }
            }
            assert_eq!(inst.rank(a, inst.last_resort(a)), Some(list.len()));
        }

        // Strict projection: pipeline agreement against a reference reduced
        // graph computed directly from the nested lists (the seed semantics).
        let strict_lists: Vec<Vec<usize>> = nested
            .iter()
            .map(|list| list.iter().flatten().copied().collect())
            .collect();
        let strict = PrefInstance::new_strict(n_p, strict_lists.clone()).unwrap();
        let tracker = DepthTracker::new();
        let par = ReducedGraph::build_parallel(&strict, &tracker).unwrap();
        let seq = ReducedGraph::build_sequential(&strict).unwrap();
        assert_eq!(par, seq, "case {case}");
        // Reference f/s from the nested lists: f(a) is the list head; s(a)
        // is the first non-f entry, falling back to the last resort.
        let f_ref: Vec<usize> = strict_lists.iter().map(|l| l[0]).collect();
        for (a, list) in strict_lists.iter().enumerate() {
            assert_eq!(par.f(a), list[0], "case {case}");
            let s_ref = list
                .iter()
                .copied()
                .find(|p| !f_ref.contains(p))
                .unwrap_or_else(|| strict.last_resort(a));
            assert_eq!(par.s(a), s_ref, "case {case}");
        }

        // Matching and switching components are deterministic functions of
        // the reduced graph: identical across repeated runs and across the
        // parallel/sequential reduced-graph constructions.
        if let Ok(run) = popular_matching_run(&strict, &tracker) {
            let rerun = popular_matching_run(&strict, &DepthTracker::new()).unwrap();
            assert_eq!(run.matching, rerun.matching, "case {case}");
            let sg_par = SwitchingGraph::build(&run.reduced, &run.matching, &tracker);
            let sg_seq = SwitchingGraph::build(&seq, &run.matching, &tracker);
            let comps_par = sg_par.components(&tracker);
            let comps_seq = sg_seq.components(&tracker);
            assert_eq!(comps_par.len(), comps_seq.len(), "case {case}");
            for (cp, cs) in comps_par.iter().zip(comps_seq.iter()) {
                assert_eq!(cp.posts, cs.posts, "case {case}");
                assert_eq!(cp.kind, cs.kind, "case {case}");
            }
        }
    }

    // The ties path: the CSR-built rank-1 instance is identical to the one
    // built from nested single-group lists (the seed construction).
    let mut rng = StdRng::seed_from_u64(0xC53);
    for case in 0..CASES {
        let n_l = rng.random_range(1..=6usize);
        let n_r = rng.random_range(1..=6usize);
        let mut edges = Vec::new();
        for l in 0..n_l {
            edges.push((l, rng.random_range(0..n_r)));
            for r in 0..n_r {
                if rng.random_range(0..3) == 0 {
                    edges.push((l, r));
                }
            }
        }
        let g = BipartiteGraph::from_edges(n_l, n_r, &edges);
        let via_csr = popular_matchings::popular::ties::rank1_instance(&g).unwrap();
        let nested: Vec<Vec<Vec<usize>>> = (0..n_l)
            .map(|l| vec![g.neighbors_left(l).iter().map(|r| r.get()).collect()])
            .collect();
        let via_nested = PrefInstance::new_with_ties(n_r, nested).unwrap();
        assert_eq!(via_csr, via_nested, "case {case}");
    }
}

/// E11 — switching graph structural invariants (Lemma 4): out-degree at most
/// one, sinks are exactly the unmatched reduced posts and are all s-posts,
/// and every component contains a single sink or a single cycle.
#[test]
fn switching_graph_invariants() {
    let mut rng = StdRng::seed_from_u64(0xE11);
    for case in 0..CASES {
        let inst = strict_instance(&mut rng, 6, 6);
        let tracker = DepthTracker::new();
        let Ok(run) = popular_matching_run(&inst, &tracker) else {
            continue;
        };
        let sg = SwitchingGraph::build(&run.reduced, &run.matching, &tracker);

        // Sinks are unmatched s-posts.
        for p in sg.sinks() {
            assert!(sg.is_s_post(p), "case {case}");
            assert!(sg.applicant_at(p).is_none(), "case {case}");
        }

        // Each component: exactly one sink (tree) or exactly one cycle.
        for comp in &sg.components(&tracker) {
            let sinks_inside = comp
                .posts
                .iter()
                .filter(|&&p| sg.successor(p).is_none())
                .count();
            match comp.kind {
                ComponentKind::Tree { .. } => assert_eq!(sinks_inside, 1, "case {case}"),
                ComponentKind::Cycle(cycle) => {
                    assert_eq!(sinks_inside, 0, "case {case}");
                    assert!(cycle.len() >= 2, "case {case}");
                    // The cycle is closed under successors.
                    for (i, &p) in cycle.iter().enumerate() {
                        let next = cycle[(i + 1) % cycle.len()];
                        assert_eq!(sg.successor(p), Some(next), "case {case}");
                    }
                }
            }
        }
    }
}

/// Checks `SwitchingGraph::components` against three references that share
/// no code with it: union–find over the `(p, succ p)` edges for the
/// component sets and their order, the sequential three-colour cycle walk
/// for the cycle sequences, and `sinks()` for the tree kinds.  Returns the
/// number of (cycle, tree) components seen.
fn assert_components_match_oracles(
    sg: &SwitchingGraph,
    total: usize,
    what: &str,
) -> (usize, usize) {
    let edges: Vec<(usize, usize)> = (0..total)
        .filter_map(|p| sg.successor(p).map(|q| (p, q)))
        .collect();
    let uf = connected_components_union_find(total, &edges);
    // Per component, in order of its smallest post.
    #[derive(Default)]
    struct Want {
        posts: Vec<usize>,
        cycle: Option<Vec<usize>>,
        sinks: Vec<usize>,
    }
    let mut slot_of = vec![usize::MAX; total];
    let mut want: Vec<Want> = Vec::new();
    for p in (0..total).filter(|&p| sg.in_graph(p)) {
        let label = uf.label[p];
        if slot_of[label] == usize::MAX {
            slot_of[label] = want.len();
            want.push(Default::default());
        }
        want[slot_of[label]].posts.push(p);
    }
    for cycle in sg.functional_graph().cycles_sequential() {
        let slot = &mut want[slot_of[uf.label[cycle[0]]]].cycle;
        assert!(slot.is_none(), "{what}: two cycles in one component");
        *slot = Some(cycle);
    }
    for sink in sg.sinks() {
        want[slot_of[uf.label[sink]]].sinks.push(sink);
    }

    let got = sg.components(&DepthTracker::new());
    assert_eq!(got.len(), want.len(), "{what}: component count");
    let mut seen = (0, 0);
    for (
        i,
        (
            c,
            Want {
                posts,
                cycle,
                sinks,
            },
        ),
    ) in got.iter().zip(&want).enumerate()
    {
        assert_eq!(c.posts[..], posts[..], "{what}: posts of component {i}");
        match (&c.kind, cycle) {
            (ComponentKind::Cycle(seq), Some(cycle)) => {
                assert_eq!(seq[..], cycle[..], "{what}: cycle of component {i}");
                assert!(sinks.is_empty(), "{what}: sink in cycle component {i}");
                seen.0 += 1;
            }
            (ComponentKind::Tree { sink }, None) => {
                assert_eq!(sinks[..], [*sink], "{what}: sink of component {i}");
                seen.1 += 1;
            }
            (kind, _) => panic!("{what}: component {i} is {kind:?}, oracle: {cycle:?} {sinks:?}"),
        }
    }
    seen
}

/// A switching graph whose only edges are `order[i] → order[i + 1]` (and
/// `order[last] → order[0]` when `closed`): applicant `i` is matched to
/// `order[i]` with `order[i + 1]` as its other reduced post.  An open chain
/// is one long switching path into the sink `order[last]`; a closed one is
/// a single switching cycle through every post.
fn chain_switching_graph(order: &[usize], closed: bool) -> (SwitchingGraph, usize) {
    let n_p = order.len();
    let n_a = if closed { n_p } else { n_p - 1 };
    let f: Vec<Idx> = (0..n_a).map(|i| Idx::new(order[i])).collect();
    let s: Vec<Idx> = (0..n_a).map(|i| Idx::new(order[(i + 1) % n_p])).collect();
    let mut is_f_post = vec![false; n_p + n_a];
    for &p in &f {
        is_f_post[p.get()] = true;
    }
    let reduced = ReducedGraph::from_parts(n_p, f, s, is_f_post);
    let matching = Assignment::new(order[..n_a].to_vec());
    let sg = SwitchingGraph::build(&reduced, &matching, &DepthTracker::new());
    (sg, reduced.total_posts())
}

/// `components` agrees with the independent oracles on generated
/// instances (`clustered_scattered`, `solvable`, uniform) up to n = 2¹², and
/// on one long switching path and one long switching cycle.
#[test]
fn switching_components_match_independent_oracles() {
    let mut seen = (0, 0);
    for &n in &[1usize, 2, 5, 16, 100, 1000, 4096] {
        for seed in 0..3u64 {
            let cfg = GeneratorConfig {
                num_applicants: n,
                num_posts: n + n / 8 + 1,
                list_len: 5,
                seed,
            };
            let cases = [
                (
                    "clustered_scattered",
                    generators::clustered_scattered(&cfg, 256),
                ),
                ("solvable", generators::solvable(&cfg)),
                (
                    "uniform",
                    generators::uniform_strict(&GeneratorConfig::new(n.min(64), seed)),
                ),
            ];
            for (name, inst) in cases {
                let tracker = DepthTracker::new();
                let Ok(run) = popular_matching_run(&inst, &tracker) else {
                    continue;
                };
                let sg = SwitchingGraph::build(&run.reduced, &run.matching, &tracker);
                let what = format!("{name} n={n} seed={seed}");
                let s = assert_components_match_oracles(&sg, run.reduced.total_posts(), &what);
                seen = (seen.0 + s.0, seen.1 + s.1);
            }
        }
    }
    assert!(seen.0 > 0 && seen.1 > 0, "both kinds covered: {seen:?}");

    let mut rng = StdRng::seed_from_u64(0x5C0);
    for &n in &[2usize, 3, 4096] {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for closed in [false, true] {
            let (sg, total) = chain_switching_graph(&order, closed);
            let what = format!("chain n={n} closed={closed}");
            let want = if closed { (1, 0) } else { (0, 1) };
            assert_eq!(assert_components_match_oracles(&sg, total, &what), want);
        }
    }
}

/// Algorithm 3 never decreases the size, its output is popular, and it
/// matches the brute-force maximum on small instances.
#[test]
fn algorithm3_maximises_cardinality() {
    let mut rng = StdRng::seed_from_u64(0xA13);
    for case in 0..CASES {
        let inst = strict_instance(&mut rng, 5, 5);
        let tracker = DepthTracker::new();
        let Ok(run) = popular_matching_run(&inst, &tracker) else {
            continue;
        };
        let improved = improve_to_maximum_cardinality(&run.reduced, &run.matching, &tracker);
        assert!(
            improved.size(&inst) >= run.matching.size(&inst),
            "case {case}"
        );
        assert!(is_popular_characterization(&inst, &improved), "case {case}");

        let best = enumerate_assignments(&inst)
            .into_iter()
            .filter(|m| is_popular_characterization(&inst, m))
            .map(|m| m.size(&inst))
            .max()
            .unwrap();
        assert_eq!(improved.size(&inst), best, "case {case}");

        let direct = maximum_cardinality_popular_matching_nc(&inst, &tracker).unwrap();
        assert_eq!(direct.size(&inst), best, "case {case}");
    }
}

/// Algorithm 4 invariants on random stable-marriage instances: every
/// produced matching is stable, strictly dominated by its predecessor, and
/// the woman-optimal matching is the unique fixed point.
#[test]
fn algorithm4_invariants() {
    let mut rng = StdRng::seed_from_u64(0xA14);
    for case in 0..CASES {
        let n = rng.random_range(1..8usize);
        let seed = rng.random_range(0..1000u64);
        let inst = generators::random_sm_instance(n, seed);
        let tracker = DepthTracker::new();
        let mut current = inst.man_optimal();
        let mz = inst.woman_optimal();
        let mut guard = 0;
        loop {
            match next_stable_matchings(&inst, &current, &tracker) {
                NextStableOutcome::WomanOptimal => {
                    assert_eq!(&current, &mz, "case {case}");
                    break;
                }
                NextStableOutcome::Next(results) => {
                    assert!(!results.is_empty(), "case {case}");
                    for (rotation, next) in &results {
                        assert!(rotation.len() >= 2, "case {case}");
                        assert!(inst.is_stable(next), "case {case}");
                        assert!(current.strictly_dominates(next, &inst), "case {case}");
                    }
                    current = results[0].1.clone();
                }
            }
            guard += 1;
            assert!(guard <= n * n + 2, "case {case}: lattice walk too long");
        }
    }
}

/// E18 — the 32-bit index funnel (DESIGN.md §7): instances whose entity or
/// edge counts would overflow the `u32` layer are rejected with the typed
/// [`PopularError::TooLarge`] *before* any proportional allocation, and
/// `Idx` round-trips never collide with the `Idx::NONE` sentinel.
#[test]
fn index_layer_rejects_overflow_and_preserves_sentinel() {
    use popular_matchings::popular::instance::{check_sizes, MAX_APPLICANTS, MAX_ENTITIES};

    // Every overflow branch, driven with fabricated counts — the cheap
    // mock; a real 4-billion-edge instance would not fit in memory.  The
    // constructors call the same funnel before allocating anything.
    assert!(matches!(
        check_sizes(MAX_APPLICANTS + 1, 0, 0),
        Err(PopularError::TooLarge {
            what: "applicants",
            ..
        })
    ));
    assert!(matches!(
        check_sizes(1, MAX_ENTITIES, 1),
        Err(PopularError::TooLarge {
            what: "extended posts",
            ..
        })
    ));
    assert!(matches!(
        check_sizes(1, 1, MAX_ENTITIES + 1),
        Err(PopularError::TooLarge {
            what: "preference edges",
            ..
        })
    ));
    assert!(check_sizes(1, 1, 1).is_ok());
    assert!(check_sizes(MAX_APPLICANTS, MAX_ENTITIES - MAX_APPLICANTS, MAX_ENTITIES).is_ok());
    // Saturating total: a usize-overflowing post count cannot wrap past
    // the check.
    assert!(check_sizes(2, usize::MAX - 1, 0).is_err());

    // Constructor wiring: a post count beyond the layer is rejected as
    // TooLarge (not a panic, not a truncation) by every entry point that
    // can express it without allocating.
    assert!(matches!(
        PrefInstance::new_strict(u32::MAX as usize, vec![vec![0]]),
        Err(PopularError::TooLarge { .. })
    ));
    assert!(matches!(
        PrefInstance::new_with_ties(usize::MAX / 2, vec![vec![vec![0]]]),
        Err(PopularError::TooLarge { .. })
    ));
    assert!(matches!(
        PrefInstance::new_rank1(u32::MAX as usize, &[0, 1], &[Idx::new(0)]),
        Err(PopularError::TooLarge { .. })
    ));

    // Sentinel discipline: no representable index ever equals Idx::NONE,
    // boundary values round-trip exactly, and the first unrepresentable
    // value is refused (it would alias the sentinel).
    for i in [0usize, 1, 12_345, Idx::MAX_INDEX - 1, Idx::MAX_INDEX] {
        let idx = Idx::try_new(i).expect("in range");
        assert!(idx.is_some() && !idx.is_none());
        assert_ne!(idx, Idx::NONE);
        assert_eq!(idx.get(), i);
        assert_eq!(idx.some(), Some(i));
    }
    assert_eq!(Idx::try_new(Idx::MAX_INDEX + 1), None);
    assert_eq!(Idx::try_new(usize::MAX), None);
    assert_eq!(Idx::NONE.some(), None);
    let mut rng = StdRng::seed_from_u64(0xE18);
    for _ in 0..10_000 {
        let i = rng.random_range(0..=Idx::MAX_INDEX);
        let idx = Idx::try_new(i).expect("in range");
        assert_eq!(idx.get(), i);
        assert_ne!(idx, Idx::NONE);
    }
}
