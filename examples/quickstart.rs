//! Quickstart: run the paper's worked example end to end.
//!
//! Reproduces Section III-C: the Figure 1 instance, its reduced graph
//! (Figure 2), the NC popular matching (Algorithm 1), the switching graph
//! (Figure 4), and the maximum-cardinality popular matching (Algorithm 3).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use popular_matchings::popular::switching::ComponentKind;
use popular_matchings::prelude::*;

fn main() {
    let inst = paper::figure1_instance();
    println!(
        "Figure 1 instance: {} applicants, {} posts",
        inst.num_applicants(),
        inst.num_posts()
    );

    // Algorithm 1 ------------------------------------------------------
    let tracker = DepthTracker::new();
    let run = popular_matching_run(&inst, &tracker).expect("Figure 1 admits a popular matching");

    println!("\nReduced graph (Figure 2):");
    println!(
        "  f-posts: {:?}",
        run.reduced
            .f_posts()
            .iter()
            .map(|p| format!("p{}", p + 1))
            .collect::<Vec<_>>()
    );
    println!(
        "  s-posts: {:?}",
        run.reduced
            .s_posts()
            .iter()
            .map(|p| post_name(&inst, *p))
            .collect::<Vec<_>>()
    );
    for a in 0..inst.num_applicants() {
        println!(
            "  a{}: f = p{}, s = {}",
            a + 1,
            run.reduced.f(a) + 1,
            post_name(&inst, run.reduced.s(a))
        );
    }

    println!(
        "\nPopular matching found by Algorithm 1 (peel rounds = {}):",
        run.peel_rounds
    );
    for a in 0..inst.num_applicants() {
        println!("  a{} -> {}", a + 1, post_name(&inst, run.matching.post(a)));
    }
    assert!(is_popular_characterization(&inst, &run.matching));
    println!("  size = {} (verified popular)", run.matching.size(&inst));

    // Switching graph (Figure 4) ---------------------------------------
    let sg = SwitchingGraph::build(&run.reduced, &run.matching, &tracker);
    let components = sg.components(&tracker);
    println!("\nSwitching graph G_M ({} components):", components.len());
    for c in &components {
        match c.kind {
            ComponentKind::Cycle(cycle) => println!(
                "  cycle component on {:?}",
                cycle
                    .iter()
                    .map(|p| post_name(&inst, *p))
                    .collect::<Vec<_>>()
            ),
            ComponentKind::Tree { sink } => println!(
                "  tree component with sink {} ({} posts)",
                post_name(&inst, sink),
                c.posts.len()
            ),
        }
    }

    // Algorithm 3 ------------------------------------------------------
    let max = maximum_cardinality_popular_matching_nc(&inst, &tracker).unwrap();
    println!(
        "\nMaximum-cardinality popular matching has size {}",
        max.size(&inst)
    );

    let stats = tracker.stats();
    println!(
        "\nPRAM accounting: depth = {} rounds, work = {} operations, avg parallelism = {:.1}",
        stats.depth,
        stats.work,
        stats.average_parallelism()
    );
}

fn post_name(inst: &PrefInstance, p: usize) -> String {
    if inst.is_last_resort(p) {
        format!("l(a{})", p - inst.num_posts() + 1)
    } else {
        format!("p{}", p + 1)
    }
}
