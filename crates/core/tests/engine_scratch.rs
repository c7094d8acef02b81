//! Proves the serving path reuses its scratch search state instead
//! of allocating hidden search spaces: over a Case-1 query workload, the
//! process-wide Dijkstra search counter advances by *exactly* the scratch
//! space's generation delta — any thread-local fallback or freshly allocated
//! `SearchSpace` on the query path would break the equality.
//!
//! This file intentionally holds a single `#[test]`: the search counter is
//! process-global, and a sibling test running concurrently in the same test
//! binary would perturb it.  (`engine_concurrency.rs` extends the same
//! counting argument across threads.)

use std::collections::HashMap;

use l2r_core::{apply_preferences_to_b_edges, L2r, QueryScratch, RegionCoverage};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
use l2r_road_network::{searches_performed, VertexId};

#[test]
fn case1_queries_route_all_searches_through_the_reused_scratch() {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
    let clusters = bottom_up_clustering(&tg);
    let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
    apply_preferences_to_b_edges(&syn.net, &mut rg, &HashMap::new(), 2);

    let engine = L2r::from_graphs(&syn.net, &rg);
    // Collect Case-1 queries: both endpoints covered by regions.
    let n = syn.net.num_vertices() as u32;
    let queries: Vec<(VertexId, VertexId)> = (0..n)
        .flat_map(|i| (1..n).step_by(7).map(move |j| (VertexId(i), VertexId(j))))
        .filter(|(s, d)| {
            s != d && l2r_core::region_coverage(&rg, *s, *d) == RegionCoverage::InRegion
        })
        .take(200)
        .collect();
    assert!(
        queries.len() >= 50,
        "need a meaningful Case-1 workload, got {}",
        queries.len()
    );

    let mut scratch = QueryScratch::new();
    // Warm up buffers (first queries grow the stamped arrays).
    for (s, d) in queries.iter().take(10) {
        let _ = engine.route(&mut scratch, *s, *d);
    }

    let searches_before = searches_performed();
    let road_gen_before = scratch.search_generation();
    let region_gen_before = scratch.region_generation();
    let mut answered = 0usize;
    for (s, d) in &queries {
        if engine.route(&mut scratch, *s, *d).is_some() {
            answered += 1;
        }
    }
    let searches = searches_performed() - searches_before;
    let road_gens = u64::from(scratch.search_generation() - road_gen_before);
    let region_gens = scratch.region_generation() - region_gen_before;

    assert!(answered > 0, "the workload should be answerable");
    // Every road-network search of the workload went through the one scratch
    // space: nothing allocated a fresh or thread-local space behind our back.
    assert_eq!(
        searches, road_gens,
        "global search count must equal the scratch generation delta"
    );
    // Case-1 queries never run more searches than queries issued per
    // region-graph leg; sanity-bound the region-level scratch too.
    assert!(
        (region_gens as usize) <= queries.len(),
        "at most one region search per query"
    );
}
