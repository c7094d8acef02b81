//! Concurrent serving must be bit-identical to serial serving: N threads
//! hammering one shared `Arc<L2r>` (each with its own `QueryScratch`)
//! must produce exactly the answers a single-threaded pass produces, and —
//! extending the generation-counting argument of `engine_scratch.rs` across
//! threads — the process-wide Dijkstra search counter must advance by
//! exactly the *sum* of every thread's scratch generation delta: no hidden
//! search state is allocated no matter how many threads serve.
//!
//! This file intentionally holds a single `#[test]`: the search counter is
//! process-global, and a sibling test running concurrently in the same test
//! binary would perturb it.

use std::collections::HashMap;
use std::sync::Arc;

use l2r_core::{apply_preferences_to_b_edges, L2r, QueryScratch};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
use l2r_road_network::{searches_performed, VertexId};

#[test]
fn threads_sharing_one_engine_serve_bit_identically_with_no_hidden_searches() {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
    let clusters = bottom_up_clustering(&tg);
    let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
    apply_preferences_to_b_edges(&syn.net, &mut rg, &HashMap::new(), 2);

    // The thin borrowed-graphs constructor: tests need no fitted model.
    let engine = Arc::new(L2r::from_graphs(&syn.net, &rg));

    // A mixed workload: Case-1, Case-2 and unanswerable queries alike.
    let n = syn.net.num_vertices() as u32;
    let queries: Vec<(VertexId, VertexId)> = (0..n)
        .flat_map(|i| {
            (1..n)
                .step_by(5)
                .map(move |j| (VertexId(i), VertexId((j * 13 + i) % n)))
        })
        .filter(|(s, d)| s != d)
        .take(300)
        .collect();
    assert!(queries.len() >= 100, "need a meaningful workload");

    // Serial reference: one scratch, one pass — also warms nothing shared,
    // since each thread below brings a fresh scratch of its own.
    let mut serial_scratch = QueryScratch::new();
    let serial: Vec<_> = queries
        .iter()
        .map(|(s, d)| engine.route(&mut serial_scratch, *s, *d))
        .collect();
    assert!(
        serial.iter().any(|r| r.is_some()),
        "the workload should be answerable"
    );

    const THREADS: usize = 4;
    let searches_before = searches_performed();
    let outcomes: Vec<(Vec<Option<l2r_core::RouteResult>>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let queries = &queries;
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    let gen_before = scratch.search_generation();
                    let results: Vec<_> = queries
                        .iter()
                        .map(|(s, d)| engine.route(&mut scratch, *s, *d))
                        .collect();
                    (results, u64::from(scratch.search_generation() - gen_before))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread"))
            .collect()
    });
    let searches = searches_performed() - searches_before;

    // 1. Bit-identical answers on every thread.
    let mut generation_sum = 0u64;
    for (tid, (results, generations)) in outcomes.iter().enumerate() {
        assert_eq!(
            results, &serial,
            "thread {tid} must answer exactly like the serial pass"
        );
        generation_sum += generations;
    }

    // 2. Every search of every thread ran through that thread's scratch:
    // the global counter advanced by exactly the summed generation deltas.
    assert_eq!(
        searches, generation_sum,
        "global search count must equal the sum of all threads' scratch generations"
    );
    assert!(generation_sum > 0, "the workload must exercise searches");
}
