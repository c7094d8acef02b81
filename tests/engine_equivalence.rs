//! Equivalence property tests for the router: [`l2r_core::L2r::route`]
//! must answer **bit-identically** to the reference router
//! [`l2r_core::oracle::route`] — same paths, same strategies, same `None`s —
//! across a swept grid of vertex pairs and across every ordered pair of
//! stored inner-path vertices of every region (pairs the grid mostly steps
//! over), on both quick-scale experiment datasets, and `route_many`
//! (parallel, one scratch per worker) must reproduce serial routing exactly.

use l2r_core::{oracle, QueryScratch, RouteStrategy};
use l2r_eval::{build_dataset, DatasetSpec, Scale};
use l2r_road_network::VertexId;

fn sweep_pairs(num_vertices: u32, i_step: usize, j_step: usize) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::new();
    for i in (0..num_vertices).step_by(i_step) {
        for j in (1..num_vertices).step_by(j_step) {
            if i != j {
                pairs.push((VertexId(i), VertexId(j)));
            }
        }
    }
    pairs
}

fn assert_engine_matches_free(spec: DatasetSpec) {
    let name = spec.name;
    let ds = build_dataset(spec);
    let net = &ds.synthetic.net;
    let rg = ds.model.region_graph();
    let mut scratch = QueryScratch::new();

    let pairs = sweep_pairs(net.num_vertices() as u32, 7, 13);
    assert!(pairs.len() > 100, "sweep should cover many pairs on {name}");
    let mut answered = 0usize;
    for (s, d) in &pairs {
        let free = oracle::route(net, rg, *s, *d);
        let fast = ds.model.route(&mut scratch, *s, *d);
        assert_eq!(free, fast, "{name}: query {s:?} -> {d:?}");
        if free.is_some() {
            answered += 1;
        }
    }
    assert!(
        answered * 2 > pairs.len(),
        "{name}: most swept queries should be answerable ({answered}/{})",
        pairs.len()
    );

    // Inside each region, every ordered pair of stored inner-path vertices.
    let (mut inner, mut reused) = (0usize, 0usize);
    for region in rg.regions() {
        let mut vertices: Vec<VertexId> = rg
            .inner_paths(region.id)
            .iter()
            .flat_map(|sp| sp.path.vertices().iter().copied())
            .collect();
        vertices.sort_unstable();
        vertices.dedup();
        for &s in &vertices {
            for &d in vertices.iter().filter(|&&d| d != s) {
                let free = oracle::route(net, rg, s, d);
                let fast = ds.model.route(&mut scratch, s, d);
                assert_eq!(free, fast, "{name}: inner query {s:?} -> {d:?}");
                inner += 1;
                if fast.is_some_and(|r| r.strategy == RouteStrategy::InnerRegionTrajectory) {
                    reused += 1;
                }
            }
        }
    }
    // Pairs whose vertices lie on different stored paths fall back to a
    // fastest path; at least a third reuse one.
    assert!(
        reused * 3 > inner,
        "{name}: too few inner pairs reuse a stored path ({reused}/{inner})"
    );
}

#[test]
fn engine_is_bit_identical_to_free_route_on_d1() {
    assert_engine_matches_free(DatasetSpec::d1(Scale::Quick));
}

#[test]
fn engine_is_bit_identical_to_free_route_on_d2() {
    assert_engine_matches_free(DatasetSpec::d2(Scale::Quick));
}

#[test]
fn route_many_is_deterministic_and_matches_serial() {
    let ds = build_dataset(DatasetSpec::d1(Scale::Quick));
    let engine = &ds.model;
    let queries = sweep_pairs(ds.synthetic.net.num_vertices() as u32, 11, 17);
    assert!(queries.len() > 50);

    // Serial reference: one scratch, in query order.
    let mut scratch = QueryScratch::new();
    let serial: Vec<_> = queries
        .iter()
        .map(|(s, d)| engine.route(&mut scratch, *s, *d))
        .collect();

    // Parallel batches must reproduce the serial answers in order, run after
    // run (worker scheduling must never leak into results).
    for _ in 0..2 {
        let batch = engine.route_many(&queries);
        assert_eq!(batch, serial);
    }
}
