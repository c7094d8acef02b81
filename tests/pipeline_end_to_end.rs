//! End-to-end integration tests: synthetic city -> workload -> L2R fit ->
//! routing, crossing every crate of the workspace.

use l2r_suite::prelude::*;
use l2r_suite::region_graph::RegionEdgeKind;

fn build_model(
    n_traj: usize,
    seed: u64,
) -> (
    l2r_suite::datagen::SyntheticNetwork,
    l2r_suite::datagen::Workload,
    L2r,
) {
    let city = generate_network(&SyntheticNetworkConfig::tiny());
    let mut cfg = WorkloadConfig::tiny(n_traj);
    cfg.seed = seed;
    let workload = generate_workload(&city, &cfg);
    let (train, _) = workload.temporal_split(0.8);
    let model = L2r::fit(&city.net, &train, L2rConfig::fast()).expect("fit succeeds");
    (city, workload, model)
}

#[test]
fn fitted_model_covers_the_training_corridors() {
    let (city, workload, model) = build_model(300, 1);
    let rg = model.region_graph();
    assert!(rg.num_regions() > 1);
    assert!(
        rg.is_connected(),
        "B-edges must make the region graph connected"
    );
    // Every region vertex is a real network vertex.
    for r in rg.regions() {
        for v in &r.vertices {
            assert!(v.idx() < city.net.num_vertices());
        }
    }
    // T-edges carry observed paths; B-edges got paths from Step 3 (or none if
    // unreachable, which must be rare).
    let mut t_with_paths = 0;
    for e in rg.edges() {
        match e.kind {
            RegionEdgeKind::TEdge => {
                if e.has_paths() {
                    t_with_paths += 1;
                }
            }
            RegionEdgeKind::BEdge => {}
        }
    }
    assert!(t_with_paths > 0);
    assert!(!workload.trajectories.is_empty());
}

#[test]
fn routing_answers_every_held_out_query_with_a_valid_path() {
    let (city, workload, model) = build_model(300, 2);
    let (_, test) = workload.temporal_split(0.8);
    let mut answered = 0;
    let mut scratch = QueryScratch::new();
    for t in test.iter().take(50) {
        let (s, d) = (t.source(), t.destination());
        let Some(route) = model.route(&mut scratch, s, d) else {
            continue;
        };
        route
            .path
            .validate(&city.net)
            .expect("routes must be drivable");
        assert_eq!(route.path.source(), s);
        assert_eq!(route.path.destination(), d);
        answered += 1;
    }
    assert!(
        answered as f64 >= test.len().min(50) as f64 * 0.9,
        "answered {answered}"
    );
}

#[test]
fn l2r_beats_or_matches_shortest_on_aggregate_accuracy() {
    let (city, workload, model) = build_model(350, 3);
    let (_, test) = workload.temporal_split(0.8);
    let mut l2r_sum = 0.0;
    let mut shortest_sum = 0.0;
    let mut fastest_sum = 0.0;
    let mut n = 0;
    let mut scratch = QueryScratch::new();
    for t in test.iter().take(80) {
        let (s, d) = (t.source(), t.destination());
        let (Some(l2r), Some(short), Some(fast)) = (
            model.route(&mut scratch, s, d),
            shortest_path(&city.net, s, d),
            fastest_path(&city.net, s, d),
        ) else {
            continue;
        };
        l2r_sum += path_similarity(&city.net, &t.path, &l2r.path);
        shortest_sum += path_similarity(&city.net, &t.path, &short);
        fastest_sum += path_similarity(&city.net, &t.path, &fast);
        n += 1;
    }
    assert!(n >= 20, "need enough comparable queries, got {n}");
    // The headline result of the paper, reproduced in aggregate: L2R is at
    // least competitive with cost-centric routing on driver similarity.
    assert!(
        l2r_sum >= shortest_sum * 0.95,
        "L2R {l2r_sum:.2} vs Shortest {shortest_sum:.2}"
    );
    assert!(
        l2r_sum >= fastest_sum * 0.9,
        "L2R {l2r_sum:.2} vs Fastest {fastest_sum:.2}"
    );
}

#[test]
fn model_is_deterministic_for_a_fixed_seed() {
    let (_, _, model_a) = build_model(200, 7);
    let (_, _, model_b) = build_model(200, 7);
    assert_eq!(
        model_a.region_graph().num_regions(),
        model_b.region_graph().num_regions()
    );
    assert_eq!(
        model_a.region_graph().num_edges(),
        model_b.region_graph().num_edges()
    );
    assert_eq!(
        model_a.learned_preferences().len(),
        model_b.learned_preferences().len()
    );
}

#[test]
fn personalized_baselines_train_and_route_on_the_same_workload() {
    let (city, workload, _) = build_model(250, 9);
    let (train, test) = workload.temporal_split(0.8);
    let dom = Dom::train(&city.net, &train);
    let trip = Trip::train(&city.net, &train);
    let ext = ExternalRouter::with_defaults(&city.net);
    let routers: Vec<&dyn BaselineRouter> =
        vec![&ShortestRouter, &FastestRouter, &dom, &trip, &ext];
    for t in test.iter().take(10) {
        for r in &routers {
            let p = r
                .route(&city.net, t.source(), t.destination(), t.driver)
                .unwrap_or_else(|| panic!("{} failed to route", r.name()));
            p.validate(&city.net)
                .expect("baseline paths must be drivable");
        }
    }
}

/// The transfer solve reports its convergence: starving conjugate gradient
/// of iterations leaves feature columns unconverged, and the default budget
/// converges every column on the quick dataset.
#[test]
fn transfer_convergence_is_reported_on_the_quick_dataset() {
    use l2r_suite::eval::{build_dataset, DatasetSpec, Scale};
    let ds = build_dataset(DatasetSpec::d1(Scale::Quick));
    let converged = ds.model.stats();
    assert_eq!(converged.unconverged_columns, 0);
    assert!(converged.max_relative_residual <= ds.spec.l2r.transfer.tolerance);

    let mut starved = ds.spec.l2r.clone();
    starved.transfer.max_iterations = 1;
    let model = L2r::fit(&ds.synthetic.net, &ds.train, starved).expect("fit succeeds");
    let stats = model.stats();
    assert!(stats.unconverged_columns > 0);
    assert!(stats.max_relative_residual > ds.spec.l2r.transfer.tolerance);
}

/// A fit refuses trajectories it could not serve, with a typed error naming
/// the first of them: here every other vertex of every trajectory dropped
/// (hops that are not edges), and one trajectory ending past the network.
#[test]
fn fit_refuses_undrivable_trajectories() {
    use l2r_suite::core::L2rError;
    use l2r_suite::eval::{build_dataset, DatasetSpec, Scale};
    use l2r_suite::road_network::NetworkError;
    let ds = build_dataset(DatasetSpec::d1(Scale::Quick));
    let net = &ds.synthetic.net;

    let thinned: Vec<MatchedTrajectory> = ds
        .train
        .iter()
        .map(|t| {
            let vertices = t.path.vertices();
            let mut kept: Vec<VertexId> = vertices.iter().step_by(2).copied().collect();
            if vertices.len() % 2 == 0 {
                kept.push(t.destination());
            }
            MatchedTrajectory {
                path: Path::new(kept).expect("a non-empty path"),
                ..t.clone()
            }
        })
        .collect();
    let first = thinned
        .iter()
        .position(|t| t.path.validate(net).is_err())
        .expect("thinning breaks some trajectory");
    match L2r::fit(net, &thinned, ds.spec.l2r.clone()) {
        Err(L2rError::InvalidTrajectory { index, error }) => {
            assert_eq!(index, first);
            assert!(matches!(error, NetworkError::Disconnected(..)), "{error}");
        }
        other => panic!("thinned trajectories must be refused, got {other:?}"),
    }

    let mut past_the_end = ds.train.clone();
    let past = VertexId(net.num_vertices() as u32);
    let mut vertices = past_the_end[3].path.vertices().to_vec();
    vertices.push(past);
    past_the_end[3].path = Path::new(vertices).expect("a non-empty path");
    assert_eq!(
        L2r::fit(net, &past_the_end, ds.spec.l2r.clone()).err(),
        Some(L2rError::InvalidTrajectory {
            index: 3,
            error: NetworkError::UnknownVertex(past),
        })
    );
}
