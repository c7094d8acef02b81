//! Integration test: the full GPS round trip — drive preference-constrained
//! paths, simulate noisy GPS traces at the two sampling rates of the paper,
//! map-match them back and fit L2R on the *matched* trajectories.

use rand::rngs::StdRng;
use rand::SeedableRng;

use l2r_suite::prelude::*;
use l2r_suite::trajectory::{
    sampling_summary, simulate_gps_trace, DriverId, GpsSimulationConfig, Trajectory, TrajectoryId,
};

fn simulate_workload_gps(
    city: &l2r_suite::datagen::SyntheticNetwork,
    trajectories: &[MatchedTrajectory],
    config: &GpsSimulationConfig,
    seed: u64,
) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed);
    trajectories
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            simulate_gps_trace(
                &city.net,
                &t.path,
                TrajectoryId(i as u32),
                DriverId(t.driver.0),
                t.departure_time_s,
                config,
                &mut rng,
            )
        })
        .collect()
}

#[test]
fn high_frequency_roundtrip_recovers_most_paths() {
    let city = generate_network(&SyntheticNetworkConfig::tiny());
    let workload = generate_workload(&city, &WorkloadConfig::tiny(60));
    let traces = simulate_workload_gps(
        &city,
        &workload.trajectories,
        &GpsSimulationConfig::high_frequency(),
        11,
    );
    assert!(!traces.is_empty());
    let summary = sampling_summary(&traces);
    assert!(
        summary.mean_interval_s < 2.0,
        "high-frequency traces are ~1 Hz"
    );

    let matcher = MapMatcher::with_defaults(&city.net);
    let (matched, dropped) = matcher.match_all(&traces);
    assert!(
        dropped * 5 <= traces.len(),
        "most traces must be matchable (dropped {dropped})"
    );

    // Compare each matched path with the originally driven path (pairing by
    // trajectory id, since some traces may have been dropped).
    let mut total = 0.0;
    for m in &matched {
        let original = &workload.trajectories[m.id.0 as usize];
        total += path_similarity(&city.net, &original.path, &m.path);
    }
    let mean = total / matched.len() as f64;
    assert!(mean > 0.8, "mean recovery {mean:.2}");
}

#[test]
fn low_frequency_traces_still_support_fitting_l2r() {
    let city = generate_network(&SyntheticNetworkConfig::tiny());
    let workload = generate_workload(&city, &WorkloadConfig::tiny(80));
    let traces = simulate_workload_gps(
        &city,
        &workload.trajectories,
        &GpsSimulationConfig::low_frequency(),
        13,
    );
    let matcher = MapMatcher::with_defaults(&city.net);
    let (matched, _) = matcher.match_all(&traces);
    assert!(matched.len() >= traces.len() / 2);

    // The L2R pipeline runs end to end on map-matched (rather than
    // generator-exact) trajectories.
    let model = L2r::fit(&city.net, &matched, L2rConfig::fast()).expect("fit on matched data");
    assert!(model.stats().num_regions > 0);
    let q = &matched[0];
    let route = model
        .route(&mut QueryScratch::new(), q.source(), q.destination())
        .expect("routable");
    route.path.validate(&city.net).expect("valid path");
}
