//! **TRIP** — personalized travel times (the paper's reference \[27\]).
//!
//! The original TRIP models personalized travel times as ratios between a
//! driver's experienced travel time and the population average.  Without real
//! timestamps per edge we adapt the idea faithfully to the information
//! available in map-matched paths: for every driver and road type we measure
//! how much more (or less) the driver uses that road type compared to the
//! fastest paths for the same trips, and turn the difference into a
//! per-road-type travel-time multiplier.  Road types the driver favours get
//! multipliers below 1 (subjectively "faster"), avoided ones above 1.  Query
//! answering is a single-objective Dijkstra over the personalized weights —
//! which is why TRIP's running time matches Shortest/Fastest in Figure 12.

use std::collections::HashMap;

use l2r_road_network::{
    fastest_path, CostType, Edge, Path, RoadNetwork, RoadType, SearchSpace, VertexId,
};
use l2r_trajectory::{DriverId, MatchedTrajectory};

use crate::BaselineRouter;

/// Per-driver, per-road-type travel-time multipliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripProfile {
    /// Multiplier per road type (index = `RoadType::index()`).
    pub multipliers: [f64; RoadType::COUNT],
    /// Number of trajectories the profile was learned from.
    pub support: usize,
}

impl TripProfile {
    /// The driver's personalized travel time of `e`.
    fn edge_cost(&self, e: &Edge) -> f64 {
        e.cost(CostType::TravelTime) * self.multipliers[e.road_type.index()]
    }
}

impl Default for TripProfile {
    fn default() -> Self {
        TripProfile {
            multipliers: [1.0; RoadType::COUNT],
            support: 0,
        }
    }
}

/// How strongly usage differences bend the personalized weights.
const SENSITIVITY: f64 = 0.6;

/// The TRIP personalized router.
#[derive(Debug, Clone)]
pub struct Trip {
    profiles: HashMap<DriverId, TripProfile>,
}

/// Travel-time share per road type of a path (sums to 1 for non-trivial
/// paths).
fn road_type_shares(net: &RoadNetwork, path: &Path) -> Option<[f64; RoadType::COUNT]> {
    let mut shares = [0.0f64; RoadType::COUNT];
    let mut total = 0.0;
    for eid in path.edge_ids(net).ok()? {
        let e = net.edge(eid);
        let tt = e.cost(CostType::TravelTime);
        shares[e.road_type.index()] += tt;
        total += tt;
    }
    if total <= 0.0 {
        return None;
    }
    for s in shares.iter_mut() {
        *s /= total;
    }
    Some(shares)
}

impl Trip {
    /// Learns per-driver road-type usage profiles from training trajectories.
    pub fn train(net: &RoadNetwork, trajectories: &[MatchedTrajectory]) -> Trip {
        let mut diffs: HashMap<DriverId, ([f64; RoadType::COUNT], usize)> = HashMap::new();
        for t in trajectories {
            let (s, d) = (t.source(), t.destination());
            if s == d {
                continue;
            }
            let Some(actual) = road_type_shares(net, &t.path) else {
                continue;
            };
            let Some(fast) = fastest_path(net, s, d).and_then(|p| road_type_shares(net, &p)) else {
                continue;
            };
            let entry = diffs.entry(t.driver).or_insert(([0.0; RoadType::COUNT], 0));
            for i in 0..RoadType::COUNT {
                entry.0[i] += actual[i] - fast[i];
            }
            entry.1 += 1;
        }
        let profiles = diffs
            .into_iter()
            .map(|(driver, (sums, count))| {
                let mut multipliers = [1.0f64; RoadType::COUNT];
                for i in 0..RoadType::COUNT {
                    let mean_diff = sums[i] / count.max(1) as f64;
                    // Favoured road types (positive diff) become subjectively
                    // faster; avoided ones slower.  Clamped to stay positive.
                    multipliers[i] = (1.0 - SENSITIVITY * mean_diff).clamp(0.3, 3.0);
                }
                (
                    driver,
                    TripProfile {
                        multipliers,
                        support: count,
                    },
                )
            })
            .collect();
        Trip { profiles }
    }

    /// The learned profile of a driver (neutral for unseen drivers).
    fn profile(&self, driver: DriverId) -> TripProfile {
        self.profiles.get(&driver).copied().unwrap_or_default()
    }

    /// Number of drivers with learned profiles.
    pub fn num_drivers(&self) -> usize {
        self.profiles.len()
    }
}

impl BaselineRouter for Trip {
    fn name(&self) -> &'static str {
        "TRIP"
    }

    fn route(
        &self,
        net: &RoadNetwork,
        source: VertexId,
        destination: VertexId,
        driver: DriverId,
    ) -> Option<Path> {
        if source.idx() >= net.num_vertices() || destination.idx() >= net.num_vertices() {
            return None;
        }
        if source == destination {
            return Some(Path::single(source));
        }
        let profile = self.profile(driver);
        SearchSpace::with_thread_local(|space| {
            space.dijkstra(net, source, Some(destination), |e| profile.edge_cost(e));
            space.path_to(destination)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };

    #[test]
    fn untrained_trip_equals_fastest() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let trip = Trip::train(&syn.net, &[]);
        let s = syn.districts[0].center;
        let d = syn.districts.last().unwrap().center;
        let trip_path = trip.route(&syn.net, s, d, DriverId(0)).unwrap();
        let fast = fastest_path(&syn.net, s, d).unwrap();
        assert_eq!(
            trip_path, fast,
            "neutral multipliers reproduce the fastest path"
        );
    }

    #[test]
    fn profiles_reflect_road_type_usage() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(150));
        let trip = Trip::train(&syn.net, &wl.trajectories);
        assert!(trip.num_drivers() > 0);
        for t in &wl.trajectories {
            let p = trip.profile(t.driver);
            for m in p.multipliers {
                assert!((0.3..=3.0).contains(&m));
            }
        }
    }

    #[test]
    fn routing_returns_valid_paths_for_test_queries() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(120));
        let (train, test) = wl.temporal_split(0.8);
        let trip = Trip::train(&syn.net, &train);
        for t in test.iter().take(15) {
            let p = trip
                .route(&syn.net, t.source(), t.destination(), t.driver)
                .expect("TRIP should find a path");
            assert!(p.validate(&syn.net).is_ok());
        }
    }

    #[test]
    fn routes_match_the_free_dijkstra_reference() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(150));
        let (train, test) = wl.temporal_split(0.7);
        let trip = Trip::train(&syn.net, &train);
        let mut space = SearchSpace::new();
        let mut compared = 0;
        for t in &test {
            let (s, d) = (t.source(), t.destination());
            let p = trip.profile(t.driver);
            let reference = if s == d {
                Some(Path::single(s))
            } else {
                space.dijkstra(&syn.net, s, Some(d), |e| {
                    e.cost(CostType::TravelTime) * p.multipliers[e.road_type.index()]
                });
                space.path_to(d)
            };
            assert_eq!(trip.route(&syn.net, s, d, t.driver), reference);
            compared += 1;
        }
        assert!(compared > 20, "only {compared} queries compared");
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let trip = Trip::train(&syn.net, &[]);
        assert!(trip
            .route(&syn.net, VertexId(0), VertexId(10_000_000), DriverId(0))
            .is_none());
        let trivial = trip
            .route(&syn.net, VertexId(3), VertexId(3), DriverId(0))
            .unwrap();
        assert!(trivial.is_trivial());
    }
}
