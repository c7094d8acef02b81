//! An external "online routing service" stand-in for the Google Directions
//! API comparison of Figures 13/14.
//!
//! The real comparison queries Google Maps with the test sources,
//! destinations and departure times and receives a sparse sequence of
//! way-points.  We cannot call a commercial API from a reproduction, so this
//! module models the relevant characteristics of such a service:
//!
//! * it has **no access to local trajectories** — it routes on its own
//!   travel-time estimates, which differ from the free-flow weights by a
//!   deterministic per-edge perturbation plus a bias towards the high-level
//!   road hierarchy (commercial engines strongly prefer arterials);
//! * it returns a **sparse way-point polyline** (not a road-network path),
//!   which is evaluated against ground-truth paths with the 10 m band
//!   methodology of Figure 14.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use l2r_road_network::{
    path_to_waypoints, CostType, Edge, Path, Point, RoadNetwork, RoadType, SearchSpace, VertexId,
};
use l2r_trajectory::DriverId;

use crate::BaselineRouter;

/// Configuration of the external reference router.
#[derive(Debug, Clone, Copy)]
pub struct ExternalRouterConfig {
    /// Relative strength of the deterministic per-edge travel-time
    /// perturbation (0.2 = up to ±20 %).
    pub perturbation: f64,
    /// Multiplicative bonus applied to motorway/trunk/primary edges
    /// (values < 1 make the service prefer the arterial hierarchy).
    pub hierarchy_bias: f64,
    /// Every `waypoint_stride`-th path vertex is emitted as a way-point.
    pub waypoint_stride: usize,
    /// Gaussian-ish jitter applied to way-point coordinates, metres.
    pub waypoint_jitter_m: f64,
    /// Seed of the deterministic perturbation.
    pub seed: u64,
}

impl Default for ExternalRouterConfig {
    fn default() -> Self {
        ExternalRouterConfig {
            perturbation: 0.25,
            hierarchy_bias: 0.85,
            waypoint_stride: 3,
            waypoint_jitter_m: 3.0,
            seed: 0x6006,
        }
    }
}

/// The external reference router.
#[derive(Debug, Clone)]
pub struct ExternalRouter {
    /// Pre-computed per-edge travel-time multipliers.
    edge_multiplier: Vec<f64>,
    config: ExternalRouterConfig,
}

impl ExternalRouter {
    /// Builds the router for a network (pre-computes its private travel-time
    /// estimates).  The per-edge noise is drawn in edge-id order, which is
    /// the network's CSR order, so it does not depend on the order the
    /// network's builder received the edges in.
    pub fn new(net: &RoadNetwork, config: ExternalRouterConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let edge_multiplier = net
            .edges()
            .map(|e| {
                let noise = 1.0 + (rng.gen::<f64>() * 2.0 - 1.0) * config.perturbation;
                let bias = match e.road_type {
                    RoadType::Motorway | RoadType::Trunk | RoadType::Primary => {
                        config.hierarchy_bias
                    }
                    _ => 1.0,
                };
                (noise * bias).max(0.05)
            })
            .collect();
        ExternalRouter {
            edge_multiplier,
            config,
        }
    }

    /// Builds the router with default settings.
    pub fn with_defaults(net: &RoadNetwork) -> Self {
        Self::new(net, ExternalRouterConfig::default())
    }

    /// The road-network path the service would drive (its internal result).
    pub fn route_path(
        &self,
        net: &RoadNetwork,
        source: VertexId,
        destination: VertexId,
    ) -> Option<Path> {
        if source.idx() >= net.num_vertices() || destination.idx() >= net.num_vertices() {
            return None;
        }
        if source == destination {
            return Some(Path::single(source));
        }
        SearchSpace::with_thread_local(|space| {
            space.dijkstra(net, source, Some(destination), |e| self.edge_cost(e));
            space.path_to(destination)
        })
    }

    /// The service's private travel-time estimate of `e`.
    fn edge_cost(&self, e: &Edge) -> f64 {
        e.cost(CostType::TravelTime) * self.edge_multiplier[e.id.idx()]
    }

    /// The way-point polyline returned to the client (what the evaluation
    /// band-matches against ground truth, Figure 14).
    pub fn route_waypoints(
        &self,
        net: &RoadNetwork,
        source: VertexId,
        destination: VertexId,
    ) -> Option<Vec<Point>> {
        let path = self.route_path(net, source, destination)?;
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ ((source.0 as u64) << 32 | destination.0 as u64),
        );
        let mut wps = path_to_waypoints(net, &path, self.config.waypoint_stride.max(1));
        for p in wps.iter_mut() {
            p.x += (rng.gen::<f64>() * 2.0 - 1.0) * self.config.waypoint_jitter_m;
            p.y += (rng.gen::<f64>() * 2.0 - 1.0) * self.config.waypoint_jitter_m;
        }
        Some(wps)
    }
}

impl BaselineRouter for ExternalRouter {
    fn name(&self) -> &'static str {
        "External"
    }

    fn route(
        &self,
        net: &RoadNetwork,
        source: VertexId,
        destination: VertexId,
        _driver: DriverId,
    ) -> Option<Path> {
        self.route_path(net, source, destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{generate_network, SyntheticNetworkConfig};
    use l2r_road_network::band_match_similarity_10m;

    #[test]
    fn routes_are_valid_and_deterministic() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let ext = ExternalRouter::with_defaults(&syn.net);
        let s = syn.districts[0].center;
        let d = syn.districts.last().unwrap().center;
        let p1 = ext.route_path(&syn.net, s, d).unwrap();
        let p2 = ext.route_path(&syn.net, s, d).unwrap();
        assert_eq!(p1, p2);
        assert!(p1.validate(&syn.net).is_ok());
    }

    #[test]
    fn waypoints_band_match_their_own_path() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let ext = ExternalRouter::with_defaults(&syn.net);
        let s = syn.districts[0].center;
        let d = syn.districts.last().unwrap().center;
        let path = ext.route_path(&syn.net, s, d).unwrap();
        let wps = ext.route_waypoints(&syn.net, s, d).unwrap();
        assert!(wps.len() >= 2);
        // The service's way-points trace its own path closely (within the
        // 10 m band for most of the length despite jitter + downsampling).
        let sim = band_match_similarity_10m(&syn.net, &path, &wps);
        assert!(sim > 0.5, "band similarity {sim}");
    }

    #[test]
    fn service_differs_from_plain_fastest_somewhere() {
        use l2r_road_network::fastest_path;
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let ext = ExternalRouter::with_defaults(&syn.net);
        let mut differs = false;
        for a in syn.districts.iter().take(6) {
            for b in syn.districts.iter().rev().take(6) {
                if a.index == b.index {
                    continue;
                }
                let p = ext.route_path(&syn.net, a.center, b.center);
                let f = fastest_path(&syn.net, a.center, b.center);
                if let (Some(p), Some(f)) = (p, f) {
                    if p != f {
                        differs = true;
                    }
                }
            }
        }
        assert!(
            differs,
            "the external service should not coincide with Fastest everywhere"
        );
    }

    #[test]
    fn routes_match_the_free_dijkstra_reference() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let ext = ExternalRouter::with_defaults(&syn.net);
        let mut space = SearchSpace::new();
        for a in &syn.districts {
            for b in &syn.districts {
                let (s, d) = (a.center, b.center);
                let reference = if s == d {
                    Some(Path::single(s))
                } else {
                    space.dijkstra(&syn.net, s, Some(d), |e| {
                        e.cost(CostType::TravelTime) * ext.edge_multiplier[e.id.idx()]
                    });
                    space.path_to(d)
                };
                assert_eq!(ext.route_path(&syn.net, s, d), reference, "{s:?} -> {d:?}");
            }
        }
    }

    #[test]
    fn invalid_and_trivial_queries() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let ext = ExternalRouter::with_defaults(&syn.net);
        assert!(ext
            .route_path(&syn.net, VertexId(0), VertexId(10_000_000))
            .is_none());
        assert!(ext
            .route_path(&syn.net, VertexId(2), VertexId(2))
            .unwrap()
            .is_trivial());
    }
}
