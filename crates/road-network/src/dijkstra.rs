//! Single-objective shortest-path search (Dijkstra's algorithm) and variants
//! used throughout the paper: shortest, fastest and fuel-optimal paths.
//!
//! The functions here are thin compatibility wrappers over the reusable
//! [`SearchSpace`] of [`crate::search_space`]: each call borrows the calling
//! thread's shared space, so repeated queries do not re-allocate the O(|V|)
//! search arrays.  Hot loops that issue many searches should hold their own
//! [`SearchSpace`] and use its methods directly.

use crate::graph::{RoadNetwork, VertexId};
use crate::path::Path;
use crate::search_space::SearchSpace;
use crate::weights::CostType;

/// Lowest-cost path between `source` and `target` under `cost_type`.
pub fn lowest_cost_path(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
    cost_type: CostType,
) -> Option<Path> {
    SearchSpace::with_thread_local(|space| space.lowest_cost_path(net, source, target, cost_type))
}

/// Shortest (minimum distance) path.
pub fn shortest_path(net: &RoadNetwork, source: VertexId, target: VertexId) -> Option<Path> {
    lowest_cost_path(net, source, target, CostType::Distance)
}

/// Fastest (minimum travel time) path.
pub fn fastest_path(net: &RoadNetwork, source: VertexId, target: VertexId) -> Option<Path> {
    lowest_cost_path(net, source, target, CostType::TravelTime)
}

/// Fuel-optimal path.
pub fn most_economic_path(net: &RoadNetwork, source: VertexId, target: VertexId) -> Option<Path> {
    lowest_cost_path(net, source, target, CostType::Fuel)
}

/// Lowest-cost path under an arbitrary linear combination of the three cost
/// types, used by the personalized baselines (Dom/TRIP) to route with learned
/// per-driver weights.
pub fn weighted_path(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
    weights: [f64; 3],
) -> Option<Path> {
    if source == target {
        return Some(Path::single(source));
    }
    SearchSpace::with_thread_local(|space| {
        space.dijkstra(net, source, Some(target), |e| {
            weights[0] * e.cost(CostType::Distance)
                + weights[1] * e.cost(CostType::TravelTime)
                + weights[2] * e.cost(CostType::Fuel)
        });
        space.path_to(target)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;
    use crate::road_type::RoadType;
    use crate::spatial::Point;

    /// Two routes from 0 to 3: a short residential route through 2 and a
    /// longer but much faster motorway route through 1.
    fn two_route_network() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(5000.0, 4000.0));
        let v2 = b.add_vertex(Point::new(5000.0, -200.0));
        let v3 = b.add_vertex(Point::new(10000.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Motorway).unwrap();
        b.add_two_way(v1, v3, RoadType::Motorway).unwrap();
        b.add_two_way(v0, v2, RoadType::Residential).unwrap();
        b.add_two_way(v2, v3, RoadType::Residential).unwrap();
        b.build()
    }

    #[test]
    fn shortest_and_fastest_disagree() {
        let net = two_route_network();
        let shortest = shortest_path(&net, VertexId(0), VertexId(3)).unwrap();
        let fastest = fastest_path(&net, VertexId(0), VertexId(3)).unwrap();
        assert!(
            shortest.contains(VertexId(2)),
            "shortest goes via the residential vertex"
        );
        assert!(
            fastest.contains(VertexId(1)),
            "fastest goes via the motorway vertex"
        );
        assert!(
            shortest.length_m(&net).unwrap() < fastest.length_m(&net).unwrap(),
            "the shortest path must not be longer than the fastest one"
        );
        assert!(
            fastest.cost(&net, CostType::TravelTime).unwrap()
                < shortest.cost(&net, CostType::TravelTime).unwrap()
        );
    }

    #[test]
    fn same_source_and_target_is_trivial() {
        let net = two_route_network();
        let p = shortest_path(&net, VertexId(1), VertexId(1)).unwrap();
        assert!(p.is_trivial());
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(100.0, 0.0)); // isolated
        let v2 = b.add_vertex(Point::new(200.0, 0.0));
        b.add_edge(v0, v2, RoadType::Primary).unwrap();
        let net = b.build();
        assert!(shortest_path(&net, VertexId(0), VertexId(1)).is_none());
        // Out-of-range vertices are handled gracefully.
        assert!(shortest_path(&net, VertexId(0), VertexId(99)).is_none());
    }

    #[test]
    fn one_to_all_costs_are_monotone_along_paths() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        space.dijkstra(&net, VertexId(0), None, |e| e.cost(CostType::Distance));
        for v in 0..net.num_vertices() {
            let v = VertexId(v as u32);
            if let Some(p) = space.path_to(v) {
                let len = p.length_m(&net).unwrap();
                assert!((len - space.cost_to(v).unwrap()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn weighted_path_degenerates_to_single_objective() {
        let net = two_route_network();
        let w_dist = weighted_path(&net, VertexId(0), VertexId(3), [1.0, 0.0, 0.0]).unwrap();
        let shortest = shortest_path(&net, VertexId(0), VertexId(3)).unwrap();
        assert_eq!(w_dist, shortest);
        let w_time = weighted_path(&net, VertexId(0), VertexId(3), [0.0, 1.0, 0.0]).unwrap();
        let fastest = fastest_path(&net, VertexId(0), VertexId(3)).unwrap();
        assert_eq!(w_time, fastest);
    }

    #[test]
    fn edge_filter_via_infinite_cost() {
        let net = two_route_network();
        // Forbid motorways entirely: the path must use the residential route.
        let mut space = SearchSpace::new();
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            if e.road_type == RoadType::Motorway {
                f64::INFINITY
            } else {
                e.cost(CostType::Distance)
            }
        });
        let p = space.path_to(VertexId(3)).unwrap();
        assert!(p.contains(VertexId(2)));
        assert!(!p.contains(VertexId(1)));
    }

    #[test]
    fn fuel_optimal_path_exists() {
        let net = two_route_network();
        let p = most_economic_path(&net, VertexId(0), VertexId(3)).unwrap();
        assert_eq!(p.source(), VertexId(0));
        assert_eq!(p.destination(), VertexId(3));
    }
}
