//! Multi-objective (skyline / Pareto) route search.
//!
//! The personalized-routing baseline **Dom** \[26\] that the paper compares
//! against identifies a driver's dominating cost factors by comparing driven
//! paths to *skyline paths* — paths that are Pareto-optimal with respect to
//! distance, travel time and fuel consumption — and then performs an
//! expensive multi-objective skyline routing process at query time.  This
//! module provides that substrate: a label-correcting search that enumerates
//! Pareto-optimal paths between two vertices.
//!
//! The search is exponential in the worst case, so it keeps at most
//! `max_labels_per_vertex` non-dominated labels per vertex (a standard
//! practical bound); the paper's observation that Dom is by far the slowest
//! online method is preserved.

use std::collections::VecDeque;

use crate::graph::{RoadNetwork, VertexId};
use crate::path::Path;
use crate::weights::CostType;

/// A cost triple (distance, travel time, fuel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostVector {
    /// Distance in metres.
    pub distance_m: f64,
    /// Travel time in seconds.
    pub travel_time_s: f64,
    /// Fuel in millilitres.
    pub fuel_ml: f64,
}

impl CostVector {
    /// The zero vector.
    pub fn zero() -> Self {
        CostVector {
            distance_m: 0.0,
            travel_time_s: 0.0,
            fuel_ml: 0.0,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &CostVector) -> CostVector {
        CostVector {
            distance_m: self.distance_m + other.distance_m,
            travel_time_s: self.travel_time_s + other.travel_time_s,
            fuel_ml: self.fuel_ml + other.fuel_ml,
        }
    }

    /// `self` dominates `other` when it is no worse in every component and
    /// strictly better in at least one.
    fn dominates(&self, other: &CostVector) -> bool {
        let le = self.distance_m <= other.distance_m + 1e-9
            && self.travel_time_s <= other.travel_time_s + 1e-9
            && self.fuel_ml <= other.fuel_ml + 1e-9;
        let lt = self.distance_m < other.distance_m - 1e-9
            || self.travel_time_s < other.travel_time_s - 1e-9
            || self.fuel_ml < other.fuel_ml - 1e-9;
        le && lt
    }

    /// The component for a given cost type.
    pub fn get(&self, cost: CostType) -> f64 {
        match cost {
            CostType::Distance => self.distance_m,
            CostType::TravelTime => self.travel_time_s,
            CostType::Fuel => self.fuel_ml,
        }
    }

    /// Weighted scalarization `w · c`.
    pub fn weighted_sum(&self, weights: [f64; 3]) -> f64 {
        weights[0] * self.distance_m + weights[1] * self.travel_time_s + weights[2] * self.fuel_ml
    }
}

/// A Pareto-optimal path and its cost vector.
#[derive(Debug, Clone)]
pub struct SkylinePath {
    /// The path itself.
    pub path: Path,
    /// Its multi-objective cost.
    pub cost: CostVector,
}

#[derive(Debug, Clone)]
struct Label {
    cost: CostVector,
    /// Vertex sequence from the source to the label's vertex.
    vertices: Vec<VertexId>,
}

/// Enumerates Pareto-optimal (skyline) paths from `source` to `target`.
///
/// `max_labels_per_vertex` bounds the number of non-dominated labels kept per
/// vertex; 8–32 is plenty for the three-objective case in practice.
pub fn skyline_paths(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
    max_labels_per_vertex: usize,
) -> Vec<SkylinePath> {
    let n = net.num_vertices();
    if source.idx() >= n || target.idx() >= n {
        return Vec::new();
    }
    if source == target {
        return vec![SkylinePath {
            path: Path::single(source),
            cost: CostVector::zero(),
        }];
    }
    let cap = max_labels_per_vertex.max(1);
    let mut labels: Vec<Vec<Label>> = vec![Vec::new(); n];
    let mut queue: VecDeque<(VertexId, Label)> = VecDeque::new();
    let start = Label {
        cost: CostVector::zero(),
        vertices: vec![source],
    };
    labels[source.idx()].push(start.clone());
    queue.push_back((source, start));

    while let Some((vertex, label)) = queue.pop_front() {
        // Skip labels that have been dominated since they were enqueued.
        if !labels[vertex.idx()]
            .iter()
            .any(|l| l.cost == label.cost && l.vertices == label.vertices)
        {
            continue;
        }
        if vertex == target {
            continue; // no need to extend beyond the target
        }
        for edge in net.out_edges(vertex) {
            // Avoid cycles: a Pareto-optimal path never revisits a vertex.
            if label.vertices.contains(&edge.to) {
                continue;
            }
            let new_cost = label.cost.add(&CostVector {
                distance_m: edge.cost(CostType::Distance),
                travel_time_s: edge.cost(CostType::TravelTime),
                fuel_ml: edge.cost(CostType::Fuel),
            });
            let bucket = &mut labels[edge.to.idx()];
            if bucket.iter().any(|l| l.cost.dominates(&new_cost)) {
                continue;
            }
            bucket.retain(|l| !new_cost.dominates(&l.cost));
            if bucket.len() >= cap {
                continue;
            }
            let mut vertices = label.vertices.clone();
            vertices.push(edge.to);
            let new_label = Label {
                cost: new_cost,
                vertices,
            };
            bucket.push(new_label.clone());
            queue.push_back((edge.to, new_label));
        }
    }

    labels[target.idx()]
        .iter()
        .filter_map(|l| {
            Path::new(l.vertices.clone())
                .ok()
                .map(|path| SkylinePath { path, cost: l.cost })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::lowest_cost_path;
    use crate::graph::RoadNetworkBuilder;
    use crate::road_type::RoadType;
    use crate::spatial::Point;

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
    fn dominance_relation() {
        let a = CostVector {
            distance_m: 1.0,
            travel_time_s: 1.0,
            fuel_ml: 1.0,
        };
        let b = CostVector {
            distance_m: 2.0,
            travel_time_s: 1.0,
            fuel_ml: 1.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a vector never dominates itself");
    }

    #[test]
    fn skyline_contains_both_tradeoff_paths() {
        let net = two_route_network();
        let sky = skyline_paths(&net, VertexId(0), VertexId(3), 16);
        assert!(
            sky.len() >= 2,
            "both the short and the fast route are Pareto-optimal"
        );
        let has_motorway_route = sky.iter().any(|s| s.path.contains(VertexId(1)));
        let has_residential_route = sky.iter().any(|s| s.path.contains(VertexId(2)));
        assert!(has_motorway_route && has_residential_route);
        // No path in the skyline dominates another.
        for (i, a) in sky.iter().enumerate() {
            for (j, b) in sky.iter().enumerate() {
                if i != j {
                    assert!(!a.cost.dominates(&b.cost));
                }
            }
        }
    }

    #[test]
    fn skyline_extremes_match_single_objective_optima() {
        let net = two_route_network();
        let sky = skyline_paths(&net, VertexId(0), VertexId(3), 16);
        let best_dist = sky
            .iter()
            .map(|s| s.cost.distance_m)
            .fold(f64::INFINITY, f64::min);
        let shortest = lowest_cost_path(&net, VertexId(0), VertexId(3), CostType::Distance)
            .unwrap()
            .length_m(&net)
            .unwrap();
        assert!((best_dist - shortest).abs() < 1e-6);
        let best_time = sky
            .iter()
            .map(|s| s.cost.travel_time_s)
            .fold(f64::INFINITY, f64::min);
        let fastest = lowest_cost_path(&net, VertexId(0), VertexId(3), CostType::TravelTime)
            .unwrap()
            .cost(&net, CostType::TravelTime)
            .unwrap();
        assert!((best_time - fastest).abs() < 1e-6);
    }

    #[test]
    fn trivial_and_invalid_queries() {
        let net = two_route_network();
        let sky = skyline_paths(&net, VertexId(2), VertexId(2), 8);
        assert_eq!(sky.len(), 1);
        assert!(sky[0].path.is_trivial());
        assert!(skyline_paths(&net, VertexId(0), VertexId(42), 8).is_empty());
    }

    #[test]
    fn weighted_sum_scalarization() {
        let c = CostVector {
            distance_m: 10.0,
            travel_time_s: 20.0,
            fuel_ml: 30.0,
        };
        assert!((c.weighted_sum([1.0, 0.5, 0.0]) - 20.0).abs() < 1e-12);
        assert!((c.get(CostType::Fuel) - 30.0).abs() < 1e-12);
    }
}
