//! The trajectory graph: the sub-graph of the road network traversed by
//! trajectories, annotated with popularity values (Section IV-A).
//!
//! * The popularity `s_ij` of an edge is the number of trajectories that
//!   traversed it.
//! * The popularity `S_i` of a vertex is the sum of the popularities of its
//!   incident edges.
//! * `S` is the sum of all edge popularities.
//!
//! Edges are treated as undirected for clustering purposes (a trajectory in
//! either direction contributes to the same corridor).

use std::collections::HashMap;

use l2r_road_network::{RoadNetwork, RoadType, VertexId};
use l2r_trajectory::MatchedTrajectory;

/// An undirected vertex pair, normalised so `a <= b`.
pub type UndirectedEdge = (VertexId, VertexId);

/// Normalises an undirected vertex pair.
fn undirected(a: VertexId, b: VertexId) -> UndirectedEdge {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The trajectory graph with popularity annotations.
#[derive(Debug, Clone)]
pub struct TrajectoryGraph {
    /// Popularity `s_ij` and road type per traversed undirected edge.
    edges: HashMap<UndirectedEdge, (f64, RoadType)>,
    /// Popularity `S_i` per traversed vertex.
    vertex_popularity: HashMap<VertexId, f64>,
    /// Adjacency among traversed vertices.
    adjacency: HashMap<VertexId, Vec<VertexId>>,
    /// Total popularity `S`.
    total_popularity: f64,
}

impl TrajectoryGraph {
    /// Builds the trajectory graph from map-matched trajectories.
    ///
    /// Path segments that do not correspond to a road-network edge are
    /// skipped (they cannot occur for validated paths).
    pub fn build(net: &RoadNetwork, trajectories: &[MatchedTrajectory]) -> Self {
        let mut edges: HashMap<UndirectedEdge, (f64, RoadType)> = HashMap::new();
        for t in trajectories {
            for w in t.path.vertices().windows(2) {
                let Some(eid) = net
                    .edge_between(w[0], w[1])
                    .or_else(|| net.edge_between(w[1], w[0]))
                else {
                    continue;
                };
                let rt = net.edge(eid).road_type;
                let entry = edges.entry(undirected(w[0], w[1])).or_insert((0.0, rt));
                entry.0 += 1.0;
            }
        }
        let mut vertex_popularity: HashMap<VertexId, f64> = HashMap::new();
        let mut adjacency: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let mut total = 0.0;
        // Accumulate in sorted edge order: float `+=` is not associative,
        // so summing in HashMap iteration order would make the popularity
        // totals (and therefore the learned model) differ between two runs
        // over the same input.  Sorting also fixes `neighbors()` order.
        let mut by_edge: Vec<(UndirectedEdge, f64)> =
            // l2r: allow(nondeterministic-iteration) — collected then sorted below
            edges.iter().map(|(e, (s, _))| (*e, *s)).collect();
        by_edge.sort_unstable_by_key(|x| x.0);
        for ((a, b), s) in by_edge {
            total += s;
            *vertex_popularity.entry(a).or_default() += s;
            *vertex_popularity.entry(b).or_default() += s;
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
        }
        TrajectoryGraph {
            edges,
            vertex_popularity,
            adjacency,
            total_popularity: total,
        }
    }

    /// Number of traversed vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_popularity.len()
    }

    /// Number of traversed undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All traversed vertices, in no particular order — callers that need
    /// determinism sort (clustering collects and sorts the vertex list
    /// before seeding).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        // l2r: allow(nondeterministic-iteration) — unordered by contract; see doc
        self.vertex_popularity.keys().copied()
    }

    /// Popularity `S_i` of a vertex (0 for untraversed vertices).
    pub fn vertex_popularity(&self, v: VertexId) -> f64 {
        self.vertex_popularity.get(&v).copied().unwrap_or(0.0)
    }

    /// Total popularity `S`.
    pub fn total_popularity(&self) -> f64 {
        self.total_popularity
    }

    /// Traversed neighbours of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.adjacency.get(&v).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All traversed undirected edges with popularity and road type, in no
    /// particular order — callers that need determinism sort or insert into
    /// keyed maps (clustering builds per-vertex adjacency maps from this).
    pub fn edges(&self) -> impl Iterator<Item = (UndirectedEdge, f64, RoadType)> + '_ {
        // l2r: allow(nondeterministic-iteration) — unordered by contract; see doc
        self.edges.iter().map(|(e, (s, rt))| (*e, *s, *rt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_road_network::{Path, Point, RoadNetworkBuilder, RoadType};
    use l2r_trajectory::{DriverId, TrajectoryId};

    /// Popularity `s_ij` of an undirected edge (0 when not traversed).
    fn edge_popularity(tg: &TrajectoryGraph, a: VertexId, b: VertexId) -> f64 {
        tg.edges.get(&undirected(a, b)).map_or(0.0, |(s, _)| *s)
    }

    fn line(n: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in vs.windows(2) {
            b.add_two_way(w[0], w[1], RoadType::Primary).unwrap();
        }
        b.build()
    }

    fn traj(id: u32, vs: Vec<u32>) -> MatchedTrajectory {
        MatchedTrajectory::new(
            TrajectoryId(id),
            DriverId(0),
            Path::new(vs.into_iter().map(VertexId).collect()).unwrap(),
            0.0,
        )
    }

    #[test]
    fn popularity_counts_traversals() {
        let net = line(4);
        let ts = vec![
            traj(0, vec![0, 1, 2, 3]),
            traj(1, vec![0, 1, 2]),
            traj(2, vec![3, 2]), // reverse direction counts toward the same edge
        ];
        let tg = TrajectoryGraph::build(&net, &ts);
        assert_eq!(tg.num_vertices(), 4);
        assert_eq!(tg.num_edges(), 3);
        assert_eq!(edge_popularity(&tg, VertexId(0), VertexId(1)), 2.0);
        assert_eq!(edge_popularity(&tg, VertexId(1), VertexId(2)), 2.0);
        assert_eq!(edge_popularity(&tg, VertexId(2), VertexId(3)), 2.0);
        // Vertex popularity = sum of incident edge popularities.
        assert_eq!(tg.vertex_popularity(VertexId(1)), 4.0);
        assert_eq!(tg.vertex_popularity(VertexId(0)), 2.0);
        assert_eq!(tg.total_popularity(), 6.0);
        assert_eq!(
            tg.edges
                .get(&undirected(VertexId(0), VertexId(1)))
                .map(|(_, rt)| *rt),
            Some(RoadType::Primary)
        );
    }

    #[test]
    fn untraversed_vertices_are_excluded() {
        let net = line(5);
        let ts = vec![traj(0, vec![0, 1, 2])];
        let tg = TrajectoryGraph::build(&net, &ts);
        assert!(tg.vertex_popularity.contains_key(&VertexId(0)));
        assert!(!tg.vertex_popularity.contains_key(&VertexId(4)));
        assert_eq!(tg.vertex_popularity(VertexId(4)), 0.0);
        assert_eq!(edge_popularity(&tg, VertexId(3), VertexId(4)), 0.0);
        assert!(tg.neighbors(VertexId(4)).is_empty());
    }

    #[test]
    fn empty_trajectory_set_gives_empty_graph() {
        let net = line(3);
        let tg = TrajectoryGraph::build(&net, &[]);
        assert_eq!(tg.num_vertices(), 0);
        assert_eq!(tg.num_edges(), 0);
        assert_eq!(tg.total_popularity(), 0.0);
    }
}
