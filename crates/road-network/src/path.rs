//! Paths: vertex sequences where consecutive vertices are connected by edges
//! (Section III of the paper).

use std::collections::HashSet;

use crate::error::NetworkError;
use crate::graph::{EdgeId, RoadNetwork, VertexId};
use crate::weights::CostType;

/// A path `P = ⟨v1, v2, …, va⟩` in the road network.
///
/// A path owns only the vertex sequence; all cost and validity queries take
/// the network they refer to.  A path with a single vertex is allowed (it
/// represents "stay where you are") and has zero cost.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Creates a path from a vertex sequence.
    ///
    /// Returns an error for an empty sequence; connectivity is *not* checked
    /// here (use [`Path::validate`]) because callers frequently build paths
    /// incrementally from algorithms that guarantee connectivity.
    pub fn new(vertices: Vec<VertexId>) -> Result<Self, NetworkError> {
        if vertices.is_empty() {
            return Err(NetworkError::EmptyPath);
        }
        Ok(Path { vertices })
    }

    /// A single-vertex path.
    pub fn single(v: VertexId) -> Self {
        Path { vertices: vec![v] }
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the path consists of a single vertex.
    pub fn is_trivial(&self) -> bool {
        self.vertices.len() == 1
    }

    /// Never true: constructors reject empty paths.  Provided for iterator
    /// ergonomics.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// First vertex.
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex.
    pub fn destination(&self) -> VertexId {
        *self.vertices.last().expect("paths are never empty")
    }

    /// Checks that every consecutive vertex pair is connected by an edge in
    /// `net`, and that all vertices exist.
    pub fn validate(&self, net: &RoadNetwork) -> Result<(), NetworkError> {
        for v in &self.vertices {
            net.try_vertex(*v)?;
        }
        for w in self.vertices.windows(2) {
            if net.edge_between(w[0], w[1]).is_none() {
                return Err(NetworkError::Disconnected(w[0], w[1]));
            }
        }
        Ok(())
    }

    /// The edge ids traversed by the path, in order.
    pub fn edge_ids(&self, net: &RoadNetwork) -> Result<Vec<EdgeId>, NetworkError> {
        let mut edges = Vec::with_capacity(self.vertices.len().saturating_sub(1));
        for w in self.vertices.windows(2) {
            let e = net
                .edge_between(w[0], w[1])
                .ok_or(NetworkError::Disconnected(w[0], w[1]))?;
            edges.push(e);
        }
        Ok(edges)
    }

    /// The set of undirected vertex pairs traversed, used by the path
    /// similarity functions.  Each pair is normalised so `(a, b)` and
    /// `(b, a)` compare equal — the similarity of a path against a trajectory
    /// driven in the same corridor should not depend on edge direction.
    pub fn segment_set(&self) -> HashSet<(VertexId, VertexId)> {
        self.vertices
            .windows(2)
            .map(|w| {
                if w[0] <= w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                }
            })
            .collect()
    }

    /// Total cost of the path under `cost`; zero for a trivial path.
    pub fn cost(&self, net: &RoadNetwork, cost: CostType) -> Result<f64, NetworkError> {
        let mut total = 0.0;
        for w in self.vertices.windows(2) {
            let e = net
                .edge_between(w[0], w[1])
                .ok_or(NetworkError::Disconnected(w[0], w[1]))?;
            total += net.edge(e).cost(cost);
        }
        Ok(total)
    }

    /// Total length of the path in metres; zero for a trivial path.
    pub fn length_m(&self, net: &RoadNetwork) -> Result<f64, NetworkError> {
        self.cost(net, CostType::Distance)
    }

    /// Concatenates `self` with `other`.
    ///
    /// If `self` ends where `other` starts the junction vertex is not
    /// duplicated; otherwise the sequences are joined as-is (the result may
    /// then fail [`Path::validate`], which is intentional — the caller is
    /// responsible for supplying joinable pieces).
    pub fn concat(&self, other: &Path) -> Path {
        let mut vertices = self.vertices.clone();
        let mut rest = other.vertices.as_slice();
        if self.destination() == other.source() {
            rest = &rest[1..];
        }
        vertices.extend_from_slice(rest);
        Path { vertices }
    }

    /// Returns the sub-path between the first occurrence of `from` and the
    /// first occurrence of `to` after it, if both are present in order.
    pub fn subpath(&self, from: VertexId, to: VertexId) -> Option<Path> {
        let start = self.vertices.iter().position(|v| *v == from)?;
        let end = self.vertices[start..].iter().position(|v| *v == to)? + start;
        Some(Path {
            vertices: self.vertices[start..=end].to_vec(),
        })
    }

    /// Whether the path visits `v`.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Reversed copy of the path.
    pub fn reversed(&self) -> Path {
        let mut vertices = self.vertices.clone();
        vertices.reverse();
        Path { vertices }
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<String> = self.vertices.iter().map(|v| v.0.to_string()).collect();
        write!(f, "⟨{}⟩", ids.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;
    use crate::road_type::RoadType;
    use crate::spatial::Point;

    fn line_network(n: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64 * 1000.0, 0.0)))
            .collect();
        for w in vs.windows(2) {
            b.add_two_way(w[0], w[1], RoadType::Secondary).unwrap();
        }
        b.build()
    }

    #[test]
    fn construction_and_accessors() {
        assert!(Path::new(vec![]).is_err());
        let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.source(), VertexId(0));
        assert_eq!(p.destination(), VertexId(2));
        assert!(!p.is_trivial());
        assert!(Path::single(VertexId(5)).is_trivial());
        assert!(p.contains(VertexId(1)));
        assert!(!p.contains(VertexId(9)));
    }

    #[test]
    fn validation_and_costs() {
        let net = line_network(4);
        let good = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        assert!(good.validate(&net).is_ok());
        assert!((good.length_m(&net).unwrap() - 2000.0).abs() < 1e-9);
        assert!(good.cost(&net, CostType::TravelTime).unwrap() > 0.0);

        let bad = Path::new(vec![VertexId(0), VertexId(2)]).unwrap();
        assert!(matches!(
            bad.validate(&net),
            Err(NetworkError::Disconnected(_, _))
        ));
        assert!(bad.length_m(&net).is_err());

        let unknown = Path::new(vec![VertexId(99)]).unwrap();
        assert!(unknown.validate(&net).is_err());
    }

    #[test]
    fn cost_sums_the_edges_in_path_order() {
        let net = line_network(5);
        let p = Path::new((0..5).map(VertexId).collect()).unwrap();
        for c in CostType::ALL {
            let by_ids = p
                .edge_ids(&net)
                .unwrap()
                .iter()
                .fold(0.0, |total, e| total + net.edge(*e).cost(c));
            assert_eq!(p.cost(&net, c).unwrap().to_bits(), by_ids.to_bits());
        }
        // The first missing link is reported, as `edge_ids` reports it.
        let broken = Path::new(vec![VertexId(0), VertexId(1), VertexId(3), VertexId(9)]).unwrap();
        let expected = Err(NetworkError::Disconnected(VertexId(1), VertexId(3)));
        assert_eq!(broken.cost(&net, CostType::Distance), expected);
        assert_eq!(broken.edge_ids(&net).map(|_| 0.0), expected);
    }

    #[test]
    fn trivial_path_has_zero_cost() {
        let net = line_network(2);
        let p = Path::single(VertexId(0));
        assert_eq!(p.length_m(&net).unwrap(), 0.0);
        assert!(p.edge_ids(&net).unwrap().is_empty());
    }

    #[test]
    fn concat_merges_shared_junction() {
        let a = Path::new(vec![VertexId(0), VertexId(1)]).unwrap();
        let b = Path::new(vec![VertexId(1), VertexId(2)]).unwrap();
        let joined = a.concat(&b);
        assert_eq!(joined.vertices(), &[VertexId(0), VertexId(1), VertexId(2)]);

        let c = Path::new(vec![VertexId(5), VertexId(6)]).unwrap();
        let disjoint = a.concat(&c);
        assert_eq!(disjoint.len(), 4);
    }

    #[test]
    fn subpath_extraction() {
        let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]).unwrap();
        let sub = p.subpath(VertexId(1), VertexId(3)).unwrap();
        assert_eq!(sub.vertices(), &[VertexId(1), VertexId(2), VertexId(3)]);
        assert!(p.subpath(VertexId(3), VertexId(1)).is_none());
        assert!(p.subpath(VertexId(9), VertexId(1)).is_none());
        // from == to yields a trivial sub-path.
        let sub = p.subpath(VertexId(2), VertexId(2)).unwrap();
        assert!(sub.is_trivial());
    }

    #[test]
    fn segment_set_is_direction_insensitive() {
        let a = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        let b = a.reversed();
        assert_eq!(a.segment_set(), b.segment_set());
        assert_eq!(a.segment_set().len(), 2);
    }

    #[test]
    fn display_formats_vertices() {
        let p = Path::new(vec![VertexId(3), VertexId(7)]).unwrap();
        assert_eq!(p.to_string(), "⟨3, 7⟩");
    }
}
