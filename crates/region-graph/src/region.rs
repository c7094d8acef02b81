//! Regions: clusters of road-network vertices with geometric and functional
//! descriptors (Sections IV and V-B of the paper).

use l2r_road_network::{
    centroid, convex_hull, diameter, polygon_area, Point, RoadNetwork, RoadType, RoadTypeSet,
    VertexId,
};

/// Identifier of a region (dense, `0..num_regions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The id as a usable index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A region of the region graph.
#[derive(Debug, Clone)]
pub struct Region {
    /// The region id.
    pub id: RegionId,
    /// Member vertices.
    pub vertices: Vec<VertexId>,
    /// Total trajectory popularity of the region (from clustering).
    pub popularity: f64,
    /// Dominant road type from clustering, when the region was formed by
    /// merging (None for single-vertex regions).
    pub road_type: Option<RoadType>,
    /// Geometric centroid of the member vertices.
    pub centroid: Point,
    /// Convex-hull area in square metres.
    pub hull_area_m2: f64,
    /// Maximum diameter of the convex hull in metres.
    pub diameter_m: f64,
    /// Functionality descriptor: the top-k road types of edges incident to
    /// the region's vertices (Section V-B).
    pub function: RoadTypeSet,
}

impl Region {
    /// Builds a region (with all derived descriptors) from its member
    /// vertices.
    ///
    /// `top_k` bounds the number of road types kept in the functionality
    /// descriptor (the paper uses a top-k road type set; we default to 2 at
    /// the call sites).
    pub fn build(
        id: RegionId,
        net: &RoadNetwork,
        vertices: Vec<VertexId>,
        popularity: f64,
        road_type: Option<RoadType>,
        top_k: usize,
    ) -> Region {
        let points: Vec<Point> = vertices.iter().map(|v| net.vertex(*v).point).collect();
        let hull = convex_hull(&points);
        let function = region_function(net, &vertices, top_k);
        Region {
            id,
            vertices,
            popularity,
            road_type,
            centroid: centroid(&points),
            hull_area_m2: polygon_area(&hull),
            diameter_m: diameter(&hull),
            function,
        }
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the region has no members (never true for built regions).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Convex-hull area in square kilometres (Table IV reports km²).
    pub fn hull_area_km2(&self) -> f64 {
        self.hull_area_m2 / 1.0e6
    }

    /// Hull diameter in kilometres.
    pub fn diameter_km(&self) -> f64 {
        self.diameter_m / 1000.0
    }

    /// Whether `v` belongs to the region.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }
}

/// The functionality descriptor of a vertex set: the `top_k` road types (by
/// total incident edge length-weighted count) of the edges incident to the
/// vertices.
fn region_function(net: &RoadNetwork, vertices: &[VertexId], top_k: usize) -> RoadTypeSet {
    let mut counts = [0usize; RoadType::COUNT];
    for v in vertices {
        if v.idx() >= net.num_vertices() {
            continue;
        }
        for e in net.out_edges(*v) {
            counts[e.road_type.index()] += 1;
        }
        for e in net.in_edges(*v) {
            counts[e.road_type.index()] += 1;
        }
    }
    let mut order: Vec<usize> = (0..RoadType::COUNT).filter(|i| counts[*i] > 0).collect();
    order.sort_by(|a, b| counts[*b].cmp(&counts[*a]).then(a.cmp(b)));
    let mut set = RoadTypeSet::empty();
    for idx in order.into_iter().take(top_k.max(1)) {
        if let Some(rt) = RoadType::from_index(idx) {
            set.insert(rt);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_road_network::RoadNetworkBuilder;

    fn square_region_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        // A 2 km x 2 km square of primary roads plus one residential spur.
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(2000.0, 0.0));
        let v2 = b.add_vertex(Point::new(2000.0, 2000.0));
        let v3 = b.add_vertex(Point::new(0.0, 2000.0));
        let v4 = b.add_vertex(Point::new(3000.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Primary).unwrap();
        b.add_two_way(v1, v2, RoadType::Primary).unwrap();
        b.add_two_way(v2, v3, RoadType::Primary).unwrap();
        b.add_two_way(v3, v0, RoadType::Primary).unwrap();
        b.add_two_way(v1, v4, RoadType::Residential).unwrap();
        b.build()
    }

    #[test]
    fn geometric_descriptors() {
        let net = square_region_net();
        let r = Region::build(
            RegionId(0),
            &net,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)],
            10.0,
            Some(RoadType::Primary),
            2,
        );
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!((r.hull_area_km2() - 4.0).abs() < 1e-9);
        assert!((r.diameter_km() - (8.0f64).sqrt()).abs() < 1e-9);
        assert!((r.centroid.x - 1000.0).abs() < 1e-9);
        assert!((r.centroid.y - 1000.0).abs() < 1e-9);
        assert!(r.contains(VertexId(0)));
        assert!(!r.contains(VertexId(4)));
    }

    #[test]
    fn function_descriptor_picks_dominant_road_types() {
        let net = square_region_net();
        let f = region_function(
            &net,
            &[VertexId(0), VertexId(1), VertexId(2), VertexId(3)],
            2,
        );
        assert!(f.contains(RoadType::Primary));
        // With top-2 the residential spur (only two directed edges at v1)
        // also appears since only two types exist.
        assert!(f.len() <= 2);
        let f1 = region_function(&net, &[VertexId(0), VertexId(3)], 1);
        assert_eq!(f1.len(), 1);
        assert!(f1.contains(RoadType::Primary));
    }

    #[test]
    fn single_vertex_region_has_zero_area() {
        let net = square_region_net();
        let r = Region::build(RegionId(3), &net, vec![VertexId(4)], 1.0, None, 2);
        assert_eq!(r.hull_area_m2, 0.0);
        assert_eq!(r.diameter_m, 0.0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn function_descriptor_handles_unknown_vertices_gracefully() {
        let net = square_region_net();
        let f = region_function(&net, &[VertexId(999)], 2);
        assert!(f.is_empty());
    }
}
