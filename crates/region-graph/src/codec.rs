//! Snapshot codec for the region-graph layer.
//!
//! Encodes regions, region edges (with T/B classification and attached
//! paths), inner-region paths and transfer centers in the wire format of
//! [`l2r_road_network::codec`].  Region and edge ids equal their table
//! indexes and are not written; derived lookup structures (adjacency lists,
//! the vertex→region map, the edge-pair lookup) are rebuilt on decode by the
//! same insertion order the builder uses, so a decoded graph is structurally
//! identical to the original.
//!
//! A stored path (an attached T/B-edge path or an inner-region path) is a
//! `u32` start vertex followed by a walk over the road network's CSR (see
//! [`l2r_road_network::encode_walk`]), so encoding the graph takes the
//! network it belongs to ([`encode_region_graph`]).
//!
//! Decoding validates every embedded id — vertex ids against the road
//! network the graph is being attached to, region ids against the decoded
//! region count — and decodes every stored path as a walk, which is
//! drivable by construction, so a corrupt (or crafted, checksum-valid)
//! payload errors at load time instead of panicking later on the query
//! path.

use l2r_road_network::{
    decode_vertex, decode_walk, encode_walk, CodecError, Decode, Encode, Path, Reader, RoadNetwork,
    RoadType, RoadTypeSet, VertexId, Writer,
};

use crate::region::{Region, RegionId};
use crate::region_graph::{RegionEdge, RegionEdgeId, RegionEdgeKind, RegionGraph, SupportedPath};

/// Writes a list of supported paths: the count (`u64`), then per path its
/// start vertex (`u32`), its walk over `net` and its support (`u64`).
fn encode_supported_paths(w: &mut Writer, paths: &[SupportedPath], net: &RoadNetwork) {
    w.length(paths.len());
    for sp in paths {
        w.u32(sp.path.source().0);
        encode_walk(w, net, sp.path.vertices());
        w.length(sp.support);
    }
}

/// Decodes a supported path: the start vertex is validated against `net`
/// and the walk decodes to a drivable path by construction (the router
/// debug-asserts drivability at query time, so a checksum-valid but crafted
/// snapshot must be rejected here, not panic there).
pub fn decode_supported_path(
    r: &mut Reader<'_>,
    net: &RoadNetwork,
) -> Result<SupportedPath, CodecError> {
    let start = VertexId(r.index("path start vertex", net.num_vertices())?);
    let mut vertices = Vec::new();
    decode_walk(r, net, start, &mut vertices)?;
    let path = Path::new(vertices).map_err(|_| CodecError::Invalid("empty path"))?;
    let support = r.u64("path support")? as usize;
    Ok(SupportedPath { path, support })
}

fn decode_supported_paths(
    r: &mut Reader<'_>,
    net: &RoadNetwork,
) -> Result<Vec<SupportedPath>, CodecError> {
    // Start vertex, vertex count and support: 13 bytes at least.
    let len = r.length("supported path count", 13)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(decode_supported_path(r, net)?);
    }
    Ok(out)
}

fn decode_vertex_list(
    r: &mut Reader<'_>,
    num_vertices: usize,
    what: &'static str,
) -> Result<Vec<VertexId>, CodecError> {
    let len = r.length(what, 4)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(decode_vertex(r, num_vertices)?);
    }
    Ok(out)
}

impl Encode for Region {
    fn encode(&self, w: &mut Writer) {
        w.length(self.vertices.len());
        for v in &self.vertices {
            w.u32(v.0);
        }
        w.f64(self.popularity);
        match self.road_type {
            Some(rt) => {
                w.bool(true);
                rt.encode(w);
            }
            None => w.bool(false),
        }
        self.centroid.encode(w);
        w.f64(self.hull_area_m2);
        w.f64(self.diameter_m);
        self.function.encode(w);
    }
}

/// Decodes a region (descriptors are stored, not recomputed, so the
/// round-trip is bit-exact); `id` is the region's table index.
pub fn decode_region(
    r: &mut Reader<'_>,
    id: RegionId,
    num_vertices: usize,
) -> Result<Region, CodecError> {
    let vertices = decode_vertex_list(r, num_vertices, "region vertex count")?;
    let popularity = r.f64("region popularity")?;
    let road_type = if r.bool("region road type flag")? {
        Some(RoadType::decode(r)?)
    } else {
        None
    };
    let centroid = l2r_road_network::Point::decode(r)?;
    let hull_area_m2 = r.f64("region hull area")?;
    let diameter_m = r.f64("region diameter")?;
    let function = RoadTypeSet::decode(r)?;
    Ok(Region {
        id,
        vertices,
        popularity,
        road_type,
        centroid,
        hull_area_m2,
        diameter_m,
        function,
    })
}

impl Encode for RegionEdgeKind {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            RegionEdgeKind::TEdge => 0,
            RegionEdgeKind::BEdge => 1,
        });
    }
}

impl Decode for RegionEdgeKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8("region edge kind")? {
            0 => Ok(RegionEdgeKind::TEdge),
            1 => Ok(RegionEdgeKind::BEdge),
            _ => Err(CodecError::Invalid("unknown region edge kind")),
        }
    }
}

fn encode_region_edge(w: &mut Writer, edge: &RegionEdge, net: &RoadNetwork) {
    w.u32(edge.a.0);
    w.u32(edge.b.0);
    edge.kind.encode(w);
    encode_supported_paths(w, &edge.paths, net);
}

/// Decodes a region edge; `id` is the edge's table index, endpoints are
/// validated against `num_regions` and attached paths against `net`.
pub fn decode_region_edge(
    r: &mut Reader<'_>,
    id: RegionEdgeId,
    num_regions: usize,
    net: &RoadNetwork,
) -> Result<RegionEdge, CodecError> {
    let a = RegionId(r.index("region edge endpoint", num_regions)?);
    let b = RegionId(r.index("region edge endpoint", num_regions)?);
    if a >= b {
        // Edges are stored undirected with canonicalised endpoints `a < b`
        // (equal endpoints would be a self-loop, which the builder never
        // creates).
        return Err(CodecError::Invalid("region edge endpoints not canonical"));
    }
    let kind = RegionEdgeKind::decode(r)?;
    let paths = decode_supported_paths(r, net)?;
    Ok(RegionEdge {
        id,
        a,
        b,
        kind,
        paths,
    })
}

/// Writes `rg`, whose stored paths are walks over `net` (the network it
/// was built on): the regions, the region edges with their attached paths,
/// then per region its inner paths, transfer centers and fallback centers.
///
/// # Panics
///
/// Panics if a stored path has a hop that is not an edge of `net` (see
/// [`encode_walk`]).
pub fn encode_region_graph(w: &mut Writer, rg: &RegionGraph, net: &RoadNetwork) {
    w.seq(&rg.regions);
    w.length(rg.edges.len());
    for edge in &rg.edges {
        encode_region_edge(w, edge, net);
    }
    // The per-region lists piggyback on the region count written above.
    for paths in &rg.inner_paths {
        encode_supported_paths(w, paths, net);
    }
    for centers in rg.transfer_centers.iter().chain(&rg.fallback_centers) {
        w.length(centers.len());
        for v in centers {
            w.u32(v.0);
        }
    }
}

/// Decodes a region graph against the road network it belongs to.
///
/// Every vertex id is validated against `net`, every region id against the
/// decoded region count; the derived adjacency, vertex→region and edge-pair
/// lookups are rebuilt in builder insertion order.
pub fn decode_region_graph(
    r: &mut Reader<'_>,
    net: &RoadNetwork,
) -> Result<RegionGraph, CodecError> {
    let num_vertices = net.num_vertices();

    let num_regions = r.length("region count", 8)?;
    let mut regions = Vec::with_capacity(num_regions);
    for i in 0..num_regions {
        regions.push(decode_region(r, RegionId(i as u32), num_vertices)?);
    }

    let num_edges = r.length("region edge count", 17)?;
    let mut edges = Vec::with_capacity(num_edges);
    for i in 0..num_edges {
        edges.push(decode_region_edge(
            r,
            RegionEdgeId(i as u32),
            num_regions,
            net,
        )?);
    }

    let mut inner_paths = Vec::with_capacity(num_regions);
    for _ in 0..num_regions {
        inner_paths.push(decode_supported_paths(r, net)?);
    }
    let mut transfer_centers = Vec::with_capacity(num_regions);
    for _ in 0..num_regions {
        transfer_centers.push(decode_vertex_list(
            r,
            num_vertices,
            "transfer center count",
        )?);
    }
    let mut fallback_centers = Vec::with_capacity(num_regions);
    for _ in 0..num_regions {
        fallback_centers.push(decode_vertex_list(
            r,
            num_vertices,
            "fallback center count",
        )?);
    }

    // Rebuild the derived lookups exactly as the builder populates them.
    let mut vertex_region = std::collections::HashMap::new();
    for region in &regions {
        for v in &region.vertices {
            if vertex_region.insert(*v, region.id).is_some() {
                return Err(CodecError::Invalid("vertex belongs to two regions"));
            }
        }
    }
    let mut adjacency = vec![Vec::new(); num_regions];
    let mut edge_lookup = std::collections::HashMap::with_capacity(num_edges);
    for edge in &edges {
        if edge_lookup.insert((edge.a, edge.b), edge.id).is_some() {
            return Err(CodecError::Invalid("duplicate region edge"));
        }
        adjacency[edge.a.idx()].push(edge.id);
        adjacency[edge.b.idx()].push(edge.id);
    }

    Ok(RegionGraph {
        regions,
        edges,
        adjacency,
        vertex_region,
        inner_paths,
        transfer_centers,
        fallback_centers,
        edge_lookup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::bottom_up_clustering;
    use crate::trajectory_graph::TrajectoryGraph;
    use l2r_road_network::{Path, Point, RoadNetworkBuilder};
    use l2r_trajectory::{DriverId, MatchedTrajectory, TrajectoryId};

    fn traj(id: u32, vs: Vec<u32>) -> MatchedTrajectory {
        MatchedTrajectory::new(
            TrajectoryId(id),
            DriverId(0),
            Path::new(vs.into_iter().map(VertexId).collect()).unwrap(),
            0.0,
        )
    }

    /// Two popular corridors joined by one trajectory plus an isolated one,
    /// so the graph has T-edges, B-edges, inner paths and fallback centers.
    fn sample() -> (RoadNetwork, RegionGraph) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..9 {
            b.add_vertex(Point::new(i as f64 * 800.0, (i / 3) as f64 * 500.0));
        }
        for (x, y) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (2, 6),
            (6, 7),
            (7, 8),
        ] {
            b.add_two_way(VertexId(x), VertexId(y), RoadType::Primary)
                .unwrap();
        }
        let net = b.build();
        let mut ts = Vec::new();
        for i in 0..8 {
            ts.push(traj(i, vec![0, 1, 2]));
            ts.push(traj(100 + i, vec![3, 4, 5]));
        }
        ts.push(traj(200, vec![1, 2, 3, 4]));
        for i in 0..4 {
            ts.push(traj(300 + i, vec![7, 8]));
        }
        let tg = TrajectoryGraph::build(&net, &ts);
        let clusters = bottom_up_clustering(&tg);
        let rg = RegionGraph::build(&net, &clusters, &ts, 2);
        (net, rg)
    }

    fn encode(rg: &RegionGraph, net: &RoadNetwork) -> Vec<u8> {
        let mut w = Writer::new();
        encode_region_graph(&mut w, rg, net);
        w.into_vec()
    }

    /// `rg` encoded with one more attached path, `0 → 1`, whose support is
    /// a marker, and the offset of that path's `u32` start vertex: the walk's
    /// vertex count (2) and its one rank follow, one byte each, then the
    /// support.
    fn encode_with_marked_path(rg: &RegionGraph, net: &RoadNetwork) -> (Vec<u8>, usize) {
        const MARK: u64 = 0x5EA1_ED00_C0DE_F00D;
        let mut rg = rg.clone();
        let edge_with_paths = rg
            .edges
            .iter()
            .position(|e| !e.paths.is_empty())
            .expect("sample has T-edges with paths");
        rg.edges[edge_with_paths].paths.push(SupportedPath {
            path: Path::new(vec![VertexId(0), VertexId(1)]).unwrap(),
            support: MARK as usize,
        });
        let bytes = encode(&rg, net);
        let support = bytes
            .windows(8)
            .position(|w| w == MARK.to_le_bytes())
            .expect("the marker is written once");
        let start = support - 6;
        assert_eq!(bytes[start..start + 6], [0, 0, 0, 0, 2, 0]);
        assert!(decode_region_graph(&mut Reader::new(&bytes), net).is_ok());
        (bytes, start)
    }

    #[test]
    fn region_graph_roundtrips_bit_identically() {
        let (net, rg) = sample();
        let bytes = encode(&rg, &net);
        let mut r = Reader::new(&bytes);
        let decoded = decode_region_graph(&mut r, &net).unwrap();
        assert!(r.is_exhausted());

        assert_eq!(decoded.num_regions(), rg.num_regions());
        assert_eq!(decoded.num_edges(), rg.num_edges());
        for (a, b) in rg.regions().iter().zip(decoded.regions()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.popularity.to_bits(), b.popularity.to_bits());
            assert_eq!(a.road_type, b.road_type);
            assert_eq!(a.centroid, b.centroid);
            assert_eq!(a.hull_area_m2.to_bits(), b.hull_area_m2.to_bits());
            assert_eq!(a.diameter_m.to_bits(), b.diameter_m.to_bits());
            assert_eq!(a.function, b.function);
        }
        for (a, b) in rg.edges().iter().zip(decoded.edges()) {
            assert_eq!(a.id, b.id);
            assert_eq!((a.a, a.b, a.kind), (b.a, b.b, b.kind));
            assert_eq!(a.paths, b.paths);
        }
        for region in rg.regions() {
            assert_eq!(rg.inner_paths(region.id), decoded.inner_paths(region.id));
            assert_eq!(
                rg.transfer_centers(region.id),
                decoded.transfer_centers(region.id)
            );
            assert_eq!(
                rg.transfer_centers_or_default(region.id),
                decoded.transfer_centers_or_default(region.id)
            );
            assert_eq!(
                rg.adjacent_edges(region.id),
                decoded.adjacent_edges(region.id)
            );
        }
        for v in 0..net.num_vertices() as u32 {
            assert_eq!(rg.region_of(VertexId(v)), decoded.region_of(VertexId(v)));
        }
        // Re-encoding reproduces the exact bytes.
        assert_eq!(encode(&decoded, &net), bytes);
    }

    #[test]
    fn decode_validates_vertex_ids_against_the_network() {
        let (net, rg) = sample();
        // A network with fewer vertices makes the stored ids out of range.
        let mut b = RoadNetworkBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(100.0, 0.0));
        b.add_two_way(VertexId(0), VertexId(1), RoadType::Primary)
            .unwrap();
        let tiny = b.build();
        assert!(tiny.num_vertices() < net.num_vertices());
        let bytes = encode(&rg, &net);
        assert!(matches!(
            decode_region_graph(&mut Reader::new(&bytes), &tiny),
            Err(CodecError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_transfer_centers() {
        let (net, mut rg) = sample();
        rg.transfer_centers[0].push(VertexId(net.num_vertices() as u32 + 7));
        let bytes = encode(&rg, &net);
        assert!(matches!(
            decode_region_graph(&mut Reader::new(&bytes), &net),
            Err(CodecError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_region_ids_and_non_canonical_edges() {
        let (net, rg) = sample();
        {
            let mut bad = rg.clone();
            bad.edges[0].b = RegionId(bad.num_regions() as u32 + 3);
            let bytes = encode(&bad, &net);
            assert!(matches!(
                decode_region_graph(&mut Reader::new(&bytes), &net),
                Err(CodecError::IndexOutOfRange { .. })
            ));
        }
        {
            let mut bad = rg.clone();
            let (a, b) = (bad.edges[0].a, bad.edges[0].b);
            bad.edges[0].a = b;
            bad.edges[0].b = a;
            let bytes = encode(&bad, &net);
            assert!(matches!(
                decode_region_graph(&mut Reader::new(&bytes), &net),
                Err(CodecError::Invalid(_))
            ));
        }
    }

    #[test]
    fn decode_rejects_out_of_range_path_vertices() {
        let (net, rg) = sample();
        let (mut bytes, start) = encode_with_marked_path(&rg, &net);
        let beyond = net.num_vertices() as u32 + 7;
        bytes[start..start + 4].copy_from_slice(&beyond.to_le_bytes());
        assert!(matches!(
            decode_region_graph(&mut Reader::new(&bytes), &net),
            Err(CodecError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn decode_rejects_undrivable_paths() {
        let (net, rg) = sample();
        let (bytes, start) = encode_with_marked_path(&rg, &net);
        // A rank equal to vertex 0's out-degree names no edge out of it.
        let mut bad = bytes.clone();
        bad[start + 5] = net.out_degree(VertexId(0)) as u8;
        assert!(matches!(
            decode_region_graph(&mut Reader::new(&bad), &net),
            Err(CodecError::Invalid(msg)) if msg.contains("undrivable")
        ));
        // A start vertex the network does not have.
        let mut bad = bytes;
        bad[start..start + 4].copy_from_slice(&(net.num_vertices() as u32).to_le_bytes());
        assert!(matches!(
            decode_region_graph(&mut Reader::new(&bad), &net),
            Err(CodecError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncated_buffers() {
        let (net, rg) = sample();
        let bytes = encode(&rg, &net);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_region_graph(&mut Reader::new(&bytes[..cut]), &net).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn empty_region_graph_roundtrips() {
        let net = RoadNetworkBuilder::new().build();
        let rg = RegionGraph::build(&net, &[], &[], 2);
        let bytes = encode(&rg, &net);
        let decoded = decode_region_graph(&mut Reader::new(&bytes), &net).unwrap();
        assert_eq!(decoded.num_regions(), 0);
        assert_eq!(decoded.num_edges(), 0);
    }
}
