//! The road-network graph `G = (V, E, W)` of the paper (Section III).
//!
//! Vertices are road intersections with planar coordinates; directed edges are
//! road segments annotated with distance, travel time, fuel consumption and
//! road type.  The graph is built once through [`RoadNetworkBuilder`] and is
//! immutable afterwards.
//!
//! # Edge layout
//!
//! Every Dijkstra in the workspace spends its time relaxing arcs, so the edge
//! table is laid out for that loop.  Each edge is stored exactly once, at its
//! *CSR position*: edges are grouped by tail vertex (`out_offsets[v] ..
//! out_offsets[v + 1]` is the group of `v`) and sorted by `(head, id)` within
//! each group.  The fields live in parallel columns indexed by position —
//! `id`, then `from` (tail), `to` (head), one `f64` column per [`CostType`]
//! and `road_type` — so relaxing the arcs of one vertex under one cost type
//! reads a contiguous run of the `to` column and of one cost column (12
//! bytes per arc) instead of following ids into a table of 40-byte records.
//! `slot` maps an edge id to its position and the in-adjacency stores
//! positions, grouped by head vertex in id order.
//!
//! The layout is invisible to callers: [`Edge`] values are rebuilt from the
//! columns on demand ([`RoadNetwork::edge`], [`RoadNetwork::out_edges`], …),
//! and the position order is exactly the adjacency order the network always
//! had, so searches relax arcs in the same order, read the same weights and
//! break ties the same way.

use std::ops::Range;

use crate::error::NetworkError;
use crate::road_type::RoadType;
use crate::spatial::{BoundingBox, GridIndex, Point};
use crate::weights::{CostType, EdgeWeights};

/// Identifier of a vertex (road intersection).  Dense, `0..num_vertices`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Identifier of a directed edge (road segment).  Dense, `0..num_edges`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl VertexId {
    /// The id as a usable index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usable index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A road intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// The vertex id (equal to its index in the vertex table).
    pub id: VertexId,
    /// Planar position in metres.
    pub point: Point,
}

/// A directed road segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The edge id (equal to its index in the edge table).
    pub id: EdgeId,
    /// Tail vertex.
    pub from: VertexId,
    /// Head vertex.
    pub to: VertexId,
    /// Pre-computed weights (the paper's `wDI`, `wTT`, `wFC`).
    pub weights: EdgeWeights,
    /// The paper's `wRT`: functional road class.
    pub road_type: RoadType,
}

impl Edge {
    /// Weight of the edge under a given cost type.
    pub fn cost(&self, cost: CostType) -> f64 {
        self.weights.get(cost)
    }

    /// Distance in metres.
    pub fn distance_m(&self) -> f64 {
        self.weights.distance_m
    }
}

/// Immutable road-network graph with column-wise CSR edge storage (see the
/// [module docs](self) for the layout).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    vertices: Vec<Vertex>,
    /// CSR offsets into the edge columns, length `num_vertices + 1`.
    out_offsets: Vec<u32>,
    /// Edge id at each position.
    id: Vec<EdgeId>,
    /// The other edge fields, indexed by position.  `from` is
    /// non-decreasing and `to` is sorted within each tail group, so
    /// [`RoadNetwork::edge_between`] is a binary search over the group.
    columns: EdgeColumns,
    /// Position of each edge id.
    slot: Vec<u32>,
    /// CSR offsets into `in_slots`, length `num_vertices + 1`.
    in_offsets: Vec<u32>,
    /// Positions of the incoming edges, grouped by head vertex, in id order.
    in_slots: Vec<u32>,
    /// Bounding box of all vertex positions.
    bbox: BoundingBox,
}

/// The edge columns of one contiguous range of positions.  Every slice has
/// the same length, so once a run is cut the per-arc reads need no further
/// bounds checks and the loads of fields a caller never reads are dropped.
#[derive(Clone, Copy)]
struct Run<'a> {
    id: &'a [EdgeId],
    from: &'a [VertexId],
    to: &'a [VertexId],
    distance: &'a [f64],
    travel_time: &'a [f64],
    fuel: &'a [f64],
    road_type: &'a [RoadType],
}

impl Run<'_> {
    #[inline(always)]
    fn edge(&self, i: usize) -> Edge {
        Edge {
            id: self.id[i],
            from: self.from[i],
            to: self.to[i],
            weights: EdgeWeights {
                distance_m: self.distance[i],
                travel_time_s: self.travel_time[i],
                fuel_ml: self.fuel[i],
            },
            road_type: self.road_type[i],
        }
    }
}

impl RoadNetwork {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.id.len()
    }

    /// All vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All edges, in id order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        let all = self.run(0..self.num_edges());
        self.slot.iter().map(move |&pos| all.edge(pos as usize))
    }

    /// The vertex with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range; ids produced by this network are
    /// always valid.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id.idx()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range; ids produced by this network are
    /// always valid.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        let pos = self.slot[id.idx()] as usize;
        self.run(pos..pos + 1).edge(0)
    }

    /// Checked vertex lookup.
    pub fn try_vertex(&self, id: VertexId) -> Result<&Vertex, NetworkError> {
        self.vertices
            .get(id.idx())
            .ok_or(NetworkError::UnknownVertex(id))
    }

    /// Checked edge lookup.
    pub fn try_edge(&self, id: EdgeId) -> Result<Edge, NetworkError> {
        if id.idx() < self.num_edges() {
            Ok(self.edge(id))
        } else {
            Err(NetworkError::UnknownEdge(id))
        }
    }

    /// The columns of the positions in `range`.
    #[inline(always)]
    fn run(&self, range: Range<usize>) -> Run<'_> {
        let EdgeColumns {
            from,
            to,
            cost: [distance, travel_time, fuel],
            road_type,
        } = &self.columns;
        Run {
            id: &self.id[range.clone()],
            from: &from[range.clone()],
            to: &to[range.clone()],
            distance: &distance[range.clone()],
            travel_time: &travel_time[range.clone()],
            fuel: &fuel[range.clone()],
            road_type: &road_type[range],
        }
    }

    /// Positions of the out-edge group of `v`.
    #[inline(always)]
    fn out_range(&self, v: VertexId) -> Range<usize> {
        self.out_offsets[v.idx()] as usize..self.out_offsets[v.idx() + 1] as usize
    }

    /// Outgoing edges of `v`, sorted by `(head, id)`.
    #[inline(always)]
    pub fn out_edges(&self, v: VertexId) -> impl ExactSizeIterator<Item = Edge> + Clone + '_ {
        let range = self.out_range(v);
        let run = self.run(range.clone());
        (0..range.len()).map(move |i| run.edge(i))
    }

    /// Incoming edges of `v`, in id order.
    pub fn in_edges(&self, v: VertexId) -> impl ExactSizeIterator<Item = Edge> + Clone + '_ {
        let start = self.in_offsets[v.idx()] as usize;
        let end = self.in_offsets[v.idx() + 1] as usize;
        let all = self.run(0..self.num_edges());
        self.in_slots[start..end]
            .iter()
            .map(move |&pos| all.edge(pos as usize))
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_range(v).len()
    }

    /// The directed edge from `from` to `to`, if it exists — an O(log deg)
    /// binary search over the `to` column of `from`'s out-edge group.
    /// With parallel edges between the same pair, the lowest edge id is
    /// returned.
    pub fn edge_between(&self, from: VertexId, to: VertexId) -> Option<EdgeId> {
        if from.idx() >= self.vertices.len() {
            return None;
        }
        let range = self.out_range(from);
        let heads = &self.columns.to[range.clone()];
        let pos = heads.partition_point(|&h| h < to);
        (heads.get(pos) == Some(&to)).then(|| self.id[range.start + pos])
    }

    /// Neighbours reachable by one outgoing edge.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.columns.to[self.out_range(v)].iter().copied()
    }

    /// Bounding box of all vertex positions.
    pub fn bounding_box(&self) -> BoundingBox {
        self.bbox
    }

    /// The vertex closest to `p` (linear scan; use [`RoadNetwork::vertex_index`]
    /// for repeated queries).  `None` for an empty network.
    pub fn nearest_vertex(&self, p: &Point) -> Option<VertexId> {
        self.vertices
            .iter()
            .min_by(|a, b| a.point.distance_sq(p).total_cmp(&b.point.distance_sq(p)))
            .map(|v| v.id)
    }

    /// Builds a grid index over vertex positions for fast nearest-neighbour
    /// style queries.  The returned ids are vertex ids.
    pub fn vertex_index(&self, cell_size_m: f64) -> GridIndex {
        let mut grid = GridIndex::new(self.bbox, cell_size_m);
        for v in &self.vertices {
            grid.insert(v.id.0, &v.point);
        }
        grid
    }

    /// Builds a grid index over edges (each edge registered along its
    /// segment) for map-matching candidate lookups.  The returned ids are
    /// edge ids.
    pub fn edge_index(&self, cell_size_m: f64) -> GridIndex {
        let mut grid = GridIndex::new(self.bbox, cell_size_m);
        self.insert_edge_segments(&mut grid);
        grid
    }

    /// [`RoadNetwork::vertex_index`] with the cell size derived from vertex
    /// density (see [`GridIndex::with_target_occupancy`]): expected
    /// candidate-list lengths stay O(`target_per_cell`) whether the network
    /// is a town or a country.
    pub fn vertex_index_auto(&self, target_per_cell: f64) -> GridIndex {
        let mut grid =
            GridIndex::with_target_occupancy(self.bbox, self.num_vertices(), target_per_cell);
        for v in &self.vertices {
            grid.insert(v.id.0, &v.point);
        }
        grid
    }

    /// [`RoadNetwork::edge_index`] with the cell size derived from edge
    /// density (see [`GridIndex::with_target_occupancy`]).
    pub fn edge_index_auto(&self, target_per_cell: f64) -> GridIndex {
        let mut grid =
            GridIndex::with_target_occupancy(self.bbox, self.num_edges(), target_per_cell);
        self.insert_edge_segments(&mut grid);
        grid
    }

    /// Registers every edge's segment in `grid`, in id order.
    fn insert_edge_segments(&self, grid: &mut GridIndex) {
        for e in self.edges() {
            let a = self.vertex(e.from).point;
            let b = self.vertex(e.to).point;
            grid.insert_segment(e.id.0, &a, &b);
        }
    }

    /// Straight-line distance between two vertices, in metres.
    pub fn euclidean(&self, a: VertexId, b: VertexId) -> f64 {
        self.vertex(a).point.distance(&self.vertex(b).point)
    }
}

/// Edge fields, one column each.  The builder and the snapshot decoder
/// collect them in id order; [`RoadNetwork::from_parts`] rearranges them into
/// CSR position order, one column at a time.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeColumns {
    pub(crate) from: Vec<VertexId>,
    pub(crate) to: Vec<VertexId>,
    /// One weight column per cost type, indexed by [`CostType::index`].
    pub(crate) cost: [Vec<f64>; CostType::COUNT],
    pub(crate) road_type: Vec<RoadType>,
}

impl EdgeColumns {
    pub(crate) fn with_capacity(edges: usize) -> EdgeColumns {
        EdgeColumns {
            from: Vec::with_capacity(edges),
            to: Vec::with_capacity(edges),
            cost: [(); CostType::COUNT].map(|_| Vec::with_capacity(edges)),
            road_type: Vec::with_capacity(edges),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.from.len()
    }

    /// Appends the edge with the next id.
    pub(crate) fn push(
        &mut self,
        from: VertexId,
        to: VertexId,
        weights: EdgeWeights,
        road_type: RoadType,
    ) {
        self.from.push(from);
        self.to.push(to);
        for c in CostType::ALL {
            self.cost[c.index()].push(weights.get(c));
        }
        self.road_type.push(road_type);
    }
}

/// Incremental builder for [`RoadNetwork`].
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    vertices: Vec<Vertex>,
    edges: EdgeColumns,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-allocated capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        RoadNetworkBuilder {
            vertices: Vec::with_capacity(vertices),
            edges: EdgeColumns::with_capacity(edges),
        }
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a vertex at `point` and returns its id.
    pub fn add_vertex(&mut self, point: Point) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex { id, point });
        id
    }

    /// Adds a directed edge with an explicit distance.
    pub fn add_edge_with_distance(
        &mut self,
        from: VertexId,
        to: VertexId,
        distance_m: f64,
        road_type: RoadType,
    ) -> Result<EdgeId, NetworkError> {
        if from.idx() >= self.vertices.len() {
            return Err(NetworkError::UnknownVertex(from));
        }
        if to.idx() >= self.vertices.len() {
            return Err(NetworkError::UnknownVertex(to));
        }
        if from == to {
            return Err(NetworkError::SelfLoop(from));
        }
        if !(distance_m.is_finite() && distance_m > 0.0) {
            return Err(NetworkError::InvalidWeight("distance", distance_m));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(
            from,
            to,
            EdgeWeights::derive(distance_m, road_type),
            road_type,
        );
        Ok(id)
    }

    /// Adds a directed edge whose distance is the straight-line distance
    /// between the endpoints.
    pub fn add_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        road_type: RoadType,
    ) -> Result<EdgeId, NetworkError> {
        if from.idx() >= self.vertices.len() {
            return Err(NetworkError::UnknownVertex(from));
        }
        if to.idx() >= self.vertices.len() {
            return Err(NetworkError::UnknownVertex(to));
        }
        let d = self.vertices[from.idx()]
            .point
            .distance(&self.vertices[to.idx()].point)
            .max(1.0);
        self.add_edge_with_distance(from, to, d, road_type)
    }

    /// Adds a pair of directed edges (both directions) and returns both ids.
    pub fn add_two_way(
        &mut self,
        a: VertexId,
        b: VertexId,
        road_type: RoadType,
    ) -> Result<(EdgeId, EdgeId), NetworkError> {
        let e1 = self.add_edge(a, b, road_type)?;
        let e2 = self.add_edge(b, a, road_type)?;
        Ok((e1, e2))
    }

    /// Finalises the builder into an immutable [`RoadNetwork`].
    pub fn build(self) -> RoadNetwork {
        RoadNetwork::from_parts(self.vertices, self.edges)
    }
}

impl RoadNetwork {
    /// Assembles a network from a vertex table whose ids equal their indexes
    /// and the edge fields in id order, laying the edges out in CSR position
    /// order and rebuilding the adjacency and bounding box.  Shared by
    /// [`RoadNetworkBuilder::build`] and snapshot decoding, so a decoded
    /// network is structurally identical to a freshly built one.  Each input
    /// column is released as soon as its permuted copy exists, so the edge
    /// table is never held twice.
    pub(crate) fn from_parts(vertices: Vec<Vertex>, edges: EdgeColumns) -> RoadNetwork {
        let n = vertices.len();
        let m = edges.len();
        let EdgeColumns {
            from,
            to,
            cost,
            road_type,
        } = edges;
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for (f, t) in from.iter().zip(&to) {
            out_offsets[f.idx() + 1] += 1;
            in_offsets[t.idx() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        // Position order: grouped by tail, then sorted by (head, id) within
        // each group, so edge lookups are binary searches and neighbour
        // iteration order is deterministic.
        let mut id = vec![EdgeId(0); m];
        let mut cursor = out_offsets.clone();
        for (e, f) in from.iter().enumerate() {
            id[cursor[f.idx()] as usize] = EdgeId(e as u32);
            cursor[f.idx()] += 1;
        }
        drop(cursor);
        for v in 0..n {
            let group = &mut id[out_offsets[v] as usize..out_offsets[v + 1] as usize];
            group.sort_unstable_by_key(|&e| (to[e.idx()], e));
        }
        // The widest columns move first, while the fewest others exist, so
        // the peak stays about one narrow column above the finished network.
        let cost = cost.map(|column| permute(&id, column));
        let road_type = permute(&id, road_type);
        let mut slot = vec![0u32; m];
        for (pos, e) in id.iter().enumerate() {
            slot[e.idx()] = pos as u32;
        }
        let mut in_slots = vec![0u32; m];
        let mut cursor = in_offsets.clone();
        for (e, t) in to.iter().enumerate() {
            in_slots[cursor[t.idx()] as usize] = slot[e];
            cursor[t.idx()] += 1;
        }
        drop(cursor);
        let columns = EdgeColumns {
            from: permute(&id, from),
            to: permute(&id, to),
            cost,
            road_type,
        };
        let bbox = BoundingBox::from_points(vertices.iter().map(|v| &v.point));
        RoadNetwork {
            vertices,
            out_offsets,
            id,
            columns,
            slot,
            in_offsets,
            in_slots,
            bbox,
        }
    }
}

/// `column` (indexed by edge id) rearranged into position order; the input
/// is released on return.
fn permute<T: Copy>(id: &[EdgeId], column: Vec<T>) -> Vec<T> {
    id.iter().map(|e| column[e.idx()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny 4-vertex diamond used by several tests:
    ///
    /// ```text
    ///      1
    ///    /   \
    ///   0     3
    ///    \   /
    ///      2
    /// ```
    fn diamond() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1000.0, 1000.0));
        let v2 = b.add_vertex(Point::new(1000.0, -1000.0));
        let v3 = b.add_vertex(Point::new(2000.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Primary).unwrap();
        b.add_two_way(v0, v2, RoadType::Residential).unwrap();
        b.add_two_way(v1, v3, RoadType::Primary).unwrap();
        b.add_two_way(v2, v3, RoadType::Residential).unwrap();
        b.build()
    }

    #[test]
    fn build_counts_and_lookup() {
        let net = diamond();
        assert_eq!(net.num_vertices(), 4);
        assert_eq!(net.num_edges(), 8);
        assert_eq!(net.out_degree(VertexId(0)), 2);
        assert_eq!(net.out_degree(VertexId(3)), 2);
        assert!(net.edge_between(VertexId(0), VertexId(1)).is_some());
        assert!(net.edge_between(VertexId(0), VertexId(3)).is_none());
    }

    #[test]
    fn adjacency_matches_edges() {
        let net = diamond();
        let neigh: Vec<VertexId> = net.neighbors(VertexId(0)).collect();
        assert_eq!(neigh.len(), 2);
        assert!(neigh.contains(&VertexId(1)) && neigh.contains(&VertexId(2)));
        let in_edges: Vec<Edge> = net.in_edges(VertexId(3)).collect();
        assert_eq!(in_edges.len(), 2);
        for e in in_edges {
            assert_eq!(e.to, VertexId(3));
        }
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(10.0, 0.0));
        assert!(matches!(
            b.add_edge(v0, VertexId(99), RoadType::Primary),
            Err(NetworkError::UnknownVertex(_))
        ));
        assert!(matches!(
            b.add_edge(v0, v0, RoadType::Primary),
            Err(NetworkError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_edge_with_distance(v0, v1, -3.0, RoadType::Primary),
            Err(NetworkError::InvalidWeight(_, _))
        ));
        assert!(matches!(
            b.add_edge_with_distance(v0, v1, f64::NAN, RoadType::Primary),
            Err(NetworkError::InvalidWeight(_, _))
        ));
    }

    #[test]
    fn edge_weights_are_derived_from_geometry() {
        let net = diamond();
        let e = net.edge(net.edge_between(VertexId(0), VertexId(1)).unwrap());
        let expected = Point::new(0.0, 0.0).distance(&Point::new(1000.0, 1000.0));
        assert!((e.distance_m() - expected).abs() < 1e-9);
        assert!(e.cost(CostType::TravelTime) > 0.0);
        assert!(e.cost(CostType::Fuel) > 0.0);
    }

    #[test]
    fn nearest_vertex_and_indexes() {
        let net = diamond();
        assert_eq!(
            net.nearest_vertex(&Point::new(10.0, 10.0)),
            Some(VertexId(0))
        );
        assert_eq!(
            net.nearest_vertex(&Point::new(1990.0, 10.0)),
            Some(VertexId(3))
        );
        let vgrid = net.vertex_index(500.0);
        let hits = vgrid.query(&Point::new(0.0, 0.0), 100.0);
        assert!(hits.contains(&0));
        let egrid = net.edge_index(500.0);
        let ehits = egrid.query(&Point::new(500.0, 500.0), 300.0);
        assert!(!ehits.is_empty());
    }

    #[test]
    fn checked_lookups() {
        let net = diamond();
        assert!(net.try_vertex(VertexId(0)).is_ok());
        assert!(net.try_vertex(VertexId(17)).is_err());
        assert!(net.try_edge(EdgeId(0)).is_ok());
        assert!(net.try_edge(EdgeId(1000)).is_err());
    }

    #[test]
    fn empty_network_builds() {
        let net = RoadNetworkBuilder::new().build();
        assert_eq!(net.num_vertices(), 0);
        assert_eq!(net.num_edges(), 0);
        assert!(net.nearest_vertex(&Point::new(0.0, 0.0)).is_none());
        assert!(net.bounding_box().is_empty());
    }
}
