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
//! table is laid out for that loop.  An edge's id *is* its CSR position:
//! edges are grouped by tail vertex (`out_offsets[v] .. out_offsets[v + 1]`
//! is the group of `v`) and sorted by head within each group, parallel edges
//! in the order they were added.  The fields live in parallel columns
//! indexed by position — `from` (tail), `to` (head), one `f64` column per
//! [`CostType`] and `road_type` — so relaxing the arcs of one vertex under
//! one cost type reads a contiguous run of the `to` column and of one cost
//! column (12 bytes per arc) instead of following ids into a table of
//! 40-byte records.  There is no id or position table: [`RoadNetwork::edge`]
//! indexes the columns directly and [`RoadNetwork::edges`] scans them.
//!
//! The in-adjacency (edge positions grouped by head vertex, in id order) is
//! built on the first [`RoadNetwork::in_edges`] call and kept: the fit reads
//! it, while a decoded network that only serves routes never pays for it.
//!
//! [`Edge`] values are rebuilt from the columns on demand
//! ([`RoadNetwork::edge`], [`RoadNetwork::out_edges`], …).  Searches relax
//! each vertex's arcs in position order, so they read the same weights and
//! break ties the same way however the edges were inserted.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::OnceLock;

use crate::error::NetworkError;
use crate::road_type::RoadType;
use crate::spatial::{BoundingBox, GridIndex, Point};
use crate::weights::{CostType, EdgeWeights};

/// Identifier of a vertex (road intersection).  Dense, `0..num_vertices`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Identifier of a directed edge (road segment): its CSR position, dense in
/// `0..num_edges` (see the [module docs](self)).
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
    /// The edge id (equal to its CSR position).
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
    /// The edge fields, indexed by position (= id).  `from` is
    /// non-decreasing and `to` is sorted within each tail group, so
    /// [`RoadNetwork::edge_between`] is a binary search over the group.
    columns: EdgeColumns,
    /// The in-adjacency, built on the first [`RoadNetwork::in_edges`] call.
    in_adjacency: OnceLock<InAdjacency>,
    /// Bounding box of all vertex positions.
    bbox: BoundingBox,
}

/// Edge positions grouped by head vertex, each group in id order.
#[derive(Debug, Clone)]
struct InAdjacency {
    /// CSR offsets into `slots`, length `num_vertices + 1`.
    offsets: Vec<u32>,
    slots: Vec<u32>,
}

/// The edge columns of one contiguous range of positions.  Every slice has
/// the same length, so once a run is cut the per-arc reads need no further
/// bounds checks and the loads of fields a caller never reads are dropped.
#[derive(Clone, Copy)]
struct Run<'a> {
    /// Position of the run's first edge.
    start: usize,
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
            id: EdgeId((self.start + i) as u32),
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
        self.columns.to.len()
    }

    /// All vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All edges, in id (= position) order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        let all = self.run(0..self.num_edges());
        (0..all.to.len()).map(move |i| all.edge(i))
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
        self.run(id.idx()..id.idx() + 1).edge(0)
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
            start: range.start,
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

    /// Outgoing edges of `v`, in id order (sorted by head).
    #[inline(always)]
    pub fn out_edges(&self, v: VertexId) -> impl ExactSizeIterator<Item = Edge> + Clone + '_ {
        let range = self.out_range(v);
        let run = self.run(range.clone());
        (0..range.len()).map(move |i| run.edge(i))
    }

    /// Incoming edges of `v`, in id order.  The first call builds the
    /// in-adjacency of the whole network (one counting pass over the `to`
    /// column); later calls, from any thread, reuse it.
    pub fn in_edges(&self, v: VertexId) -> impl ExactSizeIterator<Item = Edge> + Clone + '_ {
        let adjacency = self.in_adjacency.get_or_init(|| {
            let to = &self.columns.to;
            let (offsets, slots) = group_by(self.num_vertices(), 0..to.len() as u32, |pos| {
                to[pos as usize]
            });
            InAdjacency { offsets, slots }
        });
        let start = adjacency.offsets[v.idx()] as usize;
        let end = adjacency.offsets[v.idx() + 1] as usize;
        let all = self.run(0..self.num_edges());
        adjacency.slots[start..end]
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
        let rank = heads.partition_point(|&h| h < to);
        (heads.get(rank) == Some(&to)).then(|| EdgeId((range.start + rank) as u32))
    }

    /// Neighbours reachable by one outgoing edge.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.heads(v).iter().copied()
    }

    /// The heads of `v`'s out-edge group, in position order (ascending).
    pub(crate) fn heads(&self, v: VertexId) -> &[VertexId] {
        &self.columns.to[self.out_range(v)]
    }

    /// Bounding box of all vertex positions.
    pub fn bounding_box(&self) -> BoundingBox {
        self.bbox
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

    /// Straight-line distance between two vertices, in metres.
    pub fn euclidean(&self, a: VertexId, b: VertexId) -> f64 {
        self.vertex(a).point.distance(&self.vertex(b).point)
    }
}

/// Edge fields in CSR position order, one column each (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct EdgeColumns {
    from: Vec<VertexId>,
    to: Vec<VertexId>,
    /// One weight column per cost type, indexed by [`CostType::index`].
    cost: [Vec<f64>; CostType::COUNT],
    road_type: Vec<RoadType>,
}

/// The columns of one chunk of positions, as [`EdgeColumns::fill`] hands it
/// to a worker.
pub(crate) struct ColumnsChunk<'a> {
    from: &'a mut [VertexId],
    to: &'a mut [VertexId],
    distance: &'a mut [f64],
    travel_time: &'a mut [f64],
    fuel: &'a mut [f64],
    road_type: &'a mut [RoadType],
}

impl ColumnsChunk<'_> {
    /// Number of positions in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.to.len()
    }

    /// Writes the edge at index `j` of the chunk.
    #[inline(always)]
    pub(crate) fn put(
        &mut self,
        j: usize,
        from: VertexId,
        to: VertexId,
        weights: EdgeWeights,
        road_type: RoadType,
    ) {
        self.from[j] = from;
        self.to[j] = to;
        self.distance[j] = weights.distance_m;
        self.travel_time[j] = weights.travel_time_s;
        self.fuel[j] = weights.fuel_ml;
        self.road_type[j] = road_type;
    }
}

impl EdgeColumns {
    /// The columns of `m` edges, each allocated once and filled in place,
    /// chunk by chunk across [`l2r_par`] workers: `fill(first, chunk)`
    /// writes the edges at positions `first .. first + chunk.len()`.
    /// Positions fix where every value lands, so the result does not depend
    /// on the thread count; on failure the error of the lowest-indexed
    /// failing chunk is returned.
    pub(crate) fn fill<E, F>(m: usize, fill: F) -> Result<EdgeColumns, E>
    where
        E: Send,
        F: Fn(usize, &mut ColumnsChunk<'_>) -> Result<(), E> + Sync,
    {
        let mut columns = EdgeColumns {
            from: vec![VertexId(0); m],
            to: vec![VertexId(0); m],
            cost: [(); CostType::COUNT].map(|_| vec![0.0; m]),
            road_type: vec![RoadType::ALL[0]; m],
        };
        let chunk = chunk_len(m);
        let EdgeColumns {
            from,
            to,
            cost: [distance, travel_time, fuel],
            road_type,
        } = &mut columns;
        let mut parts: Vec<ColumnsChunk<'_>> = from
            .chunks_mut(chunk)
            .zip(to.chunks_mut(chunk))
            .zip(distance.chunks_mut(chunk))
            .zip(travel_time.chunks_mut(chunk))
            .zip(fuel.chunks_mut(chunk))
            .zip(road_type.chunks_mut(chunk))
            .map(
                |(((((from, to), distance), travel_time), fuel), road_type)| ColumnsChunk {
                    from,
                    to,
                    distance,
                    travel_time,
                    fuel,
                    road_type,
                },
            )
            .collect();
        l2r_par::par_map_mut(&mut parts, |k, part| fill(k * chunk, part))
            .into_iter()
            .collect::<Result<(), E>>()?;
        Ok(columns)
    }
}

/// Records per chunk when a network table is decoded or filled across
/// [`l2r_par`] workers: four chunks per worker, but never fewer than 8,192
/// records, below which the spawn overhead outweighs the work (so tables of
/// that size are handled on the calling thread).
pub(crate) fn chunk_len(len: usize) -> usize {
    len.div_ceil(l2r_par::max_threads().max(1) * 4).max(8_192)
}

/// Stably groups `items` by `key(item)`, a vertex of a network with `n`
/// vertices, in one counting pass: returns the CSR offsets of the groups
/// (length `n + 1`) and the items grouped by key, in input order within
/// each group.
fn group_by<I, K>(n: usize, items: I, key: K) -> (Vec<u32>, Vec<u32>)
where
    I: Iterator<Item = u32> + Clone,
    K: Fn(u32) -> VertexId,
{
    let mut offsets = vec![0u32; n + 1];
    for item in items.clone() {
        offsets[key(item).idx() + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut grouped = vec![0u32; offsets[n] as usize];
    for item in items {
        let next = &mut cursor[key(item).idx()];
        grouped[*next as usize] = item;
        *next += 1;
    }
    (offsets, grouped)
}

/// Incremental builder for [`RoadNetwork`].
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    vertices: Vec<Vertex>,
    /// The edges in insertion order: endpoints, distance and road type
    /// (travel time and fuel are derived from the last two when the network
    /// is built).
    from: Vec<VertexId>,
    to: Vec<VertexId>,
    distance_m: Vec<f64>,
    road_type: Vec<RoadType>,
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
            from: Vec::with_capacity(edges),
            to: Vec::with_capacity(edges),
            distance_m: Vec::with_capacity(edges),
            road_type: Vec::with_capacity(edges),
        }
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges added so far.
    pub fn num_edges(&self) -> usize {
        self.from.len()
    }

    /// Adds a vertex at `point` and returns its id.
    pub fn add_vertex(&mut self, point: Point) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex { id, point });
        id
    }

    /// Adds a directed edge with an explicit distance.  Travel time and fuel
    /// are derived from it ([`EdgeWeights::derive`]); the edge is refused
    /// with [`NetworkError::InvalidWeight`] if any of the three weights is
    /// not positive and finite ([`EdgeWeights::invalid_cost`]).  The edge's
    /// id is fixed only by [`RoadNetworkBuilder::build`] (see the
    /// [module docs](self)); [`RoadNetwork::edge_between`] finds it.
    pub fn add_edge_with_distance(
        &mut self,
        from: VertexId,
        to: VertexId,
        distance_m: f64,
        road_type: RoadType,
    ) -> Result<(), NetworkError> {
        if from.idx() >= self.vertices.len() {
            return Err(NetworkError::UnknownVertex(from));
        }
        if to.idx() >= self.vertices.len() {
            return Err(NetworkError::UnknownVertex(to));
        }
        if from == to {
            return Err(NetworkError::SelfLoop(from));
        }
        let weights = EdgeWeights::derive(distance_m, road_type);
        if let Some(cost) = weights.invalid_cost() {
            return Err(NetworkError::InvalidWeight(
                cost.short_name(),
                weights.get(cost),
            ));
        }
        self.from.push(from);
        self.to.push(to);
        self.distance_m.push(distance_m);
        self.road_type.push(road_type);
        Ok(())
    }

    /// Adds a directed edge whose distance is the straight-line distance
    /// between the endpoints.
    pub fn add_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        road_type: RoadType,
    ) -> Result<(), NetworkError> {
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

    /// Adds a pair of directed edges (both directions).
    pub fn add_two_way(
        &mut self,
        a: VertexId,
        b: VertexId,
        road_type: RoadType,
    ) -> Result<(), NetworkError> {
        self.add_edge(a, b, road_type)?;
        self.add_edge(b, a, road_type)
    }

    /// Finalises the builder into an immutable [`RoadNetwork`], numbering
    /// the edges in CSR order: by tail, then head, parallel edges in
    /// insertion order.  Two stable counting sorts, by head and then by
    /// tail, give that order; each edge is then written once, straight to
    /// its position.
    pub fn build(self) -> RoadNetwork {
        let RoadNetworkBuilder {
            vertices,
            from,
            to,
            distance_m,
            road_type,
        } = self;
        let n = vertices.len();
        let (_, by_head) = group_by(n, 0..from.len() as u32, |e| to[e as usize]);
        let (out_offsets, order) = group_by(n, by_head.iter().copied(), |e| from[e as usize]);
        let Ok(columns) = EdgeColumns::fill(order.len(), |first, chunk| {
            for (j, &e) in order[first..][..chunk.len()].iter().enumerate() {
                let (e, rt) = (e as usize, road_type[e as usize]);
                chunk.put(
                    j,
                    from[e],
                    to[e],
                    EdgeWeights::derive(distance_m[e], rt),
                    rt,
                );
            }
            Ok::<(), Infallible>(())
        });
        RoadNetwork::from_csr(vertices, out_offsets, columns)
    }
}

impl RoadNetwork {
    /// Assembles a network from a vertex table whose ids equal their
    /// indexes, the CSR offsets of its tail groups (length
    /// `num_vertices + 1`) and its edge columns in position order.  Shared
    /// by [`RoadNetworkBuilder::build`] and snapshot decoding, which accepts
    /// only the layouts `build` produces, so a decoded network is
    /// structurally identical to a freshly built one.
    pub(crate) fn from_csr(
        vertices: Vec<Vertex>,
        out_offsets: Vec<u32>,
        columns: EdgeColumns,
    ) -> RoadNetwork {
        let bbox = BoundingBox::from_points(vertices.iter().map(|v| &v.point));
        RoadNetwork {
            vertices,
            out_offsets,
            columns,
            in_adjacency: OnceLock::new(),
            bbox,
        }
    }
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
        let vgrid = net.vertex_index(500.0);
        let hits = vgrid.query(&Point::new(0.0, 0.0), 100.0);
        assert!(hits.contains(&0));
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
        assert!(net.bounding_box().is_empty());
    }
}
