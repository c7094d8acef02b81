//! Property tests for the reusable [`SearchSpace`] and the edge layout it
//! reads.  On random networks:
//!
//! * a search space reused across many queries returns exactly the same
//!   costs and paths as a freshly allocated space per query (the generation
//!   stamping must never leak state between searches), and the one-to-many
//!   search agrees with individual single-target searches;
//! * every search agrees bit for bit — costs and parents, so tie-breaks
//!   included — with a reference Dijkstra written here over the builder's
//!   edge list, on lattice networks full of equal-length edges and parallel
//!   edges;
//! * the network hands back exactly the edges it was built from, in the
//!   documented orders.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use l2r_road_network::{
    CostType, Edge, EdgeId, EdgeWeights, Path, Point, RoadNetwork, RoadNetworkBuilder, RoadType,
    RoadTypeSet, SearchSpace, VertexId,
};

const ROAD_TYPES: [RoadType; 4] = [
    RoadType::Motorway,
    RoadType::Primary,
    RoadType::Tertiary,
    RoadType::Residential,
];

/// Builds a random network from a vertex count and raw edge pairs (invalid
/// pairs — self loops, out-of-range endpoints — are skipped, so any input
/// yields a valid, possibly disconnected network).
fn build_network(num_vertices: u32, edges: &[(u32, u32, usize)]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for i in 0..num_vertices {
        // Spread the vertices on a deterministic pseudo-grid.
        let x = f64::from(i % 7) * 900.0 + f64::from(i) * 13.0;
        let y = f64::from(i / 7) * 1100.0 + f64::from(i % 3) * 70.0;
        b.add_vertex(Point::new(x, y));
    }
    for (from, to, rt) in edges {
        let (from, to) = (from % num_vertices, to % num_vertices);
        if from == to {
            continue;
        }
        let road_type = ROAD_TYPES[rt % ROAD_TYPES.len()];
        b.add_two_way(VertexId(from), VertexId(to), road_type)
            .expect("in-range, non-loop edge");
    }
    b.build()
}

fn fresh_query(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
    cost: CostType,
) -> (Option<f64>, Option<Path>) {
    let mut space = SearchSpace::new();
    space.dijkstra(net, source, Some(target), |e| e.cost(cost));
    (space.cost_to(target), space.path_to(target))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A reused search space answers a sequence of random queries exactly
    /// like a fresh allocation per query.
    #[test]
    fn reused_space_matches_fresh_space(
        num_vertices in 2u32..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40, 0usize..4), 1..120),
        queries in proptest::collection::vec((0u32..40, 0u32..40, 0usize..3), 1..12),
    ) {
        let net = build_network(num_vertices, &edges);
        let mut reused = SearchSpace::new();
        for (s, t, c) in &queries {
            let source = VertexId(s % num_vertices);
            let target = VertexId(t % num_vertices);
            let cost = CostType::ALL[c % CostType::ALL.len()];
            let (fresh_cost, fresh_path) = fresh_query(&net, source, target, cost);
            reused.dijkstra(&net, source, Some(target), |e| e.cost(cost));
            prop_assert_eq!(reused.cost_to(target), fresh_cost);
            prop_assert_eq!(reused.path_to(target), fresh_path);
        }
    }

    /// One one-to-many search agrees with individual single-target searches
    /// for every target, on the same reused space.
    #[test]
    fn to_many_matches_single_target_searches(
        num_vertices in 2u32..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30, 0usize..4), 1..90),
        source in 0u32..30,
        targets in proptest::collection::vec(0u32..30, 1..8),
    ) {
        let net = build_network(num_vertices, &edges);
        let source = VertexId(source % num_vertices);
        let targets: Vec<VertexId> = targets.iter().map(|t| VertexId(t % num_vertices)).collect();
        let mut space = SearchSpace::new();
        space.dijkstra_to_many(&net, source, &targets, |e| e.cost(CostType::TravelTime));
        let many: Vec<(Option<f64>, Option<Path>)> = targets
            .iter()
            .map(|t| (space.cost_to(*t), space.path_to(*t)))
            .collect();
        for (i, t) in targets.iter().enumerate() {
            let (cost, path) = fresh_query(&net, source, *t, CostType::TravelTime);
            prop_assert_eq!(&many[i].0, &cost);
            prop_assert_eq!(&many[i].1, &path);
        }
    }

    /// The constrained search through a reused space matches the free
    /// compatibility function (which allocates via the thread-local space).
    #[test]
    fn constrained_reuse_matches_free_function(
        num_vertices in 2u32..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30, 0usize..4), 1..90),
        queries in proptest::collection::vec((0u32..30, 0u32..30, 0usize..4), 1..8),
    ) {
        let net = build_network(num_vertices, &edges);
        let mut reused = SearchSpace::new();
        for (s, t, rt) in &queries {
            let source = VertexId(s % num_vertices);
            let target = VertexId(t % num_vertices);
            let slave = Some(RoadTypeSet::single(ROAD_TYPES[rt % ROAD_TYPES.len()]));
            let expected = l2r_road_network::preference_constrained_path(
                &net, source, target, CostType::Distance, slave,
            );
            let got = reused.preference_constrained_path(
                &net, source, target, CostType::Distance, slave,
            );
            prop_assert_eq!(got, expected);
        }
    }
}

/// Side of the unit lattice the tie-test networks live on (100 m spacing).
const SIDE: u32 = 6;

/// Lattice steps an edge may take: the four axis neighbours (100 m) and the
/// four diagonals (141 m).
const STEPS: [(i32, i32, f64); 8] = [
    (1, 0, 100.0),
    (-1, 0, 100.0),
    (0, 1, 100.0),
    (0, -1, 100.0),
    (1, 1, 141.0),
    (-1, -1, 141.0),
    (1, -1, 141.0),
    (-1, 1, 141.0),
];

/// Builds a network on a `SIDE × SIDE` lattice from raw `(vertex, step, road
/// type, copies)` tuples: each adds `copies` parallel one-way edges from the
/// vertex to its lattice neighbour (steps leaving the lattice are skipped).
/// Lengths are 100 or 141 m and only two road types occur, so equal path
/// costs are everywhere.  Returns the network and the builder's edge list in
/// id order.
fn build_lattice(raw: &[(u32, usize, usize, usize)]) -> (RoadNetwork, Vec<Edge>) {
    let mut b = RoadNetworkBuilder::new();
    for i in 0..SIDE * SIDE {
        b.add_vertex(Point::new(
            f64::from(i % SIDE) * 100.0,
            f64::from(i / SIDE) * 100.0,
        ));
    }
    let mut input = Vec::new();
    for &(v, step, rt, copies) in raw {
        let v = v % (SIDE * SIDE);
        let (dx, dy, distance_m) = STEPS[step % STEPS.len()];
        let (x, y) = ((v % SIDE) as i32 + dx, (v / SIDE) as i32 + dy);
        if !(0..SIDE as i32).contains(&x) || !(0..SIDE as i32).contains(&y) {
            continue;
        }
        let (from, to) = (VertexId(v), VertexId(y as u32 * SIDE + x as u32));
        let road_type = [RoadType::Primary, RoadType::Residential][rt % 2];
        for _ in 0..copies {
            let id = b
                .add_edge_with_distance(from, to, distance_m, road_type)
                .expect("in-range, non-loop edge");
            input.push(Edge {
                id,
                from,
                to,
                weights: EdgeWeights::derive(distance_m, road_type),
                road_type,
            });
        }
    }
    (b.build(), input)
}

/// Reference one-to-all Dijkstra over an edge list: each vertex relaxes its
/// out-edges in `(head, id)` order, the frontier pops the smallest `(cost,
/// vertex)` first, and a distance only improves on a strictly smaller cost.
/// With a slave set, a vertex that has at least one out-edge of a slave road
/// type relaxes only those (Algorithm 2).  Returns per-vertex cost bits and
/// parents.
fn reference_search(
    num_vertices: usize,
    edges: &[Edge],
    source: VertexId,
    cost: CostType,
    slave: Option<RoadTypeSet>,
) -> (Vec<Option<u64>>, Vec<Option<VertexId>>) {
    let mut adjacency: Vec<Vec<&Edge>> = vec![Vec::new(); num_vertices];
    for e in edges {
        adjacency[e.from.idx()].push(e);
    }
    for group in &mut adjacency {
        group.sort_by_key(|e| (e.to, e.id));
    }
    let mut dist: Vec<Option<f64>> = vec![None; num_vertices];
    let mut parent: Vec<Option<VertexId>> = vec![None; num_vertices];
    let mut settled = vec![false; num_vertices];
    // Costs are non-negative, so their bit patterns order like the values.
    let mut heap = BinaryHeap::new();
    dist[source.idx()] = Some(0.0);
    heap.push(Reverse((0.0f64.to_bits(), source.0)));
    while let Some(Reverse((bits, v))) = heap.pop() {
        let v = v as usize;
        if settled[v] {
            continue;
        }
        settled[v] = true;
        let restrict = slave.filter(|s| adjacency[v].iter().any(|e| s.contains(e.road_type)));
        for e in &adjacency[v] {
            if restrict.is_some_and(|s| !s.contains(e.road_type)) {
                continue;
            }
            let next = f64::from_bits(bits) + e.cost(cost);
            if dist[e.to.idx()].is_none_or(|d| next < d) {
                dist[e.to.idx()] = Some(next);
                parent[e.to.idx()] = Some(VertexId(v as u32));
                heap.push(Reverse((next.to_bits(), e.to.0)));
            }
        }
    }
    (
        dist.into_iter().map(|d| d.map(f64::to_bits)).collect(),
        parent,
    )
}

/// Per-vertex cost bits and parents of the most recent search on `space`.
fn search_tree(space: &SearchSpace, n: usize) -> (Vec<Option<u64>>, Vec<Option<VertexId>>) {
    let vertices = (0..n as u32).map(VertexId);
    (
        vertices
            .clone()
            .map(|v| space.cost_to(v).map(f64::to_bits))
            .collect(),
        vertices.map(|v| space.parent_of(v)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every one-to-all search — under each cost type, and one
    /// slave-constrained — matches the reference Dijkstra bit for bit,
    /// parents included, so ties break exactly as the reference does.
    #[test]
    fn searches_match_the_reference_dijkstra_bit_for_bit(
        raw in proptest::collection::vec((0u32..36, 0usize..8, 0usize..2, 1usize..3), 20..160),
        source in 0u32..36,
        slave_rt in 0usize..2,
    ) {
        let (net, input) = build_lattice(&raw);
        let n = net.num_vertices();
        let source = VertexId(source);
        let mut space = SearchSpace::new();
        for cost in CostType::ALL {
            space.dijkstra(&net, source, None, |e| e.cost(cost));
            let got = search_tree(&space, n);
            let expected = reference_search(n, &input, source, cost, None);
            prop_assert!(got == expected, "{cost}: {got:?} != {expected:?}");
        }
        let slave = RoadTypeSet::single([RoadType::Primary, RoadType::Residential][slave_rt]);
        space.constrained_to_many(&net, source, &[], CostType::Distance, Some(slave));
        let got = search_tree(&space, n);
        let expected = reference_search(n, &input, source, CostType::Distance, Some(slave));
        prop_assert!(got == expected, "slave-constrained: {got:?} != {expected:?}");
    }

    /// The network returns exactly the builder's edges: `edge`/`try_edge`
    /// by id, `edges()` in id order, `out_edges` grouped by tail and sorted
    /// by `(head, id)`, `in_edges` in id order, and `edge_between` the
    /// lowest id of a parallel group.
    #[test]
    fn edges_come_back_exactly_as_built(
        raw in proptest::collection::vec((0u32..36, 0usize..8, 0usize..2, 1usize..3), 0..160),
    ) {
        let (net, input) = build_lattice(&raw);
        prop_assert_eq!(net.num_edges(), input.len());
        for e in &input {
            prop_assert_eq!(net.edge(e.id), *e);
            prop_assert_eq!(net.try_edge(e.id), Ok(*e));
        }
        prop_assert!(net.try_edge(EdgeId(input.len() as u32)).is_err());
        prop_assert_eq!(net.edges().collect::<Vec<_>>(), input.clone());
        let mut out_total = 0;
        for v in (0..net.num_vertices() as u32).map(VertexId) {
            let mut expected_out: Vec<Edge> = input.iter().filter(|e| e.from == v).copied().collect();
            expected_out.sort_by_key(|e| (e.to, e.id));
            let out: Vec<Edge> = net.out_edges(v).collect();
            prop_assert_eq!(net.out_degree(v), out.len());
            prop_assert_eq!(net.neighbors(v).collect::<Vec<_>>(), out.iter().map(|e| e.to).collect::<Vec<_>>());
            out_total += out.len();
            prop_assert_eq!(out, expected_out);
            let expected_in: Vec<Edge> = input.iter().filter(|e| e.to == v).copied().collect();
            prop_assert_eq!(net.in_edges(v).collect::<Vec<_>>(), expected_in);
            for w in (0..net.num_vertices() as u32).map(VertexId) {
                let lowest = input.iter().find(|e| e.from == v && e.to == w).map(|e| e.id);
                prop_assert_eq!(net.edge_between(v, w), lowest);
            }
        }
        prop_assert_eq!(out_total, input.len());
    }
}
