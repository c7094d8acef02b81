//! Property tests for the road-network wire forms on random inputs.
//!
//! A network decoded from its encoding is the network that was built —
//! every edge's id, endpoints, the bits of all three weights (travel time
//! and fuel are not on the wire, so the decoder re-derives them) and road
//! type, the out/in adjacency orders and the bounding box — and re-encodes
//! to the same bytes.  The section is exactly `16 + 16·n + 17·m` bytes long.
//!
//! A walk over the same networks (parallel edges included) round-trips
//! vertex for vertex; a rank equal to the out-degree is a typed error; and
//! an encoded walk with one to three bytes flipped decodes to a typed error
//! or to a different walk that is still drivable, never a panic.

use proptest::prelude::*;

use l2r_road_network::{
    decode_walk, encode_walk, CodecError, CostType, Decode, Edge, Encode, Point, Reader,
    RoadNetwork, RoadNetworkBuilder, RoadType, VertexId, Writer,
};

/// How one raw edge is added: one way, both ways, or twice the same way.
const ONE_WAY: usize = 0;
const TWO_WAY: usize = 1;

/// Builds a network from vertex positions, a distance pool and raw edges
/// `(from, to, road type, distance index, kind)`; self-loops are skipped.
/// Distances are drawn from the pool, so equal distances repeat across edges
/// and road types.
fn build(
    points: &[(f64, f64)],
    pool: &[f64],
    raw: &[(u32, u32, usize, usize, usize)],
) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for &(x, y) in points {
        b.add_vertex(Point::new(x, y));
    }
    let n = points.len() as u32;
    for &(from, to, rt, d, kind) in raw {
        let (from, to) = (VertexId(from % n), VertexId(to % n));
        if from == to {
            continue;
        }
        let road_type = RoadType::ALL[rt % RoadType::COUNT];
        let distance_m = pool[d % pool.len()];
        let mut add = |from, to| {
            b.add_edge_with_distance(from, to, distance_m, road_type)
                .expect("log-uniform distances over 1e-3..1e7 derive valid weights");
        };
        add(from, to);
        match kind {
            ONE_WAY => {}
            TWO_WAY => add(to, from),
            _ => add(from, to), // a parallel edge
        }
    }
    b.build()
}

fn encode(net: &RoadNetwork) -> Vec<u8> {
    let mut w = Writer::new();
    net.encode(&mut w);
    w.into_vec()
}

/// The edge with its weights as bit patterns, so `-0.0`/`0.0` or NaN
/// payload differences could not hide behind `f64` equality.
fn edge_bits(e: &Edge) -> (u32, u32, u32, [u64; 3], RoadType) {
    (
        e.id.0,
        e.from.0,
        e.to.0,
        CostType::ALL.map(|c| e.cost(c).to_bits()),
        e.road_type,
    )
}

fn all_bits(edges: impl Iterator<Item = Edge>) -> Vec<(u32, u32, u32, [u64; 3], RoadType)> {
    edges.map(|e| edge_bits(&e)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn network_roundtrips_bit_exactly(
        points in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..65),
        exponents in proptest::collection::vec(-3.0f64..7.0, 1..9),
        raw in proptest::collection::vec((0u32..64, 0u32..64, 0usize..6, 0usize..8, 0usize..3), 0..200),
    ) {
        let pool: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
        let net = build(&points, &pool, &raw);
        let (n, m) = (net.num_vertices(), net.num_edges());
        let bytes = encode(&net);
        prop_assert_eq!(bytes.len(), 16 + 16 * n + 17 * m);

        let mut r = Reader::new(&bytes);
        let decoded = RoadNetwork::decode(&mut r).expect("a built network decodes");
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(decoded.vertices(), net.vertices());
        prop_assert_eq!(decoded.num_edges(), m);
        prop_assert_eq!(all_bits(decoded.edges()), all_bits(net.edges()));
        for v in (0..n as u32).map(VertexId) {
            prop_assert_eq!(all_bits(decoded.out_edges(v)), all_bits(net.out_edges(v)));
            prop_assert_eq!(all_bits(decoded.in_edges(v)), all_bits(net.in_edges(v)));
        }
        prop_assert_eq!(decoded.bounding_box(), net.bounding_box());
        prop_assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn walks_roundtrip_and_reject_bad_ranks_and_flips(
        points in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..65),
        raw in proptest::collection::vec((0u32..64, 0u32..64, 0usize..6, 0usize..8, 0usize..3), 0..200),
        start in 0u32..64,
        choices in proptest::collection::vec(0usize..16, 0..40),
        flips in proptest::collection::vec((0usize..1024, 1u8..=255), 1..4),
    ) {
        let net = build(&points, &[100.0], &raw);
        let start = VertexId(start % net.num_vertices() as u32);
        let walk = random_walk(&net, start, &choices);
        let mut w = Writer::new();
        encode_walk(&mut w, &net, &walk);
        let bytes = w.into_vec();

        let mut r = Reader::new(&bytes);
        let mut decoded = Vec::new();
        prop_assert_eq!(decode_walk(&mut r, &net, start, &mut decoded), Ok(walk.len()));
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(&decoded, &walk);

        // A rank equal to the out-degree of the vertex it leaves.
        let mut w = Writer::new();
        w.leb128(2);
        w.leb128(net.out_degree(start) as u32);
        let result = decode_walk(&mut Reader::new(w.as_slice()), &net, start, &mut Vec::new());
        prop_assert!(matches!(result, Err(CodecError::Invalid(_))), "{:?}", result);

        let mut flipped = bytes.clone();
        for &(at, mask) in &flips {
            flipped[at % bytes.len()] ^= mask;
        }
        if flipped != bytes {
            let mut other = Vec::new();
            if decode_walk(&mut Reader::new(&flipped), &net, start, &mut other).is_ok() {
                prop_assert!(other != walk, "flips {:?} decode to the same walk", flips);
                prop_assert!(other.is_empty() || other[0] == start);
                for hop in other.windows(2) {
                    prop_assert!(net.edge_between(hop[0], hop[1]).is_some());
                }
            }
        }
    }
}

/// A walk from `start` that takes, at each step, the out-edge `choice`
/// (modulo the out-degree) and stops at a vertex without out-edges.
fn random_walk(net: &RoadNetwork, start: VertexId, choices: &[usize]) -> Vec<VertexId> {
    let mut walk = vec![start];
    let mut v = start;
    for &choice in choices {
        let degree = net.out_degree(v);
        if degree == 0 {
            break;
        }
        v = net
            .out_edges(v)
            .nth(choice % degree)
            .expect("choice below the degree")
            .to;
        walk.push(v);
    }
    walk
}
