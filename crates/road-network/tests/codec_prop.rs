//! Property tests for the road-network wire forms on random inputs.
//!
//! A network decoded from its encoding is the network that was built —
//! every edge's id, endpoints, the bits of all three weights (travel time
//! and fuel are not on the wire, so the decoder re-derives them) and road
//! type, the out/in adjacency orders and the bounding box — and re-encodes
//! to the same bytes.  The section is exactly `16 + 20·n + 13·m` bytes long.
//!
//! The decoder accepts only sections `build` could produce.  Crafted
//! sections — out-degrees summing below or above the edge count, a head out
//! of range, a self-loop, a head below its predecessor in a tail group, an
//! unknown road-type tag — each give their typed error; and with one to
//! three bytes flipped, decode never panics, and a section it accepts
//! re-encodes to exactly the mutated bytes (every network has one
//! encoding).
//!
//! A walk over the same networks (parallel edges included) round-trips
//! vertex for vertex; a rank equal to the out-degree is a typed error; and
//! an encoded walk with one to three bytes flipped decodes to a typed error
//! or to a different walk that is still drivable, never a panic.

use proptest::prelude::*;

use l2r_road_network::{
    decode_walk, encode_walk, CodecError, CostType, Decode, Edge, EdgeId, Encode, Point, Reader,
    RoadNetwork, RoadNetworkBuilder, RoadType, VertexId, Writer, EDGE_WIRE_BYTES,
    VERTEX_WIRE_BYTES,
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
        prop_assert_eq!(bytes.len(), 16 + 20 * n + 13 * m);

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
    fn crafted_sections_give_typed_errors(
        points in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..65),
        raw in proptest::collection::vec((0u32..64, 0u32..64, 0usize..6, 0usize..8, 0usize..3), 1..200),
        pick in 0usize..1 << 16,
        bad_tag in RoadType::COUNT as u8..=u8::MAX,
    ) {
        let net = build(&points, &[100.0], &raw);
        let bytes = encode(&net);
        let (n, m) = (net.num_vertices(), net.num_edges());
        let decode = |bytes: &[u8]| RoadNetwork::decode(&mut Reader::new(bytes)).map(|_| ());
        let degree_at = |v: usize| 8 + v * VERTEX_WIRE_BYTES + 16;
        let record_at = |pos: usize| 16 + n * VERTEX_WIRE_BYTES + pos * EDGE_WIRE_BYTES;
        let with = |at: usize, field: &[u8]| {
            let mut crafted = bytes.clone();
            crafted[at..at + field.len()].copy_from_slice(field);
            crafted
        };

        // Degrees summing above, then below, the edge count.
        let v = pick % n;
        let degree = net.out_degree(VertexId(v as u32)) as u32;
        prop_assert_eq!(
            decode(&with(degree_at(v), &(degree + 1).to_le_bytes())),
            Err(CodecError::Invalid("out-degrees sum past the edge count"))
        );
        if let Some(v) = (0..n).map(|i| (v + i) % n).find(|&v| net.out_degree(VertexId(v as u32)) > 0) {
            let degree = net.out_degree(VertexId(v as u32)) as u32;
            prop_assert_eq!(
                decode(&with(degree_at(v), &(degree - 1).to_le_bytes())),
                Err(CodecError::Invalid("out-degrees sum short of the edge count"))
            );
        }
        if m == 0 {
            return Ok(());
        }

        // One record made invalid; every record before it is intact, so it
        // is the one reported.
        let pos = pick % m;
        let e = net.edge(EdgeId(pos as u32));
        prop_assert_eq!(
            decode(&with(record_at(pos), &(n as u32 + (pick as u32 >> 8)).to_le_bytes())),
            Err(CodecError::IndexOutOfRange { what: "edge head", index: (n + (pick >> 8)) as u64, limit: n as u64 })
        );
        prop_assert_eq!(
            decode(&with(record_at(pos), &e.from.0.to_le_bytes())),
            Err(CodecError::Invalid("self-loop edge"))
        );
        prop_assert_eq!(
            decode(&with(record_at(pos) + 12, &[bad_tag])),
            Err(CodecError::IndexOutOfRange { what: "road type", index: u64::from(bad_tag), limit: RoadType::COUNT as u64 })
        );
        // A head below its predecessor's in the same tail group.
        let lowered = (1..m).map(|i| (pos + i) % m).filter(|&p| p > 0).find_map(|p| {
            let (previous, e) = (net.edge(EdgeId(p as u32 - 1)), net.edge(EdgeId(p as u32)));
            let lower = (0..previous.to.0).find(|&h| h != e.from.0)?;
            (previous.from == e.from).then_some((p, lower))
        });
        if let Some((p, lower)) = lowered {
            prop_assert_eq!(
                decode(&with(record_at(p), &lower.to_le_bytes())),
                Err(CodecError::Invalid("edge heads out of order within a tail group"))
            );
        }
    }

    #[test]
    fn flipped_sections_never_panic_and_decode_canonically(
        points in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..65),
        exponents in proptest::collection::vec(-3.0f64..7.0, 1..9),
        raw in proptest::collection::vec((0u32..64, 0u32..64, 0usize..6, 0usize..8, 0usize..3), 0..200),
        flips in proptest::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
    ) {
        let pool: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
        let bytes = encode(&build(&points, &pool, &raw));
        let mut flipped = bytes.clone();
        for &(at, mask) in &flips {
            flipped[at % bytes.len()] ^= mask;
        }
        let mut r = Reader::new(&flipped);
        if let Ok(decoded) = RoadNetwork::decode(&mut r) {
            let consumed = flipped.len() - r.remaining();
            prop_assert_eq!(encode(&decoded), flipped[..consumed].to_vec());
        }
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
