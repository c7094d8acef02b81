//! Binary encoding primitives for model snapshots.
//!
//! The build environment has no serde, so snapshot serialisation is
//! hand-rolled in the workspace's dependency-free house style: a [`Writer`]
//! appends little-endian fields to a byte buffer, a [`Reader`] consumes them
//! with bounds-checked reads, and the [`Encode`] / [`Decode`] traits tie a
//! type to its wire form.  Higher crates (`l2r-region-graph`,
//! `l2r-preference`, `l2r-core`) implement the traits for their own types;
//! this module covers the road-network layer plus the primitives.
//!
//! Design rules, shared by every implementation:
//!
//! * **little-endian, fixed-width** — `u8`/`u32`/`u64` as-is, `usize` as
//!   `u64`, `f64` via [`f64::to_bits`] so round-trips are bit-exact;
//! * **length-prefixed sequences** — a `u64` count followed by the elements,
//!   with the count validated against the remaining buffer *before* any
//!   allocation, so a corrupt length errors instead of exhausting memory;
//! * **decode never panics** — every id read from the wire is validated
//!   against the counts embedded in the same payload (see
//!   [`Reader::index`]); malformed input surfaces as a [`CodecError`].

use std::mem::take;

use crate::graph::{EdgeColumns, RoadNetwork, Vertex, VertexId};
use crate::path::Path;
use crate::road_type::{RoadType, RoadTypeSet};
use crate::spatial::Point;
use crate::weights::{CostType, EdgeWeights};

/// An error raised while decoding a snapshot buffer.
///
/// Decoding is total: any malformed input — truncation, an enum tag outside
/// its range, an index beyond the embedded counts — produces an error value,
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a field could be read.
    UnexpectedEof {
        /// What was being read.
        what: &'static str,
        /// Bytes needed to read it.
        needed: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// A sequence length exceeds what the remaining buffer could possibly
    /// hold (caught before any allocation).
    ImplausibleLength {
        /// What sequence was being read.
        what: &'static str,
        /// The length read from the wire.
        len: u64,
    },
    /// An id or tag is outside the valid range embedded in the payload.
    IndexOutOfRange {
        /// What kind of id was read.
        what: &'static str,
        /// The value read from the wire.
        index: u64,
        /// The exclusive upper bound it was validated against.
        limit: u64,
    },
    /// A structural invariant of the decoded data does not hold.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof {
                what,
                needed,
                remaining,
            } => write!(
                f,
                "unexpected end of buffer reading {what}: need {needed} bytes, {remaining} left"
            ),
            CodecError::ImplausibleLength { what, len } => {
                write!(f, "implausible length {len} for {what}")
            }
            CodecError::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} {index} out of range (limit {limit})")
            }
            CodecError::Invalid(what) => write!(f, "invalid snapshot data: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn length(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via its bit pattern (round-trips are bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed sequence.
    pub fn seq<T: Encode>(&mut self, items: &[T]) {
        self.length(items.len());
        for item in items {
            item.encode(self);
        }
    }

    /// Writes a length-prefixed byte slice (`u32` length + raw bytes) —
    /// the wire form of short variable-length fields such as dataset names
    /// in the serving frame protocol.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string (see [`Writer::bytes`]).
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Consumes a byte buffer with bounds-checked little-endian reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                what,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a bool (rejecting anything but 0 or 1).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid(what)),
        }
    }

    /// Reads a sequence length and validates it against the remaining buffer:
    /// each element occupies at least `min_elem_bytes`, so a length the
    /// buffer cannot possibly hold is rejected *before* any allocation.
    pub fn length(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let len = self.u64(what)?;
        let budget = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > budget {
            return Err(CodecError::ImplausibleLength { what, len });
        }
        Ok(len as usize)
    }

    /// Reads a `u32` id and validates it against an exclusive upper bound.
    pub fn index(&mut self, what: &'static str, limit: usize) -> Result<u32, CodecError> {
        let v = self.u32(what)?;
        if (v as usize) < limit {
            Ok(v)
        } else {
            Err(CodecError::IndexOutOfRange {
                what,
                index: v as u64,
                limit: limit as u64,
            })
        }
    }

    /// Reads a length-prefixed byte slice written by [`Writer::bytes`],
    /// rejecting lengths above `max_len` (or beyond the remaining buffer)
    /// before touching any data.
    pub fn bytes(&mut self, what: &'static str, max_len: usize) -> Result<&'a [u8], CodecError> {
        let len = self.u32(what)? as usize;
        if len > max_len {
            return Err(CodecError::ImplausibleLength {
                what,
                len: len as u64,
            });
        }
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string written by [`Writer::str`];
    /// non-UTF-8 bytes are a decode error, never a panic.
    pub fn str(&mut self, what: &'static str, max_len: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes(what, max_len)?).map_err(|_| CodecError::Invalid(what))
    }

    /// Reads a length-prefixed sequence of context-free elements.
    pub fn seq<T: Decode>(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.length(what, min_elem_bytes)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

/// A type with a canonical little-endian wire form.
pub trait Encode {
    /// Appends the wire form of `self` to `w`.
    fn encode(&self, w: &mut Writer);
}

/// A type decodable from its [`Encode`] wire form without external context.
///
/// Types whose validation needs context (e.g. vertex ids checked against a
/// road network) expose standalone `decode_*` functions instead.
pub trait Decode: Sized {
    /// Reads one value, validating everything that can be validated without
    /// context.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.f64("f64")
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64("u64")
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.length(*self);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.u64("usize")? as usize)
    }
}

impl Encode for Point {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.x);
        w.f64(self.y);
    }
}

impl Decode for Point {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Point::new(r.f64("point.x")?, r.f64("point.y")?))
    }
}

impl Encode for RoadType {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.index() as u8);
    }
}

impl Decode for RoadType {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let idx = r.u8("road type")?;
        RoadType::from_index(idx as usize).ok_or(CodecError::IndexOutOfRange {
            what: "road type",
            index: idx as u64,
            limit: RoadType::COUNT as u64,
        })
    }
}

impl Encode for RoadTypeSet {
    fn encode(&self, w: &mut Writer) {
        // Re-encode through the member list so the wire form stays valid even
        // if the in-memory representation ever changes.
        let mut mask = 0u8;
        for rt in self.iter() {
            mask |= 1 << rt.index();
        }
        w.u8(mask);
    }
}

impl Decode for RoadTypeSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mask = r.u8("road type set")?;
        if mask >= 1 << RoadType::COUNT {
            return Err(CodecError::Invalid("road type set has unknown bits"));
        }
        Ok(RoadType::ALL
            .into_iter()
            .filter(|rt| mask & (1 << rt.index()) != 0)
            .collect())
    }
}

impl Encode for CostType {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.index() as u8);
    }
}

impl Decode for CostType {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let idx = r.u8("cost type")?;
        CostType::from_index(idx as usize).ok_or(CodecError::IndexOutOfRange {
            what: "cost type",
            index: idx as u64,
            limit: CostType::COUNT as u64,
        })
    }
}

impl Encode for EdgeWeights {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.distance_m);
        w.f64(self.travel_time_s);
        w.f64(self.fuel_ml);
    }
}

impl Decode for EdgeWeights {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let weights = EdgeWeights {
            distance_m: r.f64("edge distance")?,
            travel_time_s: r.f64("edge travel time")?,
            fuel_ml: r.f64("edge fuel")?,
        };
        // Mirror the builder's invariant (positive finite weights): no
        // decoded network may be one `RoadNetworkBuilder` could not produce,
        // or Dijkstra would silently return wrong or NaN distances.
        for cost in CostType::ALL {
            let v = weights.get(cost);
            if !(v.is_finite() && v > 0.0) {
                return Err(CodecError::Invalid(
                    "non-positive or non-finite edge weight",
                ));
            }
        }
        Ok(weights)
    }
}

impl Encode for Path {
    fn encode(&self, w: &mut Writer) {
        w.length(self.len());
        for v in self.vertices() {
            w.u32(v.0);
        }
    }
}

/// Decodes a path, validating every vertex id against `num_vertices`.
pub fn decode_path(r: &mut Reader<'_>, num_vertices: usize) -> Result<Path, CodecError> {
    let len = r.length("path length", 4)?;
    let mut vertices = Vec::with_capacity(len);
    for _ in 0..len {
        vertices.push(VertexId(r.index("path vertex", num_vertices)?));
    }
    Path::new(vertices).map_err(|_| CodecError::Invalid("empty path"))
}

/// Decodes a vertex id validated against `num_vertices`.
pub fn decode_vertex(r: &mut Reader<'_>, num_vertices: usize) -> Result<VertexId, CodecError> {
    Ok(VertexId(r.index("vertex id", num_vertices)?))
}

/// Wire size of one vertex record (two `f64` coordinates).
pub const VERTEX_WIRE_BYTES: usize = 16;

/// Wire size of one edge record (`from` + `to` + three weights + road type).
pub const EDGE_WIRE_BYTES: usize = 33;

impl Encode for RoadNetwork {
    fn encode(&self, w: &mut Writer) {
        // Vertex and edge ids equal their table index, so only the payload
        // fields travel; CSR adjacency and the bounding box are rebuilt on
        // decode by the exact code `RoadNetworkBuilder::build` runs.
        w.length(self.num_vertices());
        for v in self.vertices() {
            v.point.encode(w);
        }
        w.length(self.num_edges());
        for e in self.edges() {
            w.u32(e.from.0);
            w.u32(e.to.0);
            e.weights.encode(w);
            e.road_type.encode(w);
        }
    }
}

/// Records per decode chunk of a `len`-record table: four chunks per
/// [`l2r_par`] worker, but never fewer than 8,192 records, below which the
/// spawn overhead outweighs the decode work.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(l2r_par::max_threads().max(1) * 4).max(8_192)
}

/// Decodes a fixed-stride table of `table.len() / stride` records, fanning
/// contiguous chunks across [`l2r_par`] workers.  Each chunk starts as
/// `with_capacity(records)`, and `record(r, i, chunk)` decodes record `i`
/// from a reader positioned at its first byte into it.  Chunks come back in
/// order, so on malformed input the error of the lowest-indexed failing
/// record is reported, whatever the thread count or scheduling.
fn decode_chunks<C, N, F>(
    table: &[u8],
    stride: usize,
    with_capacity: N,
    record: F,
) -> Result<Vec<C>, CodecError>
where
    C: Send,
    N: Fn(usize) -> C + Sync,
    F: Fn(&mut Reader<'_>, usize, &mut C) -> Result<(), CodecError> + Sync,
{
    let len = table.len() / stride;
    let chunk = chunk_len(len);
    let starts: Vec<usize> = (0..len).step_by(chunk).collect();
    l2r_par::par_map(&starts, |_, &start| {
        let end = (start + chunk).min(len);
        let mut r = Reader::new(&table[start * stride..end * stride]);
        let mut out = with_capacity(end - start);
        for i in start..end {
            record(&mut r, i, &mut out)?;
        }
        Ok(out)
    })
    .into_iter()
    .collect()
}

/// Joins the per-chunk pieces of one column in order, releasing each piece
/// once it is copied.
fn concat<T: Copy>(len: usize, pieces: impl Iterator<Item = Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    for piece in pieces {
        out.extend_from_slice(&piece);
    }
    out
}

impl Decode for RoadNetwork {
    /// Vertex records are 16 bytes and edge records 33 bytes on the wire, so
    /// both tables decode in parallel chunks (see [`l2r_par`]).  Ids are
    /// positional, so the network does not depend on the chunking.  Edges
    /// decode into id-ordered columns joined one column at a time, so the
    /// edge table is never held twice.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // `length` bounds each count by the bytes left, so the whole table
        // is always there to take.
        let num_vertices = r.length("vertex count", VERTEX_WIRE_BYTES)?;
        let vertex_table = r.take(num_vertices * VERTEX_WIRE_BYTES, "vertex table")?;
        let num_edges = r.length("edge count", EDGE_WIRE_BYTES)?;
        let edge_table = r.take(num_edges * EDGE_WIRE_BYTES, "edge table")?;

        let vertices = decode_chunks(
            vertex_table,
            VERTEX_WIRE_BYTES,
            Vec::with_capacity,
            |r, i, out| {
                out.push(Vertex {
                    id: VertexId(i as u32),
                    point: Point::decode(r)?,
                });
                Ok(())
            },
        )?;
        let vertices = concat(num_vertices, vertices.into_iter());
        let mut chunks = decode_chunks(
            edge_table,
            EDGE_WIRE_BYTES,
            EdgeColumns::with_capacity,
            |r, _, out| {
                let from = decode_vertex(r, num_vertices)?;
                let to = decode_vertex(r, num_vertices)?;
                let weights = EdgeWeights::decode(r)?;
                let road_type = RoadType::decode(r)?;
                if from == to {
                    return Err(CodecError::Invalid("self-loop edge"));
                }
                out.push(from, to, weights, road_type);
                Ok(())
            },
        )?;
        let edges = EdgeColumns {
            from: concat(num_edges, chunks.iter_mut().map(|c| take(&mut c.from))),
            to: concat(num_edges, chunks.iter_mut().map(|c| take(&mut c.to))),
            cost: std::array::from_fn(|i| {
                concat(num_edges, chunks.iter_mut().map(|c| take(&mut c.cost[i])))
            }),
            road_type: concat(num_edges, chunks.iter_mut().map(|c| take(&mut c.road_type))),
        };
        Ok(RoadNetwork::from_parts(vertices, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    fn sample_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1000.0, 0.0));
        let v2 = b.add_vertex(Point::new(1000.0, 1000.0));
        b.add_two_way(v0, v1, RoadType::Primary).unwrap();
        b.add_two_way(v1, v2, RoadType::Residential).unwrap();
        b.add_edge(v0, v2, RoadType::Motorway).unwrap();
        b.build()
    }

    #[test]
    fn primitives_roundtrip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("e").unwrap().is_nan());
        assert!(r.bool("f").unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn strings_and_bytes_roundtrip_and_reject_bad_input() {
        let mut w = Writer::new();
        w.str("D1");
        w.bytes(&[1, 2, 3]);
        w.str("");
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str("name", 64).unwrap(), "D1");
        assert_eq!(r.bytes("blob", 64).unwrap(), &[1, 2, 3]);
        assert_eq!(r.str("empty", 64).unwrap(), "");
        assert!(r.is_exhausted());

        // Length above the caller's cap is rejected before any read.
        let mut w = Writer::new();
        w.str("a-rather-long-name");
        let bytes = w.into_vec();
        assert!(matches!(
            Reader::new(&bytes).str("name", 4),
            Err(CodecError::ImplausibleLength { .. })
        ));
        // Length beyond the buffer is an EOF error.
        let mut w = Writer::new();
        w.u32(100);
        let bytes = w.into_vec();
        assert!(matches!(
            Reader::new(&bytes).bytes("blob", 1024),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // Non-UTF-8 payload is invalid, not a panic.
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        assert!(matches!(
            Reader::new(&bytes).str("name", 16),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64("x"), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn implausible_sequence_lengths_are_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2); // a count no buffer can hold
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.length("huge", 4),
            Err(CodecError::ImplausibleLength { .. })
        ));
    }

    #[test]
    fn enums_and_sets_roundtrip_and_reject_bad_tags() {
        for rt in RoadType::ALL {
            let mut w = Writer::new();
            rt.encode(&mut w);
            let bytes = w.into_vec();
            assert_eq!(RoadType::decode(&mut Reader::new(&bytes)).unwrap(), rt);
        }
        for ct in CostType::ALL {
            let mut w = Writer::new();
            ct.encode(&mut w);
            let bytes = w.into_vec();
            assert_eq!(CostType::decode(&mut Reader::new(&bytes)).unwrap(), ct);
        }
        let set = RoadTypeSet::from_iter([RoadType::Motorway, RoadType::Tertiary]);
        let mut w = Writer::new();
        set.encode(&mut w);
        let bytes = w.into_vec();
        assert_eq!(RoadTypeSet::decode(&mut Reader::new(&bytes)).unwrap(), set);

        assert!(RoadType::decode(&mut Reader::new(&[99])).is_err());
        assert!(CostType::decode(&mut Reader::new(&[7])).is_err());
        assert!(RoadTypeSet::decode(&mut Reader::new(&[0b1100_0000])).is_err());
    }

    #[test]
    fn path_roundtrip_validates_vertices() {
        let p = Path::new(vec![VertexId(0), VertexId(3), VertexId(1)]).unwrap();
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_vec();
        assert_eq!(decode_path(&mut Reader::new(&bytes), 4).unwrap(), p);
        // The same bytes against a smaller vertex table must error.
        assert!(matches!(
            decode_path(&mut Reader::new(&bytes), 3),
            Err(CodecError::IndexOutOfRange { .. })
        ));
        // An empty path is rejected.
        let mut w = Writer::new();
        w.length(0);
        let bytes = w.into_vec();
        assert!(decode_path(&mut Reader::new(&bytes), 4).is_err());
    }

    #[test]
    fn road_network_roundtrips_bit_identically() {
        let net = sample_net();
        let mut w = Writer::new();
        net.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let decoded = RoadNetwork::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(decoded.num_vertices(), net.num_vertices());
        assert_eq!(decoded.num_edges(), net.num_edges());
        for (a, b) in net.vertices().iter().zip(decoded.vertices()) {
            assert_eq!(a, b);
        }
        for (a, b) in net.edges().zip(decoded.edges()) {
            assert_eq!(a, b);
        }
        // CSR rebuild gives identical adjacency and derived state.
        for v in 0..net.num_vertices() as u32 {
            let orig: Vec<_> = net.neighbors(VertexId(v)).collect();
            let dec: Vec<_> = decoded.neighbors(VertexId(v)).collect();
            assert_eq!(orig, dec);
        }
        assert_eq!(net.bounding_box(), decoded.bounding_box());
        // Re-encoding the decoded network reproduces the exact bytes.
        let mut w2 = Writer::new();
        decoded.encode(&mut w2);
        assert_eq!(w2.into_vec(), bytes);
    }

    /// Decodes `bytes` and checks the decoder's contract: an error, or a
    /// network that re-encodes to exactly the bytes it consumed — never a
    /// panic.  Returns whether the decode succeeded; `case` names the input
    /// in failure messages.
    fn assert_decode_is_total(bytes: &[u8], case: &str) -> bool {
        let outcome = std::panic::catch_unwind(|| {
            let mut r = Reader::new(bytes);
            RoadNetwork::decode(&mut r).map(|net| (net, bytes.len() - r.remaining()))
        });
        let Ok(decoded) = outcome else {
            panic!("{case}: decode panicked");
        };
        let Ok((net, consumed)) = decoded else {
            return false;
        };
        let mut w = Writer::new();
        net.encode(&mut w);
        assert!(
            w.as_slice() == &bytes[..consumed],
            "{case}: re-encoding differs from the {consumed} bytes consumed"
        );
        true
    }

    #[test]
    fn network_decode_is_total_across_chunk_splits() {
        // 12,100 vertices and ~48k directed edges: both tables span more
        // than one decode chunk.
        let mut b = RoadNetworkBuilder::new();
        let side = 110usize;
        for y in 0..side {
            for x in 0..side {
                b.add_vertex(Point::new(x as f64 * 90.0, y as f64 * 90.0));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let v = VertexId((y * side + x) as u32);
                if x + 1 < side {
                    b.add_two_way(v, VertexId((y * side + x + 1) as u32), RoadType::Tertiary)
                        .unwrap();
                }
                if y + 1 < side {
                    b.add_two_way(v, VertexId(((y + 1) * side + x) as u32), RoadType::Primary)
                        .unwrap();
                }
            }
        }
        let net = b.build();
        let (nv, ne) = (net.num_vertices(), net.num_edges());
        assert!(
            nv > chunk_len(nv) && ne > chunk_len(ne),
            "tables must split"
        );
        let mut w = Writer::new();
        net.encode(&mut w);
        let network_len = w.len();
        w.u64(0xFEED_FACE); // trailing data the decoder must not consume
        let bytes = w.into_vec();

        // The intact buffer decodes, stops before the trailer and
        // reproduces the original network.
        let mut r = Reader::new(&bytes);
        let decoded = RoadNetwork::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.u64("trailer").unwrap(), 0xFEED_FACE);
        assert_eq!(decoded.vertices(), net.vertices());
        assert!(decoded.edges().eq(net.edges()));
        assert!(assert_decode_is_total(&bytes, "intact"));

        // A truncation decodes iff it keeps the whole network.
        let check_cut = |cut: usize| {
            let ok = assert_decode_is_total(&bytes[..cut], &format!("cut at {cut}"));
            assert_eq!(ok, cut >= network_len, "cut at {cut}");
        };

        // Truncations at every record boundary ±1 near the table edges and
        // the chunk splits.
        let edge_table = 8 + nv * VERTEX_WIRE_BYTES + 8;
        let mut boundaries = vec![0, 8, edge_table - 8, network_len, bytes.len()];
        for (table, len, stride) in [
            (8, nv, VERTEX_WIRE_BYTES),
            (edge_table, ne, EDGE_WIRE_BYTES),
        ] {
            for split in (0..=len).step_by(chunk_len(len)).chain([len]) {
                for record in split.saturating_sub(2)..=(split + 2).min(len) {
                    boundaries.push(table + record * stride);
                }
            }
        }
        for boundary in boundaries {
            for cut in boundary.saturating_sub(1)..=(boundary + 1).min(bytes.len()) {
                check_cut(cut);
            }
        }

        // Seeded cut points and single-byte flips anywhere in the buffer.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            check_cut((next() % (bytes.len() as u64 + 1)) as usize);
        }
        let mut flipped = bytes.clone();
        for _ in 0..2_000 {
            let at = (next() % bytes.len() as u64) as usize;
            let mask = (next() % 255 + 1) as u8;
            flipped[at] ^= mask;
            assert_decode_is_total(&flipped, &format!("byte {at} ^ {mask:#04x}"));
            flipped[at] ^= mask;
        }
    }

    #[test]
    fn parallel_network_decode_rejects_malformed_input() {
        let net = sample_net();
        let mut w = Writer::new();
        net.encode(&mut w);
        let bytes = w.into_vec();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                RoadNetwork::decode(&mut Reader::new(&bytes[..cut])).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn wire_stride_constants_match_the_encoder() {
        let net = sample_net();
        let mut w = Writer::new();
        net.encode(&mut w);
        // 8-byte vertex count + vertices + 8-byte edge count + edges.
        assert_eq!(
            w.len(),
            16 + net.num_vertices() * VERTEX_WIRE_BYTES + net.num_edges() * EDGE_WIRE_BYTES
        );
    }

    #[test]
    fn road_network_rejects_out_of_range_edge_endpoints() {
        // Handcrafted payload documenting the wire format: 2 vertices, then
        // 1 edge whose tail points at vertex 5.
        let mut w = Writer::new();
        w.length(2);
        Point::new(0.0, 0.0).encode(&mut w);
        Point::new(10.0, 0.0).encode(&mut w);
        w.length(1);
        w.u32(5); // from: out of range
        w.u32(1);
        EdgeWeights::derive(10.0, RoadType::Primary).encode(&mut w);
        RoadType::Primary.encode(&mut w);
        let bytes = w.into_vec();
        assert!(matches!(
            RoadNetwork::decode(&mut Reader::new(&bytes)),
            Err(CodecError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn road_network_rejects_non_positive_or_non_finite_weights() {
        for bad_distance in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            let mut w = Writer::new();
            w.length(2);
            Point::new(0.0, 0.0).encode(&mut w);
            Point::new(10.0, 0.0).encode(&mut w);
            w.length(1);
            w.u32(0);
            w.u32(1);
            // The builder forbids these weights; decode must too.
            w.f64(bad_distance);
            w.f64(1.0);
            w.f64(1.0);
            RoadType::Primary.encode(&mut w);
            let bytes = w.into_vec();
            assert!(
                matches!(
                    RoadNetwork::decode(&mut Reader::new(&bytes)),
                    Err(CodecError::Invalid(_))
                ),
                "distance {bad_distance} must be rejected"
            );
        }
    }

    #[test]
    fn road_network_rejects_self_loops() {
        let mut w = Writer::new();
        w.length(2);
        Point::new(0.0, 0.0).encode(&mut w);
        Point::new(10.0, 0.0).encode(&mut w);
        w.length(1);
        w.u32(1);
        w.u32(1); // self-loop
        EdgeWeights::derive(10.0, RoadType::Primary).encode(&mut w);
        RoadType::Primary.encode(&mut w);
        let bytes = w.into_vec();
        assert!(matches!(
            RoadNetwork::decode(&mut Reader::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn empty_network_roundtrips() {
        let net = RoadNetworkBuilder::new().build();
        let mut w = Writer::new();
        net.encode(&mut w);
        let bytes = w.into_vec();
        let decoded = RoadNetwork::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded.num_vertices(), 0);
        assert_eq!(decoded.num_edges(), 0);
    }
}
