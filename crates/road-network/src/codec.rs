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
//!
//! Stored paths travel as *walks* over the network's CSR ([`encode_walk`],
//! [`decode_walk`]): a LEB128 vertex count, then one LEB128 out-edge rank
//! per hop, so a hop costs one byte instead of a four-byte vertex id, and
//! a decoded walk is drivable by construction.
//!
//! The module also owns the workspace's one CRC-32 ([`Crc32`], [`crc32`]):
//! snapshot payloads, the model store's `MANIFEST` entries and the serve
//! crate's wire frames all checksum through it.  It is the IEEE 802.3
//! reflected CRC (check value `crc32(b"123456789") == 0xCBF4_3926`) with
//! two kernels behind one API: on x86-64 CPUs that report `pclmulqdq` and
//! `sse4.1` at run time, inputs of 128 bytes or more fold through a
//! carry-less-multiply kernel (Gopal et al.'s fold-by-4 with a Barrett
//! reduction); everything else — shorter inputs, the kernel's sub-16-byte
//! tail, other CPUs and targets — goes through slicing-by-16 tables in
//! portable Rust.  Both compute the same function, so the choice never
//! shows in a checksum.

use std::sync::OnceLock;

use crate::graph::{chunk_len, EdgeColumns, RoadNetwork, Vertex, VertexId};
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

/// The slicing-by-16 tables of the reflected CRC-32 (IEEE 802.3), built once
/// per process: `tables[0]` is the classic byte table, and `tables[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so one step folds 16
/// input bytes with 16 independent lookups.
fn crc32_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 16];
        for (b, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..16 {
            for b in 0..256 {
                let prev = tables[k - 1][b];
                tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// Shortest input [`Crc32::update`] sends through the carry-less-multiply
/// kernel: two fold-by-4 strides, so the kernel's fixed set-up and final
/// reduction are paid over at least 128 bytes.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// Slicing-by-16 update of a raw CRC register (pre- and post-inversion
/// are [`Crc32`]'s job): 16 bytes at a time through the tables, the tail
/// one byte at a time through table 0.  The only path on CPUs without the
/// carry-less-multiply kernel, for inputs under 128 bytes, and for the
/// sub-16-byte tail the kernel leaves.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = crc32_tables();
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply CRC-32 kernel for x86-64 CPUs with `pclmulqdq`
/// and `sse4.1`, after Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in its
/// bit-reflected form: four 128-bit lanes fold 64 bytes per step, the
/// lanes fold into one, the remaining 16-byte blocks fold into that, and
/// the 128-bit remainder is reduced to 64 bits and then, by a Barrett
/// reduction, to the 32-bit register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold constants, reflected, for the IEEE polynomial: k1/k2 carry a
    /// lane 64 bytes ahead, k3/k4 carry a value 16 bytes ahead, and k5
    /// folds 64 bits into 32.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P′: the reflected polynomial including its x³² term.
    const P: i64 = 0x1_DB71_0641;
    /// μ = ⌊x⁶⁴ / P(x)⌋, reflected: the Barrett reduction's quotient.
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU runs [`fold`] (checked at run time; the standard
    /// library caches the answer).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Folds every whole 16-byte block of `data` into the raw register
    /// `crc` and returns the new register with the unprocessed tail (under
    /// 16 bytes).  `data` must hold at least four blocks.
    ///
    /// # Safety
    ///
    /// Callers must have seen [`detected`] return `true`: the fn is
    /// compiled for `pclmulqdq` and `sse4.1`, and running it on a CPU
    /// without them is undefined behaviour.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let (strides, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for stride in strides {
            for (lane, block) in lanes.iter_mut().zip(stride) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(lanes[0], lanes[1], k3k4);
        x = fold_into(x, lanes[2], k3k4);
        x = fold_into(x, lanes[3], k3k4);
        for block in singles {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 → 64 bits: the low half times k4 plus the high half, then
        // the low 32 bits times k5 plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 → 32 bits: T1 = (R mod x³²)·μ,
        // T2 = (T1 mod x³²)·P′, and the register is the upper half of the
        // low 64 bits of R ⊕ T2.
        let mu_p = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), mu_p, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (crc, tail)
    }

    /// Carries `acc` forward by the distance `keys` encodes (64 bytes for
    /// k1/k2, 16 for k3/k4): its low half times the low key, its high half
    /// times the high key, both added to the `next` block.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a `&[u8; 16]`, so its length is checked by
        // the type (`as_chunks::<16>` built it): the 16 bytes the load
        // reads are in bounds and initialised.  `_mm_loadu_si128` has no
        // alignment requirement, and `sse2` is part of the x86-64 baseline;
        // this fn is reached only from `fold`, which runs after `detected`
        // reported `pclmulqdq` and `sse4.1`.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// Streaming CRC-32 (IEEE 802.3, reflected) — the one checksum behind
/// snapshot payloads, the model store's `MANIFEST` entries and the serve
/// crate's wire frames.  Two kernels compute the same function: on x86-64
/// CPUs with `pclmulqdq` and `sse4.1` (detected at run time), every
/// [`Crc32::update`] of 128 bytes or more folds its whole 16-byte blocks
/// with carry-less multiplies; every other input, and the sub-16-byte tail
/// of those, goes through the slicing-by-16 tables.  Splitting the input
/// across [`Crc32::update`] calls never changes the result.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds bytes into the checksum: through the carry-less-multiply
    /// kernel when the input is long enough and the CPU has it (see
    /// [`Crc32`]), through the slicing-by-16 tables otherwise.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= CLMUL_MIN_LEN && clmul::detected() {
            // SAFETY: `clmul::detected` has just reported that this CPU
            // has `pclmulqdq` and `sse4.1`, the features `clmul::fold` is
            // compiled for.  (The length check above gives `fold` the four
            // 16-byte blocks it needs; each load inside reads one
            // `&[u8; 16]`, so no read can leave `data`.)
            let (crc, tail) = unsafe { clmul::fold(self.0, data) };
            self.0 = update_sliced(crc, tail);
            return;
        }
        self.0 = update_sliced(self.0, data);
    }

    /// Finalises the checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC-32 (IEEE 802.3) of `data`; equal to streaming it through
/// [`Crc32`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

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

    /// Writes a `u32` as unsigned LEB128: seven bits per byte, least
    /// significant first, the top bit set on every byte but the last.
    pub fn leb128(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
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

    /// Reads an unsigned LEB128 `u32` written by [`Writer::leb128`].  An
    /// encoding longer than needed (a last byte of zero after the first) or
    /// wider than 32 bits is an error, so every value has exactly one
    /// encoding.
    pub fn leb128(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let mut value = 0u32;
        for shift in [0, 7, 14, 21, 28] {
            let byte = self.u8(what)?;
            if shift == 28 && byte > 0x0F {
                break;
            }
            value |= ((byte & 0x7F) as u32) << shift;
            if byte < 0x80 {
                if byte == 0 && shift > 0 {
                    return Err(CodecError::Invalid("overlong LEB128 encoding"));
                }
                return Ok(value);
            }
        }
        Err(CodecError::Invalid("LEB128 value wider than 32 bits"))
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

/// Writes `vertices` as a *walk* over `net`'s CSR: the LEB128 vertex
/// count, then for each hop `a → b` the LEB128 *out-edge rank* of `b`, the
/// first position in `a`'s out-edge group (sorted by head) whose head is
/// `b`.  Parallel edges therefore encode, and decode, as the same vertices.
/// The start vertex is not written: the reader supplies it (see
/// [`decode_walk`]).  An empty slice writes a count of 0.
///
/// # Panics
///
/// Panics if a hop is not an edge of `net`; the paths a model stores are
/// drivable by construction.
pub fn encode_walk(w: &mut Writer, net: &RoadNetwork, vertices: &[VertexId]) {
    w.leb128(vertices.len() as u32);
    for hop in vertices.windows(2) {
        let rank = net.heads(hop[0]).iter().position(|&h| h == hop[1]);
        w.leb128(rank.expect("every hop of a stored walk is an edge") as u32);
    }
}

/// Writes each of `walks` as [`encode_walk`] does, in order.  Every hop
/// costs a scan of the out-edge group of a vertex anywhere in the network,
/// so a long list is encoded in chunks across [`l2r_par`] workers and the
/// pieces are appended in order: the bytes do not depend on the thread
/// count.
///
/// # Panics
///
/// Panics if a hop is not an edge of `net`.
pub fn encode_walks(w: &mut Writer, net: &RoadNetwork, walks: &[&[VertexId]]) {
    let chunk = chunk_len(walks.len());
    let chunks: Vec<&[&[VertexId]]> = walks.chunks(chunk).collect();
    let pieces = l2r_par::par_map(&chunks, |_, chunk| {
        let mut piece = Writer::new();
        for walk in *chunk {
            encode_walk(&mut piece, net, walk);
        }
        piece.buf
    });
    for piece in pieces {
        w.buf.extend_from_slice(&piece);
    }
}

/// Reads a walk written by [`encode_walk`] that starts at `start`, appends
/// its vertices to `out` (none for a count of 0) and returns the vertex
/// count.  Each hop steps from `v` to the head at position `rank` of `v`'s
/// out-edge group, and a rank at or beyond `v`'s out-degree is an error, so
/// every decoded walk is drivable by construction.  A rank that is not the
/// first position of its head is an error too, so a walk has exactly one
/// encoding.
pub fn decode_walk(
    r: &mut Reader<'_>,
    net: &RoadNetwork,
    start: VertexId,
    out: &mut Vec<VertexId>,
) -> Result<usize, CodecError> {
    let count = r.leb128("walk vertex count")? as usize;
    if count == 0 {
        return Ok(0);
    }
    if start.idx() >= net.num_vertices() {
        return Err(CodecError::IndexOutOfRange {
            what: "walk start vertex",
            index: start.0 as u64,
            limit: net.num_vertices() as u64,
        });
    }
    // Every hop takes at least one byte.
    if count - 1 > r.remaining() {
        return Err(CodecError::ImplausibleLength {
            what: "walk vertex count",
            len: count as u64,
        });
    }
    out.reserve(count);
    out.push(start);
    let mut v = start;
    for _ in 1..count {
        let rank = r.leb128("walk rank")? as usize;
        let heads = net.heads(v);
        let Some(&next) = heads.get(rank) else {
            return Err(CodecError::Invalid(
                "undrivable walk: rank beyond the out-degree",
            ));
        };
        if rank > 0 && heads[rank - 1] == next {
            return Err(CodecError::Invalid(
                "walk rank is not the first edge to its head",
            ));
        }
        out.push(next);
        v = next;
    }
    Ok(count)
}

/// Decodes a vertex id validated against `num_vertices`.
pub fn decode_vertex(r: &mut Reader<'_>, num_vertices: usize) -> Result<VertexId, CodecError> {
    Ok(VertexId(r.index("vertex id", num_vertices)?))
}

/// Wire size of one vertex record: two `f64` coordinates and the vertex's
/// out-degree (`u32`).
pub const VERTEX_WIRE_BYTES: usize = 20;

/// Wire size of one edge record: the head (`u32`), the distance in metres
/// (`f64`) and the road-type tag (`u8`).  Records travel in id order, which
/// is CSR order, so the out-degrees before a record imply its tail.  Travel
/// time and fuel are not stored; decoding derives them as the builder does.
pub const EDGE_WIRE_BYTES: usize = 13;

impl Encode for RoadNetwork {
    /// Writes the vertex count, then each vertex's position and out-degree,
    /// then the edge count and one [`EDGE_WIRE_BYTES`] record per edge in id
    /// order: `16 + 20·n + 13·m` bytes.  Edge ids are CSR positions, so the
    /// degrees fix every edge's tail and id, and of an edge's weights only
    /// the distance travels: travel time and fuel are functions of the
    /// distance and road type ([`EdgeWeights::derive`]).  The bounding box
    /// is rebuilt on decode.
    fn encode(&self, w: &mut Writer) {
        w.buf.reserve(
            16 + self.num_vertices() * VERTEX_WIRE_BYTES + self.num_edges() * EDGE_WIRE_BYTES,
        );
        w.length(self.num_vertices());
        for v in self.vertices() {
            v.point.encode(w);
            w.u32(self.out_degree(v.id) as u32);
        }
        w.length(self.num_edges());
        for e in self.edges() {
            w.u32(e.to.0);
            w.f64(e.weights.distance_m);
            e.road_type.encode(w);
        }
    }
}

/// The `N`-byte field at offset `at` of a wire record.
fn field<const N: usize>(record: &[u8], at: usize) -> [u8; N] {
    record[at..at + N].try_into().expect("an N-byte field")
}

impl Decode for RoadNetwork {
    /// Decodes straight into the serving layout, each table in parallel
    /// chunks (see [`l2r_par`]) written in place:
    ///
    /// * the vertex records give the positions, and a serial prefix sum over
    ///   their out-degrees gives the CSR offsets; a running sum above the
    ///   edge count, or a total other than it, is an error;
    /// * one pass over the edge records checks each on the builder's own
    ///   rules — head in range, no self-loop, a known road-type tag, and
    ///   travel time and fuel derived from the distance
    ///   ([`EdgeWeights::derive`]) that pass [`EdgeWeights::invalid_cost`] —
    ///   and that its head is not below the previous head of its tail group
    ///   (read from the wire at a chunk start), then writes the edge to its
    ///   position.
    ///
    /// An accepted section is therefore one `RoadNetworkBuilder::build`
    /// could produce, and every network has exactly one encoding.  On
    /// malformed input the lowest-indexed failing record is reported, so the
    /// error does not depend on the thread count.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // `length` bounds each count by the bytes left, so the whole table
        // is always there to take.
        let num_vertices = r.length("vertex count", VERTEX_WIRE_BYTES)?;
        let vertex_table = r.take(num_vertices * VERTEX_WIRE_BYTES, "vertex table")?;
        let num_edges = r.length("edge count", EDGE_WIRE_BYTES)?;
        let edge_table = r.take(num_edges * EDGE_WIRE_BYTES, "edge table")?;

        let origin = Vertex {
            id: VertexId(0),
            point: Point::new(0.0, 0.0),
        };
        let mut vertices = vec![origin; num_vertices];
        // Each vertex's degree lands in the slot after its own, where the
        // prefix sum below turns it into the end of its group.
        let mut out_offsets = vec![0u32; num_vertices + 1];
        let chunk = chunk_len(num_vertices);
        let mut parts: Vec<_> = vertices
            .chunks_mut(chunk)
            .zip(out_offsets[1..].chunks_mut(chunk))
            .collect();
        l2r_par::par_map_mut(&mut parts, |k, (vertices, degrees)| {
            let first = k * chunk;
            let (records, _) =
                vertex_table[first * VERTEX_WIRE_BYTES..].as_chunks::<VERTEX_WIRE_BYTES>();
            for (i, ((v, degree), record)) in vertices
                .iter_mut()
                .zip(degrees.iter_mut())
                .zip(records)
                .enumerate()
            {
                v.id = VertexId((first + i) as u32);
                v.point = Point::new(
                    f64::from_le_bytes(field(record, 0)),
                    f64::from_le_bytes(field(record, 8)),
                );
                *degree = u32::from_le_bytes(field(record, 16));
            }
        });
        let mut sum = 0u64;
        for offset in &mut out_offsets[1..] {
            sum += u64::from(*offset);
            if sum > num_edges as u64 {
                return Err(CodecError::Invalid("out-degrees sum past the edge count"));
            }
            *offset = sum as u32;
        }
        if sum != num_edges as u64 {
            return Err(CodecError::Invalid(
                "out-degrees sum short of the edge count",
            ));
        }

        let head_at = |pos: usize| u32::from_le_bytes(field(edge_table, pos * EDGE_WIRE_BYTES));
        let columns = EdgeColumns::fill(num_edges, |first, chunk| {
            let (records, _) = edge_table[first * EDGE_WIRE_BYTES..].as_chunks::<EDGE_WIRE_BYTES>();
            // The tail group holding `first`: the last vertex whose group
            // starts at or before it (the degree sum is `num_edges`, so one
            // does).
            let mut tail = out_offsets.partition_point(|&o| o as usize <= first) - 1;
            for (j, record) in records[..chunk.len()].iter().enumerate() {
                let pos = first + j;
                while out_offsets[tail + 1] as usize <= pos {
                    tail += 1;
                }
                let head = u32::from_le_bytes(field(record, 0));
                if head as usize >= num_vertices {
                    return Err(CodecError::IndexOutOfRange {
                        what: "edge head",
                        index: u64::from(head),
                        limit: num_vertices as u64,
                    });
                }
                if head as usize == tail {
                    return Err(CodecError::Invalid("self-loop edge"));
                }
                if pos > out_offsets[tail] as usize && head < head_at(pos - 1) {
                    return Err(CodecError::Invalid(
                        "edge heads out of order within a tail group",
                    ));
                }
                let tag = record[12];
                let road_type =
                    RoadType::from_index(tag as usize).ok_or(CodecError::IndexOutOfRange {
                        what: "road type",
                        index: u64::from(tag),
                        limit: RoadType::COUNT as u64,
                    })?;
                let weights = EdgeWeights::derive(f64::from_le_bytes(field(record, 4)), road_type);
                if weights.invalid_cost().is_some() {
                    return Err(CodecError::Invalid(
                        "non-positive or non-finite edge weight",
                    ));
                }
                chunk.put(j, VertexId(tail as u32), VertexId(head), weights, road_type);
            }
            Ok(())
        })?;
        Ok(RoadNetwork::from_csr(vertices, out_offsets, columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeId, RoadNetworkBuilder};

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
    fn leb128_roundtrips_and_rejects_non_canonical_input() {
        let values = [0, 1, 127, 128, 300, 16_383, 16_384, 1 << 28, u32::MAX];
        let mut w = Writer::new();
        for v in values {
            w.leb128(v);
        }
        let bytes = w.into_vec();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 2 + 2 + 2 + 3 + 5 + 5);
        let mut r = Reader::new(&bytes);
        for v in values {
            assert_eq!(r.leb128("v").unwrap(), v);
        }
        assert!(r.is_exhausted());
        for (bad, truncated) in [
            (&[0x80u8, 0x00][..], false),                 // overlong zero
            (&[0xFF, 0x80, 0x00][..], false),             // overlong 127
            (&[0xFF, 0xFF, 0xFF, 0xFF, 0x10][..], false), // 33 bits
            (&[0x80, 0x80, 0x80, 0x80, 0x80][..], false), // a sixth byte
            (&[0x80][..], true),
            (&[][..], true),
        ] {
            let err = Reader::new(bad).leb128("v").unwrap_err();
            assert_eq!(
                matches!(err, CodecError::UnexpectedEof { .. }),
                truncated,
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn path_roundtrip_validates_vertices() {
        // 0 ⇄ 1 ⇄ 2 and 0 → 2: the walk 0 → 1 → 2 → 1 round-trips from its
        // start vertex, and so does an empty walk.
        let net = sample_net();
        let walk = [VertexId(0), VertexId(1), VertexId(2), VertexId(1)];
        let mut w = Writer::new();
        encode_walk(&mut w, &net, &walk);
        encode_walk(&mut w, &net, &[]);
        let bytes = w.into_vec();
        assert_eq!(bytes.len(), 1 + 3 + 1, "one byte per count and rank");
        let mut r = Reader::new(&bytes);
        let mut out = Vec::new();
        assert_eq!(decode_walk(&mut r, &net, VertexId(0), &mut out).unwrap(), 4);
        assert_eq!(decode_walk(&mut r, &net, VertexId(2), &mut out).unwrap(), 0);
        assert!(r.is_exhausted());
        assert_eq!(out, walk);

        // A rank equal to the out-degree names no edge.
        let mut w = Writer::new();
        w.leb128(2);
        w.leb128(net.out_degree(VertexId(0)) as u32);
        assert!(matches!(
            decode_walk(&mut Reader::new(w.as_slice()), &net, VertexId(0), &mut out),
            Err(CodecError::Invalid(msg)) if msg.contains("undrivable")
        ));
        // A start vertex beyond the network, and a count no buffer holds.
        let mut w = Writer::new();
        w.leb128(1);
        assert!(matches!(
            decode_walk(&mut Reader::new(w.as_slice()), &net, VertexId(3), &mut out),
            Err(CodecError::IndexOutOfRange { .. })
        ));
        let mut w = Writer::new();
        w.leb128(1000);
        assert!(matches!(
            decode_walk(&mut Reader::new(w.as_slice()), &net, VertexId(0), &mut out),
            Err(CodecError::ImplausibleLength { .. })
        ));
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

        // At every chunk start inside a tail group, a head lowered below its
        // predecessor's, which that chunk reads from the wire, is rejected.
        let mut checked = 0;
        for pos in (chunk_len(ne)..ne).step_by(chunk_len(ne)) {
            let (previous, e) = (
                net.edge(EdgeId(pos as u32 - 1)),
                net.edge(EdgeId(pos as u32)),
            );
            let lower = (0..previous.to.0).find(|&h| h != e.from.0);
            let (true, Some(lower)) = (previous.from == e.from, lower) else {
                continue;
            };
            let mut crafted = bytes.clone();
            let at = edge_table + pos * EDGE_WIRE_BYTES;
            crafted[at..at + 4].copy_from_slice(&lower.to_le_bytes());
            assert_eq!(
                RoadNetwork::decode(&mut Reader::new(&crafted)).unwrap_err(),
                CodecError::Invalid("edge heads out of order within a tail group"),
                "chunk start {pos}"
            );
            checked += 1;
        }
        assert!(checked > 0, "a chunk starts inside a tail group");
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

    /// Hand-writes a network section, documenting the wire format: the
    /// vertex count, each vertex's position (`i × 10 m` along the x axis)
    /// and out-degree, the edge count, and each edge's head, distance and
    /// road-type tag, in id order.
    fn section(degrees: &[u32], edges: &[(u32, f64, u8)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.length(degrees.len());
        for (i, &degree) in degrees.iter().enumerate() {
            Point::new(i as f64 * 10.0, 0.0).encode(&mut w);
            w.u32(degree);
        }
        w.length(edges.len());
        for &(head, distance_m, tag) in edges {
            w.u32(head);
            w.f64(distance_m);
            w.u8(tag);
        }
        assert_eq!(
            w.len(),
            16 + degrees.len() * VERTEX_WIRE_BYTES + edges.len() * EDGE_WIRE_BYTES
        );
        w.into_vec()
    }

    /// The wire tag of the road type of most hand-written edges.
    fn primary() -> u8 {
        RoadType::Primary.index() as u8
    }

    #[test]
    fn road_network_rejects_out_of_range_edge_endpoints() {
        // 2 vertices; vertex 0's one edge points at vertex 5.
        let bytes = section(&[1, 0], &[(5, 10.0, primary())]);
        assert_eq!(
            RoadNetwork::decode(&mut Reader::new(&bytes)).unwrap_err(),
            CodecError::IndexOutOfRange {
                what: "edge head",
                index: 5,
                limit: 2
            }
        );
    }

    #[test]
    fn road_network_rejects_non_positive_or_non_finite_weights() {
        for bad_distance in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            // The builder forbids these distances; decode must too.
            let bytes = section(&[1, 0], &[(1, bad_distance, primary())]);
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
        let bytes = section(&[0, 1], &[(1, 10.0, primary())]);
        assert_eq!(
            RoadNetwork::decode(&mut Reader::new(&bytes)).unwrap_err(),
            CodecError::Invalid("self-loop edge")
        );
    }

    /// Every layout `build` could not produce is a typed error: degrees
    /// that do not sum to the edge count, heads out of order within a tail
    /// group, and unknown road-type tags.  The lowest-indexed failing
    /// record is the one reported.
    #[test]
    fn road_network_rejects_layouts_the_builder_cannot_produce() {
        let decode = |degrees: &[u32], edges: &[(u32, f64, u8)]| {
            RoadNetwork::decode(&mut Reader::new(&section(degrees, edges)))
        };
        let edges = [
            (1, 10.0, primary()),
            (2, 10.0, primary()),
            (0, 10.0, primary()),
        ];
        assert!(decode(&[2, 1, 0], &edges).is_ok());
        assert_eq!(
            decode(&[2, 0, 0], &edges).unwrap_err(),
            CodecError::Invalid("out-degrees sum short of the edge count")
        );
        assert_eq!(
            decode(&[2, 1, 1], &edges).unwrap_err(),
            CodecError::Invalid("out-degrees sum past the edge count")
        );
        // A degree beyond `u32` sums cannot wrap around to the edge count.
        assert_eq!(
            decode(&[u32::MAX, 1, 3], &edges).unwrap_err(),
            CodecError::Invalid("out-degrees sum past the edge count")
        );
        let swapped = [
            (2, 10.0, primary()),
            (1, 10.0, primary()),
            (0, 10.0, primary()),
        ];
        assert_eq!(
            decode(&[2, 1, 0], &swapped).unwrap_err(),
            CodecError::Invalid("edge heads out of order within a tail group")
        );
        // Equal heads are parallel edges, and a new group starts afresh.
        let parallel = [
            (1, 10.0, primary()),
            (1, 20.0, primary()),
            (0, 10.0, primary()),
        ];
        assert!(decode(&[2, 1, 0], &parallel).is_ok());
        let bad_tag = [
            (1, 10.0, primary()),
            (2, 10.0, RoadType::COUNT as u8),
            (9, 1.0, 0),
        ];
        assert_eq!(
            decode(&[2, 1, 0], &bad_tag).unwrap_err(),
            CodecError::IndexOutOfRange {
                what: "road type",
                index: RoadType::COUNT as u64,
                limit: RoadType::COUNT as u64
            }
        );
    }

    /// The builder and the decoder apply one rule to the derived weights:
    /// a finite positive distance whose fuel overflows or whose travel time
    /// underflows is refused by both, and the extreme distances whose three
    /// weights stay positive and finite are accepted by both.
    #[test]
    fn builder_and_decoder_accept_the_same_edges() {
        let edge_bytes = |distance_m: f64, road_type: RoadType| {
            section(&[1, 0], &[(1, distance_m, road_type.index() as u8)])
        };
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(10.0, 0.0));
        for (distance_m, cost) in [(1e308, CostType::Fuel), (5e-324, CostType::TravelTime)] {
            let rt = RoadType::Motorway;
            assert!(
                matches!(
                    b.add_edge_with_distance(v0, v1, distance_m, rt),
                    Err(crate::NetworkError::InvalidWeight(name, _)) if name == cost.short_name()
                ),
                "builder must refuse {distance_m} on {rt:?}"
            );
            assert!(
                matches!(
                    RoadNetwork::decode(&mut Reader::new(&edge_bytes(distance_m, rt))),
                    Err(CodecError::Invalid(_))
                ),
                "decoder must refuse {distance_m} on {rt:?}"
            );
        }
        assert_eq!(b.num_edges(), 0, "a refused edge is not added");
        for (distance_m, rt) in [(1e-320, RoadType::Residential), (2e307, RoadType::Motorway)] {
            let mut b = RoadNetworkBuilder::new();
            let v0 = b.add_vertex(Point::new(0.0, 0.0));
            let v1 = b.add_vertex(Point::new(10.0, 0.0));
            b.add_edge_with_distance(v0, v1, distance_m, rt).unwrap();
            let net = b.build();
            let mut w = Writer::new();
            net.encode(&mut w);
            assert_eq!(w.as_slice(), edge_bytes(distance_m, rt));
            let decoded = RoadNetwork::decode(&mut Reader::new(w.as_slice())).unwrap();
            let (built, got) = (net.edge(EdgeId(0)), decoded.edge(EdgeId(0)));
            for cost in CostType::ALL {
                assert_eq!(got.cost(cost).to_bits(), built.cost(cost).to_bits());
            }
            assert_eq!(got, built);
        }
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

    /// Bit-at-a-time CRC-32 (IEEE 802.3, reflected): the independent
    /// reference the sliced tables are checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Seeded bytes (splitmix64), so every run checks the same buffer.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..len).map(|_| next() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
    }

    /// The table path alone, as a whole checksum: what every input takes
    /// on a CPU without the carry-less-multiply kernel.
    fn crc32_sliced(data: &[u8]) -> u32 {
        update_sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Every length 0..=512 at every start 0..16 crosses the kernel's
    /// 128-byte entry point, each 64-byte fold step and each 16-byte tail
    /// residue; both the dispatching `crc32` and the table path alone must
    /// match the bitwise reference.
    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        let buf = seeded_bytes(20, 16 + 512);
        for start in 0..16 {
            for len in 0..=512 {
                let data = &buf[start..start + len];
                let expected = crc32_bitwise(data);
                assert_eq!(crc32(data), expected, "start {start}, len {len}");
                assert_eq!(
                    crc32_sliced(data),
                    expected,
                    "tables, start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_on_one_mebibyte() {
        let buf = seeded_bytes(0x0C0D_EC32, 1 << 20);
        let expected = crc32_bitwise(&buf);
        assert_eq!(crc32(&buf), expected);
        assert_eq!(crc32_sliced(&buf), expected);
    }

    /// Splits around the kernel's 128-byte entry point and one byte either
    /// side of every 16-byte boundary hand the register from the tables to
    /// the kernel and back, in both orders.
    #[test]
    fn crc32_streaming_across_the_kernel_boundary_equals_one_shot() {
        let buf = seeded_bytes(9, 1024 + 7);
        let whole = crc32_bitwise(&buf);
        let mut cuts = vec![127, 128, 129];
        cuts.extend((1..buf.len() / 16).flat_map(|k| [16 * k - 1, 16 * k + 1]));
        for &cut in &cuts {
            let mut crc = Crc32::new();
            crc.update(&buf[..cut]);
            crc.update(&buf[cut..]);
            assert_eq!(crc.finish(), whole, "cut at {cut}");
            // A short piece between two long ones: kernel → tables → kernel.
            let mut crc = Crc32::new();
            let mid = (cut + 3).min(buf.len());
            crc.update(&buf[..cut]);
            crc.update(&buf[cut..mid]);
            crc.update(&buf[mid..]);
            assert_eq!(crc.finish(), whole, "cuts at {cut} and {mid}");
        }
    }

    #[test]
    fn crc32_streaming_splits_equal_one_shot() {
        let buf = seeded_bytes(7, 4096 + 13);
        let whole = crc32(&buf);
        let cuts = seeded_bytes(8, 64);
        for round in 0..16 {
            // Between one and four seeded cut points per round, so pieces
            // of every size class (empty, short, multi-block) are streamed.
            let mut points: Vec<usize> = cuts[round * 4..round * 4 + 1 + round % 4]
                .iter()
                .map(|&c| c as usize * buf.len() / 256)
                .collect();
            points.sort_unstable();
            let mut crc = Crc32::new();
            let mut at = 0;
            for &p in &points {
                crc.update(&buf[at..p]);
                at = p;
            }
            crc.update(&buf[at..]);
            assert_eq!(crc.finish(), whole, "cut points {points:?}");
        }
        // Byte-at-a-time streaming is the extreme split.
        let mut crc = Crc32::new();
        for b in buf.chunks(1) {
            crc.update(b);
        }
        assert_eq!(crc.finish(), whole);
    }
}
