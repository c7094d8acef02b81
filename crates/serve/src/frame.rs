//! The length-prefixed binary frame protocol of `l2r-serve`.
//!
//! Every frame — request or response — has the same envelope:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  `B1 4C 32 52` (0xB1 'L' '2' 'R'; 0xB1 is not ASCII,
//!               so the first byte of a connection selects the protocol)
//!      4     1  kind   request opcode or response status
//!      5     4  payload length (u32, little-endian, ≤ 1 MiB)
//!      9     n  payload (little-endian fields via `l2r_road_network::codec`)
//!    9+n     4  CRC-32 (IEEE) of kind + length + payload (u32, LE)
//! ```
//!
//! Any violation — bad magic, oversized length, checksum mismatch — is
//! *connection-fatal*: the server answers with one final [`Status::Err`]
//! frame and closes, because a framing error means the byte stream can no
//! longer be resynchronised.  Malformed *payloads* inside a well-framed
//! request (unknown opcode, truncated fields, non-UTF-8 names) only fail
//! that request: the connection keeps serving.
//!
//! Responses are delivered **in request order** (pipelining): clients may
//! write any number of request frames before reading responses.

// A request-path file: panics here are outages, not control flow (see the
// `no-panic-hot-path` rule of l2r-analyze).  The clippy pair of that gate:
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use l2r_road_network::codec::{CodecError, Crc32, Reader, Writer};

/// Frame magic; the first byte (0xB1) is what protocol auto-detection keys
/// on, so it must never be valid ASCII.
pub const FRAME_MAGIC: [u8; 4] = [0xB1, b'L', b'2', b'R'];

/// Hard cap on a frame payload; a length above this is connection-fatal
/// (the stream cannot be resynchronised after a corrupt length).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Envelope bytes before the payload: magic + kind + length.
pub const FRAME_HEADER: usize = 9;

/// Envelope bytes after the payload: the CRC-32.
pub const FRAME_TRAILER: usize = 4;

/// Longest dataset name accepted on the wire.
pub const MAX_NAME: usize = 256;

/// Longest snapshot path accepted in a `reload` request.
pub const MAX_PATH: usize = 4096;

/// Most `src,dst` pairs accepted in one `route_batch` request.
pub const MAX_BATCH_PAIRS: usize = 65_536;

/// Request opcodes (the `kind` byte of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty payload.
    Ping = 0x01,
    /// One route query: `str dataset, u32 src, u32 dst` plus an optional
    /// trailing `u32 deadline_ms` (milliseconds of budget granted to the
    /// request; omitted ⇒ the server's default deadline applies).
    Route = 0x02,
    /// Batched route queries: `str dataset, u32 n, n × (u32 src, u32 dst)`
    /// plus an optional trailing `u32 deadline_ms` shared by every pair.
    RouteBatch = 0x03,
    /// Dataset metadata: `str dataset`.
    Info = 0x04,
    /// Server counters; empty payload.
    Stats = 0x05,
    /// Hot-reload: `str dataset, str path` plus an optional trailing
    /// `str spec` — `latest` or a decimal generation number — when `path`
    /// is a model-store directory (omitted ⇒ file snapshot or newest
    /// durable store generation).
    Reload = 0x06,
    /// Drain and stop the server; empty payload.
    Shutdown = 0x07,
    /// Roll a dataset back to its retained previous model: `str dataset`.
    Rollback = 0x08,
}

impl Opcode {
    /// Decodes a request opcode byte.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            0x01 => Opcode::Ping,
            0x02 => Opcode::Route,
            0x03 => Opcode::RouteBatch,
            0x04 => Opcode::Info,
            0x05 => Opcode::Stats,
            0x06 => Opcode::Reload,
            0x07 => Opcode::Shutdown,
            0x08 => Opcode::Rollback,
            _ => return None,
        })
    }
}

/// Response statuses (the `kind` byte of a response frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; payload depends on the request opcode.
    Ok = 0x00,
    /// A route query with no answer; empty payload.
    NoRoute = 0x01,
    /// Request failed; payload is a `str` message.
    Err = 0x02,
    /// The dataset's request queue is full; empty payload.  **Retriable**:
    /// the connection stays open, resend the request after backing off.
    Busy = 0x03,
    /// The request's deadline expired before a reply could be produced;
    /// empty payload.  The route was not (fully) computed — retry with a
    /// larger budget if the answer still matters.
    DeadlineExceeded = 0x04,
}

impl Status {
    /// Decodes a response status byte.
    pub fn from_u8(v: u8) -> Option<Status> {
        Some(match v {
            0x00 => Status::Ok,
            0x01 => Status::NoRoute,
            0x02 => Status::Err,
            0x03 => Status::Busy,
            0x04 => Status::DeadlineExceeded,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// Checksum of one frame's protected region (kind byte, length field,
/// payload), streamed through the workspace's one CRC-32,
/// [`l2r_road_network::codec::Crc32`] — the same checksum snapshots and the
/// model store use.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(payload);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Appends one complete frame (envelope + payload + CRC) to `out`.
pub fn write_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    out.reserve(FRAME_HEADER + payload.len() + FRAME_TRAILER);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_crc(kind, payload).to_le_bytes());
}

/// A connection-fatal framing violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The trailing CRC does not match the frame contents.
    BadCrc {
        /// Checksum carried by the frame.
        wire: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(
                f,
                "bad frame magic {:02x}{:02x}{:02x}{:02x}",
                m[0], m[1], m[2], m[3]
            ),
            FrameError::Oversized(len) => write!(
                f,
                "frame payload length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte limit"
            ),
            FrameError::BadCrc { wire, computed } => write!(
                f,
                "frame checksum mismatch: wire {wire:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Result of scanning a receive buffer for one frame.
#[derive(Debug)]
pub enum FrameParse<'a> {
    /// Not enough bytes yet; keep reading.
    Incomplete,
    /// One well-formed frame.
    Frame {
        /// The `kind` byte (request opcode or response status).
        kind: u8,
        /// Borrowed payload bytes.
        payload: &'a [u8],
        /// Total envelope bytes consumed from the buffer.
        consumed: usize,
    },
    /// A connection-fatal violation; the stream cannot be resynchronised.
    Bad(FrameError),
}

/// Reads the little-endian `u32` starting at byte `at`, or `None` if `buf`
/// ends first — the parser's one primitive, so the request path has no
/// panicking slice conversions.
fn read_u32_le(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Scans the front of `buf` for one complete frame.
pub fn parse_frame(buf: &[u8]) -> FrameParse<'_> {
    if buf.len() < FRAME_HEADER {
        // Reject a wrong magic as soon as the bytes are there — a client
        // speaking a different protocol should not hang on "incomplete".
        if !FRAME_MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            let mut m = [0u8; 4];
            m[..buf.len().min(4)].copy_from_slice(&buf[..buf.len().min(4)]);
            return FrameParse::Bad(FrameError::BadMagic(m));
        }
        return FrameParse::Incomplete;
    }
    if buf[..4] != FRAME_MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&buf[..4]);
        return FrameParse::Bad(FrameError::BadMagic(m));
    }
    let kind = buf[4];
    // `buf.len() >= FRAME_HEADER` was checked above, so these reads only
    // miss when the frame is still arriving.
    let Some(len) = read_u32_le(buf, 5) else {
        return FrameParse::Incomplete;
    };
    let len = len as usize;
    if len > MAX_FRAME_PAYLOAD {
        return FrameParse::Bad(FrameError::Oversized(len as u32));
    }
    let total = FRAME_HEADER + len + FRAME_TRAILER;
    if buf.len() < total {
        return FrameParse::Incomplete;
    }
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    let Some(wire) = read_u32_le(buf, FRAME_HEADER + len) else {
        return FrameParse::Incomplete;
    };
    let computed = frame_crc(kind, payload);
    if wire != computed {
        return FrameParse::Bad(FrameError::BadCrc { wire, computed });
    }
    FrameParse::Frame {
        kind,
        payload,
        consumed: total,
    }
}

// ---------------------------------------------------------------------------
// Request payload encoders (used by clients; the server decodes with Reader)
// ---------------------------------------------------------------------------

/// Appends a `ping` request frame.
pub fn encode_ping(out: &mut Vec<u8>) {
    write_frame(out, Opcode::Ping as u8, &[]);
}

/// Appends a `route` request frame carrying the server's default deadline.
pub fn encode_route(out: &mut Vec<u8>, dataset: &str, src: u32, dst: u32) {
    encode_route_deadline(out, dataset, src, dst, None);
}

/// Appends a `route` request frame with an explicit deadline budget in
/// milliseconds (`None` ⇒ the field is omitted and the server default
/// applies; `Some(0)` ⇒ already expired, useful for testing accounting).
pub fn encode_route_deadline(
    out: &mut Vec<u8>,
    dataset: &str,
    src: u32,
    dst: u32,
    deadline_ms: Option<u32>,
) {
    let mut w = Writer::new();
    w.str(dataset);
    w.u32(src);
    w.u32(dst);
    if let Some(ms) = deadline_ms {
        w.u32(ms);
    }
    write_frame(out, Opcode::Route as u8, w.as_slice());
}

/// Appends a `route_batch` request frame carrying the server's default
/// deadline.
pub fn encode_route_batch(out: &mut Vec<u8>, dataset: &str, pairs: &[(u32, u32)]) {
    encode_route_batch_deadline(out, dataset, pairs, None);
}

/// Appends a `route_batch` request frame with an explicit deadline budget
/// (in milliseconds) shared by every pair.
pub fn encode_route_batch_deadline(
    out: &mut Vec<u8>,
    dataset: &str,
    pairs: &[(u32, u32)],
    deadline_ms: Option<u32>,
) {
    let mut w = Writer::new();
    w.str(dataset);
    w.u32(pairs.len() as u32);
    for &(s, d) in pairs {
        w.u32(s);
        w.u32(d);
    }
    if let Some(ms) = deadline_ms {
        w.u32(ms);
    }
    write_frame(out, Opcode::RouteBatch as u8, w.as_slice());
}

/// Appends an `info` request frame.
pub fn encode_info(out: &mut Vec<u8>, dataset: &str) {
    let mut w = Writer::new();
    w.str(dataset);
    write_frame(out, Opcode::Info as u8, w.as_slice());
}

/// Appends a `stats` request frame.
pub fn encode_stats(out: &mut Vec<u8>) {
    write_frame(out, Opcode::Stats as u8, &[]);
}

/// Appends a `reload` request frame.
pub fn encode_reload(out: &mut Vec<u8>, dataset: &str, path: &str) {
    encode_reload_spec(out, dataset, path, None);
}

/// Appends a `reload` request frame with an explicit store-generation spec
/// (`latest` or a decimal generation number; `None` ⇒ the field is omitted
/// and stays byte-compatible with pre-store clients).
pub fn encode_reload_spec(out: &mut Vec<u8>, dataset: &str, path: &str, spec: Option<&str>) {
    let mut w = Writer::new();
    w.str(dataset);
    w.str(path);
    if let Some(spec) = spec {
        w.str(spec);
    }
    write_frame(out, Opcode::Reload as u8, w.as_slice());
}

/// Appends a `rollback` request frame.
pub fn encode_rollback(out: &mut Vec<u8>, dataset: &str) {
    let mut w = Writer::new();
    w.str(dataset);
    write_frame(out, Opcode::Rollback as u8, w.as_slice());
}

/// Appends a `shutdown` request frame.
pub fn encode_shutdown(out: &mut Vec<u8>) {
    write_frame(out, Opcode::Shutdown as u8, &[]);
}

// ---------------------------------------------------------------------------
// Response decoding (client side)
// ---------------------------------------------------------------------------

/// A decoded reply to a `route` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteReply {
    /// A route was found.
    Route {
        /// Index into [`l2r_core::RouteStrategy::ALL`].
        strategy: u8,
        /// Path vertex ids, source first.
        vertices: Vec<u32>,
    },
    /// No route exists.
    NoRoute,
    /// The request was shed; retry after backing off.
    Busy,
    /// The request's deadline expired before it could be answered.
    DeadlineExceeded,
    /// The request failed.
    Err(String),
}

/// Decodes a `route` response frame's status + payload.
pub fn decode_route_reply(status: Status, payload: &[u8]) -> Result<RouteReply, CodecError> {
    match status {
        Status::NoRoute => Ok(RouteReply::NoRoute),
        Status::Busy => Ok(RouteReply::Busy),
        Status::DeadlineExceeded => Ok(RouteReply::DeadlineExceeded),
        Status::Err => {
            let mut r = Reader::new(payload);
            Ok(RouteReply::Err(
                r.str("error message", MAX_FRAME_PAYLOAD)?.to_string(),
            ))
        }
        Status::Ok => {
            let mut r = Reader::new(payload);
            let strategy = r.u8("route strategy")?;
            let n = r.length("route path length", 4)?;
            let mut vertices = Vec::with_capacity(n);
            for _ in 0..n {
                vertices.push(r.u32("route path vertex")?);
            }
            Ok(RouteReply::Route { strategy, vertices })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value: crc32("123456789") = 0xCBF43926.
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn frames_roundtrip() {
        let mut out = Vec::new();
        encode_route(&mut out, "D1", 7, 42);
        match parse_frame(&out) {
            FrameParse::Frame {
                kind,
                payload,
                consumed,
            } => {
                assert_eq!(kind, Opcode::Route as u8);
                assert_eq!(consumed, out.len());
                let mut r = Reader::new(payload);
                assert_eq!(r.str("dataset", MAX_NAME).unwrap(), "D1");
                assert_eq!(r.u32("src").unwrap(), 7);
                assert_eq!(r.u32("dst").unwrap(), 42);
                assert!(r.is_exhausted());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn deadline_field_is_optional_and_trailing() {
        let mut out = Vec::new();
        encode_route_deadline(&mut out, "D1", 7, 42, Some(250));
        match parse_frame(&out) {
            FrameParse::Frame { kind, payload, .. } => {
                assert_eq!(kind, Opcode::Route as u8);
                let mut r = Reader::new(payload);
                r.str("dataset", MAX_NAME).unwrap();
                r.u32("src").unwrap();
                r.u32("dst").unwrap();
                assert!(!r.is_exhausted());
                assert_eq!(r.u32("deadline_ms").unwrap(), 250);
                assert!(r.is_exhausted());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // The no-deadline encoder stays byte-compatible with PR 6 clients.
        let mut bare = Vec::new();
        encode_route(&mut bare, "D1", 7, 42);
        let mut explicit_none = Vec::new();
        encode_route_deadline(&mut explicit_none, "D1", 7, 42, None);
        assert_eq!(bare, explicit_none);

        let mut out = Vec::new();
        encode_route_batch_deadline(&mut out, "D1", &[(1, 2), (3, 4)], Some(9));
        match parse_frame(&out) {
            FrameParse::Frame { payload, .. } => {
                let mut r = Reader::new(payload);
                r.str("dataset", MAX_NAME).unwrap();
                let n = r.u32("n").unwrap();
                for _ in 0..2 * n {
                    r.u32("pair half").unwrap();
                }
                assert_eq!(r.u32("deadline_ms").unwrap(), 9);
                assert!(r.is_exhausted());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn reload_spec_is_optional_and_rollback_roundtrips() {
        // The spec-less encoder stays byte-compatible with pre-store clients.
        let mut bare = Vec::new();
        encode_reload(&mut bare, "D1", "/models/d1");
        let mut explicit_none = Vec::new();
        encode_reload_spec(&mut explicit_none, "D1", "/models/d1", None);
        assert_eq!(bare, explicit_none);

        let mut out = Vec::new();
        encode_reload_spec(&mut out, "D1", "/models/d1", Some("7"));
        match parse_frame(&out) {
            FrameParse::Frame { kind, payload, .. } => {
                assert_eq!(kind, Opcode::Reload as u8);
                let mut r = Reader::new(payload);
                assert_eq!(r.str("dataset", MAX_NAME).unwrap(), "D1");
                assert_eq!(r.str("path", MAX_PATH).unwrap(), "/models/d1");
                assert!(!r.is_exhausted());
                assert_eq!(r.str("spec", MAX_NAME).unwrap(), "7");
                assert!(r.is_exhausted());
            }
            other => panic!("expected a frame, got {other:?}"),
        }

        let mut out = Vec::new();
        encode_rollback(&mut out, "D1");
        match parse_frame(&out) {
            FrameParse::Frame { kind, payload, .. } => {
                assert_eq!(kind, Opcode::Rollback as u8);
                assert_eq!(Opcode::from_u8(kind), Some(Opcode::Rollback));
                let mut r = Reader::new(payload);
                assert_eq!(r.str("dataset", MAX_NAME).unwrap(), "D1");
                assert!(r.is_exhausted());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn deadline_status_roundtrips() {
        assert_eq!(Status::from_u8(0x04), Some(Status::DeadlineExceeded));
        assert_eq!(
            decode_route_reply(Status::DeadlineExceeded, &[]).unwrap(),
            RouteReply::DeadlineExceeded
        );
    }

    #[test]
    fn partial_frames_are_incomplete_not_errors() {
        let mut out = Vec::new();
        encode_ping(&mut out);
        for cut in 0..out.len() {
            match parse_frame(&out[..cut]) {
                FrameParse::Incomplete => {}
                other => panic!("prefix of {cut} bytes parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected_even_on_short_input() {
        assert!(matches!(
            parse_frame(b"pi"),
            FrameParse::Bad(FrameError::BadMagic(_))
        ));
        assert!(matches!(
            parse_frame(b"ping D1\n"),
            FrameParse::Bad(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_length_and_bad_crc_are_fatal() {
        let mut out = Vec::new();
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(Opcode::Ping as u8);
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_frame(&out),
            FrameParse::Bad(FrameError::Oversized(_))
        ));

        let mut out = Vec::new();
        encode_ping(&mut out);
        let last = out.len() - 1;
        out[last] ^= 0xFF;
        assert!(matches!(
            parse_frame(&out),
            FrameParse::Bad(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn route_replies_decode() {
        let mut w = Writer::new();
        w.u8(3);
        w.length(2);
        w.u32(5);
        w.u32(9);
        let reply = decode_route_reply(Status::Ok, w.as_slice()).unwrap();
        assert_eq!(
            reply,
            RouteReply::Route {
                strategy: 3,
                vertices: vec![5, 9]
            }
        );
        assert_eq!(
            decode_route_reply(Status::NoRoute, &[]).unwrap(),
            RouteReply::NoRoute
        );
        assert_eq!(
            decode_route_reply(Status::Busy, &[]).unwrap(),
            RouteReply::Busy
        );
        let mut w = Writer::new();
        w.str("nope");
        assert_eq!(
            decode_route_reply(Status::Err, w.as_slice()).unwrap(),
            RouteReply::Err("nope".to_string())
        );
        // Truncated payload errors instead of panicking.
        assert!(decode_route_reply(Status::Ok, &[1]).is_err());
    }
}
