//! The one request and reply vocabulary of both wire protocols.
//!
//! [`parse_line`] (ASCII line protocol) and [`decode_request`] (binary
//! frame protocol) turn a request into the same [`Request`]; the event
//! loop executes it once, and the resulting [`Reply`] is encoded for the
//! connection's [`Wire`] protocol by [`Reply::encode`].  A verb therefore
//! has one grammar check per protocol and one implementation.

// A request-path file: panics here are outages, not control flow (see the
// `no-panic-hot-path` rule of l2r-analyze).  The clippy pair of that gate:
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use l2r_core::{RouteResult, RouteStrategy};
use l2r_road_network::codec::{CodecError, Reader, Writer};
use l2r_road_network::VertexId;

use crate::frame::{self, Opcode, Status, MAX_BATCH_PAIRS, MAX_NAME, MAX_PATH};

/// The protocol a connection speaks, fixed by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wire {
    /// `\n`-terminated request and response lines.
    Ascii,
    /// Length-prefixed binary frames ([`crate::frame`]).
    Binary,
}

/// One parsed request, borrowing its strings from the received bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Request<'a> {
    Ping,
    /// One route query; admitted into the event loop's shared batch.
    Route {
        dataset: &'a str,
        src: VertexId,
        dst: VertexId,
        deadline_ms: Option<u32>,
    },
    /// A client-side batch, admitted and executed as one unit.
    RouteBatch {
        dataset: &'a str,
        pairs: Vec<(VertexId, VertexId)>,
        deadline_ms: Option<u32>,
    },
    Info {
        dataset: &'a str,
    },
    Stats,
    /// `spec` is `latest` or a generation number (store reloads only).
    Reload {
        dataset: &'a str,
        path: &'a str,
        spec: Option<&'a str>,
    },
    Rollback {
        dataset: &'a str,
    },
    Shutdown,
}

const ROUTE_USAGE: &str = "usage: route <dataset> <src> <dst> [<deadline_ms>]";

/// Parses one ASCII request line (already trimmed, not empty).  The error
/// is the message of the line's `ERR` reply.
pub(crate) fn parse_line(line: &str) -> Result<Request<'_>, String> {
    let mut parts = line.split_whitespace();
    let command = parts.next().unwrap_or("");
    Ok(match command {
        "ping" => Request::Ping,
        "route" => {
            let dataset = parts.next().ok_or(ROUTE_USAGE)?;
            let src = parse_vertex(parts.next(), "source")?;
            let dst = parse_vertex(parts.next(), "destination")?;
            let deadline_ms = match parts.next() {
                None => None,
                Some(raw) => Some(
                    raw.parse::<u32>()
                        .map_err(|_| format!("deadline `{raw}` is not a millisecond count"))?,
                ),
            };
            if parts.next().is_some() {
                return Err(ROUTE_USAGE.to_string());
            }
            Request::Route {
                dataset,
                src,
                dst,
                deadline_ms,
            }
        }
        "route_batch" => {
            let dataset = parts
                .next()
                .ok_or("usage: route_batch <dataset> <src,dst> [<src,dst> ...]")?;
            let mut pairs = Vec::new();
            for item in parts {
                let (s, d) = item
                    .split_once(',')
                    .ok_or_else(|| format!("malformed pair `{item}` (want src,dst)"))?;
                pairs.push((
                    parse_vertex(Some(s), "source")?,
                    parse_vertex(Some(d), "destination")?,
                ));
            }
            if pairs.is_empty() {
                return Err("route_batch needs at least one src,dst pair".to_string());
            }
            Request::RouteBatch {
                dataset,
                pairs,
                deadline_ms: None,
            }
        }
        "info" => Request::Info {
            dataset: parts.next().ok_or("usage: info <dataset>")?,
        },
        "stats" => Request::Stats,
        "reload" => {
            let (Some(dataset), Some(path)) = (parts.next(), parts.next()) else {
                return Err("usage: reload <dataset> <path> [latest|<generation>]".to_string());
            };
            Request::Reload {
                dataset,
                path,
                spec: parts.next(),
            }
        }
        "rollback" => Request::Rollback {
            dataset: parts.next().ok_or("usage: rollback <dataset>")?,
        },
        "shutdown" => Request::Shutdown,
        other => {
            return Err(format!(
                "unknown command `{other}` \
                 (expected ping|route|route_batch|info|stats|reload|rollback|shutdown)"
            ))
        }
    })
}

fn parse_vertex(field: Option<&str>, what: &str) -> Result<VertexId, String> {
    match field {
        Some(s) => s
            .parse::<u32>()
            .map(VertexId)
            .map_err(|_| format!("{what} `{s}` is not a vertex id")),
        None => Err(format!("missing {what}")),
    }
}

/// Decodes one well-framed binary request (`kind` byte + payload).  The
/// error is the message of the request-scoped `Err` frame.
pub(crate) fn decode_request(kind: u8, payload: &[u8]) -> Result<Request<'_>, String> {
    let opcode = Opcode::from_u8(kind).ok_or_else(|| format!("unknown opcode {kind:#04x}"))?;
    decode_payload(opcode, &mut Reader::new(payload)).map_err(|e| {
        let verb = match opcode {
            Opcode::RouteBatch => "route_batch",
            Opcode::Reload => "reload",
            Opcode::Rollback => "rollback",
            Opcode::Info => "info",
            Opcode::Route => "route",
            // The payload-less verbs never fail to decode.
            Opcode::Ping | Opcode::Stats | Opcode::Shutdown => "request",
        };
        format!("bad {verb} payload: {e}")
    })
}

fn decode_payload<'a>(opcode: Opcode, r: &mut Reader<'a>) -> Result<Request<'a>, CodecError> {
    Ok(match opcode {
        Opcode::Ping => Request::Ping,
        Opcode::Route => Request::Route {
            dataset: r.str("route dataset", MAX_NAME)?,
            src: VertexId(r.u32("route source")?),
            dst: VertexId(r.u32("route destination")?),
            deadline_ms: trailing_u32(r, "route deadline")?,
        },
        Opcode::RouteBatch => {
            let dataset = r.str("batch dataset", MAX_NAME)?;
            let n = r.u32("batch size")? as usize;
            if n == 0 || n > MAX_BATCH_PAIRS || n > r.remaining() / 8 {
                return Err(CodecError::ImplausibleLength {
                    what: "batch size",
                    len: n as u64,
                });
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((
                    VertexId(r.u32("batch source")?),
                    VertexId(r.u32("batch destination")?),
                ));
            }
            Request::RouteBatch {
                dataset,
                pairs,
                deadline_ms: trailing_u32(r, "batch deadline")?,
            }
        }
        Opcode::Info => Request::Info {
            dataset: r.str("info dataset", MAX_NAME)?,
        },
        Opcode::Stats => Request::Stats,
        Opcode::Reload => Request::Reload {
            dataset: r.str("reload dataset", MAX_NAME)?,
            path: r.str("reload path", MAX_PATH)?,
            spec: if r.is_exhausted() {
                None
            } else {
                Some(r.str("reload spec", MAX_NAME)?)
            },
        },
        Opcode::Rollback => Request::Rollback {
            dataset: r.str("rollback dataset", MAX_NAME)?,
        },
        Opcode::Shutdown => Request::Shutdown,
    })
}

/// An optional trailing `u32` field (absent when the payload is used up).
fn trailing_u32(r: &mut Reader<'_>, what: &'static str) -> Result<Option<u32>, CodecError> {
    if r.is_exhausted() {
        Ok(None)
    } else {
        r.u32(what).map(Some)
    }
}

/// The answer to one request, before protocol encoding.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A payload-less success: ASCII `OK <text>`, an empty binary `Ok`.
    Ack(&'static str),
    /// A route answer: ASCII [`format_route_response`], a binary `Ok`
    /// (strategy index + path) or `NoRoute` frame.
    Route(Option<RouteResult>),
    /// A `route_batch` summary: per pair, the strategy and path length of
    /// its answer, or `None` for no route.
    Batch(Vec<Option<(RouteStrategy, u32)>>),
    Info {
        dataset: String,
        vertices: u64,
        edges: u64,
        regions: u64,
        connectors: u64,
        generation: u64,
    },
    /// The human-readable stats line plus the same counters as pairs.
    Stats {
        line: String,
        fields: Vec<(String, u64)>,
    },
    /// A successful reload or rollback.
    Generation {
        dataset: String,
        generation: u64,
    },
    /// Admission refused: retriable.
    Busy,
    DeadlineExceeded,
    /// A failed request (`ERR <message>` / an `Err` frame).
    Err(String),
}

impl Reply {
    /// The reply's bytes on `wire` (ASCII lines carry their `\n`).
    pub(crate) fn encode(&self, wire: Wire) -> Vec<u8> {
        match wire {
            Wire::Ascii => {
                let mut line = self.line();
                line.push('\n');
                line.into_bytes()
            }
            Wire::Binary => {
                let mut out = Vec::new();
                let (status, payload) = self.frame();
                frame::write_frame(&mut out, status as u8, &payload);
                out
            }
        }
    }

    fn line(&self) -> String {
        match self {
            Reply::Ack(text) => format!("OK {text}"),
            Reply::Route(result) => format_route_response(result),
            Reply::Batch(items) => {
                let answered = items.iter().flatten().count();
                let mut out = format!("OK {} {answered}", items.len());
                for item in items {
                    match item {
                        Some((strategy, len)) => {
                            out.push(' ');
                            out.push_str(strategy.label());
                            out.push(':');
                            out.push_str(&len.to_string());
                        }
                        None => out.push_str(" -"),
                    }
                }
                out
            }
            Reply::Info {
                dataset,
                vertices,
                edges,
                regions,
                connectors,
                generation,
            } => format!(
                "OK dataset={dataset} vertices={vertices} edges={edges} regions={regions} \
                 connectors={connectors} generation={generation}"
            ),
            Reply::Stats { line, .. } => format!("OK {line}"),
            Reply::Generation {
                dataset,
                generation,
            } => format!("OK dataset={dataset} generation={generation}"),
            Reply::Busy => "BUSY".to_string(),
            Reply::DeadlineExceeded => "ERR deadline exceeded".to_string(),
            Reply::Err(message) => format!("ERR {message}"),
        }
    }

    fn frame(&self) -> (Status, Vec<u8>) {
        let mut w = Writer::new();
        let status = match self {
            Reply::Ack(_) => Status::Ok,
            Reply::Route(None) => Status::NoRoute,
            Reply::Route(Some(r)) => {
                w.u8(strategy_index(r.strategy));
                let vertices = r.path.vertices();
                w.length(vertices.len());
                for v in vertices {
                    w.u32(v.0);
                }
                Status::Ok
            }
            Reply::Batch(items) => {
                w.u32(items.len() as u32);
                w.u32(items.iter().flatten().count() as u32);
                for item in items {
                    let (strategy, len) = match item {
                        Some((strategy, len)) => (strategy_index(*strategy), *len),
                        None => (u8::MAX, 0),
                    };
                    w.u8(strategy);
                    w.u32(len);
                }
                Status::Ok
            }
            Reply::Info {
                dataset,
                vertices,
                edges,
                regions,
                connectors,
                generation,
            } => {
                for v in [vertices, edges, regions, connectors, generation] {
                    w.u64(*v);
                }
                w.str(dataset);
                Status::Ok
            }
            Reply::Stats { line, fields } => {
                // The human-readable line first (back-compat), then the
                // same counters as machine-readable pairs appended after
                // it — old clients stop at the string, new ones read on.
                w.str(line);
                w.u32(fields.len() as u32);
                for (key, value) in fields {
                    w.str(key);
                    w.u64(*value);
                }
                Status::Ok
            }
            Reply::Generation { generation, .. } => {
                w.u64(*generation);
                Status::Ok
            }
            Reply::Busy => Status::Busy,
            Reply::DeadlineExceeded => Status::DeadlineExceeded,
            Reply::Err(message) => {
                w.str(message);
                Status::Err
            }
        };
        (status, w.into_vec())
    }
}

/// A strategy's wire index: its position in [`RouteStrategy::ALL`], which
/// lists the variants in declaration order (pinned by a unit test).
fn strategy_index(strategy: RouteStrategy) -> u8 {
    strategy as u8
}

/// Formats a route answer exactly as the ASCII server sends it (`OK
/// <strategy> <n> <v0> …` / `NOROUTE`).  Public so clients and tests can
/// compare server responses against a locally computed
/// [`l2r_core::L2r::route`] answer for end-to-end bit-equivalence.
pub fn format_route_response(result: &Option<RouteResult>) -> String {
    match result {
        Some(r) => {
            let vertices = r.path.vertices();
            let mut out = String::with_capacity(16 + vertices.len() * 7);
            out.push_str("OK ");
            out.push_str(r.strategy.label());
            out.push(' ');
            out.push_str(&vertices.len().to_string());
            for v in vertices {
                out.push(' ');
                out.push_str(&v.0.to_string());
            }
            out
        }
        None => "NOROUTE".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameParse;

    #[test]
    fn strategy_index_is_the_position_in_all() {
        for (i, strategy) in RouteStrategy::ALL.iter().enumerate() {
            assert_eq!(strategy_index(*strategy) as usize, i);
        }
    }

    /// A seeded splitmix64 stream that mutates byte strings.
    struct Mutator(u64);

    impl Mutator {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Flips a bit in, or overwrites, 1–3 random bytes; then, one time
        /// in four, truncates the bytes or appends random ones.
        fn mutate(&mut self, bytes: &mut Vec<u8>) {
            for _ in 0..=self.below(3) {
                if bytes.is_empty() {
                    break;
                }
                let at = self.below(bytes.len());
                if self.next() & 1 == 0 {
                    bytes[at] ^= 1 << self.below(8);
                } else {
                    bytes[at] = self.next() as u8;
                }
            }
            match self.below(8) {
                0 => bytes.truncate(self.below(bytes.len() + 1)),
                1 => {
                    for _ in 0..=self.below(8) {
                        bytes.push(self.next() as u8);
                    }
                }
                _ => {}
            }
        }
    }

    /// Seeded mutations of valid requests through both wire decoders: a
    /// whole mutated frame through `parse_frame` (and `decode_request` when
    /// it still frames), a mutated kind and payload re-framed with a valid
    /// checksum through both, and a mutated ASCII line through
    /// `parse_line`.  Every call returns; none panics.
    #[test]
    fn mutated_frames_and_lines_never_panic() {
        let pairs = [(0, 1), (2, 3), (4, 5)];
        let framed = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            encode(&mut out);
            out
        };
        let frames = [
            framed(&frame::encode_ping),
            framed(&|o| frame::encode_route(o, "D1", 3, 17)),
            framed(&|o| frame::encode_route_deadline(o, "D1", 3, 17, Some(250))),
            framed(&|o| frame::encode_route_batch(o, "D1", &pairs)),
            framed(&|o| frame::encode_route_batch_deadline(o, "D1", &pairs, Some(100))),
            framed(&|o| frame::encode_info(o, "D1")),
            framed(&frame::encode_stats),
            framed(&|o| frame::encode_reload(o, "D1", "models/d1.l2r")),
            framed(&|o| frame::encode_reload_spec(o, "D1", "models/d1", Some("latest"))),
            framed(&|o| frame::encode_rollback(o, "D1")),
            framed(&frame::encode_shutdown),
        ];
        let lines = [
            "ping",
            "route D1 3 17",
            "route D1 3 17 250",
            "route_batch D1 0,1 2,3 4,5",
            "info D1",
            "stats",
            "reload D1 models/d1 latest",
            "rollback D1",
            "shutdown",
        ];
        let mut rng = Mutator(0x5EED_F4A3);
        // [incomplete, bad frame, request Ok, request Err]
        let mut outcomes = [0usize; 4];
        let mut decode = |bytes: &[u8]| match frame::parse_frame(bytes) {
            FrameParse::Incomplete => outcomes[0] += 1,
            FrameParse::Bad(_) => outcomes[1] += 1,
            FrameParse::Frame { kind, payload, .. } => match decode_request(kind, payload) {
                Ok(_) => outcomes[2] += 1,
                Err(_) => outcomes[3] += 1,
            },
        };
        for i in 0..3_000 {
            let valid = &frames[i % frames.len()];
            let mut whole = valid.clone();
            rng.mutate(&mut whole);
            decode(&whole);

            // Kind byte plus payload, re-framed so the checksum holds.
            let mut body =
                valid[frame::FRAME_HEADER - 5..valid.len() - frame::FRAME_TRAILER].to_vec();
            body.drain(1..5); // the length field; `write_frame` rewrites it
            rng.mutate(&mut body);
            let Some((&kind, payload)) = body.split_first() else {
                continue;
            };
            let mut reframed = Vec::new();
            frame::write_frame(&mut reframed, kind, payload);
            decode(&reframed);
        }
        let mut parsed = [0usize; 2];
        for i in 0..3_000 {
            let mut line = lines[i % lines.len()].as_bytes().to_vec();
            rng.mutate(&mut line);
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if !line.is_empty() {
                parsed[parse_line(line).is_err() as usize] += 1;
            }
        }
        let [incomplete, bad, ok, err] = outcomes;
        assert!(ok > 0 && err > 0 && bad > 0, "{outcomes:?}");
        assert!(parsed[0] > 0 && parsed[1] > 0, "{parsed:?}");
        eprintln!(
            "frames: {incomplete} incomplete, {bad} bad, {ok} decoded, {err} rejected; \
             lines: {} parsed, {} rejected",
            parsed[0], parsed[1]
        );
    }
}
