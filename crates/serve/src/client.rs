//! Blocking clients for both wire protocols.
//!
//! [`Client`] speaks the legacy ASCII line protocol (one request line out,
//! one response line in).  [`BinClient`] speaks the binary frame protocol
//! of [`crate::frame`], including windowed pipelining: it keeps up to a
//! window of `route` requests in flight and reads responses back **in
//! request order**, which is what the protocol guarantees.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use l2r_core::RouteStrategy;
use l2r_road_network::codec::Reader;

use crate::frame::{
    self, decode_route_reply, FrameParse, RouteReply, Status, MAX_FRAME_PAYLOAD, MAX_NAME,
};

/// Default socket read timeout of both clients: a dead server fails the
/// call instead of hanging it forever.  Override per binary client with
/// [`BinClient::connect_with`].
const DEFAULT_CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// ASCII client
// ---------------------------------------------------------------------------

/// A blocking line-protocol client: one request line out, one response line
/// in.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server with the default read timeout.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an already-connected stream (e.g. one that sat idle for a
    /// while) into a client with the default read timeout.
    pub fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_CLIENT_READ_TIMEOUT))?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(read_half),
        })
    }

    /// Sends one request line and reads the one-line response (without the
    /// trailing newline).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Sends pre-formatted request bytes (newline-terminated lines) without
    /// reading anything back (pipelining; pair with [`Client::read_line`]).
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one response line (without the trailing newline).
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Binary client
// ---------------------------------------------------------------------------

/// Metadata of one served dataset, decoded from a binary `info` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name, echoed back by the server.
    pub name: String,
    /// Vertices in the served road network.
    pub vertices: u64,
    /// Edges in the served road network.
    pub edges: u64,
    /// Regions in the served region graph.
    pub regions: u64,
    /// Entries in the served model's connector table.
    pub connectors: u64,
    /// Model generation (bumps on every successful hot-reload).
    pub generation: u64,
}

/// Outcome of one item in a binary `route_batch` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchItemReply {
    /// Index into [`RouteStrategy::ALL`], or `u8::MAX` for no route.
    pub strategy: u8,
    /// Path length in vertices (0 for no route).
    pub path_len: u32,
}

/// A blocking binary-frame client with windowed pipelining.
#[derive(Debug)]
pub struct BinClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl BinClient {
    /// Connects to a running server with the default read timeout.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<BinClient> {
        BinClient::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with an explicit read timeout (`None` blocks forever).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
    ) -> io::Result<BinClient> {
        BinClient::from_stream_with(TcpStream::connect(addr)?, timeout)
    }

    /// Wraps an already-connected stream into a binary client with the
    /// default read timeout.
    pub fn from_stream(stream: TcpStream) -> io::Result<BinClient> {
        BinClient::from_stream_with(stream, Some(DEFAULT_CLIENT_READ_TIMEOUT))
    }

    /// Wraps an already-connected stream into a binary client with an
    /// explicit read timeout (`None` blocks forever).
    fn from_stream_with(stream: TcpStream, timeout: Option<Duration>) -> io::Result<BinClient> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        Ok(BinClient {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
        })
    }

    /// Sends pre-encoded frame bytes (see the `encode_*` helpers in
    /// [`crate::frame`]) without reading anything back.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one response frame (status + payload), blocking until it is
    /// complete.  A framing violation from the server is an error.
    pub fn read_frame(&mut self) -> io::Result<(Status, Vec<u8>)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match frame::parse_frame(&self.rbuf[self.rpos..]) {
                FrameParse::Frame {
                    kind,
                    payload,
                    consumed,
                } => {
                    let status = Status::from_u8(kind)
                        .ok_or_else(|| bad_data(format!("unknown response status {kind:#04x}")))?;
                    let payload = payload.to_vec();
                    self.rpos += consumed;
                    if self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                    } else if self.rpos >= 64 * 1024 {
                        self.rbuf.drain(..self.rpos);
                        self.rpos = 0;
                    }
                    return Ok((status, payload));
                }
                FrameParse::Bad(e) => return Err(bad_data(e.to_string())),
                FrameParse::Incomplete => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-frame",
                        ));
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    fn expect_ok(&mut self, what: &str) -> io::Result<Vec<u8>> {
        let (status, payload) = self.read_frame()?;
        match status {
            Status::Ok => Ok(payload),
            Status::Err => {
                let mut r = Reader::new(&payload);
                let message = r
                    .str("error message", MAX_FRAME_PAYLOAD)
                    .unwrap_or("unreadable error payload");
                Err(io::Error::other(format!("{what}: {message}")))
            }
            Status::Busy => Err(io::Error::other(format!("{what}: server is busy"))),
            Status::DeadlineExceeded => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{what}: deadline exceeded"),
            )),
            Status::NoRoute => Err(bad_data(format!("{what}: unexpected NOROUTE"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        let mut out = Vec::new();
        frame::encode_ping(&mut out);
        self.send_raw(&out)?;
        self.expect_ok("ping").map(|_| ())
    }

    /// One route query.
    pub fn route(&mut self, dataset: &str, src: u32, dst: u32) -> io::Result<RouteReply> {
        let mut out = Vec::new();
        frame::encode_route(&mut out, dataset, src, dst);
        self.send_raw(&out)?;
        let (status, payload) = self.read_frame()?;
        decode_route_reply(status, &payload).map_err(|e| bad_data(e.to_string()))
    }

    /// Pipelines `route` queries with at most `window` in flight, returning
    /// the replies in request order.
    pub fn route_pipelined(
        &mut self,
        dataset: &str,
        pairs: &[(u32, u32)],
        window: usize,
    ) -> io::Result<Vec<RouteReply>> {
        let window = window.clamp(1, 512);
        let mut replies = Vec::with_capacity(pairs.len());
        let mut out = Vec::new();
        let mut sent = 0usize;
        while replies.len() < pairs.len() {
            out.clear();
            while sent < pairs.len() && sent - replies.len() < window {
                let (s, d) = pairs[sent];
                frame::encode_route(&mut out, dataset, s, d);
                sent += 1;
            }
            if !out.is_empty() {
                self.send_raw(&out)?;
            }
            let (status, payload) = self.read_frame()?;
            replies
                .push(decode_route_reply(status, &payload).map_err(|e| bad_data(e.to_string()))?);
        }
        Ok(replies)
    }

    /// A server-side `route_batch`: one frame in, one summary frame out.
    pub fn route_batch(
        &mut self,
        dataset: &str,
        pairs: &[(u32, u32)],
    ) -> io::Result<Vec<BatchItemReply>> {
        let mut out = Vec::new();
        frame::encode_route_batch(&mut out, dataset, pairs);
        self.send_raw(&out)?;
        let payload = self.expect_ok("route_batch")?;
        let mut r = Reader::new(&payload);
        let n = r.u32("batch total").map_err(|e| bad_data(e.to_string()))? as usize;
        let _answered = r
            .u32("batch answered")
            .map_err(|e| bad_data(e.to_string()))?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let strategy = r.u8("item strategy").map_err(|e| bad_data(e.to_string()))?;
            let path_len = r
                .u32("item path length")
                .map_err(|e| bad_data(e.to_string()))?;
            items.push(BatchItemReply { strategy, path_len });
        }
        Ok(items)
    }

    /// Dataset metadata.
    pub fn info(&mut self, dataset: &str) -> io::Result<DatasetInfo> {
        let mut out = Vec::new();
        frame::encode_info(&mut out, dataset);
        self.send_raw(&out)?;
        let payload = self.expect_ok("info")?;
        let mut r = Reader::new(&payload);
        let decode = |e: l2r_road_network::codec::CodecError| bad_data(e.to_string());
        Ok(DatasetInfo {
            vertices: r.u64("info vertices").map_err(decode)?,
            edges: r.u64("info edges").map_err(decode)?,
            regions: r.u64("info regions").map_err(decode)?,
            connectors: r.u64("info connectors").map_err(decode)?,
            generation: r.u64("info generation").map_err(decode)?,
            name: r.str("info name", MAX_NAME).map_err(decode)?.to_string(),
        })
    }

    /// The server's stats line (same text as the ASCII `stats` response
    /// without the `OK ` prefix).
    pub fn stats(&mut self) -> io::Result<String> {
        let mut out = Vec::new();
        frame::encode_stats(&mut out);
        self.send_raw(&out)?;
        let payload = self.expect_ok("stats")?;
        let mut r = Reader::new(&payload);
        Ok(r.str("stats line", MAX_FRAME_PAYLOAD)
            .map_err(|e| bad_data(e.to_string()))?
            .to_string())
    }

    /// The server's counters as machine-readable `(key, value)` pairs —
    /// the structured half of the binary `stats` response, appended after
    /// the human-readable line (absent on pre-store servers ⇒ empty vec).
    pub fn stats_fields(&mut self) -> io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        frame::encode_stats(&mut out);
        self.send_raw(&out)?;
        let payload = self.expect_ok("stats")?;
        let mut r = Reader::new(&payload);
        let decode = |e: l2r_road_network::codec::CodecError| bad_data(e.to_string());
        r.str("stats line", MAX_FRAME_PAYLOAD).map_err(decode)?;
        if r.is_exhausted() {
            return Ok(Vec::new());
        }
        let n = r.u32("stats field count").map_err(decode)? as usize;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.str("stats key", MAX_NAME).map_err(decode)?.to_string();
            let value = r.u64("stats value").map_err(decode)?;
            fields.push((key, value));
        }
        Ok(fields)
    }

    /// Hot-reloads a dataset from a snapshot path; returns the new model
    /// generation.
    pub fn reload(&mut self, dataset: &str, path: &str) -> io::Result<u64> {
        self.reload_spec(dataset, path, None)
    }

    /// Hot-reloads a dataset from a snapshot file or model-store directory
    /// with an explicit store-generation spec (`"latest"` or a decimal
    /// generation number); returns the new model generation.
    pub fn reload_spec(
        &mut self,
        dataset: &str,
        path: &str,
        spec: Option<&str>,
    ) -> io::Result<u64> {
        let mut out = Vec::new();
        frame::encode_reload_spec(&mut out, dataset, path, spec);
        self.send_raw(&out)?;
        let payload = self.expect_ok("reload")?;
        let mut r = Reader::new(&payload);
        r.u64("reload generation")
            .map_err(|e| bad_data(e.to_string()))
    }

    /// Rolls a dataset back to its retained previous model; returns the
    /// new model generation.
    pub fn rollback(&mut self, dataset: &str) -> io::Result<u64> {
        let mut out = Vec::new();
        frame::encode_rollback(&mut out, dataset);
        self.send_raw(&out)?;
        let payload = self.expect_ok("rollback")?;
        let mut r = Reader::new(&payload);
        r.u64("rollback generation")
            .map_err(|e| bad_data(e.to_string()))
    }

    /// Asks the server to drain and stop.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        let mut out = Vec::new();
        frame::encode_shutdown(&mut out);
        self.send_raw(&out)?;
        self.expect_ok("shutdown").map(|_| ())
    }
}

/// Renders a binary route reply in the ASCII protocol's exact response
/// format (`OK <strategy> <n> <v0> …` / `NOROUTE` / `BUSY` / `ERR …`), so
/// tests can compare the two protocols byte-for-byte.
pub fn route_reply_to_line(reply: &RouteReply) -> String {
    match reply {
        RouteReply::Route { strategy, vertices } => {
            let label = RouteStrategy::ALL
                .get(*strategy as usize)
                .map(|s| s.label())
                .unwrap_or("?");
            let mut out = String::with_capacity(16 + vertices.len() * 7);
            out.push_str("OK ");
            out.push_str(label);
            out.push(' ');
            out.push_str(&vertices.len().to_string());
            for v in vertices {
                out.push(' ');
                out.push_str(&v.to_string());
            }
            out
        }
        RouteReply::NoRoute => "NOROUTE".to_string(),
        RouteReply::Busy => "BUSY".to_string(),
        RouteReply::DeadlineExceeded => "ERR deadline exceeded".to_string(),
        RouteReply::Err(message) => format!("ERR {message}"),
    }
}
