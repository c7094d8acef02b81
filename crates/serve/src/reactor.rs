//! The poll(2)-based readiness event loop behind [`crate::Server`].
//!
//! A fixed pool of event-loop threads (one per `worker`) multiplexes all
//! connections over non-blocking sockets: each loop polls its connections
//! plus the shared listener, reads whatever is ready, parses complete
//! requests out of per-connection buffers, and writes responses back as
//! sockets accept them.  No thread ever blocks on one client, so thousands
//! of idle keep-alive connections cost one `pollfd` each instead of a
//! pinned thread.
//!
//! ## Protocol auto-detection
//!
//! The first byte of a connection selects its protocol for life: the
//! binary frame magic starts with `0xB1` (not valid ASCII), anything else
//! is the legacy line protocol.
//!
//! ## One request path
//!
//! Both protocols parse into the same [`Request`] ([`parse_line`] /
//! [`decode_request`]) and run through one handler: a `route` joins the
//! loop's shared batch, every other verb (including a client-side
//! `route_batch`) executes inline under `catch_unwind` and builds one
//! [`Reply`], encoded for the connection's protocol.
//!
//! ## Pipelining and response ordering
//!
//! Clients may pipeline: each parsed request claims the next *slot* in the
//! connection's pending queue, and slots drain to the socket strictly in
//! claim order.  Inline commands (`ping`, `info`, …) fill their slot
//! immediately; `route` queries fill theirs when their batch executes —
//! later inline responses wait behind them, so responses always come back
//! in request order.
//!
//! ## Batching and load-shedding
//!
//! Admitted `route` queries from *all* connections of a loop coalesce into
//! one batch, flushed when it reaches [`BATCH_MAX`] or at the end of a poll
//! iteration, whichever is first — the natural batch is therefore
//! "whatever arrived while the previous batch was executing", which adapts
//! to load without holding any request back.  Batches run serially on the
//! loop's single pooled scratch, so a server never creates more scratches
//! than workers.  Queries that cannot win a slot in their dataset's
//! bounded admission queue are answered `BUSY` immediately (see
//! [`crate::queue`]).

// A request-path file: panics here are outages, not control flow (see the
// `no-panic-hot-path` rule of l2r-analyze).  The clippy pair of that gate:
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_core::{Engine, QueryScratch, RouteResult};
use l2r_road_network::VertexId;

use crate::faults::FaultPlan;
use crate::frame::{self, FrameParse};
use crate::health::DatasetHealth;
use crate::queue::DatasetQueue;
use crate::request::{decode_request, parse_line, Reply, Request, Wire};
use crate::{do_reload, panic_message, Counter, ServerConfig, ServerState};

/// A loop's shared route batch flushes at this size even mid-read, so
/// admission depth stays bounded by it under pipelined floods.
const BATCH_MAX: usize = 64;

/// Per-connection cap on unanswered pipelined requests; beyond it the loop
/// stops reading from the connection until responses drain (backpressure).
const MAX_PIPELINE_DEPTH: usize = 1024;

/// Stop reading a connection whose unparsed input exceeds this (resumes as
/// soon as the parser catches up).
const RBUF_SOFT_MAX: usize = 2 * (1 << 20);

/// Longest ASCII request line accepted, as in the PR 5 server.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Poll timeout while idle; bounds how stale the shutdown-flag check can
/// get.
const IDLE_POLL_MS: i32 = 50;

// ---------------------------------------------------------------------------
// poll(2) FFI (the workspace is dependency-free, so no libc crate)
//
// l2r: ffi-region begin — the only place in the workspace allowed to
// declare foreign functions (enforced by the `ffi-containment` rule of
// l2r-analyze); everything below is audited against the platform ABI.
// ---------------------------------------------------------------------------

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// Mirror of glibc's `struct pollfd` (`<bits/poll.h>`): three naturally
/// aligned fields, no padding, so `#[repr(C)]` on exactly `i32`/`i16`/`i16`
/// reproduces the kernel's layout bit for bit.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

// SAFETY: signatures transcribed from the platform ABI.  `poll(2)` is
// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)` where glibc
// defines `typedef unsigned long int nfds_t;` (<sys/poll.h>) — 8 bytes on
// LP64 Linux, exactly `std::ffi::c_ulong`, so passing `fds.len()` as
// `c_ulong` cannot truncate.  `setsockopt(2)` is
// `int setsockopt(int, int, int, const void *, socklen_t)` with
// `socklen_t` = `u32`.  Both are async-signal-safe libc symbols with no
// Rust-visible preconditions beyond pointer validity, which each call
// site justifies.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
    fn setsockopt(
        fd: std::ffi::c_int,
        level: std::ffi::c_int,
        optname: std::ffi::c_int,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> std::ffi::c_int;
}

// Linux values (the poll constants above are equally platform-specific).
const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
// l2r: ffi-region end

/// Shrinks a socket's kernel send buffer (best effort) — fault plans use
/// this to make write-stall detection testable with kilobytes of backlog
/// instead of the default multi-megabyte buffers.
fn set_sndbuf(stream: &TcpStream, bytes: u32) {
    let v = bytes as i32;
    // SAFETY: `stream` is a live socket owned by the caller, so its raw fd
    // is valid for the duration of the call; `&v` points at a stack `i32`
    // that outlives the call and `optlen` is exactly `size_of::<i32>()`,
    // matching what SO_SNDBUF expects.  The kernel only reads through the
    // pointer.  Failure is deliberately ignored (best effort).
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            &v as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// `poll(2)` with EINTR retry; a genuine failure is returned to the caller
/// (the loop treats it as "nothing ready").
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice, so the
        // pointer is valid for `fds.len()` `PollFd`s (layout-verified
        // `#[repr(C)]` above) for the whole call, and the kernel writes
        // only `revents` within those bounds.  `len as c_ulong` is the
        // exact `nfds_t` width (see the extern block's SAFETY note).
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Generation tag: batch items verify it before filling a slot, so a
    /// reused connection index can never receive a dead client's response.
    id: u64,
    /// What the connection speaks; `None` until its first byte arrives.
    wire: Option<Wire>,
    /// Received-but-unparsed bytes; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded-but-unsent response bytes; `wpos` is the sent prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// One slot per parsed request, drained to `wbuf` strictly in order.
    /// `None` = response not ready yet (a route waiting in a batch).
    pending: VecDeque<Option<Vec<u8>>>,
    /// Slot sequence number of `pending.front()`.
    base_seq: u64,
    /// Stop reading, flush what is pending, then close.
    closing: bool,
    /// When the connection last delivered bytes (drives idle reaping).
    last_activity: Instant,
    /// When the outbound backlog first exceeded the write-stall cap
    /// (`None` while below it); drives slow-loris disconnection.
    wstall_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Conn {
        Conn {
            stream,
            id,
            wire: None,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            base_seq: 0,
            closing: false,
            last_activity: Instant::now(),
            wstall_since: None,
        }
    }

    fn unparsed(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    /// Claims the next response slot, returning its sequence number.
    fn claim_slot(&mut self) -> u64 {
        self.pending.push_back(None);
        self.base_seq + self.pending.len() as u64 - 1
    }

    /// Claims a slot and fills it immediately (inline commands).
    fn push_response(&mut self, bytes: Vec<u8>) {
        self.pending.push_back(Some(bytes));
    }

    /// Fills a previously claimed slot.
    fn fill_slot(&mut self, seq: u64, bytes: Vec<u8>) {
        let idx = (seq - self.base_seq) as usize;
        debug_assert!(idx < self.pending.len());
        if let Some(slot) = self.pending.get_mut(idx) {
            debug_assert!(slot.is_none(), "slot {seq} filled twice");
            *slot = Some(bytes);
        }
    }

    /// Moves ready responses (in order) into the write buffer.
    fn drain_ready(&mut self) {
        while let Some(slot) = self.pending.front_mut() {
            // A `None` front is a response still being computed: stop —
            // later ready slots must wait behind it for ordering.
            let Some(bytes) = slot.take() else { break };
            self.pending.pop_front();
            self.base_seq += 1;
            self.wbuf.extend_from_slice(&bytes);
        }
    }

    /// Reads until `WouldBlock`, EOF, or the soft input cap.  Returns
    /// `Ok(true)` on EOF.  An injected short read delivers only a few
    /// bytes and returns early, so the parser sees a genuine fragment.
    fn try_read(&mut self, chunk: &mut [u8], faults: Option<&FaultPlan>) -> io::Result<bool> {
        loop {
            if self.unparsed() >= RBUF_SOFT_MAX {
                return Ok(false);
            }
            let cap = faults.and_then(|f| f.short_read_cap());
            let window = cap.unwrap_or(chunk.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..window]) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    if cap.is_some() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much of `wbuf` as the socket accepts right now.  An
    /// injected short write flushes only a few bytes and stops, leaving
    /// the rest buffered for the next readiness round.
    fn try_write(&mut self, faults: Option<&FaultPlan>) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            let cap = faults.and_then(|f| f.short_write_cap());
            let end = match cap {
                Some(c) => (self.wpos + c).min(self.wbuf.len()),
                None => self.wbuf.len(),
            };
            match self.stream.write(&self.wbuf[self.wpos..end]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    if cap.is_some() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reclaims consumed input-buffer space once the parser has caught up
    /// (or the consumed prefix got large).
    fn compact(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= 64 * 1024 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// The shared route batch
// ---------------------------------------------------------------------------

/// One admitted `route` query waiting for its batch to execute.
struct BatchItem {
    conn: usize,
    conn_id: u64,
    seq: u64,
    wire: Wire,
    engine: Arc<Engine>,
    queue: Arc<DatasetQueue>,
    src: VertexId,
    dst: VertexId,
    /// When this request's budget runs out; checked again at execution and
    /// before the reply is filled.
    deadline: Instant,
    /// The dataset's armed post-swap probation, if any: route outcomes are
    /// recorded against it, and spending its error budget triggers an
    /// automatic rollback (see [`crate::health`]).
    health: Option<Arc<DatasetHealth>>,
}

/// The absolute deadline of a request given its optional wire budget.
fn request_deadline(cfg: &ServerConfig, deadline_ms: Option<u32>) -> Instant {
    let budget = deadline_ms
        .map(|ms| Duration::from_millis(ms as u64))
        .unwrap_or(cfg.default_deadline);
    Instant::now() + budget
}

/// A protocol error: counted in `errors`, answered `ERR <message>`.
fn fail(state: &ServerState, message: String) -> Reply {
    state.stats.add(Counter::Errors, 1);
    Reply::Err(message)
}

fn unknown_dataset(state: &ServerState, dataset: &str) -> Reply {
    fail(state, format!("unknown dataset `{dataset}`"))
}

/// Records one route outcome against a dataset's armed probation (if any)
/// and fires the automatic rollback the moment the error budget is spent.
/// Only internal errors (handler panics) count against the model —
/// deadline expiries and shedding never reach this.
fn record_health(state: &ServerState, health: &Option<Arc<DatasetHealth>>, internal_error: bool) {
    if let Some(h) = health {
        if h.record(internal_error) {
            state.trigger_auto_rollback(h);
        }
    }
}

/// Runs one route under panic isolation, with fault hooks.  A handler
/// panic costs exactly this request: the (possibly poisoned) scratch is
/// discarded, `panics_caught` counts the catch, and the caller gets a
/// request-scoped `internal` error message.
fn isolated_route(
    state: &ServerState,
    faults: Option<&FaultPlan>,
    engine: &Engine,
    scratch: &mut QueryScratch,
    src: VertexId,
    dst: VertexId,
) -> Result<Option<RouteResult>, String> {
    isolated(state, scratch, |scratch| {
        if let Some(f) = faults {
            if let Some(latency) = f.inject_handler_latency() {
                std::thread::sleep(latency);
            }
            if f.inject_handler_panic() {
                // l2r: allow(no-panic-hot-path) — fault injection: this
                // panic exists to prove the catch_unwind isolation works.
                panic!("injected handler fault");
            }
        }
        engine.route(scratch, src, dst)
    })
}

/// Runs `f` under `catch_unwind`.  A panic is counted in `panics_caught`,
/// replaces the (possibly mid-search) scratch with a fresh one — a plain
/// swap, so the pool's created count stays put — and becomes the
/// request-scoped `internal` error message.
fn isolated<T>(
    state: &ServerState,
    scratch: &mut QueryScratch,
    f: impl FnOnce(&mut QueryScratch) -> T,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| f(scratch))).map_err(|payload| {
        *scratch = QueryScratch::new();
        state.stats.add(Counter::PanicsCaught, 1);
        format!("internal: handler panicked: {}", panic_message(&payload))
    })
}

/// Executes and answers every queued route query, releasing admissions.
/// Deadlines are enforced per item before *and* after execution; a
/// handler panic is confined to the item that raised it.
fn flush_batch(
    state: &ServerState,
    faults: Option<&FaultPlan>,
    batch: &mut Vec<BatchItem>,
    conns: &mut [Option<Conn>],
    scratch: &mut QueryScratch,
) {
    if batch.is_empty() {
        return;
    }
    state.stats.add(Counter::Batches, 1);
    let mut executed = 0u64;
    let mut answered = 0u64;
    let mut expired = 0u64;
    for item in batch.drain(..) {
        // The generation tag defeats connection-index reuse: a closed
        // client's query is dropped, never answered to its successor.
        let live = conns
            .get_mut(item.conn)
            .and_then(|slot| slot.as_mut())
            .filter(|c| c.id == item.conn_id);
        if let Some(conn) = live {
            let reply = if Instant::now() >= item.deadline {
                expired += 1;
                Reply::DeadlineExceeded
            } else {
                match isolated_route(state, faults, &item.engine, scratch, item.src, item.dst) {
                    Ok(result) => {
                        executed += 1;
                        record_health(state, &item.health, false);
                        if Instant::now() >= item.deadline {
                            expired += 1;
                            Reply::DeadlineExceeded
                        } else {
                            answered += u64::from(result.is_some());
                            Reply::Route(result)
                        }
                    }
                    Err(message) => {
                        record_health(state, &item.health, true);
                        Reply::Err(message)
                    }
                }
            };
            conn.fill_slot(item.seq, reply.encode(item.wire));
        }
        item.queue.release(1);
    }
    state.stats.add(Counter::Queries, executed);
    state.stats.add(Counter::Answered, answered);
    state.stats.add(Counter::DeadlineExceeded, expired);
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// Outcome of one `process_conn` pass.
#[derive(PartialEq, Eq)]
enum Progress {
    /// Parsed everything currently parseable.
    Done,
    /// Stopped because the batch hit [`BATCH_MAX`]; flush and call again.
    BatchFull,
}

/// Admits one route query into the batch, claiming its response slot.
/// Returns the immediate reply instead when the query cannot be admitted:
/// `DeadlineExceeded` for an already expired budget (admission-time
/// enforcement, no queue slot taken) or `BUSY` for a full queue.
#[allow(clippy::too_many_arguments)]
fn enqueue_route(
    state: &ServerState,
    batch: &mut Vec<BatchItem>,
    conn: &mut Conn,
    ci: usize,
    wire: Wire,
    dataset: &str,
    engine: Arc<Engine>,
    src: VertexId,
    dst: VertexId,
    deadline: Instant,
) -> Option<Reply> {
    if Instant::now() >= deadline {
        state.stats.add(Counter::DeadlineExceeded, 1);
        return Some(Reply::DeadlineExceeded);
    }
    let queue = state.queues.get(dataset);
    if !queue.try_admit(1) {
        state.stats.add(Counter::Shed, 1);
        return Some(Reply::Busy);
    }
    batch.push(BatchItem {
        conn: ci,
        conn_id: conn.id,
        seq: conn.claim_slot(),
        wire,
        engine,
        queue,
        src,
        dst,
        deadline,
        health: state.health.watch(dataset),
    });
    None
}

/// Executes a client-side `route_batch` inline as one unit: the batch is
/// expired or shed as a whole, and must win admission for all its queries.
/// The reply format has no per-item error slot, so the first handler panic
/// fails the whole request (request-scoped).
fn route_batch(
    state: &ServerState,
    cfg: &ServerConfig,
    faults: Option<&FaultPlan>,
    scratch: &mut QueryScratch,
    dataset: &str,
    pairs: &[(VertexId, VertexId)],
    deadline_ms: Option<u32>,
) -> Reply {
    let Some(engine) = state.registry.get(dataset) else {
        return unknown_dataset(state, dataset);
    };
    let n = pairs.len() as u64;
    if Instant::now() >= request_deadline(cfg, deadline_ms) {
        state.stats.add(Counter::DeadlineExceeded, n);
        return Reply::DeadlineExceeded;
    }
    let queue = state.queues.get(dataset);
    if !queue.try_admit(pairs.len()) {
        state.stats.add(Counter::Shed, n);
        return Reply::Busy;
    }
    let health = state.health.watch(dataset);
    let mut items = Vec::with_capacity(pairs.len());
    let mut internal = None;
    for &(src, dst) in pairs {
        let outcome = isolated_route(state, faults, &engine, scratch, src, dst);
        record_health(state, &health, outcome.is_err());
        match outcome {
            Ok(result) => {
                items.push(result.map(|r| (r.strategy, r.path.vertices().len() as u32)));
            }
            Err(message) => {
                internal = Some(message);
                break;
            }
        }
    }
    queue.release(pairs.len());
    state.stats.add(Counter::Queries, items.len() as u64);
    state
        .stats
        .add(Counter::Answered, items.iter().flatten().count() as u64);
    match internal {
        Some(message) => Reply::Err(message),
        None => Reply::Batch(items),
    }
}

/// Runs one parsed (or unparseable) request of either protocol and queues
/// its reply.  A `route` joins the loop's shared batch; every other verb
/// answers inline under panic isolation: a panicking handler answers
/// `ERR internal …` and the connection (and loop) live on.  Returns `true`
/// if the request was `shutdown`.
#[allow(clippy::too_many_arguments)]
fn run_request(
    state: &ServerState,
    cfg: &ServerConfig,
    faults: Option<&FaultPlan>,
    batch: &mut Vec<BatchItem>,
    conn: &mut Conn,
    ci: usize,
    scratch: &mut QueryScratch,
    wire: Wire,
    request: Result<Request<'_>, String>,
) -> bool {
    let request = match request {
        Ok(request) => request,
        Err(message) => {
            conn.push_response(fail(state, message).encode(wire));
            return false;
        }
    };
    let shutdown = matches!(request, Request::Shutdown);
    let reply = isolated(state, scratch, |scratch| match request {
        Request::Route {
            dataset,
            src,
            dst,
            deadline_ms,
        } => match state.registry.get(dataset) {
            Some(engine) => {
                let deadline = request_deadline(cfg, deadline_ms);
                enqueue_route(
                    state, batch, conn, ci, wire, dataset, engine, src, dst, deadline,
                )
            }
            None => Some(unknown_dataset(state, dataset)),
        },
        Request::RouteBatch {
            dataset,
            pairs,
            deadline_ms,
        } => Some(route_batch(
            state,
            cfg,
            faults,
            scratch,
            dataset,
            &pairs,
            deadline_ms,
        )),
        Request::Ping => Some(Reply::Ack("pong")),
        Request::Info { dataset } => Some(match state.registry.get(dataset) {
            Some(engine) => Reply::Info {
                dataset: dataset.to_string(),
                vertices: engine.network().num_vertices() as u64,
                edges: engine.network().num_edges() as u64,
                regions: engine.region_graph().num_regions() as u64,
                connectors: engine.num_connectors() as u64,
                generation: state.registry.generation(dataset).unwrap_or(0),
            },
            None => unknown_dataset(state, dataset),
        }),
        Request::Stats => Some(Reply::Stats {
            line: state.stats_line(),
            fields: state.stats_fields(),
        }),
        Request::Reload {
            dataset,
            path,
            spec,
        } => Some(match do_reload(state, dataset, path, spec) {
            Ok(generation) => Reply::Generation {
                dataset: dataset.to_string(),
                generation,
            },
            // The registry kept the previous engine; tell the operator
            // why the swap did not happen.
            Err(message) => fail(state, message),
        }),
        Request::Rollback { dataset } => Some(match state.rollback(dataset) {
            Ok(generation) => Reply::Generation {
                dataset: dataset.to_string(),
                generation,
            },
            Err(message) => fail(state, message),
        }),
        Request::Shutdown => Some(Reply::Ack("bye")),
    })
    .unwrap_or_else(|message| Some(Reply::Err(message)));
    if let Some(reply) = reply {
        conn.push_response(reply.encode(wire));
    }
    shutdown
}

/// Parses and handles every complete request in `conn`'s input buffer,
/// stopping early (with [`Progress::BatchFull`]) when the shared batch
/// needs flushing.
fn process_conn(
    state: &ServerState,
    cfg: &ServerConfig,
    faults: Option<&FaultPlan>,
    batch: &mut Vec<BatchItem>,
    conn: &mut Conn,
    ci: usize,
    scratch: &mut QueryScratch,
) -> Progress {
    while !conn.closing && conn.unparsed() > 0 {
        if batch.len() >= BATCH_MAX {
            return Progress::BatchFull;
        }
        let first = conn.rbuf[conn.rpos];
        let wire = *conn.wire.get_or_insert(if first == frame::FRAME_MAGIC[0] {
            Wire::Binary
        } else {
            Wire::Ascii
        });
        let shutdown = match wire {
            Wire::Ascii => {
                let buf = &conn.rbuf[conn.rpos..];
                let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                    if buf.len() > MAX_REQUEST_LINE {
                        let reply = fail(state, "request line exceeds the size limit".into());
                        conn.push_response(reply.encode(wire));
                        conn.closing = true;
                    }
                    break;
                };
                let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
                conn.rpos += nl + 1;
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let request = parse_line(line);
                run_request(state, cfg, faults, batch, conn, ci, scratch, wire, request)
            }
            Wire::Binary => match frame::parse_frame(&conn.rbuf[conn.rpos..]) {
                FrameParse::Incomplete => break,
                FrameParse::Frame {
                    kind,
                    payload,
                    consumed,
                } => {
                    // The payload borrows the input buffer while the
                    // handler needs `&mut Conn`: copy it out (requests are
                    // small; responses dominate traffic).
                    let payload = payload.to_vec();
                    conn.rpos += consumed;
                    let request = decode_request(kind, &payload);
                    run_request(state, cfg, faults, batch, conn, ci, scratch, wire, request)
                }
                FrameParse::Bad(e) => {
                    // Framing violations are connection-fatal: one final
                    // ERR frame, then close (the stream cannot resync).
                    conn.push_response(fail(state, e.to_string()).encode(wire));
                    conn.closing = true;
                    break;
                }
            },
        };
        if shutdown {
            conn.closing = true;
            state.request_shutdown();
        }
    }
    conn.compact();
    Progress::Done
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Keeps the server-wide open-connection gauge honest for one event loop:
/// every accept adds, every drop subtracts, and — critically — an unwinding
/// loop (injected worker kill, or a bug that escapes request isolation)
/// subtracts everything it still owned on `Drop`, so a respawned worker
/// starts from a truthful gauge and drains leave it at exactly zero.
struct OpenConns<'a> {
    gauge: &'a AtomicUsize,
    owned: usize,
}

impl<'a> OpenConns<'a> {
    fn new(gauge: &'a AtomicUsize) -> OpenConns<'a> {
        OpenConns { gauge, owned: 0 }
    }

    /// Claims a connection slot unless the server-wide cap is reached.
    fn try_add(&mut self, cap: usize) -> bool {
        let won = self
            .gauge
            // ordering: SeqCst — the gauge is a cross-loop admission
            // control read by drains and the connection cap; the cheap
            // accept path keeps the strongest ordering so cap enforcement
            // can never observe a stale count.
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if won {
            self.owned += 1;
        }
        won
    }

    fn remove(&mut self) {
        debug_assert!(self.owned > 0);
        self.owned -= 1;
        // ordering: SeqCst — pairs with try_add; drains poll this gauge
        // for zero, so releases must be globally ordered with claims.
        self.gauge.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for OpenConns<'_> {
    fn drop(&mut self) {
        // ordering: SeqCst — pairs with try_add/remove; an unwinding loop
        // must publish its released slots before the watchdog respawns it.
        self.gauge.fetch_sub(self.owned, Ordering::SeqCst);
    }
}

/// Runs one event loop until shutdown completes.  `workers` of these share
/// the (non-blocking) listener.
pub(crate) fn event_loop(listener: TcpListener, state: &ServerState, cfg: &ServerConfig) {
    let _ = listener.set_nonblocking(true);
    let faults = cfg.faults.as_deref();
    // Exactly one pooled scratch per event loop, for the life of the loop:
    // peak pool size can never exceed the worker count.
    let mut scratch = state.scratch.acquire();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut open = OpenConns::new(&state.open_conns);
    let mut batch: Vec<BatchItem> = Vec::new();
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut poll_conns: Vec<usize> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next_id: u64 = 1;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let shutting_down = state.shutdown_requested();
        if shutting_down {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + cfg.drain_deadline);
            // The batch is always flushed by the end of an iteration, so
            // idle connections mean nothing is left to answer.
            let all_idle = conns
                .iter()
                .flatten()
                .all(|c| c.wbuf.is_empty() && c.pending.is_empty());
            if all_idle || Instant::now() >= deadline {
                break;
            }
        }

        // 1. Poll the listener plus every live connection.
        pollfds.clear();
        poll_conns.clear();
        pollfds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (ci, slot) in conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let mut events = 0i16;
            let throttled =
                conn.pending.len() >= MAX_PIPELINE_DEPTH || conn.unparsed() >= RBUF_SOFT_MAX;
            if !conn.closing && !shutting_down && !throttled {
                events |= POLLIN;
            }
            if conn.wpos < conn.wbuf.len() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            poll_conns.push(ci);
        }
        let timeout_ms = if shutting_down { 5 } else { IDLE_POLL_MS };
        if poll_fds(&mut pollfds, timeout_ms).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }

        // 2. Accept whatever is queued (connections stick to this loop).
        if pollfds[0].revents & (POLLIN | POLLERR) != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Re-check the flag per accept: a drain that began
                        // mid-burst must refuse the rest of the burst.
                        if state.shutdown_requested() {
                            // Keep draining the backlog so the listener
                            // does not stay readable all through shutdown.
                            drop(stream);
                            continue;
                        }
                        if let Some(f) = faults {
                            if f.inject_worker_kill() {
                                // l2r: allow(no-panic-hot-path) — fault
                                // injection: proves watchdog respawn works.
                                panic!("injected worker kill");
                            }
                            if f.inject_conn_drop() {
                                drop(stream);
                                continue;
                            }
                            if let Some(bytes) = f.config().sndbuf {
                                set_sndbuf(&stream, bytes);
                            }
                        }
                        if !open.try_add(cfg.max_connections) {
                            // Accept-time shedding: over the cap, close
                            // immediately rather than queue unbounded fds.
                            state.stats.add(Counter::ConnsRejected, 1);
                            drop(stream);
                            continue;
                        }
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        state.stats.add(Counter::Connections, 1);
                        let conn = Conn::new(stream, next_id);
                        next_id += 1;
                        match free.pop() {
                            Some(ci) => conns[ci] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 3. Read + parse connections with fresh bytes *or* a backlog of
        //    unparsed input (a previously throttled pipeline must resume
        //    without waiting for new bytes); flush the batch whenever it
        //    fills so queue depth stays bounded by `BATCH_MAX`.
        for (pi, &ci) in poll_conns.iter().enumerate() {
            let revents = pollfds[pi + 1].revents;
            let readable = revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0;
            let backlog = conns[ci]
                .as_ref()
                .is_some_and(|c| c.unparsed() > 0 && !c.closing);
            if !readable && !backlog {
                continue;
            }
            let mut eof = false;
            if readable {
                let Some(conn) = conns[ci].as_mut() else {
                    continue;
                };
                match conn.try_read(&mut chunk, faults) {
                    Ok(e) => eof = e,
                    Err(_) => {
                        // Hard read error (reset): nothing more to deliver.
                        conns[ci] = None;
                        open.remove();
                        free.push(ci);
                        continue;
                    }
                }
            }
            while let Some(conn) = conns[ci].as_mut() {
                match process_conn(state, cfg, faults, &mut batch, conn, ci, &mut scratch) {
                    Progress::Done => break,
                    Progress::BatchFull => {
                        flush_batch(state, faults, &mut batch, &mut conns, &mut scratch)
                    }
                }
            }
            if eof {
                if let Some(conn) = conns[ci].as_mut() {
                    conn.closing = true;
                }
            }
        }

        // 4. Answer whatever this round admitted.
        flush_batch(state, faults, &mut batch, &mut conns, &mut scratch);

        // 5. Connection hygiene: disconnect write-stalled (slow-loris)
        //    peers whose outbound backlog has sat above the cap for too
        //    long, and reap connections idle past the timeout.
        let now = Instant::now();
        for (ci, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let outstanding = conn.wbuf.len() - conn.wpos;
            if outstanding > cfg.write_stall_cap {
                let stalled_since = *conn.wstall_since.get_or_insert(now);
                if now.duration_since(stalled_since) >= cfg.write_stall_timeout {
                    state.stats.add(Counter::WriteStalls, 1);
                    *slot = None;
                    open.remove();
                    free.push(ci);
                    continue;
                }
            } else {
                conn.wstall_since = None;
            }
            if !shutting_down
                && !conn.closing
                && !cfg.idle_timeout.is_zero()
                && conn.pending.is_empty()
                && conn.wbuf.is_empty()
                && conn.unparsed() == 0
                && now.duration_since(conn.last_activity) >= cfg.idle_timeout
            {
                state.stats.add(Counter::IdleReaped, 1);
                *slot = None;
                open.remove();
                free.push(ci);
            }
        }

        // 6. Drain in-order responses into write buffers and push bytes.
        for (ci, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            conn.drain_ready();
            let write_failed = conn.wpos < conn.wbuf.len() && conn.try_write(faults).is_err();
            let fully_drained = conn.closing && conn.wbuf.is_empty() && conn.pending.is_empty();
            if write_failed || fully_drained {
                *slot = None;
                open.remove();
                free.push(ci);
            }
        }
    }
}
