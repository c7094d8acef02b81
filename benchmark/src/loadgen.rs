//! The benchmark's own load generator: one raw `TcpStream` speaking the
//! binary frame protocol, with `l2r_serve::frame` used only to encode
//! requests and decode replies.
//!
//! * A **closed loop** keeps a fixed window of route requests in flight and
//!   sends the next one only when a reply arrives (callers that wait).
//! * An **open loop** sends on a fixed schedule whatever the replies do
//!   (independent users).  Each request is timed both from when it was
//!   *due*, so a stall is charged to every request queued behind it, and
//!   from when it was *sent*, which leaves out the sender's own lateness.
//!   The sender sleeps until the next request is due and writes every
//!   overdue request in one `write`: a spinning sender would take one of
//!   the host's two cores from the server.
//!
//! Every reply is checked against the precomputed engine answer for its
//! pair; reload frames can ride in-band on the same connection.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use l2r_road_network::codec::Reader;
use l2r_serve::frame::{self, FrameParse, RouteReply, Status};

/// Expected answer of one query pair: `(strategy index, vertex ids)`, or
/// `None` when the engine finds no route.
pub type Expected = Option<(u8, Vec<u32>)>;

/// How long a read or write may block before the connection counts as dead.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// What the load generator sends: a route for a pair index, or an in-band
/// reload of a store generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// `route` for `Target::pairs[index]`.
    Route(u32),
    /// `reload <dataset> <store> <generation>`.
    Reload(u64),
}

/// The server-side names and the answers replies are checked against.
#[derive(Debug)]
pub struct Target<'a> {
    /// Dataset name the model is registered under.
    pub dataset: &'a str,
    /// Distinct query pairs; route items index into this.
    pub pairs: &'a [(u32, u32)],
    /// Expected answer per pair.
    pub expected: &'a [Expected],
    /// Model-store directory reload frames name.
    pub store: &'a str,
}

impl Target<'_> {
    fn encode(&self, item: Item, out: &mut Vec<u8>) {
        match item {
            Item::Route(i) => {
                let (s, d) = self.pairs[i as usize];
                frame::encode_route(out, self.dataset, s, d);
            }
            Item::Reload(generation) => frame::encode_reload_spec(
                out,
                self.dataset,
                self.store,
                Some(&generation.to_string()),
            ),
        }
    }

    /// Checks a reply to `item`, counts it, and returns whether it was right.
    pub fn verify(&self, item: Item, reply: &RawReply, tally: &mut Tally) -> bool {
        tally.record(self.check(item, reply.0, &reply.1))
    }

    /// Checks one reply against `item`.
    fn check(&self, item: Item, kind: u8, payload: &[u8]) -> Result<(), Failure> {
        let status = Status::from_u8(kind).ok_or(Failure::Mismatch)?;
        match item {
            Item::Reload(_) => match status {
                Status::Ok => Reader::new(payload)
                    .u64("generation")
                    .map(|_| ())
                    .map_err(|_| Failure::Mismatch),
                _ => Err(Failure::NoAnswer),
            },
            Item::Route(i) => {
                let reply =
                    frame::decode_route_reply(status, payload).map_err(|_| Failure::Mismatch)?;
                let expected = &self.expected[i as usize];
                match (reply, expected) {
                    (RouteReply::Route { strategy, vertices }, Some((s, v)))
                        if strategy == *s && vertices == *v =>
                    {
                        Ok(())
                    }
                    (RouteReply::NoRoute, None) => Ok(()),
                    (RouteReply::Busy | RouteReply::DeadlineExceeded | RouteReply::Err(_), _) => {
                        Err(Failure::NoAnswer)
                    }
                    _ => Err(Failure::Mismatch),
                }
            }
        }
    }
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy)]
enum Failure {
    /// `ERR` (internal or not), `BUSY`, deadline exceeded, or lost to a
    /// connection failure.
    NoAnswer,
    /// An answer that differs from the expected one.
    Mismatch,
}

/// Counts of attempted and failed operations.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, for any reason.
    pub failed: u64,
    /// Of the failed ones, those answered wrongly.
    pub mismatch: u64,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), Failure>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => return true,
            Err(Failure::NoAnswer) => self.failed += 1,
            Err(Failure::Mismatch) => {
                self.failed += 1;
                self.mismatch += 1;
            }
        }
        false
    }

    /// Counts an operation that failed outside the wire protocol.
    pub fn record_failure(&mut self) {
        self.record(Err(Failure::Mismatch));
    }

    /// Counts an operation that succeeded outside the wire protocol.
    pub fn record_success(&mut self) {
        self.record(Ok(()));
    }
}

/// Receive buffer that hands out complete frames.
#[derive(Debug)]
struct Inbox {
    buf: Vec<u8>,
    len: usize,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            buf: vec![0; 1 << 16],
            len: 0,
        }
    }

    /// One blocking read; every complete frame goes to `on_frame` in order.
    fn pump(
        &mut self,
        stream: &mut TcpStream,
        mut on_frame: impl FnMut(u8, &[u8]),
    ) -> io::Result<()> {
        if self.len == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = stream.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.len += n;
        let mut pos = 0;
        loop {
            match frame::parse_frame(&self.buf[pos..self.len]) {
                FrameParse::Frame {
                    kind,
                    payload,
                    consumed,
                } => {
                    on_frame(kind, payload);
                    pos += consumed;
                }
                FrameParse::Incomplete => break,
                FrameParse::Bad(e) => return Err(io::Error::other(e)),
            }
        }
        self.buf.copy_within(pos..self.len, 0);
        self.len -= pos;
        Ok(())
    }
}

/// Opens the data connection.
pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// A reply as it came off the wire: status byte and payload.
pub type RawReply = (u8, Vec<u8>);

/// Sends one request and waits for its reply; returns the round trip and
/// the unchecked reply (see [`Target::verify`]).
pub fn request(
    stream: &mut TcpStream,
    target: &Target<'_>,
    item: Item,
) -> io::Result<(Duration, RawReply)> {
    let mut out = Vec::new();
    target.encode(item, &mut out);
    let t0 = Instant::now();
    stream.write_all(&out)?;
    let mut inbox = Inbox::new();
    let mut reply = None;
    while reply.is_none() {
        inbox.pump(stream, |kind, payload| {
            reply = Some((kind, payload.to_vec()));
        })?;
    }
    let took = t0.elapsed();
    Ok((took, reply.unwrap_or_default()))
}

/// Result of one closed-loop segment.
#[derive(Debug, Clone)]
pub struct ClosedSegment {
    /// Route replies completed inside the segment's window.
    pub completed: u64,
    /// Length of the window in seconds.
    pub seconds: f64,
    /// Route requests sent.
    pub sent: u64,
}

/// Runs one closed-loop segment of `length` with `window` route requests
/// in flight; `next_pair` yields the query stream.
pub fn closed_segment(
    stream: &mut TcpStream,
    target: &Target<'_>,
    next_pair: &mut impl FnMut() -> u32,
    window: usize,
    length: Duration,
    tally: &mut Tally,
) -> io::Result<ClosedSegment> {
    let mut inbox = Inbox::new();
    let mut pending: VecDeque<u32> = VecDeque::with_capacity(window);
    let mut out = Vec::with_capacity(window * 32);
    let end = Instant::now() + length;
    let mut seg = ClosedSegment {
        completed: 0,
        seconds: length.as_secs_f64(),
        sent: 0,
    };
    let mut to_send = window;
    while to_send > 0 || !pending.is_empty() {
        for _ in 0..to_send {
            let pair = next_pair();
            target.encode(Item::Route(pair), &mut out);
            pending.push_back(pair);
            seg.sent += 1;
        }
        if !out.is_empty() {
            stream.write_all(&out)?;
            out.clear();
        }
        let mut replies = 0usize;
        let pumped = inbox.pump(stream, |kind, payload| {
            let Some(pair) = pending.pop_front() else {
                tally.record(Err(Failure::Mismatch));
                return;
            };
            tally.record(target.check(Item::Route(pair), kind, payload));
            replies += 1;
        });
        if let Err(e) = pumped {
            for _ in 0..pending.len() {
                tally.record(Err(Failure::NoAnswer));
            }
            return Err(e);
        }
        if Instant::now() <= end {
            seg.completed += replies as u64;
            to_send = replies;
        } else {
            to_send = 0;
        }
    }
    Ok(seg)
}

/// Result of one open-loop segment.
#[derive(Debug, Clone, Default)]
pub struct OpenSegment {
    /// Due → reply time of every route request in microseconds; failed
    /// requests read `+∞`.
    pub latency_us: Vec<f64>,
    /// Send → reply time of every route request in microseconds; failed
    /// requests read `+∞`.
    pub service_us: Vec<f64>,
    /// How far each route request's send trailed its due time, in µs.
    pub late_us: Vec<f64>,
    /// Every in-band reload: when it was due and how long until its reply.
    pub reloads: Vec<(Instant, Duration)>,
    /// Most requests in flight at any send.
    pub in_flight_max: usize,
}

/// Runs one open-loop segment over `schedule` (due offsets in ns, sorted).
/// One thread sends, the calling thread receives and checks.
pub fn open_segment(
    stream: &TcpStream,
    target: &Target<'_>,
    schedule: &[(u64, Item)],
    tally: &mut Tally,
) -> io::Result<OpenSegment> {
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    // A little lead so the first requests are not born late.
    let start = Instant::now() + Duration::from_millis(2);
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;

    let (sent_ns, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<u64>> {
            let mut sent_ns = Vec::with_capacity(schedule.len());
            let mut out = Vec::with_capacity(4096);
            let mut i = 0;
            while i < schedule.len() {
                let now = ns(Instant::now());
                let due = schedule[i].0;
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                    continue;
                }
                while i < schedule.len() && schedule[i].0 <= now {
                    target.encode(schedule[i].1, &mut out);
                    i += 1;
                }
                sent_ns.resize(i, ns(Instant::now()));
                writer.write_all(&out)?;
                out.clear();
            }
            Ok(sent_ns)
        });
        let mut inbox = Inbox::new();
        let mut received: Vec<(u64, Result<(), Failure>)> = Vec::with_capacity(schedule.len());
        let mut failure = None;
        while received.len() < schedule.len() {
            if let Err(e) = inbox.pump(&mut reader, |kind, payload| {
                let at = ns(Instant::now());
                match schedule.get(received.len()) {
                    Some(&(_, item)) => received.push((at, target.check(item, kind, payload))),
                    None => failure = Some(io::Error::other("reply without a request")),
                }
            }) {
                failure = Some(e);
            }
            if failure.is_some() {
                // Unblock a sender stuck behind a dead connection.
                let _ = reader.shutdown(Shutdown::Both);
                break;
            }
        }
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("sender thread panicked")));
        match failure {
            Some(e) => Err(e),
            None => sent.map(|s| (s, received)),
        }
    })
    .inspect_err(|_| {
        for _ in 0..schedule.len() {
            tally.record(Err(Failure::NoAnswer));
        }
    })?;

    let mut seg = OpenSegment::default();
    let mut replied_by_send = 0usize;
    for (k, (&(due, item), &(at, outcome))) in schedule.iter().zip(&received).enumerate() {
        let ok = tally.record(outcome);
        while replied_by_send < received.len() && received[replied_by_send].0 <= sent_ns[k] {
            replied_by_send += 1;
        }
        seg.in_flight_max = seg
            .in_flight_max
            .max((k + 1).saturating_sub(replied_by_send));
        let waited = at.saturating_sub(due);
        match item {
            Item::Route(_) => {
                let us = |from: u64| {
                    if ok {
                        at.saturating_sub(from) as f64 / 1e3
                    } else {
                        f64::INFINITY
                    }
                };
                seg.latency_us.push(us(due));
                seg.service_us.push(us(sent_ns[k]));
                seg.late_us
                    .push(sent_ns[k].saturating_sub(due) as f64 / 1e3);
            }
            Item::Reload(_) => seg.reloads.push((
                start + Duration::from_nanos(due),
                Duration::from_nanos(waited),
            )),
        }
    }
    Ok(seg)
}
