//! Concurrency regressions for the event-driven core: hundreds of idle
//! keep-alive connections must not starve active ones, and pipelined
//! requests must be answered strictly in request order.

mod common;

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use l2r_core::QueryScratch;
use l2r_road_network::VertexId;
use l2r_serve::frame::{self, parse_frame, FrameParse, Status};
use l2r_serve::{
    format_route_response, route_reply_to_line, BinClient, Client, Counter, ServerConfig,
};

const DEADLINE: Duration = Duration::from_secs(30);

#[test]
fn idle_connections_do_not_starve_active_ones() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // A wall of idle keep-alive connections, parked on the event loops.
    let idle: Vec<TcpStream> = (0..256)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i} failed: {e}"))
        })
        .collect();

    // Active pipelined clients must all finish well within the deadline
    // even though the loops are also polling 256 dead-weight sockets.
    let started = Instant::now();
    let vertices = state
        .registry()
        .get(common::DATASET)
        .unwrap()
        .network()
        .num_vertices() as u32;
    let answered: usize = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..8u32 {
            joins.push(scope.spawn(move || {
                let mut bin = BinClient::connect(addr).expect("active connect");
                let pairs: Vec<(u32, u32)> = (0..100u32)
                    .map(|i| {
                        let s = (t * 1_000 + i * 37) % vertices;
                        let d = (t * 2_003 + i * 91 + 1) % vertices;
                        (s, d)
                    })
                    .filter(|(s, d)| s != d)
                    .collect();
                let replies = bin
                    .route_pipelined(common::DATASET, &pairs, 16)
                    .expect("pipelined routes");
                assert_eq!(replies.len(), pairs.len());
                replies.len()
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).sum()
    });
    assert!(answered >= 700, "only {answered} replies");
    assert!(
        started.elapsed() < DEADLINE,
        "active clients took {:?} with idle connections parked",
        started.elapsed()
    );

    // The idle connections survived all of it: a late request on one of
    // them is still answered.
    let mut late = Client::from_stream(idle.into_iter().next().unwrap()).unwrap();
    assert_eq!(late.request("ping").unwrap(), "OK pong");

    handle.shutdown().unwrap();
    assert!(state.stats().get(Counter::Queries) >= answered as u64);
}

#[test]
fn pipelined_responses_preserve_request_order() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let engine = state.registry().get(common::DATASET).unwrap();
    let vertices = engine.network().num_vertices() as u32;
    let mut scratch = QueryScratch::new();

    // Distinct pipelined route queries: each reply must match the locally
    // computed answer for *its* request, in order.
    let mut bin = BinClient::connect(addr).unwrap();
    let pairs: Vec<(u32, u32)> = (0..64u32)
        .map(|i| ((i * 53 + 2) % vertices, (i * 29 + 7) % vertices))
        .filter(|(s, d)| s != d)
        .collect();
    let replies = bin
        .route_pipelined(common::DATASET, &pairs, 64)
        .expect("pipelined");
    for (&(s, d), reply) in pairs.iter().zip(replies.iter()) {
        let expected = format_route_response(&engine.route(&mut scratch, VertexId(s), VertexId(d)));
        assert_eq!(
            route_reply_to_line(reply),
            expected,
            "reply for {s}->{d} out of order or wrong"
        );
    }

    // Inline commands interleaved with batched routes share the same
    // ordered response stream: route, ping, route, stats must come back
    // exactly in that order even though pings are answered inline and
    // routes go through the batch.
    let mut buf = Vec::new();
    frame::encode_route(&mut buf, common::DATASET, pairs[0].0, pairs[0].1);
    frame::encode_ping(&mut buf);
    frame::encode_route(&mut buf, common::DATASET, pairs[1].0, pairs[1].1);
    frame::encode_stats(&mut buf);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(DEADLINE)).unwrap();
    std::io::Write::write_all(&mut s, &buf).unwrap();
    let mut acc = Vec::new();
    let mut frames = Vec::new();
    let mut chunk = [0u8; 4096];
    while frames.len() < 4 {
        let n = s.read(&mut chunk).expect("interleaved replies");
        assert!(n > 0, "connection closed early");
        acc.extend_from_slice(&chunk[..n]);
        let mut pos = 0;
        while let FrameParse::Frame {
            kind,
            payload,
            consumed,
        } = parse_frame(&acc[pos..])
        {
            frames.push((kind, payload.to_vec()));
            pos += consumed;
        }
        acc.drain(..pos);
    }
    let route_kind = |k: u8| k == Status::Ok as u8 || k == Status::NoRoute as u8;
    assert!(route_kind(frames[0].0), "first reply must be the route");
    assert_eq!(frames[1].0, Status::Ok as u8);
    assert!(frames[1].1.is_empty(), "second reply must be the ping");
    assert!(route_kind(frames[2].0), "third reply must be the route");
    assert_eq!(frames[3].0, Status::Ok as u8);
    assert!(
        String::from_utf8_lossy(&frames[3].1).contains("uptime_ms="),
        "fourth reply must be the stats line"
    );

    handle.shutdown().unwrap();
}
