//! Load-shedding behaviour of the bounded per-dataset admission queues:
//! overflow is answered with retriable `BUSY`, the connection survives,
//! the queue drains back to zero and the shed/served counters add up.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use l2r_serve::frame::{self, parse_frame, FrameParse, Status};
use l2r_serve::{BinClient, Client, Counter, ServerConfig};

/// A server whose admission queue overflows after 2 in-flight routes.  A
/// burst written in one call arrives in one read, and the loop parses all
/// of it before the round's batch executes, so the burst finds the queue
/// full after its first two routes.
fn shedding_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn binary_overflow_gets_busy_and_connection_survives() {
    let (handle, addr, state) = common::start_server(shedding_config());

    // 8 pipelined routes against capacity 2: exactly 2 admitted, 6 shed.
    let mut buf = Vec::new();
    for i in 0..8u32 {
        frame::encode_route(&mut buf, common::DATASET, i, i + 1);
    }
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&buf).unwrap();

    let mut frames = Vec::new();
    let mut acc = Vec::new();
    let mut chunk = [0u8; 8192];
    while frames.len() < 8 {
        let n = s.read(&mut chunk).expect("replies");
        assert!(n > 0, "connection closed after BUSY");
        acc.extend_from_slice(&chunk[..n]);
        let mut pos = 0;
        while let FrameParse::Frame { kind, consumed, .. } = parse_frame(&acc[pos..]) {
            frames.push(kind);
            pos += consumed;
        }
        acc.drain(..pos);
    }
    let busy = frames.iter().filter(|&&k| k == Status::Busy as u8).count();
    let routed = frames
        .iter()
        .filter(|&&k| k == Status::Ok as u8 || k == Status::NoRoute as u8)
        .count();
    assert_eq!(busy, 6, "kinds: {frames:?}");
    assert_eq!(routed, 2, "kinds: {frames:?}");
    // In-order delivery: the two admitted requests were the first two, so
    // the first two replies are route answers and the rest are BUSY.
    assert!(frames[0] != Status::Busy as u8 && frames[1] != Status::Busy as u8);

    // The queue drained back to zero and the counters account for every
    // request: 2 served, 6 shed.
    let queue = state.dataset_queue(common::DATASET).expect("queue exists");
    assert_eq!(queue.depth(), 0, "queue must drain after the flush");
    assert_eq!(queue.served(), 2);
    assert_eq!(queue.shed(), 6);
    assert_eq!(state.stats().get(Counter::Shed), 6);

    // BUSY is retriable: the same connection keeps working, and with the
    // flood gone a retried request is admitted and answered.
    let mut bin = BinClient::from_stream(s).unwrap();
    let reply = bin.route(common::DATASET, 2, 3).expect("retry after BUSY");
    assert!(
        !matches!(reply, frame::RouteReply::Busy),
        "an uncontended retry must be admitted"
    );
    assert_eq!(queue.depth(), 0);
    assert_eq!(queue.served(), 3);

    handle.shutdown().unwrap();
}

#[test]
fn ascii_overflow_gets_busy_lines() {
    let (handle, addr, state) = common::start_server(shedding_config());

    let mut client = Client::connect(addr).unwrap();
    let mut burst = String::new();
    for i in 0..8u32 {
        burst.push_str(&format!("route {} {} {}\n", common::DATASET, i, i + 1));
    }
    client.send_bytes(burst.as_bytes()).unwrap();
    let mut busy = 0;
    let mut routed = 0;
    for _ in 0..8 {
        let line = client.read_line().expect("reply line");
        if line == "BUSY" {
            busy += 1;
        } else {
            assert!(line.starts_with("OK ") || line == "NOROUTE", "{line}");
            routed += 1;
        }
    }
    assert_eq!(busy, 6);
    assert_eq!(routed, 2);

    // Still serving on the same line-protocol connection.
    assert_eq!(client.request("ping").unwrap(), "OK pong");
    let queue = state.dataset_queue(common::DATASET).unwrap();
    assert_eq!(queue.depth(), 0);
    assert_eq!(state.stats().get(Counter::Shed), 6);

    // A route_batch is admitted as a whole: 3 pairs never fit a queue of
    // 2, so the batch is shed and every pair counts.
    let reply = client
        .request(&format!("route_batch {} 0,1 1,2 2,3", common::DATASET))
        .unwrap();
    assert_eq!(reply, "BUSY");
    assert_eq!(state.stats().get(Counter::Shed), 9);
    assert_eq!(queue.depth(), 0);

    handle.shutdown().unwrap();
}
