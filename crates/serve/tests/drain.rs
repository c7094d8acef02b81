//! Graceful-drain behaviour: a `shutdown` received behind a pipeline of
//! admitted requests answers every one of them (in order, bit-exact)
//! before the server exits, and connections arriving after the drain
//! starts are never served.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_serve::frame::{self, RouteReply};
use l2r_serve::{route_reply_to_line, BinClient, Counter, FaultConfig, FaultPlan, ServerConfig};

/// Deterministic queries shared by the drained server and the reference.
fn query_plan(n: usize) -> Vec<(u32, u32)> {
    let mut seed = 0xD2A1_4EEDu64;
    (0..n)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (seed >> 33) % 40;
            let d = ((seed >> 13) % 40 + 1 + s) % 41;
            (s as u32, d as u32)
        })
        .collect()
}

#[test]
fn drain_answers_the_admitted_pipeline_then_exits() {
    // Artificial handler latency keeps the server draining long enough to
    // probe it from a second connection.
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        handler_latency_per_mille: 1000,
        handler_latency: Duration::from_millis(3),
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        queue_capacity: 128,
        drain_deadline: Duration::from_secs(5),
        faults: Some(plan),
        ..ServerConfig::default()
    });
    let (ref_handle, ref_addr, ref_state) = common::start_server(ServerConfig {
        workers: 1,
        queue_capacity: 128,
        ..ServerConfig::default()
    });

    let queries = query_plan(64);
    let mut reference = BinClient::connect(ref_addr).unwrap();
    let expected: Vec<String> = queries
        .iter()
        .map(|&(s, d)| route_reply_to_line(&reference.route(common::DATASET, s, d).unwrap()))
        .collect();
    drop(reference);

    // One write: 64 routes immediately followed by `shutdown`.  All 64
    // are admitted before the drain begins, so all 64 must be answered.
    let mut out = Vec::new();
    for &(s, d) in &queries {
        frame::encode_route(&mut out, common::DATASET, s, d);
    }
    frame::encode_shutdown(&mut out);
    let mut c = BinClient::connect_with(addr, Some(Duration::from_secs(30))).unwrap();
    c.send_raw(&out).unwrap();

    // First reply in hand means the pipeline is being served — and the
    // shutdown behind it has long been parsed: the server is draining.
    let (status, payload) = c.read_frame().unwrap();
    let first = frame::decode_route_reply(status, &payload).unwrap();
    assert_eq!(route_reply_to_line(&first), expected[0]);

    // A connection arriving mid-drain must never be served: either the
    // connect is refused outright or the socket is closed unanswered.
    if let Ok(mut late) = BinClient::connect_with(addr, Some(Duration::from_millis(500))) {
        assert!(
            late.ping().is_err(),
            "a connection opened after drain start was served"
        );
    }

    // The remaining 63 admitted replies arrive in order and bit-exact,
    // then the shutdown acknowledgement, then EOF.
    for expected_line in &expected[1..] {
        let (status, payload) = c.read_frame().unwrap();
        let reply = frame::decode_route_reply(status, &payload).unwrap();
        assert_eq!(&route_reply_to_line(&reply), expected_line);
        assert!(
            !matches!(reply, RouteReply::Busy),
            "admitted requests cannot be shed during drain"
        );
    }
    let (status, _) = c.read_frame().unwrap();
    assert_eq!(status, frame::Status::Ok, "shutdown is acknowledged last");
    let eof = c.read_frame();
    assert!(eof.is_err(), "the drained connection must be closed");
    drop(c);

    assert!(handle.shutdown().is_ok());
    assert_eq!(state.open_connections(), 0);
    assert_eq!(state.stats().get(Counter::Shed), 0);

    ref_handle.shutdown().unwrap();
    assert_eq!(ref_state.open_connections(), 0);
}

#[test]
fn connects_after_exit_are_refused() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = BinClient::connect(addr).unwrap();
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    drop(c);
    handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);

    // The listener is gone with the server: nothing accepts this port.
    let refused = Instant::now() + Duration::from_secs(5);
    loop {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Err(_) => break,
            Ok(_) if Instant::now() >= refused => {
                panic!("port still accepting after shutdown")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
