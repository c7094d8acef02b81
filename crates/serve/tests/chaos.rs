//! Fault-injection (chaos) tests: a deterministic [`FaultPlan`] is wired
//! into a real server and the fault-tolerance invariants are asserted
//! exactly — a handler panic costs one request and never a worker, every
//! injected fault is accounted for in the server's stats, surviving
//! requests stay bit-exact, and no test leaves a connection behind.
//!
//! The fault schedule is seeded; override with `L2R_CHAOS_SEED=<u64>` to
//! rehearse a different schedule (CI runs two fixed seeds).

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_serve::frame::{self, RouteReply};
use l2r_serve::{
    route_reply_to_line, BinClient, Client, Counter, FaultConfig, FaultPlan, ServerConfig,
};

/// The fault-schedule seed of this run (`L2R_CHAOS_SEED` overrides).
fn chaos_seed() -> u64 {
    std::env::var("L2R_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA17_5EED)
}

/// Injected faults panic on purpose; keep their backtrace spam out of the
/// test output while leaving every other panic loud.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !message.contains("injected") {
                default(info);
            }
        }));
    });
}

/// The deterministic query list both the chaos server and the fault-free
/// reference server are asked, so replies can be compared bit-for-bit.
fn query_plan(n: usize) -> Vec<(u32, u32)> {
    let mut seed = 0x5EED_1234u64;
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
fn injected_handler_panics_cost_one_request_never_a_worker() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: chaos_seed(),
        handler_panic_per_mille: 100,
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        faults: Some(plan.clone()),
        ..ServerConfig::default()
    });
    let (ref_handle, ref_addr, ref_state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let queries = query_plan(400);
    let mut chaos = BinClient::connect(addr).unwrap();
    let mut reference = BinClient::connect(ref_addr).unwrap();
    let mut internal_errors = 0u64;
    for &(s, d) in &queries {
        let reply = chaos.route(common::DATASET, s, d).unwrap();
        let expected = reference.route(common::DATASET, s, d).unwrap();
        match &reply {
            RouteReply::Err(message) if message.starts_with("internal") => internal_errors += 1,
            got => assert_eq!(
                route_reply_to_line(got),
                route_reply_to_line(&expected),
                "non-faulted reply for ({s},{d}) must be bit-exact"
            ),
        }
    }
    drop(chaos);
    drop(reference);

    // Exact accounting: every injected panic surfaced as exactly one
    // internal error and one caught panic — and killed no worker.
    let injected = plan.counters().panics_injected;
    assert!(injected > 0, "400 draws at 10% must inject something");
    assert_eq!(internal_errors, injected);
    assert_eq!(state.stats().get(Counter::PanicsCaught), injected);
    assert_eq!(state.stats().get(Counter::WorkersRespawned), 0);
    assert_eq!(
        state.stats().get(Counter::Errors),
        0,
        "panics are not protocol errors"
    );

    handle.shutdown().unwrap();
    ref_handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
    assert_eq!(ref_state.open_connections(), 0);
}

#[test]
fn ascii_route_batch_panics_are_request_scoped() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: chaos_seed(),
        handler_panic_per_mille: 1000,
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        faults: Some(plan.clone()),
        ..ServerConfig::default()
    });

    // The first pair panics; the batch reply has no per-item error slot,
    // so the whole request answers `ERR internal` — and only it.
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&format!("route_batch {} 0,1 1,2 2,3", common::DATASET))
        .unwrap();
    assert!(reply.starts_with("ERR internal: "), "{reply}");
    assert_eq!(client.request("ping").unwrap(), "OK pong");
    drop(client);

    assert_eq!(plan.counters().panics_injected, 1);
    assert_eq!(state.stats().get(Counter::PanicsCaught), 1);
    assert_eq!(state.stats().get(Counter::Errors), 0);
    assert_eq!(state.stats().get(Counter::Queries), 0);
    let queue = state.dataset_queue(common::DATASET).expect("queue exists");
    assert_eq!(queue.depth(), 0, "the batch's admission must be released");

    handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
}

#[test]
fn short_reads_and_writes_keep_replies_bit_exact() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: chaos_seed(),
        short_read_per_mille: 300,
        short_write_per_mille: 300,
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        queue_capacity: 512,
        faults: Some(plan.clone()),
        ..ServerConfig::default()
    });
    let (ref_handle, ref_addr, ref_state) = common::start_server(ServerConfig {
        workers: 1,
        queue_capacity: 512,
        ..ServerConfig::default()
    });

    let queries = query_plan(300);
    let mut chaos = BinClient::connect(addr).unwrap();
    let mut reference = BinClient::connect(ref_addr).unwrap();
    let got = chaos
        .route_pipelined(common::DATASET, &queries, 32)
        .unwrap();
    let expected = reference
        .route_pipelined(common::DATASET, &queries, 32)
        .unwrap();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(route_reply_to_line(g), route_reply_to_line(e));
    }
    drop(chaos);
    drop(reference);

    let counters = plan.counters();
    assert!(
        counters.short_reads > 0 && counters.short_writes > 0,
        "the schedule must actually have fragmented some IO: {counters:?}"
    );
    assert_eq!(state.stats().get(Counter::Errors), 0);
    assert_eq!(state.stats().get(Counter::PanicsCaught), 0);

    handle.shutdown().unwrap();
    ref_handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
    assert_eq!(ref_state.open_connections(), 0);
}

#[test]
fn killed_workers_are_respawned_and_service_continues() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: chaos_seed(),
        worker_kills: 2,
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 2,
        faults: Some(plan.clone()),
        ..ServerConfig::default()
    });

    // Each kill fires at accept time and takes the accepting event loop
    // down with it; the watchdog must bring a replacement up.  Keep
    // connecting until both kills have fired and been repaired.
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.stats().get(Counter::WorkersRespawned) < 2 {
        assert!(
            Instant::now() < deadline,
            "watchdog did not respawn 2 workers in time: respawned={} killed={}",
            state.stats().get(Counter::WorkersRespawned),
            plan.counters().worker_kills_injected,
        );
        // The sacrificial connection may die at any point; ignore how.
        if let Ok(mut c) = BinClient::connect_with(addr, Some(Duration::from_millis(200))) {
            let _ = c.ping();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(plan.counters().worker_kills_injected, 2);

    // The repaired pool must still serve correctly.
    let mut c = BinClient::connect(addr).unwrap();
    for &(s, d) in query_plan(32).iter() {
        assert!(matches!(
            c.route(common::DATASET, s, d).unwrap(),
            RouteReply::Route { .. } | RouteReply::NoRoute
        ));
    }
    drop(c);

    handle.shutdown().unwrap();
    assert_eq!(state.stats().get(Counter::WorkersRespawned), 2);
    assert_eq!(state.open_connections(), 0);
}

#[test]
fn zero_deadline_requests_are_answered_deadline_exceeded_exactly() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // Binary: an already-expired budget must be rejected at admission
    // without executing anything.
    let mut c = BinClient::connect(addr).unwrap();
    let mut out = Vec::new();
    for &(s, d) in query_plan(20).iter() {
        out.clear();
        frame::encode_route_deadline(&mut out, common::DATASET, s, d, Some(0));
        c.send_raw(&out).unwrap();
        let (status, payload) = c.read_frame().unwrap();
        assert_eq!(
            frame::decode_route_reply(status, &payload).unwrap(),
            RouteReply::DeadlineExceeded
        );
    }
    drop(c);

    // ASCII parity: the optional trailing token spells the same budget.
    let mut a = Client::connect(addr).unwrap();
    let line = a
        .request(&format!("route {} 0 1 0", common::DATASET))
        .unwrap();
    assert_eq!(line, "ERR deadline exceeded");
    drop(a);

    assert_eq!(state.stats().get(Counter::DeadlineExceeded), 21);
    assert_eq!(
        state.stats().get(Counter::Queries),
        0,
        "expired requests never execute"
    );
    assert_eq!(state.stats().get(Counter::Errors), 0);

    handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
}

#[test]
fn write_stalled_connections_are_disconnected() {
    quiet_injected_panics();
    // Shrink the server-side kernel send buffer so a reader that never
    // drains backs the reactor's outbound buffer up within a few KiB.
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: chaos_seed(),
        sndbuf: Some(4096),
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        write_stall_cap: 1024,
        write_stall_timeout: Duration::from_millis(150),
        faults: Some(plan),
        ..ServerConfig::default()
    });

    // Flood routes and never read a byte: replies (routes + BUSY) pile up
    // in the reactor once the kernel buffers are full.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut out = Vec::new();
    for &(src, dst) in query_plan(20_000).iter() {
        frame::encode_route(&mut out, common::DATASET, src, dst);
    }
    // The server disconnects us mid-write once the stall trips; both a
    // short write count and an error are acceptable ends.
    let _ = s.write_all(&out);

    let deadline = Instant::now() + Duration::from_secs(10);
    while state.stats().get(Counter::WriteStalls) == 0 {
        assert!(
            Instant::now() < deadline,
            "write-stall detection did not trip"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(state.stats().get(Counter::WriteStalls), 1);

    // The dropped connection is observable client-side as EOF/reset.
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = [0u8; 4096];
    loop {
        match s.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    drop(s);

    handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
}

#[test]
fn idle_connections_are_reaped() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });

    let mut c = BinClient::connect_with(addr, Some(Duration::from_secs(10))).unwrap();
    c.ping().unwrap();
    // Go quiet past the idle budget: the server must reap us (EOF), not
    // hold the socket forever.
    let reaped_by = Instant::now() + Duration::from_secs(10);
    while state.stats().get(Counter::IdleReaped) == 0 {
        assert!(Instant::now() < reaped_by, "idle connection was not reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(state.stats().get(Counter::IdleReaped), 1);
    assert!(
        c.ping().is_err(),
        "a reaped connection cannot serve further requests"
    );
    drop(c);

    handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
}

#[test]
fn connection_cap_sheds_excess_accepts() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        max_connections: 2,
        ..ServerConfig::default()
    });

    let mut a = BinClient::connect(addr).unwrap();
    let mut b = BinClient::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    assert_eq!(state.open_connections(), 2);

    // The third connection is accepted then immediately shed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.stats().get(Counter::ConnsRejected) == 0 {
        assert!(Instant::now() < deadline, "over-cap accept was not shed");
        let mut c = BinClient::connect_with(addr, Some(Duration::from_millis(250))).unwrap();
        let _ = c.ping();
        std::thread::sleep(Duration::from_millis(10));
    }
    // The admitted pair is unaffected.
    a.ping().unwrap();
    b.ping().unwrap();
    drop(a);
    drop(b);

    handle.shutdown().unwrap();
    assert_eq!(state.open_connections(), 0);
}
