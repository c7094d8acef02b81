//! The self-contained end-to-end smoke check used by CI.
//!
//! Starts a real server on an ephemeral loopback port, exercises **both**
//! wire protocols through real TCP connections — verifying `route` answers
//! are bit-identical to a locally loaded model and that pipelined
//! binary responses come back in request order — performs hot-reloads over
//! each protocol (plus the failure path), optionally runs a
//! many-connection binary sweep checked against the same local model, and
//! shuts the server down cleanly.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use l2r_core::{load_model, splitmix64, L2r, ModelRegistry, ModelStore, QueryScratch};
use l2r_road_network::VertexId;

use crate::client::{route_reply_to_line, BinClient, Client};
use crate::frame::{self, RouteReply};
use crate::{format_route_response, Counter, Server};

/// Routes a sweep spreads over its connections (at least 4 per connection).
const SWEEP_ROUTES: usize = 8192;

/// Requests a sweep keeps in flight per connection.
const SWEEP_WINDOW: usize = 16;

/// Seed of the sweep's `(source, destination)` draws.
const SWEEP_SEED: u64 = 0x5E17_1E55;

/// Builds a registry by loading each `name=path` model spec.  A path that
/// is a directory is opened as a model store and its newest durable
/// generation is served; a file is loaded as a plain snapshot.
pub fn registry_from_specs(specs: &[(String, PathBuf)]) -> Result<ModelRegistry, String> {
    if specs.is_empty() {
        return Err("no --model NAME=PATH specs given".to_string());
    }
    let registry = ModelRegistry::new();
    for (name, path) in specs {
        let model = if path.is_dir() {
            let store = ModelStore::open(path)
                .map_err(|e| format!("failed to open store `{name}` at {}: {e}", path.display()))?;
            let (_, snapshot) = store.load_latest().map_err(|e| {
                format!("failed to load `{name}` from store {}: {e}", path.display())
            })?;
            snapshot.model
        } else {
            load_model(path)
                .map_err(|e| format!("failed to load `{name}` from {}: {e}", path.display()))?
        };
        registry.insert(name, Arc::new(model));
    }
    Ok(registry)
}

/// End-to-end smoke check (used by CI): starts a server over the given
/// `name=path` models, exercises every command of both the ASCII and the
/// binary protocol — verifying `route` answers are **bit-identical** to a
/// locally loaded model and that pipelined responses preserve
/// request order — performs hot-reloads (including the failure path,
/// which must keep the old model serving), optionally sweeps the server
/// over `sweep_connections` binary connections (every reply again checked
/// against the local model), and shuts down cleanly.  Returns a
/// human-readable transcript on success.
pub fn run_smoke_with(
    specs: &[(String, PathBuf)],
    sweep_connections: Option<usize>,
) -> Result<String, String> {
    let mut transcript = String::new();
    let mut note = |line: String| {
        transcript.push_str(&line);
        transcript.push('\n');
    };

    let registry = registry_from_specs(specs)?;
    let (name, path) = &specs[0];
    // An independently loaded model: the reference for bit-equivalence.
    let reference =
        load_model(path).map_err(|e| format!("reference load of {}: {e}", path.display()))?;

    let server =
        Server::bind("127.0.0.1:0", 2, registry).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let state = server.state();
    let handle = server.start();
    note(format!(
        "server listening on {addr} ({} datasets)",
        specs.len()
    ));

    let run = || -> Result<Vec<String>, String> {
        let mut notes = Vec::new();
        let mut client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        let mut expect = |request: &str, check: &dyn Fn(&str) -> bool| -> Result<String, String> {
            let response = client
                .request(request)
                .map_err(|e| format!("`{request}` failed: {e}"))?;
            if !check(&response) {
                return Err(format!("`{request}` answered unexpectedly: {response}"));
            }
            Ok(response)
        };

        expect("ping", &|r| r == "OK pong")?;
        let info = expect(&format!("info {name}"), &|r| r.starts_with("OK "))?;
        notes.push(format!("info: {info}"));
        let vertices = info
            .split_whitespace()
            .find_map(|f| {
                f.strip_prefix("vertices=")
                    .and_then(|v| v.parse::<u32>().ok())
            })
            .ok_or_else(|| format!("info response lacks vertices=: {info}"))?;
        if vertices < 2 {
            return Err("dataset has fewer than 2 vertices".to_string());
        }

        // Bit-equivalence: the TCP answer must be byte-for-byte the local
        // model's answer run through the shared formatter.
        let mut scratch = QueryScratch::new();
        let mut compared = 0usize;
        for i in 0..25u32 {
            let s = (i * 37) % vertices;
            let d = (i * 91 + 1) % vertices;
            if s == d {
                continue;
            }
            let expected =
                format_route_response(&reference.route(&mut scratch, VertexId(s), VertexId(d)));
            expect(&format!("route {name} {s} {d}"), &|r| r == expected)?;
            compared += 1;
        }
        notes.push(format!(
            "route: {compared} queries answered bit-identically to the local model"
        ));

        let batch = expect(&format!("route_batch {name} 0,1 1,0 0,1"), &|r| {
            r.starts_with("OK 3 ")
        })?;
        notes.push(format!("route_batch: {batch}"));

        // Hot-reload from the same snapshot: generation bumps, serving keeps
        // answering identically.
        expect(&format!("reload {name} {}", path.display()), &|r| {
            r.starts_with("OK ") && r.contains("generation=2")
        })?;
        let expected = format_route_response(&reference.route(
            &mut scratch,
            VertexId(0),
            VertexId(1 % vertices),
        ));
        expect(&format!("route {name} 0 {}", 1 % vertices), &|r| {
            r == expected
        })?;
        notes.push("reload: generation=2, post-reload answer identical".to_string());

        // Failure paths: the old model must keep serving.
        expect(
            &format!("reload {name} {}.does-not-exist", path.display()),
            &|r| r.starts_with("ERR reload failed"),
        )?;
        expect(&format!("route {name} 0 {}", 1 % vertices), &|r| {
            r == expected
        })?;
        expect("route nosuchdataset 0 1", &|r| {
            r.starts_with("ERR unknown dataset")
        })?;
        expect("frobnicate", &|r| r.starts_with("ERR unknown command"))?;
        notes.push("failure paths: bad reload kept the old model serving".to_string());

        // --- Binary protocol, over its own connection -------------------
        let mut bin =
            BinClient::connect(addr).map_err(|e| format!("binary connect failed: {e}"))?;
        bin.ping().map_err(|e| format!("binary ping failed: {e}"))?;
        let binfo = bin
            .info(name)
            .map_err(|e| format!("binary info failed: {e}"))?;
        if binfo.vertices != vertices as u64 || binfo.generation != 2 {
            return Err(format!("binary info disagrees with ASCII info: {binfo:?}"));
        }

        // Pipelined routes: answers must be bit-identical to the local
        // model AND come back in request order.
        let mut pairs = Vec::new();
        for i in 0..16u32 {
            let s = (i * 53 + 2) % vertices;
            let d = (i * 29 + 7) % vertices;
            if s != d {
                pairs.push((s, d));
            }
        }
        let replies = bin
            .route_pipelined(name, &pairs, 8)
            .map_err(|e| format!("binary pipelined route failed: {e}"))?;
        for (&(s, d), reply) in pairs.iter().zip(replies.iter()) {
            let expected =
                format_route_response(&reference.route(&mut scratch, VertexId(s), VertexId(d)));
            let got = route_reply_to_line(reply);
            if got != expected {
                return Err(format!(
                    "binary route {s}->{d} answered `{got}`, expected `{expected}` \
                     (out-of-order or non-identical pipelined response)"
                ));
            }
        }
        notes.push(format!(
            "binary: {} pipelined routes in order, bit-identical across protocols",
            pairs.len()
        ));

        let items = bin
            .route_batch(name, &[(0, 1), (1, 0), (0, 1)])
            .map_err(|e| format!("binary route_batch failed: {e}"))?;
        if items.len() != 3 {
            return Err(format!("binary route_batch returned {} items", items.len()));
        }
        let stats_line = bin
            .stats()
            .map_err(|e| format!("binary stats failed: {e}"))?;
        if !stats_line.starts_with("uptime_ms=") {
            return Err(format!("unexpected binary stats line: {stats_line}"));
        }
        if bin
            .reload(name, &format!("{}.does-not-exist", path.display()))
            .is_ok()
        {
            return Err("binary reload of a missing snapshot succeeded".to_string());
        }
        let generation = bin
            .reload(name, &path.display().to_string())
            .map_err(|e| format!("binary reload failed: {e}"))?;
        if generation != 3 {
            return Err(format!("binary reload produced generation {generation}"));
        }
        notes.push("binary: route_batch, stats, reload + failure path OK".to_string());
        drop(bin);

        // --- Optional many-connection sweep -----------------------------
        if let Some(connections) = sweep_connections {
            let connections = connections.max(1);
            let t0 = Instant::now();
            let (routes, busy) = sweep(addr, name, &reference, vertices, connections)?;
            notes.push(format!(
                "sweep: {routes} binary routes over {connections} connections answered \
                 bit-identically to the local model in {:.0} ms, {busy} busy retries",
                t0.elapsed().as_secs_f64() * 1e3
            ));
        }

        let stats = expect("stats", &|r| r.starts_with("OK uptime_ms="))?;
        notes.push(format!("stats: {stats}"));

        expect("shutdown", &|r| r == "OK bye")?;
        Ok(notes)
    };

    match run() {
        Ok(notes) => {
            for n in notes {
                note(n);
            }
        }
        Err(e) => {
            // Best-effort teardown so the caller is not left with a stray
            // listener, then report the protocol failure.
            let _ = handle.shutdown();
            return Err(e);
        }
    }

    handle
        .shutdown()
        .map_err(|e| format!("server did not shut down cleanly: {e}"))?;
    note(format!(
        "clean shutdown after {} queries",
        state.stats().get(Counter::Queries)
    ));
    Ok(transcript)
}

/// Opens `connections` binary clients from the calling thread and drives
/// them in bulk-synchronous rounds: each round writes up to
/// [`SWEEP_WINDOW`] `route` frames on every connection, then reads every
/// reply, so all connections have requests outstanding at once.  A `BUSY`
/// reply is resent in the next round; every other reply must be the local
/// model's answer, bit for bit.  Returns the routes answered and the `BUSY`
/// replies seen.
fn sweep(
    addr: SocketAddr,
    name: &str,
    reference: &L2r,
    vertices: u32,
    connections: usize,
) -> Result<(usize, usize), String> {
    let per_conn = (SWEEP_ROUTES / connections).max(4);
    let v = u64::from(vertices);
    let mut conns = Vec::with_capacity(connections);
    for c in 0..connections {
        let client =
            BinClient::connect(addr).map_err(|e| format!("sweep connection {c} failed: {e}"))?;
        let todo: VecDeque<(u32, u32)> = (0..per_conn as u64)
            .map(|i| {
                let h = splitmix64(SWEEP_SEED ^ ((c as u64) << 32) ^ i);
                let s = h % v;
                // A destination distinct from the source.
                let d = (s + 1 + (h >> 32) % (v - 1)) % v;
                (s as u32, d as u32)
            })
            .collect();
        conns.push((client, todo, Vec::with_capacity(SWEEP_WINDOW)));
    }

    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let (mut routes, mut busy) = (0usize, 0usize);
    while conns.iter().any(|(_, todo, _)| !todo.is_empty()) {
        for (client, todo, sent) in conns.iter_mut() {
            out.clear();
            sent.clear();
            while sent.len() < SWEEP_WINDOW {
                let Some((s, d)) = todo.pop_front() else {
                    break;
                };
                frame::encode_route(&mut out, name, s, d);
                sent.push((s, d));
            }
            client
                .send_raw(&out)
                .map_err(|e| format!("sweep send failed: {e}"))?;
        }
        for (client, todo, sent) in conns.iter_mut() {
            for &(s, d) in sent.iter() {
                let (status, payload) = client
                    .read_frame()
                    .map_err(|e| format!("sweep read failed: {e}"))?;
                let reply = frame::decode_route_reply(status, &payload)
                    .map_err(|e| format!("sweep reply {s}->{d} undecodable: {e}"))?;
                if reply == RouteReply::Busy {
                    busy += 1;
                    todo.push_front((s, d));
                    continue;
                }
                let got = route_reply_to_line(&reply);
                let expected =
                    format_route_response(&reference.route(&mut scratch, VertexId(s), VertexId(d)));
                if got != expected {
                    return Err(format!(
                        "sweep route {s}->{d} answered `{got}`, expected `{expected}`"
                    ));
                }
                routes += 1;
            }
        }
    }
    Ok((routes, busy))
}
