//! The multi-threaded serving benchmark behind `reproduce -- serving`.
//!
//! Four measurements per dataset, all over one shared `Arc<Engine>` (the
//! production serving shape — PR 3's single-scratch numbers measured the
//! same engine from one thread):
//!
//! 1. **Thread sweep** — N serving threads hammer the shared engine, each
//!    with a pooled [`QueryScratch`]; reports aggregate qps and the latency
//!    distribution per thread count.  On multi-core hardware aggregate
//!    throughput scales with threads; the sweep records whatever the host
//!    provides.
//! 2. **Hot-swap under load** — worker threads route continuously through a
//!    [`ModelRegistry`] while the main thread repeatedly hot-reloads the
//!    dataset's `.l2r` snapshot.  Every answer is compared bit-exactly
//!    against the expected result: `failed` must stay **zero** (no query
//!    ever observes a missing or half-swapped model), and the p99 during
//!    swapping vs steady state quantifies the latency spike a reload costs.
//! 3. **TCP loopback** — an actual `l2r-serve` server on an ephemeral
//!    loopback port, driven end-to-end (load generator + a live `reload`)
//!    so the full wire path is on the record.
//! 4. **Resilience** — a second server with a deterministic
//!    [`FaultPlan`] injecting 1% handler panics, driven with a tenth of
//!    the connections acting as slow clients; qps, the full error
//!    taxonomy, and an invariant checklist (exact panic accounting, no
//!    worker deaths, no leaked connections) go on the record and
//!    `reproduce -- serving` fails on any violation.
//! 5. **Model lifecycle** — the crash-safe model store end to end: publish
//!    latency, store-reloads and rollbacks applied while workers route
//!    (every answer still bit-exact), a poisoned-canary snapshot that must
//!    be rejected with the old engine serving on, and a compact crash
//!    matrix (a simulated crash at every mutating filesystem operation of
//!    a publish, each of which must recover to the newest durable
//!    generation).  Violations gate `reproduce -- serving` like the
//!    resilience checklist does.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_core::store::PUBLISH_OP_COMMIT;
use l2r_core::{
    compute_canaries, encode_snapshot_with, Engine, FaultFs, FsFaultConfig, FsFaultKind,
    ModelRegistry, ModelStore, QueryScratch, RegistryError, RouteResult, ScratchPool, StoreFs,
    StoreOptions,
};
use l2r_eval::{build_test_queries, Dataset, TestQuery};
use l2r_serve::{
    Client, Counter, FaultConfig, FaultPlan, LoadConfig, Protocol, Server, ServerConfig,
};

/// One thread-count measurement of the sweep.
#[derive(Debug, Clone)]
pub struct ServingSweepPoint {
    /// Serving threads used.
    pub threads: usize,
    /// Total queries routed across all threads.
    pub queries: u64,
    /// Queries answered with a route.
    pub answered: u64,
    /// Wall time of the whole point (spawn to join).
    pub wall_ms: f64,
    /// Aggregate throughput: `queries / wall`.
    pub qps: f64,
    /// Mean per-query latency (µs) across all threads.
    pub mean_us: f64,
    /// Median per-query latency (µs).
    pub p50_us: f64,
    /// 99th-percentile per-query latency (µs).
    pub p99_us: f64,
}

/// Hot-swap-under-load measurement.
#[derive(Debug, Clone)]
pub struct HotSwapReport {
    /// Worker threads hammering the registry during the swaps.
    pub worker_threads: usize,
    /// Successful hot-reloads performed while the workers ran.
    pub reloads: u64,
    /// Queries routed across the steady and swap phases.
    pub queries: u64,
    /// Queries whose answer differed from the expected result or that found
    /// no engine — **must be zero**: a hot-swap is atomic.
    pub failed: u64,
    /// p99 latency (µs) of the steady phase (no reloads).
    pub steady_p99_us: f64,
    /// p99 latency (µs) while reloads were being applied.
    pub swap_p99_us: f64,
    /// `swap_p99_us / steady_p99_us` — the latency spike a reload costs.
    pub p99_spike_ratio: f64,
}

/// One point of the connection-concurrency sweep: `connections` concurrent
/// clients speaking `protocol` (with `pipeline` requests in flight per
/// connection on the binary protocol) against the event-driven server.
#[derive(Debug, Clone)]
pub struct ConcurrencySweepPoint {
    /// Wire protocol driven: `ascii` or `binary`.
    pub protocol: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Pipelined requests in flight per connection.
    pub pipeline: usize,
    /// Total `route` requests issued.
    pub requests: u64,
    /// Requests answered `ERR` — **must be zero**: the sweep loses nothing.
    pub errors: u64,
    /// `BUSY` replies that were retried (retries succeeded; nothing lost).
    pub busy_retries: u64,
    /// Aggregate requests/second through the wire.
    pub qps: f64,
    /// Median round-trip latency (µs).
    pub p50_us: f64,
    /// 99th-percentile round-trip latency (µs).
    pub p99_us: f64,
}

/// Resilience measurement: qps and error taxonomy of a loopback server
/// running under a deterministic fault plan (1% injected handler panics)
/// while a tenth of the client connections are deliberately slow
/// (fragmented, stalling writers).  The `invariant_violations` list is the
/// verdict — it **must be empty**: every injected panic surfaced as
/// exactly one request-scoped error, no worker died, no protocol error
/// leaked, no connection was left behind.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Concurrent client connections of the run.
    pub connections: usize,
    /// How many of them were slow clients.
    pub slow_connections: usize,
    /// Total requests completed.
    pub requests: u64,
    /// Requests answered with a route.
    pub answered: u64,
    /// Requests answered `NOROUTE`.
    pub noroutes: u64,
    /// Requests answered with an isolated-panic internal error (must equal
    /// `panics_injected` exactly).
    pub internal_errors: u64,
    /// Requests answered "deadline exceeded".
    pub deadline_exceeded: u64,
    /// Any other `ERR` replies (must be zero).
    pub other_errors: u64,
    /// `BUSY` replies retried until served.
    pub busy_retries: u64,
    /// Aggregate requests/second under the fault plan.
    pub qps: f64,
    /// Median round-trip latency (µs).
    pub p50_us: f64,
    /// 99th-percentile round-trip latency (µs).
    pub p99_us: f64,
    /// Handler panics the fault plan injected.
    pub panics_injected: u64,
    /// Panics the server's isolation layer caught.
    pub panics_caught: u64,
    /// Event loops the watchdog had to respawn (must be zero — a handler
    /// panic never kills a worker).
    pub workers_respawned: u64,
    /// Idle connections reaped during the run.
    pub idle_reaped: u64,
    /// Write-stalled connections disconnected during the run.
    pub write_stalls: u64,
    /// Connections still registered after shutdown (must be zero).
    pub open_connections_after: usize,
    /// Human-readable description of every violated invariant; an empty
    /// list is the pass verdict `reproduce -- serving` gates on.
    pub invariant_violations: Vec<String>,
}

/// Model-lifecycle measurement: the crash-safe store, validated hot-swap
/// and rollback exercised under live query load, plus a compact crash
/// matrix.  Like the resilience checklist, `invariant_violations` **must
/// be empty** — `reproduce -- serving` fails otherwise.
#[derive(Debug, Clone)]
pub struct LifecycleReport {
    /// Generations published into the store for the latency measurement.
    pub publishes: u64,
    /// Mean durable-publish latency (encode + fsync-chained rename), ms.
    pub publish_mean_ms: f64,
    /// Slowest durable publish of the run, ms.
    pub publish_max_ms: f64,
    /// Store-directory hot-swaps applied while workers were routing.
    pub store_reloads: u64,
    /// Rollbacks applied while workers were routing.
    pub rollbacks: u64,
    /// Queries that diverged from the serial reference during the
    /// swap/rollback hammering — must be zero.
    pub swap_failed: u64,
    /// Poisoned-canary snapshots correctly rejected (expected: 1).
    pub canary_rejections: u64,
    /// Crash-injection points exercised (one per mutating fs op of a
    /// publish).
    pub crash_points: u64,
    /// Crash points after which the store recovered the newest durable
    /// generation (must equal `crash_points`).
    pub crash_recoveries: u64,
    /// Human-readable description of every violated invariant; empty is
    /// the pass verdict.
    pub invariant_violations: Vec<String>,
}

/// End-to-end TCP measurement through a real `l2r-serve` server.
#[derive(Debug, Clone)]
pub struct TcpReport {
    /// Client connections used by the load generator.
    pub connections: usize,
    /// `route` requests issued over TCP.
    pub requests: u64,
    /// Requests answered `ERR` (0 on a healthy run).
    pub errors: u64,
    /// Aggregate requests/second through the wire.
    pub qps: f64,
    /// Median round-trip latency (µs).
    pub p50_us: f64,
    /// 99th-percentile round-trip latency (µs).
    pub p99_us: f64,
    /// Registry generation after the live `reload` request.
    pub reload_generation: u64,
}

/// The serving section entry of one dataset.
#[derive(Debug, Clone)]
pub struct ServingBenchDataset {
    /// Dataset name (`D1` / `D2`).
    pub name: String,
    /// Distinct queries in the workload.
    pub queries: usize,
    /// Engine build cost (model (re)load/clone + index compilation), ms.
    pub engine_build_ms: f64,
    /// Scratches the shared pool created over the whole sweep — bounded by
    /// the largest thread count, proving batches reuse warmed scratches.
    pub scratches_created: usize,
    /// One point per thread count.
    pub sweep: Vec<ServingSweepPoint>,
    /// Aggregate qps of the single-thread sweep point.
    pub single_thread_qps: f64,
    /// Best aggregate qps across the sweep.
    pub peak_qps: f64,
    /// `peak_qps / single_thread_qps`.
    pub scaling: f64,
    /// Hot-swap-under-load measurement.
    pub hot_swap: HotSwapReport,
    /// TCP loopback measurement.
    pub tcp: TcpReport,
    /// Connection-concurrency sweep over both wire protocols.
    pub concurrency: Vec<ConcurrencySweepPoint>,
    /// Fault-injection resilience measurement.
    pub resilience: ResilienceReport,
    /// Crash-safe store + validated-swap lifecycle measurement.
    pub lifecycle: LifecycleReport,
}

use crate::percentile;

/// The thread counts the sweep visits: 1, 2, 4 plus the configured
/// `max_threads`, deduplicated and capped at 8.
fn sweep_threads() -> Vec<usize> {
    let mut threads = vec![1usize, 2, 4, l2r_par::max_threads().min(8)];
    threads.sort_unstable();
    threads.dedup();
    threads
}

/// Runs the full serving benchmark for one dataset.  With `snapshot` set,
/// the engine is built from that `.l2r` file (and the hot-swap phase reloads
/// it); otherwise the in-memory model is used and a temporary snapshot is
/// written for the swap phase.  `sweep_connections` sets the connection
/// counts of the concurrency sweep (each driven over both wire protocols);
/// pass a short list to keep test runs fast.
pub fn serving_bench_for(
    ds: &Dataset,
    rounds: usize,
    snapshot: Option<&std::path::Path>,
    sweep_connections: &[usize],
) -> ServingBenchDataset {
    let rounds = rounds.max(1);
    let queries: Vec<TestQuery> = build_test_queries(
        &ds.synthetic.net,
        &ds.model,
        &ds.test,
        ds.spec.max_test_queries,
    );

    // Build the engine exactly like a serving process would.  Without a
    // snapshot the model is cloned *before* the clock starts, so
    // `engine_build_ms` measures load + index compilation, not the clone.
    let t0;
    let engine: Arc<Engine> = Arc::new(match snapshot {
        Some(path) => {
            t0 = Instant::now();
            Engine::load(path)
                .unwrap_or_else(|e| panic!("snapshot {} failed to load: {e}", path.display()))
        }
        None => {
            let model = ds.model.clone();
            t0 = Instant::now();
            model.into_engine()
        }
    });
    let engine_build_ms = t0.elapsed().as_secs_f64() * 1000.0;

    // Expected answers (serial, one scratch) — the bit-equivalence reference
    // for every concurrent phase below.
    let mut scratch = QueryScratch::new();
    let expected: Vec<Option<RouteResult>> = queries
        .iter()
        .map(|q| engine.route(&mut scratch, q.source, q.destination))
        .collect();
    let expected_answered = expected.iter().filter(|r| r.is_some()).count() as u64;

    // --- 1. Thread sweep -------------------------------------------------
    // Aim for enough queries per thread that spawn overhead is noise.
    let sweep_rounds = (20_000 / queries.len().max(1)).max(rounds);
    let pool = ScratchPool::new();
    let mut sweep = Vec::new();
    for &threads in &sweep_threads() {
        let t0 = Instant::now();
        let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let engine = &engine;
                    let queries = &queries;
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(queries.len() * sweep_rounds);
                        let mut answered = 0u64;
                        for _ in 0..sweep_rounds {
                            // One pooled scratch per batch: across batches the
                            // pool hands the warmed scratch back out.
                            let mut scratch = pool.acquire();
                            for q in queries {
                                let q0 = Instant::now();
                                let r = engine.route(&mut scratch, q.source, q.destination);
                                latencies.push(q0.elapsed().as_secs_f64() * 1e6);
                                answered += r.is_some() as u64;
                            }
                        }
                        (latencies, answered)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker"))
                .collect()
        });
        let wall = t0.elapsed();
        let mut latencies: Vec<f64> = Vec::new();
        let mut answered = 0u64;
        for (mut lat, ans) in per_thread {
            latencies.append(&mut lat);
            answered += ans;
        }
        assert_eq!(
            answered,
            expected_answered * (threads * sweep_rounds) as u64,
            "concurrent serving must answer exactly like the serial reference"
        );
        latencies.sort_by(|a, b| a.total_cmp(b));
        let total = latencies.len() as u64;
        let mean_us = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        sweep.push(ServingSweepPoint {
            threads,
            queries: total,
            answered,
            wall_ms: wall.as_secs_f64() * 1000.0,
            qps: if wall.as_secs_f64() > 0.0 {
                total as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            mean_us,
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
        });
    }
    let single_thread_qps = sweep
        .iter()
        .find(|p| p.threads == 1)
        .map(|p| p.qps)
        .unwrap_or(0.0);
    let peak_qps = sweep.iter().map(|p| p.qps).fold(0.0f64, f64::max);

    // --- 2. Hot-swap under load ------------------------------------------
    // The swap phase needs a snapshot file to reload from.
    let (swap_path, temp_snapshot) = match snapshot {
        Some(path) => (path.to_path_buf(), false),
        None => {
            let path = std::env::temp_dir().join(format!(
                "l2r-serving-bench-{}-{}.l2r",
                ds.spec.name,
                std::process::id()
            ));
            l2r_core::save_model(&ds.model, &path).expect("temp snapshot for hot-swap");
            (path, true)
        }
    };
    let registry = ModelRegistry::new();
    registry.insert_shared(ds.spec.name, Arc::clone(&engine));
    let worker_threads = sweep_threads().into_iter().max().unwrap_or(1).max(2);
    let (steady, steady_p99_us) = hammer_registry(
        &registry,
        ds.spec.name,
        &queries,
        &expected,
        worker_threads,
        |_stop| {
            std::thread::sleep(Duration::from_millis(40));
            0
        },
    );
    let (hammer, swap_p99_us) = hammer_registry(
        &registry,
        ds.spec.name,
        &queries,
        &expected,
        worker_threads,
        |_stop| {
            let mut reloads = 0u64;
            for _ in 0..5 {
                registry
                    .reload(ds.spec.name, &swap_path)
                    .expect("hot-reload of a freshly written snapshot");
                reloads += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            reloads
        },
    );
    let hot_swap = HotSwapReport {
        worker_threads,
        reloads: hammer.reloads,
        queries: steady.queries + hammer.queries,
        // Steady-phase mismatches count too: a concurrency bug with no
        // reload in flight must not slip through as "0 failed".
        failed: steady.failed + hammer.failed,
        steady_p99_us,
        swap_p99_us,
        p99_spike_ratio: if steady_p99_us > 0.0 {
            swap_p99_us / steady_p99_us
        } else {
            0.0
        },
    };

    // --- 3. TCP loopback --------------------------------------------------
    let tcp_registry = ModelRegistry::new();
    tcp_registry.insert_shared(ds.spec.name, Arc::clone(&engine));
    let server = Server::bind("127.0.0.1:0", 2, tcp_registry).expect("bind loopback serving bench");
    let addr = server.local_addr();
    let handle = server.start();
    let requests_per_conn = (queries.len() * rounds).clamp(200, 2000);
    let report = l2r_serve::run_load(
        addr,
        &LoadConfig {
            dataset: ds.spec.name.to_string(),
            protocol: Protocol::Ascii,
            connections: 2,
            pipeline: 1,
            requests_per_conn,
            seed: 0x5E17_1E55,
            ..LoadConfig::default()
        },
    )
    .expect("load generator against loopback server");

    // Connection-concurrency sweep: the same server, both wire protocols,
    // rising connection counts.  The total request volume is held roughly
    // constant so every point costs about the same wall time.
    let mut concurrency = Vec::new();
    for &connections in sweep_connections {
        for (protocol, pipeline) in [(Protocol::Ascii, 1usize), (Protocol::Binary, 32)] {
            let point = l2r_serve::run_load(
                addr,
                &LoadConfig {
                    dataset: ds.spec.name.to_string(),
                    protocol,
                    connections,
                    pipeline,
                    requests_per_conn: (32_768 / connections).max(8),
                    seed: 0x5E17_1E55 ^ connections as u64,
                    ..LoadConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{connections}-connection {protocol:?} sweep failed: {e}"));
            concurrency.push(ConcurrencySweepPoint {
                protocol: protocol.label().to_string(),
                connections,
                pipeline,
                requests: point.requests,
                errors: point.errors,
                busy_retries: point.busy_retries,
                qps: point.qps,
                p50_us: point.p50_us,
                p99_us: point.p99_us,
            });
        }
    }

    // --- 4. Resilience under injected faults ------------------------------
    // A dedicated server with a deterministic fault plan: 1% of route
    // executions panic inside the handler, and every 10th client is a slow
    // (fragmented, stalling) writer.  The server must convert each panic
    // into exactly one request-scoped error and lose nothing else.
    let resilience = {
        // Injected faults panic on purpose; keep their spam out of the
        // bench output while leaving every other panic loud.
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected"));
                if !injected {
                    default(info);
                }
            }));
        });
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            handler_panic_per_mille: 10,
            ..FaultConfig::default()
        }));
        let chaos_registry = ModelRegistry::new();
        chaos_registry.insert_shared(ds.spec.name, Arc::clone(&engine));
        let chaos_server = Server::bind_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                faults: Some(Arc::clone(&plan)),
                ..ServerConfig::default()
            },
            chaos_registry,
        )
        .expect("bind resilience bench server");
        let chaos_addr = chaos_server.local_addr();
        let chaos_state = chaos_server.state();
        let chaos_handle = chaos_server.start();
        let connections = 20usize;
        let slow_every = 10usize;
        let load = l2r_serve::run_load(
            chaos_addr,
            &LoadConfig {
                dataset: ds.spec.name.to_string(),
                protocol: Protocol::Binary,
                connections,
                pipeline: 8,
                requests_per_conn: (queries.len() * rounds).clamp(100, 500),
                seed: 0xC4A0_5EED,
                slow_every,
                ..LoadConfig::default()
            },
        )
        .expect("load generator against resilience bench server");
        chaos_handle
            .shutdown()
            .expect("clean resilience server shutdown");

        let counters = plan.counters();
        let stats = chaos_state.stats();
        let mut violations = Vec::new();
        if stats.get(Counter::PanicsCaught) != counters.panics_injected {
            violations.push(format!(
                "panics_caught {} != panics_injected {}",
                stats.get(Counter::PanicsCaught),
                counters.panics_injected
            ));
        }
        if load.internal_errors != counters.panics_injected {
            violations.push(format!(
                "clients saw {} internal errors for {} injected panics",
                load.internal_errors, counters.panics_injected
            ));
        }
        if stats.get(Counter::WorkersRespawned) != 0 {
            violations.push(format!(
                "{} worker(s) died under isolated handler panics",
                stats.get(Counter::WorkersRespawned)
            ));
        }
        if load.errors != 0 {
            violations.push(format!("{} unexplained ERR replies", load.errors));
        }
        if chaos_state.open_connections() != 0 {
            violations.push(format!(
                "{} connection(s) leaked past shutdown",
                chaos_state.open_connections()
            ));
        }
        if load.qps <= 0.0 {
            violations.push("zero throughput under faults".to_string());
        }
        ResilienceReport {
            connections,
            slow_connections: connections / slow_every,
            requests: load.requests,
            answered: load.answered,
            noroutes: load.noroutes,
            internal_errors: load.internal_errors,
            deadline_exceeded: load.deadline_exceeded,
            other_errors: load.errors,
            busy_retries: load.busy_retries,
            qps: load.qps,
            p50_us: load.p50_us,
            p99_us: load.p99_us,
            panics_injected: counters.panics_injected,
            panics_caught: stats.get(Counter::PanicsCaught),
            workers_respawned: stats.get(Counter::WorkersRespawned),
            idle_reaped: stats.get(Counter::IdleReaped),
            write_stalls: stats.get(Counter::WriteStalls),
            open_connections_after: chaos_state.open_connections(),
            invariant_violations: violations,
        }
    };

    // --- 5. Model lifecycle ------------------------------------------------
    let lifecycle = lifecycle_bench(ds, &engine, &queries, &expected, worker_threads);

    let mut client = Client::connect(addr).expect("client connect");
    let reload_resp = client
        .request(&format!("reload {} {}", ds.spec.name, swap_path.display()))
        .expect("live reload over TCP");
    assert!(
        reload_resp.starts_with("OK "),
        "TCP reload must succeed: {reload_resp}"
    );
    let reload_generation = reload_resp
        .split_whitespace()
        .find_map(|f| {
            f.strip_prefix("generation=")
                .and_then(|g| g.parse::<u64>().ok())
        })
        .unwrap_or(0);
    let _ = client.request("shutdown");
    handle.shutdown().expect("clean server shutdown");
    if temp_snapshot {
        std::fs::remove_file(&swap_path).ok();
    }
    let tcp = TcpReport {
        connections: 2,
        requests: report.requests,
        errors: report.errors,
        qps: report.qps,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        reload_generation,
    };

    ServingBenchDataset {
        name: ds.spec.name.to_string(),
        queries: queries.len(),
        engine_build_ms,
        scratches_created: pool.created(),
        sweep,
        single_thread_qps,
        peak_qps,
        scaling: if single_thread_qps > 0.0 {
            peak_qps / single_thread_qps
        } else {
            0.0
        },
        hot_swap,
        tcp,
        concurrency,
        resilience,
        lifecycle,
    }
}

/// The lifecycle phase of the serving bench: store publish latency,
/// store-reloads + rollbacks under live load, a poisoned-canary rejection
/// drill, and a compact crash matrix.  Invariant breaches are *recorded*
/// (not panicked) so the whole checklist lands in `BENCH_online.json` and
/// `reproduce -- serving` can gate on it.
fn lifecycle_bench(
    ds: &Dataset,
    engine: &Arc<Engine>,
    queries: &[TestQuery],
    expected: &[Option<RouteResult>],
    worker_threads: usize,
) -> LifecycleReport {
    let dir = std::env::temp_dir().join(format!(
        "l2r-lifecycle-bench-{}-{}",
        ds.spec.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut violations: Vec<String> = Vec::new();

    // Publish latency: every generation is a full durable publish (encode,
    // temp write, fsync, rename, manifest replace, directory fsync).
    let mut store = ModelStore::create(&dir, ds.spec.name, StoreOptions::default())
        .expect("create bench store");
    let mut publish_ms: Vec<f64> = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        store.publish(&ds.model).expect("durable publish");
        publish_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    drop(store);
    let store = ModelStore::open(&dir).expect("reopen bench store");
    let publish_mean_ms = publish_ms.iter().sum::<f64>() / publish_ms.len() as f64;
    let publish_max_ms = publish_ms.iter().fold(0.0f64, |a, &b| a.max(b));

    // Store-reloads + rollbacks while workers route: every swap is
    // validated (dataset stamp + canary replay) and every answer before,
    // during and after must stay bit-exact.
    let registry = ModelRegistry::new();
    registry.insert_shared(ds.spec.name, Arc::clone(engine));
    let store_reloads = AtomicU64::new(0);
    let rollbacks = AtomicU64::new(0);
    let (swap_outcome, _) = hammer_registry(
        &registry,
        ds.spec.name,
        queries,
        expected,
        worker_threads,
        |_stop| {
            for _ in 0..3 {
                registry
                    .reload_from_store(ds.spec.name, &store, None)
                    .expect("store reload under load");
                store_reloads.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
                registry
                    .rollback(ds.spec.name)
                    .expect("rollback under load");
                rollbacks.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
            0
        },
    );
    if swap_outcome.failed > 0 {
        violations.push(format!(
            "{} queries diverged during store-reload/rollback hammering",
            swap_outcome.failed
        ));
    }

    // Poisoned-canary drill: recorded digests that cannot reproduce must
    // reject the swap with the old engine still serving bit-identically.
    let mut canary_rejections = 0u64;
    let mut canaries = compute_canaries(&ds.model, 4);
    if canaries.is_empty() {
        violations.push("model yielded no canary probes".to_string());
    } else {
        for c in &mut canaries {
            c.digest ^= 0xDEAD_BEEF;
        }
        let poisoned = dir.join("poisoned.l2r");
        std::fs::write(
            &poisoned,
            encode_snapshot_with(&ds.model, ds.spec.name, &canaries),
        )
        .expect("write poisoned snapshot");
        match registry.reload(ds.spec.name, &poisoned) {
            Err(RegistryError::CanaryMismatch { .. }) => canary_rejections += 1,
            Err(e) => violations.push(format!(
                "poisoned snapshot rejected with the wrong error: {e}"
            )),
            Ok(_) => violations.push("poisoned snapshot was swapped in".to_string()),
        }
        let live = registry.get(ds.spec.name).expect("dataset registered");
        let mut scratch = QueryScratch::new();
        for (q, exp) in queries.iter().zip(expected.iter()).take(50) {
            if live.route(&mut scratch, q.source, q.destination) != *exp {
                violations.push("engine diverged after a rejected swap".to_string());
                break;
            }
        }
    }

    // Compact crash matrix: a simulated crash at every mutating fs op of a
    // publish; recovery must serve the newest durable generation (the
    // manifest rename is the durability boundary).
    let ops = {
        let count_dir = dir.join("crash-opcount");
        let mut s = ModelStore::create(&count_dir, ds.spec.name, StoreOptions { retain: 1 })
            .expect("create op-count store");
        s.publish(&ds.model).expect("seed publish");
        drop(s);
        let fs = Arc::new(FaultFs::new(FsFaultConfig {
            seed: 0xFA17_5EED,
            fault_at: None,
            kind: FsFaultKind::Crash,
        }));
        let mut s = ModelStore::open_with_options(
            Arc::clone(&fs) as Arc<dyn StoreFs>,
            &count_dir,
            StoreOptions { retain: 1 },
        )
        .expect("reopen op-count store");
        s.publish(&ds.model).expect("un-faulted publish");
        fs.ops()
    };
    let mut crash_points = 0u64;
    let mut crash_recoveries = 0u64;
    for op in 0..ops {
        crash_points += 1;
        let d = dir.join(format!("crash-{op}"));
        let mut s = ModelStore::create(&d, ds.spec.name, StoreOptions { retain: 1 })
            .expect("create crash-point store");
        s.publish(&ds.model).expect("seed publish");
        drop(s);
        let fs = Arc::new(FaultFs::new(FsFaultConfig {
            seed: 0xFA17_5EED ^ op,
            fault_at: Some(op),
            kind: FsFaultKind::Crash,
        }));
        let mut s = ModelStore::open_with_options(
            Arc::clone(&fs) as Arc<dyn StoreFs>,
            &d,
            StoreOptions { retain: 1 },
        )
        .expect("reopen crash-point store");
        let published = s.publish(&ds.model).is_ok();
        drop(s);
        let committed = op > PUBLISH_OP_COMMIT;
        if !committed && published {
            violations.push(format!(
                "crash at op {op}: uncommitted publish claimed success"
            ));
        }
        match ModelStore::open(&d) {
            Ok(recovered) => {
                let expect_gen = if committed { 2 } else { 1 };
                if recovered.latest() != Some(expect_gen) {
                    violations.push(format!(
                        "crash at op {op}: recovered generation {:?}, expected {expect_gen}",
                        recovered.latest()
                    ));
                } else if recovered.load(expect_gen).is_err() {
                    violations.push(format!(
                        "crash at op {op}: the recovered generation failed to decode"
                    ));
                } else {
                    crash_recoveries += 1;
                }
            }
            Err(e) => violations.push(format!("crash at op {op}: store failed to open: {e}")),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    let _ = std::fs::remove_dir_all(&dir);
    LifecycleReport {
        publishes: publish_ms.len() as u64,
        publish_mean_ms,
        publish_max_ms,
        store_reloads: store_reloads.load(Ordering::Relaxed),
        rollbacks: rollbacks.load(Ordering::Relaxed),
        swap_failed: swap_outcome.failed,
        canary_rejections,
        crash_points,
        crash_recoveries,
        invariant_violations: violations,
    }
}

/// Aggregate of one registry-hammering phase.
struct HammerOutcome {
    queries: u64,
    failed: u64,
    reloads: u64,
}

/// Spawns `threads` workers that route the workload through
/// `registry.get(name)` in a loop until the control closure returns (it runs
/// on the calling thread and gets a stop flag it may consult).  Returns the
/// aggregate outcome and the p99 latency (µs) across all workers.
fn hammer_registry(
    registry: &ModelRegistry,
    name: &str,
    queries: &[TestQuery],
    expected: &[Option<RouteResult>],
    threads: usize,
    control: impl FnOnce(&AtomicBool) -> u64,
) -> (HammerOutcome, f64) {
    let stop = AtomicBool::new(false);
    let failed = AtomicU64::new(0);
    let (latencies, reloads): (Vec<Vec<f64>>, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let stop = &stop;
                let failed = &failed;
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    let mut latencies = Vec::new();
                    'outer: loop {
                        for (i, q) in queries.iter().enumerate() {
                            // ordering: Relaxed — the flag carries no data;
                            // workers only need to stop eventually, and the
                            // scope join is the real synchronisation point.
                            if stop.load(Ordering::Relaxed) {
                                break 'outer;
                            }
                            let q0 = Instant::now();
                            let engine = registry.get(name);
                            let r = engine
                                .as_ref()
                                .and_then(|e| e.route(&mut scratch, q.source, q.destination));
                            latencies.push(q0.elapsed().as_secs_f64() * 1e6);
                            if engine.is_none() || r != expected[i] {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    latencies
                })
            })
            .collect();
        let reloads = control(&stop);
        // ordering: Relaxed — see the worker-side load; join() synchronises.
        stop.store(true, Ordering::Relaxed);
        (
            handles
                .into_iter()
                .map(|h| h.join().expect("hammer worker"))
                .collect(),
            reloads,
        )
    });
    let mut merged: Vec<f64> = latencies.into_iter().flatten().collect();
    let queries_total = merged.len() as u64;
    merged.sort_by(|a, b| a.total_cmp(b));
    (
        HammerOutcome {
            queries: queries_total,
            failed: failed.load(Ordering::Relaxed),
            reloads,
        },
        percentile(&merged, 99.0),
    )
}
