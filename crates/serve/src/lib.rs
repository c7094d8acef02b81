//! # l2r-serve
//!
//! A dependency-free TCP route service over the L2R serving stack: an
//! [`l2r_core::ModelRegistry`] of named [`l2r_core::Engine`]s
//! (hot-reloadable from `.l2r` snapshot files while queries are in
//! flight), served by a fixed pool of **event-loop threads** — a
//! `poll(2)`-based readiness reactor over non-blocking sockets that
//! multiplexes thousands of connections per thread instead of pinning one
//! thread per connection.
//!
//! ## Wire protocols
//!
//! Each connection speaks one of two protocols, auto-detected from its
//! first byte:
//!
//! * the **binary frame protocol** ([`frame`]) — length-prefixed,
//!   checksummed frames with request pipelining (its magic starts with
//!   `0xB1`, which is not valid ASCII);
//! * the legacy **ASCII line protocol** — one request line in, one
//!   response line out:
//!
//! | request | response |
//! |---|---|
//! | `ping` | `OK pong` |
//! | `route <dataset> <src> <dst> [<deadline_ms>]` | `OK <strategy> <n> <v0> … <vn-1>` \| `NOROUTE` \| `BUSY` \| `ERR deadline …` \| `ERR internal …` \| `ERR …` |
//! | `route_batch <dataset> <s,d> [<s,d> …]` | `OK <total> <answered> <item> …` (item = `<strategy>:<n>` or `-`) \| `BUSY` \| `ERR deadline exceeded` \| `ERR internal …` \| `ERR …` |
//! | `info <dataset>` | `OK dataset=… vertices=… edges=… regions=… connectors=… generation=…` |
//! | `stats` | `OK uptime_ms=… connections=… queries=… answered=… errors=… reloads=… shed=… batches=… deadline_exceeded=… panics_caught=… idle_reaped=… write_stalls=… rejected=… respawned=… validation_failures=… rollbacks=… generations=… datasets=…` |
//! | `reload <dataset> <path> [latest\|<gen>]` | `OK dataset=… generation=…` \| `ERR reload failed: …` |
//! | `rollback <dataset>` | `OK dataset=… generation=…` \| `ERR rollback failed: …` |
//! | `shutdown` | `OK bye` (server drains and exits) |
//!
//! `reload`'s `<path>` may be a `.l2r` snapshot file or a **model-store
//! directory** (see `l2r_core::store`): a directory reloads the newest
//! durable generation, and an explicit trailing `latest` or generation
//! number pins the choice.  A failed `reload` — including a snapshot that
//! fails validation (wrong dataset stamp, canary digest mismatch) —
//! **keeps serving the old engine**; validation rejections additionally
//! count in the `validation_failures` stat.  A successful swap retains the
//! outgoing engine, and `rollback` restores it (bumping the generation —
//! a rollback *is* a swap).  With
//! [`ServerConfig::auto_rollback_window`] set, every swap also arms a
//! post-swap probation window ([`health`]): an internal-error rate spike
//! under real traffic rolls the dataset back automatically.  The registry
//! swap is atomic and only happens after the snapshot decoded and
//! validated cleanly.  `BUSY` means the dataset's bounded admission queue
//! ([`queue`]) was full; the connection stays open and the request should
//! be retried.  Both protocols report the same failure taxonomy: a route
//! whose deadline expired answers `ERR deadline …` on the line protocol
//! and [`frame::Status::DeadlineExceeded`] on the binary protocol; a route
//! whose handler panicked answers `ERR internal …` / a binary
//! [`frame::Status::Err`] whose message starts with `internal` — in every
//! case request-scoped: the connection keeps serving.
//!
//! Both protocols parse into one request type and run through one
//! executor, so every verb behaves identically on either wire: a
//! `route_batch` is admitted (or shed `BUSY`) as a whole, honours its
//! deadline and isolates panics exactly like single routes do.  A `route`
//! line with a token after its optional deadline is malformed
//! (`ERR usage: …`).
//!
//! ## Operational behaviour
//!
//! The server is self-healing by construction (see [`ServerConfig`] for
//! the knobs and the README's "Operational behaviour" section for the
//! operator view):
//!
//! * **deadlines** — every route carries a budget (client-supplied or
//!   [`ServerConfig::default_deadline`]), enforced at admission and again
//!   before and after execution;
//! * **panic isolation** — every request runs under `catch_unwind`; a
//!   panicking handler costs one request, never a worker thread, and a
//!   watchdog respawns any event loop that dies anyway;
//! * **connection hygiene** — idle connections are reaped, write-stalled
//!   (slow-loris) readers are disconnected once their outbound backlog
//!   exceeds a cap for too long, and accepts beyond
//!   [`ServerConfig::max_connections`] are shed at accept time;
//! * **graceful drain** — `shutdown` stops accepting, answers everything
//!   already admitted, flushes outbound buffers, then exits, bounded by
//!   [`ServerConfig::drain_deadline`];
//! * **fault injection** — a deterministic [`faults::FaultPlan`] can be
//!   installed to rehearse all of the above (the `chaos`, `drain` and
//!   `lifecycle` tests).
//!
//! ## Architecture
//!
//! `workers` poll(2) event loops share the non-blocking listener;
//! each owns its accepted connections outright.  Admitted `route` queries
//! from all of a loop's connections coalesce into batches of whatever
//! arrived during one poll round, executed through one reusable
//! [`l2r_core::QueryScratch`] per loop (from the shared
//! [`l2r_core::ScratchPool`]) — so steady-state serving does not allocate
//! search state per query.  Engines are handed out as
//! `Arc<Engine>` per request: a concurrent hot-swap can never expose a
//! half-swapped model.
//!
//! The crate also ships a dual-protocol pipelining **load generator**
//! ([`run_load`]) and a self-contained **smoke check** ([`run_smoke`])
//! used by CI.

#![warn(missing_docs)]

pub mod faults;
pub mod frame;
pub mod health;
pub mod queue;

mod client;
mod load;
mod reactor;
mod request;
mod smoke;

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_core::{ModelRegistry, ModelStore, RegistryError, ScratchPool};

pub use client::{
    route_reply_to_line, BatchItemReply, BinClient, Client, DatasetInfo, RetryPolicy,
    DEFAULT_CLIENT_READ_TIMEOUT,
};
pub use faults::{FaultConfig, FaultCounters, FaultPlan};
pub use health::{DatasetHealth, HealthMap};
pub use load::{run_load, LoadConfig, LoadReport, Protocol};
pub use queue::{DatasetQueue, DEFAULT_QUEUE_CAPACITY};
pub use request::format_route_response;
pub use smoke::{registry_from_specs, run_smoke, run_smoke_with};

/// Default event-loop thread count of a server.
pub const DEFAULT_WORKERS: usize = 4;

/// Default per-request deadline granted to routes that carry none.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// Default idle-connection reaping timeout.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default cap on concurrently open connections per server.
pub const DEFAULT_MAX_CONNECTIONS: usize = 65_536;

/// How often the watchdog thread checks its event loops for panics.
const WATCHDOG_TICK: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event-loop threads (each multiplexes its own connections).
    pub workers: usize,
    /// Bound on admitted-but-unanswered `route` queries per dataset;
    /// overflow is answered `BUSY` (see [`queue`]).
    pub queue_capacity: usize,
    /// Deadline granted to route requests that do not carry their own.
    /// Enforced at admission and again before and after execution; an
    /// expired request answers `DeadlineExceeded` / `ERR deadline`.
    pub default_deadline: Duration,
    /// Connections idle (no admitted work, nothing buffered in or out)
    /// longer than this are reaped.  `Duration::ZERO` disables reaping.
    pub idle_timeout: Duration,
    /// A connection whose outbound buffer has exceeded
    /// [`ServerConfig::write_stall_cap`] for longer than this is treated
    /// as a slow-loris reader and disconnected.
    pub write_stall_timeout: Duration,
    /// Outbound-backlog size that arms write-stall detection.
    pub write_stall_cap: usize,
    /// Cap on concurrently open connections across all event loops;
    /// accepts beyond it are shed (connection closed immediately).
    pub max_connections: usize,
    /// Hard bound on graceful drain: after `shutdown`, event loops finish
    /// admitted requests and flush replies for at most this long.
    pub drain_deadline: Duration,
    /// Post-swap probation window (see [`health`]): after a successful
    /// reload, this many route outcomes on the dataset are watched for an
    /// internal-error spike before the swap is trusted.  `0` (the default)
    /// disables automatic rollback entirely.
    pub auto_rollback_window: u64,
    /// Internal-error rate (per thousand outcomes of the probation window)
    /// above which the server rolls the dataset back automatically.
    pub auto_rollback_per_mille: u32,
    /// Deterministic fault-injection plan (tests and chaos benches only;
    /// `None` in production — every hook is then a cheap branch).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: DEFAULT_WORKERS,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            default_deadline: DEFAULT_DEADLINE,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            write_stall_timeout: Duration::from_secs(5),
            write_stall_cap: 256 * 1024,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            drain_deadline: Duration::from_secs(1),
            auto_rollback_window: 0,
            auto_rollback_per_mille: 200,
            faults: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Server state
// ---------------------------------------------------------------------------

/// One monotonic serving counter of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Connections accepted.
    Connections,
    /// Route queries executed (batch items count individually).
    Queries,
    /// Executed queries that produced a route.
    Answered,
    /// Requests rejected with `ERR` (malformed, unknown dataset, failed
    /// reload or rollback, framing violations).
    Errors,
    /// Successful hot-reloads.
    Reloads,
    /// Route queries answered `BUSY` by load-shedding.
    Shed,
    /// Route batches executed by the event loops.
    Batches,
    /// Route requests that expired before they could be answered
    /// (`DeadlineExceeded` / `ERR deadline`).
    DeadlineExceeded,
    /// Handler panics converted into request-scoped `ERR internal`
    /// replies by panic isolation.
    PanicsCaught,
    /// Connections reaped for exceeding the idle timeout.
    IdleReaped,
    /// Connections disconnected by write-stall (slow-loris) detection.
    WriteStalls,
    /// Connections shed at accept time by the connection cap.
    ConnsRejected,
    /// Event-loop threads respawned by the watchdog after dying to a
    /// panic that escaped request-scoped isolation.
    WorkersRespawned,
    /// Reload attempts rejected by snapshot validation (wrong dataset
    /// stamp or canary digest mismatch) — each one kept the old engine
    /// serving.
    ValidationFailures,
    /// Rollbacks performed — explicit `rollback` commands plus automatic
    /// post-swap probation triggers.
    Rollbacks,
}

/// Every counter with its `stats` key, in rendering order: the one table
/// both the ASCII line and the binary field list are rendered from.
const COUNTERS: [(Counter, &str); 15] = [
    (Counter::Connections, "connections"),
    (Counter::Queries, "queries"),
    (Counter::Answered, "answered"),
    (Counter::Errors, "errors"),
    (Counter::Reloads, "reloads"),
    (Counter::Shed, "shed"),
    (Counter::Batches, "batches"),
    (Counter::DeadlineExceeded, "deadline_exceeded"),
    (Counter::PanicsCaught, "panics_caught"),
    (Counter::IdleReaped, "idle_reaped"),
    (Counter::WriteStalls, "write_stalls"),
    (Counter::ConnsRejected, "rejected"),
    (Counter::WorkersRespawned, "respawned"),
    (Counter::ValidationFailures, "validation_failures"),
    (Counter::Rollbacks, "rollbacks"),
];

/// Monotonic serving counters, shared by all event loops (all atomics —
/// they are hammered concurrently from every loop thread).
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    values: [AtomicU64; COUNTERS.len()],
}

impl ServerStats {
    fn new() -> ServerStats {
        ServerStats {
            started: Instant::now(),
            values: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize].load(Ordering::Relaxed)
    }

    /// Adds `n` to `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.values[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// Everything the event loops share: the model registry, the scratch pool,
/// per-dataset admission queues, counters and the shutdown flag.
#[derive(Debug)]
pub struct ServerState {
    pub(crate) registry: ModelRegistry,
    pub(crate) scratch: ScratchPool,
    pub(crate) stats: ServerStats,
    pub(crate) queues: queue::DatasetQueues,
    pub(crate) health: HealthMap,
    pub(crate) shutdown: AtomicBool,
    /// Gauge of currently open connections across all event loops (the
    /// accept-time connection cap works against this; it must return to
    /// zero after every drain — tests assert no connection leaks).
    pub(crate) open_conns: AtomicUsize,
}

impl ServerState {
    /// Wraps a registry into shared server state with default tunables.
    pub fn new(registry: ModelRegistry) -> ServerState {
        ServerState::with_config(registry, &ServerConfig::default())
    }

    /// Wraps a registry into shared server state with explicit tunables.
    pub fn with_config(registry: ModelRegistry, cfg: &ServerConfig) -> ServerState {
        ServerState {
            registry,
            scratch: ScratchPool::new(),
            stats: ServerStats::new(),
            queues: queue::DatasetQueues::new(cfg.queue_capacity),
            health: HealthMap::new(cfg.auto_rollback_window, cfg.auto_rollback_per_mille),
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
        }
    }

    /// The model registry this server serves from (e.g. to hot-swap engines
    /// programmatically instead of via the `reload` command).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The bounded admission queue of `dataset`, if any route request has
    /// touched it yet (depth/shed/served counters for tests and
    /// observability).
    pub fn dataset_queue(&self, dataset: &str) -> Option<Arc<DatasetQueue>> {
        self.queues.peek(dataset)
    }

    /// Scratch-pool diagnostics: total scratches ever created (bounds peak
    /// concurrency) — the serving loop must keep this at ≤ worker count no
    /// matter how many connections and batches have been served.
    pub fn scratches_created(&self) -> usize {
        self.scratch.created()
    }

    /// Currently open connections across all event loops.  Returns to
    /// exactly zero after a drain — a non-zero value with no clients
    /// attached is a connection leak.
    pub fn open_connections(&self) -> usize {
        // ordering: SeqCst — pairs with the OpenConns gauge updates in the
        // event loops; drains spin on this reaching zero, so reads must be
        // in the same total order as claims and releases.
        self.open_conns.load(Ordering::SeqCst)
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        // ordering: SeqCst — the shutdown flag is the cross-loop stop
        // signal; the rare read per loop iteration is worth the strongest
        // ordering so no loop can keep accepting after the store.
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (event loops drain pending responses and exit).
    pub fn request_shutdown(&self) {
        // ordering: SeqCst — pairs with shutdown_requested's loads.
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The `stats` body shared by both protocols (everything after the
    /// ASCII response's `OK ` prefix).
    pub fn stats_line(&self) -> String {
        let mut line = format!("uptime_ms={}", self.stats.uptime_ms());
        for (counter, key) in COUNTERS {
            let _ = write!(line, " {key}={}", self.stats.get(counter));
        }
        let generations: Vec<String> = self
            .registry
            .generations()
            .iter()
            .map(|(name, generation)| format!("{name}:{generation}"))
            .collect();
        let _ = write!(
            line,
            " generations={} datasets={}",
            or_dash(generations),
            or_dash(self.registry.names()),
        );
        line
    }

    /// Every server counter as machine-readable `(key, value)` pairs — the
    /// structured half of the binary `stats` response, and the source the
    /// ASCII line must agree with field-for-field (`uptime_ms` excepted:
    /// the two are read at different instants).  Active registry
    /// generations ride along as `generation.<dataset>` keys.
    pub fn stats_fields(&self) -> Vec<(String, u64)> {
        let mut fields = vec![("uptime_ms".to_string(), self.stats.uptime_ms())];
        for (counter, key) in COUNTERS {
            fields.push((key.to_string(), self.stats.get(counter)));
        }
        for (name, generation) in self.registry.generations() {
            fields.push((format!("generation.{name}"), generation));
        }
        fields
    }

    /// Rolls `dataset` back to its retained previous engine, counting the
    /// event and disarming any pending probation (a manual rollback
    /// supersedes the automatic one).  Returns the new registry generation.
    pub fn rollback(&self, dataset: &str) -> Result<u64, String> {
        match self.registry.rollback(dataset) {
            Ok((_, generation)) => {
                self.stats.add(Counter::Rollbacks, 1);
                self.health.disarm(dataset);
                Ok(generation)
            }
            Err(e) => Err(format!("rollback failed: {e}")),
        }
    }

    /// Fires a probation-triggered rollback.  Losing the race to a manual
    /// `rollback` (the retained engine already consumed) is not an error —
    /// the dataset is already back on the old engine.
    pub(crate) fn trigger_auto_rollback(&self, health: &DatasetHealth) {
        if self.registry.rollback(health.name()).is_ok() {
            self.stats.add(Counter::Rollbacks, 1);
        }
    }
}

/// Comma-joins `items`, or `-` when there are none.
fn or_dash(items: Vec<String>) -> String {
    if items.is_empty() {
        "-".to_string()
    } else {
        items.join(",")
    }
}

/// Performs one reload for either protocol and keeps the stats honest:
/// `path` may be a `.l2r` snapshot file or a model-store directory, and
/// `spec` (store reloads only) pins `latest` or an explicit generation
/// number.  A successful swap counts `reloads` and arms post-swap
/// probation; a validation rejection (dataset stamp or canary mismatch)
/// counts `validation_failures`.  Returns the registry generation now
/// serving, or the operator-facing error message.
pub(crate) fn do_reload(
    state: &ServerState,
    dataset: &str,
    path: &str,
    spec: Option<&str>,
) -> Result<u64, String> {
    let target = Path::new(path);
    let outcome = if spec.is_some() || target.is_dir() {
        let generation = match spec {
            None | Some("latest") => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(g) => Some(g),
                Err(_) => {
                    return Err(format!(
                        "reload generation `{raw}` is neither `latest` nor a number"
                    ))
                }
            },
        };
        ModelStore::open(target)
            .map_err(RegistryError::from)
            .and_then(|store| {
                state
                    .registry
                    .reload_from_store(dataset, &store, generation)
            })
            .map(|_| ())
    } else {
        state.registry.reload(dataset, target).map(|_| ())
    };
    match outcome {
        Ok(()) => {
            state.stats.add(Counter::Reloads, 1);
            if state.registry.has_previous(dataset) {
                state.health.arm(dataset);
            }
            Ok(state.registry.generation(dataset).unwrap_or(0))
        }
        Err(e) => {
            if matches!(
                e,
                RegistryError::DatasetMismatch { .. } | RegistryError::CanaryMismatch { .. }
            ) {
                state.stats.add(Counter::ValidationFailures, 1);
            }
            Err(format!("reload failed: {e}"))
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A bound (but not yet serving) route server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServerConfig,
    state: Arc<ServerState>,
}

/// A server running on a background thread; shut it down with
/// [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and prepares
    /// a pool of `workers` event loops over `registry` with default
    /// tunables.
    pub fn bind(addr: &str, workers: usize, registry: ModelRegistry) -> io::Result<Server> {
        Server::bind_with(
            addr,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            registry,
        )
    }

    /// Binds `addr` with explicit [`ServerConfig`] tunables.
    pub fn bind_with(addr: &str, cfg: ServerConfig, registry: ModelRegistry) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cfg = ServerConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let state = Arc::new(ServerState::with_config(registry, &cfg));
        Ok(Server {
            listener,
            addr,
            cfg,
            state,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the server state (registry, stats, shutdown flag).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown is requested (by the `shutdown` command or
    /// [`ServerState::request_shutdown`] + a wake-up connection).  Blocks
    /// the calling thread; the event loops run on scoped threads, watched
    /// by this thread: an event loop that dies to a panic (request-scoped
    /// isolation should make that impossible, but belt *and* braces) is
    /// respawned with a fresh listener clone, and the `workers_respawned`
    /// counter records every such resurrection.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let state = &self.state;
        let cfg = &self.cfg;
        let listener = &self.listener;
        std::thread::scope(|scope| -> io::Result<()> {
            let mut workers = Vec::with_capacity(cfg.workers);
            for _ in 0..cfg.workers {
                let clone = listener.try_clone()?;
                workers.push(scope.spawn(move || reactor::event_loop(clone, state, cfg)));
            }
            while !workers.is_empty() {
                std::thread::sleep(WATCHDOG_TICK);
                let mut alive = Vec::with_capacity(workers.len());
                for worker in workers.drain(..) {
                    if !worker.is_finished() {
                        alive.push(worker);
                        continue;
                    }
                    // A clean return means the loop saw the shutdown flag
                    // and drained; a join error means it panicked.
                    if worker.join().is_err() && !state.shutdown_requested() {
                        state.stats.add(Counter::WorkersRespawned, 1);
                        let clone = listener.try_clone()?;
                        alive.push(scope.spawn(move || reactor::event_loop(clone, state, cfg)));
                    }
                }
                workers = alive;
            }
            Ok(())
        })
    }

    /// Runs the server on a background thread, returning immediately.
    pub fn start(self) -> ServerHandle {
        let addr = self.addr;
        let state = Arc::clone(&self.state);
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, state, join }
    }
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the server state.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Requests shutdown, wakes the event loops and waits for the server
    /// thread to finish.
    pub fn shutdown(self) -> io::Result<()> {
        self.state.request_shutdown();
        wake_workers(self.addr, 1);
        match self.join.join() {
            Ok(result) => result,
            Err(payload) => Err(io::Error::other(format!(
                "server thread panicked: {}",
                panic_message(&payload)
            ))),
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Wakes event loops parked in `poll` by making `n` throwaway connections
/// (the shared listener becoming readable wakes every loop).
fn wake_workers(addr: SocketAddr, n: usize) {
    for _ in 0..n {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{decode_request, parse_line, Request};
    use l2r_core::{apply_preferences_to_b_edges, save_model, Engine, L2r, L2rConfig};
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
    use l2r_road_network::VertexId;

    fn tiny_engine() -> Engine {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        apply_preferences_to_b_edges(&syn.net, &mut rg, &std::collections::HashMap::new(), 2);
        Engine::from_graphs(&syn.net, &rg)
    }

    /// Serves the tiny engine as `D1` on an ephemeral loopback port, with
    /// one line-protocol client connected.
    fn serve_d1() -> (ServerHandle, Arc<ServerState>, Client) {
        let registry = ModelRegistry::new();
        registry.insert("D1", tiny_engine());
        let handle = Server::bind("127.0.0.1:0", 2, registry).unwrap().start();
        let state = handle.state();
        let client = Client::connect(handle.addr()).unwrap();
        (handle, state, client)
    }

    #[test]
    fn protocol_answers_ping_stats_info() {
        let (handle, _state, mut client) = serve_d1();
        assert_eq!(client.request("ping").unwrap(), "OK pong");
        let stats = client.request("stats").unwrap();
        assert!(stats.starts_with("OK uptime_ms="), "{stats}");
        assert!(stats.contains("shed=0"), "{stats}");
        assert!(stats.contains("batches=0"), "{stats}");
        assert!(stats.contains("datasets=D1"), "{stats}");
        let info = client.request("info D1").unwrap();
        assert!(
            info.contains("vertices=") && info.contains("generation=1"),
            "{info}"
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_routes_bit_identically_to_the_engine() {
        let (handle, state, mut client) = serve_d1();
        let engine = state.registry().get("D1").unwrap();
        let mut scratch = l2r_core::QueryScratch::new();
        let n = engine.network().num_vertices() as u32;
        let mut compared = 0usize;
        for i in (0..n).step_by(7) {
            let (s, d) = (i, (i * 13 + 5) % n);
            let expected =
                format_route_response(&engine.route(&mut scratch, VertexId(s), VertexId(d)));
            let got = client.request(&format!("route D1 {s} {d}")).unwrap();
            assert_eq!(got, expected, "query {s} -> {d}");
            compared += 1;
        }
        assert!(compared > 10);
        assert_eq!(state.stats().get(Counter::Queries), compared as u64);
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_answers_noroute_for_out_of_range_vertices() {
        let (handle, state, mut client) = serve_d1();
        for line in ["route D1 4000000000 4000000000", "route D1 0 4000000000"] {
            assert_eq!(client.request(line).unwrap(), "NOROUTE", "{line}");
        }
        assert_eq!(state.stats().get(Counter::Queries), 2);
        assert_eq!(state.stats().get(Counter::Answered), 0);
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_batch_counts_and_items_line_up() {
        let (handle, state, mut client) = serve_d1();
        let resp = client.request("route_batch D1 0,1 1,2 2,3").unwrap();
        assert!(resp.starts_with("OK 3 "), "{resp}");
        let items: Vec<&str> = resp.split_whitespace().skip(3).collect();
        assert_eq!(items.len(), 3, "{resp}");
        assert_eq!(state.stats().get(Counter::Queries), 3);
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_rejects_malformed_requests() {
        let malformed = [
            "route",
            "route D1",
            "route D1 0",
            "route D1 zero one",
            "route D1 0 1 5 junk",
            "route_batch D1",
            "route_batch D1 0:1",
            "reload D1",
            "rollback",
            "frobnicate",
        ];
        for bad in malformed {
            assert!(parse_line(bad).is_err(), "`{bad}` parsed");
        }
        // Well-formed, but naming what is not there: fails at execution.
        let missing = ["route nosuch 0 1", "info nosuch", "rollback nosuch"];
        for line in missing {
            assert!(parse_line(line).is_ok(), "`{line}` rejected by the parser");
        }
        // Binary payloads that cannot decode fail the request, not the
        // connection.
        let mut truncated_batch = l2r_road_network::codec::Writer::new();
        truncated_batch.str("D1");
        truncated_batch.u32(2);
        truncated_batch.u32(0);
        assert_eq!(
            decode_request(0x7F, &[]),
            Err("unknown opcode 0x7f".to_string())
        );
        for (opcode, payload) in [
            (frame::Opcode::Route, &[0xDE, 0xAD][..]),
            (frame::Opcode::RouteBatch, truncated_batch.as_slice()),
            (frame::Opcode::Info, &[]),
            (frame::Opcode::Reload, &[]),
            (frame::Opcode::Rollback, &[]),
        ] {
            let err = decode_request(opcode as u8, payload).unwrap_err();
            assert!(err.starts_with("bad "), "{opcode:?}: {err}");
        }

        let (handle, state, mut client) = serve_d1();
        for bad in malformed.iter().chain(&missing) {
            let resp = client.request(bad).unwrap();
            assert!(resp.starts_with("ERR"), "`{bad}` -> {resp}");
        }
        assert!(!state.shutdown_requested());
        assert_eq!(client.request("ping").unwrap(), "OK pong");
        assert_eq!(state.stats().get(Counter::Errors), 13);
        assert_eq!(state.stats().get(Counter::Queries), 0);
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_shutdown_flags_the_server() {
        assert_eq!(parse_line("shutdown"), Ok(Request::Shutdown));
        assert_eq!(
            decode_request(frame::Opcode::Shutdown as u8, &[]),
            Ok(Request::Shutdown)
        );
        let (handle, state, mut client) = serve_d1();
        assert_eq!(client.request("shutdown").unwrap(), "OK bye");
        assert!(state.shutdown_requested());
        handle.shutdown().unwrap();
    }

    #[test]
    fn stats_counters_are_safe_under_concurrent_hammering() {
        // The shared counters are updated from every event-loop thread;
        // hammer them over the wire from many clients and assert nothing
        // is lost.
        let (handle, state, _client) = serve_d1();
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..per_thread {
                        let q = (t * per_thread + i) as u32;
                        client.request(&format!("route D1 {q} {}", q + 1)).unwrap();
                        client.request("frobnicate").unwrap();
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        assert_eq!(state.stats().get(Counter::Queries), total);
        assert_eq!(state.stats().get(Counter::Errors), total);
        handle.shutdown().unwrap();
    }

    #[test]
    fn counter_table_lists_every_counter_once_in_declaration_order() {
        for (i, (counter, _)) in COUNTERS.iter().enumerate() {
            assert_eq!(*counter as usize, i);
        }
    }

    #[test]
    fn tcp_server_serves_reloads_and_shuts_down() {
        // One real end-to-end pass over TCP: fit a tiny model, snapshot it,
        // serve it, reload it, load-generate against it, shut down.
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let (train, _) = wl.temporal_split(0.8);
        let model = L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap();
        let path = std::env::temp_dir().join(format!("l2r-serve-test-{}.l2r", std::process::id()));
        save_model(&model, &path).unwrap();

        let registry = ModelRegistry::new();
        registry.insert("tiny", model.into_engine());
        let server = Server::bind("127.0.0.1:0", 2, registry).unwrap();
        let addr = server.local_addr();
        let state = server.state();
        let handle = server.start();

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request("ping").unwrap(), "OK pong");
        let resp = client.request("route tiny 0 5").unwrap();
        assert!(resp.starts_with("OK ") || resp == "NOROUTE", "{resp}");
        let resp = client
            .request(&format!("reload tiny {}", path.display()))
            .unwrap();
        assert!(resp.contains("generation=2"), "{resp}");
        // The event loops multiplex: our idle keep-alive connection must
        // not cost the load generator anything.

        let report = run_load(
            addr,
            &LoadConfig {
                dataset: "tiny".to_string(),
                protocol: Protocol::Ascii,
                connections: 2,
                pipeline: 1,
                requests_per_conn: 50,
                seed: 7,
                ..LoadConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.requests, 100);
        assert_eq!(report.errors, 0);
        assert!(report.qps > 0.0);
        assert!(report.p99_us >= report.p50_us);

        // The original connection is still serving after the load run.
        assert_eq!(client.request("ping").unwrap(), "OK pong");
        assert_eq!(client.request("shutdown").unwrap(), "OK bye");
        handle.shutdown().unwrap();
        std::fs::remove_file(&path).ok();
        assert!(state.stats().get(Counter::Queries) >= 101);
        assert!(
            state.scratches_created() <= 2,
            "2 workers must never need more than 2 scratches, created {}",
            state.scratches_created()
        );
    }

    #[test]
    fn smoke_passes_against_a_saved_snapshot() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let (train, _) = wl.temporal_split(0.8);
        let model = L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap();
        let path = std::env::temp_dir().join(format!("l2r-serve-smoke-{}.l2r", std::process::id()));
        save_model(&model, &path).unwrap();
        let transcript = run_smoke(&[("tiny".to_string(), path.clone())]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(transcript.contains("clean shutdown"), "{transcript}");
        assert!(transcript.contains("bit-identically"), "{transcript}");
        assert!(transcript.contains("binary:"), "{transcript}");
    }
}
