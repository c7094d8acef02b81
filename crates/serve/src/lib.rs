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
//! | `route_batch <dataset> <s,d> [<s,d> …]` | `OK <total> <answered> <item> …` (item = `<strategy>:<n>` or `-`) |
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
//! swap is atomic and only happens after the snapshot decoded, compiled
//! and validated cleanly.  `BUSY` means the dataset's bounded admission queue
//! ([`queue`]) was full; the connection stays open and the request should
//! be retried.  Both protocols report the same failure taxonomy: a route
//! whose deadline expired answers `ERR deadline …` on the line protocol
//! and [`frame::Status::DeadlineExceeded`] on the binary protocol; a route
//! whose handler panicked answers `ERR internal …` / a binary
//! [`frame::Status::Err`] whose message starts with `internal` — in every
//! case request-scoped: the connection keeps serving.
//!
//! ## Operational behaviour
//!
//! The server is self-healing by construction (see [`ServerConfig`] for
//! the knobs and the README's "Operational behaviour" section for the
//! operator view):
//!
//! * **deadlines** — every route carries a budget (client-supplied or
//!   [`ServerConfig::default_deadline`]), enforced at admission, at
//!   batch-coalesce time (a batch never waits past its earliest member's
//!   budget) and again before execution;
//! * **panic isolation** — route execution runs under `catch_unwind`; a
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
//!   installed to rehearse all of the above (tests + the `resilience`
//!   bench section).
//!
//! ## Architecture
//!
//! `workers` poll(2) event loops share the non-blocking listener;
//! each owns its accepted connections outright.  Admitted `route` queries
//! from all of a loop's connections coalesce into latency-budget-aware
//! batches executed through one reusable [`l2r_core::QueryScratch`] per
//! loop (from the shared [`l2r_core::ScratchPool`]) or, for large
//! batches, [`l2r_core::Engine::route_many`] — so steady-state serving
//! does not allocate search state per query.  Engines are handed out as
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
mod smoke;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_core::{ModelRegistry, ModelStore, QueryScratch, RegistryError, RouteResult, ScratchPool};
use l2r_road_network::VertexId;

pub use client::{
    route_reply_to_line, BatchItemReply, BinClient, Client, DatasetInfo, RetryPolicy,
    DEFAULT_CLIENT_READ_TIMEOUT,
};
pub use faults::{FaultConfig, FaultCounters, FaultPlan};
pub use health::{DatasetHealth, HealthMap};
pub use load::{run_load, LoadConfig, LoadReport, Protocol};
pub use queue::{DatasetQueue, DEFAULT_QUEUE_CAPACITY};
pub use reactor::PARALLEL_BATCH_MIN;
pub use smoke::{registry_from_specs, run_smoke, run_smoke_with};

/// Default event-loop thread count of a server.
pub const DEFAULT_WORKERS: usize = 4;

/// Default flush threshold of the per-loop route batch.
pub const DEFAULT_BATCH_MAX: usize = 64;

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
    /// Route batches flush at this size even mid-read, so admission depth
    /// stays bounded by it under pipelined floods.
    pub batch_max: usize,
    /// How long a loop may hold a non-full batch hoping to coalesce more
    /// queries.  Zero (the default) flushes every poll iteration: batches
    /// then form naturally from whatever arrived while the previous batch
    /// executed, adding no latency.
    pub batch_budget: Duration,
    /// Deadline granted to route requests that do not carry their own.
    /// Enforced at admission, at batch-coalesce time and before execution;
    /// an expired request answers `DeadlineExceeded` / `ERR deadline`.
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
            batch_max: DEFAULT_BATCH_MAX,
            batch_budget: Duration::ZERO,
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

/// Monotonic serving counters, shared by all event loops (all atomics —
/// they are hammered concurrently from every loop thread).
#[derive(Debug)]
pub struct ServerStats {
    pub(crate) started: Instant,
    pub(crate) connections: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) answered: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) reloads: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) panics_caught: AtomicU64,
    pub(crate) idle_reaped: AtomicU64,
    pub(crate) write_stalls: AtomicU64,
    pub(crate) conns_rejected: AtomicU64,
    pub(crate) workers_respawned: AtomicU64,
    pub(crate) validation_failures: AtomicU64,
    pub(crate) rollbacks: AtomicU64,
}

impl ServerStats {
    fn new() -> ServerStats {
        ServerStats {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            write_stalls: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            validation_failures: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        }
    }

    /// Total route queries served (batch items count individually).
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Queries that produced a route.
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::Relaxed)
    }

    /// Requests rejected with `ERR`.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Successful hot-reloads performed.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Connections accepted.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Route queries answered `BUSY` by load-shedding.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Route batches executed by the event loops.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Route requests that expired before they could be answered
    /// (`DeadlineExceeded` / `ERR deadline`).
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Handler panics converted into request-scoped `ERR internal`
    /// replies by panic isolation.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    /// Connections reaped for exceeding the idle timeout.
    pub fn idle_reaped(&self) -> u64 {
        self.idle_reaped.load(Ordering::Relaxed)
    }

    /// Connections disconnected by write-stall (slow-loris) detection.
    pub fn write_stalls(&self) -> u64 {
        self.write_stalls.load(Ordering::Relaxed)
    }

    /// Connections shed at accept time by the connection cap.
    pub fn conns_rejected(&self) -> u64 {
        self.conns_rejected.load(Ordering::Relaxed)
    }

    /// Event-loop threads respawned by the watchdog after dying to a
    /// panic that escaped request-scoped isolation.
    pub fn workers_respawned(&self) -> u64 {
        self.workers_respawned.load(Ordering::Relaxed)
    }

    /// Reload attempts rejected by snapshot validation (wrong dataset
    /// stamp or canary digest mismatch) — each one kept the old engine
    /// serving.
    pub fn validation_failures(&self) -> u64 {
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// Rollbacks performed — explicit `rollback` commands plus automatic
    /// post-swap probation triggers.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
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
        let names = self.registry.names();
        let datasets = if names.is_empty() {
            "-".to_string()
        } else {
            names.join(",")
        };
        let generations = self.generations_field();
        format!(
            "uptime_ms={} connections={} queries={} answered={} errors={} reloads={} shed={} \
             batches={} deadline_exceeded={} panics_caught={} idle_reaped={} write_stalls={} \
             rejected={} respawned={} validation_failures={} rollbacks={} \
             generations={generations} datasets={datasets}",
            self.stats.started.elapsed().as_millis(),
            self.stats.connections(),
            self.stats.queries(),
            self.stats.answered(),
            self.stats.errors(),
            self.stats.reloads(),
            self.stats.shed(),
            self.stats.batches(),
            self.stats.deadline_exceeded(),
            self.stats.panics_caught(),
            self.stats.idle_reaped(),
            self.stats.write_stalls(),
            self.stats.conns_rejected(),
            self.stats.workers_respawned(),
            self.stats.validation_failures(),
            self.stats.rollbacks(),
        )
    }

    /// The `generations=` field of the stats line: `name:gen` per dataset,
    /// comma-joined in sorted name order, or `-` with no datasets.
    fn generations_field(&self) -> String {
        let generations = self.registry.generations();
        if generations.is_empty() {
            return "-".to_string();
        }
        generations
            .iter()
            .map(|(name, generation)| format!("{name}:{generation}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Every server counter as machine-readable `(key, value)` pairs — the
    /// structured half of the binary `stats` response, and the source the
    /// ASCII line must agree with field-for-field (`uptime_ms` excepted:
    /// the two are read at different instants).  Active registry
    /// generations ride along as `generation.<dataset>` keys.
    pub fn stats_fields(&self) -> Vec<(String, u64)> {
        let mut fields: Vec<(String, u64)> = vec![
            (
                "uptime_ms".into(),
                self.stats.started.elapsed().as_millis() as u64,
            ),
            ("connections".into(), self.stats.connections()),
            ("queries".into(), self.stats.queries()),
            ("answered".into(), self.stats.answered()),
            ("errors".into(), self.stats.errors()),
            ("reloads".into(), self.stats.reloads()),
            ("shed".into(), self.stats.shed()),
            ("batches".into(), self.stats.batches()),
            ("deadline_exceeded".into(), self.stats.deadline_exceeded()),
            ("panics_caught".into(), self.stats.panics_caught()),
            ("idle_reaped".into(), self.stats.idle_reaped()),
            ("write_stalls".into(), self.stats.write_stalls()),
            ("rejected".into(), self.stats.conns_rejected()),
            ("respawned".into(), self.stats.workers_respawned()),
            (
                "validation_failures".into(),
                self.stats.validation_failures(),
            ),
            ("rollbacks".into(), self.stats.rollbacks()),
        ];
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
                self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
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
            self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
        }
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
            state.stats.reloads.fetch_add(1, Ordering::Relaxed);
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
                state
                    .stats
                    .validation_failures
                    .fetch_add(1, Ordering::Relaxed);
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
            batch_max: cfg.batch_max.max(1),
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
                        state
                            .stats
                            .workers_respawned
                            .fetch_add(1, Ordering::Relaxed);
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

// ---------------------------------------------------------------------------
// ASCII protocol handlers
// ---------------------------------------------------------------------------

/// Formats a route answer exactly as the ASCII server sends it (`OK
/// <strategy> <n> <v0> …` / `NOROUTE`).  Public so clients and tests can
/// compare server responses against a locally computed
/// [`l2r_core::Engine::route`] answer for end-to-end bit-equivalence.
pub fn format_route_response(result: &Option<RouteResult>) -> String {
    match result {
        Some(r) => {
            let vertices = r.path.vertices();
            let mut out = String::with_capacity(16 + vertices.len() * 7);
            out.push_str("OK ");
            out.push_str(r.strategy.label());
            out.push(' ');
            out.push_str(&vertices.len().to_string());
            for v in vertices {
                out.push(' ');
                out.push_str(&v.0.to_string());
            }
            out
        }
        None => "NOROUTE".to_string(),
    }
}

/// Answers one protocol line using the caller's reusable scratch.  Returns
/// the response line (without trailing newline) and whether the server
/// should shut down.  Exposed for protocol unit tests; the event loop
/// routes well-formed `route` requests through admission + batching
/// instead, and everything else through this.
pub fn respond_line(
    state: &ServerState,
    scratch: &mut QueryScratch,
    request: &str,
) -> (String, bool) {
    let mut parts = request.split_whitespace();
    let command = parts.next().unwrap_or("");
    let response = match command {
        "ping" => "OK pong".to_string(),
        "route" => cmd_route(state, scratch, &mut parts),
        "route_batch" => cmd_route_batch(state, scratch, &mut parts),
        "info" => cmd_info(state, &mut parts),
        "stats" => format!("OK {}", state.stats_line()),
        "reload" => cmd_reload(state, &mut parts),
        "rollback" => cmd_rollback(state, &mut parts),
        "shutdown" => return ("OK bye".to_string(), true),
        other => {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            format!(
                "ERR unknown command `{other}` \
                 (expected ping|route|route_batch|info|stats|reload|rollback|shutdown)"
            )
        }
    };
    (response, false)
}

fn err(state: &ServerState, message: String) -> String {
    state.stats.errors.fetch_add(1, Ordering::Relaxed);
    format!("ERR {message}")
}

fn parse_vertex(field: Option<&str>, what: &str) -> Result<VertexId, String> {
    match field {
        Some(s) => s
            .parse::<u32>()
            .map(VertexId)
            .map_err(|_| format!("{what} `{s}` is not a vertex id")),
        None => Err(format!("missing {what}")),
    }
}

fn cmd_route<'a>(
    state: &ServerState,
    scratch: &mut QueryScratch,
    parts: &mut impl Iterator<Item = &'a str>,
) -> String {
    let Some(dataset) = parts.next() else {
        return err(
            state,
            "usage: route <dataset> <src> <dst> [<deadline_ms>]".to_string(),
        );
    };
    let (s, d) = match (
        parse_vertex(parts.next(), "source"),
        parse_vertex(parts.next(), "destination"),
    ) {
        (Ok(s), Ok(d)) => (s, d),
        (Err(e), _) | (_, Err(e)) => return err(state, e),
    };
    let deadline_ms = match parts.next() {
        None => None,
        Some(raw) => match raw.parse::<u32>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                return err(
                    state,
                    format!("deadline `{raw}` is not a millisecond count"),
                )
            }
        },
    };
    let Some(engine) = state.registry.get(dataset) else {
        return err(state, format!("unknown dataset `{dataset}`"));
    };
    // The inline path executes immediately, so only an already-spent
    // budget can expire here; the reactor's admission/batch path does the
    // full three-point enforcement.
    if deadline_ms == Some(0) {
        state
            .stats
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        return "ERR deadline exceeded".to_string();
    }
    let result = engine.route(scratch, s, d);
    state.stats.queries.fetch_add(1, Ordering::Relaxed);
    if result.is_some() {
        state.stats.answered.fetch_add(1, Ordering::Relaxed);
    }
    format_route_response(&result)
}

fn cmd_route_batch<'a>(
    state: &ServerState,
    scratch: &mut QueryScratch,
    parts: &mut impl Iterator<Item = &'a str>,
) -> String {
    let Some(dataset) = parts.next() else {
        return err(
            state,
            "usage: route_batch <dataset> <src,dst> [<src,dst> ...]".to_string(),
        );
    };
    let Some(engine) = state.registry.get(dataset) else {
        return err(state, format!("unknown dataset `{dataset}`"));
    };
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for item in parts {
        let Some((s, d)) = item.split_once(',') else {
            return err(state, format!("malformed pair `{item}` (want src,dst)"));
        };
        match (
            parse_vertex(Some(s), "source"),
            parse_vertex(Some(d), "destination"),
        ) {
            (Ok(s), Ok(d)) => pairs.push((s, d)),
            (Err(e), _) | (_, Err(e)) => return err(state, e),
        }
    }
    if pairs.is_empty() {
        return err(
            state,
            "route_batch needs at least one src,dst pair".to_string(),
        );
    }
    let mut out = String::new();
    let mut answered = 0u64;
    for &(s, d) in &pairs {
        let result = engine.route(scratch, s, d);
        out.push(' ');
        match &result {
            Some(r) => {
                answered += 1;
                out.push_str(r.strategy.label());
                out.push(':');
                out.push_str(&r.path.vertices().len().to_string());
            }
            None => out.push('-'),
        }
    }
    state
        .stats
        .queries
        .fetch_add(pairs.len() as u64, Ordering::Relaxed);
    state.stats.answered.fetch_add(answered, Ordering::Relaxed);
    format!("OK {} {}{}", pairs.len(), answered, out)
}

fn cmd_info<'a>(state: &ServerState, parts: &mut impl Iterator<Item = &'a str>) -> String {
    let Some(dataset) = parts.next() else {
        return err(state, "usage: info <dataset>".to_string());
    };
    let Some(engine) = state.registry.get(dataset) else {
        return err(state, format!("unknown dataset `{dataset}`"));
    };
    let generation = state.registry.generation(dataset).unwrap_or(0);
    format!(
        "OK dataset={dataset} vertices={} edges={} regions={} connectors={} generation={generation}",
        engine.network().num_vertices(),
        engine.network().num_edges(),
        engine.region_graph().num_regions(),
        engine.num_connectors(),
    )
}

fn cmd_reload<'a>(state: &ServerState, parts: &mut impl Iterator<Item = &'a str>) -> String {
    let (Some(dataset), Some(path)) = (parts.next(), parts.next()) else {
        return err(
            state,
            "usage: reload <dataset> <path> [latest|<generation>]".to_string(),
        );
    };
    let spec = parts.next();
    match do_reload(state, dataset, path, spec) {
        Ok(generation) => format!("OK dataset={dataset} generation={generation}"),
        // The registry kept the previous engine; tell the operator why the
        // swap did not happen.
        Err(message) => err(state, message),
    }
}

fn cmd_rollback<'a>(state: &ServerState, parts: &mut impl Iterator<Item = &'a str>) -> String {
    let Some(dataset) = parts.next() else {
        return err(state, "usage: rollback <dataset>".to_string());
    };
    match state.rollback(dataset) {
        Ok(generation) => format!("OK dataset={dataset} generation={generation}"),
        Err(message) => err(state, message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_core::{apply_preferences_to_b_edges, save_model, Engine, L2r, L2rConfig};
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};

    fn tiny_engine() -> Engine {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        apply_preferences_to_b_edges(&syn.net, &mut rg, &std::collections::HashMap::new(), 2);
        Engine::from_graphs(&syn.net, &rg)
    }

    fn state_with(name: &str) -> ServerState {
        let registry = ModelRegistry::new();
        registry.insert(name, tiny_engine());
        ServerState::new(registry)
    }

    #[test]
    fn protocol_answers_ping_stats_info() {
        let state = state_with("D1");
        let mut scratch = QueryScratch::new();
        assert_eq!(respond_line(&state, &mut scratch, "ping").0, "OK pong");
        let (stats, _) = respond_line(&state, &mut scratch, "stats");
        assert!(stats.starts_with("OK uptime_ms="), "{stats}");
        assert!(stats.contains("shed=0"), "{stats}");
        assert!(stats.contains("batches=0"), "{stats}");
        assert!(stats.contains("datasets=D1"), "{stats}");
        let (info, _) = respond_line(&state, &mut scratch, "info D1");
        assert!(
            info.contains("vertices=") && info.contains("generation=1"),
            "{info}"
        );
    }

    #[test]
    fn protocol_routes_bit_identically_to_the_engine() {
        let state = state_with("D1");
        let engine = state.registry().get("D1").unwrap();
        let mut scratch = l2r_core::QueryScratch::new();
        let mut proto_scratch = QueryScratch::new();
        let n = engine.network().num_vertices() as u32;
        let mut compared = 0usize;
        for i in (0..n).step_by(7) {
            let (s, d) = (i, (i * 13 + 5) % n);
            let expected =
                format_route_response(&engine.route(&mut scratch, VertexId(s), VertexId(d)));
            let (got, _) = respond_line(&state, &mut proto_scratch, &format!("route D1 {s} {d}"));
            assert_eq!(got, expected, "query {s} -> {d}");
            compared += 1;
        }
        assert!(compared > 10);
        assert_eq!(state.stats().queries(), compared as u64);
    }

    #[test]
    fn protocol_answers_noroute_for_out_of_range_vertices() {
        let state = state_with("D1");
        let mut scratch = QueryScratch::new();
        for line in ["route D1 4000000000 4000000000", "route D1 0 4000000000"] {
            let (resp, _) = respond_line(&state, &mut scratch, line);
            assert_eq!(resp, "NOROUTE", "{line}");
        }
        assert_eq!(state.stats().queries(), 2);
        assert_eq!(state.stats().answered(), 0);
    }

    #[test]
    fn protocol_batch_counts_and_items_line_up() {
        let state = state_with("D1");
        let mut scratch = QueryScratch::new();
        let (resp, _) = respond_line(&state, &mut scratch, "route_batch D1 0,1 1,2 2,3");
        assert!(resp.starts_with("OK 3 "), "{resp}");
        let items: Vec<&str> = resp.split_whitespace().skip(3).collect();
        assert_eq!(items.len(), 3, "{resp}");
        assert_eq!(state.stats().queries(), 3);
    }

    #[test]
    fn protocol_rejects_malformed_requests() {
        let state = state_with("D1");
        let mut scratch = QueryScratch::new();
        for bad in [
            "route",
            "route D1",
            "route D1 0",
            "route D1 zero one",
            "route nosuch 0 1",
            "route_batch D1",
            "route_batch D1 0:1",
            "info nosuch",
            "reload D1",
            "rollback",
            "rollback nosuch",
            "frobnicate",
        ] {
            let (resp, shutdown) = respond_line(&state, &mut scratch, bad);
            assert!(resp.starts_with("ERR"), "`{bad}` -> {resp}");
            assert!(!shutdown);
        }
        assert_eq!(state.stats().errors(), 12);
        assert_eq!(state.stats().queries(), 0);
    }

    #[test]
    fn protocol_shutdown_flags_the_server() {
        let state = state_with("D1");
        let mut scratch = QueryScratch::new();
        let (resp, shutdown) = respond_line(&state, &mut scratch, "shutdown");
        assert_eq!(resp, "OK bye");
        assert!(shutdown);
    }

    #[test]
    fn stats_counters_are_safe_under_concurrent_hammering() {
        // The shared counters are updated from every event-loop thread;
        // hammer them through the protocol layer from many threads and
        // assert nothing is lost.
        let state = state_with("D1");
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let state = &state;
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    for i in 0..per_thread {
                        let q = (t * per_thread + i) as u32;
                        respond_line(state, &mut scratch, &format!("route D1 {q} {}", q + 1));
                        respond_line(state, &mut scratch, "frobnicate");
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        assert_eq!(state.stats().queries(), total);
        assert_eq!(state.stats().errors(), total);
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
        assert!(state.stats().queries() >= 101);
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
