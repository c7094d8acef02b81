//! # l2r-core
//!
//! **learn-to-route (L2R)** — the primary contribution of *"Learning to Route
//! with Sparse Trajectory Sets"* (ICDE 2018), assembled behind one public
//! API.
//!
//! ```no_run
//! use l2r_core::{L2r, L2rConfig, QueryScratch};
//! use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
//!
//! // 1. A road network and a sparse set of (map-matched) trajectories.
//! let city = generate_network(&SyntheticNetworkConfig::tiny());
//! let workload = generate_workload(&city, &WorkloadConfig::tiny(300));
//! let (train, test) = workload.temporal_split(0.8);
//!
//! // 2. Fit: clustering -> region graph -> preference learning -> transfer
//! //    -> path assignment for B-edges.
//! let model = L2r::fit(&city.net, &train, L2rConfig::default()).unwrap();
//!
//! // 3. Route arbitrary (source, destination) pairs, reusing one scratch.
//! let mut scratch = QueryScratch::new();
//! let query = &test[0];
//! let route = model
//!     .route(&mut scratch, query.source(), query.destination())
//!     .unwrap();
//! println!("recommended path: {}", route.path);
//! ```
//!
//! The pipeline modules mirror the three steps of the paper:
//! [`pipeline`] (orchestration and offline statistics), [`apply`] (Step 3),
//! [`region_routing`] and [`router`] (Section VI), with Step 1 and Step 2
//! living in the `l2r-region-graph` and `l2r-preference` crates.
//!
//! The fitted model is the router.  It builds the tables Section VI reads —
//! the best attached path of every region edge in both orientations and the
//! fastest-path [`ConnectorTable`] — once, when it is fitted or decoded, and
//! [`L2r::route`] answers from them through a reusable per-thread
//! [`QueryScratch`] without per-query allocation; [`L2r::route_many`]
//! batches across threads.  For serving, a model is shared across threads
//! as an `Arc<L2r>` (`Arc::new(model)`, or
//! `load_model(path).map(Arc::new)` straight from a snapshot file), each
//! thread bringing its own [`QueryScratch`].  A long-lived service manages
//! named models through a [`registry::ModelRegistry`], which hot-swaps
//! freshly fitted snapshots in atomically while queries are in flight.  The
//! reference router the tests compare [`L2r::route`] against lives in
//! [`oracle`].
//!
//! To pay the offline cost once *per fleet* rather than once per process,
//! persist the fitted model with [`snapshot::save_model`] and serve it from
//! disk with [`snapshot::load_model`]: a loaded model routes bit-identically
//! to the in-memory original.

#![warn(missing_docs)]

pub mod apply;
pub mod config;
pub mod connectors;
pub mod engine;
pub mod error;
pub mod oracle;
pub mod pipeline;
pub mod region_routing;
pub mod registry;
pub mod router;
pub mod snapshot;
pub mod store;

pub use apply::{apply_preferences_to_b_edges, ApplyStats};
pub use config::L2rConfig;
pub use connectors::{ConnectorTable, OrientedPaths};
pub use engine::Engine;
pub use error::L2rError;
pub use pipeline::{L2r, OfflineStats};
pub use region_routing::{find_region_path, RegionPath, RegionSearchSpace};
pub use registry::{ModelRegistry, RegistryError};
pub use router::{region_coverage, QueryScratch, RegionCoverage, RouteResult, RouteStrategy};
pub use snapshot::{
    compute_canaries, decode_model, decode_snapshot, encode_model, encode_model_structural,
    encode_snapshot, encode_snapshot_with, load_model, load_snapshot, route_digest, save_model,
    save_snapshot, splitmix64, verify_frame, Canary, Snapshot, SnapshotError, SNAPSHOT_CRC_FIELD,
    SNAPSHOT_HEADER_LEN, SNAPSHOT_LEN_FIELD, SNAPSHOT_VERSION,
};
pub use store::{
    decode_manifest, encode_manifest, FaultFs, FsFaultConfig, FsFaultKind, Manifest, ManifestEntry,
    ModelStore, RealFs, StoreError, StoreFs, StoreOptions,
};
