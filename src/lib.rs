//! # l2r-suite
//!
//! Umbrella crate of the **learn-to-route (L2R)** reproduction of
//! *"Learning to Route with Sparse Trajectory Sets"* (Guo, Yang, Hu, Jensen —
//! IEEE ICDE 2018).
//!
//! It re-exports the individual crates under stable module names and hosts
//! the runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).  Library users normally depend on the individual crates
//! (`l2r-core`, `l2r-road-network`, …); this crate is the convenient
//! one-stop entry point used by the examples, the documentation and the
//! benchmark harness.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`road_network`] | `l2r-road-network` | graph, weights, Dijkstra variants, skyline, path similarity |
//! | [`trajectory`] | `l2r-trajectory` | GPS records, simulation, HMM map matching, statistics |
//! | [`datagen`] | `l2r-datagen` | synthetic networks, latent preferences, workloads |
//! | [`region_graph`] | `l2r-region-graph` | modularity clustering, region graph (T-/B-edges) |
//! | [`preference`] | `l2r-preference` | preference model, learning, transduction transfer |
//! | [`core`] | `l2r-core` | the L2R pipeline and unified router |
//! | [`baselines`] | `l2r-baselines` | Shortest, Fastest, Dom, TRIP, external reference router |
//! | [`eval`] | `l2r-eval` | datasets, comparisons, per-figure experiment drivers |

#![warn(missing_docs)]

pub use l2r_baselines as baselines;
pub use l2r_core as core;
pub use l2r_datagen as datagen;
pub use l2r_eval as eval;
pub use l2r_preference as preference;
pub use l2r_region_graph as region_graph;
pub use l2r_road_network as road_network;
pub use l2r_trajectory as trajectory;

/// The most commonly used items, re-exported flat for examples and quick
/// prototyping.
pub mod prelude {
    pub use l2r_baselines::{
        BaselineRouter, Dom, ExternalRouter, FastestRouter, ShortestRouter, Trip,
    };
    pub use l2r_core::{
        load_model, save_model, L2r, L2rConfig, ModelRegistry, QueryScratch, RegionCoverage,
        RouteResult, RouteStrategy, SnapshotError,
    };
    pub use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    pub use l2r_road_network::{
        fastest_path, path_similarity, path_similarity_jaccard, shortest_path, CostType, Path,
        RoadNetwork, RoadType, VertexId,
    };
    pub use l2r_trajectory::{MapMatcher, MatchedTrajectory};
}
