//! # l2r-region-graph
//!
//! Step 1 of the learn-to-route pipeline (Section IV of the paper): turning a
//! road network and a set of map-matched trajectories into a **region
//! graph**.
//!
//! * [`trajectory_graph`] — the sub-graph traversed by trajectories with
//!   popularity annotations;
//! * [`clustering`] — the modularity-based, road-type-constrained bottom-up
//!   clustering of Algorithm 1;
//! * [`region`] — regions with geometric and functional descriptors;
//! * [`region_graph`] — the region graph with T-edges (trajectory-backed,
//!   carrying observed paths, transfer centers and inner-region paths) and
//!   B-edges (BFS connectivity edges, paths assigned later);
//! * [`hull`] — the Table IV region-size statistics.

#![warn(missing_docs)]

pub mod clustering;
pub mod codec;
pub mod hull;
pub mod region;
pub mod region_graph;
pub mod trajectory_graph;

pub use clustering::{bottom_up_clustering, Cluster};
pub use codec::{decode_region_graph, encode_region_graph};
pub use hull::{d1_bounds_km2, d2_bounds_km2, region_size_distribution, RegionSizeBucket};
pub use region::{Region, RegionId};
pub use region_graph::{RegionEdge, RegionEdgeId, RegionEdgeKind, RegionGraph, SupportedPath};
pub use trajectory_graph::{TrajectoryGraph, UndirectedEdge};
