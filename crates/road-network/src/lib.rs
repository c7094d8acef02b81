//! # l2r-road-network
//!
//! Road-network substrate for the learn-to-route (L2R) reproduction of
//! *"Learning to Route with Sparse Trajectory Sets"* (ICDE 2018).
//!
//! This crate provides everything below the region-graph layer:
//!
//! * the road-network graph `G = (V, E, W)` with the paper's four weight
//!   functions (distance, travel time, fuel consumption, road type) —
//!   [`graph`], [`weights`], [`road_type`];
//! * paths and the path-similarity functions used by the evaluation
//!   (Equations 1 and 4, and the Figure 14 band matching) — [`path`],
//!   [`similarity`];
//! * routing primitives: shortest, fastest, fuel-optimal and weighted
//!   paths ([`dijkstra`]), the preference-constrained search of Algorithm 2
//!   ([`constrained`]) and the multi-objective skyline search used by the
//!   Dom baseline ([`skyline`]), all built on the reusable zero-allocation
//!   [`search_space`];
//! * planar geometry helpers and a grid spatial index ([`spatial`]);
//! * the hand-rolled binary [`codec`] (Writer/Reader, [`Encode`]/[`Decode`])
//!   that model snapshots are built on.
//!
//! Everything is deterministic and free of I/O; higher layers (trajectories,
//! clustering, preference learning, the L2R router) build on these types.

#![warn(missing_docs)]

pub mod codec;
pub mod constrained;
pub mod dijkstra;
pub mod error;
pub mod graph;
pub mod path;
pub mod path_builder;
pub mod road_type;
pub mod search_space;
pub mod similarity;
pub mod skyline;
pub mod spatial;
pub mod weights;

pub use codec::{
    crc32, decode_vertex, decode_walk, encode_walk, encode_walks, CodecError, Decode, Encode,
    Reader, Writer, EDGE_WIRE_BYTES, VERTEX_WIRE_BYTES,
};
pub use constrained::preference_constrained_path;
pub use dijkstra::{
    fastest_path, lowest_cost_path, most_economic_path, shortest_path, weighted_path,
};
pub use error::NetworkError;
pub use graph::{Edge, EdgeId, RoadNetwork, RoadNetworkBuilder, Vertex, VertexId};
pub use path::Path;
pub use path_builder::PathBuilder;
pub use road_type::{RoadType, RoadTypeSet};
pub use search_space::{searches_performed, SearchSpace};
pub use similarity::{
    band_match_similarity, band_match_similarity_10m, path_similarity, path_similarity_jaccard,
    path_to_waypoints, OverlapIndex, SimilarityKind,
};
pub use skyline::{skyline_paths, CostVector, SkylinePath};
pub use spatial::{
    centroid, convex_hull, density_cell_size, diameter, point_segment_distance, polygon_area,
    BoundingBox, GridIndex, Point,
};
pub use weights::{CostType, EdgeWeights};
