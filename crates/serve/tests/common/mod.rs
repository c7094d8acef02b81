//! Shared scaffolding for the serve integration tests: builds a tiny
//! model from synthetic data and starts a real server on an ephemeral
//! loopback port.

#![allow(dead_code)]

use std::net::SocketAddr;
use std::sync::Arc;

use l2r_core::{apply_preferences_to_b_edges, L2r, ModelRegistry};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
use l2r_serve::{Server, ServerConfig, ServerHandle, ServerState};

/// The dataset name every test server registers its tiny model under.
pub const DATASET: &str = "D1";

pub fn tiny_model() -> Arc<L2r> {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
    let clusters = bottom_up_clustering(&tg);
    let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
    apply_preferences_to_b_edges(&syn.net, &mut rg, &std::collections::HashMap::new(), 2);
    Arc::new(L2r::from_graphs(&syn.net, &rg))
}

/// Starts a server over one tiny dataset with the given tunables.
pub fn start_server(cfg: ServerConfig) -> (ServerHandle, SocketAddr, Arc<ServerState>) {
    let registry = ModelRegistry::new();
    registry.insert(DATASET, tiny_model());
    let server = Server::bind_with("127.0.0.1:0", cfg, registry).expect("bind");
    let addr = server.local_addr();
    let state = server.state();
    (server.start(), addr, state)
}
