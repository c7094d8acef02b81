//! [`Engine`]: `Arc<L2r>` under the name the standalone `benchmark/` crate
//! imports.
//!
//! A fitted [`L2r`] is already the router, so the serving handle is just a
//! shared pointer to it; workspace code writes `Arc<L2r>` and `Arc::new`.

use std::sync::Arc;

use crate::pipeline::L2r;

/// `Arc<L2r>` under the name the standalone `benchmark/` crate imports.
/// Workspace code writes `Arc<L2r>`.
pub type Engine = Arc<L2r>;

impl L2r {
    /// Moves this model behind an [`Engine`] (`Arc::new`, no clone).
    pub fn into_engine(self) -> Engine {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_preferences_to_b_edges;
    use crate::{QueryScratch, RouteStrategy};
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
    use l2r_road_network::VertexId;

    #[test]
    fn same_vertex_query_is_trivial() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        apply_preferences_to_b_edges(&syn.net, &mut rg, &std::collections::HashMap::new(), 2);
        let engine: Engine = L2r::from_graphs(&syn.net, &rg).into_engine();
        let mut scratch = QueryScratch::new();
        let r = engine
            .route(&mut scratch, VertexId(0), VertexId(0))
            .unwrap();
        assert!(r.path.is_trivial());
        assert_eq!(r.strategy, RouteStrategy::FastestFallback);
    }
}
