//! The shareable serving handle: [`Engine`].
//!
//! A fitted [`L2r`] is already the router: it owns the oriented-path and
//! connector tables [`L2r::route`] reads, built once when the model is
//! fitted or decoded.  An `Engine` is an `Arc<L2r>` under the name the
//! serving stack uses, dereferencing to the model, so building one runs no
//! compile stage at all.  Model and tables travel as one `Send + Sync` unit:
//! a long-lived server builds it straight off a snapshot file
//! ([`Engine::load`]), shares it across threads behind an `Arc<Engine>`, and
//! atomically swaps in a freshly fitted replacement via
//! [`crate::registry::ModelRegistry`] without tearing anything down.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use l2r_region_graph::RegionGraph;
use l2r_road_network::RoadNetwork;

use crate::config::L2rConfig;
use crate::pipeline::{L2r, OfflineStats};
use crate::snapshot::{load_model, SnapshotError};

/// A shared handle to a fitted model, the unit the serving stack registers,
/// swaps and routes through.  It dereferences to [`L2r`], so
/// [`L2r::route`] and [`L2r::route_many`] serve queries straight from it;
/// one instance serves any number of threads, each bringing its own
/// [`crate::QueryScratch`].
#[derive(Debug, Clone)]
pub struct Engine(Arc<L2r>);

// The whole point of owning the model: an Engine must be shareable across
// serving threads behind an `Arc` with no further ceremony.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<L2r>();
};

impl Engine {
    /// Wraps a fitted model (the model moves behind an `Arc`; use
    /// [`Engine::from_shared`] to share an existing one).
    pub fn new(model: L2r) -> Engine {
        Engine::from_shared(Arc::new(model))
    }

    /// Wraps an already-shared model without cloning the model data.
    pub fn from_shared(model: Arc<L2r>) -> Engine {
        Engine(model)
    }

    /// Loads a model snapshot from disk — everything a serving process
    /// needs to go from a `.l2r` file to answering queries.
    pub fn load(path: &std::path::Path) -> Result<Engine, SnapshotError> {
        Ok(Engine::new(load_model(path)?))
    }

    /// Thin borrowed constructor for tests: a degenerate owned model around
    /// clones of a road network and region graph (no learned preferences,
    /// default config), with its routing tables built.  Routing only
    /// consults the network, the region graph and those tables, so it
    /// answers exactly like the full fitted model.
    pub fn from_graphs(net: &RoadNetwork, rg: &RegionGraph) -> Engine {
        Engine::new(L2r::from_parts(
            net.clone(),
            rg.clone(),
            HashMap::new(),
            HashMap::new(),
            L2rConfig::default(),
            OfflineStats::default(),
        ))
    }

    /// Number of entries in the model's connector table (diagnostics).
    pub fn num_connectors(&self) -> usize {
        self.0.connectors().len()
    }

    /// The model this engine serves.
    pub fn model(&self) -> &L2r {
        &self.0
    }

    /// A shared handle to the model (cheap `Arc` clone), e.g. to wrap it in
    /// a second engine or inspect the model while the engine keeps serving.
    pub fn shared_model(&self) -> Arc<L2r> {
        Arc::clone(&self.0)
    }
}

impl Deref for Engine {
    type Target = L2r;

    fn deref(&self) -> &L2r {
        &self.0
    }
}

impl L2r {
    /// Moves this fitted model into an [`Engine`] (no clone).
    pub fn into_engine(self) -> Engine {
        Engine::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_preferences_to_b_edges;
    use crate::oracle;
    use crate::{QueryScratch, RouteStrategy};
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, TrajectoryGraph};
    use l2r_road_network::{Path, VertexId};

    fn build() -> (RoadNetwork, RegionGraph) {
        build_graphs(true)
    }

    /// The tiny fixture; without the apply step its B-edges carry no paths,
    /// so both of their orientations fall back to a transfer center.
    fn build_graphs(apply_b_edges: bool) -> (RoadNetwork, RegionGraph) {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        if apply_b_edges {
            apply_preferences_to_b_edges(&syn.net, &mut rg, &std::collections::HashMap::new(), 2);
        }
        (syn.net.clone(), rg)
    }

    #[test]
    fn engine_route_matches_free_route_on_a_vertex_grid() {
        let (net, rg) = build();
        let engine = Engine::from_graphs(&net, &rg);
        let mut scratch = QueryScratch::new();
        let n = net.num_vertices() as u32;
        let mut compared = 0usize;
        for i in (0..n).step_by(5) {
            for j in (1..n).step_by(11) {
                let (s, d) = (VertexId(i), VertexId(j));
                let free = oracle::route(&net, &rg, s, d);
                let fast = engine.route(&mut scratch, s, d);
                assert_eq!(free, fast, "query {s:?} -> {d:?}");
                compared += 1;
            }
        }
        assert!(compared > 50, "the sweep should cover many pairs");
    }

    #[test]
    fn route_many_matches_serial_routing() {
        let (net, rg) = build();
        let engine = Engine::from_graphs(&net, &rg);
        let n = net.num_vertices() as u32;
        let queries: Vec<(VertexId, VertexId)> = (0..n)
            .step_by(3)
            .map(|i| (VertexId(i), VertexId((i * 7 + 13) % n)))
            .collect();
        let batch = engine.route_many(&queries);
        let mut scratch = QueryScratch::new();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(&engine.route(&mut scratch, q.0, q.1), b);
        }
    }

    #[test]
    fn same_vertex_query_is_trivial() {
        let (net, rg) = build();
        let engine = Engine::from_graphs(&net, &rg);
        let mut scratch = QueryScratch::new();
        let r = engine
            .route(&mut scratch, VertexId(0), VertexId(0))
            .unwrap();
        assert!(r.path.is_trivial());
        assert_eq!(r.strategy, RouteStrategy::FastestFallback);
    }

    #[test]
    fn out_of_range_endpoints_are_rejected_like_the_free_router() {
        let (net, rg) = build();
        let engine = Engine::from_graphs(&net, &rg);
        let mut scratch = QueryScratch::new();
        let big = VertexId(net.num_vertices() as u32 + 17);
        for (s, d) in [(VertexId(0), big), (big, VertexId(0)), (big, big)] {
            let free = oracle::route(&net, &rg, s, d);
            assert_eq!(free, None, "query {s:?} -> {d:?}");
            assert_eq!(engine.route(&mut scratch, s, d), free);
        }
    }

    /// The connector keys enumerated straight from the region graph: per
    /// orientation `from → to`, every vertex of `from` reaches the head target
    /// (the attached path's entry, or `to`'s fallback transfer center), and
    /// the anchor (the path's exit, or that same center) reaches every vertex
    /// of `to`.  Also returns how many head targets lie outside `from`.
    fn expected_connector_keys(
        rg: &RegionGraph,
        engine: &Engine,
    ) -> (std::collections::HashSet<(VertexId, VertexId)>, usize) {
        let mut expected = std::collections::HashSet::new();
        let mut heads_outside_from = 0usize;
        for edge in rg.edges() {
            let o = &engine.oriented_paths()[edge.id.idx()];
            for (from, to, seg) in [
                (edge.a, edge.b, o.forward.as_ref()),
                (edge.b, edge.a, o.backward.as_ref()),
            ] {
                let (head, anchor) = match seg {
                    Some(p) => (p.source(), p.destination()),
                    None => match rg.transfer_centers_or_default(to).first() {
                        Some(&c) => (c, c),
                        None => continue,
                    },
                };
                if rg.region_of(head) != Some(from) {
                    heads_outside_from += 1;
                }
                for &v in &rg.region(from).vertices {
                    if v != head {
                        expected.insert((v, head));
                    }
                }
                for &t in &rg.region(to).vertices {
                    if t != anchor {
                        expected.insert((anchor, t));
                    }
                }
            }
        }
        (expected, heads_outside_from)
    }

    /// The engine serves from its model's table: the keys are exactly the
    /// stubs the region graph implies, and every path is the live fastest
    /// path.
    #[test]
    fn connector_table_is_exactly_the_head_and_tail_stubs() {
        let mut heads_outside_from = 0usize;
        for apply_b_edges in [true, false] {
            let (net, rg) = build_graphs(apply_b_edges);
            let engine = Engine::from_graphs(&net, &rg);
            let (expected, outside) = expected_connector_keys(&rg, &engine);
            heads_outside_from += outside;
            let table = engine.model().connectors();
            assert_eq!(engine.num_connectors(), table.len());
            let actual: std::collections::HashSet<(VertexId, VertexId)> =
                table.iter().map(|(key, _)| key).collect();
            assert!(!expected.is_empty());
            assert_eq!(actual, expected, "connector keys (apply={apply_b_edges})");
            for ((from, to), stored) in table.iter() {
                let live = l2r_road_network::fastest_path(&net, from, to);
                assert_eq!(
                    stored,
                    live.as_ref().map(Path::vertices),
                    "connector {from:?} -> {to:?}"
                );
                // Every key is found by the lookup the router uses; a vertex
                // is never its own key, and a source past the network has none.
                assert_eq!(table.get(from, to), Some(stored));
                assert_eq!(table.get(from, from), None);
                assert_eq!(table.get(VertexId(net.num_vertices() as u32), to), None);
            }
        }
        assert!(
            heads_outside_from > 0,
            "a fixture needs an orientation whose head target lies outside its region"
        );
    }

    #[test]
    fn oriented_paths_cover_both_directions_of_t_edges() {
        let (net, rg) = build();
        let engine = Engine::from_graphs(&net, &rg);
        // Every edge with attached paths resolves at least one orientation.
        for e in rg.edges() {
            if e.has_paths() {
                let o = &engine.oriented_paths()[e.id.idx()];
                assert!(
                    o.forward.is_some() || o.backward.is_some(),
                    "edge {:?} has paths but no oriented resolution",
                    e.id
                );
                if let Some(p) = &o.forward {
                    assert_eq!(rg.region_of(p.source()), Some(e.a));
                    assert_eq!(rg.region_of(p.destination()), Some(e.b));
                    assert!(p.validate(&net).is_ok());
                }
                if let Some(p) = &o.backward {
                    assert_eq!(rg.region_of(p.source()), Some(e.b));
                    assert_eq!(rg.region_of(p.destination()), Some(e.a));
                    assert!(p.validate(&net).is_ok());
                }
            }
        }
    }

    #[test]
    fn shared_model_handle_keeps_the_model_alive_and_identical() {
        let (net, rg) = build();
        let engine = Engine::from_graphs(&net, &rg);
        let handle = engine.shared_model();
        assert_eq!(
            handle.network().num_vertices(),
            engine.network().num_vertices()
        );
        // A second engine around the shared handle answers identically.
        let twin = Engine::from_shared(handle);
        let mut s1 = QueryScratch::new();
        let mut s2 = QueryScratch::new();
        let n = net.num_vertices() as u32;
        for i in (0..n).step_by(9) {
            let (s, d) = (VertexId(i), VertexId((i * 5 + 3) % n));
            assert_eq!(engine.route(&mut s1, s, d), twin.route(&mut s2, s, d));
        }
    }
}
