//! The end-to-end learn-to-route pipeline: Figure 2 of the paper.
//!
//! [`L2r::fit`] runs clustering (Step 1), preference learning and transfer
//! (Step 2), and path assignment for B-edges plus the connector table
//! (Step 3); [`L2r::route`] answers arbitrary `(source, destination)` queries
//! (Section VI) from the tables the model builds once.

use std::collections::HashMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use l2r_preference::{
    learn_edge_preference_in, transfer_preferences, LearnedPreference, Preference,
};
use l2r_region_graph::{bottom_up_clustering, RegionEdgeId, RegionGraph, TrajectoryGraph};
use l2r_road_network::{RoadNetwork, SearchSpace, VertexId};
use l2r_trajectory::MatchedTrajectory;

use crate::apply::{apply_preferences_to_b_edges, ApplyStats};
use crate::config::L2rConfig;
use crate::connectors::{oriented_paths, ConnectorTable, OrientedPaths};
use crate::error::L2rError;
use crate::router::{region_coverage, RegionCoverage};

/// Timings and sizes of the offline phase (reported in Section VII-C,
/// "Offline Processing Time").
#[derive(Debug, Clone, Default)]
pub struct OfflineStats {
    /// Time spent clustering (region generation).
    pub clustering_time: Duration,
    /// Time spent building the region graph (T-edges, B-edges).
    pub region_graph_time: Duration,
    /// Time spent learning T-edge preferences (Step 1).
    pub learning_time: Duration,
    /// Time spent transferring preferences (Step 2).
    pub transfer_time: Duration,
    /// Time spent applying preferences to B-edges (Step 3).
    pub apply_time: Duration,
    /// Time spent resolving the connector table (the end of Step 3).
    pub connector_time: Duration,
    /// Number of regions.
    pub num_regions: usize,
    /// Number of T-edges.
    pub num_t_edges: usize,
    /// Number of B-edges.
    pub num_b_edges: usize,
    /// Null rate of the transfer step.
    pub null_rate: f64,
    /// Transfer-solve feature columns that missed the solver tolerance
    /// within the iteration budget.
    pub unconverged_columns: usize,
    /// Largest relative residual `‖b − A·x‖ / ‖b‖` over the solved columns.
    pub max_relative_residual: f64,
    /// Path-materialisation statistics of Step 3.
    pub apply: ApplyStats,
}

/// A fitted learn-to-route model, and the router that serves it: besides
/// the fitted parts it owns the two tables [`L2r::route`] reads, the
/// oriented-path table and the connector table, built once per model.
#[derive(Debug, Clone)]
pub struct L2r {
    net: RoadNetwork,
    region_graph: RegionGraph,
    learned: HashMap<RegionEdgeId, LearnedPreference>,
    transferred: HashMap<RegionEdgeId, Option<Preference>>,
    config: L2rConfig,
    stats: OfflineStats,
    /// Indexed by `RegionEdgeId`.
    oriented: Vec<OrientedPaths>,
    connectors: ConnectorTable,
}

impl L2r {
    /// Fits an L2R model on a road network and a set of map-matched training
    /// trajectories.  Every trajectory must be drivable on `net` (its
    /// vertices in range and every hop an edge, [`Path::validate`]): the
    /// model stores and serves those paths, so the first that is not is
    /// refused with [`L2rError::InvalidTrajectory`] before any work starts.
    ///
    /// [`Path::validate`]: l2r_road_network::Path::validate
    pub fn fit(
        net: &RoadNetwork,
        trajectories: &[MatchedTrajectory],
        config: L2rConfig,
    ) -> Result<L2r, L2rError> {
        if trajectories.is_empty() {
            return Err(L2rError::EmptyTrajectorySet);
        }
        for (index, t) in trajectories.iter().enumerate() {
            t.path
                .validate(net)
                .map_err(|error| L2rError::InvalidTrajectory { index, error })?;
        }
        let mut stats = OfflineStats::default();

        // Step 1a: trajectory graph + clustering.
        let t0 = Instant::now();
        let tg = TrajectoryGraph::build(net, trajectories);
        let clusters = bottom_up_clustering(&tg);
        stats.clustering_time = t0.elapsed();
        if clusters.is_empty() {
            return Err(L2rError::NoRegions);
        }

        // Step 1b: region graph.
        let t0 = Instant::now();
        let mut region_graph =
            RegionGraph::build(net, &clusters, trajectories, config.function_top_k);
        stats.region_graph_time = t0.elapsed();
        stats.num_regions = region_graph.num_regions();

        // Step 2a: learn preferences for T-edges.  Each T-edge is
        // independent, so learning fans out across threads (`L2R_THREADS`
        // workers, each with its own reusable search space); results are
        // collected in T-edge order, making the outcome identical to a
        // serial run.
        let t0 = Instant::now();
        let t_edges: Vec<&l2r_region_graph::RegionEdge> = region_graph.t_edges().collect();
        let learned_per_edge: Vec<Option<LearnedPreference>> =
            l2r_par::par_map_init(&t_edges, SearchSpace::new, |space, _, edge| {
                learn_edge_preference_in(space, net, &edge.paths, &config.learn)
            });
        let mut learned: HashMap<RegionEdgeId, LearnedPreference> =
            HashMap::with_capacity(t_edges.len());
        for (edge, lp) in t_edges.iter().zip(learned_per_edge) {
            if let Some(lp) = lp {
                learned.insert(edge.id, lp);
            }
        }
        stats.learning_time = t0.elapsed();
        stats.num_t_edges = t_edges.len();
        drop(t_edges);

        // Step 2b: transfer preferences to B-edges.
        let t0 = Instant::now();
        let labeled: HashMap<RegionEdgeId, Preference> = learned
            .iter()
            .map(|(id, lp)| (*id, lp.preference))
            .collect();
        let targets: Vec<RegionEdgeId> = region_graph.b_edges().map(|e| e.id).collect();
        let transfer = transfer_preferences(&region_graph, &labeled, &targets, &config.transfer);
        stats.transfer_time = t0.elapsed();
        stats.null_rate = transfer.null_rate;
        stats.unconverged_columns = transfer.unconverged_columns;
        stats.max_relative_residual = transfer.max_relative_residual;
        stats.num_b_edges = targets.len();

        // Step 3: apply preferences to B-edges.
        let t0 = Instant::now();
        stats.apply = apply_preferences_to_b_edges(
            net,
            &mut region_graph,
            &transfer.preferences,
            config.max_transfer_center_pairs,
        );
        stats.apply_time = t0.elapsed();

        // Step 3, last part: the oriented-path and connector tables the
        // router reads, which depend only on the network and the final
        // region graph.
        let net = net.clone();
        let t0 = Instant::now();
        let mut model = L2r::from_parts(
            net,
            region_graph,
            learned,
            transfer.preferences,
            config,
            stats,
        );
        model.stats.connector_time = t0.elapsed();
        Ok(model)
    }

    /// Reassembles a model from its constituent parts, resolving its
    /// connector table; the parts must describe a consistent fitted model.
    pub(crate) fn from_parts(
        net: RoadNetwork,
        region_graph: RegionGraph,
        learned: HashMap<RegionEdgeId, LearnedPreference>,
        transferred: HashMap<RegionEdgeId, Option<Preference>>,
        config: L2rConfig,
        stats: OfflineStats,
    ) -> L2r {
        let Ok(model) = L2r::assemble(
            net,
            region_graph,
            learned,
            transferred,
            config,
            stats,
            |net, rg, oriented| Ok::<_, Infallible>(ConnectorTable::resolve(net, rg, oriented)),
        );
        model
    }

    /// The one constructor, reached by the fit, [`L2r::from_parts`] and the
    /// snapshot decoder: builds the oriented-path table, then obtains the
    /// connector table from `connectors`, which resolves it (fit) or decodes
    /// the stored walks under the keys that table implies (decode).
    pub(crate) fn assemble<E>(
        net: RoadNetwork,
        region_graph: RegionGraph,
        learned: HashMap<RegionEdgeId, LearnedPreference>,
        transferred: HashMap<RegionEdgeId, Option<Preference>>,
        config: L2rConfig,
        stats: OfflineStats,
        connectors: impl FnOnce(
            &RoadNetwork,
            &RegionGraph,
            &[OrientedPaths],
        ) -> Result<ConnectorTable, E>,
    ) -> Result<L2r, E> {
        let oriented = oriented_paths(&net, &region_graph);
        let connectors = connectors(&net, &region_graph, &oriented)?;
        Ok(L2r {
            net,
            region_graph,
            learned,
            transferred,
            config,
            stats,
            oriented,
            connectors,
        })
    }

    /// Classifies a query against the region graph (InRegion / InOutRegion /
    /// OutRegion).
    pub fn coverage(&self, source: VertexId, destination: VertexId) -> RegionCoverage {
        region_coverage(&self.region_graph, source, destination)
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// The region graph (after Step 3, i.e. with paths on B-edges).
    pub fn region_graph(&self) -> &RegionGraph {
        &self.region_graph
    }

    /// Both orientations' best attached path of every region edge, indexed
    /// by `RegionEdgeId`: what [`L2r::route`] maps region paths back to
    /// roads with.
    pub fn oriented_paths(&self) -> &[OrientedPaths] {
        &self.oriented
    }

    /// The connector table resolved at fit time (or decoded with the
    /// snapshot), which [`L2r::route`] stitches with.
    pub fn connectors(&self) -> &ConnectorTable {
        &self.connectors
    }

    /// The preferences learned for T-edges.
    pub fn learned_preferences(&self) -> &HashMap<RegionEdgeId, LearnedPreference> {
        &self.learned
    }

    /// The preferences transferred to B-edges (`None` = null preference).
    pub fn transferred_preferences(&self) -> &HashMap<RegionEdgeId, Option<Preference>> {
        &self.transferred
    }

    /// Offline-phase statistics.
    pub fn stats(&self) -> &OfflineStats {
        &self.stats
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &L2rConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };

    fn fit_tiny() -> (l2r_datagen::SyntheticNetwork, l2r_datagen::Workload, L2r) {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let (train, _) = wl.temporal_split(0.8);
        let model = L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap();
        (syn, wl, model)
    }

    #[test]
    fn fit_produces_a_complete_model() {
        let (_, _, model) = fit_tiny();
        let stats = model.stats();
        assert!(stats.num_regions > 0);
        assert!(stats.num_t_edges > 0);
        assert!(!model.learned_preferences().is_empty());
        // Every T-edge with paths got a learned preference.
        assert_eq!(
            model.learned_preferences().len(),
            model
                .region_graph()
                .t_edges()
                .filter(|e| e.has_paths())
                .count()
        );
        // B-edges either have transferred preferences recorded or are absent.
        assert_eq!(model.transferred_preferences().len(), stats.num_b_edges);
    }

    #[test]
    fn fit_rejects_empty_input() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        assert!(matches!(
            L2r::fit(&syn.net, &[], L2rConfig::fast()),
            Err(L2rError::EmptyTrajectorySet)
        ));
    }

    #[test]
    fn routes_held_out_test_queries() {
        let (syn, wl, model) = fit_tiny();
        let (_, test) = wl.temporal_split(0.8);
        assert!(!test.is_empty());
        let mut routed = 0usize;
        let mut scratch = crate::QueryScratch::new();
        for t in test.iter().take(40) {
            let s = t.source();
            let d = t.destination();
            if let Some(r) = model.route(&mut scratch, s, d) {
                assert!(r.path.validate(&syn.net).is_ok());
                assert_eq!(r.path.source(), s);
                assert_eq!(r.path.destination(), d);
                routed += 1;
            }
        }
        assert!(routed > 0, "the model should answer held-out queries");
    }

    #[test]
    fn l2r_paths_resemble_driver_paths_more_than_shortest_paths() {
        use l2r_road_network::{path_similarity, shortest_path};
        let (syn, wl, model) = fit_tiny();
        let (_, test) = wl.temporal_split(0.8);
        let mut l2r_total = 0.0;
        let mut shortest_total = 0.0;
        let mut n = 0usize;
        let mut scratch = crate::QueryScratch::new();
        for t in test.iter().take(60) {
            let (s, d) = (t.source(), t.destination());
            let Some(l2r_route) = model.route(&mut scratch, s, d) else {
                continue;
            };
            let Some(short) = shortest_path(&syn.net, s, d) else {
                continue;
            };
            l2r_total += path_similarity(&syn.net, &t.path, &l2r_route.path);
            shortest_total += path_similarity(&syn.net, &t.path, &short);
            n += 1;
        }
        assert!(n >= 10, "need enough comparable test queries, got {n}");
        // The headline claim of the paper, in aggregate: trajectory-based
        // routing matches driver behaviour at least as well as cost-centric
        // shortest paths.
        assert!(
            l2r_total >= shortest_total * 0.95,
            "L2R similarity {l2r_total:.2} should not be clearly worse than Shortest {shortest_total:.2}"
        );
    }

    #[test]
    fn offline_stats_record_timings() {
        let (_, _, model) = fit_tiny();
        let s = model.stats();
        assert!(s.clustering_time.as_nanos() > 0);
        assert!(s.region_graph_time.as_nanos() > 0);
        assert!(s.learning_time.as_nanos() > 0);
        assert!(s.connector_time.as_nanos() > 0);
        assert!(s.apply.edges_with_paths + s.apply.edges_without_paths == s.num_b_edges);
        assert!(s.null_rate >= 0.0 && s.null_rate <= 1.0);
    }
}
