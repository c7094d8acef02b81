//! Step 3 of Section V: applying transferred preferences to B-edges.
//!
//! Every B-edge receives concrete road-network paths: for (a capped number
//! of) pairs of transfer centers of its two endpoint regions, a path is
//! computed with the preference-constrained search of Algorithm 2 under the
//! edge's transferred preference.  Edges whose transferred preference is null
//! fall back to fastest paths, exactly as the paper does (Section VII-B).
//!
//! Because sparsity makes B-edges vastly outnumber T-edges, this is the most
//! search-heavy offline stage (Section VII-C).  Two optimisations keep it
//! fast without changing its output: each transfer center `ca` issues **one**
//! one-to-many search that settles every center of the opposite region
//! (instead of `|centers_b|` full searches), and the per-edge path
//! collection fans out across threads (`L2R_THREADS`), with results applied
//! to the region graph serially in edge order so the outcome is bit-identical
//! to a serial run.

use std::collections::HashMap;

use l2r_preference::Preference;
use l2r_region_graph::{RegionEdgeId, RegionGraph, SupportedPath};
use l2r_road_network::{CostType, RoadNetwork, SearchSpace, VertexId};

/// Statistics of the apply step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApplyStats {
    /// Number of B-edges that received at least one path.
    pub edges_with_paths: usize,
    /// Number of B-edges for which no path could be found at all.
    pub edges_without_paths: usize,
    /// Total number of paths materialised.
    pub total_paths: usize,
}

/// Attaches preference-based paths to every B-edge of `rg`.
///
/// `preferences` maps B-edge ids to their transferred preference (possibly
/// `None` for a null preference); edges missing from the map are treated as
/// null.  `max_center_pairs` caps the number of transfer-center pairs per
/// edge for which a path is materialised.
pub fn apply_preferences_to_b_edges(
    net: &RoadNetwork,
    rg: &mut RegionGraph,
    preferences: &HashMap<RegionEdgeId, Option<Preference>>,
    max_center_pairs: usize,
) -> ApplyStats {
    // Resolve the per-edge inputs up front (cheap, needs `rg`), then collect
    // paths in parallel with one reusable search space per worker, and
    // finally mutate `rg` serially in edge-id order.
    struct EdgeJob {
        id: RegionEdgeId,
        pref: Option<Preference>,
        centers_a: Vec<VertexId>,
        centers_b: Vec<VertexId>,
    }
    let jobs: Vec<EdgeJob> = rg
        .b_edges()
        .map(|e| EdgeJob {
            id: e.id,
            pref: preferences.get(&e.id).and_then(|p| p.as_ref()).copied(),
            centers_a: rg.transfer_centers_or_default(e.a).to_vec(),
            centers_b: rg.transfer_centers_or_default(e.b).to_vec(),
        })
        .collect();

    let collected: Vec<Vec<SupportedPath>> =
        l2r_par::par_map_init(&jobs, SearchSpace::new, |space, _, job| {
            collect_center_pair_paths(
                space,
                net,
                &job.centers_a,
                &job.centers_b,
                job.pref.as_ref(),
                max_center_pairs,
            )
        });

    let mut stats = ApplyStats::default();
    for (job, paths) in jobs.iter().zip(collected) {
        stats.total_paths += paths.len();
        if paths.is_empty() {
            stats.edges_without_paths += 1;
        } else {
            stats.edges_with_paths += 1;
            rg.set_edge_paths(job.id, paths);
        }
    }
    stats
}

/// Collects up to `max_center_pairs` distinct, non-trivial paths between the
/// transfer centers of two regions under an optional preference.  For every
/// source center one single search settles *all* destination centers
/// (`dijkstra_to_many`), which is equivalent to — but much cheaper than —
/// the historical per-pair searches: Dijkstra parents of settled vertices do
/// not change when the search keeps running past them.
fn collect_center_pair_paths(
    space: &mut SearchSpace,
    net: &RoadNetwork,
    centers_a: &[VertexId],
    centers_b: &[VertexId],
    pref: Option<&Preference>,
    max_center_pairs: usize,
) -> Vec<SupportedPath> {
    let cap = max_center_pairs.max(1);
    let mut paths: Vec<SupportedPath> = Vec::new();
    for ca in centers_a {
        if paths.len() >= cap {
            break;
        }
        if ca.idx() >= net.num_vertices() {
            continue;
        }
        match pref {
            Some(p) => space.constrained_to_many(net, *ca, centers_b, p.master, p.slave),
            None => {
                space.dijkstra_to_many(net, *ca, centers_b, |e| e.cost(CostType::TravelTime));
            }
        }
        for cb in centers_b {
            if paths.len() >= cap {
                break;
            }
            if ca == cb {
                continue;
            }
            if let Some(p) = space.path_to(*cb) {
                if !p.is_trivial() && !paths.iter().any(|sp| sp.path == p) {
                    paths.push(SupportedPath {
                        path: p,
                        support: 1,
                    });
                }
            }
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, TrajectoryGraph};
    use l2r_road_network::{
        fastest_path, preference_constrained_path, CostType, RoadType, RoadTypeSet,
    };

    fn build() -> (l2r_road_network::RoadNetwork, RegionGraph) {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(200));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        (syn.net.clone(), rg)
    }

    #[test]
    fn b_edges_receive_paths() {
        let (net, mut rg) = build();
        let num_b = rg.b_edges().count();
        assert!(num_b > 0, "need B-edges for this test");
        let prefs: HashMap<RegionEdgeId, Option<Preference>> = rg
            .b_edges()
            .map(|e| {
                (
                    e.id,
                    Some(Preference {
                        master: CostType::TravelTime,
                        slave: Some(RoadTypeSet::single(RoadType::Primary)),
                    }),
                )
            })
            .collect();
        let stats = apply_preferences_to_b_edges(&net, &mut rg, &prefs, 3);
        assert_eq!(stats.edges_with_paths + stats.edges_without_paths, num_b);
        assert!(stats.edges_with_paths > 0);
        assert!(stats.total_paths >= stats.edges_with_paths);
        // The attached paths are valid and non-trivial.
        for e in rg.b_edges() {
            for sp in &e.paths {
                assert!(sp.path.validate(&net).is_ok());
                assert!(!sp.path.is_trivial());
            }
        }
    }

    #[test]
    fn null_preferences_fall_back_to_fastest_paths() {
        let (net, mut rg) = build();
        let prefs: HashMap<RegionEdgeId, Option<Preference>> =
            rg.b_edges().map(|e| (e.id, None)).collect();
        let stats = apply_preferences_to_b_edges(&net, &mut rg, &prefs, 1);
        assert!(stats.edges_with_paths > 0);
        // With max 1 pair, each edge has at most one path.
        for e in rg.b_edges() {
            assert!(e.paths.len() <= 1);
        }
    }

    #[test]
    fn path_under_preference_respects_master_feature() {
        let (net, _) = build();
        let a = l2r_road_network::VertexId(0);
        let b = l2r_road_network::VertexId((net.num_vertices() - 1) as u32);
        let fastest = fastest_path(&net, a, b).unwrap();
        let p = Preference::cost_only(CostType::Distance);
        let shortest = preference_constrained_path(&net, a, b, p.master, p.slave).unwrap();
        assert!(
            shortest.length_m(&net).unwrap() <= fastest.length_m(&net).unwrap() + 1e-6,
            "the distance-preferring path is never longer than the fastest path"
        );
    }
}
