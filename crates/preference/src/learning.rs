//! Learning routing preferences for T-edges (Section V-A, Step 1).
//!
//! For a T-edge with observed path set `P_ij`, the learner finds the
//! preference vector whose constructed paths best match the observed paths
//! under the Equation 1 similarity.  A full search over all
//! (master, slave) combinations is avoided by the paper's coordinate-descent
//! style procedure: first pick the best travel-cost (master) feature, then
//! test whether any road-condition (slave) feature improves the similarity
//! further.

use l2r_region_graph::SupportedPath;
use l2r_road_network::{
    CostType, OverlapIndex, Path, RoadNetwork, RoadType, RoadTypeSet, SearchSpace,
};

use crate::model::Preference;

/// Configuration of the preference learner.
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// Candidate slave (road-condition) features to test after the master
    /// feature has been chosen.
    pub candidate_slaves: Vec<RoadTypeSet>,
    /// Minimum improvement in mean similarity a slave feature must provide to
    /// be adopted.
    pub min_improvement: f64,
    /// Cap on the number of observed paths evaluated per T-edge (the most
    /// supported paths are used first); keeps learning fast on hot edges.
    pub max_paths: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            candidate_slaves: default_candidate_slaves(),
            min_improvement: 0.01,
            max_paths: 12,
        }
    }
}

/// The default slave candidates: each single road type plus the combined
/// "highways" feature (motorway + trunk), mirroring the paper's example
/// features ("highways", "residential roads", "highways and residential").
fn default_candidate_slaves() -> Vec<RoadTypeSet> {
    let mut v: Vec<RoadTypeSet> = RoadType::ALL
        .iter()
        .map(|rt| RoadTypeSet::single(*rt))
        .collect();
    v.push(RoadTypeSet::from_iter([
        RoadType::Motorway,
        RoadType::Trunk,
    ]));
    v.push(RoadTypeSet::from_iter([
        RoadType::Primary,
        RoadType::Secondary,
    ]));
    v
}

/// A learned preference together with the similarity it achieves on the
/// training paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedPreference {
    /// The learned preference vector.
    pub preference: Preference,
    /// Mean (support-weighted) Equation 1 similarity of the constructed paths
    /// against the observed paths.
    pub similarity: f64,
}

/// Mean support-weighted similarity of paths constructed under
/// `(master, slave)` against the observed paths, searching through the
/// caller's reusable `space`.  `overlaps[i]` is the precomputed Equation 1
/// index of `paths[i]` (built once per observed path, reused across every
/// candidate preference).
fn evaluate(
    space: &mut SearchSpace,
    net: &RoadNetwork,
    paths: &[&SupportedPath],
    overlaps: &[OverlapIndex],
    master: CostType,
    slave: Option<RoadTypeSet>,
) -> f64 {
    let mut total_weight = 0.0;
    let mut total_sim = 0.0;
    for (sp, overlap) in paths.iter().zip(overlaps) {
        let gt = &sp.path;
        let constructed: Option<Path> = match slave {
            Some(s) => space.preference_constrained_path(
                net,
                gt.source(),
                gt.destination(),
                master,
                Some(s),
            ),
            None => space.lowest_cost_path(net, gt.source(), gt.destination(), master),
        };
        // Constructed paths come from shortest-path trees and never repeat a
        // segment, so the precomputed index applies.
        let sim = constructed
            .map(|p| overlap.similarity_to_simple(&p))
            .unwrap_or(0.0);
        let w = sp.support as f64;
        total_sim += sim * w;
        total_weight += w;
    }
    if total_weight > 0.0 {
        total_sim / total_weight
    } else {
        0.0
    }
}

/// Learns the representative routing preference of one T-edge from its
/// observed path set.  Returns `None` when the path set is empty.
///
/// Thin wrapper over [`learn_edge_preference_in`] using the calling thread's
/// shared search space; loops learning many edges (or worker threads) should
/// hold their own [`SearchSpace`] and call the `_in` variant.
pub fn learn_edge_preference(
    net: &RoadNetwork,
    paths: &[SupportedPath],
    config: &LearnConfig,
) -> Option<LearnedPreference> {
    SearchSpace::with_thread_local(|space| learn_edge_preference_in(space, net, paths, config))
}

/// [`learn_edge_preference`] with an explicit, reusable [`SearchSpace`]: all
/// candidate-preference searches run through `space` without per-query
/// allocation.
pub fn learn_edge_preference_in(
    space: &mut SearchSpace,
    net: &RoadNetwork,
    paths: &[SupportedPath],
    config: &LearnConfig,
) -> Option<LearnedPreference> {
    if paths.is_empty() {
        return None;
    }
    // Use the most supported paths first, capped for efficiency.
    let mut ordered: Vec<&SupportedPath> = paths.iter().collect();
    ordered.sort_by_key(|p| std::cmp::Reverse(p.support));
    ordered.truncate(config.max_paths.max(1));
    let overlaps: Vec<OverlapIndex> = ordered
        .iter()
        .map(|sp| OverlapIndex::new(net, &sp.path))
        .collect();

    // Step 1: choose the master (travel cost) feature.  Similarity is capped
    // at 1.0, so a perfect master cannot be strictly beaten — stop early.
    let mut best_master = CostType::Distance;
    let mut best_master_sim = f64::NEG_INFINITY;
    for master in CostType::ALL {
        let sim = evaluate(space, net, &ordered, &overlaps, master, None);
        if sim > best_master_sim {
            best_master_sim = sim;
            best_master = master;
        }
        if best_master_sim >= 1.0 {
            break;
        }
    }

    // Step 2: test slave (road condition) features on top of the master.
    // A slave is only adopted when it beats `best_sim + min_improvement`;
    // once that bar exceeds the 1.0 similarity cap no candidate can qualify,
    // so the remaining (search-heavy) evaluations are skipped.
    let mut best_slave: Option<RoadTypeSet> = None;
    let mut best_sim = best_master_sim;
    for slave in &config.candidate_slaves {
        if best_sim + config.min_improvement >= 1.0 {
            break;
        }
        let sim = evaluate(space, net, &ordered, &overlaps, best_master, Some(*slave));
        if sim > best_sim + config.min_improvement {
            best_sim = sim;
            best_slave = Some(*slave);
        }
    }

    Some(LearnedPreference {
        preference: Preference {
            master: best_master,
            slave: best_slave,
        },
        similarity: best_sim,
    })
}

/// Learns one preference **per observed path** of a T-edge.  Used by the
/// Figure 6(a) experiment, which counts how many distinct preferences the
/// paths of a single T-edge exhibit.
pub fn learn_per_path_preferences(
    net: &RoadNetwork,
    paths: &[SupportedPath],
    config: &LearnConfig,
) -> Vec<LearnedPreference> {
    SearchSpace::with_thread_local(|space| {
        paths
            .iter()
            .filter_map(|sp| learn_edge_preference_in(space, net, std::slice::from_ref(sp), config))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_road_network::{fastest_path, lowest_cost_path, Point, RoadNetworkBuilder, VertexId};

    /// Two routes from 0 to 3: short residential via 2, long motorway via 1.
    fn two_route_network() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(5000.0, 4000.0));
        let v2 = b.add_vertex(Point::new(5000.0, -200.0));
        let v3 = b.add_vertex(Point::new(10000.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Motorway).unwrap();
        b.add_two_way(v1, v3, RoadType::Motorway).unwrap();
        b.add_two_way(v0, v2, RoadType::Residential).unwrap();
        b.add_two_way(v2, v3, RoadType::Residential).unwrap();
        b.build()
    }

    fn supported(path: Path, support: usize) -> SupportedPath {
        SupportedPath { path, support }
    }

    #[test]
    fn learns_travel_time_for_motorway_drivers() {
        let net = two_route_network();
        // Drivers from 0 to 3 who took the motorway route: the fastest path
        // explains their choice, the shortest does not.
        let motorway_path = fastest_path(&net, VertexId(0), VertexId(3)).unwrap();
        assert!(motorway_path.contains(VertexId(1)));
        let learned = learn_edge_preference(
            &net,
            &[supported(motorway_path, 5)],
            &LearnConfig::default(),
        )
        .unwrap();
        assert_eq!(learned.preference.master, CostType::TravelTime);
        assert!(learned.similarity > 0.99);
    }

    #[test]
    fn learns_distance_for_shortcut_drivers() {
        let net = two_route_network();
        let short = Path::new(vec![VertexId(0), VertexId(2), VertexId(3)]).unwrap();
        let learned =
            learn_edge_preference(&net, &[supported(short, 3)], &LearnConfig::default()).unwrap();
        assert_eq!(learned.preference.master, CostType::Distance);
        assert!(learned.similarity > 0.99);
    }

    #[test]
    fn slave_feature_is_only_adopted_when_it_helps() {
        let net = two_route_network();
        // The fastest path already matches perfectly, so no slave feature can
        // improve the similarity by more than `min_improvement`.
        let motorway_path = fastest_path(&net, VertexId(0), VertexId(3)).unwrap();
        let learned = learn_edge_preference(
            &net,
            &[supported(motorway_path, 1)],
            &LearnConfig::default(),
        )
        .unwrap();
        assert_eq!(learned.preference.slave, None);
    }

    #[test]
    fn slave_feature_recovers_road_class_preference() {
        // Two routes from 0 to 3: the residential route via 2 is shorter,
        // faster and more economical; the primary route via 1 is a huge
        // detour.  Drivers nevertheless take the primary route, so no single
        // travel-cost feature explains the observed path — only the
        // road-class slave feature does.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(5000.0, 14000.0));
        let v2 = b.add_vertex(Point::new(5000.0, -200.0));
        let v3 = b.add_vertex(Point::new(10000.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Primary).unwrap();
        b.add_two_way(v1, v3, RoadType::Primary).unwrap();
        b.add_two_way(v0, v2, RoadType::Residential).unwrap();
        b.add_two_way(v2, v3, RoadType::Residential).unwrap();
        let net = b.build();
        // Sanity: every single-cost optimum uses the residential route.
        for cost in CostType::ALL {
            let opt = lowest_cost_path(&net, v0, v3, cost).unwrap();
            assert!(
                opt.contains(v2),
                "{cost} optimum should use the residential route"
            );
        }
        let observed = Path::new(vec![v0, v1, v3]).unwrap();
        let learned =
            learn_edge_preference(&net, &[supported(observed, 4)], &LearnConfig::default())
                .unwrap();
        let slave = learned
            .preference
            .slave
            .expect("a road-class slave feature is needed");
        assert!(slave.contains(RoadType::Primary));
        assert!(
            learned.similarity > 0.9,
            "similarity {}",
            learned.similarity
        );
    }

    #[test]
    fn empty_path_set_returns_none() {
        let net = two_route_network();
        assert!(learn_edge_preference(&net, &[], &LearnConfig::default()).is_none());
    }

    #[test]
    fn per_path_preferences_distinguish_mixed_edges() {
        let net = two_route_network();
        let fast = fastest_path(&net, VertexId(0), VertexId(3)).unwrap();
        let short = Path::new(vec![VertexId(0), VertexId(2), VertexId(3)]).unwrap();
        let prefs = learn_per_path_preferences(
            &net,
            &[supported(fast, 1), supported(short, 1)],
            &LearnConfig::default(),
        );
        assert_eq!(prefs.len(), 2);
        let unique: std::collections::HashSet<_> = prefs.iter().map(|p| p.preference).collect();
        assert_eq!(
            unique.len(),
            2,
            "the two paths reflect different preferences"
        );
    }
}
