//! The unified learn-to-route routing algorithm (Section VI of the paper).
//!
//! Given an arbitrary `(source, destination)` pair in the road network the
//! router distinguishes two cases:
//!
//! * **Case 1** — both endpoints lie in regions.  Inside one region the
//!   most-travelled inner-region path is returned (fastest path as a
//!   fallback); across regions a region path is found on the region graph and
//!   mapped back to a road-network path by stitching the paths attached to
//!   its region edges.
//! * **Case 2** — at least one endpoint lies outside every region.  A fastest
//!   path search locates candidate regions near the endpoints; the final path
//!   is `fastest(source → R_s) + Case-1 path + fastest(R_d → destination)`.
//!   When no candidate region exists the fastest path is returned.

use l2r_region_graph::{RegionGraph, RegionId};
use l2r_road_network::{fastest_path, CostType, Path, RoadNetwork, SearchSpace, VertexId};

use crate::region_routing::{find_region_path, RegionPath};

/// Which strategy produced a route (useful for the per-category evaluation
/// of Figures 10–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStrategy {
    /// Both endpoints in the same region, an observed inner path was reused.
    InnerRegionTrajectory,
    /// Both endpoints in the same region, fastest-path fallback.
    InnerRegionFastest,
    /// Endpoints in different regions, routed over the region graph.
    RegionPath,
    /// At least one endpoint outside all regions; stitched with fastest-path
    /// stubs to the candidate regions.
    Stitched,
    /// No usable region information; plain fastest path.
    FastestFallback,
}

impl RouteStrategy {
    /// All strategies in report order.
    pub const ALL: [RouteStrategy; 5] = [
        RouteStrategy::InnerRegionTrajectory,
        RouteStrategy::InnerRegionFastest,
        RouteStrategy::RegionPath,
        RouteStrategy::Stitched,
        RouteStrategy::FastestFallback,
    ];

    /// Stable display label (used by the serving benchmark report).
    pub fn label(self) -> &'static str {
        match self {
            RouteStrategy::InnerRegionTrajectory => "InnerRegionTrajectory",
            RouteStrategy::InnerRegionFastest => "InnerRegionFastest",
            RouteStrategy::RegionPath => "RegionPath",
            RouteStrategy::Stitched => "Stitched",
            RouteStrategy::FastestFallback => "FastestFallback",
        }
    }
}

/// A route produced by L2R.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    /// The recommended road-network path.
    pub path: Path,
    /// How the path was produced.
    pub strategy: RouteStrategy,
}

/// Endpoint categories of a query with respect to the region graph, used to
/// bucket evaluation results (Section VII-A: InRegion / InOutRegion /
/// OutRegion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionCoverage {
    /// Both endpoints belong to regions.
    InRegion,
    /// Exactly one endpoint belongs to a region.
    InOutRegion,
    /// Neither endpoint belongs to a region.
    OutRegion,
}

/// Classifies a query's endpoints against the region graph.
pub fn region_coverage(
    rg: &RegionGraph,
    source: VertexId,
    destination: VertexId,
) -> RegionCoverage {
    match (rg.region_of(source), rg.region_of(destination)) {
        (Some(_), Some(_)) => RegionCoverage::InRegion,
        (None, None) => RegionCoverage::OutRegion,
        _ => RegionCoverage::InOutRegion,
    }
}

/// Routes from `source` to `destination` using the region graph.
///
/// Returns `None` only when an endpoint is not a vertex of the network or
/// the destination is unreachable.
pub fn route(
    net: &RoadNetwork,
    rg: &RegionGraph,
    source: VertexId,
    destination: VertexId,
) -> Option<RouteResult> {
    if source.idx() >= net.num_vertices() || destination.idx() >= net.num_vertices() {
        return None;
    }
    if source == destination {
        return Some(RouteResult {
            path: Path::single(source),
            strategy: RouteStrategy::FastestFallback,
        });
    }
    match (rg.region_of(source), rg.region_of(destination)) {
        (Some(rs), Some(rd)) => route_case1(net, rg, source, destination, rs, rd),
        _ => route_case2(net, rg, source, destination),
    }
}

/// Case 1: both endpoints belong to regions.
fn route_case1(
    net: &RoadNetwork,
    rg: &RegionGraph,
    source: VertexId,
    destination: VertexId,
    rs: RegionId,
    rd: RegionId,
) -> Option<RouteResult> {
    if rs == rd {
        if let Some(path) = inner_region_route(rg, rs, source, destination) {
            return Some(RouteResult {
                path,
                strategy: RouteStrategy::InnerRegionTrajectory,
            });
        }
        return fastest_path(net, source, destination).map(|path| RouteResult {
            path,
            strategy: RouteStrategy::InnerRegionFastest,
        });
    }
    let region_path = find_region_path(rg, rs, rd)?;
    match region_path_to_road_path(net, rg, &region_path, source, destination) {
        Some(path) => Some(RouteResult {
            path,
            strategy: RouteStrategy::RegionPath,
        }),
        None => fastest_path(net, source, destination).map(|path| RouteResult {
            path,
            strategy: RouteStrategy::FastestFallback,
        }),
    }
}

/// Case 2: at least one endpoint is outside every region.
fn route_case2(
    net: &RoadNetwork,
    rg: &RegionGraph,
    source: VertexId,
    destination: VertexId,
) -> Option<RouteResult> {
    // Candidate region near the source: the first settled vertex (by a
    // fastest-path search towards the destination) that lies in a region.
    let source_anchor = match rg.region_of(source) {
        Some(_) => Some(source),
        None => find_anchor(net, rg, source, destination),
    };
    let dest_anchor = match rg.region_of(destination) {
        Some(_) => Some(destination),
        None => find_anchor(net, rg, destination, source),
    };
    let (Some(sa), Some(da)) = (source_anchor, dest_anchor) else {
        // One or no candidate regions: plain fastest path (Section VI).
        return fastest_path(net, source, destination).map(|path| RouteResult {
            path,
            strategy: RouteStrategy::FastestFallback,
        });
    };
    let rs = rg.region_of(sa)?;
    let rd = rg.region_of(da)?;
    let middle = route_case1(net, rg, sa, da, rs, rd)?;
    // Fastest stubs from the query endpoints to the anchors.
    let mut full = if sa == source {
        Path::single(source)
    } else {
        fastest_path(net, source, sa)?
    };
    full = full.concat(&middle.path);
    if da != destination {
        full = full.concat(&fastest_path(net, da, destination)?);
    }
    Some(RouteResult {
        path: full,
        strategy: RouteStrategy::Stitched,
    })
}

/// Finds the first region vertex settled by a fastest-path search from
/// `from` towards `towards`.
///
/// Runs through the calling thread's shared search space with an early-exit
/// settle hook: the search aborts the moment the first in-region vertex
/// settles.  (The search still stops once `towards` settles, so an anchor is
/// only reported when a region vertex settles no later than the target.)
/// Both vertices must be in range; [`route`] checks them.
fn find_anchor(
    net: &RoadNetwork,
    rg: &RegionGraph,
    from: VertexId,
    towards: VertexId,
) -> Option<VertexId> {
    SearchSpace::with_thread_local(|space| find_anchor_in(space, net, rg, from, towards))
}

/// [`find_anchor`] on an explicit search space (the prepared serving path
/// passes its per-query scratch).
pub(crate) fn find_anchor_in(
    space: &mut SearchSpace,
    net: &RoadNetwork,
    rg: &RegionGraph,
    from: VertexId,
    towards: VertexId,
) -> Option<VertexId> {
    let mut anchor = None;
    space.dijkstra_with_settle(
        net,
        from,
        Some(towards),
        |e| e.cost(CostType::TravelTime),
        |v| {
            if rg.region_of(v).is_some() {
                anchor = Some(v);
                true
            } else {
                false
            }
        },
    );
    anchor
}

/// Routing inside a single region: reuse the most supported inner-region
/// path that visits `source` before `destination`.
fn inner_region_route(
    rg: &RegionGraph,
    region: RegionId,
    source: VertexId,
    destination: VertexId,
) -> Option<Path> {
    let mut best: Option<(Path, usize)> = None;
    for sp in rg.inner_paths(region) {
        if let Some(sub) = sp.path.subpath(source, destination) {
            if !sub.is_trivial() && best.as_ref().map(|(_, s)| sp.support > *s).unwrap_or(true) {
                best = Some((sub, sp.support));
            }
        }
        // Also consider the reverse orientation of the stored path.
        let rev = sp.path.reversed();
        if let Some(sub) = rev.subpath(source, destination) {
            if !sub.is_trivial() && best.as_ref().map(|(_, s)| sp.support > *s).unwrap_or(true) {
                best = Some((sub, sp.support));
            }
        }
    }
    best.map(|(p, _)| p)
}

/// Maps a region path back to a road-network path by stitching the paths
/// attached to its region edges, connecting gaps with fastest paths.
fn region_path_to_road_path(
    net: &RoadNetwork,
    rg: &RegionGraph,
    region_path: &RegionPath,
    source: VertexId,
    destination: VertexId,
) -> Option<Path> {
    let mut acc = Path::single(source);
    let mut current = source;
    for (i, eid) in region_path.edges.iter().enumerate() {
        let from_region = region_path.regions[i];
        let to_region = region_path.regions[i + 1];
        let edge = rg.edge(*eid);

        let segment = match best_oriented_path(net, rg, edge, from_region, to_region) {
            Some(p) => p,
            None => {
                // No usable attached path (e.g. a B-edge whose apply step
                // found nothing): route to a transfer center of the next
                // region directly.
                let target = rg.transfer_centers_or_default(to_region).first().copied()?;
                fastest_path(net, current, target)?
            }
        };

        // Connect the current position to the segment start if needed.
        if segment.source() != current {
            let connector = fastest_path(net, current, segment.source())?;
            acc = acc.concat(&connector);
        }
        current = segment.destination();
        acc = acc.concat(&segment);
    }
    if current != destination {
        let tail = fastest_path(net, current, destination)?;
        acc = acc.concat(&tail);
    }
    // The stitching guarantees connectivity by construction; validate in
    // debug builds to catch regressions.
    debug_assert!(acc.validate(net).is_ok());
    Some(acc)
}

/// Picks the most supported attached path of `edge` oriented `from → to`
/// (first wins ties; opposite-orientation paths are reversed and kept only
/// when the reverse is drivable).
///
/// Shared between the per-query scan above and the compile-time resolution
/// of `Engine` — one implementation, so the bit-identical guarantee
/// between the two routers cannot drift.
pub(crate) fn best_oriented_path(
    net: &RoadNetwork,
    rg: &RegionGraph,
    edge: &l2r_region_graph::RegionEdge,
    from: RegionId,
    to: RegionId,
) -> Option<Path> {
    let mut candidate: Option<(Path, usize)> = None;
    for sp in &edge.paths {
        let src = rg.region_of(sp.path.source());
        let dst = rg.region_of(sp.path.destination());
        if src == Some(from) && dst == Some(to) {
            if candidate
                .as_ref()
                .map(|(_, s)| sp.support > *s)
                .unwrap_or(true)
            {
                candidate = Some((sp.path.clone(), sp.support));
            }
        } else if src == Some(to) && dst == Some(from) {
            let rev = sp.path.reversed();
            if rev.validate(net).is_ok()
                && candidate
                    .as_ref()
                    .map(|(_, s)| sp.support > *s)
                    .unwrap_or(true)
            {
                candidate = Some((rev, sp.support));
            }
        }
    }
    candidate.map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_preferences_to_b_edges;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, TrajectoryGraph};
    use std::collections::HashMap;

    fn build() -> (l2r_road_network::RoadNetwork, RegionGraph) {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        // Give B-edges fastest-path fallbacks so the router has full coverage.
        apply_preferences_to_b_edges(&syn.net, &mut rg, &HashMap::new(), 2);
        (syn.net.clone(), rg)
    }

    #[test]
    fn routes_between_all_coverage_categories() {
        let (net, rg) = build();
        let mut seen = std::collections::HashSet::new();
        // Probe a spread of vertex pairs to hit all categories.
        let n = net.num_vertices() as u32;
        for i in (0..n).step_by(7) {
            for j in (1..n).step_by(13) {
                if i == j {
                    continue;
                }
                let (s, d) = (VertexId(i), VertexId(j));
                let result = route(&net, &rg, s, d);
                if let Some(r) = result {
                    assert!(r.path.validate(&net).is_ok());
                    assert_eq!(r.path.source(), s);
                    assert_eq!(r.path.destination(), d);
                    seen.insert(region_coverage(&rg, s, d));
                }
            }
        }
        assert!(
            seen.contains(&RegionCoverage::InRegion),
            "should exercise InRegion queries"
        );
    }

    #[test]
    fn same_vertex_query_is_trivial() {
        let (net, rg) = build();
        let r = route(&net, &rg, VertexId(0), VertexId(0)).unwrap();
        assert!(r.path.is_trivial());
    }

    #[test]
    fn inner_region_queries_reuse_trajectories_when_possible() {
        let (net, rg) = build();
        // Find a region with a non-trivial inner path and query along it.
        let mut exercised = false;
        for region in rg.regions() {
            for sp in rg.inner_paths(region.id) {
                if sp.path.len() >= 3 {
                    let s = sp.path.vertices()[0];
                    let d = *sp.path.vertices().last().unwrap();
                    if s == d {
                        continue;
                    }
                    let r = route(&net, &rg, s, d).unwrap();
                    assert!(r.path.validate(&net).is_ok());
                    if r.strategy == RouteStrategy::InnerRegionTrajectory {
                        exercised = true;
                    }
                }
            }
            if exercised {
                break;
            }
        }
        assert!(
            exercised,
            "at least one query should reuse an inner-region trajectory"
        );
    }

    #[test]
    fn cross_region_queries_use_the_region_graph() {
        let (net, rg) = build();
        // Take transfer centers of two different regions as endpoints.
        let regions = rg.regions();
        let a = rg.transfer_centers_or_default(regions.first().unwrap().id)[0];
        let b = rg.transfer_centers_or_default(regions.last().unwrap().id)[0];
        if a != b {
            let r = route(&net, &rg, a, b).unwrap();
            assert!(matches!(
                r.strategy,
                RouteStrategy::RegionPath
                    | RouteStrategy::InnerRegionTrajectory
                    | RouteStrategy::InnerRegionFastest
                    | RouteStrategy::FastestFallback
            ));
            assert_eq!(r.path.source(), a);
            assert_eq!(r.path.destination(), b);
        }
    }

    #[test]
    fn coverage_classification() {
        let (_, rg) = build();
        // Find one vertex in a region and one outside.
        let inside = rg.regions()[0].vertices[0];
        let mut outside = None;
        for v in 0..10_000u32 {
            if rg.region_of(VertexId(v)).is_none() {
                outside = Some(VertexId(v));
                break;
            }
        }
        assert_eq!(
            region_coverage(&rg, inside, inside),
            RegionCoverage::InRegion
        );
        if let Some(out) = outside {
            assert_eq!(
                region_coverage(&rg, inside, out),
                RegionCoverage::InOutRegion
            );
            assert_eq!(region_coverage(&rg, out, out), RegionCoverage::OutRegion);
        }
    }
}
