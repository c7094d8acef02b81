//! The reference Section VI router, kept only as the bit-identity oracle of
//! the tests: [`route`] answers from the network and region graph alone,
//! recomputing per query everything [`crate::L2r::route`] reads from the
//! model's tables.  It scans every attached path of every region edge on the
//! region path (cloning, reversing and re-validating candidates), calls
//! `subpath` on every stored inner path and its reversed copy, runs a fresh
//! fastest-path search for every stub, and stitches segments with `concat`.
//! No library code routes through it; the equivalence tests compare
//! [`crate::L2r::route`] against it.

use l2r_region_graph::{RegionGraph, RegionId};
use l2r_road_network::{fastest_path, Path, RoadNetwork, SearchSpace, VertexId};

use crate::connectors::best_oriented_path;
use crate::region_routing::{find_region_path, RegionPath};
use crate::router::{find_anchor_in, RouteResult, RouteStrategy};

/// The reference answer for `source → destination`: what
/// [`crate::L2r::route`] must return, bit for bit, on a model with this
/// network and region graph.
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
/// Runs [`find_anchor_in`] through the calling thread's shared search
/// space.  Both vertices must be in range; [`route`] checks them.
fn find_anchor(
    net: &RoadNetwork,
    rg: &RegionGraph,
    from: VertexId,
    towards: VertexId,
) -> Option<VertexId> {
    SearchSpace::with_thread_local(|space| find_anchor_in(space, net, rg, from, towards))
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
