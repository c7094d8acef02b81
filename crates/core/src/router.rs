//! The unified learn-to-route routing algorithm (Section VI of the paper):
//! [`L2r::route`].
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
//!
//! The router reads what never changes between queries from tables the
//! model built once: the best attached path of every region edge in both
//! orientations ([`L2r::oriented_paths`]) and the fastest-path stubs between
//! region vertices and those paths ([`L2r::connectors`]; a stub outside the
//! table falls back to a live search).  Inside one region it scans the
//! region's stored inner paths in place.  Every query runs through a
//! caller-owned [`QueryScratch`] — one reusable road-network
//! `SearchSpace`, one `RegionSearchSpace` and one `PathBuilder` — so a warm
//! query performs **no heap allocation besides the returned route** (scratch
//! reuse is provable: the search-space generations advance by exactly the
//! number of searches a workload performs).  [`L2r::route_many`] fans a
//! query batch across `L2R_THREADS` workers with deterministic index-ordered
//! results.
//!
//! Results are **bit-identical** to the reference router in
//! [`crate::oracle`], which recomputes everything per query; the
//! equivalence tests sweep vertex-pair grids on the tiny fixture and the
//! D1/D2 datasets, and `crates/core/tests/engine_concurrency.rs` checks it
//! across threads.

use l2r_region_graph::{RegionGraph, RegionId};
use l2r_road_network::{CostType, Path, PathBuilder, RoadNetwork, SearchSpace, VertexId};

use crate::pipeline::L2r;
use crate::region_routing::{RegionPath, RegionSearchSpace};

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

/// Reusable per-query scratch state: one road-network search space, one
/// region-graph search space, a region-path buffer and a path builder.  Keep
/// one per serving thread ([`L2r::route_many`] does this for you, and each
/// server event loop owns one for its lifetime); a `QueryScratch` is
/// intentionally not shared between threads.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    space: SearchSpace,
    region_space: RegionSearchSpace,
    region_path: RegionPath,
    builder: PathBuilder,
}

impl QueryScratch {
    /// Creates an empty scratch; all buffers grow on first use.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Generation of the road-network search space: advances by exactly one
    /// per road search routed through this scratch.  Used (together with
    /// [`l2r_road_network::searches_performed`]) to prove the query path
    /// allocates no hidden search state.
    pub fn search_generation(&self) -> u32 {
        self.space.generation()
    }

    /// Generation of the region-graph search space (one per non-trivial
    /// region-path search).
    pub fn region_generation(&self) -> u32 {
        self.region_space.generation()
    }
}

impl L2r {
    /// Routes from `source` to `destination`, reusing `scratch` across calls.
    ///
    /// Returns `None` only when an endpoint is not a vertex of the network or
    /// the destination is unreachable.  Once the scratch buffers have warmed
    /// up, the only heap allocation is the returned path.
    pub fn route(
        &self,
        scratch: &mut QueryScratch,
        source: VertexId,
        destination: VertexId,
    ) -> Option<RouteResult> {
        let n = self.network().num_vertices();
        if source.idx() >= n || destination.idx() >= n {
            return None;
        }
        if source == destination {
            return Some(RouteResult {
                path: Path::single(source),
                strategy: RouteStrategy::FastestFallback,
            });
        }
        let rg = self.region_graph();
        let result = match (rg.region_of(source), rg.region_of(destination)) {
            (Some(rs), Some(rd)) => {
                scratch.builder.reset(source);
                let strategy = self.case1_append(scratch, source, destination, rs, rd)?;
                Some(RouteResult {
                    path: scratch.builder.to_path(),
                    strategy,
                })
            }
            _ => self.route_case2(scratch, source, destination),
        };
        if let Some(r) = &result {
            debug_assert!(r.path.validate(self.network()).is_ok());
            debug_assert_eq!(r.path.source(), source);
            debug_assert_eq!(r.path.destination(), destination);
        }
        result
    }

    /// Routes a whole batch in parallel (`L2R_THREADS` workers, one scratch
    /// per worker).  Results come back in query order and are bit-identical
    /// to routing the batch serially through a single scratch.
    pub fn route_many(&self, queries: &[(VertexId, VertexId)]) -> Vec<Option<RouteResult>> {
        l2r_par::par_map_init(queries, QueryScratch::new, |scratch, _, &(s, d)| {
            self.route(scratch, s, d)
        })
    }

    /// Case 1 (both endpoints in regions): appends the route to the scratch
    /// builder (which must currently end at `source`) and returns the
    /// strategy used, or `None` when no route exists.
    fn case1_append(
        &self,
        scratch: &mut QueryScratch,
        source: VertexId,
        destination: VertexId,
        rs: RegionId,
        rd: RegionId,
    ) -> Option<RouteStrategy> {
        if rs == rd {
            if self.append_inner_route(&mut scratch.builder, rs, source, destination) {
                return Some(RouteStrategy::InnerRegionTrajectory);
            }
            return self
                .append_connector(
                    &mut scratch.space,
                    &mut scratch.builder,
                    source,
                    destination,
                )
                .then_some(RouteStrategy::InnerRegionFastest);
        }
        let QueryScratch {
            space,
            region_space,
            region_path,
            builder,
        } = scratch;
        if !region_space.find_region_path_into(self.region_graph(), rs, rd, region_path) {
            return None;
        }
        let checkpoint = builder.checkpoint();
        if self.append_region_road_path(space, builder, region_path, source, destination) {
            return Some(RouteStrategy::RegionPath);
        }
        builder.truncate(checkpoint);
        self.append_connector(space, builder, source, destination)
            .then_some(RouteStrategy::FastestFallback)
    }

    /// Case 2: at least one endpoint is outside every region.
    fn route_case2(
        &self,
        scratch: &mut QueryScratch,
        source: VertexId,
        destination: VertexId,
    ) -> Option<RouteResult> {
        let (net, rg) = (self.network(), self.region_graph());
        // Candidate regions near the endpoints: the first settled vertex (by
        // a fastest-path search towards the other endpoint) that lies in a
        // region.  The destination's search runs first, so the scratch space
        // still holds the source's search when its stub is read below.
        let dest_anchor = match rg.region_of(destination) {
            Some(_) => Some(destination),
            None => find_anchor_in(&mut scratch.space, net, rg, destination, source),
        };
        let source_anchor = match rg.region_of(source) {
            Some(_) => Some(source),
            None => find_anchor_in(&mut scratch.space, net, rg, source, destination),
        };
        let (Some(sa), Some(da)) = (source_anchor, dest_anchor) else {
            // One or no candidate regions: plain fastest path (Section VI).
            scratch.builder.reset(source);
            return self
                .append_connector(
                    &mut scratch.space,
                    &mut scratch.builder,
                    source,
                    destination,
                )
                .then(|| RouteResult {
                    path: scratch.builder.to_path(),
                    strategy: RouteStrategy::FastestFallback,
                });
        };
        let rs = rg.region_of(sa)?;
        let rd = rg.region_of(da)?;
        // Fastest stub from the query source to its anchor, then the Case-1
        // route between the anchors, then the stub to the destination — all
        // appended in place.  The source stub is read from the anchor
        // search's parents: that search stopped when it settled `sa`, and
        // settled parents are exactly the path a fresh `source → sa` search
        // (or a stored connector, which holds that path) would give.
        scratch.builder.reset(source);
        if sa != source && !scratch.builder.append_from_search(&scratch.space, sa) {
            return None;
        }
        self.case1_append(scratch, sa, da, rs, rd)?;
        if da != destination
            && !self.append_connector(&mut scratch.space, &mut scratch.builder, da, destination)
        {
            return None;
        }
        Some(RouteResult {
            path: scratch.builder.to_path(),
            strategy: RouteStrategy::Stitched,
        })
    }

    /// Appends the fastest path `from → to` to the builder (which must end at
    /// `from`), consulting the connector table first: a hit (including a
    /// stored "unreachable") avoids the Dijkstra search entirely; a miss runs
    /// a live search through the scratch space.  Both produce the exact path
    /// a fresh `fastest_path` search would.  `from == to` is a no-op success.
    fn append_connector(
        &self,
        space: &mut SearchSpace,
        builder: &mut PathBuilder,
        from: VertexId,
        to: VertexId,
    ) -> bool {
        if from == to {
            return true;
        }
        match self.connectors().get(from, to) {
            Some(Some(p)) => {
                builder.append_slice(p);
                true
            }
            Some(None) => false,
            None => {
                let net = self.network();
                let n = net.num_vertices();
                if from.idx() >= n || to.idx() >= n {
                    return false;
                }
                space.dijkstra(net, from, Some(to), |e| e.cost(CostType::TravelTime));
                builder.append_from_search(space, to)
            }
        }
    }

    /// Routing inside a single region: appends the sub-path of the most
    /// supported stored inner path that visits `source` before
    /// `destination`, in either orientation, scanning the stored vertex
    /// slices in place.  Forward, that is the first occurrence of `source`
    /// and the first `destination` after it; reversed, the last occurrence
    /// of `source` and the nearest `destination` before it.  Earlier paths
    /// win ties, and the forward orientation wins on one path.
    fn append_inner_route(
        &self,
        builder: &mut PathBuilder,
        region: RegionId,
        source: VertexId,
        destination: VertexId,
    ) -> bool {
        // (support, sub-path slice, stored orientation?)
        let mut best: Option<(usize, &[VertexId], bool)> = None;
        for sp in self.region_graph().inner_paths(region) {
            if best.is_some_and(|(support, ..)| sp.support <= support) {
                continue;
            }
            let v = sp.path.vertices();
            let Some(first) = v.iter().position(|&x| x == source) else {
                continue;
            };
            if let Some(len) = v[first..].iter().position(|&x| x == destination) {
                best = Some((sp.support, &v[first..=first + len], true));
            } else if let Some(last) = v.iter().rposition(|&x| x == source) {
                if let Some(end) = v[..last].iter().rposition(|&x| x == destination) {
                    best = Some((sp.support, &v[end..=last], false));
                }
            }
        }
        match best {
            Some((_, slice, true)) => builder.append_slice(slice),
            Some((_, slice, false)) => builder.append_reversed_slice(slice),
            None => return false,
        }
        true
    }

    /// Maps the scratch region path back to a road-network path, appending to
    /// the builder (which must end at `source`).  Returns `false` on any gap
    /// the road network cannot bridge; the caller rolls the builder back and
    /// falls back to a fastest path.
    fn append_region_road_path(
        &self,
        space: &mut SearchSpace,
        builder: &mut PathBuilder,
        region_path: &RegionPath,
        source: VertexId,
        destination: VertexId,
    ) -> bool {
        let rg = self.region_graph();
        let mut current = source;
        for (i, eid) in region_path.edges.iter().enumerate() {
            let from_region = region_path.regions[i];
            let to_region = region_path.regions[i + 1];
            let oriented = &self.oriented_paths()[eid.idx()];
            let candidate = if from_region == rg.edge(*eid).a {
                oriented.forward.as_ref()
            } else {
                oriented.backward.as_ref()
            };
            match candidate {
                Some(segment) => {
                    // Connect the current position to the segment start if
                    // needed, then take the attached path.
                    if segment.source() != current
                        && !self.append_connector(space, builder, current, segment.source())
                    {
                        return false;
                    }
                    builder.append_slice(segment.vertices());
                    current = segment.destination();
                }
                None => {
                    // No usable attached path (e.g. a B-edge whose apply step
                    // found nothing): route to a transfer center of the next
                    // region directly.
                    let Some(target) = rg.transfer_centers_or_default(to_region).first().copied()
                    else {
                        return false;
                    };
                    if !self.append_connector(space, builder, current, target) {
                        return false;
                    }
                    current = target;
                }
            }
        }
        if current != destination && !self.append_connector(space, builder, current, destination) {
            return false;
        }
        true
    }
}

/// Finds the first region vertex settled by a fastest-path search from
/// `from` towards `towards`, through `space`.
///
/// The search aborts the moment the first in-region vertex settles.  (It
/// still stops once `towards` settles, so an anchor is only reported when a
/// region vertex settles no later than the target.)  Both vertices must be
/// in range; the routers check them.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_preferences_to_b_edges;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, TrajectoryGraph};
    use std::collections::HashMap;

    /// The tiny fixture's network, region graph and the model routing on
    /// them.
    fn build() -> (RoadNetwork, RegionGraph, L2r) {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        // Give B-edges fastest-path fallbacks so the router has full coverage.
        apply_preferences_to_b_edges(&syn.net, &mut rg, &HashMap::new(), 2);
        let model = L2r::from_graphs(&syn.net, &rg);
        (syn.net, rg, model)
    }

    /// Every ordered pair of distinct vertices on `rg`'s stored inner paths,
    /// region by region.
    fn inner_vertex_pairs(rg: &RegionGraph) -> Vec<(VertexId, VertexId)> {
        let mut pairs = Vec::new();
        for region in rg.regions() {
            let mut vertices: Vec<VertexId> = rg
                .inner_paths(region.id)
                .iter()
                .flat_map(|sp| sp.path.vertices().iter().copied())
                .collect();
            vertices.sort_unstable();
            vertices.dedup();
            for &s in &vertices {
                pairs.extend(vertices.iter().filter(|&&d| d != s).map(|&d| (s, d)));
            }
        }
        pairs
    }

    #[test]
    fn routes_between_all_coverage_categories() {
        let (net, rg, model) = build();
        let mut scratch = QueryScratch::new();
        let mut seen = std::collections::HashSet::new();
        // Probe a spread of vertex pairs to hit all categories.
        let n = net.num_vertices() as u32;
        for i in (0..n).step_by(7) {
            for j in (1..n).step_by(13) {
                if i == j {
                    continue;
                }
                let (s, d) = (VertexId(i), VertexId(j));
                let result = model.route(&mut scratch, s, d);
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
        let (_, _, model) = build();
        let r = model
            .route(&mut QueryScratch::new(), VertexId(0), VertexId(0))
            .unwrap();
        assert!(r.path.is_trivial());
        assert_eq!(r.strategy, RouteStrategy::FastestFallback);
    }

    #[test]
    fn engine_route_matches_free_route_on_a_vertex_grid() {
        let (net, rg, model) = build();
        let mut scratch = QueryScratch::new();
        let n = net.num_vertices() as u32;
        let mut compared = 0usize;
        for i in (0..n).step_by(5) {
            for j in (1..n).step_by(11) {
                let (s, d) = (VertexId(i), VertexId(j));
                let free = crate::oracle::route(&net, &rg, s, d);
                let fast = model.route(&mut scratch, s, d);
                assert_eq!(free, fast, "query {s:?} -> {d:?}");
                compared += 1;
            }
        }
        assert!(compared > 50, "the sweep should cover many pairs");
    }

    #[test]
    fn route_many_matches_serial_routing() {
        let (net, _, model) = build();
        let n = net.num_vertices() as u32;
        let queries: Vec<(VertexId, VertexId)> = (0..n)
            .step_by(3)
            .map(|i| (VertexId(i), VertexId((i * 7 + 13) % n)))
            .collect();
        let batch = model.route_many(&queries);
        let mut scratch = QueryScratch::new();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(&model.route(&mut scratch, q.0, q.1), b);
        }
    }

    #[test]
    fn out_of_range_endpoints_are_rejected_like_the_free_router() {
        let (net, rg, model) = build();
        let mut scratch = QueryScratch::new();
        let big = VertexId(net.num_vertices() as u32 + 17);
        for (s, d) in [(VertexId(0), big), (big, VertexId(0)), (big, big)] {
            let free = crate::oracle::route(&net, &rg, s, d);
            assert_eq!(free, None, "query {s:?} -> {d:?}");
            assert_eq!(model.route(&mut scratch, s, d), free);
        }
    }

    #[test]
    fn inner_region_queries_reuse_trajectories_when_possible() {
        let (net, rg, model) = build();
        let mut scratch = QueryScratch::new();
        // Every ordered pair of stored inner-path vertices, region by region
        // (pairs the vertex-grid sweeps mostly step over): each answer is
        // the oracle's, and many reuse a stored path.
        let pairs = inner_vertex_pairs(&rg);
        let mut reused = 0usize;
        for &(s, d) in &pairs {
            let answer = model.route(&mut scratch, s, d);
            assert_eq!(
                answer,
                crate::oracle::route(&net, &rg, s, d),
                "query {s:?} -> {d:?}"
            );
            if let Some(r) = answer {
                assert!(r.path.validate(&net).is_ok());
                reused += (r.strategy == RouteStrategy::InnerRegionTrajectory) as usize;
            }
        }
        assert!(
            reused > 50,
            "{reused} of {} pairs reused an inner-region trajectory",
            pairs.len()
        );
    }

    #[test]
    fn cross_region_queries_use_the_region_graph() {
        let (_, rg, model) = build();
        // Take transfer centers of two different regions as endpoints.
        let regions = rg.regions();
        let a = rg.transfer_centers_or_default(regions.first().unwrap().id)[0];
        let b = rg.transfer_centers_or_default(regions.last().unwrap().id)[0];
        if a != b {
            let r = model.route(&mut QueryScratch::new(), a, b).unwrap();
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

    /// A Stitched query from outside every region to a region vertex reads
    /// its source stub from the anchor search instead of searching again:
    /// it runs one search more than the Case-1 route from its anchor (the
    /// anchor search), where a second `source → anchor` search would make
    /// two, and answers like the oracle.
    #[test]
    fn stitched_source_stub_reuses_the_anchor_search() {
        let (net, rg, model) = build();
        let mut scratch = QueryScratch::new();
        let mut space = SearchSpace::new();
        let n = net.num_vertices() as u32;
        let mut checked = 0usize;
        for s in (0..n).map(VertexId).filter(|&v| rg.region_of(v).is_none()) {
            for d in (0..n).step_by(5).map(VertexId) {
                if rg.region_of(d).is_none() {
                    continue;
                }
                let Some(sa) = find_anchor_in(&mut space, &net, &rg, s, d) else {
                    continue;
                };
                let before = scratch.search_generation();
                let answer = model.route(&mut scratch, s, d);
                let searches = scratch.search_generation() - before;
                assert_eq!(
                    answer,
                    crate::oracle::route(&net, &rg, s, d),
                    "{s:?} -> {d:?}"
                );
                if answer.as_ref().map(|r| r.strategy) != Some(RouteStrategy::Stitched) {
                    continue;
                }
                let before = scratch.search_generation();
                model.route(&mut scratch, sa, d);
                let from_anchor = scratch.search_generation() - before;
                assert_eq!(searches, 1 + from_anchor, "{s:?} -> {d:?} via {sa:?}");
                checked += 1;
            }
        }
        assert!(
            checked > 0,
            "the fixture must have out-of-region Stitched queries"
        );
    }

    #[test]
    fn coverage_classification() {
        let (_, rg, _) = build();
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

    /// A hand-built single region whose stored inner paths pin the inner
    /// step's tie-breaks: `P` and `Q` have equal support and run in opposite
    /// directions between 0 and 3 over different roads, and the more
    /// supported `R` visits vertex 6 twice.
    #[test]
    fn inner_region_tie_breaks_match_the_oracle() {
        use l2r_region_graph::Cluster;
        use l2r_road_network::{Point, RoadNetworkBuilder, RoadType};
        use l2r_trajectory::{DriverId, MatchedTrajectory, TrajectoryId};

        let mut b = RoadNetworkBuilder::new();
        for i in 0..8 {
            b.add_vertex(Point::new((i % 4) as f64 * 400.0, (i / 4) as f64 * 400.0));
        }
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 4),
            (4, 5),
            (5, 3),
            (1, 6),
            (6, 2),
            (2, 7),
            (7, 6),
            (6, 0),
        ] {
            b.add_two_way(VertexId(u), VertexId(v), RoadType::Residential)
                .unwrap();
        }
        let net = b.build();
        let p = [0, 1, 2, 3];
        let q = [3, 5, 4, 0];
        let r = [1, 6, 2, 7, 6, 0];
        let trajectories: Vec<MatchedTrajectory> = [&p[..], &p, &q, &q, &r, &r, &r]
            .iter()
            .enumerate()
            .map(|(i, vs)| {
                let path = Path::new(vs.iter().map(|&v| VertexId(v)).collect()).unwrap();
                MatchedTrajectory::new(TrajectoryId(i as u32), DriverId(0), path, 0.0)
            })
            .collect();
        let cluster = Cluster {
            vertices: (0..8).map(VertexId).collect(),
            popularity: 1.0,
            road_type: None,
        };
        let rg = RegionGraph::build(&net, &[cluster], &trajectories, 2);
        let supports: Vec<usize> = rg
            .inner_paths(RegionId(0))
            .iter()
            .map(|sp| sp.support)
            .collect();
        assert_eq!(supports, [2, 2, 3], "P, Q and R in trajectory order");
        let model = L2r::from_graphs(&net, &rg);
        let mut scratch = QueryScratch::new();

        for &(s, d) in &inner_vertex_pairs(&rg) {
            let expected = crate::oracle::route(&net, &rg, s, d);
            assert_eq!(model.route(&mut scratch, s, d), expected, "{s:?} -> {d:?}");
        }
        let pins: [((u32, u32), &[u32]); 6] = [
            // Equal support: the earlier path P wins over Q, forward ...
            ((0, 3), &[0, 1, 2, 3]),
            // ... and reversed, although Q runs 3 -> 0 as stored.
            ((3, 0), &[3, 2, 1, 0]),
            // R, first occurrence of 6: forward wins over the reversed match
            // from the last 6 back to 2 (6-7-2).
            ((6, 2), &[6, 2]),
            // R, first 6 at or after the first 2.
            ((2, 6), &[2, 7, 6]),
            // R reversed: from the last 6 back to the nearest 1 before it.
            ((6, 1), &[6, 7, 2, 6, 1]),
            // R reversed: from the last 0 back to the nearest 6 before it.
            ((0, 6), &[0, 6]),
        ];
        for ((s, d), expected) in pins {
            let answer = model.route(&mut scratch, VertexId(s), VertexId(d)).unwrap();
            assert_eq!(answer.strategy, RouteStrategy::InnerRegionTrajectory);
            let vertices: Vec<u32> = answer.path.vertices().iter().map(|v| v.0).collect();
            assert_eq!(vertices, expected, "{s} -> {d}");
        }
    }
}
