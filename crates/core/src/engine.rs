//! The owned, shareable online serving engine: [`Engine`].
//!
//! The free [`crate::router::route`] function recomputes per query what never
//! changes between queries: it scans every attached path of every region edge
//! (cloning, reversing and re-validating candidates), calls `subpath` on
//! every stored inner-region path, allocates fresh transfer-center `Vec`s and
//! stitches segments with an O(n²) `concat` chain.  An [`Engine`] compiles a
//! fitted model **once** into query-optimised indexes:
//!
//! * per region edge, the best attached path pre-resolved for *both*
//!   orientations (the reversed orientation already validated), so mapping a
//!   region path back to roads is an array lookup per edge;
//! * per region, an inner-path occurrence index `vertex → (path, positions)`,
//!   so inner-region routing intersects two sorted occurrence lists instead
//!   of scanning every stored path twice;
//! * transfer centers borrowed from the region graph's build-time cache;
//! * the **model's persisted connector table**
//!   ([`crate::ConnectorTable`]): the fastest-path stubs a Case-1 query
//!   needs — query source → attached-path entry, attached-path exit → query
//!   destination, anchor → next-hop entry — resolved once by the fit and
//!   stored in the snapshot, read through the engine's `Arc<L2r>` rather
//!   than copied.  Its paths are bit-identical to the early-stopped
//!   per-query search (settled parents never change), so table hits answer
//!   exactly like live Dijkstra — without running one; a pair outside the
//!   table falls back to a live search.
//!
//! Compiling therefore runs no road search at all: it resolves the
//! oriented paths and builds the inner-path indexes, both in parallel.
//!
//! An `Engine` **owns** its model behind an [`Arc<L2r>`] instead of
//! borrowing the network and region graph it compiles: model and indexes
//! travel as one `Send + Sync` unit, so a long-lived server can build it
//! straight off a snapshot file ([`Engine::load`]), share it across threads
//! behind an `Arc<Engine>`, and atomically swap in a freshly fitted
//! replacement via [`crate::registry::ModelRegistry`] without tearing
//! anything down.
//!
//! Every query runs through a caller-owned [`QueryScratch`] — one reusable
//! road-network `SearchSpace`, one `RegionSearchSpace` and one `PathBuilder`
//! — so the steady-state serving path performs **no heap allocation besides
//! the returned route** (scratch reuse is provable: the search-space
//! generations advance by exactly the number of searches a workload
//! performs).  [`Engine::route_many`] fans a query batch across
//! `L2R_THREADS` workers (one scratch per worker) with deterministic
//! index-ordered results.
//!
//! Results are **bit-identical** to the free `route` function — enforced by
//! an equivalence test sweeping vertex-pair grids on the D1/D2 datasets, and
//! across threads by `crates/core/tests/engine_concurrency.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use l2r_region_graph::{RegionGraph, RegionId};
use l2r_road_network::{CostType, Path, PathBuilder, RoadNetwork, SearchSpace, VertexId};

use crate::config::L2rConfig;
use crate::connectors::{oriented_paths, OrientedPaths};
use crate::pipeline::{L2r, OfflineStats};
use crate::region_routing::{RegionPath, RegionSearchSpace};
use crate::router::{find_anchor_in, RouteResult, RouteStrategy};
use crate::snapshot::{load_model, SnapshotError};

/// Positions of one vertex inside one stored inner-region path.
#[derive(Debug, Clone)]
struct VertexOccurrence {
    /// Index into the region's `inner_paths` list.
    path: u32,
    /// Ascending positions of the vertex inside that path.
    positions: Vec<u32>,
}

/// Per-region index: every vertex of every stored inner path, with its
/// occurrence positions, keyed for O(1) lookup.  Occurrence lists are sorted
/// by path index, enabling a linear-merge intersection per query.
#[derive(Debug, Clone, Default)]
struct InnerPathIndex {
    occurrences: HashMap<VertexId, Vec<VertexOccurrence>>,
}

impl InnerPathIndex {
    fn build(paths: &[l2r_region_graph::SupportedPath]) -> InnerPathIndex {
        let mut occurrences: HashMap<VertexId, Vec<VertexOccurrence>> = HashMap::new();
        for (pi, sp) in paths.iter().enumerate() {
            for (pos, v) in sp.path.vertices().iter().enumerate() {
                let occ = occurrences.entry(*v).or_default();
                match occ.last_mut() {
                    Some(last) if last.path == pi as u32 => last.positions.push(pos as u32),
                    _ => occ.push(VertexOccurrence {
                        path: pi as u32,
                        positions: vec![pos as u32],
                    }),
                }
            }
        }
        InnerPathIndex { occurrences }
    }
}

/// Reusable per-query scratch state: one road-network search space, one
/// region-graph search space, a region-path buffer and a path builder.  Keep
/// one per serving thread ([`Engine::route_many`] does this for you, and
/// [`crate::registry::ScratchPool`] lends them out to server workers); a
/// `QueryScratch` is intentionally not shared between threads.
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
    /// [`l2r_road_network::searches_performed`]) to prove the serving path
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

/// An owned, compiled, immutable online serving engine: a fitted model
/// (behind an [`Arc<L2r>`]) plus every query-optimised index compiled from
/// it, in one `Send + Sync` unit.
///
/// Build once — [`Engine::new`] from a fitted model, [`Engine::load`]
/// straight from a snapshot file, or [`L2r::prepare`] — then serve queries
/// through [`Engine::route`] / [`Engine::route_many`].  One instance serves
/// any number of threads (share it behind an `Arc<Engine>`), each bringing
/// its own [`QueryScratch`].
#[derive(Debug, Clone)]
pub struct Engine {
    model: Arc<L2r>,
    /// Indexed by `RegionEdgeId`.
    oriented: Vec<OrientedPaths>,
    /// Indexed by `RegionId`.
    inner: Vec<InnerPathIndex>,
}

// The whole point of owning the model: an Engine must be shareable across
// serving threads behind an `Arc` with no further ceremony.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<L2r>();
};

impl Engine {
    /// Compiles a fitted model into an owned engine (the model moves behind
    /// an `Arc`; use [`Engine::from_shared`] to share an existing one).
    pub fn new(model: L2r) -> Engine {
        Engine::from_shared(Arc::new(model))
    }

    /// Compiles an engine around an already-shared model without cloning the
    /// model data.
    ///
    /// The two compile stages — oriented-path resolution per region edge and
    /// inner-path indexing per region — are each embarrassingly parallel and
    /// fan out across `L2R_THREADS` workers; results are merged in index
    /// order, so the compiled engine is identical to a single-threaded
    /// build.  The connector table is the model's own, resolved by the fit.
    pub fn from_shared(model: Arc<L2r>) -> Engine {
        let rg = model.region_graph();
        let oriented = oriented_paths(model.network(), rg);
        let inner = l2r_par::par_map(rg.regions(), |_, r| {
            InnerPathIndex::build(rg.inner_paths(r.id))
        });
        Engine {
            model,
            oriented,
            inner,
        }
    }

    /// Loads a model snapshot from disk and compiles it — everything a
    /// serving process needs to go from a `.l2r` file to answering queries.
    pub fn load(path: &std::path::Path) -> Result<Engine, SnapshotError> {
        Ok(Engine::new(load_model(path)?))
    }

    /// Thin borrowed constructor for tests: compiles an engine from a road
    /// network and region graph alone (no learned preferences, default
    /// config), cloning both into a degenerate owned model and resolving its
    /// connector table.  Serving only consults the network, the region graph
    /// and that table, so routing behaviour is identical to an engine around
    /// the full fitted model.
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
        self.model.connectors().len()
    }

    /// The model this engine serves.
    pub fn model(&self) -> &L2r {
        &self.model
    }

    /// A shared handle to the model (cheap `Arc` clone), e.g. to compile a
    /// second engine or inspect the model while the engine keeps serving.
    pub fn shared_model(&self) -> Arc<L2r> {
        Arc::clone(&self.model)
    }

    /// The underlying road network.
    #[inline]
    pub fn network(&self) -> &RoadNetwork {
        self.model.network()
    }

    /// The underlying region graph.
    #[inline]
    pub fn region_graph(&self) -> &RegionGraph {
        self.model.region_graph()
    }

    /// Routes from `source` to `destination`, reusing `scratch` across calls.
    ///
    /// Returns the same `RouteResult` (bit-identical path and strategy) as
    /// the free [`crate::router::route`] function, while performing no heap
    /// allocation besides the returned path once the scratch buffers have
    /// warmed up.
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
        let rg = self.region_graph();
        let source_anchor = match rg.region_of(source) {
            Some(_) => Some(source),
            None => self.find_anchor(scratch, source, destination),
        };
        let dest_anchor = match rg.region_of(destination) {
            Some(_) => Some(destination),
            None => self.find_anchor(scratch, destination, source),
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
        // appended in place (the historical implementation concatenated
        // three materialised paths; the vertex sequence is identical).
        scratch.builder.reset(source);
        if sa != source
            && !self.append_connector(&mut scratch.space, &mut scratch.builder, source, sa)
        {
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

    /// Finds the first region vertex settled by a fastest-path search from
    /// `from` towards `towards` (early-exit settle hook, scratch space).
    /// Both vertices must be in range; [`Engine::route`] checks them.
    fn find_anchor(
        &self,
        scratch: &mut QueryScratch,
        from: VertexId,
        towards: VertexId,
    ) -> Option<VertexId> {
        find_anchor_in(
            &mut scratch.space,
            self.network(),
            self.region_graph(),
            from,
            towards,
        )
    }

    /// Appends the fastest path `from → to` to the builder, consulting the
    /// model's connector table first: a hit (including a stored
    /// "unreachable") avoids the Dijkstra search entirely; a miss runs a live
    /// search through the scratch space.  Both produce the exact path the
    /// free `fastest_path` would have.
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
        match self.model.connectors().get(from, to) {
            Some(Some(p)) => {
                builder.append_slice(p);
                true
            }
            Some(None) => false,
            None => self.append_fastest(space, builder, from, to),
        }
    }

    /// Appends the fastest path `from → to` to the builder (which must end at
    /// `from`).  `from == to` is a no-op success, mirroring the trivial path
    /// the free `fastest_path` returns.
    fn append_fastest(
        &self,
        space: &mut SearchSpace,
        builder: &mut PathBuilder,
        from: VertexId,
        to: VertexId,
    ) -> bool {
        let net = self.network();
        let n = net.num_vertices();
        if from.idx() >= n || to.idx() >= n {
            return false;
        }
        if from == to {
            return true;
        }
        space.dijkstra(net, from, Some(to), |e| e.cost(CostType::TravelTime));
        builder.append_from_search(space, to)
    }

    /// Inner-region routing via the occurrence index: picks the most
    /// supported stored path containing `source` before `destination` (in
    /// either orientation, forward preferred on equal support — identical
    /// tie-breaking to the historical full scan) and appends the sub-path.
    fn append_inner_route(
        &self,
        builder: &mut PathBuilder,
        region: RegionId,
        source: VertexId,
        destination: VertexId,
    ) -> bool {
        let index = &self.inner[region.idx()];
        let (Some(src_occ), Some(dst_occ)) = (
            index.occurrences.get(&source),
            index.occurrences.get(&destination),
        ) else {
            return false;
        };
        let paths = self.region_graph().inner_paths(region);
        // (support, path index, forward?, slice start, slice end)
        let mut best: Option<(usize, u32, bool, usize, usize)> = None;
        let (mut i, mut j) = (0usize, 0usize);
        while i < src_occ.len() && j < dst_occ.len() {
            match src_occ[i].path.cmp(&dst_occ[j].path) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let pi = src_occ[i].path;
                    let support = paths[pi as usize].support;
                    let sp = &src_occ[i].positions;
                    let dp = &dst_occ[j].positions;
                    let beats = |best: &Option<(usize, u32, bool, usize, usize)>,
                                 support: usize| {
                        best.as_ref().map(|(s, ..)| support > *s).unwrap_or(true)
                    };
                    // Forward orientation: the sub-path from the first
                    // occurrence of `source` to the first occurrence of
                    // `destination` at or after it.
                    if beats(&best, support) {
                        let start = sp[0] as usize;
                        let k = dp.partition_point(|&p| (p as usize) < start);
                        if k < dp.len() {
                            let end = dp[k] as usize;
                            if end > start {
                                best = Some((support, pi, true, start, end));
                            }
                        }
                    }
                    // Reversed orientation: on the reversed path this is the
                    // sub-path from the *last* occurrence of `source` back to
                    // the closest preceding occurrence of `destination`.
                    if beats(&best, support) {
                        let last_src = *sp.last().expect("occurrences are non-empty") as usize;
                        let k = dp.partition_point(|&p| (p as usize) <= last_src);
                        if k > 0 {
                            let pd = dp[k - 1] as usize;
                            if pd < last_src {
                                best = Some((support, pi, false, pd, last_src));
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        match best {
            Some((_, pi, true, start, end)) => {
                builder.append_slice(&paths[pi as usize].path.vertices()[start..=end]);
                true
            }
            Some((_, pi, false, lo, hi)) => {
                builder.append_reversed_slice(&paths[pi as usize].path.vertices()[lo..=hi]);
                true
            }
            None => false,
        }
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
            let edge = rg.edge(*eid);
            let oriented = &self.oriented[eid.idx()];
            let candidate = if from_region == edge.a {
                oriented.forward.as_ref()
            } else {
                oriented.backward.as_ref()
            };
            match candidate {
                Some(segment) => {
                    // Connect the current position to the segment start if
                    // needed, then take the pre-resolved attached path.
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

impl L2r {
    /// Compiles this fitted model into an owned [`Engine`] (the model data is
    /// cloned behind the engine's `Arc`; use [`L2r::into_engine`] to move it
    /// in without the clone).
    pub fn prepare(&self) -> Engine {
        Engine::new(self.clone())
    }

    /// Compiles this fitted model into an owned [`Engine`], consuming the
    /// model (no clone).
    pub fn into_engine(self) -> Engine {
        Engine::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_preferences_to_b_edges;
    use crate::router::route;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, TrajectoryGraph};

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
                let free = route(&net, &rg, s, d);
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
            let free = route(&net, &rg, s, d);
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
            let o = &engine.oriented[edge.id.idx()];
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
                let o = &engine.oriented[e.id.idx()];
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
        // A second engine compiled off the shared handle answers identically.
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
