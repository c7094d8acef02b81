//! The model's routing tables, both built once per model: the
//! oriented-path table ([`OrientedPaths`]) and the connector table
//! ([`ConnectorTable`]), every fastest-path stub a Case-1 query can need,
//! resolved at fit time and persisted in the snapshot.
//!
//! Section VI maps a region path back to roads through the most supported
//! attached path of each region edge, in the direction travelled.  The
//! oriented-path table resolves that choice for both directions of every
//! region edge; [`crate::L2r`] builds it in its one constructor (fit,
//! reassembly and snapshot decode alike) and hands it to the connector
//! table, which derives its key set from it.
//!
//! The route is stitched from those attached paths and fastest paths between
//! them.  Those connectors always start or end at a region vertex:
//!
//! * **head** — query source (∈ `r`) → entry vertex of the attached path an
//!   adjacent edge uses out of `r` (also ∈ `r`), or the fallback transfer
//!   center of the neighbouring region when the orientation has no path;
//! * **tail / next hop** — exit vertex of an attached path into `r` (or a
//!   fallback center of `r`) → any vertex of `r` (the query destination, or
//!   the entry of the next leg).
//!
//! They depend only on the road network and the post-apply region graph, so
//! [`crate::L2r::fit`] resolves them once ([`ConnectorTable::resolve`]) as
//! the last part of Step 3, the snapshot stores the result, and
//! [`crate::L2r::route`] reads it instead of running the searches.
//!
//! A snapshot stores the table as one walk per key (see
//! [`ConnectorTable::encode`]), not the keys: the decoder derives them from
//! the region graph the table travels with, so the key set is exactly the
//! one that graph implies.  Each walk must start at its key's `from` and end
//! at its `to`, and is drivable by construction.

use std::ops::Range;

use l2r_region_graph::{RegionEdge, RegionGraph, RegionId};
use l2r_road_network::{
    decode_walk, encode_walks, CodecError, CostType, Path, Reader, RoadNetwork, SearchSpace,
    VertexId, Writer,
};

/// Best attached path of one region edge, resolved per orientation (most
/// supported path, first wins ties; opposite-orientation paths reversed and
/// kept only when drivable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OrientedPaths {
    /// Best path oriented `a → b`.
    pub(crate) forward: Option<Path>,
    /// Best path oriented `b → a`.
    pub(crate) backward: Option<Path>,
}

/// Resolves both orientations of every region edge (indexed by
/// `RegionEdgeId`), fanned out across `L2R_THREADS` workers; the result is
/// identical at every thread count.
pub(crate) fn oriented_paths(net: &RoadNetwork, rg: &RegionGraph) -> Vec<OrientedPaths> {
    l2r_par::par_map(rg.edges(), |_, edge| OrientedPaths {
        forward: best_oriented_path(net, rg, edge, edge.a, edge.b),
        backward: best_oriented_path(net, rg, edge, edge.b, edge.a),
    })
}

/// Picks the most supported attached path of `edge` oriented `from → to`
/// (first wins ties; opposite-orientation paths are reversed and kept only
/// when the reverse is drivable).
///
/// Shared by the oriented-path table and the reference router in
/// [`crate::oracle`], so the bit-identity between the two cannot drift.
pub(crate) fn best_oriented_path(
    net: &RoadNetwork,
    rg: &RegionGraph,
    edge: &RegionEdge,
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

/// Every fastest-path connector `(from, to)` a Case-1 query can need, with
/// its path (or the proof that `to` is unreachable from `from`).
///
/// Keys are stored strictly ascending next to one flat vertex array, so two
/// tables compare equal exactly when they hold the same entries.  Per-source
/// offsets into the keys answer a lookup with a binary search over one
/// source's targets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectorTable {
    /// Strictly ascending `(from, to)` keys.
    keys: Vec<(VertexId, VertexId)>,
    /// The keys from vertex `v` are `keys[by_source[v] .. by_source[v + 1]]`;
    /// one entry per network vertex, plus one.
    by_source: Vec<u32>,
    /// Key `i`'s path ends at `vertices[ends[i]]` (exclusive) and starts where
    /// key `i − 1`'s ends; an empty range means unreachable.
    ends: Vec<usize>,
    vertices: Vec<VertexId>,
}

impl ConnectorTable {
    /// Resolves the connector table of a fitted network and region graph,
    /// whose oriented-path table is `oriented` (the model's own).
    ///
    /// The searches run once per distinct `(region, source)`: one
    /// `dijkstra_to_many` towards the union of the source's head targets and,
    /// for an entry anchor, the region's vertices.  Extracting `path_to(t)`
    /// from that search is bit-identical to the early-stopped per-query
    /// search a table miss runs, because a settled vertex's parent never
    /// changes after it settles.  For the same reason two searches from one
    /// source agree on every target they share, so the per-search results
    /// merge in any order.  The searches are scheduled one by one across
    /// `L2R_THREADS` workers, so a region whose searches span the whole
    /// network does not pin them to one thread, and the table is identical
    /// at every thread count.  Its size stays linear in
    /// `Σ |region| × (adjacent edges)` — no all-pairs blowup.
    pub fn resolve(
        net: &RoadNetwork,
        rg: &RegionGraph,
        oriented: &[OrientedPaths],
    ) -> ConnectorTable {
        let plan = ConnectorPlan::new(net, rg, oriented);
        type Entry = ((VertexId, VertexId), Option<Path>);
        let per_source: Vec<Vec<Entry>> = l2r_par::par_map_init(
            &plan.jobs,
            || (SearchSpace::new(), Vec::new()),
            |(space, targets), _, job| {
                plan.targets_into(rg, job, targets);
                space.dijkstra_to_many(net, job.source, targets, |e| e.cost(CostType::TravelTime));
                targets
                    .iter()
                    .filter(|&&t| t != job.source)
                    .map(|&t| ((job.source, t), space.path_to(t)))
                    .collect()
            },
        );
        let mut entries: Vec<Entry> = per_source.into_iter().flatten().collect();
        // Equal keys carry equal paths, so which duplicate survives is moot.
        entries.sort_unstable_by_key(|(key, _)| *key);
        entries.dedup_by_key(|(key, _)| *key);
        let keys: Vec<_> = entries.iter().map(|(key, _)| *key).collect();
        let mut ends = Vec::with_capacity(entries.len());
        let mut vertices = Vec::new();
        for (_, path) in &entries {
            if let Some(p) = path {
                vertices.extend_from_slice(p.vertices());
            }
            ends.push(vertices.len());
        }
        ConnectorTable {
            by_source: by_source(&keys, net.num_vertices()),
            keys,
            ends,
            vertices,
        }
    }

    /// The connector `from → to`: `None` when the table has no such key,
    /// `Some(None)` when it is proven unreachable, and otherwise its full
    /// vertex sequence (both endpoints included).
    pub fn get(&self, from: VertexId, to: VertexId) -> Option<Option<&[VertexId]>> {
        let start = *self.by_source.get(from.idx())? as usize;
        let end = *self.by_source.get(from.idx() + 1)? as usize;
        let rank = self.keys[start..end]
            .binary_search_by_key(&to, |&(_, t)| t)
            .ok()?;
        let path = &self.vertices[self.span(start + rank)];
        Some((!path.is_empty()).then_some(path))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every entry in ascending key order, as [`ConnectorTable::get`]
    /// returns it.
    pub fn iter(&self) -> impl Iterator<Item = ((VertexId, VertexId), Option<&[VertexId]>)> {
        self.keys.iter().enumerate().map(|(i, &key)| {
            let path = &self.vertices[self.span(i)];
            (key, (!path.is_empty()).then_some(path))
        })
    }

    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// Writes the table's paths as walks over `net` (see
    /// [`l2r_road_network::encode_walk`]): the entry count (`u64`), then
    /// per key, in ascending key order, a walk from the key's `from` — a
    /// vertex count of 0 when the key is unreachable.  The keys themselves
    /// are not written: the snapshot decoder derives them from the region
    /// graph, as [`ConnectorTable::resolve`] does.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not the network the table was resolved on (a
    /// path hop is then not one of its edges).
    pub fn encode(&self, w: &mut Writer, net: &RoadNetwork) {
        w.length(self.len());
        let walks: Vec<&[VertexId]> = self.iter().map(|(_, p)| p.unwrap_or_default()).collect();
        encode_walks(w, net, &walks);
    }

    /// Decodes a table written by [`ConnectorTable::encode`], reading to the
    /// end of `r`.  The keys are the ones [`ConnectorTable::resolve`] derives
    /// from `rg` and its oriented-path table `oriented`; the entry count must
    /// equal their number, every walk that is not empty must end at its
    /// key's `to`, and nothing may follow the last walk.  Malformed input is
    /// a [`CodecError`], never a panic.
    pub(crate) fn decode(
        r: &mut Reader<'_>,
        net: &RoadNetwork,
        rg: &RegionGraph,
        oriented: &[OrientedPaths],
    ) -> Result<ConnectorTable, CodecError> {
        let len = r.length("connector count", 1)?;
        let keys = ConnectorPlan::new(net, rg, oriented).keys(rg);
        if len != keys.len() {
            return Err(CodecError::Invalid(
                "connector keys differ from the region graph's",
            ));
        }
        let (ends, vertices) = ConnectorTable::decode_walks(r, net, &keys)?;
        Ok(ConnectorTable {
            by_source: by_source(&keys, net.num_vertices()),
            keys,
            ends,
            vertices,
        })
    }

    /// Reads one walk per key, from its `from`, to the end of `r`: the
    /// `ends` and `vertices` of a table with those keys.
    fn decode_walks(
        r: &mut Reader<'_>,
        net: &RoadNetwork,
        keys: &[(VertexId, VertexId)],
    ) -> Result<(Vec<usize>, Vec<VertexId>), CodecError> {
        // A walk of `c` vertices takes at least `c` bytes.
        let mut vertices = Vec::with_capacity(r.remaining());
        let mut ends = Vec::with_capacity(keys.len());
        for &(from, to) in keys {
            if decode_walk(r, net, from, &mut vertices)? > 0 && vertices.last() != Some(&to) {
                return Err(CodecError::Invalid(
                    "connector path endpoints differ from its key",
                ));
            }
            ends.push(vertices.len());
        }
        if !r.is_exhausted() {
            return Err(CodecError::Invalid(
                "trailing bytes after the connector walks",
            ));
        }
        Ok((ends, vertices))
    }
}

/// The per-source offsets of `keys` (ascending, every source below
/// `num_vertices`), in one counting pass: the keys from vertex `v` are
/// `keys[offsets[v] .. offsets[v + 1]]`.
fn by_source(keys: &[(VertexId, VertexId)], num_vertices: usize) -> Vec<u32> {
    let mut offsets = vec![0u32; num_vertices + 1];
    for &(from, _) in keys {
        offsets[from.idx() + 1] += 1;
    }
    for v in 0..num_vertices {
        offsets[v + 1] += offsets[v];
    }
    offsets
}

/// One connector search: `source` reaches the out-targets of `region` when
/// `head` is set (it is a region vertex) and every vertex of `region` when
/// `tail` is set (it is an entry anchor).
struct ConnectorSource {
    region: RegionId,
    source: VertexId,
    head: bool,
    tail: bool,
}

/// The searches a region graph's connector table needs: the key set both
/// [`ConnectorTable::resolve`] and [`ConnectorTable::decode`] derive.
struct ConnectorPlan {
    /// Per region: the connector targets its vertices may route *out* to.
    out_targets: Vec<Vec<VertexId>>,
    /// One job per distinct `(region, source)`, in region order.
    jobs: Vec<ConnectorSource>,
}

impl ConnectorPlan {
    fn new(net: &RoadNetwork, rg: &RegionGraph, oriented: &[OrientedPaths]) -> ConnectorPlan {
        let nr = rg.num_regions();
        let mut out_targets: Vec<Vec<VertexId>> = vec![Vec::new(); nr];
        // Per region: the anchors where legs *enter* the region (tail sources).
        let mut entry_anchors: Vec<Vec<VertexId>> = vec![Vec::new(); nr];
        for edge in rg.edges() {
            let o = &oriented[edge.id.idx()];
            let orientations = [
                (edge.a, edge.b, o.forward.as_ref()),
                (edge.b, edge.a, o.backward.as_ref()),
            ];
            for (from, to, seg) in orientations {
                match seg {
                    Some(p) => {
                        out_targets[from.idx()].push(p.source());
                        entry_anchors[to.idx()].push(p.destination());
                    }
                    None => {
                        // The stitching falls back to the first transfer
                        // center of the next region for orientations without
                        // a path.
                        if let Some(&t) = rg.transfer_centers_or_default(to).first() {
                            out_targets[from.idx()].push(t);
                            entry_anchors[to.idx()].push(t);
                        }
                    }
                }
            }
        }
        for r in 0..nr {
            out_targets[r].sort_unstable();
            out_targets[r].dedup();
            entry_anchors[r].sort_unstable();
            entry_anchors[r].dedup();
        }

        // One job per distinct (region, source), flagged with the roles it
        // plays.
        let n = net.num_vertices();
        let mut jobs: Vec<ConnectorSource> = Vec::new();
        let mut roles: Vec<(VertexId, bool)> = Vec::new();
        for region in rg.regions() {
            let r = region.id;
            roles.clear();
            if !out_targets[r.idx()].is_empty() {
                roles.extend(region.vertices.iter().map(|&v| (v, false)));
            }
            roles.extend(entry_anchors[r.idx()].iter().map(|&a| (a, true)));
            roles.retain(|(v, _)| v.idx() < n);
            roles.sort_unstable();
            for &(source, anchor) in &roles {
                match jobs.last_mut() {
                    Some(job) if job.region == r && job.source == source => {
                        job.head |= !anchor;
                        job.tail |= anchor;
                    }
                    _ => jobs.push(ConnectorSource {
                        region: r,
                        source,
                        head: !anchor,
                        tail: anchor,
                    }),
                }
            }
        }
        ConnectorPlan { out_targets, jobs }
    }

    /// Fills `targets` with the sorted, deduplicated targets of `job` (which
    /// may include its own source).
    fn targets_into(&self, rg: &RegionGraph, job: &ConnectorSource, targets: &mut Vec<VertexId>) {
        targets.clear();
        if job.head {
            targets.extend_from_slice(&self.out_targets[job.region.idx()]);
        }
        if job.tail {
            targets.extend_from_slice(&rg.region(job.region).vertices);
        }
        targets.sort_unstable();
        targets.dedup();
    }

    /// The table's key set, strictly ascending.
    fn keys(&self, rg: &RegionGraph) -> Vec<(VertexId, VertexId)> {
        // Each job's keys ascend, so in source order the runs are already
        // sorted unless two regions share a source, and the sort below
        // only confirms the order.
        let mut jobs: Vec<&ConnectorSource> = self.jobs.iter().collect();
        jobs.sort_by_key(|job| job.source);
        let mut keys = Vec::new();
        let mut targets = Vec::new();
        for job in jobs {
            self.targets_into(rg, job, &mut targets);
            keys.extend(
                targets
                    .iter()
                    .filter(|&&t| t != job.source)
                    .map(|&t| (job.source, t)),
            );
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}
