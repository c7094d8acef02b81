//! Reusable, zero-allocation Dijkstra search state.
//!
//! Every search needs `dist`/`parent`/`settled` arrays of size `|V|` plus a
//! frontier heap.  Allocating and initialising them per query dominates the
//! cost of the many small searches the offline pipeline performs (Section
//! VII-C of the paper runs one search per observed path per candidate
//! preference, and one per transfer-center pair per B-edge).  A
//! [`SearchSpace`] keeps those arrays alive across queries and invalidates
//! them in O(1) with a generation stamp: a slot is only meaningful when its
//! stamp equals the current generation, so starting a new search is a counter
//! increment instead of an O(|V|) clear.
//!
//! The same state machine also powers the one-to-many variant
//! ([`SearchSpace::dijkstra_to_many`]) — a single search that keeps running
//! until a whole set of targets is settled, replacing `|targets|` independent
//! searches — and the preference-constrained search of Algorithm 2
//! ([`SearchSpace::preference_constrained_path`]).
//!
//! # Memory traffic per arc
//!
//! The search relaxes the out-edges of a settled vertex straight off the
//! network's column-wise CSR edge storage (see [`crate::graph`]): the
//! vertex's arcs are one contiguous run of positions, and the [`Edge`]
//! handed to the edge-cost closure is rebuilt from the columns at that
//! position.  The closure is inlined into the loop, so only the columns it
//! actually reads are loaded — a travel-time search touches the `head`
//! column and the travel-time column, 12 bytes per arc, read sequentially.
//! Arcs are relaxed in the same `(head, id)` order with the same weights and
//! the frontier breaks ties on `(cost, vertex id)`, so every cost, parent and
//! settle order is bit-identical to what an id-indexed edge table produced.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::graph::{Edge, RoadNetwork, VertexId};
use crate::path::Path;
use crate::road_type::RoadTypeSet;
use crate::weights::CostType;

/// Process-wide count of Dijkstra searches started (all variants, all
/// threads).  Used by the benchmark harness to report searches/second.
static SEARCHES: AtomicU64 = AtomicU64::new(0);

/// Number of Dijkstra searches started since process start (all variants,
/// all threads, monotone).  Sample before and after a workload to compute a
/// searches/second throughput figure.
///
/// Overflow audit (XL workloads push search counts orders of magnitude
/// higher than the original tiers): this counter is a `u64`, so even at
/// 10⁸ searches/second it would take thousands of years to wrap — wrap
/// handling is deliberately omitted.  The per-[`SearchSpace`] `generation`
/// stamp is a `u32` and *can* realistically wrap on a long-lived space
/// (2³² searches); [`SearchSpace`] handles that with a hard stamp reset at
/// the boundary, tested by `generation_wrap_hard_resets_stamps`.
pub fn searches_performed() -> u64 {
    SEARCHES.load(AtomicOrdering::Relaxed)
}

/// Sentinel for "no parent" in the compact parent array.
const NO_PARENT: u32 = u32::MAX;

/// A search frontier entry; ordered so the smallest cost pops first, with a
/// deterministic vertex-id tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    cost: f64,
    vertex: VertexId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` keeps the heap ordering a strict total order even if a
        // NaN cost ever slips in (an inconsistent comparator corrupts a
        // binary heap silently).
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.vertex.0.cmp(&self.vertex.0))
    }
}

impl PartialOrd for QueueEntry {
    #[inline]
    // l2r: allow(float-total-cmp) — trait-mandated shim; delegates to the
    // total_cmp-based Ord above, so no NaN-unsafe comparison happens here.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable Dijkstra state: generation-stamped `dist`/`parent`/`settled`
/// arrays and a drained heap.  Repeated searches through the same
/// `SearchSpace` perform no per-query allocation (beyond growing the arrays
/// the first time a larger network is seen); results are read back through
/// [`SearchSpace::cost_to`], [`SearchSpace::path_to`] and
/// [`SearchSpace::parent_of`] until the next search overwrites them.
///
/// A `SearchSpace` is intentionally `!Sync`: use one instance per thread
/// (e.g. one per worker of `l2r_par::par_map_init`).
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Current generation; array slots are valid iff their stamp matches.
    generation: u32,
    dist: Vec<f64>,
    parent: Vec<u32>,
    /// Stamp validating `dist`/`parent` per vertex.
    stamp: Vec<u32>,
    /// Stamp marking settled vertices.
    settled: Vec<u32>,
    /// Stamp marking the target set of a one-to-many search.
    target_stamp: Vec<u32>,
    heap: BinaryHeap<QueueEntry>,
    source: VertexId,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace::new()
    }
}

thread_local! {
    /// Shared per-thread space backing the free compatibility functions in
    /// [`crate::dijkstra`] and [`crate::constrained`].
    static THREAD_SPACE: RefCell<SearchSpace> = RefCell::new(SearchSpace::new());
}

impl SearchSpace {
    /// Creates an empty search space; arrays grow on first use.
    pub fn new() -> SearchSpace {
        SearchSpace {
            generation: 0,
            dist: Vec::new(),
            parent: Vec::new(),
            stamp: Vec::new(),
            settled: Vec::new(),
            target_stamp: Vec::new(),
            heap: BinaryHeap::new(),
            source: VertexId(0),
        }
    }

    /// Runs `f` with the calling thread's shared search space.  Re-entrant
    /// calls (an edge-cost closure invoking another search) fall back to a
    /// fresh space instead of panicking.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut SearchSpace) -> R) -> R {
        THREAD_SPACE.with(|cell| match cell.try_borrow_mut() {
            Ok(mut space) => f(&mut space),
            Err(_) => f(&mut SearchSpace::new()),
        })
    }

    /// Starts a new search generation sized for `n` vertices.
    fn begin(&mut self, n: usize, source: VertexId) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, NO_PARENT);
            self.stamp.resize(n, 0);
            self.settled.resize(n, 0);
            self.target_stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            // Generation wrap: hard-reset the stamps once every 2^32 - 1
            // searches so stale slots can never alias the new generation.
            self.stamp.fill(0);
            self.settled.fill(0);
            self.target_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.source = source;
        SEARCHES.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// The shared core loop: plain or slave-constrained Dijkstra, stopping
    /// when every (in-range) target is settled, or exploring everything when
    /// `targets` is `None` or contains no in-range vertex (matching the
    /// historical behaviour of an unreachable explicit target).
    ///
    /// `on_settle`, when given, observes every settled vertex in settle order
    /// and aborts the search early by returning `true` — the hook behind
    /// [`SearchSpace::dijkstra_with_settle`].
    fn run<F>(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        targets: Option<&[VertexId]>,
        slave: Option<RoadTypeSet>,
        mut edge_cost: F,
        mut on_settle: Option<&mut dyn FnMut(VertexId) -> bool>,
    ) where
        F: FnMut(&Edge) -> f64,
    {
        let n = net.num_vertices();
        self.begin(n, source);
        let generation = self.generation;
        let mut remaining = 0usize;
        if let Some(ts) = targets {
            for t in ts {
                if t.idx() < n && self.target_stamp[t.idx()] != generation {
                    self.target_stamp[t.idx()] = generation;
                    remaining += 1;
                }
            }
        }
        let bounded = remaining > 0;
        if source.idx() >= n {
            return;
        }

        self.dist[source.idx()] = 0.0;
        self.parent[source.idx()] = NO_PARENT;
        self.stamp[source.idx()] = generation;
        self.heap.push(QueueEntry {
            cost: 0.0,
            vertex: source,
        });

        while let Some(QueueEntry { cost, vertex }) = self.heap.pop() {
            let vi = vertex.idx();
            if self.settled[vi] == generation {
                continue;
            }
            self.settled[vi] = generation;
            if let Some(hook) = on_settle.as_deref_mut() {
                if hook(vertex) {
                    break;
                }
            }
            if bounded && self.target_stamp[vi] == generation {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }

            // Case split of Algorithm 2, lines 7-11: when a slave preference
            // is set and at least one outgoing edge satisfies it, only such
            // edges are explored; otherwise all edges are (so the search
            // never gets stuck).
            let none_satisfies = match slave {
                Some(s) => !net.out_edges(vertex).any(|e| s.contains(e.road_type)),
                None => true,
            };

            for edge in net.out_edges(vertex) {
                if let Some(s) = slave {
                    if !none_satisfies && !s.contains(edge.road_type) {
                        continue;
                    }
                }
                let w = edge_cost(&edge);
                if !w.is_finite() || w < 0.0 {
                    continue;
                }
                let next = cost + w;
                let ti = edge.to.idx();
                let current = if self.stamp[ti] == generation {
                    self.dist[ti]
                } else {
                    f64::INFINITY
                };
                if next < current {
                    self.dist[ti] = next;
                    self.parent[ti] = vertex.0;
                    self.stamp[ti] = generation;
                    self.heap.push(QueueEntry {
                        cost: next,
                        vertex: edge.to,
                    });
                }
            }
        }
    }

    /// Plain Dijkstra from `source`; stops as soon as `target` (when given)
    /// is settled.  Results are read via the accessors below.
    pub fn dijkstra<F>(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        target: Option<VertexId>,
        edge_cost: F,
    ) where
        F: FnMut(&Edge) -> f64,
    {
        match target {
            Some(t) => {
                let targets = [t];
                self.run(net, source, Some(&targets), None, edge_cost, None);
            }
            None => self.run(net, source, None, None, edge_cost, None),
        }
    }

    /// Plain Dijkstra with an early-exit settle hook: `on_settle` observes
    /// every settled vertex (in settle order) and returning `true` aborts the
    /// search immediately.  The search also stops once `target` (when given)
    /// is settled, exactly like [`SearchSpace::dijkstra`].
    ///
    /// L2R's Case-2 anchor search uses it to stop at the *first* settled
    /// region vertex instead of settling everything up to the target.
    pub fn dijkstra_with_settle<F, C>(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        target: Option<VertexId>,
        edge_cost: F,
        mut on_settle: C,
    ) where
        F: FnMut(&Edge) -> f64,
        C: FnMut(VertexId) -> bool,
    {
        match target {
            Some(t) => {
                let targets = [t];
                self.run(
                    net,
                    source,
                    Some(&targets),
                    None,
                    edge_cost,
                    Some(&mut on_settle),
                );
            }
            None => self.run(net, source, None, None, edge_cost, Some(&mut on_settle)),
        }
    }

    /// One-to-many Dijkstra: a single search that keeps running until every
    /// in-range vertex of `targets` is settled (duplicates are fine).  After
    /// the call, [`SearchSpace::path_to`] / [`SearchSpace::cost_to`] answer
    /// for *all* targets — the pipeline's Step 3 uses this to reach every
    /// transfer center of a neighbouring region with one search instead of
    /// `|targets|` full searches.
    pub fn dijkstra_to_many<F>(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        targets: &[VertexId],
        edge_cost: F,
    ) where
        F: FnMut(&Edge) -> f64,
    {
        self.run(net, source, Some(targets), None, edge_cost, None);
    }

    /// Preference-constrained one-to-many search (Algorithm 2 semantics, see
    /// [`SearchSpace::preference_constrained_path`]).
    pub fn constrained_to_many(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        targets: &[VertexId],
        master: CostType,
        slave: Option<RoadTypeSet>,
    ) {
        let slave = slave.filter(|s| !s.is_empty());
        self.run(net, source, Some(targets), slave, |e| e.cost(master), None);
    }

    /// Lowest-cost path under `cost_type` (allocation-free search; only the
    /// returned [`Path`] is allocated).
    pub fn lowest_cost_path(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        target: VertexId,
        cost_type: CostType,
    ) -> Option<Path> {
        if source.idx() >= net.num_vertices() || target.idx() >= net.num_vertices() {
            return None;
        }
        if source == target {
            return Some(Path::single(source));
        }
        self.dijkstra(net, source, Some(target), |e| e.cost(cost_type));
        self.path_to(target)
    }

    /// Algorithm 2: minimise `master` while preferring edges whose road type
    /// is in `slave` (an absent or empty slave set degenerates to plain
    /// Dijkstra on the master cost).  Returns `None` when `target` is
    /// unreachable.
    pub fn preference_constrained_path(
        &mut self,
        net: &RoadNetwork,
        source: VertexId,
        target: VertexId,
        master: CostType,
        slave: Option<RoadTypeSet>,
    ) -> Option<Path> {
        if source.idx() >= net.num_vertices() || target.idx() >= net.num_vertices() {
            return None;
        }
        if source == target {
            return Some(Path::single(source));
        }
        let slave = slave.filter(|s| !s.is_empty());
        let targets = [target];
        self.run(net, source, Some(&targets), slave, |e| e.cost(master), None);
        self.path_to(target)
    }

    // ------------------------------------------------------------------
    // Result accessors (valid until the next search on this space)
    // ------------------------------------------------------------------

    /// The source of the most recent search.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The current search generation: incremented by exactly one every time a
    /// search starts on this space (wrapping back to 1 after `u32::MAX`
    /// searches).  Serving code uses this to *prove* scratch reuse: if every
    /// search of a query workload went through one space, the generation
    /// advances by exactly the number of searches performed — a fresh or
    /// thread-local space being allocated behind the caller's back would
    /// break that equality.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Final cost to `v` in the most recent search, or `None` when `v` was
    /// not reached (or is out of range).
    pub fn cost_to(&self, v: VertexId) -> Option<f64> {
        let i = v.idx();
        if i < self.stamp.len() && self.stamp[i] == self.generation && self.dist[i].is_finite() {
            Some(self.dist[i])
        } else {
            None
        }
    }

    /// Parent of `v` in the shortest-path tree of the most recent search
    /// (`None` for the source and for unreached or out-of-range vertices).
    pub fn parent_of(&self, v: VertexId) -> Option<VertexId> {
        let i = v.idx();
        if i < self.stamp.len() && self.stamp[i] == self.generation && self.parent[i] != NO_PARENT {
            Some(VertexId(self.parent[i]))
        } else {
            None
        }
    }

    /// Reconstructs the path from the source of the most recent search to
    /// `v`, or `None` when unreachable.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        self.cost_to(v)?;
        let mut vertices = vec![v];
        let mut current = v;
        loop {
            let p = self.parent[current.idx()];
            if p == NO_PARENT {
                break;
            }
            current = VertexId(p);
            vertices.push(current);
        }
        if *vertices.last().expect("non-empty") != self.source {
            return None;
        }
        vertices.reverse();
        Path::new(vertices).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;
    use crate::road_type::RoadType;
    use crate::spatial::Point;

    /// Two routes from 0 to 3: a short residential route through 2 and a
    /// longer but much faster motorway route through 1.
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

    #[test]
    fn reuse_across_searches_does_not_leak_state() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            e.cost(CostType::Distance)
        });
        let first = space.path_to(VertexId(3)).unwrap();
        // A second search from a different source must not see the first
        // search's distances.
        space.dijkstra(&net, VertexId(1), Some(VertexId(2)), |e| {
            e.cost(CostType::Distance)
        });
        assert_eq!(space.source(), VertexId(1));
        let second = space.path_to(VertexId(2)).unwrap();
        assert_eq!(second.source(), VertexId(1));
        // And re-running the first query reproduces the first answer.
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            e.cost(CostType::Distance)
        });
        assert_eq!(space.path_to(VertexId(3)).unwrap(), first);
    }

    #[test]
    fn to_many_matches_individual_searches() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        let targets = [VertexId(1), VertexId(2), VertexId(3)];
        space.dijkstra_to_many(&net, VertexId(0), &targets, |e| {
            e.cost(CostType::TravelTime)
        });
        let many: Vec<(Option<f64>, Option<Path>)> = targets
            .iter()
            .map(|t| (space.cost_to(*t), space.path_to(*t)))
            .collect();
        for (i, t) in targets.iter().enumerate() {
            let mut fresh = SearchSpace::new();
            fresh.dijkstra(&net, VertexId(0), Some(*t), |e| {
                e.cost(CostType::TravelTime)
            });
            assert_eq!(fresh.cost_to(*t), many[i].0, "cost to {t:?}");
            assert_eq!(fresh.path_to(*t), many[i].1, "path to {t:?}");
        }
        // All targets were settled by the single search.
        for t in targets {
            assert!(is_settled(&space, t));
        }
    }

    #[test]
    fn out_of_range_targets_are_ignored() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        space.dijkstra_to_many(&net, VertexId(0), &[VertexId(3), VertexId(99)], |e| {
            e.cost(CostType::Distance)
        });
        assert!(space.path_to(VertexId(3)).is_some());
        assert!(space.cost_to(VertexId(99)).is_none());
        assert!(space.path_to(VertexId(99)).is_none());
    }

    #[test]
    fn shrinking_network_does_not_expose_stale_slots() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        space.dijkstra(&net, VertexId(0), None, |e| e.cost(CostType::Distance));
        assert!(space.cost_to(VertexId(3)).is_some());
        // A smaller network reuses the same arrays; vertices beyond its size
        // must read as unreached even though old stamps linger.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Primary).unwrap();
        let small = b.build();
        space.dijkstra(&small, VertexId(0), None, |e| e.cost(CostType::Distance));
        assert!(space.cost_to(VertexId(1)).is_some());
        assert!(space.cost_to(VertexId(3)).is_none());
    }

    #[test]
    fn search_counter_is_monotone() {
        let net = two_route_network();
        let before = searches_performed();
        let mut space = SearchSpace::new();
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            e.cost(CostType::Distance)
        });
        assert!(searches_performed() > before);
    }

    /// Whether the most recent search on `space` settled `v` (popped it
    /// with its final distance).
    fn is_settled(space: &SearchSpace, v: VertexId) -> bool {
        let i = v.idx();
        i < space.settled.len() && space.settled[i] == space.generation
    }

    /// Vertices of `net` the most recent search on `space` settled.
    fn settled_count(space: &SearchSpace, net: &RoadNetwork) -> usize {
        (0..net.num_vertices() as u32)
            .filter(|&v| is_settled(space, VertexId(v)))
            .count()
    }

    #[test]
    fn settle_hook_sees_source_first_and_non_decreasing_costs() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        let mut observed = Vec::new();
        space.dijkstra_with_settle(
            &net,
            VertexId(0),
            Some(VertexId(3)),
            |e| e.cost(CostType::Distance),
            |v| {
                observed.push(v);
                false
            },
        );
        assert_eq!(observed.first(), Some(&VertexId(0)));
        assert_eq!(observed.last(), Some(&VertexId(3)), "stops at the target");
        // Every settled vertex is observed exactly once, in cost order.
        assert_eq!(observed.len(), settled_count(&space, &net));
        let costs: Vec<f64> = observed
            .iter()
            .map(|&v| space.cost_to(v).unwrap())
            .collect();
        assert!(
            costs.windows(2).all(|w| w[0] <= w[1]),
            "settle costs must never decrease: {costs:?}"
        );
    }

    #[test]
    fn settle_hook_stops_the_search_early() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        // Stop at the first settled vertex other than the source.
        let mut count = 0usize;
        space.dijkstra_with_settle(
            &net,
            VertexId(0),
            None,
            |e| e.cost(CostType::Distance),
            |v| {
                count += 1;
                v != VertexId(0)
            },
        );
        assert_eq!(count, 2, "source + the first non-source settle");
        assert_eq!(settled_count(&space, &net), 2);
    }

    #[test]
    fn generation_advances_once_per_search() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        let g0 = space.generation();
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            e.cost(CostType::Distance)
        });
        space.dijkstra_with_settle(
            &net,
            VertexId(1),
            None,
            |e| e.cost(CostType::TravelTime),
            |_| true,
        );
        assert_eq!(space.generation(), g0 + 2);
    }

    #[test]
    fn generation_wrap_hard_resets_stamps() {
        let net = two_route_network();
        let mut space = SearchSpace::new();
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            e.cost(CostType::Distance)
        });
        let path_before_wrap = space.path_to(VertexId(3)).unwrap();

        // Jump the counter to just below the wrap boundary instead of running
        // 2^32 searches; the tests module sees the private field.
        space.generation = u32::MAX - 1;
        space.dijkstra(&net, VertexId(1), Some(VertexId(2)), |e| {
            e.cost(CostType::Distance)
        });
        assert_eq!(space.generation(), u32::MAX);
        assert!(space.cost_to(VertexId(2)).is_some());

        // The next search crosses the wrap: stamps are hard-reset and the
        // generation restarts at 1, so slots stamped `u32::MAX` a moment ago
        // can never alias the new generation.
        space.dijkstra(&net, VertexId(0), Some(VertexId(3)), |e| {
            e.cost(CostType::Distance)
        });
        assert_eq!(space.generation(), 1);
        assert_eq!(space.path_to(VertexId(3)).unwrap(), path_before_wrap);

        // A post-wrap search on a smaller network leaves high slots untouched;
        // they must read as unreached despite their pre-wrap stamps.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Primary).unwrap();
        let small = b.build();
        let mut wrapped = SearchSpace::new();
        wrapped.dijkstra(&net, VertexId(0), None, |e| e.cost(CostType::Distance));
        wrapped.generation = u32::MAX;
        wrapped.dijkstra(&small, VertexId(0), None, |e| e.cost(CostType::Distance));
        assert_eq!(wrapped.generation(), 1);
        assert!(wrapped.cost_to(VertexId(1)).is_some());
        assert!(wrapped.cost_to(VertexId(3)).is_none(), "stale slot aliased");
    }

    #[test]
    fn thread_local_space_is_reused_and_reentrancy_safe() {
        let net = two_route_network();
        let outer = SearchSpace::with_thread_local(|space| {
            // A nested call while the outer borrow is live must still work.
            let nested = SearchSpace::with_thread_local(|inner| {
                inner.lowest_cost_path(&net, VertexId(0), VertexId(3), CostType::Distance)
            });
            assert!(nested.is_some());
            space.lowest_cost_path(&net, VertexId(0), VertexId(3), CostType::Distance)
        });
        assert!(outer.is_some());
    }
}
