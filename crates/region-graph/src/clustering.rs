//! Modularity-based, road-type-constrained bottom-up clustering —
//! Algorithm 1 of the paper ("BottomUpClustering", Section IV-A).
//!
//! Starting from the trajectory graph, every traversed vertex is a cluster.
//! The algorithm repeatedly pops the most popular cluster, checks which of
//! its neighbours qualify for merging (positive modularity gain and a
//! consistent road type, Table I), selects the largest road-type-consistent
//! subset (`SelectM`), cuts edges to the rejected neighbours, and merges the
//! selected ones into an aggregate cluster.  A cluster that pops with no
//! remaining neighbours becomes a region.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use l2r_road_network::{RoadType, VertexId};

use crate::trajectory_graph::TrajectoryGraph;

/// Modularity gain `∆Q_{ij} = s_ij / S − S_i · S_j / S²` of merging two
/// clusters connected by an edge of popularity `s_ij` (Section IV-A).
fn modularity_gain(s_ij: f64, s_i: f64, s_j: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    s_ij / total - (s_i * s_j) / (total * total)
}

/// A cluster produced by the algorithm: the future region.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Member vertices.
    pub vertices: Vec<VertexId>,
    /// Total popularity (sum of the members' popularities).
    pub popularity: f64,
    /// The dominant road type of the cluster (None for a single vertex that
    /// never merged).
    pub road_type: Option<RoadType>,
}

/// Internal cluster node state during the agglomeration.
#[derive(Debug, Clone)]
struct Node {
    vertices: Vec<VertexId>,
    popularity: f64,
    /// `None` while the node is a simple (never merged) vertex.
    road_type: Option<RoadType>,
    alive: bool,
    /// Finalised as a region.
    finished: bool,
}

impl Node {
    fn is_simple(&self) -> bool {
        self.road_type.is_none()
    }
}

/// Inter-node connection: combined popularity and the road type carrying the
/// most popularity between the two nodes.
#[derive(Debug, Clone, Copy)]
struct Connection {
    popularity: f64,
    road_type: RoadType,
    road_type_popularity: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    popularity: f64,
    node: usize,
    /// Version counter to invalidate stale heap entries after a merge.
    version: u64,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.popularity
            .total_cmp(&other.popularity)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    // l2r: allow(float-total-cmp) — trait-mandated shim; delegates to the
    // total_cmp-based Ord above, so no NaN-unsafe comparison happens here.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Algorithm 1 on a trajectory graph and returns the clusters (regions).
///
/// Clusters are returned in descending popularity order.  Vertices that were
/// never traversed by a trajectory are not part of any cluster.
pub fn bottom_up_clustering(tg: &TrajectoryGraph) -> Vec<Cluster> {
    let total = tg.total_popularity();
    // Index traversed vertices densely.
    let vertex_list: Vec<VertexId> = {
        let mut v: Vec<VertexId> = tg.vertices().collect();
        v.sort();
        v
    };
    let index_of: HashMap<VertexId, usize> = vertex_list
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i))
        .collect();

    let mut nodes: Vec<Node> = vertex_list
        .iter()
        .map(|v| Node {
            vertices: vec![*v],
            popularity: tg.vertex_popularity(*v),
            road_type: None,
            alive: true,
            finished: false,
        })
        .collect();

    // Adjacency between nodes.
    let mut adj: Vec<HashMap<usize, Connection>> = vec![HashMap::new(); nodes.len()];
    for ((a, b), s, rt) in tg.edges() {
        let ia = index_of[&a];
        let ib = index_of[&b];
        let conn = Connection {
            popularity: s,
            road_type: rt,
            road_type_popularity: s,
        };
        adj[ia].insert(ib, conn);
        adj[ib].insert(ia, conn);
    }

    let mut versions: Vec<u64> = vec![0; nodes.len()];
    let mut heap: BinaryHeap<HeapEntry> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| HeapEntry {
            popularity: n.popularity,
            node: i,
            version: 0,
        })
        .collect();

    let mut clusters: Vec<Cluster> = Vec::new();

    while let Some(entry) = heap.pop() {
        let k = entry.node;
        if !nodes[k].alive || nodes[k].finished || entry.version != versions[k] {
            continue;
        }

        // Adjacent alive nodes (VA), in index order: HashMap iteration order
        // varies between runs, and the neighbour order influences merge
        // order (and through float summation the exact popularity values),
        // so it must be deterministic.
        let neighbors: Vec<usize> = {
            // l2r: allow(nondeterministic-iteration) — collected then sorted below
            let mut v: Vec<usize> = adj[k].keys().copied().filter(|j| nodes[*j].alive).collect();
            v.sort_unstable();
            v
        };
        if neighbors.is_empty() {
            nodes[k].finished = true;
            clusters.push(Cluster {
                vertices: nodes[k].vertices.clone(),
                popularity: nodes[k].popularity,
                road_type: nodes[k].road_type,
            });
            continue;
        }

        // CheckQ: positive modularity gain + road type conditions (Table I).
        let mut qualified: Vec<usize> = Vec::new();
        for &j in &neighbors {
            let conn = adj[k][&j];
            let gain = modularity_gain(
                conn.popularity,
                nodes[k].popularity,
                nodes[j].popularity,
                total,
            );
            if gain <= 0.0 {
                continue;
            }
            let ok = match (nodes[k].is_simple(), nodes[j].is_simple()) {
                (true, true) => true,
                (false, true) => nodes[k].road_type == Some(conn.road_type),
                (true, false) => nodes[j].road_type == Some(conn.road_type),
                (false, false) => nodes[k].road_type == nodes[j].road_type,
            };
            if ok {
                qualified.push(j);
            }
        }

        // SelectM: if vk is simple, keep only the largest subset whose
        // connecting edges share one road type; if vk is aggregate, all
        // qualified neighbours are kept (their types already match vk.RT).
        let selected: Vec<usize> = if nodes[k].is_simple() {
            let mut by_type: HashMap<RoadType, Vec<usize>> = HashMap::new();
            for &j in &qualified {
                by_type.entry(adj[k][&j].road_type).or_default().push(j);
            }
            by_type
                .into_iter()
                .max_by(|a, b| {
                    a.1.len()
                        .cmp(&b.1.len())
                        .then_with(|| a.0.index().cmp(&b.0.index()).reverse())
                })
                .map(|(_, v)| v)
                .unwrap_or_default()
        } else {
            qualified
        };
        let selected_set: HashSet<usize> = selected.iter().copied().collect();

        // Cut edges to every adjacent node that was not selected.
        for &j in &neighbors {
            if !selected_set.contains(&j) {
                adj[k].remove(&j);
                adj[j].remove(&k);
            }
        }

        if selected.is_empty() {
            // Nothing to merge; vk goes back to the queue (it will pop with
            // no neighbours next time and become a region, or gain new
            // neighbours through other merges never happens — neighbours only
            // disappear — so this terminates).
            versions[k] += 1;
            heap.push(HeapEntry {
                popularity: nodes[k].popularity,
                node: k,
                version: versions[k],
            });
            continue;
        }

        // Merge the selected neighbours into vk.
        // The road type of the merged aggregate: vk's type if it has one,
        // otherwise the type of the connecting edges (MergeSS).
        let merged_road_type = nodes[k]
            .road_type
            .unwrap_or_else(|| adj[k][&selected[0]].road_type);

        for &j in &selected {
            let j_vertices = std::mem::take(&mut nodes[j].vertices);
            let j_pop = nodes[j].popularity;
            let j_neighbors: Vec<(usize, Connection)> = {
                let mut v: Vec<(usize, Connection)> = adj[j]
                    .iter()
                    .map(|(n, c)| (*n, *c))
                    .filter(|(n, _)| *n != k)
                    .collect();
                v.sort_unstable_by_key(|(n, _)| *n);
                v
            };
            nodes[j].alive = false;
            adj[j].clear();
            adj[k].remove(&j);

            nodes[k].vertices.extend(j_vertices);
            nodes[k].popularity += j_pop;

            // Re-wire j's other neighbours to k, combining parallel edges.
            for (n, c) in j_neighbors {
                adj[n].remove(&j);
                if !nodes[n].alive {
                    continue;
                }
                let entry = adj[k].entry(n).or_insert(Connection {
                    popularity: 0.0,
                    road_type: c.road_type,
                    road_type_popularity: 0.0,
                });
                entry.popularity += c.popularity;
                if c.road_type == entry.road_type {
                    entry.road_type_popularity += c.road_type_popularity;
                } else if c.road_type_popularity > entry.road_type_popularity {
                    entry.road_type = c.road_type;
                    entry.road_type_popularity = c.road_type_popularity;
                }
                let back = *entry;
                adj[n].insert(k, back);
            }
        }
        nodes[k].road_type = Some(merged_road_type);

        versions[k] += 1;
        heap.push(HeapEntry {
            popularity: nodes[k].popularity,
            node: k,
            version: versions[k],
        });
    }

    // Any alive, unfinished nodes (cannot normally happen) become clusters.
    for n in nodes.iter().filter(|n| n.alive && !n.finished) {
        clusters.push(Cluster {
            vertices: n.vertices.clone(),
            popularity: n.popularity,
            road_type: n.road_type,
        });
    }

    clusters.sort_by(|a, b| {
        b.popularity
            .total_cmp(&a.popularity)
            .then_with(|| a.vertices.first().cmp(&b.vertices.first()))
    });
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_road_network::{Path, Point, RoadNetwork, RoadNetworkBuilder, RoadType};
    use l2r_trajectory::{DriverId, MatchedTrajectory, TrajectoryId};

    fn traj(id: u32, vs: Vec<u32>) -> MatchedTrajectory {
        MatchedTrajectory::new(
            TrajectoryId(id),
            DriverId(0),
            Path::new(vs.into_iter().map(VertexId).collect()).unwrap(),
            0.0,
        )
    }

    #[test]
    fn modularity_gain_formula() {
        // s_ij = 4, S_i = 6, S_j = 8, S = 20 -> 4/20 - 48/400 = 0.2 - 0.12.
        assert!((modularity_gain(4.0, 6.0, 8.0, 20.0) - 0.08).abs() < 1e-12);
        assert_eq!(modularity_gain(1.0, 1.0, 1.0, 0.0), 0.0);
        // Unpopular edge between two very popular vertices: negative gain.
        assert!(modularity_gain(1.0, 50.0, 50.0, 100.0) < 0.0);
    }

    /// Builds the paper's Figure 3 style scenario: two dense corridors of the
    /// same road type connected by a low-popularity link of another type.
    fn two_corridor_network() -> (RoadNetwork, Vec<MatchedTrajectory>) {
        let mut b = RoadNetworkBuilder::new();
        // Corridor A: vertices 0-1-2 (primary), corridor B: 3-4-5 (residential),
        // connected by a secondary edge 2-3.
        for i in 0..6 {
            b.add_vertex(Point::new(i as f64 * 500.0, 0.0));
        }
        b.add_two_way(VertexId(0), VertexId(1), RoadType::Primary)
            .unwrap();
        b.add_two_way(VertexId(1), VertexId(2), RoadType::Primary)
            .unwrap();
        b.add_two_way(VertexId(2), VertexId(3), RoadType::Secondary)
            .unwrap();
        b.add_two_way(VertexId(3), VertexId(4), RoadType::Residential)
            .unwrap();
        b.add_two_way(VertexId(4), VertexId(5), RoadType::Residential)
            .unwrap();
        let net = b.build();
        // Many trajectories inside each corridor, a single one crossing.
        let mut ts = Vec::new();
        for i in 0..10 {
            ts.push(traj(i, vec![0, 1, 2]));
            ts.push(traj(100 + i, vec![3, 4, 5]));
        }
        ts.push(traj(999, vec![0, 1, 2, 3, 4, 5]));
        (net, ts)
    }

    #[test]
    fn corridors_become_separate_clusters() {
        let (net, ts) = two_corridor_network();
        let tg = TrajectoryGraph::build(&net, &ts);
        let clusters = bottom_up_clustering(&tg);
        // Expect (at least) two multi-vertex clusters, one per corridor,
        // split by road type and the unpopular crossing edge.
        let corridor_a: HashSet<VertexId> = [0, 1, 2].into_iter().map(VertexId).collect();
        let corridor_b: HashSet<VertexId> = [3, 4, 5].into_iter().map(VertexId).collect();
        let mut found_a = false;
        let mut found_b = false;
        for c in &clusters {
            let set: HashSet<VertexId> = c.vertices.iter().copied().collect();
            if set == corridor_a {
                found_a = true;
                assert_eq!(c.road_type, Some(RoadType::Primary));
            }
            if set == corridor_b {
                found_b = true;
                assert_eq!(c.road_type, Some(RoadType::Residential));
            }
        }
        assert!(found_a, "corridor A should form one region: {:?}", clusters);
        assert!(found_b, "corridor B should form one region: {:?}", clusters);
    }

    #[test]
    fn every_traversed_vertex_lands_in_exactly_one_cluster() {
        let (net, ts) = two_corridor_network();
        let tg = TrajectoryGraph::build(&net, &ts);
        let clusters = bottom_up_clustering(&tg);
        let mut seen: HashMap<VertexId, usize> = HashMap::new();
        for c in &clusters {
            for v in &c.vertices {
                *seen.entry(*v).or_default() += 1;
            }
        }
        assert_eq!(seen.len(), tg.num_vertices());
        assert!(seen.values().all(|c| *c == 1), "no vertex may appear twice");
    }

    #[test]
    fn popularity_is_preserved_by_merging() {
        let (net, ts) = two_corridor_network();
        let tg = TrajectoryGraph::build(&net, &ts);
        let clusters = bottom_up_clustering(&tg);
        let total_vertex_pop: f64 = tg.vertices().map(|v| tg.vertex_popularity(v)).sum();
        let total_cluster_pop: f64 = clusters.iter().map(|c| c.popularity).sum();
        assert!((total_vertex_pop - total_cluster_pop).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_yields_no_clusters() {
        let net = RoadNetworkBuilder::new().build();
        let tg = TrajectoryGraph::build(&net, &[]);
        assert!(bottom_up_clustering(&tg).is_empty());
    }

    #[test]
    fn isolated_popular_corridor_is_not_merged_across_road_types() {
        // A star: center 0 with primary edge to 1 and residential edges to 2,3.
        let mut b = RoadNetworkBuilder::new();
        for i in 0..4 {
            b.add_vertex(Point::new(i as f64 * 300.0, (i % 2) as f64 * 300.0));
        }
        b.add_two_way(VertexId(0), VertexId(1), RoadType::Primary)
            .unwrap();
        b.add_two_way(VertexId(0), VertexId(2), RoadType::Residential)
            .unwrap();
        b.add_two_way(VertexId(0), VertexId(3), RoadType::Residential)
            .unwrap();
        let net = b.build();
        let ts = vec![
            traj(0, vec![1, 0, 2]),
            traj(1, vec![1, 0, 3]),
            traj(2, vec![2, 0, 3]),
        ];
        let tg = TrajectoryGraph::build(&net, &ts);
        let clusters = bottom_up_clustering(&tg);
        // The center merges with road-type-consistent neighbours only, so no
        // cluster may contain both a primary-linked and residential-linked
        // vertex set with mixed type.
        for c in &clusters {
            if c.vertices.len() > 1 {
                assert!(c.road_type.is_some());
            }
        }
        // All four vertices are accounted for.
        let n: usize = clusters.iter().map(|c| c.vertices.len()).sum();
        assert_eq!(n, 4);
    }

    #[test]
    fn clustering_terminates_on_a_larger_synthetic_workload() {
        let syn = l2r_datagen::generate_network(&l2r_datagen::SyntheticNetworkConfig::tiny());
        let wl = l2r_datagen::generate_workload(&syn, &l2r_datagen::WorkloadConfig::tiny(200));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        assert!(!clusters.is_empty());
        // Regions should be smaller than the whole traversed graph (the
        // algorithm controls region size automatically).
        let largest = clusters.iter().map(|c| c.vertices.len()).max().unwrap();
        assert!(largest < tg.num_vertices());
        // Multi-vertex clusters exist (the point of clustering).
        assert!(clusters.iter().any(|c| c.vertices.len() > 1));
    }
}
