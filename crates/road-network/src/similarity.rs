//! Path similarity functions used by the paper's evaluation.
//!
//! * Equation 1 (Section V-A): shared-length similarity — the total length of
//!   edges shared between the ground-truth path and the constructed path,
//!   divided by the length of the ground-truth path.
//! * Equation 4 (Section VII-A): the same numerator divided by the length of
//!   the *union* of segments (a weighted Jaccard similarity).
//! * Figure 14: band matching of way-point polylines against a ground-truth
//!   path — used to compare against the external reference router whose
//!   output is a sparse sequence of coordinates rather than a road-network
//!   path.

use std::collections::HashMap;

use crate::graph::{RoadNetwork, VertexId};
use crate::path::Path;
use crate::spatial::{point_segment_distance, Point};

/// Sums the lengths of the segments (undirected vertex pairs) in `segments`.
fn total_length(net: &RoadNetwork, path: &Path) -> f64 {
    path.vertices()
        .windows(2)
        .map(|w| net.euclidean(w[0], w[1]))
        .sum()
}

/// Length of the segments shared between the two paths (undirected).
fn shared_length(net: &RoadNetwork, a: &Path, b: &Path) -> f64 {
    let set_b = b.segment_set();
    a.vertices()
        .windows(2)
        .filter(|w| {
            let key = if w[0] <= w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            set_b.contains(&key)
        })
        .map(|w| net.euclidean(w[0], w[1]))
        .sum()
}

/// Equation 1: `Σ len(shared edges) / Σ len(ground-truth edges)`.
///
/// Returns a value in `[0, 1]`; a trivial (single-vertex) ground truth yields
/// 1.0 when the candidate starts at that vertex and 0.0 otherwise.
pub fn path_similarity(net: &RoadNetwork, ground_truth: &Path, candidate: &Path) -> f64 {
    if ground_truth.is_trivial() {
        return if candidate.contains(ground_truth.source()) {
            1.0
        } else {
            0.0
        };
    }
    let gt_len = total_length(net, ground_truth);
    if gt_len <= 0.0 {
        return 0.0;
    }
    (shared_length(net, ground_truth, candidate) / gt_len).clamp(0.0, 1.0)
}

/// Precomputed Equation 1 view of a ground-truth path, for evaluating many
/// candidate paths against the same ground truth (the preference learner
/// scores every candidate preference against each observed path).
///
/// Building the segment weights and the total length once amortises the
/// per-comparison hash-set construction and length recomputation of
/// [`path_similarity`].
#[derive(Debug, Clone)]
pub struct OverlapIndex {
    /// Total ground-truth segment length summed per undirected segment key.
    weights: HashMap<(VertexId, VertexId), f64>,
    /// Total ground-truth length.
    gt_len: f64,
    /// Source vertex of a trivial (single-vertex) ground truth.
    trivial_source: Option<VertexId>,
}

impl OverlapIndex {
    /// Builds the index for `ground_truth`.
    pub fn new(net: &RoadNetwork, ground_truth: &Path) -> OverlapIndex {
        if ground_truth.is_trivial() {
            return OverlapIndex {
                weights: HashMap::new(),
                gt_len: 0.0,
                trivial_source: Some(ground_truth.source()),
            };
        }
        let mut weights: HashMap<(VertexId, VertexId), f64> = HashMap::new();
        let mut gt_len = 0.0;
        for w in ground_truth.vertices().windows(2) {
            let key = if w[0] <= w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            let len = net.euclidean(w[0], w[1]);
            *weights.entry(key).or_insert(0.0) += len;
            gt_len += len;
        }
        OverlapIndex {
            weights,
            gt_len,
            trivial_source: None,
        }
    }

    /// Equation 1 similarity of a candidate that visits no segment twice
    /// (Dijkstra-constructed paths always qualify: shortest-path trees never
    /// repeat a vertex).  Equals [`path_similarity`] on such candidates.
    pub fn similarity_to_simple(&self, candidate: &Path) -> f64 {
        if let Some(source) = self.trivial_source {
            return if candidate.contains(source) { 1.0 } else { 0.0 };
        }
        if self.gt_len <= 0.0 {
            return 0.0;
        }
        let mut shared = 0.0;
        for w in candidate.vertices().windows(2) {
            let key = if w[0] <= w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            if let Some(len) = self.weights.get(&key) {
                shared += len;
            }
        }
        (shared / self.gt_len).clamp(0.0, 1.0)
    }
}

/// Equation 4: `Σ len(shared edges) / Σ len(union of edges)` (weighted
/// Jaccard).  Always ≤ the Equation 1 similarity.
pub fn path_similarity_jaccard(net: &RoadNetwork, ground_truth: &Path, candidate: &Path) -> f64 {
    if ground_truth.is_trivial() && candidate.is_trivial() {
        return if ground_truth.source() == candidate.source() {
            1.0
        } else {
            0.0
        };
    }
    let shared = shared_length(net, ground_truth, candidate);
    let union = total_length(net, ground_truth) + total_length(net, candidate) - shared;
    if union <= 0.0 {
        return 0.0;
    }
    (shared / union).clamp(0.0, 1.0)
}

/// Band matching of a way-point polyline against a ground-truth path
/// (the Figure 14 methodology used for the Google Maps comparison).
///
/// A way-point is *matched* when it lies within `band_m` metres of the
/// ground-truth polyline.  When two consecutive way-points are matched, the
/// ground-truth edges lying between their projection points are counted as
/// matched.  The similarity is the matched ground-truth length divided by the
/// total ground-truth length (the Equation 1 form).
fn band_match_similarity(
    net: &RoadNetwork,
    ground_truth: &Path,
    waypoints: &[Point],
    band_m: f64,
) -> f64 {
    if ground_truth.is_trivial() || waypoints.len() < 2 {
        return 0.0;
    }
    let gt_points: Vec<Point> = ground_truth
        .vertices()
        .iter()
        .map(|v| net.vertex(*v).point)
        .collect();
    // Cumulative length of the ground-truth polyline at each vertex.
    let mut cum = vec![0.0f64; gt_points.len()];
    for i in 1..gt_points.len() {
        cum[i] = cum[i - 1] + gt_points[i - 1].distance(&gt_points[i]);
    }
    let total = cum[cum.len() - 1];
    if total <= 0.0 {
        return 0.0;
    }

    // Project each way-point onto the ground-truth polyline; record the
    // arc-length position when it is within the band.
    let project = |p: &Point| -> Option<f64> {
        let mut best: Option<(f64, f64)> = None; // (distance, arc position)
        for i in 0..gt_points.len() - 1 {
            let (d, t) = point_segment_distance(p, &gt_points[i], &gt_points[i + 1]);
            let arc = cum[i] + t * (cum[i + 1] - cum[i]);
            if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                best = Some((d, arc));
            }
        }
        best.and_then(|(d, arc)| if d <= band_m { Some(arc) } else { None })
    };

    let projections: Vec<Option<f64>> = waypoints.iter().map(project).collect();

    // Matched intervals between consecutive matched way-points.
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    for w in projections.windows(2) {
        if let (Some(a), Some(b)) = (w[0], w[1]) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if hi > lo {
                intervals.push((lo, hi));
            }
        }
    }
    if intervals.is_empty() {
        return 0.0;
    }
    // Merge overlapping intervals and sum their coverage.
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let (mut cur_lo, mut cur_hi) = intervals[0];
    for &(lo, hi) in &intervals[1..] {
        if lo <= cur_hi {
            cur_hi = cur_hi.max(hi);
        } else {
            covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
        }
    }
    covered += cur_hi - cur_lo;
    (covered / total).clamp(0.0, 1.0)
}

/// Convenience wrapper matching the signature used by the evaluation crate:
/// similarity of a way-point list produced for a `(source, destination)` pair
/// against the ground-truth path, with the paper's 10 m band.
pub fn band_match_similarity_10m(
    net: &RoadNetwork,
    ground_truth: &Path,
    waypoints: &[Point],
) -> f64 {
    band_match_similarity(net, ground_truth, waypoints, 10.0)
}

/// Helper used in several experiments: converts a road-network path into a
/// way-point polyline by taking each vertex position (optionally
/// down-sampled to every `stride`-th vertex, always keeping the endpoints).
pub fn path_to_waypoints(net: &RoadNetwork, path: &Path, stride: usize) -> Vec<Point> {
    let stride = stride.max(1);
    let vs = path.vertices();
    let mut out: Vec<Point> = Vec::new();
    for (i, v) in vs.iter().enumerate() {
        if i % stride == 0 || i == vs.len() - 1 {
            out.push(net.vertex(*v).point);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadNetworkBuilder, VertexId};
    use crate::road_type::RoadType;
    use crate::spatial::Point;

    fn grid3x3() -> RoadNetwork {
        // 3x3 grid, vertex id = row * 3 + col, spacing 1 km.
        let mut b = RoadNetworkBuilder::new();
        for r in 0..3 {
            for c in 0..3 {
                b.add_vertex(Point::new(c as f64 * 1000.0, r as f64 * 1000.0));
            }
        }
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = VertexId(r * 3 + c);
                if c + 1 < 3 {
                    b.add_two_way(v, VertexId(r * 3 + c + 1), RoadType::Secondary)
                        .unwrap();
                }
                if r + 1 < 3 {
                    b.add_two_way(v, VertexId((r + 1) * 3 + c), RoadType::Secondary)
                        .unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn identical_paths_have_similarity_one() {
        let net = grid3x3();
        let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]).unwrap();
        assert!((path_similarity(&net, &p, &p) - 1.0).abs() < 1e-12);
        assert!((path_similarity_jaccard(&net, &p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_paths_have_similarity_zero() {
        let net = grid3x3();
        let a = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        let b = Path::new(vec![VertexId(6), VertexId(7), VertexId(8)]).unwrap();
        assert_eq!(path_similarity(&net, &a, &b), 0.0);
        assert_eq!(path_similarity_jaccard(&net, &a, &b), 0.0);
    }

    #[test]
    fn partial_overlap_is_proportional_to_shared_length() {
        let net = grid3x3();
        // Ground truth: bottom row 0-1-2 then up to 5 (3 edges of 1 km).
        let gt = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]).unwrap();
        // Candidate shares only edge 0-1 then diverges upward.
        let cand = Path::new(vec![VertexId(0), VertexId(1), VertexId(4), VertexId(5)]).unwrap();
        let sim = path_similarity(&net, &gt, &cand);
        assert!((sim - 1.0 / 3.0).abs() < 1e-9);
        // Jaccard: shared 1 km, union 3 + 3 - 1 = 5 km.
        let j = path_similarity_jaccard(&net, &gt, &cand);
        assert!((j - 0.2).abs() < 1e-9);
        // Eq 4 is never larger than Eq 1 (union ≥ ground-truth length).
        assert!(j <= sim + 1e-12);
    }

    #[test]
    fn direction_insensitivity() {
        let net = grid3x3();
        let gt = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        let rev = gt.reversed();
        assert!((path_similarity(&net, &gt, &rev) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_ground_truth() {
        let net = grid3x3();
        let gt = Path::single(VertexId(4));
        let through = Path::new(vec![VertexId(3), VertexId(4), VertexId(5)]).unwrap();
        let away = Path::new(vec![VertexId(0), VertexId(1)]).unwrap();
        assert_eq!(path_similarity(&net, &gt, &through), 1.0);
        assert_eq!(path_similarity(&net, &gt, &away), 0.0);
    }

    #[test]
    fn band_matching_full_coverage_for_dense_waypoints_on_path() {
        let net = grid3x3();
        let gt = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]).unwrap();
        let wps = path_to_waypoints(&net, &gt, 1);
        let sim = band_match_similarity_10m(&net, &gt, &wps);
        assert!((sim - 1.0).abs() < 1e-9, "sim = {}", sim);
    }

    #[test]
    fn band_matching_rejects_far_waypoints() {
        let net = grid3x3();
        let gt = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        // Way-points 500 m north of the path: outside a 10 m band.
        let wps = vec![
            Point::new(0.0, 500.0),
            Point::new(1000.0, 500.0),
            Point::new(2000.0, 500.0),
        ];
        assert_eq!(band_match_similarity_10m(&net, &gt, &wps), 0.0);
        // ... but inside a 600 m band.
        assert!(band_match_similarity(&net, &gt, &wps, 600.0) > 0.9);
    }

    #[test]
    fn band_matching_partial_coverage() {
        let net = grid3x3();
        let gt = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]).unwrap();
        // Way-points only cover the first kilometre of the 3 km ground truth.
        let wps = vec![Point::new(0.0, 2.0), Point::new(1000.0, 2.0)];
        let sim = band_match_similarity_10m(&net, &gt, &wps);
        assert!((sim - 1.0 / 3.0).abs() < 0.02, "sim = {}", sim);
    }

    #[test]
    fn waypoint_downsampling_keeps_endpoints() {
        let net = grid3x3();
        let gt = Path::new(vec![
            VertexId(0),
            VertexId(1),
            VertexId(2),
            VertexId(5),
            VertexId(8),
        ])
        .unwrap();
        let wps = path_to_waypoints(&net, &gt, 3);
        assert_eq!(wps.first().copied(), Some(net.vertex(VertexId(0)).point));
        assert_eq!(wps.last().copied(), Some(net.vertex(VertexId(8)).point));
        assert!(wps.len() < gt.len());
    }

    #[test]
    fn overlap_index_matches_path_similarity() {
        let net = grid3x3();
        let gt = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]).unwrap();
        let index = OverlapIndex::new(&net, &gt);
        let candidates = [
            Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]).unwrap(),
            Path::new(vec![VertexId(0), VertexId(1), VertexId(4), VertexId(5)]).unwrap(),
            Path::new(vec![VertexId(6), VertexId(7), VertexId(8)]).unwrap(),
            gt.reversed(),
        ];
        for cand in &candidates {
            assert!(
                (index.similarity_to_simple(cand) - path_similarity(&net, &gt, cand)).abs() < 1e-12
            );
        }
        // Trivial ground truth handling matches too.
        let trivial = Path::single(VertexId(4));
        let tindex = OverlapIndex::new(&net, &trivial);
        for cand in &candidates {
            assert_eq!(
                tindex.similarity_to_simple(cand),
                path_similarity(&net, &trivial, cand)
            );
        }
    }
}
