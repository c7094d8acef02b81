//! Hidden-Markov-model map matching (the paper's reference \[29\],
//! Newson & Krumm 2009), reimplemented from scratch.
//!
//! Each GPS record is associated with candidate vertices within a search
//! radius.  Emission probabilities model GPS noise (Gaussian in the distance
//! between the fix and the candidate); transition probabilities penalise the
//! difference between the on-network distance implied by consecutive
//! candidates and the great-circle (here: Euclidean) displacement of the two
//! fixes.  Viterbi decoding picks the most likely candidate sequence, which
//! is then stitched into a connected road-network path with shortest-path
//! segments between consecutive matched vertices.

use l2r_road_network::{fastest_path, GridIndex, Path, RoadNetwork, VertexId};

use crate::gps::Trajectory;
use crate::matched::MatchedTrajectory;

/// Configuration of the HMM map matcher.
#[derive(Debug, Clone, Copy)]
pub struct MapMatcherConfig {
    /// Radius (metres) around each GPS fix in which candidate vertices are
    /// collected.
    pub candidate_radius_m: f64,
    /// Standard deviation of GPS noise used by the emission model (metres).
    pub sigma_z_m: f64,
    /// Scale of the exponential transition model (metres).
    pub beta_m: f64,
    /// Maximum number of candidates kept per GPS fix.
    pub max_candidates: usize,
    /// Fixes are skipped so that consecutive processed fixes are at least
    /// this far apart (metres); 0 processes every fix.  High-frequency traces
    /// carry redundant fixes that only slow matching down.
    pub min_fix_spacing_m: f64,
}

impl Default for MapMatcherConfig {
    fn default() -> Self {
        MapMatcherConfig {
            candidate_radius_m: 120.0,
            sigma_z_m: 10.0,
            beta_m: 250.0,
            max_candidates: 6,
            min_fix_spacing_m: 40.0,
        }
    }
}

/// An HMM map matcher bound to a road network.
pub struct MapMatcher<'a> {
    net: &'a RoadNetwork,
    config: MapMatcherConfig,
    vertex_grid: GridIndex,
}

impl<'a> MapMatcher<'a> {
    /// Builds a matcher (and its spatial index) for `net`.
    ///
    /// The index cell size is derived from vertex density (so candidate
    /// lists stay short on dense, country-scale networks) but never drops
    /// below half the candidate radius (so a query touches O(1) cells).
    /// Candidates are exact-filtered by radius afterwards, so the cell size
    /// affects only performance, never matching output.
    pub fn new(net: &'a RoadNetwork, config: MapMatcherConfig) -> Self {
        let density =
            l2r_road_network::density_cell_size(net.bounding_box(), net.num_vertices(), 4.0);
        let cell = density.max((config.candidate_radius_m / 2.0).max(25.0));
        MapMatcher {
            net,
            config,
            vertex_grid: net.vertex_index(cell),
        }
    }

    /// Builds a matcher with the default configuration.
    pub fn with_defaults(net: &'a RoadNetwork) -> Self {
        Self::new(net, MapMatcherConfig::default())
    }

    /// Candidate vertices for a GPS fix, sorted by `(distance, vertex)`,
    /// capped at `max_candidates`.
    ///
    /// The grid may report the same vertex more than once; sorting by
    /// distance *alone* would let an equal-distance neighbour interleave
    /// between two copies, so the adjacent-only `dedup_by_key` could leak a
    /// duplicate candidate into Viterbi.  The vertex-id tie-break keeps
    /// copies adjacent (and makes the candidate order fully deterministic).
    fn candidates(&self, p: &l2r_road_network::Point) -> Vec<(VertexId, f64)> {
        let mut cands: Vec<(VertexId, f64)> = self
            .vertex_grid
            .query(p, self.config.candidate_radius_m)
            .into_iter()
            .map(VertexId)
            .map(|v| (v, self.net.vertex(v).point.distance(p)))
            .filter(|(_, d)| *d <= self.config.candidate_radius_m)
            .collect();
        cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        cands.dedup_by_key(|(v, _)| *v);
        cands.truncate(self.config.max_candidates);
        cands
    }

    /// Negative log emission probability of observing a fix `dist_m` away
    /// from a candidate.
    fn emission_cost(&self, dist_m: f64) -> f64 {
        let s = self.config.sigma_z_m.max(1e-3);
        0.5 * (dist_m / s) * (dist_m / s)
    }

    /// Negative log transition probability between two candidates given the
    /// Euclidean displacement of the fixes.
    fn transition_cost(&self, from: VertexId, to: VertexId, gps_displacement_m: f64) -> f64 {
        let net_dist = self.net.euclidean(from, to);
        let diff = (net_dist - gps_displacement_m).abs();
        diff / self.config.beta_m.max(1e-3)
    }

    /// Matches a raw trajectory onto a connected road-network path.
    ///
    /// Returns `None` when the trajectory has fewer than two fixes with
    /// candidates, or when the matched vertices cannot be connected in the
    /// network.
    pub fn match_trajectory(&self, traj: &Trajectory) -> Option<MatchedTrajectory> {
        if traj.len() < 2 {
            return None;
        }
        // Down-sample fixes for efficiency on high-frequency traces.
        let mut fixes: Vec<&crate::gps::GpsRecord> = Vec::new();
        for r in &traj.records {
            if let Some(last) = fixes.last() {
                if last.point.distance(&r.point) < self.config.min_fix_spacing_m {
                    continue;
                }
            }
            fixes.push(r);
        }
        if let (Some(first), Some(last)) = (traj.records.first(), traj.records.last()) {
            if fixes.last().map(|r| r.timestamp_s) != Some(last.timestamp_s) {
                fixes.push(last);
            }
            if fixes.first().map(|r| r.timestamp_s) != Some(first.timestamp_s) {
                fixes.insert(0, first);
            }
        }
        if fixes.len() < 2 {
            return None;
        }

        // Candidate sets per fix; fixes without any candidate are dropped.
        let mut states: Vec<(usize, Vec<(VertexId, f64)>)> = Vec::new();
        for (i, f) in fixes.iter().enumerate() {
            let c = self.candidates(&f.point);
            if !c.is_empty() {
                states.push((i, c));
            }
        }
        if states.len() < 2 {
            return None;
        }

        // Viterbi over negative log probabilities.
        let mut cost: Vec<Vec<f64>> = Vec::with_capacity(states.len());
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(states.len());
        cost.push(
            states[0]
                .1
                .iter()
                .map(|(_, d)| self.emission_cost(*d))
                .collect(),
        );
        back.push(vec![0; states[0].1.len()]);
        for t in 1..states.len() {
            let (prev_fix_idx, prev_cands) = &states[t - 1];
            let (cur_fix_idx, cur_cands) = &states[t];
            let displacement = fixes[*prev_fix_idx]
                .point
                .distance(&fixes[*cur_fix_idx].point);
            let mut row_cost = vec![f64::INFINITY; cur_cands.len()];
            let mut row_back = vec![0usize; cur_cands.len()];
            for (j, (vj, dj)) in cur_cands.iter().enumerate() {
                let em = self.emission_cost(*dj);
                for (i, (vi, _)) in prev_cands.iter().enumerate() {
                    let c = cost[t - 1][i] + self.transition_cost(*vi, *vj, displacement) + em;
                    if c < row_cost[j] {
                        row_cost[j] = c;
                        row_back[j] = i;
                    }
                }
            }
            cost.push(row_cost);
            back.push(row_back);
        }

        // Backtrack the best state sequence.
        let last_row = cost.last()?;
        let mut best_j = 0usize;
        let mut best_c = f64::INFINITY;
        for (j, c) in last_row.iter().enumerate() {
            if *c < best_c {
                best_c = *c;
                best_j = j;
            }
        }
        if !best_c.is_finite() {
            return None;
        }
        let mut seq_rev = Vec::with_capacity(states.len());
        let mut j = best_j;
        for t in (0..states.len()).rev() {
            seq_rev.push(states[t].1[j].0);
            j = back[t][j];
        }
        seq_rev.reverse();

        // Collapse consecutive duplicates and stitch with shortest paths.
        let mut matched_vertices: Vec<VertexId> = Vec::new();
        for v in seq_rev {
            if matched_vertices.last() != Some(&v) {
                matched_vertices.push(v);
            }
        }
        if matched_vertices.is_empty() {
            return None;
        }
        if matched_vertices.len() == 1 {
            return Some(MatchedTrajectory::new(
                traj.id,
                traj.driver,
                Path::single(matched_vertices[0]),
                traj.departure_time_s().unwrap_or(0.0),
            ));
        }
        let mut full: Option<Path> = None;
        for w in matched_vertices.windows(2) {
            let segment = if self.net.edge_between(w[0], w[1]).is_some() {
                Path::new(vec![w[0], w[1]]).ok()?
            } else {
                fastest_path(self.net, w[0], w[1])?
            };
            full = Some(match full {
                None => segment,
                Some(p) => p.concat(&segment),
            });
        }
        let path = full?;
        // Remove accidental immediate backtracks (A -> B -> A) introduced by
        // noisy candidates at path joints.
        let path = remove_immediate_backtracks(&path);
        debug_assert!(path.validate(self.net).is_ok());
        Some(MatchedTrajectory::new(
            traj.id,
            traj.driver,
            path,
            traj.departure_time_s().unwrap_or(0.0),
        ))
    }

    /// Matches a batch of trajectories, dropping the ones that cannot be
    /// matched.  Also reports how many were dropped.
    pub fn match_all(&self, trajectories: &[Trajectory]) -> (Vec<MatchedTrajectory>, usize) {
        let mut out = Vec::with_capacity(trajectories.len());
        let mut dropped = 0usize;
        for t in trajectories {
            match self.match_trajectory(t) {
                Some(m) if !m.path.is_trivial() => out.push(m),
                _ => dropped += 1,
            }
        }
        (out, dropped)
    }
}

/// Removes `… A B A …` patterns from a path.
fn remove_immediate_backtracks(path: &Path) -> Path {
    let vs = path.vertices();
    let mut out: Vec<VertexId> = Vec::with_capacity(vs.len());
    for &v in vs {
        let n = out.len();
        if n >= 2 && out[n - 2] == v {
            out.pop();
        } else {
            out.push(v);
        }
    }
    Path::new(out).unwrap_or_else(|_| path.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gps::{DriverId, TrajectoryId};
    use crate::simulate::{simulate_gps_trace, GpsSimulationConfig};
    use l2r_road_network::{path_similarity, Point, RoadNetworkBuilder, RoadType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 5x5 grid with 500 m spacing.
    fn grid5() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for r in 0..5 {
            for c in 0..5 {
                b.add_vertex(Point::new(c as f64 * 500.0, r as f64 * 500.0));
            }
        }
        for r in 0..5u32 {
            for c in 0..5u32 {
                let v = VertexId(r * 5 + c);
                if c + 1 < 5 {
                    b.add_two_way(v, VertexId(r * 5 + c + 1), RoadType::Secondary)
                        .unwrap();
                }
                if r + 1 < 5 {
                    b.add_two_way(v, VertexId((r + 1) * 5 + c), RoadType::Secondary)
                        .unwrap();
                }
            }
        }
        b.build()
    }

    fn l_shaped_path() -> Path {
        // Along the bottom row then up the right column.
        Path::new(vec![
            VertexId(0),
            VertexId(1),
            VertexId(2),
            VertexId(3),
            VertexId(4),
            VertexId(9),
            VertexId(14),
            VertexId(19),
            VertexId(24),
        ])
        .unwrap()
    }

    #[test]
    fn high_frequency_trace_is_recovered_accurately() {
        let net = grid5();
        let gt = l_shaped_path();
        let mut rng = StdRng::seed_from_u64(11);
        let traj = simulate_gps_trace(
            &net,
            &gt,
            TrajectoryId(0),
            DriverId(0),
            0.0,
            &GpsSimulationConfig::high_frequency(),
            &mut rng,
        )
        .unwrap();
        let matcher = MapMatcher::with_defaults(&net);
        let matched = matcher.match_trajectory(&traj).unwrap();
        assert!(matched.path.validate(&net).is_ok());
        let sim = path_similarity(&net, &gt, &matched.path);
        assert!(
            sim > 0.9,
            "high-frequency matching should be near perfect, got {}",
            sim
        );
        assert_eq!(matched.source(), gt.source());
        assert_eq!(matched.destination(), gt.destination());
    }

    #[test]
    fn low_frequency_trace_is_still_mostly_recovered() {
        let net = grid5();
        let gt = l_shaped_path();
        let mut rng = StdRng::seed_from_u64(13);
        let traj = simulate_gps_trace(
            &net,
            &gt,
            TrajectoryId(1),
            DriverId(0),
            0.0,
            &GpsSimulationConfig::low_frequency(),
            &mut rng,
        )
        .unwrap();
        let matcher = MapMatcher::with_defaults(&net);
        let matched = matcher.match_trajectory(&traj).unwrap();
        assert!(matched.path.validate(&net).is_ok());
        let sim = path_similarity(&net, &gt, &matched.path);
        assert!(
            sim > 0.6,
            "low-frequency matching should recover most of the path, got {}",
            sim
        );
    }

    #[test]
    fn unmatched_inputs_are_rejected() {
        let net = grid5();
        let matcher = MapMatcher::with_defaults(&net);
        // Too few records.
        let t = Trajectory::new(TrajectoryId(0), DriverId(0), vec![]);
        assert!(matcher.match_trajectory(&t).is_none());
        // Records far away from every vertex.
        let far = Trajectory::new(
            TrajectoryId(1),
            DriverId(0),
            vec![
                crate::gps::GpsRecord::new(Point::new(1e7, 1e7), 0.0),
                crate::gps::GpsRecord::new(Point::new(1e7 + 100.0, 1e7), 10.0),
            ],
        );
        assert!(matcher.match_trajectory(&far).is_none());
    }

    #[test]
    fn batch_matching_reports_drops() {
        let net = grid5();
        let gt = l_shaped_path();
        let mut rng = StdRng::seed_from_u64(5);
        let good = simulate_gps_trace(
            &net,
            &gt,
            TrajectoryId(0),
            DriverId(0),
            0.0,
            &GpsSimulationConfig::high_frequency(),
            &mut rng,
        )
        .unwrap();
        let bad = Trajectory::new(TrajectoryId(1), DriverId(0), vec![]);
        let matcher = MapMatcher::with_defaults(&net);
        let (matched, dropped) = matcher.match_all(&[good, bad]);
        assert_eq!(matched.len(), 1);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn duplicate_grid_hits_do_not_survive_into_candidates() {
        // Two vertices 100 m apart: the whole network fits in one grid cell,
        // so a duplicate registration of vertex 0 makes the grid report
        // [0, 1, 0].  All three hits are exactly 50 m from the query point;
        // a distance-only sort (stable) kept that interleaved order and the
        // adjacent-only dedup let the duplicate survive into Viterbi.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        b.add_two_way(v0, v1, RoadType::Secondary).unwrap();
        let net = b.build();
        let mut matcher = MapMatcher::with_defaults(&net);
        matcher.vertex_grid.insert(0, &Point::new(0.0, 0.0));

        let cands = matcher.candidates(&Point::new(50.0, 0.0));
        let vertices: Vec<VertexId> = cands.iter().map(|(v, _)| *v).collect();
        assert_eq!(
            vertices,
            vec![v0, v1],
            "each vertex must appear once, ties ordered by vertex id"
        );
    }

    #[test]
    fn equidistant_candidates_are_ordered_deterministically() {
        let net = grid5();
        // (250, 0) is exactly 250 m from both vertex 0 (0,0) and vertex 1
        // (500,0); a radius wide enough to reach them must rank the tie by
        // vertex id.
        let wide = MapMatcher::new(
            &net,
            MapMatcherConfig {
                candidate_radius_m: 400.0,
                ..MapMatcherConfig::default()
            },
        );
        let cands = wide.candidates(&l2r_road_network::Point::new(250.0, 0.0));
        assert!(cands.len() >= 2);
        assert_eq!(cands[0].0, VertexId(0));
        assert_eq!(cands[1].0, VertexId(1));
        assert_eq!(cands[0].1.to_bits(), cands[1].1.to_bits());
    }

    #[test]
    fn backtrack_removal() {
        let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(0), VertexId(5)]).unwrap();
        let cleaned = remove_immediate_backtracks(&p);
        assert_eq!(cleaned.vertices(), &[VertexId(0), VertexId(5)]);
        let ok = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        assert_eq!(remove_immediate_backtracks(&ok), ok);
    }
}
