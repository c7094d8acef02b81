//! Trajectory statistics: the travel-distance distribution of Table II and
//! sampling-rate summaries used to sanity check generated workloads.

use l2r_road_network::{NetworkError, RoadNetwork};

use crate::matched::MatchedTrajectory;

/// A histogram over travel distances, with the bucket boundaries expressed in
/// kilometres (right-inclusive, as in Table II of the paper: `(0,10]`,
/// `(10,50]`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceDistribution {
    /// Upper bounds of each bucket, in km, ascending.  A final implicit
    /// bucket catches everything larger than the last bound.
    pub bounds_km: Vec<f64>,
    /// Number of trajectories in each bucket (`bounds_km.len() + 1` entries).
    pub counts: Vec<usize>,
}

impl DistanceDistribution {
    /// Builds the distribution of `trajectories` over the given bounds.
    pub fn compute(
        net: &RoadNetwork,
        trajectories: &[MatchedTrajectory],
        bounds_km: Vec<f64>,
    ) -> Result<Self, NetworkError> {
        let mut counts = vec![0usize; bounds_km.len() + 1];
        for t in trajectories {
            let km = t.distance_km(net)?;
            let idx = bounds_km
                .iter()
                .position(|b| km <= *b)
                .unwrap_or(bounds_km.len());
            counts[idx] += 1;
        }
        Ok(DistanceDistribution { bounds_km, counts })
    }

    /// Total number of trajectories.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Percentage (0–100) of trajectories per bucket.
    pub fn percentages(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.counts
            .iter()
            .map(|c| *c as f64 / total * 100.0)
            .collect()
    }

    /// Human-readable labels of the buckets, e.g. `(0,10]`, `(10,50]`, `>500`.
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.counts.len());
        let mut lo = 0.0;
        for b in &self.bounds_km {
            labels.push(format!("({:.0},{:.0}]", lo, b));
            lo = *b;
        }
        labels.push(format!(">{:.0}", lo));
        labels
    }
}

/// Summary of sampling behaviour of raw trajectories (mean interval and
/// record counts); used to verify that the D1/D2 presets differ as intended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingSummary {
    /// Number of trajectories summarised.
    pub trajectories: usize,
    /// Total number of GPS records.
    pub records: usize,
    /// Mean sampling interval across trajectories, in seconds.
    pub mean_interval_s: f64,
}

/// Computes a [`SamplingSummary`] over raw trajectories.
pub fn sampling_summary(trajectories: &[crate::gps::Trajectory]) -> SamplingSummary {
    let mut records = 0usize;
    let mut interval_sum = 0.0;
    let mut interval_count = 0usize;
    for t in trajectories {
        records += t.len();
        if let Some(i) = t.mean_sampling_interval_s() {
            interval_sum += i;
            interval_count += 1;
        }
    }
    SamplingSummary {
        trajectories: trajectories.len(),
        records,
        mean_interval_s: if interval_count > 0 {
            interval_sum / interval_count as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gps::{DriverId, GpsRecord, Trajectory, TrajectoryId};
    use l2r_road_network::{Path, Point, RoadNetworkBuilder, RoadType, VertexId};

    /// Table II's bucket bounds for D1 (Denmark-like) and D2 (Chengdu-like).
    const D1_BOUNDS_KM: [f64; 4] = [10.0, 50.0, 100.0, 500.0];
    const D2_BOUNDS_KM: [f64; 4] = [2.0, 5.0, 10.0, 35.0];

    fn line(n: usize, spacing: f64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64 * spacing, 0.0)))
            .collect();
        for w in vs.windows(2) {
            b.add_two_way(w[0], w[1], RoadType::Secondary).unwrap();
        }
        b.build()
    }

    fn matched(net: &RoadNetwork, from: u32, to: u32) -> MatchedTrajectory {
        let path = Path::new((from..=to).map(VertexId).collect()).unwrap();
        let _ = net;
        MatchedTrajectory::new(TrajectoryId(from), DriverId(0), path, 0.0)
    }

    #[test]
    fn distance_distribution_buckets() {
        // 11 vertices spaced 1 km apart: paths of 1..10 km are possible.
        let net = line(11, 1000.0);
        let ts = vec![
            matched(&net, 0, 1),  // 1 km
            matched(&net, 0, 3),  // 3 km
            matched(&net, 0, 10), // 10 km (right-inclusive in first bucket for d2 bounds? 10 <= 10)
        ];
        let dist = DistanceDistribution::compute(&net, &ts, D2_BOUNDS_KM.to_vec()).unwrap();
        assert_eq!(dist.total(), 3);
        // Buckets: (0,2], (2,5], (5,10], (10,35], >35
        assert_eq!(dist.counts, vec![1, 1, 1, 0, 0]);
        let pct = dist.percentages();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        let labels = dist.labels();
        assert_eq!(labels.len(), 5);
        assert_eq!(labels[0], "(0,2]");
        assert_eq!(labels[4], ">35");
    }

    #[test]
    fn overflow_bucket_catches_long_trips() {
        let net = line(41, 1000.0);
        let ts = vec![matched(&net, 0, 40)]; // 40 km
        let dist = DistanceDistribution::compute(&net, &ts, D2_BOUNDS_KM.to_vec()).unwrap();
        assert_eq!(dist.counts.last().copied(), Some(1));
    }

    #[test]
    fn sampling_summary_means() {
        let t1 = Trajectory::new(
            TrajectoryId(0),
            DriverId(0),
            vec![
                GpsRecord::new(Point::new(0.0, 0.0), 0.0),
                GpsRecord::new(Point::new(10.0, 0.0), 1.0),
                GpsRecord::new(Point::new(20.0, 0.0), 2.0),
            ],
        );
        let t2 = Trajectory::new(
            TrajectoryId(1),
            DriverId(0),
            vec![
                GpsRecord::new(Point::new(0.0, 0.0), 0.0),
                GpsRecord::new(Point::new(10.0, 0.0), 15.0),
            ],
        );
        let s = sampling_summary(&[t1, t2]);
        assert_eq!(s.trajectories, 2);
        assert_eq!(s.records, 5);
        assert!((s.mean_interval_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let net = line(2, 100.0);
        let dist = DistanceDistribution::compute(&net, &[], D1_BOUNDS_KM.to_vec()).unwrap();
        assert_eq!(dist.total(), 0);
        assert!(dist.percentages().iter().all(|p| *p == 0.0));
        let s = sampling_summary(&[]);
        assert_eq!(s.trajectories, 0);
        assert_eq!(s.mean_interval_s, 0.0);
    }
}
