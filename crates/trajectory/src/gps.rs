//! GPS records and raw trajectories (Section III of the paper).

use l2r_road_network::Point;

/// Identifier of a trajectory within a data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrajectoryId(pub u32);

/// Identifier of a driver / vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DriverId(pub u32);

/// A single GPS fix: a position at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsRecord {
    /// Position in the planar frame (metres).
    pub point: Point,
    /// Timestamp in seconds since the data set epoch.
    pub timestamp_s: f64,
}

impl GpsRecord {
    /// Creates a record.
    pub fn new(point: Point, timestamp_s: f64) -> Self {
        GpsRecord { point, timestamp_s }
    }
}

/// A raw trajectory: a time-ordered sequence of GPS records from one driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// The trajectory id.
    pub id: TrajectoryId,
    /// The driver who produced the trajectory.
    pub driver: DriverId,
    /// GPS records ordered by timestamp.
    pub records: Vec<GpsRecord>,
}

impl Trajectory {
    /// Creates a trajectory; records are sorted by timestamp.
    pub fn new(id: TrajectoryId, driver: DriverId, mut records: Vec<GpsRecord>) -> Self {
        records.sort_by(|a, b| a.timestamp_s.total_cmp(&b.timestamp_s));
        Trajectory {
            id,
            driver,
            records,
        }
    }

    /// Number of GPS records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trajectory has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Departure time (timestamp of the first record), if any.
    pub fn departure_time_s(&self) -> Option<f64> {
        self.records.first().map(|r| r.timestamp_s)
    }

    /// Total duration in seconds (0 for fewer than two records).
    fn duration_s(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => (b.timestamp_s - a.timestamp_s).max(0.0),
            _ => 0.0,
        }
    }

    /// Mean interval between consecutive records in seconds
    /// (`None` for fewer than two records).
    pub fn mean_sampling_interval_s(&self) -> Option<f64> {
        if self.records.len() < 2 {
            return None;
        }
        Some(self.duration_s() / (self.records.len() - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(x: f64, t: f64) -> GpsRecord {
        GpsRecord::new(Point::new(x, 0.0), t)
    }

    #[test]
    fn records_are_sorted_by_time() {
        let t = Trajectory::new(
            TrajectoryId(0),
            DriverId(0),
            vec![rec(2.0, 20.0), rec(0.0, 0.0), rec(1.0, 10.0)],
        );
        let times: Vec<f64> = t.records.iter().map(|r| r.timestamp_s).collect();
        assert_eq!(times, vec![0.0, 10.0, 20.0]);
        assert_eq!(t.departure_time_s(), Some(0.0));
        assert_eq!(t.duration_s(), 20.0);
    }

    #[test]
    fn lengths_and_intervals() {
        let t = Trajectory::new(
            TrajectoryId(1),
            DriverId(3),
            vec![rec(0.0, 0.0), rec(100.0, 10.0), rec(300.0, 30.0)],
        );
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!((t.mean_sampling_interval_s().unwrap() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trajectory() {
        let t = Trajectory::new(TrajectoryId(2), DriverId(0), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.departure_time_s(), None);
        assert_eq!(t.duration_s(), 0.0);
        assert_eq!(t.mean_sampling_interval_s(), None);
    }
}
