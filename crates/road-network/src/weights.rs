//! Travel-cost model: the `W` weight functions of the paper.
//!
//! The paper maintains four weight functions per edge — distance (`DI`),
//! travel time (`TT`), fuel consumption (`FC`) and road type (`RT`)
//! (Section III).  Distance and road type come from the network itself;
//! travel time and fuel consumption are derived from the speed limit of the
//! edge's road type, following the eco-routing models the paper cites
//! ("fuel consumption is computed based on speed limits", Section VII-A).

use crate::road_type::RoadType;

/// The travel-cost features of the preference model's *master* dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostType {
    /// Travel distance (metres).
    Distance,
    /// Travel time (seconds).
    TravelTime,
    /// Fuel consumption (millilitres).
    Fuel,
}

impl CostType {
    /// All cost types in a stable order.
    pub const ALL: [CostType; 3] = [CostType::Distance, CostType::TravelTime, CostType::Fuel];

    /// Number of cost types.
    pub const COUNT: usize = 3;

    /// Stable dense index, `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            CostType::Distance => 0,
            CostType::TravelTime => 1,
            CostType::Fuel => 2,
        }
    }

    /// Inverse of [`CostType::index`].
    pub fn from_index(idx: usize) -> Option<CostType> {
        CostType::ALL.get(idx).copied()
    }

    /// Short name used in reports ("DI", "TT", "FC" as in the paper).
    pub fn short_name(self) -> &'static str {
        match self {
            CostType::Distance => "DI",
            CostType::TravelTime => "TT",
            CostType::Fuel => "FC",
        }
    }
}

impl std::fmt::Display for CostType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Travel time in seconds for `distance_m` metres at the speed limit of
/// `road_type`.
pub fn travel_time_s(distance_m: f64, road_type: RoadType) -> f64 {
    let speed_ms = road_type.speed_limit_kmh() / 3.6;
    distance_m / speed_ms
}

/// Fuel consumption in millilitres for `distance_m` metres driven at the
/// speed limit of `road_type`.
///
/// A simple convex (U-shaped) consumption curve: per-kilometre consumption is
/// minimal around 70 km/h and grows both for slow urban driving (idling,
/// stop-and-go) and for high-speed driving (aerodynamic drag).  The exact
/// constants are not important for the reproduction — what matters is that
/// fuel-optimal paths differ from both shortest and fastest paths, which this
/// curve guarantees.
pub fn fuel_ml(distance_m: f64, road_type: RoadType) -> f64 {
    let v = road_type.speed_limit_kmh();
    // Base consumption in l/100km as a quadratic in speed with minimum at 70 km/h.
    let per_100km_l = 5.0 + 0.0016 * (v - 70.0) * (v - 70.0);
    // l/100km -> ml/m == (l * 1000) / (100 * 1000 m).
    distance_m * per_100km_l / 100.0
}

/// Per-edge weight bundle, pre-computed at network build time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeWeights {
    /// Distance in metres.
    pub distance_m: f64,
    /// Travel time in seconds (free-flow, speed-limit based).
    pub travel_time_s: f64,
    /// Fuel consumption in millilitres.
    pub fuel_ml: f64,
}

impl EdgeWeights {
    /// Derives all weights from a distance and road type.
    pub fn derive(distance_m: f64, road_type: RoadType) -> Self {
        EdgeWeights {
            distance_m,
            travel_time_s: travel_time_s(distance_m, road_type),
            fuel_ml: fuel_ml(distance_m, road_type),
        }
    }

    /// Returns the weight for a given cost type.
    pub fn get(&self, cost: CostType) -> f64 {
        match cost {
            CostType::Distance => self.distance_m,
            CostType::TravelTime => self.travel_time_s,
            CostType::Fuel => self.fuel_ml,
        }
    }

    /// The first cost type whose weight is not positive and finite, if any.
    ///
    /// The one edge-validity rule: `RoadNetworkBuilder` and the snapshot
    /// decoder both reject an edge for which this is `Some`, so neither
    /// admits an edge the other refuses, and Dijkstra never sees a zero,
    /// infinite or NaN cost.  A finite positive distance is not enough: the
    /// derived travel time or fuel can still underflow to zero or overflow
    /// to infinity.
    pub fn invalid_cost(&self) -> Option<CostType> {
        CostType::ALL.into_iter().find(|&cost| {
            let v = self.get(cost);
            !(v.is_finite() && v > 0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_type_index_roundtrip() {
        for c in CostType::ALL {
            assert_eq!(CostType::from_index(c.index()), Some(c));
        }
        assert_eq!(CostType::from_index(3), None);
        assert_eq!(CostType::Distance.to_string(), "DI");
    }

    #[test]
    fn travel_time_scales_with_speed_limit() {
        let d = 1000.0;
        let t_motorway = travel_time_s(d, RoadType::Motorway);
        let t_residential = travel_time_s(d, RoadType::Residential);
        assert!(t_motorway < t_residential);
        // 1 km at 110 km/h is about 32.7 s.
        assert!((t_motorway - 1000.0 / (110.0 / 3.6)).abs() < 1e-9);
    }

    #[test]
    fn fuel_curve_is_u_shaped() {
        let d = 1000.0;
        let slow = fuel_ml(d, RoadType::Residential); // 30 km/h
        let mid = fuel_ml(d, RoadType::Primary); // 70 km/h (minimum)
        let fast = fuel_ml(d, RoadType::Motorway); // 110 km/h
        assert!(mid < slow, "urban driving should use more fuel per km");
        assert!(mid < fast, "high-speed driving should use more fuel per km");
        assert!(slow > 0.0 && mid > 0.0 && fast > 0.0);
    }

    #[test]
    fn derived_weights_are_consistent() {
        let w = EdgeWeights::derive(500.0, RoadType::Secondary);
        assert!((w.get(CostType::Distance) - 500.0).abs() < 1e-12);
        assert!(
            (w.get(CostType::TravelTime) - travel_time_s(500.0, RoadType::Secondary)).abs() < 1e-12
        );
        assert!((w.get(CostType::Fuel) - fuel_ml(500.0, RoadType::Secondary)).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_linearly_with_distance() {
        let w1 = EdgeWeights::derive(100.0, RoadType::Trunk);
        let w2 = EdgeWeights::derive(200.0, RoadType::Trunk);
        for c in CostType::ALL {
            assert!((w2.get(c) - 2.0 * w1.get(c)).abs() < 1e-9);
        }
    }
}
