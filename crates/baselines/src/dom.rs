//! **Dom** — personalized multi-cost routing (the paper's reference \[26\]).
//!
//! Dom learns, per driver, how strongly the driver trades off distance,
//! travel time and fuel consumption: each training trajectory is compared to
//! the single-objective optima for its (source, destination) pair, and cost
//! types on which the driver stays close to optimal receive higher weight.
//! At query time Dom enumerates skyline (Pareto-optimal) paths — the
//! expensive multi-objective search the paper attributes its high running
//! time to — and returns the skyline path minimising the driver's weighted
//! cost.

use std::collections::HashMap;

use l2r_road_network::{
    lowest_cost_path, skyline_paths, weighted_path, CostType, Path, RoadNetwork, VertexId,
};
use l2r_trajectory::{DriverId, MatchedTrajectory};

use crate::BaselineRouter;

/// Per-driver preference weights over (distance, travel time, fuel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverWeights {
    /// Normalised weights, summing to 1.
    pub weights: [f64; 3],
    /// Number of trajectories the weights were learned from.
    pub support: usize,
}

impl Default for DriverWeights {
    fn default() -> Self {
        DriverWeights {
            weights: [1.0 / 3.0; 3],
            support: 0,
        }
    }
}

/// The Dom personalized router.
#[derive(Debug, Clone)]
pub struct Dom {
    drivers: HashMap<DriverId, DriverWeights>,
    /// Cap on skyline labels per vertex (keeps the exponential search
    /// bounded).
    max_labels_per_vertex: usize,
    /// Per-cost normalisation used to put the three costs on the same scale.
    cost_scale: [f64; 3],
}

impl Dom {
    /// Learns per-driver weights from training trajectories.
    ///
    /// For every trajectory, the ratio `optimal_cost / actual_cost ∈ (0, 1]`
    /// is computed per cost type; a ratio close to 1 means the driver's path
    /// is near-optimal for that cost, so the cost receives more weight.
    pub fn train(net: &RoadNetwork, trajectories: &[MatchedTrajectory]) -> Dom {
        let mut per_driver: HashMap<DriverId, ([f64; 3], usize)> = HashMap::new();
        for t in trajectories {
            let (s, d) = (t.source(), t.destination());
            if s == d {
                continue;
            }
            let mut ratios = [0.0f64; 3];
            let mut ok = true;
            for cost in CostType::ALL {
                let actual = match t.path.cost(net, cost) {
                    Ok(c) if c > 0.0 => c,
                    _ => {
                        ok = false;
                        break;
                    }
                };
                let optimal = lowest_cost_path(net, s, d, cost)
                    .and_then(|p| p.cost(net, cost).ok())
                    .unwrap_or(actual);
                ratios[cost.index()] = (optimal / actual).clamp(0.0, 1.0);
            }
            if !ok {
                continue;
            }
            let entry = per_driver.entry(t.driver).or_insert(([0.0; 3], 0));
            for (sum, ratio) in entry.0.iter_mut().zip(ratios.iter()) {
                *sum += ratio;
            }
            entry.1 += 1;
        }
        let drivers = per_driver
            .into_iter()
            .map(|(driver, (sums, count))| {
                let mut w = [0.0f64; 3];
                let mut total = 0.0;
                for i in 0..3 {
                    // Emphasise costs the driver is consistently near-optimal
                    // on; squaring sharpens the contrast between objectives.
                    let mean = sums[i] / count.max(1) as f64;
                    w[i] = mean * mean;
                    total += w[i];
                }
                if total <= 0.0 {
                    return (driver, DriverWeights::default());
                }
                for v in w.iter_mut() {
                    *v /= total;
                }
                (
                    driver,
                    DriverWeights {
                        weights: w,
                        support: count,
                    },
                )
            })
            .collect();

        // Scale so that a "typical" edge contributes comparably under each
        // cost type (otherwise fuel, measured in ml, dominates).
        let mut scale = [1.0f64; 3];
        if net.num_edges() > 0 {
            let mut sums = [0.0f64; 3];
            for e in net.edges() {
                for c in CostType::ALL {
                    sums[c.index()] += e.cost(c);
                }
            }
            for i in 0..3 {
                scale[i] = if sums[i] > 0.0 {
                    net.num_edges() as f64 / sums[i]
                } else {
                    1.0
                };
            }
        }

        Dom {
            drivers,
            max_labels_per_vertex: 8,
            cost_scale: scale,
        }
    }

    /// The learned weights of a driver (uniform for unseen drivers).
    fn driver_weights(&self, driver: DriverId) -> DriverWeights {
        self.drivers.get(&driver).copied().unwrap_or_default()
    }

    /// Number of drivers with learned weights.
    pub fn num_drivers(&self) -> usize {
        self.drivers.len()
    }
}

impl BaselineRouter for Dom {
    fn name(&self) -> &'static str {
        "Dom"
    }

    fn route(
        &self,
        net: &RoadNetwork,
        source: VertexId,
        destination: VertexId,
        driver: DriverId,
    ) -> Option<Path> {
        let w = self.driver_weights(driver).weights;
        let scaled = [
            w[0] * self.cost_scale[0],
            w[1] * self.cost_scale[1],
            w[2] * self.cost_scale[2],
        ];
        // The expensive multi-objective skyline search of the original
        // method; pick the skyline path minimising the personalized weighted
        // cost.
        let skyline = skyline_paths(net, source, destination, self.max_labels_per_vertex);
        let best = skyline
            .into_iter()
            .min_by(|a, b| {
                a.cost
                    .weighted_sum(scaled)
                    .total_cmp(&b.cost.weighted_sum(scaled))
            })
            .map(|s| s.path);
        // Extremely large queries can exhaust the label cap before reaching
        // the target; fall back to a weighted single-objective search.
        best.or_else(|| weighted_path(net, source, destination, scaled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_trajectory::TrajectoryId;

    #[test]
    fn training_learns_normalised_weights() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(120));
        let dom = Dom::train(&syn.net, &wl.trajectories);
        assert!(dom.num_drivers() > 0);
        for t in &wl.trajectories {
            let w = dom.driver_weights(t.driver);
            let sum: f64 = w.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(w.weights.iter().all(|v| *v >= 0.0));
        }
        // Unseen drivers get uniform weights.
        let unseen = dom.driver_weights(DriverId(9999));
        assert_eq!(unseen.support, 0);
        assert!((unseen.weights[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn routing_returns_valid_paths() {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(80));
        let dom = Dom::train(&syn.net, &wl.trajectories);
        for t in wl.trajectories.iter().take(10) {
            let p = dom
                .route(&syn.net, t.source(), t.destination(), t.driver)
                .expect("Dom should find a path");
            assert!(p.validate(&syn.net).is_ok());
            assert_eq!(p.source(), t.source());
            assert_eq!(p.destination(), t.destination());
        }
    }

    #[test]
    fn time_oriented_drivers_get_time_heavy_weights() {
        use l2r_road_network::fastest_path;
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        // A driver who always drives exactly the fastest path between distant
        // districts.
        let s = syn.districts[0].center;
        let d = syn.districts.last().unwrap().center;
        let fast = fastest_path(&syn.net, s, d).unwrap();
        let trajectories = vec![MatchedTrajectory::new(
            TrajectoryId(0),
            DriverId(7),
            fast,
            0.0,
        )];
        let dom = Dom::train(&syn.net, &trajectories);
        let w = dom.driver_weights(DriverId(7));
        assert_eq!(w.support, 1);
        assert!(
            w.weights[CostType::TravelTime.index()] >= w.weights[CostType::Distance.index()] - 1e-9,
            "travel-time weight should not be below the distance weight: {:?}",
            w.weights
        );
    }
}
