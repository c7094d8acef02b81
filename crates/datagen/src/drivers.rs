//! Latent routing preferences and the synthetic driver population.
//!
//! The central premise of the paper is that local drivers choose paths
//! according to *context-dependent* routing preferences (a travel-cost
//! "master" feature plus a road-condition "slave" feature) that depend on the
//! kind of region pair they travel between, not on the individual driver.
//! The workload generator therefore assigns a **latent preference** to every
//! (district-kind, district-kind, distance band) context; trips are routed
//! with that preference plus per-driver noise.  Because the latent preference
//! is known, the reproduction can verify that L2R actually recovers it —
//! something the original evaluation could only measure indirectly.

use l2r_road_network::{CostType, RoadType, RoadTypeSet};
use rand::Rng;

use crate::network::DistrictKind;
use l2r_trajectory::DriverId;

/// A ground-truth routing preference of the synthetic population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatentPreference {
    /// The travel-cost feature being minimised.
    pub master: CostType,
    /// The preferred road types, if any.
    pub slave: Option<RoadTypeSet>,
}

impl LatentPreference {
    /// A plain "fastest path" preference, used as the noise fallback.
    pub fn fastest() -> Self {
        LatentPreference {
            master: CostType::TravelTime,
            slave: None,
        }
    }
}

/// Distance bands used by the latent preference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripLength {
    /// Up to 5 km.
    Short,
    /// 5–15 km.
    Medium,
    /// Longer than 15 km.
    Long,
}

impl TripLength {
    /// Classifies a trip by straight-line distance in metres.
    fn classify(distance_m: f64) -> Self {
        if distance_m <= 5_000.0 {
            TripLength::Short
        } else if distance_m <= 15_000.0 {
            TripLength::Medium
        } else {
            TripLength::Long
        }
    }
}

/// The latent routing preference for travelling from a district of kind
/// `from` to a district of kind `to` over a given distance.
///
/// The mapping is deliberately varied: different contexts genuinely prefer
/// different master features and road classes, mirroring Figure 6(a) of the
/// paper (learned preferences are spread over DI/TT/FC, and most T-edges
/// carry a single dominant preference).
pub fn latent_preference(
    from: DistrictKind,
    to: DistrictKind,
    distance_m: f64,
) -> LatentPreference {
    use DistrictKind::*;
    let length = TripLength::classify(distance_m);
    match (length, from, to) {
        // Long-distance trips stay on the motorway/trunk network but take
        // the *most direct* highway route — which is neither the fastest
        // (trunk shortcuts through the centre can be quicker) nor the
        // shortest (surface streets are shorter) path.
        (TripLength::Long, _, _) => LatentPreference {
            master: CostType::Distance,
            slave: Some(RoadTypeSet::from_iter([
                RoadType::Motorway,
                RoadType::Trunk,
            ])),
        },
        // Business-to-business trips stay on primary arterials and minimise
        // travel time within them.
        (_, Business, Business) => LatentPreference {
            master: CostType::TravelTime,
            slave: Some(RoadTypeSet::single(RoadType::Primary)),
        },
        // Commutes between residential areas and the business core favour
        // direct (short) routes along primary/secondary arterials.
        (_, Residential, Business) | (_, Business, Residential) => LatentPreference {
            master: CostType::Distance,
            slave: Some(RoadTypeSet::from_iter([
                RoadType::Primary,
                RoadType::Secondary,
            ])),
        },
        // Freight-style trips to or from industrial areas minimise fuel and
        // use the trunk network.
        (_, Industrial, _) | (_, _, Industrial) => LatentPreference {
            master: CostType::Fuel,
            slave: Some(RoadTypeSet::single(RoadType::Trunk)),
        },
        // Short residential-to-residential hops take the shortest route with
        // no road-class preference.
        (TripLength::Short, Residential, Residential) => LatentPreference {
            master: CostType::Distance,
            slave: None,
        },
        // Medium residential trips avoid both highways and cut-throughs:
        // quickest route over secondary/tertiary streets.
        (TripLength::Medium, Residential, Residential) => LatentPreference {
            master: CostType::TravelTime,
            slave: Some(RoadTypeSet::from_iter([
                RoadType::Secondary,
                RoadType::Tertiary,
            ])),
        },
    }
}

/// A synthetic driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverProfile {
    /// The driver id used on generated trajectories.
    pub id: DriverId,
    /// The district index the driver's trips tend to start from.
    pub home_district: usize,
    /// Probability that a trip of this driver ignores the latent preference
    /// and simply takes the fastest path (behavioural noise).
    pub noise_prob: f64,
}

/// The synthetic driver population.
#[derive(Debug, Clone)]
pub struct DriverPopulation {
    /// All driver profiles.
    pub drivers: Vec<DriverProfile>,
}

impl DriverPopulation {
    /// Generates `n` drivers with homes spread over `num_districts`
    /// districts and noise probabilities in `[base_noise, base_noise + 0.1)`.
    pub fn generate<R: Rng>(n: usize, num_districts: usize, base_noise: f64, rng: &mut R) -> Self {
        let drivers = (0..n)
            .map(|i| DriverProfile {
                id: DriverId(i as u32),
                home_district: rng.gen_range(0..num_districts.max(1)),
                noise_prob: (base_noise + rng.gen::<f64>() * 0.1).clamp(0.0, 1.0),
            })
            .collect();
        DriverPopulation { drivers }
    }

    /// Number of drivers.
    pub fn len(&self) -> usize {
        self.drivers.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.drivers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trip_length_classification() {
        assert_eq!(TripLength::classify(1000.0), TripLength::Short);
        assert_eq!(TripLength::classify(10_000.0), TripLength::Medium);
        assert_eq!(TripLength::classify(50_000.0), TripLength::Long);
    }

    #[test]
    fn long_trips_always_prefer_highways() {
        for from in [
            DistrictKind::Business,
            DistrictKind::Residential,
            DistrictKind::Industrial,
        ] {
            for to in [
                DistrictKind::Business,
                DistrictKind::Residential,
                DistrictKind::Industrial,
            ] {
                let p = latent_preference(from, to, 40_000.0);
                assert_eq!(p.master, CostType::Distance);
                assert!(p.slave.unwrap().contains(RoadType::Motorway));
                assert!(p.slave.unwrap().contains(RoadType::Trunk));
            }
        }
    }

    #[test]
    fn contexts_produce_distinct_preferences() {
        let bb = latent_preference(DistrictKind::Business, DistrictKind::Business, 4000.0);
        let rb = latent_preference(DistrictKind::Residential, DistrictKind::Business, 4000.0);
        let ii = latent_preference(DistrictKind::Industrial, DistrictKind::Residential, 4000.0);
        let rr = latent_preference(DistrictKind::Residential, DistrictKind::Residential, 2000.0);
        assert_ne!(bb.master, rb.master);
        assert_eq!(ii.master, CostType::Fuel);
        assert_eq!(rr.slave, None);
        // All three master features appear across contexts (Fig. 6(a)).
        let masters: std::collections::HashSet<_> =
            [bb.master, rb.master, ii.master].into_iter().collect();
        assert_eq!(masters.len(), 3);
    }

    #[test]
    fn population_generation_is_bounded_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = DriverPopulation::generate(50, 12, 0.05, &mut rng);
        assert_eq!(pop.len(), 50);
        assert!(!pop.is_empty());
        for d in &pop.drivers {
            assert!(d.home_district < 12);
            assert!(d.noise_prob >= 0.05 && d.noise_prob < 0.151);
        }
        let mut rng2 = StdRng::seed_from_u64(1);
        let pop2 = DriverPopulation::generate(50, 12, 0.05, &mut rng2);
        assert_eq!(pop.drivers, pop2.drivers);
    }
}
