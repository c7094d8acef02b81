//! The routing preference model (Section V-A of the paper).
//!
//! A routing preference is a two-dimensional vector: the *master* dimension
//! is a travel-cost feature (distance, travel time or fuel consumption) and
//! the *slave* dimension is a road-condition feature (a preferred set of road
//! types, or none).  For the transduction step preferences are embedded into
//! a feature vector with one column per travel-cost feature and one column
//! per road type.

use l2r_road_network::{CostType, RoadType, RoadTypeSet};

/// Number of feature columns used by the transfer step: one per cost type
/// followed by one per road type.
pub const NUM_FEATURES: usize = CostType::COUNT + RoadType::COUNT;

/// A routing preference `⟨master, slave⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Preference {
    /// The travel-cost feature to minimise.
    pub master: CostType,
    /// The preferred road types, if any.
    pub slave: Option<RoadTypeSet>,
}

impl Preference {
    /// A preference with no road-condition component.
    pub fn cost_only(master: CostType) -> Self {
        Preference {
            master,
            slave: None,
        }
    }

    /// A preference with a single preferred road type.
    pub fn with_road_type(master: CostType, rt: RoadType) -> Self {
        Preference {
            master,
            slave: Some(RoadTypeSet::single(rt)),
        }
    }

    /// Embeds the preference into the `NUM_FEATURES`-dimensional feature row
    /// used as training data by the transduction step (1.0 on active
    /// features, 0.0 elsewhere).
    pub fn to_feature_row(&self) -> [f64; NUM_FEATURES] {
        let mut row = [0.0; NUM_FEATURES];
        row[self.master.index()] = 1.0;
        if let Some(slave) = self.slave {
            for rt in slave.iter() {
                row[CostType::COUNT + rt.index()] = 1.0;
            }
        }
        row
    }

    /// Decodes a (possibly soft) feature row back into a preference.
    ///
    /// The master feature is the arg-max over the cost columns; the slave
    /// feature is the arg-max road-type column when it carries at least
    /// `slave_threshold` of probability mass, otherwise no slave.  Returns
    /// `None` when every cost column is (numerically) zero — the "null
    /// preference" case of Section VII-B.
    pub fn from_feature_row(row: &[f64], slave_threshold: f64) -> Option<Preference> {
        if row.len() < NUM_FEATURES {
            return None;
        }
        let mut best_cost = 0usize;
        let mut best_cost_val = f64::NEG_INFINITY;
        for (i, &val) in row.iter().enumerate().take(CostType::COUNT) {
            if val > best_cost_val {
                best_cost_val = val;
                best_cost = i;
            }
        }
        if best_cost_val <= 1e-9 {
            return None;
        }
        let master = CostType::from_index(best_cost)?;
        let mut best_rt: Option<RoadType> = None;
        let mut best_rt_val = f64::NEG_INFINITY;
        for i in 0..RoadType::COUNT {
            let v = row[CostType::COUNT + i];
            if v > best_rt_val {
                best_rt_val = v;
                best_rt = RoadType::from_index(i);
            }
        }
        let slave = match best_rt {
            Some(rt) if best_rt_val >= slave_threshold => Some(RoadTypeSet::single(rt)),
            _ => None,
        };
        Some(Preference { master, slave })
    }

    /// The set of active feature indices (used by the Jaccard accuracy
    /// measure of Figure 9).
    fn active_features(&self) -> Vec<usize> {
        let mut f = vec![self.master.index()];
        if let Some(slave) = self.slave {
            for rt in slave.iter() {
                f.push(CostType::COUNT + rt.index());
            }
        }
        f
    }

    /// Jaccard similarity between the active feature sets of two preferences
    /// (1.0 for identical preferences, 0.0 for disjoint ones).
    pub fn jaccard(&self, other: &Preference) -> f64 {
        let a: std::collections::HashSet<usize> = self.active_features().into_iter().collect();
        let b: std::collections::HashSet<usize> = other.active_features().into_iter().collect();
        let inter = a.intersection(&b).count();
        let union = a.union(&b).count();
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

impl std::fmt::Display for Preference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slave {
            Some(s) if !s.is_empty() => write!(f, "⟨{}, {}⟩", self.master, s),
            _ => write!(f, "⟨{}, ∅⟩", self.master),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_row_roundtrip() {
        let p = Preference::with_road_type(CostType::TravelTime, RoadType::Motorway);
        let row = p.to_feature_row();
        assert_eq!(row.iter().filter(|v| **v > 0.0).count(), 2);
        let decoded = Preference::from_feature_row(&row, 0.5).unwrap();
        assert_eq!(decoded, p);

        let q = Preference::cost_only(CostType::Distance);
        let decoded = Preference::from_feature_row(&q.to_feature_row(), 0.5).unwrap();
        assert_eq!(decoded, q);
    }

    #[test]
    fn decoding_soft_rows() {
        let mut row = [0.0; NUM_FEATURES];
        row[CostType::Fuel.index()] = 0.7;
        row[CostType::Distance.index()] = 0.2;
        row[CostType::COUNT + RoadType::Trunk.index()] = 0.6;
        row[CostType::COUNT + RoadType::Primary.index()] = 0.1;
        let p = Preference::from_feature_row(&row, 0.3).unwrap();
        assert_eq!(p.master, CostType::Fuel);
        assert_eq!(p.slave, Some(RoadTypeSet::single(RoadType::Trunk)));
        // Below the slave threshold the road component is dropped.
        let p = Preference::from_feature_row(&row, 0.9).unwrap();
        assert_eq!(p.slave, None);
        // An all-zero row decodes to the null preference.
        assert_eq!(
            Preference::from_feature_row(&[0.0; NUM_FEATURES], 0.5),
            None
        );
        // A too-short row is rejected.
        assert_eq!(Preference::from_feature_row(&[1.0; 3], 0.5), None);
    }

    #[test]
    fn jaccard_similarity_between_preferences() {
        let a = Preference::with_road_type(CostType::TravelTime, RoadType::Motorway);
        let b = Preference::with_road_type(CostType::TravelTime, RoadType::Motorway);
        let c = Preference::with_road_type(CostType::TravelTime, RoadType::Primary);
        let d = Preference::cost_only(CostType::Distance);
        assert_eq!(a.jaccard(&b), 1.0);
        assert!((a.jaccard(&c) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.jaccard(&d), 0.0);
    }

    #[test]
    fn display_format() {
        let p = Preference::with_road_type(CostType::Distance, RoadType::Primary);
        assert_eq!(p.to_string(), "⟨DI, {primary}⟩");
        assert_eq!(Preference::cost_only(CostType::Fuel).to_string(), "⟨FC, ∅⟩");
    }
}
