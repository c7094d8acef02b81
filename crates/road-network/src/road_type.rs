//! Road type taxonomy and the associated default speed limits.
//!
//! The paper uses the six most common OpenStreetMap highway classes as the
//! road-condition features of the preference model: motorway, trunk, primary,
//! secondary, tertiary and residential (Section VII-A).

/// The functional class of a road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoadType {
    /// Grade-separated, high-speed highways.
    Motorway,
    /// Major roads that are not motorways.
    Trunk,
    /// Primary arterials linking large towns.
    Primary,
    /// Secondary arterials linking towns.
    Secondary,
    /// Tertiary roads linking smaller settlements and neighbourhoods.
    Tertiary,
    /// Residential / access streets.
    Residential,
}

impl RoadType {
    /// All road types, ordered from highest to lowest class.
    pub const ALL: [RoadType; 6] = [
        RoadType::Motorway,
        RoadType::Trunk,
        RoadType::Primary,
        RoadType::Secondary,
        RoadType::Tertiary,
        RoadType::Residential,
    ];

    /// Number of distinct road types.
    pub const COUNT: usize = 6;

    /// Stable dense index of the road type, `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            RoadType::Motorway => 0,
            RoadType::Trunk => 1,
            RoadType::Primary => 2,
            RoadType::Secondary => 3,
            RoadType::Tertiary => 4,
            RoadType::Residential => 5,
        }
    }

    /// Inverse of [`RoadType::index`].  Returns `None` for out-of-range input.
    pub fn from_index(idx: usize) -> Option<RoadType> {
        RoadType::ALL.get(idx).copied()
    }

    /// Default speed limit in km/h used by the synthetic cost model.
    pub fn speed_limit_kmh(self) -> f64 {
        match self {
            RoadType::Motorway => 110.0,
            RoadType::Trunk => 90.0,
            RoadType::Primary => 70.0,
            RoadType::Secondary => 60.0,
            RoadType::Tertiary => 50.0,
            RoadType::Residential => 30.0,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RoadType::Motorway => "motorway",
            RoadType::Trunk => "trunk",
            RoadType::Primary => "primary",
            RoadType::Secondary => "secondary",
            RoadType::Tertiary => "tertiary",
            RoadType::Residential => "residential",
        }
    }
}

impl std::fmt::Display for RoadType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of road types, stored as a bit mask.  Used for slave-dimension
/// (road-condition) routing preferences and for region functionality
/// descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct RoadTypeSet(u8);

impl RoadTypeSet {
    /// The empty set.
    pub fn empty() -> Self {
        RoadTypeSet(0)
    }

    /// The set containing every road type.
    pub fn all() -> Self {
        RoadTypeSet((1u8 << RoadType::COUNT) - 1)
    }

    /// A singleton set.
    pub fn single(rt: RoadType) -> Self {
        RoadTypeSet(1 << rt.index())
    }

    /// Adds `rt` to the set.
    pub fn insert(&mut self, rt: RoadType) {
        self.0 |= 1 << rt.index();
    }

    /// Removes `rt` from the set.
    pub fn remove(&mut self, rt: RoadType) {
        self.0 &= !(1 << rt.index());
    }

    /// Whether `rt` is a member.
    pub fn contains(self, rt: RoadType) -> bool {
        self.0 & (1 << rt.index()) != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of the two sets.
    pub fn union(self, other: RoadTypeSet) -> RoadTypeSet {
        RoadTypeSet(self.0 | other.0)
    }

    /// Intersection of the two sets.
    pub fn intersection(self, other: RoadTypeSet) -> RoadTypeSet {
        RoadTypeSet(self.0 & other.0)
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`; 1.0 when both sets are empty.
    pub fn jaccard(self, other: RoadTypeSet) -> f64 {
        let union = self.union(other).len();
        if union == 0 {
            return 1.0;
        }
        self.intersection(other).len() as f64 / union as f64
    }

    /// Iterates over the members from highest to lowest road class.
    pub fn iter(self) -> impl Iterator<Item = RoadType> {
        RoadType::ALL
            .into_iter()
            .filter(move |rt| self.contains(*rt))
    }
}

impl FromIterator<RoadType> for RoadTypeSet {
    /// Builds a set from an iterator of road types.
    fn from_iter<I: IntoIterator<Item = RoadType>>(iter: I) -> Self {
        let mut s = Self::empty();
        for rt in iter {
            s.insert(rt);
        }
        s
    }
}

impl std::fmt::Display for RoadTypeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(|rt| rt.name()).collect();
        write!(f, "{{{}}}", names.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for rt in RoadType::ALL {
            assert_eq!(RoadType::from_index(rt.index()), Some(rt));
        }
        assert_eq!(RoadType::from_index(6), None);
    }

    #[test]
    fn speed_limits_decrease_with_class() {
        let speeds: Vec<f64> = RoadType::ALL
            .iter()
            .map(|rt| rt.speed_limit_kmh())
            .collect();
        for w in speeds.windows(2) {
            assert!(w[0] > w[1], "speed limits must strictly decrease by class");
        }
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = RoadTypeSet::empty();
        assert!(s.is_empty());
        s.insert(RoadType::Primary);
        s.insert(RoadType::Motorway);
        assert_eq!(s.len(), 2);
        assert!(s.contains(RoadType::Primary));
        assert!(!s.contains(RoadType::Residential));
        s.remove(RoadType::Primary);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(RoadType::Primary));
    }

    #[test]
    fn set_union_intersection_jaccard() {
        let a = RoadTypeSet::from_iter([RoadType::Motorway, RoadType::Primary]);
        let b = RoadTypeSet::from_iter([RoadType::Primary, RoadType::Residential]);
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b).len(), 1);
        assert!((a.jaccard(b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((RoadTypeSet::empty().jaccard(RoadTypeSet::empty()) - 1.0).abs() < 1e-12);
        assert_eq!(RoadTypeSet::all().len(), RoadType::COUNT);
    }

    #[test]
    fn set_iteration_order_is_by_class() {
        let s = RoadTypeSet::from_iter([RoadType::Residential, RoadType::Motorway]);
        let members: Vec<RoadType> = s.iter().collect();
        assert_eq!(members, vec![RoadType::Motorway, RoadType::Residential]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(RoadType::Motorway.to_string(), "motorway");
        let s = RoadTypeSet::from_iter([RoadType::Motorway, RoadType::Residential]);
        assert_eq!(s.to_string(), "{motorway+residential}");
    }
}
