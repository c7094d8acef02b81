//! Snapshot codec for the preference layer: routing preferences, learned
//! T-edge preferences and the pipeline configuration types, in the wire
//! format of [`l2r_road_network::codec`].

use l2r_road_network::{CodecError, CostType, Decode, Encode, Reader, RoadTypeSet, Writer};

use crate::learning::{LearnConfig, LearnedPreference};
use crate::model::Preference;
use crate::transfer::TransferConfig;

impl Encode for Preference {
    fn encode(&self, w: &mut Writer) {
        self.master.encode(w);
        match self.slave {
            Some(s) => {
                w.bool(true);
                s.encode(w);
            }
            None => w.bool(false),
        }
    }
}

impl Decode for Preference {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let master = CostType::decode(r)?;
        let slave = if r.bool("preference slave flag")? {
            Some(RoadTypeSet::decode(r)?)
        } else {
            None
        };
        Ok(Preference { master, slave })
    }
}

impl Encode for LearnedPreference {
    fn encode(&self, w: &mut Writer) {
        self.preference.encode(w);
        w.f64(self.similarity);
    }
}

impl Decode for LearnedPreference {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LearnedPreference {
            preference: Preference::decode(r)?,
            similarity: r.f64("learned similarity")?,
        })
    }
}

impl Encode for LearnConfig {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.candidate_slaves);
        w.f64(self.min_improvement);
        w.length(self.max_paths);
    }
}

impl Decode for LearnConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LearnConfig {
            candidate_slaves: r.seq("candidate slave count", 1)?,
            min_improvement: r.f64("min improvement")?,
            max_paths: r.u64("max paths")? as usize,
        })
    }
}

impl Encode for TransferConfig {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.amr);
        w.f64(self.mu1);
        w.f64(self.mu2);
        w.f64(self.tolerance);
        w.length(self.max_iterations);
        w.f64(self.slave_threshold);
    }
}

impl Decode for TransferConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TransferConfig {
            amr: r.f64("amr")?,
            mu1: r.f64("mu1")?,
            mu2: r.f64("mu2")?,
            tolerance: r.f64("solver tolerance")?,
            max_iterations: r.u64("solver iteration budget")? as usize,
            slave_threshold: r.f64("slave threshold")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_road_network::RoadType;

    fn roundtrip<T: Encode + Decode>(value: &T) -> T {
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let decoded = T::decode(&mut r).expect("decode");
        assert!(r.is_exhausted(), "trailing bytes after decode");
        decoded
    }

    #[test]
    fn preferences_roundtrip() {
        for p in [
            Preference::cost_only(CostType::Fuel),
            Preference::with_road_type(CostType::TravelTime, RoadType::Motorway),
            Preference {
                master: CostType::Distance,
                slave: Some(RoadTypeSet::from_iter([
                    RoadType::Primary,
                    RoadType::Secondary,
                ])),
            },
        ] {
            assert_eq!(roundtrip(&p), p);
        }
    }

    #[test]
    fn learned_preferences_roundtrip_bit_exactly() {
        let lp = LearnedPreference {
            preference: Preference::with_road_type(CostType::TravelTime, RoadType::Trunk),
            similarity: 0.1 + 0.2, // deliberately not a round float
        };
        let back = roundtrip(&lp);
        assert_eq!(back.preference, lp.preference);
        assert_eq!(back.similarity.to_bits(), lp.similarity.to_bits());
    }

    #[test]
    fn configs_roundtrip() {
        let lc = LearnConfig::default();
        let back = roundtrip(&lc);
        assert_eq!(back.candidate_slaves, lc.candidate_slaves);
        assert_eq!(back.min_improvement.to_bits(), lc.min_improvement.to_bits());
        assert_eq!(back.max_paths, lc.max_paths);

        let tc = TransferConfig::default();
        let back = roundtrip(&tc);
        assert_eq!(back.amr.to_bits(), tc.amr.to_bits());
        assert_eq!(back.tolerance.to_bits(), tc.tolerance.to_bits());
        assert_eq!(back.max_iterations, tc.max_iterations);
        assert_eq!(back.slave_threshold.to_bits(), tc.slave_threshold.to_bits());
    }

    #[test]
    fn bad_tags_error() {
        // Preference with a bad master tag.
        assert!(Preference::decode(&mut Reader::new(&[8, 0])).is_err());
        // Preference with a bad slave flag.
        assert!(Preference::decode(&mut Reader::new(&[0, 7])).is_err());
    }
}
