//! Experiment datasets: a synthetic network + workload + fitted L2R model,
//! mirroring the two data sets of the paper (D1 = Denmark-like, D2 =
//! Chengdu-like) at two scales (quick for tests, full for benchmarks).

use std::time::Duration;

use l2r_core::{L2r, L2rConfig};
use l2r_datagen::{
    generate_network, generate_workload, SyntheticNetwork, SyntheticNetworkConfig, Workload,
    WorkloadConfig,
};
use l2r_trajectory::MatchedTrajectory;

/// Scale of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small: suitable for unit/integration tests (seconds).
    Quick,
    /// Full: used by the benchmark harness (minutes).
    Full,
    /// Country-scale: ~100k-vertex network, the `--scale xl` axis of
    /// `reproduce` and of the `xl_gates` test.
    Xl,
    /// Half-million-vertex stress scale (`--scale xxl`); network generation
    /// and routing only at benchmark time — not part of CI.
    Xxl,
}

impl Scale {
    /// The scale's stable label, as recorded in BENCH JSON and accepted by
    /// the reproduce harness's `--scale` flag.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
            Scale::Xl => "xl",
            Scale::Xxl => "xxl",
        }
    }

    /// Parses a `--scale` argument (the inverse of [`Scale::label`]).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            "xl" => Some(Scale::Xl),
            "xxl" => Some(Scale::Xxl),
            _ => None,
        }
    }
}

/// Specification of an experiment dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Display name ("D1", "D2").
    pub name: &'static str,
    /// Network generator configuration.
    pub network: SyntheticNetworkConfig,
    /// Workload generator configuration.
    pub workload: WorkloadConfig,
    /// Distance bucket bounds (km) used for per-distance reports
    /// (Figures 10–13, Table II).
    pub distance_bounds_km: Vec<f64>,
    /// Area bucket bounds (km²) used for Table IV.
    pub area_bounds_km2: Vec<f64>,
    /// Fraction of the time period used as training data.
    pub train_fraction: f64,
    /// Maximum number of test queries evaluated.
    pub max_test_queries: usize,
    /// L2R configuration.
    pub l2r: L2rConfig,
}

impl DatasetSpec {
    /// The Denmark-like data set (D1).
    pub fn d1(scale: Scale) -> DatasetSpec {
        let (network, workload, max_q) = match scale {
            Scale::Quick => (
                SyntheticNetworkConfig::tiny(),
                WorkloadConfig::d1_like(300),
                60,
            ),
            Scale::Full => (
                SyntheticNetworkConfig::denmark_like(),
                WorkloadConfig::d1_like(3000),
                250,
            ),
            Scale::Xl => (
                SyntheticNetworkConfig::denmark_xl(),
                WorkloadConfig::xl_like(1600),
                120,
            ),
            Scale::Xxl => (
                SyntheticNetworkConfig::denmark_xxl(),
                WorkloadConfig::xxl_like(2500),
                120,
            ),
        };
        DatasetSpec {
            name: "D1",
            network,
            workload: WorkloadConfig {
                seed: 0xD1D1,
                ..workload
            },
            distance_bounds_km: vec![10.0, 50.0, 100.0, 500.0],
            area_bounds_km2: l2r_region_graph::d1_bounds_km2(),
            train_fraction: 0.75,
            max_test_queries: max_q,
            l2r: match scale {
                Scale::Quick => L2rConfig::fast(),
                _ => L2rConfig::default(),
            },
        }
    }

    /// The Chengdu-like data set (D2).
    pub fn d2(scale: Scale) -> DatasetSpec {
        // The country-scale presets are Denmark-derived (the paper's D2 is a
        // city network with no country-scale counterpart), so the XL/XXL
        // arms reuse the N1-XL/N1-XXL networks with the D2 workload profile;
        // the reproduce harness exercises the scale axis through D1 only.
        let (network, workload, max_q) = match scale {
            Scale::Quick => (
                SyntheticNetworkConfig::tiny(),
                WorkloadConfig::d2_like(300),
                60,
            ),
            Scale::Full => (
                SyntheticNetworkConfig::chengdu_like(),
                WorkloadConfig::d2_like(2500),
                250,
            ),
            Scale::Xl => (
                SyntheticNetworkConfig::denmark_xl(),
                WorkloadConfig::xl_like(1600),
                120,
            ),
            Scale::Xxl => (
                SyntheticNetworkConfig::denmark_xxl(),
                WorkloadConfig::xxl_like(2500),
                120,
            ),
        };
        DatasetSpec {
            name: "D2",
            network,
            workload: WorkloadConfig {
                seed: 0xD2D2,
                ..workload
            },
            distance_bounds_km: vec![5.0, 10.0, 35.0],
            area_bounds_km2: l2r_region_graph::d2_bounds_km2(),
            train_fraction: 0.75,
            max_test_queries: max_q,
            l2r: match scale {
                Scale::Quick => L2rConfig::fast(),
                _ => L2rConfig::default(),
            },
        }
    }
}

/// A fully materialised dataset: network, workload, split and fitted model.
pub struct Dataset {
    /// The specification the dataset was built from.
    pub spec: DatasetSpec,
    /// The synthetic network (with district metadata).
    pub synthetic: SyntheticNetwork,
    /// The full workload (with ground-truth latent preferences).
    pub workload: Workload,
    /// Training trajectories (earlier period).
    pub train: Vec<MatchedTrajectory>,
    /// Test trajectories (later period).
    pub test: Vec<MatchedTrajectory>,
    /// The fitted learn-to-route model.
    pub model: L2r,
    /// Wall time of the `L2r::fit` call that produced `model`.
    pub fit_time: Duration,
    /// Number of Dijkstra searches that fit performed (from
    /// `l2r_road_network::searches_performed`).
    pub fit_searches: u64,
}

/// Builds a dataset: generates the network and workload, splits temporally
/// and fits L2R on the training part.
pub fn build_dataset(spec: DatasetSpec) -> Dataset {
    let synthetic = generate_network(&spec.network);
    let workload = generate_workload(&synthetic, &spec.workload);
    let (train, test) = workload.temporal_split(spec.train_fraction);
    let searches_before = l2r_road_network::searches_performed();
    let t0 = std::time::Instant::now();
    let model = L2r::fit(&synthetic.net, &train, spec.l2r.clone())
        .expect("fitting on a generated workload never fails");
    let fit_time = t0.elapsed();
    let fit_searches = l2r_road_network::searches_performed() - searches_before;
    Dataset {
        spec,
        synthetic,
        workload,
        train,
        test,
        model,
        fit_time,
        fit_searches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_datasets_build_and_split() {
        let ds = build_dataset(DatasetSpec::d1(Scale::Quick));
        assert!(!ds.train.is_empty());
        assert!(!ds.test.is_empty());
        assert_eq!(
            ds.train.len() + ds.test.len(),
            ds.workload.trajectories.len()
        );
        assert!(ds.model.stats().num_regions > 0);
        assert_eq!(ds.spec.name, "D1");
    }

    #[test]
    fn d1_and_d2_specs_differ_in_distance_buckets() {
        let d1 = DatasetSpec::d1(Scale::Quick);
        let d2 = DatasetSpec::d2(Scale::Quick);
        assert_ne!(d1.distance_bounds_km, d2.distance_bounds_km);
        assert!(d1.distance_bounds_km.last().unwrap() > d2.distance_bounds_km.last().unwrap());
    }

    #[test]
    fn full_specs_use_larger_networks() {
        let quick = DatasetSpec::d1(Scale::Quick);
        let full = DatasetSpec::d1(Scale::Full);
        assert!(
            full.network.districts_x * full.network.districts_y
                > quick.network.districts_x * quick.network.districts_y
        );
        assert!(full.workload.num_trajectories > quick.workload.num_trajectories);
    }
}
