//! The routing-method comparison behind Figures 10, 11, 12 and 13: accuracy
//! (Equations 1 and 4) and online running time, bucketed by travel distance
//! and by region coverage.

use std::time::Instant;

use l2r_baselines::BaselineRouter;
use l2r_core::{L2r, QueryScratch};
use l2r_road_network::{
    band_match_similarity_10m, path_similarity, path_similarity_jaccard, Path, RoadNetwork,
};

use crate::queries::{
    coverage_label, distance_bucket, distance_bucket_labels, TestQuery, COVERAGE_CATEGORIES,
};

/// Aggregated statistics of one method over one bucket of queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketStat {
    /// Bucket label (distance range or coverage category).
    pub label: String,
    /// Number of queries answered in the bucket.
    pub count: usize,
    /// Mean Equation 1 accuracy (0–100 %).
    pub accuracy_eq1: f64,
    /// Mean Equation 4 accuracy (0–100 %).
    pub accuracy_eq4: f64,
    /// Mean online running time per query, in microseconds.
    pub mean_runtime_us: f64,
}

/// Comparison results of one routing method.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name ("L2R", "Shortest", …).
    pub name: String,
    /// Per-distance-bucket statistics (Figures 10/11/12 left columns).
    pub by_distance: Vec<BucketStat>,
    /// Per-coverage statistics (Figures 10/11/12 right columns).
    pub by_coverage: Vec<BucketStat>,
    /// Overall statistics across all answered queries.
    pub overall: BucketStat,
}

/// Internal accumulator.
#[derive(Debug, Clone, Default)]
struct Acc {
    count: usize,
    eq1: f64,
    eq4: f64,
    runtime_us: f64,
}

impl Acc {
    fn add(&mut self, eq1: f64, eq4: f64, runtime_us: f64) {
        self.count += 1;
        self.eq1 += eq1;
        self.eq4 += eq4;
        self.runtime_us += runtime_us;
    }

    fn finish(&self, label: String) -> BucketStat {
        let n = self.count.max(1) as f64;
        BucketStat {
            label,
            count: self.count,
            accuracy_eq1: self.eq1 / n * 100.0,
            accuracy_eq4: self.eq4 / n * 100.0,
            mean_runtime_us: self.runtime_us / n,
        }
    }
}

/// A routing method under evaluation.
pub enum Method<'a> {
    /// The fitted learn-to-route model.
    L2r(&'a L2r),
    /// Any baseline implementing [`BaselineRouter`].
    Baseline(&'a dyn BaselineRouter),
}

impl<'a> Method<'a> {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            Method::L2r(_) => "L2R",
            Method::Baseline(b) => b.name(),
        }
    }

    fn route(&self, net: &RoadNetwork, scratch: &mut QueryScratch, q: &TestQuery) -> Option<Path> {
        match self {
            Method::L2r(m) => m.route(scratch, q.source, q.destination).map(|r| r.path),
            Method::Baseline(b) => b.route(net, q.source, q.destination, q.driver),
        }
    }
}

/// Runs the full comparison of `methods` over `queries`.
///
/// Every method answers every query; accuracy is measured against the
/// ground-truth (driver) path with both similarity functions, and the online
/// running time is measured per query.
pub fn compare_methods(
    net: &RoadNetwork,
    methods: &[Method<'_>],
    queries: &[TestQuery],
    distance_bounds_km: &[f64],
) -> Vec<MethodResult> {
    let labels = distance_bucket_labels(distance_bounds_km);
    methods
        .iter()
        .map(|method| {
            let mut by_distance: Vec<Acc> = vec![Acc::default(); labels.len()];
            let mut by_coverage: Vec<Acc> = vec![Acc::default(); COVERAGE_CATEGORIES.len()];
            let mut overall = Acc::default();
            let mut scratch = QueryScratch::new();
            for q in queries {
                let t0 = Instant::now();
                let path = method.route(net, &mut scratch, q);
                let runtime_us = t0.elapsed().as_secs_f64() * 1e6;
                let Some(path) = path else { continue };
                let eq1 = path_similarity(net, &q.ground_truth, &path);
                let eq4 = path_similarity_jaccard(net, &q.ground_truth, &path);
                let db = distance_bucket(q.distance_km, distance_bounds_km);
                by_distance[db].add(eq1, eq4, runtime_us);
                let cb = COVERAGE_CATEGORIES
                    .iter()
                    .position(|c| *c == q.coverage)
                    .unwrap_or(0);
                by_coverage[cb].add(eq1, eq4, runtime_us);
                overall.add(eq1, eq4, runtime_us);
            }
            MethodResult {
                name: method.name().to_string(),
                by_distance: by_distance
                    .iter()
                    .zip(&labels)
                    .map(|(a, l)| a.finish(l.clone()))
                    .collect(),
                by_coverage: by_coverage
                    .iter()
                    .zip(COVERAGE_CATEGORIES)
                    .map(|(a, c)| a.finish(coverage_label(c).to_string()))
                    .collect(),
                overall: overall.finish("overall".to_string()),
            }
        })
        .collect()
}

/// The Figure 13 comparison: L2R accuracy (Equation 1) versus the external
/// reference router's band-matched accuracy, bucketed by distance and
/// coverage.
#[derive(Debug, Clone)]
pub struct ExternalComparison {
    /// Per-distance buckets: (label, L2R accuracy %, external accuracy %).
    pub by_distance: Vec<(String, f64, f64)>,
    /// Per-coverage buckets: (label, L2R accuracy %, external accuracy %).
    pub by_coverage: Vec<(String, f64, f64)>,
}

/// Runs the L2R vs external-service comparison (Figures 13/14).
pub fn compare_with_external(
    net: &RoadNetwork,
    model: &L2r,
    external: &l2r_baselines::ExternalRouter,
    queries: &[TestQuery],
    distance_bounds_km: &[f64],
) -> ExternalComparison {
    let labels = distance_bucket_labels(distance_bounds_km);
    let mut dist_acc: Vec<(Acc, Acc)> = vec![(Acc::default(), Acc::default()); labels.len()];
    let mut cov_acc: Vec<(Acc, Acc)> =
        vec![(Acc::default(), Acc::default()); COVERAGE_CATEGORIES.len()];
    let mut scratch = QueryScratch::new();
    for q in queries {
        let l2r_acc = model
            .route(&mut scratch, q.source, q.destination)
            .map(|r| path_similarity(net, &q.ground_truth, &r.path))
            .unwrap_or(0.0);
        let ext_acc = external
            .route_waypoints(net, q.source, q.destination)
            .map(|wps| band_match_similarity_10m(net, &q.ground_truth, &wps))
            .unwrap_or(0.0);
        let db = distance_bucket(q.distance_km, distance_bounds_km);
        dist_acc[db].0.add(l2r_acc, 0.0, 0.0);
        dist_acc[db].1.add(ext_acc, 0.0, 0.0);
        let cb = COVERAGE_CATEGORIES
            .iter()
            .position(|c| *c == q.coverage)
            .unwrap_or(0);
        cov_acc[cb].0.add(l2r_acc, 0.0, 0.0);
        cov_acc[cb].1.add(ext_acc, 0.0, 0.0);
    }
    ExternalComparison {
        by_distance: dist_acc
            .iter()
            .zip(&labels)
            .map(|((l, e), label)| {
                (
                    label.clone(),
                    l.finish(String::new()).accuracy_eq1,
                    e.finish(String::new()).accuracy_eq1,
                )
            })
            .collect(),
        by_coverage: cov_acc
            .iter()
            .zip(COVERAGE_CATEGORIES)
            .map(|((l, e), c)| {
                (
                    coverage_label(c).to_string(),
                    l.finish(String::new()).accuracy_eq1,
                    e.finish(String::new()).accuracy_eq1,
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset, DatasetSpec, Scale};
    use crate::queries::build_test_queries;
    use l2r_baselines::{Dom, ExternalRouter, FastestRouter, ShortestRouter, Trip};

    fn setup() -> (crate::dataset::Dataset, Vec<TestQuery>) {
        let ds = build_dataset(DatasetSpec::d1(Scale::Quick));
        let queries = build_test_queries(&ds.synthetic.net, &ds.model, &ds.test, 30);
        (ds, queries)
    }

    #[test]
    fn comparison_produces_results_for_every_method() {
        let (ds, queries) = setup();
        assert!(!queries.is_empty());
        let dom = Dom::train(&ds.synthetic.net, &ds.train);
        let trip = Trip::train(&ds.synthetic.net, &ds.train);
        let methods = vec![
            Method::L2r(&ds.model),
            Method::Baseline(&ShortestRouter),
            Method::Baseline(&FastestRouter),
            Method::Baseline(&dom),
            Method::Baseline(&trip),
        ];
        let results = compare_methods(
            &ds.synthetic.net,
            &methods,
            &queries,
            &ds.spec.distance_bounds_km,
        );
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.overall.count > 0, "{} answered no queries", r.name);
            assert!(r.overall.accuracy_eq1 >= 0.0 && r.overall.accuracy_eq1 <= 100.0);
            assert!(r.overall.accuracy_eq4 <= r.overall.accuracy_eq1 + 1e-9);
            assert!(r.overall.mean_runtime_us > 0.0);
            assert_eq!(r.by_distance.len(), ds.spec.distance_bounds_km.len());
            assert_eq!(r.by_coverage.len(), 3);
        }
        // Headline sanity check: L2R should not be clearly worse than
        // Shortest on the synthetic workload.
        let l2r = &results[0];
        let shortest = &results[1];
        assert!(l2r.overall.accuracy_eq1 >= shortest.overall.accuracy_eq1 * 0.9);
    }

    #[test]
    fn external_comparison_produces_bounded_accuracies() {
        let (ds, queries) = setup();
        let ext = ExternalRouter::with_defaults(&ds.synthetic.net);
        let cmp = compare_with_external(
            &ds.synthetic.net,
            &ds.model,
            &ext,
            &queries,
            &ds.spec.distance_bounds_km,
        );
        assert_eq!(cmp.by_distance.len(), ds.spec.distance_bounds_km.len());
        assert_eq!(cmp.by_coverage.len(), 3);
        for (_, l2r, ext) in cmp.by_distance.iter().chain(cmp.by_coverage.iter()) {
            assert!(*l2r >= 0.0 && *l2r <= 100.0);
            assert!(*ext >= 0.0 && *ext <= 100.0);
        }
    }
}
