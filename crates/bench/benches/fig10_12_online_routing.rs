//! Figures 10, 11 and 12 bench: online routing of L2R and the four baselines
//! over held-out queries — per-query latency (Figure 12) with the accuracy
//! numbers (Figures 10/11) printed alongside.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use l2r_baselines::{BaselineRouter, Dom, FastestRouter, ShortestRouter, Trip};
use l2r_bench::{bench_scale, datasets, DatasetChoice};
use l2r_core::QueryScratch;
use l2r_eval::{build_test_queries, compare_methods, Method, TestQuery};

fn bench_online_routing(c: &mut Criterion) {
    let scale = bench_scale();
    let sets = datasets(DatasetChoice::Both, scale);
    let mut group = c.benchmark_group("fig10_12_online_routing");
    group.sample_size(10);
    for ds in &sets {
        let net = &ds.synthetic.net;
        let queries: Vec<TestQuery> =
            build_test_queries(net, &ds.model, &ds.test, ds.spec.max_test_queries.min(60));
        if queries.is_empty() {
            continue;
        }
        let dom = Dom::train(net, &ds.train);
        let trip = Trip::train(net, &ds.train);

        // Per-method query throughput (the Figure 12 measurement).
        group.bench_with_input(BenchmarkId::new("L2R", ds.spec.name), &queries, |b, qs| {
            let mut scratch = QueryScratch::new();
            b.iter(|| {
                for q in qs {
                    let _ = ds.model.route(&mut scratch, q.source, q.destination);
                }
            });
        });
        let baselines: Vec<(&str, &dyn BaselineRouter)> = vec![
            ("Shortest", &ShortestRouter),
            ("Fastest", &FastestRouter),
            ("Dom", &dom),
            ("TRIP", &trip),
        ];
        for (name, router) in &baselines {
            group.bench_with_input(BenchmarkId::new(*name, ds.spec.name), &queries, |b, qs| {
                b.iter(|| {
                    for q in qs {
                        let _ = router.route(net, q.source, q.destination, q.driver);
                    }
                });
            });
        }

        // Accuracy summary (Figures 10/11) printed once per dataset.
        let methods = vec![
            Method::L2r(&ds.model),
            Method::Baseline(&ShortestRouter),
            Method::Baseline(&FastestRouter),
            Method::Baseline(&dom),
            Method::Baseline(&trip),
        ];
        let results = compare_methods(net, &methods, &queries, &ds.spec.distance_bounds_km);
        for r in &results {
            println!(
                "[fig10-12/{}] {:<8} acc-eq1={:.1}% acc-eq4={:.1}% mean-time={:.0}µs over {} queries",
                ds.spec.name,
                r.name,
                r.overall.accuracy_eq1,
                r.overall.accuracy_eq4,
                r.overall.mean_runtime_us,
                r.overall.count
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_online_routing);
criterion_main!(benches);
