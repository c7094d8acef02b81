//! Integration test of the evaluation harness: every experiment driver used
//! by the `reproduce` binary runs on a quick-scale dataset and produces
//! well-formed, report-able results.

use l2r_suite::eval::{
    build_dataset, build_test_queries, compare_methods, compare_with_external, fig6a, fig6b, fig9a,
    fig9b, offline_times, preference_recovery, report_accuracy, report_fig13, report_fig6a,
    report_fig6b, report_fig9a, report_fig9b, report_offline, report_runtime, report_table2,
    report_table4, table2, table4, DatasetSpec, Method, Scale,
};
use l2r_suite::prelude::*;

#[test]
fn all_experiments_run_on_a_quick_dataset() {
    let ds = build_dataset(DatasetSpec::d2(Scale::Quick));
    let net = &ds.synthetic.net;

    // Table II.
    let t2 = table2(
        net,
        &ds.workload.trajectories,
        ds.spec.distance_bounds_km.clone(),
    );
    assert_eq!(t2.total(), ds.workload.trajectories.len());
    assert!(report_table2(ds.spec.name, &t2).contains("Table II"));

    // Table IV.
    let t4 = table4(&ds.model, &ds.spec.area_bounds_km2);
    assert_eq!(
        t4.iter().map(|b| b.count).sum::<usize>(),
        ds.model.region_graph().num_regions()
    );
    assert!(report_table4(ds.spec.name, &t4).contains("Table IV"));

    // Figure 6.
    let f6a = fig6a(&ds.model, &ds.model.config().learn.clone());
    assert!(f6a.num_t_edges > 0);
    assert!(report_fig6a(ds.spec.name, &f6a).contains("Figure 6(a)"));
    let f6b = fig6b(&ds.model, 1000);
    assert_eq!(f6b.len(), 10);
    assert!(report_fig6b(ds.spec.name, &f6b).contains("Figure 6(b)"));

    // Figure 9.
    let f9a = fig9a(&ds.model, &ds.model.config().transfer);
    assert_eq!(f9a.len(), 4);
    assert!(report_fig9a(ds.spec.name, &f9a).contains("1X"));
    let f9b = fig9b(&ds.model, &ds.model.config().transfer, &[0.5, 0.7, 0.9]);
    assert_eq!(f9b.len(), 3);
    assert!(report_fig9b(ds.spec.name, &f9b).contains("amr"));

    // Figures 10-12.
    let queries = build_test_queries(net, &ds.model, &ds.test, 30);
    assert!(!queries.is_empty());
    let dom = Dom::train(net, &ds.train);
    let trip = Trip::train(net, &ds.train);
    let methods = vec![
        Method::L2r(&ds.model),
        Method::Baseline(&ShortestRouter),
        Method::Baseline(&FastestRouter),
        Method::Baseline(&dom),
        Method::Baseline(&trip),
    ];
    let results = compare_methods(net, &methods, &queries, &ds.spec.distance_bounds_km);
    assert_eq!(results.len(), 5);
    assert!(report_accuracy("fig10", &results, false, false).contains("L2R"));
    assert!(report_accuracy("fig11", &results, true, true).contains("InRegion"));
    assert!(report_runtime("fig12", &results, false).contains("L2R"));

    // Figure 13.
    let ext = ExternalRouter::with_defaults(net);
    let cmp = compare_with_external(net, &ds.model, &ext, &queries, &ds.spec.distance_bounds_km);
    assert!(report_fig13(ds.spec.name, &cmp).contains("External"));

    // Offline times + preference recovery.
    let offline = offline_times(&ds.model);
    assert_eq!(offline.len(), 6);
    assert!(report_offline(ds.spec.name, &offline).contains("clustering"));
    let rec = preference_recovery(&ds);
    assert!(rec.evaluated > 0);
}
