//! # l2r-eval
//!
//! The evaluation harness of the learn-to-route reproduction: everything
//! needed to regenerate the tables and figures of Section VII.
//!
//! * [`dataset`] — the D1-like and D2-like experiment datasets (synthetic
//!   network + workload + temporal split + fitted model) at quick and full
//!   scales;
//! * [`queries`] — held-out trajectories turned into evaluation queries with
//!   distance and region-coverage buckets;
//! * [`compare`] — the multi-method accuracy / running-time comparison behind
//!   Figures 10–13;
//! * [`experiments`] — one driver per table/figure (Table II, Table IV,
//!   Figure 6(a)/(b), Figure 9(a)/(b), offline times, preference recovery);
//! * [`report`] — plain-text rendering of every result.

#![warn(missing_docs)]

pub mod compare;
pub mod dataset;
pub mod experiments;
pub mod queries;
pub mod report;

pub use compare::{
    compare_methods, compare_with_external, BucketStat, ExternalComparison, Method, MethodResult,
};
pub use dataset::{build_dataset, Dataset, DatasetSpec, Scale};
pub use experiments::{
    fig6a, fig6b, fig9a, fig9b, offline_times, preference_recovery, table2, table4, Fig6aResult,
    Fig6bBucket, Fig9aPoint, Fig9bPoint, OfflineRow, RecoveryResult,
};
pub use queries::{
    build_test_queries, coverage_label, distance_bucket, distance_bucket_labels, TestQuery,
    COVERAGE_CATEGORIES,
};
pub use report::{
    report_accuracy, report_fig13, report_fig6a, report_fig6b, report_fig9a, report_fig9b,
    report_offline, report_runtime, report_table2, report_table4,
};
