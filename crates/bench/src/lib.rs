//! # l2r-bench
//!
//! Benchmark harness of the learn-to-route reproduction.
//!
//! * `src/bin/reproduce.rs` — regenerates every table and figure of the
//!   paper's evaluation section and prints them as plain-text tables
//!   (`cargo run --release -p l2r-bench --bin reproduce -- --full` for the
//!   benchmark-scale datasets, omit `--full` for a quick run).
//! * `benches/` — one Criterion bench per table/figure measuring the cost of
//!   the corresponding pipeline stage or query workload.
//!
//! This library part only hosts shared helpers for those targets.

#![warn(missing_docs)]

pub mod scaling;
pub mod serving;

pub use scaling::{
    compile_bench_for, decode_bench_for, fit_determinism_check, peak_rss_bytes,
    transfer_sim_bench_for, CompileBench, DecodeBench, FitDeterminism, TransferSimBench,
};
pub use serving::{
    serving_bench_for, ConcurrencySweepPoint, HotSwapReport, ResilienceReport, ServingBenchDataset,
    ServingSweepPoint,
};

use std::time::Instant;

use l2r_core::{QueryScratch, RouteStrategy};
use l2r_eval::{
    build_dataset, build_test_queries, coverage_label, offline_times, Dataset, DatasetSpec,
    OfflineRow, Scale, TestQuery, COVERAGE_CATEGORIES,
};
use l2r_road_network::VertexId;

/// Which datasets an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetChoice {
    /// Only the Denmark-like data set.
    D1,
    /// Only the Chengdu-like data set.
    D2,
    /// Both data sets.
    Both,
}

/// Builds the datasets selected by `choice` at the given scale.
pub fn datasets(choice: DatasetChoice, scale: Scale) -> Vec<Dataset> {
    let mut specs = Vec::new();
    if matches!(choice, DatasetChoice::D1 | DatasetChoice::Both) {
        specs.push(DatasetSpec::d1(scale));
    }
    if matches!(choice, DatasetChoice::D2 | DatasetChoice::Both) {
        specs.push(DatasetSpec::d2(scale));
    }
    specs.into_iter().map(build_dataset).collect()
}

/// Derives the per-dataset snapshot path from a base path by inserting the
/// dataset name before the extension: `target/model.l2r` + `D1` →
/// `target/model.D1.l2r` (no extension: `target/model` → `target/model.D1`).
pub fn snapshot_path_for(base: &str, dataset: &str) -> std::path::PathBuf {
    let base = std::path::Path::new(base);
    let mut name = base
        .file_stem()
        .unwrap_or_default()
        .to_string_lossy()
        .into_owned();
    name.push('.');
    name.push_str(dataset);
    if let Some(ext) = base.extension() {
        name.push('.');
        name.push_str(&ext.to_string_lossy());
    }
    base.with_file_name(name)
}

/// Scale used by the Criterion benches: quick by default, full when the
/// `L2R_BENCH_FULL` environment variable is set (non-empty).
pub fn bench_scale() -> Scale {
    match std::env::var("L2R_BENCH_FULL") {
        Ok(v) if !v.is_empty() && v != "0" => Scale::Full,
        _ => Scale::Quick,
    }
}

// ---------------------------------------------------------------------------
// Machine-readable offline benchmark report (BENCH_offline.json)
// ---------------------------------------------------------------------------

/// Offline-pipeline measurements for one dataset: total fit wall time, the
/// per-stage breakdown, and the Dijkstra search throughput.
#[derive(Debug, Clone)]
pub struct OfflineBenchDataset {
    /// Dataset name (`D1` / `D2`).
    pub name: String,
    /// Total `L2r::fit` wall time in milliseconds.
    pub fit_ms: f64,
    /// Per-stage wall times (pipeline order).
    pub stages: Vec<OfflineRow>,
    /// Number of Dijkstra searches (all variants) the fit performed.
    pub searches: u64,
    /// Search throughput over the whole fit.
    pub searches_per_sec: f64,
    /// Region-graph sizes, for context.
    pub num_regions: usize,
    /// Number of T-edges.
    pub num_t_edges: usize,
    /// Number of B-edges.
    pub num_b_edges: usize,
}

/// The full offline benchmark report serialised to `BENCH_offline.json`.
#[derive(Debug, Clone)]
pub struct OfflineBenchReport {
    /// Scale the report was measured at (`quick`/`full`/`xl`/`xxl`).
    pub scale: Scale,
    /// Worker thread count the run used (`L2R_THREADS` or hardware).
    pub threads: usize,
    /// Peak resident set size of the run in bytes (Linux `VmHWM`; `None`
    /// elsewhere).
    pub peak_rss_bytes: Option<u64>,
    /// Naive vs radius-bounded similarity-graph timing, measured on the
    /// first dataset's fitted region graph.
    pub transfer: Option<TransferSimBench>,
    /// Cross-thread refit determinism check on the first dataset.
    pub fit_determinism: Option<FitDeterminism>,
    /// One entry per dataset.
    pub datasets: Vec<OfflineBenchDataset>,
}

/// The per-dataset report entry, from the instrumentation `build_dataset`
/// recorded around the dataset's (single) `L2r::fit` call.
pub fn offline_report_for(ds: &Dataset) -> OfflineBenchDataset {
    let fit_ms = ds.fit_time.as_secs_f64() * 1000.0;
    let searches_per_sec = if fit_ms > 0.0 {
        ds.fit_searches as f64 / (fit_ms / 1000.0)
    } else {
        0.0
    };
    let stats = ds.model.stats();
    OfflineBenchDataset {
        name: ds.spec.name.to_string(),
        fit_ms,
        stages: offline_times(&ds.model),
        searches: ds.fit_searches,
        searches_per_sec,
        num_regions: stats.num_regions,
        num_t_edges: stats.num_t_edges,
        num_b_edges: stats.num_b_edges,
    }
}

/// Renders the report as pretty-printed JSON (hand-rolled; the build
/// environment has no serde).
pub fn offline_bench_json(report: &OfflineBenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"offline_pipeline\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", report.scale.label()));
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
    if let Some(rss) = report.peak_rss_bytes {
        out.push_str(&format!("  \"peak_rss_bytes\": {rss},\n"));
    }
    if let Some(t) = &report.transfer {
        out.push_str(&format!(
            "  \"transfer_similarity\": {{ \"edges\": {}, \"pairs\": {}, \"naive_ms\": {:.3}, \"bounded_ms\": {:.3}, \"speedup\": {:.2}, \"identical\": {} }},\n",
            t.edges, t.pairs, t.naive_ms, t.bounded_ms, t.speedup, t.identical
        ));
    }
    if let Some(d) = &report.fit_determinism {
        out.push_str(&format!(
            "  \"fit_determinism\": {{ \"threads_a\": {}, \"threads_b\": {}, \"identical\": {} }},\n",
            d.threads_a, d.threads_b, d.identical
        ));
    }
    out.push_str("  \"datasets\": [\n");
    for (i, ds) in report.datasets.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", ds.name));
        out.push_str(&format!("      \"fit_ms\": {:.3},\n", ds.fit_ms));
        out.push_str("      \"stages_ms\": {\n");
        for (j, row) in ds.stages.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {:.3}{}\n",
                row.stage.replace('-', "_"),
                row.time_ms,
                if j + 1 < ds.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("      },\n");
        out.push_str(&format!("      \"searches\": {},\n", ds.searches));
        out.push_str(&format!(
            "      \"searches_per_sec\": {:.0},\n",
            ds.searches_per_sec
        ));
        out.push_str(&format!("      \"num_regions\": {},\n", ds.num_regions));
        out.push_str(&format!("      \"num_t_edges\": {},\n", ds.num_t_edges));
        out.push_str(&format!("      \"num_b_edges\": {}\n", ds.num_b_edges));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.datasets.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Machine-readable online serving benchmark report (BENCH_online.json)
// ---------------------------------------------------------------------------

/// Latency distribution of one serving path over a query workload.
#[derive(Debug, Clone, Default)]
pub struct OnlineLatencyStats {
    /// Mean per-query latency in microseconds.
    pub mean_us: f64,
    /// Median per-query latency.
    pub p50_us: f64,
    /// 95th-percentile per-query latency.
    pub p95_us: f64,
    /// 99th-percentile per-query latency.
    pub p99_us: f64,
    /// Single-threaded queries per second implied by the mean.
    pub qps: f64,
}

impl OnlineLatencyStats {
    /// Computes the stats from raw per-query samples (microseconds).
    fn from_samples(samples: &mut [f64]) -> OnlineLatencyStats {
        if samples.is_empty() {
            return OnlineLatencyStats::default();
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let mean_us = samples.iter().sum::<f64>() / samples.len() as f64;
        OnlineLatencyStats {
            mean_us,
            p50_us: percentile(samples, 50.0),
            p95_us: percentile(samples, 95.0),
            p99_us: percentile(samples, 99.0),
            qps: if mean_us > 0.0 { 1e6 / mean_us } else { 0.0 },
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-bucket latency of the two serving paths.
#[derive(Debug, Clone)]
pub struct OnlineCoverageRow {
    /// Coverage label (`InRegion` / `InOutRegion` / `OutRegion`).
    pub label: &'static str,
    /// Number of queries in the bucket.
    pub count: usize,
    /// Mean free-`route` latency (µs).
    pub free_mean_us: f64,
    /// Mean `Engine` latency (µs).
    pub prepared_mean_us: f64,
    /// `free_mean_us / prepared_mean_us` (0 when the bucket is empty).
    pub speedup: f64,
}

/// Snapshot-serving measurements: size of the persisted model and the time
/// to load it back (the warm-restart cost a server pays instead of re-running
/// `L2r::fit`).
#[derive(Debug, Clone)]
pub struct OnlineSnapshotInfo {
    /// Path the model was loaded from.
    pub path: String,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Wall time of `load_model` in milliseconds.
    pub load_ms: f64,
}

/// Online serving measurements for one dataset: the same query workload
/// answered by the free `route` function and by a compiled
/// [`l2r_core::Engine`], plus the batched `route_many` throughput.
#[derive(Debug, Clone)]
pub struct OnlineBenchDataset {
    /// Dataset name (`D1` / `D2`).
    pub name: String,
    /// Number of distinct queries in the workload.
    pub queries: usize,
    /// Timed rounds over the workload (samples = queries × rounds).
    pub rounds: usize,
    /// Whether every prepared answer was bit-identical to the free answer.
    pub equivalent: bool,
    /// One-time `Engine` compilation cost in milliseconds.
    pub prepare_ms: f64,
    /// Set when the prepared router was built from a model loaded off disk
    /// (`reproduce -- online --snapshot <path>`): snapshot size + load time.
    pub snapshot: Option<OnlineSnapshotInfo>,
    /// Latency of the free `route` function (early-exit anchors,
    /// thread-local scratch reuse, borrowed transfer centers — but still
    /// per-query scans and `concat`).
    pub free: OnlineLatencyStats,
    /// Latency of `Engine::route` through one reused scratch.
    pub prepared: OnlineLatencyStats,
    /// `free.mean_us / prepared.mean_us` — what compiling buys over the
    /// free path, same queries, same run.
    pub speedup_vs_free: f64,
    /// Wall time of one `route_many` batch over the whole workload.
    pub batch_ms: f64,
    /// Batched throughput (all `L2R_THREADS` workers together).
    pub batch_qps: f64,
    /// Per-strategy result counts of the prepared router (report order).
    pub strategies: Vec<(&'static str, usize)>,
    /// Free-vs-prepared latency per region-coverage bucket.
    pub coverage: Vec<OnlineCoverageRow>,
}

/// The full online benchmark report serialised to `BENCH_online.json`.
#[derive(Debug, Clone)]
pub struct OnlineBenchReport {
    /// Scale the report was measured at (`quick`/`full`/`xl`/`xxl`).
    pub scale: Scale,
    /// Worker thread count used by `route_many` (`L2R_THREADS` or hardware).
    pub threads: usize,
    /// Peak resident set size of the run in bytes (Linux `VmHWM`; `None`
    /// elsewhere).
    pub peak_rss_bytes: Option<u64>,
    /// Serial vs parallel `Engine` compile timing on the first dataset.
    pub compile: Option<CompileBench>,
    /// Serial vs parallel snapshot decode timing on the first dataset.
    pub decode: Option<DecodeBench>,
    /// One entry per dataset.
    pub datasets: Vec<OnlineBenchDataset>,
    /// Multi-threaded serving section (`reproduce -- serving`): thread
    /// sweep, hot-swap under load, TCP loopback.  Empty when the serving
    /// experiment did not run.
    pub serving: Vec<ServingBenchDataset>,
}

/// Measures the online serving trajectory of one dataset: per-query latency
/// of the free `route` path versus a compiled `Engine` (same
/// queries, same run — the acceptance comparison), the strategy mix, a
/// per-coverage breakdown, and the batched `route_many` throughput.
///
/// With `snapshot` set, the prepared router is built from the model *loaded
/// from that file* instead of the in-memory fit, the load time and file size
/// are recorded, and the equivalence flag additionally certifies that the
/// loaded model answers bit-identically to the never-serialized one.
///
/// # Panics
/// Panics if `snapshot` points at a missing or invalid file — callers
/// wanting a diagnostic instead should validate with
/// [`l2r_core::load_model`] first (the `reproduce` binary does).
pub fn online_bench_for(
    ds: &Dataset,
    rounds: usize,
    snapshot: Option<&std::path::Path>,
) -> OnlineBenchDataset {
    let rounds = rounds.max(1);
    let net = &ds.synthetic.net;
    let model = &ds.model;
    let queries: Vec<TestQuery> =
        build_test_queries(net, model, &ds.test, ds.spec.max_test_queries);

    let loaded: Option<(l2r_core::L2r, OnlineSnapshotInfo)> = snapshot.map(|path| {
        let bytes = std::fs::metadata(path)
            .unwrap_or_else(|e| panic!("snapshot {} is unreadable: {e}", path.display()))
            .len();
        let t0 = Instant::now();
        let loaded = l2r_core::load_model(path)
            .unwrap_or_else(|e| panic!("snapshot {} failed to load: {e}", path.display()));
        let load_ms = t0.elapsed().as_secs_f64() * 1000.0;
        (
            loaded,
            OnlineSnapshotInfo {
                path: path.display().to_string(),
                bytes,
                load_ms,
            },
        )
    });
    // Obtain an owned serving model *before* the clock starts: `prepare_ms`
    // must measure index compilation only, not the model clone/move the
    // owned `Engine` needs.
    let (serving_model, snapshot_info) = match loaded {
        Some((m, info)) => (m, Some(info)),
        None => (model.clone(), None),
    };
    let t0 = Instant::now();
    let prepared = serving_model.into_engine();
    let prepare_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let mut scratch = QueryScratch::new();

    // Warm-up pass: populates thread-local and scratch buffers, checks
    // free/prepared equivalence and records the strategy mix.
    let mut equivalent = true;
    let mut strategy_counts = vec![0usize; RouteStrategy::ALL.len()];
    for q in &queries {
        let free = model.route(q.source, q.destination);
        let fast = prepared.route(&mut scratch, q.source, q.destination);
        if free != fast {
            equivalent = false;
        }
        if let Some(r) = &fast {
            let slot = RouteStrategy::ALL
                .iter()
                .position(|s| *s == r.strategy)
                .expect("strategy is always in ALL");
            strategy_counts[slot] += 1;
        }
    }

    // Timed rounds: identical query order on both paths, each
    // implementation measured in its own full pass over the workload so no
    // path runs on caches warmed by the other answering the same query an
    // instant earlier.
    let mut free_samples: Vec<f64> = Vec::with_capacity(queries.len() * rounds);
    let mut prepared_samples: Vec<f64> = Vec::with_capacity(queries.len() * rounds);
    let mut cov_acc = vec![(0usize, 0.0f64, 0.0f64); COVERAGE_CATEGORIES.len()];
    let bucket_of = |q: &TestQuery| {
        COVERAGE_CATEGORIES
            .iter()
            .position(|c| *c == q.coverage)
            .unwrap_or(0)
    };
    for _ in 0..rounds {
        let round_base = free_samples.len();
        for q in &queries {
            let t0 = Instant::now();
            let _ = model.route(q.source, q.destination);
            free_samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        for q in &queries {
            let t0 = Instant::now();
            let _ = prepared.route(&mut scratch, q.source, q.destination);
            prepared_samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        for (i, q) in queries.iter().enumerate() {
            let cb = bucket_of(q);
            cov_acc[cb].0 += 1;
            cov_acc[cb].1 += free_samples[round_base + i];
            cov_acc[cb].2 += prepared_samples[round_base + i];
        }
    }

    // Batched serving throughput.
    let pairs: Vec<(VertexId, VertexId)> =
        queries.iter().map(|q| (q.source, q.destination)).collect();
    let t0 = Instant::now();
    let batch = prepared.route_many(&pairs);
    let batch_s = t0.elapsed().as_secs_f64();
    debug_assert_eq!(batch.len(), pairs.len());

    let free = OnlineLatencyStats::from_samples(&mut free_samples);
    let prepared_stats = OnlineLatencyStats::from_samples(&mut prepared_samples);
    OnlineBenchDataset {
        name: ds.spec.name.to_string(),
        queries: queries.len(),
        rounds,
        equivalent,
        prepare_ms,
        snapshot: snapshot_info,
        speedup_vs_free: if prepared_stats.mean_us > 0.0 {
            free.mean_us / prepared_stats.mean_us
        } else {
            0.0
        },
        free,
        prepared: prepared_stats,
        batch_ms: batch_s * 1000.0,
        batch_qps: if batch_s > 0.0 {
            pairs.len() as f64 / batch_s
        } else {
            0.0
        },
        strategies: RouteStrategy::ALL
            .iter()
            .zip(strategy_counts)
            .map(|(s, c)| (s.label(), c))
            .collect(),
        coverage: COVERAGE_CATEGORIES
            .iter()
            .zip(cov_acc)
            .map(|(c, (samples, free_us, prepared_us))| {
                let n = samples.max(1) as f64;
                let free_mean = free_us / n;
                let prepared_mean = prepared_us / n;
                // `samples` counts every timed round; report distinct queries
                // so bucket sizes line up with the workload and strategy mix.
                let count = samples / rounds;
                OnlineCoverageRow {
                    label: coverage_label(*c),
                    count,
                    free_mean_us: free_mean,
                    prepared_mean_us: prepared_mean,
                    speedup: if count > 0 && prepared_mean > 0.0 {
                        free_mean / prepared_mean
                    } else {
                        0.0
                    },
                }
            })
            .collect(),
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the online report as pretty-printed JSON (hand-rolled; the build
/// environment has no serde).
pub fn online_bench_json(report: &OnlineBenchReport) -> String {
    fn stats(out: &mut String, key: &str, s: &OnlineLatencyStats, trailing_comma: bool) {
        out.push_str(&format!(
            "      \"{}\": {{ \"mean_us\": {:.3}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \"qps\": {:.0} }}{}\n",
            key, s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.qps,
            if trailing_comma { "," } else { "" }
        ));
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"online_serving\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", report.scale.label()));
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
    if let Some(rss) = report.peak_rss_bytes {
        out.push_str(&format!("  \"peak_rss_bytes\": {rss},\n"));
    }
    if let Some(c) = &report.compile {
        out.push_str(&format!(
            "  \"engine_compile\": {{ \"threads\": {}, \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.2}, \"identical\": {} }},\n",
            c.threads, c.serial_ms, c.parallel_ms, c.speedup, c.identical
        ));
    }
    if let Some(d) = &report.decode {
        out.push_str(&format!(
            "  \"snapshot_decode\": {{ \"threads\": {}, \"bytes\": {}, \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.2}, \"identical\": {} }},\n",
            d.threads, d.bytes, d.serial_ms, d.parallel_ms, d.speedup, d.identical
        ));
    }
    out.push_str("  \"datasets\": [\n");
    for (i, ds) in report.datasets.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", ds.name));
        out.push_str(&format!("      \"queries\": {},\n", ds.queries));
        out.push_str(&format!("      \"rounds\": {},\n", ds.rounds));
        out.push_str(&format!("      \"equivalent\": {},\n", ds.equivalent));
        out.push_str(&format!("      \"prepare_ms\": {:.3},\n", ds.prepare_ms));
        if let Some(snap) = &ds.snapshot {
            // The path is the one user-controlled string in this report;
            // escape it so the hand-rolled JSON stays parseable.
            out.push_str(&format!(
                "      \"snapshot\": {{ \"path\": \"{}\", \"bytes\": {}, \"load_ms\": {:.3} }},\n",
                json_escape(&snap.path),
                snap.bytes,
                snap.load_ms
            ));
        }
        stats(&mut out, "free_route", &ds.free, true);
        stats(&mut out, "prepared", &ds.prepared, true);
        out.push_str(&format!(
            "      \"speedup_vs_free\": {:.2},\n",
            ds.speedup_vs_free
        ));
        out.push_str(&format!(
            "      \"route_many\": {{ \"batch_ms\": {:.3}, \"qps\": {:.0} }},\n",
            ds.batch_ms, ds.batch_qps
        ));
        out.push_str("      \"strategies\": {\n");
        for (j, (label, count)) in ds.strategies.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {}{}\n",
                label,
                count,
                if j + 1 < ds.strategies.len() { "," } else { "" }
            ));
        }
        out.push_str("      },\n");
        out.push_str("      \"coverage\": [\n");
        for (j, row) in ds.coverage.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"label\": \"{}\", \"count\": {}, \"free_mean_us\": {:.3}, \"prepared_mean_us\": {:.3}, \"speedup\": {:.2} }}{}\n",
                row.label,
                row.count,
                row.free_mean_us,
                row.prepared_mean_us,
                row.speedup,
                if j + 1 < ds.coverage.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < report.datasets.len() {
                ","
            } else {
                ""
            }
        ));
    }
    if report.serving.is_empty() {
        out.push_str("  ]\n}\n");
    } else {
        out.push_str("  ],\n");
        serving_json(&mut out, &report.serving);
        out.push_str("}\n");
    }
    out
}

/// Renders the `"serving"` section (multi-threaded engine sweep, hot-swap
/// under load, TCP loopback) of `BENCH_online.json`.
fn serving_json(out: &mut String, entries: &[ServingBenchDataset]) {
    out.push_str("  \"serving\": [\n");
    for (i, ds) in entries.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", ds.name));
        out.push_str(&format!("      \"queries\": {},\n", ds.queries));
        out.push_str(&format!(
            "      \"engine_build_ms\": {:.3},\n",
            ds.engine_build_ms
        ));
        out.push_str(&format!(
            "      \"scratches_created\": {},\n",
            ds.scratches_created
        ));
        out.push_str("      \"sweep\": [\n");
        for (j, p) in ds.sweep.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"threads\": {}, \"queries\": {}, \"wall_ms\": {:.3}, \"qps\": {:.0}, \"mean_us\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3} }}{}\n",
                p.threads,
                p.queries,
                p.wall_ms,
                p.qps,
                p.mean_us,
                p.p50_us,
                p.p99_us,
                if j + 1 < ds.sweep.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n");
        out.push_str(&format!(
            "      \"single_thread_qps\": {:.0},\n",
            ds.single_thread_qps
        ));
        out.push_str(&format!("      \"peak_qps\": {:.0},\n", ds.peak_qps));
        out.push_str(&format!("      \"scaling\": {:.2},\n", ds.scaling));
        let hs = &ds.hot_swap;
        out.push_str(&format!(
            "      \"hot_swap\": {{ \"worker_threads\": {}, \"reloads\": {}, \"queries\": {}, \"failed\": {}, \"steady_p99_us\": {:.3}, \"swap_p99_us\": {:.3}, \"p99_spike_ratio\": {:.2} }},\n",
            hs.worker_threads,
            hs.reloads,
            hs.queries,
            hs.failed,
            hs.steady_p99_us,
            hs.swap_p99_us,
            hs.p99_spike_ratio
        ));
        let tcp = &ds.tcp;
        out.push_str(&format!(
            "      \"tcp\": {{ \"connections\": {}, \"requests\": {}, \"errors\": {}, \"qps\": {:.0}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"reload_generation\": {} }},\n",
            tcp.connections,
            tcp.requests,
            tcp.errors,
            tcp.qps,
            tcp.p50_us,
            tcp.p99_us,
            tcp.reload_generation
        ));
        out.push_str("      \"concurrency_sweep\": [\n");
        for (j, p) in ds.concurrency.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"protocol\": \"{}\", \"connections\": {}, \"pipeline\": {}, \"requests\": {}, \"errors\": {}, \"busy_retries\": {}, \"qps\": {:.0}, \"p50_us\": {:.3}, \"p99_us\": {:.3} }}{}\n",
                p.protocol,
                p.connections,
                p.pipeline,
                p.requests,
                p.errors,
                p.busy_retries,
                p.qps,
                p.p50_us,
                p.p99_us,
                if j + 1 < ds.concurrency.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n");
        let rs = &ds.resilience;
        out.push_str("      \"resilience\": {\n");
        out.push_str(&format!(
            "        \"connections\": {}, \"slow_connections\": {}, \"requests\": {}, \"answered\": {}, \"noroutes\": {},\n",
            rs.connections, rs.slow_connections, rs.requests, rs.answered, rs.noroutes
        ));
        out.push_str(&format!(
            "        \"internal_errors\": {}, \"deadline_exceeded\": {}, \"other_errors\": {}, \"busy_retries\": {},\n",
            rs.internal_errors, rs.deadline_exceeded, rs.other_errors, rs.busy_retries
        ));
        out.push_str(&format!(
            "        \"qps\": {:.0}, \"p50_us\": {:.3}, \"p99_us\": {:.3},\n",
            rs.qps, rs.p50_us, rs.p99_us
        ));
        out.push_str(&format!(
            "        \"panics_injected\": {}, \"panics_caught\": {}, \"workers_respawned\": {}, \"idle_reaped\": {}, \"write_stalls\": {}, \"open_connections_after\": {},\n",
            rs.panics_injected,
            rs.panics_caught,
            rs.workers_respawned,
            rs.idle_reaped,
            rs.write_stalls,
            rs.open_connections_after
        ));
        out.push_str(&format!(
            "        \"invariant_violations\": [{}]\n",
            rs.invariant_violations
                .iter()
                .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("      },\n");
        let lc = &ds.lifecycle;
        out.push_str("      \"lifecycle\": {\n");
        out.push_str(&format!(
            "        \"publishes\": {}, \"publish_mean_ms\": {:.3}, \"publish_max_ms\": {:.3},\n",
            lc.publishes, lc.publish_mean_ms, lc.publish_max_ms
        ));
        out.push_str(&format!(
            "        \"store_reloads\": {}, \"rollbacks\": {}, \"swap_failed\": {}, \"canary_rejections\": {},\n",
            lc.store_reloads, lc.rollbacks, lc.swap_failed, lc.canary_rejections
        ));
        out.push_str(&format!(
            "        \"crash_points\": {}, \"crash_recoveries\": {},\n",
            lc.crash_points, lc.crash_recoveries
        ));
        out.push_str(&format!(
            "        \"invariant_violations\": [{}]\n",
            lc.invariant_violations
                .iter()
                .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("      }\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_choice_builds_the_requested_sets() {
        let only_d1 = datasets(DatasetChoice::D1, Scale::Quick);
        assert_eq!(only_d1.len(), 1);
        assert_eq!(only_d1[0].spec.name, "D1");
    }

    #[test]
    fn snapshot_paths_embed_the_dataset_name() {
        assert_eq!(
            snapshot_path_for("target/model.l2r", "D1"),
            std::path::PathBuf::from("target/model.D1.l2r")
        );
        assert_eq!(
            snapshot_path_for("model", "D2"),
            std::path::PathBuf::from("model.D2")
        );
    }

    #[test]
    fn bench_scale_defaults_to_quick() {
        // Read-only on purpose: mutating the environment here would race
        // with concurrently running tests whose fits read `L2R_THREADS`
        // (concurrent getenv/unsetenv is undefined behaviour on glibc).
        if std::env::var("L2R_BENCH_FULL").is_ok() {
            return;
        }
        assert_eq!(bench_scale(), Scale::Quick);
    }

    #[test]
    fn offline_report_measures_a_fit_and_renders_json() {
        let ds = &datasets(DatasetChoice::D1, Scale::Quick)[0];
        let entry = offline_report_for(ds);
        assert_eq!(entry.name, "D1");
        assert!(entry.fit_ms > 0.0);
        assert!(entry.searches > 0, "a fit performs Dijkstra searches");
        assert!(entry.searches_per_sec > 0.0);
        assert_eq!(entry.stages.len(), 5);
        let report = OfflineBenchReport {
            scale: Scale::Quick,
            threads: l2r_par::max_threads(),
            peak_rss_bytes: peak_rss_bytes(),
            transfer: Some(transfer_sim_bench_for(ds)),
            fit_determinism: None,
            datasets: vec![entry],
        };
        let json = offline_bench_json(&report);
        assert!(json.contains("\"bench\": \"offline_pipeline\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"transfer_similarity\""));
        assert!(json.contains("\"identical\": true"));
        if report.peak_rss_bytes.is_some() {
            assert!(json.contains("\"peak_rss_bytes\""));
        }
        assert!(json.contains("\"name\": \"D1\""));
        assert!(json.contains("\"preference_learning\""));
        assert!(json.contains("\"searches_per_sec\""));
        // Balanced braces / brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn online_report_measures_serving_and_renders_json() {
        let ds = &datasets(DatasetChoice::D1, Scale::Quick)[0];
        let entry = online_bench_for(ds, 1, None);
        assert_eq!(entry.name, "D1");
        assert!(entry.snapshot.is_none());
        assert!(entry.queries > 0);
        assert!(
            entry.equivalent,
            "prepared answers must be bit-identical to the free route"
        );
        assert!(entry.free.mean_us > 0.0);
        assert!(entry.prepared.mean_us > 0.0);
        assert!(entry.prepared.p50_us <= entry.prepared.p99_us);
        assert!(entry.batch_qps > 0.0);
        let answered: usize = entry.strategies.iter().map(|(_, c)| c).sum();
        assert!(answered > 0, "the strategy mix covers answered queries");
        assert_eq!(entry.coverage.len(), 3);
        assert_eq!(
            entry.coverage.iter().map(|r| r.count).sum::<usize>(),
            entry.queries,
            "coverage buckets partition the distinct queries"
        );

        let report = OnlineBenchReport {
            scale: Scale::Quick,
            threads: l2r_par::max_threads(),
            peak_rss_bytes: peak_rss_bytes(),
            compile: Some(compile_bench_for(ds)),
            decode: Some(decode_bench_for(ds)),
            datasets: vec![entry],
            serving: Vec::new(),
        };
        let json = online_bench_json(&report);
        assert!(json.contains("\"bench\": \"online_serving\""));
        assert!(json.contains("\"engine_compile\""));
        assert!(json.contains("\"snapshot_decode\""));
        assert!(json.contains("\"free_route\""));
        assert!(json.contains("\"prepared\""));
        assert!(json.contains("\"speedup_vs_free\""));
        assert!(json.contains("\"InnerRegionTrajectory\""));
        assert!(json.contains("\"InRegion\""));
        assert!(
            !json.contains("\"serving\""),
            "no serving section when empty"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn serving_section_renders_valid_json() {
        // Synthetic entry: the JSON layer is exercised without paying for a
        // real multi-threaded benchmark run here (`serving_bench_for` has its
        // own end-to-end test below).
        let entry = ServingBenchDataset {
            name: "D1".to_string(),
            queries: 100,
            engine_build_ms: 12.5,
            scratches_created: 4,
            sweep: vec![
                serving::ServingSweepPoint {
                    threads: 1,
                    queries: 1000,
                    answered: 990,
                    wall_ms: 10.0,
                    qps: 100_000.0,
                    mean_us: 9.5,
                    p50_us: 8.0,
                    p99_us: 30.0,
                },
                serving::ServingSweepPoint {
                    threads: 4,
                    queries: 4000,
                    answered: 3960,
                    wall_ms: 12.0,
                    qps: 330_000.0,
                    mean_us: 11.0,
                    p50_us: 9.0,
                    p99_us: 42.0,
                },
            ],
            single_thread_qps: 100_000.0,
            peak_qps: 330_000.0,
            scaling: 3.3,
            hot_swap: HotSwapReport {
                worker_threads: 4,
                reloads: 5,
                queries: 123_456,
                failed: 0,
                steady_p99_us: 30.0,
                swap_p99_us: 60.0,
                p99_spike_ratio: 2.0,
            },
            tcp: serving::TcpReport {
                connections: 2,
                requests: 2000,
                errors: 0,
                qps: 25_000.0,
                p50_us: 70.0,
                p99_us: 250.0,
                reload_generation: 2,
            },
            concurrency: vec![
                serving::ConcurrencySweepPoint {
                    protocol: "ascii".to_string(),
                    connections: 512,
                    pipeline: 1,
                    requests: 32_768,
                    errors: 0,
                    busy_retries: 0,
                    qps: 70_000.0,
                    p50_us: 120.0,
                    p99_us: 900.0,
                },
                serving::ConcurrencySweepPoint {
                    protocol: "binary".to_string(),
                    connections: 512,
                    pipeline: 32,
                    requests: 32_768,
                    errors: 0,
                    busy_retries: 3,
                    qps: 400_000.0,
                    p50_us: 80.0,
                    p99_us: 700.0,
                },
            ],
            resilience: serving::ResilienceReport {
                connections: 20,
                slow_connections: 2,
                requests: 4000,
                answered: 3950,
                noroutes: 10,
                internal_errors: 40,
                deadline_exceeded: 0,
                other_errors: 0,
                busy_retries: 7,
                qps: 50_000.0,
                p50_us: 90.0,
                p99_us: 1500.0,
                panics_injected: 40,
                panics_caught: 40,
                workers_respawned: 0,
                idle_reaped: 0,
                write_stalls: 0,
                open_connections_after: 0,
                invariant_violations: vec!["example \"violation\"".to_string()],
            },
            lifecycle: serving::LifecycleReport {
                publishes: 5,
                publish_mean_ms: 1.25,
                publish_max_ms: 3.0,
                store_reloads: 3,
                rollbacks: 3,
                swap_failed: 0,
                canary_rejections: 1,
                crash_points: 9,
                crash_recoveries: 9,
                invariant_violations: Vec::new(),
            },
        };
        let report = OnlineBenchReport {
            scale: Scale::Quick,
            threads: 4,
            peak_rss_bytes: None,
            compile: None,
            decode: None,
            datasets: Vec::new(),
            serving: vec![entry],
        };
        let json = online_bench_json(&report);
        assert!(json.contains("\"serving\": ["), "{json}");
        assert!(json.contains("\"sweep\": ["), "{json}");
        assert!(json.contains("\"hot_swap\""), "{json}");
        assert!(json.contains("\"failed\": 0"), "{json}");
        assert!(json.contains("\"tcp\""), "{json}");
        assert!(json.contains("\"single_thread_qps\""), "{json}");
        assert!(json.contains("\"concurrency_sweep\": ["), "{json}");
        assert!(json.contains("\"protocol\": \"binary\""), "{json}");
        assert!(json.contains("\"busy_retries\": 3"), "{json}");
        assert!(json.contains("\"resilience\": {"), "{json}");
        assert!(json.contains("\"panics_injected\": 40"), "{json}");
        assert!(json.contains("\"lifecycle\": {"), "{json}");
        assert!(json.contains("\"canary_rejections\": 1"), "{json}");
        assert!(json.contains("\"crash_recoveries\": 9"), "{json}");
        // Violation strings are JSON-escaped.
        assert!(
            json.contains("\"invariant_violations\": [\"example \\\"violation\\\"\"]"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn serving_bench_runs_end_to_end_on_the_quick_dataset() {
        let ds = &datasets(DatasetChoice::D1, Scale::Quick)[0];
        let entry = serving_bench_for(ds, 1, None, &[1, 8]);
        assert_eq!(entry.name, "D1");
        assert!(entry.queries > 0);
        assert!(!entry.sweep.is_empty());
        assert!(
            entry.sweep.iter().any(|p| p.threads > 1),
            "sweep spans threads"
        );
        for p in &entry.sweep {
            assert!(p.qps > 0.0);
            assert!(p.p50_us <= p.p99_us);
        }
        assert!(entry.single_thread_qps > 0.0);
        assert!(entry.peak_qps >= entry.single_thread_qps);
        // The pool never creates more scratches than the widest sweep point.
        let max_threads = entry.sweep.iter().map(|p| p.threads).max().unwrap();
        assert!(entry.scratches_created <= max_threads);
        // Hot-swap under load: reloads happened, zero failed queries.
        assert!(entry.hot_swap.reloads >= 5);
        assert!(entry.hot_swap.queries > 0);
        assert_eq!(
            entry.hot_swap.failed, 0,
            "no query may ever observe a half-swapped model"
        );
        // TCP loopback: real requests flowed, the live reload bumped the
        // generation past the in-process swaps.
        assert!(entry.tcp.requests > 0);
        assert_eq!(entry.tcp.errors, 0);
        assert!(entry.tcp.reload_generation >= 2);
        // Concurrency sweep: both protocols at every connection count,
        // nothing lost at any point.
        assert_eq!(
            entry.concurrency.len(),
            4,
            "2 connection counts x 2 protocols"
        );
        for p in &entry.concurrency {
            assert!(p.requests > 0);
            assert_eq!(
                p.errors, 0,
                "{} sweep at {} connections",
                p.protocol, p.connections
            );
            assert!(p.qps > 0.0);
        }
        assert!(entry
            .concurrency
            .iter()
            .any(|p| p.protocol == "binary" && p.pipeline > 1));
        // Resilience: faults were genuinely injected, the error taxonomy
        // accounts for all of them, and every invariant held.
        let rs = &entry.resilience;
        assert!(rs.requests > 0);
        assert!(rs.qps > 0.0);
        assert!(
            rs.panics_injected > 0,
            "1% of {} requests must inject at least one panic",
            rs.requests
        );
        assert_eq!(rs.panics_caught, rs.panics_injected);
        assert_eq!(rs.internal_errors, rs.panics_injected);
        assert_eq!(rs.workers_respawned, 0);
        assert_eq!(rs.other_errors, 0);
        assert_eq!(rs.open_connections_after, 0);
        assert_eq!(
            rs.invariant_violations,
            Vec::<String>::new(),
            "resilience invariants must hold"
        );
        // Lifecycle: durable publishes happened, swaps + rollbacks were
        // exercised under load, the poisoned snapshot was rejected, and
        // every simulated crash point recovered to a durable generation.
        let lc = &entry.lifecycle;
        assert_eq!(lc.publishes, 5);
        assert!(lc.publish_mean_ms > 0.0 && lc.publish_max_ms >= lc.publish_mean_ms);
        assert_eq!(lc.store_reloads, 3);
        assert_eq!(lc.rollbacks, 3);
        assert_eq!(lc.swap_failed, 0, "no query may diverge across a swap");
        assert_eq!(
            lc.canary_rejections, 1,
            "poisoned snapshot must be rejected"
        );
        assert!(
            lc.crash_points > 0,
            "the crash matrix must cover real fs ops"
        );
        assert_eq!(lc.crash_recoveries, lc.crash_points);
        assert_eq!(
            lc.invariant_violations,
            Vec::<String>::new(),
            "lifecycle invariants must hold"
        );
    }

    #[test]
    fn online_report_can_serve_from_a_snapshot() {
        let ds = &datasets(DatasetChoice::D1, Scale::Quick)[0];
        let path = std::env::temp_dir().join(format!(
            "l2r-bench-snapshot-test-{}.l2r",
            std::process::id()
        ));
        let saved = l2r_core::save_model(&ds.model, &path).expect("save");
        let entry = online_bench_for(ds, 1, Some(&path));
        std::fs::remove_file(&path).ok();
        let snap = entry.snapshot.as_ref().expect("snapshot info recorded");
        assert_eq!(snap.bytes, saved);
        assert!(snap.load_ms > 0.0);
        assert!(
            entry.equivalent,
            "a loaded model must serve bit-identically to the in-memory fit"
        );
        let report = OnlineBenchReport {
            scale: Scale::Quick,
            threads: l2r_par::max_threads(),
            peak_rss_bytes: None,
            compile: None,
            decode: None,
            datasets: vec![entry],
            serving: Vec::new(),
        };
        let json = online_bench_json(&report);
        assert!(json.contains("\"snapshot\""));
        assert!(json.contains("\"load_ms\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escape_handles_special_characters() {
        assert_eq!(json_escape("target/model.l2r"), "target/model.l2r");
        assert_eq!(json_escape(r"C:\models\a.l2r"), r"C:\\models\\a.l2r");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[42.0], 50.0), 42.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
