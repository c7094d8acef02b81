//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! # quick run (small datasets, seconds):
//! cargo run --release -p l2r-bench --bin reproduce
//! # benchmark-scale run (the numbers recorded in EXPERIMENTS.md):
//! cargo run --release -p l2r-bench --bin reproduce -- --full
//! # a single experiment:
//! cargo run --release -p l2r-bench --bin reproduce -- fig10
//! ```
//!
//! The `offline` experiment additionally writes a machine-readable
//! `BENCH_offline.json` (per-stage wall times, thread count,
//! searches/second, measured around the single `L2r::fit` performed while
//! building each dataset) to `target/BENCH_offline.json` — override the
//! path with `L2R_BENCH_JSON=<path>`.  CI uploads this file as an artifact
//! so the offline-performance trajectory is tracked across commits; the
//! copy checked in at the repo root is refreshed deliberately with
//! `L2R_BENCH_JSON=BENCH_offline.json ... -- --full offline`.
//!
//! The `fit` experiment persists each dataset's fitted model as a versioned
//! binary snapshot (`-- fit --snapshot target/model.l2r` writes
//! `target/model.D1.l2r` / `target/model.D2.l2r`), and `online --snapshot`
//! serves from those files instead of the in-process fit — recording the
//! snapshot size and load time in `BENCH_online.json` and verifying that
//! the loaded model answers bit-identically to the never-serialized one.
//! Run both in one invocation with `-- fit online --snapshot <path>`.
//!
//! The `online` experiment does the same for the serving path: it answers
//! the held-out query workload with both the free `route` function and a
//! compiled `PreparedRouter` (same run, same queries — a built-in
//! comparison mode), then writes `BENCH_online.json` (p50/p95/p99 latency,
//! queries/sec, strategy mix, per-coverage breakdown) to
//! `target/BENCH_online.json` — override with
//! `L2R_BENCH_ONLINE_JSON=<path>`.  The checked-in copy is refreshed with
//! `L2R_BENCH_ONLINE_JSON=BENCH_online.json ... -- --full online`.

use l2r_baselines::{Dom, ExternalRouter, FastestRouter, ShortestRouter, Trip};
use l2r_bench::{
    compile_bench_for, datasets, decode_bench_for, fit_determinism_check, offline_bench_json,
    offline_report_for, online_bench_for, online_bench_json, peak_rss_bytes, serving_bench_for,
    snapshot_path_for, transfer_sim_bench_for, DatasetChoice, OfflineBenchReport,
    OnlineBenchDataset, OnlineBenchReport, ServingBenchDataset,
};
use l2r_eval::{
    build_test_queries, compare_methods, compare_with_external, fig6a, fig6b, fig9a, fig9b,
    offline_times, preference_recovery, report_accuracy, report_fig13, report_fig6a, report_fig6b,
    report_fig9a, report_fig9b, report_offline, report_runtime, report_table2, report_table4,
    table2, table4, Dataset, Method, Scale,
};

/// Every experiment name the CLI accepts; anything else is an error (the
/// historical behaviour of silently ignoring typos meant a misspelled
/// experiment "passed" by doing nothing).
const EXPERIMENTS: &[&str] = &[
    "all", "analyze", "fit", "table2", "table4", "fig6a", "fig6b", "fig9a", "fig9b", "fig10",
    "fig11", "fig12", "fig13", "offline", "online", "serving", "recovery",
];

fn usage(error: &str) -> ! {
    eprintln!(
        "error: {error}

usage: reproduce [--scale S] [--full] [--threads N] [--snapshot <path>] [experiment ...]

flags:
  --scale S          dataset scale: quick, full, xl (~100k vertices) or xxl
                     (~500k vertices); xl/xxl run the D1 axis only (default: quick)
  --full             shorthand for --scale full
  --threads N        pin the worker thread count (overrides L2R_THREADS)
  --snapshot <path>  per-dataset snapshot base path (fit writes, online/serving read)

experiments (default: all):
  {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut full = false;
    let mut scale_arg: Option<Scale> = None;
    let mut snapshot_base: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--scale" => match args.next().as_deref().and_then(Scale::parse) {
                Some(s) => scale_arg = Some(s),
                None => usage("--scale requires one of: quick, full, xl, xxl"),
            },
            "--snapshot" => match args.next() {
                Some(path) => snapshot_base = Some(path),
                None => usage("--snapshot requires a path argument"),
            },
            "--threads" => match args.next().and_then(|v| v.trim().parse::<usize>().ok()) {
                // Feed the CLI value through the same injectable policy the
                // L2R_THREADS variable uses; the pin takes precedence.
                Some(n) if n >= 1 => l2r_par::set_thread_override(Some(n)),
                _ => usage("--threads requires a positive integer"),
            },
            other if other.starts_with("--") => {
                usage(&format!("unknown flag `{other}`"));
            }
            other => {
                if !EXPERIMENTS.contains(&other) {
                    usage(&format!("unknown experiment `{other}`"));
                }
                wanted.push(other.to_string());
            }
        }
    }
    // `--scale` wins over the legacy `--full` shorthand when both appear.
    let scale = scale_arg.unwrap_or(if full { Scale::Full } else { Scale::Quick });
    let full = scale != Scale::Quick;
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let run = |name: &str| run_all || wanted.iter().any(|w| w == name);
    if wanted.iter().any(|w| w == "fit") && snapshot_base.is_none() {
        eprintln!("note: the `fit` experiment writes snapshots only with --snapshot <path>");
    }

    println!("learn-to-route reproduction — scale: {}\n", scale.label());

    // Dataset-independent, so it runs before the expensive builds: a
    // violation fails fast instead of after minutes of fitting.
    if run("analyze") {
        run_analyze();
    }

    // The country-scale axis is exercised through D1 only: the XL/XXL
    // presets are Denmark-derived, and one dataset keeps the wall time of a
    // run that fits a 100k+-vertex network inside a benchmark budget.
    let choice = if matches!(scale, Scale::Xl | Scale::Xxl) {
        DatasetChoice::D1
    } else {
        DatasetChoice::Both
    };
    let sets = datasets(choice, scale);
    let mut offline_entries = Vec::new();
    let mut online_entries = Vec::new();
    let mut serving_entries: Vec<ServingBenchDataset> = Vec::new();
    for ds in &sets {
        println!(
            "=== dataset {} — {} vertices, {} edges, {} trajectories ({} train / {} test), {} regions ===\n",
            ds.spec.name,
            ds.synthetic.net.num_vertices(),
            ds.synthetic.net.num_edges(),
            ds.workload.trajectories.len(),
            ds.train.len(),
            ds.test.len(),
            ds.model.stats().num_regions
        );
        if run("fit") {
            if let Some(base) = &snapshot_base {
                run_fit_snapshot(ds, base);
            }
        }
        if run("table2") {
            run_table2(ds);
        }
        if run("table4") {
            run_table4(ds);
        }
        if run("fig6a") {
            run_fig6a(ds);
        }
        if run("fig6b") {
            run_fig6b(ds);
        }
        if run("fig9a") {
            run_fig9a(ds);
        }
        if run("fig9b") {
            run_fig9b(ds);
        }
        if run("fig10") || run("fig11") || run("fig12") {
            run_fig10_11_12(ds);
        }
        if run("fig13") {
            run_fig13(ds);
        }
        if run("offline") {
            run_offline(ds);
            offline_entries.push(offline_report_for(ds));
        }
        if run("online") {
            online_entries.push(run_online(
                ds,
                if full { 3 } else { 2 },
                snapshot_base.as_deref(),
            ));
        }
        if run("serving") {
            serving_entries.push(run_serving(
                ds,
                if full { 3 } else { 2 },
                snapshot_base.as_deref(),
                full,
            ));
        }
        if run("recovery") {
            run_recovery(ds);
        }
    }

    if !offline_entries.is_empty() {
        let first = &sets[0];
        // Scale-axis instrumentation, both measured on the first dataset:
        // the naive-vs-bounded similarity comparison is cheap everywhere,
        // but the determinism check refits the dataset, so the full scale —
        // whose determinism the quick and xl axes already cover — skips it
        // rather than double a multi-minute two-dataset run.
        let transfer = transfer_sim_bench_for(first);
        println!(
            "## Transfer similarity ({}) — {} edges, {} pairs: naive {:.1} ms, radius-bounded {:.1} ms ({:.2}x), identical: {}\n",
            first.spec.name,
            transfer.edges,
            transfer.pairs,
            transfer.naive_ms,
            transfer.bounded_ms,
            transfer.speedup,
            transfer.identical
        );
        let fit_determinism = if scale == Scale::Full {
            None
        } else {
            let d = fit_determinism_check(first);
            println!(
                "## Fit determinism ({}) — {} threads vs {} threads: {}\n",
                first.spec.name,
                d.threads_a,
                d.threads_b,
                if d.identical {
                    "bit-identical snapshots"
                } else {
                    "SNAPSHOTS DIVERGED"
                }
            );
            Some(d)
        };
        let report = OfflineBenchReport {
            scale,
            threads: l2r_par::max_threads(),
            peak_rss_bytes: peak_rss_bytes(),
            transfer: Some(transfer),
            fit_determinism,
            datasets: offline_entries,
        };
        // Default under target/ so casual quick-scale runs do not clobber
        // the full-scale report checked in at the repo root.
        let path = std::env::var("L2R_BENCH_JSON")
            .unwrap_or_else(|_| "target/BENCH_offline.json".to_string());
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::write(&path, offline_bench_json(&report)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
        // Correctness gates hold at every scale: the bounded similarity
        // builder and a refit under a different thread count must both be
        // bit-identical, or the whole offline report is untrustworthy.
        if let Some(t) = &report.transfer {
            if !t.identical {
                eprintln!(
                    "ERROR: the radius-bounded similarity builder diverged from \
                     the naive scan — transferred preferences would change"
                );
                std::process::exit(1);
            }
            // The transfer speedup is algorithmic (pairs outside the
            // distance radius skip the Jaccard entirely), so it is gated
            // even on a single-core host — but only at country scale, where
            // the similarity graph is big enough for the asymptotics to
            // dominate the sort overhead.
            if matches!(scale, Scale::Xl | Scale::Xxl) && t.speedup < 2.0 {
                eprintln!(
                    "ERROR: radius-bounded transfer is only {:.2}x faster than \
                     the naive scan at scale {} (required: >= 2x)",
                    t.speedup,
                    scale.label()
                );
                std::process::exit(1);
            }
        }
        if let Some(d) = &report.fit_determinism {
            if !d.identical {
                eprintln!(
                    "ERROR: fitting with {} vs {} worker threads produced \
                     different snapshots — the pipeline lost determinism",
                    d.threads_a, d.threads_b
                );
                std::process::exit(1);
            }
        }
    }

    if !online_entries.is_empty() || !serving_entries.is_empty() {
        let first = &sets[0];
        let compile = compile_bench_for(first);
        println!(
            "## Engine compile ({}) — serial {:.1} ms vs {:.1} ms on {} thread(s) ({:.2}x), identical: {}\n",
            first.spec.name,
            compile.serial_ms,
            compile.parallel_ms,
            compile.threads,
            compile.speedup,
            compile.identical
        );
        let decode = decode_bench_for(first);
        println!(
            "## Snapshot decode ({}) — {:.1} KiB: serial {:.1} ms vs {:.1} ms on {} thread(s) ({:.2}x), identical: {}\n",
            first.spec.name,
            decode.bytes as f64 / 1024.0,
            decode.serial_ms,
            decode.parallel_ms,
            decode.threads,
            decode.speedup,
            decode.identical
        );
        let report = OnlineBenchReport {
            scale,
            threads: l2r_par::max_threads(),
            peak_rss_bytes: peak_rss_bytes(),
            compile: Some(compile),
            decode: Some(decode),
            datasets: online_entries,
            serving: serving_entries,
        };
        let path = std::env::var("L2R_BENCH_ONLINE_JSON")
            .unwrap_or_else(|_| "target/BENCH_online.json".to_string());
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::write(&path, online_bench_json(&report)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
        // A speedup comparing non-identical answers is meaningless: fail the
        // run (and thereby CI) instead of silently publishing it.
        let broken: Vec<&str> = report
            .datasets
            .iter()
            .filter(|d| !d.equivalent)
            .map(|d| d.name.as_str())
            .collect();
        if !broken.is_empty() {
            eprintln!(
                "ERROR: prepared/free answers diverged on {} — \
                 the online report is invalid",
                broken.join(", ")
            );
            std::process::exit(1);
        }
        // An engine whose answers depend on the compile's thread count has
        // lost determinism, whatever the scale or core count.
        if let Some(c) = &report.compile {
            if !c.identical {
                eprintln!(
                    "ERROR: engines compiled on 1 vs {} worker threads disagree \
                     (connector count or routes)",
                    c.threads
                );
                std::process::exit(1);
            }
        }
        // A parallel decode that does not round-trip to the exact snapshot
        // bytes is corruption, whatever the scale or core count.
        if let Some(d) = &report.decode {
            if !d.identical {
                eprintln!(
                    "ERROR: the parallel snapshot decode did not round-trip to \
                     the original bytes"
                );
                std::process::exit(1);
            }
        }
        // The compile/decode *speedups* only materialise with real cores
        // underneath, so they gate the run at country scale on >= 8 worker
        // threads and are recorded (not enforced) everywhere else.
        if matches!(scale, Scale::Xl | Scale::Xxl) {
            if l2r_par::max_threads() >= 8 {
                if let Some(c) = &report.compile {
                    if c.speedup < 2.0 {
                        eprintln!(
                            "ERROR: parallel engine compile is only {:.2}x faster \
                             than serial on {} threads (required: >= 2x)",
                            c.speedup, c.threads
                        );
                        std::process::exit(1);
                    }
                }
                if let Some(d) = &report.decode {
                    if d.parallel_ms >= d.serial_ms {
                        eprintln!(
                            "ERROR: parallel snapshot decode ({:.1} ms) is not \
                             faster than serial ({:.1} ms) on {} threads",
                            d.parallel_ms, d.serial_ms, d.threads
                        );
                        std::process::exit(1);
                    }
                }
            } else {
                println!(
                    "note: compile/decode parallel speedups recorded but not \
                     gated on {} worker thread(s) (< 8)",
                    l2r_par::max_threads()
                );
            }
        }
        // A hot-swap that failed even one query means the registry exposed a
        // half-swapped or missing model, and TCP `ERR` responses mean the
        // wire path misbehaved: fail the run, not just the number.
        let swap_broken: Vec<&str> = report
            .serving
            .iter()
            .filter(|d| {
                d.hot_swap.failed > 0
                    || d.tcp.errors > 0
                    || d.concurrency.iter().any(|p| p.errors > 0)
            })
            .map(|d| d.name.as_str())
            .collect();
        if !swap_broken.is_empty() {
            eprintln!(
                "ERROR: hot-swap, TCP serving or the concurrency sweep failed \
                 requests on {} — the serving report is invalid",
                swap_broken.join(", ")
            );
            std::process::exit(1);
        }
        // The resilience run is a pass/fail harness: any violated
        // fault-tolerance invariant (panic accounting off, a dead worker,
        // a leaked connection) invalidates the serving report.
        let mut resilience_broken = false;
        for d in &report.serving {
            for violation in &d.resilience.invariant_violations {
                eprintln!(
                    "ERROR: resilience invariant violated on {}: {violation}",
                    d.name
                );
                resilience_broken = true;
            }
        }
        if resilience_broken {
            std::process::exit(1);
        }
        // So is the lifecycle run: a swap that diverged a query, a poisoned
        // snapshot that slipped through, or a crash point the store could
        // not recover from invalidates the serving report.
        let mut lifecycle_broken = false;
        for d in &report.serving {
            for violation in &d.lifecycle.invariant_violations {
                eprintln!(
                    "ERROR: lifecycle invariant violated on {}: {violation}",
                    d.name
                );
                lifecycle_broken = true;
            }
        }
        if lifecycle_broken {
            std::process::exit(1);
        }
    }
}

/// Static-analysis section: runs the `l2r-analyze` engine over the
/// workspace, prints the human report, and writes the machine-readable one
/// next to the other `BENCH_*.json` artifacts (`target/BENCH_analyze.json`,
/// override with `L2R_BENCH_ANALYZE_JSON=<path>`).  Any unallowed violation
/// fails the run — and thereby CI — like every other invariant here.
fn run_analyze() {
    println!("=== static analysis (l2r-analyze) ===\n");
    let config = l2r_analyze::Config::for_root(l2r_analyze::default_root());
    let report = match l2r_analyze::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ERROR: static-analysis scan failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", l2r_analyze::report::human(&report));
    let path = std::env::var("L2R_BENCH_ANALYZE_JSON")
        .unwrap_or_else(|_| "target/BENCH_analyze.json".to_string());
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&path, l2r_analyze::report::json(&report)) {
        Ok(()) => println!("wrote {path}\n"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    if !report.findings.is_empty() {
        eprintln!(
            "ERROR: {} static-analysis violation(s) — see the report above",
            report.findings.len()
        );
        std::process::exit(1);
    }
}

fn run_table2(ds: &Dataset) {
    let dist = table2(
        &ds.synthetic.net,
        &ds.workload.trajectories,
        ds.spec.distance_bounds_km.clone(),
    );
    print!("{}", report_table2(ds.spec.name, &dist));
}

fn run_table4(ds: &Dataset) {
    let buckets = table4(&ds.model, &ds.spec.area_bounds_km2);
    print!("{}", report_table4(ds.spec.name, &buckets));
}

fn run_fig6a(ds: &Dataset) {
    let r = fig6a(&ds.model, &ds.model.config().learn.clone());
    print!("{}", report_fig6a(ds.spec.name, &r));
}

fn run_fig6b(ds: &Dataset) {
    let buckets = fig6b(&ds.model, 50_000);
    print!("{}", report_fig6b(ds.spec.name, &buckets));
}

fn run_fig9a(ds: &Dataset) {
    let points = fig9a(&ds.model, &ds.model.config().transfer);
    print!("{}", report_fig9a(ds.spec.name, &points));
}

fn run_fig9b(ds: &Dataset) {
    let points = fig9b(
        &ds.model,
        &ds.model.config().transfer,
        &[0.5, 0.6, 0.7, 0.8, 0.9],
    );
    print!("{}", report_fig9b(ds.spec.name, &points));
}

fn run_fig10_11_12(ds: &Dataset) {
    let net = &ds.synthetic.net;
    let queries = build_test_queries(net, &ds.model, &ds.test, ds.spec.max_test_queries);
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
    print!(
        "{}",
        report_accuracy(
            &format!(
                "Figure 10 — accuracy (Eq. 1) by distance ({})",
                ds.spec.name
            ),
            &results,
            false,
            false
        )
    );
    print!(
        "{}",
        report_accuracy(
            &format!("Figure 10 — accuracy (Eq. 1) by region ({})", ds.spec.name),
            &results,
            true,
            false
        )
    );
    print!(
        "{}",
        report_accuracy(
            &format!(
                "Figure 11 — accuracy (Eq. 4) by distance ({})",
                ds.spec.name
            ),
            &results,
            false,
            true
        )
    );
    print!(
        "{}",
        report_accuracy(
            &format!("Figure 11 — accuracy (Eq. 4) by region ({})", ds.spec.name),
            &results,
            true,
            true
        )
    );
    print!(
        "{}",
        report_runtime(
            &format!(
                "Figure 12 — mean running time (µs) by distance ({})",
                ds.spec.name
            ),
            &results,
            false
        )
    );
    print!(
        "{}",
        report_runtime(
            &format!(
                "Figure 12 — mean running time (µs) by region ({})",
                ds.spec.name
            ),
            &results,
            true
        )
    );
}

fn run_fig13(ds: &Dataset) {
    let net = &ds.synthetic.net;
    let queries = build_test_queries(net, &ds.model, &ds.test, ds.spec.max_test_queries);
    let ext = ExternalRouter::with_defaults(net);
    let cmp = compare_with_external(net, &ds.model, &ext, &queries, &ds.spec.distance_bounds_km);
    print!("{}", report_fig13(ds.spec.name, &cmp));
}

fn run_offline(ds: &Dataset) {
    let rows = offline_times(&ds.model);
    print!("{}", report_offline(ds.spec.name, &rows));
}

/// Persists the fitted model of `ds` to the per-dataset snapshot path
/// (`fit --snapshot <base>`): the offline cost is paid here once; `online
/// --snapshot` and any future server serve from the file.
fn run_fit_snapshot(ds: &Dataset, base: &str) {
    let path = snapshot_path_for(base, ds.spec.name);
    let t0 = std::time::Instant::now();
    match l2r_core::save_model(&ds.model, &path) {
        Ok(bytes) => println!(
            "## Snapshot ({}) — wrote {} ({:.1} KiB) in {:.1} ms (fit took {:.1} ms)\n",
            ds.spec.name,
            path.display(),
            bytes as f64 / 1024.0,
            t0.elapsed().as_secs_f64() * 1000.0,
            ds.fit_time.as_secs_f64() * 1000.0,
        ),
        Err(e) => {
            eprintln!("failed to write snapshot {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Resolves the per-dataset snapshot path and validates the file up front
/// (the bench functions panic on a bad snapshot) so a missing, stale or
/// truncated file gets a clean diagnostic, not a backtrace.  The validation
/// load is a few milliseconds.
fn validated_snapshot_path(
    ds: &Dataset,
    snapshot_base: Option<&str>,
) -> Option<std::path::PathBuf> {
    let path = snapshot_path_for(snapshot_base?, ds.spec.name);
    match l2r_core::load_model(&path) {
        Ok(_) => Some(path),
        Err(l2r_core::SnapshotError::Io { ref source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            eprintln!(
                "snapshot {} not found — run `reproduce -- fit --snapshot <path>` first \
                 (or `reproduce -- fit online serving --snapshot <path>` in one go)",
                path.display()
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!(
                "snapshot {} is unusable ({e}) — regenerate it with \
                 `reproduce -- fit --snapshot <path>`",
                path.display()
            );
            std::process::exit(2);
        }
    }
}

fn run_online(ds: &Dataset, rounds: usize, snapshot_base: Option<&str>) -> OnlineBenchDataset {
    let snapshot_path = validated_snapshot_path(ds, snapshot_base);
    let entry = online_bench_for(ds, rounds, snapshot_path.as_deref());
    println!(
        "## Online serving ({}) — {} queries × {} rounds, prepare {:.1} ms",
        entry.name, entry.queries, entry.rounds, entry.prepare_ms
    );
    if let Some(snap) = &entry.snapshot {
        println!(
            "served from snapshot {} — {:.1} KiB, loaded in {:.1} ms",
            snap.path,
            snap.bytes as f64 / 1024.0,
            snap.load_ms
        );
    }
    println!(
        "free route:      mean {:8.1} µs  p50 {:8.1}  p95 {:8.1}  p99 {:8.1}  ({:.0} qps)",
        entry.free.mean_us, entry.free.p50_us, entry.free.p95_us, entry.free.p99_us, entry.free.qps
    );
    println!(
        "prepared router: mean {:8.1} µs  p50 {:8.1}  p95 {:8.1}  p99 {:8.1}  ({:.0} qps)",
        entry.prepared.mean_us,
        entry.prepared.p50_us,
        entry.prepared.p95_us,
        entry.prepared.p99_us,
        entry.prepared.qps
    );
    println!(
        "speedup {:.2}x vs free route (equivalent: {})",
        entry.speedup_vs_free, entry.equivalent,
    );
    println!(
        "route_many batch: {:.1} ms, {:.0} qps over {} threads",
        entry.batch_ms,
        entry.batch_qps,
        l2r_par::max_threads()
    );
    for row in &entry.coverage {
        if row.count > 0 {
            println!(
                "  {:<12} {:5} queries  free {:8.1} µs  prepared {:8.1} µs  ({:.2}x)",
                row.label, row.count, row.free_mean_us, row.prepared_mean_us, row.speedup
            );
        }
    }
    println!();
    entry
}

/// Runs the multi-threaded serving benchmark of one dataset (shared
/// `Arc<Engine>` thread sweep, hot-swap under load, TCP loopback via
/// `l2r-serve`, resilience under injected faults) and prints the summary;
/// the entry lands in the `serving` section of `BENCH_online.json`.
fn run_serving(
    ds: &Dataset,
    rounds: usize,
    snapshot_base: Option<&str>,
    full: bool,
) -> ServingBenchDataset {
    let snapshot_path = validated_snapshot_path(ds, snapshot_base);
    // The 4096-connection point needs a minute-plus of wall time to be
    // meaningful; quick-scale runs stop at 512.
    let sweep_connections: &[usize] = if full {
        &[1, 64, 512, 4096]
    } else {
        &[1, 64, 512]
    };
    let entry = serving_bench_for(ds, rounds, snapshot_path.as_deref(), sweep_connections);
    println!(
        "## Concurrent serving ({}) — shared engine, {} queries, engine build {:.1} ms",
        entry.name, entry.queries, entry.engine_build_ms
    );
    for p in &entry.sweep {
        println!(
            "  {:2} thread{}  {:>9.0} qps aggregate  mean {:6.2} µs  p50 {:6.2}  p99 {:8.2}",
            p.threads,
            if p.threads == 1 { " " } else { "s" },
            p.qps,
            p.mean_us,
            p.p50_us,
            p.p99_us
        );
    }
    println!(
        "  peak {:.0} qps vs single-thread {:.0} qps ({:.2}x), scratch pool created {}",
        entry.peak_qps, entry.single_thread_qps, entry.scaling, entry.scratches_created
    );
    let hs = &entry.hot_swap;
    println!(
        "  hot-swap: {} reloads under {} threads, {} queries, {} failed, p99 {:.1} µs steady -> {:.1} µs swapping ({:.2}x spike)",
        hs.reloads,
        hs.worker_threads,
        hs.queries,
        hs.failed,
        hs.steady_p99_us,
        hs.swap_p99_us,
        hs.p99_spike_ratio
    );
    println!(
        "  tcp loopback: {} requests over {} connections, {:.0} qps, p50 {:.1} µs p99 {:.1} µs, {} errors, reload generation {}",
        entry.tcp.requests,
        entry.tcp.connections,
        entry.tcp.qps,
        entry.tcp.p50_us,
        entry.tcp.p99_us,
        entry.tcp.errors,
        entry.tcp.reload_generation
    );
    println!("  concurrency sweep (connections x protocol):");
    for p in &entry.concurrency {
        println!(
            "    {:>4} conn {:>6} pipeline {:>2}  {:>9.0} qps  p50 {:8.1} µs  p99 {:8.1} µs  {} requests, {} errors, {} busy retries",
            p.connections,
            p.protocol,
            p.pipeline,
            p.qps,
            p.p50_us,
            p.p99_us,
            p.requests,
            p.errors,
            p.busy_retries
        );
    }
    let rs = &entry.resilience;
    println!(
        "  resilience (1% injected panics, {} slow clients of {}): {:.0} qps, {} requests — {} answered, {} noroute, {} internal, {} deadline, {} other errors, {} busy retries",
        rs.slow_connections,
        rs.connections,
        rs.qps,
        rs.requests,
        rs.answered,
        rs.noroutes,
        rs.internal_errors,
        rs.deadline_exceeded,
        rs.other_errors,
        rs.busy_retries
    );
    println!(
        "    panics {} injected / {} caught, {} workers respawned, {} reaped, {} write stalls, {} conns left open — {}",
        rs.panics_injected,
        rs.panics_caught,
        rs.workers_respawned,
        rs.idle_reaped,
        rs.write_stalls,
        rs.open_connections_after,
        if rs.invariant_violations.is_empty() {
            "all invariants held".to_string()
        } else {
            format!("INVARIANTS VIOLATED: {}", rs.invariant_violations.join("; "))
        }
    );
    let lc = &entry.lifecycle;
    println!(
        "  lifecycle: {} durable publishes (mean {:.2} ms, max {:.2} ms), {} store reloads + {} rollbacks under load ({} diverged), {} poisoned snapshot rejected",
        lc.publishes,
        lc.publish_mean_ms,
        lc.publish_max_ms,
        lc.store_reloads,
        lc.rollbacks,
        lc.swap_failed,
        lc.canary_rejections
    );
    println!(
        "    crash matrix: {} of {} simulated crash points recovered a durable generation — {}",
        lc.crash_recoveries,
        lc.crash_points,
        if lc.invariant_violations.is_empty() {
            "all invariants held".to_string()
        } else {
            format!(
                "INVARIANTS VIOLATED: {}",
                lc.invariant_violations.join("; ")
            )
        }
    );
    println!();
    entry
}

fn run_recovery(ds: &Dataset) {
    let r = preference_recovery(ds);
    println!(
        "## Latent preference recovery ({})\n{} covered district pairs evaluated, mean similarity to latent behaviour {:.1}%, ≥0.9-similar {:.1}%\n",
        ds.spec.name, r.evaluated, r.mean_similarity, r.pct_high_similarity
    );
}
