//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! # quick run (small datasets, seconds):
//! cargo run --release -p l2r-bench --bin reproduce
//! # benchmark-scale run:
//! cargo run --release -p l2r-bench --bin reproduce -- --full
//! # a single experiment:
//! cargo run --release -p l2r-bench --bin reproduce -- fig10
//! ```
//!
//! The `offline` experiment prints the per-stage wall times of the single
//! `L2r::fit` performed while building each dataset (Section VII-C), and
//! whether its transfer solve converged: the number of feature columns that
//! missed the solver tolerance and the largest relative residual.  The
//! `fit` experiment persists each dataset's fitted model as a versioned
//! binary snapshot (`-- fit --snapshot target/model.l2r` writes
//! `target/model.D1.l2r` / `target/model.D2.l2r`), which `l2r-serve` serves.
//!
//! This binary prints the paper's tables and nothing else.  Fit, publish →
//! first answer and TCP latency, each split per layer, are measured by the
//! standalone `benchmark/` package; the correctness gates of the pipeline
//! and the router are tests (`crates/bench/tests/xl_gates.rs` and
//! the workspace suites).

use l2r_baselines::{Dom, ExternalRouter, FastestRouter, ShortestRouter, Trip};
use l2r_bench::{datasets, snapshot_path_for, DatasetChoice};
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
    "all", "fit", "table2", "table4", "fig6a", "fig6b", "fig9a", "fig9b", "fig10", "fig11",
    "fig12", "fig13", "offline", "recovery",
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
  --snapshot <path>  per-dataset snapshot base path the fit experiment writes
                     (fit requires it; it is an error without fit)

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
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let run = |name: &str| run_all || wanted.iter().any(|w| w == name);
    // `fit` exists to write snapshots and `--snapshot` only feeds `fit`:
    // either one alone would do nothing, so both are usage errors.
    if wanted.iter().any(|w| w == "fit") && snapshot_base.is_none() {
        usage("the `fit` experiment requires --snapshot <path>");
    }
    if snapshot_base.is_some() && !run("fit") {
        usage("--snapshot is only used by the `fit` experiment");
    }

    println!("learn-to-route reproduction — scale: {}\n", scale.label());

    // The country-scale axis is exercised through D1 only: the XL/XXL
    // presets are Denmark-derived, and one dataset keeps the wall time of a
    // run that fits a 100k+-vertex network inside a benchmark budget.
    let choice = if matches!(scale, Scale::Xl | Scale::Xxl) {
        DatasetChoice::D1
    } else {
        DatasetChoice::Both
    };
    for ds in &datasets(choice, scale) {
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
        }
        if run("recovery") {
            run_recovery(ds);
        }
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
    let stats = ds.model.stats();
    println!(
        "transfer solve ({}): {} unconverged columns, max relative residual {:.3e}\n",
        ds.spec.name, stats.unconverged_columns, stats.max_relative_residual
    );
}

/// Persists the fitted model of `ds` to the per-dataset snapshot path
/// (`fit --snapshot <base>`): the offline cost is paid here once, and
/// `l2r-serve` serves from the file.
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

fn run_recovery(ds: &Dataset) {
    let r = preference_recovery(ds);
    println!(
        "## Latent preference recovery ({})\n{} covered district pairs evaluated, mean similarity to latent behaviour {:.1}%, ≥0.9-similar {:.1}%\n",
        ds.spec.name, r.evaluated, r.mean_similarity, r.pct_high_similarity
    );
}
