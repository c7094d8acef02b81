//! # l2r-bench
//!
//! Paper-reproduction targets of the learn-to-route workspace.
//!
//! * `src/bin/reproduce.rs` — regenerates every table and figure of the
//!   paper's evaluation section and prints them as plain-text tables
//!   (`cargo run --release -p l2r-bench --bin reproduce -- --full` for the
//!   benchmark-scale datasets, omit `--full` for a quick run).
//! * `benches/` — one Criterion bench per table/figure measuring the cost of
//!   the corresponding pipeline stage or query workload.
//! * `tests/xl_gates.rs` — the correctness gates of the offline pipeline and
//!   the router on a generated dataset; its country-scale half runs with
//!   `--ignored`.
//!
//! End-to-end and per-layer timings live in the standalone `benchmark/`
//! package, not here.  This library part only hosts shared helpers for the
//! targets above.

#![warn(missing_docs)]

use l2r_eval::{build_dataset, Dataset, DatasetSpec, Scale};

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
}
