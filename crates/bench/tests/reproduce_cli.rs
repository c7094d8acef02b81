//! Command-line contract of the `reproduce` binary: an invocation that would
//! do nothing — an unknown experiment, `fit` without `--snapshot`, or
//! `--snapshot` without `fit` — is a usage error with exit status 2,
//! `fit --snapshot` writes one snapshot per dataset, and `offline` reports
//! whether each dataset's transfer solve converged.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must fail before any work");
}

#[test]
fn fit_without_a_snapshot_path_is_a_usage_error() {
    assert_usage_error(&["fit"], "requires --snapshot");
    assert_usage_error(&["table2", "fit"], "requires --snapshot");
}

#[test]
fn a_snapshot_path_without_fit_is_a_usage_error() {
    assert_usage_error(&["table2", "--snapshot", "model.l2r"], "only used by");
}

#[test]
fn unknown_and_retired_experiments_are_usage_errors() {
    for name in ["fig99", "online", "serving", "analyze"] {
        assert_usage_error(&[name], &format!("unknown experiment `{name}`"));
    }
}

#[test]
fn fit_writes_one_snapshot_per_dataset() {
    let dir = std::env::temp_dir().join(format!("l2r-reproduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("model.l2r");
    let out = reproduce(&["fit", "--snapshot", base.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for dataset in ["D1", "D2"] {
        let path = l2r_bench::snapshot_path_for(base.to_str().unwrap(), dataset);
        l2r_core::load_model(&path)
            .unwrap_or_else(|e| panic!("{} does not load: {e}", path.display()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn offline_reports_transfer_convergence_per_dataset() {
    let out = reproduce(&["offline"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for dataset in ["D1", "D2"] {
        let prefix = format!("transfer solve ({dataset}): ");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(
            lines.len(),
            1,
            "one convergence line for {dataset}:\n{stdout}"
        );
        let rest = &lines[0][prefix.len()..];
        let (unconverged, residual) = rest
            .split_once(" unconverged columns, max relative residual ")
            .unwrap_or_else(|| panic!("malformed convergence line `{}`", lines[0]));
        assert_eq!(unconverged, "0", "{dataset}: every column converges");
        let residual: f64 = residual.parse().expect("the residual is a number");
        assert!(
            (0.0..1e-6).contains(&residual),
            "{dataset}: residual {residual}"
        );
    }
}
