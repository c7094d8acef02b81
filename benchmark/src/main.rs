//! `benchmark`: one repeatable benchmark of L2R's fit, publish → first
//! answer, and routing over TCP, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <d1|d1_reload|xl|all> [--seed N] [--seconds S] [--trace [0|1]] \
//!     [--json PATH] [--repeat N]
//! ```
//!
//! One line `workload metric value unit n` per metric, then, as the last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the gated end-to-end metrics, or with `--trace 1` the per-layer ones
//! and the ungated timings.  Every reply is checked against the engine's
//! own answer, the decoded snapshot and every refit must encode like the
//! first fit, and the run exits non-zero if any check fails.
//! `all` and `--repeat N` re-execute this binary once per workload and
//! seed (seeds `N, N+1, …`), so peak RSS stays per workload, and print the
//! median and quartiles of every metric.  See `METRICS.md` for what each
//! metric means and which layer moves it.

mod loadgen;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workload::{Metric, RunConfig, Workload};

/// `DatasetSpec::d1`'s canonical workload seed.
const DEFAULT_SEED: u64 = 0xD1D1;

/// Default length of the two loop phases together, in seconds.
const DEFAULT_SECONDS: f64 = 10.0;

/// Gated end-to-end metrics in report order: the result object's
/// `metrics` of an untraced run.
const GATED: [&str; 4] = [
    "setup_s",
    "accuracy_eq1_pct",
    "accuracy_eq4_pct",
    "peak_rss_mb",
];

/// End-to-end timings that move with the shared host's speed by more than
/// any bound could absorb (see `METRICS.md`): printed after the gated
/// ones, and in the result object of the traced run with the per-layer
/// metrics.
const UNGATED: [&str; 4] = ["fit_s", "route_p50_us", "route_p99_us", "reload_s"];

const USAGE: &str = "usage: benchmark --workload <d1|d1_reload|xl|all> [--seed N] [--seconds S] \
                     [--trace [0|1]] [--json PATH] [--repeat N]";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    repeat: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        repeat: 1,
    };
    let mut workload = None;
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse_num(&value("a number")?)?,
            "--seconds" => {
                args.seconds = parse_num(&value("a number")?)?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--repeat" => args.repeat = parse_num::<usize>(&value("a count")?)?.max(1),
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--trace" => {
                // The value is optional: a bare `--trace` means `--trace 1`.
                args.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?)
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("`{s}` is not a valid number"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(workload) if args.repeat == 1 => run_one(&args, workload),
        _ => run_children(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let work_root = PathBuf::from(".bench_work");
    let report = workload::run(&RunConfig {
        workload,
        seed: args.seed,
        data_seed: None,
        seconds: args.seconds,
        trace: args.trace,
        scale: None,
        corrupt_expected: false,
        work_root: work_root.clone(),
    })?;
    let name = workload.name();
    for problem in &report.problems {
        eprintln!("benchmark: {name}: check failed: {problem}");
    }
    let end_to_end = ordered(&report.end_to_end);
    let mut lines = String::new();
    for m in end_to_end.iter().chain(&report.per_layer) {
        let _ = writeln!(lines, "{name} {} {} {} {}", m.name, m.value, m.unit, m.n);
    }
    let attempted = report.tally.attempted;
    let _ = writeln!(
        lines,
        "{name} error_rate {} ratio {attempted}",
        report.tally.failed as f64 / attempted.max(1) as f64
    );
    print!("{lines}");
    let gated = |m: &&Metric| GATED.contains(&m.name.as_str());
    let shown: Vec<(String, f64, String)> = if args.trace {
        end_to_end
            .iter()
            .filter(|m| !gated(m))
            .chain(&report.per_layer)
            .map(|m| (m.name.clone(), m.value, m.unit.to_string()))
            .collect()
    } else {
        end_to_end
            .iter()
            .filter(gated)
            .map(|m| (m.name.clone(), m.value, m.unit.to_string()))
            .collect()
    };
    let json = result_json(report.correct(), attempted, report.tally.failed, &shown);
    println!("{json}");
    if let Some(spans) = &report.spans {
        let path = match &args.json {
            Some(p) => PathBuf::from(format!("{}.trace.json", p.display())),
            None => work_root.join(format!("{name}-seed{}.trace.json", args.seed)),
        };
        write_file(&path, spans)?;
        eprintln!("benchmark: spans written to {}", path.display());
    }
    if let Some(path) = &args.json {
        write_file(path, &json)?;
    }
    Ok(report.correct())
}

/// End-to-end metrics in the fixed report order.
fn ordered(metrics: &[Metric]) -> Vec<Metric> {
    let mut out = metrics.to_vec();
    out.sort_by_key(|m| GATED.iter().chain(&UNGATED).position(|n| *n == m.name));
    out
}

fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The result object; non-finite values (never expected) become `null`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads a whole-number field of a result object.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `all` and `--repeat`: one child process per workload and seed.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut medians: Vec<(String, f64, String)> = Vec::new();
    for workload in workloads {
        let name = workload.name();
        // (metric, unit, values) in first-seen order.
        let mut seen: Vec<(String, String, Vec<f64>)> = Vec::new();
        for run in 0..args.repeat {
            let seed = args.seed + run as u64;
            let out = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("run {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                correct = false;
                eprintln!("benchmark: {name} seed {seed} exited with {}", out.status);
            }
            let last = stdout.lines().last().unwrap_or("");
            attempted += json_u64(last, "attempted").unwrap_or(0);
            failed += json_u64(last, "failed").unwrap_or(0);
            for line in stdout.lines() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let [w, metric, value, unit, _n] = fields[..] else {
                    continue;
                };
                let (true, Ok(value)) = (w == name, value.parse::<f64>()) else {
                    continue;
                };
                if args.repeat == 1 {
                    println!("{line}");
                }
                match seen.iter_mut().find(|(m, _, _)| m == metric) {
                    Some((_, _, values)) => values.push(value),
                    None => seen.push((metric.to_string(), unit.to_string(), vec![value])),
                }
            }
        }
        for (metric, unit, values) in &seen {
            let (q1, median, q3) = stats::quartiles(values);
            if args.repeat > 1 {
                println!(
                    "{name} {metric} {median} {unit} {} q1={q1} q3={q3} spread={:.4}",
                    values.len(),
                    (q3 - q1) / median.abs()
                );
            }
            medians.push((format!("{name}.{metric}"), median, unit.clone()));
        }
    }
    let json = result_json(correct && failed == 0, attempted, failed, &medians);
    println!("{json}");
    if let Some(path) = &args.json {
        write_file(path, &json)?;
    }
    Ok(correct && failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_eval::Scale;
    use workload::Report;

    fn quick(workload: Workload, corrupt_expected: bool) -> Report {
        workload::run(&RunConfig {
            workload,
            seed: 7,
            data_seed: Some(0xBEEF),
            seconds: 0.2,
            trace: true,
            scale: Some(Scale::Quick),
            corrupt_expected,
            work_root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".bench_work"),
        })
        .expect("quick run")
    }

    /// Metric names of one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body[1..].find("\n  \"").map_or(body.len(), |i| i + 1)];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn every_listed_metric_is_reported_and_finite() {
        let end_to_end = listed("end_to_end");
        let per_layer = listed("per_layer");
        assert_eq!(end_to_end, GATED, "the gated metrics are the listed ones");
        assert!(UNGATED.iter().all(|n| per_layer.iter().any(|p| p == n)));
        assert!(per_layer.len() > 20, "{per_layer:?}");
        for workload in Workload::ALL {
            let report = quick(workload, false);
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.problems
            );
            assert_eq!(report.tally.failed, 0, "error_rate must be 0");
            assert!(report.tally.attempted > 0);
            let all: Vec<&Metric> = report.end_to_end.iter().chain(&report.per_layer).collect();
            for (names, metrics) in [
                (&end_to_end, report.end_to_end.iter().collect()),
                (&per_layer, all),
            ] {
                for name in names {
                    let m = metrics
                        .iter()
                        .find(|m| &m.name == name)
                        .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
                    assert!(
                        m.value.is_finite(),
                        "{}: {name} = {}",
                        workload.name(),
                        m.value
                    );
                    assert!(m.n > 0);
                }
            }
            assert!(report
                .spans
                .as_deref()
                .is_some_and(|s| s.contains("first_reply")));
        }
    }

    #[test]
    fn a_wrong_expected_answer_fails_the_run() {
        let report = quick(Workload::D1, true);
        assert!(!report.correct());
        assert!(report.tally.mismatch > 0);
    }

    #[test]
    fn command_line_flags_parse() {
        let raw: Vec<String> = "--workload xl --seed 5 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&raw).expect("valid");
        assert_eq!(args.workload, Some(Workload::Xl));
        assert_eq!((args.seed, args.seconds, args.trace), (5, 3.0, true));
        let raw: Vec<String> = ["--workload", "all", "--trace"].map(String::from).to_vec();
        let args = parse_args(&raw).expect("valid");
        assert!(args.workload.is_none() && args.trace);
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let json = result_json(true, 3, 0, &[("fit_s".to_string(), 0.25, "s".to_string())]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"fit_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_u64(&json, "attempted"), Some(3));
    }
}
