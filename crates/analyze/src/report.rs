//! Human and JSON reporters for a [`Report`].
//!
//! [`Report`]: crate::Report
//!
//! The JSON shape follows the `BENCH_*.json` convention of the bench
//! harness: a flat, hand-emitted object that CI uploads as an artifact and
//! diff-tools can track across commits — no serde in a dependency-free
//! workspace.

use crate::Report;

/// Renders the report for terminals: findings grouped by rule with
/// clickable `path:line:col` spans, then a one-line waiver summary.
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    for (rule, findings) in report.by_rule() {
        let desc = report
            .rules
            .iter()
            .find(|(n, _)| n == rule)
            .map(|(_, d)| d.as_str())
            .unwrap_or("");
        out.push_str(&format!("{rule}: {} finding(s) — {desc}\n", findings.len()));
        for f in findings {
            out.push_str(&format!(
                "  {}:{}:{}: {}\n      {}\n",
                f.path, f.line, f.column, f.message, f.snippet
            ));
        }
    }
    out.push_str(&format!(
        "{} file(s) scanned, {} rule(s): {} violation(s), {} waived by inline allow\n",
        report.files_scanned,
        report.rules.len(),
        report.findings.len(),
        report.waived.len(),
    ));
    out
}

/// Renders the machine-readable report (`BENCH`-style JSON).
pub fn json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"l2r-analyze\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"violations\": {},\n  \"waived\": {},\n",
        report.files_scanned,
        report.findings.len(),
        report.waived.len()
    ));
    out.push_str("  \"rules\": [\n");
    for (i, (name, desc)) in report.rules.iter().enumerate() {
        let by_rule = report.by_rule();
        let count = by_rule.get(name.as_str()).map(|v| v.len()).unwrap_or(0);
        out.push_str(&format!(
            "    {{\"name\": {}, \"violations\": {count}, \"description\": {}}}{}\n",
            escape(name),
            escape(desc),
            comma(i, report.rules.len())
        ));
    }
    out.push_str("  ],\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"column\": {}, \"message\": {}, \"snippet\": {}}}{}\n",
            escape(&f.rule),
            escape(&f.path),
            f.line,
            f.column,
            escape(&f.message),
            escape(&f.snippet),
            comma(i, report.findings.len())
        ));
    }
    out.push_str("  ],\n  \"waivers\": [\n");
    for (i, f) in report.waived.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}}}{}\n",
            escape(&f.rule),
            escape(&f.path),
            f.line,
            comma(i, report.waived.len())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
