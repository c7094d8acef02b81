//! `l2r-analyze` — the workspace's dependency-free static-analysis engine.
//!
//! PRs 2–8 accumulated invariants that only lived in after-the-fact tests
//! and reviewer memory: NaN-safe `total_cmp` ordering, SAFETY-commented
//! `unsafe`, FFI contained to one audited region, justified atomic
//! orderings, panic-free serving hot paths, and deterministic iteration in
//! the offline fit.  This crate turns each into a structural check that
//! runs two ways, so it cannot be skipped:
//!
//! * `cargo run -p l2r-analyze -- check` — the CI job (`--json` for the
//!   machine-readable report it uploads);
//! * `tests/static_analysis.rs` — a tier-1 test that walks the workspace
//!   and asserts zero unallowed findings, making `cargo test -q` the gate.
//!
//! ## Waivers
//!
//! A finding is waived per line with `// l2r: allow(<rule>[, <rule>…]) —
//! reason` on the offending line or in the comment block directly above
//! it.  Waivers are never silent: they are counted and listed in both
//! reporters.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod report;
pub mod rules;

use lexer::Line;

/// What the engine scans.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; every reported path is relative to it.
    pub root: PathBuf,
    /// Path fragments that exclude a file from the walk entirely
    /// (generated output, vendored stand-ins, the rule fixture corpus).
    pub skip: Vec<String>,
}

impl Config {
    /// The workspace defaults: `target/`, `vendor/` (offline stand-ins for
    /// crates.io, not first-party code) and fixture corpora are skipped.
    pub fn for_root(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            skip: vec![
                "/target/".to_string(),
                "/vendor/".to_string(),
                "/.git/".to_string(),
                "/tests/fixtures/".to_string(),
            ],
        }
    }
}

/// One rule violation, with its span.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub column: usize,
    pub message: String,
    /// The offending line's code, trimmed.
    pub snippet: String,
    /// Whether an inline `l2r: allow(rule)` on or directly above the line
    /// waives the finding; set by the engine.
    pub allowed: bool,
}

/// The result of one engine run.
#[derive(Debug)]
pub struct Report {
    /// Unallowed findings — non-empty fails `check`, `reproduce` and the
    /// tier-1 test.
    pub findings: Vec<Finding>,
    /// Findings waived by an inline allow.
    pub waived: Vec<Finding>,
    pub files_scanned: usize,
    /// `(name, description)` of every rule that ran.
    pub rules: Vec<(String, String)>,
}

impl Report {
    /// Unallowed findings per rule (BTreeMap: deterministic order — the
    /// engine holds itself to its own standard).
    pub fn by_rule(&self) -> BTreeMap<&str, Vec<&Finding>> {
        let mut map: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
        for r in &self.rules {
            map.entry(r.0.as_str()).or_default();
        }
        for f in &self.findings {
            map.entry(f.rule.as_str()).or_default().push(f);
        }
        map
    }
}

/// A lexed source file plus the per-line allow sets rules query.
pub struct SourceFile {
    /// Workspace-relative path (`/`-separated).
    pub rel: String,
    pub lines: Vec<Line>,
    /// Effective `l2r: allow(..)` rule names per line.
    allows: Vec<Vec<String>>,
}

impl SourceFile {
    /// Lexes `src` and resolves per-line allows.
    pub fn new(rel: impl Into<String>, src: &str) -> SourceFile {
        let lines = lexer::lex(src);
        let own: Vec<Vec<String>> = lines.iter().map(|l| parse_allows(&l.comment)).collect();
        // A line inherits allows from the contiguous run of comment-only
        // lines directly above it (plus its own trailing comment).
        let allows = (0..lines.len())
            .map(|i| {
                let mut eff = own[i].clone();
                let mut j = i;
                while j > 0 && comment_only(&lines[j - 1]) {
                    j -= 1;
                    eff.extend(own[j].iter().cloned());
                }
                eff
            })
            .collect();
        SourceFile {
            rel: rel.into(),
            lines,
            allows,
        }
    }

    /// Is `rule` allowed on 0-based line `i`?
    pub fn is_allowed(&self, i: usize, rule: &str) -> bool {
        self.allows[i].iter().any(|r| r == rule)
    }

    /// The comment text adjacent to line `i`: its own trailing comment
    /// plus the contiguous comment-only block directly above.
    pub fn comment_context(&self, i: usize) -> String {
        let mut parts = vec![self.lines[i].comment.clone()];
        let mut j = i;
        while j > 0 && comment_only(&self.lines[j - 1]) {
            j -= 1;
            parts.push(self.lines[j].comment.clone());
        }
        parts.join("\n")
    }
}

fn comment_only(line: &Line) -> bool {
    line.code.trim().is_empty() && !line.comment.trim().is_empty()
}

/// Extracts rule names from every `l2r: allow(a, b)` in a comment.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut from = 0;
    const MARK: &str = "l2r: allow(";
    while let Some(pos) = comment[from..].find(MARK) {
        let start = from + pos + MARK.len();
        if let Some(close) = comment[start..].find(')') {
            for rule in comment[start..start + close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    rules.push(rule.to_string());
                }
            }
            from = start + close;
        } else {
            break;
        }
    }
    rules
}

/// Runs every rule over one in-memory file (the test seam: fixtures call
/// this directly).  Findings come back resolved against inline allows.
pub fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::new(rel, src);
    let mut out = Vec::new();
    for rule in rules::all_rules() {
        if !rule.applies_to(rel) {
            continue;
        }
        let mut raw = Vec::new();
        rule.check(&file, &mut raw);
        for mut f in raw {
            f.allowed = file.is_allowed(f.line - 1, &f.rule);
            out.push(f);
        }
    }
    out
}

/// Walks the workspace under `config.root` and runs every rule.
pub fn run(config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(&config.root, &config.skip, &mut files)?;
    files.sort(); // deterministic report order, any filesystem
    let rule_set = rules::all_rules();

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for path in &files {
        let rel = rel_path(&config.root, path);
        let src = std::fs::read_to_string(path)?;
        let file = SourceFile::new(rel, &src);
        for rule in &rule_set {
            if !rule.applies_to(&file.rel) {
                continue;
            }
            let mut raw = Vec::new();
            rule.check(&file, &mut raw);
            for mut f in raw {
                f.allowed = file.is_allowed(f.line - 1, &f.rule);
                if f.allowed {
                    waived.push(f);
                } else {
                    findings.push(f);
                }
            }
        }
    }
    Ok(Report {
        findings,
        waived,
        files_scanned: files.len(),
        rules: rule_set
            .iter()
            .map(|r| (r.name().to_string(), r.description().to_string()))
            .collect(),
    })
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, skip: &[String], out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        // Normalise for fragment matching regardless of platform.
        let probe = format!(
            "/{}/",
            path.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        );
        if skip.iter().any(|s| probe.contains(s.as_str())) {
            continue;
        }
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, skip, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root this binary was built in (two levels above the
/// crate manifest); `--root` overrides it at the CLI.
pub fn default_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}
