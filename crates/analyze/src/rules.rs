//! The rule set: each rule turns one PR 2–8 invariant into a structural
//! check.
//!
//! Rules ask line-shaped questions of a lexed [`SourceFile`] (comment- and
//! string-aware, see [`crate::lexer`]) and emit [`Finding`]s with a
//! `path:line:col` span.  Every rule can be waived per line with
//!
//! ```text
//! // l2r: allow(<rule-name>) — reason
//! ```
//!
//! on the offending line or in the comment block directly above it; the
//! engine (not the rule) resolves allows, so every waiver is still counted
//! and reported.

use crate::{Finding, SourceFile};

/// A single static check.
pub trait Rule {
    /// Rule name as used in `l2r: allow(<name>)` and reports.
    fn name(&self) -> &'static str;
    /// One-line description for `l2r-analyze rules` and the README table.
    fn description(&self) -> &'static str;
    /// Whether the rule runs on this workspace-relative path at all.
    fn applies_to(&self, rel: &str) -> bool;
    /// Scans one file, pushing raw findings (the engine resolves allows).
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// Every shipped rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatTotalCmp),
        Box::new(UnsafeNeedsSafety),
        Box::new(FfiContainment),
        Box::new(AtomicOrderingJustified),
        Box::new(NoPanicHotPath),
        Box::new(NondeterministicIteration),
    ]
}

/// Byte columns (0-based) where `token` occurs in `code` with non-ident
/// characters (or the line edge) on both sides.
fn token_columns(code: &str, token: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut cols = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + token.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            cols.push(at);
        }
        from = at + token.len().max(1);
    }
    cols
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn finding(
    rule: &dyn Rule,
    file: &SourceFile,
    line: usize,
    col: usize,
    message: String,
) -> Finding {
    Finding {
        rule: rule.name().to_string(),
        path: file.rel.clone(),
        line: line + 1,
        column: col + 1,
        message,
        snippet: file.lines[line].code.trim().to_string(),
        allowed: false,
    }
}

// ---------------------------------------------------------------------------
// float-total-cmp
// ---------------------------------------------------------------------------

/// PR 4's invariant: float comparators must use `total_cmp`, never
/// `partial_cmp` — a NaN reaching `partial_cmp(..).unwrap_or(Equal)` makes
/// heaps and sorts silently non-deterministic.  The three `PartialOrd`
/// shims that delegate to a total order carry explicit allows (their
/// audit trail).
pub struct FloatTotalCmp;

impl Rule for FloatTotalCmp {
    fn name(&self) -> &'static str {
        "float-total-cmp"
    }
    fn description(&self) -> &'static str {
        "ban partial_cmp-based comparators/sorts; float ordering must go through total_cmp (NaN-safe, PR 4)"
    }
    fn applies_to(&self, _rel: &str) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.lines.iter().enumerate() {
            for col in token_columns(&line.code, "partial_cmp") {
                out.push(finding(
                    self,
                    file,
                    i,
                    col,
                    "partial_cmp is NaN-unsafe in comparators; use f64::total_cmp \
                     (or allow an Ord shim explicitly)"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-needs-safety
// ---------------------------------------------------------------------------

/// Every `unsafe` block, fn, or impl must carry a `// SAFETY:` comment on
/// the same line or in the comment block directly above, stating the
/// invariant that makes it sound (mirrors `clippy::undocumented_unsafe_blocks`,
/// but comment- and raw-string-aware and CI-gated through `cargo test`).
pub struct UnsafeNeedsSafety;

impl Rule for UnsafeNeedsSafety {
    fn name(&self) -> &'static str {
        "unsafe-needs-safety"
    }
    fn description(&self) -> &'static str {
        "every unsafe block/fn/impl needs an adjacent `// SAFETY:` justification"
    }
    fn applies_to(&self, _rel: &str) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.lines.iter().enumerate() {
            for col in token_columns(&line.code, "unsafe") {
                if !file.comment_context(i).contains("SAFETY:") {
                    out.push(finding(
                        self,
                        file,
                        i,
                        col,
                        "unsafe without an adjacent `// SAFETY:` comment stating why it is sound"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ffi-containment
// ---------------------------------------------------------------------------

/// The file that is allowed to declare foreign functions, and only between
/// its `l2r: ffi-region begin` / `end` marker comments.
const FFI_FILE: &str = "crates/serve/src/reactor.rs";

/// Hand-declared FFI stays in one audited place: the `poll(2)` sys region
/// of the reactor (the workspace is dependency-free, so there is no libc
/// crate to lean on).  A second `extern` block elsewhere would dodge that
/// audit.
pub struct FfiContainment;

impl Rule for FfiContainment {
    fn name(&self) -> &'static str {
        "ffi-containment"
    }
    fn description(&self) -> &'static str {
        "extern \"C\" declarations only inside the marked sys region of crates/serve/src/reactor.rs"
    }
    fn applies_to(&self, _rel: &str) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let designated = file.rel.ends_with(FFI_FILE);
        let mut in_region = false;
        for (i, line) in file.lines.iter().enumerate() {
            if line.comment.contains("l2r: ffi-region begin") {
                in_region = true;
            }
            if line.comment.contains("l2r: ffi-region end") {
                in_region = false;
            }
            // String contents are blanked by the lexer, so every foreign
            // ABI declaration uniformly lexes as `extern ""`.
            if let Some(col) = line.code.find("extern \"") {
                if !(designated && in_region) {
                    out.push(finding(
                        self,
                        file,
                        i,
                        col,
                        format!(
                            "foreign declarations belong in the `l2r: ffi-region` of {FFI_FILE}"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// atomic-ordering-justified
// ---------------------------------------------------------------------------

/// Receiver names that conventionally carry cross-thread *synchronisation*
/// (not just counting); `Relaxed` on these needs an explicit justification
/// because it is exactly the shape of a silent ordering regression.
const SYNC_FLAG_NAMES: &[&str] = &[
    "shutdown", "stop", "stopped", "armed", "closing", "draining", "drain", "dead", "running",
    "halted", "done", "ready",
];

const NON_RELAXED: &[&str] = &[
    "Ordering::SeqCst",
    "Ordering::AcqRel",
    "Ordering::Acquire",
    "Ordering::Release",
];

/// PR 6–8 accumulated 85 atomic call sites.  Orderings are load-bearing
/// and silent to review: a non-`Relaxed` ordering claims a happens-before
/// edge (say which), and `Relaxed` on a synchronisation flag claims there
/// isn't one (say why that is safe).  The justification is a comment
/// containing `ordering:` on the line or directly above it.
pub struct AtomicOrderingJustified;

impl AtomicOrderingJustified {
    /// Does the comment context contain a justification marker
    /// (`ordering:`)?  `Ordering::X` mentioned inside a comment must not
    /// count, so the colon must not be doubled.
    fn justified(context: &str) -> bool {
        let lower = context.to_lowercase();
        let mut from = 0;
        while let Some(pos) = lower[from..].find("ordering:") {
            let at = from + pos;
            if lower.as_bytes().get(at + "ordering:".len()) != Some(&b':') {
                return true;
            }
            from = at + "ordering:".len();
        }
        false
    }

    /// The last identifier of the receiver of the first atomic op on the
    /// line (`self.stats.shutdown.load(..)` → `shutdown`;
    /// `draws[site].fetch_add(..)` → `draws`).
    fn receiver_ident(code: &str) -> Option<String> {
        const OPS: &[&str] = &[
            ".load(",
            ".store(",
            ".swap(",
            ".fetch_",
            ".compare_exchange",
        ];
        let dot = OPS.iter().filter_map(|op| code.find(op)).min()?;
        let bytes = code.as_bytes();
        let mut i = dot;
        // Skip one index group: `name[expr].load(..)`.
        if i > 0 && bytes[i - 1] == b']' {
            let mut depth = 0i32;
            while i > 0 {
                i -= 1;
                match bytes[i] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let end = i;
        while i > 0 && is_ident_byte(bytes[i - 1]) {
            i -= 1;
        }
        (i < end).then(|| code[i..end].to_string())
    }
}

impl Rule for AtomicOrderingJustified {
    fn name(&self) -> &'static str {
        "atomic-ordering-justified"
    }
    fn description(&self) -> &'static str {
        "non-Relaxed atomic orderings (and Relaxed on named synchronisation flags) need an `ordering:` comment"
    }
    fn applies_to(&self, _rel: &str) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.lines.iter().enumerate() {
            let code = &line.code;
            let non_relaxed = NON_RELAXED
                .iter()
                .filter_map(|t| code.find(t).map(|c| (c, *t)))
                .min();
            let relaxed_sync = code.find("Ordering::Relaxed").and_then(|col| {
                let recv = Self::receiver_ident(code)?;
                SYNC_FLAG_NAMES
                    .contains(&recv.as_str())
                    .then_some((col, recv))
            });
            let Some((col, what)) = non_relaxed
                .map(|(c, t)| (c, format!("`{t}` claims a happens-before edge")))
                .or(relaxed_sync.map(|(c, recv)| {
                    (
                        c,
                        format!("`Ordering::Relaxed` on synchronisation flag `{recv}`"),
                    )
                }))
            else {
                continue;
            };
            if !Self::justified(&file.comment_context(i)) {
                out.push(finding(
                    self,
                    file,
                    i,
                    col,
                    format!("{what}; add an `// ordering:` comment saying why"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic-hot-path
// ---------------------------------------------------------------------------

/// Request-path files where a panic is an outage, not a control-flow tool
/// (PR 7's `catch_unwind` isolation is the last line of defence, and every
/// caught panic discards a scratch and shows up as an internal error).
const HOT_PATH_FILES: &[&str] = &[
    "crates/serve/src/reactor.rs",
    "crates/serve/src/frame.rs",
    "crates/serve/src/request.rs",
    "crates/serve/src/queue.rs",
];

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Bans panicking constructs in the serving hot path (test modules are
/// exempt — assertions are what tests are for).
pub struct NoPanicHotPath;

impl Rule for NoPanicHotPath {
    fn name(&self) -> &'static str {
        "no-panic-hot-path"
    }
    fn description(&self) -> &'static str {
        "unwrap/expect/panic!/unreachable! banned in the serving request path (reactor/frame/request/queue)"
    }
    fn applies_to(&self, rel: &str) -> bool {
        HOT_PATH_FILES.iter().any(|f| rel.ends_with(f))
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for token in PANIC_TOKENS {
                if let Some(col) = line.code.find(token) {
                    out.push(finding(
                        self,
                        file,
                        i,
                        col,
                        format!(
                            "{} in a request path: return an error (or allow with the invariant \
                             that makes it unreachable)",
                            token.trim_start_matches('.')
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// nondeterministic-iteration
// ---------------------------------------------------------------------------

/// Crates whose outputs must be bit-identical run to run (PR 2's
/// deterministic parallel fit; region-transfer correctness depends on it).
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/region-graph/src/",
    "crates/preference/src/",
];

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

/// Flags iteration over `HashMap`/`HashSet` bindings in the offline-fit
/// crates: hash iteration order varies between runs and silently breaks
/// the bit-exactness tests.  Sites that sort afterwards (or are
/// order-insensitive) carry an allow with a sortedness note.
///
/// Detection is intra-file: pass 1 collects identifiers declared with a
/// `HashMap`/`HashSet` type (let-bindings, struct fields, fn params on
/// their own line); pass 2 flags iteration through those identifiers.
/// Iteration over values returned by method calls is out of reach — the
/// fixture corpus documents the contract.
pub struct NondeterministicIteration;

impl NondeterministicIteration {
    fn tracked_names(file: &SourceFile) -> Vec<String> {
        let mut names = Vec::new();
        for line in &file.lines {
            let code = line.code.trim_start();
            if !code.contains("HashMap") && !code.contains("HashSet") {
                continue;
            }
            // `let [mut] name` bindings (type or initialiser mentions the
            // hash collection somewhere on the line).
            if let Some(rest) = code.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                if let Some(name) = leading_ident(rest) {
                    names.push(name);
                }
                continue;
            }
            // `name: HashMap<..>` struct fields / fn params on their own
            // line (visibility prefixes stripped).
            let rest = code
                .strip_prefix("pub(crate) ")
                .or_else(|| code.strip_prefix("pub "))
                .unwrap_or(code);
            if let Some(name) = leading_ident(rest) {
                let after = &rest[name.len()..];
                let after = after.trim_start();
                if let Some(ty) = after.strip_prefix(':') {
                    if ty.contains("HashMap") || ty.contains("HashSet") {
                        names.push(name);
                    }
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }

    /// The receiver identifier of an iteration method ending at byte `dot`
    /// (the `.`); `None` when the receiver is a call result or otherwise
    /// not a plain binding/field/index chain.
    fn receiver_before(code: &str, dot: usize) -> Option<String> {
        let bytes = code.as_bytes();
        let mut i = dot;
        if i == 0 {
            return None;
        }
        if bytes[i - 1] == b')' {
            return None; // method-call result: unresolvable intra-file
        }
        if bytes[i - 1] == b']' {
            let mut depth = 0i32;
            while i > 0 {
                i -= 1;
                match bytes[i] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let end = i;
        while i > 0 && is_ident_byte(bytes[i - 1]) {
            i -= 1;
        }
        (i < end).then(|| code[i..end].to_string())
    }
}

impl Rule for NondeterministicIteration {
    fn name(&self) -> &'static str {
        "nondeterministic-iteration"
    }
    fn description(&self) -> &'static str {
        "unordered HashMap/HashSet iteration in the offline-fit crates (core, region-graph, preference) needs a sortedness note"
    }
    fn applies_to(&self, rel: &str) -> bool {
        DETERMINISTIC_CRATES.iter().any(|c| rel.contains(c))
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let tracked = Self::tracked_names(file);
        if tracked.is_empty() {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            let mut hit: Option<(usize, String)> = None;
            for m in ITER_METHODS {
                let mut from = 0;
                while let Some(pos) = code[from..].find(m) {
                    let dot = from + pos;
                    if let Some(recv) = Self::receiver_before(code, dot) {
                        if tracked.contains(&recv) && hit.as_ref().is_none_or(|(c, _)| dot < *c) {
                            hit = Some((dot, recv));
                        }
                    }
                    from = dot + m.len();
                }
            }
            // `for x in map` / `for (k, v) in &map` without a method call.
            if hit.is_none() && code.contains("for ") {
                if let Some(pos) = code.rfind(" in ") {
                    let expr = code[pos + 4..].trim_end_matches('{').trim();
                    let expr = expr.trim_start_matches('&');
                    let expr = expr.strip_prefix("mut ").unwrap_or(expr);
                    let last = expr.rsplit('.').next().unwrap_or(expr);
                    if !last.is_empty()
                        && last.bytes().all(is_ident_byte)
                        && tracked.contains(&last.to_string())
                    {
                        hit = Some((pos + 4, last.to_string()));
                    }
                }
            }
            if let Some((col, recv)) = hit {
                out.push(finding(
                    self,
                    file,
                    i,
                    col,
                    format!(
                        "iteration over unordered hash collection `{recv}` in a \
                         deterministic-fit crate; sort first or allow with a sortedness note"
                    ),
                ));
            }
        }
    }
}

/// The identifier at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<String> {
    let end = s.bytes().position(|b| !is_ident_byte(b)).unwrap_or(s.len());
    (end > 0 && !s.as_bytes()[0].is_ascii_digit()).then(|| s[..end].to_string())
}
