//! Fixture-driven rule tests: every rule must fire on its firing example,
//! respect `l2r: allow(...)`, and stay silent on the look-alikes (strings,
//! comments, test modules).

use l2r_analyze::{analyze_source, analyze_sources, Finding};

/// `(unallowed, inline-waived)` finding counts for one rule.
fn counts(findings: &[Finding], rule: &str) -> (usize, usize) {
    let of_rule: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
    let waived = of_rule.iter().filter(|f| f.allowed).count();
    (of_rule.len() - waived, waived)
}

#[test]
fn float_total_cmp_fires_and_respects_allow() {
    let findings = analyze_source(
        "crates/x/src/lib.rs",
        include_str!("fixtures/float_total_cmp.rs"),
    );
    assert_eq!(counts(&findings, "float-total-cmp"), (1, 1));
    // The string/raw-string/comment mentions contributed nothing.
    assert!(findings
        .iter()
        .all(|f| f.rule == "float-total-cmp" && f.snippet.contains("sort_by")));
}

#[test]
fn unsafe_needs_safety_fires_and_respects_safety_and_allow() {
    let findings = analyze_source(
        "crates/x/src/lib.rs",
        include_str!("fixtures/unsafe_needs_safety.rs"),
    );
    // Three unsafe blocks: one bare (fires), one SAFETY-commented (clean),
    // one allowed (waived).
    assert_eq!(counts(&findings, "unsafe-needs-safety"), (1, 1));
}

#[test]
fn ffi_containment_fires_outside_the_region() {
    let findings = analyze_source(
        "crates/x/src/lib.rs",
        include_str!("fixtures/ffi_containment.rs"),
    );
    assert_eq!(counts(&findings, "ffi-containment"), (1, 1));
}

#[test]
fn ffi_containment_accepts_the_marked_reactor_region() {
    let findings = analyze_source(
        "crates/serve/src/reactor.rs",
        include_str!("fixtures/ffi_region.rs"),
    );
    assert_eq!(counts(&findings, "ffi-containment"), (0, 0));
}

#[test]
fn ffi_region_markers_do_not_travel_to_other_files() {
    // The same marked source under any other path still fires: the region
    // is only honoured in the designated file.
    let findings = analyze_source(
        "crates/x/src/lib.rs",
        include_str!("fixtures/ffi_region.rs"),
    );
    assert_eq!(counts(&findings, "ffi-containment"), (1, 0));
}

#[test]
fn atomic_ordering_fires_and_respects_comments_and_allow() {
    let findings = analyze_source(
        "crates/x/src/lib.rs",
        include_str!("fixtures/atomic_ordering.rs"),
    );
    // Bare Acquire + bare Relaxed-on-`stop` fire; the two `ordering:`
    // commented sites are clean; the allowed site is waived; the Relaxed
    // stats counter never fires.
    assert_eq!(counts(&findings, "atomic-ordering-justified"), (2, 1));
}

#[test]
fn no_panic_hot_path_fires_only_outside_test_modules() {
    let findings = analyze_source(
        "crates/serve/src/frame.rs",
        include_str!("fixtures/no_panic_hot_path.rs"),
    );
    assert_eq!(counts(&findings, "no-panic-hot-path"), (1, 1));
}

#[test]
fn no_panic_hot_path_ignores_files_off_the_hot_path() {
    let findings = analyze_source(
        "crates/eval/src/lib.rs",
        include_str!("fixtures/no_panic_hot_path.rs"),
    );
    assert_eq!(counts(&findings, "no-panic-hot-path"), (0, 0));
}

#[test]
fn nondeterministic_iteration_fires_and_respects_allow() {
    let findings = analyze_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/nondet_iteration.rs"),
    );
    // `.values()` loop + `for .. in &counts` fire; the collected-then-sorted
    // site is waived; `Vec::iter` never fires.
    assert_eq!(counts(&findings, "nondeterministic-iteration"), (2, 1));
}

#[test]
fn nondeterministic_iteration_ignores_non_deterministic_crates() {
    let findings = analyze_source(
        "crates/serve/src/lib.rs",
        include_str!("fixtures/nondet_iteration.rs"),
    );
    assert_eq!(counts(&findings, "nondeterministic-iteration"), (0, 0));
}

#[test]
fn findings_carry_one_based_spans() {
    let findings = analyze_source(
        "crates/x/src/lib.rs",
        "fn f(x: f64, y: f64) {\n    x.partial_cmp(&y);\n}\n",
    );
    let f = &findings[0];
    assert_eq!((f.line, f.column), (2, 7));
    assert_eq!(f.snippet, "x.partial_cmp(&y);");
}

#[test]
fn one_allow_can_waive_multiple_rules() {
    let src = "\
// l2r: allow(float-total-cmp, unsafe-needs-safety) — fixture: both waived
unsafe { x.partial_cmp(&y) }
";
    let findings = analyze_source("crates/x/src/lib.rs", src);
    assert!(findings.len() >= 2);
    assert!(findings.iter().all(|f| f.allowed));
}

/// The other files of the `unused-pub` fixture's workspace: a test that
/// calls `used_elsewhere` and names `only_mentioned` only in a `use` line,
/// a comment and a string, and a benchmark that reads `BENCH_ONLY`.
const UNUSED_PUB_USER: &str = "\
use x::{
    only_mentioned,
};
// only_mentioned() would be the call.
#[test]
fn calls() {
    x::used_elsewhere();
    let _ = \"only_mentioned\";
}
";
const UNUSED_PUB_BENCH: &str = "fn main() {\n    let _ = x::BENCH_ONLY;\n}\n";

/// Names of the unallowed `unused-pub` findings, in report order.
fn unused_pub_names(findings: &[Finding]) -> Vec<&str> {
    findings
        .iter()
        .filter(|f| f.rule == "unused-pub" && !f.allowed)
        .map(|f| f.message.split('`').nth(1).unwrap_or(""))
        .collect()
}

#[test]
fn unused_pub_fires_and_respects_allow() {
    let findings = analyze_sources(&[
        (
            "crates/x/src/lib.rs",
            include_str!("fixtures/unused_pub.rs"),
        ),
        ("crates/x/tests/user.rs", UNUSED_PUB_USER),
        ("benchmark/src/main.rs", UNUSED_PUB_BENCH),
    ]);
    // `used_elsewhere` is named in code, `BENCH_ONLY` by the benchmark,
    // `test_helper` sits in a test module: only `only_mentioned` fires,
    // and `WAIVED` is waived.
    assert_eq!(counts(&findings, "unused-pub"), (1, 1));
    assert_eq!(unused_pub_names(&findings), ["only_mentioned"]);
}

#[test]
fn unused_pub_counts_benchmark_src_as_a_user() {
    let findings = analyze_sources(&[
        (
            "crates/x/src/lib.rs",
            include_str!("fixtures/unused_pub.rs"),
        ),
        ("crates/x/tests/user.rs", UNUSED_PUB_USER),
    ]);
    assert_eq!(
        unused_pub_names(&findings),
        ["only_mentioned", "BENCH_ONLY"]
    );
}

#[test]
fn unused_pub_checks_only_library_sources() {
    // Alone, the fixture's three unwaived items fire; as a binary's
    // `main.rs`, a `src/bin/` file or a test, nothing does.
    let fixture = include_str!("fixtures/unused_pub.rs");
    assert_eq!(
        unused_pub_names(&analyze_source("crates/x/src/lib.rs", fixture)),
        ["used_elsewhere", "only_mentioned", "BENCH_ONLY"]
    );
    for rel in [
        "crates/x/src/main.rs",
        "crates/x/src/bin/tool.rs",
        "crates/x/tests/it.rs",
    ] {
        assert_eq!(counts(&analyze_source(rel, fixture), "unused-pub"), (0, 0));
    }
}
