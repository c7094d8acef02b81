//! Fixture-driven rule tests: every rule must fire on its firing example,
//! respect `l2r: allow(...)`, and stay silent on the look-alikes (strings,
//! comments, test modules).

use l2r_analyze::{analyze_source, Finding};

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
