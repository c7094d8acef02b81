//! Tier-1 static-analysis gate: `cargo test -q` fails if any workspace file
//! violates an `l2r-analyze` rule without an explicit waiver.
//!
//! This is the same engine as `cargo run -p l2r-analyze -- check` and the
//! CI `analyze` job — a freshly introduced `partial_cmp` comparator, a
//! SAFETY-less `unsafe` block, or an unjustified atomic ordering fails the
//! ordinary test run, not just a lint job someone has to remember exists.

use l2r_analyze::{report, run, Config};

#[test]
fn workspace_passes_static_analysis() {
    let config = Config::for_root(env!("CARGO_MANIFEST_DIR"));
    let report_data = run(&config).expect("workspace scan");
    assert!(
        report_data.files_scanned > 50,
        "suspiciously small scan ({} files) — wrong root?",
        report_data.files_scanned
    );
    assert_eq!(
        report_data.rules.len(),
        6,
        "rule set changed; update this gate and the README table"
    );
    assert!(
        report_data.findings.is_empty(),
        "static-analysis violations:\n{}",
        report::human(&report_data)
    );
}

#[test]
fn waivers_stay_enumerated_not_open_ended() {
    // Waivers are the audit trail, not a loophole: this pins their totals
    // so adding one is a conscious, reviewed act (update the counts here
    // and say why in the allow comment).
    let config = Config::for_root(env!("CARGO_MANIFEST_DIR"));
    let report_data = run(&config).expect("workspace scan");
    let inline = report_data.waived.len();
    assert!(
        inline <= 25,
        "inline allow count grew to {inline}; review the new waivers"
    );
}
