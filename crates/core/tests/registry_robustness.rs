//! Failure paths of [`ModelRegistry::reload`]: a reload from a missing,
//! truncated, corrupt or stale-format `.l2r` file — or one that decodes
//! fine but fails semantic validation (wrong dataset stamp, canary digest
//! mismatch) — must leave the registered model serving untouched and
//! report the precise [`RegistryError`], mirroring the malformed-file
//! corpus of `snapshot_robustness.rs` at the registry layer.

use std::sync::Arc;

use l2r_core::{
    encode_model, encode_snapshot, encode_snapshot_with, load_model, save_model, save_snapshot,
    Canary, L2r, L2rConfig, ModelRegistry, QueryScratch, RegistryError, SnapshotError,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_road_network::VertexId;

fn fitted() -> L2r {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let (train, _) = wl.temporal_split(0.8);
    L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("l2r-registry-test-{}-{name}", std::process::id()))
}

/// Registers a fitted model and returns (registry, served handle, the good
/// snapshot bytes to corrupt).
fn registry_with_model() -> (ModelRegistry, Arc<L2r>, Vec<u8>) {
    let model = fitted();
    let bytes = encode_model(&model);
    let registry = ModelRegistry::new();
    let served = registry.insert("city", Arc::new(model));
    (registry, served, bytes)
}

/// Asserts `registry` still serves exactly `served` (same model object,
/// same generation, still answering).
fn assert_still_serving(registry: &ModelRegistry, served: &Arc<L2r>) {
    let current = registry.get("city").expect("entry must survive");
    assert!(
        Arc::ptr_eq(served, &current),
        "the old model must keep serving after a failed reload"
    );
    assert_eq!(registry.generation("city"), Some(1));
    let mut scratch = QueryScratch::new();
    let r = current.route(&mut scratch, VertexId(0), VertexId(5));
    assert!(r.is_none() || r.unwrap().path.source() == VertexId(0));
}

#[test]
fn reload_from_a_missing_file_keeps_the_old_engine() {
    let (registry, served, _) = registry_with_model();
    let err = registry
        .reload("city", &temp_path("does-not-exist.l2r"))
        .unwrap_err();
    assert!(
        matches!(err, RegistryError::Snapshot(SnapshotError::Io { .. })),
        "{err}"
    );
    assert_still_serving(&registry, &served);
}

#[test]
fn reload_from_truncated_files_keeps_the_old_engine_at_every_cut() {
    let (registry, served, bytes) = registry_with_model();
    let path = temp_path("truncated.l2r");
    for cut in [4usize, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = registry.reload("city", &path).unwrap_err();
        assert!(
            matches!(
                err,
                RegistryError::Snapshot(
                    SnapshotError::BadMagic
                        | SnapshotError::TruncatedHeader { .. }
                        | SnapshotError::Truncated { .. }
                )
            ),
            "cut at {cut}: {err}"
        );
        assert_still_serving(&registry, &served);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn reload_from_a_stale_format_version_keeps_the_old_engine() {
    let (registry, served, mut bytes) = registry_with_model();
    bytes[8] = l2r_core::SNAPSHOT_VERSION + 1;
    let path = temp_path("stale-version.l2r");
    std::fs::write(&path, &bytes).unwrap();
    let err = registry.reload("city", &path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            err,
            RegistryError::Snapshot(SnapshotError::UnsupportedVersion(v))
                if v == l2r_core::SNAPSHOT_VERSION + 1
        ),
        "{err}"
    );
    assert_still_serving(&registry, &served);
}

#[test]
fn reload_from_a_previous_format_version_keeps_the_old_engine() {
    let (registry, served, mut bytes) = registry_with_model();
    bytes[8] = l2r_core::SNAPSHOT_VERSION - 1;
    let path = temp_path("previous-version.l2r");
    std::fs::write(&path, &bytes).unwrap();
    let err = registry.reload("city", &path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            err,
            RegistryError::Snapshot(SnapshotError::UnsupportedVersion(v))
                if v == l2r_core::SNAPSHOT_VERSION - 1
        ),
        "{err}"
    );
    assert_still_serving(&registry, &served);
}

#[test]
fn reload_from_corrupt_payloads_keeps_the_old_engine() {
    let (registry, served, bytes) = registry_with_model();
    let path = temp_path("corrupt.l2r");

    // Wrong magic.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    std::fs::write(&path, &wrong_magic).unwrap();
    assert!(matches!(
        registry.reload("city", &path).unwrap_err(),
        RegistryError::Snapshot(SnapshotError::BadMagic)
    ));
    assert_still_serving(&registry, &served);

    // Flipped payload bytes at several offsets (checksum catches them all).
    let payload_start = 21;
    let step = ((bytes.len() - payload_start) / 8).max(1);
    for offset in (payload_start..bytes.len()).step_by(step) {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        let err = registry.reload("city", &path).unwrap_err();
        assert!(
            matches!(
                err,
                RegistryError::Snapshot(SnapshotError::ChecksumMismatch { .. })
            ),
            "flip at {offset}: {err}"
        );
        assert_still_serving(&registry, &served);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn failed_load_into_a_new_name_registers_nothing() {
    let (registry, _, mut bytes) = registry_with_model();
    bytes[17] ^= 0x01; // corrupt the checksum
    let path = temp_path("new-name.l2r");
    std::fs::write(&path, &bytes).unwrap();
    assert!(registry.reload("fresh", &path).is_err());
    std::fs::remove_file(&path).ok();
    assert!(registry.get("fresh").is_none());
    assert_eq!(registry.names(), vec!["city".to_string()]);
}

#[test]
fn successful_reload_swaps_and_failed_reload_after_it_keeps_the_replacement() {
    let (registry, original, bytes) = registry_with_model();
    let path = temp_path("good.l2r");
    std::fs::write(&path, &bytes).unwrap();

    // Good reload: new engine object, generation bumps.
    let replacement = registry.reload("city", &path).unwrap();
    assert!(!Arc::ptr_eq(&original, &replacement));
    assert_eq!(registry.generation("city"), Some(2));

    // A failed reload right after keeps the *replacement* (not the
    // original, not nothing).
    let err = registry.reload("city", &temp_path("gone.l2r")).unwrap_err();
    assert!(matches!(
        err,
        RegistryError::Snapshot(SnapshotError::Io { .. })
    ));
    let current = registry.get("city").unwrap();
    assert!(Arc::ptr_eq(&replacement, &current));
    assert_eq!(registry.generation("city"), Some(2));

    // And the replacement answers bit-identically to the original: it was
    // loaded from the original's own snapshot.
    let mut s1 = QueryScratch::new();
    let mut s2 = QueryScratch::new();
    let n = current.network().num_vertices() as u32;
    for i in (0..n).step_by(11) {
        let (a, b) = (VertexId(i), VertexId((i * 5 + 2) % n));
        assert_eq!(original.route(&mut s1, a, b), current.route(&mut s2, a, b));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn engine_load_reports_the_same_errors_as_load_model() {
    // `load_model` is the serving entry point (`l2r_serve` loads every
    // snapshot-file model spec through it); its error surface must be the
    // snapshot layer's, not a panic.
    let err = load_model(&temp_path("nope.l2r")).unwrap_err();
    assert!(matches!(err, SnapshotError::Io { .. }));
    let path = temp_path("engine-bad.l2r");
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    let err = load_model(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, SnapshotError::BadMagic));
}

#[test]
fn save_then_registry_reload_roundtrips_through_a_real_file() {
    let model = fitted();
    let path = temp_path("roundtrip.l2r");
    save_model(&model, &path).unwrap();
    let registry = ModelRegistry::new();
    // `reload` on an empty name acts as the initial load.
    let engine = registry.reload("city", &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(registry.generation("city"), Some(1));
    let mut scratch = QueryScratch::new();
    let n = engine.network().num_vertices() as u32;
    let mut answered = 0;
    for i in (0..n).step_by(7) {
        if engine
            .route(&mut scratch, VertexId(i), VertexId((i * 3 + 1) % n))
            .is_some()
        {
            answered += 1;
        }
    }
    assert!(answered > 0, "the loaded engine must answer queries");
}

#[test]
fn io_errors_name_the_offending_path() {
    let (registry, _, _) = registry_with_model();
    let path = temp_path("which-file-was-it.l2r");
    let err = registry.reload("city", &path).unwrap_err();
    // Operator-facing reload messages must say *which* file failed.
    assert!(err.to_string().contains("which-file-was-it.l2r"), "{err}");
}

#[test]
fn reload_refuses_a_snapshot_stamped_for_another_dataset() {
    let (registry, served, _) = registry_with_model();
    let path = temp_path("other-dataset.l2r");
    save_snapshot(&fitted(), "suburbs", &path).unwrap();
    let err = registry.reload("city", &path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            &err,
            RegistryError::DatasetMismatch { snapshot, requested }
                if snapshot == "suburbs" && requested == "city"
        ),
        "{err}"
    );
    assert_still_serving(&registry, &served);
}

#[test]
fn reload_accepts_a_snapshot_stamped_with_the_matching_dataset() {
    let (registry, original, _) = registry_with_model();
    let path = temp_path("matching-dataset.l2r");
    save_snapshot(&fitted(), "city", &path).unwrap();
    let replacement = registry.reload("city", &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!Arc::ptr_eq(&original, &replacement));
    assert_eq!(registry.generation("city"), Some(2));
}

#[test]
fn reload_rejects_a_snapshot_whose_canaries_mismatch() {
    let (registry, served, _) = registry_with_model();
    let model = fitted();
    // Record a canary whose digest cannot match any real answer.
    let poisoned = [Canary {
        src: VertexId(0),
        dst: VertexId(1),
        digest: 0xDEAD_BEEF_DEAD_BEEF,
    }];
    let path = temp_path("poisoned-canary.l2r");
    std::fs::write(&path, encode_snapshot_with(&model, "city", &poisoned)).unwrap();
    let err = registry.reload("city", &path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            err,
            RegistryError::CanaryMismatch {
                src: 0,
                dst: 1,
                expected: 0xDEAD_BEEF_DEAD_BEEF,
                ..
            }
        ),
        "{err}"
    );
    assert_still_serving(&registry, &served);
}

#[test]
fn reload_replays_recorded_canaries_against_the_compiled_engine() {
    // The happy path of validation: genuine canaries recorded at save time
    // replay cleanly on the decoded model (snapshot round trip).
    let (registry, _, _) = registry_with_model();
    let model = fitted();
    let path = temp_path("genuine-canaries.l2r");
    std::fs::write(&path, encode_snapshot(&model, "city")).unwrap();
    registry.reload("city", &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(registry.generation("city"), Some(2));
}

#[test]
fn rollback_after_reload_restores_the_original_engine() {
    let (registry, original, bytes) = registry_with_model();
    let path = temp_path("rollback-target.l2r");
    std::fs::write(&path, &bytes).unwrap();
    let replacement = registry.reload("city", &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!Arc::ptr_eq(&original, &replacement));

    let (restored, generation) = registry.rollback("city").unwrap();
    assert!(Arc::ptr_eq(&restored, &original));
    assert_eq!(generation, 3);
    assert!(Arc::ptr_eq(&registry.get("city").unwrap(), &original));

    // The failed-validation path must NOT disturb the rollback target: a
    // rejected reload retains nothing.
    assert!(matches!(
        registry.rollback("city"),
        Err(RegistryError::NoPreviousEngine(_))
    ));
}
