//! Robustness tests for the snapshot file format: every malformed input —
//! truncation, wrong magic, unknown version, corrupted checksum or payload —
//! must surface as a [`SnapshotError`], never a panic, and the save → load
//! file round-trip must reproduce the model bit-exactly.

use l2r_core::{
    decode_model, decode_snapshot, encode_model, load_model, save_model, L2r, L2rConfig,
    SnapshotError,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_road_network::CodecError;

fn fitted() -> L2r {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let (train, _) = wl.temporal_split(0.8);
    L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("l2r-snapshot-test-{}-{name}", std::process::id()))
}

#[test]
fn save_load_file_roundtrip_is_bit_exact() {
    let model = fitted();
    let path = temp_path("roundtrip.l2r");
    let bytes_written = save_model(&model, &path).unwrap();
    assert_eq!(
        bytes_written,
        std::fs::metadata(&path).unwrap().len(),
        "reported size must match the file"
    );
    let loaded = load_model(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // Deterministic encoding makes re-encoding a whole-model equality check.
    assert_eq!(encode_model(&loaded), encode_model(&model));
}

#[test]
fn truncated_files_error_at_every_cut() {
    let bytes = encode_model(&fitted());
    // Sweep header cuts exhaustively and payload cuts sparsely.
    let mut cuts: Vec<usize> = (0..25.min(bytes.len())).collect();
    cuts.extend([bytes.len() / 2, bytes.len() - 1]);
    for cut in cuts {
        let err = decode_model(&bytes[..cut]);
        assert!(err.is_err(), "truncation at {cut} bytes must error");
    }
    // A file with the right magic that ends inside the fixed header gets the
    // dedicated variant (the generic Truncated fields would be misleading).
    assert!(matches!(
        decode_model(&bytes[..12]),
        Err(SnapshotError::TruncatedHeader { len: 12 })
    ));
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = encode_model(&fitted());
    bytes[0] ^= 0xFF;
    assert!(matches!(decode_model(&bytes), Err(SnapshotError::BadMagic)));
    assert!(matches!(
        decode_model(b"not a snapshot at all"),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn future_format_versions_are_rejected() {
    let mut bytes = encode_model(&fitted());
    bytes[8] = l2r_core::SNAPSHOT_VERSION + 1;
    assert!(matches!(
        decode_model(&bytes),
        Err(SnapshotError::UnsupportedVersion(v)) if v == l2r_core::SNAPSHOT_VERSION + 1
    ));
}

#[test]
fn previous_format_versions_are_rejected() {
    // Every snapshot written before the solver byte was dropped carries
    // version 2; the loader reads exactly one version, not "up to" one.
    let mut bytes = encode_model(&fitted());
    bytes[8] = l2r_core::SNAPSHOT_VERSION - 1;
    let err = decode_snapshot(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::UnsupportedVersion(2)), "{err}");
    assert!(
        err.to_string().contains(&format!(
            "reads only version {}",
            l2r_core::SNAPSHOT_VERSION
        )),
        "{err}"
    );
}

#[test]
fn flipped_checksum_byte_is_detected() {
    let mut bytes = encode_model(&fitted());
    bytes[17] ^= 0x01; // first checksum byte
    assert!(matches!(
        decode_model(&bytes),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn payload_corruption_is_caught_by_the_checksum() {
    let original = encode_model(&fitted());
    // Flip one byte at several payload offsets; the checksum must catch all.
    let payload_start = 21;
    let step = ((original.len() - payload_start) / 16).max(1);
    for offset in (payload_start..original.len()).step_by(step) {
        let mut bytes = original.clone();
        bytes[offset] ^= 0x40;
        assert!(
            matches!(
                decode_model(&bytes),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "flip at {offset} must be detected"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = encode_model(&fitted());
    bytes.push(0);
    assert!(matches!(
        decode_model(&bytes),
        Err(SnapshotError::TrailingBytes(1))
    ));
}

#[test]
fn missing_file_is_an_io_error() {
    let path = temp_path("does-not-exist.l2r");
    assert!(matches!(load_model(&path), Err(SnapshotError::Io { .. })));
}

#[test]
fn errors_display_useful_messages() {
    let mut bytes = encode_model(&fitted());
    bytes[8] = 250;
    let msg = decode_model(&bytes).unwrap_err().to_string();
    assert!(
        msg.contains("250"),
        "version error should name the version: {msg}"
    );

    let codec: SnapshotError = CodecError::Invalid("test marker").into();
    assert!(codec.to_string().contains("test marker"));
}
