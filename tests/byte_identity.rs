//! Byte-identity pins: the D1 network encoding and the structural model
//! encoding (`encode_model_structural`) at quick and full scale hash to fixed
//! CRC-32 values.  The network's in-memory edge layout, the search kernel and
//! the fit may be reorganised freely, but any change that alters a single
//! search result, tie-break or encoded byte moves one of these values.  The
//! structural model pins cover the persisted connector table too, so they
//! also catch a resolver change that alters one connector path.  The model
//! store's `MANIFEST` encoding of a fixed manifest is pinned the same way.

use l2r_core::{encode_manifest, encode_model_structural, Manifest, ManifestEntry};
use l2r_eval::{build_dataset, DatasetSpec, Scale};
use l2r_road_network::{Encode, Writer};

/// CRC-32 (IEEE 802.3, reflected), bit by bit: independent of the table
/// implementations the snapshot and wire codecs use.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `(network CRC, structural model CRC)` of the D1 dataset at `scale`.
fn d1_crcs(scale: Scale) -> (u32, u32) {
    let ds = build_dataset(DatasetSpec::d1(scale));
    let mut w = Writer::new();
    ds.synthetic.net.encode(&mut w);
    (
        crc32(w.as_slice()),
        crc32(&encode_model_structural(&ds.model)),
    )
}

#[test]
fn crc32_matches_the_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn quick_d1_encodings_are_pinned() {
    let (network, model) = d1_crcs(Scale::Quick);
    assert_eq!(format!("{network:08x}"), "bd72a0e7", "network encoding");
    assert_eq!(format!("{model:08x}"), "6eeeba6b", "structural model");
}

#[test]
fn full_d1_encodings_are_pinned() {
    let (network, model) = d1_crcs(Scale::Full);
    assert_eq!(format!("{network:08x}"), "62d16eda", "network encoding");
    assert_eq!(format!("{model:08x}"), "8f0ace31", "structural model");
}

#[test]
fn store_manifest_encoding_is_pinned() {
    // The fixed manifest of `crates/core/tests/store_robustness.rs`.
    let manifest = Manifest {
        dataset: "city".to_string(),
        active: 7,
        entries: vec![
            ManifestEntry {
                generation: 5,
                len: 4096,
                crc: 0x1234_5678,
            },
            ManifestEntry {
                generation: 7,
                len: 4100,
                crc: 0x9ABC_DEF0,
            },
        ],
    };
    let bytes = encode_manifest(&manifest);
    assert_eq!(bytes.len(), 85, "store manifest length");
    assert_eq!(
        format!("{:08x}", crc32(&bytes)),
        "c2fe84af",
        "store manifest"
    );
}
