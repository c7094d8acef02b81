//! Robustness tests for the snapshot file format: every malformed input —
//! truncation, wrong magic, unknown version, corrupted checksum or payload —
//! must surface as a [`SnapshotError`], never a panic, and the save → load
//! file round-trip must reproduce the model bit-exactly.  The connector
//! section, and then everything after the network, is also attacked below
//! the checksum: crafted and randomly mutated payloads are re-checksummed,
//! so the decoders' own validation is what has to reject them.

use std::ops::Range;

use l2r_core::{
    decode_model, decode_snapshot, encode_model, load_model, save_model, ConnectorTable, L2r,
    L2rConfig, QueryScratch, SnapshotError, SNAPSHOT_CRC_FIELD, SNAPSHOT_HEADER_LEN,
    SNAPSHOT_LEN_FIELD,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_road_network::{crc32, CodecError, Encode, Path, VertexId, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    // A snapshot of the previous format is refused by its version byte:
    // the loader reads exactly one version, not "up to" one.
    let previous = l2r_core::SNAPSHOT_VERSION - 1;
    let mut bytes = encode_model(&fitted());
    bytes[8] = previous;
    let err = decode_snapshot(&bytes).unwrap_err();
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(v) if v == previous),
        "{err}"
    );
    assert!(
        err.to_string().contains(&format!(
            "reads snapshot version {} and manifest version {}",
            l2r_core::SNAPSHOT_VERSION,
            l2r_core::store::MANIFEST_VERSION
        )),
        "{err}"
    );
}

#[test]
fn flipped_checksum_byte_is_detected() {
    let mut bytes = encode_model(&fitted());
    bytes[SNAPSHOT_CRC_FIELD.start] ^= 0x01; // first checksum byte
    assert!(matches!(
        decode_model(&bytes),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn payload_corruption_is_caught_by_the_checksum() {
    let original = encode_model(&fitted());
    // Flip one byte at several payload offsets; the checksum must catch all.
    let payload_start = SNAPSHOT_HEADER_LEN;
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

/// Single-bit flips at the places the CRC's carry-less-multiply kernel
/// treats differently: the first 64 payload bytes (its four initial
/// lanes), the last 15 (which hold the sub-16-byte tail the tables
/// finish, whatever the payload's length mod 16) and one byte per residue
/// mod 64 inside one body block.  The checksum must catch every one.
#[test]
fn single_bit_flips_at_every_kernel_position_are_caught_by_the_checksum() {
    let original = encode_model(&fitted());
    let payload_len = original.len() - SNAPSHOT_HEADER_LEN;
    assert!(
        payload_len >= 256,
        "payload of {payload_len} bytes is too short to fold"
    );
    let body = 64 * (payload_len / 128);
    let offsets = (0..64)
        .chain(payload_len - 15..payload_len)
        .chain((0..64).map(|r| body + r));
    for (i, offset) in offsets.enumerate() {
        let mut bytes = original.clone();
        bytes[SNAPSHOT_HEADER_LEN + offset] ^= 1 << (i % 8);
        assert!(
            matches!(
                decode_model(&bytes),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "bit {} of payload byte {offset} flipped must be detected",
            i % 8
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

/// One connector entry as written: the walk's vertex count, then the
/// out-edge rank of each hop (just `[0]` for an unreachable key).
type Walk = Vec<u32>;

/// The tiny model, its unnamed snapshot, and the byte range of the
/// connector section inside it (the last section of the payload).
fn snapshot_with_section() -> (L2r, Vec<u8>, Range<usize>) {
    let model = fitted();
    let bytes = encode_model(&model);
    let mut section = Writer::new();
    model.connectors().encode(&mut section, model.network());
    let range = bytes.len() - section.len()..bytes.len();
    assert_eq!(&bytes[range.clone()], section.as_slice());
    (model, bytes, range)
}

/// The table's walks, one per key in key order: a hop `a → b` is the
/// first position among `a`'s neighbours (sorted by head) holding `b`.
fn walks(model: &L2r) -> Vec<Walk> {
    let net = model.network();
    model
        .connectors()
        .iter()
        .map(|(_, path)| {
            let path = path.unwrap_or_default();
            let mut walk = vec![path.len() as u32];
            for hop in path.windows(2) {
                let rank = net.neighbors(hop[0]).position(|h| h == hop[1]);
                walk.push(rank.expect("connector paths are drivable") as u32);
            }
            walk
        })
        .collect()
}

/// Writes `walks` in the connector section's wire form: a `u64` entry
/// count, then every count and rank as unsigned LEB128.
fn write_section(walks: &[Walk]) -> Vec<u8> {
    let mut out = (walks.len() as u64).to_le_bytes().to_vec();
    for &value in walks.iter().flatten() {
        let mut v = value;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out
}

/// `bytes` with `range` replaced by `section`, the payload length and the
/// checksum fixed up, so only the payload decoder can object.
fn splice(bytes: &[u8], range: &Range<usize>, section: &[u8]) -> Vec<u8> {
    let mut out = bytes[..range.start].to_vec();
    out.extend_from_slice(section);
    out.extend_from_slice(&bytes[range.end..]);
    let payload_len = (out.len() - SNAPSHOT_HEADER_LEN) as u64;
    out[SNAPSHOT_LEN_FIELD].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[SNAPSHOT_HEADER_LEN..]);
    out[SNAPSHOT_CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Asserts `table` passes the section validation against `model`'s graphs:
/// exactly `keys`, endpoints equal to each key, every path drivable.
fn assert_valid_table(model: &L2r, table: &ConnectorTable, keys: &[(VertexId, VertexId)]) {
    let actual: Vec<(VertexId, VertexId)> = table.iter().map(|(key, _)| key).collect();
    assert_eq!(actual, keys);
    for ((from, to), path) in table.iter() {
        if let Some(p) = path {
            let p = Path::new(p.to_vec()).expect("stored paths are non-empty");
            assert_eq!((p.source(), p.destination()), (from, to));
            assert!(p.validate(model.network()).is_ok());
        }
    }
}

#[test]
fn decoded_connector_table_equals_a_fresh_resolve() {
    let model = fitted();
    let loaded = decode_model(&encode_model(&model)).unwrap();
    let fresh = ConnectorTable::resolve(
        loaded.network(),
        loaded.region_graph(),
        loaded.oriented_paths(),
    );
    assert!(!fresh.is_empty());
    assert!(loaded.connectors() == &fresh);
    assert!(model.connectors() == &fresh);
}

#[test]
fn hand_written_section_matches_the_encoder() {
    let (model, bytes, range) = snapshot_with_section();
    let section = write_section(&walks(&model));
    assert_eq!(&bytes[range.clone()], &section[..]);
    assert_eq!(splice(&bytes, &range, &section), bytes);
}

#[test]
fn crafted_connector_sections_fail_typed() {
    let (model, bytes, range) = snapshot_with_section();
    let original = walks(&model);
    assert!(original.len() > 2);
    let decode_bytes = |section: &[u8]| decode_model(&splice(&bytes, &range, section));
    let decode_with = |edit: &dyn Fn(&mut Vec<Walk>)| {
        let mut crafted = original.clone();
        edit(&mut crafted);
        decode_bytes(&write_section(&crafted))
    };
    let invalid = |result: Result<L2r, SnapshotError>, what: &str| match result {
        Err(SnapshotError::Codec(CodecError::Invalid(msg))) => {
            assert!(msg.contains(what), "expected `{what}`, got `{msg}`")
        }
        Err(e) => panic!("expected `{what}`, got {e}"),
        Ok(_) => panic!("expected `{what}`, the section decoded"),
    };
    // A path that visits at least one vertex between its endpoints, and
    // the vertex its walk starts from.
    let long = original
        .iter()
        .position(|walk| walk[0] >= 3)
        .expect("some connector has an interior vertex");
    let (from, _) = model.connectors().iter().nth(long).expect("in range").0;

    // One entry missing, or one extra (an "unreachable" walk).
    invalid(
        decode_with(&|w| {
            w.remove(w.len() / 2);
        }),
        "differ from the region graph",
    );
    invalid(
        decode_with(&|w| w.insert(w.len() / 2, vec![0])),
        "differ from the region graph",
    );
    // A first hop whose rank names no out-edge of the start vertex.
    let degree = model.network().out_degree(from) as u32;
    invalid(decode_with(&|w| w[long][1] = degree), "undrivable");
    // A walk one hop short ends at the wrong vertex.
    invalid(
        decode_with(&|w| {
            w[long][0] -= 1;
            w[long].pop();
        }),
        "endpoints",
    );
    // The last byte of the last walk announcing one more byte.
    let mut truncated = write_section(&original);
    *truncated.last_mut().expect("non-empty") |= 0x80;
    assert!(matches!(
        decode_bytes(&truncated),
        Err(SnapshotError::Codec(CodecError::UnexpectedEof { .. }))
    ));
    // A byte after the last walk.
    let mut trailing = write_section(&original);
    trailing.push(0);
    invalid(decode_bytes(&trailing), "trailing bytes");
}

#[test]
fn mutated_connector_sections_never_panic() {
    let (model, bytes, range) = snapshot_with_section();
    let keys: Vec<(VertexId, VertexId)> = model.connectors().iter().map(|(key, _)| key).collect();
    let section = &bytes[range.clone()];
    let mut rng = StdRng::seed_from_u64(0xC0_44EC_7042);
    let (mut rejected, mut accepted) = (0usize, 0usize);
    for _ in 0..2_000 {
        let mut mutated = section.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..mutated.len());
            if rng.gen_bool(0.5) {
                mutated[at] ^= 1 << rng.gen_range(0..8);
            } else {
                mutated[at] = rng.gen();
            }
        }
        match decode_model(&splice(&bytes, &range, &mutated)) {
            Err(_) => rejected += 1,
            Ok(loaded) => {
                accepted += 1;
                assert_valid_table(&model, loaded.connectors(), &keys);
            }
        }
    }
    assert!(rejected > 0, "the mutations must exercise the validation");
    eprintln!("{rejected} mutated sections rejected, {accepted} accepted as valid");
}

#[test]
fn mutated_payloads_after_the_network_never_panic() {
    // Everything the payload holds after the network: the region graph, the
    // connector table, the preferences, the config, the fit statistics and
    // the canaries.  A decoded model must also route.
    let model = fitted();
    let bytes = encode_model(&model);
    let mut prefix = Writer::new();
    prefix.str("");
    model.network().encode(&mut prefix);
    let tail = SNAPSHOT_HEADER_LEN + prefix.len()..bytes.len();
    let n = model.network().num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..40u32)
        .map(|i| (VertexId(i * 7 % n), VertexId((i * 13 + 5) % n)))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut rng = StdRng::seed_from_u64(0x5EED_7A11);
    let (mut rejected, mut accepted) = (0usize, 0usize);
    for _ in 0..2_000 {
        let mut mutated = bytes.clone();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(tail.clone());
            if rng.gen_bool(0.5) {
                mutated[at] ^= 1 << rng.gen_range(0..8);
            } else {
                mutated[at] = rng.gen();
            }
        }
        let crc = crc32(&mutated[SNAPSHOT_HEADER_LEN..]);
        mutated[SNAPSHOT_CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
        match decode_model(&mutated) {
            Err(_) => rejected += 1,
            Ok(loaded) => {
                accepted += 1;
                for &(s, d) in &pairs {
                    let _ = loaded.route(&mut scratch, s, d);
                }
            }
        }
    }
    assert!(rejected > 0, "the mutations must exercise the validation");
    assert!(accepted > 0, "some mutations must decode and be routed");
    eprintln!("{rejected} mutated payloads rejected, {accepted} decoded and routed");
}
