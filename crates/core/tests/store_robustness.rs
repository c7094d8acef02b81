//! Malformed-`MANIFEST` surface of the model store, mirroring
//! `snapshot_robustness.rs`.  The manifest is sealed with the snapshot
//! header, so every truncation cut, checksum flip and stale version must
//! decode to the same precise [`SnapshotError`] a snapshot would give.  At
//! the store level, a damaged or lost manifest must *recover* (falling back
//! to the newest durable generation) rather than error, as long as
//! generation files survive, for `open` and `create` alike.  Also pins
//! store-level retention and the generation-number monotonicity contract.

use l2r_core::{
    decode_manifest, encode_manifest, L2r, L2rConfig, Manifest, ManifestEntry, ModelStore,
    SnapshotError, StoreError, StoreOptions,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};

fn fitted() -> L2r {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let (train, _) = wl.temporal_split(0.8);
    L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("l2r-store-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest() -> Manifest {
    Manifest {
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
    }
}

#[test]
fn manifest_decodes_what_it_encodes() {
    let m = manifest();
    let bytes = encode_manifest(&m);
    assert_eq!(decode_manifest(&bytes).unwrap(), m);
}

#[test]
fn manifest_rejects_wrong_magic() {
    let mut bytes = encode_manifest(&manifest());
    bytes[0] ^= 0xFF;
    assert!(matches!(
        decode_manifest(&bytes),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn manifest_rejects_stale_version() {
    let mut bytes = encode_manifest(&manifest());
    bytes[8] = l2r_core::store::MANIFEST_VERSION + 1;
    assert!(matches!(
        decode_manifest(&bytes),
        Err(SnapshotError::UnsupportedVersion(v)) if v == l2r_core::store::MANIFEST_VERSION + 1
    ));
}

#[test]
fn manifest_rejects_every_truncation_cut() {
    let bytes = encode_manifest(&manifest());
    for cut in [4usize, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = decode_manifest(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::BadMagic
                    | SnapshotError::TruncatedHeader { .. }
                    | SnapshotError::Truncated { .. }
            ),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn manifest_rejects_trailing_bytes() {
    let mut bytes = encode_manifest(&manifest());
    bytes.push(0xAA);
    assert!(matches!(
        decode_manifest(&bytes),
        Err(SnapshotError::TrailingBytes(1))
    ));
}

#[test]
fn manifest_rejects_payload_flips_at_every_offset() {
    let bytes = encode_manifest(&manifest());
    let payload_start = 21;
    for offset in payload_start..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x40;
        let err = decode_manifest(&corrupt).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "flip at {offset}: {err}"
        );
    }
}

#[test]
fn store_roundtrips_publish_and_load() {
    let dir = temp_dir("roundtrip");
    let model = fitted();
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    assert_eq!(store.latest(), None);
    assert!(matches!(
        store.load_latest(),
        Err(StoreError::NoDurableGeneration)
    ));

    let g1 = store.publish(&model).unwrap();
    assert_eq!(g1, 1);
    assert_eq!(store.latest(), Some(1));
    let (g, snap) = store.load_latest().unwrap();
    assert_eq!(g, 1);
    assert_eq!(snap.dataset, "city");
    assert!(!snap.canaries.is_empty());

    // Reopen from disk: same state.
    let reopened = ModelStore::open(&dir).unwrap();
    assert_eq!(reopened.dataset(), "city");
    assert_eq!(reopened.latest(), Some(1));
    assert_eq!(
        reopened.load_bytes(1).unwrap(),
        store.load_bytes(1).unwrap()
    );

    assert!(matches!(
        store.load(9),
        Err(StoreError::UnknownGeneration(9))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_retention_is_bounded_and_never_drops_the_active_generation() {
    let dir = temp_dir("retention");
    let model = fitted();
    let mut store = ModelStore::create(&dir, "city", StoreOptions { retain: 2 }).unwrap();
    for expect in 1..=5u64 {
        assert_eq!(store.publish(&model).unwrap(), expect);
    }
    assert_eq!(store.generations(), vec![4, 5]);
    assert_eq!(store.latest(), Some(5));
    // Dropped generation files are unlinked, retained ones load.
    assert!(matches!(
        store.load(3),
        Err(StoreError::UnknownGeneration(3))
    ));
    store.load(4).unwrap();
    store.load(5).unwrap();
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.contains("gen-00000003")),
        "{names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_recovers_from_a_torn_manifest_by_scanning_generations() {
    let dir = temp_dir("torn-manifest");
    let model = fitted();
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    store.publish(&model).unwrap();
    store.publish(&model).unwrap();
    let good = store.load_bytes(2).unwrap();

    // Tear the manifest mid-file (as a crash during a non-atomic write
    // would) and reopen: recovery adopts the newest verifying generation
    // and rewrites the manifest durably.
    let manifest_path = dir.join(l2r_core::store::MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &bytes[..bytes.len() / 2]).unwrap();

    let recovered = ModelStore::open(&dir).unwrap();
    assert_eq!(recovered.dataset(), "city");
    assert_eq!(recovered.latest(), Some(2));
    assert_eq!(recovered.load_bytes(2).unwrap(), good);
    // The rewritten manifest is durable: a second open needs no recovery.
    decode_manifest(&std::fs::read(&manifest_path).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_recovers_from_a_deleted_manifest() {
    let dir = temp_dir("missing-manifest");
    let model = fitted();
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    store.publish(&model).unwrap();
    let good = store.load_bytes(1).unwrap();
    std::fs::remove_file(dir.join(l2r_core::store::MANIFEST_FILE)).unwrap();
    let recovered = ModelStore::open(&dir).unwrap();
    assert_eq!(recovered.latest(), Some(1));
    assert_eq!(recovered.load_bytes(1).unwrap(), good);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_generation_numbers_are_never_reused() {
    let dir = temp_dir("monotonic");
    let model = fitted();
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    store.publish(&model).unwrap();
    store.publish(&model).unwrap();

    // Simulate a crash that left gen 3 renamed into place but never
    // manifest-committed: the file exists, the manifest says active = 2.
    let uncommitted = dir.join("gen-00000003.l2r");
    std::fs::write(&uncommitted, store.load_bytes(2).unwrap()).unwrap();

    let mut reopened = ModelStore::open(&dir).unwrap();
    assert_eq!(reopened.latest(), Some(2));
    // The next publish must skip over the orphaned number: generation ids
    // are write-once even across crashes.
    let next = reopened.publish(&model).unwrap();
    assert_eq!(next, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opening_a_non_store_directory_errors() {
    let dir = temp_dir("not-a-store");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(matches!(
        ModelStore::open(&dir),
        Err(StoreError::NotAStore(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn create_refuses_a_store_holding_another_dataset() {
    let dir = temp_dir("wrong-dataset");
    ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    let err = ModelStore::create(&dir, "suburbs", StoreOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            StoreError::DatasetMismatch { store, requested }
                if store == "city" && requested == "suburbs"
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn create_recovers_a_store_whose_manifest_was_lost() {
    let dir = temp_dir("create-lost-manifest");
    let model = fitted();
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    store.publish(&model).unwrap();
    store.publish(&model).unwrap();
    let gen1 = store.load_bytes(1).unwrap();
    let gen2 = store.load_bytes(2).unwrap();
    drop(store);
    std::fs::remove_file(dir.join(l2r_core::store::MANIFEST_FILE)).unwrap();
    // A torn generation 3 (renamed into place, never committed, later cut
    // short): it fails verification, but its number is still taken.
    std::fs::write(dir.join("gen-00000003.l2r"), &gen2[..gen2.len() / 2]).unwrap();

    // Another dataset is refused: the surviving generations say `city`.
    let err = ModelStore::create(&dir, "other", StoreOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            StoreError::DatasetMismatch { store, requested }
                if store == "city" && requested == "other"
        ),
        "{err}"
    );
    assert_eq!(std::fs::read(dir.join("gen-00000001.l2r")).unwrap(), gen1);
    // That refusal recovered the manifest on the way; lose it again.
    std::fs::remove_file(dir.join(l2r_core::store::MANIFEST_FILE)).unwrap();

    // The same dataset recovers both generations, as `open` would, and
    // numbers the next publish past every generation file present.
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    assert_eq!(store.generations(), vec![1, 2]);
    assert_eq!(store.latest(), Some(2));
    assert_eq!(store.publish(&model).unwrap(), 4);
    assert_eq!(store.load_bytes(1).unwrap(), gen1);
    assert_eq!(store.load_bytes(2).unwrap(), gen2);
    assert_eq!(ModelStore::open(&dir).unwrap().generations(), vec![1, 2, 4]);
    let _ = std::fs::remove_dir_all(&dir);
}
