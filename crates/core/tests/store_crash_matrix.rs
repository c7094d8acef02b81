//! The crash matrix: for **every** mutating filesystem operation of a
//! publish, inject a fault at that operation (crash, short write, bit
//! flip, `ENOSPC`) and prove the invariant — *after a crash at any
//! injected point, the store opens and serves the newest durable
//! generation bit-identically*.  "Durable" means manifest-committed: a
//! crash strictly before the manifest rename
//! ([`l2r_core::store::PUBLISH_OP_COMMIT`]) leaves the previous generation
//! active; a crash at or after it leaves the new one active.
//!
//! The fault schedule is seeded; override with `L2R_CHAOS_SEED=<u64>` to
//! rehearse different short-write lengths and bit-flip positions (CI runs
//! two extra fixed seeds).

use std::sync::Arc;

use l2r_core::store::{PUBLISH_OP_COMMIT, PUBLISH_OP_WRITE_SNAPSHOT};
use l2r_core::{
    encode_snapshot, FaultFs, FsFaultConfig, FsFaultKind, L2r, L2rConfig, ModelStore, QueryScratch,
    StoreOptions,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_road_network::VertexId;

/// The fault-schedule seed of this run (`L2R_CHAOS_SEED` overrides).
fn chaos_seed() -> u64 {
    std::env::var("L2R_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA17_5EED)
}

fn fitted(trajectories: usize) -> L2r {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(trajectories));
    let (train, _) = wl.temporal_split(0.8);
    L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("l2r-crash-matrix-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a store holding `old` as durable generation 1, then publishes
/// `new` through a [`FaultFs`] injecting `kind` at mutating op `fault_at`.
/// Returns (publish succeeded, the FaultFs for inspection).
fn faulted_publish(
    dir: &std::path::Path,
    old: &L2r,
    new: &L2r,
    fault_at: Option<u64>,
    kind: FsFaultKind,
    retain: usize,
) -> (bool, Arc<FaultFs>) {
    let mut store = ModelStore::create(dir, "city", StoreOptions { retain }).unwrap();
    store.publish(old).unwrap();
    drop(store);

    let fs = Arc::new(FaultFs::new(FsFaultConfig {
        seed: chaos_seed(),
        fault_at,
        kind,
    }));
    // Opening a clean store performs no mutating ops, so publish ops start
    // at index 0 regardless of the open.  retain: 1 makes the publish
    // include a retention unlink, so the matrix covers that op too.
    let mut store = ModelStore::open_with_options(
        Arc::clone(&fs) as Arc<dyn l2r_core::StoreFs>,
        dir,
        StoreOptions { retain },
    )
    .expect("opening a clean store never faults");
    assert_eq!(fs.ops(), 0, "open of a clean store must not mutate");
    let ok = store.publish(new).is_ok();
    (ok, fs)
}

/// The recovery invariant: reopening `dir` on the real filesystem serves
/// `expect_gen` with exactly `expect_bytes`, the decoded model answers
/// queries, and no temp files survive.
fn assert_recovers(dir: &std::path::Path, expect_gen: u64, expect_bytes: &[u8], context: &str) {
    let store = ModelStore::open(dir).unwrap_or_else(|e| panic!("{context}: open failed: {e}"));
    assert_eq!(store.latest(), Some(expect_gen), "{context}");
    let bytes = store
        .load_bytes(expect_gen)
        .unwrap_or_else(|e| panic!("{context}: load failed: {e}"));
    assert_eq!(
        bytes, expect_bytes,
        "{context}: served bytes not bit-identical"
    );
    let (_, snap) = store.load_latest().unwrap();
    let model = snap.model;
    let mut scratch = QueryScratch::new();
    let n = model.network().num_vertices() as u32;
    let mut answered = 0;
    for i in (0..n.min(40)).step_by(7) {
        if model
            .route(&mut scratch, VertexId(i), VertexId((i * 3 + 1) % n))
            .is_some()
        {
            answered += 1;
        }
    }
    assert!(answered > 0, "{context}: recovered model must answer");
    // Recovery leaves no torn temp files behind (open sweeps them).
    let reopened = ModelStore::open(dir).unwrap();
    drop(reopened);
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "{context}: orphan temp `{name}`");
    }
}

/// Counts the mutating ops of one full publish (no fault injected), so the
/// matrix enumerates every injection point exactly.
fn publish_op_count() -> u64 {
    let dir = temp_dir("op-count");
    let (ok, fs) = faulted_publish(
        &dir,
        &fitted(250),
        &fitted(200),
        None,
        FsFaultKind::Crash,
        1,
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "un-faulted publish must succeed");
    fs.ops()
}

#[test]
fn crash_matrix_serves_the_newest_durable_generation_at_every_point() {
    let old = fitted(250);
    let new = fitted(200);
    let old_bytes = encode_snapshot(&old, "city");
    let new_bytes = encode_snapshot(&new, "city");
    assert_ne!(old_bytes, new_bytes, "matrix needs two distinct models");

    let total_ops = publish_op_count();
    assert!(
        total_ops > PUBLISH_OP_COMMIT,
        "publish must at least reach its commit op ({total_ops} ops)"
    );

    for kind in [
        FsFaultKind::Crash,
        FsFaultKind::ShortWrite,
        FsFaultKind::Enospc,
    ] {
        for op in 0..total_ops {
            let context = format!("{kind:?} at op {op}");
            let dir = temp_dir(&format!("{kind:?}-{op}"));
            let (ok, fs) = faulted_publish(&dir, &old, &new, Some(op), kind, 1);
            assert!(fs.injected(), "{context}: fault never fired");
            // The commit op is the durability boundary: a fault striking
            // before the manifest rename leaves generation 1 active, at or
            // after it generation 2.  A fault *after* the commit (the
            // trailing dir fsync or a retention unlink) may or may not
            // fail the publish call, but never un-commits it.
            let committed = op > PUBLISH_OP_COMMIT;
            if !committed {
                assert!(!ok, "{context}: an uncommitted publish must error");
            }
            let (expect_gen, expect_bytes): (u64, &[u8]) = if committed {
                (2, &new_bytes)
            } else {
                (1, &old_bytes)
            };
            assert_recovers(&dir, expect_gen, expect_bytes, &context);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn bit_flip_in_the_snapshot_file_falls_back_to_the_previous_generation() {
    let old = fitted(250);
    let new = fitted(200);
    let old_bytes = encode_snapshot(&old, "city");

    let dir = temp_dir("bitflip-snapshot");
    // A bit flip is *silent*: the publish succeeds and the writer believes
    // the new generation is live.  Only checksums catch it at open time.
    let (ok, fs) = faulted_publish(
        &dir,
        &old,
        &new,
        Some(PUBLISH_OP_WRITE_SNAPSHOT),
        FsFaultKind::BitFlip,
        2,
    );
    assert!(ok && fs.injected());
    assert_recovers(&dir, 1, &old_bytes, "bit flip in snapshot write");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_the_manifest_recovers_the_new_generation_by_scan() {
    use l2r_core::store::PUBLISH_OP_WRITE_MANIFEST;
    let old = fitted(250);
    let new = fitted(200);
    let new_bytes = encode_snapshot(&new, "city");

    let dir = temp_dir("bitflip-manifest");
    // Here the generation file itself is intact — only the manifest is
    // rotten — so recovery's directory scan adopts the *new* generation:
    // it is durable on disk even though the manifest lies.
    let (ok, fs) = faulted_publish(
        &dir,
        &old,
        &new,
        Some(PUBLISH_OP_WRITE_MANIFEST),
        FsFaultKind::BitFlip,
        2,
    );
    assert!(ok && fs.injected());
    assert_recovers(&dir, 2, &new_bytes, "bit flip in manifest write");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_failure_is_clean_and_retryable() {
    let old = fitted(250);
    let new = fitted(200);
    let new_bytes = encode_snapshot(&new, "city");

    let dir = temp_dir("enospc-retry");
    let (ok, fs) = faulted_publish(&dir, &old, &new, Some(0), FsFaultKind::Enospc, 2);
    assert!(!ok && fs.injected());
    // ENOSPC does not kill the process: the same store handle can retry
    // once space frees up, and the retry must not burn the generation
    // number space unboundedly nor leave torn state.
    let mut store = ModelStore::open(&dir).unwrap();
    assert_eq!(store.latest(), Some(1));
    let g = store.publish(&new).unwrap();
    assert_eq!(store.load_bytes(g).unwrap(), new_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
