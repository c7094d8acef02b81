//! Model-lifecycle integration tests: the crash-safe store, validated
//! hot-swap, explicit rollback, and automatic post-swap rollback — all
//! exercised over real TCP through **both** wire protocols.
//!
//! Ties the `l2r_core::store` durability layer to the serving stack: a
//! server reloads straight out of a model-store directory (newest durable
//! generation or a pinned one), a poisoned snapshot is rejected with the
//! old engine still serving and the `validation_failures` counter honest,
//! and an error spike inside the probation window rolls the swap back
//! without an operator in the loop.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{start_server, DATASET};
use l2r_core::{
    compute_canaries, encode_snapshot_with, L2r, L2rConfig, ModelStore, QueryScratch, StoreOptions,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_serve::{BinClient, Client, Counter, FaultConfig, FaultPlan, ServerConfig};

fn fitted() -> L2r {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let (train, _) = wl.temporal_split(0.8);
    L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("l2r-lifecycle-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store holding `generations` durable generations of a freshly fitted
/// model, stamped with the test dataset name.
fn seeded_store(dir: &std::path::Path, generations: u64) -> L2r {
    let model = fitted();
    let mut store = ModelStore::create(dir, DATASET, StoreOptions::default()).unwrap();
    for _ in 0..generations {
        store.publish(&model).unwrap();
    }
    model
}

/// Parses the numeric `key=value` fields of an ASCII stats line (the text
/// after `OK `), expanding `generations=name:gen,…` into `generation.name`
/// keys so it is directly comparable to the binary field list.
fn parse_stats_line(line: &str) -> HashMap<String, u64> {
    let mut fields = HashMap::new();
    for token in line.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            continue;
        };
        if key == "datasets" {
            continue;
        }
        if key == "generations" {
            if value == "-" {
                continue;
            }
            for pair in value.split(',') {
                let (name, generation) = pair.split_once(':').expect("name:gen pair");
                fields.insert(
                    format!("generation.{name}"),
                    generation.parse().expect("generation number"),
                );
            }
            continue;
        }
        fields.insert(key.to_string(), value.parse().expect("numeric stat"));
    }
    fields
}

/// Every counter the ASCII `stats` line carries must agree field-for-field
/// with the structured pairs of the binary `stats` response (`uptime_ms`
/// excepted: the two are read at different instants).
#[test]
fn stats_agree_field_for_field_across_protocols() {
    let (handle, addr, _state) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut ascii = Client::connect(addr).unwrap();
    // Connect the binary client *before* either read, so the connection
    // counter cannot move between the two snapshots.
    let mut bin = BinClient::connect(addr).unwrap();

    // Put traffic on the counters so parity is not trivially zero==zero.
    for i in 0..5u32 {
        ascii
            .request(&format!("route {DATASET} {i} {}", i + 1))
            .unwrap();
    }
    ascii.request("route nosuch 0 1").unwrap();

    let line = ascii.request("stats").unwrap();
    let line = line.strip_prefix("OK ").expect("stats answers OK");
    let from_ascii = parse_stats_line(line);
    let from_binary: HashMap<String, u64> = bin.stats_fields().unwrap().into_iter().collect();

    assert!(
        from_binary.len() >= from_ascii.len(),
        "binary stats must expose every ASCII field: {from_binary:?}"
    );
    for (key, value) in &from_ascii {
        if key == "uptime_ms" {
            continue;
        }
        assert_eq!(
            from_binary.get(key),
            Some(value),
            "field `{key}` disagrees between protocols\n ascii: {from_ascii:?}\nbinary: {from_binary:?}"
        );
    }
    for key in [
        "queries",
        "errors",
        "validation_failures",
        "rollbacks",
        &format!("generation.{DATASET}"),
    ] {
        assert!(
            from_ascii.contains_key(key),
            "ASCII line lacks `{key}`: {line}"
        );
    }
    assert_eq!(from_ascii["queries"], 5);
    assert_eq!(from_ascii["errors"], 1);

    drop(bin);
    ascii.request("shutdown").unwrap();
    handle.shutdown().unwrap();
}

/// Store-directory reloads (newest + pinned generation) and explicit
/// rollbacks over both protocols, with honest generation numbers and
/// counters end to end.
#[test]
fn store_reload_and_rollback_over_tcp() {
    let dir = temp_dir("store-reload");
    seeded_store(&dir, 2);
    let (handle, addr, state) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut ascii = Client::connect(addr).unwrap();
    let dirs = dir.display();

    // ASCII: reload the newest durable generation, then pin store gen 1.
    assert_eq!(
        ascii.request(&format!("reload {DATASET} {dirs}")).unwrap(),
        format!("OK dataset={DATASET} generation=2")
    );
    assert_eq!(
        ascii
            .request(&format!("reload {DATASET} {dirs} 1"))
            .unwrap(),
        format!("OK dataset={DATASET} generation=3")
    );
    let bad_spec = ascii
        .request(&format!("reload {DATASET} {dirs} nonsense"))
        .unwrap();
    assert!(
        bad_spec.starts_with("ERR") && bad_spec.contains("latest"),
        "{bad_spec}"
    );

    // ASCII rollback is a swap: the generation bumps.
    assert_eq!(
        ascii.request(&format!("rollback {DATASET}")).unwrap(),
        format!("OK dataset={DATASET} generation=4")
    );
    // Routes still answered after the rollback.
    let route = ascii.request(&format!("route {DATASET} 0 1")).unwrap();
    assert!(route.starts_with("OK") || route == "NOROUTE", "{route}");

    // Binary: reload `latest` from the store, then roll it back too.
    let mut bin = BinClient::connect(addr).unwrap();
    assert_eq!(
        bin.reload_spec(DATASET, &dirs.to_string(), Some("latest"))
            .unwrap(),
        5
    );
    assert_eq!(bin.rollback(DATASET).unwrap(), 6);
    // The retained engine was consumed: no flip-flop.
    let err = bin.rollback(DATASET).unwrap_err();
    assert!(err.to_string().contains("rollback failed"), "{err}");

    assert_eq!(state.stats().get(Counter::Reloads), 3);
    assert_eq!(state.stats().get(Counter::Rollbacks), 2);
    assert_eq!(state.stats().get(Counter::ValidationFailures), 0);
    assert_eq!(state.registry().generation(DATASET), Some(6));

    drop(bin);
    ascii.request("shutdown").unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose canaries do not reproduce — or whose dataset stamp
/// does not match — is rejected with the old engine still serving and
/// exactly accounted in `validation_failures`.
#[test]
fn poisoned_snapshots_are_rejected_and_counted() {
    let dir = temp_dir("poisoned");
    std::fs::create_dir_all(&dir).unwrap();
    let model = fitted();

    // Canaries recorded from the real model, then poisoned: the digests
    // can no longer reproduce on the decoded model.
    let mut canaries = compute_canaries(&model, 4);
    assert!(!canaries.is_empty());
    for c in &mut canaries {
        c.digest ^= 0xDEAD_BEEF;
    }
    let poisoned = dir.join("poisoned.l2r");
    std::fs::write(&poisoned, encode_snapshot_with(&model, DATASET, &canaries)).unwrap();

    // A healthy snapshot stamped with the wrong dataset.
    let foreign = dir.join("foreign.l2r");
    let good_canaries = compute_canaries(&model, 4);
    std::fs::write(
        &foreign,
        encode_snapshot_with(&model, "somewhere-else", &good_canaries),
    )
    .unwrap();

    let (handle, addr, state) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut ascii = Client::connect(addr).unwrap();

    // Pin the pre-reload answer so "old engine keeps serving" is a
    // byte-for-byte claim, not a liveness one.
    let before = ascii.request(&format!("route {DATASET} 0 1")).unwrap();

    let rejected = ascii
        .request(&format!("reload {DATASET} {}", poisoned.display()))
        .unwrap();
    assert!(
        rejected.starts_with("ERR reload failed") && rejected.contains("canary"),
        "{rejected}"
    );
    assert_eq!(state.stats().get(Counter::ValidationFailures), 1);

    let mismatched = ascii
        .request(&format!("reload {DATASET} {}", foreign.display()))
        .unwrap();
    assert!(
        mismatched.starts_with("ERR reload failed") && mismatched.contains("somewhere-else"),
        "{mismatched}"
    );
    assert_eq!(state.stats().get(Counter::ValidationFailures), 2);

    // Neither rejection swapped anything.
    assert_eq!(state.stats().get(Counter::Reloads), 0);
    assert_eq!(state.registry().generation(DATASET), Some(1));
    assert_eq!(
        ascii.request(&format!("route {DATASET} 0 1")).unwrap(),
        before
    );

    ascii.request("shutdown").unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// After a hot-swap, an internal-error spike inside the probation window
/// rolls the dataset back automatically — exactly once — and the counters
/// record it.
#[test]
fn error_spike_in_probation_triggers_automatic_rollback() {
    let dir = temp_dir("auto-rollback");
    seeded_store(&dir, 1);
    // Every route handler panics; with a window of 8 at 250‰ the budget is
    // 2 internal errors, so the third route after the swap must trigger.
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 7,
        handler_panic_per_mille: 1000,
        ..FaultConfig::default()
    }));
    let (handle, addr, state) = start_server(ServerConfig {
        workers: 2,
        auto_rollback_window: 8,
        auto_rollback_per_mille: 250,
        faults: Some(plan),
        ..ServerConfig::default()
    });
    let mut ascii = Client::connect(addr).unwrap();

    assert_eq!(
        ascii
            .request(&format!("reload {DATASET} {}", dir.display()))
            .unwrap(),
        format!("OK dataset={DATASET} generation=2")
    );

    for i in 0..6u32 {
        let response = ascii
            .request(&format!("route {DATASET} {i} {}", i + 1))
            .unwrap();
        assert!(response.starts_with("ERR internal"), "{response}");
    }
    // The trigger runs on the event-loop thread right after the deciding
    // response is filled; give it a moment under load.
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.stats().get(Counter::Rollbacks) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        state.stats().get(Counter::Rollbacks),
        1,
        "probation must roll back once"
    );
    // A rollback is a swap: generation 2 (the bad reload) became 3.
    assert_eq!(state.registry().generation(DATASET), Some(3));
    assert!(!state.registry().has_previous(DATASET));

    ascii.request("shutdown").unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean probation window passes quietly: no rollback, probation
/// disarmed, the new engine keeps serving.
#[test]
fn clean_probation_window_passes_without_rollback() {
    let dir = temp_dir("clean-probation");
    seeded_store(&dir, 1);
    let (handle, addr, state) = start_server(ServerConfig {
        workers: 2,
        auto_rollback_window: 4,
        auto_rollback_per_mille: 250,
        ..ServerConfig::default()
    });
    let mut ascii = Client::connect(addr).unwrap();

    assert_eq!(
        ascii
            .request(&format!("reload {DATASET} {}", dir.display()))
            .unwrap(),
        format!("OK dataset={DATASET} generation=2")
    );
    for i in 0..8u32 {
        let response = ascii
            .request(&format!("route {DATASET} {i} {}", i + 1))
            .unwrap();
        assert!(!response.starts_with("ERR"), "{response}");
    }
    assert_eq!(state.stats().get(Counter::Rollbacks), 0);
    assert_eq!(state.registry().generation(DATASET), Some(2));
    // The retained engine is still there for a *manual* rollback.
    assert!(state.registry().has_previous(DATASET));

    ascii.request("shutdown").unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--model NAME=<dir>` serves a store directory: `registry_from_specs`
/// opens it and installs the newest durable generation.
#[test]
fn registry_from_specs_accepts_a_store_directory() {
    let dir = temp_dir("specs-dir");
    let reference = seeded_store(&dir, 2);
    let registry = l2r_serve::registry_from_specs(&[(DATASET.to_string(), dir.clone())]).unwrap();
    let served = registry.get(DATASET).expect("store-backed dataset");

    let (mut a, mut b) = (QueryScratch::new(), QueryScratch::new());
    let n = reference.network().num_vertices() as u32;
    for i in (0..n).step_by(7) {
        let (s, d) = (
            l2r_road_network::VertexId(i),
            l2r_road_network::VertexId((i * 13 + 1) % n),
        );
        assert_eq!(served.route(&mut a, s, d), reference.route(&mut b, s, d));
    }

    // A directory that is not a store is a clean error, not a panic.
    let empty = temp_dir("specs-dir-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let err = l2r_serve::registry_from_specs(&[(DATASET.to_string(), empty.clone())])
        .expect_err("an empty directory is not a store");
    assert!(err.contains("failed to open store"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

/// Startup runs the reload checks: `registry_from_specs` refuses a
/// snapshot whose canaries do not reproduce, a snapshot stamped for
/// another dataset, and a store created under another dataset name.
#[test]
fn registry_from_specs_refuses_what_a_reload_refuses() {
    let dir = temp_dir("specs-refused");
    std::fs::create_dir_all(&dir).unwrap();
    let model = fitted();
    let mut canaries = compute_canaries(&model, 4);
    let foreign = dir.join("foreign.l2r");
    std::fs::write(
        &foreign,
        encode_snapshot_with(&model, "somewhere-else", &canaries),
    )
    .unwrap();
    for c in &mut canaries {
        c.digest ^= 0xDEAD_BEEF;
    }
    let poisoned = dir.join("poisoned.l2r");
    std::fs::write(&poisoned, encode_snapshot_with(&model, DATASET, &canaries)).unwrap();
    let foreign_store = dir.join("foreign-store");
    ModelStore::create(&foreign_store, "somewhere-else", StoreOptions::default())
        .unwrap()
        .publish(&model)
        .unwrap();

    for (path, expected) in [
        (&poisoned, "canary"),
        (&foreign, "somewhere-else"),
        (&foreign_store, "somewhere-else"),
    ] {
        let err = l2r_serve::registry_from_specs(&[(DATASET.to_string(), path.clone())])
            .expect_err("startup must refuse what a reload refuses");
        assert!(err.contains(expected), "{}: {err}", path.display());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serving answers produced by a store-reloaded model are
/// bit-identical to a locally loaded model from the same snapshot.
#[test]
fn store_reload_serves_bit_identically() {
    let dir = temp_dir("bit-identical");
    seeded_store(&dir, 1);
    let (handle, addr, _state) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut ascii = Client::connect(addr).unwrap();
    ascii
        .request(&format!("reload {DATASET} {}", dir.display()))
        .unwrap();

    // The reference: load the same durable snapshot locally.
    let store = ModelStore::open(&dir).unwrap();
    let (_, snapshot) = store.load_latest().unwrap();
    let reference = snapshot.model;
    let mut scratch = QueryScratch::new();
    let n = reference.network().num_vertices() as u32;
    let mut compared = 0usize;
    for i in (0..n).step_by(5) {
        let (s, d) = (i, (i * 17 + 3) % n);
        let expected = l2r_serve::format_route_response(&reference.route(
            &mut scratch,
            l2r_road_network::VertexId(s),
            l2r_road_network::VertexId(d),
        ));
        let got = ascii.request(&format!("route {DATASET} {s} {d}")).unwrap();
        assert_eq!(got, expected, "query {s} -> {d}");
        compared += 1;
    }
    assert!(compared > 3);

    ascii.request("shutdown").unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
