//! Serving-side model management: [`ModelRegistry`], named datasets →
//! shared `Arc<L2r>` models with validated atomic hot-reload.
//!
//! A long-lived route service holds one registry for its whole lifetime.
//! Query threads call [`ModelRegistry::get`] and receive an `Arc<L2r>` —
//! an immutable model (with its routing tables) they keep for the duration
//! of the request, so a concurrent [`ModelRegistry::reload`] can never tear
//! state out from under them: the swap replaces the registry's *pointer*
//! under a brief write lock, in-flight queries finish on the model they
//! already hold, and the old model is freed when the last holder drops it.
//! A failed reload (missing file, corrupt payload, stale format version)
//! leaves the registered model untouched and reports the [`SnapshotError`]
//! — serving never degrades because an operator fat-fingered a path.
//!
//! The expensive part of a reload — reading, decoding and validating the
//! snapshot — happens *outside* the lock; the critical section is a single
//! `HashMap` insert.  `crates/core/tests/registry_hotswap.rs` hammers a
//! registry from many threads mid-swap and asserts every answer is
//! bit-identical to one of the two registered models (never a mix);
//! `crates/core/tests/registry_robustness.rs` covers the failure paths.
//!
//! Reloads are **validated** before they swap: the snapshot's stamped
//! dataset name must match the registry name it is being installed under,
//! and every canary probe recorded at save time
//! ([`crate::snapshot::compute_canaries`]) is replayed against the freshly
//! decoded model — a digest mismatch rejects the reload with the old
//! model still serving.  Each successful swap retains the **previous**
//! model so [`ModelRegistry::rollback`] can restore it instantly, and
//! generations stay monotonic per name even across remove + re-register
//! (removed names leave a generation tombstone behind).

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use crate::pipeline::L2r;
use crate::router::QueryScratch;
use crate::snapshot::{load_snapshot, route_digest, Snapshot, SnapshotError};
use crate::store::{ModelStore, StoreError};

/// An error raised by registry reload/rollback operations.  Every failure
/// leaves the registry exactly as it was: the old model keeps serving.
#[derive(Debug)]
pub enum RegistryError {
    /// The snapshot file could not be read or decoded.
    Snapshot(SnapshotError),
    /// The model store could not serve the requested generation.
    Store(StoreError),
    /// The snapshot is stamped with a different dataset than the name it
    /// was being installed under.
    DatasetMismatch {
        /// Dataset stamped in the snapshot at save time.
        snapshot: String,
        /// Registry name the caller tried to install it under.
        requested: String,
    },
    /// A canary probe recorded at save time answered differently on the
    /// freshly decoded model.
    CanaryMismatch {
        /// Probe source vertex id.
        src: u32,
        /// Probe destination vertex id.
        dst: u32,
        /// Digest recorded at save time.
        expected: u64,
        /// Digest the decoded model produced.
        actual: u64,
    },
    /// The named dataset is not registered.
    UnknownDataset(String),
    /// The named dataset has no retained previous model to roll back to.
    NoPreviousEngine(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Snapshot(e) => write!(f, "snapshot unreadable: {e}"),
            RegistryError::Store(e) => write!(f, "{e}"),
            RegistryError::DatasetMismatch { snapshot, requested } => write!(
                f,
                "snapshot is stamped for dataset `{snapshot}`, refusing to install it as `{requested}`"
            ),
            RegistryError::CanaryMismatch {
                src,
                dst,
                expected,
                actual,
            } => write!(
                f,
                "canary probe {src}->{dst} answered {actual:#018x}, snapshot recorded {expected:#018x}: rejecting swap"
            ),
            RegistryError::UnknownDataset(name) => write!(f, "dataset `{name}` is not registered"),
            RegistryError::NoPreviousEngine(name) => {
                write!(f, "dataset `{name}` has no previous engine to roll back to")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Snapshot(e) => Some(e),
            RegistryError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for RegistryError {
    fn from(e: SnapshotError) -> Self {
        RegistryError::Snapshot(e)
    }
}

impl From<StoreError> for RegistryError {
    fn from(e: StoreError) -> Self {
        RegistryError::Store(e)
    }
}

/// One registered model plus its swap count.
struct Entry {
    model: Arc<L2r>,
    /// Starts at 1 on first registration, +1 per successful swap (and per
    /// rollback — a rollback *is* a swap).  Lets operators (and tests)
    /// observe that a hot-reload actually happened.
    generation: u64,
    /// The model that was serving before the last swap, retained for
    /// [`ModelRegistry::rollback`].
    previous: Option<Arc<L2r>>,
}

/// The registry's locked state: the live entries plus generation
/// tombstones of removed names, so a re-registered name resumes counting
/// where it left off instead of restarting at 1.
#[derive(Default)]
struct Inner {
    live: HashMap<String, Entry>,
    retired: HashMap<String, u64>,
}

/// A named, concurrently readable collection of served `Arc<L2r>` models
/// with validated atomic hot-reload from `.l2r` snapshot files or a
/// [`ModelStore`], previous-model retention, and explicit rollback.
///
/// All methods take `&self`: share one registry across every serving thread
/// (e.g. behind an `Arc`, or borrowed into scoped workers).
#[derive(Default)]
pub struct ModelRegistry {
    entries: RwLock<Inner>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names = self.names();
        names.sort();
        f.debug_struct("ModelRegistry")
            .field("datasets", &names)
            .finish()
    }
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        // A poisoned lock only means another thread panicked mid-access; the
        // map itself is always structurally valid (swaps are single inserts),
        // so serving continues.
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or replaces) `name` with a shared model, returning the
    /// handle now being served.  When replacing, the outgoing model is
    /// retained as the rollback target.
    pub fn insert(&self, name: &str, model: Arc<L2r>) -> Arc<L2r> {
        let mut inner = self.write();
        let resumed = inner.retired.remove(name).unwrap_or(0);
        match inner.live.get_mut(name) {
            Some(entry) => {
                entry.previous = Some(std::mem::replace(&mut entry.model, Arc::clone(&model)));
                entry.generation += 1;
            }
            None => {
                inner.live.insert(
                    name.to_string(),
                    Entry {
                        model: Arc::clone(&model),
                        generation: resumed + 1,
                        previous: None,
                    },
                );
            }
        }
        model
    }

    /// The model currently serving `name` (a cheap `Arc` clone).  Hold the
    /// returned handle for the duration of one request: it stays valid and
    /// immutable even if the entry is hot-swapped or removed concurrently.
    pub fn get(&self, name: &str) -> Option<Arc<L2r>> {
        self.read().live.get(name).map(|e| Arc::clone(&e.model))
    }

    /// The swap count of `name` (1 after first registration; monotonic
    /// even across remove + re-register).
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.read().live.get(name).map(|e| e.generation)
    }

    /// Every registered dataset with its generation, sorted by name.
    pub fn generations(&self) -> Vec<(String, u64)> {
        let inner = self.read();
        let mut out: Vec<(String, u64)> = inner
            .live
            .iter()
            .map(|(name, e)| (name.clone(), e.generation))
            .collect();
        out.sort();
        out
    }

    /// Whether `name` has a retained previous model to roll back to.
    pub fn has_previous(&self, name: &str) -> bool {
        self.read()
            .live
            .get(name)
            .is_some_and(|e| e.previous.is_some())
    }

    /// Validates a decoded snapshot against `name` and swaps it in.
    /// Validation is two-stage: the snapshot's stamped dataset must match
    /// `name` (empty stamps — pre-provenance saves — match anything), and
    /// every canary probe recorded at save time must reproduce its digest on
    /// the decoded model.  Any mismatch rejects the swap with the old model
    /// still serving.
    fn install_validated(&self, name: &str, snapshot: Snapshot) -> Result<Arc<L2r>, RegistryError> {
        if !snapshot.dataset.is_empty() && snapshot.dataset != name {
            return Err(RegistryError::DatasetMismatch {
                snapshot: snapshot.dataset,
                requested: name.to_string(),
            });
        }
        // Replay canaries outside the lock: readers never wait on probe
        // routing.
        let mut scratch = QueryScratch::new();
        for c in &snapshot.canaries {
            let actual = route_digest(&snapshot.model.route(&mut scratch, c.src, c.dst));
            if actual != c.digest {
                return Err(RegistryError::CanaryMismatch {
                    src: c.src.0,
                    dst: c.dst.0,
                    expected: c.digest,
                    actual,
                });
            }
        }
        Ok(self.insert(name, Arc::new(snapshot.model)))
    }

    /// Loads a snapshot file, validates it against `name` (dataset stamp,
    /// then canary replay), and atomically swaps it in
    /// (registering it fresh when the name is new).  Queries in flight keep
    /// the model they already hold; queries arriving after the swap get
    /// the new one — there is no in-between state.
    ///
    /// On **any** failure — missing file, truncation, bad magic, stale
    /// format version, checksum mismatch, invalid payload, dataset
    /// mismatch, canary mismatch — the registry is left exactly as it was
    /// (the old model keeps serving) and the error is returned for the
    /// operator.
    pub fn reload(&self, name: &str, path: &Path) -> Result<Arc<L2r>, RegistryError> {
        // Read + decode + validate outside the lock: readers never wait on
        // disk or on decoding.
        let snapshot = load_snapshot(path)?;
        self.install_validated(name, snapshot)
    }

    /// Reloads `name` from a [`ModelStore`]: the newest durable generation
    /// when `generation` is `None`, a pinned one otherwise.  Returns the
    /// model now serving and the *store* generation it came from.
    pub fn reload_from_store(
        &self,
        name: &str,
        store: &ModelStore,
        generation: Option<u64>,
    ) -> Result<(Arc<L2r>, u64), RegistryError> {
        let (generation, snapshot) = match generation {
            Some(g) => (g, store.load(g)?),
            None => store.load_latest()?,
        };
        let model = self.install_validated(name, snapshot)?;
        Ok((model, generation))
    }

    /// Restores the model that was serving `name` before its last swap.
    /// The retained model is consumed (no flip-flop: a second rollback
    /// without an intervening swap fails), the generation is bumped — a
    /// rollback *is* a swap — and the restored handle is returned with the
    /// new generation.
    pub fn rollback(&self, name: &str) -> Result<(Arc<L2r>, u64), RegistryError> {
        let mut inner = self.write();
        let entry = inner
            .live
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownDataset(name.to_string()))?;
        let previous = entry
            .previous
            .take()
            .ok_or_else(|| RegistryError::NoPreviousEngine(name.to_string()))?;
        entry.model = Arc::clone(&previous);
        entry.generation += 1;
        Ok((previous, entry.generation))
    }

    /// Removes `name`, returning whether it was registered.  In-flight
    /// queries holding the model finish normally.  The generation is
    /// tombstoned: re-registering the same name resumes counting.
    pub fn remove(&self, name: &str) -> bool {
        let mut inner = self.write();
        match inner.live.remove(name) {
            Some(entry) => {
                inner.retired.insert(name.to_string(), entry.generation);
                true
            }
            None => false,
        }
    }

    /// Registered dataset names, in registration-independent sorted order.
    pub fn names(&self) -> Vec<String> {
        // l2r: allow(nondeterministic-iteration) — collected then sorted below
        let mut names: Vec<String> = self.read().live.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.read().live.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.read().live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
    use l2r_road_network::VertexId;

    fn model() -> Arc<L2r> {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        let mut rg = RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2);
        crate::apply::apply_preferences_to_b_edges(
            &syn.net,
            &mut rg,
            &std::collections::HashMap::new(),
            2,
        );
        Arc::new(L2r::from_graphs(&syn.net, &rg))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.get("D1").is_none());
        assert_eq!(registry.generation("D1"), None);

        let served = registry.insert("D1", model());
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["D1".to_string()]);
        assert_eq!(registry.generation("D1"), Some(1));
        let got = registry.get("D1").expect("registered");
        assert!(Arc::ptr_eq(&served, &got));

        assert!(registry.remove("D1"));
        assert!(!registry.remove("D1"));
        assert!(registry.get("D1").is_none());
        // The handle we held across the removal still serves.
        let mut scratch = QueryScratch::new();
        let _ = got.route(&mut scratch, VertexId(0), VertexId(1));
    }

    #[test]
    fn insert_replacing_bumps_generation_and_swaps_the_handle() {
        let registry = ModelRegistry::new();
        let first = registry.insert("D1", model());
        let second = registry.insert("D1", model());
        assert_eq!(registry.generation("D1"), Some(2));
        let got = registry.get("D1").unwrap();
        assert!(Arc::ptr_eq(&second, &got));
        assert!(!Arc::ptr_eq(&first, &got));
    }

    #[test]
    fn rollback_restores_previous_engine_and_bumps_generation() {
        let registry = ModelRegistry::new();
        let first = registry.insert("D1", model());
        assert!(!registry.has_previous("D1"));
        assert!(matches!(
            registry.rollback("D1"),
            Err(RegistryError::NoPreviousEngine(_))
        ));

        let second = registry.insert("D1", model());
        assert!(registry.has_previous("D1"));
        let (restored, generation) = registry.rollback("D1").unwrap();
        assert!(Arc::ptr_eq(&restored, &first));
        assert!(!Arc::ptr_eq(&restored, &second));
        assert_eq!(generation, 3); // insert, swap, rollback
        assert!(Arc::ptr_eq(&registry.get("D1").unwrap(), &first));

        // The retained model was consumed: no flip-flop.
        assert!(matches!(
            registry.rollback("D1"),
            Err(RegistryError::NoPreviousEngine(_))
        ));
        assert!(matches!(
            registry.rollback("nope"),
            Err(RegistryError::UnknownDataset(_))
        ));
    }

    #[test]
    fn generations_stay_monotonic_across_remove_and_reregister() {
        let registry = ModelRegistry::new();
        registry.insert("D1", model());
        registry.insert("D1", model());
        assert_eq!(registry.generation("D1"), Some(2));
        assert!(registry.remove("D1"));
        assert_eq!(registry.generation("D1"), None);
        registry.insert("D1", model());
        // Never back to 1: a monitoring system watching the generation
        // counter must see it only ever grow.
        assert_eq!(registry.generation("D1"), Some(3));
        assert_eq!(registry.generations(), vec![("D1".to_string(), 3)]);
    }
}
