//! Post-swap probation and automatic rollback.
//!
//! A hot-swap is validated *before* it happens (dataset stamp + canary
//! replay, see `l2r_core::registry`), but canaries are a finite probe set:
//! a model that passes them can still misbehave under real traffic.  This
//! module adds the serving-side safety net — after every successful reload
//! that retained a previous model, the dataset enters a **probation
//! window**: the next [`crate::ServerConfig::auto_rollback_window`] route
//! outcomes are watched, and if the *internal-error* rate (handler panics)
//! exceeds [`crate::ServerConfig::auto_rollback_per_mille`], the server
//! rolls the dataset back to the retained model on its own and counts the
//! event in the `rollbacks` stat.
//!
//! Probation is **one-shot**: it disarms after the first window, whether it
//! passed or triggered, so a long-lived deployment is not re-judged forever
//! on its first few minutes.  Only internal errors count against the model
//! — deadline expiries and load-shedding are the server's weather, not the
//! model's fault.  All state is atomics: the event loops record outcomes
//! with no lock on the hot path, and exactly one recorder wins the trigger.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Probation state of one dataset.
#[derive(Debug)]
pub struct DatasetHealth {
    name: String,
    window: u64,
    per_mille: u32,
    armed: AtomicBool,
    requests: AtomicU64,
    internal: AtomicU64,
}

impl DatasetHealth {
    fn new(name: &str, window: u64, per_mille: u32) -> DatasetHealth {
        DatasetHealth {
            name: name.to_string(),
            window: window.max(1),
            per_mille,
            armed: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            internal: AtomicU64::new(0),
        }
    }

    /// The dataset this probation watches.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// (Re)arms probation: counters reset, the next window of outcomes is
    /// judged.
    pub fn arm(&self) {
        // ordering: Release ×3 — the counter resets must be visible before
        // any recorder observes `armed == true`, or a stale count from the
        // previous window could judge the new model.  The `armed` store is
        // last: it publishes the reset counters.
        self.requests.store(0, Ordering::Release);
        self.internal.store(0, Ordering::Release); // ordering: see above
        self.armed.store(true, Ordering::Release); // ordering: publishes the resets
    }

    /// Disarms probation without judging (a manual rollback supersedes the
    /// automatic one).
    pub fn disarm(&self) {
        // ordering: Release — pairs with the Acquire loads in record/armed;
        // the one-shot contract needs the flag change globally published.
        self.armed.store(false, Ordering::Release);
    }

    /// Whether a probation window is currently being judged.
    fn armed(&self) -> bool {
        // ordering: Acquire — pairs with arm's Release so a `true` here
        // guarantees the reset counters are also visible.
        self.armed.load(Ordering::Acquire)
    }

    /// Records one route outcome.  Returns `true` **exactly once** per
    /// armed window, the moment the internal-error count alone exceeds the
    /// configured rate over the window — the caller must then roll the
    /// dataset back.  A window that completes below the threshold disarms
    /// quietly (probation passed).
    pub fn record(&self, internal_error: bool) -> bool {
        // ordering: Acquire — pairs with arm's Release: seeing `true` means
        // the counter resets below are visible too.
        if !self.armed.load(Ordering::Acquire) {
            return false;
        }
        // ordering: AcqRel on both counters — the window judgement reads
        // `bad` against `seen`, so each recorder's increments must be
        // ordered with every other's, not free-floating like a stats counter.
        let seen = self.requests.fetch_add(1, Ordering::AcqRel) + 1;
        let bad = if internal_error {
            self.internal.fetch_add(1, Ordering::AcqRel) + 1 // ordering: see above
        } else {
            // ordering: Acquire — observe at least every increment that
            // happened-before this outcome was recorded.
            self.internal.load(Ordering::Acquire)
        };
        // Trigger as soon as the window's error budget is spent — waiting
        // for the window to complete would only serve more bad answers.
        if bad.saturating_mul(1000) > self.window.saturating_mul(self.per_mille as u64) {
            // ordering: AcqRel — the swap makes the trigger one-shot under
            // concurrency: exactly one recorder reads `true` back.
            return self.armed.swap(false, Ordering::AcqRel);
        }
        if seen >= self.window {
            // ordering: Release — quiet completion; pairs with the Acquire
            // loads so no recorder keeps judging a finished window.
            self.armed.store(false, Ordering::Release);
        }
        false
    }
}

/// The per-dataset probation states of one server, created on first arm
/// (mirrors [`crate::queue::DatasetQueues`]).  With a zero window the whole
/// feature is off: every call is a cheap early return and the hot path
/// never takes the map lock.
#[derive(Debug)]
pub struct HealthMap {
    window: u64,
    per_mille: u32,
    map: RwLock<HashMap<String, Arc<DatasetHealth>>>,
}

impl HealthMap {
    /// Creates an empty probation set; `window == 0` disables auto-rollback.
    pub fn new(window: u64, per_mille: u32) -> HealthMap {
        HealthMap {
            window,
            per_mille,
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Whether automatic rollback is configured at all.
    pub fn enabled(&self) -> bool {
        self.window > 0
    }

    /// Arms probation for `dataset` (no-op when the feature is off).
    ///
    /// Lock poisoning is recovered, not propagated (see
    /// [`crate::queue::DatasetQueues::get`]): the map's only writes insert
    /// fully constructed values, so it is never half-updated, and the
    /// self-healing server must outlive a panicking worker.
    pub fn arm(&self, dataset: &str) {
        if !self.enabled() {
            return;
        }
        if let Some(h) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
        {
            h.arm();
            return;
        }
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        map.entry(dataset.to_string())
            .or_insert_with(|| Arc::new(DatasetHealth::new(dataset, self.window, self.per_mille)))
            .arm();
    }

    /// Disarms `dataset`'s probation, if it has one.
    pub fn disarm(&self, dataset: &str) {
        if let Some(h) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
        {
            h.disarm();
        }
    }

    /// The armed probation of `dataset`, if any — the handle route
    /// executions record their outcomes against.  `None` (the common case)
    /// costs one branch plus, when the feature is on, one read-locked map
    /// probe.
    pub fn watch(&self, dataset: &str) -> Option<Arc<DatasetHealth>> {
        if !self.enabled() {
            return None;
        }
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
            .filter(|h| h.armed())
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probation_triggers_once_when_the_error_budget_is_spent() {
        let h = DatasetHealth::new("D1", 10, 200); // > 2 internal errors trip
        h.arm();
        assert!(!h.record(true));
        assert!(!h.record(true));
        assert!(h.record(true), "third error of ten must trigger");
        assert!(!h.armed());
        // One-shot: further errors never re-trigger.
        assert!(!h.record(true));
    }

    #[test]
    fn probation_passes_quietly_below_the_threshold() {
        let h = DatasetHealth::new("D1", 8, 500);
        h.arm();
        for _ in 0..7 {
            assert!(!h.record(false));
        }
        assert!(h.armed());
        assert!(!h.record(false), "clean window completion must not trigger");
        assert!(!h.armed(), "completed probation disarms");
    }

    #[test]
    fn rearming_resets_the_counters() {
        let h = DatasetHealth::new("D1", 4, 250);
        h.arm();
        assert!(!h.record(true));
        h.arm();
        // The earlier error was wiped; one more alone is ≤ 25% of 4.
        assert!(!h.record(true));
        assert!(h.record(true));
    }

    #[test]
    fn disabled_map_never_creates_state() {
        let map = HealthMap::new(0, 500);
        map.arm("D1");
        assert!(map.watch("D1").is_none());
        assert!(!map.enabled());
    }

    #[test]
    fn watch_only_returns_armed_probations() {
        let map = HealthMap::new(4, 500);
        assert!(map.watch("D1").is_none());
        map.arm("D1");
        let h = map.watch("D1").expect("armed");
        assert_eq!(h.name(), "D1");
        map.disarm("D1");
        assert!(map.watch("D1").is_none());
    }

    #[test]
    fn concurrent_recorders_trigger_exactly_once() {
        let h = Arc::new(DatasetHealth::new("D1", 64, 0)); // any error trips
        h.arm();
        let triggers: u64 = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let h = Arc::clone(&h);
                    scope.spawn(move || (0..32).filter(|_| h.record(true)).count() as u64)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().expect("recorder"))
                .sum()
        });
        assert_eq!(triggers, 1, "exactly one recorder wins the trigger");
    }
}
