//! Bounded per-dataset admission queues with explicit load-shedding.
//!
//! Every `route` request must win a slot in its dataset's [`DatasetQueue`]
//! before it may wait in a batch; when the queue is full the server answers
//! with a retriable `BUSY` immediately instead of letting backlog grow
//! without bound (an ever-deeper queue only converts overload into timeouts).
//! Slots are released when the batch holding the request executes, so queue
//! *depth* is the number of admitted-but-unanswered route queries across all
//! connections — the quantity an operator actually wants bounded.
//!
//! All counters are atomics: the event-loop threads update them
//! concurrently with no other synchronisation.

// A request-path file: panics here are outages, not control flow (see the
// `no-panic-hot-path` rule of l2r-analyze).  The clippy pair of that gate:
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Default bound on admitted-but-unanswered route queries per dataset.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// Admission state and load-shedding counters of one dataset.
#[derive(Debug)]
pub struct DatasetQueue {
    capacity: usize,
    depth: AtomicUsize,
    shed: AtomicU64,
    served: AtomicU64,
}

impl DatasetQueue {
    fn new(capacity: usize) -> DatasetQueue {
        DatasetQueue {
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Tries to admit `n` route queries; on overflow admits none, counts
    /// them as shed, and returns `false` (the caller answers `BUSY`).
    pub fn try_admit(&self, n: usize) -> bool {
        let admitted = self
            .depth
            // ordering: AcqRel/Acquire — depth is the admission bound, not a
            // statistic; a winning CAS must be visible to every other loop's
            // next attempt or concurrent admits could overshoot capacity.
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |depth| {
                if depth + n <= self.capacity {
                    Some(depth + n)
                } else {
                    None
                }
            })
            .is_ok();
        if !admitted {
            self.shed.fetch_add(n as u64, Ordering::Relaxed);
        }
        admitted
    }

    /// Releases `n` previously admitted queries after their batch executed.
    pub fn release(&self, n: usize) {
        // ordering: AcqRel — pairs with try_admit's CAS so a freed slot is
        // immediately claimable and never double-counted against the cap.
        self.depth.fetch_sub(n, Ordering::AcqRel);
        self.served.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Admitted-but-unanswered route queries right now.
    pub fn depth(&self) -> usize {
        // ordering: Acquire — pairs with the AcqRel updates above so stats
        // readers observe a depth no staler than the last release.
        self.depth.load(Ordering::Acquire)
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Route queries rejected with `BUSY` so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Route queries admitted and executed so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

/// The per-dataset queues of one server, created on first use.
#[derive(Debug)]
pub struct DatasetQueues {
    capacity: usize,
    map: RwLock<HashMap<String, Arc<DatasetQueue>>>,
}

impl DatasetQueues {
    /// Creates an empty queue set whose queues bound `capacity` queries.
    pub fn new(capacity: usize) -> DatasetQueues {
        DatasetQueues {
            capacity,
            map: RwLock::new(HashMap::new()),
        }
    }

    /// The queue of `dataset`, created on first use.
    ///
    /// Lock poisoning is recovered, not propagated: the map's only writes
    /// insert fully constructed `Arc<DatasetQueue>` values, so a panic in
    /// some other loop can never leave it half-updated, and the self-healing
    /// server (PR 7) must keep serving after a worker dies mid-request.
    pub fn get(&self, dataset: &str) -> Arc<DatasetQueue> {
        if let Some(q) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
        {
            return Arc::clone(q);
        }
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(dataset.to_string())
                .or_insert_with(|| Arc::new(DatasetQueue::new(self.capacity))),
        )
    }

    /// The queue of `dataset`, if any request has touched it yet.
    pub fn peek(&self, dataset: &str) -> Option<Arc<DatasetQueue>> {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_bounded_and_counts_shed_and_served() {
        let q = DatasetQueue::new(3);
        assert!(q.try_admit(2));
        assert!(q.try_admit(1));
        assert_eq!(q.depth(), 3);
        // Full: nothing is admitted, not even partially.
        assert!(!q.try_admit(1));
        assert!(!q.try_admit(2));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.shed(), 3);
        q.release(3);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.served(), 3);
        assert!(q.try_admit(3));
        q.release(3);
        assert_eq!(q.served(), 6);
    }

    #[test]
    fn queues_are_created_once_per_dataset() {
        let qs = DatasetQueues::new(8);
        assert!(qs.peek("D1").is_none());
        let a = qs.get("D1");
        let b = qs.get("D1");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &qs.peek("D1").expect("created")));
        assert_eq!(a.capacity(), 8);
    }

    #[test]
    fn concurrent_admission_never_exceeds_capacity() {
        // The atomics satellite: hammer one queue from many threads and
        // assert the capacity invariant held throughout and the counters
        // balance exactly at the end.
        let q = Arc::new(DatasetQueue::new(16));
        let threads = 8;
        let rounds = 2_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        if q.try_admit(3) {
                            let depth = q.depth();
                            assert!(depth <= 16, "depth {depth} exceeded capacity");
                            q.release(3);
                        }
                    }
                });
            }
        });
        assert_eq!(q.depth(), 0);
        assert_eq!(q.served() + q.shed(), (threads * rounds * 3) as u64);
    }
}
