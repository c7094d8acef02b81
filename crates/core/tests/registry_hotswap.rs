//! Hot-swap under load: worker threads hammer a shared [`ModelRegistry`]
//! while the main thread repeatedly swaps the entry between two *different*
//! fitted models, by snapshot reloads or by store reloads and rollbacks.
//! Every single answer must be bit-identical to one of the two models'
//! serial answers — an answer matching neither would mean a query observed
//! a half-swapped model (mixed indexes, or a model torn down mid-request),
//! which the `Arc`-handout design makes impossible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use l2r_core::{
    save_model, L2r, L2rConfig, ModelRegistry, ModelStore, QueryScratch, RouteResult, StoreOptions,
};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig};
use l2r_road_network::VertexId;

/// Two models over the *same* road network fitted on different workloads:
/// same query space, (typically) different answers.
fn two_models() -> (L2r, L2r) {
    let syn = generate_network(&SyntheticNetworkConfig::tiny());
    let wl_a = generate_workload(&syn, &WorkloadConfig::tiny(250));
    let wl_b = generate_workload(&syn, &WorkloadConfig::tiny(120));
    let (train_a, _) = wl_a.temporal_split(0.8);
    let (train_b, _) = wl_b.temporal_split(0.8);
    let a = L2r::fit(&syn.net, &train_a, L2rConfig::fast()).unwrap();
    let b = L2r::fit(&syn.net, &train_b, L2rConfig::fast()).unwrap();
    (a, b)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("l2r-hotswap-test-{}-{name}", std::process::id()))
}

/// Serial reference answers of both models over one fixed query list.
struct Reference {
    queries: Vec<(VertexId, VertexId)>,
    answers_a: Vec<Option<RouteResult>>,
    answers_b: Vec<Option<RouteResult>>,
}

impl Reference {
    fn new(model_a: &L2r, model_b: &L2r) -> Reference {
        let n = model_a.network().num_vertices() as u32;
        let queries: Vec<(VertexId, VertexId)> = (0..n)
            .flat_map(|i| {
                (1..n)
                    .step_by(9)
                    .map(move |j| (VertexId(i), VertexId((j * 7 + i) % n)))
            })
            .filter(|(s, d)| s != d)
            .take(120)
            .collect();
        let mut scratch = QueryScratch::new();
        let mut answers = |model: &L2r| -> Vec<Option<RouteResult>> {
            queries
                .iter()
                .map(|(s, d)| model.route(&mut scratch, *s, *d))
                .collect()
        };
        let answers_a = answers(model_a);
        let answers_b = answers(model_b);
        Reference {
            queries,
            answers_a,
            answers_b,
        }
    }

    /// Routes the query list through `registry.get("city")` on `THREADS`
    /// workers until `swap` (run on the calling thread) returns, then checks
    /// the invariant under test: every answer is bit-identical to model A's
    /// or model B's, never to neither.
    fn hammer(&self, registry: &ModelRegistry, swap: impl FnOnce()) {
        const THREADS: usize = 4;
        let stop = AtomicBool::new(false);
        // (matched A, matched B, matched neither) per worker.
        let outcomes: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut scratch = QueryScratch::new();
                        let (mut from_a, mut from_b, mut torn) = (0u64, 0u64, 0u64);
                        'outer: loop {
                            for (i, (s, d)) in self.queries.iter().enumerate() {
                                // ordering: Relaxed — the flag carries no data;
                                // workers stop eventually and join() synchronises.
                                if stop.load(Ordering::Relaxed) {
                                    break 'outer;
                                }
                                let engine = registry.get("city").expect("entry never removed");
                                let r = engine.route(&mut scratch, *s, *d);
                                if r == self.answers_a[i] {
                                    from_a += 1;
                                } else if r == self.answers_b[i] {
                                    from_b += 1;
                                } else {
                                    torn += 1;
                                }
                            }
                        }
                        (from_a, from_b, torn)
                    })
                })
                .collect();
            // A failed check inside `swap` must still stop the workers, or
            // the scope would wait on them forever.
            let swapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(swap));
            // ordering: Relaxed — see the worker-side load; join() synchronises.
            stop.store(true, Ordering::Relaxed);
            if let Err(panic) = swapped {
                std::panic::resume_unwind(panic);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        let (total_a, total_b, total_torn) = outcomes
            .iter()
            .fold((0u64, 0u64, 0u64), |(a, b, t), (xa, xb, xt)| {
                (a + xa, b + xb, t + xt)
            });
        assert_eq!(
            total_torn, 0,
            "every answer must be bit-identical to model A's or model B's"
        );
        assert!(total_a + total_b > 0, "workers must have routed queries");
        // With differing answers and repeated swaps, both models should have
        // been observed (soft check: only meaningful when the models
        // disagree).
        let differing = self
            .answers_a
            .iter()
            .zip(&self.answers_b)
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 {
            assert!(
                total_b > 0,
                "some queries should have hit the swapped-in model \
                 ({differing}/{} answers differ between models)",
                self.queries.len()
            );
        }
    }
}

#[test]
fn queries_during_hot_swaps_always_see_exactly_one_model() {
    let (model_a, model_b) = two_models();
    let path_a = temp_path("a.l2r");
    let path_b = temp_path("b.l2r");
    save_model(&model_a, &path_a).unwrap();
    save_model(&model_b, &path_b).unwrap();

    let model_a = Arc::new(model_a);
    let reference = Reference::new(&model_a, &model_b);

    let registry = ModelRegistry::new();
    registry.insert("city", Arc::clone(&model_a));

    const SWAPS: usize = 12;
    reference.hammer(&registry, || {
        // Alternate hot-reloads from the two snapshot files while the
        // workers run.
        for swap in 0..SWAPS {
            let path = if swap % 2 == 0 { &path_b } else { &path_a };
            registry
                .reload("city", path)
                .expect("valid snapshot reloads");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    });
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    assert_eq!(registry.generation("city"), Some(1 + SWAPS as u64));
}

/// Store reloads and rollbacks applied while workers route: the same
/// exactly-one-model invariant must hold for both kinds of swap, and every
/// rollback must restore the very model that served before the reload.
#[test]
fn queries_during_store_reloads_and_rollbacks_always_see_exactly_one_model() {
    let (model_a, model_b) = two_models();
    let dir = temp_path("store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ModelStore::create(&dir, "city", StoreOptions::default()).unwrap();
    store.publish(&model_b).unwrap();

    let model_a = Arc::new(model_a);
    let reference = Reference::new(&model_a, &model_b);

    let registry = ModelRegistry::new();
    registry.insert("city", Arc::clone(&model_a));

    const ROUNDS: usize = 6;
    reference.hammer(&registry, || {
        for _ in 0..ROUNDS {
            let (_, generation) = registry
                .reload_from_store("city", &store, None)
                .expect("the store's newest generation validates and swaps in");
            assert_eq!(generation, 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let (restored, _) = registry
                .rollback("city")
                .expect("a reload leaves a rollback target");
            assert!(Arc::ptr_eq(&restored, &model_a));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Every reload and every rollback is a swap.
    assert_eq!(registry.generation("city"), Some(1 + 2 * ROUNDS as u64));
    assert!(Arc::ptr_eq(&registry.get("city").unwrap(), &model_a));
}

#[test]
fn handles_held_across_swaps_keep_serving_the_old_model() {
    let (model_a, model_b) = two_models();
    let path_b = temp_path("held-b.l2r");
    save_model(&model_b, &path_b).unwrap();

    let registry = ModelRegistry::new();
    let held = registry.insert("city", Arc::new(model_a));
    let before: Vec<_> = {
        let mut scratch = QueryScratch::new();
        (0..20u32)
            .map(|i| held.route(&mut scratch, VertexId(i), VertexId((i * 3 + 1) % 20)))
            .collect()
    };

    registry.reload("city", &path_b).unwrap();
    std::fs::remove_file(&path_b).ok();

    // The swapped-in engine is a different object…
    let current = registry.get("city").unwrap();
    assert!(!Arc::ptr_eq(&held, &current));
    // …while the held handle still answers exactly as before the swap.
    let mut scratch = QueryScratch::new();
    for (i, expected) in before.iter().enumerate() {
        let i = i as u32;
        assert_eq!(
            &held.route(&mut scratch, VertexId(i), VertexId((i * 3 + 1) % 20)),
            expected
        );
    }
}
