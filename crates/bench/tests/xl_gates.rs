//! Correctness gates of the offline pipeline and the router, on the
//! generated D1 dataset:
//!
//! * the radius-bounded similarity scan yields exactly the naive scan's rows;
//! * a refit at a second worker-thread count encodes to a byte-identical
//!   structural snapshot and routes 500 seeded vertex pairs exactly like
//!   the fit;
//! * the fitted model, also when loaded from a snapshot file, answers every
//!   held-out test query exactly like the reference router
//!   ([`l2r_core::oracle`]);
//! * the connector table resolved on one thread and at the ambient thread
//!   count is the fitted model's, entry for entry;
//! * a snapshot decoded on 1, 4 and the ambient number of threads re-encodes
//!   to its input bytes and routes the seeded pairs exactly like the fit
//!   (its oriented-path table is built in parallel), and its connector table
//!   equals a fresh resolve on the decoded graphs.
//!
//! At country scale (`D1-XL`, ~100k vertices) the bounded scan must also be
//! at least 2× faster than the naive one, and, on hosts with at least 8
//! worker threads, the parallel connector resolve at least 2× faster than a
//! serial one and the parallel decode faster than a serial one.  That test
//! fits a country-scale network twice, so it is ignored by default:
//!
//! ```sh
//! cargo test --release -p l2r-bench --test xl_gates -- --ignored
//! ```

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use l2r_core::{
    decode_model, encode_model, encode_model_structural, oracle, save_model, ConnectorTable,
    Engine, L2r, QueryScratch,
};
use l2r_eval::{build_dataset, build_test_queries, Dataset, DatasetSpec, Scale};
use l2r_preference::{build_descriptors, build_similarity_rows, build_similarity_rows_naive};
use l2r_road_network::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded vertex pairs every refitted or decoded model must answer like the
/// fit.
const THREAD_CHECK_PAIRS: usize = 500;

/// Every gate pins the process-global worker-thread count, so the tests of
/// this file hold this lock for their whole run.
static THREAD_COUNT: Mutex<()> = Mutex::new(());

fn lock_thread_count() -> MutexGuard<'static, ()> {
    THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner())
}

/// The quick D1 dataset, fitted once and shared by the quick-scale tests.
fn quick_dataset() -> &'static Dataset {
    static QUICK: OnceLock<Dataset> = OnceLock::new();
    QUICK.get_or_init(|| build_dataset(DatasetSpec::d1(Scale::Quick)))
}

/// Runs `f` with the worker-thread count pinned to `threads`, then restores
/// the previous pin.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let saved = l2r_par::thread_override();
    l2r_par::set_thread_override(Some(threads));
    let out = f();
    l2r_par::set_thread_override(saved);
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Wall times of one gate measured at a single worker thread and at the
/// ambient thread count (or, for the similarity scans, naive and bounded).
struct Timings {
    slow: Duration,
    fast: Duration,
}

impl Timings {
    fn speedup(&self) -> f64 {
        self.slow.as_secs_f64() / self.fast.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The bounded similarity builder must reproduce the naive O(n²) scan bit
/// for bit on the fitted model's own region-edge descriptors.
fn assert_bounded_similarity_matches_naive(ds: &Dataset) -> Timings {
    let rg = ds.model.region_graph();
    let edges: Vec<&l2r_region_graph::RegionEdge> = rg.edges().iter().collect();
    let descriptors = build_descriptors(rg, &edges);
    let amr = ds.model.config().transfer.amr;
    let (naive, slow) = timed(|| build_similarity_rows_naive(&descriptors, amr));
    let (bounded, fast) = timed(|| build_similarity_rows(&descriptors, amr));
    let pairs = |rows: &[Vec<_>]| rows.iter().map(Vec::len).sum::<usize>();
    assert!(pairs(&naive) > 0, "the gate needs similarity pairs");
    // Not `assert_eq!`: at country scale the rows hold ~10⁵ pairs.
    assert!(
        naive == bounded,
        "the radius-bounded similarity rows ({} pairs) diverged from the naive scan ({} pairs)",
        pairs(&bounded),
        pairs(&naive)
    );
    Timings { slow, fast }
}

/// `model` must route [`THREAD_CHECK_PAIRS`] seeded vertex pairs exactly
/// like the fitted model of `ds`.
fn assert_routes_like_the_fit(ds: &Dataset, model: &L2r, what: &str) {
    let n = ds.model.network().num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0xC0_4D11E);
    let pairs: Vec<(VertexId, VertexId)> = (0..THREAD_CHECK_PAIRS)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    assert!(
        model.route_many(&pairs) == ds.model.route_many(&pairs),
        "{what} routes differently from the fitted model"
    );
}

/// Refitting the same training data at a second thread count must encode to
/// the same structural snapshot (per-stage wall times are provenance, not
/// model state, so the structural encoding leaves them out) and route like
/// the fit.
fn assert_refit_is_identical(ds: &Dataset) {
    let ambient = l2r_par::max_threads();
    // Cross a real thread boundary even on a one-core host: an override
    // above 1 spawns real workers whatever the core count.
    let other = if ambient == 1 { 4 } else { 1 };
    let refit = with_threads(other, || {
        L2r::fit(&ds.synthetic.net, &ds.train, ds.spec.l2r.clone())
            .expect("refitting the same training data never fails")
    });
    assert!(
        encode_model_structural(&ds.model) == encode_model_structural(&refit),
        "fits at {ambient} and {other} worker threads encode to different snapshots"
    );
    assert_routes_like_the_fit(ds, &refit, &format!("the fit at {other} worker threads"));
}

/// `model` must answer every held-out test query of `ds` exactly like the
/// reference router on the fitted model's network and region graph.
fn assert_router_matches_oracle(ds: &Dataset, model: &L2r) {
    let queries = build_test_queries(
        &ds.synthetic.net,
        &ds.model,
        &ds.test,
        ds.spec.max_test_queries,
    );
    assert!(!queries.is_empty(), "the gate needs test queries");
    let (net, rg) = (ds.model.network(), ds.model.region_graph());
    let mut scratch = QueryScratch::new();
    for q in &queries {
        assert_eq!(
            model.route(&mut scratch, q.source, q.destination),
            oracle::route(net, rg, q.source, q.destination),
            "the router and the oracle disagree on {:?} -> {:?}",
            q.source,
            q.destination
        );
    }
}

/// The connector table resolved on one worker and at the ambient thread
/// count must be the fitted model's.
fn assert_resolve_is_thread_independent(ds: &Dataset) -> Timings {
    let model = &ds.model;
    let (net, rg, oriented) = (
        model.network(),
        model.region_graph(),
        model.oriented_paths(),
    );
    let resolve = || ConnectorTable::resolve(net, rg, oriented);
    let (serial_table, slow) = with_threads(1, || timed(resolve));
    let (parallel_table, fast) = timed(resolve);
    // Not `assert_eq!`: at country scale the tables hold ~5·10⁴ paths.
    assert!(
        serial_table == *ds.model.connectors() && parallel_table == *ds.model.connectors(),
        "connector tables resolved on 1 and {} threads differ from the fitted model's",
        l2r_par::max_threads()
    );
    Timings { slow, fast }
}

/// Decoding at 1, 4 and the ambient number of threads must each re-encode
/// to exactly the input bytes and route like the fit, and the decoded
/// connector table must equal a fresh resolve on the decoded network and
/// region graph.
fn assert_decode_round_trips(ds: &Dataset) -> Timings {
    let bytes = encode_model(&ds.model);
    let decode_at = |threads: usize| {
        let (model, time) = with_threads(threads, || {
            timed(|| decode_model(&bytes).expect("a freshly encoded snapshot decodes"))
        });
        assert!(
            encode_model(&model) == bytes,
            "the snapshot decoded on {threads} threads does not re-encode to its input"
        );
        let what = format!("the snapshot decoded on {threads} threads");
        assert_routes_like_the_fit(ds, &model, &what);
        (model, time)
    };
    let (model, slow) = decode_at(1);
    let fresh = ConnectorTable::resolve(
        model.network(),
        model.region_graph(),
        model.oriented_paths(),
    );
    assert!(
        *model.connectors() == fresh,
        "the decoded connector table differs from a fresh resolve on the decoded graphs"
    );
    decode_at(4);
    let (_, fast) = decode_at(l2r_par::max_threads());
    Timings { slow, fast }
}

#[test]
fn gates_hold_on_the_quick_dataset() {
    let _pin = lock_thread_count();
    let ds = quick_dataset();
    assert_bounded_similarity_matches_naive(ds);
    assert_refit_is_identical(ds);
    assert_resolve_is_thread_independent(ds);
    assert_decode_round_trips(ds);
    // Every pin was released.
    assert_eq!(l2r_par::thread_override(), None);
}

#[test]
fn fitted_model_matches_the_oracle_on_the_quick_dataset() {
    let ds = quick_dataset();
    assert_router_matches_oracle(ds, &ds.model);
}

/// A served engine is built from a snapshot file, not from the fit: it must
/// answer like the reference router on the never-serialized model.
#[test]
fn snapshot_engine_matches_the_free_router_on_the_quick_dataset() {
    let ds = quick_dataset();
    let path = std::env::temp_dir().join(format!("l2r-xl-gates-{}.l2r", std::process::id()));
    save_model(&ds.model, &path).expect("the snapshot is written");
    let engine = Engine::load(&path);
    std::fs::remove_file(&path).ok();
    assert_router_matches_oracle(ds, &engine.expect("the snapshot loads"));
}

#[test]
#[ignore = "country scale; run with --ignored (CI xl-smoke job)"]
fn gates_hold_on_the_country_scale_dataset() {
    let _pin = lock_thread_count();
    let ds = build_dataset(DatasetSpec::d1(Scale::Xl));
    let transfer = assert_bounded_similarity_matches_naive(&ds);
    assert_refit_is_identical(&ds);
    assert_router_matches_oracle(&ds, &ds.model);
    let resolve = assert_resolve_is_thread_independent(&ds);
    let decode = assert_decode_round_trips(&ds);

    // The speed gates come last, so every identity gate above is checked
    // even on a host where a speedup falls short.
    let threads = l2r_par::max_threads();
    let mut too_slow = Vec::new();
    // The bounded scan's speedup is algorithmic (pairs outside the distance
    // radius skip the Jaccard), so it is gated whatever the core count.
    if transfer.speedup() < 2.0 {
        too_slow.push(format!(
            "the radius-bounded similarity scan is only {:.2}x faster than the naive one \
             ({:?} vs {:?}; required: >= 2x)",
            transfer.speedup(),
            transfer.fast,
            transfer.slow
        ));
    }
    // Parallel speedups only materialise with real cores underneath.
    if threads >= 8 {
        if resolve.speedup() < 2.0 {
            too_slow.push(format!(
                "the parallel connector resolve is only {:.2}x faster than serial on \
                 {threads} threads (required: >= 2x)",
                resolve.speedup()
            ));
        }
        if decode.fast >= decode.slow {
            too_slow.push(format!(
                "the parallel snapshot decode ({:?}) is not faster than serial ({:?}) on \
                 {threads} threads",
                decode.fast, decode.slow
            ));
        }
    } else {
        eprintln!(
            "connector resolve {:.2}x and decode {:.2}x parallel speedups not gated on \
             {threads} worker thread(s) (< 8)",
            resolve.speedup(),
            decode.speedup()
        );
    }
    assert!(too_slow.is_empty(), "{}", too_slow.join("\n"));
}
