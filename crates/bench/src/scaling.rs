//! Country-scale instrumentation for the reproduce harness: peak-RSS
//! sampling, the naive-vs-radius-bounded transfer-similarity comparison,
//! the serial-vs-parallel engine-compile and snapshot-decode comparisons,
//! and the cross-thread fit-determinism check.
//!
//! Everything here is measurement only — the pass/fail policy (which
//! numbers gate a `reproduce` run at which scale) lives in the binary.

use std::time::Instant;

use l2r_eval::Dataset;
use l2r_preference::{build_descriptors, build_similarity_rows, build_similarity_rows_naive};
use l2r_road_network::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Peak resident set size of this process in bytes, read from the `VmHWM`
/// line of `/proc/self/status`.  Dependency-free and Linux-only; returns
/// `None` on other platforms (or if the file is unreadable), in which case
/// the BENCH reports omit the field.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Naive vs radius-bounded construction of the transfer similarity graph,
/// on the fitted model's own region-edge descriptors and `amr`.
#[derive(Debug, Clone)]
pub struct TransferSimBench {
    /// Number of region edges (similarity-graph nodes).
    pub edges: usize,
    /// Number of kept similarity pairs (identical for both builders).
    pub pairs: usize,
    /// Wall time of the naive O(n²) scan in milliseconds.
    pub naive_ms: f64,
    /// Wall time of the radius-bounded scan in milliseconds.
    pub bounded_ms: f64,
    /// `naive_ms / bounded_ms`.
    pub speedup: f64,
    /// Whether the two builders produced bit-identical rows (they must).
    pub identical: bool,
}

/// Times both similarity-graph builders on `ds`'s fitted region graph.
pub fn transfer_sim_bench_for(ds: &Dataset) -> TransferSimBench {
    let rg = ds.model.region_graph();
    let edges: Vec<&l2r_region_graph::RegionEdge> = rg.edges().iter().collect();
    let descriptors = build_descriptors(rg, &edges);
    let amr = ds.model.config().transfer.amr;
    let t0 = Instant::now();
    let naive = build_similarity_rows_naive(&descriptors, amr);
    let naive_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let t0 = Instant::now();
    let bounded = build_similarity_rows(&descriptors, amr);
    let bounded_ms = t0.elapsed().as_secs_f64() * 1000.0;
    TransferSimBench {
        edges: descriptors.len(),
        pairs: bounded.iter().map(Vec::len).sum(),
        naive_ms,
        bounded_ms,
        speedup: if bounded_ms > 0.0 {
            naive_ms / bounded_ms
        } else {
            0.0
        },
        identical: naive == bounded,
    }
}

/// Result of refitting a dataset under a different worker-thread count and
/// comparing the encoded snapshots byte for byte.
#[derive(Debug, Clone)]
pub struct FitDeterminism {
    /// Thread count of the original fit (the run's ambient `L2R_THREADS`).
    pub threads_a: usize,
    /// Thread count of the verification refit.
    pub threads_b: usize,
    /// Whether both fits encode to exactly the same snapshot bytes.
    pub identical: bool,
}

/// Refits `ds` under a different thread count and checks the two fitted
/// models encode to bit-identical snapshots.  The ambient thread override is
/// restored before returning.
pub fn fit_determinism_check(ds: &Dataset) -> FitDeterminism {
    let threads_a = l2r_par::max_threads();
    // Cross a real thread boundary even on a single-core host: par_map with
    // an override > 1 spawns actual worker threads regardless of core count.
    let threads_b = if threads_a == 1 { 4 } else { 1 };
    // Structural encode: snapshots carry wall-clock stage timings as
    // provenance, which trivially differ between any two fits — the
    // determinism contract is over everything else.
    let bytes_a = l2r_core::encode_model_structural(&ds.model);
    let saved = l2r_par::thread_override();
    l2r_par::set_thread_override(Some(threads_b));
    let refit = l2r_core::L2r::fit(&ds.synthetic.net, &ds.train, ds.spec.l2r.clone())
        .expect("refitting the same training data never fails");
    l2r_par::set_thread_override(saved);
    let bytes_b = l2r_core::encode_model_structural(&refit);
    FitDeterminism {
        threads_a,
        threads_b,
        identical: bytes_a == bytes_b,
    }
}

/// Seeded query pairs [`compile_bench_for`] routes through both engines.
const COMPILE_CHECK_PAIRS: usize = 500;

/// Serial vs parallel `Engine` compilation of the same fitted model.
#[derive(Debug, Clone)]
pub struct CompileBench {
    /// Worker threads the parallel compile used.
    pub threads: usize,
    /// Engine compile wall time with a single worker, milliseconds.
    pub serial_ms: f64,
    /// Engine compile wall time at the ambient thread count, milliseconds.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Whether both engines hold the same number of connectors and answer a
    /// seeded sample of vertex pairs identically.
    pub identical: bool,
}

/// Compiles `ds`'s model twice — single-threaded and at the ambient thread
/// count — reports both wall times and checks the two engines agree.  The
/// ambient override is restored.
pub fn compile_bench_for(ds: &Dataset) -> CompileBench {
    let threads = l2r_par::max_threads();
    let saved = l2r_par::thread_override();
    l2r_par::set_thread_override(Some(1));
    let serial_model = ds.model.clone();
    let t0 = Instant::now();
    let serial_engine = serial_model.into_engine();
    let serial_ms = t0.elapsed().as_secs_f64() * 1000.0;
    l2r_par::set_thread_override(saved);
    let parallel_model = ds.model.clone();
    let t0 = Instant::now();
    let parallel_engine = parallel_model.into_engine();
    let parallel_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let n = ds.model.network().num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0xC0_4D11E);
    let pairs: Vec<(VertexId, VertexId)> = (0..COMPILE_CHECK_PAIRS)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    let identical = serial_engine.num_connectors() == parallel_engine.num_connectors()
        && serial_engine.route_many(&pairs) == parallel_engine.route_many(&pairs);
    CompileBench {
        threads,
        serial_ms,
        parallel_ms,
        speedup: if parallel_ms > 0.0 {
            serial_ms / parallel_ms
        } else {
            0.0
        },
        identical,
    }
}

/// Serial vs parallel snapshot decode of the same encoded model.
#[derive(Debug, Clone)]
pub struct DecodeBench {
    /// Worker threads the parallel decode used.
    pub threads: usize,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// Decode wall time with a single worker, milliseconds.
    pub serial_ms: f64,
    /// Decode wall time at the ambient thread count, milliseconds.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Whether the parallel decode re-encodes to the original bytes.
    pub identical: bool,
}

/// Encodes `ds`'s model once and decodes it twice — single-threaded and at
/// the ambient thread count — checking the parallel decode round-trips to
/// the exact input bytes.  The ambient override is restored.
pub fn decode_bench_for(ds: &Dataset) -> DecodeBench {
    let threads = l2r_par::max_threads();
    let bytes = l2r_core::encode_model(&ds.model);
    let saved = l2r_par::thread_override();
    l2r_par::set_thread_override(Some(1));
    let t0 = Instant::now();
    let serial = l2r_core::decode_model(&bytes).expect("freshly encoded snapshot decodes");
    let serial_ms = t0.elapsed().as_secs_f64() * 1000.0;
    drop(serial);
    l2r_par::set_thread_override(saved);
    let t0 = Instant::now();
    let parallel = l2r_core::decode_model(&bytes).expect("freshly encoded snapshot decodes");
    let parallel_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let identical = l2r_core::encode_model(&parallel) == bytes;
    DecodeBench {
        threads,
        bytes: bytes.len() as u64,
        serial_ms,
        parallel_ms,
        speedup: if parallel_ms > 0.0 {
            serial_ms / parallel_ms
        } else {
            0.0
        },
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{datasets, DatasetChoice};
    use l2r_eval::Scale;

    #[test]
    fn peak_rss_reports_a_plausible_value_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let rss = peak_rss_bytes().expect("VmHWM is present on Linux");
        // A Rust test binary occupies somewhere between 1 MiB and 1 TiB.
        assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
        assert!(rss < 1 << 40, "peak RSS {rss} implausibly large");
    }

    #[test]
    fn scaling_benches_run_on_the_quick_dataset() {
        let ds = &datasets(DatasetChoice::D1, Scale::Quick)[0];

        let transfer = transfer_sim_bench_for(ds);
        assert!(transfer.edges > 0);
        assert!(transfer.identical, "builders must agree bit for bit");

        let compile = compile_bench_for(ds);
        assert!(compile.serial_ms > 0.0 && compile.parallel_ms > 0.0);
        assert!(compile.identical, "serial and parallel engines must agree");

        let decode = decode_bench_for(ds);
        assert!(decode.bytes > 0);
        assert!(decode.identical, "parallel decode must round-trip");

        let det = fit_determinism_check(ds);
        assert_ne!(det.threads_a, det.threads_b);
        assert!(det.identical, "fits must not depend on the thread count");
        // The check restores the ambient override.
        assert_eq!(l2r_par::max_threads(), det.threads_a);
    }
}
