//! Snapshot round-trip: fit once, save the model, load it back and serve —
//! the offline/online split of the paper made durable across processes.
//!
//! Run with (the optional argument overrides the snapshot path):
//! ```sh
//! cargo run --release --example snapshot_roundtrip -- target/snapshot_roundtrip.l2r
//! ```
//!
//! The example exits non-zero if any query answered by the loaded model
//! differs from the never-serialized original, so it doubles as an
//! executable equivalence check (CI runs it on the quick-scale D1 dataset
//! and uploads the produced `.l2r` file next to the bench reports).

use std::path::PathBuf;
use std::time::Instant;

use l2r_suite::eval::{build_dataset, DatasetSpec, Scale};
use l2r_suite::prelude::*;

fn main() {
    let path: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/snapshot_roundtrip.l2r".to_string())
        .into();

    // 1. Pay the offline cost once: the quick-scale D1 experiment dataset.
    let t0 = Instant::now();
    let ds = build_dataset(DatasetSpec::d1(Scale::Quick));
    println!(
        "fit: {} regions / {} region edges in {:.1} ms",
        ds.model.stats().num_regions,
        ds.model.region_graph().num_edges(),
        t0.elapsed().as_secs_f64() * 1000.0
    );

    // 2. Persist the fitted model.
    let t0 = Instant::now();
    let bytes = save_model(&ds.model, &path).expect("snapshot save");
    println!(
        "save: {} ({:.1} KiB) in {:.1} ms",
        path.display(),
        bytes as f64 / 1024.0,
        t0.elapsed().as_secs_f64() * 1000.0
    );

    // 3. Load it back — `Engine::load` is all a serving process does to go
    //    from a `.l2r` file to an owned, shareable engine.
    let t0 = Instant::now();
    let engine = Engine::load(&path).expect("snapshot load");
    println!(
        "load: {:.1} ms ({} connectors)",
        t0.elapsed().as_secs_f64() * 1000.0,
        engine.num_connectors()
    );

    // 4. Verify the engine built off disk routes bit-identically to the
    //    never-serialized original across a sweep of vertex pairs.
    let mut scratch = QueryScratch::new();
    let n = ds.synthetic.net.num_vertices() as u32;
    let mut compared = 0usize;
    let mut answered = 0usize;
    let mut mismatches = 0usize;
    for i in (0..n).step_by(5) {
        for j in (1..n).step_by(9) {
            if i == j {
                continue;
            }
            let (s, d) = (VertexId(i), VertexId(j));
            let original = ds.model.route(&mut scratch, s, d);
            let from_snapshot = engine.route(&mut scratch, s, d);
            compared += 1;
            answered += original.is_some() as usize;
            if original != from_snapshot {
                eprintln!("MISMATCH on {s:?} -> {d:?}");
                mismatches += 1;
            }
        }
    }
    println!("route: {compared} pairs compared, {answered} answered, {mismatches} mismatches");
    if mismatches > 0 {
        std::process::exit(1);
    }
    println!(
        "\nfit → save → load → route is bit-identical — serve from {}",
        path.display()
    );
}
