//! The snapshot acceptance sweep: fit → save → load →
//! [`l2r_core::Engine`] → route must be **bit-identical** to the reference
//! router ([`l2r_core::oracle::route`]) on the never-serialized model's
//! network and region graph, across the same swept grid of vertex pairs
//! used by `engine_equivalence.rs`, on both quick-scale experiment datasets.

use l2r_core::{decode_model, encode_model, oracle, QueryScratch};
use l2r_eval::{build_dataset, DatasetSpec, Scale};
use l2r_road_network::VertexId;

fn sweep_pairs(num_vertices: u32, i_step: usize, j_step: usize) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::new();
    for i in (0..num_vertices).step_by(i_step) {
        for j in (1..num_vertices).step_by(j_step) {
            if i != j {
                pairs.push((VertexId(i), VertexId(j)));
            }
        }
    }
    pairs
}

fn assert_loaded_model_serves_identically(spec: DatasetSpec) {
    let name = spec.name;
    let ds = build_dataset(spec);

    // Fit → encode → decode, all in memory (the file layer is covered by
    // crates/core/tests/snapshot_robustness.rs).
    let bytes = encode_model(&ds.model);
    let loaded = decode_model(&bytes).expect("snapshot decodes");
    // `into_engine` moves the loaded model into the owned engine — the
    // serving process never needs a second copy.
    let engine = loaded.into_engine();
    let mut scratch = QueryScratch::new();

    let net = &ds.synthetic.net;
    let rg = ds.model.region_graph();
    let pairs = sweep_pairs(net.num_vertices() as u32, 7, 13);
    assert!(pairs.len() > 100, "sweep should cover many pairs on {name}");
    let mut answered = 0usize;
    for (s, d) in &pairs {
        let original = oracle::route(net, rg, *s, *d);
        let from_snapshot = engine.route(&mut scratch, *s, *d);
        assert_eq!(original, from_snapshot, "{name}: query {s:?} -> {d:?}");
        if original.is_some() {
            answered += 1;
        }
    }
    assert!(
        answered * 2 > pairs.len(),
        "{name}: most swept queries should be answerable ({answered}/{})",
        pairs.len()
    );
}

#[test]
fn snapshot_roundtrip_serves_bit_identically_on_d1() {
    assert_loaded_model_serves_identically(DatasetSpec::d1(Scale::Quick));
}

#[test]
fn snapshot_roundtrip_serves_bit_identically_on_d2() {
    assert_loaded_model_serves_identically(DatasetSpec::d2(Scale::Quick));
}
