//! Offline processing bench (Section VII-C): the full `L2r::fit` pipeline and
//! its individual stages, plus preference transfer (Step 2b) alone on D1 and
//! the snapshot codec on the fitted D1 model (encode, decode, the network
//! table's decode alone and the CRC-32 pass over the payload), the network
//! table's decode alone on the generated country-scale `xl` network (no
//! fit), plus the CRC-32 alone on a seeded 16 MiB buffer, a country-scale
//! snapshot's size.
//! Honours the `L2R_THREADS` override; run with `L2R_THREADS=1` to measure
//! the serial (allocation-free) baseline.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use l2r_bench::bench_scale;
use l2r_core::{decode_snapshot, encode_snapshot, L2r, SNAPSHOT_CRC_FIELD, SNAPSHOT_HEADER_LEN};
use l2r_datagen::{generate_network, generate_workload};
use l2r_eval::{offline_times, DatasetSpec, Scale};
use l2r_preference::{transfer_preferences, Preference};
use l2r_region_graph::RegionEdgeId;
use l2r_road_network::codec::Crc32;
use l2r_road_network::{crc32, searches_performed, Decode, Encode, Reader, RoadNetwork, Writer};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn bench_offline(c: &mut Criterion) {
    let scale = bench_scale();
    println!("[offline] worker threads: {}", l2r_par::max_threads());
    let mut group = c.benchmark_group("offline_pipeline");
    group.sample_size(10);
    let mut d1_model = None;
    for spec in [DatasetSpec::d1(scale), DatasetSpec::d2(scale)] {
        let syn = generate_network(&spec.network);
        let workload = generate_workload(&syn, &spec.workload);
        let (train, _) = workload.temporal_split(spec.train_fraction);
        group.bench_with_input(
            BenchmarkId::new("l2r_fit", spec.name),
            &train,
            |b, train| {
                b.iter(|| L2r::fit(&syn.net, train, spec.l2r.clone()).expect("fit"));
            },
        );
        // Print the per-stage breakdown once (the Section VII-C numbers),
        // plus the search throughput of a single fit.
        let searches_before = searches_performed();
        let t0 = std::time::Instant::now();
        let model = L2r::fit(&syn.net, &train, spec.l2r.clone()).expect("fit");
        let fit_s = t0.elapsed().as_secs_f64();
        let searches = searches_performed() - searches_before;
        for row in offline_times(&model) {
            println!(
                "[offline/{}] {:<20} {:.1} ms",
                spec.name, row.stage, row.time_ms
            );
        }
        println!(
            "[offline/{}] {:<20} {} ({:.0}/s)",
            spec.name,
            "searches",
            searches,
            searches as f64 / fit_s.max(1e-9)
        );
        if spec.name == "D1" {
            // The transfer on the fitted model's own labels and B-edges; every
            // run must reproduce the fit's transferred preferences.
            let labeled: HashMap<RegionEdgeId, Preference> = model
                .learned_preferences()
                .iter()
                .map(|(id, lp)| (*id, lp.preference))
                .collect();
            let rg = model.region_graph();
            let targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
            let config = &model.config().transfer;
            group.bench_with_input(
                BenchmarkId::new("transfer", spec.name),
                &targets,
                |b, targets| {
                    b.iter(|| {
                        let result = transfer_preferences(rg, &labeled, targets, config);
                        assert_eq!(&result.preferences, model.transferred_preferences());
                        result
                    });
                },
            );
            d1_model = Some(model);
        }
    }
    group.finish();

    let model = d1_model.expect("the D1 spec is benched");
    let bytes = encode_snapshot(&model, "D1");
    let decoded = decode_snapshot(&bytes).expect("decode");
    assert_eq!(
        encode_snapshot(&decoded.model, &decoded.dataset),
        bytes,
        "re-encoding the decoded model must reproduce the bytes"
    );
    let stored_crc =
        u32::from_le_bytes(bytes[SNAPSHOT_CRC_FIELD].try_into().expect("4-byte slice"));
    println!("[snapshot/D1] {:<20} {} bytes", "size", bytes.len());
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("encode_snapshot", "D1"), &model, |b, m| {
        b.iter(|| encode_snapshot(m, "D1"));
    });
    group.bench_with_input(
        BenchmarkId::new("decode_snapshot", "D1"),
        &bytes,
        |b, bytes| {
            b.iter(|| decode_snapshot(bytes).expect("decode"));
        },
    );
    // The network table alone: the layer of the decode whose edge records
    // carry only the distance, so it includes deriving travel time and fuel.
    // On D1's fitted network and on the generated `xl` network, which is
    // most of an `xl` snapshot's bytes and decode time.
    let decode_network =
        |bytes: &[u8]| RoadNetwork::decode(&mut Reader::new(bytes)).expect("network decode");
    let xl = generate_network(&DatasetSpec::d1(Scale::Xl).network).net;
    for (name, net) in [("D1", model.network()), ("XL", &xl)] {
        let mut w = Writer::new();
        net.encode(&mut w);
        let network_bytes = w.into_vec();
        let mut w = Writer::new();
        decode_network(&network_bytes).encode(&mut w);
        assert_eq!(
            w.as_slice(),
            network_bytes,
            "re-encoding the decoded network must reproduce the bytes"
        );
        println!(
            "[snapshot/{name}] {:<20} {} bytes",
            "network",
            network_bytes.len()
        );
        group.bench_with_input(
            BenchmarkId::new("network_decode", name),
            &network_bytes,
            |b, bytes| {
                b.iter(|| decode_network(bytes));
            },
        );
    }
    group.bench_with_input(
        BenchmarkId::new("crc32", "D1"),
        &bytes[SNAPSHOT_HEADER_LEN..],
        |b, payload| {
            b.iter(|| {
                let crc = crc32(payload);
                assert_eq!(crc, stored_crc);
                crc
            });
        },
    );
    // The CRC alone on a seeded buffer of a country-scale snapshot's size
    // (the `xl` one is 7.5 MB): the per-pass cost behind each of publish →
    // first answer's five integrity passes, whichever kernel this CPU
    // dispatches to.
    let mut buf = vec![0u8; 16 << 20];
    StdRng::seed_from_u64(16).fill_bytes(&mut buf);
    let mut streamed = Crc32::new();
    for piece in buf.chunks(buf.len() / 4) {
        streamed.update(piece);
    }
    assert_eq!(
        crc32(&buf),
        streamed.finish(),
        "one-shot and four-piece streaming must agree"
    );
    group.bench_with_input(BenchmarkId::new("crc32", "16MiB"), &buf, |b, buf| {
        b.iter(|| crc32(buf));
    });
    group.finish();
}

criterion_group!(benches, bench_offline);
criterion_main!(benches);
