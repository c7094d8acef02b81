//! Search-kernel bench: the cost per settled vertex of the road-network
//! Dijkstra that engine compile, preference learning and live routing all
//! spend their time in.
//!
//! * `one_to_all_tt` — one-to-all travel-time searches from eight fixed
//!   sources on the full-scale D1 network, through one reused
//!   [`SearchSpace`];
//! * `engine_compile` — `Engine::from_shared` (connector resolution) on a
//!   model fitted once at the bench scale (quick by default, full with
//!   `L2R_BENCH_FULL=1`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use l2r_bench::bench_scale;
use l2r_core::{Engine, L2r};
use l2r_datagen::{generate_network, generate_workload};
use l2r_eval::{DatasetSpec, Scale};
use l2r_road_network::{CostType, SearchSpace, VertexId};

/// Number of fixed search sources, spread evenly over the vertex ids.
const SOURCES: u32 = 8;

fn bench_search_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_kernel");
    group.sample_size(10);

    let net = generate_network(&DatasetSpec::d1(Scale::Full).network).net;
    let n = net.num_vertices() as u32;
    let sources: Vec<VertexId> = (0..SOURCES).map(|i| VertexId(i * n / SOURCES)).collect();
    let mut space = SearchSpace::new();
    group.bench_with_input(
        BenchmarkId::new("one_to_all_tt", format!("D1-full/{n}v")),
        &sources,
        |b, sources| {
            b.iter(|| {
                for &s in sources {
                    space.dijkstra(&net, s, None, |e| e.cost(CostType::TravelTime));
                }
                space.cost_to(VertexId(0))
            });
        },
    );

    let spec = DatasetSpec::d1(bench_scale());
    let syn = generate_network(&spec.network);
    let workload = generate_workload(&syn, &spec.workload);
    let (train, _) = workload.temporal_split(spec.train_fraction);
    let model = Arc::new(L2r::fit(&syn.net, &train, spec.l2r.clone()).expect("fit"));
    group.bench_with_input(
        BenchmarkId::new("engine_compile", spec.name),
        &model,
        |b, model| {
            b.iter(|| Engine::from_shared(Arc::clone(model)).num_connectors());
        },
    );
    group.finish();
}

criterion_group!(benches, bench_search_kernel);
criterion_main!(benches);
