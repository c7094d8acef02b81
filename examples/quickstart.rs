//! Quickstart: build a synthetic city, generate a sparse trajectory workload,
//! fit learn-to-route and answer a few routing queries.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use l2r_suite::prelude::*;

fn main() {
    // 1. A synthetic city with a road hierarchy and functional districts
    //    (substituting the OpenStreetMap extracts of the paper).
    let city = generate_network(&SyntheticNetworkConfig::tiny());
    println!(
        "city: {} vertices, {} edges, {} districts",
        city.net.num_vertices(),
        city.net.num_edges(),
        city.districts.len()
    );

    // 2. A sparse trajectory workload from a synthetic driver population.
    let workload = generate_workload(&city, &WorkloadConfig::tiny(400));
    let (train, test) = workload.temporal_split(0.8);
    println!(
        "workload: {} trajectories ({} train / {} test), {} covered district pairs",
        workload.trajectories.len(),
        train.len(),
        test.len(),
        workload.latent.len()
    );

    // 3. Fit the learn-to-route model: clustering -> region graph ->
    //    preference learning -> transfer -> path assignment for B-edges.
    let model = L2r::fit(&city.net, &train, L2rConfig::default()).expect("fit");
    let stats = model.stats();
    println!(
        "model: {} regions, {} T-edges, {} B-edges, transfer null-rate {:.1}%",
        stats.num_regions,
        stats.num_t_edges,
        stats.num_b_edges,
        stats.null_rate * 100.0
    );

    // 4. Answer a few held-out queries and compare against the paths the
    //    drivers actually took (and the plain shortest path).
    println!(
        "\n{:<10} {:>12} {:>12} {:>14}",
        "query", "L2R sim", "Shortest sim", "coverage"
    );
    let mut scratch = QueryScratch::new();
    for (i, t) in test.iter().take(8).enumerate() {
        let (s, d) = (t.source(), t.destination());
        let Some(route) = model.route(&mut scratch, s, d) else {
            continue;
        };
        let l2r_sim = path_similarity(&city.net, &t.path, &route.path);
        let short_sim = shortest_path(&city.net, s, d)
            .map(|p| path_similarity(&city.net, &t.path, &p))
            .unwrap_or(0.0);
        println!(
            "{:<10} {:>11.1}% {:>11.1}% {:>14?}",
            format!("#{i}"),
            l2r_sim * 100.0,
            short_sim * 100.0,
            model.coverage(s, d)
        );
    }

    println!("\ndone — see `cargo run --release -p l2r-bench --bin reproduce` for the full paper reproduction");
}
