//! Transferring routing preferences from T-edges to B-edges with graph-based
//! transduction learning (Section V-B, Step 2).
//!
//! A similarity graph is built over region edges (labelled T-edges plus the
//! target edges whose preference is unknown); similarities below the
//! adjacency-matrix-reduction threshold `amr` are dropped.  The transferred
//! preference matrix `Ŷ` minimises the objective of Equation 2, obtained by
//! solving `(S + μ₁L + μ₂I)·Ŷ_x = S·Y_x` per feature column (Equation 3).
//!
//! The graph's nodes are the labelled edges, then the targets, each sorted.
//! [`build_similarity_rows`] yields its upper triangle, from which the system
//! matrix is assembled as one CSR matrix: row `i` holds the diagonal, then
//! `−μ₁·s` per neighbour in ascending column order (the `solver` module).
//! That order fixes every degree and mat-vec sum, so the transferred
//! preferences are reproducible bit for bit.
//!
//! Target edges whose row of `Ŷ` stays (numerically) zero — typically because
//! the similarity graph left them disconnected from every labelled edge —
//! receive a *null* preference; the caller falls back to fastest paths for
//! them, as the paper does.

use std::collections::HashMap;

use l2r_region_graph::{RegionEdgeId, RegionGraph};

use crate::model::{Preference, NUM_FEATURES};
use crate::re_sim::RegionEdgeDescriptor;
use crate::solver::{conjugate_gradient, SolveResult, SystemMatrix};

/// Configuration of the transfer step.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Adjacency-matrix reduction threshold on the *normalised* region-edge
    /// similarity (`reSim/2 ∈ [0, 1]`); pairs below it are not connected.
    pub amr: f64,
    /// Weight of the Laplacian (smoothness) term.
    pub mu1: f64,
    /// Weight of the L2 regularisation term.
    pub mu2: f64,
    /// Relative residual tolerance of the solver.
    pub tolerance: f64,
    /// Iteration budget of the solver.
    pub max_iterations: usize,
    /// Minimum probability mass required on the best road-type column for a
    /// slave feature to be adopted during decoding.
    pub slave_threshold: f64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            amr: 0.7,
            mu1: 1.0,
            mu2: 0.01,
            tolerance: 1e-8,
            max_iterations: 500,
            slave_threshold: 0.05,
        }
    }
}

/// Result of a transfer run.
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// Transferred preference per target edge (`None` = null preference).
    pub preferences: HashMap<RegionEdgeId, Option<Preference>>,
    /// Fraction of target edges that received a null preference.
    pub null_rate: f64,
    /// Number of edges (labelled + target) in the similarity graph.
    pub graph_size: usize,
    /// Number of non-zero similarity entries kept after applying `amr`.
    pub similarity_edges: usize,
    /// Total solver iterations summed over the feature columns.
    pub solver_iterations: usize,
    /// Feature columns whose solve missed `tolerance` within
    /// `max_iterations`.
    pub unconverged_columns: usize,
    /// Largest relative residual `‖b − A·x‖ / ‖b‖` over the solved columns
    /// (`0` when nothing was solved).
    pub max_relative_residual: f64,
}

/// The exact distance-ratio similarity `RegionEdgeDescriptor::similarity`
/// computes for a pair of centroid distances (same branches, same float ops).
fn distance_sim(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if hi <= 0.0 {
        1.0
    } else {
        (lo / hi).clamp(0.0, 1.0)
    }
}

/// Builds the thresholded similarity graph naively: for each row `i`, every
/// column `j > i` is tested against `amr`.  `O(n²)` similarity evaluations.
///
/// Kept public (next to the radius-bounded [`build_similarity_rows`]) so the
/// bench harness can measure the speedup of the bounded construction on the
/// descriptors of a real fitted model.
pub fn build_similarity_rows_naive(
    descriptors: &[RegionEdgeDescriptor],
    amr: f64,
) -> Vec<Vec<(usize, f64)>> {
    let n = descriptors.len();
    let row_indices: Vec<usize> = (0..n).collect();
    l2r_par::par_map(&row_indices, |_, &i| {
        let mut row = Vec::new();
        for j in (i + 1)..n {
            let s = descriptors[i].normalized_similarity(&descriptors[j]);
            if s >= amr {
                row.push((j, s));
            }
        }
        row
    })
}

/// Radius-bounded construction of the thresholded similarity graph.
///
/// `normalizedSim = (distSim + funcSim) / 2` with `funcSim ≤ 1`, so a pair
/// can only reach `amr` while `(distSim + 1) / 2 ≥ amr`.  Sorting the edges
/// by centroid distance makes `distSim = lo/hi` monotonically non-increasing
/// along each scan, so the scan stops at the first candidate outside that
/// bound instead of touching all `n` columns.  The bound reuses the exact
/// float expression `similarity` evaluates and rounding is monotone, so no
/// qualifying pair is ever skipped: the rows returned are bit-identical to
/// [`build_similarity_rows_naive`] (pairs are redistributed back to
/// original-index rows and sorted).  For `amr ≤ 0.5` the bound is vacuous
/// and the scan degenerates to the naive full scan.
pub fn build_similarity_rows(
    descriptors: &[RegionEdgeDescriptor],
    amr: f64,
) -> Vec<Vec<(usize, f64)>> {
    let n = descriptors.len();
    // Sort by centroid distance; ties break on the original index so the
    // order (and thus the parallel work split) is deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        descriptors[a]
            .dis_m
            .total_cmp(&descriptors[b].dis_m)
            .then(a.cmp(&b))
    });
    let positions: Vec<usize> = (0..n).collect();
    let scans: Vec<Vec<(usize, usize, f64)>> = l2r_par::par_map(&positions, |_, &p| {
        let i = order[p];
        let di = &descriptors[i];
        let mut found = Vec::new();
        for &j in &order[p + 1..] {
            let dj = &descriptors[j];
            // Even a perfect functionality match cannot reach `amr` once the
            // distance ratio drops below 2·amr − 1; later candidates are at
            // least as far, so their ratio is no better.
            if (distance_sim(di.dis_m, dj.dis_m) + 1.0) / 2.0 < amr {
                break;
            }
            let s = di.normalized_similarity(dj);
            if s >= amr {
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                found.push((a, b, s));
            }
        }
        found
    });
    // Redistribute into rows keyed by the smaller original index, sorted by
    // column, to match the naive row layout exactly.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (a, b, s) in scans.into_iter().flatten() {
        rows[a].push((b, s));
    }
    for row in &mut rows {
        row.sort_unstable_by_key(|&(j, _)| j);
    }
    rows
}

/// Transfers preferences from labelled edges to `targets`.
///
/// * `labeled` — learned preferences of T-edges (the training data).
/// * `targets` — region edges to infer preferences for (B-edges during the
///   normal pipeline; held-out T-edges in the Figure 9 experiments).
pub fn transfer_preferences(
    rg: &RegionGraph,
    labeled: &HashMap<RegionEdgeId, Preference>,
    targets: &[RegionEdgeId],
    config: &TransferConfig,
) -> TransferResult {
    // Order: labelled edges first, then targets (mirrors the paper's S
    // construction); an edge that is both labelled and a target is treated as
    // a target so that the experiments can hold out known labels.
    let mut ids: Vec<RegionEdgeId> = Vec::new();
    let target_set: std::collections::HashSet<RegionEdgeId> = targets.iter().copied().collect();
    // l2r: allow(nondeterministic-iteration) — collected then sorted below
    for id in labeled.keys() {
        if !target_set.contains(id) {
            ids.push(*id);
        }
    }
    let num_labeled = ids.len();
    ids[..num_labeled].sort();
    let mut target_ids: Vec<RegionEdgeId> = targets.to_vec();
    target_ids.sort();
    target_ids.dedup();
    ids.extend(target_ids.iter().copied());
    let n = ids.len();

    if n == 0 || num_labeled == 0 {
        // Nothing to learn from: every target gets a null preference.
        let preferences: HashMap<RegionEdgeId, Option<Preference>> =
            target_ids.iter().map(|id| (*id, None)).collect();
        let null_rate = if target_ids.is_empty() { 0.0 } else { 1.0 };
        return TransferResult {
            preferences,
            null_rate,
            graph_size: n,
            similarity_edges: 0,
            solver_iterations: 0,
            unconverged_columns: 0,
            max_relative_residual: 0.0,
        };
    }

    // Descriptors and the thresholded similarity rows are both parallel (per
    // edge, per row); the radius-bounded row builder is bit-identical to the
    // naive scan.
    let descriptors: Vec<RegionEdgeDescriptor> =
        l2r_par::par_map(&ids, |_, id| RegionEdgeDescriptor::build(rg, rg.edge(*id)));
    let rows = build_similarity_rows(&descriptors, config.amr);
    let similarity_edges = rows.iter().map(Vec::len).sum();
    let a = SystemMatrix::assemble(&rows, num_labeled, config.mu1, config.mu2);

    // Solve one system per feature column; the columns are independent, so
    // they run in parallel and are written back in column order.
    let mut y_hat = vec![[0.0f64; NUM_FEATURES]; n];
    let columns: Vec<usize> = (0..NUM_FEATURES).collect();
    let solutions: Vec<Option<(SolveResult, f64)>> = l2r_par::par_map(&columns, |_, &x| {
        let mut b = vec![0.0; n];
        let mut any = false;
        for (i, id) in ids.iter().take(num_labeled).enumerate() {
            let row = labeled[id].to_feature_row();
            if row[x] != 0.0 {
                b[i] = row[x]; // S·Y has ones only on labelled rows
                any = true;
            }
        }
        if !any {
            return None;
        }
        let res = conjugate_gradient(&a, &b, config.tolerance, config.max_iterations);
        // The same normalisation the solver's own stopping test uses.
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        let relative = res.residual / b_norm;
        Some((res, relative))
    });
    let mut solver_iterations = 0usize;
    let mut unconverged_columns = 0usize;
    let mut max_relative_residual = 0.0f64;
    for (x, solved) in solutions.into_iter().enumerate() {
        let Some((res, relative)) = solved else {
            continue;
        };
        solver_iterations += res.iterations;
        unconverged_columns += usize::from(!res.converged);
        max_relative_residual = max_relative_residual.max(relative);
        for (row, &value) in y_hat.iter_mut().zip(res.x.iter()).take(n) {
            row[x] = value;
        }
    }

    // Decode the target rows: targets occupy the tail of `ids` in
    // `target_ids` order (labelled-only edges come first).
    let mut preferences = HashMap::with_capacity(target_ids.len());
    let mut nulls = 0usize;
    for (i, id) in target_ids.iter().enumerate() {
        let idx = num_labeled + i;
        debug_assert_eq!(ids[idx], *id);
        let pref = Preference::from_feature_row(&y_hat[idx], config.slave_threshold);
        if pref.is_none() {
            nulls += 1;
        }
        preferences.insert(*id, pref);
    }
    let null_rate = if target_ids.is_empty() {
        0.0
    } else {
        nulls as f64 / target_ids.len() as f64
    };

    TransferResult {
        preferences,
        null_rate,
        graph_size: n,
        similarity_edges,
        solver_iterations,
        unconverged_columns,
        max_relative_residual,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_region_graph::{bottom_up_clustering, RegionGraph, TrajectoryGraph};
    use l2r_road_network::{CostType, RoadType, RoadTypeSet};

    pub(crate) fn build_region_graph() -> RegionGraph {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let tg = TrajectoryGraph::build(&syn.net, &wl.trajectories);
        let clusters = bottom_up_clustering(&tg);
        RegionGraph::build(&syn.net, &clusters, &wl.trajectories, 2)
    }

    fn label_all_t_edges(rg: &RegionGraph) -> HashMap<RegionEdgeId, Preference> {
        // Synthetic labels: alternate between two preferences so the transfer
        // has signal to propagate.
        rg.t_edges()
            .enumerate()
            .map(|(i, e)| {
                let pref = if i % 2 == 0 {
                    Preference {
                        master: CostType::TravelTime,
                        slave: Some(RoadTypeSet::single(RoadType::Motorway)),
                    }
                } else {
                    Preference {
                        master: CostType::Distance,
                        slave: Some(RoadTypeSet::single(RoadType::Residential)),
                    }
                };
                (e.id, pref)
            })
            .collect()
    }

    #[test]
    fn transfer_assigns_preferences_to_b_edges() {
        let rg = build_region_graph();
        let labeled = label_all_t_edges(&rg);
        let targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
        assert!(!labeled.is_empty());
        assert!(
            !targets.is_empty(),
            "the tiny workload must produce some B-edges"
        );
        let result = transfer_preferences(&rg, &labeled, &targets, &TransferConfig::default());
        assert_eq!(result.preferences.len(), targets.len());
        assert!(
            result.null_rate < 1.0,
            "at least some B-edges must receive a preference"
        );
        // Every decoded preference uses a valid master feature.
        for p in result.preferences.values().flatten() {
            assert!(CostType::ALL.contains(&p.master));
        }
        assert!(result.graph_size >= targets.len());
    }

    #[test]
    fn holding_out_labels_recovers_similar_preferences() {
        // Label all T-edges with the *same* preference, hold a fifth of them
        // out, and check that the transferred preferences match the held-out
        // ground truth (the Figure 9(a) accuracy methodology).
        let rg = build_region_graph();
        let uniform = Preference {
            master: CostType::TravelTime,
            slave: Some(RoadTypeSet::single(RoadType::Motorway)),
        };
        let all: Vec<RegionEdgeId> = rg.t_edges().map(|e| e.id).collect();
        assert!(all.len() >= 5);
        let held_out: Vec<RegionEdgeId> = all.iter().step_by(5).copied().collect();
        let labeled: HashMap<RegionEdgeId, Preference> = all
            .iter()
            .filter(|id| !held_out.contains(id))
            .map(|id| (*id, uniform))
            .collect();
        let config = TransferConfig {
            amr: 0.5, // denser graph so every held-out edge is reachable
            ..TransferConfig::default()
        };
        let result = transfer_preferences(&rg, &labeled, &held_out, &config);
        let mut correct = 0usize;
        let mut assigned = 0usize;
        for p in result.preferences.values().flatten() {
            assigned += 1;
            if p.master == uniform.master {
                correct += 1;
            }
        }
        assert!(assigned > 0);
        assert!(
            correct as f64 / assigned as f64 > 0.9,
            "uniform labels should transfer almost perfectly ({correct}/{assigned})"
        );
    }

    #[test]
    fn higher_amr_produces_sparser_graphs_and_more_nulls() {
        let rg = build_region_graph();
        let labeled = label_all_t_edges(&rg);
        let targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
        let loose = transfer_preferences(
            &rg,
            &labeled,
            &targets,
            &TransferConfig {
                amr: 0.5,
                ..TransferConfig::default()
            },
        );
        let strict = transfer_preferences(
            &rg,
            &labeled,
            &targets,
            &TransferConfig {
                amr: 0.95,
                ..TransferConfig::default()
            },
        );
        assert!(strict.similarity_edges <= loose.similarity_edges);
        assert!(strict.null_rate >= loose.null_rate);
    }

    #[test]
    fn radius_bounded_rows_match_the_naive_scan_on_a_real_graph() {
        let rg = build_region_graph();
        let edges: Vec<&l2r_region_graph::RegionEdge> = rg.edges().iter().collect();
        let descriptors = crate::re_sim::build_descriptors(&rg, &edges);
        assert!(descriptors.len() > 10, "need a non-trivial graph");
        // Spans the Figure 9(b) range plus the vacuous-bound regime (≤ 0.5)
        // and a threshold no pair can reach.
        for amr in [0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 1.1] {
            let naive = build_similarity_rows_naive(&descriptors, amr);
            let bounded = build_similarity_rows(&descriptors, amr);
            assert_eq!(naive, bounded, "rows diverged at amr = {amr}");
        }
    }

    #[test]
    fn no_labels_means_all_null() {
        let rg = build_region_graph();
        let targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
        let result =
            transfer_preferences(&rg, &HashMap::new(), &targets, &TransferConfig::default());
        assert_eq!(result.null_rate, 1.0);
        assert!(result.preferences.values().all(|p| p.is_none()));
    }
}
