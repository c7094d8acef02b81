//! Per-table / per-figure experiment drivers.
//!
//! Every public function regenerates the data behind one table or figure of
//! the paper's evaluation (Section VII); the `reproduce` binary in
//! `l2r-bench` prints them as plain-text tables.

use std::collections::HashMap;
use std::time::Instant;

use l2r_core::{L2r, QueryScratch};
use l2r_preference::{
    learn_per_path_preferences, transfer_preferences, LearnConfig, Preference, TransferConfig,
};
use l2r_region_graph::{region_size_distribution, RegionEdgeId, RegionSizeBucket};
use l2r_road_network::{CostType, RoadNetwork};
use l2r_trajectory::{DistanceDistribution, MatchedTrajectory};

use crate::dataset::Dataset;

// ---------------------------------------------------------------------------
// Table II — trajectory distance distribution
// ---------------------------------------------------------------------------

/// Table II: the distance distribution of a workload's trajectories.
pub fn table2(
    net: &RoadNetwork,
    trajectories: &[MatchedTrajectory],
    bounds_km: Vec<f64>,
) -> DistanceDistribution {
    DistanceDistribution::compute(net, trajectories, bounds_km)
        .expect("workload trajectories are valid paths")
}

// ---------------------------------------------------------------------------
// Table IV — region sizes
// ---------------------------------------------------------------------------

/// Table IV: the region-size distribution of a fitted model.
pub fn table4(model: &L2r, area_bounds_km2: &[f64]) -> Vec<RegionSizeBucket> {
    region_size_distribution(model.region_graph().regions(), area_bounds_km2)
}

// ---------------------------------------------------------------------------
// Figure 6(a) — distribution of learned preferences
// ---------------------------------------------------------------------------

/// Result of the Figure 6(a) experiment.
#[derive(Debug, Clone)]
pub struct Fig6aResult {
    /// Percentage of T-edges whose observed paths all map to a single
    /// routing preference.
    pub pct_single_preference: f64,
    /// Histogram over the number of unique preferences per T-edge
    /// (index 0 = exactly one preference, 1 = two, 2 = three or more).
    pub unique_preference_histogram: [usize; 3],
    /// Distribution of the learned (edge-level) preferences over the master
    /// cost features DI / TT / FC.
    pub master_distribution: [usize; CostType::COUNT],
    /// Number of T-edges analysed.
    pub num_t_edges: usize,
}

/// Figure 6(a): how many distinct preferences the paths of each T-edge
/// exhibit, and how learned preferences distribute over cost features.
pub fn fig6a(model: &L2r, learn: &LearnConfig) -> Fig6aResult {
    let net = model.network();
    let rg = model.region_graph();
    let mut histogram = [0usize; 3];
    let mut num_t_edges = 0usize;
    for edge in rg.t_edges() {
        if edge.paths.is_empty() {
            continue;
        }
        num_t_edges += 1;
        let per_path = learn_per_path_preferences(net, &edge.paths, learn);
        let unique: std::collections::HashSet<_> =
            per_path.iter().map(|lp| lp.preference).collect();
        let bucket = match unique.len() {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        histogram[bucket] += 1;
    }
    let mut master_distribution = [0usize; CostType::COUNT];
    for lp in model.learned_preferences().values() {
        master_distribution[lp.preference.master.index()] += 1;
    }
    Fig6aResult {
        pct_single_preference: histogram[0] as f64 / num_t_edges.max(1) as f64 * 100.0,
        unique_preference_histogram: histogram,
        master_distribution,
        num_t_edges,
    }
}

// ---------------------------------------------------------------------------
// Figure 6(b) — T-edge similarity vs. preference similarity
// ---------------------------------------------------------------------------

/// One similarity bucket of the Figure 6(b) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6bBucket {
    /// Lower bound of the T-edge similarity bucket (width 0.1).
    pub similarity_lo: f64,
    /// Mean preference (Jaccard) similarity of the pairs in the bucket, %.
    pub mean_preference_similarity: f64,
    /// Share of all analysed pairs that fall into this bucket, %.
    pub pair_percentage: f64,
    /// Number of pairs in the bucket.
    pub count: usize,
}

/// Figure 6(b): bucket T-edge pairs by their `reSim` similarity and report
/// the mean preference similarity per bucket plus the share of pairs.
///
/// At most `max_pairs` pairs are analysed (the first ones in a deterministic
/// order) to keep the quadratic pair enumeration bounded.
pub fn fig6b(model: &L2r, max_pairs: usize) -> Vec<Fig6bBucket> {
    let rg = model.region_graph();
    let learned = model.learned_preferences();
    let edges: Vec<RegionEdgeId> = {
        let mut e: Vec<RegionEdgeId> = learned.keys().copied().collect();
        e.sort();
        e
    };
    let descriptors: HashMap<RegionEdgeId, l2r_preference::RegionEdgeDescriptor> = edges
        .iter()
        .map(|id| {
            (
                *id,
                l2r_preference::RegionEdgeDescriptor::build(rg, rg.edge(*id)),
            )
        })
        .collect();
    let mut buckets = [(0usize, 0.0f64); 10];
    let mut total_pairs = 0usize;
    'outer: for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            if total_pairs >= max_pairs {
                break 'outer;
            }
            total_pairs += 1;
            let sim = descriptors[&edges[i]].normalized_similarity(&descriptors[&edges[j]]);
            let pref_sim = learned[&edges[i]]
                .preference
                .jaccard(&learned[&edges[j]].preference);
            let b = ((sim * 10.0).floor() as usize).min(9);
            buckets[b].0 += 1;
            buckets[b].1 += pref_sim;
        }
    }
    buckets
        .iter()
        .enumerate()
        .map(|(i, (count, pref_sum))| Fig6bBucket {
            similarity_lo: i as f64 / 10.0,
            mean_preference_similarity: if *count > 0 {
                pref_sum / *count as f64 * 100.0
            } else {
                0.0
            },
            pair_percentage: *count as f64 / total_pairs.max(1) as f64 * 100.0,
            count: *count,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 9(a) — transfer accuracy vs. number of T-edge partitions
// ---------------------------------------------------------------------------

/// One measurement of the Figure 9(a) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9aPoint {
    /// Number of training partitions used (1 = "X", 2 = "2X", …).
    pub partitions_used: usize,
    /// Mean Jaccard accuracy of the transferred preferences against the
    /// held-out ground truth, %.
    pub accuracy: f64,
    /// Fraction of held-out edges that received a null preference.
    pub null_rate: f64,
}

/// Partitions the learned T-edge preferences into `k` deterministic folds.
fn partition_edges(model: &L2r, k: usize) -> Vec<Vec<RegionEdgeId>> {
    let mut ids: Vec<RegionEdgeId> = model.learned_preferences().keys().copied().collect();
    ids.sort();
    let mut folds = vec![Vec::new(); k.max(1)];
    for (i, id) in ids.into_iter().enumerate() {
        folds[i % k.max(1)].push(id);
    }
    folds
}

/// Figure 9(a): hold one fifth of the T-edge preferences out as ground truth
/// and transfer from 1, 2, 3 and 4 of the remaining partitions.
pub fn fig9a(model: &L2r, transfer: &TransferConfig) -> Vec<Fig9aPoint> {
    let folds = partition_edges(model, 5);
    let ground_truth: &Vec<RegionEdgeId> = &folds[4];
    let learned = model.learned_preferences();
    let mut out = Vec::new();
    for used in 1..=4usize {
        let labeled: HashMap<RegionEdgeId, Preference> = folds[..used]
            .iter()
            .flatten()
            .map(|id| (*id, learned[id].preference))
            .collect();
        let result = transfer_preferences(model.region_graph(), &labeled, ground_truth, transfer);
        let mut acc = 0.0;
        let mut n = 0usize;
        for id in ground_truth {
            if let Some(Some(p)) = result.preferences.get(id) {
                acc += p.jaccard(&learned[id].preference);
                n += 1;
            }
        }
        out.push(Fig9aPoint {
            partitions_used: used,
            accuracy: if n > 0 { acc / n as f64 * 100.0 } else { 0.0 },
            null_rate: result.null_rate,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9(b) — varying the adjacency-matrix reduction threshold amr
// ---------------------------------------------------------------------------

/// One measurement of the Figure 9(b) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9bPoint {
    /// The `amr` threshold.
    pub amr: f64,
    /// Mean Jaccard accuracy against the held-out ground truth, %.
    pub accuracy: f64,
    /// Percentage of held-out edges with a null transferred preference.
    pub null_rate: f64,
    /// Wall-clock time of the transfer, milliseconds.
    pub runtime_ms: f64,
    /// Number of similarity-graph edges kept.
    pub similarity_edges: usize,
}

/// Figure 9(b): transfer from 4 partitions to the held-out fifth while
/// varying `amr` over `amr_values`.
pub fn fig9b(model: &L2r, base: &TransferConfig, amr_values: &[f64]) -> Vec<Fig9bPoint> {
    let folds = partition_edges(model, 5);
    let ground_truth = &folds[4];
    let learned = model.learned_preferences();
    let labeled: HashMap<RegionEdgeId, Preference> = folds[..4]
        .iter()
        .flatten()
        .map(|id| (*id, learned[id].preference))
        .collect();
    amr_values
        .iter()
        .map(|amr| {
            let config = TransferConfig { amr: *amr, ..*base };
            let t0 = Instant::now();
            let result =
                transfer_preferences(model.region_graph(), &labeled, ground_truth, &config);
            let runtime_ms = t0.elapsed().as_secs_f64() * 1000.0;
            let mut acc = 0.0;
            let mut n = 0usize;
            for id in ground_truth {
                if let Some(Some(p)) = result.preferences.get(id) {
                    acc += p.jaccard(&learned[id].preference);
                    n += 1;
                }
            }
            Fig9bPoint {
                amr: *amr,
                accuracy: if n > 0 { acc / n as f64 * 100.0 } else { 0.0 },
                null_rate: result.null_rate * 100.0,
                runtime_ms,
                similarity_edges: result.similarity_edges,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Offline processing time (Section VII-C)
// ---------------------------------------------------------------------------

/// One row of the offline-processing-time report.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineRow {
    /// Pipeline stage name.
    pub stage: &'static str,
    /// Wall-clock time in milliseconds.
    pub time_ms: f64,
}

/// The offline processing times of a fitted model, in pipeline order
/// (clustering / region graph / learning / transfer / apply / connector
/// table).
pub fn offline_times(model: &L2r) -> Vec<OfflineRow> {
    let s = model.stats();
    vec![
        OfflineRow {
            stage: "clustering",
            time_ms: s.clustering_time.as_secs_f64() * 1000.0,
        },
        OfflineRow {
            stage: "region-graph",
            time_ms: s.region_graph_time.as_secs_f64() * 1000.0,
        },
        OfflineRow {
            stage: "preference-learning",
            time_ms: s.learning_time.as_secs_f64() * 1000.0,
        },
        OfflineRow {
            stage: "preference-transfer",
            time_ms: s.transfer_time.as_secs_f64() * 1000.0,
        },
        OfflineRow {
            stage: "apply-to-b-edges",
            time_ms: s.apply_time.as_secs_f64() * 1000.0,
        },
        OfflineRow {
            stage: "connector-table",
            time_ms: s.connector_time.as_secs_f64() * 1000.0,
        },
    ]
}

// ---------------------------------------------------------------------------
// Ground-truth preference recovery (extension enabled by synthetic data)
// ---------------------------------------------------------------------------

/// Result of the preference-recovery experiment (not in the paper; possible
/// here because the synthetic workload has known latent preferences).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryResult {
    /// Number of trajectory-covered district pairs evaluated.
    pub evaluated: usize,
    /// Mean Equation 1 similarity between the path L2R recommends between a
    /// covered district pair's centres and the path the pair's *latent*
    /// preference would drive, %.
    pub mean_similarity: f64,
    /// Share of covered pairs where that similarity is at least 0.9, %.
    pub pct_high_similarity: f64,
}

/// Measures how well the fitted model reproduces the *latent* (generator)
/// behaviour on trajectory-covered district pairs: for each covered pair the
/// latent preference defines the "true" driver path between the district
/// centres, and L2R's recommendation is compared against it.
///
/// This goes beyond the paper's evaluation (which only has observed
/// trajectories, not the underlying preferences) and is possible because the
/// synthetic workload's latent preferences are known.
pub fn preference_recovery(ds: &Dataset) -> RecoveryResult {
    let model = &ds.model;
    let net = model.network();
    let syn = &ds.synthetic;
    let mut evaluated = 0usize;
    let mut total_sim = 0.0;
    let mut high = 0usize;
    let mut pairs: Vec<(&(usize, usize), &l2r_datagen::LatentPreference)> =
        ds.workload.latent.iter().collect();
    pairs.sort_by_key(|(p, _)| **p);
    let mut scratch = QueryScratch::new();
    for (pair, latent) in pairs.into_iter().take(300) {
        let s = syn.districts[pair.0].center;
        let d = syn.districts[pair.1].center;
        let Some(latent_path) = l2r_datagen::route_with_preference(net, s, d, *latent) else {
            continue;
        };
        if latent_path.is_trivial() {
            continue;
        }
        let Some(route) = model.route(&mut scratch, s, d) else {
            continue;
        };
        let sim = l2r_road_network::path_similarity(net, &latent_path, &route.path);
        evaluated += 1;
        total_sim += sim;
        if sim >= 0.9 {
            high += 1;
        }
    }
    RecoveryResult {
        evaluated,
        mean_similarity: total_sim / evaluated.max(1) as f64 * 100.0,
        pct_high_similarity: high as f64 / evaluated.max(1) as f64 * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset, DatasetSpec, Scale};

    fn dataset() -> Dataset {
        build_dataset(DatasetSpec::d1(Scale::Quick))
    }

    #[test]
    fn table2_distribution_covers_all_trajectories() {
        let ds = dataset();
        let dist = table2(
            &ds.synthetic.net,
            &ds.workload.trajectories,
            ds.spec.distance_bounds_km.clone(),
        );
        assert_eq!(dist.total(), ds.workload.trajectories.len());
        assert!((dist.percentages().iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn table4_buckets_cover_all_regions() {
        let ds = dataset();
        let buckets = table4(&ds.model, &ds.spec.area_bounds_km2);
        let total: usize = buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, ds.model.region_graph().num_regions());
    }

    #[test]
    fn fig6a_reports_mostly_single_preferences() {
        let ds = dataset();
        let r = fig6a(&ds.model, &ds.model.config().learn.clone());
        assert!(r.num_t_edges > 0);
        assert!(
            r.pct_single_preference > 50.0,
            "paper reports >70%, got {}",
            r.pct_single_preference
        );
        let hist_total: usize = r.unique_preference_histogram.iter().sum();
        assert_eq!(hist_total, r.num_t_edges);
        let master_total: usize = r.master_distribution.iter().sum();
        assert_eq!(master_total, ds.model.learned_preferences().len());
    }

    #[test]
    fn fig6b_buckets_sum_to_all_pairs() {
        let ds = dataset();
        let buckets = fig6b(&ds.model, 2000);
        assert_eq!(buckets.len(), 10);
        let pct: f64 = buckets.iter().map(|b| b.pair_percentage).sum();
        assert!(
            (pct - 100.0).abs() < 1.0,
            "pair percentages should sum to ~100, got {pct}"
        );
        for b in &buckets {
            assert!(b.mean_preference_similarity >= 0.0 && b.mean_preference_similarity <= 100.0);
        }
    }

    #[test]
    fn fig9a_accuracy_is_reported_for_all_partition_counts() {
        let ds = dataset();
        let pts = fig9a(&ds.model, &ds.model.config().transfer);
        assert_eq!(pts.len(), 4);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.partitions_used, i + 1);
            assert!(p.accuracy >= 0.0 && p.accuracy <= 100.0);
        }
    }

    #[test]
    fn fig9b_sweep_reports_tradeoffs() {
        let ds = dataset();
        let pts = fig9b(&ds.model, &ds.model.config().transfer, &[0.5, 0.7, 0.9]);
        assert_eq!(pts.len(), 3);
        // Similarity graphs get sparser as amr grows.
        assert!(pts[0].similarity_edges >= pts[2].similarity_edges);
        // Null rate does not decrease as amr grows.
        assert!(pts[2].null_rate >= pts[0].null_rate - 1e-9);
    }

    #[test]
    fn offline_times_are_positive() {
        let ds = dataset();
        let rows = offline_times(&ds.model);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.time_ms >= 0.0));
        assert!(rows.iter().any(|r| r.time_ms > 0.0));
    }

    #[test]
    fn preference_recovery_beats_chance() {
        let ds = dataset();
        let r = preference_recovery(&ds);
        assert!(r.evaluated > 0);
        // The model's recommendations on covered district pairs should
        // largely reproduce what the latent preferences would drive.
        assert!(
            r.mean_similarity > 60.0,
            "L2R should reproduce the latent behaviour on covered pairs, got {:.1}%",
            r.mean_similarity
        );
        assert!(
            r.pct_high_similarity > 40.0,
            "high-similarity share {:.1}%",
            r.pct_high_similarity
        );
    }
}
