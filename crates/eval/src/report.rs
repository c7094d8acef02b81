//! Plain-text report formatting for the experiment results: every table and
//! figure is printed as an aligned ASCII table so the `reproduce` binary's
//! output can be compared against the paper side by side.

use l2r_region_graph::RegionSizeBucket;
use l2r_trajectory::DistanceDistribution;

use crate::compare::{ExternalComparison, MethodResult};
use crate::experiments::{Fig6aResult, Fig6bBucket, Fig9aPoint, Fig9bPoint, OfflineRow};

/// Renders a simple aligned table.
fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join(" | ")
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-"),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Table II report.
pub fn report_table2(name: &str, dist: &DistanceDistribution) -> String {
    let labels = dist.labels();
    let pct = dist.percentages();
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&dist.counts)
        .zip(&pct)
        .map(|((l, c), p)| vec![l.clone(), c.to_string(), format!("{p:.1}")])
        .collect();
    render_table(
        &format!("Table II — trajectory distance distribution ({name})"),
        &["distance (km)", "# trajectories", "percentage (%)"],
        &rows,
    )
}

/// Table IV report.
pub fn report_table4(name: &str, buckets: &[RegionSizeBucket]) -> String {
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|b| {
            let label = if b.hi_km2.is_finite() {
                format!("({:.0},{:.0}]", b.lo_km2, b.hi_km2)
            } else {
                format!(">{:.0}", b.lo_km2)
            };
            vec![
                label,
                b.count.to_string(),
                format!("{:.1}", b.percentage),
                format!("{:.1}", b.max_diameter_km),
            ]
        })
        .collect();
    render_table(
        &format!("Table IV — region sizes ({name})"),
        &[
            "area (km²)",
            "# regions",
            "percentage (%)",
            "max diameter (km)",
        ],
        &rows,
    )
}

/// Figure 6(a) report.
pub fn report_fig6a(name: &str, r: &Fig6aResult) -> String {
    let mut rows = vec![
        vec!["T-edges analysed".to_string(), r.num_t_edges.to_string()],
        vec![
            "% single preference".to_string(),
            format!("{:.1}", r.pct_single_preference),
        ],
        vec![
            "edges with 1 / 2 / 3+ preferences".to_string(),
            format!(
                "{} / {} / {}",
                r.unique_preference_histogram[0],
                r.unique_preference_histogram[1],
                r.unique_preference_histogram[2]
            ),
        ],
    ];
    rows.push(vec![
        "learned masters DI / TT / FC".to_string(),
        format!(
            "{} / {} / {}",
            r.master_distribution[0], r.master_distribution[1], r.master_distribution[2]
        ),
    ]);
    render_table(
        &format!("Figure 6(a) — preference distribution ({name})"),
        &["metric", "value"],
        &rows,
    )
}

/// Figure 6(b) report.
pub fn report_fig6b(name: &str, buckets: &[Fig6bBucket]) -> String {
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|b| {
            vec![
                format!("[{:.1},{:.1})", b.similarity_lo, b.similarity_lo + 0.1),
                format!("{:.1}", b.mean_preference_similarity),
                format!("{:.1}", b.pair_percentage),
                b.count.to_string(),
            ]
        })
        .collect();
    render_table(
        &format!("Figure 6(b) — T-edge similarity vs preference similarity ({name})"),
        &[
            "T-edge similarity",
            "pref similarity (%)",
            "pairs (%)",
            "pairs",
        ],
        &rows,
    )
}

/// Figure 9(a) report.
pub fn report_fig9a(name: &str, points: &[Fig9aPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}X", p.partitions_used),
                format!("{:.1}", p.accuracy),
                format!("{:.1}", p.null_rate * 100.0),
            ]
        })
        .collect();
    render_table(
        &format!("Figure 9(a) — transfer accuracy vs # T-edges ({name})"),
        &["# T-edge partitions", "accuracy (%)", "null rate (%)"],
        &rows,
    )
}

/// Figure 9(b) report.
pub fn report_fig9b(name: &str, points: &[Fig9bPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.amr),
                format!("{:.1}", p.accuracy),
                format!("{:.1}", p.null_rate),
                format!("{:.1}", p.runtime_ms),
                p.similarity_edges.to_string(),
            ]
        })
        .collect();
    render_table(
        &format!("Figure 9(b) — varying amr ({name})"),
        &[
            "amr",
            "accuracy (%)",
            "N-rate (%)",
            "run-time (ms)",
            "similarity edges",
        ],
        &rows,
    )
}

/// Figures 10/11 (accuracy) report for one bucketing dimension.
pub fn report_accuracy(
    title: &str,
    results: &[MethodResult],
    by_coverage: bool,
    eq4: bool,
) -> String {
    let buckets: Vec<String> = match results.first() {
        Some(r) => {
            let src = if by_coverage {
                &r.by_coverage
            } else {
                &r.by_distance
            };
            src.iter().map(|b| b.label.clone()).collect()
        }
        None => Vec::new(),
    };
    let mut header: Vec<&str> = vec!["method"];
    let bucket_refs: Vec<&str> = buckets.iter().map(|s| s.as_str()).collect();
    header.extend(bucket_refs);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let src = if by_coverage {
                &r.by_coverage
            } else {
                &r.by_distance
            };
            let mut row = vec![r.name.clone()];
            row.extend(src.iter().map(|b| {
                let v = if eq4 { b.accuracy_eq4 } else { b.accuracy_eq1 };
                format!("{v:.1}")
            }));
            row
        })
        .collect();
    render_table(title, &header, &rows)
}

/// Figure 12 (running time) report for one bucketing dimension.
pub fn report_runtime(title: &str, results: &[MethodResult], by_coverage: bool) -> String {
    let buckets: Vec<String> = match results.first() {
        Some(r) => {
            let src = if by_coverage {
                &r.by_coverage
            } else {
                &r.by_distance
            };
            src.iter().map(|b| b.label.clone()).collect()
        }
        None => Vec::new(),
    };
    let mut header: Vec<&str> = vec!["method"];
    let bucket_refs: Vec<&str> = buckets.iter().map(|s| s.as_str()).collect();
    header.extend(bucket_refs);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let src = if by_coverage {
                &r.by_coverage
            } else {
                &r.by_distance
            };
            let mut row = vec![r.name.clone()];
            row.extend(src.iter().map(|b| format!("{:.0}", b.mean_runtime_us)));
            row
        })
        .collect();
    render_table(title, &header, &rows)
}

/// Figure 13 report.
pub fn report_fig13(name: &str, cmp: &ExternalComparison) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, l2r, ext) in cmp.by_distance.iter().chain(cmp.by_coverage.iter()) {
        rows.push(vec![
            label.clone(),
            format!("{l2r:.1}"),
            format!("{ext:.1}"),
        ]);
    }
    render_table(
        &format!("Figure 13 — L2R vs external routing service ({name})"),
        &["bucket", "L2R (%)", "External (%)"],
        &rows,
    )
}

/// Offline processing time report.
pub fn report_offline(name: &str, rows: &[OfflineRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.stage.to_string(), format!("{:.1}", r.time_ms)])
        .collect();
    render_table(
        &format!("Offline processing time ({name})"),
        &["stage", "time (ms)"],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            "demo",
            &["a", "long-header"],
            &[
                vec!["1".to_string(), "2".to_string()],
                vec!["wide-cell".to_string(), "x".to_string()],
            ],
        );
        assert!(out.contains("## demo"));
        assert!(out.contains("long-header"));
        // Title, header, separator and two rows.
        assert_eq!(out.lines().filter(|l| !l.is_empty()).count(), 5);
    }

    #[test]
    fn reports_contain_expected_labels() {
        let dist = DistanceDistribution {
            bounds_km: vec![10.0],
            counts: vec![3, 1],
        };
        let t2 = report_table2("D1", &dist);
        assert!(t2.contains("Table II"));
        assert!(t2.contains("(0,10]"));

        let fig9a = report_fig9a(
            "D1",
            &[Fig9aPoint {
                partitions_used: 1,
                accuracy: 55.0,
                null_rate: 0.2,
            }],
        );
        assert!(fig9a.contains("1X"));
        assert!(fig9a.contains("55.0"));

        let offline = report_offline(
            "D1",
            &[OfflineRow {
                stage: "clustering",
                time_ms: 12.5,
            }],
        );
        assert!(offline.contains("clustering"));
        assert!(offline.contains("12.5"));
    }
}
