//! Figure 10: misses per kilo-instruction normalized to LRU for the 1-,
//! 2-, and 4-vector GIPPR configurations, plus Belady MIN.
//!
//! Paper geomeans: WN1-GIPPR 0.952, WN1-2-DGIPPR 0.965, WN1-4-DGIPPR
//! 0.910, optimal 0.675 of LRU's misses.

use crate::experiments::{assign_vectors, VectorMode};
use crate::policies;
use crate::report::{fmt_geomean, fmt_ratio, Table};
use crate::runner::{measure_min, measure_policies, prepare_workloads};
use crate::scale::Scale;
use crate::stats::geometric_mean;
use sim_core::PolicyFactory;
use traces::spec2006::Spec2006;

/// Runs Figure 10 and returns the normalized-miss table (sorted ascending
/// by the 4-vector configuration) with a geometric-mean footer.
pub fn run(scale: Scale, mode: VectorMode) -> Table {
    let benches = Spec2006::all();
    let workloads = prepare_workloads(scale, &benches);
    let geom = scale.hierarchy().llc;
    let vectors = assign_vectors(scale, &benches, mode);
    let label = mode.label();

    let mut rows: Vec<(String, [f64; 4])> = workloads
        .iter()
        .map(|w| {
            // One batch per simpoint covers the whole roster; results are
            // bit-identical to per-policy replays.
            let roster = [
                policies::gippr(vectors.single[&w.bench].clone(), "GIPPR"),
                policies::dgippr(vectors.pair[&w.bench].clone(), "2-DGIPPR"),
                policies::dgippr(vectors.quad[&w.bench].clone(), "4-DGIPPR"),
            ];
            let refs: Vec<&PolicyFactory> = roster.iter().collect();
            let measured = measure_policies(w, &refs, geom);
            let min = measure_min(w, geom);
            (
                w.bench.name().to_string(),
                [
                    measured[0].normalized_misses(&w.lru),
                    measured[1].normalized_misses(&w.lru),
                    measured[2].normalized_misses(&w.lru),
                    min.normalized_misses(&w.lru),
                ],
            )
        })
        .collect();
    rows.sort_by(|a, b| {
        a.1[2]
            .partial_cmp(&b.1[2])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut table = Table::new(
        &format!("Figure 10: misses normalized to LRU ({label} vectors, {scale} scale)"),
        &[
            "benchmark",
            &format!("{label}-GIPPR"),
            &format!("{label}-2-DGIPPR"),
            &format!("{label}-4-DGIPPR"),
            "Optimal (MIN)",
        ],
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for (name, values) in &rows {
        table.row(
            std::iter::once(name.clone())
                .chain(values.iter().map(|v| fmt_ratio(*v)))
                .collect(),
        );
        for (c, v) in cols.iter_mut().zip(values) {
            c.push(*v);
        }
    }
    table.row(
        std::iter::once("GEOMEAN".to_string())
            .chain(cols.iter().map(|c| fmt_geomean(geometric_mean(c))))
            .collect(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_mode_shapes_hold() {
        let table = run(Scale::Quick, VectorMode::Published);
        assert_eq!(table.len(), 30);
        let text = table.to_string();
        // The geomean row exists and MIN's column is present.
        assert!(text.contains("GEOMEAN"));
        assert!(text.contains("Optimal (MIN)"));
    }
}
