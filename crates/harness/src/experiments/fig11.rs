//! Figure 11: misses normalized to LRU — DRRIP and PDP versus the
//! 4-vector GIPPR configuration, plus Belady MIN.
//!
//! Paper geomeans: DRRIP 0.915, PDP 0.902, WN1-4-DGIPPR 0.910, MIN 0.675 —
//! the point being that DGIPPR matches the state of the art with less than
//! half their replacement state.

use crate::experiments::{assign_vectors, VectorMode};
use crate::policies;
use crate::report::{fmt_geomean, fmt_ratio, Table};
use crate::runner::{measure_min, measure_policies, prepare_workloads};
use crate::scale::Scale;
use crate::stats::geometric_mean;
use sim_core::PolicyFactory;
use traces::spec2006::Spec2006;

/// Runs Figure 11 and returns the normalized-miss table (sorted ascending
/// by DRRIP, the paper's x-axis convention) with a geometric-mean footer.
pub fn run(scale: Scale, mode: VectorMode) -> Table {
    let benches = Spec2006::all();
    let workloads = prepare_workloads(scale, &benches);
    let geom = scale.hierarchy().llc;
    let vectors = assign_vectors(scale, &benches, mode);
    let label = mode.label();

    let mut rows: Vec<(String, [f64; 4])> = workloads
        .iter()
        .map(|w| {
            // One batch per simpoint covers the whole roster.
            let roster = [
                policies::drrip(),
                policies::pdp(),
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
        a.1[0]
            .partial_cmp(&b.1[0])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut table = Table::new(
        &format!("Figure 11: misses normalized to LRU ({label} vectors, {scale} scale)"),
        &[
            "benchmark",
            "DRRIP",
            "PDP",
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
    fn columns_match_paper_comparison() {
        let table = run(Scale::Quick, VectorMode::Published);
        let text = table.to_string();
        assert!(text.contains("DRRIP"));
        assert!(text.contains("PDP"));
        assert!(text.contains("4-DGIPPR"));
        assert!(text.contains("GEOMEAN"));
    }
}
