//! Ablations of the design choices DESIGN.md calls out: leader-set count,
//! PSEL width, vector count, replacement substrate, and the bypass
//! extension. Each sweep reports geometric-mean normalized misses (vs
//! LRU) over a mixed subset of the workload suite.

use crate::policies;
use crate::report::{fmt_geomean, Table};
use crate::runner::{measure_policies, prepare_workloads};
use crate::scale::Scale;
use crate::stats::geometric_mean;
use gippr::{DgipprPolicy, GiplrPolicy, GipprPolicy};
use sim_core::policy::factory;
use sim_core::PolicyFactory;
use traces::spec2006::Spec2006;

/// The mixed subset used for ablations: thrash-heavy, recency-friendly,
/// pointer-chasing, and cache-resident representatives.
pub fn ablation_benches() -> [Spec2006; 8] {
    [
        Spec2006::Libquantum,
        Spec2006::CactusADM,
        Spec2006::Mcf,
        Spec2006::Sphinx3,
        Spec2006::DealII,
        Spec2006::Omnetpp,
        Spec2006::Hmmer,
        Spec2006::Gamess,
    ]
}

/// Runs all ablation sweeps and returns one table.
pub fn run(scale: Scale) -> Table {
    let workloads = prepare_workloads(scale, &ablation_benches());
    let geom = scale.hierarchy().llc;
    let vectors4 = gippr::vectors::wi_4dgippr().to_vec();
    let vectors2 = gippr::vectors::wi_2dgippr().to_vec();

    let mut table = Table::new(
        &format!(
            "Ablations: geometric-mean misses vs LRU over {} workloads ({scale} scale)",
            workloads.len()
        ),
        &["configuration", "misses vs LRU"],
    );
    // Collect every sweep configuration first, then measure the whole
    // roster with one batch per workload, all ~15 configurations fanned
    // across the worker pool together.
    let mut configs: Vec<(String, PolicyFactory)> = Vec::new();
    let mut push = |name: String, f: PolicyFactory| {
        configs.push((name, f));
    };

    // Leader-set count sweep (default 32 at full scale; scaled caches use
    // proportionally fewer).
    for leaders in [2usize, 4, 8, 16] {
        let vs = vectors4.clone();
        if geom.sets() / leaders >= 4 {
            push(
                format!("4-DGIPPR, {leaders} leaders/vector"),
                factory(move |g| {
                    Box::new(
                        DgipprPolicy::with_config(g, vs.clone(), leaders, "4-DGIPPR")
                            .expect("valid config"),
                    )
                }),
            );
        }
    }

    // PSEL width sweep (paper: 11 bits). The +bypass rows sweep the bypass
    // duel at the same width — `with_bypass` inherits the configured PSEL
    // width rather than pinning the paper's 11 bits.
    for bits in [5u32, 8, 11] {
        let vs = vectors4.clone();
        push(
            format!("4-DGIPPR, {bits}-bit PSEL"),
            factory(move |g| {
                Box::new(
                    DgipprPolicy::with_full_config(
                        g,
                        vs.clone(),
                        crate::policies::leaders_for(g),
                        bits,
                        "4-DGIPPR",
                    )
                    .expect("valid config"),
                )
            }),
        );
        let vs = vectors4.clone();
        push(
            format!("4-DGIPPR + bypass, {bits}-bit PSEL"),
            factory(move |g| {
                Box::new(
                    DgipprPolicy::with_full_config(
                        g,
                        vs.clone(),
                        crate::policies::leaders_for(g),
                        bits,
                        "4-DGIPPR",
                    )
                    .expect("valid config")
                    .with_bypass(crate::policies::leaders_for(g))
                    .expect("valid bypass config"),
                )
            }),
        );
    }

    // Vector-count ablation: 1 (static WI-GIPPR) vs 2 vs 4.
    push(
        "1 vector (WI-GIPPR, static)".to_string(),
        policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
    );
    push(
        "2 vectors (WI-2-DGIPPR)".to_string(),
        policies::dgippr(vectors2, "2-DGIPPR"),
    );
    push(
        "4 vectors (WI-4-DGIPPR)".to_string(),
        policies::dgippr(vectors4.clone(), "4-DGIPPR"),
    );

    // Substrate ablation: the same vector on PLRU state vs full LRU stacks
    // (GIPPR vs GIPLR — the paper's point that the cheap substrate keeps
    // the benefit).
    push(
        "WI-GIPPR vector on PLRU state (15 bits/set)".to_string(),
        factory(|g| {
            Box::new(GipprPolicy::new(g, gippr::vectors::wi_gippr()).expect("assoc matches"))
        }),
    );
    push(
        "WI-GIPPR vector on LRU stacks (64 bits/set)".to_string(),
        factory(|g| {
            Box::new(GiplrPolicy::new(g, gippr::vectors::wi_gippr()).expect("assoc matches"))
        }),
    );

    // Bypass extension (future work 1).
    {
        let vs = vectors4.clone();
        push(
            "4-DGIPPR + bypass duel".to_string(),
            factory(move |g| {
                Box::new(
                    DgipprPolicy::with_config(
                        g,
                        vs.clone(),
                        crate::policies::leaders_for(g),
                        "4-DGIPPR",
                    )
                    .expect("valid config")
                    .with_bypass(crate::policies::leaders_for(g))
                    .expect("valid bypass config"),
                )
            }),
        );
    }

    // RRIP-IPV extension (future work 5): cautious-promotion vector.
    push(
        "RRIP-IPV [0 0 1 2 | 3] (extension)".to_string(),
        factory(|g| {
            Box::new(baselines::RripIpvPolicy::new(g, [0, 0, 1, 2, 3]).expect("valid vector"))
        }),
    );
    push(
        "RRIP-IPV = SRRIP [0 0 0 0 | 2]".to_string(),
        factory(|g| {
            Box::new(
                baselines::RripIpvPolicy::new(g, baselines::RripIpvPolicy::srrip_vector())
                    .expect("valid vector"),
            )
        }),
    );

    // Batched measurement: one `replay_many` per workload covers every
    // configuration above; per-configuration geomeans then read column i
    // of the transposed results. Bit-identical to per-config
    // `measure_policy` loops.
    let refs: Vec<&PolicyFactory> = configs.iter().map(|(_, f)| f).collect();
    let per_workload: Vec<Vec<_>> = workloads
        .iter()
        .map(|w| measure_policies(w, &refs, geom))
        .collect();
    for (i, (name, _)) in configs.iter().enumerate() {
        let ratios: Vec<f64> = workloads
            .iter()
            .zip(&per_workload)
            .map(|(w, measured)| measured[i].normalized_misses(&w.lru))
            .collect();
        table.row(vec![name.clone(), fmt_geomean(geometric_mean(&ratios))]);
    }

    // Writeback-convention ablation (DESIGN.md §5.0): replaying a
    // writeback-inclusive LLC stream lets writebacks update replacement
    // state — demonstrating why the demand-only convention matters for a
    // protective insertion policy (LIP-style).
    {
        use mem_model::cpi::WindowPerfModel;
        let config = scale.hierarchy();
        let perf = WindowPerfModel::default();
        let lip = gippr::Ipv::lru_insertion(geom.ways());
        // Use the write-heavy streaming models where the effect is
        // diagnostic: dirty streams whose writebacks would re-promote
        // themselves.
        let wb_benches = [
            Spec2006::Libquantum,
            Spec2006::Lbm,
            Spec2006::Milc,
            Spec2006::Bwaves,
        ];
        let mut row = |include_wb: bool, label: &str| {
            let mut ratios = Vec::new();
            for b in wb_benches {
                let spec = b.workload().scaled_down(scale.shift());
                let (stream, _) = mem_model::hierarchy::capture_llc_stream_config(
                    config,
                    spec.generator(0).take(scale.accesses()),
                    include_wb,
                );
                let warmup = mem_model::llc::default_warmup(stream.len());
                let lru =
                    mem_model::replay_llc(&stream, geom, policies::lru()(&geom), warmup, &perf);
                let pol = mem_model::replay_llc(
                    &stream,
                    geom,
                    Box::new(GipprPolicy::new(&geom, lip.clone()).expect("assoc matches")),
                    warmup,
                    &perf,
                );
                ratios.push(if lru.stats.misses == 0 {
                    1.0
                } else {
                    pol.stats.misses as f64 / lru.stats.misses as f64
                });
            }
            table.row(vec![
                label.to_string(),
                fmt_geomean(geometric_mean(&ratios)),
            ]);
        };
        row(false, "PLRU-LIP, demand-only replay (convention)");
        row(
            true,
            "PLRU-LIP, writebacks update replacement (off-convention)",
        );
    }

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_table_runs_at_micro_scale() {
        let t = run(Scale::Micro);
        assert!(t.len() >= 10, "all sweeps present: {} rows", t.len());
        let text = t.to_string();
        assert!(text.contains("PSEL"));
        assert!(text.contains("bypass"));
        assert!(text.contains("RRIP-IPV"));
    }
}
