//! Multi-core extension experiment (paper future-work item 4): two-core
//! multiprogrammed mixes sharing the LLC, comparing replacement policies by
//! weighted speedup over a shared-LRU baseline.

use crate::policies;
use crate::report::{fmt_ratio, Table};
use crate::scale::Scale;
use mem_model::cpi::LinearCpiModel;
use mem_model::multicore::{weighted_speedup, MulticoreHierarchy};
use sim_core::PolicyFactory;
use traces::spec2006::Spec2006;

/// The two-core mixes: aggressive streamer + victim, and balanced pairs.
pub fn mixes() -> [(Spec2006, Spec2006); 4] {
    [
        (Spec2006::Libquantum, Spec2006::DealII),
        (Spec2006::Mcf, Spec2006::Gamess),
        (Spec2006::Sphinx3, Spec2006::Milc),
        (Spec2006::CactusADM, Spec2006::Omnetpp),
    ]
}

fn run_mix(scale: Scale, mix: (Spec2006, Spec2006), factory: &PolicyFactory) -> [f64; 2] {
    let cfg = scale.hierarchy();
    let per_core = scale.accesses() / 2;
    let mut mc = MulticoreHierarchy::new(2, cfg, factory(&cfg.llc));
    // Reference streams come from the shared capture cache (generated once
    // per benchmark); every policy contender replays the same prefix.
    let cache = crate::cache::workload_cache();
    let a = cache.raw_stream(scale, mix.0);
    let b = cache.raw_stream(scale, mix.1);
    mc.run_interleaved(
        vec![a[..per_core].iter().copied(), b[..per_core].iter().copied()],
        per_core,
    );
    let model = LinearCpiModel::default();
    [
        model.cycles(mc.instructions(0), mc.llc_stats(0).misses),
        model.cycles(mc.instructions(1), mc.llc_stats(1).misses),
    ]
}

/// Runs the two-core comparison and returns the weighted-speedup table.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        &format!("Multi-core extension: 2-core weighted speedup over shared LRU ({scale} scale)"),
        &["mix", "DRRIP", "PDP", "WI-4-DGIPPR"],
    );
    let contenders: Vec<(&str, PolicyFactory)> = vec![
        ("DRRIP", policies::drrip()),
        ("PDP", policies::pdp()),
        (
            "WI-4-DGIPPR",
            policies::dgippr(gippr::vectors::wi_4dgippr().to_vec(), "WI-4-DGIPPR"),
        ),
    ];
    for mix in mixes() {
        let lru_cycles = run_mix(scale, mix, &policies::lru());
        let mut cells = vec![format!("{} + {}", mix.0, mix.1)];
        for (_, factory) in &contenders {
            let cycles = run_mix(scale, mix, factory);
            cells.push(fmt_ratio(weighted_speedup(&lru_cycles, &cycles)));
        }
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicore_table_runs() {
        let t = run(Scale::Micro);
        assert_eq!(t.len(), 4);
        assert!(t.to_string().contains("462.libquantum + 447.dealII"));
    }

    /// The micro table's CSV, recorded before the private levels'
    /// walk was shared with the L1/L2 capture.
    #[test]
    fn micro_table_csv_is_pinned() {
        let csv = run(Scale::Micro).to_csv_string();
        assert_eq!(crate::manifest::digest(csv.as_bytes()), "f1506688", "{csv}");
    }
}
