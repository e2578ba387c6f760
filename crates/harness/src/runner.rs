//! Workload preparation and policy measurement — the machinery every
//! figure shares.

use crate::scale::Scale;
use crate::stats::weighted_mean;
use mem_model::cpi::WindowPerfModel;
use mem_model::{min_misses, replay_llc};
use sim_core::{Access, CacheGeometry, PolicyFactory};
use std::sync::Arc;
use traces::spec2006::Spec2006;

/// One captured simpoint of a benchmark.
#[derive(Debug, Clone)]
pub struct SimpointData {
    /// Simpoint weight within the benchmark.
    pub weight: f64,
    /// Captured LLC demand stream.
    pub stream: Arc<Vec<Access>>,
    /// Warm-up prefix length.
    pub warmup: usize,
}

/// A benchmark's captured simpoints plus its LRU baseline.
#[derive(Debug, Clone)]
pub struct WorkloadData {
    /// The benchmark.
    pub bench: Spec2006,
    /// Captured simpoints.
    pub simpoints: Vec<SimpointData>,
    /// LRU baseline, measured once.
    pub lru: PolicyMeasurement,
}

/// A policy's weighted measurement on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyMeasurement {
    /// Weighted misses per kilo-instruction.
    pub mpki: f64,
    /// Weighted cycle estimate (window performance model).
    pub cycles: f64,
    /// Weighted raw miss count (for normalized-miss figures).
    pub misses: f64,
}

impl PolicyMeasurement {
    /// Speedup of this measurement relative to `baseline` (cycle ratio).
    pub fn speedup_over(&self, baseline: &PolicyMeasurement) -> f64 {
        if self.cycles <= 0.0 {
            1.0
        } else {
            baseline.cycles / self.cycles
        }
    }

    /// This measurement's misses normalized to `baseline`'s.
    pub fn normalized_misses(&self, baseline: &PolicyMeasurement) -> f64 {
        if baseline.misses <= 0.0 {
            1.0
        } else {
            self.misses / baseline.misses
        }
    }
}

/// Captures the LLC streams for `benches` at `scale` and measures the LRU
/// baseline. Benchmarks are processed in parallel on the shared worker
/// pool, and every capture goes through the process-wide
/// [`WorkloadCache`](crate::cache::WorkloadCache): repeated calls for the
/// same `(scale, bench)` pair — common inside `run-all`, where every
/// figure wants the full suite — reuse the first capture's streams
/// instead of re-simulating the L1/L2 hierarchy.
///
/// The returned `WorkloadData` values share their streams (`Arc`) with the
/// cache; cloning them is cheap. An empty `benches` slice returns an empty
/// vector.
pub fn prepare_workloads(scale: Scale, benches: &[Spec2006]) -> Vec<WorkloadData> {
    let cache = crate::cache::workload_cache();
    sim_core::pool::global().run(benches.len(), usize::MAX, |i| {
        cache.workload(scale, benches[i]).as_ref().clone()
    })
}

/// Measures `factory`'s policy on every simpoint of `workload`, weighting
/// results by simpoint weight (the paper's reporting convention).
pub fn measure_policy(
    workload: &WorkloadData,
    factory: &PolicyFactory,
    geom: CacheGeometry,
) -> PolicyMeasurement {
    let perf = WindowPerfModel::default();
    let mut mpki = Vec::new();
    let mut cycles = Vec::new();
    let mut misses = Vec::new();
    for sp in &workload.simpoints {
        let run = replay_llc(&sp.stream, geom, factory(&geom), sp.warmup, &perf);
        mpki.push((run.mpki(), sp.weight));
        cycles.push((run.cycles, sp.weight));
        misses.push((run.stats.misses as f64, sp.weight));
    }
    PolicyMeasurement {
        mpki: weighted_mean(&mpki, 0.0),
        cycles: weighted_mean(&cycles, 1.0),
        misses: weighted_mean(&misses, 0.0),
    }
}

/// Measures every policy in `factories` on `workload` with one
/// [`mem_model::replay_many`] batch per simpoint: each policy replays the
/// whole stream on its planned engine (bit-sliced where its
/// `SliceKernel` supports the geometry, monomorphized otherwise), the
/// roster fanned across the worker pool. Results are in factory order
/// and bit-identical to calling [`measure_policy`] once per factory.
pub fn measure_policies(
    workload: &WorkloadData,
    factories: &[&PolicyFactory],
    geom: CacheGeometry,
) -> Vec<PolicyMeasurement> {
    let perf = WindowPerfModel::default();
    let mut mpki = vec![Vec::new(); factories.len()];
    let mut cycles = vec![Vec::new(); factories.len()];
    let mut misses = vec![Vec::new(); factories.len()];
    for sp in &workload.simpoints {
        let runs = mem_model::replay_many(&sp.stream, geom, factories, sp.warmup, &perf);
        for (i, run) in runs.iter().enumerate() {
            mpki[i].push((run.mpki(), sp.weight));
            cycles[i].push((run.cycles, sp.weight));
            misses[i].push((run.stats.misses as f64, sp.weight));
        }
    }
    (0..factories.len())
        .map(|i| PolicyMeasurement {
            mpki: weighted_mean(&mpki[i], 0.0),
            cycles: weighted_mean(&cycles[i], 1.0),
            misses: weighted_mean(&misses[i], 0.0),
        })
        .collect()
}

/// Measures Belady MIN (misses only — the paper does not define MIN
/// speedups under out-of-order execution, and neither do we).
pub fn measure_min(workload: &WorkloadData, geom: CacheGeometry) -> PolicyMeasurement {
    let mut misses = Vec::new();
    for sp in &workload.simpoints {
        let stats = min_misses(&sp.stream, geom, sp.warmup);
        misses.push((stats.misses as f64, sp.weight));
    }
    PolicyMeasurement {
        mpki: 0.0,
        cycles: f64::NAN,
        misses: weighted_mean(&misses, 0.0),
    }
}

/// Measures `factory` across many workloads in parallel, returning
/// measurements in workload order.
pub fn measure_policy_all(
    workloads: &[WorkloadData],
    factory: &PolicyFactory,
    geom: CacheGeometry,
) -> Vec<PolicyMeasurement> {
    sim_core::pool::global().run(workloads.len(), usize::MAX, |i| {
        measure_policy(&workloads[i], factory, geom)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies;

    fn quick_pair() -> (Vec<WorkloadData>, CacheGeometry) {
        let scale = Scale::Quick;
        let benches = [Spec2006::Libquantum, Spec2006::Gamess];
        (prepare_workloads(scale, &benches), scale.hierarchy().llc)
    }

    #[test]
    fn empty_bench_list_prepares_nothing() {
        // Regression: the old chunked implementation computed a chunk size
        // of zero for an empty slice and panicked in `chunks(0)`.
        let ws = prepare_workloads(Scale::Micro, &[]);
        assert!(ws.is_empty());
        let none = measure_policy_all(&ws, &policies::lru(), Scale::Micro.hierarchy().llc);
        assert!(none.is_empty());
    }

    #[test]
    fn prepare_gives_baseline_and_streams() {
        let (ws, _) = quick_pair();
        assert_eq!(ws.len(), 2);
        for w in &ws {
            assert_eq!(w.simpoints.len(), 1);
            assert!(!w.simpoints[0].stream.is_empty());
            assert!(w.lru.cycles > 0.0);
        }
    }

    #[test]
    fn lru_speedup_over_itself_is_one() {
        let (ws, geom) = quick_pair();
        for w in &ws {
            let again = measure_policy(w, &policies::lru(), geom);
            assert!((again.speedup_over(&w.lru) - 1.0).abs() < 1e-9);
            assert!((again.normalized_misses(&w.lru) - 1.0).abs() < 1e-9 || w.lru.misses == 0.0);
        }
    }

    #[test]
    fn min_never_exceeds_lru_misses() {
        let (ws, geom) = quick_pair();
        for w in &ws {
            let min = measure_min(w, geom);
            assert!(min.misses <= w.lru.misses + 1e-9, "{}", w.bench);
        }
    }

    #[test]
    fn parallel_measure_matches_sequential() {
        let (ws, geom) = quick_pair();
        let f = policies::drrip();
        let par = measure_policy_all(&ws, &f, geom);
        for (w, m) in ws.iter().zip(&par) {
            let seq = measure_policy(w, &f, geom);
            assert_eq!(*m, seq);
        }
    }

    #[test]
    fn batched_measure_matches_singles_exactly() {
        let (ws, geom) = quick_pair();
        let roster = [policies::lru(), policies::drrip(), policies::plru()];
        let refs: Vec<&PolicyFactory> = roster.iter().collect();
        for w in &ws {
            let batched = measure_policies(w, &refs, geom);
            for (f, b) in refs.iter().zip(&batched) {
                let single = measure_policy(w, f, geom);
                assert_eq!(*b, single, "{}", w.bench);
            }
        }
    }

    #[test]
    fn cache_resident_benchmark_is_policy_insensitive() {
        // 416.gamess fits in the LLC: every policy should produce roughly
        // LRU's misses (the paper: "for several benchmarks the optimal
        // policy performs no better than LRU").
        let (ws, geom) = quick_pair();
        let gamess = ws.iter().find(|w| w.bench == Spec2006::Gamess).unwrap();
        let drrip = measure_policy(gamess, &policies::drrip(), geom);
        let ratio = drrip.normalized_misses(&gamess.lru);
        assert!(
            (0.9..1.1).contains(&ratio),
            "gamess insensitive, got {ratio}"
        );
    }
}
