//! Workload-neutral cross-validation (paper Section 4.4).
//!
//! "Our workload neutral k (WNk) methodology … would hold out k workloads,
//! using the other n − k workloads to generate IPVs, then use the IPVs to
//! evaluate GIPPR/DGIPPR on the first k workloads." We implement WN1: for
//! each benchmark, vectors are evolved on the other 28 and evaluated on the
//! holdout, eliminating training bias. Workload-inclusive (WI) evaluation
//! trains on everything and is reported alongside (Figure 12 compares the
//! two; the difference is small).

use crate::fitness::{FitnessContext, Substrate};
use crate::ga::{Ga, GaConfig, VectorSet};
use gippr::Ipv;

/// One benchmark's WN1 result.
#[derive(Debug, Clone)]
pub struct Wn1Outcome {
    /// The holdout benchmark name.
    pub holdout: String,
    /// The vector (or set) evolved without that benchmark.
    pub vectors: Vec<Ipv>,
    /// The holdout's speedup over LRU under those vectors.
    pub holdout_speedup: f64,
}

/// Runs the WN1 protocol for each distinct benchmark prefix in `ctx`:
/// evolve on every stream whose name does not start with the holdout's
/// name, evaluate on those that do.
///
/// `n_vectors` of 1 runs single-vector GIPPR; 2 or 4 evolve a dueling set.
/// Benchmarks sharing a name prefix (simpoints) are held out together.
///
/// # Panics
///
/// Panics if `n_vectors` is not 1, 2, or 4.
pub fn wn1_evaluation(
    ctx: &FitnessContext,
    config: GaConfig,
    n_vectors: usize,
    substrate: Substrate,
) -> Vec<Wn1Outcome> {
    assert!(
        matches!(n_vectors, 1 | 2 | 4),
        "WN1 evaluates 1, 2, or 4 vectors, got {n_vectors}"
    );
    let mut names: Vec<String> = ctx.streams().iter().map(|s| s.name.clone()).collect();
    names.sort();
    names.dedup();

    names
        .into_iter()
        .map(|holdout| {
            let train = ctx.filtered(|n| n != holdout);
            let test = ctx.filtered(|n| n == holdout);
            let ga = Ga::new(config);
            let (vectors, _train_fitness) = if n_vectors == 1 {
                let r = ga.run_single(&train, substrate, None);
                (vec![r.best], r.best_fitness)
            } else {
                let seeds = if n_vectors == 2 {
                    vec![VectorSet::new(gippr::vectors::wi_2dgippr().to_vec())]
                } else {
                    vec![VectorSet::new(gippr::vectors::wi_4dgippr().to_vec())]
                };
                let r = ga.run_set(&train, n_vectors, seeds, None);
                (r.best.vectors().to_vec(), r.best_fitness)
            };
            let holdout_speedup = if n_vectors == 1 {
                test.fitness_single(&vectors[0], substrate)
            } else {
                test.fitness_set(&vectors)
            };
            Wn1Outcome {
                holdout,
                vectors,
                holdout_speedup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessScale;
    use traces::spec2006::Spec2006;

    fn ctx() -> FitnessContext {
        FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum, Spec2006::Gamess, Spec2006::CactusADM],
            1,
            10_000,
            FitnessScale {
                shift: 6,
                threads: 2,
            },
        )
    }

    #[test]
    fn wn1_produces_one_outcome_per_benchmark() {
        let ctx = ctx();
        let cfg = GaConfig {
            generations: 2,
            ..GaConfig::quick(5)
        };
        let outcomes = wn1_evaluation(&ctx, cfg, 1, Substrate::Plru);
        assert_eq!(outcomes.len(), 3);
        let mut names: Vec<&str> = outcomes.iter().map(|o| o.holdout.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["416.gamess", "436.cactusADM", "462.libquantum"]);
    }

    #[test]
    fn wn1_vectors_are_valid_and_speedups_sane() {
        let ctx = ctx();
        let cfg = GaConfig {
            generations: 2,
            ..GaConfig::quick(6)
        };
        for o in wn1_evaluation(&ctx, cfg, 1, Substrate::Plru) {
            assert_eq!(o.vectors.len(), 1);
            assert_eq!(o.vectors[0].assoc(), 16);
            assert!(o.holdout_speedup > 0.3 && o.holdout_speedup < 5.0);
        }
    }

    #[test]
    fn wn1_set_variant_runs() {
        let ctx = ctx();
        let cfg = GaConfig {
            generations: 1,
            initial_population: 6,
            population: 4,
            ..GaConfig::quick(7)
        };
        let outcomes = wn1_evaluation(&ctx, cfg, 2, Substrate::Plru);
        assert!(outcomes.iter().all(|o| o.vectors.len() == 2));
    }

    #[test]
    #[should_panic(expected = "1, 2, or 4")]
    fn wn1_rejects_three_vectors() {
        let ctx = ctx();
        let _ = wn1_evaluation(&ctx, GaConfig::quick(1), 3, Substrate::Plru);
    }
}
