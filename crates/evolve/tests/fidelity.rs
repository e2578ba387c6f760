//! Quality gates for the set-sampled fitness tier: the cheap tier must
//! *rank* genomes like full replay does (that is all the ladder needs
//! from it — promotion decisions, not absolute scores), and the sampled
//! set subset must be a pure function of stream and geometry — identical
//! across worker thread counts and across context rebuilds (a resumed
//! run re-captures its streams from scratch).

use evolve::{FitnessContext, FitnessScale, Substrate};
use gippr::Ipv;
use rand::rngs::StdRng;
use rand::SeedableRng;
use traces::spec2006::Spec2006;

fn ctx(threads: usize) -> FitnessContext {
    FitnessContext::for_benchmarks(
        &[Spec2006::Libquantum, Spec2006::CactusADM],
        1,
        15_000,
        FitnessScale { shift: 6, threads },
    )
}

fn genome_batch(n: usize, assoc: usize, seed: u64) -> Vec<Ipv> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Ipv::random(assoc, &mut rng)).collect()
}

/// Kendall rank correlation (tau-a over strictly ordered pairs; ties in
/// either ranking are skipped).
fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let (mut concordant, mut discordant) = (0u64, 0u64);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da == 0.0 || db == 0.0 {
                continue;
            }
            if (da > 0.0) == (db > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let total = concordant + discordant;
    assert!(total > 0, "degenerate batch: every pair tied");
    (concordant as f64 - discordant as f64) / total as f64
}

#[test]
fn sampled_fitness_rank_correlates_with_full_replay() {
    let c = ctx(2);
    let ways = c.geometry().ways();
    let batch = genome_batch(24, ways, 0xC0FFEE);
    let full: Vec<f64> = batch
        .iter()
        .map(|g| c.fitness_single(g, Substrate::Plru))
        .collect();
    let sampled: Vec<f64> = batch
        .iter()
        .map(|g| c.fitness_single_sampled(g, Substrate::Plru))
        .collect();
    let tau = kendall_tau(&full, &sampled);
    assert!(
        tau >= 0.5,
        "set-sampled fitness must rank like full replay: kendall tau {tau:.3} < 0.5 \
         (full {full:?} vs sampled {sampled:?})"
    );
}

#[test]
fn sampled_fitness_is_bit_stable_across_threads_and_rebuilds() {
    // Different worker-pool widths (the context build's fan-out) and a
    // from-scratch context rebuild (what a resumed island does) must
    // produce bit-identical sampled fitness — the sampled subset and its
    // replay never depend on parallelism or process history.
    let one = ctx(1);
    let four = ctx(4);
    let rebuilt = ctx(1);
    let batch = genome_batch(8, one.geometry().ways(), 0x5EED);
    for g in &batch {
        let a = one.fitness_single_sampled(g, Substrate::Plru).to_bits();
        let b = four.fitness_single_sampled(g, Substrate::Plru).to_bits();
        let r = rebuilt.fitness_single_sampled(g, Substrate::Plru).to_bits();
        assert_eq!(a, b, "thread count changed the sampled fitness of {g}");
        assert_eq!(a, r, "context rebuild changed the sampled fitness of {g}");
    }
    // The profile tier is equally structural.
    for g in &batch {
        assert_eq!(
            one.profile_score_single(g).to_bits(),
            four.profile_score_single(g).to_bits()
        );
    }
}
