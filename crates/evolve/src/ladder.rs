//! The multi-fidelity evaluation ladder (ROADMAP item 5).
//!
//! The paper's GA spends essentially all of its time replaying traces:
//! every genome of every generation pays a full multi-workload replay. The
//! ladder spends that budget where it matters by climbing four tiers,
//! cheapest first, and promoting only the most promising genomes:
//!
//! | tier | evaluator | cost |
//! |------|-----------|------|
//! | 0 pruned   | `sim-lint` viability (degeneracy analysis)     | free |
//! | 1 profile  | Mattson profile + reachability ([`FitnessContext::profile_score_single`](crate::FitnessContext::profile_score_single)) | free (no replay) |
//! | 2 sampled  | set-sampled replay ([`FitnessContext::fitness_single_sampled`](crate::FitnessContext::fitness_single_sampled)) | ~1/`every` of full |
//! | 3 full     | full replay (the existing fitness)             | full |
//!
//! Promotion is deterministic: genomes are ranked by (score descending,
//! encoding ascending), so equal scores break ties identically on every
//! host, at every shard count, and across checkpoint resumes. Every tier's
//! results are memoized under a fidelity-tagged key; elites therefore keep
//! their full-fidelity scores forever and re-climb the ladder for free.

use crate::fitness::FitnessContext;
use crate::ga::Genome;
use std::collections::HashMap;

/// The evaluation tier that produced a genome's selection score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fidelity {
    /// Statically non-viable; scored `-inf` without any evaluation.
    Pruned,
    /// Zero-replay profile heuristic.
    Profile,
    /// Set-sampled replay.
    Sampled,
    /// Full replay — the exact fitness.
    Full,
}

impl Fidelity {
    /// The memo-key tag byte for this tier.
    pub fn tag(self) -> u8 {
        match self {
            Fidelity::Pruned => 0,
            Fidelity::Profile => 1,
            Fidelity::Sampled => 2,
            Fidelity::Full => 3,
        }
    }
}

/// The memo key of `genome` at `fidelity`: one tag byte + the encoding.
/// Tags keep the tiers' values apart — a sampled estimate must never be
/// mistaken for a full fitness on a later lookup.
pub fn memo_key(fidelity: Fidelity, encoding: &[u8]) -> Vec<u8> {
    let mut key = Vec::with_capacity(encoding.len() + 1);
    key.push(fidelity.tag());
    key.extend_from_slice(encoding);
    key
}

/// Promotion thresholds of the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderConfig {
    /// Fraction of viable genomes promoted to the set-sampled tier.
    pub sampled_frac: f64,
    /// Fraction of viable genomes promoted to full replay.
    pub full_frac: f64,
    /// Minimum genomes receiving full replay per generation; keep this at
    /// or above the GA's elitism so every potential elite has an exact
    /// score.
    pub min_full: usize,
}

impl LadderConfig {
    /// The default ladder: half the population graduates to the sampled
    /// tier, one in eight (but at least `min_full`) to full replay.
    pub fn balanced() -> Self {
        LadderConfig {
            sampled_frac: 0.5,
            full_frac: 0.125,
            min_full: 8,
        }
    }

    /// A degenerate ladder that full-replays every viable genome — the
    /// single-fidelity baseline, through the same code path.
    pub fn full_only() -> Self {
        LadderConfig {
            sampled_frac: 1.0,
            full_frac: 1.0,
            min_full: 0,
        }
    }

    /// Whether this ladder is the single-fidelity baseline (the cheap
    /// tiers are skipped entirely, not just promoted through).
    pub fn is_full_only(&self) -> bool {
        self.full_frac >= 1.0
    }
}

/// Cumulative evaluation accounting across generations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderStats {
    /// Fresh zero-replay profile scores computed.
    pub profile_evals: u64,
    /// Fresh set-sampled replays performed.
    pub sampled_evals: u64,
    /// Fresh full replays performed.
    pub full_evals: u64,
    /// Genomes pruned as statically non-viable.
    pub pruned: u64,
    /// Full replays the ladder avoided: viable genomes with no memoized
    /// full score that stopped below the full tier (a single-fidelity GA
    /// would have replayed every one of them).
    pub full_saved: u64,
}

impl LadderStats {
    /// Adds another accumulator's counts into this one.
    pub fn absorb(&mut self, other: &LadderStats) {
        self.profile_evals += other.profile_evals;
        self.sampled_evals += other.sampled_evals;
        self.full_evals += other.full_evals;
        self.pruned += other.pruned;
        self.full_saved += other.full_saved;
    }
}

/// One generation's ladder outcome.
#[derive(Debug, Clone)]
pub struct LadderOutcome {
    /// Per-genome selection score: the highest tier each genome reached.
    pub scores: Vec<f64>,
    /// The tier backing each score.
    pub tiers: Vec<Fidelity>,
}

/// Deterministic promotion rank: score descending, encoding ascending.
fn rank_desc(a: (f64, &[u8]), b: (f64, &[u8])) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.1.cmp(b.1))
}

fn promote_count(frac: f64, total: usize, floor: usize) -> usize {
    ((frac.clamp(0.0, 1.0) * total as f64).ceil() as usize)
        .max(floor)
        .min(total)
}

/// Scores `population` through the ladder.
///
/// The three closures are the tier evaluators (tier 1 through 3); each is
/// run on the shared worker pool via
/// [`FitnessContext::fitness_many`]. `memo` holds fidelity-tagged results
/// and is both read and extended — pass the same map across generations
/// (and through checkpoints) to keep elites free. `stats` accumulates
/// evaluation counts.
#[allow(clippy::too_many_arguments)]
pub fn evaluate<G, FP, FS, FF>(
    ctx: &FitnessContext,
    cfg: &LadderConfig,
    population: &[G],
    memo: &mut HashMap<Vec<u8>, f64>,
    stats: &mut LadderStats,
    profile_score: FP,
    sampled_fitness: FS,
    full_fitness: FF,
) -> LadderOutcome
where
    G: Genome,
    FP: Fn(&FitnessContext, &G) -> f64 + Sync,
    FS: Fn(&FitnessContext, &G) -> f64 + Sync,
    FF: Fn(&FitnessContext, &G) -> f64 + Sync,
{
    let n = population.len();
    let encs: Vec<Vec<u8>> = population.iter().map(Genome::encode).collect();
    let mut scores = vec![f64::NEG_INFINITY; n];
    let mut tiers = vec![Fidelity::Pruned; n];

    // Tier 0: memoized full scores short-circuit (elites and previously
    // pruned genomes alike); fresh non-viable genomes are sunk to -inf.
    let mut climbing: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let full_key = memo_key(Fidelity::Full, &encs[i]);
        if let Some(&v) = memo.get(&full_key) {
            scores[i] = v;
            tiers[i] = if v == f64::NEG_INFINITY {
                Fidelity::Pruned
            } else {
                Fidelity::Full
            };
        } else if !population[i].is_viable() {
            memo.insert(full_key, f64::NEG_INFINITY);
            stats.pruned += 1;
        } else {
            climbing.push(i);
        }
    }

    let full_set: Vec<usize> = if cfg.is_full_only() {
        climbing.clone()
    } else {
        // Tier 1: profile-score every climber (memo makes repeats free).
        let t1 = run_tier(
            ctx,
            population,
            &encs,
            &climbing,
            Fidelity::Profile,
            memo,
            &profile_score,
        );
        stats.profile_evals += t1.fresh;
        let mut ranked = climbing.clone();
        ranked.sort_by(|&a, &b| rank_desc((t1.score(a), &encs[a]), (t1.score(b), &encs[b])));
        let n_full = promote_count(cfg.full_frac, ranked.len(), cfg.min_full);
        let n_sampled = promote_count(cfg.sampled_frac, ranked.len(), n_full);
        for &i in &ranked[n_sampled..] {
            scores[i] = t1.score(i);
            tiers[i] = Fidelity::Profile;
        }

        // Tier 2: set-sampled replay for the promoted slice.
        let sampled_set: Vec<usize> = ranked[..n_sampled].to_vec();
        let t2 = run_tier(
            ctx,
            population,
            &encs,
            &sampled_set,
            Fidelity::Sampled,
            memo,
            &sampled_fitness,
        );
        stats.sampled_evals += t2.fresh;
        let mut ranked2 = sampled_set;
        ranked2.sort_by(|&a, &b| rank_desc((t2.score(a), &encs[a]), (t2.score(b), &encs[b])));
        for &i in &ranked2[n_full.min(ranked2.len())..] {
            scores[i] = t2.score(i);
            tiers[i] = Fidelity::Sampled;
        }
        ranked2.truncate(n_full);
        ranked2
    };

    // Tier 3: full replay for the elite slice.
    let t3 = run_tier(
        ctx,
        population,
        &encs,
        &full_set,
        Fidelity::Full,
        memo,
        &full_fitness,
    );
    stats.full_evals += t3.fresh;
    for &i in &full_set {
        scores[i] = t3.score(i);
        tiers[i] = Fidelity::Full;
    }
    // Every climber that did not get a fresh full replay is one a
    // single-fidelity GA would have paid for.
    stats.full_saved += (climbing.len() as u64).saturating_sub(t3.fresh);

    LadderOutcome { scores, tiers }
}

/// One tier's scores over a set of population indices.
struct TierScores {
    by_index: HashMap<usize, f64>,
    fresh: u64,
}

impl TierScores {
    fn score(&self, i: usize) -> f64 {
        self.by_index[&i]
    }
}

fn run_tier<G, F>(
    ctx: &FitnessContext,
    population: &[G],
    encs: &[Vec<u8>],
    indices: &[usize],
    fidelity: Fidelity,
    memo: &mut HashMap<Vec<u8>, f64>,
    eval: &F,
) -> TierScores
where
    G: Genome,
    F: Fn(&FitnessContext, &G) -> f64 + Sync,
{
    let keys: Vec<Vec<u8>> = indices
        .iter()
        .map(|&i| memo_key(fidelity, &encs[i]))
        .collect();
    let fresh_pos: Vec<usize> = (0..indices.len())
        .filter(|&p| !memo.contains_key(&keys[p]))
        .collect();
    let fresh_genomes: Vec<G> = fresh_pos
        .iter()
        .map(|&p| population[indices[p]].clone())
        .collect();
    let values = ctx.fitness_many(&fresh_genomes, eval);
    for (&p, value) in fresh_pos.iter().zip(values) {
        memo.insert(keys[p].clone(), value);
    }
    let by_index = indices
        .iter()
        .zip(&keys)
        .map(|(&i, k)| (i, memo[k]))
        .collect();
    TierScores {
        by_index,
        fresh: fresh_pos.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{FitnessScale, Substrate};
    use gippr::Ipv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traces::spec2006::Spec2006;

    fn ctx() -> FitnessContext {
        FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum],
            1,
            12_000,
            FitnessScale {
                shift: 6,
                threads: 2,
            },
        )
    }

    fn batch(n: usize, seed: u64) -> Vec<Ipv> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Ipv::random(16, &mut rng)).collect()
    }

    /// Synthetic tier evaluators that count invocations: the ladder's
    /// promotion arithmetic is testable without any replay.
    #[test]
    fn promotion_counts_follow_the_config() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctx = ctx();
        let pop = batch(16, 3);
        let cfg = LadderConfig {
            sampled_frac: 0.5,
            full_frac: 0.25,
            min_full: 2,
        };
        let (c1, c2, c3) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let mut memo = HashMap::new();
        let mut stats = LadderStats::default();
        let out = evaluate(
            &ctx,
            &cfg,
            &pop,
            &mut memo,
            &mut stats,
            |_c, g: &Ipv| {
                c1.fetch_add(1, Ordering::SeqCst);
                g.insertion() as f64
            },
            |_c, g| {
                c2.fetch_add(1, Ordering::SeqCst);
                g.insertion() as f64 * 2.0
            },
            |_c, g| {
                c3.fetch_add(1, Ordering::SeqCst);
                g.insertion() as f64 * 3.0
            },
        );
        let viable = pop.iter().filter(|g| g.is_viable()).count();
        let full = ((0.25 * viable as f64).ceil() as usize).max(2);
        assert_eq!(c1.load(Ordering::SeqCst), viable);
        assert_eq!(
            c2.load(Ordering::SeqCst),
            ((0.5 * viable as f64).ceil() as usize).max(full)
        );
        assert_eq!(c3.load(Ordering::SeqCst), full);
        assert_eq!(stats.full_evals, full as u64);
        assert_eq!(stats.full_saved, (viable - full) as u64);
        assert_eq!(
            out.tiers.iter().filter(|t| **t == Fidelity::Full).count(),
            full
        );
        // Full-tier scores are the full evaluator's values.
        for (i, g) in pop.iter().enumerate() {
            if out.tiers[i] == Fidelity::Full {
                assert_eq!(out.scores[i], g.insertion() as f64 * 3.0);
            }
        }
    }

    #[test]
    fn memo_makes_reevaluation_free_and_deterministic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctx = ctx();
        let pop = batch(12, 9);
        let cfg = LadderConfig::balanced();
        let evals = AtomicUsize::new(0);
        let mut memo = HashMap::new();
        let mut stats = LadderStats::default();
        let run = |memo: &mut HashMap<Vec<u8>, f64>, stats: &mut LadderStats| {
            evaluate(
                &ctx,
                &cfg,
                &pop,
                memo,
                stats,
                |_c, g: &Ipv| g.entries()[0] as f64,
                |_c, g| {
                    evals.fetch_add(1, Ordering::SeqCst);
                    g.entries()[1] as f64
                },
                |_c, g| {
                    evals.fetch_add(1, Ordering::SeqCst);
                    g.entries()[2] as f64
                },
            )
        };
        let first = run(&mut memo, &mut stats);
        // Re-evaluating the same population reaches a fixed point: full
        // memo hits leave the ladder, the rest keep climbing, and once
        // everyone holds a full score no evaluator runs at all.
        let second = run(&mut memo, &mut stats);
        let after_second = evals.load(Ordering::SeqCst);
        let third = run(&mut memo, &mut stats);
        assert_eq!(
            evals.load(Ordering::SeqCst),
            after_second,
            "a converged population must be fully memoized"
        );
        assert_eq!(second.scores, third.scores);
        assert_eq!(second.tiers, third.tiers);
        // Scores only ever move up the ladder, never back down.
        for (a, b) in first.tiers.iter().zip(&second.tiers) {
            assert!(b >= a, "fidelity is monotone across passes");
        }
    }

    #[test]
    fn full_only_ladder_is_the_single_fidelity_baseline() {
        let ctx = ctx();
        let pop = batch(10, 21);
        let mut memo = HashMap::new();
        let mut stats = LadderStats::default();
        let out = evaluate(
            &ctx,
            &LadderConfig::full_only(),
            &pop,
            &mut memo,
            &mut stats,
            |_c, _g: &Ipv| panic!("full-only ladder must skip the profile tier"),
            |_c, _g| panic!("full-only ladder must skip the sampled tier"),
            |_c, g| g.insertion() as f64,
        );
        assert_eq!(stats.profile_evals, 0);
        assert_eq!(stats.sampled_evals, 0);
        assert_eq!(stats.full_saved, 0);
        for (i, g) in pop.iter().enumerate() {
            if g.is_viable() {
                assert_eq!(out.scores[i], g.insertion() as f64);
                assert_eq!(out.tiers[i], Fidelity::Full);
            } else {
                assert_eq!(out.scores[i], f64::NEG_INFINITY);
                assert_eq!(out.tiers[i], Fidelity::Pruned);
            }
        }
    }

    #[test]
    fn nonviable_genomes_never_reach_any_tier() {
        let ctx = ctx();
        let mut raw: Vec<u8> = (0u8..16).collect();
        raw.push(15);
        let degenerate = Ipv::from_slice(&raw).unwrap();
        assert!(!degenerate.is_viable());
        let mut pop = batch(6, 33);
        pop.push(degenerate);
        let mut memo = HashMap::new();
        let mut stats = LadderStats::default();
        let out = evaluate(
            &ctx,
            &LadderConfig::balanced(),
            &pop,
            &mut memo,
            &mut stats,
            |_c, g: &Ipv| {
                assert!(g.is_viable());
                1.0
            },
            |_c, g| {
                assert!(g.is_viable());
                1.0
            },
            |_c, g| {
                assert!(g.is_viable());
                1.0
            },
        );
        assert_eq!(*out.scores.last().unwrap(), f64::NEG_INFINITY);
        assert_eq!(*out.tiers.last().unwrap(), Fidelity::Pruned);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn a_generation_routes_no_stream() {
        // Every tier, the full one included, plans whole-stream passes:
        // scoring IPVs and 4-vector sets through the real tier evaluators
        // leaves every workload's routed view unbuilt.
        use crate::ga::VectorSet;
        let ctx = ctx();
        let cfg = LadderConfig {
            sampled_frac: 0.5,
            full_frac: 0.25,
            min_full: 2,
        };
        let mut memo = HashMap::new();
        let mut stats = LadderStats::default();
        evaluate(
            &ctx,
            &cfg,
            &batch(6, 5),
            &mut memo,
            &mut stats,
            |c, g: &Ipv| c.profile_score_single(g),
            |c, g| c.fitness_single_sampled(g, Substrate::Plru),
            |c, g| c.fitness_single(g, Substrate::Plru),
        );
        let mut rng = StdRng::seed_from_u64(8);
        let sets: Vec<VectorSet> = (0..4)
            .map(|_| VectorSet::sample_n(4, 16, &mut rng))
            .collect();
        evaluate(
            &ctx,
            &cfg,
            &sets,
            &mut memo,
            &mut stats,
            |c, g: &VectorSet| c.profile_score_set(g.vectors()),
            |c, g| c.fitness_set_sampled(g.vectors()),
            |c, g| c.fitness_set(g.vectors()),
        );
        assert!(
            stats.sampled_evals >= 4 && stats.full_evals >= 4,
            "{stats:?}"
        );
        for ws in ctx.streams() {
            assert!(!ws.sharded.is_routed(), "{} was routed", ws.name);
        }
    }
}
