//! The genetic algorithm (paper Section 4.2).
//!
//! "Individual IPVs are mated with crossover, i.e., elements `0..k` of one
//! vector and `k+1..16` of another vector are put into corresponding
//! positions of a new vector, where `k` is chosen randomly. For mutation,
//! for each new IPV, with a 5 % probability, a randomly chosen element of
//! the vector is replaced with a random integer between 0 and 15."
//!
//! The algorithm is generic over a [`Genome`], so the same machinery
//! evolves single IPVs (GIPPR) and dueling vector sets (2-/4-DGIPPR). Its
//! generation loop is [`crate::island`]'s: a [`Ga`] run is one island
//! with no migration ring, scored on the full-only ladder.

use crate::checkpoint::{self, Checkpointing};
use crate::fitness::{FitnessContext, Substrate};
use crate::island::{self, Run};
use crate::ladder::LadderConfig;
use gippr::Ipv;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A searchable genome: random initialization, crossover, mutation.
pub trait Genome: Clone + Send + Sync + fmt::Display {
    /// Samples a uniformly random genome for a `assoc`-way cache.
    fn sample<R: Rng + ?Sized>(assoc: usize, rng: &mut R) -> Self;
    /// Single-point crossover with `other`.
    fn crossover<R: Rng + ?Sized>(&self, other: &Self, rng: &mut R) -> Self;
    /// Mutates in place: with probability `rate`, one element is replaced
    /// by a random value.
    fn mutate<R: Rng + ?Sized>(&mut self, rate: f64, rng: &mut R);
    /// Whether the genome is worth simulating at all. The GA gives
    /// non-viable genomes `f64::NEG_INFINITY` fitness without spending a
    /// fitness evaluation (millions of simulated accesses) on them.
    fn is_viable(&self) -> bool {
        true
    }
    /// Serializes the genome for checkpoint files and as the fitness-memo
    /// key; two genomes encode equal iff they are behaviorally identical.
    fn encode(&self) -> Vec<u8>;
    /// Rebuilds a genome from [`Genome::encode`] bytes for an `assoc`-way
    /// cache; `None` (never a panic) for bytes that are not a valid
    /// genome, so corrupt checkpoints degrade to a restart.
    fn decode(bytes: &[u8], assoc: usize) -> Option<Self>;
}

impl Genome for Ipv {
    fn sample<R: Rng + ?Sized>(assoc: usize, rng: &mut R) -> Self {
        Ipv::random(assoc, rng)
    }

    fn crossover<R: Rng + ?Sized>(&self, other: &Self, rng: &mut R) -> Self {
        let k = rng.gen_range(0..=self.assoc());
        let entries: Vec<u8> = self.entries()[..=k]
            .iter()
            .chain(other.entries()[k + 1..].iter())
            .copied()
            .collect();
        Ipv::new(entries, self.assoc()).expect("crossover of valid parents is valid")
    }

    fn mutate<R: Rng + ?Sized>(&mut self, rate: f64, rng: &mut R) {
        if rng.gen_bool(rate) {
            let idx = rng.gen_range(0..=self.assoc());
            let value = rng.gen_range(0..self.assoc()) as u8;
            self.set_entry(idx, value)
                .expect("sampled value is in range");
        }
    }

    /// Degenerate vectors (paper footnote 1: pseudo-MRU unreachable, per
    /// the `sim-lint` static analyzer) cannot express a useful recency
    /// ordering, so their fitness is known without simulation.
    fn is_viable(&self) -> bool {
        !self.is_degenerate()
    }

    fn encode(&self) -> Vec<u8> {
        self.entries().to_vec()
    }

    fn decode(bytes: &[u8], assoc: usize) -> Option<Self> {
        if bytes.len() != assoc + 1 {
            return None;
        }
        Ipv::from_slice(bytes).ok()
    }
}

/// A dueling set of 2 or 4 vectors (the DGIPPR genome). Crossover mixes at
/// vector granularity plus one intra-vector split; mutation delegates to a
/// random member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorSet {
    vectors: Vec<Ipv>,
}

impl VectorSet {
    /// Wraps an explicit set of vectors.
    ///
    /// # Panics
    ///
    /// Panics unless there are 2 or 4 vectors.
    pub fn new(vectors: Vec<Ipv>) -> Self {
        assert!(
            vectors.len() == 2 || vectors.len() == 4,
            "vector sets have 2 or 4 members"
        );
        VectorSet { vectors }
    }

    /// The member vectors.
    pub fn vectors(&self) -> &[Ipv] {
        &self.vectors
    }

    /// Number of member vectors (2 or 4).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the set is empty (never true; satisfies the is_empty lint).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Samples a set of `n` uniformly random vectors for an `assoc`-way
    /// cache. [`Genome::sample`] always draws a pair; a GA over quads
    /// passes this with `n = 4` as its sampler.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is 2 or 4.
    pub fn sample_n<R: Rng + ?Sized>(n: usize, assoc: usize, rng: &mut R) -> Self {
        VectorSet::new((0..n).map(|_| Ipv::random(assoc, rng)).collect())
    }
}

impl fmt::Display for VectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.vectors.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl Genome for VectorSet {
    fn sample<R: Rng + ?Sized>(assoc: usize, rng: &mut R) -> Self {
        Self::sample_n(2, assoc, rng)
    }

    fn crossover<R: Rng + ?Sized>(&self, other: &Self, rng: &mut R) -> Self {
        debug_assert_eq!(self.vectors.len(), other.vectors.len());
        let vectors = self
            .vectors
            .iter()
            .zip(&other.vectors)
            .map(|(a, b)| match rng.gen_range(0..3) {
                0 => a.clone(),
                1 => b.clone(),
                _ => a.crossover(b, rng),
            })
            .collect();
        VectorSet { vectors }
    }

    fn mutate<R: Rng + ?Sized>(&mut self, rate: f64, rng: &mut R) {
        let idx = rng.gen_range(0..self.vectors.len());
        self.vectors[idx].mutate(rate, rng);
    }

    /// A dueling set is viable only if every member is: set-dueling
    /// dedicates real cache sets to each vector, so one degenerate member
    /// poisons the whole configuration.
    fn is_viable(&self) -> bool {
        self.vectors.iter().all(Genome::is_viable)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.vectors.len() as u8];
        for v in &self.vectors {
            out.extend_from_slice(v.entries());
        }
        out
    }

    fn decode(bytes: &[u8], assoc: usize) -> Option<Self> {
        let (&count, rest) = bytes.split_first()?;
        let count = count as usize;
        if !(count == 2 || count == 4) || rest.len() != count * (assoc + 1) {
            return None;
        }
        let vectors = rest
            .chunks(assoc + 1)
            .map(|chunk| Ipv::from_slice(chunk).ok())
            .collect::<Option<Vec<_>>>()?;
        Some(VectorSet { vectors })
    }
}

/// Genetic-algorithm parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// First-generation population (paper: 20 000).
    pub initial_population: usize,
    /// Population of subsequent generations (paper: 4 000).
    pub population: usize,
    /// Generations to run.
    pub generations: usize,
    /// Per-offspring mutation probability (paper: 0.05).
    pub mutation_rate: f64,
    /// Best individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GaConfig {
    /// The paper's full-scale configuration (hours of CPU time).
    pub fn paper(seed: u64) -> Self {
        GaConfig {
            initial_population: 20_000,
            population: 4_000,
            generations: 50,
            mutation_rate: 0.05,
            elitism: 8,
            tournament: 4,
            seed,
        }
    }

    /// A laptop-scale configuration for tests and quick experiments.
    pub fn quick(seed: u64) -> Self {
        GaConfig {
            initial_population: 48,
            population: 24,
            generations: 8,
            mutation_rate: 0.05,
            elitism: 3,
            tournament: 3,
            seed,
        }
    }
}

/// The outcome of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult<G> {
    /// The fittest genome found.
    pub best: G,
    /// Its fitness (mean speedup over LRU).
    pub best_fitness: f64,
    /// Best full-fidelity fitness known after each generation (monotone
    /// nondecreasing; with elitism ≥ 1 it is also that generation's best).
    pub history: Vec<f64>,
}

/// The genetic algorithm runner.
#[derive(Debug, Clone)]
pub struct Ga {
    config: GaConfig,
}

impl Ga {
    /// Creates a runner with `config`.
    pub fn new(config: GaConfig) -> Self {
        Ga { config }
    }

    /// Evolves a single IPV on `substrate` (GIPPR/GIPLR). `ckpt` names a
    /// checkpoint directory and stage label (see
    /// [`run_seeded`](Ga::run_seeded)).
    pub fn run_single(
        &self,
        ctx: &FitnessContext,
        substrate: Substrate,
        ckpt: Option<(&Checkpointing, &str)>,
    ) -> GaResult<Ipv> {
        self.run_seeded(
            ctx,
            Vec::new(),
            |ctx, g| ctx.fitness_single(g, substrate),
            Ipv::sample,
            ckpt,
        )
    }

    /// Evolves a dueling set of `n` vectors (2- or 4-DGIPPR). `seeds` may
    /// inject known-good sets (e.g. single-vector GA winners), matching the
    /// paper's use of first-stage vectors to seed the pgapack stage.
    pub fn run_set(
        &self,
        ctx: &FitnessContext,
        n: usize,
        seeds: Vec<VectorSet>,
        ckpt: Option<(&Checkpointing, &str)>,
    ) -> GaResult<VectorSet> {
        self.run_seeded(
            ctx,
            seeds,
            |ctx, g: &VectorSet| ctx.fitness_set(g.vectors()),
            move |assoc, rng| VectorSet::sample_n(n, assoc, rng),
            ckpt,
        )
    }

    /// The paper's two-stage structure (Section 4.2): "we generate many
    /// such vectors through many runs in parallel … we then use these
    /// vectors to seed another genetic algorithm implemented in pgapack."
    ///
    /// Stage one runs `first_stage_runs` independent GAs from different
    /// seeds; stage two runs one final GA whose initial population is
    /// seeded with every stage-one winner. With `ckpt`, each stage-one run
    /// checkpoints under `<label>-s1-<i>` and the seeded final stage under
    /// `<label>-final`, so a crash anywhere in the multi-hour pipeline
    /// resumes at the interrupted stage (completed stages short-circuit off
    /// their final markers).
    pub fn run_two_stage_single(
        &self,
        ctx: &FitnessContext,
        substrate: Substrate,
        first_stage_runs: usize,
        ckpt: Option<(&Checkpointing, &str)>,
    ) -> GaResult<Ipv> {
        let stage = |suffix: String| ckpt.map(|(c, base)| (c, format!("{base}-{suffix}")));
        let winners: Vec<Ipv> = (0..first_stage_runs.max(1))
            .map(|i| {
                let cfg = GaConfig {
                    seed: self.config.seed.wrapping_add(1 + i as u64),
                    ..self.config
                };
                let stage = stage(format!("s1-{i}"));
                Ga::new(cfg)
                    .run_single(
                        ctx,
                        substrate,
                        stage.as_ref().map(|(c, l)| (*c, l.as_str())),
                    )
                    .best
            })
            .collect();
        let stage = stage("final".to_string());
        self.run_seeded(
            ctx,
            winners,
            |c, g| c.fitness_single(g, substrate),
            Ipv::sample,
            stage.as_ref().map(|(c, l)| (*c, l.as_str())),
        )
    }

    /// The GA with injected seed genomes, fitness `eval` and sampler
    /// `sample`: one run of [`crate::island`]'s generation loop on the
    /// full-only ladder, with no migration ring.
    ///
    /// When `ckpt` is set, the complete loop state (generation,
    /// population, RNG state, history, fitness memo) is snapshotted
    /// through `sim_core::persist::atomic_write` at the top of every
    /// generation, and an existing snapshot for the same configuration and
    /// stage label is resumed **bit-identically**: the result is
    /// byte-for-byte the one an uninterrupted run produces (see
    /// `tests/ga_golden.rs`). A completed stage writes a final marker that
    /// short-circuits re-runs; an unusable snapshot restarts the stage with
    /// a warning.
    ///
    /// # Panics
    ///
    /// Panics if no genome of any generation gets a finite fitness.
    pub fn run_seeded<G, F, S>(
        &self,
        ctx: &FitnessContext,
        seeds: Vec<G>,
        eval: F,
        sample: S,
        ckpt: Option<(&Checkpointing, &str)>,
    ) -> GaResult<G>
    where
        G: Genome,
        F: Fn(&FitnessContext, &G) -> f64 + Sync,
        S: Fn(usize, &mut StdRng) -> G,
    {
        let run = Run {
            ga: self.config,
            ladder: LadderConfig::full_only(),
            seeds,
            station: ckpt.map(|(c, label)| {
                (
                    c.stage_path(label),
                    checkpoint::fingerprint(&self.config, label),
                )
            }),
            ring: None,
        };
        island::evolve(ctx, run, cheap_tier, cheap_tier, eval, sample)
            .expect("a run outside a migration ring does no mailbox I/O")
            .result
    }
}

/// The profile and sampled tiers of a [`Ga`] run: the full-only ladder
/// never calls them.
fn cheap_tier<G>(_: &FitnessContext, _: &G) -> f64 {
    unreachable!("the full-only ladder scores every genome at full fidelity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessScale;
    use rand::SeedableRng;
    use traces::spec2006::Spec2006;

    fn ctx() -> FitnessContext {
        FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum, Spec2006::CactusADM],
            1,
            15_000,
            FitnessScale {
                shift: 6,
                threads: 2,
            },
        )
    }

    /// The GA must prune statically degenerate genomes *before* fitness
    /// evaluation: a seeded degenerate candidate never reaches the eval
    /// closure, gets `-inf`, and cannot win.
    #[test]
    fn degenerate_seeds_are_pruned_before_fitness_evaluation() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Identity promotions with insertion at the victim position: no
        // event ever moves any block, so pseudo-MRU is unreachable — the
        // paper's footnote-1 degeneracy, caught by the sim-lint analyzer.
        let mut raw: Vec<u8> = (0u8..16).collect();
        raw.push(15);
        let degenerate = Ipv::from_slice(&raw).unwrap();
        assert!(degenerate.is_degenerate());
        assert!(!degenerate.is_viable());

        let evaluations = AtomicUsize::new(0);
        let degenerate_evaluations = AtomicUsize::new(0);
        let cfg = GaConfig {
            initial_population: 16,
            population: 8,
            generations: 3,
            mutation_rate: 0.05,
            elitism: 2,
            tournament: 2,
            seed: 7,
        };
        let result = Ga::new(cfg).run_seeded(
            &ctx(),
            vec![degenerate, Ipv::lru(16)],
            |_c, g: &Ipv| {
                evaluations.fetch_add(1, Ordering::Relaxed);
                if g.is_degenerate() {
                    degenerate_evaluations.fetch_add(1, Ordering::Relaxed);
                }
                // Synthetic fitness (no simulation): prefer MRU insertion.
                -(g.insertion() as f64)
            },
            Ipv::sample,
            None,
        );

        assert_eq!(
            degenerate_evaluations.load(Ordering::Relaxed),
            0,
            "degenerate genomes must be sunk without a fitness evaluation"
        );
        assert!(
            evaluations.load(Ordering::Relaxed) > 0,
            "viable genomes still get evaluated"
        );
        assert!(!result.best.is_degenerate(), "a pruned genome cannot win");
    }

    #[test]
    fn crossover_takes_prefix_and_suffix() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Ipv::lru(16); // all zeros
        let b = Ipv::lru_insertion(16); // zeros + final 15
        for _ in 0..50 {
            let child = a.crossover(&b, &mut rng);
            // Child must be all zeros except possibly the last entry.
            assert!(child.entries()[..16].iter().all(|&e| e == 0));
        }
    }

    #[test]
    fn mutation_changes_at_most_one_entry() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let mut v = Ipv::lru(16);
            v.mutate(1.0, &mut rng); // force mutation
            let diffs = v.entries().iter().filter(|&&e| e != 0).count();
            assert!(diffs <= 1);
        }
    }

    #[test]
    fn ga_improves_over_random_start() {
        let ctx = ctx();
        let ga = Ga::new(GaConfig {
            generations: 5,
            ..GaConfig::quick(11)
        });
        let result = ga.run_single(&ctx, Substrate::Plru, None);
        assert!(
            result.best_fitness >= *result.history.first().unwrap(),
            "final {} < first {}",
            result.best_fitness,
            result.history.first().unwrap()
        );
        // On this streaming-heavy pair, something beats LRU.
        assert!(result.best_fitness > 1.0, "fitness {}", result.best_fitness);
    }

    #[test]
    fn ga_history_is_monotone_with_elitism() {
        let ctx = ctx();
        let ga = Ga::new(GaConfig::quick(7));
        let result = ga.run_single(&ctx, Substrate::Plru, None);
        for w in result.history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "elitism never loses the best: {:?}",
                result.history
            );
        }
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let ctx = ctx();
        let a = Ga::new(GaConfig::quick(42)).run_single(&ctx, Substrate::Plru, None);
        let b = Ga::new(GaConfig::quick(42)).run_single(&ctx, Substrate::Plru, None);
        assert_eq!(a.best, b.best);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn vector_set_ga_runs() {
        let ctx = ctx();
        let ga = Ga::new(GaConfig {
            generations: 3,
            ..GaConfig::quick(9)
        });
        let seeds = vec![VectorSet::new(gippr::vectors::wi_2dgippr().to_vec())];
        let result = ga.run_set(&ctx, 2, seeds, None);
        assert_eq!(result.best.len(), 2);
        assert!(result.best_fitness > 0.9);
    }

    #[test]
    fn seeded_genomes_survive_if_fit() {
        // Seeding with LIP on pure streaming should keep fitness at least
        // LIP's from generation zero.
        let ctx = FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum],
            1,
            15_000,
            FitnessScale {
                shift: 6,
                threads: 1,
            },
        );
        let lip_fitness = ctx.fitness_single(&Ipv::lru_insertion(16), Substrate::Plru);
        let ga = Ga::new(GaConfig {
            generations: 2,
            ..GaConfig::quick(1)
        });
        let result = ga.run_seeded(
            &ctx,
            vec![Ipv::lru_insertion(16)],
            |c, g| c.fitness_single(g, Substrate::Plru),
            Ipv::sample,
            None,
        );
        assert!(result.best_fitness >= lip_fitness - 1e-12);
    }

    #[test]
    fn two_stage_at_least_matches_best_first_stage_winner() {
        let ctx = ctx();
        let cfg = GaConfig {
            generations: 2,
            ..GaConfig::quick(31)
        };
        let ga = Ga::new(cfg);
        // Recompute the stage-one winners exactly as the two-stage run does.
        let stage1_best = (0..3u64)
            .map(|i| {
                let c = GaConfig {
                    seed: cfg.seed.wrapping_add(1 + i),
                    ..cfg
                };
                Ga::new(c)
                    .run_single(&ctx, Substrate::Plru, None)
                    .best_fitness
            })
            .fold(f64::MIN, f64::max);
        let two_stage = ga.run_two_stage_single(&ctx, Substrate::Plru, 3, None);
        assert!(
            two_stage.best_fitness >= stage1_best - 1e-12,
            "seeding cannot lose fitness: {} vs {stage1_best}",
            two_stage.best_fitness
        );
    }

    #[test]
    #[should_panic(expected = "2 or 4")]
    fn vector_set_rejects_odd_sizes() {
        let _ = VectorSet::new(vec![Ipv::lru(16)]);
    }

    #[test]
    fn genome_encoding_roundtrips() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let ipv = Ipv::random(16, &mut rng);
            assert_eq!(Ipv::decode(&ipv.encode(), 16), Some(ipv.clone()));
            let set = VectorSet::sample_n(4, 16, &mut rng);
            assert_eq!(VectorSet::decode(&set.encode(), 16), Some(set));
        }
        assert_eq!(Ipv::decode(&[0u8; 5], 16), None, "wrong length rejected");
        assert_eq!(VectorSet::decode(&[3u8, 0, 0], 16), None, "bad count");
        assert_eq!(VectorSet::decode(&[], 16), None, "empty rejected");
    }

    /// The tentpole's differential guarantee: a GA run interrupted
    /// mid-generation and resumed from its checkpoint produces the
    /// *bit-identical* result of an uninterrupted run — same best genome,
    /// same fitness bits, same per-generation history.
    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let ctx = ctx();
        let cfg = GaConfig {
            initial_population: 14,
            population: 10,
            generations: 6,
            mutation_rate: 0.2,
            elitism: 2,
            tournament: 2,
            seed: 0xC0FFEE,
        };
        // Synthetic deterministic fitness (no simulation) keeps the test
        // fast; any pure function of the genome works.
        let synth = |_c: &FitnessContext, g: &Ipv| {
            let shape: f64 = g.entries().iter().map(|&e| e as f64).sum();
            g.insertion() as f64 - shape / 64.0
        };
        let reference = Ga::new(cfg).run_seeded(&ctx, Vec::new(), synth, Ipv::sample, None);

        let dir = std::env::temp_dir().join(format!("ga-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = Checkpointing::in_dir(&dir);

        // Interrupted run: the fitness function itself dies partway
        // through a mid-run generation (the worker pool surfaces the
        // panic after draining, exactly like a crashed experiment).
        let calls = AtomicUsize::new(0);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            Ga::new(cfg).run_seeded(
                &ctx,
                Vec::new(),
                |c: &FitnessContext, g: &Ipv| {
                    if calls.fetch_add(1, Ordering::SeqCst) == 30 {
                        panic!("injected crash mid-generation");
                    }
                    synth(c, g)
                },
                Ipv::sample,
                Some((&ckpt, "diff")),
            )
        }));
        assert!(crashed.is_err(), "the interrupted run must actually crash");
        assert!(
            calls.load(Ordering::SeqCst) > cfg.initial_population,
            "crash must land beyond generation 0 for the resume to matter"
        );

        // Resume with the healthy fitness function.
        let resumed =
            Ga::new(cfg).run_seeded(&ctx, Vec::new(), synth, Ipv::sample, Some((&ckpt, "diff")));
        assert_eq!(resumed.best, reference.best);
        assert_eq!(
            resumed.best_fitness.to_bits(),
            reference.best_fitness.to_bits()
        );
        assert_eq!(resumed.history, reference.history);

        // A third run short-circuits on the final marker without a single
        // fitness evaluation.
        let replayed = Ga::new(cfg).run_seeded(
            &ctx,
            Vec::new(),
            |_c: &FitnessContext, _g: &Ipv| panic!("a finished stage must not re-evaluate"),
            Ipv::sample,
            Some((&ckpt, "diff")),
        );
        assert_eq!(replayed.best, reference.best);
        assert_eq!(replayed.history, reference.history);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
