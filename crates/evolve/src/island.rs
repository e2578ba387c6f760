//! The generation loop of every GA run, and the island model built on
//! it: process-parallel evolution with crash-safe migration (the paper's
//! 200-CPU cluster shape on one box).
//!
//! `evolve` is the one loop. A [`crate::Ga`] run is its one-island,
//! no-migration case on the full-only ladder; [`run_island`] runs one
//! island of a ring. The population is sharded across `islands`
//! independent workers, each running this loop over a distinct RNG
//! stream. Every [`IslandConfig::migration_every`] generations (an
//! *epoch*), each island publishes its top [`IslandConfig::migrants`]
//! full-fidelity elites to a **mailbox** file — written through
//! `sim_core::persist::atomic_write`, CRC-framed, fingerprinted by (run
//! config, sender, epoch) — and, at the start of the next epoch, injects
//! the previous epoch's migrants from its ring predecessor. Mailboxes are
//! never deleted during a run and readers poll until a valid file
//! appears, so islands need no rendezvous: a fast island runs ahead, a
//! crashed one resumes from its checkpoint and re-publishes byte-identical
//! mailboxes.
//!
//! Determinism: every decision (promotion ranks, migrant choice, tie
//! breaks) is a pure function of checkpointed state, so a run killed at
//! *any* point — including mid-mailbox-write, the harshest case — resumes
//! bit-identically (see `harness/tests/islands.rs` for the process-level
//! proof under `sim-fault`).
//!
//! Fitness is evaluated through the multi-fidelity [`crate::ladder`]: the
//! run's best genome and per-generation history are always tracked at
//! **full** fidelity, so cheap-tier estimates steer selection but never
//! appear in reported results.

use crate::checkpoint::{self, Checkpointing, Loaded, Snapshot};
use crate::fitness::{FitnessContext, Substrate};
use crate::ga::{GaConfig, GaResult, Genome};
use crate::ladder::{self, Fidelity, LadderConfig, LadderStats};
use gippr::Ipv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fitness-memo size bound: above this the memo is pruned to the current
/// population's keys, at every fidelity tag. Pruning changes which genomes
/// are *recomputed*, never a (deterministic) memoized value, so a run on
/// the full-only ladder — every [`crate::Ga`] run — returns the same
/// result. On a laddered run a re-bred genome whose full score was pruned
/// climbs the ladder again; no island preset's memo reaches the cap.
const MEMO_CAP: usize = 1 << 17;

/// Configuration of one island-model run, shared verbatim by the parent
/// driver and every worker process (the fingerprint pins it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslandConfig {
    /// Worker islands in the migration ring.
    pub islands: usize,
    /// Generations per epoch: elites migrate at every epoch boundary.
    pub migration_every: usize,
    /// Elites exchanged per migration.
    pub migrants: usize,
    /// How long a reader waits for a neighbor's mailbox before giving up
    /// (the worker exits with an error and the parent retries it).
    pub mailbox_timeout: Duration,
    /// Per-island GA parameters. `seed` is the *run* seed; each island
    /// derives its own stream with [`IslandConfig::island_ga`].
    pub ga: GaConfig,
    /// Fitness-ladder promotion thresholds.
    pub ladder: LadderConfig,
}

impl IslandConfig {
    /// The GA configuration of island `island`: the shared parameters
    /// with a per-island decorrelated seed.
    pub fn island_ga(&self, island: usize) -> GaConfig {
        GaConfig {
            seed: self
                .ga
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(island as u64 + 1)),
            ..self.ga
        }
    }

    /// Run-level fingerprint over every parameter that shapes the search:
    /// checkpoints and mailboxes from a different topology, ladder, or GA
    /// configuration are never resumed or read.
    pub fn fingerprint(&self) -> u64 {
        checkpoint::fnv1a(&[
            &(self.islands as u64).to_le_bytes(),
            &(self.migration_every as u64).to_le_bytes(),
            &(self.migrants as u64).to_le_bytes(),
            &self.ladder.sampled_frac.to_le_bytes(),
            &self.ladder.full_frac.to_le_bytes(),
            &(self.ladder.min_full as u64).to_le_bytes(),
            &checkpoint::ga_bytes(&self.ga),
        ])
    }

    /// The mailbox file name island `island` writes at the end of `epoch`.
    pub fn mailbox_name(island: usize, epoch: usize) -> String {
        format!("mbx-island-{island}-epoch-{epoch}.mbx")
    }

    /// The fingerprint sealing one mailbox: run config + sender + epoch.
    pub fn mailbox_fingerprint(&self, island: usize, epoch: usize) -> u64 {
        self.fingerprint()
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(((island as u64) << 32) | epoch as u64)
    }

    /// The island `island` reads migrants from (its ring predecessor).
    pub fn neighbor(&self, island: usize) -> usize {
        (island + self.islands - 1) % self.islands
    }
}

/// One completed GA run.
#[derive(Debug, Clone)]
pub struct IslandOutcome<G> {
    /// The GA result. `history[g]` is the best **full-fidelity** fitness
    /// known after generation `g` (monotone nondecreasing).
    pub result: GaResult<G>,
    /// Ladder evaluation accounting, cumulative across resumes.
    pub stats: LadderStats,
    /// Wall-clock per generation executed *in this process* (empty on a
    /// short-circuited resume; never checkpointed — timing is reporting,
    /// not state).
    pub gen_wall_ms: Vec<u64>,
}

/// Waits for a valid mailbox at `path`. A missing, partial, or corrupt
/// file just means "not published yet" — atomic writes make a valid file
/// appear in one rename.
fn await_mailbox(path: &Path, fp: u64, timeout: Duration) -> std::io::Result<Vec<(Vec<u8>, f64)>> {
    let start = Instant::now();
    loop {
        if let Some(migrants) = checkpoint::load_mailbox(path, fp) {
            return Ok(migrants);
        }
        if start.elapsed() > timeout {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("no valid mailbox at {} after {timeout:?}", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// What one run of [`evolve`] searches, and where it persists.
pub(crate) struct Run<'a, G> {
    /// The run's final GA parameters (an island's seed already derived).
    pub ga: GaConfig,
    /// Promotion thresholds; [`LadderConfig::full_only`] for a plain GA.
    pub ladder: LadderConfig,
    /// Known-good genomes placed first in the initial population.
    pub seeds: Vec<G>,
    /// The checkpoint file and the fingerprint sealing it.
    pub station: Option<(PathBuf, u64)>,
    /// The migration ring this run is one island of.
    pub ring: Option<Ring<'a>>,
}

/// An island's place in its migration ring.
pub(crate) struct Ring<'a> {
    pub cfg: &'a IslandConfig,
    pub island: usize,
    pub mailbox_dir: &'a Path,
}

/// The generation loop of every GA run, generic over the genome and the
/// three ladder-tier evaluators.
///
/// The initial population is `run.seeds` truncated to
/// `initial_population`, then filled with `sample`. Each generation
/// scores the population through [`ladder::evaluate`], tracks the best
/// full-fidelity genome, and breeds the next population by elitism plus
/// tournament selection, crossover and mutation. With `run.station`
/// set, the loop state is snapshotted at the top of every generation and
/// an existing snapshot or final marker for the same fingerprint is
/// resumed **bit-identically**.
///
/// # Errors
///
/// Fails only inside a ring, if a mailbox read times out or a mailbox
/// write fails; checkpoint write failures only degrade crash protection
/// (with a warning).
pub(crate) fn evolve<G, FP, FS, FF, S>(
    ctx: &FitnessContext,
    run: Run<'_, G>,
    profile_score: FP,
    sampled_fitness: FS,
    full_fitness: FF,
    sample: S,
) -> std::io::Result<IslandOutcome<G>>
where
    G: Genome,
    FP: Fn(&FitnessContext, &G) -> f64 + Sync,
    FS: Fn(&FitnessContext, &G) -> f64 + Sync,
    FF: Fn(&FitnessContext, &G) -> f64 + Sync,
    S: Fn(usize, &mut StdRng) -> G,
{
    let Run {
        ga,
        ladder: mut lcfg,
        seeds,
        station,
        ring,
    } = run;
    // Every generation must produce at least one full-fidelity score (the
    // run's best and its migrants are full-fidelity by contract).
    lcfg.min_full = lcfg.min_full.max(ga.elitism).max(1);
    let assoc = ctx.geometry().ways();
    let generations = ga.generations.max(1);

    let mut rng = StdRng::seed_from_u64(ga.seed);
    let mut population: Vec<G> = seeds;
    population.truncate(ga.initial_population);
    while population.len() < ga.initial_population.max(2) {
        population.push(sample(assoc, &mut rng));
    }
    let mut history: Vec<f64> = Vec::with_capacity(generations);
    // Fidelity-tagged fitness memo: elites (and any re-discovered genome)
    // skip their replays on later generations, and a resumed run inherits
    // the interrupted run's evaluations.
    let mut memo: HashMap<Vec<u8>, f64> = HashMap::new();
    let mut stats = LadderStats::default();
    let mut best: Option<(G, f64)> = None;
    let mut start_gen = 0;
    if let Some((path, fp)) = &station {
        match checkpoint::load::<G>(path, *fp, assoc) {
            Loaded::Final(result, stats) => {
                return Ok(IslandOutcome {
                    result,
                    stats,
                    gen_wall_ms: Vec::new(),
                })
            }
            Loaded::State(state) => {
                start_gen = state.generation.min(generations - 1);
                rng = state.rng;
                history = state.history;
                population = state.population;
                memo = state.memo;
                best = state.best;
                stats = state.stats;
            }
            Loaded::None => {}
        }
    }

    let ring = ring.filter(|r| r.cfg.islands > 1);
    let migration_every = ring.as_ref().map_or(1, |r| r.cfg.migration_every.max(1));
    let mut gen_wall_ms = Vec::new();
    for gen in start_gen..generations {
        let tick = Instant::now();
        if let Some((path, fp)) = station.as_ref().filter(|_| gen != 0) {
            let snapshot = Snapshot {
                generation: gen,
                rng: rng.clone(),
                history: history.clone(),
                population: population.clone(),
                memo: memo.clone(),
                best: best.clone(),
                stats,
            };
            if let Err(e) = checkpoint::save_snapshot(path, *fp, &snapshot) {
                eprintln!(
                    "evolve: failed to write checkpoint {}: {e} (continuing unprotected)",
                    path.display()
                );
            }
        }

        // Epoch start: inject the ring predecessor's previous-epoch
        // elites over this island's weakest slots (the population tail is
        // freshly bred offspring; elites live at the front).
        if let Some(r) = ring
            .as_ref()
            .filter(|_| gen != 0 && gen % migration_every == 0)
        {
            let epoch = gen / migration_every - 1;
            let neighbor = r.cfg.neighbor(r.island);
            let mbx = r
                .mailbox_dir
                .join(IslandConfig::mailbox_name(neighbor, epoch));
            let migrants = await_mailbox(
                &mbx,
                r.cfg.mailbox_fingerprint(neighbor, epoch),
                r.cfg.mailbox_timeout,
            )?;
            let keep = ga.elitism.min(population.len());
            let mut slot = population.len();
            for (enc, _fitness) in &migrants {
                if slot <= keep {
                    break;
                }
                if let Some(g) = G::decode(enc, assoc) {
                    slot -= 1;
                    population[slot] = g;
                }
            }
        }

        let out = ladder::evaluate(
            ctx,
            &lcfg,
            &population,
            &mut memo,
            &mut stats,
            &profile_score,
            &sampled_fitness,
            &full_fitness,
        );
        if memo.len() > MEMO_CAP {
            let keep: HashSet<Vec<u8>> = population.iter().map(Genome::encode).collect();
            memo.retain(|key, _| keep.contains(&key[1..]));
        }
        // Track the best at full fidelity only; cheap-tier estimates
        // steer selection but never become "the best genome".
        for (i, (&score, &tier)) in out.scores.iter().zip(&out.tiers).enumerate() {
            if tier == Fidelity::Full
                && score.is_finite()
                && best.as_ref().map_or(true, |(_, b)| score > *b)
            {
                best = Some((population[i].clone(), score));
            }
        }
        history.push(best.as_ref().map_or(f64::NEG_INFINITY, |(_, f)| *f));

        let mut scored: Vec<(G, f64)> = population
            .iter()
            .cloned()
            .zip(out.scores.iter().copied())
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        // Epoch end: publish this island's migrants — the best-known
        // genome plus the top full-fidelity genomes of this generation.
        if let Some(r) = ring.as_ref().filter(|_| (gen + 1) % migration_every == 0) {
            let epoch = gen / migration_every;
            let mut migrants: Vec<(Vec<u8>, f64)> = Vec::with_capacity(r.cfg.migrants);
            if let Some((g, f)) = &best {
                migrants.push((g.encode(), *f));
            }
            let mut full: Vec<(Vec<u8>, f64)> = population
                .iter()
                .zip(&out.tiers)
                .enumerate()
                .filter(|(_, (_, &tier))| tier == Fidelity::Full)
                .map(|(i, (g, _))| (g.encode(), out.scores[i]))
                .collect();
            full.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            for (enc, f) in full {
                if migrants.len() >= r.cfg.migrants.max(1) {
                    break;
                }
                if f.is_finite() && !migrants.iter().any(|(e, _)| *e == enc) {
                    migrants.push((enc, f));
                }
            }
            let mbx = r
                .mailbox_dir
                .join(IslandConfig::mailbox_name(r.island, epoch));
            checkpoint::save_mailbox(&mbx, r.cfg.mailbox_fingerprint(r.island, epoch), &migrants)?;
        }

        let next_size = ga.population.max(2);
        let mut next: Vec<G> = scored
            .iter()
            .take(ga.elitism.min(scored.len()))
            .map(|(g, _)| g.clone())
            .collect();
        while next.len() < next_size {
            let a = tournament_pick(&scored, ga.tournament, &mut rng);
            let b = tournament_pick(&scored, ga.tournament, &mut rng);
            let mut child = a.crossover(b, &mut rng);
            child.mutate(ga.mutation_rate, &mut rng);
            next.push(child);
        }
        population = next;
        gen_wall_ms.push(tick.elapsed().as_millis() as u64);
    }

    let (best_genome, best_fitness) =
        best.expect("no genome of any generation had a finite full-fidelity fitness");
    let result = GaResult {
        best: best_genome,
        best_fitness,
        history,
    };
    if let Some((path, fp)) = &station {
        if let Err(e) = checkpoint::save_result(path, *fp, &result, &stats) {
            eprintln!(
                "evolve: failed to write final checkpoint {}: {e}",
                path.display()
            );
        }
    }
    Ok(IslandOutcome {
        result,
        stats,
        gen_wall_ms,
    })
}

fn tournament_pick<'a, G, R: Rng>(scored: &'a [(G, f64)], size: usize, rng: &mut R) -> &'a G {
    let mut best: &(G, f64) = &scored[rng.gen_range(0..scored.len())];
    for _ in 1..size.max(1) {
        let c = &scored[rng.gen_range(0..scored.len())];
        if c.1 > best.1 {
            best = c;
        }
    }
    &best.0
}

/// Runs island `island` of `cfg` to completion (or resumes it), generic
/// over the genome and the three ladder-tier evaluators.
///
/// # Errors
///
/// Fails if a mailbox read times out or a mailbox write fails; checkpoint
/// write failures only degrade crash protection (with a warning), matching
/// [`crate::Ga`].
///
/// # Panics
///
/// Panics if `cfg.islands == 0` or `island >= cfg.islands`.
// One parameter per ladder tier plus the sampler: a builder would only
// obscure which evaluator feeds which tier.
#[allow(clippy::too_many_arguments)]
pub fn run_island<G, FP, FS, FF, S>(
    ctx: &FitnessContext,
    cfg: &IslandConfig,
    island: usize,
    ckpt: &Checkpointing,
    mailbox_dir: &Path,
    profile_score: FP,
    sampled_fitness: FS,
    full_fitness: FF,
    sample: S,
) -> std::io::Result<IslandOutcome<G>>
where
    G: Genome,
    FP: Fn(&FitnessContext, &G) -> f64 + Sync,
    FS: Fn(&FitnessContext, &G) -> f64 + Sync,
    FF: Fn(&FitnessContext, &G) -> f64 + Sync,
    S: Fn(usize, &mut StdRng) -> G,
{
    assert!(cfg.islands > 0, "at least one island");
    assert!(island < cfg.islands, "island {island} of {}", cfg.islands);
    let ga = cfg.island_ga(island);
    let label = format!("island-{island}");
    let fp = checkpoint::fingerprint(&ga, &format!("{label}-{:016x}", cfg.fingerprint()));
    let run = Run {
        ga,
        ladder: cfg.ladder,
        seeds: Vec::new(),
        station: Some((ckpt.stage_path(&label), fp)),
        ring: Some(Ring {
            cfg,
            island,
            mailbox_dir,
        }),
    };
    evolve(
        ctx,
        run,
        profile_score,
        sampled_fitness,
        full_fitness,
        sample,
    )
}

/// [`run_island`] wired to single-IPV fitness on `substrate` through the
/// real ladder tiers: `sim-lint` viability → profile score → set-sampled
/// replay → full replay.
pub fn run_ipv_island(
    ctx: &FitnessContext,
    cfg: &IslandConfig,
    island: usize,
    ckpt: &Checkpointing,
    mailbox_dir: &Path,
    substrate: Substrate,
) -> std::io::Result<IslandOutcome<Ipv>> {
    run_island(
        ctx,
        cfg,
        island,
        ckpt,
        mailbox_dir,
        |c, g: &Ipv| c.profile_score_single(g),
        move |c, g: &Ipv| c.fitness_single_sampled(g, substrate),
        move |c, g: &Ipv| c.fitness_single(g, substrate),
        Ipv::sample,
    )
}

/// The default directory (under an output root) holding migration
/// mailboxes.
pub fn mailbox_dir(out: &Path) -> PathBuf {
    out.join("mailboxes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessScale;
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

    fn tiny_cfg(islands: usize, seed: u64) -> IslandConfig {
        IslandConfig {
            islands,
            migration_every: 2,
            migrants: 2,
            mailbox_timeout: Duration::from_secs(30),
            ga: GaConfig {
                initial_population: 12,
                population: 8,
                generations: 5,
                mutation_rate: 0.2,
                elitism: 2,
                tournament: 2,
                seed,
            },
            ladder: LadderConfig {
                sampled_frac: 0.5,
                full_frac: 0.25,
                min_full: 2,
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("isl-{name}-{}", std::process::id()))
    }

    /// Synthetic deterministic tier evaluators: the sampled tier is a
    /// noisy-but-correlated version of full, as in the real ladder.
    fn synth_profile(_c: &FitnessContext, g: &Ipv) -> f64 {
        g.entries().iter().filter(|&&e| e > 0).count() as f64
    }
    fn synth_sampled(_c: &FitnessContext, g: &Ipv) -> f64 {
        synth_full(_c, g) + (g.entries()[0] as f64) / 16.0
    }
    fn synth_full(_c: &FitnessContext, g: &Ipv) -> f64 {
        g.insertion() as f64 - g.entries().iter().map(|&e| e as f64).sum::<f64>() / 64.0
    }

    fn run_ring(cfg: &IslandConfig, dir: &Path) -> Vec<IslandOutcome<Ipv>> {
        let ckpt = Checkpointing::in_dir(dir.join("checkpoints"));
        let mbx = dir.join("mailboxes");
        let ctx = ctx();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.islands)
                .map(|i| {
                    let ckpt = ckpt.clone();
                    let mbx = mbx.clone();
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        run_island(
                            &ctx,
                            cfg,
                            i,
                            &ckpt,
                            &mbx,
                            synth_profile,
                            synth_sampled,
                            synth_full,
                            Ipv::sample,
                        )
                        .expect("island completes")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        })
    }

    #[test]
    fn ring_runs_are_deterministic_and_history_is_monotone_full_fidelity() {
        let (da, db) = (tmp("det-a"), tmp("det-b"));
        for d in [&da, &db] {
            let _ = std::fs::remove_dir_all(d);
        }
        let cfg = tiny_cfg(3, 0xAB);
        let a = run_ring(&cfg, &da);
        let b = run_ring(&cfg, &db);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.best, y.result.best);
            assert_eq!(
                x.result.best_fitness.to_bits(),
                y.result.best_fitness.to_bits()
            );
            assert_eq!(x.result.history, y.result.history);
            assert_eq!(x.stats, y.stats);
            for w in x.result.history.windows(2) {
                assert!(w[1] >= w[0], "full-fidelity history is monotone");
            }
            // The reported best is the full evaluator's value for that
            // genome — never a cheap-tier estimate.
            assert_eq!(
                x.result.best_fitness,
                synth_full(&ctx(), &x.result.best),
                "best fitness must be full fidelity"
            );
        }
        assert!(
            a.iter().any(|o| o.stats.full_saved > 0),
            "the ladder must actually save full replays"
        );
        for d in [&da, &db] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn migration_spreads_a_seeded_elite_through_the_ring() {
        // Plant a strong genome via one island's RNG stream and verify the
        // ring's *other* islands end at least as fit as isolation would
        // leave them: migration can only add candidates (elites are kept).
        let (iso_dir, ring_dir) = (tmp("iso"), tmp("ring"));
        for d in [&iso_dir, &ring_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        let ring_cfg = tiny_cfg(2, 0x51);
        let iso_cfg = IslandConfig {
            islands: 1,
            ..ring_cfg
        };
        // Isolation baseline for island 0 (same per-island seed derivation
        // would differ; compare against the ring run's own history).
        let ring = run_ring(&ring_cfg, &ring_dir);
        let iso = {
            let ckpt = Checkpointing::in_dir(iso_dir.join("checkpoints"));
            let c = ctx();
            run_island(
                &c,
                &iso_cfg,
                0,
                &ckpt,
                &iso_dir.join("mailboxes"),
                synth_profile,
                synth_sampled,
                synth_full,
                Ipv::sample,
            )
            .unwrap()
        };
        // Sanity rather than strict dominance (different seeds): both
        // complete, and the ring exchanged real mailboxes.
        assert_eq!(ring.len(), 2);
        assert!(iso.result.best_fitness.is_finite());
        let mbx0 = ring_dir
            .join("mailboxes")
            .join(IslandConfig::mailbox_name(0, 0));
        assert!(mbx0.exists(), "epoch-0 mailbox published");
        for d in [&iso_dir, &ring_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// The island-level differential: crash one island mid-run (after its
    /// epoch-0 mailbox write), resume it, and the final outcome must be
    /// bit-identical to an uninterrupted ring.
    #[test]
    fn island_crash_resume_is_bit_identical() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (ref_dir, crash_dir) = (tmp("cr-ref"), tmp("cr-out"));
        for d in [&ref_dir, &crash_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        let cfg = tiny_cfg(2, 0xF00D);
        let reference = run_ring(&cfg, &ref_dir);

        // Crashed run: island 1's full evaluator dies partway through a
        // mid-run generation; island 0 completes using island 1's already
        // published epoch-0 mailbox.
        let ckpt = Checkpointing::in_dir(crash_dir.join("checkpoints"));
        let mbx = crash_dir.join("mailboxes");
        let c = ctx();
        let island0 = {
            let (ckpt, mbx, c) = (ckpt.clone(), mbx.clone(), c.clone());
            std::thread::spawn(move || {
                run_island(
                    &c,
                    &cfg,
                    0,
                    &ckpt,
                    &mbx,
                    synth_profile,
                    synth_sampled,
                    synth_full,
                    Ipv::sample,
                )
                .expect("island 0 completes")
            })
        };
        // Crash on the first full evaluation *after* island 1 has
        // published its epoch-0 mailbox — i.e. partway through a later
        // generation, mid-migration from the ring's point of view.
        let own_epoch0 = mbx.join(IslandConfig::mailbox_name(1, 0));
        let armed = AtomicUsize::new(0);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            run_island(
                &c,
                &cfg,
                1,
                &ckpt,
                &mbx,
                synth_profile,
                synth_sampled,
                |cx: &FitnessContext, g: &Ipv| {
                    if own_epoch0.exists() && armed.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("injected island crash");
                    }
                    synth_full(cx, g)
                },
                Ipv::sample,
            )
        }));
        assert!(crashed.is_err(), "island 1 must actually crash");
        // Resume island 1 with the healthy evaluator.
        let resumed = run_island(
            &c,
            &cfg,
            1,
            &ckpt,
            &mbx,
            synth_profile,
            synth_sampled,
            synth_full,
            Ipv::sample,
        )
        .expect("resume completes");
        let island0 = island0.join().expect("island 0 thread");

        assert_eq!(island0.result.best, reference[0].result.best);
        assert_eq!(island0.result.history, reference[0].result.history);
        assert_eq!(resumed.result.best, reference[1].result.best);
        assert_eq!(
            resumed.result.best_fitness.to_bits(),
            reference[1].result.best_fitness.to_bits()
        );
        assert_eq!(resumed.result.history, reference[1].result.history);
        assert_eq!(resumed.stats, reference[1].stats);

        // A re-run short-circuits on the final marker without evaluating.
        let replayed = run_island(
            &c,
            &cfg,
            1,
            &ckpt,
            &mbx,
            |_c: &FitnessContext, _g: &Ipv| panic!("finished island must not re-evaluate"),
            |_c, _g| panic!("finished island must not re-evaluate"),
            |_c, _g| panic!("finished island must not re-evaluate"),
            Ipv::sample,
        )
        .unwrap();
        assert_eq!(replayed.result.best, reference[1].result.best);
        assert_eq!(replayed.stats, reference[1].stats);
        for d in [&ref_dir, &crash_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn real_ladder_island_runs_end_to_end() {
        // One tiny island through the *real* tiers (profile, set-sampled,
        // full replay) — the integration smoke for run_ipv_island.
        let dir = tmp("real");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IslandConfig {
            islands: 1,
            migration_every: 2,
            migrants: 1,
            mailbox_timeout: Duration::from_secs(5),
            ga: GaConfig {
                initial_population: 8,
                population: 6,
                generations: 2,
                mutation_rate: 0.1,
                elitism: 2,
                tournament: 2,
                seed: 3,
            },
            ladder: LadderConfig::balanced(),
        };
        let c = ctx();
        let ckpt = Checkpointing::in_dir(dir.join("checkpoints"));
        let out = run_ipv_island(&c, &cfg, 0, &ckpt, &dir.join("mailboxes"), Substrate::Plru)
            .expect("island completes");
        assert!(out.result.best_fitness.is_finite());
        // The reported fitness is the exact full-replay fitness.
        assert_eq!(
            out.result.best_fitness,
            c.fitness_single(&out.result.best, Substrate::Plru)
        );
        assert!(out.stats.full_evals > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
