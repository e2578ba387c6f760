//! Golden results of the genetic algorithm's entry points.
//!
//! Each case runs one [`Ga`] entry point, or one two-island ring, on a
//! small real fitness context. It compares the encoded best genome, the
//! bits of its fitness and the bits of the per-generation history with
//! values recorded before the GA loop was refactored, so a rewrite of
//! the generation loop that moves a single random draw, evaluation or
//! selection fails here.
//!
//! The single, set and two-stage cases also run a second time with a
//! panic injected into the fitness closure partway through the run. The
//! run is then resumed from the checkpoint the crash left behind, and the
//! resumed result must match the same golden.

use evolve::island::{mailbox_dir, run_ipv_island};
use evolve::{
    Checkpointing, FitnessContext, FitnessScale, Ga, GaConfig, GaResult, Genome, IslandConfig,
    LadderConfig, Substrate, VectorSet,
};
use gippr::Ipv;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;
use traces::spec2006::Spec2006;

/// One recorded result: hex of [`Genome::encode`], the fitness bits and
/// the history bits.
struct Golden {
    best: &'static str,
    fitness: u64,
    history: &'static [u64],
}

const SINGLE: Golden = Golden {
    best: "0c0d0a070c060e0706030e0e000e0e0f0b",
    fitness: 0x3ff592667428e789,
    history: &[
        0x3ff55b9458096b6b,
        0x3ff55b9458096b6b,
        0x3ff574f13d48c0b7,
        0x3ff574f13d48c0b7,
        0x3ff592667428e789,
    ],
};

const SET2: Golden = Golden {
    best: "02080002080c04060300080a08040c0e030f0c030a0a0f050d0005070e040009080d04",
    fitness: 0x3ff71e9d68498b51,
    history: &[
        0x3ff65d8e7f42f986,
        0x3ff6f19f2e7c6080,
        0x3ff71e9d68498b51,
        0x3ff71e9d68498b51,
        0x3ff71e9d68498b51,
    ],
};

const SET4: Golden = Golden {
    best: "040e0506010a0608080f08080e0c040c0908040c02080a000608000808000d0a0c060b0000020104040605080a020a020003080f090f0e06010303030309070d030c010d0e",
    fitness: 0x3ff6389db61b23d3,
    history: &[
        0x3ff5ffb5d3f015c1,
        0x3ff5ffb5d3f015c1,
        0x3ff61dbd0ab3ae03,
        0x3ff630758ec432cb,
        0x3ff6389db61b23d3,
    ],
};

const TWO_STAGE: Golden = Golden {
    best: "00000e070e01000204090f020d0e02010f",
    fitness: 0x3ff6bd5d01b0ca90,
    history: &[0x3ff6bd5d01b0ca90, 0x3ff6bd5d01b0ca90, 0x3ff6bd5d01b0ca90],
};

/// Per island of the ring: the result and the ladder counts (profile,
/// sampled, full, pruned, full saved).
const RING: [(Golden, [u64; 5]); 2] = [
    (
        Golden {
            best: "00000c030d060a060103050b02060a0d07",
            fitness: 0x3ff626f06fe5e700,
            history: &[
                0x3ff5a3b9f0f01ca8,
                0x3ff5a3b9f0f01ca8,
                0x3ff617b9bb8690e3,
                0x3ff617b9bb8690e3,
                0x3ff626f06fe5e700,
            ],
        },
        [29, 16, 11, 1, 18],
    ),
    (
        Golden {
            best: "00020b0f08060c0a030007020106090a0f",
            fitness: 0x3ff631dcbe37ba9d,
            history: &[
                0x3ff617b9bb8690e3,
                0x3ff617b9bb8690e3,
                0x3ff617b9bb8690e3,
                0x3ff617b9bb8690e3,
                0x3ff631dcbe37ba9d,
            ],
        },
        [29, 15, 11, 1, 18],
    ),
];

fn ctx() -> &'static FitnessContext {
    static CTX: OnceLock<FitnessContext> = OnceLock::new();
    CTX.get_or_init(|| {
        FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum, Spec2006::CactusADM],
            1,
            15_000,
            FitnessScale {
                shift: 6,
                threads: 2,
            },
        )
    })
}

fn config(elitism: usize, seed: u64) -> GaConfig {
    GaConfig {
        initial_population: 14,
        population: 10,
        generations: 5,
        mutation_rate: 0.2,
        elitism,
        tournament: 2,
        seed,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn check<G: Genome>(case: &str, got: &GaResult<G>, want: &Golden) {
    let history: Vec<u64> = got.history.iter().map(|h| h.to_bits()).collect();
    assert_eq!(hex(&got.best.encode()), want.best, "{case}: best genome");
    assert_eq!(
        got.best_fitness.to_bits(),
        want.fitness,
        "{case}: fitness bits"
    );
    assert_eq!(history, want.history, "{case}: history bits");
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ga-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `run` with a fitness wrapper that panics on its `at`-th call and
/// asserts that the panic happened after generation 0, so the resume
/// starts from a mid-run snapshot.
fn crash<G, E>(
    initial_population: usize,
    at: usize,
    eval: E,
    run: impl FnOnce(&(dyn Fn(&FitnessContext, &G) -> f64 + Sync)),
) where
    E: Fn(&FitnessContext, &G) -> f64 + Sync,
{
    let calls = AtomicUsize::new(0);
    let failing = |c: &FitnessContext, g: &G| {
        if calls.fetch_add(1, Ordering::SeqCst) == at {
            panic!("injected crash mid-run");
        }
        eval(c, g)
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| run(&failing)));
    assert!(crashed.is_err(), "the interrupted run must actually crash");
    assert!(
        calls.load(Ordering::SeqCst) > initial_population,
        "the crash must land after generation 0"
    );
}

fn single_fitness(c: &FitnessContext, g: &Ipv) -> f64 {
    c.fitness_single(g, Substrate::Plru)
}

fn set_fitness(c: &FitnessContext, g: &VectorSet) -> f64 {
    c.fitness_set(g.vectors())
}

#[test]
fn single_ipv_run_matches_golden() {
    let cfg = config(1, 0x5EED_0001);
    check(
        "single",
        &Ga::new(cfg).run_single(ctx(), Substrate::Plru, None),
        &SINGLE,
    );

    let dir = scratch("single");
    let ckpt = Checkpointing::in_dir(&dir);
    crash(
        cfg.initial_population,
        cfg.initial_population + 4,
        single_fitness,
        |eval| {
            Ga::new(cfg).run_seeded(
                ctx(),
                Vec::new(),
                eval,
                Ipv::sample,
                Some((&ckpt, "single")),
            );
        },
    );
    let resumed = Ga::new(cfg).run_single(ctx(), Substrate::Plru, Some((&ckpt, "single")));
    check("single resumed", &resumed, &SINGLE);
    let _ = std::fs::remove_dir_all(&dir);
}

fn set_case(n: usize, cfg: GaConfig, seed_set: Vec<Ipv>, want: &Golden) {
    let case = format!("set{n}");
    let seeds = vec![VectorSet::new(seed_set)];
    check(
        &case,
        &Ga::new(cfg).run_set(ctx(), n, seeds.clone(), None),
        want,
    );

    let dir = scratch(&case);
    let ckpt = Checkpointing::in_dir(&dir);
    crash(
        cfg.initial_population,
        cfg.initial_population + 4,
        set_fitness,
        |eval| {
            Ga::new(cfg).run_seeded(
                ctx(),
                seeds.clone(),
                eval,
                |assoc, rng| VectorSet::sample_n(n, assoc, rng),
                Some((&ckpt, case.as_str())),
            );
        },
    );
    let resumed = Ga::new(cfg).run_set(ctx(), n, seeds, Some((&ckpt, case.as_str())));
    check(&format!("{case} resumed"), &resumed, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_vector_set_run_matches_golden() {
    set_case(
        2,
        config(2, 0x5EED_0002),
        gippr::vectors::wi_2dgippr().to_vec(),
        &SET2,
    );
}

#[test]
fn four_vector_set_run_matches_golden() {
    set_case(
        4,
        config(3, 0x5EED_0004),
        gippr::vectors::wi_4dgippr().to_vec(),
        &SET4,
    );
}

/// The crash lands in the seeded final stage: the stage-one runs finish
/// first under the labels the two-stage run gives them, so the resume
/// also short-circuits every stage-one run off its final marker.
#[test]
fn two_stage_run_matches_golden() {
    let cfg = GaConfig {
        generations: 3,
        ..config(2, 0x5EED_0005)
    };
    let runs = 3;
    check(
        "two-stage",
        &Ga::new(cfg).run_two_stage_single(ctx(), Substrate::Plru, runs, None),
        &TWO_STAGE,
    );

    let dir = scratch("two-stage");
    let ckpt = Checkpointing::in_dir(&dir);
    let winners: Vec<Ipv> = (0..runs)
        .map(|i| {
            let stage = GaConfig {
                seed: cfg.seed.wrapping_add(1 + i as u64),
                ..cfg
            };
            let label = format!("two-s1-{i}");
            Ga::new(stage)
                .run_single(ctx(), Substrate::Plru, Some((&ckpt, label.as_str())))
                .best
        })
        .collect();
    crash(
        cfg.initial_population,
        cfg.initial_population + 4,
        single_fitness,
        |eval| {
            Ga::new(cfg).run_seeded(
                ctx(),
                winners,
                eval,
                Ipv::sample,
                Some((&ckpt, "two-final")),
            );
        },
    );
    let resumed =
        Ga::new(cfg).run_two_stage_single(ctx(), Substrate::Plru, runs, Some((&ckpt, "two")));
    check("two-stage resumed", &resumed, &TWO_STAGE);
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_ring(cfg: &IslandConfig, dir: &Path) -> Vec<evolve::IslandOutcome<Ipv>> {
    let ckpt = Checkpointing::in_dir(dir.join("checkpoints"));
    let mbx = mailbox_dir(dir);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.islands)
            .map(|i| {
                let (ckpt, mbx) = (&ckpt, &mbx);
                s.spawn(move || {
                    run_ipv_island(ctx(), cfg, i, ckpt, mbx, Substrate::Plru)
                        .expect("island completes")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("island thread"))
            .collect()
    })
}

#[test]
fn two_island_ring_matches_golden() {
    let cfg = IslandConfig {
        islands: 2,
        migration_every: 2,
        migrants: 2,
        mailbox_timeout: Duration::from_secs(120),
        ga: GaConfig {
            initial_population: 12,
            population: 8,
            ..config(2, 0x5EED_0006)
        },
        ladder: LadderConfig {
            sampled_frac: 0.5,
            full_frac: 0.25,
            min_full: 2,
        },
    };
    let dir = scratch("ring");
    let outcomes = run_ring(&cfg, &dir);
    for (i, (outcome, (want, want_stats))) in outcomes.iter().zip(&RING).enumerate() {
        check(&format!("ring island {i}"), &outcome.result, want);
        let s = outcome.stats;
        let stats = [
            s.profile_evals,
            s.sampled_evals,
            s.full_evals,
            s.pruned,
            s.full_saved,
        ];
        assert_eq!(&stats, want_stats, "ring island {i}: ladder counts");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
