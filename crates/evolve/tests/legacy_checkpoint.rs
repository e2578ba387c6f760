//! Checkpoints in the retired single-fidelity shape restart their stage.
//!
//! `PLRUGAC1` statuses 0 (in-progress state) and 1 (final result) were
//! written by the GA loop that `Ga` had before it became a case of the
//! island loop. The fixtures are two such files, written by that loop for
//! the run below under the stage label `legacy`: status 0 after a crash
//! in generation 1, status 1 at the end of the run. Both carry a valid
//! CRC and the run's fingerprint, so only their status tells them apart.
//! Each must take the "ignoring unusable checkpoint" path: the stage is
//! recomputed from scratch and returns the uninterrupted run's result.

use evolve::{
    Checkpointing, FitnessContext, FitnessScale, Ga, GaConfig, GaResult, Genome, Substrate,
};
use gippr::Ipv;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use traces::spec2006::Spec2006;

const LABEL: &str = "legacy";

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

fn config() -> GaConfig {
    GaConfig {
        initial_population: 14,
        population: 10,
        generations: 5,
        mutation_rate: 0.2,
        elitism: 1,
        tournament: 2,
        seed: 0x5EED_0001,
    }
}

/// Runs the stage, returning its result and the fitness evaluations it
/// spent.
fn run(ctx: &FitnessContext, ckpt: Option<&Checkpointing>) -> (GaResult<Ipv>, usize) {
    let evals = AtomicUsize::new(0);
    let result = Ga::new(config()).run_seeded(
        ctx,
        Vec::new(),
        |c: &FitnessContext, g: &Ipv| {
            evals.fetch_add(1, Ordering::SeqCst);
            c.fitness_single(g, Substrate::Plru)
        },
        Ipv::sample,
        ckpt.map(|c| (c, LABEL)),
    );
    (result, evals.into_inner())
}

#[test]
fn old_status_checkpoints_restart_the_stage() {
    let ctx = ctx();
    let (reference, reference_evals) = run(&ctx, None);
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for name in ["legacy-status0.ckpt", "legacy-status1.ckpt"] {
        let dir = std::env::temp_dir().join(format!("ga-legacy-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = Checkpointing::in_dir(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixtures.join(name), ckpt.stage_path(LABEL)).unwrap();

        let (restarted, evals) = run(&ctx, Some(&ckpt));
        assert_eq!(restarted.best, reference.best, "{name}: best genome");
        assert_eq!(
            restarted.best_fitness.to_bits(),
            reference.best_fitness.to_bits(),
            "{name}: fitness bits"
        );
        assert_eq!(restarted.history, reference.history, "{name}: history");
        assert_eq!(
            evals, reference_evals,
            "{name}: the stage must be recomputed from generation 0"
        );

        // The restarted stage replaced the old file with a current final
        // marker, which a re-run resumes without evaluating anything.
        let (again, evals) = run(&ctx, Some(&ckpt));
        assert_eq!(again.best, reference.best, "{name}: short-circuited best");
        assert_eq!(evals, 0, "{name}: a finished stage must not re-evaluate");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
