//! Evolves a fresh set of vectors with the paper's two-stage methodology
//! and writes them (plus their scores) to a text artifact — the workflow
//! the paper's authors ran on their 200-CPU cluster, at your chosen scale.
//!
//! Usage: `evolve-vectors [--scale quick|medium|paper] [--out DIR]
//! [--resume]`
//!
//! Every GA stage checkpoints its full loop state (generation,
//! population, RNG state, fitness memo) to `<out>/checkpoints/` through
//! atomic writes, so a crashed or killed run continues **bit-identically**
//! with `--resume`: completed stages short-circuit off their final
//! markers, the interrupted stage resumes at its last snapshot, and the
//! final artifact is byte-for-byte what an uninterrupted run produces.
//! Without `--resume`, stale checkpoints are cleared and the run starts
//! fresh.

use evolve::{Checkpointing, FitnessContext, Ga, Substrate, VectorSet};
use harness::Args;
use std::fmt::Write as _;
use std::path::PathBuf;
use traces::spec2006::Spec2006;

fn main() {
    let args = Args::from_env();
    let scale = args.scale;
    let out_dir = args.out.clone().unwrap_or_else(|| "results".to_string());
    let ckpt = Checkpointing::in_dir(PathBuf::from(&out_dir).join("checkpoints"));
    if args.resume {
        println!("resuming from checkpoints in {}", ckpt.dir.display());
    } else {
        ckpt.clear();
    }

    println!("capturing fitness streams for all 29 benchmarks at {scale} scale...");
    let ctx = FitnessContext::for_benchmarks(
        &Spec2006::all(),
        scale.simpoints(),
        scale.ga_accesses(),
        scale.fitness(),
    );
    let ga = Ga::new(scale.ga(0xE40));

    println!("stage 1 + 2: evolving a single GIPPR vector (two-stage GA)...");
    let single = ga.run_two_stage_single(&ctx, Substrate::Plru, 4, Some((&ckpt, "gippr")));
    println!(
        "  best: {}  fitness {:.4}",
        single.best, single.best_fitness
    );

    println!("evolving a 2-vector duel (seeded with the published pair)...");
    let pair = ga.run_set(
        &ctx,
        2,
        vec![VectorSet::new(gippr::vectors::wi_2dgippr().to_vec())],
        Some((&ckpt, "dgippr2")),
    );
    println!("  fitness {:.4}\n{}", pair.best_fitness, pair.best);

    println!("evolving a 4-vector duel (seeded with the published quad)...");
    let quad = ga.run_set(
        &ctx,
        4,
        vec![VectorSet::new(gippr::vectors::wi_4dgippr().to_vec())],
        Some((&ckpt, "dgippr4")),
    );
    println!("  fitness {:.4}\n{}", quad.best_fitness, quad.best);

    let mut artifact = String::new();
    let _ = writeln!(
        artifact,
        "# vectors evolved at {scale} scale (fitness = mean linear-CPI speedup over LRU)"
    );
    let _ = writeln!(
        artifact,
        "GIPPR {} # fitness {:.4}",
        single.best, single.best_fitness
    );
    for (i, v) in pair.best.vectors().iter().enumerate() {
        let _ = writeln!(
            artifact,
            "2-DGIPPR[{i}] {v} # set fitness {:.4}",
            pair.best_fitness
        );
    }
    for (i, v) in quad.best.vectors().iter().enumerate() {
        let _ = writeln!(
            artifact,
            "4-DGIPPR[{i}] {v} # set fitness {:.4}",
            quad.best_fitness
        );
    }
    print!("\n{artifact}");
    if args.out.is_some() {
        let path = PathBuf::from(&out_dir).join("evolved-vectors.txt");
        sim_core::persist::atomic_write(&path, artifact.as_bytes()).expect("write vectors");
        println!("wrote {}", path.display());
    }
    // The artifact is safely on disk (or printed); the checkpoints have
    // served their purpose.
    ckpt.clear();
}
