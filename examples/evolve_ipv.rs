//! Evolve your own insertion/promotion vector with the genetic algorithm,
//! then refine it by hill climbing — the paper's Section 4 methodology in
//! one command.
//!
//! Run with: `cargo run --release --example evolve_ipv -- [quick|medium|paper]`

use pseudolru_ipv::evolve::{hillclimb, FitnessContext, Ga, Substrate};
use pseudolru_ipv::harness::Scale;
use pseudolru_ipv::traces::spec2006::Spec2006;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Quick);

    // A memory-intensive training mix.
    let training = [
        Spec2006::Libquantum,
        Spec2006::CactusADM,
        Spec2006::Mcf,
        Spec2006::Sphinx3,
        Spec2006::Hmmer,
        Spec2006::DealII, // keeps the GA honest about LRU-friendly phases
    ];
    println!(
        "capturing LLC streams for {} workloads at {scale} scale...",
        training.len()
    );
    let ctx = FitnessContext::for_benchmarks(
        &training,
        scale.simpoints(),
        scale.ga_accesses(),
        scale.fitness(),
    );

    println!("running the genetic algorithm ({:?})...", scale.ga(42));
    let result = Ga::new(scale.ga(42)).run_single(&ctx, Substrate::Plru, None);
    println!("GA best vector: {}", result.best);
    println!(
        "GA fitness (mean speedup over LRU): {:.4}",
        result.best_fitness
    );
    println!("fitness per generation: {:?}", result.history);

    println!("hill-climbing refinement...");
    let (refined, fitness) = hillclimb(&ctx, Substrate::Plru, result.best, 2);
    println!("refined vector: {refined}");
    println!("refined fitness: {fitness:.4}");

    println!("\nper-workload speedups of the refined vector:");
    for (name, speedup) in ctx.per_workload_single(&refined, Substrate::Plru) {
        println!("  {name:<20} {speedup:.4}");
    }
    println!(
        "\n(the paper's workload-inclusive GIPPR vector, for comparison: {})",
        pseudolru_ipv::gippr::vectors::wi_gippr()
    );
}
