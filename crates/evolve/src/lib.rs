#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Search over insertion/promotion vectors: genetic algorithm, uniform
//! random sampling, and hill-climbing, with workload-neutral
//! cross-validation.
//!
//! Reproduces the paper's Section 4 methodology:
//!
//! * [`FitnessContext`] — the fast fitness function: captured LLC access
//!   streams replayed under a candidate IPV, scored by the linear CPI
//!   model's speedup over LRU (Section 4.3), weighted across workloads.
//! * [`Ga`] — the genetic algorithm (Section 4.2): single-point crossover,
//!   5 % element mutation, elitism, parallel fitness evaluation,
//!   crash-safe [`Checkpointing`]. Works over single IPVs *or* dueling
//!   vector sets (for evolving 2-/4-DGIPPR). A `Ga` run is the one-island
//!   case of [`island`]'s generation loop on the full-replay-only ladder.
//! * [`random_search`] — uniform design-space sampling (Figure 1).
//! * [`hillclimb`] — local refinement (Section 2.6's closing remark).
//! * [`crossval`] — the WN1 workload-neutral protocol (Section 4.4): hold
//!   one workload out, evolve on the rest, evaluate on the holdout.
//! * [`ladder`] — the multi-fidelity evaluation ladder: viability →
//!   zero-replay profile score → set-sampled replay → full replay, with
//!   deterministic promotion and fidelity-tagged memoization.
//! * [`island`] — the one generation loop, and the island-model GA built
//!   on it: process-parallel populations in a migration ring, exchanging
//!   full-fidelity elites through crash-safe atomic mailbox files (the
//!   paper's cluster-scale search on one box).
//!
//! # Example
//!
//! ```no_run
//! use evolve::{FitnessContext, Ga, GaConfig, Substrate};
//! use traces::spec2006::Spec2006;
//!
//! let ctx = FitnessContext::for_benchmarks(
//!     &Spec2006::all(), 3, 50_000, evolve::FitnessScale::default());
//! let result = Ga::new(GaConfig::quick(1)).run_single(&ctx, Substrate::Plru, None);
//! println!("best vector {} at {:.3}x LRU", result.best, result.best_fitness);
//! ```

pub mod checkpoint;
pub mod crossval;
pub mod fitness;
pub mod ga;
pub mod island;
pub mod ladder;
pub mod search;

pub use checkpoint::Checkpointing;
pub use crossval::{wn1_evaluation, Wn1Outcome};
pub use fitness::{
    FitnessContext, FitnessScale, SampledWorkload, ShardedView, Substrate, WorkloadStream,
    DEFAULT_SAMPLE_EVERY,
};
pub use ga::{Ga, GaConfig, GaResult, Genome, VectorSet};
pub use island::{run_ipv_island, run_island, IslandConfig, IslandOutcome};
pub use ladder::{Fidelity, LadderConfig, LadderStats};
pub use search::{hillclimb, random_search};
