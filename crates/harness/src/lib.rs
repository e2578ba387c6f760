#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment drivers that regenerate every evaluation figure and table of
//! the paper.
//!
//! | Id | Paper artifact | Module | Binary |
//! |----|----------------|--------|--------|
//! | FIG1 | random IPV design-space sample, sorted speedups | [`experiments::fig01`] | `fig01-random-space` |
//! | FIG4 | GIPLR / PseudoLRU / Random speedup over LRU | [`experiments::fig04`] | `fig04-giplr` |
//! | FIG10 | normalized MPKI: WN1-GIPPR, WN1-2-DGIPPR, WN1-4-DGIPPR, MIN | [`experiments::fig10`] | `fig10-mpki-gippr` |
//! | FIG11 | normalized MPKI: DRRIP, PDP, WN1-4-DGIPPR, MIN | [`experiments::fig11`] | `fig11-mpki-vs-others` |
//! | FIG12 | workload-neutral vs workload-inclusive speedup | [`experiments::fig12`] | `fig12-wn-vs-wi` |
//! | FIG13 | speedup: DRRIP, PDP, WN1-4-DGIPPR (+ memory-intensive subset) | [`experiments::fig13`] | `fig13-speedup` |
//! | TAB-OVH | Section 3.6 storage-overhead comparison | [`experiments::overhead`] | `tab-overhead` |
//! | TAB-VEC | Section 5.3 published vectors | [`experiments::vectors_tab`] | `tab-vectors` |
//!
//! Every binary accepts `--scale quick|medium|paper` (cache sizes,
//! trace lengths, and GA budgets scale together; see [`Scale`]) and
//! `--out <dir>` to write CSV next to the printed table.

pub mod cache;
pub mod experiments;
pub mod manifest;
pub mod pipeline;
pub mod policies;
pub mod report;
pub mod runner;
pub mod scale;
pub mod stats;

pub use cache::{workload_cache, WorkloadCache};
pub use pipeline::{Experiment, Pipeline, PipelineReport};
pub use report::{Args, Table};
pub use runner::{measure_min, measure_policy, prepare_workloads, PolicyMeasurement, WorkloadData};
pub use scale::Scale;
pub use stats::geometric_mean;
