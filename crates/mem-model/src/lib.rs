#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Memory-hierarchy simulation and performance models.
//!
//! The paper uses two simulators: a fast trace-driven LLC simulator with a
//! linear CPI estimate (the genetic algorithm's fitness function, Section
//! 4.3) and the CMP$im performance simulator (Section 4.5: out-of-order,
//! 4-wide, 128-entry window, 32 KB/8-way L1D, 256 KB/8-way L2, 4 MB/16-way
//! L3, 200-cycle DRAM). This crate provides both layers:
//!
//! * [`Hierarchy`] — a three-level cache hierarchy with dirty-writeback
//!   propagation and per-level statistics.
//! * [`capture_llc_stream`] — runs a reference stream through L1/L2 once
//!   and records the (policy-independent) LLC access stream, which every
//!   LLC policy experiment then replays cheaply.
//! * [`llc`] — the fast LLC-only replayer with warm-up/measure split
//!   (paper: first third warms the cache, the rest is measured).
//! * [`engine`] — the engine planner ([`engine::plan`], in the order
//!   sliced, sharded, mono) and the streaming [`engine::Replayer`] that
//!   batch replay, GA fitness and serving sessions all drive; every
//!   engine is bit-identical to [`replay_llc`].
//! * [`batch`] — multi-policy replay on the worker pool: whole-stream
//!   planned replayers, or (policy × shard) units over a pre-routed
//!   stream.
//! * [`cpi`] — the linear CPI model (fitness) and the MLP-aware window
//!   model (reporting), substituting for CMP$im per DESIGN.md §2.
//! * [`optimal`] — Belady's MIN on a captured LLC stream (the paper's
//!   in-house optimal-misses simulator).

//! * [`multicore`] — the paper's future-work multi-core extension: private
//!   L1/L2 per core over one shared LLC, multiprogrammed mixes.

pub mod analysis;
pub mod batch;
pub mod cpi;
pub mod engine;
pub mod hierarchy;
pub mod llc;
pub mod multicore;
pub mod optimal;

pub use batch::{replay_llc_sharded, replay_many, replay_many_sharded};
pub use cpi::{LinearCpiModel, WindowPerfModel};
pub use engine::{plan, replay_llc_sliced, Engine, Plan, Replayer};
pub use hierarchy::{
    capture_llc_stream, capture_llc_stream_into, Hierarchy, HierarchyConfig, LineSizeMismatch,
    ServiceLevel,
};
pub use llc::{default_warmup, replay_llc, replay_llc_mono, LlcRunResult};
pub use multicore::MulticoreHierarchy;
pub use optimal::min_misses;
