#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

//! Core cache-simulation substrate for the PseudoLRU insertion/promotion
//! reproduction.
//!
//! This crate provides the building blocks every replacement policy and
//! experiment in the workspace is written against:
//!
//! * [`CacheGeometry`] — validated cache dimensions (size, associativity,
//!   line size) and the derived set/tag arithmetic.
//! * [`Access`] / [`AccessContext`] — a single memory reference as seen by a
//!   cache level.
//! * [`ReplacementPolicy`] — the trait all policies (LRU, PLRU, GIPPR,
//!   DGIPPR, DRRIP, PDP, …) implement. Policies manage only *way indices*;
//!   the cache owns tags and validity.
//! * [`SetAssocCache`] — a set-associative cache that drives a policy and
//!   collects [`CacheStats`].
//! * [`dueling`] — the set-dueling framework (leader-set maps, PSEL
//!   counters, two-way and tournament selection) shared by DIP, DRRIP, and
//!   DGIPPR.
//! * [`slice`](mod@slice) — the bit-sliced replay kernel (4 PLRU sets per `u64`,
//!   SWAR recency stacks and RRPV arrays), with a full mode for batch
//!   replay, capture and the daemon and a miss-count mode for GA fitness.
//! * [`mattson`] — single-pass stack-distance profiling: one stream pass
//!   yields exact LRU hit/miss counts at every associativity for
//!   inclusion-preserving policies.
//! * [`sample`] — deterministic set-sampled sub-streams: the exact
//!   per-set replay of a fixed residue class of sets, the GA's
//!   mid-fidelity evaluation tier.
//! * [`overhead`] — storage-overhead accounting used to regenerate the
//!   paper's Section 3.6 cost comparison.
//! * [`persist`] — crash-safe atomic artifact writes (tmp + fsync +
//!   rename) used for every file the experiment pipeline produces.
//!
//! # Example
//!
//! Simulate a small cache under a trivial policy:
//!
//! ```
//! use sim_core::{Access, CacheGeometry, SetAssocCache};
//! use sim_core::policy::fifo_like_fixture::AlwaysWayZero;
//!
//! # fn main() -> Result<(), sim_core::GeometryError> {
//! let geom = CacheGeometry::new(4 * 1024, 4, 64)?;
//! let mut cache = SetAssocCache::new(geom, Box::new(AlwaysWayZero::new(&geom)));
//! for blk in 0..128u64 {
//!     cache.access_block(blk, &Access::read(blk << 6, 0).context());
//! }
//! assert_eq!(cache.stats().misses, 128);
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod cache;
pub mod dueling;
pub mod geometry;
pub mod mattson;
pub mod overhead;
pub mod persist;
pub mod policy;
pub mod pool;
pub mod sample;
pub mod shard;
pub mod slice;
pub mod stats;

pub use access::{Access, AccessContext, AccessKind};
pub use cache::{AccessOutcome, Evicted, SetAssocCache};
pub use dueling::{DuelController, LeaderMap, Psel, Selector, SetRole};
pub use geometry::{CacheGeometry, GeometryError};
pub use mattson::StackDistanceProfile;
pub use overhead::OverheadReport;
pub use persist::{atomic_write, atomic_write_with};
pub use policy::{PolicyFactory, ReplacementPolicy, ShardAffinity};
pub use sample::SampledStream;
pub use shard::{ShardRun, ShardedStream};
pub use slice::{kernel_soundness_sweep, Bimodal, KernelSweepReport, SliceKernel, SlicedCache};
pub use stats::CacheStats;
