#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Memory-reference traces: a binary container format and synthetic
//! SPEC CPU 2006 workload models.
//!
//! The paper drives its experiments with SPEC CPU 2006 traces collected
//! through CMP$im/Valgrind simpoints. Those traces are proprietary, so this
//! crate substitutes **deterministic synthetic workload models**: one
//! parameterised generator per SPEC benchmark, tuned to that benchmark's
//! published last-level-cache personality (streaming vs. looping vs.
//! irregular, working-set size, write ratio, phase structure). What a
//! replacement policy observes — the reuse-distance mixture of the access
//! stream — is reproduced; absolute miss rates are not claimed to match
//! the originals. See `DESIGN.md` §2 for the substitution rationale.
//!
//! * [`format`](mod@format) — a self-describing binary trace container (magic, version,
//!   CRC-protected) with streaming [`TraceWriter`]/[`TraceReader`].
//! * [`journal`] — the container's record region built in memory, in
//!   recycled fixed-size blocks ([`Journal`]).
//! * [`synth`] — composable access-pattern generators ([`Pattern`],
//!   [`WorkloadSpec`], [`WorkloadGen`]).
//! * [`spec2006`] — the 29 benchmark models ([`Spec2006`]) with
//!   simpoint-style weighted segments.
//!
//! # Example
//!
//! ```
//! use traces::spec2006::Spec2006;
//!
//! // 10k accesses of the synthetic 462.libquantum model (pure streaming).
//! let accesses: Vec<_> = Spec2006::Libquantum.workload().generator(0).take(10_000).collect();
//! assert_eq!(accesses.len(), 10_000);
//! ```

pub mod dsl;
pub mod format;
pub mod journal;
pub mod spec2006;
pub mod synth;

pub use dsl::{parse_spec, ParseSpecError};
pub use format::{TraceError, TraceReader, TraceWriter};
pub use journal::Journal;
pub use spec2006::{Simpoint, Spec2006};
pub use synth::{Pattern, Phase, WorkloadGen, WorkloadSpec};
