#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Differential oracle for the cache simulator.
//!
//! The optimized simulator earns its speed with packed tag words, bit-level
//! PLRU position algebra, and a monomorphized replay loop — all of which are
//! easy places for a subtle bug to hide while still producing plausible
//! miss ratios. This crate holds the *other* implementation: naive
//! reference models written for obviousness rather than speed, and a
//! differential driver that replays the same access stream through both and
//! reports the first access where they disagree, with a minimized repro.
//!
//! * [`refcache`] — [`RefCache`], a Vec-of-structs tag
//!   store with no packing, mirroring the [`sim_core::SetAssocCache`]
//!   callback protocol line by line.
//! * [`refmodels`] — naive counterparts of the replacement state machines:
//!   [`RefPlru`], a `Vec<bool>` PLRU tree;
//!   [`RefRecencyStack`], an MRU-ordered list;
//!   plus reference policies for LRU, FIFO, SRRIP, PDP, AWRP, EHC, ARC,
//!   PLRU, GIPPR, and GIPLR.
//! * [`diff`] — the differential driver: three models per access
//!   (`access_fast`, `access_block`, reference), compared on hit/miss,
//!   bypass, victim identity and dirtiness, set contents, and final stats.
//! * [`workloads`] — deterministic synthetic access streams chosen to
//!   exercise different replacement behaviours (locality, scans, chases).
//! * [`mck`] — roster-wide bounded model checking: every policy adapted
//!   onto [`sim_lint::BoundedChecker`]'s [`sim_lint::PolicyState`] via a
//!   miniature cache model, plus the shard-affinity and Mattson
//!   fast-path contract audits. `cargo xtask model-check` sweeps these.
//!
//! The `sim-verify` binary runs the whole roster:
//!
//! ```text
//! cargo run -p sim-verify --release -- --policy all --accesses 1M --seed 1
//! ```

pub mod diff;
pub mod mck;
pub mod refcache;
pub mod refmodels;
pub mod workloads;

pub use diff::{diff_replay, roster, Divergence, PolicyPair};
pub use mck::{
    mattson_qualification_audit, mck_roster, AffinityModel, MckEntry, PolicyModel, SharedFactory,
    StepOutcome,
};
pub use refcache::{RefCache, RefOutcome};
pub use refmodels::{RefPlru, RefRecencyStack};
