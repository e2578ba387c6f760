#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Static analysis and exhaustive model checking for the PseudoLRU
//! insertion/promotion stack.
//!
//! The repo's other defence layers are *dynamic*: unit tests sample a few
//! states, and the `sim-verify` differential oracle replays traces through
//! independent implementations. Both can only witness behaviour a workload
//! happens to exercise. This crate adds the *static* layer: properties of
//! an insertion/promotion vector that are decidable from the vector alone,
//! and invariants of the PLRU state machine proved by exhausting its state
//! space rather than sampling it.
//!
//! * [`ipv`] — the IPV static analyzer: well-formedness lints, the
//!   reachable-position set computed by fixed-point iteration, dead and
//!   protected positions, and a behavioural classification
//!   ([`IpvClass`]). Used by `gippr` to validate every published paper
//!   vector at construction and by `evolve` to prune degenerate genomes
//!   before spending a fitness evaluation on them.
//! * [`mck`] — the exhaustive model checker: sweeps the complete PLRU
//!   tree-state space, proving victim-selection totality, the
//!   position↔tree bijection and its write round-trip, and promotion
//!   convergence under a promotion rule, and names the offending tree
//!   state on failure. Generic over [`PlruState`], so the *production*
//!   `gippr::PlruTree` is what gets checked, not a model of it.
//! * [`mirror`] — [`MirrorTree`], an independently
//!   coded naive tree substrate used to self-test the checker, to
//!   cross-check `gippr::PlruTree` over the complete state space, and as
//!   the scalar reference `sim-core`'s kernel soundness sweep checks the
//!   packed PLRU lanes against.
//! * [`bounded`] — the roster-wide *bounded* model checker: breadth-first
//!   search with state hashing over any [`PolicyState`]
//!   — an opaque, resettable state machine with a finite input alphabet and
//!   self-checked invariants. Used by `sim-verify` to sweep every roster
//!   policy (EHC, ARC, AWRP, …) whose state space is too large or unbounded
//!   for exhaustive enumeration, with explicit state/depth/wall-clock
//!   budgets and minimal counterexample trails.
//!
//! The `xtask lint` / `xtask model-check` binaries drive all layers as a
//! CI gate.

pub mod bounded;
pub mod ipv;
pub mod mck;
pub mod mirror;

pub use bounded::{BoundedChecker, BoundedReport, BoundedTrail, PolicyState, StopReason};
pub use ipv::{analyze, IpvAnalysis, IpvClass, IpvLint, IpvLintError};
pub use mck::{cross_check, CheckReport, Counterexample, ModelChecker, PlruState, PromotionRule};
pub use mirror::MirrorTree;
