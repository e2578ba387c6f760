#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Online policy-evaluation serving for the PseudoLRU/IPV roster.
//!
//! This crate turns the batch replay engine into a long-running daemon
//! (ROADMAP item 2): clients stream accesses — or memcached-style KV
//! operations — over a small CRC-framed binary protocol into per-tenant
//! replay sessions; each session fans a roster subset across the worker
//! pool, pushes incremental per-policy stats deltas back, and contributes
//! to a cross-tenant leaderboard of which policy wins on whose traffic.
//!
//! Robustness is the design center, not a feature:
//!
//! * **Backpressure** — per-session outboxes are bounded; a slow consumer
//!   gets coalesced deltas and a clean `Throttled` frame, never unbounded
//!   server memory ([`backpressure`]).
//! * **Timeouts** — idle and half-open connections are expired by a
//!   deterministic deadline wheel ([`wheel`]).
//! * **Crash safety** — sessions snapshot through
//!   `persist::atomic_write_parts` with retry-and-backoff, streaming from
//!   the journal's recycled blocks; a killed daemon resumes every session
//!   bit-identically by journal replay ([`session`]).
//! * **Graceful degradation** — persistent snapshot failure downgrades a
//!   session to ephemeral with a warning frame instead of killing the
//!   tenant.
//! * **Typed failure** — malformed frames, damaged snapshots, and bad
//!   session requests all decode to typed errors; no input can panic the
//!   daemon ([`protocol`]).
//!
//! Every failure mode above is exercised deterministically through
//! `sim-fault`'s connection-level fault points and the harness chaos
//! drill.

pub mod backpressure;
pub mod kv;
pub mod protocol;
pub mod server;
pub mod session;
pub mod wheel;

pub use backpressure::{DeltaOutbox, SharedOutbox};
pub use protocol::{
    ClientFrame, Delta, ErrorCode, GeometrySpec, Hello, KvOp, LeaderboardRow, PolicyRow,
    ProtoError, ServerFrame, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{
    canonical_stats, default_roster, reference_delta, write_snapshot, BackoffFn, Roster, Session,
    SessionConfig, SessionError, SnapshotError,
};
pub use wheel::DeadlineWheel;
