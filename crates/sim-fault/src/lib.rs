#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic fault injection for the simulation pipeline.
//!
//! The crash-safety machinery in this workspace — atomic artifact writes,
//! the resumable experiment manifest, GA checkpoints, worker-pool
//! degradation — is only trustworthy if every failure path has a test that
//! exercises it *deterministically*. This crate provides the injection
//! points those tests drive: a **fault plan** names points in the pipeline
//! and the ordinal at which each should fire, and instrumented code asks
//! the plan before every risky operation.
//!
//! # Zero overhead by default
//!
//! Without the `injection` cargo feature every hook in this crate is an
//! `#[inline(always)]` constant (`WriteFault::None`, `TaskFault::None`,
//! `false`): release builds of the simulator carry no fault-injection
//! branches at all. Test builds enable the feature through dev-dependency
//! feature unification. The CI kill-and-resume smoke deliberately runs the
//! un-instrumented release binary and kills it from outside.
//!
//! # Fault-plan grammar
//!
//! A plan is read from the `SIM_FAULT` environment variable (or installed
//! programmatically with [`with_plan`]):
//!
//! ```text
//! SIM_FAULT  = clause (';' clause)*
//! clause     = kind ['@' target] (':' option)*
//! kind       = 'torn' | 'enospc' | 'corrupt' | 'exit'      (write points)
//!            | 'panic' | 'stall'                           (task points)
//!            | 'spawn-fail'                                (pool spawn)
//!            | 'short-read' | 'short-write'                (connection I/O)
//!            | 'disconnect' | 'conn-stall'                 (connection I/O)
//!            | 'accept-fail'                               (listener accept)
//! option     = 'n=' COUNT    fire on the COUNT-th match (1-based, default 1)
//!            | 'sticky'      keep firing from the n-th match onward
//!            | 'keep=' BYTES torn writes keep this payload prefix (default half)
//!                            (short-read/short-write: bytes delivered
//!                            before the connection breaks, default half)
//!            | 'ms=' MILLIS  stall duration (default 200)
//!            | 'task=' INDEX task faults only hit this task index (default any)
//! ```
//!
//! `target` is a substring matched against the point's label (an artifact
//! path for write points, the pool batch label for task points); a clause
//! without a target matches every label. Examples:
//!
//! ```text
//! SIM_FAULT='torn@fig10.csv'            # truncate fig10's first write, then fail it
//! SIM_FAULT='enospc@.wlc:n=2'           # ENOSPC-style error on the 2nd spill write
//! SIM_FAULT='corrupt@.wlc'              # commit a corrupted spill (exercises CRC fallback)
//! SIM_FAULT='exit@fig11.csv'            # simulated hard kill mid-write (tmp written, no rename)
//! SIM_FAULT='panic@fitness:task=3'      # panic in worker task 3 of batches labeled "fitness"
//! SIM_FAULT='stall@replay:task=0:ms=300'# hang task 0 for 300 ms (watchdog fodder)
//! SIM_FAULT='spawn-fail:sticky'         # every pool worker spawn fails
//! ```
//!
//! # What fires where
//!
//! * **Write points** ([`on_write`]) guard atomic artifact writes
//!   (`sim_core::persist::atomic_write`): `torn` truncates the payload and
//!   fails before the rename (the classic torn-write crash), `enospc`
//!   fails the write outright with an I/O error, `corrupt` flips a payload
//!   byte but lets the commit succeed (deterministic media corruption for
//!   CRC-fallback tests), and `exit` asks the caller to terminate the
//!   process after the temp file is written but before the rename — the
//!   harshest crash an atomic writer must survive.
//! * **Task points** ([`on_task`]) guard worker-pool task execution:
//!   `panic` raises inside the task, `stall` sleeps the task long enough
//!   for the pool watchdog to notice.
//! * **Spawn points** ([`on_spawn`]) make `WorkerPool` thread spawns fail,
//!   driving the graceful-degradation path.
//! * **Connection points** ([`on_conn`]) guard socket reads and writes in
//!   the policy-evaluation daemon (`sim-serve`): `short-read` delivers a
//!   byte prefix then breaks the connection (the classic half-frame), and
//!   `short-write` is its sending-side twin; `disconnect` severs the
//!   connection before any byte moves; `conn-stall` delays the operation
//!   (deadline-wheel fodder). `accept-fail` fires at the listener's accept
//!   point, which a robust daemon must survive without dropping existing
//!   sessions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What an instrumented artifact write should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// No fault: perform the write normally.
    None,
    /// Write only a prefix of the payload, then fail before committing
    /// (the torn-write crash). `keep` is the prefix length in bytes;
    /// `None` means half the payload.
    Torn(Option<usize>),
    /// Fail the write with an ENOSPC-style I/O error before any byte of
    /// the destination is touched.
    Error,
    /// Corrupt one payload byte but let the commit succeed — the
    /// deterministic stand-in for post-commit media corruption, exercising
    /// CRC-validation fallbacks in readers.
    Corrupt,
    /// Terminate the process after the temporary file is written but
    /// before the rename (the caller performs the exit) — a simulated
    /// SIGKILL at the worst moment of an atomic write.
    Exit,
}

/// What an instrumented connection operation (socket read/write/accept)
/// should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// No fault: perform the operation normally.
    None,
    /// Deliver only a byte prefix, then break the connection. `keep` is
    /// the prefix length in bytes; `None` means half the requested
    /// transfer (the mid-frame disconnect a frame decoder must detect).
    Short(Option<usize>),
    /// Sever the connection before any byte moves.
    Disconnect,
    /// Delay the operation this many milliseconds, then proceed normally
    /// (slow-peer and idle-timeout fodder).
    Stall(u64),
}

/// What an instrumented pool task should do before running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// No fault: run the task normally.
    None,
    /// Panic inside the task (exercises the pool's panic protocol).
    Panic,
    /// Sleep this many milliseconds before running (exercises the
    /// hung-task watchdog).
    Stall(u64),
}

/// The fault kinds a clause can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Torn,
    Enospc,
    Corrupt,
    Exit,
    Panic,
    Stall,
    SpawnFail,
    ShortRead,
    ShortWrite,
    Disconnect,
    ConnStall,
    AcceptFail,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "torn" => Kind::Torn,
            "enospc" => Kind::Enospc,
            "corrupt" => Kind::Corrupt,
            "exit" => Kind::Exit,
            "panic" => Kind::Panic,
            "stall" => Kind::Stall,
            "spawn-fail" => Kind::SpawnFail,
            "short-read" => Kind::ShortRead,
            "short-write" => Kind::ShortWrite,
            "disconnect" => Kind::Disconnect,
            "conn-stall" => Kind::ConnStall,
            "accept-fail" => Kind::AcceptFail,
            _ => return None,
        })
    }

    fn is_write(self) -> bool {
        matches!(self, Kind::Torn | Kind::Enospc | Kind::Corrupt | Kind::Exit)
    }

    fn is_conn(self) -> bool {
        matches!(
            self,
            Kind::ShortRead | Kind::ShortWrite | Kind::Disconnect | Kind::ConnStall
        )
    }
}

/// One parsed fault clause with its firing counter.
#[derive(Debug)]
struct Clause {
    kind: Kind,
    /// Substring matched against the point label; `None` matches any.
    target: Option<String>,
    /// Fire on the `n`-th match (1-based).
    n: u64,
    /// Keep firing from the `n`-th match onward instead of exactly once.
    sticky: bool,
    /// Torn writes: payload prefix kept, in bytes.
    keep: Option<usize>,
    /// Stall duration in milliseconds.
    ms: u64,
    /// Task faults: only this task index (`None` matches any).
    task: Option<usize>,
    /// Matching occurrences seen so far.
    hits: AtomicU64,
}

impl Clause {
    /// Records a label match and reports whether the clause fires on it.
    fn strike(&self) -> bool {
        let ordinal = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
        if self.sticky {
            ordinal >= self.n
        } else {
            ordinal == self.n
        }
    }

    fn matches_label(&self, label: &str) -> bool {
        self.target.as_deref().map_or(true, |t| label.contains(t))
    }
}

/// A parsed fault plan: an ordered list of clauses with firing state.
#[derive(Debug, Default)]
pub struct Plan {
    clauses: Vec<Clause>,
}

impl Plan {
    /// Parses a `SIM_FAULT` spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown kind or malformed
    /// option; an empty spec parses to an empty plan.
    pub fn parse(spec: &str) -> Result<Plan, String> {
        let mut clauses = Vec::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let mut parts = raw.split(':');
            let head = parts.next().expect("split yields at least one part");
            let (kind_str, target) = match head.split_once('@') {
                Some((k, t)) => (k, Some(t.to_string())),
                None => (head, None),
            };
            let kind = Kind::parse(kind_str)
                .ok_or_else(|| format!("unknown fault kind {kind_str:?} in clause {raw:?}"))?;
            let mut clause = Clause {
                kind,
                target,
                n: 1,
                sticky: false,
                keep: None,
                ms: 200,
                task: None,
                hits: AtomicU64::new(0),
            };
            for opt in parts {
                match opt.split_once('=') {
                    Some(("n", v)) => {
                        clause.n = parse_num(v, raw)?;
                        if clause.n == 0 {
                            return Err(format!("n=0 in clause {raw:?} (ordinals are 1-based)"));
                        }
                    }
                    Some(("keep", v)) => clause.keep = Some(parse_num(v, raw)? as usize),
                    Some(("ms", v)) => clause.ms = parse_num(v, raw)?,
                    Some(("task", v)) => clause.task = Some(parse_num(v, raw)? as usize),
                    None if opt == "sticky" => clause.sticky = true,
                    _ => return Err(format!("unknown option {opt:?} in clause {raw:?}")),
                }
            }
            clauses.push(clause);
        }
        Ok(Plan { clauses })
    }

    /// Whether the plan has any clauses at all.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Consults write-point clauses for the artifact labeled `label`
    /// (first firing clause wins).
    pub fn write_fault(&self, label: &str) -> WriteFault {
        for c in &self.clauses {
            if c.kind.is_write() && c.matches_label(label) && c.strike() {
                return match c.kind {
                    Kind::Torn => WriteFault::Torn(c.keep),
                    Kind::Enospc => WriteFault::Error,
                    Kind::Corrupt => WriteFault::Corrupt,
                    Kind::Exit => WriteFault::Exit,
                    _ => unreachable!("is_write gated"),
                };
            }
        }
        WriteFault::None
    }

    /// Consults task-point clauses for task `index` of the batch labeled
    /// `label`.
    pub fn task_fault(&self, label: &str, index: usize) -> TaskFault {
        for c in &self.clauses {
            let index_ok = c.task.map_or(true, |t| t == index);
            if matches!(c.kind, Kind::Panic | Kind::Stall)
                && c.matches_label(label)
                && index_ok
                && c.strike()
            {
                return match c.kind {
                    Kind::Panic => TaskFault::Panic,
                    Kind::Stall => TaskFault::Stall(c.ms),
                    _ => unreachable!("kind gated"),
                };
            }
        }
        TaskFault::None
    }

    /// Consults spawn-point clauses; `true` means this spawn should fail.
    pub fn spawn_fault(&self) -> bool {
        self.clauses
            .iter()
            .any(|c| c.kind == Kind::SpawnFail && c.strike())
    }

    /// Consults connection-point clauses for a socket `op` on the
    /// connection labeled `label` (first firing clause wins).
    /// `short-read` clauses only match reads, `short-write` only writes;
    /// `disconnect` and `conn-stall` match either direction.
    pub fn conn_fault(&self, op: ConnOp, label: &str) -> ConnFault {
        for c in &self.clauses {
            let dir_ok = match c.kind {
                Kind::ShortRead => op == ConnOp::Read,
                Kind::ShortWrite => op == ConnOp::Write,
                Kind::Disconnect | Kind::ConnStall => true,
                _ => false,
            };
            if c.kind.is_conn() && dir_ok && c.matches_label(label) && c.strike() {
                return match c.kind {
                    Kind::ShortRead | Kind::ShortWrite => ConnFault::Short(c.keep),
                    Kind::Disconnect => ConnFault::Disconnect,
                    Kind::ConnStall => ConnFault::Stall(c.ms),
                    _ => unreachable!("is_conn gated"),
                };
            }
        }
        ConnFault::None
    }

    /// Consults accept-point clauses for the listener labeled `label`;
    /// `true` means this accept should fail with a transient error.
    pub fn accept_fault(&self, label: &str) -> bool {
        self.clauses
            .iter()
            .any(|c| c.kind == Kind::AcceptFail && c.matches_label(label) && c.strike())
    }
}

/// Direction of an instrumented connection operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnOp {
    /// Receiving bytes from the peer.
    Read,
    /// Sending bytes to the peer.
    Write,
}

fn parse_num(v: &str, clause: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("bad number {v:?} in clause {clause:?}"))
}

/// The installed plan. `ACTIVE` is the hooks' fast path: one relaxed load
/// when no plan is installed.
static PLAN: Mutex<Option<Arc<Plan>>> = Mutex::new(None);
static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_LOADED: OnceLock<()> = OnceLock::new();

fn plan_lock() -> std::sync::MutexGuard<'static, Option<Arc<Plan>>> {
    // A panic while holding the lock (e.g. a panicking `with_plan` body)
    // poisons it; the stored plan is still coherent, so keep going.
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn install(plan: Option<Arc<Plan>>) -> Option<Arc<Plan>> {
    let mut slot = plan_lock();
    let active = plan.as_ref().is_some_and(|p| !p.is_empty());
    let previous = std::mem::replace(&mut *slot, plan);
    ACTIVE.store(active, Ordering::SeqCst);
    previous
}

/// Loads `SIM_FAULT` from the environment exactly once (the first hook or
/// [`with_plan`] call wins; later environment changes are ignored).
fn ensure_env_loaded() {
    ENV_LOADED.get_or_init(|| {
        if let Ok(spec) = std::env::var("SIM_FAULT") {
            match Plan::parse(&spec) {
                Ok(plan) if !plan.is_empty() => {
                    eprintln!("sim-fault: armed with SIM_FAULT={spec:?}");
                    install(Some(Arc::new(plan)));
                }
                Ok(_) => {}
                Err(e) => eprintln!("sim-fault: ignoring unparseable SIM_FAULT: {e}"),
            }
        }
    });
}

#[cfg(feature = "injection")]
fn current_plan() -> Option<Arc<Plan>> {
    ensure_env_loaded();
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    plan_lock().clone()
}

/// Serializes tests that install process-global plans.
static TEST_MUTEX: Mutex<()> = Mutex::new(());

/// Installs `spec` as the process-global plan for the duration of `f`,
/// restoring the previous plan afterwards (even on panic). Tests that
/// inject faults must use this: it serializes against other `with_plan`
/// callers so concurrent tests do not see each other's plans.
///
/// # Panics
///
/// Panics if `spec` does not parse — a test bug, not a runtime condition.
pub fn with_plan<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let _guard = TEST_MUTEX
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ensure_env_loaded();
    let plan = Plan::parse(spec).expect("with_plan spec must parse");
    let previous = install(Some(Arc::new(plan)));

    /// Restores the previous plan even if `f` unwinds (panic-injection
    /// tests do exactly that).
    struct Restore(Option<Arc<Plan>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            install(self.0.take());
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Whether the `injection` feature is compiled into this build. Tests in
/// consuming crates guard on this so they skip (rather than silently pass)
/// if run without dev-dependency feature unification.
pub const COMPILED_IN: bool = cfg!(feature = "injection");

/// Whether fault injection is compiled in *and* a non-empty plan is
/// currently installed.
pub fn armed() -> bool {
    #[cfg(feature = "injection")]
    {
        ensure_env_loaded();
        ACTIVE.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "injection"))]
    {
        false
    }
}

/// Write-point hook: what the artifact write labeled `label` should do.
/// Inlined to `WriteFault::None` unless the `injection` feature is on.
#[inline(always)]
pub fn on_write(label: &str) -> WriteFault {
    #[cfg(feature = "injection")]
    {
        match current_plan() {
            Some(plan) => plan.write_fault(label),
            None => WriteFault::None,
        }
    }
    #[cfg(not(feature = "injection"))]
    {
        let _ = label;
        WriteFault::None
    }
}

/// Task-point hook: what task `index` of the pool batch labeled `label`
/// should do. Inlined to `TaskFault::None` unless `injection` is on.
#[inline(always)]
pub fn on_task(label: &str, index: usize) -> TaskFault {
    #[cfg(feature = "injection")]
    {
        match current_plan() {
            Some(plan) => plan.task_fault(label, index),
            None => TaskFault::None,
        }
    }
    #[cfg(not(feature = "injection"))]
    {
        let _ = (label, index);
        TaskFault::None
    }
}

/// Spawn-point hook: whether this worker-thread spawn should fail.
/// Inlined to `false` unless `injection` is on.
#[inline(always)]
pub fn on_spawn() -> bool {
    #[cfg(feature = "injection")]
    {
        match current_plan() {
            Some(plan) => plan.spawn_fault(),
            None => false,
        }
    }
    #[cfg(not(feature = "injection"))]
    {
        false
    }
}

/// Connection-point hook: what the socket `op` on the connection labeled
/// `label` should do. Inlined to `ConnFault::None` unless `injection` is
/// on.
#[inline(always)]
pub fn on_conn(op: ConnOp, label: &str) -> ConnFault {
    #[cfg(feature = "injection")]
    {
        match current_plan() {
            Some(plan) => plan.conn_fault(op, label),
            None => ConnFault::None,
        }
    }
    #[cfg(not(feature = "injection"))]
    {
        let _ = (op, label);
        ConnFault::None
    }
}

/// Accept-point hook: whether this listener accept should fail with a
/// transient error. Inlined to `false` unless `injection` is on.
#[inline(always)]
pub fn on_accept(label: &str) -> bool {
    #[cfg(feature = "injection")]
    {
        match current_plan() {
            Some(plan) => plan.accept_fault(label),
            None => false,
        }
    }
    #[cfg(not(feature = "injection"))]
    {
        let _ = label;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_option() {
        let plan = Plan::parse(
            "torn@fig10.csv:keep=7; enospc@.wlc:n=2:sticky; corrupt; exit@x; \
             panic@fitness:task=3; stall@replay:ms=50; spawn-fail",
        )
        .unwrap();
        assert_eq!(plan.clauses.len(), 7);
        assert_eq!(plan.clauses[0].kind, Kind::Torn);
        assert_eq!(plan.clauses[0].keep, Some(7));
        assert_eq!(plan.clauses[1].n, 2);
        assert!(plan.clauses[1].sticky);
        assert_eq!(plan.clauses[2].target, None);
        assert_eq!(plan.clauses[4].task, Some(3));
        assert_eq!(plan.clauses[5].ms, 50);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Plan::parse("explode@x").is_err());
        assert!(Plan::parse("torn:n=zero").is_err());
        assert!(Plan::parse("torn:n=0").is_err());
        assert!(Plan::parse("torn:bogus").is_err());
        assert!(Plan::parse("").unwrap().is_empty());
        assert!(Plan::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn write_fault_fires_on_nth_match_exactly_once() {
        let plan = Plan::parse("enospc@spill:n=2").unwrap();
        assert_eq!(plan.write_fault("a/spill.wlc"), WriteFault::None);
        assert_eq!(plan.write_fault("a/spill.wlc"), WriteFault::Error);
        assert_eq!(plan.write_fault("a/spill.wlc"), WriteFault::None);
        // Non-matching labels never advance the counter.
        let plan = Plan::parse("torn@fig10").unwrap();
        assert_eq!(plan.write_fault("fig11.csv"), WriteFault::None);
        assert_eq!(plan.write_fault("fig10.csv"), WriteFault::Torn(None));
    }

    #[test]
    fn sticky_fires_from_nth_onward() {
        let plan = Plan::parse("spawn-fail:n=2:sticky").unwrap();
        assert!(!plan.spawn_fault());
        assert!(plan.spawn_fault());
        assert!(plan.spawn_fault());
    }

    #[test]
    fn task_fault_filters_by_label_and_index() {
        let plan = Plan::parse("panic@fitness:task=3; stall@replay:ms=9:sticky").unwrap();
        assert_eq!(plan.task_fault("fitness", 2), TaskFault::None);
        assert_eq!(plan.task_fault("fitness", 3), TaskFault::Panic);
        assert_eq!(plan.task_fault("fitness", 3), TaskFault::None, "fired once");
        assert_eq!(plan.task_fault("replay", 0), TaskFault::Stall(9));
        assert_eq!(plan.task_fault("replay", 7), TaskFault::Stall(9));
        assert_eq!(plan.task_fault("other", 0), TaskFault::None);
    }

    #[test]
    fn conn_faults_filter_by_direction_and_label() {
        let plan = Plan::parse(
            "short-read@tenant-a:keep=5; short-write@tenant-b; disconnect@tenant-c; \
             conn-stall@tenant-d:ms=7:sticky",
        )
        .unwrap();
        // short-read never matches writes (and vice versa).
        assert_eq!(plan.conn_fault(ConnOp::Write, "tenant-a"), ConnFault::None);
        assert_eq!(
            plan.conn_fault(ConnOp::Read, "tenant-a"),
            ConnFault::Short(Some(5))
        );
        assert_eq!(plan.conn_fault(ConnOp::Read, "tenant-a"), ConnFault::None);
        assert_eq!(plan.conn_fault(ConnOp::Read, "tenant-b"), ConnFault::None);
        assert_eq!(
            plan.conn_fault(ConnOp::Write, "tenant-b"),
            ConnFault::Short(None)
        );
        // disconnect and conn-stall hit both directions.
        assert_eq!(
            plan.conn_fault(ConnOp::Write, "tenant-c"),
            ConnFault::Disconnect
        );
        assert_eq!(
            plan.conn_fault(ConnOp::Read, "tenant-d"),
            ConnFault::Stall(7)
        );
        assert_eq!(
            plan.conn_fault(ConnOp::Write, "tenant-d"),
            ConnFault::Stall(7),
            "sticky keeps firing"
        );
    }

    #[test]
    fn accept_fault_fires_per_plan() {
        let plan = Plan::parse("accept-fail@serve:n=2").unwrap();
        assert!(!plan.accept_fault("serve"));
        assert!(plan.accept_fault("serve"));
        assert!(!plan.accept_fault("serve"));
        assert!(!plan.accept_fault("other"), "label mismatch never fires");
    }

    #[test]
    fn conn_kinds_do_not_fire_write_or_task_points() {
        let plan = Plan::parse("short-read; disconnect; accept-fail").unwrap();
        assert_eq!(plan.write_fault("x.csv"), WriteFault::None);
        assert_eq!(plan.task_fault("batch", 0), TaskFault::None);
        assert!(!plan.spawn_fault());
    }

    #[test]
    fn first_matching_clause_wins() {
        let plan = Plan::parse("torn@csv; enospc@fig10").unwrap();
        assert_eq!(plan.write_fault("fig10.csv"), WriteFault::Torn(None));
        // The torn clause already fired; the enospc clause is next in line.
        assert_eq!(plan.write_fault("fig10.csv"), WriteFault::Error);
    }

    #[cfg(feature = "injection")]
    #[test]
    fn hooks_follow_installed_plan_and_restore() {
        with_plan("corrupt@hooked:n=1", || {
            assert!(armed());
            assert_eq!(on_write("unrelated"), WriteFault::None);
            assert_eq!(on_write("hooked.bin"), WriteFault::Corrupt);
            assert_eq!(on_write("hooked.bin"), WriteFault::None);
        });
        assert_eq!(on_write("hooked.bin"), WriteFault::None);
    }

    #[cfg(feature = "injection")]
    #[test]
    fn with_plan_restores_after_panic() {
        let result = std::panic::catch_unwind(|| {
            with_plan("panic@boom", || {
                assert_eq!(on_task("boom", 0), TaskFault::Panic);
                panic!("simulated test body panic");
            })
        });
        assert!(result.is_err());
        assert_eq!(on_task("boom", 0), TaskFault::None, "plan restored");
    }
}
