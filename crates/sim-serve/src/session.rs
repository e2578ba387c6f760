//! Per-tenant replay sessions: roster fan-out, incremental stats, and
//! crash-safe snapshots.
//!
//! A session owns one streaming [`Replayer`] per roster policy, on the
//! engine [`mem_model::plan`] picks for a whole-stream pass (the packed
//! kernels for LRU, PseudoLRU, FIFO, SRRIP and the duels; a mono engine
//! monomorphized for the policy's type otherwise), and feeds every
//! ingested batch through all of them. [`Session::ingest`] fans them
//! across the global worker pool; the server gives each busy session its
//! share of the pool, and at a share of one thread the engines run in a
//! plain loop on the session's own thread, with no pool job. Each policy
//! is an independent deterministic machine, so any fan-out is
//! bit-identical to a sequential loop. Cumulative stats are cut into
//! [`Delta`]s every `delta_every` accesses.
//!
//! # Snapshot model: journal replay
//!
//! Engines are deliberately opaque (policies and packed kernel state have
//! no serialization surface), so a snapshot does not try to freeze engine
//! state. Instead it records the session *inputs*: the config plus the
//! full access journal, embedded as a standard `traces` container (CRC'd,
//! length-checked) behind a CRC'd meta block. Restoring replays the
//! journal through freshly built engines — determinism then guarantees the
//! restored session is **bit-identical** to the one that was killed, at
//! the cost of replay time and journal memory. That trade is the right
//! one for a what-if analysis daemon: correctness is observable, and the
//! journal doubles as the tenant's captured trace.
//!
//! The journal is a [`traces::Journal`]: the container's encoded 21-byte
//! records in fixed 1 MiB blocks, with the record region's CRC kept as
//! records arrive. Its blocks come from, and return to, one process-wide
//! free list, so a daemon that opens and drops sessions on a new
//! connection thread each time reuses the same blocks instead of leaving
//! freed journals in per-thread allocator arenas. A snapshot file is the meta
//! block and container header, the journal's blocks as they are, and the
//! container footer. [`Session::save_snapshot`] hands those parts to
//! [`sim_core::persist::atomic_write_parts`] with retry-and-backoff, so no
//! buffer of the whole journal is ever built, a torn write can never
//! destroy the previous good snapshot and a transient `ENOSPC` is ridden
//! out rather than fatal. [`Session::snapshot_bytes`] concatenates the
//! same parts. [`Session::restore_from`] streams a snapshot back in
//! bounded chunks.
//!
//! # Snapshot once per state
//!
//! A snapshot records the journal and the delta sequence number, and
//! nothing else changes over a session's life. The session remembers that
//! pair as of its last snapshot known to be on disk
//! ([`Session::mark_persisted`]); [`Session::is_persisted`] then tells the
//! server a write would only repeat the file, so a `Finish` followed by a
//! disconnect writes the journal once.
//!
//! # Ingest batching
//!
//! [`Session::ingest`] takes a batch of any length and cuts at most one
//! delta, at its end. The server merges queued frames into one call (one
//! fan-out), stopping at the frame that reaches
//! [`Session::until_delta`], so the cuts land where frame-by-frame
//! ingest would put them.

use crate::kv;
use crate::protocol::{put_str, put_u16, put_u32, put_u64};
use crate::protocol::{Cursor, Delta, GeometrySpec, KvOp, PolicyRow, ProtoError};
use mem_model::{Replayer, WindowPerfModel};
use sim_core::persist::atomic_write_parts;
use sim_core::{pool, Access, CacheGeometry, PolicyFactory, ReplacementPolicy, SetAssocCache};
use std::error::Error;
use std::fmt;
use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;
use traces::format::{container_header, Crc32};
use traces::{Journal, TraceReader};

/// Snapshot file magic (the `.ssn` sibling of the `PLRUTRC1` container).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PLRUSSN1";

/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Backoff schedule used between snapshot write retries; the harness
/// passes `pipeline::retry_backoff` so the daemon shares the pipeline's
/// tunable (`SIM_RETRY_BASE_MS`) schedule.
pub type BackoffFn = fn(u64) -> Duration;

/// A named-policy registry: the roster a server can evaluate.
pub type Roster = Vec<(String, PolicyFactory)>;

/// A compact default roster for in-crate tests and embedded use. The
/// harness `serve` binary passes its full 12-policy roster instead.
pub fn default_roster() -> Roster {
    use sim_core::policy::factory;
    let entries: Vec<(&str, PolicyFactory)> = vec![
        ("LRU", factory(|g| Box::new(baselines::TrueLru::new(g)))),
        (
            "PseudoLRU",
            factory(|g| Box::new(gippr::PlruPolicy::new(g))),
        ),
        ("FIFO", factory(|g| Box::new(baselines::FifoPolicy::new(g)))),
        (
            "SRRIP",
            factory(|g| Box::new(baselines::SrripPolicy::new(g))),
        ),
        (
            "WI-GIPPR",
            factory(|g| {
                Box::new(
                    gippr::GipprPolicy::with_name(g, gippr::vectors::wi_gippr(), "WI-GIPPR")
                        .expect("16-way IPV fits 16-way geometry"),
                )
            }),
        ),
    ];
    entries
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

/// Why a session could not be opened.
#[derive(Debug)]
pub enum SessionError {
    /// The requested geometry is not a valid cache shape.
    BadGeometry(String),
    /// A requested policy name is not in the server roster.
    UnknownPolicy(String),
    /// A policy factory rejected (panicked on) the requested geometry.
    PolicyConstruction(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BadGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            SessionError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            SessionError::PolicyConstruction(name) => {
                write!(f, "policy {name:?} cannot be built for this geometry")
            }
        }
    }
}

impl Error for SessionError {}

/// Why a snapshot could not be restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file is not a snapshot.
    BadMagic,
    /// Unsupported snapshot format version.
    BadVersion(u32),
    /// The file ended inside the header or meta block.
    Truncated,
    /// The meta block fails its CRC.
    MetaCrc,
    /// The meta block decodes to nonsense.
    BadMeta(&'static str),
    /// The embedded journal container is damaged.
    Journal(traces::TraceError),
    /// The config is valid but the session cannot be rebuilt (e.g. the
    /// roster changed across daemon builds).
    Session(SessionError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::MetaCrc => write!(f, "snapshot meta block fails its crc"),
            SnapshotError::BadMeta(what) => write!(f, "snapshot meta malformed: {what}"),
            SnapshotError::Journal(e) => write!(f, "snapshot journal damaged: {e}"),
            SnapshotError::Session(e) => write!(f, "snapshot cannot be rebuilt: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Journal(e) => Some(e),
            SnapshotError::Session(e) => Some(e),
            _ => None,
        }
    }
}

/// Immutable per-session configuration (everything a snapshot must
/// remember besides the journal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Tenant identity (snapshot files are keyed by it).
    pub tenant: String,
    /// Cache shape every roster engine is built with.
    pub geometry: GeometrySpec,
    /// KV-mode flag (affects only how frames are lowered, but recorded so
    /// a resumed session keeps rejecting the wrong frame kind).
    pub kv_mode: bool,
    /// Cut a delta every this many accesses.
    pub delta_every: u64,
    /// Resolved roster names, in evaluation order.
    pub roster: Vec<String>,
}

/// One tenant's live replay session.
pub struct Session {
    config: SessionConfig,
    engines: Vec<Mutex<Replayer>>,
    /// The order the pooled fan-out hands `engines` to the pool
    /// ([`mem_model::dispatch_order`]: mono engines first).
    order: Vec<usize>,
    /// Every access ever ingested, in order and encoded — the snapshot
    /// payload.
    journal: Journal,
    instructions: u64,
    delta_seq: u64,
    /// Accesses covered by the last cut delta (`covered_from` of the next).
    last_delta_at: u64,
    /// True once snapshots have been given up on (degraded mode).
    ephemeral: bool,
    /// `(ingested, delta_seq)` as of the last snapshot known to be on
    /// disk: the two things a snapshot records that change over a
    /// session's life.
    persisted: Option<(u64, u64)>,
}

/// Builds each named roster policy for `geom`.
fn build_policies(
    names: &[String],
    registry: &Roster,
    geom: &CacheGeometry,
) -> Result<Vec<Box<dyn ReplacementPolicy>>, SessionError> {
    names
        .iter()
        .map(|name| {
            let factory = registry
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, f)| f)
                .ok_or_else(|| SessionError::UnknownPolicy(name.clone()))?;
            // Factories assert geometry compatibility by panicking (they
            // are built for trusted batch configs); a serving daemon must
            // turn that into a typed per-session error instead.
            catch_unwind(AssertUnwindSafe(|| factory(geom)))
                .map_err(|_| SessionError::PolicyConstruction(name.clone()))
        })
        .collect()
}

/// The most cache lines (`size_bytes / line_bytes`) one session may
/// simulate: 2^20, a 64 MiB LLC at 64-byte lines, sixteen times the
/// paper's 4 MB. A session allocates an 8-byte tag word per line for each
/// roster policy, plus the policy's own state, and a failed allocation
/// aborts the whole process, every tenant with it. So a larger geometry,
/// which a client's `Hello` or a snapshot's metadata may name, is refused
/// as [`SessionError::BadGeometry`] before any engine is built.
pub const MAX_SESSION_LINES: u64 = 1 << 20;

fn geometry_of(spec: &GeometrySpec) -> Result<CacheGeometry, SessionError> {
    let geom = CacheGeometry::new(
        spec.size_bytes,
        spec.ways as usize,
        u64::from(spec.line_bytes),
    )
    .map_err(|e| SessionError::BadGeometry(e.to_string()))?;
    let lines = spec.size_bytes / u64::from(spec.line_bytes);
    if lines > MAX_SESSION_LINES {
        return Err(SessionError::BadGeometry(format!(
            "{lines} lines exceed the session cap of {MAX_SESSION_LINES}"
        )));
    }
    Ok(geom)
}

impl Session {
    /// Opens a fresh session. An empty `roster` request resolves to the
    /// full registry.
    pub fn new(
        tenant: &str,
        spec: GeometrySpec,
        kv_mode: bool,
        delta_every: u64,
        requested: &[String],
        registry: &Roster,
    ) -> Result<Session, SessionError> {
        let geom = geometry_of(&spec)?;
        let roster: Vec<String> = if requested.is_empty() {
            registry.iter().map(|(n, _)| n.clone()).collect()
        } else {
            requested.to_vec()
        };
        let perf = WindowPerfModel::default();
        let engines: Vec<Replayer> = build_policies(&roster, registry, &geom)?
            .into_iter()
            .map(|policy| Replayer::whole(geom, policy, &perf))
            .collect();
        let sliced: Vec<bool> = engines.iter().map(Replayer::is_sliced).collect();
        let order = mem_model::dispatch_order(&sliced);
        let engines = engines.into_iter().map(Mutex::new).collect();
        Ok(Session {
            config: SessionConfig {
                tenant: tenant.to_string(),
                geometry: spec,
                kv_mode,
                delta_every: delta_every.max(1),
                roster,
            },
            engines,
            order,
            journal: Journal::new(),
            instructions: 0,
            delta_seq: 0,
            last_delta_at: 0,
            ephemeral: false,
            persisted: None,
        })
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Total accesses ingested (the resume point a client skips to).
    pub fn ingested(&self) -> u64 {
        self.journal.len()
    }

    /// True once the session has degraded to ephemeral (no snapshots).
    pub fn is_ephemeral(&self) -> bool {
        self.ephemeral
    }

    /// Degrades the session: snapshots are abandoned, everything else
    /// keeps working.
    pub fn degrade_to_ephemeral(&mut self) {
        self.ephemeral = true;
    }

    /// True when the last snapshot known to be on disk already holds this
    /// exact state: nothing was ingested and no delta was cut since.
    pub fn is_persisted(&self) -> bool {
        self.persisted == Some((self.ingested(), self.delta_seq))
    }

    /// Records that the current state's snapshot is on disk.
    pub fn mark_persisted(&mut self) {
        self.persisted = Some((self.ingested(), self.delta_seq));
    }

    /// Accesses still to ingest before the next `delta_every` cut.
    pub fn until_delta(&self) -> u64 {
        (self.last_delta_at + self.config.delta_every).saturating_sub(self.ingested())
    }

    /// Runs `batch` through every engine and appends it to the journal,
    /// on at most `width` threads. At width 1 (or on a one-slot pool) the
    /// engines run in a plain loop on this thread; otherwise they fan
    /// across the worker pool as one labeled batch, mono engines first.
    fn apply(&mut self, batch: &[Access], width: usize) {
        if batch.is_empty() {
            return;
        }
        self.instructions += batch.iter().map(|a| u64::from(a.icount_delta)).sum::<u64>();
        self.journal.append(batch);
        let pool = pool::global();
        if width.min(pool.cap()) <= 1 {
            for engine in &mut self.engines {
                engine
                    .get_mut()
                    .unwrap_or_else(|e| e.into_inner())
                    .feed(batch);
            }
            return;
        }
        let (engines, order) = (&self.engines, &self.order);
        pool.run_labeled(order.len(), width, "serve", |k| {
            engines[order[k]]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .feed(batch);
        });
    }

    /// Ingests a batch of raw accesses; returns a delta when the
    /// `delta_every` boundary was crossed. The engines fan across the
    /// whole worker pool.
    pub fn ingest(&mut self, batch: &[Access]) -> Option<Delta> {
        self.ingest_at(batch, usize::MAX)
    }

    /// [`Session::ingest`] on at most `width` threads.
    pub(crate) fn ingest_at(&mut self, batch: &[Access], width: usize) -> Option<Delta> {
        self.apply(batch, width);
        if self.ingested() - self.last_delta_at >= self.config.delta_every {
            Some(self.cut_delta())
        } else {
            None
        }
    }

    /// Ingests a KV-mode batch (keys lowered to line addresses). The
    /// server lowers keys as it reads them
    /// ([`recv_client_lowered`](crate::protocol::recv_client_lowered))
    /// and ingests the accesses.
    pub fn ingest_kv(&mut self, ops: &[KvOp]) -> Option<Delta> {
        let line = u64::from(self.config.geometry.line_bytes);
        let batch: Vec<Access> = ops.iter().map(|op| kv::op_to_access(op, line)).collect();
        self.ingest(&batch)
    }

    /// The cumulative stats as they stand, without cutting a delta.
    pub fn current_delta(&self) -> Delta {
        Delta {
            seq: self.delta_seq,
            covered_from: self.last_delta_at,
            covered_to: self.ingested(),
            instructions: self.instructions,
            rows: self
                .config
                .roster
                .iter()
                .zip(&self.engines)
                .map(|(name, eng)| PolicyRow {
                    name: name.clone(),
                    stats: eng.lock().unwrap_or_else(|e| e.into_inner()).stats(),
                })
                .collect(),
        }
    }

    /// Cuts a delta: returns the cumulative stats and advances the
    /// sequence / coverage watermark.
    pub fn cut_delta(&mut self) -> Delta {
        let d = self.current_delta();
        self.delta_seq += 1;
        self.last_delta_at = self.ingested();
        d
    }

    /// The roster entry with the lowest MPKI right now.
    pub fn best(&self) -> Option<(String, f64)> {
        let d = self.current_delta();
        (0..d.rows.len())
            .map(|i| (d.rows[i].name.clone(), d.mpki(i)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    // -- snapshots ---------------------------------------------------------

    /// The snapshot up to the journal's records: magic, the CRC'd meta
    /// block, and the container header.
    fn snapshot_head(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        put_u32(&mut meta, SNAPSHOT_VERSION);
        put_str(&mut meta, &self.config.tenant);
        meta.push(u8::from(self.config.kv_mode));
        put_u64(&mut meta, self.config.geometry.size_bytes);
        put_u32(&mut meta, self.config.geometry.ways);
        put_u32(&mut meta, self.config.geometry.line_bytes);
        put_u64(&mut meta, self.config.delta_every);
        put_u64(&mut meta, self.delta_seq);
        put_u16(&mut meta, self.config.roster.len() as u16);
        for name in &self.config.roster {
            put_str(&mut meta, name);
        }

        let mut head = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 8 + meta.len() + 12);
        head.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut head, meta.len() as u32);
        head.extend_from_slice(&meta);
        let mut crc = Crc32::new();
        crc.update(&meta);
        put_u32(&mut head, crc.finish());
        head.extend_from_slice(&container_header());
        head
    }

    /// Hands `write` the snapshot as the byte runs it is made of, in file
    /// order: [`Session::snapshot_head`], the journal's blocks, and the
    /// container footer.
    fn with_snapshot_parts<R>(&self, write: impl FnOnce(&[&[u8]]) -> R) -> R {
        let head = self.snapshot_head();
        let footer = self.journal.footer();
        let parts: Vec<&[u8]> = std::iter::once(&head[..])
            .chain(self.journal.blocks())
            .chain(std::iter::once(&footer[..]))
            .collect();
        write(&parts)
    }

    /// Serializes the session (config + journal) into snapshot bytes: the
    /// concatenation of the parts [`Session::save_snapshot`] writes.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.with_snapshot_parts(|parts| parts.concat())
    }

    /// Writes the session's snapshot to `path` as [`write_snapshot`] does,
    /// streaming it from the journal's blocks.
    ///
    /// # Errors
    ///
    /// The last write error once every attempt is exhausted.
    pub fn save_snapshot(&self, path: &Path, backoff: BackoffFn, attempts: u32) -> io::Result<()> {
        self.with_snapshot_parts(|parts| write_snapshot_parts(path, parts, backoff, attempts))
    }

    /// Rebuilds a session from snapshot bytes by replaying the journal
    /// through fresh engines. Deterministic engines make the result
    /// bit-identical to the snapshotted session.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`] for any damage; never panics on malformed
    /// input.
    pub fn restore(bytes: &[u8], registry: &Roster) -> Result<Session, SnapshotError> {
        Session::restore_from(bytes, registry)
    }

    /// [`Session::restore`] from any reader. The journal is fed to the
    /// engines 4,096 accesses at a time as it is read, which replays
    /// exactly as the whole stream would; nothing the size of the journal
    /// is built besides the session's own journal.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`] for any damage (a read failure is a
    /// [`SnapshotError::Journal`] I/O error, or `Truncated` inside the
    /// meta block); never panics on malformed input.
    pub fn restore_from(
        mut source: impl Read,
        registry: &Roster,
    ) -> Result<Session, SnapshotError> {
        let mut head = [0u8; 12];
        source
            .read_exact(&mut head)
            .map_err(|_| SnapshotError::Truncated)?;
        if &head[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let meta_len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        // Read through `take`, so a damaged length allocates no more than
        // the bytes actually there.
        let mut meta = Vec::new();
        (&mut source)
            .take(u64::from(meta_len))
            .read_to_end(&mut meta)
            .map_err(|_| SnapshotError::Truncated)?;
        let mut stored_crc = [0u8; 4];
        if meta.len() != meta_len as usize || source.read_exact(&mut stored_crc).is_err() {
            return Err(SnapshotError::Truncated);
        }
        let mut crc = Crc32::new();
        crc.update(&meta);
        if crc.finish() != u32::from_le_bytes(stored_crc) {
            return Err(SnapshotError::MetaCrc);
        }

        let bad = |e: ProtoError| match e {
            ProtoError::BadPayload(what) => SnapshotError::BadMeta(what),
            _ => SnapshotError::BadMeta("undecodable field"),
        };
        let mut c = Cursor::new(&meta);
        let version = c.u32().map_err(bad)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let tenant = c.string().map_err(bad)?;
        let kv_mode = match c.u8().map_err(bad)? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::BadMeta("kv flag")),
        };
        let spec = GeometrySpec {
            size_bytes: c.u64().map_err(bad)?,
            ways: c.u32().map_err(bad)?,
            line_bytes: c.u32().map_err(bad)?,
        };
        let delta_every = c.u64().map_err(bad)?;
        let delta_seq = c.u64().map_err(bad)?;
        let n = c.u16().map_err(bad)? as usize;
        let mut roster = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            roster.push(c.string().map_err(bad)?);
        }
        c.finish().map_err(bad)?;
        if roster.is_empty() {
            return Err(SnapshotError::BadMeta("empty roster"));
        }

        let records = TraceReader::new(source).map_err(SnapshotError::Journal)?;
        let mut session = Session::new(&tenant, spec, kv_mode, delta_every, &roster, registry)
            .map_err(SnapshotError::Session)?;
        let mut chunk = Vec::with_capacity(RESTORE_CHUNK);
        for access in records {
            chunk.push(access.map_err(SnapshotError::Journal)?);
            if chunk.len() == RESTORE_CHUNK {
                session.apply(&chunk, usize::MAX);
                chunk.clear();
            }
        }
        session.apply(&chunk, usize::MAX);
        // The resumed session owes no delta for the replayed prefix; the
        // next delta covers post-resume traffic and continues the stored
        // sequence numbering.
        session.delta_seq = delta_seq;
        session.last_delta_at = session.ingested();
        Ok(session)
    }
}

/// Accesses [`Session::restore_from`] decodes before feeding them to the
/// engines: 96 KiB of accesses, the server's default delta cadence.
const RESTORE_CHUNK: usize = 4096;

/// Writes snapshot bytes to `path` atomically, retrying transient
/// failures (the `ENOSPC` case) up to `attempts` times with `backoff`
/// sleeps in between.
///
/// # Errors
///
/// The last write error once every attempt is exhausted; the previous
/// snapshot at `path`, if any, is untouched in that case.
pub fn write_snapshot(
    path: &Path,
    bytes: &[u8],
    backoff: BackoffFn,
    attempts: u32,
) -> io::Result<()> {
    write_snapshot_parts(path, &[bytes], backoff, attempts)
}

/// [`write_snapshot`] for a snapshot held in parts, committed through
/// [`atomic_write_parts`].
fn write_snapshot_parts(
    path: &Path,
    parts: &[&[u8]],
    backoff: BackoffFn,
    attempts: u32,
) -> io::Result<()> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match atomic_write_parts(path, parts) {
            Ok(()) => return Ok(()),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < attempts {
                    std::thread::sleep(backoff(u64::from(attempt)));
                }
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("snapshot write made no attempts")))
}

/// Canonical stats rendering used for byte-for-byte comparison between a
/// served session and a single-process reference run. Excludes delta
/// sequence numbers (which depend on push cadence); includes every
/// counter and the exact MPKI bits.
pub fn canonical_stats(d: &Delta) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "accesses={} instructions={}",
        d.covered_to, d.instructions
    );
    for (i, row) in d.rows.iter().enumerate() {
        let s = &row.stats;
        let _ = writeln!(
            out,
            "{} accesses={} hits={} misses={} evictions={} writebacks={} bypasses={} mpki_bits={:016x}",
            row.name, s.accesses, s.hits, s.misses, s.evictions, s.writebacks, s.bypasses,
            d.mpki(i).to_bits()
        );
    }
    out
}

/// Single-threaded, single-process reference replay: the ground truth the
/// chaos drill compares daemon output against. Intentionally avoids the
/// worker pool, the session plumbing and the planned engines: every
/// policy steps a boxed-policy `SetAssocCache`.
///
/// # Errors
///
/// [`SessionError`] if the geometry or roster cannot be built.
pub fn reference_delta(
    accesses: &[Access],
    requested: &[String],
    registry: &Roster,
    spec: GeometrySpec,
) -> Result<Delta, SessionError> {
    let geom = geometry_of(&spec)?;
    let roster: Vec<String> = if requested.is_empty() {
        registry.iter().map(|(n, _)| n.clone()).collect()
    } else {
        requested.to_vec()
    };
    let policies = build_policies(&roster, registry, &geom)?;
    let mut rows = Vec::with_capacity(policies.len());
    for (name, policy) in roster.iter().zip(policies) {
        let mut eng = SetAssocCache::new(geom, policy);
        for a in accesses {
            eng.access_fast(a);
        }
        rows.push(PolicyRow {
            name: name.clone(),
            stats: *eng.stats(),
        });
    }
    Ok(Delta {
        seq: 0,
        covered_from: 0,
        covered_to: accesses.len() as u64,
        instructions: accesses.iter().map(|a| u64::from(a.icount_delta)).sum(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::AccessKind;

    fn spec() -> GeometrySpec {
        GeometrySpec {
            size_bytes: 64 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Deterministic access stream mixing hits, misses, and writebacks.
    fn stream(n: usize, seed: u64) -> Vec<Access> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = (state % 4096) * 64;
                let kind = match state % 5 {
                    0 => AccessKind::Write,
                    4 => AccessKind::Writeback,
                    _ => AccessKind::Read,
                };
                Access {
                    addr,
                    pc: (i as u64) * 4,
                    kind,
                    icount_delta: (state % 7) as u32 + 1,
                }
            })
            .collect()
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_policy_is_typed() {
        let reg = default_roster();
        let err = Session::new("t", spec(), false, 100, &names(&["NoSuch"]), &reg)
            .err()
            .unwrap();
        assert!(matches!(err, SessionError::UnknownPolicy(_)), "{err}");
    }

    #[test]
    fn bad_geometry_is_typed() {
        let reg = default_roster();
        let bad = GeometrySpec {
            size_bytes: 1000, // not a power of two
            ways: 16,
            line_bytes: 64,
        };
        let err = Session::new("t", bad, false, 100, &[], &reg).err().unwrap();
        assert!(matches!(err, SessionError::BadGeometry(_)), "{err}");
    }

    #[test]
    fn geometry_over_the_line_cap_is_refused_before_any_engine() {
        let reg = default_roster();
        let lines = |size_bytes, line_bytes| GeometrySpec {
            size_bytes,
            ways: 16,
            line_bytes,
        };
        // Exactly at the cap: opens (one policy keeps the test small).
        let at_cap = lines(MAX_SESSION_LINES * 64, 64);
        assert!(Session::new("t", at_cap, false, 100, &names(&["LRU"]), &reg).is_ok());
        // The next geometry up, by size or by a narrower line, and an
        // absurd one: refused as a bad geometry, whatever the roster.
        for over in [
            lines(MAX_SESSION_LINES * 128, 64),
            lines(MAX_SESSION_LINES * 64, 32),
            lines(1 << 62, 64),
        ] {
            let err = Session::new("t", over, false, 100, &[], &reg)
                .err()
                .unwrap();
            assert!(matches!(err, SessionError::BadGeometry(_)), "{err}");
        }
    }

    #[test]
    fn snapshot_naming_a_geometry_over_the_cap_is_typed() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 64, &names(&["LRU"]), &reg).unwrap();
        s.ingest(&stream(10, 3));
        // A CRC-valid snapshot whose metadata names a 2^40-byte LLC.
        s.config.geometry.size_bytes = 1 << 40;
        let snap = s.snapshot_bytes();
        assert!(matches!(
            Session::restore(&snap, &reg),
            Err(SnapshotError::Session(SessionError::BadGeometry(_)))
        ));
    }

    #[test]
    fn incompatible_policy_geometry_is_typed_not_a_panic() {
        let reg = default_roster();
        // WI-GIPPR's IPV is 16-way; an 8-way geometry makes its factory
        // panic, which the session must absorb into a typed error.
        let eight_way = GeometrySpec {
            size_bytes: 64 * 1024,
            ways: 8,
            line_bytes: 64,
        };
        let err = Session::new("t", eight_way, false, 100, &names(&["WI-GIPPR"]), &reg)
            .err()
            .unwrap();
        assert!(matches!(err, SessionError::PolicyConstruction(_)), "{err}");
    }

    /// `accesses` as KV operations, one key per line address.
    fn kv_ops(accesses: &[Access]) -> Vec<KvOp> {
        accesses
            .iter()
            .map(|a| KvOp {
                write: a.kind == AccessKind::Write,
                key: format!("k{}", a.addr / 64),
            })
            .collect()
    }

    /// Feeds `accesses` in 50-access frames at fan-out `width`, on an
    /// address or a KV session (its frames lowered as the server lowers
    /// them); returns every delta, the final cut last.
    fn deltas_at(width: usize, kv_mode: bool, accesses: &[Access]) -> Vec<Delta> {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), kv_mode, 100, &[], &reg).unwrap();
        let line = u64::from(spec().line_bytes);
        let ops = kv_ops(accesses);
        let mut deltas = Vec::new();
        for (chunk, ops) in accesses.chunks(50).zip(ops.chunks(50)) {
            deltas.extend(if kv_mode {
                let lowered: Vec<Access> =
                    ops.iter().map(|op| kv::op_to_access(op, line)).collect();
                s.ingest_at(&lowered, width)
            } else {
                s.ingest_at(chunk, width)
            });
        }
        deltas.push(s.cut_delta());
        deltas
    }

    #[test]
    fn deltas_cut_on_boundary_and_match_reference() {
        let reg = default_roster();
        let accesses = stream(250, 7);
        for kv_mode in [false, true] {
            // Width 1 is the per-session loop, full width the pool fan-out.
            let deltas = deltas_at(usize::MAX, kv_mode, &accesses);
            assert_eq!(
                deltas,
                deltas_at(1, kv_mode, &accesses),
                "kv {kv_mode}: width 1 and full width must cut identical deltas"
            );
            // 250 accesses at delta_every=100: deltas after 100 and 200,
            // then the final cut.
            assert_eq!(deltas.len(), 3);
            assert_eq!(deltas[0].seq, 0);
            assert_eq!((deltas[0].covered_from, deltas[0].covered_to), (0, 100));
            assert_eq!((deltas[1].covered_from, deltas[1].covered_to), (100, 200));
            assert_eq!(deltas[2].covered_to, 250);

            let line = u64::from(spec().line_bytes);
            let lowered: Vec<Access> = if kv_mode {
                let ops = kv_ops(&accesses);
                ops.iter().map(|op| kv::op_to_access(op, line)).collect()
            } else {
                accesses.clone()
            };
            let reference = reference_delta(&lowered, &[], &reg, spec()).unwrap();
            assert_eq!(
                canonical_stats(&deltas[2]),
                canonical_stats(&reference),
                "kv {kv_mode}: the fan-out must equal the sequential reference"
            );
        }
    }

    #[test]
    fn mixed_roster_fans_out_mono_first_and_matches_reference() {
        // A registry that interleaves mono baselines with kernel members,
        // so the pooled order differs from roster order.
        use sim_core::policy::factory;
        let mut reg = default_roster();
        reg.insert(
            0,
            (
                "SHiP".into(),
                factory(|g| Box::new(baselines::ShipPolicy::new(g))),
            ),
        );
        reg.insert(
            2,
            (
                "AWRP".into(),
                factory(|g| Box::new(baselines::AwrpPolicy::new(g))),
            ),
        );
        reg.insert(
            4,
            (
                "ARC".into(),
                factory(|g| Box::new(baselines::ArcPolicy::new(g))),
            ),
        );
        let accesses = stream(250, 11);
        let run = |width: usize| {
            let mut s = Session::new("t", spec(), false, 100, &[], &reg).unwrap();
            assert_eq!(s.order, [0, 2, 4, 1, 3, 5, 6, 7], "mono engines first");
            let mut deltas: Vec<Delta> = accesses
                .chunks(50)
                .filter_map(|chunk| s.ingest_at(chunk, width))
                .collect();
            deltas.push(s.cut_delta());
            deltas
        };
        let pooled = run(usize::MAX);
        assert_eq!(
            pooled,
            run(1),
            "width 1 and full width must cut identical deltas"
        );
        let reference = reference_delta(&accesses, &[], &reg, spec()).unwrap();
        assert_eq!(
            canonical_stats(pooled.last().unwrap()),
            canonical_stats(&reference)
        );
    }

    #[test]
    fn kernel_policies_run_sliced_engines() {
        let reg = default_roster();
        let s = Session::new("t", spec(), false, 100, &[], &reg).unwrap();
        for (name, eng) in s.config().roster.iter().zip(&s.engines) {
            // Every default-roster member, FIFO included, has a kernel.
            assert!(eng.lock().unwrap().is_sliced(), "{name}");
        }
    }

    #[test]
    fn kv_mode_matches_hand_lowered_stream() {
        let reg = default_roster();
        let roster = names(&["LRU", "PseudoLRU"]);
        let mut s = Session::new("t", spec(), true, 1000, &roster, &reg).unwrap();
        let ops: Vec<KvOp> = (0..200)
            .map(|i| KvOp {
                write: i % 3 == 0,
                key: format!("user:{}", i % 40),
            })
            .collect();
        s.ingest_kv(&ops);
        let lowered: Vec<Access> = ops.iter().map(|op| kv::op_to_access(op, 64)).collect();
        let reference = reference_delta(&lowered, &roster, &reg, spec()).unwrap();
        assert_eq!(canonical_stats(&s.cut_delta()), canonical_stats(&reference));
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let reg = default_roster();
        let accesses = stream(300, 42);
        let (head, tail) = accesses.split_at(180);

        // Uninterrupted session.
        let mut full = Session::new("t", spec(), false, 64, &[], &reg).unwrap();
        full.ingest(head);
        let snap = full.snapshot_bytes();
        full.ingest(tail);

        // Killed-and-restored session finishing the same stream.
        let mut resumed = Session::restore(&snap, &reg).unwrap();
        assert_eq!(resumed.ingested(), 180);
        assert_eq!(resumed.config().tenant, "t");
        resumed.ingest(tail);

        assert_eq!(
            canonical_stats(&full.cut_delta()),
            canonical_stats(&resumed.cut_delta())
        );
        // Stronger: the snapshots the two sessions would write next are
        // byte-identical too.
        assert_eq!(full.snapshot_bytes(), resumed.snapshot_bytes());
    }

    #[test]
    fn malformed_snapshots_are_typed_never_panic() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 64, &names(&["LRU"]), &reg).unwrap();
        s.ingest(&stream(50, 3));
        let good = s.snapshot_bytes();

        // Truncations at every prefix length.
        for cut in 0..good.len() {
            let _ = Session::restore(&good[..cut], &reg);
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Session::restore(&bad, &reg),
            Err(SnapshotError::BadMagic)
        ));
        // Meta corruption trips the meta CRC.
        let mut bad = good.clone();
        bad[14] ^= 0x01;
        assert!(matches!(
            Session::restore(&bad, &reg),
            Err(SnapshotError::MetaCrc)
        ));
        // Journal corruption trips the container CRC chain.
        let mut bad = good.clone();
        let late = good.len() - 20;
        bad[late] ^= 0x01;
        assert!(matches!(
            Session::restore(&bad, &reg),
            Err(SnapshotError::Journal(_))
        ));
        // Single-bit flips anywhere must never panic and never restore a
        // session that then lies about its length.
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 0x04;
            let _ = Session::restore(&flipped, &reg);
        }
    }

    #[test]
    fn snapshot_roster_mismatch_is_typed() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 64, &names(&["LRU"]), &reg).unwrap();
        s.ingest(&stream(10, 3));
        let snap = s.snapshot_bytes();
        let empty: Roster = Vec::new();
        assert!(matches!(
            Session::restore(&snap, &empty),
            Err(SnapshotError::Session(SessionError::UnknownPolicy(_)))
        ));
    }

    #[test]
    fn write_snapshot_retries_then_succeeds() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let dir = std::env::temp_dir().join(format!("sim-serve-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.ssn");
        let zero = |_attempt: u64| Duration::from_millis(0);
        sim_fault::with_plan("enospc@tenant.ssn:n=1;enospc@tenant.ssn:n=2", || {
            write_snapshot(&path, b"payload", zero, 4).unwrap();
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_snapshot_sticky_enospc_exhausts_and_preserves_old() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let dir = std::env::temp_dir().join(format!("sim-serve-enospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.ssn");
        std::fs::write(&path, b"old-good-snapshot").unwrap(); // lint: direct-write (test fixture)
        let zero = |_attempt: u64| Duration::from_millis(0);
        sim_fault::with_plan("enospc@tenant.ssn:sticky", || {
            let err = write_snapshot(&path, b"new", zero, 3).unwrap_err();
            assert!(err.to_string().contains("no space left"), "{err}");
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"old-good-snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn best_policy_is_reported() {
        let reg = default_roster();
        let mut s = Session::new("t", spec(), false, 1000, &[], &reg).unwrap();
        s.ingest(&stream(500, 11));
        let (name, mpki) = s.best().unwrap();
        assert!(s.config().roster.contains(&name));
        assert!(mpki.is_finite());
    }
}
