//! The serving daemon: listeners, per-connection threads, the session
//! registry, and the cross-tenant leaderboard.
//!
//! # Connection anatomy
//!
//! Every accepted connection gets three threads:
//!
//! * a **reader** that decodes frames and resolves the session, feeding
//!   access batches into a *bounded* ingest channel (`sync_channel`) —
//!   when replay falls behind, the reader blocks, the socket stops being
//!   drained, and TCP pushes back on the client: explicit end-to-end
//!   backpressure with O(bound) memory;
//! * a **replayer** that owns the tenant's [`Session`], fans batches
//!   over its share of the worker pool, cuts deltas into the bounded
//!   [`SharedOutbox`], and writes periodic snapshots. The share is the
//!   pool's executor budget divided among the replayers inside a replay
//!   step right now, rounded up: a lone tenant uses every core, and with
//!   as many busy tenants as cores each feeds its engines on its own
//!   thread, with no pool job or straggler wait. When it falls
//!   behind, it merges the frames already queued into one ingest (one
//!   fan-out): **ingest batching**, which stops at a change of frame
//!   kind and at the next delta or snapshot boundary, so every delta and
//!   snapshot is cut exactly where frame-by-frame replay would cut it;
//! * a **writer** that drains the outbox onto the socket. A slow client
//!   leaves the writer blocked, the outbox coalesces, and the client
//!   eventually sees a merged delta plus a `Throttled` frame.
//!
//! # Failure behavior
//!
//! Malformed frames are answered with typed `Error` frames; socket-level
//! failures (including injected `sim-fault` connection faults) tear down
//! only that connection, after which the replayer parks the session back
//! in the registry and snapshots it — so a mid-stream disconnect costs the
//! tenant nothing but the partial batch in flight. A park writes the
//! snapshot only if the session changed since its last successful one, so
//! a `Finish` (which snapshots) followed by `Bye` writes it once. Idle
//! and half-open connections are expired by the deadline wheel. Accept
//! failures are logged and survived. Snapshot write failures retry with
//! backoff; a persistently failing disk degrades the session to ephemeral
//! with a `Warning` frame instead of killing the tenant.

use crate::backpressure::SharedOutbox;
use crate::protocol::{
    error_code_for, recv_client, recv_client_lowered, send_server, warning, ClientFrame, ErrorCode,
    Hello, Inbound, LeaderboardRow, ProtoError, ServerFrame, PROTOCOL_VERSION,
};
use crate::session::{Roster, Session, SnapshotError};
use sim_core::Access;
use sim_fault::{ConnFault, ConnOp};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default snapshot-retry backoff: 10 ms doubling, capped at 640 ms. The
/// harness daemon passes `pipeline::retry_backoff` instead so the whole
/// pipeline shares one tunable schedule.
fn default_backoff(attempt: u64) -> Duration {
    Duration::from_millis(10u64.saturating_mul(1 << attempt.min(6)))
}

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Label prefix for this server's fault-injection points: connection
    /// I/O is labeled `{label}.conn{N}`, so fault plans (and tests sharing
    /// a process) can target one server instance precisely.
    pub label: String,
    /// Directory for per-tenant session snapshots; `None` disables
    /// persistence entirely (all sessions ephemeral).
    pub snapshot_dir: Option<PathBuf>,
    /// Backoff schedule between snapshot write retries.
    pub backoff: crate::session::BackoffFn,
    /// Snapshot write attempts before a session degrades to ephemeral.
    pub snapshot_attempts: u32,
    /// Snapshot every N ingested accesses per session (0 = only on
    /// finish/disconnect).
    pub snapshot_every: u64,
    /// Delta cadence for sessions whose `Hello` asked for the default.
    pub default_delta_every: u64,
    /// Bound on each session's delta outbox (deltas queued before
    /// coalescing starts).
    pub outbox_bound: usize,
    /// Bound on each connection's ingest channel (batches in flight
    /// between reader and replayer).
    pub ingest_bound: usize,
    /// Idle/half-open connection timeout.
    pub idle_timeout: Duration,
    /// Deadline-wheel tick length (timeout granularity).
    pub tick: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            label: "serve".to_string(),
            snapshot_dir: None,
            backoff: default_backoff,
            snapshot_attempts: 5,
            snapshot_every: 0,
            default_delta_every: 4096,
            outbox_bound: 8,
            ingest_bound: 16,
            idle_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(20),
        }
    }
}

// ---------------------------------------------------------------------------
// Socket abstraction (TCP or Unix) with fault-injected I/O.

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Socket wrapper consulting the `sim-fault` connection points before
/// every read and write, so short reads/writes, mid-frame disconnects,
/// and stalls are injectable deterministically. Once a fault breaks the
/// stream it stays broken, like a real severed connection.
struct FaultStream {
    inner: Stream,
    label: String,
    broken: bool,
}

impl FaultStream {
    fn new(inner: Stream, label: String) -> Self {
        FaultStream {
            inner,
            label,
            broken: false,
        }
    }

    fn sever(&mut self) -> io::Error {
        self.broken = true;
        self.inner.shutdown();
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected connection fault ({})", self.label),
        )
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "connection previously severed",
            ));
        }
        match sim_fault::on_conn(ConnOp::Read, &self.label) {
            ConnFault::None => self.inner.read(buf),
            ConnFault::Short(keep) => {
                // Deliver a prefix, then the line goes dead: the classic
                // half-frame a robust reader must treat as truncation.
                let keep = keep.unwrap_or(buf.len() / 2).min(buf.len());
                if keep == 0 {
                    return Err(self.sever());
                }
                let n = self.inner.read(&mut buf[..keep])?;
                self.broken = true;
                self.inner.shutdown();
                Ok(n)
            }
            ConnFault::Disconnect => Err(self.sever()),
            ConnFault::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(buf)
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection previously severed",
            ));
        }
        match sim_fault::on_conn(ConnOp::Write, &self.label) {
            ConnFault::None => self.inner.write(buf),
            ConnFault::Short(keep) => {
                let keep = keep.unwrap_or(buf.len() / 2).min(buf.len());
                if keep == 0 {
                    return Err(self.sever());
                }
                let n = self.inner.write(&buf[..keep])?;
                self.broken = true;
                self.inner.shutdown();
                Ok(n)
            }
            ConnFault::Disconnect => Err(self.sever()),
            ConnFault::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Shared server state.

/// A tenant's slot in the session registry.
enum Slot {
    /// A connection currently owns the session.
    Attached,
    /// Parked between connections, ready to resume.
    Detached(Box<Session>),
}

struct Shared {
    registry: Roster,
    config: ServerConfig,
    sessions: Mutex<HashMap<String, Slot>>,
    leaderboard: Mutex<HashMap<String, LeaderboardRow>>,
    wheel: Mutex<crate::wheel::DeadlineWheel>,
    /// Live connections, keyed by connection id: the deadline wheel and
    /// server shutdown sever sockets through this map.
    conns: Mutex<HashMap<u64, Stream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// Replay loops inside a replay step right now: each step fans its
    /// session over [`fan_width`] of the pool for this count.
    busy: AtomicUsize,
}

impl Shared {
    fn tick_now(&self) -> u64 {
        (self.started.elapsed().as_nanos() / self.config.tick.as_nanos().max(1)) as u64
    }

    fn idle_ticks(&self) -> u64 {
        let t = self.config.tick.as_nanos().max(1);
        self.config.idle_timeout.as_nanos().div_ceil(t) as u64 + 1
    }

    /// Records activity on `conn_id`: its idle deadline moves out.
    fn touch(&self, conn_id: u64) {
        let deadline = self.tick_now() + self.idle_ticks();
        lock(&self.wheel).schedule(conn_id, deadline);
    }

    fn snapshot_path(&self, tenant: &str) -> Option<PathBuf> {
        let dir = self.config.snapshot_dir.as_ref()?;
        let safe: String = tenant
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        Some(dir.join(format!("{safe}.ssn")))
    }

    /// Writes `session`'s snapshot with retry; on exhaustion degrades the
    /// session to ephemeral and reports the degradation through `outbox`
    /// (when a connection is attached to hear it). The snapshot streams
    /// from the session's journal blocks; no copy of the journal is built.
    /// A state already on disk is not written again, so the detach after
    /// a `Finish` costs nothing.
    fn snapshot_session(&self, session: &mut Session, outbox: Option<&SharedOutbox>) {
        if session.is_ephemeral() || session.is_persisted() {
            return;
        }
        let Some(path) = self.snapshot_path(session.config().tenant.as_str()) else {
            return;
        };
        match session.save_snapshot(&path, self.config.backoff, self.config.snapshot_attempts) {
            Ok(()) => session.mark_persisted(),
            Err(e) => {
                // Graceful degradation: the tenant keeps streaming, only
                // crash-resumability is lost — and the client is told.
                session.degrade_to_ephemeral();
                eprintln!(
                    "sim-serve: snapshot of tenant {:?} failed after {} attempts ({e}); session now ephemeral",
                    session.config().tenant,
                    self.config.snapshot_attempts
                );
                if let Some(outbox) = outbox {
                    outbox.push_control(ServerFrame::Warning {
                        code: warning::SNAPSHOT_DEGRADED,
                        message: format!(
                            "snapshots failing ({e}); session is now ephemeral and will not survive a daemon restart"
                        ),
                    });
                }
            }
        }
    }

    fn update_leaderboard(&self, session: &Session) {
        if let Some((best_policy, mpki)) = session.best() {
            let tenant = session.config().tenant.clone();
            lock(&self.leaderboard).insert(
                tenant.clone(),
                LeaderboardRow {
                    tenant,
                    best_policy,
                    accesses: session.ingested(),
                    mpki,
                },
            );
        }
    }

    fn leaderboard_rows(&self) -> Vec<LeaderboardRow> {
        let mut rows: Vec<LeaderboardRow> = lock(&self.leaderboard).values().cloned().collect();
        rows.sort_by(|a, b| a.mpki.total_cmp(&b.mpki).then(a.tenant.cmp(&b.tenant)));
        rows
    }

    /// Parks a session back into the registry (and persists it).
    fn detach(&self, mut session: Box<Session>, outbox: Option<&SharedOutbox>) {
        self.update_leaderboard(&session);
        self.snapshot_session(&mut session, outbox);
        let tenant = session.config().tenant.clone();
        lock(&self.sessions).insert(tenant, Slot::Detached(session));
    }
}

/// Locks a mutex, surviving poisoning (a panicked connection thread must
/// not wedge the whole daemon).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// The server proper.

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Entry point: bind a listener and run the daemon threads.
pub struct Server;

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port) and starts
    /// serving `registry` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind_tcp(
        addr: &str,
        registry: Roster,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr().ok();
        Self::start(Listener::Tcp(listener), local, registry, config)
    }

    /// Binds a Unix-domain listener at `path`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind_unix(
        path: &Path,
        registry: Roster,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Self::start(Listener::Unix(listener), None, registry, config)
    }

    fn start(
        listener: Listener,
        local: Option<SocketAddr>,
        registry: Roster,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let mut sessions = HashMap::new();
        if let Some(dir) = &config.snapshot_dir {
            std::fs::create_dir_all(dir)?;
            restore_sessions(dir, &registry, &mut sessions);
        }
        let shared = Arc::new(Shared {
            registry,
            config,
            sessions: Mutex::new(sessions),
            leaderboard: Mutex::new(HashMap::new()),
            wheel: Mutex::new(crate::wheel::DeadlineWheel::new(256)),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(1),
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            busy: AtomicUsize::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let sweeper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sweep_loop(shared))
        };
        Ok(ServerHandle {
            shared,
            local,
            threads: vec![accept, sweeper],
        })
    }
}

/// Loads every `*.ssn` snapshot in `dir` as a detached session. Damaged
/// snapshots are reported and skipped — one bad file must not take the
/// daemon down.
fn restore_sessions(dir: &Path, registry: &Roster, sessions: &mut HashMap<String, Slot>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("sim-serve: cannot scan snapshot dir {}: {e}", dir.display());
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("ssn") {
            continue;
        }
        let restore = std::fs::File::open(&path)
            .map_err(|e| SnapshotError::Journal(traces::TraceError::Io(e)))
            .and_then(|file| Session::restore_from(io::BufReader::new(file), registry));
        match restore {
            Ok(mut session) => {
                // The file it came from already holds this state.
                session.mark_persisted();
                let tenant = session.config().tenant.clone();
                eprintln!(
                    "sim-serve: resumed session for tenant {:?} at {} accesses",
                    tenant,
                    session.ingested()
                );
                sessions.insert(tenant, Slot::Detached(Box::new(session)));
            }
            Err(e) => {
                eprintln!(
                    "sim-serve: skipping damaged snapshot {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// A running server: address, registry access, and shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (None for Unix listeners).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local
    }

    /// Number of sessions currently in the registry (attached or parked).
    pub fn session_count(&self) -> usize {
        lock(&self.shared.sessions).len()
    }

    /// Current cross-tenant leaderboard, best MPKI first.
    pub fn leaderboard(&self) -> Vec<LeaderboardRow> {
        self.shared.leaderboard_rows()
    }

    /// Stops accepting, severs live connections, parks and snapshots
    /// every session, and joins all daemon threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for (_, stream) in lock(&self.shared.conns).drain() {
            stream.shutdown();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let handlers: Vec<_> = lock(&self.shared.handlers).drain(..).collect();
        for t in handlers {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let accepted: io::Result<Stream> = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                let label = format!("{}.conn{conn_id}", shared.config.label);
                if sim_fault::on_accept(&label) {
                    // Injected accept failure: drop the connection on the
                    // floor and keep serving everyone else.
                    eprintln!("sim-serve: injected accept failure for {label}");
                    continue;
                }
                if let Stream::Tcp(s) = &stream {
                    let _ = s.set_nodelay(true);
                }
                let shared2 = Arc::clone(&shared);
                let handle =
                    std::thread::spawn(move || handle_connection(stream, conn_id, label, shared2));
                lock(&shared.handlers).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                // Real accept failure (EMFILE and friends): log, breathe,
                // keep the daemon alive for existing sessions.
                eprintln!("sim-serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn sweep_loop(shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.config.tick);
        let now = shared.tick_now();
        let expired = lock(&shared.wheel).advance(now);
        for conn_id in expired {
            if let Some(stream) = lock(&shared.conns).remove(&conn_id) {
                eprintln!("sim-serve: closing idle/half-open connection {conn_id}");
                stream.shutdown();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection machinery.

/// What the reader hands the replayer through the bounded ingest channel.
enum Ingest {
    Batch(Vec<Access>),
    /// A `KvBatch`, lowered by the reader.
    Kv(Vec<Access>),
    /// Client asked for a flush: final delta + leaderboard + snapshot.
    Finish,
}

fn handle_connection(stream: Stream, conn_id: u64, label: String, shared: Arc<Shared>) {
    // Register for deadline-wheel shutdown and arm the idle timeout.
    match stream.try_clone() {
        Ok(clone) => {
            lock(&shared.conns).insert(conn_id, clone);
        }
        Err(e) => {
            eprintln!("sim-serve: cannot clone {label}: {e}");
            return;
        }
    }
    shared.touch(conn_id);

    let result = serve_connection(&stream, &label, conn_id, &shared);
    if let Err(e) = result {
        eprintln!("sim-serve: {label} closed: {e}");
    }
    lock(&shared.conns).remove(&conn_id);
    lock(&shared.wheel).cancel(conn_id);
    stream.shutdown();
}

/// Runs one connection to completion. The returned error is for the log;
/// every client-visible failure has already been answered with a typed
/// frame where the socket allowed it.
fn serve_connection(
    stream: &Stream,
    label: &str,
    conn_id: u64,
    shared: &Arc<Shared>,
) -> Result<(), ProtoError> {
    // Distinct read/write labels so fault plans can hit one direction
    // (e.g. stall only server->client writes to force coalescing).
    let mut reader = FaultStream::new(
        stream.try_clone().map_err(ProtoError::Io)?,
        format!("{label}.r"),
    );
    let writer = FaultStream::new(
        stream.try_clone().map_err(ProtoError::Io)?,
        format!("{label}.w"),
    );

    let outbox = Arc::new(SharedOutbox::new(shared.config.outbox_bound));
    let writer_thread = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || writer_loop(writer, outbox))
    };
    // Everything below must close the outbox on exit so the writer thread
    // terminates; a drop guard survives every early return.
    struct CloseOnDrop(Arc<SharedOutbox>, Option<JoinHandle<()>>);
    impl Drop for CloseOnDrop {
        fn drop(&mut self) {
            self.0.close();
            if let Some(t) = self.1.take() {
                let _ = t.join();
            }
        }
    }
    let _closer = CloseOnDrop(Arc::clone(&outbox), Some(writer_thread));

    // --- Handshake -------------------------------------------------------
    let hello = match recv_client(&mut reader) {
        Ok(ClientFrame::Hello(h)) => h,
        Ok(_) => {
            outbox.push_control(ServerFrame::Error {
                code: ErrorCode::Protocol,
                message: "expected Hello".into(),
            });
            return Ok(());
        }
        Err(e) => {
            outbox.push_control(ServerFrame::Error {
                code: error_code_for(&e),
                message: e.to_string(),
            });
            return Err(e);
        }
    };
    shared.touch(conn_id);

    let (session, resumed) = match open_session(shared, &hello) {
        Ok(pair) => pair,
        Err((code, message)) => {
            outbox.push_control(ServerFrame::Error { code, message });
            return Ok(());
        }
    };
    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    outbox.push_control(ServerFrame::HelloAck {
        session: session_id,
        resumed,
        roster: session.config().roster.clone(),
    });

    // --- Replayer --------------------------------------------------------
    let line_bytes = u64::from(session.config().geometry.line_bytes);
    let (tx, rx): (SyncSender<Ingest>, Receiver<Ingest>) =
        sync_channel(shared.config.ingest_bound.max(1));
    let replayer = {
        let shared = Arc::clone(shared);
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || replay_loop(session, rx, outbox, shared))
    };

    // --- Read loop -------------------------------------------------------
    let mut result = Ok(());
    loop {
        match recv_client_lowered(&mut reader, line_bytes) {
            Ok(Inbound::Frame(ClientFrame::Accesses(batch))) => {
                shared.touch(conn_id);
                if tx.send(Ingest::Batch(batch)).is_err() {
                    break; // replayer gone (panic); connection is over
                }
            }
            Ok(Inbound::Kv(batch)) => {
                shared.touch(conn_id);
                if tx.send(Ingest::Kv(batch)).is_err() {
                    break;
                }
            }
            Ok(Inbound::Frame(ClientFrame::Finish)) => {
                shared.touch(conn_id);
                if tx.send(Ingest::Finish).is_err() {
                    break;
                }
            }
            Ok(Inbound::Frame(ClientFrame::Bye)) => {
                outbox.push_control(ServerFrame::Bye);
                break;
            }
            Ok(Inbound::Frame(ClientFrame::KvBatch(_))) => {
                unreachable!("recv_client_lowered lowers every KvBatch")
            }
            Ok(Inbound::Frame(ClientFrame::Hello(_))) => {
                outbox.push_control(ServerFrame::Error {
                    code: ErrorCode::Protocol,
                    message: "session already open".into(),
                });
                break;
            }
            Err(e @ (ProtoError::Io(_) | ProtoError::Truncated)) => {
                // The socket is gone (or mid-frame dead): nothing to
                // answer; the replayer will park and snapshot the session.
                result = Err(e);
                break;
            }
            Err(e) => {
                // Malformed but transport-intact input: typed error, then
                // close. Never a panic, never a hang.
                outbox.push_control(ServerFrame::Error {
                    code: error_code_for(&e),
                    message: e.to_string(),
                });
                result = Err(e);
                break;
            }
        }
    }
    drop(tx); // replayer drains the channel, then parks the session
    let _ = replayer.join();
    result
}

/// Resolves a `Hello` into a session: resume a parked one, or build a
/// fresh one. Attached sessions reject a second connection.
fn open_session(
    shared: &Shared,
    hello: &Hello,
) -> Result<(Box<Session>, u64), (ErrorCode, String)> {
    if hello.version != PROTOCOL_VERSION {
        return Err((
            ErrorCode::BadHello,
            format!(
                "protocol version {} unsupported (server speaks {PROTOCOL_VERSION})",
                hello.version
            ),
        ));
    }
    if hello.tenant.is_empty() {
        return Err((ErrorCode::BadHello, "empty tenant".into()));
    }
    let mut sessions = lock(&shared.sessions);
    match sessions.get(&hello.tenant) {
        Some(Slot::Attached) => {
            return Err((
                ErrorCode::SessionBusy,
                format!("tenant {:?} already has a live connection", hello.tenant),
            ));
        }
        Some(Slot::Detached(_)) if hello.resume => {
            let Some(Slot::Detached(session)) =
                sessions.insert(hello.tenant.clone(), Slot::Attached)
            else {
                unreachable!("slot checked above");
            };
            if session.config().kv_mode != hello.kv_mode {
                // Put it back; resuming under a different mode would make
                // the journal lie.
                let msg = format!(
                    "session was {} mode",
                    if session.config().kv_mode {
                        "kv"
                    } else {
                        "address"
                    }
                );
                sessions.insert(hello.tenant.clone(), Slot::Detached(session));
                return Err((ErrorCode::BadHello, msg));
            }
            let resumed = session.ingested();
            return Ok((session, resumed));
        }
        _ => {}
    }
    // Fresh session (an unresumed parked one is discarded: the tenant
    // explicitly started over).
    let delta_every = if hello.delta_every == 0 {
        shared.config.default_delta_every
    } else {
        hello.delta_every
    };
    let session = Session::new(
        &hello.tenant,
        hello.geometry,
        hello.kv_mode,
        delta_every,
        &hello.roster,
        &shared.registry,
    )
    .map_err(|e| {
        let code = match e {
            crate::session::SessionError::UnknownPolicy(_) => ErrorCode::UnknownPolicy,
            _ => ErrorCode::BadHello,
        };
        (code, e.to_string())
    })?;
    sessions.insert(hello.tenant.clone(), Slot::Attached);
    Ok((Box::new(session), 0))
}

/// Ingest batching: merges the frames already waiting in `rx` into
/// `first`, so one [`Session::ingest`] (one fan-out) replays
/// them all. Merging stops at a change of frame kind, never takes a
/// `Finish` or a `KvBatch` bound for an address session (each of those is
/// handled alone), and stops at the frame that reaches `room` accesses,
/// the next delta or snapshot boundary. Deltas and snapshots are
/// therefore cut at exactly the points frame-by-frame replay cuts them.
/// Returns the merged message and the waiting message that could not
/// join it, if one was taken off the channel.
fn batch_ingest(
    first: Ingest,
    rx: &Receiver<Ingest>,
    room: u64,
    kv_session: bool,
) -> (Ingest, Option<Ingest>) {
    let mut merged = first;
    loop {
        let len = match &merged {
            Ingest::Batch(batch) => batch.len(),
            Ingest::Kv(batch) if kv_session => batch.len(),
            _ => return (merged, None),
        };
        if len as u64 >= room {
            return (merged, None);
        }
        let Ok(next) = rx.try_recv() else {
            return (merged, None);
        };
        match (&mut merged, next) {
            (Ingest::Batch(batch), Ingest::Batch(more)) | (Ingest::Kv(batch), Ingest::Kv(more)) => {
                batch.extend_from_slice(&more)
            }
            (_, other) => return (merged, Some(other)),
        }
    }
}

/// Owns the session for the life of the connection: replays batches, cuts
/// deltas, snapshots, and parks the session on the way out.
fn replay_loop(
    mut session: Box<Session>,
    rx: Receiver<Ingest>,
    outbox: Arc<SharedOutbox>,
    shared: Arc<Shared>,
) {
    let tenant = session.config().tenant.clone();
    let mut last_snapshot_at = session.ingested();
    let mut panicked = false;
    let mut held = None;
    while let Some(first) = held.take().or_else(|| rx.recv().ok()) {
        let every = shared.config.snapshot_every;
        let mut room = session.until_delta();
        if every > 0 {
            room = room.min((last_snapshot_at + every).saturating_sub(session.ingested()));
        }
        let (msg, next) = batch_ingest(first, &rx, room, session.config().kv_mode);
        held = next;
        let busy = shared.busy.fetch_add(1, Ordering::SeqCst) + 1;
        let width = fan_width(sim_core::pool::global().cap(), busy);
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay_step(
                &mut session,
                msg,
                &outbox,
                &shared,
                &mut last_snapshot_at,
                width,
            )
        }));
        shared.busy.fetch_sub(1, Ordering::SeqCst);
        if step.is_err() {
            panicked = true;
            break;
        }
    }
    if panicked {
        // A policy panicked mid-replay: free the tenant's slot so a
        // reconnect starts fresh instead of wedging on Attached.
        eprintln!("sim-serve: replay for tenant {tenant:?} panicked; session dropped");
        lock(&shared.sessions).remove(&tenant);
    } else {
        shared.detach(session, Some(&outbox));
    }
    outbox.close();
}

/// The fan-out width of one replay step while `busy` sessions (this one
/// included) are inside a step: an even share of the pool's `cap`
/// executor slots, rounded up, and at least 1. One busy session fans over
/// the whole pool; `cap` or more each replay on their own thread.
fn fan_width(cap: usize, busy: usize) -> usize {
    cap.div_ceil(busy.max(1)).max(1)
}

/// One merged ingest message: replays it over `width` threads, cuts
/// the delta it owes and writes a periodic snapshot when one is due.
fn replay_step(
    session: &mut Session,
    msg: Ingest,
    outbox: &SharedOutbox,
    shared: &Shared,
    last_snapshot_at: &mut u64,
    width: usize,
) {
    let delta = match msg {
        Ingest::Batch(batch) => session.ingest_at(&batch, width),
        Ingest::Kv(batch) => {
            if !session.config().kv_mode {
                outbox.push_control(ServerFrame::Error {
                    code: ErrorCode::Protocol,
                    message: "KvBatch on a non-kv session".into(),
                });
                return;
            }
            session.ingest_at(&batch, width)
        }
        Ingest::Finish => {
            let delta = session.cut_delta();
            shared.update_leaderboard(session);
            shared.snapshot_session(session, Some(outbox));
            *last_snapshot_at = session.ingested();
            outbox.push_control(ServerFrame::Final {
                delta,
                leaderboard: shared.leaderboard_rows(),
            });
            return;
        }
    };
    if let Some(d) = delta {
        outbox.push_delta(d);
    }
    let every = shared.config.snapshot_every;
    if every > 0 && session.ingested() - *last_snapshot_at >= every {
        shared.snapshot_session(session, Some(outbox));
        *last_snapshot_at = session.ingested();
    }
}

/// Drains the outbox onto the socket until closed-and-empty or the socket
/// dies.
fn writer_loop(mut sink: FaultStream, outbox: Arc<SharedOutbox>) {
    loop {
        match outbox.pop_wait(Duration::from_millis(50)) {
            Some(frame) => {
                if send_server(&mut sink, &frame).is_err() {
                    // Socket dead: stop draining; the reader side tears
                    // the connection down and parks the session.
                    return;
                }
            }
            None => {
                if outbox.finished() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> Ingest {
        Ingest::Batch(vec![Access::read(0, 0); n])
    }

    fn kv(n: usize) -> Ingest {
        Ingest::Kv(vec![Access::read(0, 0).with_icount_delta(1); n])
    }

    /// A channel already holding `msgs`, as the reader would have left it.
    fn queued(msgs: Vec<Ingest>) -> Receiver<Ingest> {
        let (tx, rx) = sync_channel(msgs.len().max(1));
        for m in msgs {
            assert!(tx.send(m).is_ok());
        }
        rx
    }

    fn len(m: &Ingest) -> Option<usize> {
        match m {
            Ingest::Batch(b) => Some(b.len()),
            Ingest::Kv(batch) => Some(batch.len()),
            Ingest::Finish => None,
        }
    }

    #[test]
    fn a_busy_session_fans_over_its_share_of_the_pool() {
        for cap in [1usize, 2, 3, 8] {
            // Alone, a session fans over the whole pool ...
            assert_eq!(fan_width(cap, 1), cap);
            // ... and with `cap` or more sessions busy, each replays on
            // its own thread.
            for busy in cap..cap + 3 {
                assert_eq!(fan_width(cap, busy), 1, "cap {cap}, busy {busy}");
            }
        }
        // In between, an even share rounded up.
        assert_eq!(fan_width(8, 3), 3);
        assert_eq!(fan_width(8, 2), 4);
    }

    #[test]
    fn merges_through_the_frame_that_reaches_the_boundary() {
        let rx = queued(vec![batch(10), batch(10), batch(10), batch(10)]);
        let (merged, held) = batch_ingest(batch(10), &rx, 35, false);
        assert_eq!(len(&merged), Some(40), "stops after crossing 35");
        assert!(held.is_none());
        assert_eq!(rx.try_iter().count(), 1, "the last frame stays queued");

        // A first frame already at the boundary merges nothing.
        let rx = queued(vec![batch(1)]);
        let (merged, _) = batch_ingest(batch(35), &rx, 35, false);
        assert_eq!(len(&merged), Some(35));
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn a_kind_change_or_finish_ends_the_merge() {
        let rx = queued(vec![batch(5), kv(5), batch(5)]);
        let (merged, held) = batch_ingest(batch(5), &rx, 100, true);
        assert_eq!(len(&merged), Some(10));
        assert!(matches!(held, Some(Ingest::Kv(ref ops)) if ops.len() == 5));

        let rx = queued(vec![Ingest::Finish]);
        let (merged, held) = batch_ingest(kv(5), &rx, 100, true);
        assert_eq!(len(&merged), Some(5));
        assert!(matches!(held, Some(Ingest::Finish)));

        let rx = queued(vec![batch(5)]);
        let (merged, held) = batch_ingest(Ingest::Finish, &rx, 100, false);
        assert!(matches!(merged, Ingest::Finish) && held.is_none());
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn kv_frames_merge_only_on_kv_sessions() {
        // On an address session each KvBatch is refused on its own.
        let rx = queued(vec![kv(3)]);
        let (merged, held) = batch_ingest(kv(3), &rx, 100, false);
        assert_eq!(len(&merged), Some(3));
        assert!(held.is_none());
        assert_eq!(rx.try_iter().count(), 1);

        let rx = queued(vec![kv(3), kv(3)]);
        let (merged, held) = batch_ingest(kv(3), &rx, 100, true);
        assert_eq!(len(&merged), Some(9));
        assert!(held.is_none());
    }
}
