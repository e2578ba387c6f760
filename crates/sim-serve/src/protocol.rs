//! The serving wire protocol: small, length-prefixed, CRC-framed binary
//! frames over any byte stream (TCP or Unix sockets).
//!
//! Every frame is laid out as (all integers little-endian):
//!
//! ```text
//! [payload_len u32][kind u8][payload bytes][crc32 u32]
//! ```
//!
//! where the CRC-32 (same IEEE-reflected polynomial as the `traces`
//! container) covers the kind byte plus the payload, so a corrupted or
//! torn frame is always detected before it is interpreted. Access batches
//! reuse the `traces` container **record layout** verbatim — 21 bytes per
//! record: kind `u8`, addr `u64`, pc `u64`, icount_delta `u32` — so a
//! captured container body can be streamed without re-encoding.
//!
//! The protocol is versioned through the `Hello` frame; a server that
//! cannot speak the client's version answers with a typed
//! [`ErrorCode::BadHello`] and closes. Malformed input of any kind —
//! oversized length prefix, CRC mismatch, truncated stream, unknown frame
//! kind, bad record bytes — decodes to a typed [`ProtoError`], never a
//! panic.

use sim_core::{Access, CacheStats};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use traces::format::{decode_record, encode_record, Crc32};

/// Protocol version spoken by this build (carried in `Hello`).
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a frame's payload length. A length prefix above this is
/// rejected before any allocation happens, so a hostile or corrupted
/// 4-byte prefix can never balloon server memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// One record of the `traces` container layout on the wire.
pub const RECORD_BYTES: usize = traces::format::RECORD_BYTES;

// Client->server frame kinds.
const K_HELLO: u8 = 0x01;
const K_ACCESSES: u8 = 0x02;
const K_KV_BATCH: u8 = 0x03;
const K_FINISH: u8 = 0x04;
const K_BYE: u8 = 0x05;

// Server->client frame kinds.
const K_HELLO_ACK: u8 = 0x81;
const K_DELTA: u8 = 0x82;
const K_THROTTLED: u8 = 0x83;
const K_WARNING: u8 = 0x84;
const K_ERROR: u8 = 0x85;
const K_FINAL: u8 = 0x86;
const K_SRV_BYE: u8 = 0x87;

/// Error decoding or transporting a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying I/O failure (includes injected connection faults).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// Claimed payload length.
        len: usize,
    },
    /// The frame CRC disagrees with the received bytes.
    BadCrc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received kind+payload.
        got: u32,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The payload did not decode as the frame kind requires.
    BadPayload(&'static str),
    /// The peer speaks an unsupported protocol version.
    BadVersion(u32),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "connection error: {e}"),
            ProtoError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            ProtoError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, computed {got:#010x}"
                )
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::BadPayload(what) => write!(f, "malformed frame payload: {what}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl Error for ProtoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        // An EOF mid-read is a truncation, not a generic I/O failure: the
        // distinction matters for half-open detection and typed replies.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    }
}

/// Typed error codes the server can answer with (the [`ServerFrame::Error`]
/// payload). Stable on the wire: new codes append, existing values never
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad kind, bad payload, truncation).
    BadFrame,
    /// The frame CRC did not match.
    BadCrc,
    /// The frame length prefix exceeded the cap.
    TooLarge,
    /// The `Hello` was malformed, out of order, or version-incompatible.
    BadHello,
    /// The `Hello` named a policy the server's roster does not have.
    UnknownPolicy,
    /// An access record carried an invalid kind byte.
    BadRecord,
    /// A frame arrived that the session state does not allow.
    Protocol,
    /// The tenant already has a live connection.
    SessionBusy,
    /// Internal server failure.
    Internal,
}

impl ErrorCode {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::BadCrc => 2,
            ErrorCode::TooLarge => 3,
            ErrorCode::BadHello => 4,
            ErrorCode::UnknownPolicy => 5,
            ErrorCode::BadRecord => 6,
            ErrorCode::Protocol => 7,
            ErrorCode::SessionBusy => 8,
            ErrorCode::Internal => 9,
        }
    }

    /// Decodes a wire value.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadCrc,
            3 => ErrorCode::TooLarge,
            4 => ErrorCode::BadHello,
            5 => ErrorCode::UnknownPolicy,
            6 => ErrorCode::BadRecord,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::SessionBusy,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Warning codes carried by [`ServerFrame::Warning`].
pub mod warning {
    /// Session snapshots failed persistently; the session continues
    /// **ephemeral** (a daemon restart will not resume it).
    pub const SNAPSHOT_DEGRADED: u8 = 1;
}

/// The cache dimensions a tenant asks for, as carried by `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometrySpec {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

/// Session-opening handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks.
    pub version: u32,
    /// Tenant identity; sessions and snapshots are keyed by it.
    pub tenant: String,
    /// Resume the tenant's snapshotted session instead of starting fresh.
    pub resume: bool,
    /// Interpret ingest as KV operations ([`ClientFrame::KvBatch`]).
    pub kv_mode: bool,
    /// Requested cache dimensions.
    pub geometry: GeometrySpec,
    /// Roster subset to evaluate; empty means the server default.
    pub roster: Vec<String>,
    /// Push a stats delta every this many ingested accesses (0 = server
    /// default).
    pub delta_every: u64,
}

/// One KV-mode operation: a string key, read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvOp {
    /// True for a put (maps to a write access).
    pub write: bool,
    /// The key; hashed to a line address server-side.
    pub key: String,
}

/// Per-policy cumulative counters inside a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRow {
    /// Roster policy name.
    pub name: String,
    /// Cumulative cache statistics since session start.
    pub stats: CacheStats,
}

/// An incremental (cumulative-counter) stats push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Monotonic delta sequence number within the session.
    pub seq: u64,
    /// First access index this delta's increment covers.
    pub covered_from: u64,
    /// One past the last covered access index (cumulative counters run
    /// from access 0 to here).
    pub covered_to: u64,
    /// Cumulative instructions represented by the stream so far.
    pub instructions: u64,
    /// Cumulative per-policy counters, in session roster order.
    pub rows: Vec<PolicyRow>,
}

impl Delta {
    /// Misses per thousand instructions for row `i`.
    pub fn mpki(&self, i: usize) -> f64 {
        self.rows[i].stats.mpki(self.instructions)
    }
}

/// One tenant's entry on the cross-tenant leaderboard.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// Tenant identity.
    pub tenant: String,
    /// The roster policy with the lowest MPKI on this tenant's traffic.
    pub best_policy: String,
    /// Accesses the verdict is based on.
    pub accesses: u64,
    /// The winning policy's MPKI.
    pub mpki: f64,
}

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open (or resume) a session.
    Hello(Hello),
    /// A batch of accesses in `traces` record layout.
    Accesses(Vec<Access>),
    /// A batch of KV operations (KV-mode sessions only).
    KvBatch(Vec<KvOp>),
    /// Flush: push a final delta and the leaderboard, snapshot the session.
    Finish,
    /// Close the connection (the session stays resumable).
    Bye,
}

/// Frames a server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Session opened. `resumed` is the number of accesses already
    /// ingested (0 for a fresh session); a resuming client skips that
    /// prefix of its stream.
    HelloAck {
        /// Server-assigned session id.
        session: u64,
        /// Accesses already ingested into the (resumed) session.
        resumed: u64,
        /// The resolved roster the session evaluates.
        roster: Vec<String>,
    },
    /// Incremental stats push.
    Delta(Delta),
    /// The client was too slow to drain deltas: `coalesced` pushes were
    /// merged into the delta sent just before this frame.
    Throttled {
        /// Number of deltas merged away since the last drained one.
        coalesced: u64,
    },
    /// Non-fatal degradation notice (see [`warning`]).
    Warning {
        /// Warning code.
        code: u8,
        /// Human-readable context.
        message: String,
    },
    /// Typed error. Fatal for the connection unless stated otherwise.
    Error {
        /// Error class.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
    /// Answer to `Finish`: the final cumulative delta plus the
    /// cross-tenant leaderboard.
    Final {
        /// Final cumulative stats.
        delta: Delta,
        /// Cross-tenant standings at the time of the flush.
        leaderboard: Vec<LeaderboardRow>,
    },
    /// Server-side close.
    Bye,
}

// ---------------------------------------------------------------------------
// Encoding primitives.

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "string too long for wire");
    put_u16(buf, bytes.len() as u16);
    buf.extend_from_slice(bytes);
}

/// Bounds-checked, panic-free payload cursor.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::BadPayload("short payload"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadPayload("invalid utf-8"))
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::BadPayload("trailing bytes"))
        }
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &CacheStats) {
    put_u64(buf, s.accesses);
    put_u64(buf, s.hits);
    put_u64(buf, s.misses);
    put_u64(buf, s.evictions);
    put_u64(buf, s.writebacks);
    put_u64(buf, s.bypasses);
}

fn get_stats(c: &mut Cursor<'_>) -> Result<CacheStats, ProtoError> {
    Ok(CacheStats {
        accesses: c.u64()?,
        hits: c.u64()?,
        misses: c.u64()?,
        evictions: c.u64()?,
        writebacks: c.u64()?,
        bypasses: c.u64()?,
    })
}

fn put_delta(buf: &mut Vec<u8>, d: &Delta) {
    put_u64(buf, d.seq);
    put_u64(buf, d.covered_from);
    put_u64(buf, d.covered_to);
    put_u64(buf, d.instructions);
    put_u16(buf, d.rows.len() as u16);
    for row in &d.rows {
        put_str(buf, &row.name);
        put_stats(buf, &row.stats);
    }
}

fn get_delta(c: &mut Cursor<'_>) -> Result<Delta, ProtoError> {
    let seq = c.u64()?;
    let covered_from = c.u64()?;
    let covered_to = c.u64()?;
    let instructions = c.u64()?;
    let n = c.u16()? as usize;
    let mut rows = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        rows.push(PolicyRow {
            name: c.string()?,
            stats: get_stats(c)?,
        });
    }
    Ok(Delta {
        seq,
        covered_from,
        covered_to,
        instructions,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Frame transport.

/// Writes one frame (length prefix, kind, payload, CRC).
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn write_frame(w: &mut dyn Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized frame built");
    // One buffered write per frame so a frame is never interleaved with
    // another thread's partial write at the `Write` level.
    let mut out = Vec::with_capacity(9 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.push(kind);
    out.extend_from_slice(payload);
    let mut crc = Crc32::new();
    crc.update(&out[4..]);
    put_u32(&mut out, crc.finish());
    w.write_all(&out)?;
    w.flush()
}

/// Reads one frame, verifying the length cap and CRC. Returns the kind
/// byte and payload.
///
/// # Errors
///
/// Typed [`ProtoError`] for any malformed input; never panics.
pub fn read_frame(r: &mut dyn Read) -> Result<(u8, Vec<u8>), ProtoError> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge { len });
    }
    let kind = head[4];
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut tail = [0u8; 4];
    r.read_exact(&mut tail)?;
    let expected = u32::from_le_bytes(tail);
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&payload);
    let got = crc.finish();
    if expected != got {
        return Err(ProtoError::BadCrc { expected, got });
    }
    Ok((kind, payload))
}

/// Parses a `KvBatch` payload: a `u32` operation count, then per operation
/// a put flag byte and a `u16`-length key. Hands each operation's flag and
/// key to `op`, without copying the key, and collects what `op` returns.
/// This is the one KV record parser: [`ClientFrame::decode`] builds
/// [`KvOp`]s with it, and the server lowers keys straight to accesses.
///
/// # Errors
///
/// Typed [`ProtoError`], never a panic: `BadKind` for a flag byte other
/// than 0 or 1, `BadPayload` for a short payload, a key that is not UTF-8
/// or trailing bytes.
pub fn parse_kv_batch<T>(
    payload: &[u8],
    mut op: impl FnMut(bool, &str) -> T,
) -> Result<Vec<T>, ProtoError> {
    let mut c = Cursor::new(payload);
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let write = match c.u8()? {
            0 => false,
            1 => true,
            other => return Err(ProtoError::BadKind(other)),
        };
        let len = c.u16()? as usize;
        let key = std::str::from_utf8(c.take(len)?)
            .map_err(|_| ProtoError::BadPayload("invalid utf-8"))?;
        out.push(op(write, key));
    }
    c.finish()?;
    Ok(out)
}

/// A client frame as the server's read loop takes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Inbound {
    /// Any frame but a `KvBatch`, decoded.
    Frame(ClientFrame),
    /// A `KvBatch`, its keys lowered straight to accesses.
    Kv(Vec<Access>),
}

/// Reads one client frame, lowering a `KvBatch` to accesses for
/// `line_bytes` lines ([`kv::lower`](crate::kv::lower)) with no `String`
/// per key. Every other frame decodes as [`recv_client`] decodes it.
///
/// # Errors
///
/// Exactly [`recv_client`]'s typed errors for the same bytes.
pub fn recv_client_lowered(r: &mut dyn Read, line_bytes: u64) -> Result<Inbound, ProtoError> {
    let (kind, payload) = read_frame(r)?;
    if kind == K_KV_BATCH {
        parse_kv_batch(&payload, |write, key| {
            crate::kv::lower(write, key.as_bytes(), line_bytes)
        })
        .map(Inbound::Kv)
    } else {
        ClientFrame::decode(kind, &payload).map(Inbound::Frame)
    }
}

impl ClientFrame {
    /// Encodes into (kind, payload).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        match self {
            ClientFrame::Hello(h) => {
                put_u32(&mut buf, h.version);
                let flags = u8::from(h.resume) | (u8::from(h.kv_mode) << 1);
                buf.push(flags);
                put_u64(&mut buf, h.geometry.size_bytes);
                put_u32(&mut buf, h.geometry.ways);
                put_u32(&mut buf, h.geometry.line_bytes);
                put_u64(&mut buf, h.delta_every);
                put_str(&mut buf, &h.tenant);
                put_u16(&mut buf, h.roster.len() as u16);
                for name in &h.roster {
                    put_str(&mut buf, name);
                }
                (K_HELLO, buf)
            }
            ClientFrame::Accesses(batch) => {
                buf.reserve_exact(4 + batch.len() * RECORD_BYTES);
                put_u32(&mut buf, batch.len() as u32);
                for a in batch {
                    // The `traces` container record layout, byte for byte.
                    buf.extend_from_slice(&encode_record(a));
                }
                (K_ACCESSES, buf)
            }
            ClientFrame::KvBatch(ops) => {
                buf.reserve_exact(4 + ops.iter().map(|op| 3 + op.key.len()).sum::<usize>());
                put_u32(&mut buf, ops.len() as u32);
                for op in ops {
                    buf.push(u8::from(op.write));
                    put_str(&mut buf, &op.key);
                }
                (K_KV_BATCH, buf)
            }
            ClientFrame::Finish => (K_FINISH, buf),
            ClientFrame::Bye => (K_BYE, buf),
        }
    }

    /// Decodes from (kind, payload).
    ///
    /// # Errors
    ///
    /// Typed [`ProtoError`] for malformed payloads; never panics.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<ClientFrame, ProtoError> {
        let mut c = Cursor::new(payload);
        let frame = match kind {
            K_HELLO => {
                let version = c.u32()?;
                let flags = c.u8()?;
                let geometry = GeometrySpec {
                    size_bytes: c.u64()?,
                    ways: c.u32()?,
                    line_bytes: c.u32()?,
                };
                let delta_every = c.u64()?;
                let tenant = c.string()?;
                let n = c.u16()? as usize;
                let mut roster = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    roster.push(c.string()?);
                }
                ClientFrame::Hello(Hello {
                    version,
                    tenant,
                    resume: flags & 1 != 0,
                    kv_mode: flags & 2 != 0,
                    geometry,
                    roster,
                    delta_every,
                })
            }
            K_ACCESSES => {
                let n = c.u32()? as usize;
                // The count must be consistent with the payload length
                // before anything is allocated for it.
                if n.checked_mul(RECORD_BYTES) != Some(payload.len().saturating_sub(4)) {
                    return Err(ProtoError::BadPayload("record count disagrees with length"));
                }
                let mut batch = Vec::with_capacity(n);
                for rec in c.take(n * RECORD_BYTES)?.chunks_exact(RECORD_BYTES) {
                    let rec = rec.try_into().expect("record-sized chunk");
                    batch.push(decode_record(rec).map_err(|_| ProtoError::BadKind(rec[0]))?);
                }
                ClientFrame::Accesses(batch)
            }
            K_KV_BATCH => {
                return parse_kv_batch(payload, |write, key| KvOp {
                    write,
                    key: key.to_owned(),
                })
                .map(ClientFrame::KvBatch);
            }
            K_FINISH => ClientFrame::Finish,
            K_BYE => ClientFrame::Bye,
            other => return Err(ProtoError::BadKind(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}

impl ServerFrame {
    /// Encodes into (kind, payload).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        match self {
            ServerFrame::HelloAck {
                session,
                resumed,
                roster,
            } => {
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *resumed);
                put_u16(&mut buf, roster.len() as u16);
                for name in roster {
                    put_str(&mut buf, name);
                }
                (K_HELLO_ACK, buf)
            }
            ServerFrame::Delta(d) => {
                put_delta(&mut buf, d);
                (K_DELTA, buf)
            }
            ServerFrame::Throttled { coalesced } => {
                put_u64(&mut buf, *coalesced);
                (K_THROTTLED, buf)
            }
            ServerFrame::Warning { code, message } => {
                buf.push(*code);
                put_str(&mut buf, message);
                (K_WARNING, buf)
            }
            ServerFrame::Error { code, message } => {
                buf.push(code.to_u8());
                put_str(&mut buf, message);
                (K_ERROR, buf)
            }
            ServerFrame::Final { delta, leaderboard } => {
                put_delta(&mut buf, delta);
                put_u16(&mut buf, leaderboard.len() as u16);
                for row in leaderboard {
                    put_str(&mut buf, &row.tenant);
                    put_str(&mut buf, &row.best_policy);
                    put_u64(&mut buf, row.accesses);
                    put_u64(&mut buf, row.mpki.to_bits());
                }
                (K_FINAL, buf)
            }
            ServerFrame::Bye => (K_SRV_BYE, buf),
        }
    }

    /// Decodes from (kind, payload).
    ///
    /// # Errors
    ///
    /// Typed [`ProtoError`] for malformed payloads; never panics.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<ServerFrame, ProtoError> {
        let mut c = Cursor::new(payload);
        let frame = match kind {
            K_HELLO_ACK => {
                let session = c.u64()?;
                let resumed = c.u64()?;
                let n = c.u16()? as usize;
                let mut roster = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    roster.push(c.string()?);
                }
                ServerFrame::HelloAck {
                    session,
                    resumed,
                    roster,
                }
            }
            K_DELTA => ServerFrame::Delta(get_delta(&mut c)?),
            K_THROTTLED => ServerFrame::Throttled {
                coalesced: c.u64()?,
            },
            K_WARNING => ServerFrame::Warning {
                code: c.u8()?,
                message: c.string()?,
            },
            K_ERROR => {
                let code = ErrorCode::from_u8(c.u8()?)
                    .ok_or(ProtoError::BadPayload("unknown error code"))?;
                ServerFrame::Error {
                    code,
                    message: c.string()?,
                }
            }
            K_FINAL => {
                let delta = get_delta(&mut c)?;
                let n = c.u16()? as usize;
                let mut leaderboard = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    leaderboard.push(LeaderboardRow {
                        tenant: c.string()?,
                        best_policy: c.string()?,
                        accesses: c.u64()?,
                        mpki: c.f64()?,
                    });
                }
                ServerFrame::Final { delta, leaderboard }
            }
            K_SRV_BYE => ServerFrame::Bye,
            other => return Err(ProtoError::BadKind(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// Writes a client frame to `w`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn send_client(w: &mut dyn Write, frame: &ClientFrame) -> io::Result<()> {
    let (kind, payload) = frame.encode();
    write_frame(w, kind, &payload)
}

/// Writes a server frame to `w`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn send_server(w: &mut dyn Write, frame: &ServerFrame) -> io::Result<()> {
    let (kind, payload) = frame.encode();
    write_frame(w, kind, &payload)
}

/// Reads and decodes one client frame.
///
/// # Errors
///
/// Typed [`ProtoError`] for malformed input; never panics.
pub fn recv_client(r: &mut dyn Read) -> Result<ClientFrame, ProtoError> {
    let (kind, payload) = read_frame(r)?;
    ClientFrame::decode(kind, &payload)
}

/// Reads and decodes one server frame.
///
/// # Errors
///
/// Typed [`ProtoError`] for malformed input; never panics.
pub fn recv_server(r: &mut dyn Read) -> Result<ServerFrame, ProtoError> {
    let (kind, payload) = read_frame(r)?;
    ServerFrame::decode(kind, &payload)
}

/// Maps a decode error onto the typed wire error code a server answers
/// with.
pub fn error_code_for(e: &ProtoError) -> ErrorCode {
    match e {
        ProtoError::TooLarge { .. } => ErrorCode::TooLarge,
        ProtoError::BadCrc { .. } => ErrorCode::BadCrc,
        ProtoError::BadVersion(_) => ErrorCode::BadHello,
        ProtoError::BadKind(k) if *k <= 2 => ErrorCode::BadRecord,
        _ => ErrorCode::BadFrame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::AccessKind;

    fn sample_delta() -> Delta {
        Delta {
            seq: 7,
            covered_from: 1000,
            covered_to: 2000,
            instructions: 12345,
            rows: vec![
                PolicyRow {
                    name: "LRU".into(),
                    stats: CacheStats {
                        accesses: 2000,
                        hits: 1500,
                        misses: 500,
                        evictions: 400,
                        writebacks: 100,
                        bypasses: 0,
                    },
                },
                PolicyRow {
                    name: "WI-GIPPR".into(),
                    stats: CacheStats::new(),
                },
            ],
        }
    }

    fn roundtrip_client(frame: ClientFrame) {
        let mut buf = Vec::new();
        send_client(&mut buf, &frame).unwrap();
        let decoded = recv_client(&mut &buf[..]).unwrap();
        assert_eq!(decoded, frame);
    }

    fn roundtrip_server(frame: ServerFrame) {
        let mut buf = Vec::new();
        send_server(&mut buf, &frame).unwrap();
        let decoded = recv_server(&mut &buf[..]).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn client_frames_round_trip() {
        roundtrip_client(ClientFrame::Hello(Hello {
            version: PROTOCOL_VERSION,
            tenant: "tenant-a".into(),
            resume: true,
            kv_mode: false,
            geometry: GeometrySpec {
                size_bytes: 128 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            roster: vec!["LRU".into(), "PseudoLRU".into()],
            delta_every: 4096,
        }));
        roundtrip_client(ClientFrame::Accesses(vec![
            Access::read(0x1000, 0x400).with_icount_delta(3),
            Access::write(0xdead_beef, 0x404),
            Access {
                addr: !63,
                pc: 0,
                kind: AccessKind::Writeback,
                icount_delta: 0,
            },
        ]));
        roundtrip_client(ClientFrame::Accesses(Vec::new()));
        roundtrip_client(ClientFrame::KvBatch(vec![
            KvOp {
                write: false,
                key: "user:123".into(),
            },
            KvOp {
                write: true,
                key: "session:abc".into(),
            },
        ]));
        roundtrip_client(ClientFrame::Finish);
        roundtrip_client(ClientFrame::Bye);
    }

    #[test]
    fn server_frames_round_trip() {
        roundtrip_server(ServerFrame::HelloAck {
            session: 42,
            resumed: 9999,
            roster: vec!["LRU".into()],
        });
        roundtrip_server(ServerFrame::Delta(sample_delta()));
        roundtrip_server(ServerFrame::Throttled { coalesced: 17 });
        roundtrip_server(ServerFrame::Warning {
            code: warning::SNAPSHOT_DEGRADED,
            message: "snapshots failing; session now ephemeral".into(),
        });
        roundtrip_server(ServerFrame::Error {
            code: ErrorCode::UnknownPolicy,
            message: "no such policy \"XYZ\"".into(),
        });
        roundtrip_server(ServerFrame::Final {
            delta: sample_delta(),
            leaderboard: vec![LeaderboardRow {
                tenant: "tenant-a".into(),
                best_policy: "WI-GIPPR".into(),
                accesses: 100_000,
                mpki: 12.375,
            }],
        });
        roundtrip_server(ServerFrame::Bye);
    }

    #[test]
    fn access_record_layout_matches_traces_container() {
        // The wire batch body must be byte-identical to the container's
        // record bytes, so captured traces stream without re-encoding.
        let accesses = vec![
            Access::read(0x1000, 0x400).with_icount_delta(3),
            Access::write(0xdead_beef, 0x404).with_icount_delta(1),
        ];
        let mut container = Vec::new();
        let mut w = traces::TraceWriter::new(&mut container).unwrap();
        for a in &accesses {
            w.write(a).unwrap();
        }
        w.finish().unwrap();
        let record_bytes = &container[12..12 + accesses.len() * RECORD_BYTES];

        let (_, payload) = ClientFrame::Accesses(accesses).encode();
        assert_eq!(&payload[4..], record_bytes);
    }

    #[test]
    fn crc_damage_is_detected() {
        let mut buf = Vec::new();
        send_client(&mut buf, &ClientFrame::Finish).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        assert!(matches!(
            recv_client(&mut &buf[..]),
            Err(ProtoError::BadCrc { .. }) | Err(ProtoError::BadKind(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.push(K_FINISH);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, ProtoError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        send_client(&mut buf, &ClientFrame::Accesses(vec![Access::read(0, 0)])).unwrap();
        for cut in 0..buf.len() {
            let err = recv_client(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtoError::Truncated),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn record_count_must_match_payload_length() {
        let (kind, mut payload) = ClientFrame::Accesses(vec![Access::read(0, 0)]).encode();
        // Lie about the count: claims 2 records but carries 1.
        payload[0..4].copy_from_slice(&2u32.to_le_bytes());
        let err = ClientFrame::decode(kind, &payload).unwrap_err();
        assert!(matches!(err, ProtoError::BadPayload(_)), "{err}");
        // An absurd count must be rejected without allocating for it.
        payload[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ClientFrame::decode(kind, &payload).unwrap_err();
        assert!(matches!(err, ProtoError::BadPayload(_)), "{err}");
    }

    #[test]
    fn unknown_kind_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x7f, b"").unwrap();
        assert!(matches!(
            recv_client(&mut &buf[..]),
            Err(ProtoError::BadKind(0x7f))
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ProtoError::Io(io::Error::other("x")),
            ProtoError::TooLarge { len: 1 },
            ProtoError::BadCrc {
                expected: 1,
                got: 2,
            },
            ProtoError::Truncated,
            ProtoError::BadKind(9),
            ProtoError::BadPayload("p"),
            ProtoError::BadVersion(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for v in 1..=9u8 {
            let code = ErrorCode::from_u8(v).unwrap();
            assert_eq!(code.to_u8(), v);
        }
        assert!(ErrorCode::from_u8(0).is_none());
        assert!(ErrorCode::from_u8(10).is_none());
    }
}
