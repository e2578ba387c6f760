//! A self-describing binary trace container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header:  magic "PLRUTRC1" (8 bytes) | version u32
//! records: kind u8 (0=read, 1=write, 2=writeback) | addr u64 | pc u64 | icount_delta u32
//! footer:  sentinel 0xFF | record_count u64 | crc32 u32
//! ```
//!
//! The CRC covers every record byte (not the header or footer), so
//! truncation and corruption are both detected. Readers are streaming
//! (`Iterator`), writers are append-only — no `Seek` bound, so traces can
//! be piped.

use sim_core::{Access, AccessKind};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// File magic, 8 bytes.
pub const MAGIC: &[u8; 8] = b"PLRUTRC1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Record-kind byte marking the footer.
const FOOTER_SENTINEL: u8 = 0xFF;
/// Bytes per record: kind `u8`, addr `u64`, pc `u64`, icount_delta `u32`.
pub const RECORD_BYTES: usize = 21;
/// Header bytes: magic, version.
pub const HEADER_BYTES: usize = 12;
/// Footer bytes: sentinel, record count, CRC.
pub const FOOTER_BYTES: usize = 13;

/// Error reading or writing a trace container.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 8]),
    /// Unsupported format version.
    BadVersion(u32),
    /// A record carried an unknown kind byte.
    BadKind(u8),
    /// The stream ended mid-record or without a footer.
    Truncated,
    /// The footer's record count disagrees with the records read.
    CountMismatch {
        /// Count claimed by the footer.
        expected: u64,
        /// Records actually read.
        got: u64,
    },
    /// The footer's CRC disagrees with the records read.
    CrcMismatch {
        /// CRC claimed by the footer.
        expected: u32,
        /// CRC computed over the records read.
        got: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadKind(k) => write!(f, "unknown record kind {k:#x}"),
            TraceError::Truncated => write!(f, "trace truncated mid-record or missing footer"),
            TraceError::CountMismatch { expected, got } => {
                write!(f, "footer claims {expected} records, read {got}")
            }
            TraceError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "crc mismatch: footer {expected:#010x}, computed {got:#010x}"
                )
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The reflected IEEE 802.3 generator polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table, and
/// `t[k][b]` is the CRC contribution of byte `b` followed by `k` zero bytes,
/// so one lookup per byte of an 8-byte word folds the whole word at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ CRC_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Streaming CRC-32 (IEEE 802.3, reflected) used by the container, the
/// serving protocol's frames and snapshots, workload-cache spills and GA
/// checkpoints. Table-driven slicing-by-8: feed it whole slices where the
/// bytes are contiguous, since short updates fall back to one table lookup
/// per byte.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds bytes into the checksum. Any split of the same bytes across
    /// calls gives the same result.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

fn kind_to_byte(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::Writeback => 2,
    }
}

fn kind_from_byte(b: u8) -> Result<AccessKind, TraceError> {
    match b {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        2 => Ok(AccessKind::Writeback),
        other => Err(TraceError::BadKind(other)),
    }
}

/// Encodes one access in the container's record layout.
pub fn encode_record(a: &Access) -> [u8; RECORD_BYTES] {
    let mut buf = [0u8; RECORD_BYTES];
    buf[0] = kind_to_byte(a.kind);
    buf[1..9].copy_from_slice(&a.addr.to_le_bytes());
    buf[9..17].copy_from_slice(&a.pc.to_le_bytes());
    buf[17..21].copy_from_slice(&a.icount_delta.to_le_bytes());
    buf
}

/// Decodes one record.
///
/// # Errors
///
/// [`TraceError::BadKind`] for an unknown kind byte.
pub fn decode_record(rec: &[u8; RECORD_BYTES]) -> Result<Access, TraceError> {
    let word = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
    Ok(Access {
        kind: kind_from_byte(rec[0])?,
        addr: word(1),
        pc: word(9),
        icount_delta: u32::from_le_bytes(rec[17..21].try_into().expect("4 bytes")),
    })
}

/// The container header: magic, then version.
pub fn container_header() -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[..8].copy_from_slice(MAGIC);
    out[8..].copy_from_slice(&VERSION.to_le_bytes());
    out
}

/// The container footer closing `records` records whose bytes checksum
/// to `crc`: sentinel, record count, CRC.
pub fn container_footer(records: u64, crc: u32) -> [u8; FOOTER_BYTES] {
    let mut out = [0u8; FOOTER_BYTES];
    out[0] = FOOTER_SENTINEL;
    out[1..9].copy_from_slice(&records.to_le_bytes());
    out[9..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Writes a trace container to any [`Write`] sink.
///
/// Remember that `&mut W` also implements `Write`, so a writer can borrow
/// a sink the caller keeps.
///
/// # Example
///
/// ```
/// use sim_core::Access;
/// use traces::{TraceReader, TraceWriter};
///
/// # fn main() -> Result<(), traces::TraceError> {
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf)?;
/// w.write(&Access::read(0x1000, 0x400))?;
/// w.finish()?;
///
/// let accesses: Vec<_> =
///     TraceReader::new(&buf[..])?.collect::<Result<_, _>>()?;
/// assert_eq!(accesses.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    crc: Crc32,
    count: u64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the sink.
    pub fn new(mut sink: W) -> Result<Self, TraceError> {
        sink.write_all(&container_header())?;
        Ok(TraceWriter {
            sink,
            crc: Crc32::new(),
            count: 0,
            finished: false,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the sink.
    pub fn write(&mut self, access: &Access) -> Result<(), TraceError> {
        debug_assert!(!self.finished, "write after finish");
        let rec = encode_record(access);
        self.crc.update(&rec);
        self.sink.write_all(&rec)?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the footer and flushes. Must be called exactly once; dropping
    /// an unfinished writer leaves a truncated (detectable) file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.sink
            .write_all(&container_footer(self.count, self.crc.finish()))?;
        self.sink.flush()?;
        self.finished = true;
        Ok(self.sink)
    }
}

/// Streams records out of a trace container.
///
/// Iterates `Result<Access, TraceError>`; the footer's count and CRC are
/// verified when the sentinel is reached, so consuming the whole iterator
/// validates integrity end-to-end.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    crc: Crc32,
    count: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader, consuming and validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMagic`] / [`TraceError::BadVersion`] for
    /// foreign input, or an I/O error.
    pub fn new(mut source: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        source
            .read_exact(&mut magic)
            .map_err(|_| TraceError::Truncated)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let mut ver = [0u8; 4];
        source
            .read_exact(&mut ver)
            .map_err(|_| TraceError::Truncated)?;
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        Ok(TraceReader {
            source,
            crc: Crc32::new(),
            count: 0,
            done: false,
        })
    }

    fn read_footer(&mut self) -> Result<(), TraceError> {
        let mut buf = [0u8; 12];
        self.source
            .read_exact(&mut buf)
            .map_err(|_| TraceError::Truncated)?;
        let expected_count = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        let expected_crc = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if expected_count != self.count {
            return Err(TraceError::CountMismatch {
                expected: expected_count,
                got: self.count,
            });
        }
        let got = self.crc.finish();
        if expected_crc != got {
            return Err(TraceError::CrcMismatch {
                expected: expected_crc,
                got,
            });
        }
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Access, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut rec = [0u8; RECORD_BYTES];
        if let Err(_e) = self.source.read_exact(&mut rec[..1]) {
            self.done = true;
            return Some(Err(TraceError::Truncated));
        }
        if rec[0] == FOOTER_SENTINEL {
            self.done = true;
            return match self.read_footer() {
                Ok(()) => None,
                Err(e) => Some(Err(e)),
            };
        }
        if self.source.read_exact(&mut rec[1..]).is_err() {
            self.done = true;
            return Some(Err(TraceError::Truncated));
        }
        let access = decode_record(&rec);
        if access.is_err() {
            self.done = true;
            return Some(access);
        }
        self.crc.update(&rec);
        self.count += 1;
        Some(access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_accesses() -> Vec<Access> {
        vec![
            Access::read(0x1000, 0x400).with_icount_delta(3),
            Access::write(0xdead_beef, 0x404).with_icount_delta(1),
            Access {
                addr: 0xffff_ffff_ffff_ffc0,
                pc: 0,
                kind: AccessKind::Writeback,
                icount_delta: 0,
            },
        ]
    }

    fn write_all(accesses: &[Access]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for a in accesses {
            w.write(a).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample_accesses();
        let buf = write_all(&original);
        let read: Vec<Access> = TraceReader::new(&buf[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(read, original);
    }

    #[test]
    fn empty_trace_round_trips() {
        let buf = write_all(&[]);
        let read: Vec<Access> = TraceReader::new(&buf[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(read.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = write_all(&sample_accesses());
        buf[0] = b'X';
        assert!(matches!(
            TraceReader::new(&buf[..]),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = write_all(&[]);
        buf[8] = 99;
        assert!(matches!(
            TraceReader::new(&buf[..]),
            Err(TraceError::BadVersion(99))
        ));
    }

    #[test]
    fn detects_truncation() {
        let buf = write_all(&sample_accesses());
        let cut = &buf[..buf.len() - 6]; // footer chopped
        let result: Result<Vec<Access>, _> = TraceReader::new(cut).unwrap().collect();
        assert!(matches!(result, Err(TraceError::Truncated)));
    }

    #[test]
    fn detects_corrupted_record() {
        let mut buf = write_all(&sample_accesses());
        // Flip a bit in the first record's address.
        buf[14] ^= 0x40;
        let result: Result<Vec<Access>, _> = TraceReader::new(&buf[..]).unwrap().collect();
        assert!(matches!(result, Err(TraceError::CrcMismatch { .. })));
    }

    #[test]
    fn detects_unknown_kind() {
        let mut buf = write_all(&sample_accesses());
        buf[12] = 7; // first record's kind byte
        let result: Result<Vec<Access>, _> = TraceReader::new(&buf[..]).unwrap().collect();
        assert!(matches!(result, Err(TraceError::BadKind(7))));
    }

    #[test]
    fn detects_count_mismatch() {
        let mut buf = write_all(&sample_accesses());
        // Patch the footer count (bytes after sentinel) to a lie, and fix
        // nothing else: count check happens before crc.
        let footer_count_offset = buf.len() - 12;
        buf[footer_count_offset] = 9;
        let result: Result<Vec<Access>, _> = TraceReader::new(&buf[..]).unwrap().collect();
        assert!(matches!(
            result,
            Err(TraceError::CountMismatch {
                expected: 9,
                got: 3
            })
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926 (classic check value).
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xcbf4_3926);
    }

    #[test]
    fn crc32_long_input_vector() {
        // A million-byte input that exercises every table lane; the value
        // agrees with zlib's crc32.
        let bytes: Vec<u8> = (0..1_000_003u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) as u8) ^ ((i >> 7) as u8))
            .collect();
        let mut c = Crc32::new();
        c.update(&bytes);
        assert_eq!(c.finish(), 0x2e9d_a37e);
    }

    #[test]
    fn large_trace_round_trip() {
        let accesses: Vec<Access> = (0..10_000u64)
            .map(|i| Access::read(i * 64, 0x400 + (i % 7) * 4).with_icount_delta((i % 11) as u32))
            .collect();
        let buf = write_all(&accesses);
        let read: Vec<Access> = TraceReader::new(&buf[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(read, accesses);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            TraceError::BadMagic(*b"notamagi"),
            TraceError::BadVersion(2),
            TraceError::BadKind(9),
            TraceError::Truncated,
            TraceError::CountMismatch {
                expected: 1,
                got: 2,
            },
            TraceError::CrcMismatch {
                expected: 1,
                got: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
