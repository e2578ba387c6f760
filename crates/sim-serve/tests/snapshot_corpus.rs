//! Session snapshots at the restore seam: every truncation, every
//! single-bit flip and random garbage must restore to a typed
//! `SnapshotError`, never a panic; a snapshot streamed to disk equals
//! `snapshot_bytes()` byte for byte; and a snapshot written before the
//! journal moved into blocks still restores to the same bytes.

use proptest::prelude::*;
use sim_core::{Access, AccessKind};
use sim_serve::protocol::GeometrySpec;
use sim_serve::session::{
    canonical_stats, default_roster, reference_delta, write_snapshot, Roster, Session,
    SnapshotError,
};
use std::path::PathBuf;
use std::time::Duration;
use traces::journal::BLOCK_RECORDS;
use traces::{TraceError, TraceWriter};

fn spec() -> GeometrySpec {
    GeometrySpec {
        size_bytes: 64 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

/// Deterministic access stream mixing hits, misses and writebacks
/// (xorshift64).
fn stream(n: usize, seed: u64) -> Vec<Access> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let kind = match state % 5 {
                0 => AccessKind::Write,
                4 => AccessKind::Writeback,
                _ => AccessKind::Read,
            };
            Access {
                addr: (state % 4096) * 64,
                pc: (i as u64) * 4,
                kind,
                icount_delta: (state % 7) as u32 + 1,
            }
        })
        .collect()
}

/// A one-policy roster keeps each of the thousands of restores cheap.
fn lru() -> Vec<String> {
    vec!["LRU".to_string()]
}

/// A session over `n` accesses of `seed`'s stream, ingested in 50s.
fn session(n: usize, seed: u64, roster: &[String], registry: &Roster) -> Session {
    let mut s = Session::new("corpus", spec(), false, 64, roster, registry).unwrap();
    for chunk in stream(n, seed).chunks(50) {
        s.ingest(chunk);
    }
    s
}

/// Where the journal container starts: after magic, meta length, meta
/// block and meta CRC.
fn journal_at(snapshot: &[u8]) -> usize {
    12 + u32::from_le_bytes(snapshot[8..12].try_into().unwrap()) as usize + 4
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snapshot-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every proper prefix of a snapshot is `Truncated`, in the header,
    /// the meta block or the journal.
    #[test]
    fn every_truncation_is_typed(n in 0..60usize, seed in any::<u64>()) {
        let reg = default_roster();
        let good = session(n, seed, &lru(), &reg).snapshot_bytes();
        for cut in 0..good.len() {
            let err = Session::restore(&good[..cut], &reg).err();
            prop_assert!(
                matches!(err, Some(SnapshotError::Truncated | SnapshotError::Journal(TraceError::Truncated))),
                "cut at {}/{}: {:?}", cut, good.len(), err
            );
        }
    }

    /// Every single-bit flip is caught by the part of the file it lands
    /// in: the magic, the meta block's length or CRC, or the journal
    /// container's own checks.
    #[test]
    fn every_bit_flip_is_typed(n in 0..40usize, seed in any::<u64>()) {
        let reg = default_roster();
        let good = session(n, seed, &lru(), &reg).snapshot_bytes();
        let journal = journal_at(&good);
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[i] ^= 1 << bit;
                let err = Session::restore(&bad, &reg).err();
                let expected = match i {
                    0..=7 => matches!(err, Some(SnapshotError::BadMagic)),
                    8..=11 => matches!(err, Some(SnapshotError::Truncated | SnapshotError::MetaCrc)),
                    _ if i < journal => matches!(err, Some(SnapshotError::MetaCrc)),
                    _ => matches!(err, Some(SnapshotError::Journal(_))),
                };
                prop_assert!(expected, "flip {}.{} of {}: {:?}", i, bit, good.len(), err);
            }
        }
    }

    /// Garbage is a typed error: on its own, behind the snapshot magic,
    /// or in place of any tail of a good snapshot.
    #[test]
    fn garbage_is_typed(
        n in 0..40usize,
        seed in any::<u64>(),
        keep_frac in 0.0f64..1.0,
        garbage in proptest::collection::vec(any::<u32>().prop_map(|x| x as u8), 0..200),
    ) {
        let reg = default_roster();
        let good = session(n, seed, &lru(), &reg).snapshot_bytes();
        let keep = (good.len() as f64 * keep_frac) as usize;
        for prefix in [&b""[..], &b"PLRUSSN1"[..], &good[..keep]] {
            let mut bad = prefix.to_vec();
            bad.extend_from_slice(&garbage);
            let restored = Session::restore(&bad, &reg);
            prop_assert!(restored.is_err(), "{} garbage bytes after {} restored", garbage.len(), prefix.len());
        }
    }
}

#[test]
fn a_streamed_snapshot_equals_snapshot_bytes() {
    let reg = default_roster();
    let dir = scratch("streamed");
    let zero = |_attempt: u64| Duration::from_millis(0);
    // An empty journal, one block, and a journal whose last block holds
    // one record.
    for n in [0, 300, BLOCK_RECORDS + 1] {
        let s = session(n, 7, &lru(), &reg);
        let streamed = dir.join(format!("streamed-{n}.ssn"));
        s.save_snapshot(&streamed, zero, 1).unwrap();
        let bytes = s.snapshot_bytes();
        assert_eq!(std::fs::read(&streamed).unwrap(), bytes, "{n} accesses");

        let whole = dir.join(format!("whole-{n}.ssn"));
        write_snapshot(&whole, &bytes, zero, 1).unwrap();
        assert_eq!(std::fs::read(&whole).unwrap(), bytes, "{n} accesses");

        // The journal is a standard container: the streaming writer's
        // bytes, behind the meta block.
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for a in &stream(n, 7) {
            w.write(a).unwrap();
        }
        assert_eq!(bytes[journal_at(&bytes)..], w.finish().unwrap()[..]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `data/golden-v1.ssn` was written by the daemon before its journal moved
/// into encoded blocks: 300 accesses of `stream(300, 2013)` ingested in
/// 50s on the default roster, tenant "golden", delta every 64.
#[test]
fn a_snapshot_from_the_vec_journal_restores_byte_for_byte() {
    let golden = include_bytes!("data/golden-v1.ssn");
    let reg = default_roster();
    let restored = Session::restore(golden, &reg).unwrap();
    assert_eq!(restored.ingested(), 300);
    assert_eq!(restored.snapshot_bytes(), golden);

    let mut fresh = Session::new("golden", spec(), false, 64, &[], &reg).unwrap();
    for chunk in stream(300, 2013).chunks(50) {
        fresh.ingest(chunk);
    }
    assert_eq!(fresh.snapshot_bytes(), golden, "the writer is unchanged");
    let reference = reference_delta(&stream(300, 2013), &[], &reg, spec()).unwrap();
    assert_eq!(
        canonical_stats(&restored.current_delta()),
        canonical_stats(&reference)
    );
}
