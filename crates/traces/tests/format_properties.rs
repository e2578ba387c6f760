//! Property-based tests for the trace container: round-trip fidelity,
//! corruption detection under arbitrary byte damage, the table-driven
//! CRC-32 against the plain bitwise definition, and the block journal's
//! container against the streaming writer.

use proptest::prelude::*;
use sim_core::{Access, AccessKind};
use traces::format::{container_header, Crc32, FOOTER_BYTES, HEADER_BYTES, RECORD_BYTES};
use traces::journal::BLOCK_RECORDS;
use traces::{Journal, TraceReader, TraceWriter};

/// The bit-at-a-time CRC-32 (reflected 0xEDB88320), the definition the
/// slicing-by-8 tables are derived from.
fn bitwise_crc32(bytes: &[u8]) -> u32 {
    let mut state = 0xffff_ffffu32;
    for &b in bytes {
        let mut cur = (state ^ u32::from(b)) & 0xff;
        for _ in 0..8 {
            cur = if cur & 1 == 1 {
                (cur >> 1) ^ 0xedb8_8320
            } else {
                cur >> 1
            };
        }
        state = (state >> 8) ^ cur;
    }
    state ^ 0xffff_ffff
}

fn arb_access() -> impl Strategy<Value = Access> {
    (any::<u64>(), any::<u64>(), 0u8..3, any::<u32>()).prop_map(|(addr, pc, kind, delta)| Access {
        addr,
        pc,
        kind: match kind {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => AccessKind::Writeback,
        },
        icount_delta: delta,
    })
}

fn encode(accesses: &[Access]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf).unwrap();
    for a in accesses {
        w.write(a).unwrap();
    }
    w.finish().unwrap();
    buf
}

proptest! {
    /// Any sequence of records round-trips exactly.
    #[test]
    fn round_trip(accesses in proptest::collection::vec(arb_access(), 0..200)) {
        let buf = encode(&accesses);
        let read: Vec<Access> =
            TraceReader::new(&buf[..]).unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(read, accesses);
    }

    /// Flipping any single bit anywhere after the header makes the reader
    /// report an error (CRC, count, kind, truncation, or version — it must
    /// never silently deliver a corrupted trace).
    #[test]
    fn single_bitflip_is_always_detected(
        accesses in proptest::collection::vec(arb_access(), 1..50),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut buf = encode(&accesses);
        // Damage anywhere except the 8-byte magic (a magic flip is
        // detected trivially at open; include version bytes and beyond).
        let lo = 8usize;
        let idx = lo + ((buf.len() - lo - 1) as f64 * byte_frac) as usize;
        buf[idx] ^= 1 << bit;
        let outcome: Result<Vec<Access>, _> = match TraceReader::new(&buf[..]) {
            Ok(reader) => reader.collect(),
            Err(e) => Err(e),
        };
        match outcome {
            Err(_) => {} // detected — good
            Ok(read) => {
                // The only acceptable "success" is if the flip somehow
                // produced the identical payload (impossible for a single
                // bit, but keep the check total).
                prop_assert_eq!(read, accesses, "corruption slipped through undetected");
            }
        }
    }

    /// Truncating the container at any point strictly inside the payload
    /// is detected.
    #[test]
    fn truncation_is_always_detected(
        accesses in proptest::collection::vec(arb_access(), 1..50),
        cut_frac in 0.0f64..1.0,
    ) {
        let buf = encode(&accesses);
        // Cut strictly before the end (keep at least the header).
        let keep = 12 + ((buf.len() - 12 - 1) as f64 * cut_frac) as usize;
        let cut = &buf[..keep];
        let outcome: Result<Vec<Access>, _> = match TraceReader::new(cut) {
            Ok(reader) => reader.collect(),
            Err(e) => Err(e),
        };
        prop_assert!(outcome.is_err(), "truncated at {keep}/{} not detected", buf.len());
    }

    /// Any bytes, split at any chunk boundaries, checksum exactly as the
    /// bitwise definition does over the whole input.
    #[test]
    fn crc_matches_bitwise_definition_across_splits(
        bytes in proptest::collection::vec(any::<u32>().prop_map(|x| x as u8), 0..600),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|f| (bytes.len() as f64 * f) as usize).collect();
        at.push(0);
        at.push(bytes.len());
        at.sort_unstable();
        let mut crc = Crc32::new();
        for w in at.windows(2) {
            crc.update(&bytes[w[0]..w[1]]);
        }
        prop_assert_eq!(crc.finish(), bitwise_crc32(&bytes));
    }
}

/// A record index for a journal append split: anywhere in three blocks,
/// or within two records of a block boundary.
fn arb_cut() -> impl Strategy<Value = usize> {
    (any::<bool>(), 0..3 * BLOCK_RECORDS, 1..3usize, 0..5usize).prop_map(
        |(near, anywhere, k, d)| {
            if near {
                k * BLOCK_RECORDS + d - 2
            } else {
                anywhere
            }
        },
    )
}

proptest! {
    // Each case journals up to three blocks' worth of records.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The journal's container (header, blocks, footer) is exactly the
    /// streaming writer's bytes, however the stream is split into
    /// appends, splits across block boundaries included.
    #[test]
    fn journal_container_equals_streaming_writer(
        base in proptest::collection::vec(arb_access(), 1..32),
        n in 0..3 * BLOCK_RECORDS,
        cuts in proptest::collection::vec(arb_cut(), 0..8),
    ) {
        let stream: Vec<Access> = (0..n)
            .map(|i| Access { addr: base[i % base.len()].addr ^ i as u64, ..base[i % base.len()] })
            .collect();
        let mut at: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
        at.push(0);
        at.push(n);
        at.sort_unstable();
        let mut journal = Journal::new();
        for w in at.windows(2) {
            journal.append(&stream[w[0]..w[1]]);
        }
        let mut out = container_header().to_vec();
        journal.blocks().for_each(|b| out.extend_from_slice(b));
        out.extend_from_slice(&journal.footer());
        prop_assert_eq!(journal.len(), n as u64);
        prop_assert_eq!(out.len(), HEADER_BYTES + n * RECORD_BYTES + FOOTER_BYTES);
        prop_assert!(out == encode(&stream), "journal container differs from TraceWriter's");
    }
}
