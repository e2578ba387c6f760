//! Property tests for the frame decoder over damaged byte streams: every
//! truncation, every single-bit flip and random garbage prefixes of an
//! encoded `ClientFrame` stream. Each must decode to a typed `ProtoError`
//! or to the original frames, never panic, and never size a payload
//! buffer past `MAX_FRAME_LEN`. The server's KV read, which lowers keys
//! to accesses without decoding `KvOp`s, must agree with decoding
//! followed by `op_to_access`, errors included.

use proptest::prelude::*;
use sim_core::{Access, AccessKind};
use sim_serve::kv::op_to_access;
use sim_serve::protocol::{
    recv_client, recv_client_lowered, send_client, write_frame, ClientFrame, GeometrySpec, Hello,
    Inbound, KvOp, MAX_FRAME_LEN,
};
use sim_serve::ProtoError;
use std::io::{self, Read};

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

fn arb_key() -> impl Strategy<Value = String> {
    (0u32..1000).prop_map(|k| format!("key:{k}"))
}

fn arb_frame() -> impl Strategy<Value = ClientFrame> {
    (
        0u8..5,
        (any::<bool>(), any::<u64>(), arb_key()),
        proptest::collection::vec(arb_access(), 0..8),
        proptest::collection::vec((any::<bool>(), arb_key()), 0..5),
    )
        .prop_map(
            |(kind, (flag, delta_every, tenant), accesses, ops)| match kind {
                0 => ClientFrame::Hello(Hello {
                    version: 1,
                    tenant,
                    resume: flag,
                    kv_mode: !flag,
                    geometry: GeometrySpec {
                        size_bytes: 64 * 1024,
                        ways: 16,
                        line_bytes: 64,
                    },
                    roster: vec!["LRU".into()],
                    delta_every,
                }),
                1 => ClientFrame::Accesses(accesses),
                2 => ClientFrame::KvBatch(
                    ops.into_iter()
                        .map(|(write, key)| KvOp { write, key })
                        .collect(),
                ),
                3 => ClientFrame::Finish,
                _ => ClientFrame::Bye,
            },
        )
}

/// Encodes `frames` back to back; also returns where each frame ends.
fn encode(frames: &[ClientFrame]) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut ends = Vec::new();
    for f in frames {
        send_client(&mut wire, f).unwrap();
        ends.push(wire.len());
    }
    (wire, ends)
}

/// A reader over a byte slice that records the largest buffer any single
/// `read` was asked to fill: `read_frame` fills its payload buffer with
/// one `read_exact`, so this bounds the payload it allocated.
struct Probe<'a> {
    bytes: &'a [u8],
    largest: usize,
}

impl Read for Probe<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        self.bytes.read(buf)
    }
}

/// Decodes frames until the first error; returns the frames and error.
fn decode_all(bytes: &[u8]) -> (Vec<ClientFrame>, ProtoError) {
    let mut probe = Probe { bytes, largest: 0 };
    let mut frames = Vec::new();
    let err = loop {
        match recv_client(&mut probe) {
            Ok(f) => frames.push(f),
            Err(e) => break e,
        }
    };
    assert!(
        probe.largest <= MAX_FRAME_LEN,
        "decoder sized a {}-byte buffer",
        probe.largest
    );
    (frames, err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The intact stream decodes to the original frames, then a clean
    /// truncation at the end of the input.
    #[test]
    fn intact_stream_round_trips(frames in proptest::collection::vec(arb_frame(), 1..6)) {
        let (wire, _) = encode(&frames);
        let (got, err) = decode_all(&wire);
        prop_assert_eq!(got, frames);
        prop_assert!(matches!(err, ProtoError::Truncated), "{}", err);
    }

    /// Every truncation yields exactly the frames that fit whole, then
    /// `Truncated`.
    #[test]
    fn every_truncation_is_typed(frames in proptest::collection::vec(arb_frame(), 1..6)) {
        let (wire, ends) = encode(&frames);
        for cut in 0..wire.len() {
            let whole = ends.iter().take_while(|&&e| e <= cut).count();
            let (got, err) = decode_all(&wire[..cut]);
            prop_assert_eq!(&got[..], &frames[..whole], "cut at {}", cut);
            prop_assert!(matches!(err, ProtoError::Truncated), "cut at {}: {}", cut, err);
        }
    }

    /// Every single-bit flip is caught in the frame that holds it: the
    /// frames before it decode intact, and the damaged one is a typed
    /// error (CRC-32 detects every single-bit error; a damaged length
    /// prefix ends in a CRC mismatch, a truncation or `TooLarge`).
    #[test]
    fn every_bit_flip_is_typed(frames in proptest::collection::vec(arb_frame(), 1..4)) {
        let (wire, ends) = encode(&frames);
        for i in 0..wire.len() {
            let hit = ends.iter().take_while(|&&e| e <= i).count();
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[i] ^= 1 << bit;
                let (got, err) = decode_all(&bad);
                prop_assert_eq!(&got[..], &frames[..hit], "flip {}.{}: {}", i, bit, err);
            }
        }
    }

    /// Random garbage in front of a valid stream is rejected with a typed
    /// error at the first frame, whatever length prefix it spells: one
    /// past the cap, or one that swallows part of the real stream.
    #[test]
    fn garbage_prefix_is_typed(
        frames in proptest::collection::vec(arb_frame(), 1..4),
        short in any::<bool>(),
        len_prefix in any::<u32>(),
        garbage in proptest::collection::vec(any::<u32>().prop_map(|x| x as u8), 0..48),
    ) {
        let (wire, _) = encode(&frames);
        let len_prefix = if short { len_prefix % 256 } else { len_prefix };
        let mut bad = len_prefix.to_le_bytes().to_vec();
        bad.extend_from_slice(&garbage);
        bad.extend_from_slice(&wire);
        let (got, _err) = decode_all(&bad);
        prop_assert!(got.is_empty(), "garbage decoded as {:?}", got);
    }
}

/// Keys with and without multi-byte UTF-8, so damage can break an
/// encoding as well as a length or a flag.
fn arb_kv_key() -> impl Strategy<Value = String> {
    (0u32..1000, any::<bool>()).prop_map(|(k, wide)| {
        if wide {
            format!("ключ:{k}")
        } else {
            format!("key:{k}")
        }
    })
}

/// Reads a `KvBatch` frame carrying `payload` (with a valid CRC) both
/// ways: the server's lowering read, and decode followed by
/// `op_to_access`. Errors compare by their debug form.
fn both_reads(payload: &[u8]) -> [Result<Vec<Access>, String>; 2] {
    let (kind, _) = ClientFrame::KvBatch(Vec::new()).encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, kind, payload).unwrap();
    let lowered = match recv_client_lowered(&mut &wire[..], 64) {
        Ok(Inbound::Kv(accesses)) => Ok(accesses),
        Ok(other) => panic!("a KvBatch frame read as {other:?}"),
        Err(e) => Err(format!("{e:?}")),
    };
    let decoded = match recv_client(&mut &wire[..]) {
        Ok(ClientFrame::KvBatch(ops)) => Ok(ops.iter().map(|op| op_to_access(op, 64)).collect()),
        Ok(other) => panic!("a KvBatch frame decoded as {other:?}"),
        Err(e) => Err(format!("{e:?}")),
    };
    [lowered, decoded]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The intact payload, every truncation of it, every single-bit flip
    /// in it and trailing garbage after it read the same both ways.
    #[test]
    fn kv_lowering_equals_decode_then_op_to_access(
        ops in proptest::collection::vec((any::<bool>(), arb_kv_key()), 0..8),
        garbage in proptest::collection::vec(any::<u32>().prop_map(|x| x as u8), 1..24),
    ) {
        let ops: Vec<KvOp> = ops.into_iter().map(|(write, key)| KvOp { write, key }).collect();
        let (_, payload) = ClientFrame::KvBatch(ops.clone()).encode();
        let [lowered, decoded] = both_reads(&payload);
        let expected: Vec<Access> = ops.iter().map(|op| op_to_access(op, 64)).collect();
        prop_assert_eq!(&lowered, &Ok(expected));
        prop_assert_eq!(lowered, decoded);
        for cut in 0..payload.len() {
            let [lowered, decoded] = both_reads(&payload[..cut]);
            prop_assert!(lowered.is_err(), "cut at {}", cut);
            prop_assert_eq!(lowered, decoded, "cut at {}", cut);
        }
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut bad = payload.clone();
                bad[i] ^= 1 << bit;
                let [lowered, decoded] = both_reads(&bad);
                prop_assert_eq!(lowered, decoded, "flip {}.{}", i, bit);
            }
        }
        let mut trailing = payload.clone();
        trailing.extend_from_slice(&garbage);
        let [lowered, decoded] = both_reads(&trailing);
        prop_assert!(lowered.is_err());
        prop_assert_eq!(lowered, decoded);
        let [lowered, decoded] = both_reads(&garbage);
        prop_assert_eq!(lowered, decoded);
    }
}
