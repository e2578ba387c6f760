//! Ingest batching under a held-back replayer. A stalled worker-pool task
//! makes frames queue in the ingest channel, so the replayer merges them;
//! deltas must still be cut at exactly the per-frame cadence, the final
//! stats must equal the single-process reference, and a `KvBatch` sent to
//! an address session must still get its own `Protocol` error.
//!
//! This is its own test binary: the stall targets the pool label that
//! every session fan-out shares, so it must not slow unrelated tests. A
//! lone session fans over the whole pool, so the stall fires on any host
//! with at least two cores; on one core the session feeds its engines on
//! its own thread, nothing stalls, and the test checks only the cuts and
//! the final stats.

use sim_core::{Access, AccessKind};
use sim_serve::protocol::{
    recv_server, send_client, ClientFrame, ErrorCode, GeometrySpec, Hello, KvOp, ServerFrame,
};
use sim_serve::server::{Server, ServerConfig};
use sim_serve::session::{canonical_stats, default_roster, reference_delta};
use sim_serve::PROTOCOL_VERSION;
use std::net::TcpStream;
use std::time::Duration;

/// Accesses per ingest frame.
const FRAME: usize = 16;
/// Delta cadence: eight frames per delta.
const DELTA_EVERY: u64 = 128;

fn spec() -> GeometrySpec {
    GeometrySpec {
        size_bytes: 64 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

/// Deterministic access stream (same construction as the e2e tests).
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

#[test]
fn queued_frames_merge_without_moving_delta_cuts() {
    if !sim_fault::COMPILED_IN {
        return;
    }
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        default_roster(),
        ServerConfig {
            label: "bsrv".into(),
            ingest_bound: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let accesses = stream(1000, 13);
    let kv = |n: usize| {
        ClientFrame::KvBatch(
            (0..n)
                .map(|i| KvOp {
                    write: false,
                    key: format!("k{i}"),
                })
                .collect(),
        )
    };

    // The first fan-out sleeps 300 ms, long enough for every frame below
    // to be queued behind it.
    let (deltas, errors, fin) = sim_fault::with_plan("stall@serve:ms=300", || {
        let mut sock = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        send_client(
            &mut sock,
            &ClientFrame::Hello(Hello {
                version: PROTOCOL_VERSION,
                tenant: "tenant-batch".into(),
                resume: false,
                kv_mode: false,
                geometry: spec(),
                roster: Vec::new(),
                delta_every: DELTA_EVERY,
            }),
        )
        .unwrap();
        assert!(matches!(
            recv_server(&mut sock).unwrap(),
            ServerFrame::HelloAck { .. }
        ));
        for (i, chunk) in accesses.chunks(FRAME).enumerate() {
            send_client(&mut sock, &ClientFrame::Accesses(chunk.to_vec())).unwrap();
            if i == 20 {
                // Two KV frames in a row on an address session: neither
                // may merge with its neighbours, and each is refused.
                send_client(&mut sock, &kv(2)).unwrap();
                send_client(&mut sock, &kv(1)).unwrap();
            }
        }
        send_client(&mut sock, &ClientFrame::Finish).unwrap();
        let (mut deltas, mut errors) = (Vec::new(), Vec::new());
        loop {
            match recv_server(&mut sock).unwrap() {
                ServerFrame::Delta(d) => deltas.push(d),
                ServerFrame::Error { code, .. } => errors.push(code),
                f @ ServerFrame::Final { .. } => return (deltas, errors, f),
                other => panic!("unexpected frame before Final: {other:?}"),
            }
        }
    });

    // The per-frame cadence: a cut at every multiple of `DELTA_EVERY`,
    // numbered in order, covering the stream without gaps.
    let cuts: Vec<u64> = deltas.iter().map(|d| d.covered_to).collect();
    let expected: Vec<u64> = (1..)
        .map(|k| k * DELTA_EVERY)
        .take_while(|&c| c <= accesses.len() as u64)
        .collect();
    assert_eq!(cuts, expected);
    let mut from = 0;
    for (i, d) in deltas.iter().enumerate() {
        assert_eq!((d.seq, d.covered_from), (i as u64, from));
        from = d.covered_to;
    }

    assert_eq!(errors, [ErrorCode::Protocol, ErrorCode::Protocol]);

    // Then the tail, and stats equal to the reference.
    let ServerFrame::Final { delta, .. } = fin else {
        panic!("not final");
    };
    assert_eq!(
        (delta.covered_from, delta.covered_to),
        (from, accesses.len() as u64)
    );
    let reference = reference_delta(&accesses, &[], &default_roster(), spec()).unwrap();
    assert_eq!(canonical_stats(&delta), canonical_stats(&reference));
    server.shutdown();
}
