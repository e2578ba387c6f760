//! End-to-end daemon tests over real TCP loopback sockets: the happy
//! path, typed rejection of malformed input, restart-resume bit-identity,
//! idle expiry, and — with `sim-fault` injection — mid-stream
//! disconnects, accept failures, forced backpressure coalescing, snapshot
//! disk faults, and one snapshot write per session state.

use sim_core::{Access, AccessKind};
use sim_serve::protocol::{
    recv_server, send_client, write_frame, ClientFrame, ErrorCode, GeometrySpec, Hello, KvOp,
    ServerFrame,
};
use sim_serve::server::{Server, ServerConfig, ServerHandle};
use sim_serve::session::{canonical_stats, default_roster, reference_delta, Session};
use sim_serve::PROTOCOL_VERSION;
use std::net::TcpStream;
use std::time::Duration;

fn spec() -> GeometrySpec {
    GeometrySpec {
        size_bytes: 64 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

/// Deterministic access stream (same construction as the session tests).
fn stream(n: usize, seed: u64) -> Vec<Access> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
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

struct Client {
    sock: TcpStream,
}

impl Client {
    fn connect(server: &ServerHandle) -> Client {
        let addr = server.local_addr().expect("tcp server has an address");
        let sock = TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        sock.set_nodelay(true).unwrap();
        Client { sock }
    }

    fn send(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        send_client(&mut self.sock, frame)
    }

    fn recv(&mut self) -> ServerFrame {
        recv_server(&mut self.sock).expect("server frame")
    }

    fn try_recv(&mut self) -> Result<ServerFrame, sim_serve::ProtoError> {
        recv_server(&mut self.sock)
    }

    fn hello(&mut self, tenant: &str, resume: bool, kv: bool, delta_every: u64) -> ServerFrame {
        self.send(&ClientFrame::Hello(Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.into(),
            resume,
            kv_mode: kv,
            geometry: spec(),
            roster: Vec::new(),
            delta_every,
        }))
        .expect("send hello");
        self.recv()
    }

    /// Reads frames until `Final`, returning (deltas, throttles, warnings,
    /// final).
    fn drain_to_final(&mut self) -> (Vec<sim_serve::Delta>, u64, Vec<(u8, String)>, ServerFrame) {
        let mut deltas = Vec::new();
        let mut throttles = 0u64;
        let mut warnings = Vec::new();
        loop {
            match self.recv() {
                ServerFrame::Delta(d) => deltas.push(d),
                ServerFrame::Throttled { coalesced } => throttles += coalesced,
                ServerFrame::Warning { code, message } => warnings.push((code, message)),
                f @ ServerFrame::Final { .. } => return (deltas, throttles, warnings, f),
                other => panic!("unexpected frame before Final: {other:?}"),
            }
        }
    }
}

fn serve(config: ServerConfig) -> ServerHandle {
    Server::bind_tcp("127.0.0.1:0", default_roster(), config).expect("bind")
}

#[test]
fn end_to_end_session_matches_reference() {
    let server = serve(ServerConfig::default());
    let accesses = stream(300, 9);

    let mut c = Client::connect(&server);
    match c.hello("tenant-e2e", false, false, 64) {
        ServerFrame::HelloAck {
            resumed, roster, ..
        } => {
            assert_eq!(resumed, 0);
            assert_eq!(roster.len(), default_roster().len());
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
    for chunk in accesses.chunks(37) {
        c.send(&ClientFrame::Accesses(chunk.to_vec())).unwrap();
    }
    c.send(&ClientFrame::Finish).unwrap();
    let (deltas, _throttled, warnings, fin) = c.drain_to_final();
    assert!(warnings.is_empty(), "{warnings:?}");

    // Periodic deltas: monotonically increasing seq, contiguous coverage.
    let mut expect_from = 0;
    for (i, d) in deltas.iter().enumerate() {
        assert_eq!(d.seq, i as u64);
        assert_eq!(d.covered_from, expect_from);
        expect_from = d.covered_to;
    }

    let ServerFrame::Final { delta, leaderboard } = fin else {
        panic!("not final");
    };
    let reference = reference_delta(&accesses, &[], &default_roster(), spec()).unwrap();
    assert_eq!(canonical_stats(&delta), canonical_stats(&reference));
    assert_eq!(leaderboard.len(), 1);
    assert_eq!(leaderboard[0].tenant, "tenant-e2e");
    assert_eq!(leaderboard[0].accesses, 300);

    c.send(&ClientFrame::Bye).unwrap();
    assert!(matches!(c.recv(), ServerFrame::Bye));
    server.shutdown();
}

#[test]
fn kv_session_matches_hand_lowered_reference() {
    let server = serve(ServerConfig::default());
    let ops: Vec<KvOp> = (0..240)
        .map(|i| KvOp {
            write: i % 4 == 0,
            key: format!("item:{}", i % 53),
        })
        .collect();

    let mut c = Client::connect(&server);
    assert!(matches!(
        c.hello("tenant-kv", false, true, 1000),
        ServerFrame::HelloAck { .. }
    ));
    for chunk in ops.chunks(50) {
        c.send(&ClientFrame::KvBatch(chunk.to_vec())).unwrap();
    }
    c.send(&ClientFrame::Finish).unwrap();
    let (_, _, _, fin) = c.drain_to_final();
    let ServerFrame::Final { delta, .. } = fin else {
        panic!("not final");
    };

    let lowered: Vec<Access> = ops
        .iter()
        .map(|op| sim_serve::kv::op_to_access(op, 64))
        .collect();
    let reference = reference_delta(&lowered, &[], &default_roster(), spec()).unwrap();
    assert_eq!(canonical_stats(&delta), canonical_stats(&reference));
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_and_daemon_survives() {
    use std::io::Write as _;
    let server = serve(ServerConfig::default());

    // Unknown frame kind (valid CRC): typed BadFrame error.
    let mut c = Client::connect(&server);
    write_frame(&mut c.sock, 0x7f, b"junk").unwrap();
    match c.recv() {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected typed error, got {other:?}"),
    }

    // Corrupted CRC: typed BadCrc error.
    let mut c = Client::connect(&server);
    let (kind, payload) = ClientFrame::Finish.encode();
    let mut buf = Vec::new();
    write_frame(&mut buf, kind, &payload).unwrap();
    let last = buf.len() - 1;
    buf[last] ^= 0xff;
    c.sock.write_all(&buf).unwrap();
    match c.recv() {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadCrc),
        other => panic!("expected BadCrc, got {other:?}"),
    }

    // Oversized length prefix: typed TooLarge error, no allocation blowup.
    let mut c = Client::connect(&server);
    c.sock.write_all(&u32::MAX.to_le_bytes()).unwrap();
    c.sock.write_all(&[0x01]).unwrap();
    match c.recv() {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("expected TooLarge, got {other:?}"),
    }

    // A session opened after all that abuse still works end to end.
    let mut c = Client::connect(&server);
    assert!(matches!(
        c.hello("tenant-after-abuse", false, false, 1000),
        ServerFrame::HelloAck { .. }
    ));
    c.send(&ClientFrame::Accesses(stream(50, 3))).unwrap();
    c.send(&ClientFrame::Finish).unwrap();
    let (_, _, _, fin) = c.drain_to_final();
    assert!(matches!(fin, ServerFrame::Final { .. }));
    server.shutdown();
}

#[test]
fn bad_hello_and_busy_sessions_are_typed() {
    let server = serve(ServerConfig::default());

    // Unknown policy.
    let mut c = Client::connect(&server);
    c.send(&ClientFrame::Hello(Hello {
        version: PROTOCOL_VERSION,
        tenant: "t".into(),
        resume: false,
        kv_mode: false,
        geometry: spec(),
        roster: vec!["NoSuchPolicy".into()],
        delta_every: 0,
    }))
    .unwrap();
    match c.recv() {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownPolicy),
        other => panic!("{other:?}"),
    }

    // Wrong protocol version.
    let mut c = Client::connect(&server);
    c.send(&ClientFrame::Hello(Hello {
        version: 999,
        tenant: "t".into(),
        resume: false,
        kv_mode: false,
        geometry: spec(),
        roster: Vec::new(),
        delta_every: 0,
    }))
    .unwrap();
    match c.recv() {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadHello),
        other => panic!("{other:?}"),
    }

    // Second connection for an attached tenant: SessionBusy.
    let mut a = Client::connect(&server);
    assert!(matches!(
        a.hello("tenant-busy", false, false, 0),
        ServerFrame::HelloAck { .. }
    ));
    let mut b = Client::connect(&server);
    match b.hello("tenant-busy", false, false, 0) {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::SessionBusy),
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn hello_over_the_geometry_cap_is_refused_and_other_tenants_keep_going() {
    use sim_serve::session::MAX_SESSION_LINES;
    let server = serve(ServerConfig::default());
    let mut a = Client::connect(&server);
    assert!(matches!(
        a.hello("tenant-before", false, false, 1000),
        ServerFrame::HelloAck { .. }
    ));

    // Twice the cap, and a 2^40-byte LLC: each would have the daemon
    // allocate tag arrays for every roster policy.
    for size_bytes in [2 * MAX_SESSION_LINES * 64, 1 << 40] {
        let mut hostile = Client::connect(&server);
        hostile
            .send(&ClientFrame::Hello(Hello {
                version: PROTOCOL_VERSION,
                tenant: "hostile".into(),
                resume: false,
                kv_mode: false,
                geometry: GeometrySpec {
                    size_bytes,
                    ..spec()
                },
                roster: Vec::new(),
                delta_every: 0,
            }))
            .unwrap();
        match hostile.recv() {
            ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadHello),
            other => panic!("expected BadHello, got {other:?}"),
        }
    }

    // The tenant attached before, and one opened after, are both served.
    let mut b = Client::connect(&server);
    assert!(matches!(
        b.hello("tenant-after", false, false, 1000),
        ServerFrame::HelloAck { .. }
    ));
    for c in [&mut a, &mut b] {
        c.send(&ClientFrame::Accesses(stream(50, 3))).unwrap();
        c.send(&ClientFrame::Finish).unwrap();
        let (_, _, _, fin) = c.drain_to_final();
        assert!(matches!(fin, ServerFrame::Final { .. }));
    }
    server.shutdown();
}

#[test]
fn daemon_restart_resumes_sessions_bit_identically() {
    let dir = std::env::temp_dir().join(format!("sim-serve-e2e-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let accesses = stream(300, 21);
    let (head, tail) = accesses.split_at(180);

    // First daemon: stream the head, then leave (Bye parks + snapshots).
    let server = serve(config.clone());
    let mut c = Client::connect(&server);
    assert!(matches!(
        c.hello("tenant-r", false, false, 64),
        ServerFrame::HelloAck { .. }
    ));
    for chunk in head.chunks(41) {
        c.send(&ClientFrame::Accesses(chunk.to_vec())).unwrap();
    }
    c.send(&ClientFrame::Bye).unwrap();
    // Drain until Bye so ingest is fully acknowledged before shutdown.
    loop {
        match c.recv() {
            ServerFrame::Bye => break,
            ServerFrame::Delta(_) | ServerFrame::Throttled { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    server.shutdown(); // the "kill": daemon gone, snapshot on disk

    // Second daemon, same snapshot dir: the session must come back.
    let server = serve(config);
    assert_eq!(server.session_count(), 1, "snapshot restored at startup");
    let mut c = Client::connect(&server);
    match c.hello("tenant-r", true, false, 64) {
        ServerFrame::HelloAck { resumed, .. } => assert_eq!(resumed, 180),
        other => panic!("{other:?}"),
    }
    for chunk in tail.chunks(41) {
        c.send(&ClientFrame::Accesses(chunk.to_vec())).unwrap();
    }
    c.send(&ClientFrame::Finish).unwrap();
    let (_, _, _, fin) = c.drain_to_final();
    let ServerFrame::Final { delta, .. } = fin else {
        panic!("not final");
    };
    let reference = reference_delta(&accesses, &[], &default_roster(), spec()).unwrap();
    assert_eq!(
        canonical_stats(&delta),
        canonical_stats(&reference),
        "killed-and-restarted daemon must reproduce the uninterrupted run"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connection_expires_but_session_survives() {
    let server = serve(ServerConfig {
        idle_timeout: Duration::from_millis(120),
        tick: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&server);
    assert!(matches!(
        c.hello("tenant-idle", false, false, 0),
        ServerFrame::HelloAck { .. }
    ));
    c.send(&ClientFrame::Accesses(stream(40, 5))).unwrap();
    // Go quiet. The deadline wheel must sever this connection.
    let died = c.try_recv().is_err();
    assert!(died, "idle connection should be shut down by the server");

    // The tenant is not lost: a resume picks the session back up. The
    // client can see the severed socket before the server has parked the
    // session, so a resume may meet `SessionBusy` first; retry until the
    // server releases it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = Client::connect(&server);
        match c.hello("tenant-idle", true, false, 0) {
            ServerFrame::HelloAck { resumed, .. } => {
                assert_eq!(resumed, 40);
                break;
            }
            ServerFrame::Error {
                code: ErrorCode::SessionBusy,
                ..
            } => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "session never detached"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("{other:?}"),
        }
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Injected connection/disk faults (need the `injection` feature, which
// `cargo test` enables through dev-dependency feature unification).

#[test]
fn injected_midstream_disconnect_spares_the_session() {
    if !sim_fault::COMPILED_IN {
        return;
    }
    let server = serve(ServerConfig {
        label: "dsrv-disc".into(),
        ..ServerConfig::default()
    });
    let accesses = stream(200, 33);

    // Sever the first connection's socket from the 25th server-side I/O
    // operation onward: a mid-frame disconnect somewhere in the stream.
    let resumed = sim_fault::with_plan("disconnect@dsrv-disc.conn1:n=25:sticky", || {
        let mut c = Client::connect(&server);
        assert!(matches!(
            c.hello("tenant-d", false, false, 1_000_000),
            ServerFrame::HelloAck { .. }
        ));
        for chunk in accesses.chunks(10) {
            if c.send(&ClientFrame::Accesses(chunk.to_vec())).is_err() {
                break;
            }
        }
        // The connection is dead (possibly after the whole send loop, if
        // the kernel buffered our writes); wait for the server to park
        // the session, then ask how far it got.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut c = Client::connect(&server);
            match c.hello("tenant-d", true, false, 1_000_000) {
                ServerFrame::HelloAck { resumed, .. } => {
                    c.send(&ClientFrame::Bye).unwrap();
                    return resumed;
                }
                ServerFrame::Error {
                    code: ErrorCode::SessionBusy,
                    ..
                } => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "session never detached"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => panic!("{other:?}"),
            }
        }
    });
    // The server kept a whole-batch prefix of the stream: nothing torn,
    // nothing duplicated.
    assert!(resumed <= 200, "kept {resumed}");
    assert_eq!(resumed % 10, 0, "partial batches must not be ingested");

    // Resume from exactly there and finish: bit-identical to a clean run.
    let mut c = Client::connect(&server);
    match c.hello("tenant-d", true, false, 1_000_000) {
        ServerFrame::HelloAck { resumed: r, .. } => assert_eq!(r, resumed),
        other => panic!("{other:?}"),
    }
    for chunk in accesses[resumed as usize..].chunks(10) {
        c.send(&ClientFrame::Accesses(chunk.to_vec())).unwrap();
    }
    c.send(&ClientFrame::Finish).unwrap();
    let (_, _, _, fin) = c.drain_to_final();
    let ServerFrame::Final { delta, .. } = fin else {
        panic!("not final");
    };
    let reference = reference_delta(&accesses, &[], &default_roster(), spec()).unwrap();
    assert_eq!(canonical_stats(&delta), canonical_stats(&reference));
    server.shutdown();
}

#[test]
fn injected_accept_failure_is_survived() {
    if !sim_fault::COMPILED_IN {
        return;
    }
    let server = serve(ServerConfig {
        label: "asrv-acc".into(),
        ..ServerConfig::default()
    });
    sim_fault::with_plan("accept-fail@asrv-acc:n=1", || {
        // First connection is dropped at accept: the client sees the
        // socket close (or reset) without ever receiving a frame.
        let mut c = Client::connect(&server);
        let _ = c.send(&ClientFrame::Hello(Hello {
            version: PROTOCOL_VERSION,
            tenant: "tenant-a".into(),
            resume: false,
            kv_mode: false,
            geometry: spec(),
            roster: Vec::new(),
            delta_every: 0,
        }));
        assert!(
            c.try_recv().is_err(),
            "dropped-at-accept connection must not produce a frame"
        );
    });
    // What matters is that the NEXT connection works.
    let mut c = Client::connect(&server);
    assert!(matches!(
        c.hello("tenant-a2", false, false, 0),
        ServerFrame::HelloAck { .. }
    ));
    c.send(&ClientFrame::Accesses(stream(30, 2))).unwrap();
    c.send(&ClientFrame::Finish).unwrap();
    let (_, _, _, fin) = c.drain_to_final();
    assert!(matches!(fin, ServerFrame::Final { .. }));
    server.shutdown();
}

#[test]
fn stalled_writer_forces_coalescing_and_throttle_frame() {
    if !sim_fault::COMPILED_IN {
        return;
    }
    let server = serve(ServerConfig {
        label: "tsrv-slow".into(),
        outbox_bound: 2,
        ..ServerConfig::default()
    });
    // Stall only the server->client direction: replay runs at full speed,
    // the writer crawls, the outbox must coalesce instead of growing.
    let n = 60u64;
    let (deltas, throttled, fin) =
        sim_fault::with_plan("conn-stall@tsrv-slow.conn1.w:ms=40:sticky", || {
            let mut c = Client::connect(&server);
            assert!(matches!(
                c.hello("tenant-slow", false, false, 1),
                ServerFrame::HelloAck { .. }
            ));
            // One access per batch, delta_every=1: every batch births a
            // delta, two orders of magnitude faster than the writer.
            for a in stream(n as usize, 77) {
                c.send(&ClientFrame::Accesses(vec![a])).unwrap();
            }
            c.send(&ClientFrame::Finish).unwrap();
            let (d, t, _, f) = c.drain_to_final();
            (d, t, f)
        });

    assert!(
        throttled > 0,
        "a slow consumer must be told about coalescing"
    );
    assert!(
        (deltas.len() as u64) < n,
        "coalescing must shrink the delta stream ({} of {n} arrived)",
        deltas.len()
    );
    // Exactly-once delivery despite coalescing: contiguous, gap-free
    // coverage from 0 to n across the deltas that did arrive.
    let mut expect_from = 0;
    for d in &deltas {
        assert_eq!(d.covered_from, expect_from, "gap or overlap in coverage");
        expect_from = d.covered_to;
    }
    let ServerFrame::Final { delta, .. } = fin else {
        panic!("not final");
    };
    assert_eq!(delta.covered_from, expect_from, "final covers the rest");
    assert_eq!(delta.covered_to, n);
    server.shutdown();
}

#[test]
fn snapshot_disk_fault_degrades_session_with_warning() {
    if !sim_fault::COMPILED_IN {
        return;
    }
    let dir = std::env::temp_dir().join(format!("sim-serve-e2e-deg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fn no_backoff(_attempt: u64) -> Duration {
        Duration::from_millis(0)
    }
    let server = serve(ServerConfig {
        snapshot_dir: Some(dir.clone()),
        snapshot_every: 50,
        snapshot_attempts: 2,
        backoff: no_backoff,
        ..ServerConfig::default()
    });
    let accesses = stream(160, 55);

    let (warnings, fin) = sim_fault::with_plan("enospc@tenant-deg.ssn:sticky", || {
        let mut c = Client::connect(&server);
        assert!(matches!(
            c.hello("tenant-deg", false, false, 1_000_000),
            ServerFrame::HelloAck { .. }
        ));
        for chunk in accesses.chunks(20) {
            c.send(&ClientFrame::Accesses(chunk.to_vec())).unwrap();
        }
        c.send(&ClientFrame::Finish).unwrap();
        let (_, _, w, f) = c.drain_to_final();
        (w, f)
    });

    // Exactly one degradation warning (ephemeral sessions stop retrying).
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(
        warnings[0].0,
        sim_serve::protocol::warning::SNAPSHOT_DEGRADED
    );
    // The tenant's replay was not harmed by the dying disk.
    let ServerFrame::Final { delta, .. } = fin else {
        panic!("not final");
    };
    let reference = reference_delta(&accesses, &[], &default_roster(), spec()).unwrap();
    assert_eq!(canonical_stats(&delta), canonical_stats(&reference));
    // And no snapshot file exists (the writes all failed atomically).
    assert!(!dir.join("tenant-deg.ssn").exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finish_then_bye_writes_the_snapshot_once() {
    if !sim_fault::COMPILED_IN {
        return;
    }
    let dir = std::env::temp_dir().join(format!("sim-serve-e2e-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fn no_backoff(_attempt: u64) -> Duration {
        Duration::from_millis(0)
    }
    let server = serve(ServerConfig {
        snapshot_dir: Some(dir.clone()),
        snapshot_attempts: 1,
        backoff: no_backoff,
        ..ServerConfig::default()
    });
    let accesses = stream(200, 61);

    // A second write of the tenant's snapshot would hit ENOSPC and, with a
    // single attempt, degrade the session with a Warning. `Finish` writes
    // the snapshot; the detach after `Bye` finds that state already on
    // disk and must not write again.
    let after_bye = sim_fault::with_plan("enospc@tenant-once.ssn:n=2", || {
        let mut c = Client::connect(&server);
        assert!(matches!(
            c.hello("tenant-once", false, false, 64),
            ServerFrame::HelloAck { .. }
        ));
        for chunk in accesses.chunks(25) {
            c.send(&ClientFrame::Accesses(chunk.to_vec())).unwrap();
        }
        c.send(&ClientFrame::Finish).unwrap();
        let (_, _, warnings, _) = c.drain_to_final();
        assert!(warnings.is_empty(), "{warnings:?}");
        c.send(&ClientFrame::Bye).unwrap();
        // The server closes only after the session is parked.
        let mut frames = Vec::new();
        while let Ok(f) = c.try_recv() {
            frames.push(f);
        }
        frames
    });
    assert!(matches!(after_bye[..], [ServerFrame::Bye]), "{after_bye:?}");

    // The one write restores to a bit-identical session.
    let bytes = std::fs::read(dir.join("tenant-once.ssn")).unwrap();
    let restored = Session::restore(&bytes, &default_roster()).unwrap();
    assert_eq!(restored.ingested(), 200);
    assert_eq!(restored.snapshot_bytes(), bytes);
    let reference = reference_delta(&accesses, &[], &default_roster(), spec()).unwrap();
    assert_eq!(
        canonical_stats(&restored.current_delta()),
        canonical_stats(&reference)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_listener_works() {
    let dir = std::env::temp_dir().join(format!("sim-serve-uds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let server = Server::bind_unix(&path, default_roster(), ServerConfig::default()).unwrap();

    let mut sock = std::os::unix::net::UnixStream::connect(&path).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    send_client(
        &mut sock,
        &ClientFrame::Hello(Hello {
            version: PROTOCOL_VERSION,
            tenant: "tenant-uds".into(),
            resume: false,
            kv_mode: false,
            geometry: spec(),
            roster: Vec::new(),
            delta_every: 0,
        }),
    )
    .unwrap();
    assert!(matches!(
        recv_server(&mut sock).unwrap(),
        ServerFrame::HelloAck { .. }
    ));
    send_client(&mut sock, &ClientFrame::Accesses(stream(25, 1))).unwrap();
    send_client(&mut sock, &ClientFrame::Finish).unwrap();
    loop {
        match recv_server(&mut sock).unwrap() {
            ServerFrame::Final { .. } => break,
            ServerFrame::Delta(_) | ServerFrame::Throttled { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
