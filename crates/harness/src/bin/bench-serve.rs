//! Serving-path throughput benchmark — measures end-to-end accesses/sec
//! through the real TCP protocol (framing, CRC, ingest queue, pool
//! fan-out, delta outbox) against the in-process reference replay, and
//! emits `BENCH_serve.json`. `policy_steps_per_sec` is the served access
//! rate times `roster_policies`: each access steps every roster policy.
//!
//! Usage: `bench-serve [--accesses N] [--tenants T] [--json PATH]`
//!        `bench-serve --smoke`
//!
//! `--smoke` is the CI guard: a small stream, a correctness gate (served
//! stats must be byte-identical to the reference), and a generous
//! throughput floor so a catastrophic serving-path regression fails fast
//! without making CI flaky on slow runners.

use harness::policies;
use sim_core::persist::atomic_write;
use sim_core::{Access, AccessKind};
use sim_serve::protocol::{ClientFrame, GeometrySpec, Hello, ServerFrame};
use sim_serve::session::{canonical_stats, reference_delta, Roster};
use sim_serve::{Server, ServerConfig, PROTOCOL_VERSION};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spec() -> GeometrySpec {
    GeometrySpec {
        size_bytes: 256 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

fn roster() -> Roster {
    policies::baseline_roster(0xC0FFEE)
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

fn stream(n: usize, seed: u64) -> Vec<Access> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Access {
                addr: (state % 16384) * 64,
                pc: (i as u64) * 4,
                kind: if state % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                icount_delta: (state % 7) as u32 + 1,
            }
        })
        .collect()
}

/// Streams `accesses` into tenant `name` and returns (canonical stats,
/// wall time of the streaming + finalization).
fn drive_tenant(addr: std::net::SocketAddr, name: &str, accesses: &[Access]) -> (String, Duration) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    sock.set_nodelay(true).unwrap();
    sim_serve::protocol::send_client(
        &mut sock,
        &ClientFrame::Hello(Hello {
            version: PROTOCOL_VERSION,
            tenant: name.to_string(),
            resume: false,
            kv_mode: false,
            geometry: spec(),
            roster: Vec::new(),
            delta_every: 0,
        }),
    )
    .unwrap();
    assert!(matches!(
        sim_serve::protocol::recv_server(&mut sock).unwrap(),
        ServerFrame::HelloAck { .. }
    ));
    let start = Instant::now();
    for chunk in accesses.chunks(512) {
        sim_serve::protocol::send_client(&mut sock, &ClientFrame::Accesses(chunk.to_vec()))
            .unwrap();
    }
    sim_serve::protocol::send_client(&mut sock, &ClientFrame::Finish).unwrap();
    let delta = loop {
        match sim_serve::protocol::recv_server(&mut sock).unwrap() {
            ServerFrame::Final { delta, .. } => break delta,
            ServerFrame::Delta(_) | ServerFrame::Throttled { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let elapsed = start.elapsed();
    let _ = sim_serve::protocol::send_client(&mut sock, &ClientFrame::Bye);
    (canonical_stats(&delta), elapsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut n_accesses = 100_000usize;
    let mut tenants = 4usize;
    let mut json_path = "BENCH_serve.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                n_accesses = 20_000;
                tenants = 2;
            }
            "--accesses" => {
                i += 1;
                n_accesses = args[i].parse().expect("--accesses N");
            }
            "--tenants" => {
                i += 1;
                tenants = args[i].parse().expect("--tenants T");
            }
            "--json" => {
                i += 1;
                json_path = args[i].clone();
            }
            other => {
                eprintln!("bench-serve: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let server = Server::bind_tcp("127.0.0.1:0", roster(), ServerConfig::default())
        .expect("bind bench server");
    let addr = server.local_addr().unwrap();

    // Concurrent tenants hammer the daemon; each thread reports its own
    // wall time and final stats.
    let per_tenant: Vec<(String, Duration, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                scope.spawn(move || {
                    let name = format!("bench-{t}");
                    let accesses = stream(n_accesses, 100 + t as u64);
                    let (stats, elapsed) = drive_tenant(addr, &name, &accesses);
                    (name, elapsed, stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Correctness gate: every tenant's served stats equal the reference.
    let reg = roster();
    for (t, (name, _, stats)) in per_tenant.iter().enumerate() {
        let accesses = stream(n_accesses, 100 + t as u64);
        let reference = reference_delta(&accesses, &[], &reg, spec()).expect("reference");
        assert_eq!(
            stats,
            &canonical_stats(&reference),
            "served stats for {name} diverged from reference"
        );
    }

    let total_accesses = (n_accesses * tenants) as f64;
    let slowest = per_tenant
        .iter()
        .map(|(_, d, _)| d.as_secs_f64())
        .fold(0.0f64, f64::max);
    let rate = total_accesses / slowest;
    println!(
        "bench-serve: {tenants} tenants x {n_accesses} accesses x {} policies: \
         {rate:.0} acc/s end-to-end (slowest tenant {slowest:.3}s)",
        reg.len()
    );

    if smoke {
        // Floor is deliberately 100x under typical debug-build rates:
        // catches "serving path became quadratic", not machine noise.
        assert!(
            rate > 1_000.0,
            "serving throughput collapsed: {rate:.0} acc/s"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"serve\",\n  \"smoke\": {smoke},\n  \"tenants\": {tenants},\n"
    ));
    json.push_str(&format!(
        "  \"accesses_per_tenant\": {n_accesses},\n  \"roster_policies\": {},\n",
        reg.len()
    ));
    // Every served access steps each roster policy once; the steps rate
    // is derived from the rounded access rate so the two fields agree
    // exactly.
    let rate = rate.round();
    json.push_str(&format!(
        "  \"end_to_end_accesses_per_sec\": {rate:.0},\n  \"policy_steps_per_sec\": {:.0},\n  \
         \"stats_match_reference\": true,\n",
        rate * reg.len() as f64
    ));
    json.push_str("  \"per_tenant\": [\n");
    for (i, (name, d, _)) in per_tenant.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenant\": \"{name}\", \"seconds\": {:.4}}}{}\n",
            d.as_secs_f64(),
            if i + 1 < per_tenant.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    atomic_write(std::path::Path::new(&json_path), json.as_bytes()).expect("write json");
    println!("bench-serve: wrote {json_path}");

    server.shutdown();
}
