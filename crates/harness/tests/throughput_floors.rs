//! Throughput floors for the replay and serving paths: catastrophic-
//! regression guards (accidental debug logic, quadratic routing, a
//! stalled serving path), not performance measurements. Speed is
//! measured by `perfbench` against `BENCHMARK.json`; these floors sit
//! well below what even a debug build reaches, so runner noise cannot
//! trip them.
//!
//! The checks run in sequence inside one `#[test]` so nothing else in
//! this binary competes for the cores while they are timed.

use baselines::AwrpPolicy;
use harness::{policies, Scale};
use mem_model::cpi::WindowPerfModel;
use mem_model::{plan, replay_llc_mono, replay_many, replay_many_sharded, Engine};
use sim_core::{
    Access, AccessKind, CacheGeometry, PolicyFactory, ReplacementPolicy, ShardedStream,
};
use sim_serve::protocol::{self, ClientFrame, GeometrySpec, Hello, ServerFrame};
use sim_serve::session::{canonical_stats, reference_delta, Roster};
use sim_serve::{Server, ServerConfig, PROTOCOL_VERSION};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn replay_and_serving_clear_their_throughput_floors() {
    batched_roster_floor();
    sharded_beats_mono();
    served_throughput_floor();
}

/// The 5-policy roster through one `replay_many` batch must clear 1e6
/// accesses/s on a 40k-access mixed hot/scan stream at micro scale.
fn batched_roster_floor() {
    let geom = Scale::Micro.hierarchy().llc;
    let perf = WindowPerfModel::default();
    // A mixed hot/scan stream over 4x the cache's block capacity.
    let blocks = (geom.sets() * geom.ways() * 4) as u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let stream: Vec<Access> = (0..40_000usize)
        .map(|i| {
            let s = xorshift(&mut state);
            let block = if i % 4 == 0 {
                s % (blocks / 8).max(1)
            } else {
                s % blocks
            };
            let addr = block * geom.line_bytes();
            let a = if s & 3 == 0 {
                Access::write(addr, s % 512)
            } else {
                Access::read(addr, s % 512)
            };
            a.with_icount_delta((s % 9) as u32 + 1)
        })
        .collect();
    let warmup = mem_model::llc::default_warmup(stream.len());
    let roster = [
        policies::lru(),
        policies::plru(),
        policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
        policies::dgippr(gippr::vectors::wi_4dgippr().to_vec(), "WI-4-DGIPPR"),
        policies::drrip(),
    ];
    let refs: Vec<&PolicyFactory> = roster.iter().collect();

    let start = Instant::now();
    let batched = replay_many(&stream, geom, &refs, warmup, &perf);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(batched.len(), roster.len());
    let rate = (stream.len() * refs.len()) as f64 / elapsed.max(1e-12);
    println!(
        "batched roster: {} policies x {} accesses, {:.1}M acc/s",
        refs.len(),
        stream.len(),
        rate / 1.0e6
    );
    assert!(
        rate > 1.0e6,
        "batched throughput sanity floor: {rate:.0} accesses/sec"
    );
}

/// On a multi-core host the sharded batch engine must beat the mono
/// engine for AWRP, the one roster member planned `Sharded` (set-local,
/// no slice kernel; FIFO runs on a stack kernel). Skipped on fewer than 2 cores, or when the worker budget
/// routes the stream to fewer than 2 shards: there is no parallelism to
/// check there.
fn sharded_beats_mono() {
    let geom = Scale::Micro.hierarchy().llc;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Long enough for per-shard work to dominate pool dispatch overhead.
    let blocks = (geom.sets() * geom.ways() * 4) as u64;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let stream: Vec<Access> = (0..800_000usize)
        .map(|_| {
            let s = xorshift(&mut state);
            Access::read((s % blocks) * geom.line_bytes(), s % 512)
                .with_icount_delta((s % 9) as u32 + 1)
        })
        .collect();
    let warmup = mem_model::llc::default_warmup(stream.len());
    let sharded =
        ShardedStream::for_parallelism(&stream, &geom, warmup, sim_core::pool::global().cap());
    if cores < 2 || sharded.shards() < 2 {
        println!(
            "sharded>mono check skipped ({cores} core(s), {} shard(s))",
            sharded.shards()
        );
        return;
    }

    /// Best-of-5 mono time over best-of-5 sharded time for one policy.
    fn speedup_of<P: ReplacementPolicy + 'static>(
        name: &str,
        stream: &[Access],
        sharded: &ShardedStream,
        geom: CacheGeometry,
        warmup: usize,
        factory: &PolicyFactory,
        make_mono: fn(&CacheGeometry) -> P,
    ) -> f64 {
        let perf = &WindowPerfModel::default();
        assert_eq!(
            plan(&*factory(&geom), &geom, sharded.shards()).engine,
            Engine::Sharded,
            "{name}: the speedup check only makes sense for policies planned Sharded"
        );
        let (mut mono_best, mut sharded_best) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let start = Instant::now();
            let mono = replay_llc_mono(
                stream,
                geom,
                std::hint::black_box(make_mono(&geom)),
                warmup,
                perf,
            );
            mono_best = mono_best.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let out = replay_many_sharded(stream, sharded, &[std::hint::black_box(factory)], perf);
            sharded_best = sharded_best.min(start.elapsed().as_secs_f64());
            assert_eq!(
                mono.stats.misses, out[0].stats.misses,
                "{name}: engines agree"
            );
        }
        mono_best / sharded_best.max(1e-12)
    }

    let speedup = speedup_of(
        "AWRP",
        &stream,
        &sharded,
        geom,
        warmup,
        &policies::awrp(),
        AwrpPolicy::new,
    );
    println!(
        "AWRP: sharded/mono speedup {speedup:.2}x ({} shards on {cores} cores)",
        sharded.shards()
    );
    assert!(
        speedup > 1.0,
        "on a {cores}-core host the sharded engine must beat the mono engine \
         for AWRP, planned Sharded; it ran at {speedup:.2}x"
    );
}

fn serve_geometry() -> GeometrySpec {
    GeometrySpec {
        size_bytes: 256 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

fn serve_roster() -> Roster {
    policies::baseline_roster(0xC0FFEE)
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

fn serve_stream(n: usize, seed: u64) -> Vec<Access> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            let s = xorshift(&mut state);
            Access {
                addr: (s % 16384) * 64,
                pc: (i as u64) * 4,
                kind: if s % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                icount_delta: (s % 7) as u32 + 1,
            }
        })
        .collect()
}

/// Streams `accesses` into tenant `name`; returns the canonical final
/// stats and the wall time of streaming plus finalization.
fn drive_tenant(addr: SocketAddr, name: &str, accesses: &[Access]) -> (String, Duration) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    sock.set_nodelay(true).unwrap();
    protocol::send_client(
        &mut sock,
        &ClientFrame::Hello(Hello {
            version: PROTOCOL_VERSION,
            tenant: name.to_string(),
            resume: false,
            kv_mode: false,
            geometry: serve_geometry(),
            roster: Vec::new(),
            delta_every: 0,
        }),
    )
    .unwrap();
    assert!(matches!(
        protocol::recv_server(&mut sock).unwrap(),
        ServerFrame::HelloAck { .. }
    ));
    let start = Instant::now();
    for chunk in accesses.chunks(512) {
        protocol::send_client(&mut sock, &ClientFrame::Accesses(chunk.to_vec())).unwrap();
    }
    protocol::send_client(&mut sock, &ClientFrame::Finish).unwrap();
    let delta = loop {
        match protocol::recv_server(&mut sock).unwrap() {
            ServerFrame::Final { delta, .. } => break delta,
            ServerFrame::Delta(_) | ServerFrame::Throttled { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let elapsed = start.elapsed();
    let _ = protocol::send_client(&mut sock, &ClientFrame::Bye);
    (canonical_stats(&delta), elapsed)
}

/// Two concurrent tenants stream 20k accesses each through the real TCP
/// daemon. Each tenant's served stats must equal the in-process
/// reference, and the served rate (total accesses over the slowest
/// tenant's wall time) must clear 1,000 accesses/s.
fn served_throughput_floor() {
    const TENANTS: usize = 2;
    const ACCESSES: usize = 20_000;
    let server = Server::bind_tcp("127.0.0.1:0", serve_roster(), ServerConfig::default())
        .expect("bind server");
    let addr = server.local_addr().unwrap();
    let per_tenant: Vec<(String, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                scope.spawn(move || {
                    let accesses = serve_stream(ACCESSES, 100 + t as u64);
                    drive_tenant(addr, &format!("floor-{t}"), &accesses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.shutdown();

    let roster = serve_roster();
    for (t, (stats, _)) in per_tenant.iter().enumerate() {
        let accesses = serve_stream(ACCESSES, 100 + t as u64);
        let reference =
            reference_delta(&accesses, &[], &roster, serve_geometry()).expect("reference");
        assert_eq!(
            stats,
            &canonical_stats(&reference),
            "served stats for tenant {t} diverged from reference"
        );
    }
    let slowest = per_tenant
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .fold(0.0f64, f64::max);
    let rate = (ACCESSES * TENANTS) as f64 / slowest;
    println!(
        "served: {TENANTS} tenants x {ACCESSES} accesses x {} policies, {rate:.0} acc/s",
        roster.len()
    );
    assert!(
        rate > 1_000.0,
        "serving throughput collapsed: {rate:.0} acc/s"
    );
}
