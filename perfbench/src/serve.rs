//! `serve-mixed`: the serving daemon under two closed-loop tenants.
//!
//! An in-process `Server` on loopback TCP serves the 12-policy roster with
//! snapshots enabled and the default delta cadence. Per round, two client
//! connections stream at once: an address-mode tenant replaying a SPEC
//! model's reference trace (reads with writes mixed in) and a KV tenant
//! streaming Zipf-keyed gets with about 10% puts. Each client sends as
//! fast as backpressure lets it — a closed loop of two trace replayers,
//! not independent users.

use crate::inputs::{mix, simpoint_spec, SplitMix, Zipf};
use crate::report::{median, metric, percentile, stream_digest, with_peak_rss};
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Run, SETUP_REPEATS};
use harness::policies;
use sim_core::Access;
use sim_serve::protocol::{
    read_frame, recv_server, send_client, write_frame, ClientFrame, GeometrySpec, Hello, KvOp,
    ServerFrame,
};
use sim_serve::session::{canonical_stats, reference_delta, write_snapshot, Roster, Session};
use sim_serve::{Server, ServerConfig, ServerHandle, PROTOCOL_VERSION};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use traces::format::Crc32;
use traces::spec2006::Spec2006;

/// Accesses (or KV operations) each tenant streams per round.
pub const ACCESSES: usize = 1_500_000;
/// Accesses per ingest frame.
pub const CHUNK: usize = 512;
/// KV key space: 32 keys per LLC line. Each key maps to one line, so the
/// Zipf head the LLC can hold draws most gets (hit/promote path) while the
/// tail keeps missing (miss/insert path).
const KEYS: usize = 32 * (512 * 1024 / 64);
/// YCSB's default Zipfian constant (`ZipfianGenerator.ZIPFIAN_CONSTANT`,
/// Cooper et al., SoCC 2010).
const ZIPF_S: f64 = 0.99;
/// One put in ten, the write share of the `serve` binary's KV client.
const PUT_FRAC: f64 = 0.10;

/// The medium-scale LLC: 512 KB, 16-way, 64-byte lines.
pub fn spec() -> GeometrySpec {
    GeometrySpec {
        size_bytes: 512 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

pub fn roster() -> Roster {
    policies::baseline_roster(0xC0FFEE)
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

/// One tenant's inputs: the raw accesses its frames carry (KV operations
/// lowered to the accesses the server derives from them) and the frames.
pub struct Tenant {
    pub name: &'static str,
    pub kv: bool,
    pub accesses: Vec<Access>,
    pub frames: Vec<ClientFrame>,
}

/// Both tenants' inputs for `seed`, `n` operations each.
pub fn tenants(
    seed: u64,
    n: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
    round: u32,
) -> [Tenant; 2] {
    let line = u64::from(spec().line_bytes);
    let accesses: Vec<Access> = tracer.span("traces.generate", parent, round, |_| {
        simpoint_spec(Spec2006::Omnetpp, 0, 3, seed)
            .generator(0)
            .take(n)
            .collect()
    });
    let ops: Vec<KvOp> = tracer.span("traces.generate", parent, round, |_| {
        let zipf = Zipf::new(KEYS, ZIPF_S);
        let mut rng = SplitMix::new(mix(seed ^ 0x6b76));
        (0..n)
            .map(|_| {
                let rank = zipf.sample(&mut rng);
                KvOp {
                    write: rng.next_f64() < PUT_FRAC,
                    key: format!("k{rank}"),
                }
            })
            .collect()
    });
    [
        Tenant {
            name: "addr",
            kv: false,
            frames: accesses
                .chunks(CHUNK)
                .map(|c| ClientFrame::Accesses(c.to_vec()))
                .collect(),
            accesses,
        },
        Tenant {
            name: "kv",
            kv: true,
            accesses: ops
                .iter()
                .map(|op| sim_serve::kv::op_to_access(op, line))
                .collect(),
            frames: ops
                .chunks(CHUNK)
                .map(|c| ClientFrame::KvBatch(c.to_vec()))
                .collect(),
        },
    ]
}

fn hello(t: &Tenant) -> ClientFrame {
    ClientFrame::Hello(Hello {
        version: PROTOCOL_VERSION,
        tenant: t.name.to_string(),
        resume: false,
        kv_mode: t.kv,
        geometry: spec(),
        roster: Vec::new(),
        delta_every: 0,
    })
}

/// Opens a connection and completes the handshake.
fn open(addr: SocketAddr, t: &Tenant) -> io::Result<TcpStream> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_secs(120)))?;
    send_client(&mut sock, &hello(t))?;
    match recv_server(&mut sock) {
        Ok(ServerFrame::HelloAck { .. }) => Ok(sock),
        other => Err(io::Error::other(format!("handshake failed: {other:?}"))),
    }
}

/// What one tenant saw in one round.
#[derive(Debug, Default)]
pub struct TenantRound {
    pub final_stats: Option<String>,
    pub deltas: u64,
    pub throttled: u64,
    pub errors: u64,
    /// Send of the frame that crossed a delta boundary → receipt of the
    /// `Delta` covering it.
    pub latencies_ms: Vec<f64>,
    /// Time the sender spent inside `send_client` (blocked on backpressure).
    pub send_s: f64,
}

/// Streams every frame of `t` over a fresh session, then `Finish`, and
/// collects the server's frames on a second thread until `Final`.
fn drive(
    addr: SocketAddr,
    t: &Tenant,
    tracer: &Tracer,
    parent: Option<SpanId>,
    round: u32,
) -> io::Result<TenantRound> {
    let mut sock = open(addr, t)?;
    let mut rx = sock.try_clone()?;
    let origin = Instant::now();
    let sent_at: Vec<AtomicU64> = (0..t.frames.len())
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    let out = std::thread::scope(|scope| -> io::Result<TenantRound> {
        let reader = scope.spawn(|| {
            let mut seen = TenantRound::default();
            loop {
                match recv_server(&mut rx) {
                    Ok(ServerFrame::Delta(d)) => {
                        seen.deltas += 1;
                        let covered = d.covered_to as usize;
                        if covered.is_multiple_of(CHUNK) && covered >= CHUNK {
                            let sent = sent_at[covered / CHUNK - 1].load(Ordering::Acquire);
                            if sent != u64::MAX {
                                let now = origin.elapsed().as_nanos() as u64;
                                seen.latencies_ms
                                    .push(now.saturating_sub(sent) as f64 * 1e-6);
                            }
                        }
                    }
                    Ok(ServerFrame::Throttled { .. }) => seen.throttled += 1,
                    Ok(ServerFrame::Error { .. }) => {
                        seen.errors += 1;
                        break;
                    }
                    Ok(ServerFrame::Final { delta, .. }) => {
                        seen.final_stats = Some(canonical_stats(&delta));
                        break;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            seen
        });
        let mut send_s = 0.0;
        let sent = tracer.span("client.stream", parent, round, |stream_span| {
            for (k, frame) in t.frames.iter().enumerate() {
                sent_at[k].store(origin.elapsed().as_nanos() as u64, Ordering::Release);
                let start = Instant::now();
                tracer.span("client.send", stream_span, round, |_| {
                    send_client(&mut sock, frame)
                })?;
                send_s += start.elapsed().as_secs_f64();
            }
            send_client(&mut sock, &ClientFrame::Finish)
        });
        if sent.is_err() {
            // Unblock the reader: no `Final` is coming.
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        let mut seen = reader.join().expect("client reader thread panicked");
        sent?;
        seen.send_s = send_s;
        Ok(seen)
    })?;
    close(sock);
    Ok(out)
}

/// Says `Bye` and reads until the server closes the connection. The
/// server closes only after it has parked the session, so the tenant's
/// next `Hello` is never refused as busy.
fn close(mut sock: TcpStream) {
    let _ = send_client(&mut sock, &ClientFrame::Bye);
    while recv_server(&mut sock).is_ok() {}
}

/// Counts one tenant round against the reference: one op per ingest
/// frame. An error frame fails one op; a missing or wrong `Final` fails
/// every frame of the round. Returns (attempted, failed).
pub fn gate(frames: usize, got: &TenantRound, reference: &str) -> (u64, u64) {
    let frames = frames as u64;
    let bad_final = got.final_stats.as_deref() != Some(reference);
    let failed = if bad_final {
        frames
    } else {
        got.errors.min(frames)
    };
    (frames, failed)
}

pub fn run(r: &Run) -> Outcome {
    let tracer = &r.tracer;
    let quiet = Tracer::new(false);
    let registry = roster();
    let snap_dir = r
        .work_dir
        .join(format!("serve-snapshots-{}", std::process::id()));
    let config = ServerConfig {
        snapshot_dir: Some(snap_dir.clone()),
        ..ServerConfig::default()
    };

    // Set-up: generate both tenants' inputs, bind the server and open one
    // session per tenant, several times.
    let mut setup_s = Vec::new();
    let mut input_digests = Vec::new();
    let mut server: Option<ServerHandle> = None;
    let mut inputs = None;
    let mut failed = 0u64;
    for rep in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        drop(inputs.take());
        // Every set-up binds onto an empty snapshot directory.
        let _ = std::fs::remove_dir_all(&snap_dir);
        let start = Instant::now();
        let (ts, srv) = tracer.span("bench.setup", None, rep, |root| {
            let ts = tenants(r.seed, ACCESSES, tracer, root, rep);
            let srv = tracer.span("server.bind", root, rep, |_| {
                Server::bind_tcp("127.0.0.1:0", roster(), config.clone())
            });
            (ts, srv)
        });
        let srv = srv.expect("bind the loopback server");
        let addr = srv.local_addr().expect("tcp listener has an address");
        for t in &ts {
            match tracer.span("session.open", None, rep, |_| open(addr, t)) {
                Ok(sock) => close(sock),
                Err(_) => failed += 1,
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        let mut h = Crc32::new();
        for t in &ts {
            stream_digest(&t.accesses, &mut h);
        }
        input_digests.push(h.finish());
        server = Some(srv);
        inputs = Some(ts);
    }
    let server = server.expect("at least one set-up");
    let inputs = inputs.expect("at least one set-up");
    let addr = server.local_addr().expect("tcp listener has an address");
    failed += input_digests
        .iter()
        .filter(|&&d| d != input_digests[0])
        .count() as u64;

    let references: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|t| {
                let registry = &registry;
                scope.spawn(move || {
                    canonical_stats(
                        &reference_delta(&t.accesses, &[], registry, spec())
                            .expect("roster builds"),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });

    let served = inputs.iter().map(|t| t.accesses.len()).sum::<usize>() as f64;
    let steps = served * registry.len() as f64;
    let mut attempted = 0u64;
    let (mut round_s, mut rates, mut traced_round_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut send_s, mut deltas, mut throttled, mut errors, mut peaks) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut measured = 0.0;
    // Round 0 is the untimed warm-up.
    let mut id = 0u32;
    let mut timed = 0usize;
    while measured < r.seconds || timed < r.min_rounds() {
        let warm = id == 0;
        let traced = !warm && r.round_traced(id - 1);
        let tr = if traced { tracer } else { &quiet };
        let start = Instant::now();
        let (results, peak) = with_peak_rss(|| {
            tr.span("bench.round", None, id, |root| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = inputs
                        .iter()
                        .map(|t| scope.spawn(move || drive(addr, t, tr, root, id)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("tenant thread panicked"))
                        .collect::<Vec<io::Result<TenantRound>>>()
                })
            })
        });
        let secs = start.elapsed().as_secs_f64();
        let (mut round_send, mut round_deltas, mut round_throttled, mut round_errors) =
            (0.0, 0u64, 0u64, 0u64);
        for ((t, res), reference) in inputs.iter().zip(results).zip(&references) {
            let got = res.unwrap_or_default();
            let (a, f) = gate(t.frames.len(), &got, reference);
            attempted += a;
            failed += f;
            if !warm && !traced {
                latencies.extend_from_slice(&got.latencies_ms);
            }
            round_send += got.send_s;
            round_deltas += got.deltas;
            round_throttled += got.throttled;
            round_errors += got.errors;
        }
        id += 1;
        if warm {
            continue;
        }
        timed += 1;
        measured += secs;
        if traced {
            traced_round_s.push(secs);
        } else {
            round_s.push(secs);
            peaks.push(peak);
            rates.push(steps / secs);
            send_s.push(round_send);
            deltas.push(round_deltas as f64);
            throttled.push(round_throttled as f64);
            errors.push(round_errors as f64);
        }
    }
    server.shutdown();

    let mut h = Crc32::new();
    for reference in &references {
        h.update(reference.as_bytes());
    }
    let mut out = Outcome::new(
        attempted,
        failed,
        h.finish(),
        references.join(""),
        input_digests[0],
    );
    out.end_to_end(
        median(&setup_s),
        median(&round_s),
        median(&rates),
        median(&peaks),
    );
    out.stamp_streams(
        inputs
            .iter()
            .map(|t| (t.name.to_string(), t.accesses.len())),
    );
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    out.extra.push(metric("delta_latency_ms_p50", p50, "ms"));
    out.extra.push(metric("delta_latency_ms_p99", p99, "ms"));
    out.extra.push(metric(
        "delta_latency_samples",
        latencies.len() as f64,
        "count",
    ));
    out.extra
        .push(metric("timed_rounds", round_s.len() as f64, "count"));
    out.layer("delta_latency_ms_p50", p50);
    out.layer("delta_latency_ms_p99", p99);
    out.layer("client.send_blocked_s", median(&send_s));
    out.layer("server.deltas", median(&deltas));
    out.layer("server.throttled", median(&throttled));
    out.layer("server.error_frames", median(&errors));

    if tracer.enabled() {
        let (a, f) =
            replay_in_process(&inputs, &registry, &references, &snap_dir, tracer, &mut out);
        out.attempted += a;
        out.failed += f;
        let spans = tracer.spans();
        out.layer(
            "traces.generate_s",
            median(&crate::trace::round_sums_s(&spans, "traces.generate")),
        );
        out.tracing_overhead(median(&traced_round_s), median(&round_s));
    }
    let _ = std::fs::remove_dir_all(&snap_dir);
    out
}

fn no_wait(_attempt: u64) -> Duration {
    Duration::from_millis(10)
}

/// Replays the run's own frames in-process through the public protocol
/// and session calls — encode, frame + CRC, decode, apply, delta cut and
/// snapshot — timing each, and checks the session's final stats against
/// the reference. Returns (attempted, failed).
fn replay_in_process(
    inputs: &[Tenant],
    roster: &Roster,
    references: &[String],
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (u64, u64) {
    let cadence = ServerConfig::default().default_delta_every;
    let (mut enc_us, mut dec_us, mut apply_us, mut cut_us, mut snap_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut snapshot_bytes) = (0u64, 0u64, 0usize);
    let round = u32::MAX;
    let _ = std::fs::create_dir_all(dir);
    tracer.span("bench.probe", None, round, |root| {
        for (t, reference) in inputs.iter().zip(references) {
            let mut session = Session::new(
                &format!("probe-{}", t.name),
                spec(),
                t.kv,
                u64::MAX,
                &[],
                roster,
            )
            .expect("roster builds for the serving geometry");
            let mut since_cut = 0usize;
            let checkpoints: Vec<usize> = (1..=4).map(|q| q * t.frames.len() / 4).collect();
            for (k, frame) in t.frames.iter().enumerate() {
                let start = Instant::now();
                let (kind, payload) =
                    tracer.span("protocol.encode", root, round, |_| frame.encode());
                let mut wire = Vec::with_capacity(payload.len() + 9);
                write_frame(&mut wire, kind, &payload).expect("vec sink cannot fail");
                enc_us.push(start.elapsed().as_secs_f64() * 1e6);

                let start = Instant::now();
                let decoded = tracer.span("protocol.decode_crc", root, round, |_| {
                    read_frame(&mut wire.as_slice())
                        .and_then(|(kind, p)| ClientFrame::decode(kind, &p))
                });
                dec_us.push(start.elapsed().as_secs_f64() * 1e6);
                attempted += 1;
                let n = match &decoded {
                    Ok(ClientFrame::Accesses(batch)) => batch.len(),
                    Ok(ClientFrame::KvBatch(ops)) => ops.len(),
                    _ => 0,
                };
                failed += u64::from(decoded.as_ref().ok() != Some(frame));

                let start = Instant::now();
                tracer.span("session.apply", root, round, |_| match decoded {
                    Ok(ClientFrame::Accesses(batch)) => session.ingest(&batch),
                    Ok(ClientFrame::KvBatch(ops)) => session.ingest_kv(&ops),
                    _ => None,
                });
                apply_us.push(start.elapsed().as_secs_f64() * 1e6);
                since_cut += n;
                if since_cut as u64 >= cadence {
                    since_cut = 0;
                    let start = Instant::now();
                    std::hint::black_box(
                        tracer.span("session.cut_delta", root, round, |_| session.cut_delta()),
                    );
                    cut_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
                if checkpoints.contains(&(k + 1)) {
                    let start = Instant::now();
                    let bytes = tracer.span("session.snapshot", root, round, |_| {
                        let bytes = session.snapshot_bytes();
                        let path = dir.join(format!("probe-{}.ssn", t.name));
                        write_snapshot(&path, &bytes, no_wait, 5).map(|()| bytes.len())
                    });
                    snap_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    match bytes {
                        Ok(len) if k + 1 == t.frames.len() => snapshot_bytes += len,
                        Ok(_) => {}
                        Err(_) => failed += 1,
                    }
                }
            }
            failed += u64::from(canonical_stats(&session.current_delta()) != *reference);
        }
    });
    out.layer("protocol.encode_us_p50", percentile(&enc_us, 50.0));
    out.layer("protocol.decode_crc_us_p50", percentile(&dec_us, 50.0));
    out.layer("session.apply_us_p50", percentile(&apply_us, 50.0));
    out.layer("session.cut_delta_us_p50", percentile(&cut_us, 50.0));
    out.layer("session.snapshot_ms_p50", percentile(&snap_ms, 50.0));
    out.layer("session.snapshot_bytes", snapshot_bytes as f64);
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tenants() {
        let q = Tracer::new(false);
        let a = tenants(3, 5_000, &q, None, 0);
        let b = tenants(3, 5_000, &q, None, 0);
        let c = tenants(4, 5_000, &q, None, 0);
        for i in 0..2 {
            assert_eq!(a[i].accesses, b[i].accesses);
            assert_eq!(a[i].frames, b[i].frames);
            assert_ne!(a[i].accesses, c[i].accesses, "another seed, other inputs");
        }
        let puts = a[1].accesses.iter().filter(|x| x.is_write()).count();
        assert!((300..800).contains(&puts), "about 10% puts: {puts}");
    }

    #[test]
    fn served_stats_pass_the_gate_and_a_seeded_defect_trips_it() {
        let q = Tracer::new(false);
        let inputs = tenants(3, 6_000, &q, None, 0);
        let roster = roster();
        let server =
            Server::bind_tcp("127.0.0.1:0", super::roster(), ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        for t in &inputs {
            let reference =
                canonical_stats(&reference_delta(&t.accesses, &[], &roster, spec()).unwrap());
            let got = drive(addr, t, &q, None, 0).unwrap();
            assert!(got.deltas >= 1);
            assert_eq!(
                gate(t.frames.len(), &got, &reference),
                (t.frames.len() as u64, 0)
            );
            // Seeded defect: one counter of the final stats is off by one.
            let wrong = reference.replacen("hits=", "hits=1", 1);
            assert_eq!(
                gate(t.frames.len(), &got, &wrong),
                (t.frames.len() as u64, t.frames.len() as u64)
            );
            let missing = TenantRound::default();
            assert_eq!(
                gate(t.frames.len(), &missing, &reference).1,
                t.frames.len() as u64
            );
        }
        server.shutdown();
    }
}
