//! `roster-replay`: the figure harness's inner loop.
//!
//! Six SPEC2006 models (three streaming or thrashing, three reuse-heavy)
//! at medium scale, two simpoints each. A round replays the 12-policy
//! baseline roster plus WI-GIPPR and WI-4-DGIPPR through `replay_many`
//! and runs Belady MIN, for every simpoint stream.

use crate::inputs::simpoint_spec;
use crate::report::{median, metric, stream_digest, with_peak_rss};
use crate::trace::{round_sums_s, SpanId, Tracer};
use crate::{host_shards, Outcome, Run, SETUP_REPEATS};
use harness::{policies, Scale};
use mem_model::{
    capture_llc_stream, min_misses, replay_llc, replay_llc_sliced, replay_many,
    replay_many_sharded, LlcRunResult, WindowPerfModel,
};
use sim_core::{
    pool, Access, CacheGeometry, CacheStats, PolicyFactory, ShardAffinity, ShardedStream,
    SliceKernel,
};
use std::time::Instant;
use traces::format::Crc32;
use traces::spec2006::Spec2006;

pub const SCALE: Scale = Scale::Medium;
/// Streaming or thrashing (miss/insert path), then reuse-heavy (hit/promote path).
pub const BENCHES: [Spec2006; 6] = [
    Spec2006::Libquantum,
    Spec2006::Milc,
    Spec2006::Mcf,
    Spec2006::Omnetpp,
    Spec2006::Xalancbmk,
    Spec2006::Sphinx3,
];

/// One captured simpoint stream.
pub struct Stream {
    pub name: String,
    pub refs: usize,
    pub stream: Vec<Access>,
    pub warmup: usize,
}

/// The 12-policy baseline roster plus the paper's two headline policies.
pub fn roster() -> Vec<(String, PolicyFactory)> {
    let mut r: Vec<(String, PolicyFactory)> = policies::baseline_roster(0xC0FFEE)
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect();
    r.push((
        "WI-GIPPR".into(),
        policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
    ));
    r.push((
        "WI-4-DGIPPR".into(),
        policies::dgippr(gippr::vectors::wi_4dgippr().to_vec(), "WI-4-DGIPPR"),
    ));
    r
}

/// Generates and captures every simpoint stream of `benches` at `scale`.
pub fn capture(
    benches: &[Spec2006],
    scale: Scale,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    round: u32,
) -> Vec<Stream> {
    let config = scale.hierarchy();
    let mut out = Vec::new();
    for &bench in benches {
        for sp in bench.simpoints().into_iter().take(scale.simpoints()) {
            let spec = simpoint_spec(bench, sp.index, scale.shift(), seed);
            let refs: Vec<Access> = tracer.span("traces.generate", parent, round, |_| {
                spec.generator(sp.index).take(scale.accesses()).collect()
            });
            let (stream, _) = tracer.span("hierarchy.capture", parent, round, |_| {
                capture_llc_stream(config, refs.iter().copied())
            });
            out.push(Stream {
                name: format!("{}#{}", bench.name(), sp.index),
                refs: refs.len(),
                warmup: mem_model::default_warmup(stream.len()),
                stream,
            });
        }
    }
    out
}

/// One round's simulated results: per stream, the roster's results in
/// roster order, and MIN's statistics.
#[derive(Debug, Clone)]
pub struct RoundResults {
    pub runs: Vec<Vec<LlcRunResult>>,
    pub mins: Vec<CacheStats>,
}

/// Counts the results that differ from the reference: one op per
/// (policy, stream) result, MIN counted as one more policy. MIN is not
/// held below the policies' misses: it is optimal over the whole stream,
/// and a policy can still miss less on the measured part alone.
pub fn gate(got: &RoundResults, reference: &RoundResults) -> u64 {
    let mut failed = 0;
    for s in 0..reference.runs.len() {
        for (g, r) in got.runs[s].iter().zip(&reference.runs[s]) {
            failed += u64::from(g != r);
        }
        failed += (reference.runs[s].len() as u64).saturating_sub(got.runs[s].len() as u64);
        failed += u64::from(got.mins[s] != reference.mins[s]);
    }
    failed
}

/// Sequential `replay_llc` of every (policy, stream) pair: the reference
/// the batched engines must reproduce bit for bit. Pairs run on the pool;
/// each one is a plain single-policy replay.
pub fn reference(
    streams: &[Stream],
    geom: CacheGeometry,
    roster: &[(String, PolicyFactory)],
) -> RoundResults {
    let perf = WindowPerfModel::default();
    let n = roster.len();
    let flat = pool::global().run(streams.len() * n, usize::MAX, |u| {
        let (s, p) = (&streams[u / n], &roster[u % n].1);
        replay_llc(&s.stream, geom, p(&geom), s.warmup, &perf)
    });
    RoundResults {
        runs: flat.chunks(n).map(<[LlcRunResult]>::to_vec).collect(),
        mins: streams
            .iter()
            .map(|s| min_misses(&s.stream, geom, s.warmup))
            .collect(),
    }
}

/// Per-policy misses and MPKI per stream plus MIN misses, as digest text
/// and its hash.
pub fn digest(
    streams: &[Stream],
    roster: &[(String, PolicyFactory)],
    r: &RoundResults,
) -> (u32, String) {
    let mut text = String::new();
    for (s, stream) in streams.iter().enumerate() {
        for ((name, _), run) in roster.iter().zip(&r.runs[s]) {
            text.push_str(&format!(
                "{} {name} misses={} mpki_bits={:016x}\n",
                stream.name,
                run.stats.misses,
                run.mpki().to_bits()
            ));
        }
        text.push_str(&format!(
            "{} MIN misses={}\n",
            stream.name, r.mins[s].misses
        ));
    }
    let mut h = Crc32::new();
    h.update(text.as_bytes());
    (h.finish(), text)
}

/// Per-stream seconds of one round: `replay_many`, then MIN.
struct RoundTimes {
    replay: Vec<f64>,
    min: Vec<f64>,
}

/// (round seconds, replay seconds): the median over `rounds` of each
/// whole round's replay + MIN time, and of its replay time alone.
fn typical(rounds: &[RoundTimes]) -> (f64, f64) {
    let total: Vec<f64> = rounds
        .iter()
        .map(|t| t.replay.iter().chain(&t.min).sum())
        .collect();
    let replay: Vec<f64> = rounds.iter().map(|t| t.replay.iter().sum()).collect();
    (median(&total), median(&replay))
}

fn round(
    streams: &[Stream],
    geom: CacheGeometry,
    refs: &[&PolicyFactory],
    tracer: &Tracer,
    round_id: u32,
) -> (RoundTimes, RoundResults) {
    let perf = WindowPerfModel::default();
    let mut t = RoundTimes {
        replay: Vec::new(),
        min: Vec::new(),
    };
    let mut out = RoundResults {
        runs: Vec::new(),
        mins: Vec::new(),
    };
    let shards = host_shards(&geom);
    tracer.span("bench.round", None, round_id, |root| {
        for s in streams {
            let start = Instant::now();
            // Traced rounds split `replay_many` into its two public halves
            // (route, then the pre-routed batch) so each gets a span; the
            // work is the same.
            let runs = if tracer.enabled() && shards > 1 {
                let sharded = tracer.span("shard.route", root, round_id, |_| {
                    ShardedStream::for_parallelism(&s.stream, &geom, s.warmup, pool::global().cap())
                });
                tracer.span("batch.replay", root, round_id, |_| {
                    replay_many_sharded(&s.stream, &sharded, refs, &perf)
                })
            } else {
                tracer.span("batch.replay", root, round_id, |_| {
                    replay_many(&s.stream, geom, refs, s.warmup, &perf)
                })
            };
            t.replay.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let min = tracer.span("optimal.min", root, round_id, |_| {
                min_misses(&s.stream, geom, s.warmup)
            });
            t.min.push(start.elapsed().as_secs_f64());
            out.runs.push(std::hint::black_box(runs));
            out.mins.push(min);
        }
    });
    (t, out)
}

pub fn run(r: &Run) -> Outcome {
    let geom = SCALE.hierarchy().llc;
    let roster = roster();
    let refs: Vec<&PolicyFactory> = roster.iter().map(|(_, f)| f).collect();
    let tracer = &r.tracer;
    let quiet = Tracer::new(false);

    // Set-up: generate + capture, several times; every repeat must yield
    // the identical streams.
    let mut setup_s = Vec::new();
    let mut input_digests = Vec::new();
    let mut streams = Vec::new();
    for rep in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut streams));
        let start = Instant::now();
        streams = tracer.span("bench.setup", None, rep, |root| {
            capture(&BENCHES, SCALE, r.seed, tracer, root, rep)
        });
        setup_s.push(start.elapsed().as_secs_f64());
        let mut h = Crc32::new();
        for s in &streams {
            stream_digest(&s.stream, &mut h);
        }
        input_digests.push(h.finish());
    }
    let mut failed = input_digests
        .iter()
        .filter(|&&d| d != input_digests[0])
        .count() as u64;

    // Warm the pool and the allocator with one untimed round, then build
    // the sequential reference once.
    let (_, warm) = round(&streams, geom, &refs, &quiet, 0);
    let reference = reference(&streams, geom, &roster);
    let ops_per_round = (roster.len() as u64 + 1) * streams.len() as u64;
    let mut attempted = ops_per_round;
    failed += gate(&warm, &reference);

    let steps = streams.iter().map(|s| s.stream.len()).sum::<usize>() as f64 * roster.len() as f64;
    let (mut untraced, mut traced_rounds, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut id = 0u32;
    while measured < r.seconds || (id as usize) < r.min_rounds() {
        let traced = r.round_traced(id);
        let ((t, got), peak) = with_peak_rss(|| {
            round(
                &streams,
                geom,
                &refs,
                if traced { tracer } else { &quiet },
                id,
            )
        });
        attempted += ops_per_round;
        failed += gate(&got, &reference);
        measured += t.replay.iter().chain(&t.min).sum::<f64>();
        if traced {
            traced_rounds.push(t);
        } else {
            untraced.push(t);
            peaks.push(peak);
        }
        id += 1;
    }
    let (round_s, replay_s) = typical(&untraced);

    let (digest, digest_text) = digest(&streams, &roster, &reference);
    let mut out = Outcome::new(attempted, failed, digest, digest_text, input_digests[0]);
    out.end_to_end(median(&setup_s), round_s, steps / replay_s, median(&peaks));
    out.stamp_streams(streams.iter().map(|s| (s.name.clone(), s.stream.len())));
    out.extra
        .push(metric("timed_rounds", untraced.len() as f64, "count"));

    if tracer.enabled() {
        let (probe_failed, probe_attempted) =
            probe(&streams, geom, &roster, &reference, tracer, &mut out);
        out.failed += probe_failed;
        out.attempted += probe_attempted;
        let spans = tracer.spans();
        let refs_total: usize = streams.iter().map(|s| s.refs).sum();
        let llc_total: usize = streams.iter().map(|s| s.stream.len()).sum();
        out.layer(
            "traces.generate_s",
            median(&round_sums_s(&spans, "traces.generate")),
        );
        out.layer(
            "hierarchy.capture_s",
            median(&round_sums_s(&spans, "hierarchy.capture")),
        );
        out.layer(
            "hierarchy.llc_per_ref",
            llc_total as f64 / refs_total as f64,
        );
        out.layer(
            "shard.route_s",
            median(&round_sums_s(&spans, "shard.route")),
        );
        out.layer(
            "optimal.min_s",
            median(&round_sums_s(&spans, "optimal.min")),
        );
        out.tracing_overhead(typical(&traced_rounds).0, round_s);
    }
    out
}

/// The traced run's layer probe: replays every stream once more through
/// each engine's public entry point on its own, so the per-engine rates,
/// the shard steps and the merge get numbers of their own. Every result is
/// checked against the reference too. Returns (failed, attempted).
fn probe(
    streams: &[Stream],
    geom: CacheGeometry,
    roster: &[(String, PolicyFactory)],
    reference: &RoundResults,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (u64, u64) {
    let perf = WindowPerfModel::default();
    let shards = host_shards(&geom);
    // The engine each member takes in `replay_many`, from the public probes.
    let probes: Vec<(ShardAffinity, Option<SliceKernel>)> = roster
        .iter()
        .map(|(_, f)| {
            let p = f(&geom);
            (p.shard_affinity(), p.slice_kernel())
        })
        .collect();
    let is_sharded = |i: usize| probes[i].0 == ShardAffinity::SetLocal && shards > 1;
    let sharded_set: Vec<usize> = (0..roster.len()).filter(|&i| is_sharded(i)).collect();
    let plan_sliced = (0..roster.len())
        .filter(|&i| !is_sharded(i) && probes[i].1.is_some())
        .count();
    out.layer("plan.sharded", sharded_set.len() as f64);
    out.layer("plan.sliced", plan_sliced as f64);
    out.layer(
        "plan.mono",
        (roster.len() - sharded_set.len() - plan_sliced) as f64,
    );
    out.layer("shard.count", shards as f64);

    let (mut failed, mut attempted) = (0u64, 0u64);
    let (mut step_s, mut merge_s) = (0.0, 0.0);
    let (mut sliced_steps, mut sliced_s, mut mono_steps, mut mono_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut max_shard, mut mean_shard) = (0.0, 0.0);
    let probe_round = u32::MAX;
    tracer.span("bench.probe", None, probe_round, |root| {
        for (si, s) in streams.iter().enumerate() {
            let sharded = tracer.span("shard.route", root, probe_round, |_| {
                ShardedStream::for_parallelism(&s.stream, &geom, s.warmup, pool::global().cap())
            });
            let per_shard: Vec<f64> = (0..sharded.shards())
                .map(|k| sharded.measured_in(k) as f64)
                .collect();
            max_shard += per_shard.iter().cloned().fold(0.0, f64::max);
            mean_shard += per_shard.iter().sum::<f64>() / per_shard.len() as f64;
            if !sharded_set.is_empty() {
                let set_refs: Vec<&PolicyFactory> =
                    sharded_set.iter().map(|&i| &roster[i].1).collect();
                let n = sharded.shards();
                let start = Instant::now();
                let runs = tracer.span("batch.shard_step", root, probe_round, |_| {
                    pool::global().run(set_refs.len() * n, usize::MAX, |u| {
                        sharded.replay_shard(u % n, set_refs[u / n](&geom))
                    })
                });
                let step = start.elapsed().as_secs_f64();
                std::hint::black_box(runs);
                let start = Instant::now();
                let merged = tracer.span("batch.sharded", root, probe_round, |_| {
                    replay_many_sharded(&s.stream, &sharded, &set_refs, &perf)
                });
                step_s += step;
                merge_s += (start.elapsed().as_secs_f64() - step).max(0.0);
                for (&i, got) in sharded_set.iter().zip(&merged) {
                    attempted += 1;
                    failed += u64::from(*got != reference.runs[si][i]);
                }
            }
            // Whole-stream engines: every kernel-carrying member through the
            // sliced engine, every other non-sharded member through mono.
            for (i, (_, f)) in roster.iter().enumerate() {
                let start = Instant::now();
                let (got, sliced) = match &probes[i].1 {
                    Some(k) => match tracer.span("sliced.replay", root, probe_round, |_| {
                        replay_llc_sliced(&s.stream, geom, k, s.warmup, &perf)
                    }) {
                        Some(run) => (run, true),
                        None => continue,
                    },
                    None if is_sharded(i) => continue,
                    None => (
                        tracer.span("mono.replay", root, probe_round, |_| {
                            replay_llc(&s.stream, geom, f(&geom), s.warmup, &perf)
                        }),
                        false,
                    ),
                };
                let secs = start.elapsed().as_secs_f64();
                if sliced {
                    sliced_steps += s.stream.len() as f64;
                    sliced_s += secs;
                } else {
                    mono_steps += s.stream.len() as f64;
                    mono_s += secs;
                }
                attempted += 1;
                failed += u64::from(got != reference.runs[si][i]);
            }
        }
    });
    out.layer("shard.imbalance", max_shard / mean_shard.max(1e-12));
    out.layer("batch.shard_step_s", step_s);
    out.layer("batch.merge_s", merge_s);
    out.layer("sliced.steps_per_s", sliced_steps / sliced_s.max(1e-12));
    out.layer("mono.steps_per_s", mono_steps / mono_s.max(1e-12));
    (failed, attempted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> (Vec<Stream>, CacheGeometry) {
        let streams = capture(
            &[Spec2006::Libquantum, Spec2006::Omnetpp],
            Scale::Micro,
            seed,
            &Tracer::new(false),
            None,
            0,
        );
        (streams, Scale::Micro.hierarchy().llc)
    }

    #[test]
    fn same_seed_same_streams() {
        let (a, _) = tiny(9);
        let (b, _) = tiny(9);
        assert!(a.iter().zip(&b).all(|(x, y)| x.stream == y.stream));
        let (c, _) = tiny(10);
        assert_ne!(c[1].stream, a[1].stream, "another seed, other inputs");
    }

    #[test]
    fn gate_passes_the_engines_and_trips_on_a_seeded_defect() {
        let (streams, geom) = tiny(9);
        let roster = roster();
        let refs: Vec<&PolicyFactory> = roster.iter().map(|(_, f)| f).collect();
        let reference = reference(&streams, geom, &roster);
        let (_, got) = round(&streams, geom, &refs, &Tracer::new(true), 0);
        assert_eq!(gate(&got, &reference), 0);

        // Seeded defect: one policy reports one miss fewer on one stream.
        let mut bad = got.clone();
        bad.runs[1][3].stats.misses -= 1;
        assert_eq!(gate(&bad, &reference), 1);
        // MIN drifting from its reference is caught as well.
        let mut bad = got;
        bad.mins[0].misses += 1;
        assert_eq!(gate(&bad, &reference), 1);
    }
}
