//! `ga-generation`: one generation of the genetic algorithm.
//!
//! A fitness context over four SPEC2006 models at medium GA scale scores a
//! fixed seeded population — 64 single IPVs on the PseudoLRU substrate and
//! 16 four-vector DGIPPR sets — through the multi-fidelity ladder with a
//! fresh memo every round.

use crate::inputs::{mix, simpoint_spec};
use crate::report::{median, metric, percentile, stream_digest, with_peak_rss};
use crate::trace::{durations_s, Span, Tracer};
use crate::{host_shards, Outcome, Run, SETUP_REPEATS};
use evolve::ladder::{self, Fidelity, LadderConfig, LadderOutcome, LadderStats};
use evolve::{FitnessContext, Genome, SampledWorkload, Substrate, VectorSet, DEFAULT_SAMPLE_EVERY};
use gippr::{DgipprPolicy, GipprPolicy, Ipv};
use harness::{policies, Scale};
use mem_model::{
    capture_llc_stream, replay_llc, replay_llc_sharded, LinearCpiModel, WindowPerfModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_core::{pool, Access, ShardedStream, StackDistanceProfile};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use traces::format::Crc32;
use traces::spec2006::Spec2006;
use traces::WorkloadSpec;

pub const SCALE: Scale = Scale::Medium;
pub const BENCHES: [Spec2006; 4] = [
    Spec2006::Libquantum,
    Spec2006::Mcf,
    Spec2006::Sphinx3,
    Spec2006::Xalancbmk,
];
pub const IPVS: usize = 64;
pub const SETS: usize = 16;

/// The context's workload specs: every simpoint of every benchmark,
/// unscaled (the context applies the scale's shift itself).
pub fn specs(benches: &[Spec2006], scale: Scale, seed: u64) -> Vec<(WorkloadSpec, f64)> {
    benches
        .iter()
        .flat_map(|&b| {
            b.simpoints()
                .into_iter()
                .take(scale.simpoints())
                .map(move |sp| (simpoint_spec(b, sp.index, 0, seed), sp.weight))
        })
        .collect()
}

/// The fixed population scored every round.
pub fn population(seed: u64) -> (Vec<Ipv>, Vec<VectorSet>) {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x6761));
    let ipvs = (0..IPVS).map(|_| Ipv::random(16, &mut rng)).collect();
    let sets = (0..SETS)
        .map(|_| VectorSet::sample_n(4, 16, &mut rng))
        .collect();
    (ipvs, sets)
}

/// One generation's outcome on both populations.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    pub ipvs: Scores,
    pub sets: Scores,
    pub stats: LadderStats,
}

/// `LadderOutcome` with equality, for the determinism check.
#[derive(Debug, Clone, PartialEq)]
pub struct Scores {
    pub scores: Vec<f64>,
    pub tiers: Vec<Fidelity>,
}

impl From<LadderOutcome> for Scores {
    fn from(o: LadderOutcome) -> Self {
        Scores {
            scores: o.scores,
            tiers: o.tiers,
        }
    }
}

fn generation(
    ctx: &FitnessContext,
    ipvs: &[Ipv],
    sets: &[VectorSet],
    tracer: &Tracer,
    round: u32,
    steps: &AtomicU64,
) -> Generation {
    let cfg = LadderConfig::balanced();
    let full_len: u64 = ctx.streams().iter().map(|w| w.stream.len() as u64).sum();
    let sampled_len: u64 = ctx
        .streams()
        .iter()
        .map(|w| w.sampled.stream.len() as u64)
        .sum();
    // Accesses replayed by the sampled and full tiers, one policy each (the
    // profile tier replays nothing).
    let count = |n: u64| steps.fetch_add(n, Ordering::Relaxed);
    tracer.span("bench.round", None, round, |root| {
        let mut stats = LadderStats::default();
        let ipv_out = tracer.span("ladder.evaluate", root, round, |lad| {
            ladder::evaluate(
                ctx,
                &cfg,
                ipvs,
                &mut HashMap::new(),
                &mut stats,
                |c, g: &Ipv| {
                    tracer.span("fitness.profile", lad, round, |_| c.profile_score_single(g))
                },
                |c, g| {
                    count(sampled_len);
                    tracer.span("fitness.sampled", lad, round, |_| {
                        c.fitness_single_sampled(g, Substrate::Plru)
                    })
                },
                |c, g| {
                    count(full_len);
                    tracer.span("fitness.full_ipv", lad, round, |_| {
                        c.fitness_single(g, Substrate::Plru)
                    })
                },
            )
        });
        let set_out = tracer.span("ladder.evaluate", root, round, |lad| {
            ladder::evaluate(
                ctx,
                &cfg,
                sets,
                &mut HashMap::new(),
                &mut stats,
                |c, g: &VectorSet| {
                    tracer.span("fitness.profile", lad, round, |_| {
                        c.profile_score_set(g.vectors())
                    })
                },
                |c, g| {
                    count(sampled_len);
                    tracer.span("fitness.sampled_set", lad, round, |_| {
                        c.fitness_set_sampled(g.vectors())
                    })
                },
                |c, g| {
                    count(full_len);
                    tracer.span("fitness.full_set", lad, round, |_| {
                        c.fitness_set(g.vectors())
                    })
                },
            )
        });
        Generation {
            ipvs: ipv_out.into(),
            sets: set_out.into(),
            stats,
        }
    })
}

/// Weighted mean of `per_stream` speedups in the context's stream order,
/// accumulated exactly as the fitness function does.
fn weighted(ctx: &FitnessContext, per_stream: impl Iterator<Item = f64>) -> f64 {
    let (mut total, mut weight) = (0.0, 0.0);
    for (ws, s) in ctx.streams().iter().zip(per_stream) {
        total += s * ws.weight;
        weight += ws.weight;
    }
    if weight == 0.0 {
        1.0
    } else {
        total / weight
    }
}

/// Reference full-tier scores, by genome encoding: IPVs through the
/// per-workload mono replay, DGIPPR sets through a dynamic replay of each
/// stream.
pub fn reference(
    ctx: &FitnessContext,
    ipvs: &[Ipv],
    sets: &[VectorSet],
    g: &Generation,
) -> BTreeMap<Vec<u8>, f64> {
    let geom = ctx.geometry();
    let perf = WindowPerfModel::default();
    let model = LinearCpiModel::default();
    let full_ipvs: Vec<&Ipv> = ipvs
        .iter()
        .zip(&g.ipvs.tiers)
        .filter(|(_, t)| **t == Fidelity::Full)
        .map(|(i, _)| i)
        .collect();
    let full_sets: Vec<&VectorSet> = sets
        .iter()
        .zip(&g.sets.tiers)
        .filter(|(_, t)| **t == Fidelity::Full)
        .map(|(s, _)| s)
        .collect();
    let ipv_scores = pool::global().run(full_ipvs.len(), usize::MAX, |i| {
        let rows = ctx.per_workload_single(full_ipvs[i], Substrate::Plru);
        weighted(ctx, rows.into_iter().map(|(_, s)| s))
    });
    let set_scores = pool::global().run(full_sets.len(), usize::MAX, |i| {
        weighted(
            ctx,
            ctx.streams().iter().map(|ws| {
                let p = DgipprPolicy::with_config(
                    &geom,
                    full_sets[i].vectors().to_vec(),
                    policies::leaders_for(&geom),
                    "DGIPPR",
                )
                .expect("valid duel config");
                let run = replay_llc(&ws.stream, geom, Box::new(p), ws.warmup, &perf);
                model.speedup(ws.instructions, ws.lru_misses, run.stats.misses)
            }),
        )
    });
    let mut out = BTreeMap::new();
    for (g, s) in full_ipvs.iter().zip(ipv_scores) {
        out.insert(g.encode(), s);
    }
    for (g, s) in full_sets.iter().zip(set_scores) {
        out.insert(g.encode(), s);
    }
    out
}

/// Checks every full-tier score against the reference, bit for bit.
/// Returns (attempted, failed); a full-tier genome missing from the
/// reference counts as failed.
pub fn gate(
    ipvs: &[Ipv],
    sets: &[VectorSet],
    g: &Generation,
    reference: &BTreeMap<Vec<u8>, f64>,
) -> (u64, u64) {
    let encs = ipvs
        .iter()
        .map(Genome::encode)
        .zip(g.ipvs.scores.iter().zip(&g.ipvs.tiers))
        .chain(
            sets.iter()
                .map(Genome::encode)
                .zip(g.sets.scores.iter().zip(&g.sets.tiers)),
        );
    let (mut attempted, mut failed) = (0, 0);
    for (enc, (score, tier)) in encs {
        if *tier == Fidelity::Full {
            attempted += 1;
            failed += u64::from(reference.get(&enc).map(|r| r.to_bits()) != Some(score.to_bits()));
        }
    }
    (attempted, failed)
}

/// Ladder counts, then every genome's tier and score bits.
pub fn digest(g: &Generation) -> (u32, String) {
    let s = &g.stats;
    let mut text = format!(
        "ladder profile={} sampled={} full={} pruned={} full_saved={}\n",
        s.profile_evals, s.sampled_evals, s.full_evals, s.pruned, s.full_saved
    );
    for (kind, o) in [("ipv", &g.ipvs), ("set", &g.sets)] {
        for (i, (score, tier)) in o.scores.iter().zip(&o.tiers).enumerate() {
            text.push_str(&format!("{kind}{i} {tier:?} {:016x}\n", score.to_bits()));
        }
    }
    let mut h = Crc32::new();
    h.update(text.as_bytes());
    (h.finish(), text)
}

fn build_context(specs: &[(WorkloadSpec, f64)], scale: Scale) -> FitnessContext {
    FitnessContext::from_specs(specs, scale.ga_accesses(), scale.fitness())
}

pub fn run(r: &Run) -> Outcome {
    let tracer = &r.tracer;
    let quiet = Tracer::new(false);
    let specs = specs(&BENCHES, SCALE, r.seed);
    let (ipvs, sets) = population(r.seed);

    let mut setup_s = Vec::new();
    let mut input_digests = Vec::new();
    let mut ctx = None;
    for rep in 0..SETUP_REPEATS {
        drop(ctx.take());
        let start = Instant::now();
        let built = tracer.span("bench.setup", None, rep, |_| build_context(&specs, SCALE));
        setup_s.push(start.elapsed().as_secs_f64());
        let mut h = Crc32::new();
        for ws in built.streams() {
            stream_digest(&ws.stream, &mut h);
        }
        for g in &ipvs {
            h.update(&g.encode());
        }
        for g in &sets {
            h.update(&g.encode());
        }
        input_digests.push(h.finish());
        ctx = Some(built);
    }
    let ctx = ctx.expect("at least one set-up");
    let mut failed = input_digests
        .iter()
        .filter(|&&d| d != input_digests[0])
        .count() as u64;

    let steps = AtomicU64::new(0);
    let warm = generation(&ctx, &ipvs, &sets, &quiet, 0, &steps);
    let reference = reference(&ctx, &ipvs, &sets, &warm);
    let (mut attempted, warm_failed) = gate(&ipvs, &sets, &warm, &reference);
    failed += warm_failed;

    let (mut round_s, mut rates, mut traced_round_s, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut id = 0u32;
    while measured < r.seconds || (id as usize) < r.min_rounds() {
        let traced = r.round_traced(id);
        steps.store(0, Ordering::Relaxed);
        let start = Instant::now();
        let (g, peak) = with_peak_rss(|| {
            generation(
                &ctx,
                &ipvs,
                &sets,
                if traced { tracer } else { &quiet },
                id,
                &steps,
            )
        });
        let secs = start.elapsed().as_secs_f64();
        let (a, f) = gate(&ipvs, &sets, &g, &reference);
        attempted += a;
        // Every genome's tier and score, not only the full tier, must
        // repeat the warm-up generation exactly.
        failed += f + u64::from(g != warm);
        measured += secs;
        if traced {
            traced_round_s.push(secs);
        } else {
            round_s.push(secs);
            peaks.push(peak);
            rates.push(steps.load(Ordering::Relaxed) as f64 / secs);
        }
        id += 1;
    }

    let (digest, digest_text) = digest(&warm);
    let mut out = Outcome::new(attempted, failed, digest, digest_text, input_digests[0]);
    out.end_to_end(
        median(&setup_s),
        median(&round_s),
        median(&rates),
        median(&peaks),
    );
    out.stamp_streams(
        ctx.streams()
            .iter()
            .map(|w| (w.name.clone(), w.stream.len())),
    );
    out.extra
        .push(metric("generation_s", median(&round_s), "s"));
    out.extra
        .push(metric("timed_rounds", round_s.len() as f64, "count"));
    let s = &warm.stats;
    for (name, v) in [
        ("ladder.profile_evals", s.profile_evals),
        ("ladder.sampled_evals", s.sampled_evals),
        ("ladder.full_evals", s.full_evals),
        ("ladder.pruned", s.pruned),
        ("ladder.full_saved", s.full_saved),
    ] {
        out.layer(name, v as f64);
    }

    if tracer.enabled() {
        out.failed += setup_probe(&specs, &ctx, tracer, &mut out);
        shard_probe(&ctx, &ipvs, &warm, tracer, &mut out);
        let spans = tracer.spans();
        let ms_p50 = |name: &str| percentile(&durations_s(&spans, name), 50.0) * 1e3;
        out.layer("fitness.profile_ms_p50", ms_p50("fitness.profile"));
        out.layer("fitness.sampled_ms_p50", ms_p50("fitness.sampled"));
        out.layer("fitness.full_ipv_ms_p50", ms_p50("fitness.full_ipv"));
        out.layer("fitness.full_set_ms_p50", ms_p50("fitness.full_set"));
        out.layer(
            "sliced.steps_per_s",
            rate(&ctx, &spans, &["fitness.sampled"], true),
        );
        out.layer(
            "mono.steps_per_s",
            rate(
                &ctx,
                &spans,
                &["fitness.full_set", "fitness.sampled_set"],
                false,
            ),
        );
        let geom = ctx.geometry();
        let shards = host_shards(&geom);
        // Full-tier paths of the two genome kinds, from the public probes.
        let ipv_probe = GipprPolicy::new(&geom, ipvs[0].clone()).expect("16-way IPV");
        let sharded = sim_core::ReplacementPolicy::shard_affinity(&ipv_probe)
            == sim_core::ShardAffinity::SetLocal
            && shards > 1;
        let sliced = !sharded && sim_core::ReplacementPolicy::slice_kernel(&ipv_probe).is_some();
        out.layer("plan.sharded", if sharded { IPVS as f64 } else { 0.0 });
        out.layer("plan.sliced", if sliced { IPVS as f64 } else { 0.0 });
        out.layer(
            "plan.mono",
            SETS as f64 + if sharded || sliced { 0.0 } else { IPVS as f64 },
        );
        out.tracing_overhead(median(&traced_round_s), median(&round_s));
    }
    out
}

/// Accesses replayed per second of span time over the named tier spans:
/// full streams for full-tier spans, sampled sub-streams for sampled ones.
fn rate(ctx: &FitnessContext, spans: &[Span], names: &[&str], sampled_only: bool) -> f64 {
    let full: f64 = ctx.streams().iter().map(|w| w.stream.len() as f64).sum();
    let sampled: f64 = ctx
        .streams()
        .iter()
        .map(|w| w.sampled.stream.len() as f64)
        .sum();
    let (mut steps, mut secs) = (0.0, 0.0);
    for name in names {
        let d = durations_s(spans, name);
        let per = if sampled_only || name.contains("sampled") {
            sampled
        } else {
            full
        };
        steps += per * d.len() as f64;
        secs += d.iter().sum::<f64>();
    }
    steps / secs.max(1e-12)
}

/// Re-runs the context build's layers one by one on the same specs —
/// generation, capture, Mattson profile, set sampling, routing — and checks
/// the captures equal the context's. Returns the number of mismatches.
fn setup_probe(
    specs: &[(WorkloadSpec, f64)],
    ctx: &FitnessContext,
    tracer: &Tracer,
    out: &mut Outcome,
) -> u64 {
    let config = SCALE.hierarchy();
    let geom = config.llc;
    let round = u32::MAX;
    let (mut refs_total, mut llc_total, mut failed) = (0usize, 0usize, 0u64);
    tracer.span("bench.probe", None, round, |root| {
        for ((spec, _), ws) in specs.iter().zip(ctx.streams()) {
            let scaled = spec.scaled_down(SCALE.shift());
            let refs: Vec<Access> = tracer.span("traces.generate", root, round, |_| {
                scaled.generator(0).take(SCALE.ga_accesses()).collect()
            });
            let (stream, _) = tracer.span("hierarchy.capture", root, round, |_| {
                capture_llc_stream(config, refs.iter().copied())
            });
            failed += u64::from(stream != *ws.stream);
            refs_total += refs.len();
            llc_total += stream.len();
            let warmup = mem_model::default_warmup(stream.len());
            let profile = tracer.span("mattson.capture", root, round, |_| {
                StackDistanceProfile::capture(&stream, &geom, warmup, geom.ways())
            });
            failed += u64::from(profile.misses(geom.ways()) != ws.lru_misses);
            let sampled = tracer.span("sample.build", root, round, |_| {
                SampledWorkload::build(&stream, &geom, warmup, DEFAULT_SAMPLE_EVERY, 0)
            });
            failed += u64::from(sampled.stream.stream() != ws.sampled.stream.stream());
            let sharded = tracer.span("shard.route", root, round, |_| {
                ShardedStream::for_parallelism(&stream, &geom, warmup, pool::global().cap())
            });
            std::hint::black_box(sharded);
        }
    });
    let spans = tracer.spans();
    let sum = |name: &str| durations_s(&spans, name).iter().sum::<f64>();
    out.layer("traces.generate_s", sum("traces.generate"));
    out.layer("hierarchy.capture_s", sum("hierarchy.capture"));
    out.layer(
        "hierarchy.llc_per_ref",
        llc_total as f64 / refs_total.max(1) as f64,
    );
    out.layer("mattson.capture_s", sum("mattson.capture"));
    out.layer("sample.build_s", sum("sample.build"));
    out.layer("shard.route_s", sum("shard.route"));
    failed
}

/// Splits the full-tier IPV path (`replay_llc_sharded`) into its shard
/// steps and the merge, on the first few full-tier genomes.
fn shard_probe(
    ctx: &FitnessContext,
    ipvs: &[Ipv],
    g: &Generation,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let geom = ctx.geometry();
    let perf = WindowPerfModel::default();
    let (mut max_shard, mut mean_shard) = (0.0, 0.0);
    for ws in ctx.streams() {
        let per: Vec<f64> = (0..ws.sharded.shards())
            .map(|k| ws.sharded.measured_in(k) as f64)
            .collect();
        max_shard += per.iter().cloned().fold(0.0, f64::max);
        mean_shard += per.iter().sum::<f64>() / per.len() as f64;
    }
    out.layer("shard.count", ctx.streams()[0].sharded.shards() as f64);
    out.layer("shard.imbalance", max_shard / mean_shard.max(1e-12));
    let full: Vec<&Ipv> = ipvs
        .iter()
        .zip(&g.ipvs.tiers)
        .filter(|(_, t)| **t == Fidelity::Full)
        .map(|(i, _)| i)
        .take(4)
        .collect();
    let (mut step_s, mut merge_s) = (0.0, 0.0);
    let round = u32::MAX;
    tracer.span("bench.probe", None, round, |root| {
        for ipv in full {
            let make = || GipprPolicy::new(&geom, ipv.clone()).expect("16-way IPV");
            for ws in ctx.streams() {
                let sharded = &ws.sharded;
                let start = Instant::now();
                tracer.span("batch.shard_step", root, round, |_| {
                    for k in 0..sharded.shards() {
                        std::hint::black_box(sharded.replay_shard(k, make()));
                    }
                });
                let step = start.elapsed().as_secs_f64();
                let start = Instant::now();
                tracer.span("batch.sharded", root, round, |_| {
                    std::hint::black_box(replay_llc_sharded(sharded, make, &perf))
                });
                step_s += step;
                merge_s += (start.elapsed().as_secs_f64() - step).max(0.0);
            }
        }
    });
    out.layer("batch.shard_step_s", step_s);
    out.layer("batch.merge_s", merge_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> (FitnessContext, Vec<Ipv>, Vec<VectorSet>) {
        let specs = specs(
            &[Spec2006::Libquantum, Spec2006::Sphinx3],
            Scale::Micro,
            seed,
        );
        let (mut ipvs, mut sets) = population(seed);
        ipvs.truncate(12);
        sets.truncate(3);
        (build_context(&specs, Scale::Micro), ipvs, sets)
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, ia, sa) = tiny(4);
        let (b, ib, sb) = tiny(4);
        assert_eq!(ia, ib);
        assert_eq!(sa, sb);
        assert!(a
            .streams()
            .iter()
            .zip(b.streams())
            .all(|(x, y)| x.stream == y.stream));
        let (_, ic, _) = tiny(5);
        assert_ne!(ia, ic, "another seed, another population");
    }

    #[test]
    fn gate_passes_the_ladder_and_trips_on_a_seeded_defect() {
        let (ctx, ipvs, sets) = tiny(4);
        let steps = AtomicU64::new(0);
        let g = generation(&ctx, &ipvs, &sets, &Tracer::new(true), 0, &steps);
        let reference = reference(&ctx, &ipvs, &sets, &g);
        let (attempted, failed) = gate(&ipvs, &sets, &g, &reference);
        assert!(
            attempted > 8,
            "min_full IPVs plus at least one set: {attempted}"
        );
        assert_eq!(failed, 0);
        assert!(steps.load(Ordering::Relaxed) > 0);

        // Seeded defect: the last bit of one full-tier score flips.
        let mut bad = g.clone();
        let i = bad
            .ipvs
            .tiers
            .iter()
            .position(|t| *t == Fidelity::Full)
            .expect("a full-tier IPV");
        bad.ipvs.scores[i] = f64::from_bits(bad.ipvs.scores[i].to_bits() ^ 1);
        assert_eq!(gate(&ipvs, &sets, &bad, &reference), (attempted, 1));
    }
}
