//! The monomorphized replay fast path must be behaviorally identical to
//! the boxed (`Box<dyn ReplacementPolicy>`) compatibility path: same hits,
//! misses, and evictions at the cache level, and bit-identical
//! `PolicyMeasurement`s at the harness level. The fast path only removes
//! virtual dispatch — never semantics.

use baselines::{DrripPolicy, TrueLru};
use gippr::DgipprPolicy;
use harness::stats::weighted_mean;
use harness::{
    measure_policy, policies, prepare_workloads, PolicyMeasurement, Scale, WorkloadData,
};
use mem_model::cpi::WindowPerfModel;
use mem_model::{replay_llc, replay_llc_mono};
use sim_core::{Access, CacheGeometry, ReplacementPolicy, SetAssocCache};

/// A deterministic stream mixing a cache-resident loop with a streaming
/// sweep — exercises hits, misses, and evictions.
fn mixed_stream(n: usize) -> Vec<Access> {
    (0..n)
        .map(|i| {
            let addr = if i % 2 == 0 {
                (i as u64 % 512) * 64
            } else {
                0x10_0000 + i as u64 * 64
            };
            Access::read(addr, 0x400).with_icount_delta(3)
        })
        .collect()
}

fn leaders(geom: &CacheGeometry) -> usize {
    (geom.sets() / 64).clamp(4, 32)
}

#[test]
fn generic_cache_matches_boxed_cache_step_by_step() {
    let geom = CacheGeometry::from_sets(64, 16, 64).unwrap();
    let mut mono = SetAssocCache::with_policy(geom, TrueLru::new(&geom));
    let mut boxed = SetAssocCache::new(geom, Box::new(TrueLru::new(&geom)));
    for a in mixed_stream(20_000) {
        let m = mono.access(&a);
        let b = boxed.access(&a);
        assert_eq!(m, b, "per-access outcome diverged at {a:?}");
    }
    assert_eq!(
        mono.stats(),
        boxed.stats(),
        "hits/misses/evictions must match"
    );
}

#[test]
fn replay_llc_mono_matches_dyn_for_each_policy() {
    let geom = CacheGeometry::from_sets(128, 16, 64).unwrap();
    let stream = mixed_stream(30_000);
    let warmup = mem_model::llc::default_warmup(stream.len());
    let perf = WindowPerfModel::default();

    type MonoRun<'a> = Box<dyn Fn() -> mem_model::LlcRunResult + 'a>;
    let checks: Vec<(&str, MonoRun)> = vec![
        (
            "LRU",
            Box::new(|| replay_llc_mono(&stream, geom, TrueLru::new(&geom), warmup, &perf)),
        ),
        (
            "DRRIP",
            Box::new(|| {
                replay_llc_mono(
                    &stream,
                    geom,
                    DrripPolicy::with_config(&geom, leaders(&geom), 10).unwrap(),
                    warmup,
                    &perf,
                )
            }),
        ),
        (
            "WN1-4-DGIPPR",
            Box::new(|| {
                replay_llc_mono(
                    &stream,
                    geom,
                    DgipprPolicy::with_config(
                        &geom,
                        gippr::vectors::wi_4dgippr().to_vec(),
                        leaders(&geom),
                        "WN1-4-DGIPPR",
                    )
                    .unwrap(),
                    warmup,
                    &perf,
                )
            }),
        ),
    ];
    let dyn_factories = [policies::lru(), policies::drrip(), {
        let vs = gippr::vectors::wi_4dgippr().to_vec();
        policies::dgippr(vs, "WN1-4-DGIPPR")
    }];

    for ((name, mono), factory) in checks.iter().zip(&dyn_factories) {
        let mono_run = mono();
        // A `Box<dyn ReplacementPolicy>` as `P`: the boxed callbacks.
        let dyn_run = replay_llc_mono(&stream, geom, factory(&geom), warmup, &perf);
        assert_eq!(
            replay_llc(&stream, geom, factory(&geom), warmup, &perf),
            dyn_run,
            "{name}: replay_llc and the boxed callbacks must be identical"
        );
        assert_eq!(
            mono_run, dyn_run,
            "{name}: mono and dyn replay must be identical"
        );
        assert!(mono_run.stats.accesses > 0);
    }
}

/// `measure_policy` recomputed through the monomorphized path, for
/// comparison against the `PolicyFactory` (boxed) path.
fn measure_mono<P: ReplacementPolicy + 'static, F: Fn(&CacheGeometry) -> P>(
    workload: &WorkloadData,
    make: F,
    geom: CacheGeometry,
) -> PolicyMeasurement {
    let perf = WindowPerfModel::default();
    let mut mpki = Vec::new();
    let mut cycles = Vec::new();
    let mut misses = Vec::new();
    for sp in &workload.simpoints {
        let run = replay_llc_mono(&sp.stream, geom, make(&geom), sp.warmup, &perf);
        mpki.push((run.mpki(), sp.weight));
        cycles.push((run.cycles, sp.weight));
        misses.push((run.stats.misses as f64, sp.weight));
    }
    PolicyMeasurement {
        mpki: weighted_mean(&mpki, 0.0),
        cycles: weighted_mean(&cycles, 1.0),
        misses: weighted_mean(&misses, 0.0),
    }
}

#[test]
fn policy_measurements_identical_on_captured_workloads() {
    let workloads = prepare_workloads(
        Scale::Quick,
        &[
            traces::spec2006::Spec2006::Libquantum,
            traces::spec2006::Spec2006::Mcf,
        ],
    );
    let geom = Scale::Quick.hierarchy().llc;
    for w in &workloads {
        let lru_dyn = measure_policy(w, &policies::lru(), geom);
        let lru_mono = measure_mono(w, TrueLru::new, geom);
        assert_eq!(lru_dyn, lru_mono, "{}: LRU", w.bench);

        let drrip_dyn = measure_policy(w, &policies::drrip(), geom);
        let drrip_mono = measure_mono(
            w,
            |g| DrripPolicy::with_config(g, leaders(g), 10).unwrap(),
            geom,
        );
        assert_eq!(drrip_dyn, drrip_mono, "{}: DRRIP", w.bench);

        let vs = gippr::vectors::wi_4dgippr().to_vec();
        let quad_dyn = measure_policy(w, &policies::dgippr(vs.clone(), "WN1-4-DGIPPR"), geom);
        let quad_mono = measure_mono(
            w,
            |g| DgipprPolicy::with_config(g, vs.clone(), leaders(g), "WN1-4-DGIPPR").unwrap(),
            geom,
        );
        assert_eq!(quad_dyn, quad_mono, "{}: 4-DGIPPR", w.bench);
    }
}

#[test]
fn workload_cache_returns_byte_identical_streams() {
    let cache = harness::WorkloadCache::new();
    let bench = traces::spec2006::Spec2006::Sphinx3;
    let cached = cache.workload(Scale::Micro, bench);
    let fresh = harness::cache::capture_workload(Scale::Micro, bench);
    assert_eq!(cached.simpoints.len(), fresh.simpoints.len());
    for (c, f) in cached.simpoints.iter().zip(&fresh.simpoints) {
        assert_eq!(
            *c.stream, *f.stream,
            "cached stream must equal a fresh capture"
        );
    }
    // And asking again must not capture again.
    let before = cache.captures();
    let again = cache.workload(Scale::Micro, bench);
    assert_eq!(cache.captures(), before);
    assert!(std::sync::Arc::ptr_eq(&cached, &again));
}
