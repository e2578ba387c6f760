//! The mono engine against the boxed callbacks: a [`Replayer`] on a
//! forced mono plan — a factory-built `Box<dyn ReplacementPolicy>` turned
//! into a cache monomorphized for its concrete type and fed in chunks of
//! at most [`MONO_CHUNK`] accesses — fed any chunking of a stream must
//! give exactly what a per-access `SetAssocCache<Box<dyn
//! ReplacementPolicy>>` loop with its own [`PerfAccumulator`] gives:
//! every statistics field, the instruction count and the cycle
//! estimate's bits. The roster is the figure harness's twelve baselines,
//! built as `harness::policies` builds them, plus SDBP.

use baselines::{
    ArcPolicy, AwrpPolicy, DipPolicy, DrripPolicy, EhcPolicy, FifoPolicy, PdpPolicy, RandomPolicy,
    SdbpPolicy, ShipPolicy, SrripPolicy, TrueLru,
};
use gippr::PlruPolicy;
use mem_model::cpi::PerfAccumulator;
use mem_model::{Engine, LlcRunResult, Plan, Replayer, WindowPerfModel};
use proptest::prelude::*;
use sim_core::policy::factory;
use sim_core::{Access, CacheGeometry, PolicyFactory, SetAssocCache, MONO_CHUNK};
use sim_verify::workloads::workloads;

const ACCESSES: usize = 20_000;

/// The twelve roster baselines (leader counts as `harness::policies`
/// sizes them) plus SDBP.
fn roster() -> Vec<(&'static str, PolicyFactory)> {
    let leaders = |g: &CacheGeometry| (g.sets() / 64).clamp(4, 32);
    vec![
        ("LRU", factory(|g| Box::new(TrueLru::new(g)))),
        ("PseudoLRU", factory(|g| Box::new(PlruPolicy::new(g)))),
        (
            "Random",
            factory(|g| Box::new(RandomPolicy::with_seed(g, 1))),
        ),
        ("FIFO", factory(|g| Box::new(FifoPolicy::new(g)))),
        (
            "DIP",
            factory(move |g| Box::new(DipPolicy::with_config(g, leaders(g), 10).unwrap())),
        ),
        ("SRRIP", factory(|g| Box::new(SrripPolicy::new(g)))),
        (
            "DRRIP",
            factory(move |g| Box::new(DrripPolicy::with_config(g, leaders(g), 10).unwrap())),
        ),
        ("PDP", factory(|g| Box::new(PdpPolicy::new(g)))),
        ("SHiP", factory(|g| Box::new(ShipPolicy::new(g)))),
        ("EHC", factory(|g| Box::new(EhcPolicy::new(g)))),
        ("AWRP", factory(|g| Box::new(AwrpPolicy::new(g)))),
        ("ARC", factory(|g| Box::new(ArcPolicy::new(g)))),
        ("SDBP", factory(|g| Box::new(SdbpPolicy::new(g)))),
    ]
}

/// The independent path: one boxed-callback access at a time, each
/// outcome noted in a fresh accumulator, reset at the warm-up index.
fn boxed_loop(
    f: &PolicyFactory,
    geom: CacheGeometry,
    stream: &[Access],
    warmup: usize,
) -> LlcRunResult {
    let perf = WindowPerfModel::default();
    let mut cache = SetAssocCache::new(geom, f(&geom));
    let mut acc = PerfAccumulator::new();
    for (i, a) in stream.iter().enumerate() {
        if i == warmup {
            cache.reset_stats();
            acc = PerfAccumulator::new();
        }
        let hit = cache.access_fast(a);
        acc.note_llc(a.icount_delta, hit, &perf);
    }
    if warmup >= stream.len() {
        cache.reset_stats();
        acc = PerfAccumulator::new();
    }
    LlcRunResult {
        stats: *cache.stats(),
        instructions: acc.instructions(),
        cycles: acc.cycles(&perf),
    }
}

/// The mono engine whatever kernel the policy describes, fed in chunks
/// of the given lengths (cycling), with the warm-up boundary cut exactly.
fn chunked_mono(
    f: &PolicyFactory,
    geom: CacheGeometry,
    stream: &[Access],
    warmup: usize,
    lens: &[usize],
) -> LlcRunResult {
    let mono = Plan {
        engine: Engine::Mono,
        reason: "forced",
    };
    let mut r = Replayer::new(&mono, geom, || f(&geom), &WindowPerfModel::default());
    assert!(!r.is_sliced());
    let feed = |part: &[Access], r: &mut Replayer| {
        let mut at = 0;
        for &len in lens.iter().cycle() {
            if at == part.len() {
                break;
            }
            let end = (at + len).min(part.len());
            r.feed(&part[at..end]);
            at = end;
        }
    };
    let (warm, measured) = stream.split_at(warmup.min(stream.len()));
    feed(warm, &mut r);
    r.reset_stats();
    feed(measured, &mut r);
    r.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mono_engine_equals_boxed_callbacks(
        seed in any::<u64>(),
        // Chunk lengths below, at and above the engine's chunk, and
        // empty chunks.
        lens in proptest::collection::vec(0usize..(3 * MONO_CHUNK), 1..12),
        warm_third in 0usize..4,
    ) {
        // A 256-set LLC: small enough that every workload evicts.
        let geom = CacheGeometry::from_sets(256, 16, 64).unwrap();
        let mut lens = lens;
        lens.push(1); // at least one non-empty length
        for (wname, stream) in workloads(seed, ACCESSES) {
            // Warm-up at 0, a third, two thirds or the whole stream.
            let warmup = stream.len() * warm_third / 3;
            for (name, f) in roster() {
                let want = boxed_loop(&f, geom, &stream, warmup);
                let got = chunked_mono(&f, geom, &stream, warmup, &lens);
                let what = format!("{name} on {wname}, warm-up {warmup}, chunks {lens:?}");
                prop_assert_eq!(got.stats, want.stats, "{}", what);
                prop_assert_eq!(got.instructions, want.instructions, "{}", what);
                prop_assert_eq!(got.cycles.to_bits(), want.cycles.to_bits(), "{}", what);
            }
        }
    }
}
