//! Measures replay-engine throughput — the monomorphized engine against
//! the frozen seed (v0) dyn-dispatch engine, plus the sharded single-pass
//! batch engine — and emits `BENCH_replay.json`.
//!
//! Usage: `bench-replay [--scale micro|quick|medium|paper] [--json PATH]`
//!        `bench-replay --smoke`
//!
//! For each policy the same captured LLC stream is replayed through five
//! engines:
//!
//! * `seed` — [`harness::seed_replay::replay_llc_seed`], a verbatim copy
//!   of the v0 engine (boxed policy, early-exit double scan). This is the
//!   denominator of `speedup`, so the number tracks total engine progress
//!   across PRs.
//! * `dyn` — [`mem_model::replay_llc`], today's engine driving a
//!   `Box<dyn ReplacementPolicy>` (the `PolicyFactory` compatibility path).
//! * `mono` — [`mem_model::replay_llc_mono`] at the concrete policy type
//!   (the mono engine the GA replays on; no virtual dispatch).
//! * `sharded` — [`mem_model::replay_many_sharded`], the pre-routed
//!   batch entry, which runs the engine [`mem_model::plan`] picks at the
//!   routing's shard count. Only a policy planned `Sharded` (set-local,
//!   no usable kernel) times its own column; every other row reports
//!   the rate of the whole-stream engine it is planned onto (`slice` or
//!   `mono`; DRRIP and WI-4-DGIPPR run duel kernels, so their sharded
//!   rate equals their slice rate exactly) rather than timing a phantom
//!   engine.
//! * `slice` — [`mem_model::replay_llc_sliced`], the bit-sliced kernel
//!   engine (4 PLRU trees per `u64`, SWAR stacks/RRPV arrays, duel state
//!   beside them for set-dueling policies). Only policies planned onto it
//!   have this column; the rest report `null`.
//!
//! The roster is also replayed as one [`mem_model::replay_many`] batch
//! (planned whole-stream engines, no routing), reported as the aggregate
//! `batched_accesses_per_sec`.
//!
//! Reported rates are accesses per second over the best of several timed
//! repetitions. `--smoke` skips capture and timing sweeps: it replays a
//! tiny synthetic stream, asserts the batch engine matches the sequential
//! engine stat-for-stat across the roster, and applies a generous
//! throughput floor — a CI-speed guard that the fast path stays both
//! correct and fast-ish.

use baselines::{AwrpPolicy, DrripPolicy, FifoPolicy, TrueLru};
use gippr::{DgipprPolicy, GipprPolicy, PlruPolicy};
use harness::seed_replay::replay_llc_seed;
use harness::{policies, Scale};
use mem_model::cpi::WindowPerfModel;
use mem_model::{
    plan, replay_llc, replay_llc_mono, replay_many, replay_many_sharded, Engine, LlcRunResult,
};
use sim_core::{
    Access, CacheGeometry, PolicyFactory, ReplacementPolicy, ShardedStream, SliceKernel,
};
use std::time::Instant;
use traces::spec2006::Spec2006;

/// Timed rounds per measurement; each round runs every engine once
/// (interleaved, so background noise lands on all engines alike) and the
/// fastest round per engine is reported.
const ROUNDS: usize = 9;

fn timed<F: FnOnce() -> LlcRunResult>(run: F) -> (f64, u64) {
    let start = Instant::now();
    let result = run();
    (start.elapsed().as_secs_f64(), result.stats.misses)
}

struct Row {
    name: &'static str,
    seed_rate: f64,
    dyn_rate: f64,
    mono_rate: f64,
    sharded_rate: f64,
    /// Bit-sliced engine rate; `None` for policies without a `SliceKernel`.
    slice_rate: Option<f64>,
    /// Sets packed per state word by the policy's kernel (`None` without one).
    lanes: Option<usize>,
    /// Why `lanes` is what it is — carried in the JSON so a reader does
    /// not mistake the stack kernel's genuine `lanes: 1` for a packing
    /// regression.
    lanes_reason: Option<&'static str>,
}

/// Human-readable justification for a kernel's lane count. The PLRU
/// family is the bit-slicing headline (`64 / ways` trees per word); the
/// nibble-vector kernels fill the whole word with a single 16-entry
/// structure, so one lane is correct, not a bug. A duel kernel's sides
/// share one packed state, so it packs like its family.
fn lanes_reason(kernel: &SliceKernel) -> &'static str {
    match kernel {
        SliceKernel::PlruIpv { .. } => "plru family packs 64/ways tree lanes per u64 word",
        SliceKernel::StackIpv { .. } => {
            "nibble recency stack fills the u64 word with one set; one lane is correct"
        }
        SliceKernel::RripIpv { .. } => {
            "nibble rrpv array fills the u64 word with one set; one lane is correct"
        }
        SliceKernel::Duel { sides, .. } => match sides.first() {
            Some(SliceKernel::PlruIpv { .. }) => {
                "plru duel packs 64/ways tree lanes per u64 word, shared by every side"
            }
            _ => "nibble duel fills the u64 word with one set, shared by every side; one lane is correct",
        },
    }
}

impl Row {
    /// The tracked number: monomorphized engine over the seed engine.
    fn speedup(&self) -> f64 {
        self.mono_rate / self.seed_rate
    }

    /// The sharded batch engine over the mono engine.
    fn sharded_speedup(&self) -> f64 {
        self.sharded_rate / self.mono_rate
    }

    /// The bit-sliced engine over the mono engine (this PR's number).
    fn slice_speedup(&self) -> Option<f64> {
        self.slice_rate.map(|s| s / self.mono_rate)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// Compile-time SIMD/bit-manipulation features the binary was built with —
/// recorded as provenance so rates in `BENCH_replay.json` are comparable
/// across hosts (a `target-cpu=native` build on an AVX2 host is not the
/// same benchmark as a baseline x86-64 build).
fn target_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if cfg!(target_feature = "sse2") {
        features.push("sse2");
    }
    if cfg!(target_feature = "sse4.2") {
        features.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        features.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        features.push("avx2");
    }
    if cfg!(target_feature = "avx512f") {
        features.push("avx512f");
    }
    if cfg!(target_feature = "popcnt") {
        features.push("popcnt");
    }
    if cfg!(target_feature = "bmi1") {
        features.push("bmi1");
    }
    if cfg!(target_feature = "bmi2") {
        features.push("bmi2");
    }
    if cfg!(target_feature = "neon") {
        features.push("neon");
    }
    features
}

fn measure<P, M>(
    name: &'static str,
    stream: &[Access],
    sharded: &ShardedStream,
    geom: CacheGeometry,
    warmup: usize,
    factory: &PolicyFactory,
    make_mono: M,
) -> Row
where
    P: ReplacementPolicy,
    M: Fn(&CacheGeometry) -> P,
{
    // `black_box` stops LTO from tracing the boxed policy back to its
    // concrete type and devirtualizing the dyn paths — in real sweeps the
    // factory is picked from a runtime table, so that optimization is not
    // available. The mono policy is boxed-in-value only: its concrete
    // type (and thus inlining) is unaffected.
    let perf = WindowPerfModel::default();
    let plan = plan(&*factory(&geom), &geom, sharded.shards());
    let kernel = match &plan.engine {
        Engine::Sliced(k) => Some(k.clone()),
        Engine::Sharded | Engine::Mono => None,
    };
    let shards_own_column = plan.engine == Engine::Sharded;
    let (mut seed_best, mut dyn_best, mut mono_best, mut sharded_best, mut slice_best) = (
        f64::INFINITY,
        f64::INFINITY,
        f64::INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    );
    for _ in 0..ROUNDS {
        let (t, seed_misses) = timed(|| {
            replay_llc_seed(
                stream,
                geom,
                std::hint::black_box(factory(&geom)),
                warmup,
                &perf,
            )
        });
        seed_best = seed_best.min(t);
        let (t, dyn_misses) = timed(|| {
            replay_llc(
                stream,
                geom,
                std::hint::black_box(factory(&geom)),
                warmup,
                &perf,
            )
        });
        dyn_best = dyn_best.min(t);
        let (t, mono_misses) = timed(|| {
            replay_llc_mono(
                stream,
                geom,
                std::hint::black_box(make_mono(&geom)),
                warmup,
                &perf,
            )
        });
        mono_best = mono_best.min(t);
        // Per-policy sharded rate, `Sharded` plans only: they reuse the
        // roster's routing pre-pass, whose one-off cost is not timed.
        // Every other plan sends the pre-routed entry down the
        // whole-stream engine the slice or mono column already times, so
        // the sharded column reuses that timing after the loop.
        if shards_own_column {
            let start = Instant::now();
            let out = replay_many_sharded(stream, sharded, &[std::hint::black_box(factory)], &perf);
            sharded_best = sharded_best.min(start.elapsed().as_secs_f64());
            assert_eq!(
                mono_misses, out[0].stats.misses,
                "{name}: sharded engine must agree before being compared"
            );
        }
        assert_eq!(
            seed_misses, dyn_misses,
            "{name}: engines must agree before being compared"
        );
        assert_eq!(
            dyn_misses, mono_misses,
            "{name}: paths must agree before being compared"
        );
        if let Some(k) = &kernel {
            let (t, slice_misses) = timed(|| {
                mem_model::replay_llc_sliced(stream, geom, std::hint::black_box(k), warmup, &perf)
                    .expect("qualifying kernels support the bench geometry")
            });
            slice_best = slice_best.min(t);
            assert_eq!(
                mono_misses, slice_misses,
                "{name}: bit-sliced engine must agree before being compared"
            );
        }
    }
    if !shards_own_column {
        sharded_best = if kernel.is_some() {
            slice_best
        } else {
            mono_best
        };
    }
    let rate = |best: f64| stream.len() as f64 / best.max(1e-12);
    Row {
        name,
        seed_rate: rate(seed_best),
        dyn_rate: rate(dyn_best),
        mono_rate: rate(mono_best),
        sharded_rate: rate(sharded_best),
        slice_rate: kernel.as_ref().map(|_| rate(slice_best)),
        lanes: kernel.as_ref().map(|k| k.lanes(geom.ways())),
        lanes_reason: kernel.as_ref().map(lanes_reason),
    }
}

/// Builds the 5-policy benchmark roster as dyn factories.
fn roster() -> Vec<(&'static str, PolicyFactory)> {
    let quad = gippr::vectors::wi_4dgippr().to_vec();
    vec![
        ("LRU", policies::lru()),
        ("PseudoLRU", policies::plru()),
        (
            "WI-GIPPR",
            policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
        ),
        ("WI-4-DGIPPR", policies::dgippr(quad, "WI-4-DGIPPR")),
        ("DRRIP", policies::drrip()),
    ]
}

/// `--smoke`: a fast correctness-plus-sanity gate for CI. Replays a tiny
/// synthetic stream through `replay_many`, a pinned 8-shard batch, the
/// bit-sliced engine (for every kernel-carrying policy), and the
/// sequential engine for the whole roster, asserting exact result
/// equality, then checks the batch engine clears a deliberately generous
/// throughput floor.
fn smoke() {
    let geom = Scale::Micro.hierarchy().llc;
    let perf = WindowPerfModel::default();
    // A mixed hot/scan stream over 4x the cache's block capacity.
    let blocks = (geom.sets() * geom.ways() * 4) as u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let stream: Vec<Access> = (0..40_000usize)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let block = if i % 4 == 0 {
                state % (blocks / 8).max(1)
            } else {
                state % blocks
            };
            let addr = block * geom.line_bytes();
            let a = if state & 3 == 0 {
                Access::write(addr, state % 512)
            } else {
                Access::read(addr, state % 512)
            };
            a.with_icount_delta((state % 9) as u32 + 1)
        })
        .collect();
    let warmup = mem_model::llc::default_warmup(stream.len());
    let named = roster();
    let refs: Vec<&PolicyFactory> = named.iter().map(|(_, f)| f).collect();

    let start = Instant::now();
    let batched = replay_many(&stream, geom, &refs, warmup, &perf);
    let elapsed = start.elapsed().as_secs_f64();

    // A pinned 8-shard routing exercises the shard-and-merge path for the
    // policies the planner shards; replay_many never routes.
    let pinned = ShardedStream::build(&stream, &geom, warmup, 8);
    let batched_pinned = replay_many_sharded(&stream, &pinned, &refs, &perf);
    let mut sliced_checked = 0;
    for (((name, factory), got), got_pinned) in named.iter().zip(&batched).zip(&batched_pinned) {
        let want = replay_llc(&stream, geom, factory(&geom), warmup, &perf);
        assert_eq!(
            *got, want,
            "{name}: sharded batch result diverged from sequential replay"
        );
        assert_eq!(
            *got_pinned, want,
            "{name}: 8-shard batch result diverged from sequential replay"
        );
        // Pinned bit-identity for the sliced engine: every policy planned
        // onto it must reproduce the sequential result exactly.
        if let Engine::Sliced(kernel) = plan(&*factory(&geom), &geom, 1).engine {
            let sliced = mem_model::replay_llc_sliced(&stream, geom, &kernel, warmup, &perf)
                .expect("smoke geometry is a supported associativity");
            assert_eq!(
                sliced, want,
                "{name}: bit-sliced result diverged from sequential replay"
            );
            sliced_checked += 1;
        }
    }
    // Every roster member carries a kernel: LRU, PseudoLRU and WI-GIPPR
    // single-table ones, WI-4-DGIPPR and DRRIP duel kernels.
    assert_eq!(
        sliced_checked,
        named.len(),
        "expected every smoke roster policy on the sliced engine"
    );
    // Lane accounting is part of the reported schema. Pin it here so a
    // future kernel change cannot silently alter the packing story: the
    // LRU row's `lanes: 1` is genuinely correct — its stack kernel fills
    // the whole u64 word with one 16-entry nibble stack — while the PLRU
    // family packs `64 / ways` tree lanes per word.
    for (name, factory) in &named {
        let Some(kernel) = factory(&geom).slice_kernel() else {
            continue;
        };
        let lanes = kernel.lanes(geom.ways());
        let reason = lanes_reason(&kernel);
        let family = match &kernel {
            SliceKernel::Duel { sides, .. } => &sides[0],
            single => single,
        };
        match family {
            SliceKernel::PlruIpv { .. } => {
                assert_eq!(lanes, 64 / geom.ways(), "{name}: plru lane packing");
                assert!(reason.contains("64/ways"), "{name}: {reason}");
            }
            _ => {
                assert_eq!(lanes, 1, "{name}: nibble-vector kernels are single-lane");
                assert!(reason.contains("one lane is correct"), "{name}: {reason}");
            }
        }
    }
    let lru_kernel = policies::lru()(&geom)
        .slice_kernel()
        .expect("LRU advertises its stack kernel");
    assert_eq!(
        lru_kernel.lanes(geom.ways()),
        1,
        "LRU lanes: a 16-entry stack fills the word; 1 lane is the documented truth"
    );
    let rate = (stream.len() * refs.len()) as f64 / elapsed.max(1e-12);
    // Floor is ~100x below a release-build single-core replay rate: it
    // only trips on catastrophic regressions (accidental debug logic,
    // quadratic routing), not on runner noise.
    assert!(
        rate > 1.0e6,
        "batched throughput sanity floor: {rate:.0} accesses/sec"
    );
    smoke_sharded_speedup(geom, &perf);
    println!(
        "smoke OK: {} policies x {} accesses, batch == sequential, \
         {sliced_checked} sliced kernels bit-identical, {:.1}M acc/s aggregate",
        refs.len(),
        stream.len(),
        rate / 1.0e6
    );
}

/// On a multi-core host, the sharded batch engine must actually beat the
/// sequential mono engine for at least one policy the planner shards
/// (set-local, no slice kernel) — the whole point of sharding.
/// Single-core hosts (and hosts whose worker budget degenerates the
/// routing to one shard) skip the assertion: there is no parallelism to
/// validate there, and CI provides the >1-core runner.
fn smoke_sharded_speedup(geom: CacheGeometry, perf: &WindowPerfModel) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A longer stream than the correctness smoke: the speedup check needs
    // the per-shard work to dominate pool dispatch overhead.
    let blocks = (geom.sets() * geom.ways() * 4) as u64;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let stream: Vec<Access> = (0..800_000usize)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Access::read((state % blocks) * geom.line_bytes(), state % 512)
                .with_icount_delta((state % 9) as u32 + 1)
        })
        .collect();
    let warmup = mem_model::llc::default_warmup(stream.len());
    let sharded =
        ShardedStream::for_parallelism(&stream, &geom, warmup, sim_core::pool::global().cap());
    if cores < 2 || sharded.shards() < 2 {
        println!(
            "smoke: sharded>mono speedup check skipped ({cores} core(s), {} shard(s))",
            sharded.shards()
        );
        return;
    }
    #[allow(clippy::too_many_arguments)]
    fn speedup_of<P, M>(
        name: &str,
        stream: &[Access],
        sharded: &ShardedStream,
        geom: CacheGeometry,
        warmup: usize,
        factory: &PolicyFactory,
        make_mono: M,
        perf: &WindowPerfModel,
    ) -> f64
    where
        P: ReplacementPolicy,
        M: Fn(&CacheGeometry) -> P,
    {
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

    let results = [
        (
            "FIFO",
            speedup_of(
                "FIFO",
                &stream,
                &sharded,
                geom,
                warmup,
                &policies::fifo(),
                FifoPolicy::new,
                perf,
            ),
        ),
        (
            "AWRP",
            speedup_of(
                "AWRP",
                &stream,
                &sharded,
                geom,
                warmup,
                &policies::awrp(),
                AwrpPolicy::new,
                perf,
            ),
        ),
    ];
    for (name, speedup) in &results {
        println!(
            "smoke: {name} sharded/mono speedup {speedup:.2}x ({} shards on {cores} cores)",
            sharded.shards()
        );
    }
    let best = results
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two candidates");
    assert!(
        best.1 > 1.0,
        "on a {cores}-core host the sharded engine must beat the mono engine \
         for at least one policy planned Sharded; best was {} at {:.2}x",
        best.0,
        best.1
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut json_path = "BENCH_replay.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(String::as_str).unwrap_or(""))
                    .expect("--scale micro|quick|medium|paper");
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned().expect("--json PATH");
            }
            "--smoke" => {
                smoke();
                return;
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    // One representative stream: a thrash-heavy benchmark keeps the
    // replacement policy busy (every access updates policy state; misses
    // exercise victim selection).
    let bench = Spec2006::Libquantum;
    let workload = harness::workload_cache().workload(scale, bench);
    let stream: Vec<Access> = workload
        .simpoints
        .iter()
        .flat_map(|sp| sp.stream.iter().copied())
        .collect();
    let geom = scale.hierarchy().llc;
    let warmup = mem_model::llc::default_warmup(stream.len());
    let leaders = policies::leaders_for(&geom);
    let sharded =
        ShardedStream::for_parallelism(&stream, &geom, warmup, sim_core::pool::global().cap());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "replaying {} LLC accesses ({bench}, {scale} scale, {} sets x {} ways, \
         {} shards on {cores} core(s))",
        stream.len(),
        geom.sets(),
        geom.ways(),
        sharded.shards()
    );

    let quad = gippr::vectors::wi_4dgippr().to_vec();
    let rows = vec![
        measure(
            "LRU",
            &stream,
            &sharded,
            geom,
            warmup,
            &policies::lru(),
            TrueLru::new,
        ),
        measure(
            "PseudoLRU",
            &stream,
            &sharded,
            geom,
            warmup,
            &policies::plru(),
            PlruPolicy::new,
        ),
        measure(
            "WI-GIPPR",
            &stream,
            &sharded,
            geom,
            warmup,
            &policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
            |g| {
                GipprPolicy::with_name(g, gippr::vectors::wi_gippr(), "WI-GIPPR")
                    .expect("assoc matches")
            },
        ),
        measure(
            "WI-4-DGIPPR",
            &stream,
            &sharded,
            geom,
            warmup,
            &policies::dgippr(quad.clone(), "WI-4-DGIPPR"),
            |g| {
                DgipprPolicy::with_config(g, quad.clone(), leaders, "WI-4-DGIPPR")
                    .expect("valid config")
            },
        ),
        measure(
            "DRRIP",
            &stream,
            &sharded,
            geom,
            warmup,
            &policies::drrip(),
            |g| DrripPolicy::with_config(g, leaders, 10).expect("geometry fits DRRIP"),
        ),
    ];

    // The aggregate batch: the whole roster through one `replay_many` per
    // round — the shape the figure harness actually runs.
    let named = roster();
    let refs: Vec<&PolicyFactory> = named.iter().map(|(_, f)| f).collect();
    let perf = WindowPerfModel::default();
    let mut batched_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let out = replay_many(&stream, geom, &refs, warmup, &perf);
        batched_best = batched_best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    let batched_rate = (stream.len() * refs.len()) as f64 / batched_best.max(1e-12);

    let mono_geomean = geomean(rows.iter().map(Row::speedup));
    let sharded_geomean = geomean(rows.iter().map(Row::sharded_speedup));
    let slice_geomean = geomean(rows.iter().filter_map(Row::slice_speedup));
    // The aggregate row: geomean accesses/sec per engine column, the
    // one-line per-engine summary a reader (or a regression diff) wants
    // before the per-policy detail. `slice` covers the kernel-carrying
    // subset of the roster only.
    let geomean_seed_rate = geomean(rows.iter().map(|r| r.seed_rate));
    let geomean_dyn_rate = geomean(rows.iter().map(|r| r.dyn_rate));
    let geomean_mono_rate = geomean(rows.iter().map(|r| r.mono_rate));
    let geomean_sharded_rate = geomean(rows.iter().map(|r| r.sharded_rate));
    let geomean_slice_rate = if rows.iter().any(|r| r.slice_rate.is_some()) {
        Some(geomean(rows.iter().filter_map(|r| r.slice_rate)))
    } else {
        None
    };
    for r in &rows {
        let slice_col = match (r.slice_rate, r.slice_speedup()) {
            (Some(rate), Some(x)) => format!("slice {rate:>11.0} acc/s ({x:.2}x)"),
            _ => format!("slice {:>11} (no kernel)", "-"),
        };
        println!(
            "  {:<12} seed {:>11.0} acc/s   dyn {:>11.0} acc/s   mono {:>11.0} acc/s   \
             sharded {:>11.0} acc/s   {slice_col}   mono/seed {:.2}x   sharded/mono {:.2}x",
            r.name,
            r.seed_rate,
            r.dyn_rate,
            r.mono_rate,
            r.sharded_rate,
            r.speedup(),
            r.sharded_speedup()
        );
    }
    println!(
        "  geomean rates: seed {geomean_seed_rate:.0}  dyn {geomean_dyn_rate:.0}  \
         mono {geomean_mono_rate:.0}  sharded {geomean_sharded_rate:.0}  slice {} acc/s",
        geomean_slice_rate.map_or("n/a".to_string(), |r| format!("{r:.0}"))
    );
    println!("  geomean speedup (mono over seed engine): {mono_geomean:.2}x");
    println!("  geomean speedup (sharded over mono engine): {sharded_geomean:.2}x");
    println!("  geomean speedup (sliced over mono engine, qualifying roster): {slice_geomean:.2}x");
    println!("  aggregate batched roster rate: {:.0} acc/s", batched_rate);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"benchmark\": \"{bench}\",\n"));
    json.push_str(&format!("  \"stream_accesses\": {},\n", stream.len()));
    json.push_str(&format!("  \"shards\": {},\n", sharded.shards()));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"target_arch\": \"{}\", \"target_features\": [{}]}},\n",
        std::env::consts::ARCH,
        target_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"baseline\": \"seed (v0) dyn-dispatch replay engine\",\n");
    json.push_str("  \"policies\": [\n");
    let opt_num = |v: Option<f64>, digits: usize| match v {
        Some(x) => format!("{x:.digits$}"),
        None => "null".to_string(),
    };
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seed_accesses_per_sec\": {:.0}, \
             \"dyn_accesses_per_sec\": {:.0}, \"mono_accesses_per_sec\": {:.0}, \
             \"sharded_accesses_per_sec\": {:.0}, \"slice_accesses_per_sec\": {}, \
             \"lanes\": {}, \"lanes_reason\": {}, \"speedup\": {:.4}, \
             \"sharded_speedup\": {:.4}, \"slice_speedup\": {}}}{}\n",
            r.name,
            r.seed_rate,
            r.dyn_rate,
            r.mono_rate,
            r.sharded_rate,
            opt_num(r.slice_rate, 0),
            r.lanes.map_or("null".to_string(), |l| l.to_string()),
            r.lanes_reason
                .map_or("null".to_string(), |s| format!("\"{s}\"")),
            r.speedup(),
            r.sharded_speedup(),
            opt_num(r.slice_speedup(), 4),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"geomean_rates\": {{\"seed_accesses_per_sec\": {geomean_seed_rate:.0}, \
         \"dyn_accesses_per_sec\": {geomean_dyn_rate:.0}, \
         \"mono_accesses_per_sec\": {geomean_mono_rate:.0}, \
         \"sharded_accesses_per_sec\": {geomean_sharded_rate:.0}, \
         \"slice_accesses_per_sec\": {}}},\n",
        opt_num(geomean_slice_rate, 0)
    ));
    json.push_str(&format!(
        "  \"batched_accesses_per_sec\": {batched_rate:.0},\n"
    ));
    json.push_str(&format!("  \"geomean_speedup\": {mono_geomean:.4},\n"));
    json.push_str(&format!(
        "  \"geomean_sharded_speedup\": {sharded_geomean:.4},\n"
    ));
    json.push_str(&format!(
        "  \"geomean_slice_speedup\": {slice_geomean:.4}\n"
    ));
    json.push_str("}\n");
    sim_core::persist::atomic_write(std::path::Path::new(&json_path), json.as_bytes())
        .expect("write json output");
    println!("wrote {json_path}");
}
