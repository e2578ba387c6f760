//! The one place a replay engine is chosen, and the streaming replayer
//! every caller drives.
//!
//! [`plan`] looks at a policy instance once and picks an engine in a
//! single fixed order (DESIGN.md §12.3):
//!
//! 1. **Sliced** — the policy describes itself as a [`SliceKernel`] and
//!    the kernel supports the geometry: packed words, no policy calls.
//!    Set-dueling policies (DGIPPR, DIP, DRRIP) land here too, through a
//!    [`SliceKernel::Duel`], whatever their shard affinity.
//! 2. **Sharded** — a [`ShardAffinity::SetLocal`] policy without a usable
//!    kernel, when the caller holds a stream pre-routed into more than
//!    one shard ([`crate::replay_llc_sharded`]).
//! 3. **Mono** — everything else: cache-global policies, and set-local
//!    ones with a single shard. The policy's
//!    [`into_mono_engine`](sim_core::IntoMonoEngine::into_mono_engine)
//!    builds a `SetAssocCache` monomorphized for its concrete type, even
//!    from a `Box<dyn ReplacementPolicy>`, so the engine pays one virtual
//!    call per [`MONO_CHUNK`] accesses and none per policy callback.
//!
//! Every engine is bit-identical to [`crate::replay_llc`]; the plan only
//! decides speed. Its `reason` says why, so a fallback is a testable
//! fact rather than a silent slowdown.
//!
//! [`dispatch_order`] is the one rule for the order a roster fan-out
//! hands its replays to the worker pool: mono plans first, the long
//! ones, then sliced, each group in roster order.
//!
//! [`Replayer`] is the streaming side, one non-generic type for every
//! engine: `feed` any chunking of a stream,
//! [`reset_stats`](Replayer::reset_stats) at the warm-up boundary, then
//! [`finish`](Replayer::finish). Batch replay ([`crate::replay_llc`],
//! [`crate::replay_many`]), GA fitness and the serving daemon's sessions
//! share it, so the mono loop is written once.
//!
//! It records in one of two modes. [`Replayer::replay`] and `feed` report
//! everything: the statistics, instructions and the window/MLP cycle
//! estimate. [`Replayer::misses`] reports only the miss count, which is
//! all GA fitness reads: the paper's linear CPI model is a function of
//! misses alone. On a sliced plan it runs the kernel's miss-count mode
//! ([`SlicedCache::count_misses`]), the same replacement transitions
//! without the dirty bits, counters and cycle sink.

use crate::cpi::{PerfAccumulator, WindowPerfModel};
use crate::llc::LlcRunResult;
use sim_core::{
    Access, CacheGeometry, CacheStats, MonoEngine, ReplacementPolicy, ShardAffinity, SliceKernel,
    SlicedCache, MONO_CHUNK,
};

/// The engine a [`Plan`] selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Engine {
    /// The bit-sliced kernel engine, running this kernel.
    Sliced(SliceKernel),
    /// Per-shard replay of a pre-routed stream, merged in global order.
    Sharded,
    /// The policy on a `SetAssocCache` monomorphized for its concrete type.
    Mono,
}

/// An engine choice and the reason for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The chosen engine.
    pub engine: Engine,
    /// Why this engine, e.g. "global affinity" or "plru-ipv kernel
    /// declined the geometry".
    pub reason: &'static str,
}

/// Chooses the engine for `policy` on `geom` when the stream is routed
/// into `shards` shards (1 for a whole-stream pass). Reads only the
/// policy's [`slice_kernel`](ReplacementPolicy::slice_kernel) and
/// [`shard_affinity`](ReplacementPolicy::shard_affinity), so the probe
/// instance can go on to be the replayed policy.
pub fn plan<P: ReplacementPolicy + ?Sized>(
    policy: &P,
    geom: &CacheGeometry,
    shards: usize,
) -> Plan {
    let kernel = policy.slice_kernel();
    if let Some(k) = kernel.as_ref().filter(|k| k.supports(geom)) {
        return Plan {
            engine: Engine::Sliced(k.clone()),
            reason: "slice kernel supports the geometry",
        };
    }
    let set_local = policy.shard_affinity() == ShardAffinity::SetLocal;
    let engine = if set_local && shards > 1 {
        Engine::Sharded
    } else {
        Engine::Mono
    };
    let reason = match (&kernel, set_local) {
        (Some(SliceKernel::PlruIpv { .. }), _) => "plru-ipv kernel declined the geometry",
        (Some(SliceKernel::StackIpv { .. }), _) => "stack-ipv kernel declined the geometry",
        (Some(SliceKernel::RripIpv { .. }), _) => "rrip-ipv kernel declined the geometry",
        (Some(SliceKernel::Duel { .. }), _) => "duel kernel declined the geometry",
        (None, false) => "global affinity",
        (None, true) if shards > 1 => "set-local without a kernel",
        (None, true) => "set-local without a kernel, one shard",
    };
    Plan { engine, reason }
}

/// The order a fan-out hands a roster's replays to the worker pool,
/// given which of them run sliced (`sliced[i]`): every mono replay, then
/// every sliced one, each group in roster order. A mono step costs
/// several kernel steps, so starting the long replays first keeps the
/// pool's last worker from picking one up while the others idle. The
/// order reads only the planned engines, never a policy or workload name.
pub fn dispatch_order(sliced: &[bool]) -> Vec<usize> {
    let group = |want: bool| (0..sliced.len()).filter(move |&i| sliced[i] == want);
    group(false).chain(group(true)).collect()
}

enum Core {
    Sliced(SlicedCache),
    /// The policy's concrete `SetAssocCache`, one virtual call per chunk.
    Mono(Box<dyn MonoEngine>),
}

/// A streaming LLC replay: cache state, statistics and the cycle model
/// persist across [`feed`](Replayer::feed) calls, so any chunking of a
/// stream gives the result of one whole-stream pass.
///
/// The mono engine is built through the policy's
/// [`into_mono_engine`](sim_core::IntoMonoEngine::into_mono_engine):
/// a factory-built `Box<dyn ReplacementPolicy>` becomes a cache
/// monomorphized for its concrete type, fed [`MONO_CHUNK`] accesses per
/// virtual call, so no policy callback is a virtual call.
pub struct Replayer {
    core: Core,
    acc: PerfAccumulator,
    perf: WindowPerfModel,
}

impl Replayer {
    /// The engine `plan` chose, on a cold cache of `geom`. `make` builds
    /// the policy for the mono engine and is not called for a sliced
    /// plan. A [`Engine::Sharded`] plan runs mono here: a streaming
    /// replayer has no routing to shard over, so callers holding a
    /// pre-routed stream dispatch that plan themselves.
    pub fn new<F: FnOnce() -> Box<dyn ReplacementPolicy>>(
        plan: &Plan,
        geom: CacheGeometry,
        make: F,
        perf: &WindowPerfModel,
    ) -> Self {
        match &plan.engine {
            Engine::Sliced(kernel) => {
                Self::sliced(geom, kernel, perf).expect("plan admits only supported kernels")
            }
            Engine::Sharded | Engine::Mono => Self::mono(geom, make(), perf),
        }
    }

    /// The engine [`plan`] picks for a whole-stream pass of `policy`
    /// (one shard), with `policy` itself as the mono engine's policy.
    pub fn whole(
        geom: CacheGeometry,
        policy: Box<dyn ReplacementPolicy>,
        perf: &WindowPerfModel,
    ) -> Self {
        let plan = plan(&*policy, &geom, 1);
        Self::new(&plan, geom, || policy, perf)
    }

    /// The mono engine on a cold cache, monomorphized for `policy`'s
    /// concrete type.
    pub(crate) fn mono(
        geom: CacheGeometry,
        policy: Box<dyn ReplacementPolicy>,
        perf: &WindowPerfModel,
    ) -> Self {
        Self::with_core(Core::Mono(policy.into_mono_engine(geom)), perf)
    }

    /// The bit-sliced engine on a cold cache, if `kernel` supports `geom`.
    fn sliced(geom: CacheGeometry, kernel: &SliceKernel, perf: &WindowPerfModel) -> Option<Self> {
        let cache = SlicedCache::new(&geom, kernel)?;
        Some(Self::with_core(Core::Sliced(cache), perf))
    }

    fn with_core(core: Core, perf: &WindowPerfModel) -> Self {
        Replayer {
            core,
            acc: PerfAccumulator::new(),
            perf: *perf,
        }
    }

    /// Runs `accesses` through the cache, in order.
    pub fn feed(&mut self, accesses: &[Access]) {
        let (acc, perf) = (&mut self.acc, &self.perf);
        match &mut self.core {
            Core::Mono(engine) => {
                // A local copy lets the accumulator stay in registers
                // across the opaque per-chunk call; updated in place
                // through `self`, it measured 10–20 % slower (PDP, SHiP).
                let (mut local, perf) = (*acc, *perf);
                for chunk in accesses.chunks(MONO_CHUNK) {
                    let hits = engine.feed_chunk(chunk);
                    for (i, a) in chunk.iter().enumerate() {
                        local.note_llc(a.icount_delta, hits >> i & 1 != 0, &perf);
                    }
                }
                *acc = local;
            }
            Core::Sliced(cache) => {
                cache.feed(accesses, |icount, hit| acc.note_llc(icount, hit, perf));
            }
        }
    }

    /// Starts measuring: zeroes the statistics and the cycle model while
    /// the cache and policy state stay warm.
    pub fn reset_stats(&mut self) {
        match &mut self.core {
            Core::Mono(engine) => engine.reset_stats(),
            Core::Sliced(cache) => cache.reset_stats(),
        }
        self.acc = PerfAccumulator::new();
    }

    /// Statistics since construction or the last
    /// [`reset_stats`](Replayer::reset_stats).
    pub fn stats(&self) -> CacheStats {
        match &self.core {
            Core::Mono(engine) => *engine.stats(),
            Core::Sliced(cache) => *cache.stats(),
        }
    }

    /// The measured result: statistics, instructions and cycles.
    pub fn finish(self) -> LlcRunResult {
        LlcRunResult {
            stats: self.stats(),
            instructions: self.acc.instructions(),
            cycles: self.acc.cycles(&self.perf),
        }
    }

    /// One whole-stream pass: the first `warmup` accesses warm the cache,
    /// the rest are measured.
    pub fn replay(mut self, stream: &[Access], warmup: usize) -> LlcRunResult {
        let (warm, measured) = stream.split_at(warmup.min(stream.len()));
        self.feed(warm);
        self.reset_stats();
        self.feed(measured);
        self.finish()
    }

    /// The misses of one whole-stream pass: the first `warmup` accesses
    /// warm the cache, the rest are counted. Equal to
    /// `self.replay(stream, warmup).stats.misses`. A sliced plan gets
    /// there in the kernel's miss-count mode, which keeps no dirty bits,
    /// other counters or cycle model; a mono plan runs that full replay.
    pub fn misses(mut self, stream: &[Access], warmup: usize) -> u64 {
        let (warm, measured) = stream.split_at(warmup.min(stream.len()));
        match &mut self.core {
            Core::Sliced(cache) => {
                cache.count_misses(warm);
                cache.count_misses(measured)
            }
            Core::Mono(_) => self.replay(stream, warmup).stats.misses,
        }
    }

    /// True when the packed kernel engine runs this replay.
    pub fn is_sliced(&self) -> bool {
        matches!(self.core, Core::Sliced(_))
    }
}

/// Replays `stream` through the bit-sliced kernel engine with the exact
/// semantics of [`crate::replay_llc_mono`]. Returns `None` when `kernel`
/// does not support `geom`.
pub fn replay_llc_sliced(
    stream: &[Access],
    geom: CacheGeometry,
    kernel: &SliceKernel,
    warmup: usize,
    perf: &WindowPerfModel,
) -> Option<LlcRunResult> {
    Some(Replayer::sliced(geom, kernel, perf)?.replay(stream, warmup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::replay_llc_mono;
    use baselines::{DipPolicy, DrripPolicy, RripIpvPolicy, SrripPolicy, TrueLru};
    use gippr::{DgipprPolicy, GiplrPolicy, GipprPolicy, PlruPolicy};

    fn mixed_stream(n: usize) -> Vec<Access> {
        let mut state = 0x2545f4914f6cdd1du64;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = if i % 4 == 0 {
                    (state % 256) * 64
                } else {
                    (state % 16384) * 64
                };
                let a = if state & 3 == 0 {
                    Access::write(addr, state % 512)
                } else {
                    Access::read(addr, state % 512)
                };
                a.with_icount_delta((state % 9) as u32 + 1)
            })
            .collect()
    }

    #[test]
    fn sliced_matches_mono_for_every_kernel_policy() {
        let g = CacheGeometry::from_sets(64, 16, 64).unwrap();
        let stream = mixed_stream(25_000);
        let warmup = 8_000;
        let perf = WindowPerfModel::default();

        let roster: Vec<Box<dyn ReplacementPolicy>> = vec![
            Box::new(TrueLru::new(&g)),
            Box::new(PlruPolicy::new(&g)),
            Box::new(GipprPolicy::new(&g, gippr::vectors::wi_gippr()).unwrap()),
            Box::new(GiplrPolicy::new(&g, gippr::Ipv::lru_insertion(16)).unwrap()),
            Box::new(SrripPolicy::new(&g)),
            Box::new(RripIpvPolicy::new(&g, [0, 1, 1, 2, 3]).unwrap()),
            Box::new(DipPolicy::with_config(&g, 4, 6).unwrap()),
            Box::new(DrripPolicy::with_config(&g, 4, 6).unwrap()),
            Box::new(
                DgipprPolicy::with_full_config(
                    &g,
                    gippr::vectors::wi_2dgippr().to_vec(),
                    4,
                    6,
                    "2-DGIPPR",
                )
                .unwrap(),
            ),
            Box::new(
                DgipprPolicy::with_full_config(
                    &g,
                    gippr::vectors::wi_4dgippr().to_vec(),
                    4,
                    6,
                    "4-DGIPPR",
                )
                .unwrap(),
            ),
        ];
        for policy in roster {
            let kernel = policy.slice_kernel().expect("roster policy has a kernel");
            let name = policy.name().to_string();
            let sliced = replay_llc_sliced(&stream, g, &kernel, warmup, &perf)
                .expect("kernel supports 16-way");
            let mono = replay_llc_mono(&stream, g, policy, warmup, &perf);
            assert_eq!(sliced, mono, "sliced diverged from mono for {name}");
        }
    }

    #[test]
    fn unsupported_ways_yields_none() {
        let g = CacheGeometry::from_sets(4, 32, 64).unwrap();
        let kernel = SliceKernel::PlruIpv { ipv: vec![0; 33] };
        let perf = WindowPerfModel::default();
        assert!(replay_llc_sliced(&[], g, &kernel, 0, &perf).is_none());
    }

    #[test]
    fn warmup_longer_than_stream_measures_nothing() {
        let g = CacheGeometry::from_sets(4, 4, 64).unwrap();
        let stream = mixed_stream(100);
        let kernel = SliceKernel::PlruIpv { ipv: vec![0; 5] };
        let perf = WindowPerfModel::default();
        let r = replay_llc_sliced(&stream, g, &kernel, 1_000, &perf).unwrap();
        assert_eq!(r.stats.accesses, 0);
        assert_eq!(r.instructions, 0);
    }
}
