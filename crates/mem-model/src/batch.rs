//! Multi-policy replay on the worker pool.
//!
//! [`replay_many`] is the batched counterpart of
//! [`replay_llc`](crate::replay_llc): every policy is planned for a
//! whole-stream pass ([`plan`] with one shard) and its [`Replayer`] runs
//! as one pool task, so the batch never pays for a routing pre-pass.
//! The pool takes the tasks in [`dispatch_order`] (mono plans first),
//! and results come back in factory order, bit identical to replaying
//! each policy sequentially.
//!
//! [`replay_many_sharded`] is the pre-routed entry: the caller routes a
//! stream once by set index ([`ShardedStream`]) and every policy the
//! planner sends to [`Engine::Sharded`] — set-local, no usable kernel —
//! fans out as (policy × shard) units; the rest replay whole. Two
//! properties make the shard merge exact rather than approximate:
//!
//! * **Statistics.** For a [`ShardAffinity::SetLocal`](sim_core::ShardAffinity)
//!   policy, sharded replay produces exactly the per-set state
//!   transitions of a sequential replay (stable bucketing preserves
//!   per-set order), so the per-shard counters sum — in fixed ascending
//!   shard order — to the sequential totals.
//! * **Cycles.** The window model clusters misses by *global* stream
//!   order, which sharding destroys. Each shard therefore records a hit
//!   bitmap over its measured entries, and the merge replays those bits
//!   in exact global order (one cursor per shard, driven by
//!   [`ShardedStream::shard_of`]) through the same
//!   [`PerfAccumulator`], reproducing the sequential cycle estimate to
//!   the last bit.
//!
//! See DESIGN.md §10 for the DGIPPR/PSEL semantics decision and §12.3
//! for the engine order.

use crate::cpi::{PerfAccumulator, WindowPerfModel};
use crate::engine::{dispatch_order, plan, Engine, Plan, Replayer};
use crate::llc::LlcRunResult;
use sim_core::pool;
use sim_core::shard::ShardRun;
use sim_core::{Access, CacheGeometry, PolicyFactory, ReplacementPolicy, ShardedStream};
use std::sync::Mutex;

/// Replays `stream` under every policy in `factories`, one planned
/// whole-stream [`Replayer`] per policy fanned across the worker pool,
/// returning results in factory order. Semantics (warm-up split,
/// statistics, instructions, cycles) are exactly those of calling
/// [`replay_llc`] once per factory.
///
/// Each factory's instance is planned once and that instance is the one
/// replayed. The pool takes the plans in [`dispatch_order`]: mono plans
/// first, the long replays, so the short sliced ones fill in behind them.
///
/// To shard set-local policies without a kernel, route the stream with
/// [`ShardedStream`] and call [`replay_many_sharded`].
///
/// [`replay_llc`]: crate::replay_llc
pub fn replay_many(
    stream: &[Access],
    geom: CacheGeometry,
    factories: &[&PolicyFactory],
    warmup: usize,
    perf: &WindowPerfModel,
) -> Vec<LlcRunResult> {
    let policies: Vec<Box<dyn ReplacementPolicy>> = factories.iter().map(|f| f(&geom)).collect();
    let plans: Vec<Plan> = policies.iter().map(|p| plan(&**p, &geom, 1)).collect();
    let sliced: Vec<bool> = plans
        .iter()
        .map(|p| matches!(p.engine, Engine::Sliced(_)))
        .collect();
    let order = dispatch_order(&sliced);
    let policies: Vec<Mutex<Option<Box<dyn ReplacementPolicy>>>> =
        policies.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let runs = pool::global().run(order.len(), usize::MAX, |k| {
        let i = order[k];
        let policy = policies[i].lock().unwrap().take();
        let make = || policy.expect("each policy replays once");
        Replayer::new(&plans[i], geom, make, perf).replay(stream, warmup)
    });
    let mut results: Vec<(usize, LlcRunResult)> = order.into_iter().zip(runs).collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, run)| run).collect()
}

/// [`replay_many`] over a pre-routed stream: each policy takes the
/// engine [`plan`] picks for `sharded.shards()` shards. `stream` must be
/// the exact stream `sharded` was built from (policies not planned
/// [`Engine::Sharded`] replay it whole).
pub fn replay_many_sharded(
    stream: &[Access],
    sharded: &ShardedStream,
    factories: &[&PolicyFactory],
    perf: &WindowPerfModel,
) -> Vec<LlcRunResult> {
    let geom = *sharded.geometry();
    let warmup = sharded.warmup();
    let shards = sharded.shards();
    let plans: Vec<Plan> = factories
        .iter()
        .map(|f| plan(&*f(&geom), &geom, shards))
        .collect();

    // Every (policy × shard) unit of the sharded plans runs as one pool
    // batch; a second batch merges those per policy and replays the rest
    // whole. `pool.run` returns results in unit order, so the runs land
    // in ascending shard order.
    let units: Vec<(usize, usize)> = (0..plans.len())
        .filter(|&i| plans[i].engine == Engine::Sharded)
        .flat_map(|i| (0..shards).map(move |s| (i, s)))
        .collect();
    let runs = pool::global().run(units.len(), usize::MAX, |u| {
        let (i, s) = units[u];
        sharded.replay_shard_on(s, &mut *factories[i](&geom).into_mono_engine(geom))
    });
    let mut shard_runs: Vec<Vec<ShardRun>> = factories.iter().map(|_| Vec::new()).collect();
    for (&(i, _), run) in units.iter().zip(runs) {
        shard_runs[i].push(run);
    }
    pool::global().run(factories.len(), usize::MAX, |i| match plans[i].engine {
        Engine::Sharded => merge_shard_runs(sharded, &shard_runs[i], perf),
        _ => Replayer::new(&plans[i], geom, || factories[i](&geom), perf).replay(stream, warmup),
    })
}

/// Sharded replay of a single monomorphized policy: replays every shard
/// (sequentially — callers parallelize across policies or workloads) on a
/// fresh instance from `make` and merges. Exactly equivalent to
/// [`crate::replay_llc_mono`] for
/// [`ShardAffinity::SetLocal`](sim_core::ShardAffinity) policies.
pub fn replay_llc_sharded<P, F>(
    sharded: &ShardedStream,
    make: F,
    perf: &WindowPerfModel,
) -> LlcRunResult
where
    P: ReplacementPolicy,
    F: Fn() -> P,
{
    let runs: Vec<ShardRun> = (0..sharded.shards())
        .map(|s| sharded.replay_shard(s, make()))
        .collect();
    merge_shard_runs(sharded, &runs, perf)
}

/// Merges one policy's per-shard runs: counters sum in ascending shard
/// order, and the cycle model replays the hit bitmaps in exact global
/// stream order via one cursor per shard.
fn merge_shard_runs(
    sharded: &ShardedStream,
    runs: &[ShardRun],
    perf: &WindowPerfModel,
) -> LlcRunResult {
    let stats = ShardedStream::merge_stats(runs);
    let mut acc = PerfAccumulator::new();
    let mut cursors = vec![0usize; runs.len()];
    let icount = sharded.icount();
    for (k, &s) in sharded.shard_of().iter().enumerate() {
        let s = s as usize;
        let hit = ShardedStream::hit_at(&runs[s], cursors[s]);
        cursors[s] += 1;
        acc.note_llc(icount[k], hit, perf);
    }
    LlcRunResult {
        stats,
        instructions: acc.instructions(),
        cycles: acc.cycles(perf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::{replay_llc, replay_llc_mono};
    use baselines::{ArcPolicy, AwrpPolicy, DrripPolicy, ShipPolicy, TrueLru};
    use gippr::{DgipprPolicy, GipprPolicy};
    use sim_core::policy::factory;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(64, 16, 64).unwrap()
    }

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
    fn replay_many_matches_sequential_exactly() {
        let g = geom();
        let stream = mixed_stream(30_000);
        let warmup = 10_000;
        let perf = WindowPerfModel::default();

        let lru = factory(|g| Box::new(TrueLru::new(g)));
        let gippr = factory(|g| Box::new(GipprPolicy::new(g, gippr::vectors::wi_gippr()).unwrap()));
        let drrip = factory(|g| Box::new(DrripPolicy::new(g).unwrap()));
        // AWRP is set-local with no kernel: the one member the planner
        // shards on a multi-shard routing.
        let awrp = factory(|g| Box::new(AwrpPolicy::new(g)));
        let ship = factory(|g| Box::new(ShipPolicy::new(g)));
        let dgippr = factory(|g| {
            let quad = gippr::vectors::wi_4dgippr().to_vec();
            Box::new(DgipprPolicy::with_config(g, quad, 4, "WI-4-DGIPPR").unwrap())
        });
        let arc = factory(|g| Box::new(ArcPolicy::new(g)));
        let mixed = [&lru, &gippr, &drrip, &awrp];
        let all_global = [&drrip, &ship, &dgippr];
        // Mono and sliced members alternate, so the pool's mono-first
        // order differs from factory order.
        let interleaved = [&ship, &lru, &awrp, &gippr, &arc, &drrip];
        let sliced: Vec<bool> = interleaved
            .iter()
            .map(|f| matches!(plan(&*f(&g), &g, 1).engine, Engine::Sliced(_)))
            .collect();
        assert_eq!(sliced, [false, true, false, true, false, true]);
        assert_eq!(dispatch_order(&sliced), [0, 2, 4, 1, 3, 5]);

        for roster in [&mixed[..], &all_global[..], &interleaved[..]] {
            // The whole-stream entry …
            let batched = replay_many(&stream, g, roster, warmup, &perf);
            for (f, b) in roster.iter().zip(&batched) {
                let seq = replay_llc(&stream, g, f(&g), warmup, &perf);
                assert_eq!(*b, seq, "batched result diverged for {}", f(&g).name());
            }
            // … and pinned routings, so the shard-and-merge path runs on
            // any host.
            for shards in [1usize, 2, 8, 64] {
                let sharded = ShardedStream::build(&stream, &g, warmup, shards);
                let batched = replay_many_sharded(&stream, &sharded, roster, &perf);
                for (f, b) in roster.iter().zip(&batched) {
                    let seq = replay_llc(&stream, g, f(&g), warmup, &perf);
                    assert_eq!(*b, seq, "shards={shards} diverged for {}", f(&g).name());
                }
            }
        }
    }

    #[test]
    fn sharded_mono_matches_replay_llc_mono() {
        let g = geom();
        let stream = mixed_stream(20_000);
        let warmup = 5_000;
        let perf = WindowPerfModel::default();
        for shards in [1usize, 4, 64] {
            let sharded = ShardedStream::build(&stream, &g, warmup, shards);
            let got = replay_llc_sharded(&sharded, || TrueLru::new(&g), &perf);
            let want = replay_llc_mono(&stream, g, TrueLru::new(&g), warmup, &perf);
            assert_eq!(got, want, "shards={shards}");
        }
    }

    #[test]
    fn replay_many_is_deterministic_run_to_run() {
        let g = geom();
        let stream = mixed_stream(10_000);
        let perf = WindowPerfModel::default();
        let lru = factory(|g| Box::new(TrueLru::new(g)));
        let drrip = factory(|g| Box::new(DrripPolicy::new(g).unwrap()));
        let roster = [&lru, &drrip];
        let a = replay_many(&stream, g, &roster, 2_000, &perf);
        let b = replay_many(&stream, g, &roster, 2_000, &perf);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_roster_and_empty_stream() {
        let g = geom();
        let perf = WindowPerfModel::default();
        assert!(replay_many(&[], g, &[], 0, &perf).is_empty());
        let lru = factory(|g| Box::new(TrueLru::new(g)));
        let r = replay_many(&[], g, &[&lru], 0, &perf);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].stats.accesses, 0);
    }
}
