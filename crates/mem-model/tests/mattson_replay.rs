//! Differential tests for the single-pass Mattson profiler: one
//! stack-distance capture must reproduce per-configuration `replay_llc`
//! results for true LRU at every associativity at once, and its
//! histogram must be invariant to the order in which set-disjoint shards
//! are replayed (the property the sharded batch engine relies on).

use baselines::TrueLru;
use mem_model::{replay_llc, WindowPerfModel};
use proptest::prelude::*;
use sim_core::{Access, CacheGeometry, StackDistanceProfile};

/// Deterministic xorshift, the same generator family the other
/// integration tests use for synthetic streams.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Three access patterns that stress different stack-distance shapes:
/// a cache-thrashing sequential scan (all far distances), a hot working
/// set with occasional excursions (short distances), and a mixed
/// loop-plus-random pattern (the full histogram).
fn synthetic_workloads(accesses: usize) -> Vec<(&'static str, Vec<Access>)> {
    let line = 64u64;
    let mut out = Vec::new();

    let scan: Vec<Access> = (0..accesses)
        .map(|i| Access::read((i as u64 % 100_000) * line, 0x400 + (i as u64 % 64) * 4))
        .collect();
    out.push(("scan", scan));

    let mut state = 0x1234_5678_9abc_def0u64;
    let hot: Vec<Access> = (0..accesses)
        .map(|_| {
            let r = xorshift(&mut state);
            let block = if r % 8 == 0 { r % 65_536 } else { r % 512 };
            let a = Access::read(block * line, 0x400 + (r % 32) * 4);
            a.with_icount_delta((r % 7) as u32 + 1)
        })
        .collect();
    out.push(("hot-cold", hot));

    let mut state = 0xdead_beef_cafe_f00du64;
    let mixed: Vec<Access> = (0..accesses)
        .map(|i| {
            let r = xorshift(&mut state);
            let block = if i % 3 == 0 {
                (i as u64 / 3) % 4_096
            } else {
                r % 16_384
            };
            if r % 5 == 0 {
                Access::write(block * line, 0x800 + (r % 16) * 4)
            } else {
                Access::read(block * line, 0x800 + (r % 16) * 4)
            }
        })
        .collect();
    out.push(("loop-random", mixed));

    out
}

/// ISSUE satellite: one profile captured at the widest geometry must be
/// bit-identical to a dedicated true-LRU replay at ways 2, 4, 8, and 16
/// — hits, misses, instructions, and MPKI — on all three workloads.
#[test]
fn profile_matches_replay_at_every_associativity() {
    let sets = 256usize;
    let max_ways = 16usize;
    let perf = WindowPerfModel::default();
    for (name, stream) in synthetic_workloads(60_000) {
        let warmup = mem_model::default_warmup(stream.len());
        let wide = CacheGeometry::from_sets(sets, max_ways, 64).unwrap();
        let profile = StackDistanceProfile::capture(&stream, &wide, warmup, max_ways);
        for ways in [2usize, 4, 8, 16] {
            let geom = CacheGeometry::from_sets(sets, ways, 64).unwrap();
            let replay = replay_llc(&stream, geom, Box::new(TrueLru::new(&geom)), warmup, &perf);
            assert_eq!(
                profile.hits(ways),
                replay.stats.hits,
                "{name} @ {ways} ways"
            );
            assert_eq!(
                profile.misses(ways),
                replay.stats.misses,
                "{name} @ {ways} ways"
            );
            assert_eq!(profile.instructions(), replay.instructions, "{name}");
            assert_eq!(profile.mpki(ways), replay.mpki(), "{name} @ {ways} ways");
        }
    }
}

/// The single-pass profile stands in for a replay only when
/// `policy_qualifies` admits the policy, and that gate is load-bearing:
/// among the shipped policies only true LRU passes, and the nearest
/// near-miss — tree PseudoLRU, "almost equivalent" to LRU in miss ratio
/// — produces miss counts the profile does *not* predict. Admitting it
/// would silently corrupt every fast-path denominator.
#[test]
fn qualification_gate_admits_only_true_lru_and_is_load_bearing() {
    let sets = 256usize;
    let geom = CacheGeometry::from_sets(sets, 8, 64).unwrap();
    use sim_core::mattson::policy_qualifies;
    use sim_core::ReplacementPolicy;
    let candidates: Vec<Box<dyn ReplacementPolicy>> = vec![
        Box::new(TrueLru::new(&geom)),
        Box::new(gippr::PlruPolicy::new(&geom)),
        Box::new(baselines::SrripPolicy::new(&geom)),
        Box::new(baselines::FifoPolicy::new(&geom)),
        Box::new(
            baselines::RripIpvPolicy::new(&geom, baselines::RripIpvPolicy::srrip_vector()).unwrap(),
        ),
    ];
    for p in &candidates {
        assert_eq!(
            policy_qualifies(p.as_ref()),
            p.name() == "LRU",
            "{} mis-gated for the Mattson fast path",
            p.name()
        );
    }
    // Dynamic counterexample for the closest non-qualifier: on at least
    // one associativity the profile's LRU miss count differs from a
    // PseudoLRU replay, so the gate is not merely conservative.
    let perf = WindowPerfModel::default();
    let (_, stream) = synthetic_workloads(60_000).remove(1); // hot-cold
    let warmup = mem_model::default_warmup(stream.len());
    let wide = CacheGeometry::from_sets(sets, 16, 64).unwrap();
    let profile = StackDistanceProfile::capture(&stream, &wide, warmup, 16);
    let diverged = [4usize, 8, 16].iter().any(|&ways| {
        let g = CacheGeometry::from_sets(sets, ways, 64).unwrap();
        let replay = replay_llc(
            &stream,
            g,
            Box::new(gippr::PlruPolicy::new(&g)),
            warmup,
            &perf,
        );
        replay.stats.misses != profile.misses(ways)
    });
    assert!(
        diverged,
        "PseudoLRU reproduced the LRU profile everywhere; the gate test lost its teeth"
    );
}

/// Routes `stream` the way the sharded engine does: stable partition by
/// set range (shard = set's top bits), preserving per-set order.
fn partition_by_set(stream: &[Access], geom: &CacheGeometry, shards: usize) -> Vec<Vec<Access>> {
    let sets_per_shard = geom.sets() / shards;
    let mut parts = vec![Vec::new(); shards];
    for a in stream {
        let set = geom.set_of_block(a.addr / geom.line_bytes());
        parts[(set / sets_per_shard).min(shards - 1)].push(*a);
    }
    parts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Permutation stability under shard routing: capturing each
    /// set-disjoint shard independently and summing the profiles' counts
    /// — in ANY shard order — equals the whole-stream capture,
    /// and so does replaying an arbitrary interleaving that preserves
    /// per-set order. This is exactly the reordering the sharded batch
    /// engine introduces, so the profiler's histogram must not see it.
    #[test]
    fn histogram_is_stable_under_shard_routing(
        accesses in proptest::collection::vec((0u64..4096, 0u64..64, proptest::bool::ANY), 200..600),
        shards_pow in 1u32..3,
        interleave in proptest::collection::vec(0usize..4, 64),
    ) {
        let geom = CacheGeometry::from_sets(64, 8, 64).unwrap();
        let stream: Vec<Access> = accesses
            .iter()
            .map(|&(blk, pcidx, is_write)| {
                let addr = blk * geom.line_bytes();
                let pc = 0x400 + pcidx * 4;
                if is_write { Access::write(addr, pc) } else { Access::read(addr, pc) }
            })
            .collect();
        // Warmup positions are stream-global, which shard routing does
        // not preserve; the stability property is about the histogram,
        // so capture everything measured.
        let whole = StackDistanceProfile::capture(&stream, &geom, 0, geom.ways());

        let shards = 1usize << shards_pow;
        let parts = partition_by_set(&stream, &geom, shards);

        // Sum the per-shard profiles' counts in a rotated (non-identity
        // for rotation > 0) shard order.
        let rotation = interleave[0] % shards;
        let mut hist = vec![0u64; whole.histogram().len()];
        let (mut beyond, mut instructions) = (0u64, 0u64);
        for i in 0..shards {
            let p = StackDistanceProfile::capture(
                &parts[(i + rotation) % shards], &geom, 0, geom.ways(),
            );
            for (h, o) in hist.iter_mut().zip(p.histogram()) {
                *h += o;
            }
            beyond += p.beyond();
            instructions += p.instructions();
        }
        prop_assert_eq!(&hist[..], whole.histogram());
        prop_assert_eq!(beyond, whole.beyond());
        prop_assert_eq!(instructions, whole.instructions());

        // One flat stream formed by interleaving the shards in a
        // generated order (per-set order preserved by construction).
        let mut cursors = vec![0usize; shards];
        let mut woven = Vec::with_capacity(stream.len());
        let mut pick = 0usize;
        while woven.len() < stream.len() {
            let preferred = interleave[woven.len() % interleave.len()] % shards;
            let shard = if cursors[preferred] < parts[preferred].len() {
                preferred
            } else {
                // Next shard with accesses left, round-robin from `pick`.
                while cursors[pick % shards] >= parts[pick % shards].len() {
                    pick += 1;
                }
                pick % shards
            };
            woven.push(parts[shard][cursors[shard]]);
            cursors[shard] += 1;
        }
        let rewoven = StackDistanceProfile::capture(&woven, &geom, 0, geom.ways());
        prop_assert_eq!(rewoven.histogram(), whole.histogram());
        prop_assert_eq!(rewoven.beyond(), whole.beyond());
    }
}
