//! Engine agreement and planner facts at the facade.
//!
//! Every harness roster policy must give the same result through the
//! batch entry, a chunk-fed planned `Replayer` and sequential
//! `replay_llc`; and the planner must send each roster member to its
//! expected engine on the paper's and medium scale's LLCs — set-dueling
//! members to the sliced duel kernel — so a silent fallback to mono
//! fails here.

use pseudolru_ipv::gippr::{DgipprPolicy, GipprPolicy, Ipv};
use pseudolru_ipv::harness::{policies, Scale};
use pseudolru_ipv::model::{plan, replay_llc, replay_many, Engine, Replayer, WindowPerfModel};
use pseudolru_ipv::sim::{Access, CacheGeometry, PolicyFactory, SliceKernel};

/// The figure harness roster: the twelve baselines plus WI-GIPPR and
/// WI-4-DGIPPR.
fn harness_roster() -> Vec<(&'static str, PolicyFactory)> {
    let mut roster = policies::baseline_roster(1);
    roster.push((
        "WI-GIPPR",
        policies::gippr(pseudolru_ipv::gippr::vectors::wi_gippr(), "WI-GIPPR"),
    ));
    roster.push((
        "WI-4-DGIPPR",
        policies::dgippr(
            pseudolru_ipv::gippr::vectors::wi_4dgippr().to_vec(),
            "WI-4-DGIPPR",
        ),
    ));
    roster
}

fn stream(n: usize, blocks: u64) -> Vec<Access> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = if i % 4 == 0 {
                x % (blocks / 8)
            } else {
                x % blocks
            };
            let a = if x & 3 == 0 {
                Access::write(block * 64, x % 512)
            } else {
                Access::read(block * 64, x % 512)
            };
            a.with_icount_delta((x % 9) as u32 + 1)
        })
        .collect()
}

#[test]
fn every_engine_agrees_for_the_harness_roster() {
    let geom = CacheGeometry::from_sets(256, 16, 64).unwrap();
    let accesses = stream(20_000, 256 * 16 * 3);
    let warmup = accesses.len() / 3;
    let perf = WindowPerfModel::default();
    let roster = harness_roster();
    let factories: Vec<&PolicyFactory> = roster.iter().map(|(_, f)| f).collect();
    let batched = replay_many(&accesses, geom, &factories, warmup, &perf);
    for ((name, f), got) in roster.iter().zip(&batched) {
        let want = replay_llc(&accesses, geom, f(&geom), warmup, &perf);
        assert_eq!(*got, want, "replay_many diverged for {name}");

        let mut r = Replayer::whole(geom, f(&geom), &perf);
        for chunk in accesses[..warmup].chunks(777) {
            r.feed(chunk);
        }
        r.reset_stats();
        for chunk in accesses[warmup..].chunks(1_234) {
            r.feed(chunk);
        }
        assert_eq!(r.finish(), want, "chunk-fed Replayer diverged for {name}");
    }
}

#[test]
fn planner_sends_each_roster_member_to_its_engine() {
    let paper = CacheGeometry::new(4 * 1024 * 1024, 16, 64).unwrap();
    let medium = Scale::Medium.hierarchy().llc;
    assert_eq!((medium.size_bytes(), medium.ways()), (512 * 1024, 16));
    for geom in [paper, medium] {
        for shards in [1usize, 2] {
            for (name, f) in harness_roster() {
                let p = plan(&*f(&geom), &geom, shards);
                let (engine_ok, reason) = match name {
                    "LRU" | "PseudoLRU" | "FIFO" | "SRRIP" | "WI-GIPPR" => (
                        matches!(p.engine, Engine::Sliced(_)),
                        "slice kernel supports the geometry",
                    ),
                    // Set dueling runs on the sliced engine's duel kernel.
                    "DIP" | "DRRIP" | "WI-4-DGIPPR" => (
                        matches!(p.engine, Engine::Sliced(SliceKernel::Duel { .. })),
                        "slice kernel supports the geometry",
                    ),
                    "AWRP" if shards == 1 => (
                        p.engine == Engine::Mono,
                        "set-local without a kernel, one shard",
                    ),
                    "AWRP" => (p.engine == Engine::Sharded, "set-local without a kernel"),
                    "Random" | "PDP" | "SHiP" | "EHC" | "ARC" => {
                        (p.engine == Engine::Mono, "global affinity")
                    }
                    other => panic!("no planner fact for roster member {other}"),
                };
                assert!(engine_ok, "{name} at {shards} shard(s): {p:?}");
                assert_eq!(p.reason, reason, "{name} at {shards} shard(s)");
            }

            // A bypass-enabled DGIPPR has a second duel and a
            // `should_bypass`, which no kernel expresses.
            let quad = pseudolru_ipv::gippr::vectors::wi_4dgippr().to_vec();
            let bypass = DgipprPolicy::with_config(&geom, quad, 32, "WI-4-DGIPPR")
                .and_then(|p| p.with_bypass(32))
                .unwrap();
            let p = plan(&bypass, &geom, shards);
            assert_eq!(p.engine, Engine::Mono, "bypass DGIPPR at {shards} shard(s)");
            assert_eq!(p.reason, "global affinity");
        }
    }

    // The kernels pack at most 16 ways: a 32-way GIPPR is declined by
    // name and falls to the next engine in the order.
    let wide = CacheGeometry::new(4 * 1024 * 1024, 32, 64).unwrap();
    let gippr32 = GipprPolicy::new(&wide, Ipv::lru(32)).unwrap();
    for (shards, want) in [(1, Engine::Mono), (2, Engine::Sharded)] {
        let p = plan(&gippr32, &wide, shards);
        assert_eq!(p.engine, want);
        assert!(p.reason.contains("plru-ipv kernel declined"), "{p:?}");
    }
    // A 32-way DGIPPR's duel kernel is declined the same way; the duel is
    // cache-global, so it falls to mono at any shard count.
    let pair = vec![Ipv::lru(32), Ipv::lru_insertion(32)];
    let dgippr32 = DgipprPolicy::with_config(&wide, pair, 32, "2-DGIPPR").unwrap();
    for shards in [1, 2] {
        let p = plan(&dgippr32, &wide, shards);
        assert_eq!(p.engine, Engine::Mono);
        assert_eq!(p.reason, "duel kernel declined the geometry", "{p:?}");
    }
}
