//! Differential test for the sharded single-pass multi-policy engine:
//! [`mem_model::replay_many`] must reproduce the sequential
//! [`mem_model::replay_llc`] result — every stat and the cycle estimate,
//! to the bit — for every policy in the verification roster, on every
//! oracle workload, through the batch API exactly as the figure harness
//! uses it; every set-local policy also runs the shard-and-merge engine
//! directly.

use mem_model::cpi::WindowPerfModel;
use mem_model::{replay_llc, replay_llc_sharded, replay_many, replay_many_sharded};
use sim_core::{PolicyFactory, ShardAffinity, ShardedStream};
use sim_verify::diff::{oracle_geometry, roster};
use sim_verify::workloads::workloads;

#[test]
fn sharded_replay_matches_sequential_for_full_roster() {
    let geom = oracle_geometry();
    let perf = WindowPerfModel::default();
    let pairs = roster("all");
    assert!(
        pairs.len() >= 17,
        "expected the full roster, got {} pairs",
        pairs.len()
    );
    let factories: Vec<&PolicyFactory> = pairs.iter().map(|p| &p.optimized).collect();
    for (name, stream) in workloads(0xc0ffee, 40_000) {
        let warmup = mem_model::llc::default_warmup(stream.len());
        let sequential: Vec<_> = pairs
            .iter()
            .map(|p| replay_llc(&stream, geom, (p.optimized)(&geom), warmup, &perf))
            .collect();

        // The whole-stream entry never routes; pinned routings below
        // drive the shard-and-merge path on any host.
        let batched = replay_many(&stream, geom, &factories, warmup, &perf);
        assert_eq!(batched.len(), pairs.len());
        for ((pair, want), got) in pairs.iter().zip(&sequential).zip(&batched) {
            assert_eq!(
                got, want,
                "sharded replay diverged for policy {} on workload {name}",
                pair.name
            );
        }
        for shards in [4usize, 32] {
            let sharded = ShardedStream::build(&stream, &geom, warmup, shards);
            let batched = replay_many_sharded(&stream, &sharded, &factories, &perf);
            for ((pair, want), got) in pairs.iter().zip(&sequential).zip(&batched) {
                assert_eq!(
                    got, want,
                    "{shards}-shard replay diverged for policy {} on workload {name}",
                    pair.name
                );
            }
            // The planner sends kernel policies to the sliced engine, so
            // the shard-and-merge engine is also driven directly for
            // every set-local policy.
            for (pair, want) in pairs.iter().zip(&sequential) {
                if (pair.optimized)(&geom).shard_affinity() == ShardAffinity::SetLocal {
                    let got = replay_llc_sharded(&sharded, || (pair.optimized)(&geom), &perf);
                    assert_eq!(
                        &got, want,
                        "{shards}-shard engine diverged for policy {} on workload {name}",
                        pair.name
                    );
                }
            }
        }
    }
}
