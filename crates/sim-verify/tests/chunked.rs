//! Chunked feeding equals whole-stream replay: a planned
//! [`mem_model::Replayer`] fed any chunking of a stream — empty chunks,
//! one-access chunks, a boundary exactly at the warm-up index — must give
//! [`mem_model::replay_llc`]'s result to the bit (statistics,
//! instructions, cycles), for every policy in the differential roster
//! plus WI-GIPPR and WI-4-DGIPPR. A serving [`Session`] fed the same
//! accesses in random frame splits must report the stats of the
//! single-process [`reference_delta`].

use gippr::{DgipprPolicy, GipprPolicy};
use mem_model::{replay_llc, Replayer, WindowPerfModel};
use proptest::prelude::*;
use sim_core::policy::factory;
use sim_core::{Access, PolicyFactory};
use sim_serve::protocol::GeometrySpec;
use sim_serve::session::{canonical_stats, reference_delta, Roster, Session};
use sim_verify::diff::{oracle_geometry, roster};
use sim_verify::workloads::workloads;

const ACCESSES: usize = 6_000;

/// The differential roster's optimized policies plus the paper's
/// WI-GIPPR and WI-4-DGIPPR as the figure harness builds them.
fn full_roster() -> Roster {
    let mut all: Roster = roster("all")
        .into_iter()
        .map(|p| (p.name.to_string(), p.optimized))
        .collect();
    all.push((
        "WI-GIPPR".to_string(),
        factory(|g| {
            Box::new(GipprPolicy::with_name(g, gippr::vectors::wi_gippr(), "WI-GIPPR").unwrap())
        }),
    ));
    all.push((
        "WI-4-DGIPPR".to_string(),
        factory(|g| {
            let quad = gippr::vectors::wi_4dgippr().to_vec();
            let leaders = (g.sets() / 64).clamp(4, 32);
            Box::new(DgipprPolicy::with_config(g, quad, leaders, "WI-4-DGIPPR").unwrap())
        }),
    ));
    all
}

/// Chunk boundaries over `0..=len`: the random `cuts`, the warm-up index,
/// one repeated cut (an empty chunk) and one cut a step later (a
/// one-access chunk).
fn boundaries(cuts: &[u64], len: usize, warmup: usize) -> Vec<usize> {
    let mut b: Vec<usize> = cuts
        .iter()
        .map(|&c| (c % (len as u64 + 1)) as usize)
        .collect();
    b.extend([0, len, warmup]);
    let first = b[0];
    b.extend([first, (first + 1).min(len)]);
    b.sort_unstable();
    b
}

fn chunked(
    f: &PolicyFactory,
    stream: &[Access],
    warmup: usize,
    bounds: &[usize],
) -> mem_model::LlcRunResult {
    let geom = oracle_geometry();
    let mut r = Replayer::whole(geom, f(&geom), &WindowPerfModel::default());
    for w in bounds.windows(2) {
        if w[0] == warmup {
            r.reset_stats();
        }
        r.feed(&stream[w[0]..w[1]]);
    }
    r.finish()
}

#[test]
fn duel_policies_feed_the_sliced_engine() {
    // `replay_llc` is always mono, so for these the chunked-feed property
    // below is a sliced-versus-mono differential as well.
    let geom = oracle_geometry();
    let duels = ["dip", "drrip", "dgippr2", "dgippr4", "WI-4-DGIPPR"];
    let roster = full_roster();
    for name in duels {
        let (_, f) = roster
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is in the roster"));
        let r = Replayer::whole(geom, f(&geom), &WindowPerfModel::default());
        assert!(
            r.is_sliced(),
            "{name}: the planned Replayer runs the duel kernel"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chunked_feed_equals_whole_stream_replay(
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..24),
        warm_third in 0usize..3,
    ) {
        let geom = oracle_geometry();
        let perf = WindowPerfModel::default();
        let policies = full_roster();
        for (wname, stream) in workloads(seed, ACCESSES) {
            // Warm-up at 0, a third, or two thirds of the stream.
            let warmup = stream.len() * warm_third / 3;
            let bounds = boundaries(&cuts, stream.len(), warmup);
            for (name, f) in &policies {
                let want = replay_llc(&stream, geom, f(&geom), warmup, &perf);
                let got = chunked(f, &stream, warmup, &bounds);
                prop_assert_eq!(got, want, "{} on {}", name, wname);
            }
        }
    }

    #[test]
    fn session_frames_equal_reference_delta(
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let geom = oracle_geometry();
        let spec = GeometrySpec {
            size_bytes: geom.size_bytes(),
            ways: geom.ways() as u32,
            line_bytes: geom.line_bytes() as u32,
        };
        let registry = full_roster();
        let stream: Vec<Access> = workloads(seed, ACCESSES)
            .into_iter()
            .flat_map(|(_, s)| s)
            .collect();
        let mut session = Session::new("t", spec, false, 1_000, &[], &registry).unwrap();
        for w in boundaries(&cuts, stream.len(), 0).windows(2) {
            session.ingest(&stream[w[0]..w[1]]);
        }
        let reference = reference_delta(&stream, &[], &registry, spec).unwrap();
        prop_assert_eq!(
            canonical_stats(&session.current_delta()),
            canonical_stats(&reference)
        );
    }
}
