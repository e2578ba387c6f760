//! The sliced kernel's miss-count mode against the full protocol, for
//! every kernel family (PLRU-IPV, stack-IPV, RRIP-IPV, 2- and 4-side
//! duels without a bimodal rule, DIP's and DRRIP's duels with one) at
//! 2, 4, 8 and 16 ways, with random vectors and random chunkings:
//!
//! - [`Replayer::misses`] equals [`replay_llc_mono`]'s miss count, and a
//!   count-mode feed in any chunking counts the same misses;
//! - a full-mode `feed` continuing after a count-mode prefix gives the
//!   hits, misses and evictions of an all-full replay, and exactly the
//!   statistics of an all-full replay whose prefix held only loads (the
//!   count mode keeps no dirty bits). So the two modes share every
//!   replacement transition.

use baselines::{DipPolicy, DrripPolicy, RripIpvPolicy};
use gippr::{DgipprPolicy, GiplrPolicy, GipprPolicy, Ipv};
use mem_model::{replay_llc_mono, Replayer, WindowPerfModel};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sim_core::policy::factory;
use sim_core::{Access, CacheGeometry, PolicyFactory, SlicedCache};

const ACCESSES: usize = 6_000;
const SETS: usize = 128;

/// One policy of every kernel family at `geom`, with vectors from `rng`
/// and 4-bit PSEL counters so the duels change winner within a stream.
fn family_roster(geom: &CacheGeometry, rng: &mut StdRng) -> Vec<(&'static str, PolicyFactory)> {
    let ways = geom.ways();
    let mut ipv = || Ipv::random(ways, rng);
    let (a, b) = (ipv(), ipv());
    let two = vec![ipv(), ipv()];
    let four = vec![ipv(), ipv(), ipv(), ipv()];
    let rrip: [u8; 5] = std::array::from_fn(|_| rng.gen_range(0..4));
    let duel = |v: Vec<Ipv>| {
        factory(move |g| Box::new(DgipprPolicy::with_full_config(g, v.clone(), 4, 4, "d").unwrap()))
    };
    vec![
        (
            "plru-ipv",
            factory(move |g| Box::new(GipprPolicy::new(g, a.clone()).unwrap())),
        ),
        (
            "stack-ipv",
            factory(move |g| Box::new(GiplrPolicy::new(g, b.clone()).unwrap())),
        ),
        (
            "rrip-ipv",
            factory(move |g| Box::new(RripIpvPolicy::new(g, rrip).unwrap())),
        ),
        ("2-side duel", duel(two)),
        ("4-side duel", duel(four)),
        (
            "dip (bimodal)",
            factory(|g| Box::new(DipPolicy::with_config(g, 4, 4).unwrap())),
        ),
        (
            "drrip (bimodal)",
            factory(|g| Box::new(DrripPolicy::with_config(g, 4, 4).unwrap())),
        ),
    ]
}

/// A stream over three times the cache's blocks, a quarter of it on a hot
/// eighth, a quarter of the accesses stores.
fn stream(seed: u64, geom: &CacheGeometry) -> Vec<Access> {
    let mut x = seed | 1;
    let blocks = 3 * (geom.sets() * geom.ways()) as u64;
    (0..ACCESSES)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = x % if i % 4 == 0 { blocks / 8 } else { blocks };
            let a = if x >> 62 == 0 {
                Access::write(block * 64, x % 64)
            } else {
                Access::read(block * 64, x % 64)
            };
            a.with_icount_delta((x % 7) as u32 + 1)
        })
        .collect()
}

/// Chunk boundaries over `0..=len`: the random cuts plus both ends.
fn boundaries(cuts: &[u64], len: usize) -> Vec<usize> {
    let mut b: Vec<usize> = cuts
        .iter()
        .map(|&c| (c % (len as u64 + 1)) as usize)
        .collect();
    b.extend([0, len]);
    b.sort_unstable();
    b
}

/// `stream` with every access before `cut` turned into a load.
fn loads_before(stream: &[Access], cut: usize) -> Vec<Access> {
    stream
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if i < cut && a.is_write() {
                Access::read(a.addr, a.pc).with_icount_delta(a.icount_delta)
            } else {
                *a
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn count_mode_equals_full_replay_misses(
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..16),
        warm in 0usize..ACCESSES,
    ) {
        let perf = WindowPerfModel::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for ways in [2usize, 4, 8, 16] {
            let geom = CacheGeometry::from_sets(SETS, ways, 64).unwrap();
            let stream = stream(seed, &geom);
            let bounds = boundaries(&cuts, stream.len());
            for (name, make) in family_roster(&geom, &mut rng) {
                let what = format!("{name} at {ways} ways");
                let kernel = make(&geom).slice_kernel().expect("every family has a kernel");
                let want = replay_llc_mono(&stream, geom, make(&geom), warm, &perf);
                let replayer = Replayer::whole(geom, make(&geom), &perf);
                prop_assert!(replayer.is_sliced(), "{} runs sliced", what);
                let got = replayer.misses(&stream, warm);
                prop_assert_eq!(got, want.stats.misses, "Replayer::misses, {}", what);

                // Count mode in random chunks, measuring from `warm`.
                let mut counted = SlicedCache::new(&geom, &kernel).unwrap();
                let mut misses = 0;
                for w in bounds.windows(2) {
                    let (lo, hi) = (w[0].max(warm), w[1].max(warm));
                    counted.count_misses(&stream[w[0].min(warm)..w[1].min(warm)]);
                    misses += counted.count_misses(&stream[lo..hi]);
                }
                prop_assert_eq!(misses, want.stats.misses, "chunked count mode, {}", what);

                // Count mode up to `warm`, then the full protocol.
                let mut mixed = SlicedCache::new(&geom, &kernel).unwrap();
                for w in bounds.windows(2) {
                    if w[0] < warm {
                        mixed.count_misses(&stream[w[0]..w[1].min(warm)]);
                    }
                    if w[0] <= warm && warm <= w[1] {
                        mixed.reset_stats();
                    }
                    if w[1] > warm {
                        mixed.feed(&stream[w[0].max(warm)..w[1]], |_, _| {});
                    }
                }
                let s = *mixed.stats();
                let full = want.stats;
                prop_assert_eq!(
                    (s.accesses, s.hits, s.misses, s.evictions),
                    (full.accesses, full.hits, full.misses, full.evictions),
                    "full mode after a count-mode prefix, {}", what
                );
                let loads = loads_before(&stream, warm);
                let want_loads = replay_llc_mono(&loads, geom, make(&geom), warm, &perf);
                prop_assert_eq!(s, want_loads.stats, "prefix as loads, {}", what);
            }
        }
    }
}
