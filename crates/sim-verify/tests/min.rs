//! Differential test for Belady MIN: the set-bucketed, pool-parallel
//! [`mem_model::min_misses`] must return the same [`sim_core::CacheStats`],
//! every field, as the naive two-pass [`ref_min_misses`].
//!
//! Streams are stitched from hot loops, scans and one-shot blocks, so sets
//! fill with blocks that are never referenced again and MIN's victim
//! choice meets ties among them; warm-ups run from 0 to past the end of
//! the stream.

use proptest::prelude::*;
use sim_core::{Access, CacheGeometry};
use sim_verify::refmodels::ref_min_misses;

/// One piece of a stream: `(kind, a, b)`, expanded by [`stream_of`].
type Segment = (u8, u64, u64);

/// Expands segments into accesses:
/// * kind 0 — a hot loop over `a % 24 + 1` blocks, `b` times;
/// * kind 1 — a scan of `4b` fresh blocks, never touched again;
/// * kind 2 — one one-shot block;
/// * kind 3 — `b` draws from a shared pool of 256 blocks.
fn stream_of(segments: &[Segment]) -> Vec<Access> {
    let mut blocks = Vec::new();
    let mut fresh = 1u64 << 24;
    for &(kind, a, b) in segments {
        match kind {
            0 => {
                for _ in 0..b {
                    blocks.extend(0..a % 24 + 1);
                }
            }
            1 => {
                blocks.extend(fresh..fresh + 4 * b);
                fresh += 4 * b;
            }
            2 => {
                blocks.push(fresh);
                fresh += 1;
            }
            _ => blocks.extend((0..b).map(|i| 4096 + (a * 7919 + i * 104_729) % 256)),
        }
    }
    blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| Access::read(b * 64 + (i as u64 % 8) * 8, 0x400_000))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any geometry of 1–64 sets × 1–32 ways, any warm-up from 0 to past
    /// the end of the stream: the optimized MIN equals the reference.
    #[test]
    fn min_misses_matches_reference(
        set_bits in 0u32..7,
        way_bits in 0u32..6,
        segments in proptest::collection::vec((0u8..4, 0u64..64, 1u64..48), 1..24),
        warm_pct in 0usize..130,
    ) {
        let geom = CacheGeometry::from_sets(1 << set_bits, 1 << way_bits, 64).unwrap();
        let stream = stream_of(&segments);
        let warmup = stream.len() * warm_pct / 100;
        prop_assert_eq!(
            mem_model::min_misses(&stream, geom, warmup),
            ref_min_misses(&stream, geom, warmup),
            "{} accesses, {}, warm-up {}", stream.len(), geom, warmup
        );
    }
}
