//! Differential test for the L1/L2 capture: the packed-kernel capture
//! ([`mem_model::capture_llc_stream_into`] and its wrappers) must emit the
//! same LLC stream, record for record, and the same instruction total as
//! the reference loop over `SetAssocCache<TrueLru>` levels
//! ([`ref_capture_llc_stream`]), under both writeback conventions.
//!
//! L1 and L2 shapes are drawn independently from 1–64 sets × 1–32 ways
//! (`CacheGeometry` admits powers of two only). The packed kernel takes
//! 2-, 4-, 8- and 16-way levels; 1- and 32-way levels take the scalar
//! fallback, alone or paired with a packed level, so every pairing of the
//! two implementations is pinned. Streams are stitched from hot loops,
//! scans and one-shot blocks with stores mixed in, so dirty L1 and L2
//! victims (and their writebacks) are frequent.
//!
//! The same shapes pin the seams of the other two users of the private
//! levels' walk: [`Hierarchy`]'s LLC sees exactly the writeback-inclusive
//! capture, and a one-core [`MulticoreHierarchy`]'s shared LLC exactly
//! the demand-only capture, whole [`CacheStats`] and instruction totals
//! alike, under LLC policies that do (SHiP, SDBP) and do not (PLRU) read
//! the access's PC.

use baselines::{SdbpPolicy, ShipPolicy};
use gippr::PlruPolicy;
use mem_model::hierarchy::capture_llc_stream_config;
use mem_model::{capture_llc_stream_into, Hierarchy, HierarchyConfig, MulticoreHierarchy};
use proptest::prelude::*;
use sim_core::{Access, AccessKind, CacheGeometry, CacheStats, ReplacementPolicy, SetAssocCache};
use sim_verify::refmodels::ref_capture_llc_stream;

/// One piece of a stream: `(kind, a, b)`, expanded by [`stream_of`].
type Segment = (u8, u64, u64);

/// Expands segments into accesses; every `write_every`-th access is a
/// store and every 97th carries a huge instruction gap (the rebased
/// deltas must saturate identically):
/// * kind 0 — a hot loop over `a % 40 + 1` blocks, `b` times;
/// * kind 1 — a scan of `4b` fresh blocks, never touched again;
/// * kind 2 — one one-shot block;
/// * kind 3 — `b` draws from a shared pool of 512 blocks.
fn stream_of(segments: &[Segment], write_every: u64) -> Vec<Access> {
    let mut blocks = Vec::new();
    let mut fresh = 1u64 << 24;
    for &(kind, a, b) in segments {
        match kind {
            0 => {
                for _ in 0..b {
                    blocks.extend(0..a % 40 + 1);
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
            _ => blocks.extend((0..b).map(|i| 4096 + (a * 7919 + i * 104_729) % 512)),
        }
    }
    blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let i = i as u64;
            Access {
                addr: b * 64 + (i % 8) * 8,
                pc: 0x400_000 + (i % 4) * 8,
                kind: if i % write_every == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                icount_delta: if i % 97 == 0 {
                    u32::MAX
                } else {
                    (i % 5) as u32 + 1
                },
            }
        })
        .collect()
}

fn config(l1: (u32, u32), l2: (u32, u32)) -> HierarchyConfig {
    let geom = |(set_bits, way_bits): (u32, u32)| {
        CacheGeometry::from_sets(1 << set_bits, 1 << way_bits, 64).unwrap()
    };
    HierarchyConfig {
        l1: geom(l1),
        l2: geom(l2),
        llc: CacheGeometry::from_sets(64, 16, 64).unwrap(),
    }
}

/// LLC policy `which` of PLRU, SHiP and SDBP.
fn llc_policy(which: u8, geom: &CacheGeometry) -> Box<dyn ReplacementPolicy> {
    match which {
        0 => Box::new(PlruPolicy::new(geom)),
        1 => Box::new(ShipPolicy::new(geom)),
        _ => Box::new(SdbpPolicy::new(geom)),
    }
}

/// `stream` replayed through a standalone LLC under policy `which`.
fn replay(cfg: &HierarchyConfig, which: u8, stream: &[Access]) -> CacheStats {
    let mut llc = SetAssocCache::new(cfg.llc, llc_policy(which, &cfg.llc));
    for a in stream {
        llc.access(a);
    }
    *llc.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Any L1 and L2 of 1–64 sets × 1–32 ways, either writeback
    /// convention: the capture equals the reference loop.
    #[test]
    fn capture_matches_reference_loop(
        l1 in (0u32..7, 0u32..6),
        l2 in (0u32..7, 0u32..6),
        segments in proptest::collection::vec((0u8..4, 0u64..64, 1u64..48), 1..24),
        write_every in 1u64..6,
        include_writebacks in proptest::bool::ANY,
    ) {
        let cfg = config(l1, l2);
        let refs = stream_of(&segments, write_every);
        let mut stream = Vec::new();
        let instructions =
            capture_llc_stream_into(cfg, refs.iter().copied(), include_writebacks, &mut stream);
        let (want, want_instructions) = ref_capture_llc_stream(cfg, &refs, include_writebacks);
        prop_assert_eq!(instructions, want_instructions);
        prop_assert_eq!(
            stream.len(), want.len(),
            "L1 {}, L2 {}, {} refs", cfg.l1, cfg.l2, refs.len()
        );
        if let Some(i) = (0..want.len()).find(|&i| stream[i] != want[i]) {
            panic!(
                "record {i} differs: {:?} vs reference {:?} (L1 {}, L2 {})",
                stream[i], want[i], cfg.l1, cfg.l2
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Hierarchy`'s LLC applies demands and writebacks: its statistics
    /// are the writeback-inclusive capture's, replayed.
    #[test]
    fn hierarchy_llc_equals_the_writeback_inclusive_capture_replayed(
        l1 in (0u32..7, 0u32..6),
        l2 in (0u32..7, 0u32..6),
        segments in proptest::collection::vec((0u8..4, 0u64..64, 1u64..48), 1..24),
        write_every in 1u64..6,
        which in 0u8..3,
    ) {
        let cfg = config(l1, l2);
        let refs = stream_of(&segments, write_every);
        let mut h = Hierarchy::new(cfg, llc_policy(which, &cfg.llc));
        h.run(refs.iter().copied());
        let (stream, instructions) = capture_llc_stream_config(cfg, refs.iter().copied(), true);
        prop_assert_eq!(h.instructions(), instructions);
        prop_assert_eq!(
            *h.llc_stats(), replay(&cfg, which, &stream),
            "L1 {}, L2 {}, policy {}", cfg.l1, cfg.l2, which
        );
    }

    /// A one-core `MulticoreHierarchy`'s shared LLC applies demands only:
    /// its statistics, total and attributed, are the demand-only
    /// capture's, replayed.
    #[test]
    fn one_core_multicore_llc_equals_the_demand_capture_replayed(
        l1 in (0u32..7, 0u32..6),
        l2 in (0u32..7, 0u32..6),
        segments in proptest::collection::vec((0u8..4, 0u64..64, 1u64..48), 1..24),
        write_every in 1u64..6,
        which in 0u8..3,
    ) {
        let cfg = config(l1, l2);
        let refs = stream_of(&segments, write_every);
        let mut mc = MulticoreHierarchy::new(1, cfg, llc_policy(which, &cfg.llc));
        mc.run_interleaved(vec![refs.iter().copied()], refs.len());
        let (stream, instructions) = mem_model::capture_llc_stream(cfg, refs.iter().copied());
        let want = replay(&cfg, which, &stream);
        prop_assert_eq!(mc.instructions(0), instructions);
        prop_assert_eq!(
            *mc.llc_total(), want,
            "L1 {}, L2 {}, policy {}", cfg.l1, cfg.l2, which
        );
        prop_assert_eq!(*mc.llc_stats(0), want);
    }
}

/// The paper-shaped hierarchy (8-way L1/L2, packed path) on real workload
/// models, both conventions.
#[test]
fn paper_scaled_capture_matches_reference_on_spec_models() {
    let cfg = HierarchyConfig::paper_scaled(4).unwrap();
    for bench in [
        traces::Spec2006::Mcf,
        traces::Spec2006::Libquantum,
        traces::Spec2006::DealII,
    ] {
        let refs: Vec<Access> = bench
            .workload()
            .scaled_down(4)
            .generator(0)
            .take(60_000)
            .collect();
        for include_writebacks in [false, true] {
            let (stream, instructions) =
                capture_llc_stream_config(cfg, refs.iter().copied(), include_writebacks);
            let (want, want_instructions) = ref_capture_llc_stream(cfg, &refs, include_writebacks);
            assert_eq!(instructions, want_instructions, "{}", bench.name());
            assert!(
                stream == want,
                "{} (writebacks {include_writebacks})",
                bench.name()
            );
        }
    }
}

/// The buffer-filling entry appends after what the caller left in `out`.
#[test]
fn capture_into_appends_to_the_callers_buffer() {
    let cfg = HierarchyConfig::paper_scaled(6).unwrap();
    let refs = stream_of(&[(1, 0, 40), (0, 30, 6)], 3);
    let marker = Access::read(0xdead_0000, 1);
    let mut out = Vec::with_capacity(refs.len() + 1);
    out.push(marker);
    let before = out.as_ptr();
    let instructions = capture_llc_stream_into(cfg, refs.iter().copied(), false, &mut out);
    let (want, want_instructions) = ref_capture_llc_stream(cfg, &refs, false);
    assert_eq!(instructions, want_instructions);
    assert_eq!(out[0], marker);
    assert!(out[1..] == want[..]);
    assert_eq!(
        out.as_ptr(),
        before,
        "a pre-sized buffer is not reallocated"
    );
}
